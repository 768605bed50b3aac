"""Correctness checks run on every benchmark run, after the timed rounds.

None of them changes the timed trajectory: the training checks work on a
deep copy of the trained model and its optimizer, and the evaluation checks
only run inference, which ``eval_purity`` shows leaves the model bitwise
unchanged. Each check returns a dict with its name, the phase and variant
whose operations it vouches for, ``ok`` and a one-line detail.
"""

from __future__ import annotations

import copy
import hashlib
import traceback

import numpy as np

from dafss.arbitration import knn_weights
from dafss.autodiff import backward
from dafss.scenes import Episode, Scene
from dafss.training import LossWeights, base_loss, seg_loss, total_loss

MIOU_TOL = 1e-12  # both sides count the same integers; only the mean may round
ADAMW_TOL = 1e-12  # relative; the formula repeats the update's own arithmetic
# Steps along a unit direction over all parameters. The loss has ReLU kinks,
# and a kink closer to the point than a step spoils that step's difference:
# once in 232 checks a kink 2.5e-6 away spoiled both steps of 1e-5 and 3e-6,
# while a step of 1e-6, short of the kink, agreed to 2e-7. A wrong gradient
# shows along every direction and at every step, a kink along few directions
# and only at steps that reach it, so the check passes as soon as one step
# along one of FD_DIRECTIONS directions agrees.
FD_STEPS = (1e-5, 3e-6, 1e-6)
FD_DIRECTIONS = 3
FD_TOL = 1e-6  # relative to max(|<g,v>|, FD_SCALE); measured errors 1e-10 to 6e-7
FD_SCALE = 1e-3
# The consistency term trains each expert against a stop-gradient copy of the
# other, so its gradient is by design not the derivative of its value; the
# directional check therefore weighs it zero. Tier-1 checks it against
# finite differences with the anchors frozen.
FD_WEIGHTS = LossWeights(lambda_consistency=0.0)
PERM_TOL = 1e-12  # relative to the largest logit
KNN_TOL = 1e-12


def fingerprint(model) -> str:
    """Digest of every parameter and the batch-norm running statistics."""
    h = hashlib.sha256()
    for name, arr in sorted(model.state_dict().items()):
        h.update(name.encode())
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def _guarded(name, phase, variant, fn, *args):
    try:
        ok, detail = fn(*args)
    except Exception:  # a check that raises is a failed check, reported with its cause
        ok, detail = False, traceback.format_exc(limit=3).strip().splitlines()[-1]
    return {"name": name, "phase": phase, "variant": variant, "ok": bool(ok), "detail": detail}


def _training_loss(model, episode):
    out = model.forward(episode, train=True)
    seg = seg_loss(out.logits, episode.query_labels)
    base = base_loss(out.base_logits, episode.base_class_labels)
    return total_loss(seg, base, out.proto_loss, out.consist_loss, FD_WEIGHTS)


# -- training checks ----------------------------------------------------------


def losses_finite(records):
    fields = ("loss_total", "loss_seg", "loss_base", "loss_proto", "loss_consistency")
    bad = [(r.step, f) for r in records for f in fields if not np.isfinite(getattr(r, f))]
    return not bad, f"{len(records)} steps, non-finite: {bad[:3]}"


def frozen_unchanged(before, after):
    same = len(before) == len(after) and all(np.array_equal(a, b) for a, b in zip(before, after))
    return same, f"{len(before)} frozen arrays {'unchanged' if same else 'CHANGED'}"


def rounds_identical(rounds):
    """Every round replays the same fixed episode list from the same state."""
    mious = {r["miou"] for r in rounds}
    prints = {r["post_eval_fingerprint"] for r in rounds}
    ok = len(mious) == 1 and len(prints) == 1
    return ok, f"{len(rounds)} rounds, {len(mious)} distinct mIoU, {len(prints)} distinct final states"


def directional_derivative(model, episode, seed):
    """Central differences of the training loss along random unit directions
    against <grad L, v>; leaves the copy with the gradients of L set."""
    params = list(model.parameters().values())
    grads = backward(_training_loss(model, episode))
    originals = [p.data.copy() for p in params]
    tried = []
    try:
        for k in range(FD_DIRECTIONS):
            rng = np.random.default_rng([seed, 7, k])
            direction = [rng.normal(size=p.data.shape) for p in params]
            norm = np.sqrt(sum(float(np.sum(v * v)) for v in direction))
            direction = [v / norm for v in direction]
            analytic = sum(float(np.sum(grads[p] * v)) for p, v in zip(params, direction) if p in grads)
            errors = []
            for step in FD_STEPS:
                values = []
                for sign in (1.0, -1.0):
                    for p, v, o in zip(params, direction, originals):
                        p.data = o + sign * step * v
                    values.append(_training_loss(model, episode).item())
                numeric = (values[0] - values[1]) / (2.0 * step)
                errors.append(abs(numeric - analytic) / max(abs(analytic), FD_SCALE))
            tried.append(f"<g,v>={analytic:.9e}, rel err {', '.join(f'{e:.1e}' for e in errors)}")
            if min(errors) <= FD_TOL:
                break
    finally:
        for p, o in zip(params, originals):
            p.data = o
    return min(errors) <= FD_TOL, f"{'; '.join(tried)} at steps {FD_STEPS} (tol {FD_TOL:g})"


def adamw_matches_formula(optimizer):
    """One ``AdamW.step`` against the decoupled-decay update of
    Loshchilov & Hutter (arXiv:1711.05101), computed from the same
    gradients, moments and step counts."""
    o = optimizer
    expected = {}
    for name, p in o.params.items():
        if p.grad is None:
            continue
        st = o.state[name]
        g, t = p.grad, st.step_count + 1
        m = o.beta1 * st.first_moment + (1.0 - o.beta1) * g
        v = o.beta2 * st.second_moment + (1.0 - o.beta2) * g * g
        m_hat = m / (1.0 - o.beta1**t)
        v_hat = v / (1.0 - o.beta2**t)
        decayed = p.data - o.lr * o.weight_decay * p.data
        expected[name] = (decayed - o.lr * m_hat / (np.sqrt(v_hat) + o.eps), m, v)
    o.step()
    worst = 0.0
    for name, (p_new, m, v) in expected.items():
        st = o.state[name]
        for got, want in ((o.params[name].data, p_new), (st.first_moment, m), (st.second_moment, v)):
            scale = max(float(np.max(np.abs(want))), 1e-300)
            worst = max(worst, float(np.max(np.abs(got - want))) / scale)
    ok = bool(expected) and worst <= ADAMW_TOL
    return ok, f"{len(expected)} tensors, worst relative deviation {worst:.2e} (tol {ADAMW_TOL:g})"


def training_checks(variant, model, optimizer, episode, rounds, frozen_before, seed):
    records = [rec for r in rounds for rec in r["records"]]
    # The copy keeps model and optimizer sharing their parameter tensors.
    m_copy, o_copy = copy.deepcopy((model, optimizer))
    return [
        _guarded("losses_finite", "train", variant, losses_finite, records),
        _guarded("frozen_state_unchanged", "train", variant, frozen_unchanged,
                 frozen_before, model.frozen_state()),
        _guarded("rounds_identical", "train", variant, rounds_identical, rounds),
        _guarded("directional_derivative", "train", variant, directional_derivative,
                 m_copy, episode, seed),
        _guarded("adamw_formula", "train", variant, adamw_matches_formula, o_copy),
    ]


# -- evaluation checks --------------------------------------------------------


def miou_from_bincount(model, episodes, reported):
    """The mIoU that ``metrics.evaluate`` reported for the last timed round
    against one rebuilt with np.bincount from the argmax of the logits."""
    n = model.config.n_way + 1
    preds = np.concatenate([np.argmax(model.forward(ep, train=False).logits.data, axis=1)
                            for ep in episodes])
    labels = np.concatenate([ep.query_labels for ep in episodes])
    conf = np.bincount(labels * n + preds, minlength=n * n).reshape(n, n)
    ious = []
    for c in range(1, n):
        union = conf[c, :].sum() + conf[:, c].sum() - conf[c, c]
        if union > 0:
            ious.append(conf[c, c] / union)
    mine = float(np.mean(ious))
    return abs(mine - reported) <= MIOU_TOL, (f"evaluate {reported:.12f} bincount {mine:.12f} "
                                              f"over {len(episodes)} episodes")


def eval_purity(rounds):
    changed = [i for i, r in enumerate(rounds) if r["pre_eval_fingerprint"] != r["post_eval_fingerprint"]]
    return not changed, f"{len(rounds)} evaluations, rounds that changed the model: {changed}"


def permutation_equivariance(model, episode, seed):
    """Permuting the query points permutes the logits, and nothing else."""
    q = episode.query
    perm = np.random.default_rng([seed, 11]).permutation(len(q))
    query = Scene(points=q.points[perm], texture=q.texture[perm], labels=q.labels[perm],
                  class_set=list(q.class_set), seed=q.seed)
    permuted = Episode(support=episode.support, query=query,
                       query_labels=episode.query_labels[perm], n_way=episode.n_way,
                       k_shot=episode.k_shot, novel_classes=list(episode.novel_classes))
    ref = model.forward(episode, train=False).logits.data
    got = model.forward(permuted, train=False).logits.data
    err = float(np.max(np.abs(got - ref[perm]))) / float(np.max(np.abs(ref)))
    return err <= PERM_TOL, f"{len(q)} points, relative deviation {err:.2e} (tol {PERM_TOL:g})"


def knn_reference(points, k, radius):
    """Row by row: the k nearest (ties by index), the point itself always
    kept, others only within the radius, inverse-distance weights."""
    n = len(points)
    out = np.zeros((n, n))
    for i in range(n):
        dist = np.sqrt(np.sum((points - points[i]) ** 2, axis=1))
        nearest = np.argsort(dist, kind="stable")[:k]
        kept = nearest[(nearest == i) | (dist[nearest] <= radius)]
        out[i, kept] = 1.0 / (dist[kept] + 1e-3)
        out[i] /= out[i].sum()
    return out


def knn_matches_reference(model, points):
    dec = model.decoder
    got = knn_weights(points, dec.k, dec.radius)
    row_err = float(np.max(np.abs(got.sum(axis=1) - 1.0)))
    ref_err = float(np.max(np.abs(got - knn_reference(points, dec.k, dec.radius))))
    ok = row_err <= KNN_TOL and ref_err <= KNN_TOL
    return ok, f"{len(points)} points, row-sum error {row_err:.1e}, reference deviation {ref_err:.1e}"


def evaluation_checks(variant, model, episodes, rounds, seed):
    first = episodes[0]
    return [
        _guarded("miou_bincount", "eval", variant, miou_from_bincount, model, episodes,
                 rounds[-1]["miou"]),
        _guarded("eval_purity", "eval", variant, eval_purity, rounds),
        _guarded("query_permutation", "eval", variant, permutation_equivariance, model, first, seed),
        _guarded("knn_weights_reference", "eval", variant, knn_matches_reference, model,
                 first.query.points),
    ]
