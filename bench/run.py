"""Benchmark of the dafss decoupled and fused variants, from one process.

Run from the repository root:

    python3 bench/run.py --workload fit_novel --seed 1 --seconds 50 --trace 0
    python3 bench/run.py --compare old.jsonl new.jsonl

A run prints one JSON object as its last line: ``correct``, ``attempted``,
``failed`` and ``metrics``. With ``--trace 0`` the metrics are the
end-to-end ones of BENCHMARK.json, with ``--trace 1`` the per-layer ones.
Each run also appends its full record (metrics, checks, host facts) to the
``--out`` file, and a traced run saves its spans next to it.
See bench/README.md for the workloads and what each metric should move.
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread, fixed before numpy is imported: with threads left
# free, identical runs differed by up to 30% and stalled on first use.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SPEC_FILE = ROOT / "BENCHMARK.json"
DEFAULT_OUT = ROOT / ".bench_out" / "results.jsonl"
MEMORY_EPISODES = 3  # episodes per phase in the tracemalloc pass


def _import_package():
    if not (ROOT / "src" / "dafss" / "__init__.py").is_file():
        sys.exit(f"bench: no dafss sources under {ROOT / 'src'}; run from a full checkout")
    sys.path.insert(0, str(ROOT / "src"))


_import_package()

import numpy as np  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from dafss.model import MODES  # noqa: E402
from dafss.optim import AdamW  # noqa: E402
from dafss.training import LossWeights, train_episode  # noqa: E402
from spans import Tracer  # noqa: E402

COMMON_LAYERS = ("features.uf_encode", "features.if_encode", "features.correlate",
                 "experts.run_expert", "arbitration.merge", "arbitration.arbitrate",
                 "arbitration.gate", "arbitration.decode", "arbitration.knn_weights")
PHASE_LAYERS = {
    "train": COMMON_LAYERS + ("alignment.losses", "training.losses",
                              "autodiff.backward", "optim.step"),
    "eval": COMMON_LAYERS,
}
PHASE_COUNTERS = {
    "train": ("autodiff.fwd_matmul_mflop", "autodiff.op_calls", "optim.tensors"),
    "eval": ("autodiff.fwd_matmul_mflop", "autodiff.op_calls"),
}


def host_facts() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "cpu_count": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def list_rate(rounds, variant, phase) -> float:
    """Episodes per second over all rounds, each a whole pass of the list.

    The machine alternates between a fast and a slow state for seconds at a
    time, so per-round rates are bimodal; their median jumps between the two
    modes from run to run, while the total over all rounds moves with the
    share of time spent slow and spread less in every measured set (README)."""
    times = [t for r in rounds for t in r[variant][f"{phase}_times"]]
    return len(times) / sum(times)


def end_to_end_metrics(setup_s, rounds, peak_rss_mb) -> dict:
    out = {"setup_s": setup_s, "peak_rss_mb": peak_rss_mb}
    for v in MODES:
        out[f"train_ep_per_s.{v}"] = list_rate(rounds, v, "train")
        out[f"eval_ep_per_s.{v}"] = list_rate(rounds, v, "eval")
    return out


def per_layer_metrics(tracer, untraced, traced, memory) -> dict:
    """Per-episode self time of each layer, counts, remainder and overhead."""
    self_s = tracer.self_times()
    set_ups = len(tracer.durations("model.init", MODES[0]))
    out = {
        "scenes.build_pool_s": sum(tracer.durations("scenes.build_pool")) / set_ups,
        "scenes.sample_episode_ms": 1e3 * statistics.fmean(tracer.durations("scenes.sample_episode")),
    }
    for v in MODES:
        out[f"model.init_s.{v}"] = sum(tracer.durations("model.init", v)) / set_ups
        for phase in ("train", "eval"):
            episodes = tracer.episodes(phase, v)
            total, count = sum(episodes), len(episodes)
            reported = 0.0
            for layer in PHASE_LAYERS[phase]:
                reported += self_s[(phase, v, layer)]
                out[f"{phase}.{layer}_ms.{v}"] = 1e3 * self_s[(phase, v, layer)] / count
            for counter in PHASE_COUNTERS[phase]:
                out[f"{phase}.{counter}.{v}"] = tracer.counts[(phase, v, counter)] / count
            out[f"{phase}.remainder_ms.{v}"] = 1e3 * (total - reported) / count
            out[f"{phase}.episode_ms.{v}"] = 1e3 * total / count
            out[f"{phase}.trace_overhead_pct.{v}"] = 100.0 * (
                list_rate(untraced, v, phase) / list_rate(traced, v, phase) - 1.0)
        out[f"train.training.step_peak_mb.{v}"], out[f"eval.model.forward_peak_mb.{v}"] = memory[v]
        out[f"eval.metrics.miou.{v}"] = traced[-1][v]["miou"]
    return out


def peak_memory(inputs, variant) -> tuple:
    """Median tracemalloc peak (MB) of a training step and of an evaluation
    forward, from the initial state; numpy reports its buffers to tracemalloc."""
    model = inputs.models[variant]
    model.load_state_dict(inputs.initial_state[variant])
    optimizer = AdamW(model.parameters())

    def peak_mb(call):
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        call()
        return (tracemalloc.get_traced_memory()[1] - before) / 2**20

    tracemalloc.start()
    try:
        train = [peak_mb(lambda: train_episode(model, ep, optimizer, LossWeights(), step))
                 for step, ep in enumerate(inputs.train_episodes[:MEMORY_EPISODES])]
        evals = [peak_mb(lambda: model.forward(ep, train=False))
                 for ep in inputs.eval_episodes[:MEMORY_EPISODES]]
    finally:
        tracemalloc.stop()
    return statistics.median(train), statistics.median(evals)


def run(args, spec) -> dict:
    workload = workloads.WORKLOADS[args.workload]
    tracer = Tracer()
    errors: list = []
    meas = workloads.measure(workload, args.seed, args.seconds, tracer, args.trace, errors)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    inputs, all_rounds = meas.inputs, meas.untraced + meas.rounds

    results = []
    for v, model in inputs.models.items():
        variant_rounds = [r[v] for r in all_rounds]
        results += checks.training_checks(v, model, all_rounds[-1][v]["optimizer"],
                                          inputs.train_episodes[0], variant_rounds,
                                          meas.frozen[v], args.seed)
        results += checks.evaluation_checks(v, model, inputs.eval_episodes, variant_rounds,
                                            args.seed)

    attempted = failed = 0
    for v in MODES:
        for phase, n, raised in (("train", workload.n_train, "train_raised"),
                                 ("eval", workload.n_eval, "eval_raised")):
            ops = n * len(all_rounds)
            bad = any(not c["ok"] for c in results if (c["phase"], c["variant"]) == (phase, v))
            attempted += ops
            failed += ops if bad else sum(r[v][raised] for r in all_rounds)

    if args.trace:
        memory = {v: peak_memory(inputs, v) for v in MODES}
        metrics = per_layer_metrics(tracer, meas.untraced, meas.rounds, memory)
        names = spec["per_layer"]
    else:
        metrics = end_to_end_metrics(statistics.median(meas.setup_times), meas.rounds, peak_rss_mb)
        names = spec["end_to_end"]
    if set(metrics) != {m["name"] for m in names}:
        raise RuntimeError(f"metrics differ from {SPEC_FILE.name}: "
                           f"{sorted(set(metrics) ^ {m['name'] for m in names})}")
    return {
        "correct": all(c["ok"] for c in results),
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": float(metrics[m["name"]]), "unit": m["unit"]} for m in names},
        "record": {
            "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "rounds": len(meas.rounds), "untraced_rounds": len(meas.untraced),
            "miou": {v: meas.rounds[-1][v]["miou"] for v in MODES},
            "setup_times": meas.setup_times,
            "episode_times": {v: {p: [r[v][f"{p}_times"] for r in all_rounds] for p in ("train", "eval")}
                              for v in MODES},
            "checks": results, "errors": errors, "host": host_facts(),
        },
        "tracer": tracer,
    }


# -- compare mode -------------------------------------------------------------


def load_records(path) -> dict:
    """(workload, trace) -> metric -> values, over every run in a results file."""
    groups: dict = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                rec = json.loads(line)
                group = groups.setdefault((rec["workload"], rec["trace"]), {})
                for name, m in rec["metrics"].items():
                    group.setdefault(name, []).append(m["value"])
                group.setdefault("failed_share", []).append(rec["failed"] / rec["attempted"])
    return groups


def quartiles(values) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def compare(paths) -> None:
    sides = [load_records(p) for p in paths]
    for key in sorted(set().union(*sides)):
        workload, trace = key
        print(f"\n== {workload} ({'per layer' if trace else 'end to end'}) ==")
        header = f"{'metric':44s}" + "".join(
            f" {'n':>3s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>7s}" for _ in sides)
        print(header + (f" {'delta':>8s}" if len(sides) == 2 else ""))
        for name in sorted(set().union(*(s.get(key, {}) for s in sides))):
            row, meds = f"{name:44s}", []
            for side in sides:
                values = side.get(key, {}).get(name)
                if not values:
                    row += f" {'-':>3s} {'':>12s} {'':>12s} {'':>12s} {'':>7s}"
                    meds.append(None)
                    continue
                q1, q2, q3 = quartiles(values)
                spread = f"{100 * (q3 - q1) / abs(q2):6.1f}%" if q2 else f"{'-':>7s}"
                row += f" {len(values):3d} {q2:12.6g} {q1:12.6g} {q3:12.6g} {spread}"
                meds.append(q2)
            if len(sides) == 2 and None not in meds and meds[0]:
                row += f" {100 * (meds[1] / meds[0] - 1):+7.2f}%"
            print(row)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT,
                        help="results file that each run appends its record to")
    parser.add_argument("--compare", nargs="+", metavar="RESULTS", type=Path,
                        help="print medians, quartiles and deltas of one or two results files")
    args = parser.parse_args(argv)
    if args.compare:
        if len(args.compare) > 2:
            parser.error("--compare takes one or two results files")
        compare(args.compare)
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    with open(SPEC_FILE, encoding="utf-8") as fh:
        spec = json.load(fh)
    result = run(args, spec)
    record = dict(result["record"], correct=result["correct"], attempted=result["attempted"],
                  failed=result["failed"], metrics=result["metrics"])
    args.out.parent.mkdir(parents=True, exist_ok=True)
    with open(args.out, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record) + "\n")
    if args.trace:
        result["tracer"].write(args.out.parent / f"spans-{args.workload}-seed{args.seed}.json")
    for c in result["record"]["checks"]:
        if not c["ok"]:
            print(f"CHECK FAILED {c['name']} [{c['phase']}/{c['variant']}]: {c['detail']}", file=sys.stderr)
    for err in result["record"]["errors"]:
        print(err, file=sys.stderr)
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
