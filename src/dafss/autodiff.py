"""Dense float64 tensors with reverse-mode automatic differentiation.

Every operation returns a new ``Tensor`` and, when any input requires a
gradient, records a backward closure plus references to its parents. Calling
:func:`backward` on a scalar walks the graph once in reverse creation
order, which is a reverse topological order because an op creates its
result after its inputs, and accumulates gradients additively into every
reachable leaf.

Conventions:
  * all data is float64, row-major, CPU-only; the heads of one
    :func:`attention` call may run on several threads of the process, and
    no result depends on how many;
  * leaf gradients are NOT cleared implicitly -- callers zero them between
    steps; the gradients of intermediate nodes live only during a sweep;
  * :func:`stop_gradient` is the identity on values and detaches the result
    from the graph entirely;
  * inside a :class:`no_grad` block no op records a graph, so nothing is
    kept alive for a backward pass that will never come;
  * batch-norm running statistics are named tensors that take no gradient.
"""

from __future__ import annotations

import ctypes
import itertools
import os
import platform
from concurrent.futures import ThreadPoolExecutor, wait
from typing import Callable, Optional, Sequence

import numpy as np

from dafss.errors import DegenerateBatchError, GraphError, InputError, ShapeError, is_integer

NORM_EPS = 1e-5  # added to the variance by layer_norm and batch_norm
BATCH_NORM_MOMENTUM = 0.1  # weight of a batch's statistics in the running ones
COSINE_EPS = 1e-12  # smallest row norm cosine_rows divides by
HEAP_KEEP_BYTES = 64 << 20  # free heap top that glibc keeps instead of returning
HEAP_MMAP_BYTES = 32 << 20  # smallest block glibc maps on its own (its largest allowed)


def _keep_freed_heap() -> None:
    """Fix glibc's trim and mmap thresholds for this process, and keep every
    thread's allocations in the one main arena.

    A training step records a graph that holds every intermediate and frees
    them together after the update. By default glibc derives both
    thresholds from the largest mapped block freed so far and hands the
    free heap top back to the kernel whenever it exceeds twice that, so
    the next step faults the same pages in again. How often that happened
    hung on which arrays the process had freed before: over ten seeds of
    the default 1-way 1-shot training, a warm decoupled step made 0 to
    2500 minor faults and 0 to 10 ms of kernel time, against 35-50 ms of
    step (2-core VM). With the thresholds fixed, every seed made at most
    6 faults and no kernel time.

    The trim threshold covers the main arena only. Without a limit of one
    arena, the tiles that :func:`attention`'s pool threads allocate land
    in per-thread arenas that the fixed thresholds do not govern: on 4x
    dense evaluation (``bench/run.py --seconds 20``, seeds 1-4, 2-core VM)
    the peak resident set then rose 3.1% over single-threaded heads, in
    place of 1.9% with one arena, for the same evaluation rate (+10.3%
    against +10.5%). The threads allocate a few large tiles per head, so
    they seldom wait for the arena's lock. Other C libraries are left as
    they are."""
    if platform.system() != "Linux" or platform.libc_ver()[0] != "glibc":
        return
    mallopt = ctypes.CDLL(None).mallopt
    m_trim_threshold, m_mmap_threshold, m_arena_max = -1, -3, -8  # from <malloc.h>
    mallopt(m_trim_threshold, HEAP_KEEP_BYTES)
    mallopt(m_mmap_threshold, HEAP_MMAP_BYTES)
    mallopt(m_arena_max, 1)


_keep_freed_heap()


_creation = itertools.count()  # numbers every Tensor in the order it is made


class Tensor:
    """A dense array plus the bookkeeping needed for reverse-mode autodiff."""

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward", "_done", "_seq")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64, order="C")
        self.requires_grad = bool(requires_grad)
        self.grad: Optional[np.ndarray] = None
        self._parents: tuple = ()
        self._backward: Optional[Callable[[np.ndarray], None]] = None
        self._done = False
        self._seq = next(_creation)

    @property
    def shape(self) -> tuple:
        return self.data.shape

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() on tensor of shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def parameter(data) -> Tensor:
    """A leaf tensor that participates in optimization."""
    return Tensor(data, requires_grad=True)


def constant(data) -> Tensor:
    """A leaf tensor that never receives a gradient."""
    return Tensor(data, requires_grad=False)


_grad_enabled = True


class no_grad:
    """Context manager under which ops record no parents and no closure.

    Results have ``requires_grad=False``. The previous state comes back on
    exit, also when the block raises, so blocks nest."""

    def __enter__(self) -> "no_grad":
        global _grad_enabled
        self._prev = _grad_enabled
        _grad_enabled = False
        return self

    def __exit__(self, *exc) -> None:
        global _grad_enabled
        _grad_enabled = self._prev


def _node(data: np.ndarray, parents: Sequence[Tensor], backward: Callable[[np.ndarray], None]) -> Tensor:
    out = Tensor(data)
    if _grad_enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward
    return out


def _accum(t: Tensor, g: np.ndarray, owned: bool = False) -> None:
    """Add ``g`` into ``t.grad``.

    A first gradient is copied, because ``g`` may be shared with another
    parent or be a view, unless the caller passes ``owned=True`` for a
    temporary nothing else holds; even then only a C-contiguous float64
    array is kept as it is."""
    if not t.requires_grad:
        return
    if t.grad is None:
        if (owned and isinstance(g, np.ndarray) and g.dtype == np.float64
                and g.flags.c_contiguous):
            t.grad = g
        else:
            t.grad = np.array(g, dtype=np.float64, order="C")
    else:
        t.grad += g


# ---------------------------------------------------------------------------
# linear algebra
# ---------------------------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul requires [m,k] x [k,n], got {a.shape} x {b.shape}")
    out_data = a.data @ b.data

    def backward(g: np.ndarray) -> None:
        if a.requires_grad:
            _accum(a, g @ b.data.T, owned=True)
        if b.requires_grad:
            _accum(b, a.data.T @ g, owned=True)

    return _node(out_data, (a, b), backward)


# ---------------------------------------------------------------------------
# normalizations and softmax
# ---------------------------------------------------------------------------


def softmax(x: Tensor) -> Tensor:
    """Softmax over the rows of a matrix with at least one column; each row sums to 1."""
    if x.data.ndim != 2 or x.shape[1] == 0:
        raise ShapeError(f"softmax expects a matrix with at least one column, got shape {x.shape}")
    s = x.data - np.max(x.data, axis=1, keepdims=True)
    np.exp(s, out=s)
    s /= np.sum(s, axis=1, keepdims=True)

    def backward(g: np.ndarray) -> None:
        t = g - np.sum(g * s, axis=1, keepdims=True)
        t *= s
        _accum(x, t, owned=True)

    return _node(s, (x,), backward)


# Score elements per tile of attention, 512 KB of float64: rows per tile
# are max(1, ATTENTION_TILE_ELEMS // m) over m keys, so a tile and the
# backward's gradient tile of the same size fit a 2 MB L2 cache together.
# At m = n = 826 (one thread, 2-core VM, numpy 2.4 with OpenBLAS), d_k = 3,
# a forward pass took 1.2 ms with 79-row tiles, against 1.9 ms for one tile
# of all rows and 1.4 ms with 16384-element tiles, and forward plus backward
# 3.2 ms, against 5.3 ms and 3.5 ms; at d_k = 48 the forward took 4.1-4.8 ms
# at every budget from 16384 elements to one tile, and forward plus backward
# 12.3 ms here against 10.9 ms for one tile.
ATTENTION_TILE_ELEMS = 65536
# A row of attention whose exp sum falls below this is formed again from
# its exact row max: its bound overshot its largest score by about 460 or more.
ROW_SUM_FLOOR = 1e-200
# Work per head, n * m * (dk + dv) for n queries and m keys, from which an
# attention call spreads its heads over threads. End to end (bench/run.py
# --seconds 20, seeds 1-4, 2-core VM, one BLAS thread), threading the
# arbitration heads of 4x dense evaluation (n = m = 442-826 at dk = dv = 48,
# 18.7e6 and up) raised decoupled evaluation by 11%; also threading the
# expert heads there (dk = dv = 3, at most 4.1e6) moved it by -0.8%; and
# threading every call of default-density scenes (n m <= 55225, at most
# 5.3e6) cut their evaluation by 8-9% and decoupled training by 3%.
ATTENTION_THREAD_WORK = 10_000_000

_pool: Optional[tuple] = None  # (threads, executor or None), made at the first threaded call


def _usable_cpus() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _drop_pool() -> None:
    """Forget the pool: a forked child holds none of its parent's threads,
    and a task queued to their executor would wait for ever."""
    global _pool
    _pool = None


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_drop_pool)


def _each_head(task: Callable[[int], object], heads: int, work: int) -> list:
    """``[task(h) for h in range(heads)]``. From ``ATTENTION_THREAD_WORK``
    per head on, the calling thread and each of the pool's threads, one
    fewer than the usable CPUs, take every ``T``-th head for ``T`` threads
    in all; below it, or on one CPU, the caller takes every head. The
    caller waits for every head, also when one raises, and then re-raises
    the error."""
    global _pool
    share = 1
    if heads > 1 and work >= ATTENTION_THREAD_WORK:
        if _pool is None:
            threads = _usable_cpus() - 1
            _pool = (threads, ThreadPoolExecutor(threads) if threads else None)
        share = _pool[0] + 1

    def run(first: int) -> list:
        return [task(h) for h in range(first, heads, share)]

    futures = [_pool[1].submit(run, j) for j in range(1, min(share, heads))]
    try:
        parts = [run(0)]
    finally:
        wait(futures)
    parts += [f.result() for f in futures]
    out = [None] * heads
    for j, part in enumerate(parts):
        out[j::share] = part
    return out


def _block_sums(parts: Sequence[np.ndarray], blocks: int) -> Sequence[np.ndarray]:
    """Per-head gradient partials of a ``k`` or ``v`` with ``blocks`` column
    blocks: each head's own, or, for one block all heads share, their sum
    taken in head order whatever thread made each."""
    if blocks == len(parts):
        return parts
    total = parts[0]
    for part in parts[1:]:
        total += part
    return [total]


def attention(q: Tensor, k: Tensor, v: Tensor, c: float = 1.0,
              key_bias: Optional[np.ndarray] = None, heads: int = 1) -> Tensor:
    """``softmax(c * q @ k.T + key_bias) @ v``, with ``exp`` the one pass over a score tile.

    Keys are rows, ``[m, dk]``, as queries are. The ``[n, m]`` score matrix
    is never held whole: it is formed ``max(1, ATTENTION_TILE_ELEMS // m)``
    query rows at a time. Each row ``i`` is shifted by a bound on its
    scores rather than by their max,

        bound_i = |c q_i| * max_j |k_j| + max(key_bias) >= max_j s_ij

    by Cauchy-Schwarz, so no ``exp`` overflows, and the shift cancels in the
    normalisation. Both the shift and the bias ride on the score product:
    one product ``[c q, 1, -bound] @ [k^T; key_bias; 1]`` gives the shifted
    tile, ``e = exp`` is taken in place, and one product ``e @ [v, 1]``
    gives ``e @ v`` and the row sums ``l`` together. Only the ``[rows, dv]``
    block is divided by ``l``, never the tile.

    A row whose ``l`` falls below ``ROW_SUM_FLOOR`` had its bound overshoot
    its largest score by hundreds, and its ``e`` lost its precision to
    underflow; it is formed again shifted by its exact row max. Training
    and evaluating the default models overshot by at most 3.9 at d_k = 3
    and 18.4 at d_k = 48, so only scores far outside that range take this
    path.

    A recorded graph keeps only the ``e`` tiles (no entry above 1 but by
    rounding) and their row sums. With ``g' = g / l`` and ``out`` the
    output rows, ``rowsum(g' v^T * e) / l = rowsum(g' * out)``, so the
    backward is

        dv = e^T g',    t = ([g', -rowsum(g' * out)] @ [v^T; 1]) * e,
        dq = c * t k,   dk = c * t^T q,

    and touches each tile once besides its products.

    This differs from the chain ``matmul, scale, softmax, matmul`` in
    rounding only, not in its bits: the tests hold outputs and gradients
    within 1e-13 relative of the chain's, and within 1e-12 for scores of
    magnitude 1e3, for rows whose scores are all equal and for rows that
    take the exact-max path.

    ``key_bias``, a constant ``[m]`` vector, is added to every row of the
    scaled scores, and the backward is the same with or without it. A key
    row that stands for ``n`` equal keys (and its value row for their ``n``
    equal values) with a bias of ``log n`` gives the output of attention
    over the expanded keys; its gradient is the expanded keys' gradients
    summed.

    With ``heads = H``, ``q`` is ``[n, H*dk]``, head ``h`` in column block ``h``,
    and ``k`` and ``v`` hold a block per head or one all heads share (``dk``
    wide if ``H > 1``). Each head keeps its own tiles and has the bits of its
    own call; a shared block is set up once and its gradient summed.

    Each head's tile loop is one task, in the forward pass and in the
    backward pass, and from ``ATTENTION_THREAD_WORK`` per head on the tasks
    run on a private thread pool as well as the calling thread (numpy
    releases the interpreter lock in its products and ``exp``). A task
    writes only its own column block of the output and of ``dq``, keeps its
    own tiles and returns its own ``dk`` and ``dv`` partials, which the
    caller sums over the heads in head order. So no output or gradient bit
    depends on the number of threads or on their timing.
    """
    if not (is_integer(heads) and heads >= 1 and q.data.ndim == k.data.ndim == v.data.ndim == 2
            and q.shape[1] % heads == 0 and k.shape[0] == v.shape[0] >= 1
            and k.shape[1] in (q.shape[1] // heads, q.shape[1])
            and (heads == 1 or v.shape[1] in (q.shape[1] // heads, q.shape[1]))):
        raise ShapeError(f"attention of {heads!r} heads requires [n,H*dk] x [m,dk|H*dk] x [m,d|H*d], "
                         f"d = dk if H > 1, m >= 1, got {q.shape} x {k.shape} x {v.shape}")
    bias = np.zeros(k.shape[0]) if key_bias is None else np.asarray(key_bias, dtype=np.float64)
    if bias.shape != (k.shape[0],):
        raise ShapeError(f"attention key_bias of shape {bias.shape} does not match "
                         f"{k.shape[0]} keys")
    if not np.all(np.isfinite(bias)):
        raise InputError(f"attention key_bias has a non-finite value at key "
                         f"{int(np.argmin(np.isfinite(bias)))}")
    c = float(c)
    n, m, dk = q.shape[0], k.shape[0], q.shape[1] // heads
    dv = v.shape[1] if heads == 1 else dk
    n_kb, n_vb = (1 if t.shape[1] == d else heads for t, d in ((k, dk), (v, dv)))
    step = max(1, ATTENTION_TILE_ELEMS // m)
    rows = [slice(lo, lo + step) for lo in range(0, n, step)]
    work = n * m * (dk + dv)
    # Tiles are kept only for a graph that will be recorded, so a forward pass
    # without one holds a single tile per running head at a time.
    record = _grad_enabled and (q.requires_grad or k.requires_grad or v.requires_grad)
    out_data = np.empty((n, heads * dv))
    kbs = []  # per distinct block: k_j, [k_j^T; key_bias; 1] and max_j |k_j|
    for j in range(n_kb):
        kj, kb = k.data[:, j * dk:(j + 1) * dk], np.empty((dk + 2, m))
        kb[:dk], kb[dk], kb[dk + 1] = kj.T, bias, 1.0
        kbs.append((kj, kb, float(np.einsum("ij,ij->i", kj, kj).max()) ** 0.5))
    # [v_j, 1]: e @ vb = [e @ v_j, l]
    vbs = [np.hstack([v.data[:, j * dv:(j + 1) * dv], np.ones((m, 1))]) for j in range(n_vb)]
    bias_max = bias.max()

    def head_forward(h: int) -> list:
        """Writes head ``h``'s output column block; returns its kept tiles."""
        (_, kb, k_norm), vb = kbs[h % n_kb], vbs[h % n_vb]
        qs = np.empty((n, dk + 2))  # [c q_h, 1, -bound] @ kb = [k_h^T; key_bias; 1] is s - bound
        qs[:, dk] = 1.0
        cq = np.multiply(q.data[:, h * dk:(h + 1) * dk], c, out=qs[:, :dk])
        np.sqrt(np.einsum("ij,ij->i", cq, cq), out=qs[:, dk + 1])
        qs[:, dk + 1] *= -k_norm
        qs[:, dk + 1] -= bias_max
        kept = []
        for r in rows:
            e = qs[r] @ kb
            np.exp(e, out=e)
            p = e @ vb
            if p[:, dv].min() < ROW_SUM_FLOOR:
                low = np.flatnonzero(p[:, dv] < ROW_SUM_FLOOR)
                s = qs[r.start + low, :dk + 1] @ kb[:dk + 1]  # exact scores, no bound
                s -= np.max(s, axis=1, keepdims=True)
                e[low] = np.exp(s, out=s)
                p[low] = s @ vb
            l = p[:, dv:]
            np.divide(p[:, :dv], l, out=out_data[r, h * dv:(h + 1) * dv])
            if record:
                kept.append((e, l.copy()))  # a view would keep all of p alive
        return kept

    tiles = _each_head(head_forward, heads, work)  # per head, its (e, l) per row tile

    def backward(g: np.ndarray) -> None:
        gq = np.empty_like(q.data) if q.requires_grad else None

        def head_backward(h: int) -> tuple:
            """Writes head ``h``'s column block of ``gq``; returns its partial
            gradients of its ``k`` and ``v`` blocks, unscaled by ``c``."""
            qc, oc = slice(h * dk, (h + 1) * dk), slice(h * dv, (h + 1) * dv)
            gk = np.zeros((dk, m)) if k.requires_grad else None  # contiguous, as += per
            gv = np.zeros((m, dv)) if v.requires_grad else None  # tile is faster
            for r, (e, l) in zip(rows, tiles[h]):
                gb = np.empty((e.shape[0], dv + 1))  # [g', -rowsum(g' * out)]
                gr = np.divide(g[r, oc], l, out=gb[:, :dv])
                if gv is not None:
                    gv += e.T @ gr
                if gq is None and gk is None:
                    continue
                np.negative(np.einsum("ij,ij->i", gr, out_data[r, oc]), out=gb[:, dv])
                t = gb @ vbs[h % n_vb].T
                t *= e
                if gq is not None:
                    np.matmul(t, kbs[h % n_kb][0], out=gq[r, qc])
                if gk is not None:
                    gk += q.data[r, qc].T @ t
            return gk, gv

        gk, gv = zip(*_each_head(head_backward, heads, work))
        if v.requires_grad:
            _accum(v, np.hstack(_block_sums(gv, n_vb)), owned=True)
        # t is the gradient of the scaled scores (c * q) @ k.T
        if gq is not None:
            gq *= c
            _accum(q, gq, owned=True)
        if k.requires_grad:
            gk = np.vstack(_block_sums(gk, n_kb))
            gk *= c
            _accum(k, gk.T)

    return _node(out_data, (q, k, v), backward)


def log_softmax(x: Tensor) -> Tensor:
    """Log-softmax over the rows of a matrix of at least one column."""
    if x.data.ndim != 2 or x.shape[1] == 0:
        raise ShapeError(f"log_softmax expects a matrix with at least one column, got shape {x.shape}")
    shifted = x.data - np.max(x.data, axis=1, keepdims=True)
    lse = np.log(np.sum(np.exp(shifted), axis=1, keepdims=True))
    out_data = shifted - lse
    s = np.exp(out_data)

    def backward(g: np.ndarray) -> None:
        _accum(x, g - s * np.sum(g, axis=1, keepdims=True), owned=True)

    return _node(out_data, (x,), backward)


def _normalize(x: Tensor, gamma: Tensor, beta: Tensor, axis: int,
               stats: Optional[tuple] = None, counts: Optional[np.ndarray] = None) -> tuple:
    """``gamma * (x - mean) / sqrt(var + NORM_EPS) + beta``, standardised along ``axis``.

    ``mean`` and ``var`` are those of ``x`` along ``axis`` unless ``stats``
    gives fixed ``(mean, var)`` rows, which the gradient treats as constants.
    ``counts`` (``axis=0`` only) weighs row ``i`` as ``counts[i]`` equal rows.
    Returns the output and the ``(mean, var)`` it used."""
    op = ("batch_norm", "layer_norm")[axis]
    if x.data.ndim != 2:
        raise ShapeError(f"{op} expects [t,d], got shape {x.shape}")
    d = x.shape[1]
    if gamma.shape != (d,) or beta.shape != (d,):
        raise ShapeError(f"{op} affine shapes {gamma.shape}/{beta.shape} do not match d={d}")
    if stats is None and counts is None:
        # np.var's own steps on the one centred copy, so the bits are np.var's.
        mean = np.mean(x.data, axis=axis, keepdims=True)
        xhat = x.data - mean
        var = np.sum(xhat * xhat, axis=axis, keepdims=True) / x.shape[axis]
    elif stats is None:
        m_rows = counts.sum()
        mean = (counts @ x.data)[None, :] / m_rows
        xhat = x.data - mean
        var = (counts @ (xhat * xhat))[None, :] / m_rows
    else:
        mean, var = stats
        xhat = x.data - mean
    inv = 1.0 / np.sqrt(var + NORM_EPS)
    xhat *= inv
    out_data = xhat * gamma.data
    out_data += beta.data

    def backward(g: np.ndarray) -> None:
        _accum(gamma, np.sum(g * xhat, axis=0), owned=True)
        _accum(beta, np.sum(g, axis=0), owned=True)
        if x.requires_grad:
            dxhat = g * gamma.data
            if stats is None and counts is None:
                m1 = np.mean(dxhat, axis=axis, keepdims=True)
                m2 = np.mean(dxhat * xhat, axis=axis, keepdims=True)
                _accum(x, inv * (dxhat - m1 - xhat * m2), owned=True)
            elif stats is None:
                # g already sums the gradients of each row's counts[i] copies.
                m1 = np.sum(dxhat, axis=0) / m_rows
                m2 = np.sum(dxhat * xhat, axis=0) / m_rows
                _accum(x, inv * (dxhat - counts[:, None] * (m1 + xhat * m2)), owned=True)
            else:
                _accum(x, dxhat * inv, owned=True)

    return _node(out_data, (x, gamma, beta), backward), mean, var


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    """Normalize each row of ``x`` to zero mean / unit variance, then affine."""
    return _normalize(x, gamma, beta, axis=1)[0]


def batch_norm(x: Tensor, gamma: Tensor, beta: Tensor, running_mean: Tensor,
               running_var: Tensor, train: bool, counts: Optional[np.ndarray] = None) -> Tensor:
    """Per-column normalization, then affine. Training uses the batch's own
    statistics and folds them into the running ones, whose ``data`` it
    rebinds; evaluation uses the running ones.

    ``counts``, when given, integers of at least 1, says that row ``i`` of
    ``x`` stands for ``counts[i]`` equal rows of a batch of ``M =
    sum(counts)`` rows. The statistics are then that batch's, ``mean =
    counts @ x / M`` and ``var = counts @ (x - mean)**2 / M``, and row
    ``i`` of the result is each of its copies' output. The gradient
    arriving at row ``i`` must be the sum over those copies, as a row
    gather's backward gives it; the gradient of ``x`` is then the copies'
    gradients summed per row."""
    if counts is not None:
        counts = np.asarray(counts)
        if counts.shape != (x.shape[0],):
            raise ShapeError(f"batch_norm counts of shape {counts.shape} do not match "
                             f"{x.shape[0]} rows")
        if counts.dtype.kind not in "iu":
            raise InputError(f"batch_norm counts must be an integer array, "
                             f"got dtype {counts.dtype}")
        if np.any(counts < 1):
            i = int(np.argmax(counts < 1))
            raise InputError(f"batch_norm count {counts[i]} at row {i} is below 1")
        counts = counts.astype(np.float64)
    if not train:
        return _normalize(x, gamma, beta, axis=0, stats=(running_mean.data, running_var.data))[0]
    out, mean, var = _normalize(x, gamma, beta, axis=0, counts=counts)
    m_rows = x.shape[0] if counts is None else int(counts.sum())
    if m_rows < 2:
        raise DegenerateBatchError(f"batch_norm train mode needs >= 2 rows, got {m_rows}")
    m = BATCH_NORM_MOMENTUM
    running_mean.data = (1.0 - m) * running_mean.data + m * mean[0]
    running_var.data = (1.0 - m) * running_var.data + m * var[0]
    return out


# ---------------------------------------------------------------------------
# pointwise operations
# ---------------------------------------------------------------------------


def relu(x: Tensor) -> Tensor:
    mask = x.data > 0

    def backward(g: np.ndarray) -> None:
        _accum(x, g * mask, owned=True)

    return _node(np.maximum(x.data, 0.0), (x,), backward)


def sigmoid(x: Tensor) -> Tensor:
    # Split by sign to avoid overflow in exp.
    e = np.exp(-np.abs(x.data))
    s = np.where(x.data >= 0, 1.0 / (1.0 + e), e / (1.0 + e))

    def backward(g: np.ndarray) -> None:
        _accum(x, g * s * (1.0 - s), owned=True)

    return _node(s, (x,), backward)


def _require_same_shape(a: Tensor, b: Tensor, op: str) -> None:
    if a.shape != b.shape:
        raise ShapeError(f"{op} requires identical shapes, got {a.shape} and {b.shape}")


def add(a: Tensor, b: Tensor) -> Tensor:
    _require_same_shape(a, b, "add")

    def backward(g: np.ndarray) -> None:
        _accum(a, g)
        _accum(b, g)

    return _node(a.data + b.data, (a, b), backward)


def sub(a: Tensor, b: Tensor) -> Tensor:
    _require_same_shape(a, b, "sub")

    def backward(g: np.ndarray) -> None:
        _accum(a, g)
        _accum(b, -g, owned=True)

    return _node(a.data - b.data, (a, b), backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    _require_same_shape(a, b, "mul")

    def backward(g: np.ndarray) -> None:
        if a.requires_grad:
            _accum(a, g * b.data, owned=True)
        if b.requires_grad:
            _accum(b, g * a.data, owned=True)

    return _node(a.data * b.data, (a, b), backward)


def scale(x: Tensor, c: float) -> Tensor:
    c = float(c)

    def backward(g: np.ndarray) -> None:
        _accum(x, g * c, owned=True)

    return _node(x.data * c, (x,), backward)


def add_rowvec(x: Tensor, v: Tensor) -> Tensor:
    """Add a length-d vector to every row of a [t,d] matrix."""
    if x.data.ndim != 2 or v.shape != (x.shape[1],):
        raise ShapeError(f"add_rowvec requires [t,d] + [d], got {x.shape} and {v.shape}")

    def backward(g: np.ndarray) -> None:
        _accum(x, g)
        _accum(v, np.sum(g, axis=0), owned=True)

    return _node(x.data + v.data, (x, v), backward)


def mul_rowvec(x: Tensor, v: Tensor) -> Tensor:
    """Multiply every row of a [t,d] matrix by a length-d vector."""
    if x.data.ndim != 2 or v.shape != (x.shape[1],):
        raise ShapeError(f"mul_rowvec requires [t,d] * [d], got {x.shape} and {v.shape}")

    def backward(g: np.ndarray) -> None:
        _accum(x, g * v.data, owned=True)
        _accum(v, np.sum(g * x.data, axis=0), owned=True)

    return _node(x.data * v.data, (x, v), backward)


# ---------------------------------------------------------------------------
# shape surgery
# ---------------------------------------------------------------------------


def concat(tensors: Sequence[Tensor], axis: int) -> Tensor:
    if not tensors:
        raise ShapeError("concat of an empty list")
    ndim = tensors[0].data.ndim
    if axis >= ndim or axis < -ndim:
        raise ShapeError(f"concat axis {axis} out of range for rank {ndim}")
    axis = axis % ndim
    ref = list(tensors[0].shape)
    for t in tensors[1:]:
        other = list(t.shape)
        if len(other) != ndim or any(r != o for i, (r, o) in enumerate(zip(ref, other)) if i != axis):
            raise ShapeError(f"concat shapes incompatible along axis {axis}: {[t.shape for t in tensors]}")
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)
    out_data = np.concatenate([t.data for t in tensors], axis=axis)

    def backward(g: np.ndarray) -> None:
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            sl = [slice(None)] * ndim
            sl[axis] = slice(lo, hi)
            _accum(t, g[tuple(sl)])

    return _node(out_data, tuple(tensors), backward)


def slice_cols(x: Tensor, lo: int, hi: int) -> Tensor:
    """Columns [lo, hi) of a matrix as a new tensor whose data is a view of
    ``x.data``, so a recorded graph holds no copy of the columns. No op
    writes into the data of a tensor it did not create."""
    if x.data.ndim != 2:
        raise ShapeError(f"slice_cols expects a matrix, got shape {x.shape}")
    if not (0 <= lo <= hi <= x.shape[1]):
        raise ShapeError(f"slice_cols range [{lo},{hi}) invalid for {x.shape[1]} columns")

    def backward(g: np.ndarray) -> None:
        if x.grad is None:
            x.grad = np.zeros_like(x.data)
            x.grad[:, lo:hi] = g
        else:  # in place: no full-width buffer per slice
            x.grad[:, lo:hi] += g

    out = _node(np.empty((x.shape[0], 0)), (x,), backward)
    out.data = x.data[:, lo:hi]  # set after construction: Tensor() copies a view into C order
    return out


# Result rows per tile of a weighted take_rows: the tile's [rows, k, d]
# gather then stays in cache. At k = 8, d = 192 (2-core VM, numpy 2.4 with
# OpenBLAS), 32-row tiles took 0.19 ms at 160 rows, 1.2 ms at 800 and 5.7 ms
# at 3000, against 0.24, 1.7 and 13.7 ms for one gather of every row.
GATHER_TILE_ROWS = 32


def take_rows(x: Tensor, idx, weights=None) -> Tensor:
    """Rows ``idx`` of a matrix, ``x.data[idx]``, for a 1-D integer ``idx``
    whose entries may repeat or leave rows out. Given ``weights``, ``idx``
    and ``weights`` are ``[M, k]`` and row ``i`` of the result is the
    weighted sum ``sum_j weights[i, j] * x.data[idx[i, j]]``, formed
    ``GATHER_TILE_ROWS`` result rows at a time.

    The backward pass multiplies the gradient by the ``[U, M]`` matrix,
    for ``U`` rows of ``x`` and ``M`` result rows, whose entry ``(u, i)``
    sums the weights with which result row ``i`` reads row ``u`` (a
    one-hot column per result row when ``weights`` is None). So rows read
    more than once sum their gradients, and unused rows get zero. That
    costs O(U M d). For a 1-D index it is meant for ``U`` much smaller than
    ``M``: at U = 12, M = 826, d = 512 it took 0.5 ms, against 3.7 ms for
    ``np.add.at`` and 2.8 ms for a sorted ``np.add.reduceat`` (one core,
    numpy 2.4 with OpenBLAS). For a neighbour sum over the rows of ``x``
    themselves, U = M, it costs what the product with the transposed dense
    ``[M, M]`` weight matrix does."""
    if x.data.ndim != 2:
        raise ShapeError(f"take_rows expects a matrix, got shape {x.shape}")
    idx = np.asarray(idx)
    if weights is None:
        if idx.ndim != 1:
            raise ShapeError(f"take_rows expects a 1-D index, got shape {idx.shape}")
    else:
        weights = np.asarray(weights)
        if idx.ndim != 2 or weights.shape != idx.shape:
            raise ShapeError(f"take_rows with weights expects an [M, k] index and weights of its "
                             f"shape, got index {idx.shape} and weights {weights.shape}")
        if weights.dtype.kind not in "iuf":
            raise InputError(f"take_rows weights must be real numbers, got dtype {weights.dtype}")
        weights = weights.astype(np.float64, copy=False)
        if not np.all(np.isfinite(weights)):
            at = np.unravel_index(np.argmin(np.isfinite(weights)), weights.shape)
            raise InputError(f"take_rows weight {weights[at]} at position "
                             f"{', '.join(map(str, at))} is not finite")
    if idx.dtype.kind not in "iu":
        raise InputError(f"take_rows index must be integers, got dtype {idx.dtype}")
    idx = idx.astype(np.intp, copy=False)
    bad = (idx < 0) | (idx >= x.shape[0])
    if bad.any():
        at = np.unravel_index(np.argmax(bad), bad.shape)
        raise InputError(f"take_rows index {idx[at]} at position {', '.join(map(str, at))} "
                         f"outside [0, {x.shape[0]})")

    def backward(g: np.ndarray) -> None:
        m = len(idx)
        result_rows = np.arange(m).reshape((m,) + (1,) * (idx.ndim - 1))
        spread = np.bincount((idx * m + result_rows).ravel(),
                             weights=None if weights is None else weights.ravel(),
                             minlength=x.shape[0] * m)
        _accum(x, spread.reshape(x.shape[0], m).astype(np.float64, copy=False) @ g, owned=True)

    if weights is None:
        return _node(x.data[idx], (x,), backward)
    out = np.empty((len(idx), x.shape[1]))
    for lo in range(0, len(idx), GATHER_TILE_ROWS):
        tile = slice(lo, lo + GATHER_TILE_ROWS)
        out[tile] = np.matmul(weights[tile, None, :], x.data[idx[tile]])[:, 0]
    return _node(out, (x,), backward)


def sum_all(x: Tensor) -> Tensor:
    def backward(g: np.ndarray) -> None:
        _accum(x, np.full_like(x.data, float(g)), owned=True)

    return _node(np.asarray(np.sum(x.data)), (x,), backward)


def sum_rows(x: Tensor) -> Tensor:
    """Column sums of a [t,d] matrix, shape [d]."""
    if x.data.ndim != 2:
        raise ShapeError(f"sum_rows expects a matrix, got shape {x.shape}")

    def backward(g: np.ndarray) -> None:
        _accum(x, np.broadcast_to(g, x.shape).copy(), owned=True)

    return _node(np.sum(x.data, axis=0), (x,), backward)


# ---------------------------------------------------------------------------
# similarity
# ---------------------------------------------------------------------------


def cosine_rows(a: Tensor, b: Tensor) -> Tensor:
    """Cosine similarity between every row of ``a`` and every row of ``b``.

    Zero-norm rows are guarded at ``COSINE_EPS``: their similarities come
    out 0 and the norm factor is treated as a constant there.
    """
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[1] != b.shape[1]:
        raise ShapeError(f"cosine_rows requires [m,d] and [n,d], got {a.shape} and {b.shape}")
    na = np.linalg.norm(a.data, axis=1)
    nb = np.linalg.norm(b.data, axis=1)
    ca = np.maximum(na, COSINE_EPS)
    cb = np.maximum(nb, COSINE_EPS)
    denom = np.outer(ca, cb)
    c = (a.data @ b.data.T) / denom

    def backward(g: np.ndarray) -> None:
        gd = g / denom
        if a.requires_grad:
            da = gd @ b.data
            corr = np.sum(g * c, axis=1, keepdims=True) * a.data / (ca**2)[:, None]
            da -= np.where((na > COSINE_EPS)[:, None], corr, 0.0)
            _accum(a, da, owned=True)
        if b.requires_grad:
            db = gd.T @ a.data
            corr = np.sum(g * c, axis=0)[:, None] * b.data / (cb**2)[:, None]
            db -= np.where((nb > COSINE_EPS)[:, None], corr, 0.0)
            _accum(b, db, owned=True)

    return _node(c, (a, b), backward)


# ---------------------------------------------------------------------------
# graph control
# ---------------------------------------------------------------------------


def stop_gradient(x: Tensor) -> Tensor:
    """Identity on values; the result carries no graph history."""
    return Tensor(x.data)


def _toposort(root: Tensor) -> list:
    """The nodes reachable from ``root`` that need a gradient, in creation order."""
    seen = {id(root): root}
    stack = [root]
    while stack:
        for parent in stack.pop()._parents:
            if parent.requires_grad and id(parent) not in seen:
                seen[id(parent)] = parent
                stack.append(parent)
    return sorted(seen.values(), key=lambda t: t._seq)


def backward(loss: Tensor) -> dict:
    """Reverse-mode sweep from a scalar loss.

    Returns a map from every reachable leaf parameter (requires_grad, no
    parents) to its accumulated gradient array. Calling backward twice on
    the same loss tensor is an error; gradients from separate backward
    calls on shared leaves accumulate unless explicitly zeroed, also when
    the loss is itself such a leaf. Each intermediate node's gradient is
    dropped as soon as it has been pushed to its parents, so a later
    backward through a shared subgraph starts from zero there and counts
    only its own loss.
    """
    if loss.data.size != 1:
        raise ShapeError(f"backward requires a scalar loss, got shape {loss.shape}")
    if loss._done:
        raise GraphError("backward already called on this graph")
    if not loss.requires_grad:
        loss._done = True
        return {}

    order = _toposort(loss)
    _accum(loss, np.ones_like(loss.data))
    for node in reversed(order):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)
            node.grad = None
    loss._done = True
    return {n: n.grad for n in order if n._backward is None and n.grad is not None}
