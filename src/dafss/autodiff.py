"""Dense float64 tensors with reverse-mode automatic differentiation.

Every operation returns a new ``Tensor`` and, when any input requires a
gradient, records a backward closure plus references to its parents. Calling
:func:`backward` on a scalar walks the graph once in reverse topological
order and accumulates gradients additively into every reachable leaf.

Conventions:
  * all data is float64, row-major, CPU-only;
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
import platform
from typing import Callable, Optional, Sequence

import numpy as np

from dafss.errors import DegenerateBatchError, GraphError, InputError, ShapeError

NORM_EPS = 1e-5  # added to the variance by layer_norm and batch_norm
BATCH_NORM_MOMENTUM = 0.1  # weight of a batch's statistics in the running ones
LOG_FLOOR = 1e-12  # safe_log clips its input here
COSINE_EPS = 1e-12  # smallest row norm cosine_rows divides by
HEAP_KEEP_BYTES = 64 << 20  # free heap top that glibc keeps instead of returning
HEAP_MMAP_BYTES = 32 << 20  # smallest block glibc maps on its own (its largest allowed)


def _keep_freed_heap() -> None:
    """Fix glibc's trim and mmap thresholds for this process.

    A training step records a graph that holds every intermediate and frees
    them together after the update. By default glibc derives both
    thresholds from the largest mapped block freed so far and hands the
    free heap top back to the kernel whenever it exceeds twice that, so
    the next step faults the same pages in again. How often that happened
    hung on which arrays the process had freed before: over ten seeds of
    the default 1-way 1-shot training, a warm decoupled step made 0 to
    2500 minor faults and 0 to 10 ms of kernel time, against 35-50 ms of
    step (2-core VM). With the thresholds fixed, every seed made at most
    6 faults and no kernel time. Other C libraries are left as they are."""
    if platform.system() != "Linux" or platform.libc_ver()[0] != "glibc":
        return
    mallopt = ctypes.CDLL(None).mallopt
    m_trim_threshold, m_mmap_threshold = -1, -3  # from <malloc.h>
    mallopt(m_trim_threshold, HEAP_KEEP_BYTES)
    mallopt(m_mmap_threshold, HEAP_MMAP_BYTES)


_keep_freed_heap()


class Tensor:
    """A dense array plus the bookkeeping needed for reverse-mode autodiff."""

    __slots__ = ("data", "requires_grad", "grad", "name", "_parents", "_backward", "_done")

    def __init__(self, data, requires_grad: bool = False, name: Optional[str] = None):
        self.data = np.asarray(data, dtype=np.float64, order="C")
        self.requires_grad = bool(requires_grad)
        self.grad: Optional[np.ndarray] = None
        self.name = name
        self._parents: tuple = ()
        self._backward: Optional[Callable[[np.ndarray], None]] = None
        self._done = False

    @property
    def shape(self) -> tuple:
        return self.data.shape

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() on tensor of shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        tag = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad}{tag})"


def parameter(data, name: Optional[str] = None) -> Tensor:
    """A leaf tensor that participates in optimization."""
    return Tensor(data, requires_grad=True, name=name)


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
# At m = 826, d_k = 3 (one thread, 2-core VM, numpy 2.4 with OpenBLAS), a
# forward pass took 1.9 ms with 79-row tiles, against 2.9 ms for one tile of
# all rows (and 2.4 ms with 16384-element tiles); over one [826, 48] query
# the budgets from 32768 to 262144 elements were within noise of each other.
ATTENTION_TILE_ELEMS = 65536


def attention(q: Tensor, k: Tensor, v: Tensor, c: float = 1.0,
              key_bias: Optional[np.ndarray] = None) -> Tensor:
    """``softmax(c * q @ k.T + key_bias) @ v``, normalised after the value product.

    Keys are rows, ``[m, dk]``, as queries are. The ``[n, m]`` score matrix
    is never held whole: it is formed ``max(1, ATTENTION_TILE_ELEMS // m)``
    query rows at a time, from the queries scaled once, ``(c * q) @ k.T``.
    Each tile's row max is subtracted and ``e = exp`` taken in place; the
    tile's output is ``(e @ v) / l`` with ``l`` the row sums of ``e``, so
    only the ``[rows, dv]`` product is divided, never the tile. A recorded
    graph keeps only the ``e`` tiles (each row's largest entry exactly 1)
    and their row sums, and its backward, with ``g' = g / l``, is

        dv = e^T g',    t = (g' v^T - rowsum(g' v^T * e) / l) * e,
        dq = c * t k,   dk = c * t^T q.

    This differs from the chain ``matmul, scale, softmax, matmul`` in
    rounding only, not in its bits: the tests hold outputs and gradients
    within 1e-13 relative of the chain's, and within 1e-12 for scores of
    magnitude 1e3 and for rows whose scores are all equal.

    ``key_bias``, a constant ``[m]`` vector, is added to every row of the
    scaled scores before the row max, and the backward is the same with or
    without it. A key row that stands for ``n`` equal keys (and its value
    row for their ``n`` equal values) with a bias of ``log n`` gives the
    output of attention over the expanded keys; its gradient is the
    expanded keys' gradients summed.
    """
    if (q.data.ndim != 2 or k.data.ndim != 2 or v.data.ndim != 2
            or q.shape[1] != k.shape[1] or k.shape[0] != v.shape[0] or k.shape[0] == 0):
        raise ShapeError(f"attention requires [n,k] x [m,k] x [m,d] with m >= 1, got "
                         f"{q.shape} x {k.shape} x {v.shape}")
    if key_bias is not None:
        key_bias = np.asarray(key_bias, dtype=np.float64)
        if key_bias.shape != (k.shape[0],):
            raise ShapeError(f"attention key_bias of shape {key_bias.shape} does not match "
                             f"{k.shape[0]} keys")
        if not np.all(np.isfinite(key_bias)):
            raise InputError(f"attention key_bias has a non-finite value at key "
                             f"{int(np.argmin(np.isfinite(key_bias)))}")
    c = float(c)
    n, m = q.shape[0], k.shape[0]
    cq = q.data * c if c != 1.0 else q.data
    k_t = k.data.T.copy()
    step = max(1, ATTENTION_TILE_ELEMS // m)
    rows = [slice(lo, lo + step) for lo in range(0, n, step)]
    # Tiles are kept only for a graph that will be recorded, so a forward pass
    # without one holds a single tile at a time.
    record = _grad_enabled and (q.requires_grad or k.requires_grad or v.requires_grad)
    tiles = []
    out_data = np.empty((n, v.shape[1]))
    for r in rows:
        e = cq[r] @ k_t
        if key_bias is not None:
            e += key_bias
        e -= np.max(e, axis=1, keepdims=True)
        np.exp(e, out=e)
        l = np.sum(e, axis=1, keepdims=True)
        o = out_data[r]
        np.matmul(e, v.data, out=o)
        o /= l
        if record:
            tiles.append((e, l))

    def backward(g: np.ndarray) -> None:
        gq = np.empty_like(q.data) if q.requires_grad else None
        gk = gv = None
        for r, (e, l) in zip(rows, tiles):
            gr = g[r] / l
            if v.requires_grad:
                p = e.T @ gr
                gv = p if gv is None else np.add(gv, p, out=gv)
            if not (q.requires_grad or k.requires_grad):
                continue
            t = gr @ v.data.T
            t -= (np.einsum("ij,ij->i", t, e) / l[:, 0])[:, None]  # no [rows, m] temporary
            t *= e
            if gq is not None:
                np.matmul(t, k_t.T, out=gq[r])
            if k.requires_grad:
                p = q.data[r].T @ t  # [dk, m]
                gk = p if gk is None else np.add(gk, p, out=gk)
        if gv is not None:
            _accum(v, gv, owned=True)
        # t is the gradient of the scaled scores (c * q) @ k.T
        if gq is not None:
            gq *= c
            _accum(q, gq, owned=True)
        if gk is not None:
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

    ``counts``, when given, says that row ``i`` of ``x`` stands for
    ``counts[i]`` equal rows of a batch of ``M = sum(counts)`` rows. The
    statistics are then that batch's, ``mean = counts @ x / M`` and ``var =
    counts @ (x - mean)**2 / M``, and row ``i`` of the result is each of
    its copies' output. The gradient arriving at row ``i`` must be the sum
    over those copies, as a row gather's backward gives it; the gradient of
    ``x`` is then the copies' gradients summed per row."""
    if counts is not None:
        counts = np.asarray(counts, dtype=np.float64)
        if counts.shape != (x.shape[0],):
            raise ShapeError(f"batch_norm counts of shape {counts.shape} do not match "
                             f"{x.shape[0]} rows")
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

    return _node(np.where(mask, x.data, 0.0), (x,), backward)


def sigmoid(x: Tensor) -> Tensor:
    # Split by sign to avoid overflow in exp.
    e = np.exp(-np.abs(x.data))
    s = np.where(x.data >= 0, 1.0 / (1.0 + e), e / (1.0 + e))

    def backward(g: np.ndarray) -> None:
        _accum(x, g * s * (1.0 - s), owned=True)

    return _node(s, (x,), backward)


def safe_log(x: Tensor) -> Tensor:
    """log(max(x, LOG_FLOOR)); the gradient is zero wherever the floor binds."""
    clipped = np.maximum(x.data, LOG_FLOOR)
    above = x.data > LOG_FLOOR

    def backward(g: np.ndarray) -> None:
        _accum(x, np.where(above, g / clipped, 0.0), owned=True)

    return _node(np.log(clipped), (x,), backward)


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
    order: list = []
    state: dict = {}  # id -> 1 while on stack, 2 when finished
    stack: list = [(root, iter(root._parents))]
    state[id(root)] = 1
    while stack:
        node, it = stack[-1]
        advanced = False
        for parent in it:
            if not parent.requires_grad:
                continue
            s = state.get(id(parent))
            if s == 1:
                raise GraphError("cycle detected in differentiation graph")
            if s is None:
                state[id(parent)] = 1
                stack.append((parent, iter(parent._parents)))
                advanced = True
                break
        if not advanced:
            state[id(node)] = 2
            order.append(node)
            stack.pop()
    return order


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
