"""Dense float64 tensors with a reverse-mode gradient tape.

The tape has the six ops the models run: matmul, add, relu, reshape,
concat and mse_loss; `backward` sweeps it from a scalar loss.  It records
training steps only: an op records whenever an input requires a gradient,
and inference (`models.predict`) runs the same primitives on plain arrays.
Arrays are float64 throughout; matmul follows numpy semantics, so a
leading batch dimension broadcasts against a plain 2-D operand.  A fixed
symmetric operator (`SymmetricOperator`, the graph propagation S) is
applied by `matmul(S, H)` through its own op: a sparse S multiplies as a
block-diagonal `scipy.sparse` CSR matrix over a block of samples, a dense
S with BLAS.

Large products, ReLU and finite checks run in two pieces, the caller
taking the first and one worker thread the second (`_in_pieces`).  The cut
depends on the op's shape alone, never on the core count, and each piece
computes what the whole op computes for its part of the output, so the
bits do not depend on whether, or on how many cores, run the pieces.

Importing this module sets glibc's heap policy for the process
(`_keep_freed_blocks_mapped`), so each step reuses the memory the last one
freed, and runs numpy's OpenBLAS on one thread (`_one_blas_thread`).
"""
from __future__ import annotations

import contextvars
import ctypes
import glob
import os
import platform
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np

# glibc mallopt parameters and the values set.  By default glibc hands a freed
# block above its sliding mmap threshold back to the kernel and trims the top of
# the heap past 128 KiB, so each training, eval and PCA step faults the
# activations and gradients of the step before back in, zero-filled: 43-49k
# minor faults and 0.32-0.37 s of kernel time per 2.0 s train-384 epoch
# (1 BLAS thread, 2-core Xeon VM).  Setting either parameter freezes the
# sliding threshold, so both are set: blocks under 32 MiB, the cap the sliding
# threshold climbs to on 64-bit glibc, stay in the heap for the next step;
# larger ones, such as the 62 MB train-384 checkpoint buffer, still go back.
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3
MMAP_THRESHOLD_BYTES = 32 * 1024 * 1024
TRIM_THRESHOLD_BYTES = 2**31 - 1


def _keep_freed_blocks_mapped() -> None:
    """Keep freed heap blocks under 32 MiB mapped; does nothing off glibc."""
    if platform.libc_ver()[0] != "glibc":
        return
    mallopt = ctypes.CDLL("libc.so.6").mallopt
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD_BYTES)
    mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD_BYTES)


_keep_freed_blocks_mapped()


def _one_blas_thread() -> None:
    """Run the OpenBLAS bundled with numpy on one thread; does nothing without it.

    With more, OpenBLAS splits a product by the thread count it finds, so the
    bits of a result would depend on the machine and OPENBLAS_NUM_THREADS.
    """
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "libscipy_openblas64_*.so"))):
        try:
            setter = ctypes.CDLL(path).scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        setter.argtypes = (ctypes.c_int,)
        setter.restype = None
        setter(1)


_one_blas_thread()


# Nonzero fraction above which a SymmetricOperator, or the one row of a large
# product's left operand, multiplies with BLAS.  Set from the crossover of the
# CSR product and BLAS, S @ H summed over C = 3, 14 and 28, batch 100, one
# BLAS thread, on a 2-core Xeon VM.  Ring lattices and Erdos-Renyi graphs
# cross at 9.4% and 8.5% nonzeros for n = 96 (0.87x at 7.5%, 1.10x at
# 10.1%), at 15-20% for n = 384 and at 19-21% for n = 768, so 8% sits below
# every crossover.  The 384-node hand (1.2%) runs 0.13x, 6.3 against 50 ms;
# the 24-node hand (16%) would run 2.0x and stays on BLAS.  A one-row product
# by the 384-node toy GCN's first fc weight, 21,526 x 120 (same setup), took
# 0.02 ms at 22 nonzeros, 0.17 ms at 5% and 0.31-0.33 ms at 8%, against
# 0.83-0.94 ms with BLAS at any density.
SPARSE_MAX_DENSITY = 0.08
# Samples one block-diagonal CSR product covers: 32 copies of the 384-node
# hand's S hold 55,040 nonzeros, about 0.7 MB with int32 indices.  On that
# hand (same setup as above) blocks of 16, 32 and 64 samples ran alike, 6.3 to
# 7.8 ms; 128 ran 12 to 17 ms and held a loaded toy GCN at 3.31x its
# parameter bytes, past the 3.25x that tests/test_models.py allows.
CSR_BLOCK_SAMPLES = 32

# Elements of the largest array an op reads (a product's larger operand)
# above which it runs in pieces.  Split against whole, medians of 60
# interleaved calls, one BLAS thread, 2-core Xeon VM while two threads ran a
# 1000^2 DGEMM 1.8x as fast as one: products [100, k]·[k, 120] and
# [100, n, 28]·[28, 56] ran 0.75-0.85x at 2^15 elements, 1.26-1.34x at 2^18
# and 1.6x at 2^20; ReLU and the finite check ran 0.71-0.74x at 2^18,
# 0.94-1.07x at 2^19 and 1.2-1.37x at 2^20.  The toy GCN has no array between
# 2^17.4 (the 24-node hand's first fc weight) and 2^19 (the 384-node hand's
# first conv output), so nothing of it splits on the 24-node hand.
SPLIT_MIN_ELEMENTS = 2**18
# A 2-D product cuts its output columns at a multiple of this many.  Cut
# there, each column comes out of the same OpenBLAS kernel as in the whole
# product (one BLAS thread, 2-core Xeon VM): batch 100 x 1,174 by 1,174 x
# 1,500 matched the whole product bit for bit cut at 64 or 768 columns but
# not at 750, and the 384-node toy GCN's input gradient, 100 x 120 by 120 x
# 21,526, matched cut at 10,752 columns at every batch from 1 to 100 but not
# at 10,763.  Cut into rows at 64, 512, 1,024, 1,472 or 2,048, a weight
# gradient 3,000 x 100 by 100 x 1,500 lost the whole product's bits.
SPLIT_ALIGN = 64


class NonFiniteError(ArithmeticError):
    """NaN or Inf showed up where the numeric contracts forbid it."""


_pool: ThreadPoolExecutor | None = None
_pool_lock = threading.Lock()


def _worker() -> ThreadPoolExecutor:
    """The one worker thread that runs pieces beside the caller, started on first use."""
    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(max_workers=1, thread_name_prefix="tgl-piece")
        return _pool


def _forget_worker() -> None:
    """A forked child has no worker thread; it starts its own on first use."""
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_worker)


def _splits(size: int) -> bool:
    """Whether an op whose largest input holds `size` elements runs in pieces."""
    return size > SPLIT_MIN_ELEMENTS


def _in_pieces(n: int, run, multiple: int = 1) -> list:
    """[run(0, 0, cut), run(1, cut, n)], cut at the multiple of `multiple` nearest n / 2.

    The cut depends on n and `multiple` alone; where it falls at 0 the range
    runs whole, as [run(0, 0, n)].  The caller runs the first piece while the
    worker runs the second; the caller then takes the second back if the
    worker has not started it, so a busy worker costs little more than the
    unsplit op.  `run` may call only numpy, and must write only its own part
    of an output the caller allocated.  No piece runs on once the call
    returns or raises.
    """
    cut = multiple * round(n / (2 * multiple))
    if cut == 0:
        return [run(0, 0, n)]
    context = contextvars.copy_context()   # the caller's np.errstate holds in the worker too
    second = _worker().submit(context.run, run, 1, cut, n)
    try:
        first = run(0, 0, cut)
        return [first, run(1, cut, n) if second.cancel() else second.result()]
    finally:
        if not second.cancel():
            second.exception()   # waits for a piece still running


def _product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b, in pieces along an output axis the product does not sum over when it is large.

    A stacked product splits by sample; numpy multiplies each sample on its
    own either way.  A 2-D product splits its output columns at a multiple of
    SPLIT_ALIGN, unless it has one row or column: numpy then makes a
    matrix-vector product, which streams the matrix from memory once, no
    faster in two pieces than in one.  A one-row `a` with at most
    SPARSE_MAX_DENSITY of it nonzero, such as a batch-1 fc input whose
    taxels are silent, multiplies only the rows of b its nonzeros select;
    the sum then runs in another order than BLAS's and may differ from it in
    the last places.  A skipped row is never read, so a NaN in it would not
    show: weights are finite by construction and checked at load and after
    every Adam step.
    """
    if not _splits(max(a.size, b.size)):
        return a @ b
    if a.ndim == 2 and b.ndim == 2:
        if a.shape[0] == 1:
            used = a[0] != 0
            if np.count_nonzero(used) <= SPARSE_MAX_DENSITY * a.size:
                rows = np.flatnonzero(used)
                return a[:, rows] @ b[rows]
        if a.shape[0] == 1 or b.shape[1] == 1:
            return a @ b
        out = np.empty((a.shape[0], b.shape[1]), np.result_type(a, b))

        def columns(_, lo, hi):
            np.matmul(a, b[:, lo:hi], out=out[:, lo:hi])

        _in_pieces(b.shape[1], columns, SPLIT_ALIGN)
        return out
    lead = np.broadcast_shapes(a.shape[:-2], b.shape[:-2])
    out = np.empty((*lead, a.shape[-2], b.shape[-1]), np.result_type(a, b))
    # an operand with the output's leading axis is cut along it; one broadcast over it is not
    cut_a = a.ndim == out.ndim and a.shape[0] == out.shape[0]
    cut_b = b.ndim == out.ndim and b.shape[0] == out.shape[0]

    def samples(_, lo, hi):
        np.matmul(a[lo:hi] if cut_a else a, b[lo:hi] if cut_b else b, out=out[lo:hi])

    _in_pieces(len(out), samples)
    return out


def _elementwise(ufunc, x: np.ndarray, y, dtype=np.float64) -> np.ndarray:
    """ufunc(x, y), y a scalar or an array of x's shape; a large x runs in pieces along axis 0."""
    if not _splits(x.size):
        return ufunc(x, y)
    out = np.empty(x.shape, dtype)
    whole = np.ndim(y) == 0

    def rows(_, lo, hi):
        ufunc(x[lo:hi], y if whole else y[lo:hi], out=out[lo:hi])

    _in_pieces(len(x), rows)
    return out


def _all_finite(arr: np.ndarray) -> bool:
    """No NaN or Inf in arr; a large arr is scanned in pieces along axis 0."""
    if not _splits(arr.size):
        return bool(np.isfinite(arr).all())
    ok = np.empty(arr.shape, bool)
    return all(_in_pieces(len(arr), lambda _, lo, hi: np.isfinite(arr[lo:hi], out=ok[lo:hi]).all()))


def _check_finite(arr: np.ndarray, what: str) -> None:
    if not _all_finite(arr):
        raise NonFiniteError(f"non-finite values in {what}")


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum `grad` down to `shape`, inverting numpy broadcasting."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A dense float64 array, optionally recorded on the gradient tape."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False, *, known_finite: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        if not known_finite:
            _check_finite(arr, "tensor data")
        self.data = arr
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple[Tensor, ...] = ()
        self._backward = None

    @classmethod
    def _from_op(cls, data: np.ndarray, parents: tuple["Tensor", ...], backward,
                 known_finite: bool = False) -> "Tensor":
        """An op's output; known_finite skips the scan where finite inputs give finite data."""
        out = cls(data, known_finite=known_finite)
        if any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = parents
            out._backward = backward
        return out

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ValueError(f"item() needs a one-element tensor, got shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"

    # `models` writes fc layers as `matmul(h, w) + b`
    def __add__(self, other):
        return add(self, other)


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


class SymmetricOperator:
    """A fixed symmetric n x n matrix S; `matmul(S, H)` computes S @ H for H [..., n, C].

    When at most SPARSE_MAX_DENSITY of S is nonzero, `block` holds
    CSR_BLOCK_SAMPLES copies of S down the diagonal of one `scipy.sparse`
    CSR matrix, and each chunk of that many samples of H, reshaped to
    (samples * n, C), is one product with it.  Every row stores its
    diagonal first, zero or not, then its off-diagonal nonzeros in column
    order, and the product sums them in that order.  Denser operators
    multiply with BLAS and leave `block` None.
    """

    __slots__ = ("dense", "block", "_blocks")

    def __init__(self, s):
        s = np.asarray(s, dtype=np.float64)
        if s.ndim != 2 or s.shape[0] != s.shape[1]:
            raise ValueError(f"operator must be square, got shape {s.shape}")
        _check_finite(s, "operator")
        if not np.array_equal(s, s.T):
            raise ValueError("operator must be symmetric")
        self.dense = s
        n = s.shape[0]
        self.block = None
        self._blocks = {}   # `block` and its leading diagonal blocks, by sample count
        if n > 0 and np.count_nonzero(s) <= SPARSE_MAX_DENSITY * s.size:
            from scipy.sparse import csr_array   # only sparse operators load scipy
            pattern = s != 0.0
            np.fill_diagonal(pattern, True)                    # stored even where it is 0
            rows, cols = np.nonzero(pattern)
            order = np.lexsort((cols, rows != cols, rows))     # by row, diagonal first
            rows, cols = rows[order], cols[order]
            copies = n * np.arange(CSR_BLOCK_SAMPLES, dtype=np.int32)[:, None]
            indices = (cols.astype(np.int32) + copies).ravel()
            counts = np.tile(np.bincount(rows, minlength=n), CSR_BLOCK_SAMPLES)
            indptr = np.concatenate([[0], np.cumsum(counts)]).astype(np.int32)
            self.block = csr_array((np.tile(s[rows, cols], CSR_BLOCK_SAMPLES), indices, indptr),
                                   shape=(n * CSR_BLOCK_SAMPLES,) * 2)
            self._blocks[CSR_BLOCK_SAMPLES] = self.block

    @property
    def sparse(self) -> bool:
        return self.block is not None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.dense.shape

    @property
    def ndim(self) -> int:
        return 2

    def _block_of(self, samples: int):
        """The leading `samples` diagonal blocks of `block`, built on first use."""
        if samples not in self._blocks:
            rows = samples * self.shape[0]
            nnz = self.block.indptr[rows]
            self._blocks[samples] = type(self.block)(
                (self.block.data[:nnz], self.block.indices[:nnz], self.block.indptr[:rows + 1]),
                shape=(rows, rows))
        return self._blocks[samples]

    def apply(self, h: np.ndarray, transpose: bool = False) -> np.ndarray:
        """S @ h (S.T @ h with transpose, the same product for sparse S)."""
        if self.block is None:
            return _product(self.dense.swapaxes(-1, -2) if transpose else self.dense, h)
        n, c = h.shape[-2], h.shape[-1]
        flat = np.ascontiguousarray(h).reshape(-1, n, c)
        out = np.empty_like(flat)
        for s in range(0, len(flat), CSR_BLOCK_SAMPLES):
            chunk = flat[s:s + CSR_BLOCK_SAMPLES]
            out[s:s + len(chunk)] = (self._block_of(len(chunk)) @ chunk.reshape(-1, c)) \
                .reshape(chunk.shape)
        return out.reshape(h.shape)


def _propagate(op: SymmetricOperator, x: Tensor) -> Tensor:
    if x.ndim < 2 or x.shape[-2] != op.shape[1]:
        raise ValueError(f"matmul dimension mismatch: {op.shape} @ {x.shape}")

    def back(g):
        return (op.apply(g, transpose=True) if x.requires_grad else None,)

    return Tensor._from_op(op.apply(x.data), (x,), back)


def matmul(a, b) -> Tensor:
    if isinstance(a, SymmetricOperator):
        return _propagate(a, as_tensor(b))
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ValueError(f"matmul needs >=2-D operands, got {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ValueError(f"matmul dimension mismatch: {a.shape} @ {b.shape}")
    ad, bd = a.data, b.data

    def back(g):
        ga = _unbroadcast(_product(g, bd.swapaxes(-1, -2)), a.shape) if a.requires_grad else None
        gb = _unbroadcast(_product(ad.swapaxes(-1, -2), g), b.shape) if b.requires_grad else None
        return ga, gb

    return Tensor._from_op(_product(ad, bd), (a, b), back)


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)

    def back(g):
        ga = _unbroadcast(g, a.shape) if a.requires_grad else None
        gb = _unbroadcast(g, b.shape) if b.requires_grad else None
        return ga, gb

    return Tensor._from_op(a.data + b.data, (a, b), back)


def relu(x) -> Tensor:
    x = as_tensor(x)
    # gradient is exactly 0 at the kink; only a recorded op's backward reads the mask
    mask = _elementwise(np.greater, x.data, 0, bool) if x.requires_grad else None

    def back(g):
        return (_elementwise(np.multiply, g, mask),) if x.requires_grad else (None,)

    # maximum(x, 0.0) returns +0.0 for -0.0, matching where(mask, x, 0.0) bit for bit
    return Tensor._from_op(_elementwise(np.maximum, x.data, 0.0), (x,), back, known_finite=True)


def reshape(x, shape) -> Tensor:
    x = as_tensor(x)
    old = x.shape

    def back(g):
        return (g.reshape(old),) if x.requires_grad else (None,)

    return Tensor._from_op(x.data.reshape(shape), (x,), back, known_finite=True)


def concat(tensors, axis: int = 0) -> Tensor:
    ts = [as_tensor(t) for t in tensors]
    if not ts:
        raise ValueError("concat of an empty sequence")
    sizes = [t.shape[axis] for t in ts]
    bounds = np.cumsum(sizes)[:-1]

    def back(g):
        pieces = np.split(g, bounds, axis=axis)
        return tuple(p if t.requires_grad else None for t, p in zip(ts, pieces))

    return Tensor._from_op(np.concatenate([t.data for t in ts], axis=axis), tuple(ts), back,
                           known_finite=True)


def mse_loss(pred, target) -> Tensor:
    pred, target = as_tensor(pred), as_tensor(target)
    if pred.shape != target.shape:
        raise ValueError(f"mse_loss shape mismatch: {pred.shape} vs {target.shape}")
    diff = pred.data - target.data
    n = diff.size

    def back(g):
        base = (2.0 / n) * diff * g
        gp = base if pred.requires_grad else None
        gt = -base if target.requires_grad else None
        return gp, gt

    return Tensor._from_op(np.asarray(np.mean(diff * diff)), (pred, target), back)


def backward(loss: Tensor) -> None:
    """Reverse-mode sweep from a scalar loss; accumulates into the .grad of leaves.

    A leaf is a tensor no op produced (`_backward is None`), such as a
    parameter value or an input.  Intermediates hand their gradient to
    their parents through the local flow table and keep no .grad.  Each
    call adds one full gradient to the leaves' .grad, so repeated calls
    without zeroing accumulate once per call.
    """
    if loss.data.size != 1:
        raise ValueError(f"backward requires a scalar loss, got shape {loss.shape}")
    if not loss.requires_grad:
        raise ValueError("loss is not attached to the gradient tape")

    topo: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, done = stack.pop()
        if done:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if p.requires_grad and id(p) not in seen:
                stack.append((p, False))

    flow: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
    for node in reversed(topo):
        g = flow.pop(id(node), None)
        if g is None:
            continue
        if node._backward is None:
            node.grad = g if node.grad is None else node.grad + g
            continue
        for parent, gp in zip(node._parents, node._backward(g)):
            if gp is None or not parent.requires_grad:
                continue
            key = id(parent)
            flow[key] = gp if key not in flow else flow[key] + gp
