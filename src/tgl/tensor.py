"""Float64 array primitives, the propagation operator and the training tape.

The models multiply with `_product`, apply the graph propagation S with
`SymmetricOperator.apply` (a sparse S as a block-diagonal `scipy.sparse` CSR
matrix over a block of samples, a dense S with BLAS) and take ReLU and its
mask with `_elementwise`.  The tape is a chain of `Tensor`s: a training
forward (`models.forward_batch`) returns one whose backward closure walks
the layers it recorded, `mse_loss` adds the loss, and `backward` runs the
chain from the loss into the parameters' gradients.

Large products, ReLU and finite checks run in two pieces, the caller
taking the first and one worker thread the second (`_in_pieces`); the
worker is a `ThreadPoolExecutor` built at import, whose thread starts on
the first split op, and a forked child builds its own.  The cut
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


def _new_worker() -> None:
    """Bind `_worker`, the one thread that runs pieces beside the caller, to a new executor.

    Run at import, and in a forked child, which inherits the executor but not its thread.
    The executor starts its thread on the first submit.
    """
    global _worker
    _worker = ThreadPoolExecutor(max_workers=1, thread_name_prefix="tgl-piece")


_new_worker()
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_new_worker)


def _splits(size: int) -> bool:
    """Whether an op whose largest input holds `size` elements runs in pieces."""
    return size > SPLIT_MIN_ELEMENTS


def _in_pieces(n: int, run, multiple: int = 1) -> list:
    """[run(0, cut), run(cut, n)], cut at the multiple of `multiple` nearest n / 2.

    The cut depends on n and `multiple` alone; where it falls at 0 the range
    runs whole, as [run(0, n)].  The caller runs the first piece while the
    worker runs the second; the caller then takes the second back if the
    worker has not started it, so a busy worker costs little more than the
    unsplit op.  `run` may call only numpy, and must write only its own part
    of an output the caller allocated.  No piece runs on once the call
    returns or raises.
    """
    cut = multiple * round(n / (2 * multiple))
    if cut == 0:
        return [run(0, n)]
    context = contextvars.copy_context()   # the caller's np.errstate holds in the worker too
    second = _worker.submit(context.run, run, cut, n)
    try:
        first = run(0, cut)
        return [first, run(cut, n) if second.cancel() else second.result()]
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

        def columns(lo, hi):
            np.matmul(a, b[:, lo:hi], out=out[:, lo:hi])

        _in_pieces(b.shape[1], columns, SPLIT_ALIGN)
        return out
    lead = np.broadcast_shapes(a.shape[:-2], b.shape[:-2])
    out = np.empty((*lead, a.shape[-2], b.shape[-1]), np.result_type(a, b))
    # an operand with the output's leading axis is cut along it; one broadcast over it is not
    cut_a = a.ndim == out.ndim and a.shape[0] == out.shape[0]
    cut_b = b.ndim == out.ndim and b.shape[0] == out.shape[0]

    def samples(lo, hi):
        np.matmul(a[lo:hi] if cut_a else a, b[lo:hi] if cut_b else b, out=out[lo:hi])

    _in_pieces(len(out), samples)
    return out


def _elementwise(ufunc, x: np.ndarray, y, dtype=np.float64) -> np.ndarray:
    """ufunc(x, y), y a scalar or an array of x's shape; a large x runs in pieces along axis 0."""
    if not _splits(x.size):
        return ufunc(x, y)
    out = np.empty(x.shape, dtype)
    whole = np.ndim(y) == 0

    def rows(lo, hi):
        ufunc(x[lo:hi], y if whole else y[lo:hi], out=out[lo:hi])

    _in_pieces(len(x), rows)
    return out


def _all_finite(arr: np.ndarray) -> bool:
    """No NaN or Inf in arr; a large arr is scanned in pieces along axis 0."""
    if not _splits(arr.size):
        return bool(np.isfinite(arr).all())
    ok = np.empty(arr.shape, bool)
    return all(_in_pieces(len(arr), lambda lo, hi: np.isfinite(arr[lo:hi], out=ok[lo:hi]).all()))


def _finite(arr: np.ndarray, what: str = "tensor data", stage: str = "") -> np.ndarray:
    """arr, checked for NaN and Inf; the error names `what`, after the layer `stage` if any."""
    if not _all_finite(arr):
        raise NonFiniteError(f"{stage}non-finite values in {what}")
    return arr


class SymmetricOperator:
    """A fixed symmetric n x n matrix S; `apply(H)` computes S @ H for H [..., n, C].

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
        _finite(s, "operator")
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


class Tensor:
    """A node of the training tape: an array, checked finite, and the closure that hands the
    gradient of a loss with respect to it back to what made it (None: no gradient flows)."""

    __slots__ = ("data", "_backward")

    def __init__(self, data, backward=None):
        self.data, self._backward = _finite(np.asarray(data, dtype=np.float64)), backward

    @property
    def requires_grad(self) -> bool:
        return self._backward is not None


def mse_loss(pred: Tensor, target) -> Tensor:
    """mean((pred - target)^2), on the tape when pred is; target is checked finite."""
    target = _finite(np.asarray(target, dtype=np.float64))
    if pred.data.shape != target.shape:
        raise ValueError(f"mse_loss shape mismatch: {pred.data.shape} vs {target.shape}")
    diff = pred.data - target
    n = diff.size

    def back(g):
        pred._backward((2.0 / n) * diff * g)

    return Tensor(np.mean(diff * diff), back if pred.requires_grad else None)


def backward(loss: Tensor) -> None:
    """Run the tape back from a scalar loss.

    The tape ends in the parameters, and each call adds one full gradient to their
    `grad` (see `models.forward_batch`).
    """
    if loss.data.size != 1:
        raise ValueError(f"backward requires a scalar loss, got shape {loss.data.shape}")
    if not loss.requires_grad:
        raise ValueError("loss is not attached to the gradient tape")
    loss._backward(np.ones_like(loss.data))
