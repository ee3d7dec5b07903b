"""Tensor library: forward values, gradients, broadcasting, error handling."""
from __future__ import annotations

import os
import platform
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

import tgl
from tgl import tensor as T
from tgl.tensor import NonFiniteError, SymmetricOperator, Tensor, backward


def _dot(y: Tensor, g: np.ndarray) -> Tensor:
    """The scalar sum(y * g) on the tape, so backward hands y the gradient g."""
    return T.matmul(T.reshape(y, (1, y.size)), Tensor(g.reshape(-1, 1)))


def test_matmul_forward_and_grads():
    a = Tensor([[1.0, 2.0]], requires_grad=True)
    b = Tensor([[3.0], [4.0]], requires_grad=True)
    out = T.matmul(a, b)
    assert out.data.tolist() == [[11.0]]
    backward(out)
    assert a.grad.tolist() == [[3.0, 4.0]]
    assert b.grad.tolist() == [[1.0], [2.0]]


def test_relu_value_and_subgradient():
    x = Tensor([-1.0, 0.0, 2.0], requires_grad=True)
    y = T.relu(x)
    assert y.data.tolist() == [0.0, 0.0, 2.0]
    backward(_dot(y, np.ones(3)))
    # subgradient at the kink is 0
    assert x.grad.tolist() == [0.0, 0.0, 1.0]


@pytest.mark.parametrize("shape", [(7, 5), (3, 24, 6)])
def test_relu_bits_match_where_including_signed_zeros(shape):
    rng = np.random.default_rng(0)
    data = rng.normal(size=shape)
    data.flat[::3] = -0.0
    data.flat[1::7] = 0.0
    x = Tensor(data, requires_grad=True)
    y = T.relu(x)
    ref = np.where(data > 0, data, 0.0)
    assert y.data.tobytes() == ref.tobytes()
    assert not np.signbit(y.data).any()
    g = rng.normal(size=shape)
    backward(_dot(y, g))
    assert x.grad.tobytes() == (g * (data > 0)).tobytes()


def test_mse_loss_value_and_grad():
    pred = Tensor([1.0, 1.0], requires_grad=True)
    target = Tensor([0.0, 2.0])
    loss = T.mse_loss(pred, target)
    assert loss.item() == pytest.approx(1.0)
    backward(loss)
    # d/dpred mean((p - t)^2) = 2 (p - t) / n
    assert pred.grad.tolist() == [1.0, -1.0]


def test_reshape_grad_restores_shape():
    x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    backward(_dot(T.reshape(x, 6), np.arange(6.0)))
    assert x.grad.shape == (2, 3)
    np.testing.assert_allclose(x.grad, np.arange(6.0).reshape(2, 3))


def test_concat_routes_grads_to_parents():
    a = Tensor(np.ones((2, 2)), requires_grad=True)
    b = Tensor(np.ones((3, 2)), requires_grad=True)
    out = T.concat([a, b], axis=0)
    assert out.shape == (5, 2)
    w = np.arange(10.0).reshape(5, 2)
    backward(_dot(out, w))
    np.testing.assert_allclose(a.grad, w[:2])
    np.testing.assert_allclose(b.grad, w[2:])


def test_broadcast_add_unbroadcasts_grad():
    x = Tensor(np.ones((4, 3)), requires_grad=True)
    bias = Tensor(np.zeros(3), requires_grad=True)
    backward(_dot(x + bias, np.ones((4, 3))))
    assert bias.grad.shape == (3,)
    np.testing.assert_allclose(bias.grad, [4.0, 4.0, 4.0])


def test_batched_matmul_against_per_item_loop():
    rng = np.random.default_rng(0)
    s = rng.normal(size=(5, 5))
    h = rng.normal(size=(7, 5, 2))
    out = T.matmul(Tensor(s), Tensor(h))
    expect = np.stack([s @ h[i] for i in range(7)])
    np.testing.assert_allclose(out.data, expect)


def test_batched_matmul_grad_matches_finite_differences():
    rng = np.random.default_rng(1)
    s = rng.normal(size=(3, 3))
    h0 = rng.normal(size=(2, 3, 2))
    h = Tensor(h0.copy(), requires_grad=True)
    loss = T.mse_loss(T.matmul(Tensor(s), h), Tensor(np.zeros((2, 3, 2))))
    backward(loss)
    eps = 1e-6
    flat = h.data.ravel()
    for i in rng.choice(flat.size, size=4, replace=False):
        orig = flat[i]
        flat[i] = orig + eps
        up = T.mse_loss(T.matmul(Tensor(s), Tensor(h.data)), Tensor(np.zeros((2, 3, 2)))).item()
        flat[i] = orig - eps
        dn = T.mse_loss(T.matmul(Tensor(s), Tensor(h.data)), Tensor(np.zeros((2, 3, 2)))).item()
        flat[i] = orig
        fd = (up - dn) / (2 * eps)
        assert h.grad.ravel()[i] == pytest.approx(fd, rel=1e-5, abs=1e-9)


def test_repeated_backward_accumulates_once_per_call():
    x = Tensor([3.0], requires_grad=True)
    y = _dot(x + x, np.array([3.0]))  # reused node: grad must not double-count within a call
    backward(y)
    np.testing.assert_allclose(x.grad, [6.0])
    backward(y)
    np.testing.assert_allclose(x.grad, [12.0])


def test_diamond_graph_accumulates_through_both_paths():
    x = Tensor([[2.0]], requires_grad=True)
    a = T.matmul(x, Tensor([[3.0]]))
    b = T.matmul(x, Tensor([[5.0]]))
    backward(a + b)
    np.testing.assert_allclose(x.grad, [[8.0]])


def test_non_finite_inputs_rejected():
    with pytest.raises(NonFiniteError):
        Tensor([float("nan")])
    with pytest.raises(NonFiniteError):
        Tensor([float("inf")])


def test_backward_requires_scalar():
    x = Tensor([1.0, 2.0], requires_grad=True)
    with pytest.raises(ValueError):
        backward(x + x)


def random_symmetric(n: int, edge_p: float, diag_p: float, seed: int,
                     isolated: bool) -> np.ndarray:
    """Random weights on a random symmetric pattern; node 0 loses its edges if isolated."""
    rng = np.random.default_rng(seed)
    upper = np.triu(rng.random((n, n)) < edge_p, 1) * rng.normal(size=(n, n))
    s = upper + upper.T + np.diag((rng.random(n) < diag_p) * rng.normal(size=n))
    if isolated:
        s[0, 1:] = s[1:, 0] = 0.0
    return s


@given(n=st.integers(1, 150), edge_p=st.sampled_from([0.0, 0.005, 0.01, 0.03, 0.3]),
       diag_p=st.sampled_from([0.0, 0.5, 1.0]), seed=st.integers(0, 2**32 - 1),
       isolated=st.booleans(),
       lead=st.sampled_from([(), (0,), (1,), (4,), (2, 3), (T.CSR_BLOCK_SAMPLES + 3,)]),
       channels=st.integers(1, 5))
@example(n=24, edge_p=0.3, diag_p=1.0, seed=0, isolated=False, lead=(3,), channels=2)   # BLAS
@example(n=120, edge_p=0.01, diag_p=1.0, seed=1, isolated=True, lead=(), channels=3)    # CSR
@example(n=120, edge_p=0.01, diag_p=0.5, seed=2, isolated=True,                       # 2 blocks
         lead=(T.CSR_BLOCK_SAMPLES + 3,), channels=2)
@example(n=120, edge_p=0.01, diag_p=1.0, seed=3, isolated=False, lead=(0,), channels=2)
def test_symmetric_operator_matches_dense_product(n, edge_p, diag_p, seed, isolated, lead,
                                                  channels):
    s = random_symmetric(n, edge_p, diag_p, seed, isolated)
    op = SymmetricOperator(s)
    assert op.sparse == (np.count_nonzero(s) <= T.SPARSE_MAX_DENSITY * s.size)
    rng = np.random.default_rng(seed + 1)
    h = Tensor(rng.normal(size=lead + (n, channels)), requires_grad=True)
    g = rng.normal(size=h.shape)
    out = T.matmul(op, h)
    assert out.shape == h.shape
    np.testing.assert_allclose(out.data, s @ h.data, rtol=0, atol=1e-12)
    backward(_dot(out, g))
    np.testing.assert_allclose(h.grad, s @ g, rtol=0, atol=1e-12)


def test_symmetric_operator_examples_take_both_paths():
    assert not SymmetricOperator(random_symmetric(24, 0.3, 1.0, 0, False)).sparse
    s = random_symmetric(120, 0.01, 0.5, 1, True)
    op = SymmetricOperator(s)
    assert op.sparse
    n, block = len(s), op.block
    assert block.shape == (n * T.CSR_BLOCK_SAMPLES,) * 2
    starts, ends = block.indptr[:-1], block.indptr[1:]
    # every row stores its diagonal first, zero or not, then its neighbours by column
    assert np.array_equal(block.indices[starts], np.arange(block.shape[0]))
    assert np.array_equal(block.data[starts], np.tile(np.diag(s), T.CSR_BLOCK_SAMPLES))
    for i in range(block.shape[0]):
        copy, row = divmod(i, n)
        cols = np.flatnonzero(s[row])
        assert np.array_equal(block.indices[starts[i] + 1:ends[i]], cols[cols != row] + copy * n)
    # the isolated node's row holds only its diagonal, in every copy of S
    assert (ends - starts)[::n].tolist() == [1] * T.CSR_BLOCK_SAMPLES


def test_symmetric_operator_rejects_asymmetric_and_non_finite():
    with pytest.raises(ValueError, match="symmetric"):
        SymmetricOperator([[1.0, 2.0], [0.0, 1.0]])
    with pytest.raises(ValueError, match="square"):
        SymmetricOperator(np.ones((2, 3)))
    with pytest.raises(NonFiniteError):
        SymmetricOperator([[float("nan")]])
    with pytest.raises(ValueError, match="mismatch"):
        T.matmul(SymmetricOperator(np.eye(3)), Tensor(np.ones((2, 4))))


# Six rounds of eight 16 MB arrays, allocated then all freed, as one step's
# activations and gradients are; prints the minor faults of rounds 2 to 6.
_HEAP_ROUNDS = """
import resource
import numpy as np
import tgl

for r in range(6):
    if r == 1:
        start = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    arrays = [np.ones(2_000_000) for _ in range(8)]
    del arrays
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - start)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the heap policy is glibc's")
def test_freed_blocks_stay_mapped_for_the_next_round():
    """Importing tgl keeps blocks under 32 MiB mapped once freed: later rounds barely fault."""
    src = os.path.dirname(os.path.dirname(T.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", _HEAP_ROUNDS], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    assert int(done.stdout) < 1000     # about 20,700 under glibc's default policy


# ---------------------------------------------------------------------------
# work in pieces: each split op gives the bits of its plain numpy form

TOY_CONV = (3, 14, 28, 56)   # the toy GCN's conv widths, input channels first
TOY_FC = 120                 # and its first fc layer's width


def _toy_gcn_products(nodes: int, batch: int, rng) -> dict:
    """Every product the toy GCN makes forward and backward on a hand of `nodes` nodes."""
    s = rng.normal(size=(nodes, nodes))
    s = s + s.T
    pairs = {}
    for i, (c_in, c_out) in enumerate(zip(TOY_CONV, TOY_CONV[1:])):
        h = rng.normal(size=(batch, nodes, c_in))
        w = rng.normal(size=(c_in, c_out))
        g = rng.normal(size=(batch, nodes, c_out))
        pairs[f"conv{i} S·H"] = (s, h)
        pairs[f"conv{i} H·W"] = (h, w)
        pairs[f"conv{i} G·Wᵀ"] = (g, w.T)
        pairs[f"conv{i} Hᵀ·G"] = (h.swapaxes(-1, -2), g)
    x = rng.normal(size=(batch, nodes * TOY_CONV[-1] + 22))
    w = rng.normal(size=(x.shape[1], TOY_FC))
    g = rng.normal(size=(batch, TOY_FC))
    pairs.update({"fc0 X·W": (x, w), "fc0 Xᵀ·G": (x.T, g), "fc0 G·Wᵀ": (g, w.T)})
    return pairs


@pytest.mark.parametrize("nodes", [24, 384])
@pytest.mark.parametrize("batch", [100, 1])
def test_split_products_equal_numpy_bit_for_bit(monkeypatch, nodes, batch):
    """At both toy hands' shapes, every product split in pieces gives the unsplit bits."""
    monkeypatch.setattr(T, "SPLIT_MIN_ELEMENTS", 0)   # split whatever can be split
    for name, (a, b) in _toy_gcn_products(nodes, batch, np.random.default_rng(nodes)).items():
        assert T._product(a, b).tobytes() == (a @ b).tobytes(), name


FC0_IN = 384 * TOY_CONV[-1] + 22   # the 384-node toy GCN's first fc layer: 21,526 inputs


def _fc0_row(nonzero: np.ndarray, rng) -> np.ndarray:
    row = np.zeros((1, FC0_IN))
    row[0, nonzero] = rng.normal(size=len(nonzero))
    return row


@pytest.mark.parametrize("case", ["aux only", "random sparse"])
def test_a_sparse_row_reads_only_the_weight_rows_it_selects(case):
    """A silent frame (only the 22 joint and label inputs) or <= 8% nonzeros: numpy's value, fixed bits."""
    rng = np.random.default_rng(18)
    w = rng.normal(size=(FC0_IN, TOY_FC))
    nonzero = np.arange(FC0_IN - 22, FC0_IN) if case == "aux only" else \
        rng.choice(FC0_IN, int(T.SPARSE_MAX_DENSITY * FC0_IN), replace=False)
    row = _fc0_row(nonzero, rng)
    got = T._product(row, w)
    expected = row @ w
    assert np.abs(got - expected).max() <= 1e-12 * np.abs(expected).max()
    assert T._product(row.copy(), w.copy()).tobytes() == got.tobytes()
    unread = w.copy()
    unread[np.setdiff1d(np.arange(FC0_IN), nonzero)] = np.nan
    assert T._product(row, unread).tobytes() == got.tobytes()
    zeros = T._product(np.zeros((1, FC0_IN)), w)
    assert zeros.shape == (1, TOY_FC) and zeros.tobytes() == bytes(zeros.nbytes)


def test_a_nan_in_a_selected_weight_row_still_names_the_fc_layer(default_topo):
    """Silent taxels select only the joint and label rows; a NaN there is still caught."""
    params = tgl.build_from_spec(tgl.ModelSpec("GCN", TOY_CONV[1:], (TOY_FC, 50)), default_topo, 0)
    w = params.fc_weights[0].value.data
    assert w.shape == (FC0_IN, TOY_FC) and T._splits(w.size)
    aux = np.concatenate([np.full(16, 0.5), tgl.encode_labels(True, False, True)])[None]
    w[FC0_IN - 22, 3] = np.nan                          # the first joint's row
    with pytest.raises(NonFiniteError, match="fc layer 0"):
        tgl.forward_batch(params, np.zeros((1, 384, 3)), aux)
    with pytest.raises(NonFiniteError, match="fc layer 0"):   # a rollout step, off the tape
        tgl.forward(params, np.zeros((384, 3)), aux[0, :16], aux[0, 16:])


@pytest.mark.parametrize("batch", [100, 60, 1])
def test_split_mlp_products_equal_numpy_bit_for_bit(batch):
    """Model IV's fc products that split at the default threshold keep their bits too."""
    rng = np.random.default_rng(batch)
    widths = (384 * 3 + 22, *tgl.MODEL_TABLE["IV"].fc_sizes[:4])
    for fan_in, fan_out in zip(widths, widths[1:]):
        x, g = rng.normal(size=(batch, fan_in)), rng.normal(size=(batch, fan_out))
        w = rng.normal(size=(fan_in, fan_out))
        for a, b in ((x, w), (x.T, g), (g, w.T)):
            assert T._product(a, b).tobytes() == (a @ b).tobytes(), (fan_in, fan_out, a.shape)


@pytest.mark.parametrize("shape", [(100, 384, 56), (1, 384, 56), (100, 24, 56), (100, 120)])
def test_split_relu_equals_numpy_bit_for_bit(monkeypatch, shape):
    monkeypatch.setattr(T, "SPLIT_MIN_ELEMENTS", 0)
    rng = np.random.default_rng(len(shape))
    data = rng.normal(size=shape)
    data.flat[::3] = -0.0
    x = Tensor(data, requires_grad=True)
    y = T.relu(x)
    assert y.data.tobytes() == np.maximum(data, 0.0).tobytes()
    g = rng.normal(size=shape)
    backward(_dot(y, g))
    assert x.grad.tobytes() == (g * (data > 0)).tobytes()


@pytest.mark.parametrize("where", [0, -1])
def test_split_finite_check_sees_every_piece(monkeypatch, where):
    monkeypatch.setattr(T, "SPLIT_MIN_ELEMENTS", 0)
    data = np.ones((100, 7))
    data.flat[where] = np.inf
    with pytest.raises(NonFiniteError):
        Tensor(data)
    assert T._all_finite(np.ones((100, 7)))


def test_pieces_cover_the_range_at_the_cut_multiples():
    """The last piece ends at n even where n is no multiple; too short a range stays whole."""
    for n, multiple, pieces in [(21526, 64, 2), (120, 64, 2), (50, 64, 1), (2_583_120, 16384, 2),
                                (7, 1, 2), (1, 1, 1)]:
        spans = T._in_pieces(n, lambda k, lo, hi: (lo, hi), multiple)
        assert spans[0][0] == 0 and spans[-1][1] == n and len(spans) == pieces
        assert all(a[1] == b[0] and a[1] % multiple == 0 for a, b in zip(spans, spans[1:]))


def test_pieces_the_worker_never_starts_run_in_the_caller(monkeypatch):
    """With the worker held up, the caller takes its piece back: same bits, same thread."""
    monkeypatch.setattr(T, "SPLIT_MIN_ELEMENTS", 0)
    pairs = _toy_gcn_products(384, 100, np.random.default_rng(5))
    gate = threading.Event()
    blocker = T._worker().submit(gate.wait)
    try:
        for name, (a, b) in pairs.items():
            assert T._product(a, b).tobytes() == (a @ b).tobytes(), name
        runners = T._in_pieces(10, lambda k, lo, hi: threading.current_thread().name)
        assert runners == [threading.current_thread().name] * 2
    finally:
        gate.set()
        blocker.result(timeout=60)


def test_a_failing_piece_raises_in_the_caller():
    def run(k, lo, hi):
        if k == 1:
            raise ZeroDivisionError(f"piece {k}")
        return k

    with pytest.raises(ZeroDivisionError, match="piece 1"):
        T._in_pieces(10, run)


def test_the_worker_keeps_the_callers_errstate(monkeypatch):
    monkeypatch.setattr(T, "SPLIT_MIN_ELEMENTS", 0)
    x = np.ones((100, 7))
    x[-1] = np.inf
    with np.errstate(invalid="raise"), pytest.raises(FloatingPointError):
        T._elementwise(np.subtract, x, x)


def test_concurrent_split_products_match_sequential_ones(monkeypatch):
    """200 split products from four threads at once, against the same products one by one.

    Both the callers and the worker call into the bundled OpenBLAS at the same time.
    """
    monkeypatch.setattr(T, "SPLIT_MIN_ELEMENTS", 0)
    rng = np.random.default_rng(9)
    shapes = [((20, 1366), (1366, 120)), ((16, 96, 28), (28, 56)), ((1366, 20), (20, 120))]
    pairs = [tuple(rng.normal(size=s) for s in shapes[i % len(shapes)]) for i in range(200)]
    expected = [(a @ b).tobytes() for a, b in pairs]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)   # hand the interpreter lock around as often as it goes
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            got = list(pool.map(lambda ab: T._product(*ab).tobytes(), pairs, timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert got == expected


def test_blas_runs_on_one_thread_in_a_child_whatever_the_environment():
    """Importing tgl pins numpy's OpenBLAS to one thread (when numpy bundles it)."""
    src = os.path.dirname(os.path.dirname(T.__file__))
    code = ("import ctypes, glob, os, numpy as np, tgl\n"
            "libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), 'numpy.libs')\n"
            "paths = glob.glob(os.path.join(libs, 'libscipy_openblas64_*.so'))\n"
            "print(ctypes.CDLL(paths[0]).scipy_openblas_get_num_threads64_() if paths else 1)\n")
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="2")
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=120, check=True)
    assert done.stdout.strip() == "1"
