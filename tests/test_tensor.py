"""Array primitives, the propagation operator and the tape: values, bits, gradients, errors."""
from __future__ import annotations

import os
import platform
import signal
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

import tgl
from tgl import tensor as T
from tgl.tensor import NonFiniteError, SymmetricOperator, Tensor, backward
from tgl.topology import propagation_for


TINY_GCN = tgl.ModelSpec("GCN", (4,), (8,))


def test_relu_value_and_subgradient(tiny_topo):
    """A hidden layer's ReLU passes [-1, 0, 2] on as [0, 0, 2] and a gradient of ones back
    as [0, 0, 1]: the subgradient at the kink is 0."""
    m = tgl.build_from_spec(tgl.ModelSpec("MLP", (), (3,)), tiny_topo, seed=0)
    hidden = m.fc_biases[0]
    m.fc_weights[0].value[:] = 0.0
    hidden.value[:] = [-1.0, 0.0, 2.0]
    m.fc_weights[1].value[:] = np.eye(3, 16)   # the output repeats the hidden units
    pred = tgl.forward_batch(m, np.zeros((1, 6, 3)), np.zeros((1, 22)))
    assert pred.data[0, :3].tolist() == [0.0, 0.0, 2.0]
    backward(T.mse_loss(pred, pred.data - 8.0))   # d loss / d pred = 2 * 8 / 16 = 1
    assert hidden.grad.tolist() == [0.0, 0.0, 1.0]


@pytest.mark.parametrize("shape", [(7, 5), (3, 24, 6)])
def test_relu_bits_match_where_including_signed_zeros(shape):
    """ReLU and its backward as the layers take them: maximum, and the product with the mask."""
    rng = np.random.default_rng(0)
    data = rng.normal(size=shape)
    data.flat[::3] = -0.0
    data.flat[1::7] = 0.0
    y = T._elementwise(np.maximum, data, 0.0)
    ref = np.where(data > 0, data, 0.0)
    assert y.tobytes() == ref.tobytes()
    assert not np.signbit(y).any()
    g = rng.normal(size=shape)
    mask = T._elementwise(np.greater, data, 0, bool)
    assert T._elementwise(np.multiply, g, mask).tobytes() == (g * (data > 0)).tobytes()


def test_mse_loss_value_and_grad():
    handed = []
    pred = Tensor([1.0, 1.0], handed.append)
    loss = T.mse_loss(pred, [0.0, 2.0])
    assert float(loss.data) == pytest.approx(1.0)
    backward(loss)
    # d/dpred mean((p - t)^2) = 2 (p - t) / n
    assert handed[0].tolist() == [1.0, -1.0]


def test_batched_matmul_against_per_item_loop():
    rng = np.random.default_rng(0)
    s = rng.normal(size=(5, 5))
    h = rng.normal(size=(7, 5, 2))
    out = T._product(s, h)
    expect = np.stack([s @ h[i] for i in range(7)])
    np.testing.assert_allclose(out, expect)


def test_repeated_backward_accumulates_once_per_call(tiny_topo):
    m = tgl.build_from_spec(TINY_GCN, tiny_topo, seed=0)
    rng = np.random.default_rng(3)
    loss = T.mse_loss(tgl.forward_batch(m, rng.normal(size=(4, 6, 3)), rng.normal(size=(4, 22))),
                      rng.normal(size=(4, 16)))
    backward(loss)
    once = [p.grad.copy() for p in m.parameters()]
    backward(loss)
    for p, g in zip(m.parameters(), once):
        assert p.grad.tobytes() == (g + g).tobytes(), p.name


def test_non_finite_inputs_rejected():
    with pytest.raises(NonFiniteError):
        Tensor([float("nan")])
    with pytest.raises(NonFiniteError):
        Tensor([float("inf")])


def test_backward_requires_scalar():
    with pytest.raises(ValueError, match="scalar"):
        backward(Tensor([1.0, 2.0], lambda g: None))
    with pytest.raises(ValueError, match="tape"):
        backward(Tensor(1.0))


# the benchmark's toy GCN and a small MLP
REFERENCE_SPECS = {"toy GCN": tgl.ModelSpec("GCN", (14, 28, 56), (120, 50)),
                   "MLP": tgl.ModelSpec("MLP", (), (30, 20))}


def _reference_step(params, topo, tactile, aux, target) -> tuple[float, dict]:
    """The loss and every parameter's gradient, by hand: dense S, @ and np.maximum."""
    s = propagation_for(topo)
    x, conv = tactile, []
    for w in params.conv_weights:
        h = s @ x
        z = h @ w.value
        conv.append((h, z))
        x = np.maximum(z, 0.0)
    h, fc = np.concatenate([x.reshape(len(x), -1), aux], axis=1), []
    last = len(params.fc_weights) - 1
    for i, (w, b) in enumerate(zip(params.fc_weights, params.fc_biases)):
        z = h @ w.value + b.value
        fc.append((h, z))
        h = np.maximum(z, 0.0) if i != last else z
    diff = h - target
    grads, g = {}, 2.0 * diff / diff.size
    for i in reversed(range(len(fc))):
        h, z = fc[i]
        g = g if i == last else g * (z > 0)
        grads[f"fc{i}.bias"], grads[f"fc{i}.weight"] = g.sum(axis=0), h.T @ g
        g = g @ params.fc_weights[i].value.T
    g = g[:, :x[0].size].reshape(x.shape)
    for i in reversed(range(len(conv))):
        h, z = conv[i]
        g = g * (z > 0)
        grads[f"conv{i}"] = np.einsum("bnc,bnd->cd", h, g)
        g = s.T @ (g @ params.conv_weights[i].value.T)
    return float(np.mean(diff * diff)), grads


@pytest.mark.parametrize("batch", [1, 7])
@pytest.mark.parametrize("model, hand", [("toy GCN", "small_topo"), ("toy GCN", "default_topo"),
                                         ("MLP", "small_topo")])
def test_a_training_step_matches_a_float64_reference(request, model, hand, batch):
    """forward_batch, mse_loss and backward, as fit_pairs runs them, against `_reference_step`."""
    topo = request.getfixturevalue(hand)
    m = tgl.build_from_spec(REFERENCE_SPECS[model], topo, seed=6)
    rng = np.random.default_rng(batch)
    tactile = rng.uniform(-1.0, 1.0, (batch, topo.n, 3))
    aux = rng.uniform(-1.0, 1.0, (batch, 22))
    target = rng.uniform(-1.0, 1.0, (batch, 16))
    loss = T.mse_loss(tgl.forward_batch(m, tactile, aux), target)
    backward(loss)
    want_loss, want = _reference_step(m, topo, tactile, aux, target)
    assert abs(float(loss.data) - want_loss) <= 1e-12 * want_loss
    assert sorted(want) == sorted(p.name for p in m.parameters())
    for p in m.parameters():
        assert np.abs(p.grad - want[p.name]).max() <= 1e-12 * np.abs(want[p.name]).max(), p.name


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
    h = rng.normal(size=lead + (n, channels))
    g = rng.normal(size=h.shape)
    out = op.apply(h)
    assert out.shape == h.shape
    np.testing.assert_allclose(out, s @ h, rtol=0, atol=1e-12)
    np.testing.assert_allclose(op.apply(g, transpose=True), s.T @ g, rtol=0, atol=1e-12)


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
        SymmetricOperator(np.eye(3)).apply(np.ones((2, 4)))


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
    w = params.fc_weights[0].value
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
    y = T._elementwise(np.maximum, data, 0.0)
    assert y.tobytes() == np.maximum(data, 0.0).tobytes()
    g = rng.normal(size=shape)
    mask = T._elementwise(np.greater, data, 0, bool)
    assert T._elementwise(np.multiply, g, mask).tobytes() == (g * (data > 0)).tobytes()


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
        spans = T._in_pieces(n, lambda lo, hi: (lo, hi), multiple)
        assert spans[0][0] == 0 and spans[-1][1] == n and len(spans) == pieces
        assert all(a[1] == b[0] and a[1] % multiple == 0 for a, b in zip(spans, spans[1:]))


def test_pieces_the_worker_never_starts_run_in_the_caller(monkeypatch):
    """With the worker held up, the caller takes its piece back: same bits, same thread."""
    monkeypatch.setattr(T, "SPLIT_MIN_ELEMENTS", 0)
    pairs = _toy_gcn_products(384, 100, np.random.default_rng(5))
    gate = threading.Event()
    blocker = T._worker.submit(gate.wait)
    try:
        for name, (a, b) in pairs.items():
            assert T._product(a, b).tobytes() == (a @ b).tobytes(), name
        runners = T._in_pieces(10, lambda lo, hi: threading.current_thread().name)
        assert runners == [threading.current_thread().name] * 2
    finally:
        gate.set()
        blocker.result(timeout=60)


def test_a_failing_piece_raises_in_the_caller():
    def run(lo, hi):
        if lo > 0:
            raise ZeroDivisionError(f"piece from {lo}")
        return lo

    with pytest.raises(ZeroDivisionError, match="piece from 5"):
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


def test_the_worker_is_one_thread_started_by_the_first_split_op():
    """In a fresh interpreter: none at import, one after a split op, still one after 200
    split products from four threads at once."""
    code = ("import threading\n"
            "from concurrent.futures import ThreadPoolExecutor\n"
            "import numpy as np\n"
            "import tgl\n"
            "from tgl import tensor as T\n"
            "def pieces():\n"
            "    return sum(t.name.startswith('tgl-piece') for t in threading.enumerate())\n"
            "print(threading.active_count(), pieces())\n"
            "T.SPLIT_MIN_ELEMENTS = 0\n"
            "a, b = np.ones((20, 200)), np.ones((200, 120))\n"
            "T._product(a, b)\n"
            "print(pieces())\n"
            "with ThreadPoolExecutor(max_workers=4) as pool:\n"
            "    list(pool.map(lambda _: T._product(a, b), range(200)))\n"
            "print(pieces())\n")
    src = os.path.dirname(os.path.dirname(T.__file__))
    done = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=120, check=True)
    assert done.stdout.split("\n") == ["1 0", "1", "1", ""]


def _pieces_in_this_process(a: np.ndarray, b: np.ndarray) -> str:
    """'ok' if a split product has a @ b's bits and a second piece runs on a tgl-piece thread
    while the first waits for it; else what went wrong."""
    if T._product(a, b).tobytes() != (a @ b).tobytes():
        return "a split product lost a @ b's bits"
    signalled = threading.Event()

    def run(lo, hi):
        if lo == 0:
            return signalled.wait(10)
        signalled.set()
        return threading.current_thread().name

    waited, runner = T._in_pieces(10, run)
    return "ok" if waited and runner.startswith("tgl-piece") else f"piece 1 ran on {runner}"


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_forked_child_runs_pieces_on_a_worker_of_its_own(monkeypatch):
    monkeypatch.setattr(T, "SPLIT_MIN_ELEMENTS", 0)
    rng = np.random.default_rng(4)
    a, b = rng.normal(size=(20, 200)), rng.normal(size=(200, 120))
    assert _pieces_in_this_process(a, b) == "ok"   # the parent's worker has run
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:   # the child reports through the pipe and leaves without pytest's teardown
        try:
            os.write(write, _pieces_in_this_process(a, b).encode())
        finally:
            os._exit(0)
    os.close(write)
    deadline = time.monotonic() + 60
    while (ended := os.waitpid(pid, os.WNOHANG)) == (0, 0) and time.monotonic() < deadline:
        time.sleep(0.05)
    if ended == (0, 0):
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
    with os.fdopen(read) as f:
        report = f.read()
    assert ended != (0, 0), "the child did not end within 60 s"
    assert report == "ok"


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
