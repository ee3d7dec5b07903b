"""Motion-generation models: architecture table, forward pass, checkpoints."""
from __future__ import annotations

import gc
import hashlib
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import tgl
from tgl.analysis import extract_node_features
from tgl.dataset import PairSet, Trial, encode_labels
from tgl.models import (MODEL_TABLE, OUTPUT_DIM, ModelSpec, build_from_spec, conv_features,
                        forward, forward_batch, load_checkpoint, matmul, model_spec,
                        parameter_layout, predict, read_manifest, save_checkpoint)
from tgl.optim import AdamConfig, adam_step
from tgl.plant import PlantConfig, make_object, make_plant
from tgl.rollout import RolloutConfig, rollout
from tgl.tensor import CSR_BLOCK_SAMPLES, NonFiniteError, Tensor, backward, mse_loss
from tgl.training import mean_loss
from tgl.topology import HandTopology, SensorNode, propagation_for


TOY = ModelSpec("GCN", (4, 5), (8,))

# The benchmark's toy GCN: on the 384-node hand its first fc weight, 21,526 x 120, splits
# into pieces, and a batch-1 input with silent taxels takes the one-row sparse product.
BENCH_GCN = ModelSpec("GCN", (14, 28, 56), (120, 50))


def test_architecture_table():
    assert model_spec("I").conv_channels == (14, 28, 56, 112, 112, 112)
    assert model_spec("II").conv_channels == (14, 28, 56, 112)
    assert model_spec("III").conv_channels == (14, 28, 56)
    for name in ("I", "II", "III"):
        assert model_spec(name).kind == "GCN"
        assert model_spec(name).fc_sizes == (8000, 1000, 120, 50)
    four = model_spec("IV")
    assert four.kind == "MLP"
    assert four.conv_channels == ()
    assert four.fc_sizes == (1500, 3000, 1500, 700, 350, 100, 50)
    assert set(MODEL_TABLE) == {"I", "II", "III", "IV"}


def test_raw_input_and_output_dimensions():
    spec = model_spec("IV")
    # 384 nodes x 3 axes + 16 joints + 6 labels
    assert spec.fc_input_width(384) == 384 * 3 + 16 + 6 == 1174
    assert OUTPUT_DIM == 16
    assert model_spec("I").fc_input_width(384) == 384 * 112 + 22
    assert model_spec("III").fc_input_width(384) == 384 * 56 + 22


def test_unknown_model_name():
    with pytest.raises(ValueError):
        model_spec("V")


def test_spec_validation():
    with pytest.raises(ValueError):
        ModelSpec("RNN", (4,), (8,))
    with pytest.raises(ValueError):
        ModelSpec("MLP", (4,), (8,))  # conv layers on an MLP
    with pytest.raises(ValueError):
        ModelSpec("GCN", (), (8,))  # GCN needs at least one conv layer
    with pytest.raises(ValueError):
        ModelSpec("GCN", (0,), (8,))
    # sizes are ints: a bool or a float fails here, naming the field, not in build_from_spec
    for kwargs, field in (({"conv_channels": (14.5,)}, "conv_channels"),
                          ({"fc_sizes": (8.0,)}, "fc_sizes"), ({"kind": b"GCN"}, "kind")):
        with pytest.raises(ValueError, match=f"'{field}'"):
            ModelSpec(**{"kind": "GCN", "conv_channels": (14,), "fc_sizes": (8,)} | kwargs)


def test_build_deterministic(tiny_topo):
    a = build_from_spec(TOY, tiny_topo, seed=3)
    b = build_from_spec(TOY, tiny_topo, seed=3)
    for pa, pb in zip(a.parameters(), b.parameters()):
        np.testing.assert_array_equal(pa.value, pb.value)
    c = build_from_spec(TOY, tiny_topo, seed=4)
    assert any(not np.array_equal(pa.value, pc.value)
               for pa, pc in zip(a.parameters(), c.parameters()))


def test_parameter_count(tiny_topo):
    m = build_from_spec(TOY, tiny_topo, seed=0)
    expect = 3 * 4 + 4 * 5              # conv weights
    width = 6 * 5 + 22
    expect += width * 8 + 8             # fc0 weight and bias
    expect += 8 * 16 + 16               # output layer
    assert m.parameter_count() == expect
    assert sum(p.value.size for p in m.parameters()) == expect


def test_graph_conv_two_node_by_hand():
    nodes = [SensorNode(0, "palm", "palm", 0, 0), SensorNode(1, "palm", "palm", 0, 1)]
    topo = HandTopology(nodes, [(0, 1)])
    m = build_from_spec(ModelSpec("GCN", (2,), (4,)), topo, seed=0)
    w = m.conv_weights[0]
    w.value[:] = np.array([[1.0, -1.0], [0.0, 2.0], [1.0, 0.0]])
    h = np.array([[1.0, 2.0, 3.0], [-1.0, 0.0, 1.0]])
    out = conv_features(m, h[None])
    # S = [[.5,.5],[.5,.5]]; S H = [[0,1,2],[0,1,2]]; (S H) W = [[2,2],[2,2]]
    np.testing.assert_allclose(out[0], [[2.0, 2.0], [2.0, 2.0]])


def test_conv_features_permutation_equivariant():
    rng = np.random.default_rng(5)
    edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5), (1, 4)]
    nodes = [SensorNode(i, "palm", "palm", 0, i) for i in range(6)]
    perm = rng.permutation(6)
    w = rng.normal(size=(3, 4))
    h = rng.normal(size=(6, 3))
    # node i of the permuted graph is node perm[i] of the original
    where = np.argsort(perm)
    base, permuted = (
        _conv_features_on(HandTopology(nodes, graph), w, x)
        for graph, x in ((edges, h), ([(where[a], where[b]) for a, b in edges], h[perm])))
    np.testing.assert_allclose(permuted, base[perm], atol=1e-12)


def _conv_features_on(topo: HandTopology, w: np.ndarray, h: np.ndarray) -> np.ndarray:
    """relu(S·h·w) on the graph `topo`, through a one-conv-layer model."""
    m = build_from_spec(ModelSpec("GCN", (w.shape[1],), (8,)), topo, seed=0)
    m.conv_weights[0].value[:] = w
    return conv_features(m, h)


def test_forward_batch_shapes(tiny_topo):
    m = build_from_spec(TOY, tiny_topo, seed=1)
    out = forward_batch(m, np.zeros((7, 6, 3)), np.zeros((7, 22)))
    assert out.data.shape == (7, 16)
    mlp = build_from_spec(ModelSpec("MLP", (), (9,)), tiny_topo, seed=1)
    out = forward_batch(mlp, np.zeros((7, 6, 3)), np.zeros((7, 22)))
    assert out.data.shape == (7, 16)


def test_zero_input_zero_labels_gives_zero_output(tiny_topo):
    # biases start at zero, so an all-zero observation maps to all-zero joints
    for spec in (TOY, ModelSpec("MLP", (), (9, 5))):
        m = build_from_spec(spec, tiny_topo, seed=2)
        out = forward_batch(m, np.zeros((1, 6, 3)), np.zeros((1, 22))).data[0]
        assert out.shape == (16,)
        np.testing.assert_array_equal(out, np.zeros(16))


def test_forward_validation(tiny_topo):
    m = build_from_spec(TOY, tiny_topo, seed=0)
    with pytest.raises(ValueError):
        forward(m, np.zeros((5, 3)), np.zeros(16), np.zeros(6))
    with pytest.raises(ValueError):
        forward(m, np.zeros((6, 3)), np.zeros(15), np.zeros(6))
    with pytest.raises(ValueError):
        forward(m, np.zeros((6, 3)), np.zeros(16), np.full(6, 0.5))
    with pytest.raises(ValueError, match="exactly one bit set"):
        forward(m, np.zeros((6, 3)), np.zeros(16), np.ones(6))


@pytest.mark.parametrize("spec", [BENCH_GCN, ModelSpec("MLP", (), (9,))], ids=["GCN", "MLP"])
@pytest.mark.parametrize("tactile, aux", [
    ((2, 12, 3), (1, 22)),   # as many elements as one 24-node sample: a flat reshape would pass
    ((2, 24, 3), (1, 22)),
    ((1, 24, 3), (2, 22)),
    ((1, 12, 3), (1, 22)),
    ((1, 24, 2), (1, 22)),
    ((1, 24, 3), (1, 21)),
    ((24, 3), (1, 22)),
])
def test_both_forwards_refuse_tactile_that_does_not_match_aux(small_topo, spec, tactile, aux):
    m = build_from_spec(spec, small_topo, seed=0)
    for run in (predict, forward_batch):
        with pytest.raises(ValueError, match=r"inputs must be tactile \[B, 24, 3\] and aux"):
            run(m, np.zeros(tactile), np.zeros(aux))


def test_conv_features_rejects_mlp(tiny_topo):
    mlp = build_from_spec(ModelSpec("MLP", (), (9,)), tiny_topo, seed=0)
    with pytest.raises(ValueError):
        conv_features(mlp, np.zeros((1, 6, 3)))


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_overflow_names_the_layer(tiny_topo, default_topo):
    # the 6-node graph propagates with BLAS, the 384-node hand with the CSR op
    for topo in (tiny_topo, default_topo):
        m = build_from_spec(TOY, topo, seed=0)
        m.conv_weights[1].value[:] = 1e300
        with pytest.raises(NonFiniteError, match="conv layer 1"):
            forward_batch(m, np.full((1, topo.n, 3), 1e10), np.zeros((1, 22)))


# A forward checks each layer once, after its last product or sum.  That is enough because
# a NaN or Inf in a product's input reaches every output of its row, as the tests below show.
NON_FINITE = "non-finite values in tensor data"

@pytest.mark.filterwarnings("ignore:invalid value encountered")
def test_the_blas_in_use_makes_inf_times_zero_nan():
    """A weight row of zeros does not hide an Inf in the input: inf · 0 is NaN."""
    rng = np.random.default_rng(5)
    w = rng.normal(size=(32, 24))
    w[7] = 0.0
    x = rng.normal(size=(3, 40, 32))
    x[1, 5, 7] = np.inf
    for y in (x[1] @ w, (x @ w)[1]):   # a 2-D product and a stacked one
        assert np.isnan(y[5]).all()
        assert np.isfinite(np.delete(y, 5, axis=0)).all()
    # a batch-1 fc input whose taxels are silent takes the one-row product: an Inf is nonzero
    one = np.zeros((1, 4096))
    one[0, [3, 50]] = 1.0, np.inf
    big = rng.normal(size=(4096, 80))
    big[50] = 0.0
    assert np.isnan(matmul(one, big)).all()


def _overflowing(s, x: np.ndarray) -> bool:
    """Whether S·x overflows where x is finite."""
    with np.errstate(over="ignore"):
        return np.isfinite(x).all() and np.isinf(matmul(s, x)).any()


@pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
@pytest.mark.parametrize("topo_name", ["small_topo", "default_topo"])   # BLAS S·H, CSR S·H
def test_an_inf_that_s_h_makes_names_its_conv_layer(request, topo_name):
    """S·H is checked with its ·W: the Inf it makes reaches ·W, whose check names the layer.

    Rows of S sum to more than 1 at some nodes, so S·H overflows near the largest float.
    A tiny next weight keeps every row that S·H left finite finite.
    """
    topo = request.getfixturevalue(topo_name)
    m = build_from_spec(TOY, topo, seed=0)
    top, rows = np.finfo(np.float64).max, propagation_for(topo).sum(axis=1)
    ones = np.ones((1, topo.n, 3))
    # layer 0: S·H of the input overflows
    m.conv_weights[0].value[:] = 1e-10
    assert _overflowing(m.s_tensor, top / 1.01 * ones)
    for call in (lambda: predict(m, top / 1.01 * ones, np.zeros((1, 22))),
                 lambda: forward(m, top / 1.01 * ones[0], np.zeros(16), LABELS)):
        with pytest.raises(NonFiniteError, match=f"^conv layer 0: {NON_FINITE}$"):
            call()
    # layer 1: the layer-0 output, 3w times each row sum of S, is finite, and S times it is not
    w = top / (1.005 * 3 * rows.max())
    m.conv_weights[0].value[:] = w
    m.conv_weights[1].value[:] = 1e-10
    assert _overflowing(m.s_tensor, np.tile(3 * w * rows[:, None], (1, 1, 4)))
    for call in (lambda: predict(m, ones, np.zeros((1, 22))),
                 lambda: forward(m, ones[0], np.zeros(16), LABELS)):
        with pytest.raises(NonFiniteError, match=f"^conv layer 1: {NON_FINITE}$"):
            call()


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.parametrize("layer", [0, 1])
def test_an_fc_product_that_overflows_before_its_bias_names_its_layer(layer, tiny_topo):
    m = build_from_spec(ModelSpec("GCN", (4,), (8, 8)), tiny_topo, seed=0)
    for w in m.fc_weights[:layer]:
        w.value[:] = 1.0
    m.fc_weights[layer].value[:] = 1e300
    aux = np.full((1, 22), 1e10)
    # silent taxels leave the conv features 0, so fc layer 0 sees them and aux, fc layer 1 22e10
    h = np.full((1, 8), 22e10) if layer \
        else np.concatenate([np.zeros((1, 4 * tiny_topo.n)), aux], axis=1)
    with np.errstate(over="ignore"):
        assert np.isfinite(h).all() and np.isinf(h @ m.fc_weights[layer].value).all()
    with pytest.raises(NonFiniteError, match=f"^fc layer {layer}: {NON_FINITE}$"):
        predict(m, np.zeros((1, tiny_topo.n, 3)), aux)


@pytest.mark.parametrize("topo_name", ["small_topo", "default_topo"])
def test_a_forward_makes_one_finite_check_per_layer(request, topo_name, monkeypatch):
    """The toy GCN's two inputs, three conv layers and three fc layers: 8 checks."""
    topo = request.getfixturevalue(topo_name)
    m = build_from_spec(BENCH_GCN, topo, seed=0)
    checks = []
    monkeypatch.setattr(tgl.tensor, "_all_finite",
                        lambda arr, check=tgl.tensor._all_finite: checks.append(1) or check(arr))
    tactile = np.random.default_rng(6).uniform(0.0, 1.0, (2, topo.n, 3))
    forward(m, tactile[0], np.zeros(16), LABELS)
    assert len(checks) == 8
    predict(m, tactile, np.zeros((2, 22)))
    assert len(checks) == 16


def test_propagation_of_a_sample_ignores_its_batch(default_topo):
    m = build_from_spec(TOY, default_topo, seed=0)
    assert m.s_tensor.block is not None
    block = CSR_BLOCK_SAMPLES
    h = np.random.default_rng(3).normal(size=(2 * block + 5, default_topo.n, 14))
    batch = matmul(m.s_tensor, h)
    # first and last of the first two blocks, and the partial block at the end
    for i in (0, block - 1, block, 2 * block - 1, 2 * block, len(h) - 1):
        alone = matmul(m.s_tensor, h[i:i + 1])
        assert np.array_equal(batch[i], alone[0])


def test_propagation_sums_each_row_diagonal_first_then_by_column(default_topo):
    m = build_from_spec(TOY, default_topo, seed=0)
    s = propagation_for(default_topo)
    h = np.random.default_rng(4).normal(size=(3, default_topo.n, 5))
    expect = np.empty_like(h)
    for i in range(default_topo.n):
        acc = s[i, i] * h[:, i]
        for j in np.flatnonzero(s[i]):
            if j != i:
                acc = acc + s[i, j] * h[:, j]
        expect[:, i] = acc
    assert np.array_equal(matmul(m.s_tensor, h), expect)


def test_conv_gradients_on_the_default_hand_match_finite_differences(default_topo):
    """The first conv weight's gradient on the 384-node hand: with one conv layer it comes
    from the sparse S·H, with two it also goes back through conv layer 1's sparse Sᵀ.

    Two conv layers put about 6,000 ReLU inputs behind the first weight; at a step of 1e-5
    some of them cross 0 between the two sides of a central difference, so that case steps
    1e-7.
    """
    rng = np.random.default_rng(8)
    for conv, h in (((4,), 1e-5), ((4, 4), 1e-7)):
        m = build_from_spec(ModelSpec("GCN", conv, (8,)), default_topo, seed=2)
        assert m.s_tensor.block is not None
        tactile = rng.uniform(-1.0, 1.0, (2, default_topo.n, 3))
        aux = rng.uniform(-1.0, 1.0, (2, 22))
        target = rng.uniform(-1.0, 1.0, (2, 16))
        backward(mse_loss(forward_batch(m, tactile, aux), target))

        def loss_value() -> float:
            return float(np.mean((predict(m, tactile, aux) - target) ** 2))

        arr, grad = m.conv_weights[0].value, m.conv_weights[0].grad
        for idx in rng.choice(arr.size, size=6, replace=False):
            orig = arr.flat[idx]
            arr.flat[idx] = orig + h
            up = loss_value()
            arr.flat[idx] = orig - h
            down = loss_value()
            arr.flat[idx] = orig
            fd = (up - down) / (2.0 * h)
            assert grad.flat[idx] == pytest.approx(fd, rel=1e-4, abs=1e-9)


@pytest.mark.parametrize("spec, hand", [(BENCH_GCN, "small_topo"), (BENCH_GCN, "default_topo"),
                                        (ModelSpec("MLP", (), (300, 50)), "default_topo")])
def test_predict_is_forward_batch_bit_for_bit(spec, hand, request):
    topo = request.getfixturevalue(hand)
    m = build_from_spec(spec, topo, seed=4)
    rng = np.random.default_rng(9)
    for batch in (1, 7, 100):
        touched = rng.uniform(-1.0, 1.0, (batch, topo.n, 3))
        silent = np.where(rng.random((batch, topo.n, 1)) < 0.02, touched, 0.0)
        aux = np.concatenate([rng.uniform(-1.0, 1.0, (batch, 16)),
                              np.tile(encode_labels(True, False, True), (batch, 1))], axis=1)
        for tactile in (touched, silent, np.zeros_like(touched)):
            got, want = predict(m, tactile, aux), forward_batch(m, tactile, aux).data
            assert got.shape == want.shape == (batch, OUTPUT_DIM)
            assert got.tobytes() == want.tobytes()


LABELS = encode_labels(heavy=False, soft=True, slippery=False)


def _trial(topo, rng, frames: int = 20) -> Trial:
    return Trial("obj", np.arange(frames), rng.uniform(-1.0, 1.0, (frames, 16)),
                 rng.uniform(-1.0, 1.0, (frames, topo.n, 3)), LABELS)


@pytest.mark.parametrize("layer, stage", [("conv1", "conv layer 1"), ("fc0", "fc layer 0"),
                                          ("fc1", "output layer")])
def test_a_nan_weight_names_its_layer_off_the_tape(layer, stage, tiny_topo):
    m = build_from_spec(TOY, tiny_topo, seed=0)
    weights = {p.name: p for p in m.parameters()}
    weights[layer if layer.startswith("conv") else f"{layer}.weight"].value[:] = np.nan
    pairs = PairSet([_trial(tiny_topo, np.random.default_rng(1))])
    calls = [lambda: forward(m, pairs.tactile[0], pairs.joints[0], LABELS),
             lambda: mean_loss(m, pairs, batch_size=4)]
    if layer.startswith("conv"):
        calls.append(lambda: conv_features(m, pairs.tactile))
    for call in calls:
        with pytest.raises(NonFiniteError, match=f"^{stage}: non-finite values in tensor data$"):
            call()


def test_inference_builds_no_tensor(small_topo, monkeypatch):
    m = build_from_spec(BENCH_GCN, small_topo, seed=0)
    trial = _trial(small_topo, np.random.default_rng(2), frames=30)
    pairs = PairSet([trial])
    plant = make_plant(small_topo, make_object(heavy=False, soft=True, slippery=False),
                       PlantConfig())

    def no_tensor(*args, **kwargs):
        raise AssertionError("inference built a Tensor")

    monkeypatch.setattr(Tensor, "__init__", no_tensor)
    forward(m, pairs.tactile[0], pairs.joints[0], LABELS)
    mean_loss(m, pairs, batch_size=7)
    extract_node_features(m, small_topo, [trial, trial], (5, 25))
    rollout(m, plant, RolloutConfig(max_steps=15, labels=LABELS), seed=0)


def test_checkpoint_round_trip_bitwise(tmp_path, tiny_topo, default_topo):
    for topo in (tiny_topo, default_topo):
        m = build_from_spec(TOY, topo, seed=6)
        for i, p in enumerate(m.parameters()):
            p.adam_m[:] = np.float64(i) + 0.125
            p.adam_v[:] = np.float64(i) * 2.0 + 0.25
            p.step_count = 10 + i
        path = tmp_path / f"model{topo.n}.ckpt.json"
        save_checkpoint(m, str(path), extra={"epoch": 7, "note": "x"})
        assert (tmp_path / f"model{topo.n}.ckpt.bin").exists()
        loaded, extra = load_checkpoint(str(path), topo)
        assert extra == {"epoch": 7, "note": "x"}
        assert loaded.spec == m.spec
        for a, b in zip(m.parameters(), loaded.parameters(), strict=True):
            assert a.name == b.name
            np.testing.assert_array_equal(a.value, b.value)
            np.testing.assert_array_equal(a.adam_m, b.adam_m)
            np.testing.assert_array_equal(a.adam_v, b.adam_v)
            assert a.step_count == b.step_count


# sha256 of the manifest and the blob of an untrained toy GCN on the 24-node hand, seed 0.
# Its weights come from numpy's seeded uniform draws and a scalar sqrt, with no BLAS, so
# these hold on any machine with this numpy.  A change of the checkpoint layout changes
# them, and then CHECKPOINT_FORMAT_VERSION changes with them.
GOLDEN_CHECKPOINT = {
    "toy.ckpt.json": "fb68fb96f6b9003c9a5e804090a95f54c09943b9267143ab314ac3a6e779209e",
    "toy.ckpt.bin": "ccb3bc917d2534f227caac670e57038ee6d6d6ac033775f091377a7e2e3b7ef8",
}


def test_checkpoint_format_is_pinned(tmp_path, small_topo):
    assert tgl.models.CHECKPOINT_FORMAT_VERSION == 2
    save_checkpoint(build_from_spec(BENCH_GCN, small_topo, seed=0), str(tmp_path / "toy.ckpt.json"))
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
           for name in GOLDEN_CHECKPOINT}
    assert got == GOLDEN_CHECKPOINT


def test_values_and_moments_are_views_of_one_buffer_laid_out_as_the_blob(tmp_path, tiny_topo):
    built = build_from_spec(TOY, tiny_topo, seed=0)
    path = tmp_path / "m.ckpt.json"
    save_checkpoint(built, str(path))
    loaded, _ = load_checkpoint(str(path), tiny_topo)
    assert (tmp_path / "m.ckpt.bin").read_bytes() == built.buffer.tobytes()
    for model in (built, loaded):
        offset = 0   # elements: every parameter's value, adam_m, adam_v, end to end
        for p in model.parameters():
            for arr in (p.value, p.adam_m, p.adam_v):
                assert np.shares_memory(arr, model.buffer)
                assert arr.ctypes.data == model.buffer.ctypes.data + offset * 8
                offset += arr.size
        assert offset == model.buffer.size == 3 * model.parameter_count()


def test_load_holds_little_more_than_the_blob(tmp_path, default_topo):
    """The blob is three float64 copies of the parameters (value, adam_m,
    adam_v); loading reads it once and copies nothing."""
    m = build_from_spec(ModelSpec("GCN", (14, 28, 56), (120, 50)), default_topo, seed=0)
    path = str(tmp_path / "m.ckpt.json")
    save_checkpoint(m, path)
    param_bytes = 8 * m.parameter_count()
    del m
    gc.collect()
    tracemalloc.start()
    try:
        loaded, _ = load_checkpoint(path, default_topo)
        gc.collect()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert 8 * loaded.parameter_count() == param_bytes
    assert held <= 3.25 * param_bytes
    assert peak <= 3.5 * param_bytes


def _trained_checkpoint(path, topo, spec=TOY):
    """A checkpoint whose values, moments and step counts all differ from a fresh model's."""
    m = build_from_spec(spec, topo, seed=3)
    for i, p in enumerate(m.parameters()):
        p.value += 0.5 + i
        p.adam_m[:] = i + 0.125
        p.adam_v[:] = 2.0 * i + 0.25
        p.step_count = 4 + i
    save_checkpoint(m, str(path), extra={"epoch": 4})
    return m


@pytest.mark.parametrize("spec", [TOY, ModelSpec("MLP", (), (9,))])
def test_weights_are_the_full_models_values_bit_for_bit(tmp_path, tiny_topo, default_topo, spec):
    for topo in (tiny_topo, default_topo):
        path = tmp_path / f"m{topo.n}.ckpt.json"
        _trained_checkpoint(path, topo, spec)
        man = read_manifest(str(path), topo)
        full, weights = man.model(), man.weights()
        for a, b in zip(full.parameters(), weights.parameters(), strict=True):
            assert (a.name, a.step_count) == (b.name, b.step_count)
            assert a.value.tobytes() == b.value.tobytes()
            assert not b.adam_m.any() and not b.adam_v.any()
        assert load_checkpoint(str(path), topo, weights_only=True)[0].buffer.tobytes() \
            == weights.buffer.tobytes()
        rng = np.random.default_rng(topo.n)
        tactile, aux = rng.normal(size=(5, topo.n, 3)), rng.normal(size=(5, 22))
        assert predict(full, tactile, aux).tobytes() == predict(weights, tactile, aux).tobytes()


def test_an_adam_step_on_the_weights_raises_and_changes_nothing(tmp_path, tiny_topo):
    path = tmp_path / "m.ckpt.json"
    _trained_checkpoint(path, tiny_topo)
    weights = read_manifest(str(path), tiny_topo).weights()
    assert not weights.buffer.flags.writeable
    before = weights.buffer.tobytes()
    for p in weights.parameters():
        p.grad = np.ones(p.shape)
    with pytest.raises(ValueError, match="read-only"):
        adam_step(weights.parameters(), AdamConfig(learning_rate=1e-3))
    assert weights.buffer.tobytes() == before
    assert [p.step_count for p in weights.parameters()] == [4, 5, 6, 7, 8, 9]


def test_a_nan_in_a_value_run_raises_when_the_weights_load(tmp_path, tiny_topo):
    path = tmp_path / "m.ckpt.json"
    m = _trained_checkpoint(path, tiny_topo)
    p = m.parameters()[2]   # fc0.weight
    p.value[1, 2] = np.nan
    save_checkpoint(m, str(path))
    with pytest.raises(NonFiniteError):
        read_manifest(str(path), tiny_topo).weights()


def test_a_blob_cut_short_after_its_manifest_is_read_names_the_blob(tmp_path, tiny_topo):
    path = tmp_path / "m.ckpt.json"
    _trained_checkpoint(path, tiny_topo)
    man = read_manifest(str(path), tiny_topo)
    blob = tmp_path / "m.ckpt.bin"
    name, _, offset = parameter_layout(TOY, tiny_topo.n)[0][-1]   # the output bias
    with open(blob, "r+b") as f:
        f.truncate(8 * offset + 8)   # one of its values
    with pytest.raises(ValueError, match=f"{blob}.*{name}"):
        man.weights()


# Prints the RSS a weights-only load of the 384-node toy GCN and a batch-1 predict add, once
# a warm-up load and predict have imported scipy and filled the heap, over the value bytes.
_WEIGHTS_RSS = """
import gc, os, sys
import numpy as np
from tgl.models import predict, read_manifest

def rss():
    with open("/proc/self/statm") as f:
        return int(f.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")

man = read_manifest(sys.argv[1])
inputs = np.zeros((1, man.topology.n, 3)), np.zeros((1, 22))
predict(man.weights(), *inputs)
gc.collect()
before = rss()
m = man.weights()
predict(m, *inputs)
print((rss() - before) / (8 * m.parameter_count()))
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/statm"), reason="reads RSS from /proc")
def test_a_weights_load_and_predict_hold_about_the_value_bytes(tmp_path, default_topo):
    """A full load holds 3x the value bytes (see above); the weights alone, about 1x."""
    path = tmp_path / "m.ckpt.json"
    save_checkpoint(build_from_spec(BENCH_GCN, default_topo, seed=0), str(path))
    src = os.path.dirname(os.path.dirname(tgl.__file__))
    done = subprocess.run([sys.executable, "-c", _WEIGHTS_RSS, str(path)],
                          env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
                          timeout=120, check=True)
    assert float(done.stdout) <= 1.2


def test_checkpoint_topology_mismatch(tmp_path, tiny_topo, small_topo):
    m = build_from_spec(TOY, tiny_topo, seed=0)
    path = tmp_path / "m.ckpt.json"
    save_checkpoint(m, str(path))
    with pytest.raises(ValueError, match="'topology'"):
        load_checkpoint(str(path), small_topo)


def test_checkpoint_graph_is_the_one_it_was_trained_on(tmp_path, small_topo):
    m = build_from_spec(TOY, small_topo, seed=0)
    path = tmp_path / "m.ckpt.json"
    save_checkpoint(m, str(path))
    # without a graph, the manifest's is rebuilt; a graph given is used as it is
    alone, _ = load_checkpoint(str(path))
    assert (alone.topology.nodes, alone.topology.edges) == (small_topo.nodes, small_topo.edges)
    assert load_checkpoint(str(path), small_topo)[0].topology is small_topo
    # the same 24 nodes, less the first edge, are another graph
    other = HandTopology(small_topo.nodes, small_topo.edges[1:])
    with pytest.raises(ValueError, match="'topology'"):
        load_checkpoint(str(path), other)


def test_build_model_on_small_hand(small_topo):
    m = build_from_spec(model_spec("III"), small_topo, seed=0)
    assert m.spec is model_spec("III")
    assert [w.value.shape for w in m.conv_weights] == [(3, 14), (14, 28), (28, 56)]
    assert m.fc_weights[0].value.shape == (24 * 56 + 22, 8000)
    out = forward(m, np.zeros((24, 3)), np.zeros(16), tgl.encode_labels(False, False, False))
    assert out.shape == (16,)
