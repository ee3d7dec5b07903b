"""Training loop: convergence, determinism, checkpointing, resume."""
from __future__ import annotations

import json
import math
import os
import re
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

import tgl
from tgl.dataset import HORIZON, Dataset, PairSet, Trial, encode_labels, preprocess, split
from tgl.models import load_checkpoint, save_checkpoint
from tgl.plant import PlantConfig, generate_object_trial, generate_trial, make_object, \
    make_plant, object_catalog
from tgl.tensor import NonFiniteError
from tgl.topology import HandTopology, SensorNode, load_topology, save_topology
from tgl.training import TrainConfig, evaluate, fit_pairs, recipe, resume_point, train

SPEC = tgl.ModelSpec("GCN", (5, 9), (30,))
ADAM = tgl.AdamConfig(learning_rate=1e-3)


@pytest.fixture(scope="module")
def world():
    topo = tgl.build_small_hand()
    plant = make_plant(topo, make_object(False, False, False), PlantConfig())
    trials = [generate_trial(plant, seed=s, length=700) for s in (0, 1, 2)]
    ds = Dataset([preprocess(t) for t in trials], target_length=330)
    return topo, ds


def cfg(**kw) -> TrainConfig:
    base = dict(spec=SPEC, epochs=15, batch_size=100, seed=7, adam=ADAM)
    base.update(kw)
    return TrainConfig(**base)


def test_loss_decreases_and_is_finite(world):
    topo, ds = world
    report = train(ds, cfg(), topo)
    assert report.epochs_run == 15
    assert report.train_losses[-1] < report.train_losses[0] / 5
    assert all(np.isfinite(v) for v in report.train_losses + report.val_losses)


def test_identical_seeds_identical_curves(world):
    topo, ds = world
    a = train(ds, cfg(), topo)
    b = train(ds, cfg(), topo)
    assert a.train_losses == b.train_losses
    assert a.val_losses == b.val_losses
    c = train(ds, cfg(seed=8), topo)
    assert c.train_losses != a.train_losses


def test_outputs_written(world, tmp_path):
    topo, ds = world
    out = tmp_path / "run"
    report = train(ds, cfg(epochs=4, checkpoint_every=2), topo, out_dir=str(out))
    assert report.final_checkpoint == str(out / "final.ckpt.json")
    assert (out / "final.ckpt.bin").exists()
    assert (out / "best.ckpt.json").exists()
    assert (out / "epoch000002.ckpt.json").exists()
    assert (out / "epoch000004.ckpt.json").exists()
    lines = [json.loads(l) for l in (out / "metrics.ndjson").read_text().splitlines()]
    assert [l["epoch"] for l in lines] == [0, 1, 2, 3]
    assert all(set(l) == {"epoch", "train_loss", "val_loss", "seconds"} for l in lines)
    assert [l["train_loss"] for l in lines] == report.train_losses


def test_resume_matches_straight_run(world, tmp_path):
    topo, ds = world
    a = tmp_path / "full"
    b = tmp_path / "half"
    c = tmp_path / "resumed"
    train(ds, cfg(epochs=10), topo, out_dir=str(a))
    train(ds, cfg(epochs=5), topo, out_dir=str(b))
    r = train(ds, cfg(epochs=5), topo, out_dir=str(c),
              resume_from=resume_point(str(b / "final.ckpt.json"), topo))
    assert r.start_epoch == 5
    full, _ = load_checkpoint(str(a / "final.ckpt.json"), topo)
    resumed, extra = load_checkpoint(str(c / "final.ckpt.json"), topo)
    assert extra["epoch"] == 10
    for x, y in zip(full.parameters(), resumed.parameters()):
        np.testing.assert_array_equal(x.value, y.value)
        np.testing.assert_array_equal(x.adam_m, y.adam_m)
        np.testing.assert_array_equal(x.adam_v, y.adam_v)
        assert x.step_count == y.step_count


def test_metrics_hold_one_run(world, tmp_path):
    """A fresh run replaces old metrics; a resume keeps the epochs before its checkpoint."""
    topo, ds = world
    out = tmp_path / "run"

    def epochs():
        return [json.loads(l)["epoch"] for l in (out / "metrics.ndjson").read_text().splitlines()]

    train(ds, cfg(epochs=4, checkpoint_every=2), topo, out_dir=str(out))
    train(ds, cfg(epochs=3, checkpoint_every=2), topo, out_dir=str(out))
    assert epochs() == [0, 1, 2]
    train(ds, cfg(epochs=2), topo, out_dir=str(out),
          resume_from=resume_point(str(out / "epoch000002.ckpt.json"), topo))
    assert epochs() == [0, 1, 2, 3]
    with open(out / "metrics.ndjson", "a") as f:
        f.write('{"epoch": 4, "train_lo')  # a line cut off mid-write
    train(ds, cfg(epochs=1), topo, out_dir=str(out),
          resume_from=resume_point(str(out / "final.ckpt.json"), topo))
    assert epochs() == [0, 1, 2, 3, 4]


def test_resume_keeps_the_best_checkpoint_of_a_straight_run(world, tmp_path):
    """The validation loss rises at epoch 3, so both runs keep epoch 2's model as best."""
    topo, ds = world
    run = cfg(epochs=4, adam=tgl.AdamConfig(learning_rate=0.1))
    straight, resumed = tmp_path / "straight", tmp_path / "resumed"
    report = train(ds, run, topo, out_dir=str(straight))
    assert report.val_losses[2] < report.val_losses[3]
    train(ds, replace(run, epochs=3), topo, out_dir=str(resumed))
    again = train(ds, replace(run, epochs=1), topo, out_dir=str(resumed),
                  resume_from=resume_point(str(resumed / "final.ckpt.json"), topo))
    assert again.best_val == report.best_val
    assert again.best_checkpoint == str(resumed / "best.ckpt.json")
    assert (straight / "best.ckpt.bin").read_bytes() == (resumed / "best.ckpt.bin").read_bytes()
    _, extra_straight = load_checkpoint(str(straight / "best.ckpt.json"), topo)
    _, extra_resumed = load_checkpoint(str(resumed / "best.ckpt.json"), topo)
    assert extra_straight["epoch"] == extra_resumed["epoch"] == 3


def test_a_bare_fit_pairs_run_keeps_its_best_checkpoint_when_it_resumes(world, tmp_path):
    """Called without target_length, fit_pairs records a null one; the best it wrote still
    holds the run's best val loss when the run resumes into its own directory."""
    topo, ds = world
    run = cfg(epochs=3, adam=tgl.AdamConfig(learning_rate=0.1))
    train_set, val_set = split(ds, run.seed)
    params = tgl.build_from_spec(run.spec, topo, run.seed)
    out = tmp_path / "run"
    out.mkdir()
    first = fit_pairs(params, train_set, val_set, run, str(out))
    assert first.best_checkpoint == str(out / "best.ckpt.json")
    best = (out / "best.ckpt.bin").read_bytes()
    again = fit_pairs(params, train_set, val_set, replace(run, epochs=1), str(out),
                      start_epoch=3, best_val=first.best_val)
    assert again.val_losses[0] > again.best_val == first.best_val
    assert again.best_checkpoint == str(out / "best.ckpt.json")
    assert (out / "best.ckpt.bin").read_bytes() == best


def test_resume_drops_a_best_checkpoint_from_a_later_epoch(world, tmp_path):
    """best.ckpt.json of epoch 8 is not the best of the run resumed at epoch 3.

    A straight run's best at epoch 4 is still epoch 3's, so the resumed run
    starts from that val loss, writes no best and leaves none of epoch 8.
    """
    topo, ds = world
    run = cfg(epochs=8, checkpoint_every=1, adam=tgl.AdamConfig(learning_rate=0.1))
    out = tmp_path / "run"
    report = train(ds, run, topo, out_dir=str(out))
    _, extra = load_checkpoint(str(out / "best.ckpt.json"), topo)
    assert extra["epoch"] == 8
    again = train(ds, replace(run, epochs=1), topo, out_dir=str(out),
                  resume_from=resume_point(str(out / "epoch000003.ckpt.json"), topo))
    assert again.best_val == min(report.val_losses[:3]) == pytest.approx(0.23254, abs=5e-6)
    assert again.val_losses[0] > again.best_val
    assert again.best_checkpoint is None
    assert not (out / "best.ckpt.json").exists() and not (out / "best.ckpt.bin").exists()


def test_resume_drops_a_best_checkpoint_whose_blob_is_short(world, tmp_path):
    """Epoch 3's best would be kept, but its blob was cut short: it is not this run's."""
    topo, ds = world
    run = cfg(epochs=4, adam=tgl.AdamConfig(learning_rate=0.1))
    out = tmp_path / "run"
    report = train(ds, replace(run, epochs=3), topo, out_dir=str(out))
    assert report.best_checkpoint == str(out / "best.ckpt.json")
    blob = out / "best.ckpt.bin"
    blob.write_bytes(blob.read_bytes()[:-8])
    again = train(ds, replace(run, epochs=1), topo, out_dir=str(out),
                  resume_from=resume_point(str(out / "final.ckpt.json"), topo))
    assert again.val_losses[0] > again.best_val == report.best_val
    assert again.best_checkpoint is None
    assert not (out / "best.ckpt.json").exists() and not blob.exists()


def test_resume_in_another_directory_keeps_the_best_of_a_straight_run(world, tmp_path):
    """The best val loss so far travels in the checkpoint, not in the run directory."""
    topo, ds = world
    run = cfg(epochs=4, adam=tgl.AdamConfig(learning_rate=0.1))
    straight, first = tmp_path / "straight", tmp_path / "first"
    report = train(ds, run, topo, out_dir=str(straight))
    assert report.val_losses[2] == report.best_val < report.val_losses[3]
    train(ds, replace(run, epochs=3, checkpoint_every=1), topo, out_dir=str(first))
    # resumed before the best epoch, the run writes the straight run's best
    before = train(ds, replace(run, epochs=2), topo, out_dir=str(tmp_path / "before"),
                   resume_from=resume_point(str(first / "epoch000002.ckpt.json"), topo))
    assert before.best_val == report.best_val
    for name in ("best.ckpt.json", "best.ckpt.bin"):
        assert (tmp_path / "before" / name).read_bytes() == (straight / name).read_bytes()
    # resumed after it, the run beats no val loss and writes no best
    after = train(ds, replace(run, epochs=1), topo, out_dir=str(tmp_path / "after"),
                  resume_from=resume_point(str(first / "final.ckpt.json"), topo))
    assert after.best_val == report.best_val and after.best_checkpoint is None
    assert sorted(os.listdir(tmp_path / "after")) == ["final.ckpt.bin", "final.ckpt.json",
                                                      "metrics.ndjson"]


def test_checkpoints_record_the_recipe(world, tmp_path):
    topo, ds = world
    out = tmp_path / "run"
    report = train(ds, cfg(epochs=2, batch_size=64), topo, out_dir=str(out))
    _, extra = load_checkpoint(str(out / "final.ckpt.json"), topo)
    assert extra == {"epoch": 2, "model": "custom", "train_seed": 7, "target_length": 330,
                     "batch_size": 64, "lr": 1e-3, "best_val": report.best_val}
    assert recipe("x", extra) == extra


@pytest.mark.parametrize("key, value, rule", [
    ("epoch", -1, "epoch must be >= 0, got -1"),
    ("train_seed", -1, "seed must be >= 0, got -1"),
    ("train_seed", True, "seed must be an integer, got True"),
    ("target_length", 10, "target_length must be >= 11, got 10"),
    ("target_length", None, "target_length must be an integer, got None"),
    ("batch_size", 2.0, "batch_size must be an integer, got 2.0"),
    ("lr", float("inf"), "learning_rate must be a finite number > 0, got inf"),
    ("lr", "1e-3", "learning_rate must be a finite number > 0, got '1e-3'"),
    ("best_val", float("nan"), "best_val must be a finite number >= 0, got nan"),
    ("best_val", -1.0, "best_val must be a finite number >= 0, got -1.0"),
])
def test_recipe_checks_each_value(key, value, rule):
    """Each recipe value is read from a file: a bad one names the file and the rule of the type
    that owns it (TrainConfig's seed for train_seed), a missing one the file and the key."""
    extra = {"epoch": 3, "train_seed": 0, "target_length": 330, "batch_size": 100,
             "lr": 1e-3, "best_val": None}
    assert recipe("c.ckpt.json", extra)["best_val"] == math.inf
    with pytest.raises(ValueError, match=re.escape(f"checkpoint c.ckpt.json: extra {rule}")):
        recipe("c.ckpt.json", extra | {key: value})
    del extra[key]
    with pytest.raises(ValueError, match=f"checkpoint c.ckpt.json: extra .*'{key}'"):
        recipe("c.ckpt.json", extra)


def test_evaluate_matches_reported_val_loss(world, tmp_path):
    topo, ds = world
    out = tmp_path / "run"
    report = train(ds, cfg(epochs=3), topo, out_dir=str(out))
    _, val_pairs = split(ds, seed=7)
    got = evaluate(str(out / "final.ckpt.json"), val_pairs, topo)
    assert got == pytest.approx(report.val_losses[-1], rel=1e-12)


def test_evaluate_is_read_only(world, tmp_path):
    topo, ds = world
    out = tmp_path / "run"
    train(ds, cfg(epochs=2), topo, out_dir=str(out))
    path = str(out / "final.ckpt.json")
    blob = open(out / "final.ckpt.bin", "rb").read()
    _, val_pairs = split(ds, seed=7)
    evaluate(path, val_pairs, topo)
    assert open(out / "final.ckpt.bin", "rb").read() == blob


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_divergence_reports_epoch_and_batch(world):
    topo, ds = world
    bad = cfg(epochs=5, adam=tgl.AdamConfig(learning_rate=1e150))
    with pytest.raises(NonFiniteError, match=r"epoch \d+, batch \d+"):
        train(ds, bad, topo)


def test_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(epochs=0)
    with pytest.raises(ValueError):
        TrainConfig(batch_size=0)
    with pytest.raises(ValueError):
        TrainConfig(checkpoint_every=-1)


def test_config_and_model_refuse_a_seed_or_count_a_checkpoint_cannot_record(tiny_topo):
    for kw, message in (({"seed": True}, "seed must be an integer, got True"),
                        ({"seed": -1}, "seed must be >= 0, got -1"),
                        ({"batch_size": True}, "batch_size must be an integer, got True"),
                        ({"epochs": 2.0}, "epochs must be an integer, got 2.0"),
                        ({"checkpoint_every": np.int64(1)},
                         "checkpoint_every must be an integer, got np.int64(1)")):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            TrainConfig(**kw)
    for seed in (True, 1.0, np.int64(1)):
        message = f"model seed must be an integer, got {seed!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            tgl.build_from_spec(SPEC, tiny_topo, seed)


def test_fit_pairs_creates_its_run_directory(world, tmp_path):
    topo, ds = world
    train_set, val_set = split(ds, 7)
    out = tmp_path / "a" / "b"
    report = fit_pairs(tgl.build_from_spec(SPEC, topo, 7), train_set, val_set, cfg(epochs=1),
                       str(out))
    assert report.final_checkpoint == str(out / "final.ckpt.json")
    assert (out / "final.ckpt.json").exists() and (out / "metrics.ndjson").exists()


def test_fit_pairs_without_validation_set(world):
    topo, ds = world
    tr, _ = split(ds, seed=7)
    params = tgl.build_from_spec(SPEC, topo, seed=7)
    report = fit_pairs(params, tr, None, cfg(epochs=2))
    assert report.val_losses == []
    assert report.best_checkpoint is None


def test_default_hand_trains_and_repeats_bitwise(default_topo):
    """The 384-node hand, whose propagation runs on the sparse CSR op."""
    pcfg = PlantConfig()
    trial = generate_object_trial(default_topo, object_catalog(pcfg)[0], 0, 0, seed=4,
                                  length=700, cfg=pcfg)
    pairs = PairSet([preprocess(trial, target_length=210)])
    assert len(pairs) == 200
    spec = tgl.ModelSpec("GCN", (14, 28, 56), (120, 50))
    runs = []
    for _ in range(2):
        params = tgl.build_from_spec(spec, default_topo, seed=0)
        report = fit_pairs(params, pairs, None, cfg(spec=spec, epochs=3))
        runs.append((params, report.train_losses))
    (a, losses_a), (b, losses_b) = runs
    assert losses_a[-1] < losses_a[0]
    assert losses_a == losses_b
    for pa, pb in zip(a.parameters(), b.parameters()):
        assert np.array_equal(pa.value, pb.value)
        assert np.array_equal(pa.adam_m, pb.adam_m)
        assert np.array_equal(pa.adam_v, pb.adam_v)


def test_default_hand_resume_matches_straight_run(default_topo, tmp_path):
    """Backward through the CSR op on the 384-node hand, across a checkpoint."""
    pcfg = PlantConfig()
    objects = object_catalog(pcfg)
    trials = [generate_object_trial(default_topo, objects[i], i, 0, seed=5, length=300, cfg=pcfg)
              for i in range(3)]
    ds = Dataset([preprocess(t, target_length=110) for t in trials], target_length=110)
    run = cfg(spec=tgl.ModelSpec("GCN", (14, 28), (30,)), epochs=2, batch_size=64)
    a, b, c = tmp_path / "straight", tmp_path / "first", tmp_path / "resumed"
    straight = train(ds, run, default_topo, out_dir=str(a))
    first = train(ds, replace(run, epochs=1), default_topo, out_dir=str(b))
    resumed = train(ds, replace(run, epochs=1), default_topo, out_dir=str(c),
                    resume_from=resume_point(str(b / "final.ckpt.json"), default_topo))
    assert first.train_losses + resumed.train_losses == straight.train_losses
    assert first.val_losses + resumed.val_losses == straight.val_losses
    for name in ("final.ckpt.json", "final.ckpt.bin"):
        assert (a / name).read_bytes() == (c / name).read_bytes()


def test_small_hand_never_loads_scipy(tmp_path):
    """Only a sparse propagation operator imports scipy.sparse; the 24-node hand's is dense."""
    script = """
import sys
import tgl
from tgl.dataset import PairSet, preprocess
from tgl.plant import object_catalog, generate_object_trial
from tgl.training import TrainConfig, fit_pairs
topo = tgl.build_small_hand()
trial = generate_object_trial(topo, object_catalog()[0], 0, 0, seed=1, length=200)
pairs = PairSet([preprocess(trial, target_length=60)])
spec = tgl.ModelSpec("GCN", (4,), (8,))
params = tgl.build_from_spec(spec, topo, seed=0)
fit_pairs(params, pairs, None, TrainConfig(spec=spec, epochs=1, batch_size=16))
print("scipy.sparse" in sys.modules)
"""
    src = str(Path(tgl.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    out = subprocess.run([sys.executable, "-c", script], env=env, cwd=tmp_path,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


# how an integer field may arrive: as an int, a bool, a float or a numpy integer
_KINDS = (int, bool, float, np.int64, np.int32)
GCN_4_8 = tgl.ModelSpec("GCN", (4,), (8,))


@st.composite
def _given_as(draw, bases: list[int]) -> list:
    """`bases`, with none, one or two of them passed through one of _KINDS."""
    values = list(bases)
    for at in draw(st.lists(st.integers(0, len(values) - 1), max_size=2, unique=True)):
        values[at] = draw(st.sampled_from(_KINDS))(values[at])
    return values


@st.composite
def _graph_parts(draw):
    """Nodes and edges of a graph of 1 to 4 nodes, its integer fields drawn by `_given_as`."""
    n = draw(st.integers(1, 4))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    places = draw(st.lists(st.integers(0, 3), min_size=2 * n, max_size=2 * n))
    v = draw(_given_as([*range(n), *places, *(i for pair in chosen for i in pair)]))
    nodes = [SensorNode(v[i], "palm", "palm", v[n + 2 * i], v[n + 2 * i + 1]) for i in range(n)]
    return nodes, list(zip(v[3 * n::2], v[3 * n + 1::2]))


# a recipe's batch_size, epochs, checkpoint_every and seed
_RECIPE = st.tuples(st.integers(1, 3), st.integers(1, 2), st.integers(0, 1),
                    st.integers(-1, 3)).flatmap(lambda bases: _given_as(list(bases)))
_MODEL_SEED = st.integers(0, 3).flatmap(lambda base: _given_as([base])).map(lambda v: v[0])


@given(parts=_graph_parts(), counts=_RECIPE, model_seed=_MODEL_SEED)
def test_what_a_type_accepts_its_files_hold(parts, counts, model_seed):
    """A graph, a training config and a model seed are each refused by name when built, or
    else the files written from them load back: the graph equal, the checkpoint accepted."""
    least = {"batch_size": 1, "epochs": 1, "checkpoint_every": 0, "seed": 0}
    fields = dict(zip(least, counts))
    bad = [name for name, v in fields.items() if type(v) is not int or v < least[name]]
    run = None
    if bad:
        with pytest.raises(ValueError, match=f"^{bad[0]} must be "):
            TrainConfig(spec=GCN_4_8, adam=ADAM, **fields)
    else:
        run = TrainConfig(spec=GCN_4_8, adam=ADAM, **fields)

    nodes, edges = parts
    integers = [v for nd in nodes for v in (nd.id, nd.row, nd.col)] + [v for e in edges for v in e]
    if not all(type(v) is int or isinstance(v, np.integer) for v in integers):
        with pytest.raises(ValueError, match=r"^(node \d+ (id|row|col)|edge \d+ endpoint) "
                                             r"must be an integer, got "):
            HandTopology(nodes, edges)
        return
    topo = HandTopology(nodes, edges)
    with tempfile.TemporaryDirectory() as tmp:
        save_topology(topo, os.path.join(tmp, "hand.json"))
        assert load_topology(os.path.join(tmp, "hand.json")) == topo
        save_checkpoint(tgl.build_from_spec(GCN_4_8, topo, 0), os.path.join(tmp, "m.ckpt.json"))
        assert load_checkpoint(os.path.join(tmp, "m.ckpt.json"))[0].topology == topo

        if type(model_seed) is not int:
            with pytest.raises(ValueError, match="^model seed must be an integer, got "):
                tgl.build_from_spec(GCN_4_8, topo, model_seed)
            return
        params = tgl.build_from_spec(GCN_4_8, topo, model_seed)
        if run is None:
            return
        frames = HORIZON + 3
        trial = Trial("t", np.arange(frames), np.linspace(0, 1, frames * 16).reshape(frames, 16),
                      np.ones((frames, topo.n, 3)), encode_labels(False, False, False))
        pairs = PairSet([trial])
        final = fit_pairs(params, pairs, pairs, run, os.path.join(tmp, "run"),
                          target_length=frames).final_checkpoint
        man = resume_point(final, topo)
        loaded, extra = load_checkpoint(final)
        assert man.seed == loaded.seed == model_seed
        assert man.extra["train_seed"] == extra["train_seed"] == run.seed
        assert man.extra["batch_size"] == run.batch_size and loaded.topology == topo
