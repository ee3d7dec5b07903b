"""Training loop: convergence, determinism, checkpointing, resume."""
from __future__ import annotations

import json
import math
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import tgl
from tgl.dataset import Dataset, PairSet, preprocess, split
from tgl.models import load_checkpoint
from tgl.plant import PlantConfig, generate_object_trial, generate_trial, make_object, \
    make_plant, object_catalog
from tgl.tensor import NonFiniteError
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
    ("epoch", -1, "has no integer 'epoch' >= 0"),
    ("train_seed", True, "has no integer 'train_seed' >= 0"),
    ("target_length", None, "has no integer 'target_length' >= 11"),
    ("batch_size", 2.0, "has no integer 'batch_size' >= 1"),
    ("lr", float("inf"), "'lr': learning_rate must be a finite number > 0"),
    ("lr", "1e-3", "'lr': learning_rate must be a finite number > 0"),
    ("best_val", float("nan"), "has no finite 'best_val' >= 0 or null"),
    ("best_val", -1.0, "has no finite 'best_val' >= 0 or null"),
])
def test_recipe_checks_each_value(key, value, rule):
    """Each recipe value is read from a file: a bad or missing one names the file and key."""
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
