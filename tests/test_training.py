"""Training loop: convergence, determinism, checkpointing, resume."""
from __future__ import annotations

import json
import os

import numpy as np
import pytest

import tgl
from tgl.dataset import Dataset, PairSet, preprocess, split
from tgl.models import load_checkpoint
from tgl.plant import PlantConfig, generate_trial, make_object, make_plant
from tgl.tensor import NonFiniteError
from tgl.training import TrainConfig, evaluate, fit_pairs, train

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
              resume_from=str(b / "final.ckpt.json"))
    assert r.start_epoch == 5
    full, _ = load_checkpoint(str(a / "final.ckpt.json"), topo)
    resumed, extra = load_checkpoint(str(c / "final.ckpt.json"), topo)
    assert extra["epoch"] == 10
    for x, y in zip(full.parameters(), resumed.parameters()):
        np.testing.assert_array_equal(x.value.data, y.value.data)
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
          resume_from=str(out / "epoch000002.ckpt.json"))
    assert epochs() == [0, 1, 2, 3]
    with open(out / "metrics.ndjson", "a") as f:
        f.write('{"epoch": 4, "train_lo')  # a line cut off mid-write
    train(ds, cfg(epochs=1), topo, out_dir=str(out), resume_from=str(out / "final.ckpt.json"))
    assert epochs() == [0, 1, 2, 3, 4]


def test_resume_rejects_architecture_mismatch(world, tmp_path):
    topo, ds = world
    out = tmp_path / "run"
    train(ds, cfg(epochs=2), topo, out_dir=str(out))
    other = cfg(epochs=2, spec=tgl.ModelSpec("GCN", (5,), (30,)))
    with pytest.raises(ValueError, match="architecture"):
        train(ds, other, topo, resume_from=str(out / "final.ckpt.json"))


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
        TrainConfig(model="VII")
    with pytest.raises(ValueError):
        TrainConfig(checkpoint_every=-1)


def test_named_model_resolution():
    c = TrainConfig(model="IV", epochs=1)
    assert c.resolve_spec().kind == "MLP"
    custom = TrainConfig(spec=SPEC, epochs=1)
    assert custom.resolve_spec() is SPEC


def test_fit_pairs_without_validation_set(world):
    topo, ds = world
    tr, _ = split(ds, seed=7)
    params = tgl.build_from_spec(SPEC, topo, seed=7)
    report = fit_pairs(params, PairSet(tr), None, cfg(epochs=2))
    assert report.val_losses == []
    assert report.best_checkpoint is None
