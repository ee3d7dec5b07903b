"""Command-line pipeline: subcommands, exit codes, manifests, reproducibility."""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import re
import shlex
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

import tgl
from tgl.cli import OPTIONS, build_parser, main
from tgl.dataset import read_trial_csv, write_trial_csv
from tgl.models import load_checkpoint
from tgl.plant import generate_dataset_trials, object_catalog, trial_name
from tgl.topology import HandTopology, build_small_hand, load_topology, save_topology

GEN = ["gen-data", "--topology", "small", "--objects", "2", "--trials-per", "2",
       "--seed", "5", "--length", "700"]
TRAIN = ["train", "--topology", "small", "--conv", "5,9", "--fc", "30",
         "--epochs", "12", "--lr", "1e-3", "--seed", "3"]


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One gen-data + train chain reused by the read-only subcommand tests."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "data"
    run = root / "run"
    assert main(GEN + ["--out", str(data)]) == 0
    assert main(TRAIN + ["--data", str(data), "--out", str(run)]) == 0
    return root, data, run


@pytest.fixture
def bad_data(tmp_path):
    """A --data directory whose one CSV is malformed: a command that reads it fails there."""
    data = tmp_path / "bad_data"
    data.mkdir()
    (data / "bad.csv").write_text("not,a,trial\n")
    return data


def test_topology_writes_canonical_files(tmp_path):
    assert main(["topology", "--small", "--out", str(tmp_path)]) == 0
    small = load_topology(str(tmp_path / "small_hand_24.json"))
    assert small.n == 24
    assert main(["topology", "--out", str(tmp_path)]) == 0
    full = load_topology(str(tmp_path / "allegro_uskin_384.json"))
    assert full.n == 384


def test_gen_data_outputs_and_manifest(pipeline):
    _, data, _ = pipeline
    csvs = sorted(p for p in os.listdir(data) if p.endswith(".csv"))
    assert len(csvs) == 4
    manifest = json.loads((data / "manifest.json").read_text())
    assert manifest["command"] == "gen-data"
    assert manifest["config"]["seed"] == 5
    assert sorted(manifest["outputs"]) == csvs
    assert all(len(h) == 64 for h in manifest["outputs"].values())


def test_gen_data_reproducible(pipeline, tmp_path):
    _, data, _ = pipeline
    assert main(GEN + ["--out", str(tmp_path)]) == 0
    # identical manifests, identical bytes
    assert (tmp_path / "manifest.json").read_text() == (data / "manifest.json").read_text()
    for name in json.loads((data / "manifest.json").read_text())["outputs"]:
        assert (tmp_path / name).read_bytes() == (data / name).read_bytes()


def test_gen_data_manifest_config_reruns_the_run(tmp_path):
    first, second = tmp_path / "first", tmp_path / "second"
    assert main(["gen-data", "--topology", "small", "--objects", "2", "--trials-per", "1",
                 "--length", "100", "--seed", "2", "--noise", "0.05", "--out", str(first)]) == 0
    config = tmp_path / "config.json"
    config.write_text(json.dumps(json.loads((first / "manifest.json").read_text())["config"]))
    assert main(["gen-data", "--config", str(config), "--out", str(second)]) == 0
    assert sorted(os.listdir(first)) == sorted(os.listdir(second))
    for name in os.listdir(first):
        assert (first / name).read_bytes() == (second / name).read_bytes(), name


def test_gen_data_noise_from_flag_then_config_then_default(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"noise": 0.2}))
    base = ["gen-data", "--topology", "small", "--objects", "1", "--trials-per", "1",
            "--length", "100", "--seed", "4"]
    trials = {}
    for extra, noise in (([], 0.0), (["--config", str(config)], 0.2),
                         (["--config", str(config), "--noise", "0.3"], 0.3)):
        out = tmp_path / f"noise{noise}"
        assert main(base + extra + ["--out", str(out)]) == 0
        assert json.loads((out / "manifest.json").read_text())["config"]["noise"] == noise
        trials[noise] = read_trial_csv(str(next(out.glob("*.csv"))))
    # the noise drawn scales with the resolved std, from one seeded draw
    clean = trials[0.0].tactile
    touched = clean != 0
    ratio = (trials[0.3].tactile - clean)[touched] / (trials[0.2].tactile - clean)[touched]
    np.testing.assert_allclose(ratio, 1.5)


def test_gen_data_matches_generate_dataset_trials(tmp_path):
    """Each gen-data job writes exactly the trial the library generator draws."""
    out = tmp_path / "data"
    assert main(["gen-data", "--topology", "small", "--objects", "2", "--trials-per", "2",
                 "--seed", "5", "--length", "200", "--out", str(out)]) == 0
    trials = list(generate_dataset_trials(build_small_hand(), object_catalog()[:2], 2,
                                          seed=5, length=200))
    assert sorted(p for p in os.listdir(out) if p.endswith(".csv")) == \
        sorted(f"{t.object_name}.csv" for t in trials)
    for trial in trials:
        ref = tmp_path / "ref.csv"
        write_trial_csv(trial, str(ref))
        assert (out / f"{trial.object_name}.csv").read_bytes() == ref.read_bytes()


def test_gen_data_validation_exit_1(pipeline, tmp_path, capsys):
    assert main(["gen-data", "--out", str(tmp_path), "--objects", "0"]) == 1
    assert main(["gen-data", "--out", str(tmp_path), "--objects", "9"]) == 1
    # each names what is wrong and leaves no directory behind
    _, _, run = pipeline
    rollout = ["rollout", "--ckpt", str(run / "final.ckpt.json"), "--object", "light,hard,nonslip"]
    (tmp_path / "noise.json").write_text(json.dumps({"noise": -0.5}))
    gen = ["gen-data", "--topology", "small"]
    for i, (argv, named) in enumerate((
            (["gen-data", "--trials-per", "0"], "--trials-per"),
            (["gen-data", "--length", "10"], "--length"),
            (gen + ["--noise", "-1"], "'sensor_noise'"),
            (gen + ["--noise", "nan"], "'sensor_noise'"),
            (gen + ["--config", str(tmp_path / "noise.json")], "'sensor_noise'"),
            (gen + ["--plant-config", "x"], "--plant-config"),
            (rollout + ["--plant-config", "x"], "--plant-config"),
            (rollout + ["--stride", "0"], "--stride must be >= 1, got 0"),
            (rollout + ["--radius", "-3"], "radius"),
            (rollout + ["--disturb", "5:pull_side:nan"], "magnitude"),
            (["gen-data", "--topology", str(tmp_path / "none.json")],
             str(tmp_path / "none.json")))):
        out = tmp_path / f"bad{i}"
        capsys.readouterr()
        assert main(argv + ["--out", str(out)]) == 1
        assert named in capsys.readouterr().err
        assert not out.exists()


def test_gen_data_refuses_a_length_no_memory_holds(tmp_path, capsys):
    """One trial of 10^11 steps would need hundreds of GiB: exit 1 before --out exists."""
    out = tmp_path / "data"
    argv = ["gen-data", "--topology", "small", "--length", str(10**11), "--out", str(out)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: --length 100000000000 needs about ") and "GiB" in err
    assert not out.exists()


def test_gen_data_refuses_a_directory_holding_other_trials(tmp_path, capsys):
    out = tmp_path / "data"
    first = ["gen-data", "--topology", "small", "--objects", "2", "--trials-per", "2",
             "--seed", "5", "--length", "100", "--out", str(out)]
    assert main(first) == 0
    manifest = (out / "manifest.json").read_bytes()
    assert main(first) == 0                      # the same run again is fine
    assert (out / "manifest.json").read_bytes() == manifest
    capsys.readouterr()
    smaller = ["gen-data", "--topology", "small", "--objects", "1", "--trials-per", "1",
               "--seed", "5", "--length", "100", "--out", str(out)]
    assert main(smaller) == 1
    err = capsys.readouterr().err
    kept = f"{trial_name(object_catalog()[0], 0)}.csv"
    stale = [p for p in os.listdir(out) if p.endswith(".csv") and p != kept]
    assert len(stale) == 3 and all(name in err for name in stale) and kept not in err
    assert (out / "manifest.json").read_bytes() == manifest   # nothing was written


def test_train_outputs(pipeline):
    _, _, run = pipeline
    for name in ("final.ckpt.json", "final.ckpt.bin", "best.ckpt.json",
                 "metrics.ndjson", "manifest.json"):
        assert (run / name).exists()
    manifest = json.loads((run / "manifest.json").read_text())
    assert manifest["command"] == "train"
    assert "metrics.ndjson" not in manifest["outputs"]  # timing lines are not hashed
    lines = (run / "metrics.ndjson").read_text().splitlines()
    assert len(lines) == 12


def test_train_twice_into_one_directory_keeps_one_run(pipeline, tmp_path):
    _, data, _ = pipeline
    out = tmp_path / "run"
    argv = ["train", "--topology", "small", "--conv", "5", "--fc", "8", "--epochs", "2",
            "--lr", "1e-3", "--seed", "0", "--data", str(data), "--out", str(out)]
    assert main(argv) == 0
    assert main(argv) == 0
    lines = (out / "metrics.ndjson").read_text().splitlines()
    assert [json.loads(l)["epoch"] for l in lines] == [0, 1]


def test_a_fresh_train_refuses_an_out_holding_other_checkpoints(pipeline, tmp_path, bad_data,
                                                               capsys):
    """Another run's epoch checkpoints would sit beside this run's best and final."""
    _, data, _ = pipeline
    out = tmp_path / "run"
    first = ["train", "--topology", "small", "--conv", "4", "--fc", "8", "--epochs", "3",
             "--checkpoint-every", "1", "--lr", "1e-3", "--out", str(out)]
    assert main(first + ["--data", str(data)]) == 0
    assert main(first + ["--data", str(data)]) == 0          # its own files are not stray
    written = {p.name: p.read_bytes() for p in out.iterdir()}
    capsys.readouterr()
    second = ["train", "--topology", "small", "--conv", "6", "--fc", "8", "--seed", "5",
              "--epochs", "1", "--lr", "1e-3", "--out", str(out)]
    assert main(second + ["--data", str(bad_data)]) == 1     # refused before any CSV is read
    stray = [f"epoch{e:06d}.ckpt.{ext}" for e in (1, 2, 3) for ext in ("bin", "json")]
    assert capsys.readouterr().err == (
        f"error: {out} holds checkpoint files this run would not write: {', '.join(stray)}; "
        "remove them or choose another --out\n")
    assert {p.name: p.read_bytes() for p in out.iterdir()} == written
    assert main(second[:-2] + ["--checkpoint-every", "1", "--out", str(out),
                               "--data", str(data)]) == 1   # epoch 1 alone is its own
    assert "epoch000002.ckpt.bin, epoch000002.ckpt.json, epoch000003" in capsys.readouterr().err


# main in a process that may map at most 1 GiB, so a run that lists a name per epoch or
# per trial before it starts dies of MemoryError instead of filling this machine's memory
_UNDER_1_GIB = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from tgl.cli import main
sys.exit(main(sys.argv[1:]))
"""


@pytest.mark.parametrize("command", ["train", "gen-data"])
def test_a_run_of_10_to_the_12_checks_its_out_by_rule(tmp_path, bad_data, command):
    """The stray check tests the names in --out; it builds no name per epoch or per trial."""
    huge = "1000000000000"
    out = tmp_path / "out"
    if command == "train":
        argv, named = ["train", "--topology", "small", "--epochs", huge, "--checkpoint-every", "1",
                       "--data", str(bad_data)], bad_data / "bad.csv"
    else:
        out.mkdir()
        (out / "stray.csv").write_text("t\n")
        argv, named = ["gen-data", "--topology", "small", "--trials-per", huge], "stray.csv"
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(tgl.__file__)),
           "OPENBLAS_NUM_THREADS": "1"}
    run = subprocess.run([sys.executable, "-c", _UNDER_1_GIB, *argv, "--out", str(out)],
                         env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 1
    assert run.stderr.startswith("error: ") and str(named) in run.stderr, run.stderr


def test_gen_data_refuses_csvs_no_disk_holds(tmp_path):
    """10^12 trials of each object would fill any disk: one error: line, and no --out.  In a
    child with a timeout, so that a run that starts writing fails here instead of filling it."""
    out = tmp_path / "data"
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(tgl.__file__)),
           "OPENBLAS_NUM_THREADS": "1"}
    run = subprocess.run([sys.executable, "-c", _UNDER_1_GIB, "gen-data", "--topology", "small",
                          "--trials-per", str(10**12), "--out", str(out)],
                         env=env, capture_output=True, text=True, timeout=60)
    lines = run.stderr.splitlines()
    assert run.returncode == 1 and len(lines) == 1, run.stderr
    assert lines[0].startswith(f"error: --out {out}: the trial CSVs need at least ") \
        and "GiB free on " in lines[0]
    assert not out.exists()


def test_resume_skips_metrics_lines_that_hold_no_epoch(pipeline, tmp_path):
    """metrics.ndjson is unhashed telemetry: a malformed line is dropped, not fatal."""
    _, data, _ = pipeline
    out = tmp_path / "run"
    assert main(["train", "--topology", "small", "--conv", "5", "--fc", "8", "--epochs", "2",
                 "--lr", "1e-3", "--data", str(data), "--out", str(out)]) == 0
    with open(out / "metrics.ndjson", "ab") as f:
        f.write(b"[]\n{}\ngarbage\n\xff\n")
    assert main(["train", "--resume", str(out / "final.ckpt.json"), "--data", str(data),
                 "--epochs", "1", "--out", str(out)]) == 0
    lines = (out / "metrics.ndjson").read_text().splitlines()
    assert [json.loads(l)["epoch"] for l in lines] == [0, 1, 2]


@pytest.mark.parametrize("argv, named", [
    pytest.param(["train", "--batch-size", "0"], "--batch-size must be >= 1, got 0",
                 id="argv0-batch_size must be >= 1"),
    (["train", "--conv", "4"], "--conv requires --fc"),
    (["pca", "--ckpt", "none.ckpt.json", "--window", "abc"], "--window must look like"),
    (["pca", "--ckpt", "none.ckpt.json", "--window", "10:5"], "--window needs 0 <= start < stop"),
    (["train", "--model", "VII"], "invalid choice: 'VII'"),
    (["train", "--conv", "abc", "--fc", "8"], "--conv must be comma-separated integers, got 'abc'"),
    (["train", "--conv", "4", "--fc", "8,x"], "--fc must be comma-separated integers, got '8,x'"),
    (["train", "--lr", "inf"], "learning_rate must be a finite number > 0, got inf"),
    (["train", "--target-length", "1"], "--target-length must be >= 11, got 1"),
    (["train", "--target-length", "10"], "--target-length must be >= 11, got 10"),
])
def test_flags_are_checked_before_any_data_is_read(tmp_path, capsys, argv, named):
    data = tmp_path / "data"
    data.mkdir()
    (data / "bad.csv").write_text("not,a,trial\n")
    capsys.readouterr()
    assert main(argv + ["--data", str(data), "--out", str(tmp_path / "out")]) == 1
    assert named in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("flag", ["--max-steps", "--stride"])
def test_rollout_counts_are_checked_before_the_checkpoint_is_read(tmp_path, capsys, flag):
    argv = ["rollout", "--ckpt", str(tmp_path / "none.ckpt.json"), "--object", "light,hard,nonslip"]
    capsys.readouterr()
    assert main(argv + [flag, "0", "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == f"error: {flag} must be >= 1, got 0\n"
    assert not (tmp_path / "out").exists()


# -1 for each int option of these commands, and -1 and nan for each float option
OUT_OF_RANGE = [(command, opt.flag, value) for command in ("gen-data", "train", "rollout")
                for opt in OPTIONS[command] if opt.type in (int, float)
                for value in ("-1", "nan")[:1 + (opt.type is float)]]


@pytest.mark.parametrize("command, flag, value", OUT_OF_RANGE)
def test_each_declared_number_out_of_range_exits_1(pipeline, tmp_path, capsys, command, flag,
                                                   value):
    """Driven by the declaration, so an option added later is swept too."""
    _, data, run = pipeline
    argv = {"gen-data": GEN, "train": TRAIN + ["--data", str(data)],
            "rollout": ["rollout", "--ckpt", str(run / "final.ckpt.json"),
                        "--object", "light,hard,nonslip"]}[command]
    capsys.readouterr()
    assert main(argv + [flag, value, "--out", str(tmp_path / "out")]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), lines
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["gen-data", "train", "rollout"])
def test_a_negative_seed_is_refused_before_any_work(pipeline, tmp_path, bad_data, capsys,
                                                    command):
    _, _, run = pipeline
    argv = {"gen-data": ["gen-data", "--topology", "small"],
            "train": ["train", "--data", str(bad_data)],
            "rollout": ["rollout", "--ckpt", str(run / "final.ckpt.json"),
                        "--object", "light,hard,nonslip"]}[command]
    capsys.readouterr()
    assert main(argv + ["--seed", "-1", "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == "error: --seed must be >= 0, got -1\n"
    assert not (tmp_path / "out").exists()


def test_train_names_a_t_beyond_64_bits(pipeline, tmp_path, capsys):
    _, data, _ = pipeline
    bad = tmp_path / "data"
    shutil.copytree(data, bad)
    path = sorted(bad.glob("*.csv"))[0]
    lines = path.read_text().splitlines(keepends=True)
    big = "99999999999999999999999"
    lines[-1] = big + lines[-1][lines[-1].index(","):]
    path.write_text("".join(lines))
    capsys.readouterr()
    assert main(TRAIN + ["--data", str(bad), "--out", str(tmp_path / "run")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert f"{path}:{len(lines)}: t {big} does not fit in 64 bits" in err


def test_train_missing_data_exit_1(tmp_path):
    empty = tmp_path / "empty"
    empty.mkdir()
    assert main(TRAIN + ["--data", str(empty), "--out", str(tmp_path / "run")]) == 1


@pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
def test_train_divergence_exit_2(pipeline, tmp_path):
    _, data, _ = pipeline
    argv = ["train", "--topology", "small", "--conv", "5", "--fc", "8",
            "--epochs", "3", "--lr", "1e150", "--seed", "0",
            "--data", str(data), "--out", str(tmp_path / "run")]
    with np.errstate(all="ignore"):
        assert main(argv) == 2


def test_config_file_supplies_defaults_flags_win(pipeline, tmp_path):
    _, data, _ = pipeline
    cfg = tmp_path / "train.json"
    cfg.write_text(json.dumps({"epochs": 2, "lr": 1e-3, "topology": "small", "seed": 1}))
    out = tmp_path / "run"
    assert main(["train", "--data", str(data), "--out", str(out), "--conv", "5",
                 "--fc", "8", "--config", str(cfg), "--epochs", "3"]) == 0
    lines = (out / "metrics.ndjson").read_text().splitlines()
    assert len(lines) == 3  # flag beats config
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["seed"] == 1  # config beats default


@pytest.mark.parametrize("command, key, value, expected", [
    ("gen-data", "trials-per", "2", "an integer"),
    ("gen-data", "seed", True, "an integer"),
    ("train", "epochs", 2.5, "an integer"),
    ("train", "lr", "1e-3", "a number"),
    ("train", "seed", False, "an integer"),
])
def test_config_value_of_the_wrong_type_exit_1(pipeline, tmp_path, capsys, command, key,
                                               value, expected):
    _, data, _ = pipeline
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: value}))
    out = tmp_path / "out"
    argv = GEN if command == "gen-data" else TRAIN + ["--data", str(data)]
    at = argv.index(f"--{key}")              # the flag would beat the config value
    argv = argv[:at] + argv[at + 2:]
    capsys.readouterr()
    assert main(argv + ["--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert repr(key) in err and expected in err
    assert not out.exists()


@pytest.mark.parametrize("command, doc, accepted", [
    ("gen-data", {"trials_per": 1, "seed": 2},
     "'length', 'noise', 'objects', 'seed', 'topology', 'trials-per'"),
    ("train", {"epoch": 3}, "'batch-size', 'epochs', 'lr', 'model', 'seed', 'target-length', "
                            "'topology'"),
])
def test_config_unknown_key_exit_1(pipeline, tmp_path, capsys, command, doc, accepted):
    _, data, _ = pipeline
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "out"
    argv = GEN if command == "gen-data" else TRAIN + ["--data", str(data)]
    capsys.readouterr()
    assert main(argv + ["--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    unknown = sorted(set(doc) - {"seed"})
    assert f"unknown keys {unknown}" in err and f"accepted: [{accepted}]" in err
    assert not out.exists()


def test_config_int_stands_for_a_float_unchanged(pipeline, tmp_path):
    """A --config {"lr": 1} trains at 1, and the manifest and the checkpoint record 1, not 1.0."""
    _, data, _ = pipeline
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"lr": 1}))
    at = TRAIN.index("--lr")
    out = tmp_path / "run"
    assert main(TRAIN[:at] + TRAIN[at + 2:] + ["--epochs", "1", "--config", str(cfg),
                                               "--data", str(data), "--out", str(out)]) == 0
    recorded = (json.loads((out / "manifest.json").read_text())["config"]["lr"],
                load_checkpoint(str(out / "final.ckpt.json"))[1]["lr"])
    assert recorded == (1, 1) and [type(lr) for lr in recorded] == [int, int]


def test_eval_writes_json(pipeline, tmp_path):
    _, data, run = pipeline
    out = tmp_path / "eval"
    assert main(["eval", "--ckpt", str(run / "final.ckpt.json"), "--data", str(data),
                 "--out", str(out)]) == 0
    doc = json.loads((out / "eval.json").read_text())
    assert doc["split"] == "val"
    assert doc["pairs"] == 320
    assert np.isfinite(doc["mse"])


def test_eval_splits_by_the_train_seed(pipeline, tmp_path, capsys):
    """The validation side is the one training held out, so eval reports training's best val."""
    _, data, run = pipeline
    base = ["eval", "--data", str(data)]
    assert main(base + ["--ckpt", str(run / "best.ckpt.json"), "--out", str(tmp_path / "e")]) == 0
    assert json.loads((tmp_path / "e" / "manifest.json").read_text())["config"]["seed"] == 3
    best_val = min(json.loads(line)["val_loss"]
                   for line in (run / "metrics.ndjson").read_text().splitlines())
    assert json.loads((tmp_path / "e" / "eval.json").read_text())["mse"] == best_val
    assert main(base + ["--ckpt", str(run / "final.ckpt.json"), "--seed", "3",
                        "--out", str(tmp_path / "flag")]) == 1
    # a checkpoint without a train seed is refused before any data is read
    manifest = json.loads((run / "final.ckpt.json").read_text())
    del manifest["extra"]["train_seed"]
    ckpt = tmp_path / "final.ckpt.json"
    ckpt.write_text(json.dumps(manifest))
    shutil.copy(run / "final.ckpt.bin", tmp_path / "final.ckpt.bin")
    bad_data = tmp_path / "bad_data"
    bad_data.mkdir()
    (bad_data / "bad.csv").write_text("not,a,trial\n")
    capsys.readouterr()
    assert main(["eval", "--data", str(bad_data), "--ckpt", str(ckpt),
                 "--out", str(tmp_path / "x")]) == 1
    assert f"{ckpt}: extra has no 'train_seed'" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_train_records_the_model_name(pipeline, tmp_path):
    """A named model's checkpoint records its name, custom --conv/--fc widths record custom."""
    _, data, run = pipeline
    assert json.loads((run / "final.ckpt.json").read_text())["extra"]["model"] == "custom"
    out = tmp_path / "mlp"
    assert main(["train", "--topology", "small", "--model", "IV", "--epochs", "1",
                 "--target-length", "60", "--data", str(data), "--out", str(out)]) == 0
    assert json.loads((out / "final.ckpt.json").read_text())["extra"]["model"] == "IV"


def test_resume_refuses_another_seed(pipeline, tmp_path, capsys):
    _, data, run = pipeline
    out = tmp_path / "resumed"
    capsys.readouterr()
    assert main(TRAIN[:-1] + ["9", "--resume", str(run / "final.ckpt.json"),
                              "--data", str(data), "--out", str(out)]) == 1
    assert "checkpoint seed 3 is not the run's seed 9" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag, value", [("--target-length", "150"), ("--batch-size", "7"),
                                         ("--lr", "0.5")])
def test_resume_refuses_another_recipe(pipeline, tmp_path, bad_data, capsys, flag, value):
    """The checkpoint is read first: a malformed CSV does not hide the key that differs."""
    _, _, run = pipeline
    out = tmp_path / "resumed"
    capsys.readouterr()
    assert main(["train", "--resume", str(run / "final.ckpt.json"), flag, value, "--epochs", "1",
                 "--data", str(bad_data), "--out", str(out)]) == 1
    recorded = {"--target-length": 330, "--batch-size": 100, "--lr": 0.001}[flag]
    key = flag[2:]
    assert f"checkpoint {key} {recorded} is not the run's {key} {value}" in \
        capsys.readouterr().err
    assert not out.exists()


def test_resume_refuses_another_architecture(pipeline, tmp_path, bad_data, capsys):
    """So does another graph; both are compared before a malformed CSV is read."""
    _, _, run = pipeline
    out = tmp_path / "resumed"
    for flags, named in ((["--conv", "5", "--fc", "30"], "is not the run's --model/--conv/--fc"),
                         (["--model", "I"], "is not the run's --model/--conv/--fc"),
                         (["--topology", "default"], "'topology' is not the graph of --topology")):
        capsys.readouterr()
        assert main(["train", *flags, "--resume", str(run / "final.ckpt.json"), "--epochs", "1",
                     "--data", str(bad_data), "--out", str(out)]) == 1
        assert named in capsys.readouterr().err
        assert not out.exists()


def _blob_reads(monkeypatch) -> list[tuple[str, str]]:
    """The blobs read from here on, as ("whole", path) for np.fromfile, which reads a full
    model, and ("values", path) for `Manifest.weights`: no other call reads a blob."""
    reads = []
    fromfile, weights = np.fromfile, tgl.models.Manifest.weights
    monkeypatch.setattr(np, "fromfile",
                        lambda *a, **k: reads.append(("whole", a[0])) or fromfile(*a, **k))
    monkeypatch.setattr(tgl.models.Manifest, "weights",
                        lambda man: reads.append(("values", man.blob)) or weights(man))
    return reads


@pytest.mark.parametrize("command", ["train", "eval", "pca", "rollout"])
def test_resume_reads_the_blob_once(pipeline, tmp_path, monkeypatch, command):
    """Each command reads the blob once, after train --resume, eval and pca have checked the
    manifest and the recipe; every command but train reads only the values."""
    _, data, run = pipeline
    ckpt = str(run / "final.ckpt.json")
    argv = {"train": ["train", "--resume", ckpt, "--epochs", "1", "--data", str(data)],
            "eval": ["eval", "--ckpt", ckpt, "--data", str(data)],
            "pca": ["pca", "--ckpt", ckpt, "--data", str(data)],
            "rollout": ["rollout", "--ckpt", ckpt, "--object", "light,hard,nonslip",
                        "--max-steps", "5"]}[command]
    reads = _blob_reads(monkeypatch)
    assert main(argv + ["--out", str(tmp_path / "out")]) == 0
    assert reads == [("whole" if command == "train" else "values", str(run / "final.ckpt.bin"))]


def test_resume_reads_its_manifest_once(pipeline, tmp_path, monkeypatch):
    """The manifest checked before any CSV is read is the one training resumes from."""
    _, data, run = pipeline
    ckpt = str(run / "final.ckpt.json")
    reads = []
    read_manifest = tgl.models.read_manifest

    def counted(path, *args, **kwargs):
        reads.append(path)
        return read_manifest(path, *args, **kwargs)

    for module in (tgl.models, tgl.training):   # wherever a caller looks the name up
        monkeypatch.setattr(module, "read_manifest", counted)
    assert main(["train", "--resume", ckpt, "--data", str(data), "--epochs", "1",
                 "--out", str(tmp_path / "resumed")]) == 0
    assert reads.count(ckpt) == 1


@pytest.mark.parametrize("blob", ["missing", "short"])
def test_resume_refuses_a_bad_blob_before_any_data_is_read(pipeline, tmp_path, bad_data, capsys,
                                                           blob):
    _, _, run = pipeline
    shutil.copy(run / "final.ckpt.json", tmp_path / "final.ckpt.json")
    if blob == "short":
        (tmp_path / "final.ckpt.bin").write_bytes((run / "final.ckpt.bin").read_bytes()[:-8])
    out = tmp_path / "resumed"
    capsys.readouterr()
    assert main(["train", "--resume", str(tmp_path / "final.ckpt.json"), "--epochs", "1",
                 "--data", str(bad_data), "--out", str(out)]) == 1
    assert str(tmp_path / "final.ckpt.bin") in capsys.readouterr().err
    assert not out.exists()


def test_resume_needs_only_the_checkpoint(pipeline, tmp_path):
    """--resume --data --epochs --out continue a run as a straight run of all the epochs."""
    _, data, _ = pipeline
    at = TRAIN.index("--epochs")
    straight, half, resumed = (tmp_path / name for name in ("straight", "half", "resumed"))
    assert main(TRAIN[:at] + ["--epochs", "4"] + TRAIN[at + 2:] +
                ["--data", str(data), "--out", str(straight)]) == 0
    assert main(TRAIN[:at] + ["--epochs", "2"] + TRAIN[at + 2:] +
                ["--data", str(data), "--out", str(half)]) == 0
    assert main(["train", "--resume", str(half / "final.ckpt.json"), "--data", str(data),
                 "--epochs", "2", "--out", str(resumed)]) == 0
    a, extra_a = load_checkpoint(str(straight / "final.ckpt.json"))
    b, extra_b = load_checkpoint(str(resumed / "final.ckpt.json"))
    assert extra_a == extra_b and extra_a["epoch"] == 4
    assert np.array_equal(a.buffer, b.buffer)   # values and both Adam moments
    assert [p.step_count for p in a.parameters()] == [p.step_count for p in b.parameters()]
    assert (straight / "best.ckpt.bin").read_bytes() == (resumed / "best.ckpt.bin").read_bytes()


@pytest.mark.parametrize("command", ["eval", "pca"])
def test_eval_and_pca_take_the_target_length_from_the_checkpoint(pipeline, tmp_path, capsys,
                                                                 monkeypatch, command):
    _, data, run = pipeline
    argv = [command, "--data", str(data), "--out", str(tmp_path / "out")]
    capsys.readouterr()
    assert main(argv + ["--ckpt", str(run / "final.ckpt.json"), "--target-length", "100"]) == 1
    assert "unrecognized arguments: --target-length 100" in capsys.readouterr().err
    manifest = json.loads((run / "final.ckpt.json").read_text())
    del manifest["extra"]["target_length"]
    ckpt = tmp_path / "final.ckpt.json"
    ckpt.write_text(json.dumps(manifest))
    shutil.copy(run / "final.ckpt.bin", tmp_path / "final.ckpt.bin")
    reads = _blob_reads(monkeypatch)
    assert main(argv + ["--ckpt", str(ckpt)]) == 1
    assert f"{ckpt}: extra has no 'target_length'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    assert reads == []   # the recipe is checked before the blob is read


def test_checkpoint_carries_its_graph(pipeline, tmp_path):
    """A checkpoint holds the same graph document that `tgl topology` writes, and no n_nodes."""
    _, _, run = pipeline
    assert main(["topology", "--small", "--out", str(tmp_path)]) == 0
    manifest = json.loads((run / "final.ckpt.json").read_text())
    assert manifest["topology"] == json.loads((tmp_path / "small_hand_24.json").read_text())
    assert manifest["format_version"] == 2
    assert "n_nodes" not in manifest


def test_read_only_commands_take_the_graph_from_the_checkpoint(pipeline, tmp_path, capsys):
    """eval, rollout and pca run a 24-node checkpoint given --ckpt alone, and have no --topology."""
    _, data, run = pipeline
    ckpt = ["--ckpt", str(run / "final.ckpt.json")]
    for i, argv in enumerate((["eval", "--data", str(data)],
                              ["rollout", "--object", "light,hard,nonslip", "--max-steps", "5"],
                              ["pca", "--data", str(data)])):
        assert main(argv + ckpt + ["--out", str(tmp_path / f"ok{i}")]) == 0
        capsys.readouterr()
        out = tmp_path / f"flag{i}"
        assert main(argv + ckpt + ["--topology", "small", "--out", str(out)]) == 1
        assert "unrecognized arguments: --topology small" in capsys.readouterr().err
        assert not out.exists()


def test_resume_refuses_another_graph(pipeline, tmp_path, capsys):
    """A 24-node graph that lacks one edge of the small hand is another graph."""
    _, data, run = pipeline
    small = build_small_hand()
    other = tmp_path / "other24.json"
    save_topology(HandTopology(small.nodes, small.edges[1:]), str(other))
    argv = TRAIN[:1] + ["--topology", str(other)] + TRAIN[3:]
    out = tmp_path / "resumed"
    capsys.readouterr()
    assert main(argv + ["--resume", str(run / "final.ckpt.json"),
                        "--data", str(data), "--out", str(out)]) == 1
    assert "'topology'" in capsys.readouterr().err
    assert not out.exists()


def test_readme_commands_parse():
    """Every `tgl` command in the README's sh blocks parses, so a removed flag fails here."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"^```sh\n(.*?)^```", readme, flags=re.M | re.S)
    commands = [line for block in blocks
                for line in block.replace("\\\n", " ").splitlines()
                if line.startswith("tgl ")]
    assert len(commands) == 10
    for line in commands:
        build_parser().parse_args(shlex.split(line, comments=True)[1:])


def test_rollout_and_compare_forces(pipeline, tmp_path):
    _, _, run = pipeline
    ckpt = str(run / "final.ckpt.json")
    a, b, cmp_dir = (tmp_path / x for x in ("a", "b", "cmp"))
    base = ["rollout", "--ckpt", ckpt, "--object", "light,hard,nonslip", "--max-steps", "60",
            "--seed", "2"]
    assert main(base + ["--out", str(a)]) == 0
    assert main(base + ["--labels", "heavy,hard,slippery", "--out", str(b)]) == 0
    for d in (a, b):
        assert (d / "trace.csv").exists()
        assert (d / "trace.verdict.json").exists()
    labels_b = json.loads((b / "manifest.json").read_text())["config"]["labels"]
    assert labels_b == [0, 1, 1, 0, 0, 1]
    assert main(["compare-forces", "--trace-a", str(a / "trace.csv"),
                 "--trace-b", str(b / "trace.csv"), "--out", str(cmp_dir)]) == 0
    doc = json.loads((cmp_dir / "force_comparison.json").read_text())
    assert doc["steps"] == 60
    assert 0.0 <= doc["fraction_b_higher"] <= 1.0


def test_compare_forces_bad_traces_exit_1(pipeline, tmp_path, capsys):
    _, _, run = pipeline
    good = tmp_path / "good"
    assert main(["rollout", "--ckpt", str(run / "final.ckpt.json"),
                 "--object", "light,hard,nonslip", "--max-steps", "5", "--out", str(good)]) == 0
    lines = (good / "trace.csv").read_text().splitlines()
    short = tmp_path / "short.csv"
    short.write_text("\n".join(lines[:3] + [lines[3].rsplit(",", 2)[0]] + lines[4:]) + "\n")
    header_only = tmp_path / "header_only.csv"
    header_only.write_text(lines[0] + "\n")
    # a short row names file:line; a header-only trace names its file
    for a, b, where in ((good / "trace.csv", short, f"{short}:4"),
                        (header_only, header_only, f"{header_only}: no rows")):
        cmp_dir = tmp_path / f"cmp_{b.stem}"
        capsys.readouterr()
        assert main(["compare-forces", "--trace-a", str(a), "--trace-b", str(b),
                     "--out", str(cmp_dir)]) == 1
        assert where in capsys.readouterr().err
        assert not (cmp_dir / "force_comparison.json").exists()
    # a trial CSV lacks the trace columns
    trial_csv = tmp_path / "trial.csv"
    trial_csv.write_text(",".join(lines[0].split(",")[:-4]) + "\n")
    assert main(["compare-forces", "--trace-a", str(good / "trace.csv"),
                 "--trace-b", str(trial_csv), "--out", str(tmp_path / "cmp_trial")]) == 1


def test_rollout_disturb_parsing(pipeline, tmp_path):
    _, _, run = pipeline
    ckpt = str(run / "final.ckpt.json")
    base = ["rollout", "--ckpt", ckpt, "--object", "light,hard,nonslip", "--max-steps", "40",
            "--seed", "0"]
    assert main(base + ["--disturb", "20:pull_down:1.5", "--out", str(tmp_path / "ok")]) == 0
    assert main(base + ["--disturb", "20:pull_down", "--out", str(tmp_path / "x1")]) == 1
    assert main(base + ["--disturb", "20:shake:1.5", "--out", str(tmp_path / "x2")]) == 1
    assert main(base + ["--disturb", "99:pull_down:1.5", "--out", str(tmp_path / "x3")]) == 1


def test_rollout_object_triple_validation(pipeline, tmp_path):
    _, _, run = pipeline
    ckpt = str(run / "final.ckpt.json")
    assert main(["rollout", "--ckpt", ckpt, "--object", "light,hard", "--max-steps", "10",
                 "--out", str(tmp_path / "x")]) == 1
    assert main(["rollout", "--ckpt", ckpt, "--object", "light,crunchy,nonslip",
                 "--max-steps", "10", "--out", str(tmp_path / "y")]) == 1


def test_pca_outputs(pipeline, tmp_path):
    _, data, run = pipeline
    out = tmp_path / "pca"
    assert main(["pca", "--ckpt", str(run / "final.ckpt.json"), "--data", str(data),
                 "--out", str(out)]) == 0
    for name in ("node_map.csv", "node_map.svg", "cluster_report.json", "manifest.json"):
        assert (out / name).exists()
    doc = json.loads((out / "cluster_report.json").read_text())
    assert doc["nodes"] == 24


def test_pca_rejects_mlp_checkpoint(pipeline, tmp_path, bad_data, capsys, monkeypatch):
    """Before any data or the blob is read: a malformed CSV does not hide the model's kind."""
    _, data, _ = pipeline
    run = tmp_path / "mlp_run"
    assert main(["train", "--topology", "small", "--fc", "16", "--epochs", "1",
                 "--lr", "1e-3", "--seed", "0", "--data", str(data),
                 "--out", str(run)]) == 0
    capsys.readouterr()
    reads = _blob_reads(monkeypatch)
    assert main(["pca", "--ckpt", str(run / "final.ckpt.json"), "--data", str(bad_data),
                 "--out", str(tmp_path / "pca")]) == 1
    assert "holds an MLP" in capsys.readouterr().err
    assert not (tmp_path / "pca").exists()
    assert reads == []


def test_pca_refuses_a_window_past_the_target_length_before_any_data_is_read(
        pipeline, tmp_path, bad_data, capsys):
    _, _, run = pipeline   # trained at the default target length, 330
    capsys.readouterr()
    assert main(["pca", "--ckpt", str(run / "final.ckpt.json"), "--window", "300:331",
                 "--data", str(bad_data), "--out", str(tmp_path / "pca")]) == 1
    assert "--window 300:331 ends past the checkpoint's target length 330" in \
        capsys.readouterr().err
    assert not (tmp_path / "pca").exists()


def test_an_out_that_is_a_file_exits_1_before_any_work(pipeline, tmp_path, capsys):
    root, data, run = pipeline
    ckpt = str(run / "final.ckpt.json")
    trace_dir = tmp_path / "trace"
    assert main(["rollout", "--ckpt", ckpt, "--object", "light,hard,nonslip", "--max-steps", "10",
                 "--out", str(trace_dir)]) == 0
    trace = str(trace_dir / "trace.csv")
    commands = {
        "topology": ["topology", "--small"],
        "gen-data": GEN,
        "train": TRAIN + ["--epochs", "1", "--data", str(data)],
        "eval": ["eval", "--ckpt", ckpt, "--data", str(data)],
        "rollout": ["rollout", "--ckpt", ckpt, "--object", "light,hard,nonslip",
                    "--max-steps", "10"],
        "pca": ["pca", "--ckpt", ckpt, "--data", str(data)],
        "compare-forces": ["compare-forces", "--trace-a", trace, "--trace-b", trace],
    }
    subcommands, = (a.choices for a in build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction))
    assert set(commands) == set(subcommands)
    out = tmp_path / "out.txt"
    out.write_text("not a directory\n")
    for argv in commands.values():
        capsys.readouterr()
        assert main(argv + ["--out", str(out)]) == 1
        assert capsys.readouterr().err == \
            f"error: argument --out: {out} exists and is not a directory\n"
        assert out.read_text() == "not a directory\n"


def test_a_directory_given_for_an_input_file_exits_1(pipeline, tmp_path, capsys):
    _, data, _ = pipeline
    folder = tmp_path / "folder"
    folder.mkdir()
    for argv in (["eval", "--ckpt", str(folder), "--data", str(data)],
                 ["rollout", "--ckpt", str(folder), "--object", "light,hard,nonslip"],
                 ["pca", "--ckpt", str(folder), "--data", str(data)],
                 ["train", "--resume", str(folder), "--data", str(data)],
                 ["train", "--config", str(folder), "--data", str(data)],
                 ["gen-data", "--config", str(folder)],
                 ["compare-forces", "--trace-a", str(folder), "--trace-b", str(folder)]):
        capsys.readouterr()
        assert main(argv + ["--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Is a directory" in err and str(folder) in err
        assert not (tmp_path / "out").exists()


def test_missing_checkpoint_exit_1(tmp_path):
    assert main(["eval", "--ckpt", str(tmp_path / "nope.ckpt.json"), "--data", str(tmp_path),
                 "--out", str(tmp_path / "out")]) == 1


def _swap_conv0_value_and_adam_m(manifest):
    value, adam_m = manifest["tensors"][:2]
    value["offset"], adam_m["offset"] = adam_m["offset"], value["offset"]


def _transpose_conv0(manifest):
    for entry in manifest["tensors"][:3]:
        entry["shape"].reverse()


# (manifest edit, the field the error names)
MALFORMED_MANIFESTS = {
    "no-seed": (lambda m: m.pop("seed"), "seed"),
    "no-topology": (lambda m: m.pop("topology"), "topology"),
    "bool-row-topology": (lambda m: m["topology"]["nodes"][0].update(row=True), "topology"),
    "no-tensors": (lambda m: m.pop("tensors"), "tensors"),
    "swapped-offsets": (_swap_conv0_value_and_adam_m, "tensors"),
    "wrong-shape": (_transpose_conv0, "tensors"),
    "total-elements": (lambda m: m.update(total_elements=m["total_elements"] - 1),
                       "total_elements"),
    "negative-step-count": (lambda m: m["step_counts"].__setitem__(0, -5), "step_counts"),
    "bool-step-count": (lambda m: m["step_counts"].__setitem__(0, True), "step_counts"),
    "string-seed": (lambda m: m.update(seed="x"), "seed"),
    "bool-seed": (lambda m: m.update(seed=False), "seed"),
    "number-blob": (lambda m: m.update(blob=5), "blob"),
    "blob-path": (lambda m: m.update(blob=os.path.join("..", m["blob"])), "blob"),
    "other-blob": (lambda m: m.update(blob="other.ckpt.bin"), "blob"),
    "list-extra": (lambda m: m.update(extra=[1]), "extra"),
    "bool-horizon": (lambda m: m.update(horizon=True), "horizon"),
    "other-horizon": (lambda m: m.update(horizon=5), "horizon"),
    "bool-format-version": (lambda m: m.update(format_version=True), "format_version"),
    "float-format-version": (lambda m: m.update(format_version=1.0), "format_version"),
    "v1-format-version": (lambda m: m.update(format_version=1), "format_version"),
    "float-width": (lambda m: m.update(fc_sizes=[float(w) for w in m["fc_sizes"]]), "fc_sizes"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_MANIFESTS))
def test_malformed_checkpoint_exit_1(pipeline, tmp_path, capsys, case):
    _, data, run = pipeline
    edit, named = MALFORMED_MANIFESTS[case]
    manifest = json.loads((run / "final.ckpt.json").read_text())
    edit(manifest)
    ckpt = tmp_path / "final.ckpt.json"
    ckpt.write_text(json.dumps(manifest))
    shutil.copy(run / "final.ckpt.bin", tmp_path / "final.ckpt.bin")
    shutil.copy(run / "final.ckpt.bin", tmp_path / "other.ckpt.bin")   # a well-formed blob
    with pytest.raises(ValueError, match=rf"{re.escape(str(ckpt))}.*'{named}'"):
        load_checkpoint(str(ckpt), build_small_hand())
    for argv in (["eval", "--data", str(data)],
                 ["rollout", "--object", "light,hard,nonslip"]):
        capsys.readouterr()
        assert main(argv + ["--ckpt", str(ckpt), "--out", str(tmp_path / argv[0])]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"'{named}'" in err and "Traceback" not in err


# (input kind, command that reads it)
INPUT_CASES = [("trial CSV", "train"), ("trial CSV", "eval"), ("trial CSV", "pca"),
               ("trace CSV", "compare-forces"), ("topology JSON", "gen-data"),
               ("config JSON", "gen-data"), ("config JSON", "train"),
               ("manifest", "eval"), ("manifest", "rollout"), ("manifest", "pca"),
               ("manifest", "train")]


def _an_input(kind: str, command: str, tmp: Path, data: Path, run: Path) -> tuple[Path, list]:
    """A good file of this kind in tmp, and the argv, less --out, by which command reads it."""
    ckpt = str(run / "final.ckpt.json")
    if kind == "trial CSV":
        (tmp / "data").mkdir()
        path = Path(shutil.copy(sorted(data.glob("*.csv"))[0], tmp / "data"))
        return path, {"train": TRAIN, "eval": ["eval", "--ckpt", ckpt],
                      "pca": ["pca", "--ckpt", ckpt]}[command] + ["--data", str(tmp / "data")]
    if kind == "trace CSV":
        assert main(["rollout", "--ckpt", ckpt, "--object", "light,hard,nonslip",
                     "--max-steps", "5", "--out", str(tmp / "rollout")]) == 0
        path = tmp / "rollout" / "trace.csv"
        return path, ["compare-forces", "--trace-a", str(path), "--trace-b", str(path)]
    if kind == "topology JSON":
        path = tmp / "hand.json"
        save_topology(build_small_hand(), str(path))
        return path, ["gen-data", "--topology", str(path)]
    if kind == "config JSON":
        path = tmp / "config.json"
        path.write_text(json.dumps({"seed": 1}))
        return path, (GEN if command == "gen-data" else TRAIN + ["--data", str(data)]) + \
            ["--config", str(path)]
    shutil.copy(run / "final.ckpt.bin", tmp)
    path = Path(shutil.copy(ckpt, tmp))
    return path, {"eval": ["eval", "--ckpt", str(path), "--data", str(data)],
                  "rollout": ["rollout", "--ckpt", str(path), "--object", "light,hard,nonslip"],
                  "pca": ["pca", "--ckpt", str(path), "--data", str(data)],
                  "train": ["train", "--resume", str(path), "--epochs", "1",
                            "--data", str(data)]}[command]


@given(case=st.sampled_from(INPUT_CASES), draw=st.data())
def test_every_input_file_fails_by_name(pipeline, case, draw):
    """A 0xff byte in any input file, or a JSON input cut short, exits 1 with one line naming it."""
    _, data, run = pipeline
    with tempfile.TemporaryDirectory() as tmp:
        path, argv = _an_input(*case, Path(tmp), data, run)
        raw = path.read_bytes()
        if path.suffix == ".json" and draw.draw(st.booleans(), label="cut"):
            end = draw.draw(st.integers(0, len(raw.rstrip()) - 1), label="cut before")
            path.write_bytes(raw[:end])
        else:
            at = draw.draw(st.integers(0, len(raw)), label="0xff at")
            path.write_bytes(raw[:at] + b"\xff" + raw[at:])
        out = Path(tmp) / "out"
        with contextlib.redirect_stderr(io.StringIO()) as err:
            assert main(argv + ["--out", str(out)]) == 1
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ") and str(path) in lines[0], lines
        assert not out.exists()


def _manifest_cases(out: Path) -> dict:
    """(argv, its manifest's exact config) of each command, run from the pipeline's root with
    relative input paths: the manifest records them absolute, `--resume` too."""
    cwd = os.getcwd()
    ckpt, trace = "run/final.ckpt.json", os.path.relpath(out / "rolled" / "trace.csv")
    common = {"ckpt": os.path.join(cwd, ckpt), "data": os.path.join(cwd, "data"),
              "target_length": 330}
    train = {"seed": 3, "epochs": 1, "batch_size": 100, "lr": 0.001, "model": "III",
             "conv": "5,9", "fc": "30", "target_length": 330, "topology": "small",
             "resume": None, "data": common["data"]}
    at = TRAIN.index("--epochs")
    return {
        "topology": (["topology", "--small"], {"small": True, "nodes": 24, "edges": 34}),
        "gen-data": (GEN, {"seed": 5, "objects": 2, "trials-per": 2, "length": 700,
                           "topology": "small", "noise": 0.0}),
        "train": (TRAIN[:at] + ["--epochs", "1"] + TRAIN[at + 2:] + ["--data", "data"], train),
        "train --resume": (["train", "--resume", ckpt, "--epochs", "1", "--data", "data"],
                           train | {"model": None, "conv": None, "fc": None, "topology": None,
                                    "resume": common["ckpt"]}),
        "eval": (["eval", "--ckpt", ckpt, "--data", "data"], common | {"split": "val", "seed": 3}),
        "rollout": (["rollout", "--ckpt", ckpt, "--object", "light,hard,nonslip",
                     "--labels", "heavy,hard,slippery", "--max-steps", "5",
                     "--disturb", "3:pull_down:1.0", "--radius", "4"],
                    {"ckpt": common["ckpt"], "object": "light,hard,nonslip",
                     "labels": [0.0, 1.0, 1.0, 0.0, 0.0, 1.0], "max_steps": 5, "seed": 0,
                     "disturb": "3:pull_down:1.0", "stride": 1, "radius": 4.0}),
        "pca": (["pca", "--ckpt", ckpt, "--data", "data"], common | {"window": [285, 330]}),
        "compare-forces": (["compare-forces", "--trace-a", trace, "--trace-b", trace],
                           {"trace_a": str(out / "rolled" / "trace.csv"),
                            "trace_b": str(out / "rolled" / "trace.csv")}),
    }


@pytest.mark.parametrize("command", ["topology", "gen-data", "train", "train --resume", "eval",
                                     "rollout", "pca", "compare-forces"])
def test_each_manifest_records_its_exact_config(pipeline, tmp_path, monkeypatch, command):
    """Keys, their spellings and each value's JSON type: 1 is not 1.0, nor null an empty string."""
    root, _, _ = pipeline
    monkeypatch.chdir(root)
    if command == "compare-forces":   # the trace it compares
        assert main(["rollout", "--ckpt", "run/final.ckpt.json", "--object", "light,hard,nonslip",
                     "--max-steps", "5", "--out", str(tmp_path / "rolled")]) == 0
    argv, expected = _manifest_cases(tmp_path)[command]
    assert main(argv + ["--out", str(tmp_path / "out")]) == 0
    config = json.loads((tmp_path / "out" / "manifest.json").read_text())["config"]
    assert json.dumps(config, sort_keys=True) == json.dumps(expected, sort_keys=True)


def test_unknown_flag_exit_1(tmp_path):
    assert main(["topology", "--tiny", "--out", str(tmp_path)]) == 1
    assert main(["topology", "--default", "--out", str(tmp_path)]) == 1
    assert main(["no-such-command"]) == 1


# A 24-node chain (gen-data, train, resume, eval, rollout, pca) and a one-epoch
# 384-node toy GCN train, eval, batch-1 rollout and pca, run through the CLI in the
# current directory.
_THREAD_COUNT_RUN = """
import sys
from tgl.cli import main

def run(*argv):
    if main(list(argv)) != 0:
        sys.exit(f"failed: {argv}")

run("gen-data", "--topology", "small", "--objects", "2", "--trials-per", "2", "--seed", "5",
    "--length", "200", "--out", "data24")
run("train", "--topology", "small", "--target-length", "100", "--conv", "5,9", "--fc", "30",
    "--lr", "1e-3", "--seed", "3", "--data", "data24", "--out", "run24", "--epochs", "2",
    "--checkpoint-every", "1")
run("train", "--resume", "run24/final.ckpt.json", "--data", "data24", "--epochs", "1",
    "--out", "run24")
run("eval", "--ckpt", "run24/final.ckpt.json", "--data", "data24", "--out", "eval24")
run("rollout", "--ckpt", "run24/final.ckpt.json", "--object", "heavy,soft,slippery",
    "--max-steps", "40", "--out", "rollout24")
run("pca", "--ckpt", "run24/final.ckpt.json", "--data", "data24", "--out", "pca24")
run("gen-data", "--objects", "1", "--trials-per", "2", "--seed", "5", "--length", "120",
    "--out", "data384")
run("train", "--conv", "14,28,56", "--fc", "120,50", "--epochs", "1", "--lr", "1e-3",
    "--target-length", "100", "--data", "data384", "--out", "run384")
run("eval", "--ckpt", "run384/final.ckpt.json", "--data", "data384", "--out", "eval384")
run("rollout", "--ckpt", "run384/final.ckpt.json", "--object", "heavy,soft,slippery",
    "--max-steps", "20", "--out", "rollout384")
run("pca", "--ckpt", "run384/final.ckpt.json", "--data", "data384", "--out", "pca384")
"""


def test_artifacts_do_not_depend_on_the_blas_thread_count(tmp_path):
    """The same CLI runs under OPENBLAS_NUM_THREADS=1, =2 and unset write the same bytes.

    Each runs in the same directory, so the absolute paths in the manifests agree;
    metrics.ndjson holds wall times and is left out.
    """
    src = os.path.dirname(os.path.dirname(tgl.__file__))
    work = tmp_path / "work"
    hashes = {}
    for threads in ("1", "2", None):
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        env["PYTHONPATH"] = src
        if threads is not None:
            env["OPENBLAS_NUM_THREADS"] = threads
        work.mkdir()
        subprocess.run([sys.executable, "-c", _THREAD_COUNT_RUN], cwd=work, env=env,
                       check=True, timeout=120)
        hashes[threads] = {str(p.relative_to(work)): hashlib.sha256(p.read_bytes()).hexdigest()
                           for p in sorted(work.rglob("*"))
                           if p.is_file() and p.name != "metrics.ndjson"}
        shutil.rmtree(work)
    assert len(hashes["1"]) > 30 and "run384/final.ckpt.bin" in hashes["1"]
    assert "rollout384/trace.csv" in hashes["1"]
    assert {"eval384/eval.json", "pca384/node_map.csv"} <= hashes["1"].keys()
    assert hashes["2"] == hashes["1"]
    assert hashes[None] == hashes["1"]
