"""Command-line pipeline: subcommands, exit codes, manifests, reproducibility."""
from __future__ import annotations

import json
import os

import numpy as np
import pytest

from tgl.cli import main
from tgl.dataset import write_trial_csv
from tgl.plant import PlantConfig, generate_dataset_trials, object_catalog
from tgl.topology import build_small_hand, load_topology

GEN = ["gen-data", "--topology", "small", "--objects", "2", "--trials-per", "2",
       "--seed", "5", "--length", "700"]
TRAIN = ["train", "--topology", "small", "--conv", "5,9", "--fc", "30",
         "--epochs", "12", "--lr", "1e-3", "--seed", "3"]


@pytest.fixture(scope="module", autouse=True)
def single_thread():
    os.environ["TGL_THREADS"] = "1"
    yield
    os.environ.pop("TGL_THREADS", None)


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One gen-data + train chain reused by the read-only subcommand tests."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "data"
    run = root / "run"
    assert main(GEN + ["--out", str(data)]) == 0
    assert main(TRAIN + ["--data", str(data), "--out", str(run)]) == 0
    return root, data, run


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
    assert set(manifest["outputs"]) == set(csvs) | {"plant_config.json"}
    assert all(len(h) == 64 for h in manifest["outputs"].values())


def test_gen_data_reproducible(pipeline, tmp_path):
    _, data, _ = pipeline
    assert main(GEN + ["--out", str(tmp_path)]) == 0
    # identical manifests, identical bytes
    assert (tmp_path / "manifest.json").read_text() == (data / "manifest.json").read_text()
    for name in json.loads((data / "manifest.json").read_text())["outputs"]:
        assert (tmp_path / name).read_bytes() == (data / name).read_bytes()


def test_gen_data_matches_generate_dataset_trials(tmp_path):
    """Each gen-data job writes exactly the trial the library generator draws."""
    out = tmp_path / "data"
    assert main(["gen-data", "--topology", "small", "--objects", "2", "--trials-per", "2",
                 "--seed", "5", "--length", "200", "--out", str(out)]) == 0
    cfg = PlantConfig()
    trials = generate_dataset_trials(build_small_hand(), object_catalog(cfg)[:2], 2,
                                     seed=5, length=200, cfg=cfg)
    assert sorted(p for p in os.listdir(out) if p.endswith(".csv")) == \
        sorted(f"{t.object_name}.csv" for t in trials)
    for trial in trials:
        ref = tmp_path / "ref.csv"
        write_trial_csv(trial, str(ref))
        assert (out / f"{trial.object_name}.csv").read_bytes() == ref.read_bytes()


def test_gen_data_validation_exit_1(tmp_path):
    assert main(["gen-data", "--out", str(tmp_path), "--objects", "0"]) == 1
    assert main(["gen-data", "--out", str(tmp_path), "--objects", "9"]) == 1


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


def test_eval_writes_json(pipeline, tmp_path):
    _, data, run = pipeline
    out = tmp_path / "eval"
    assert main(["eval", "--ckpt", str(run / "final.ckpt.json"), "--data", str(data),
                 "--topology", "small", "--seed", "3", "--out", str(out)]) == 0
    doc = json.loads((out / "eval.json").read_text())
    assert doc["split"] == "val"
    assert doc["pairs"] == 320
    assert np.isfinite(doc["mse"])


def test_rollout_and_compare_forces(pipeline, tmp_path):
    _, _, run = pipeline
    ckpt = str(run / "final.ckpt.json")
    a, b, cmp_dir = (tmp_path / x for x in ("a", "b", "cmp"))
    base = ["rollout", "--ckpt", ckpt, "--topology", "small",
            "--object", "light,hard,nonslip", "--max-steps", "60", "--seed", "2"]
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
    assert main(["rollout", "--ckpt", str(run / "final.ckpt.json"), "--topology", "small",
                 "--object", "light,hard,nonslip", "--max-steps", "5", "--out", str(good)]) == 0
    lines = (good / "trace.csv").read_text().splitlines()
    short = tmp_path / "short.csv"
    short.write_text("\n".join(lines[:3] + [lines[3].rsplit(",", 2)[0]] + lines[4:]) + "\n")
    header_only = tmp_path / "header_only.csv"
    header_only.write_text(lines[0] + "\n")
    # a short row names file:line; two header-only traces have no forces to compare
    for a, b, where in ((good / "trace.csv", short, f"{short}:4"),
                        (header_only, header_only, "empty")):
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
    base = ["rollout", "--ckpt", ckpt, "--topology", "small",
            "--object", "light,hard,nonslip", "--max-steps", "40", "--seed", "0"]
    assert main(base + ["--disturb", "20:pull_down:1.5", "--out", str(tmp_path / "ok")]) == 0
    assert main(base + ["--disturb", "20:pull_down", "--out", str(tmp_path / "x1")]) == 1
    assert main(base + ["--disturb", "20:shake:1.5", "--out", str(tmp_path / "x2")]) == 1
    assert main(base + ["--disturb", "99:pull_down:1.5", "--out", str(tmp_path / "x3")]) == 1


def test_rollout_object_triple_validation(pipeline, tmp_path):
    _, _, run = pipeline
    ckpt = str(run / "final.ckpt.json")
    assert main(["rollout", "--ckpt", ckpt, "--topology", "small",
                 "--object", "light,hard", "--max-steps", "10",
                 "--out", str(tmp_path / "x")]) == 1
    assert main(["rollout", "--ckpt", ckpt, "--topology", "small",
                 "--object", "light,crunchy,nonslip", "--max-steps", "10",
                 "--out", str(tmp_path / "y")]) == 1


def test_pca_outputs(pipeline, tmp_path):
    _, data, run = pipeline
    out = tmp_path / "pca"
    assert main(["pca", "--ckpt", str(run / "final.ckpt.json"), "--data", str(data),
                 "--topology", "small", "--out", str(out)]) == 0
    for name in ("node_map.csv", "node_map.svg", "cluster_report.json", "manifest.json"):
        assert (out / name).exists()
    doc = json.loads((out / "cluster_report.json").read_text())
    assert doc["nodes"] == 24


def test_pca_rejects_mlp_checkpoint(pipeline, tmp_path):
    _, data, _ = pipeline
    run = tmp_path / "mlp_run"
    assert main(["train", "--topology", "small", "--fc", "16", "--epochs", "1",
                 "--lr", "1e-3", "--seed", "0", "--data", str(data),
                 "--out", str(run)]) == 0
    assert main(["pca", "--ckpt", str(run / "final.ckpt.json"), "--data", str(data),
                 "--topology", "small", "--out", str(tmp_path / "pca")]) == 1


def test_missing_checkpoint_exit_1(tmp_path):
    assert main(["eval", "--ckpt", str(tmp_path / "nope.ckpt.json"),
                 "--data", str(tmp_path), "--topology", "small",
                 "--out", str(tmp_path / "out")]) == 1


def test_unknown_flag_exit_1(tmp_path):
    assert main(["topology", "--tiny", "--out", str(tmp_path)]) == 1
    assert main(["no-such-command"]) == 1


def test_bad_thread_env(tmp_path):
    os.environ["TGL_THREADS"] = "zero"
    try:
        assert main(GEN + ["--out", str(tmp_path)]) == 1
    finally:
        os.environ["TGL_THREADS"] = "1"
