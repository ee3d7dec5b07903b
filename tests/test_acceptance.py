"""Acceptance suite: one test per shipped guarantee, pinned tolerances.

Run `pytest -v tests/test_acceptance.py` for one pass/fail line per
criterion.  Criteria 6/7/9 share the session-scoped catalog fixture and
criteria 8/10 the overfit fixture (see conftest), so the heavy training
happens once; every number asserted here is a deterministic constant of
the seeded code paths.
"""
from __future__ import annotations

import json
from statistics import median
from time import perf_counter

import numpy as np

import tgl
from tgl import analysis, plant, training
from tgl.cli import main as cli_main
from tgl.dataset import Dataset, encode_labels, preprocess, split
from tgl.models import (AUX_DIM, ModelSpec, build_from_spec, forward_batch,
                        load_checkpoint, model_spec, predict, save_checkpoint)
from tgl.optim import AdamConfig
from tgl.rollout import Disturbance, RolloutConfig, rollout
from tgl.tensor import backward, mse_loss
from tgl.topology import HandTopology, SensorNode, propagation_for
from tgl.training import TrainConfig


def _note(msg: str) -> None:
    print(f"[acceptance] {msg}")


def _random_connected_topology(rng: np.random.Generator) -> HandTopology:
    """Random spanning tree over 4..64 nodes plus extra undirected edges."""
    n = int(rng.integers(4, 65))
    edges = {(int(rng.integers(0, i)), i) for i in range(1, n)}
    for _ in range(int(rng.integers(0, 2 * n))):
        i, j = sorted(int(x) for x in rng.integers(0, n, size=2))
        if i != j:
            edges.add((i, j))
    nodes = [SensorNode(k, "patch", "grid", 0, k) for k in range(n)]
    return HandTopology(nodes, sorted(edges))


def test_criterion_01_propagation_operator_properties(default_topo):
    t0 = perf_counter()
    rng = np.random.default_rng(101)
    topologies = [_random_connected_topology(rng) for _ in range(100)]
    topologies.append(default_topo)
    worst_asym, worst_norm = 0.0, 0.0
    for topo in topologies:
        s = propagation_for(topo)
        worst_asym = max(worst_asym, float(np.abs(s - s.T).max()))
        worst_norm = max(worst_norm, float(np.linalg.norm(s, 2)))
        a_hat = topo.adjacency() + np.eye(topo.n)
        d_hat = a_hat.sum(axis=1)
        expected = a_hat / np.sqrt(np.outer(d_hat, d_hat))
        np.testing.assert_allclose(s, expected, rtol=0, atol=1e-15)
    assert worst_asym <= 1e-12
    assert worst_norm <= 1.0 + 1e-10
    pair = HandTopology([SensorNode(0, "patch", "grid", 0, 0),
                         SensorNode(1, "patch", "grid", 0, 1)], [(0, 1)])
    assert np.array_equal(propagation_for(pair), np.full((2, 2), 0.5))
    elapsed = perf_counter() - t0
    _note(f"criterion 1: asym {worst_asym:.2e}, norm {worst_norm:.12f}, "
          f"{elapsed:.2f}s")
    assert elapsed < 10.0


def test_criterion_02_gradient_fidelity_vs_finite_differences(tiny_topo):
    t0 = perf_counter()
    spec = ModelSpec("GCN", (5, 7), (11,))
    data_rng = np.random.default_rng(42)
    h, worst = 1e-5, 0.0
    for draw in range(50):
        params = build_from_spec(spec, tiny_topo, seed=1000 + draw)
        tactile = data_rng.uniform(-1.0, 1.0, (3, tiny_topo.n, 3))
        aux = np.concatenate(
            [data_rng.uniform(-1.0, 1.0, (3, 16)),
             data_rng.integers(0, 2, (3, 6)).astype(float)], axis=1)
        target = data_rng.uniform(-1.0, 1.0, (3, 16))
        backward(mse_loss(forward_batch(params, tactile, aux), target))

        def loss_value() -> float:
            return float(np.mean((predict(params, tactile, aux) - target) ** 2))

        for p in params.parameters():
            analytic = p.grad
            count = min(6, p.value.size)
            for idx in data_rng.choice(p.value.size, size=count, replace=False):
                orig = p.value.flat[idx]
                p.value.flat[idx] = orig + h
                up = loss_value()
                p.value.flat[idx] = orig - h
                down = loss_value()
                p.value.flat[idx] = orig
                fd = (up - down) / (2.0 * h)
                an = float(analytic.flat[idx])
                worst = max(worst, abs(an - fd) / max(abs(an), abs(fd), 1e-6))
    elapsed = perf_counter() - t0
    _note(f"criterion 2: worst relative error {worst:.3e} over 50 draws, "
          f"{elapsed:.2f}s")
    assert worst < 1e-4
    assert elapsed < 60.0


def test_criterion_03_architecture_table_conformance(default_topo):
    table = {
        "I": ("GCN", (14, 28, 56, 112, 112, 112), (8000, 1000, 120, 50), 43030),
        "II": ("GCN", (14, 28, 56, 112), (8000, 1000, 120, 50), 43030),
        "III": ("GCN", (14, 28, 56), (8000, 1000, 120, 50), 21526),
        "IV": ("MLP", (), (1500, 3000, 1500, 700, 350, 100, 50), 1174),
    }
    for name, (kind, conv, fc, fc_input) in table.items():
        spec = model_spec(name)
        assert spec.kind == kind
        assert spec.conv_channels == conv
        assert spec.fc_sizes == fc
        assert spec.fc_input_width(default_topo.n) == fc_input
    mlp = model_spec("IV")
    assert mlp.flat_width(default_topo.n) == default_topo.n * 3 == 1152
    assert AUX_DIM == 16 + 6
    assert mlp.fc_input_width(default_topo.n) == 1152 + 16 + 6 == 1174

    params = build_from_spec(model_spec("IV"), default_topo, seed=0)
    assert params.parameter_count() == 12_104_016
    assert params.fc_weights[-1].value.shape[1] == 16
    # all-zero labels are no valid label vector, so forward would refuse them
    out = predict(params, np.zeros((1, default_topo.n, 3)), np.zeros((1, AUX_DIM)))[0]
    assert out.shape == (16,)
    assert np.all(out == 0.0)
    _note("criterion 3: four model rows conform; full MLP build has "
          f"{params.parameter_count():,} parameters")


def test_criterion_04_preprocessing_conformance(catalog_fixture):
    labels = encode_labels(heavy=True, soft=True, slippery=False)
    assert labels.tolist() == [0, 1, 0, 1, 1, 0]

    ds = catalog_fixture["ds"]
    assert all(len(trial) == 330 for trial in ds.trials)

    ten = Dataset(ds.trials[:10], target_length=330)
    train_pairs, val_pairs = split(ten, seed=0)
    per_trial = 320  # 330 frames, 10-step prediction horizon
    assert len(train_pairs) == 7 * per_trial
    assert len(val_pairs) == 3 * per_trial

    full_train, full_val = split(ds, seed=0)
    n = len(ds.trials)
    ratio = (len(full_train) / per_trial) / n
    assert abs(ratio - 0.700) <= 1.0 / n
    _note(f"criterion 4: labels {labels.tolist()}, 330-step trials, "
          f"split ratios 0.700 and {ratio:.4f} over {n} trials")


def test_criterion_05_overfit_regression(small_topo):
    t0 = perf_counter()
    pcfg = plant.PlantConfig()
    obj = plant.make_object(heavy=False, soft=False, slippery=False, name="overfit")
    pl = plant.make_plant(small_topo, obj, pcfg)
    trials = [plant.generate_trial(pl, seed=s, length=700) for s in (0, 1)]
    ds = Dataset([preprocess(t) for t in trials], target_length=330)
    cfg = TrainConfig(spec=ModelSpec("GCN", (14, 28, 56), (120, 50)),
                      epochs=120, batch_size=100, seed=0,
                      adam=AdamConfig(learning_rate=1e-3))
    first = training.train(ds, cfg, small_topo)
    crossing = next((e for e, v in enumerate(first.train_losses) if v < 1e-3),
                    None)
    assert crossing is not None and crossing < 500
    second = training.train(ds, cfg, small_topo)
    assert second.train_losses == first.train_losses
    elapsed = perf_counter() - t0
    _note(f"criterion 5: train MSE {min(first.train_losses):.2e}, first "
          f"crossing at epoch {crossing}, deterministic, {elapsed:.1f}s")
    assert elapsed < 300.0


def test_criterion_06_capacity_ordering(catalog_fixture):
    val = catalog_fixture["val"]
    med = {name: median(val[(name, seed)] for seed in range(5))
           for name in ("gcn3", "gcn1", "mlp")}
    _note(f"criterion 6: median val MSE gcn3 {med['gcn3']:.5f}, "
          f"gcn1 {med['gcn1']:.5f}, mlp {med['mlp']:.5f}")
    assert med["gcn3"] <= 0.95 * med["gcn1"]
    assert med["gcn3"] <= 0.95 * med["mlp"]


def test_criterion_07_label_conditioning_grip_force(catalog_fixture):
    topo = catalog_fixture["topo"]
    params = catalog_fixture["trained_gcn3"]
    pcfg = plant.PlantConfig()  # noise-free evaluation plant
    obj = plant.make_object(heavy=False, soft=True, slippery=False, name="probe")
    correct = encode_labels(heavy=False, soft=True, slippery=False)
    wrong = encode_labels(heavy=True, soft=False, slippery=False)
    wins, pairs = 0, []
    for seed in range(10):
        traces = []
        for labels in (correct, wrong):
            pl = plant.make_plant(topo, obj, pcfg)
            cfg = RolloutConfig(max_steps=250, labels=labels)
            traces.append(rollout(params, pl, cfg, seed=seed))
        cmp = analysis.compare_force_traces(*(t.grip_forces() for t in traces))
        pairs.append((cmp.mean_final_quarter_a, cmp.mean_final_quarter_b))
        wins += cmp.mean_final_quarter_b > cmp.mean_final_quarter_a
    _note(f"criterion 7: wrong-label force higher in {wins}/10 runs; "
          f"mean pair {np.mean(pairs, axis=0).round(3).tolist()}")
    assert wins >= 9


def test_criterion_08_disturbance_recovery(overfit_fixture):
    fx = overfit_fixture
    successes = 0
    for seed in range(5):
        pl = plant.make_plant(fx["topo"], fx["obj"], fx["pcfg"])
        cfg = RolloutConfig(max_steps=250, labels=fx["obj"].labels,
                            disturbance=Disturbance(step=150, kind="pull_down",
                                                    magnitude=2.0))
        trace = rollout(fx["params"], pl, cfg, seed=seed)
        successes += trace.verdict.success
    _note(f"criterion 8: {successes}/5 runs recover from a mid-rollout pull")
    assert successes >= 4


def test_criterion_09_node_feature_pca(catalog_fixture):
    rng = np.random.default_rng(5)
    labels = ([("f0", "fingertip")] * 5 + [("f1", "fingertip")] * 5
              + [("palm", "palm")] * 6)
    centers = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]])
    rows = [centers[g] + 0.1 * rng.normal(size=(5 if g < 2 else 6, 2))
            for g in range(3)]
    blob = analysis.NodeFeatureStack(
        features=np.concatenate([np.concatenate(rows),
                                 rng.normal(size=(16, 6)) * 0.01], axis=1),
        node_labels=labels)
    separable = analysis.pca_node_map(blob)
    assert separable.coordinates.shape == (16, 2)
    assert separable.silhouette is not None and separable.silhouette > 0.5

    topo, ds = catalog_fixture["topo"], catalog_fixture["ds"]
    spec = catalog_fixture["specs"]["gcn3"]
    window = (285, 330)
    trained_stack = analysis.extract_node_features(
        catalog_fixture["trained_gcn3"], topo, ds.trials[:8], window)
    fresh_stack = analysis.extract_node_features(
        build_from_spec(spec, topo, seed=1), topo, ds.trials[:8], window)
    trained = analysis.pca_node_map(trained_stack)
    fresh = analysis.pca_node_map(fresh_stack)
    assert trained.coordinates.shape == (topo.n, 2)
    assert trained.silhouette is not None and fresh.silhouette is not None
    _note(f"criterion 9: separable silhouette {separable.silhouette:.3f}; "
          f"trained {trained.silhouette:.4f} > fresh {fresh.silhouette:.4f}")
    assert trained.silhouette > fresh.silhouette


def _assert_params_bitwise_equal(a, b) -> None:
    pa, pb = a.parameters(), b.parameters()
    assert len(pa) == len(pb)
    for x, y in zip(pa, pb):
        assert x.value.tobytes() == y.value.tobytes()
        for mx, my in ((x.adam_m, y.adam_m), (x.adam_v, y.adam_v)):
            if mx is None or my is None:
                assert mx is None and my is None
            else:
                assert mx.tobytes() == my.tobytes()
        assert x.step_count == y.step_count


def test_criterion_10_determinism_and_round_trips(overfit_fixture, tmp_path):
    fx = overfit_fixture
    ckpt = str(tmp_path / "model.ckpt.json")
    save_checkpoint(fx["params"], ckpt)
    loaded, _ = load_checkpoint(ckpt, fx["topo"])
    _assert_params_bitwise_equal(fx["params"], loaded)

    cfg = TrainConfig(spec=ModelSpec("GCN", (5, 9), (30,)), epochs=20,
                      batch_size=100, seed=3,
                      adam=AdamConfig(learning_rate=1e-3))
    full_dir, half_dir, resume_dir = (str(tmp_path / d)
                                      for d in ("full", "half", "resumed"))
    training.train(fx["ds"], cfg, fx["topo"], out_dir=full_dir)
    half_cfg = TrainConfig(spec=cfg.spec, epochs=10, batch_size=100, seed=3,
                           adam=cfg.adam)
    training.train(fx["ds"], half_cfg, fx["topo"], out_dir=half_dir)
    training.train(fx["ds"], half_cfg, fx["topo"], out_dir=resume_dir,
                   resume_from=training.resume_point(f"{half_dir}/final.ckpt.json", fx["topo"]))
    straight, _ = load_checkpoint(f"{full_dir}/final.ckpt.json", fx["topo"])
    resumed, extra = load_checkpoint(f"{resume_dir}/final.ckpt.json", fx["topo"])
    assert extra["epoch"] == 20
    _assert_params_bitwise_equal(straight, resumed)

    gen = ["gen-data", "--topology", "small", "--objects", "1", "--trials-per",
           "2", "--seed", "9", "--length", "700"]
    run_a, run_b = str(tmp_path / "a"), str(tmp_path / "b")
    assert cli_main(gen + ["--out", run_a]) == 0
    assert cli_main(gen + ["--out", run_b]) == 0
    manifest = (tmp_path / "a" / "manifest.json").read_bytes()
    assert manifest == (tmp_path / "b" / "manifest.json").read_bytes()
    for name in json.loads(manifest)["outputs"]:
        assert ((tmp_path / "a" / name).read_bytes()
                == (tmp_path / "b" / name).read_bytes())
    _note("criterion 10: checkpoint round-trip, resumed == straight run, "
          "identical manifests and artifacts")
