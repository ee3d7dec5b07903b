"""Shared fixtures.

The session-scoped ones at the bottom train real models and are shared by
the acceptance suite; unit-test modules stick to cheap local setups.
"""
from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from multiprocessing import get_context

import pytest
from hypothesis import settings

import tgl
from tgl.dataset import Dataset, preprocess, split
from tgl.models import ModelParams
from tgl.plant import (PlantConfig, generate_dataset_trials, generate_trial,
                       make_object, make_plant, object_catalog)
from tgl.topology import HandTopology, SensorNode
from tgl.training import TrainConfig, fit_pairs

# property tests draw the same examples on every run and keep no example database
settings.register_profile("tgl", derandomize=True, database=None, deadline=None)
settings.load_profile("tgl")

_module_seconds: dict[str, float] = {}


def pytest_runtest_logreport(report):
    """Sum setup, call and teardown time per module; a shared fixture counts where it is built."""
    module = report.nodeid.split("::", 1)[0]
    _module_seconds[module] = _module_seconds.get(module, 0.0) + report.duration


def pytest_terminal_summary(terminalreporter):
    if not _module_seconds:
        return
    terminalreporter.section("wall time per test module")
    for module, seconds in sorted(_module_seconds.items(), key=lambda kv: -kv[1]):
        terminalreporter.write_line(f"{seconds:8.1f} s  {module}")
    terminalreporter.write_line(f"{sum(_module_seconds.values()):8.1f} s  total")


# toy-scale training setup used everywhere a real model is needed quickly
TOY_ADAM = tgl.AdamConfig(learning_rate=1e-3)
TOY_GCN3 = tgl.ModelSpec("GCN", (14, 28, 56), (120, 50))


def build_tiny_topology() -> HandTopology:
    """Six nodes: two 2-node finger strips bridged to a 2-node palm."""
    nodes = [
        SensorNode(0, "proximal_lower", "f0", 0, 0),
        SensorNode(1, "fingertip", "f0", 1, 0),
        SensorNode(2, "proximal_lower", "f1", 0, 0),
        SensorNode(3, "fingertip", "f1", 1, 0),
        SensorNode(4, "palm", "palm", 0, 0),
        SensorNode(5, "palm", "palm", 1, 0),
    ]
    edges = [(0, 1), (2, 3), (4, 5), (0, 4), (2, 5)]
    return HandTopology(nodes, edges)


@pytest.fixture(scope="session")
def tiny_topo() -> HandTopology:
    return build_tiny_topology()


@pytest.fixture(scope="session")
def small_topo() -> HandTopology:
    return tgl.build_small_hand()


@pytest.fixture(scope="session")
def default_topo() -> HandTopology:
    return tgl.build_default_hand()


@pytest.fixture(scope="session")
def overfit_fixture() -> dict:
    """One noise-free object, two demonstrations, a model overfit to them."""
    topo = tgl.build_small_hand()
    pcfg = PlantConfig()
    obj = make_object(heavy=False, soft=False, slippery=False, name="fixture")
    pl = make_plant(topo, obj, pcfg)
    trials = [generate_trial(pl, seed=s, length=700) for s in (0, 1)]
    ds = Dataset([preprocess(t) for t in trials], target_length=330)
    tr, va = split(ds, seed=0)
    params = tgl.build_from_spec(TOY_GCN3, topo, seed=0)
    report = fit_pairs(
        params, tr, va,
        TrainConfig(spec=TOY_GCN3, epochs=300, batch_size=100, seed=0, adam=TOY_ADAM))
    return {"topo": topo, "pcfg": pcfg, "obj": obj, "plant": pl, "ds": ds,
            "spec": TOY_GCN3, "params": params, "report": report}


def _train_catalog_model(ds: Dataset, topo: HandTopology, spec, seed: int, keep: bool):
    """One catalog training: its last val loss, and with `keep` its buffer and step counts."""
    tr, va = split(ds, seed=seed)
    params = tgl.build_from_spec(spec, topo, seed=seed)
    report = fit_pairs(params, tr, va,
                       TrainConfig(spec=spec, epochs=50, batch_size=100, seed=seed,
                                   adam=TOY_ADAM))
    return report.val_losses[-1], \
        (params.buffer, [p.step_count for p in params.parameters()]) if keep else None


@pytest.fixture(scope="session")
def catalog_fixture() -> dict:
    """Noisy eight-object dataset and a 5-seed sweep of three model families.

    Everything is seeded, so the validation losses recorded here are exact
    constants of the codebase.  The 15 trainings run on 2 worker processes,
    each with numpy's OpenBLAS on one thread as in this one, so every loss
    has the bits it would have here.
    """
    topo = tgl.build_small_hand()
    pcfg = replace(PlantConfig(), sensor_noise=0.15)
    trials = generate_dataset_trials(topo, object_catalog(), 3,
                                     seed=11, length=700, cfg=pcfg)
    ds = Dataset([preprocess(t) for t in trials], target_length=330)
    specs = {
        "gcn3": TOY_GCN3,
        "gcn1": tgl.ModelSpec("GCN", (56,), (120, 50)),
        "mlp": tgl.ModelSpec("MLP", (), (512, 256)),
    }
    with ProcessPoolExecutor(max_workers=2, mp_context=get_context("spawn")) as pool:
        runs = {(name, seed): pool.submit(_train_catalog_model, ds, topo, spec, seed,
                                          (name, seed) == ("gcn3", 0))
                for name, spec in specs.items() for seed in range(5)}
        done = {job: run.result() for job, run in runs.items()}
    val = {job: loss for job, (loss, _) in done.items()}
    buffer, steps = done["gcn3", 0][1]
    trained_gcn3 = ModelParams(spec=TOY_GCN3, topology=topo, seed=0, buffer=buffer)
    for p, count in zip(trained_gcn3.parameters(), steps):
        p.step_count = count
    return {"topo": topo, "pcfg": pcfg, "ds": ds, "specs": specs, "val": val,
            "trained_gcn3": trained_gcn3}
