"""The benchmark still drives tgl, and its layer tracer still finds the calls it wraps.

`bench/pipeline.py` calls tgl's public functions the way the CLI does, so a
refactor that removes a name or a parameter it passes breaks the benchmark.
`bench/spans.py` times layers by swapping wrappers into the namespaces of
the tgl modules that make each call (`training.adam_step`,
`models.propagation_for`, ...).  A refactor that moves one of those calls
would leave its span silent.  Without these tests only a benchmark run
would notice either.
"""
from __future__ import annotations

import importlib.util
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from tgl import AdamConfig, ModelSpec, build_from_spec
from tgl.dataset import HORIZON, PairSet, Trial
from tgl.training import TrainConfig, evaluate, fit_pairs

SPANS_PY = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
PIPELINE_PY = SPANS_PY.with_name("pipeline.py")
HOOKED = ("topology.propagation", "models.propagate", "models.channel_mix", "models.fc",
          "optim.adam_step", "models.save_checkpoint", "models.load_checkpoint")


def _load(path: Path):
    spec = importlib.util.spec_from_file_location(f"bench_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module   # dataclasses look up their module there
    spec.loader.exec_module(module)
    return module


def test_benchmark_pipeline_passes_its_checks(tmp_path):
    """The untraced smoke pass of the train-24 workload, as `bench/run.py --smoke` runs it."""
    bench = _load(PIPELINE_PY)
    run = bench.Pipeline(bench.smoke_plan(bench.WORKLOADS["train-24"]), 5, 0.5, str(tmp_path))
    run.run()
    failed = [name for name, ok in run.checks if not ok]
    assert run.checks and not failed, failed


# per-layer metrics of the training step and its layers, which a silent span leaves NaN
TRACED = ("models.propagate_ms", "models.channel_mix_ms", "models.fc_ms",
          "models.forward_batch_ms", "tensor.backward_ms", "tensor.mse_loss_ms",
          "optim.adam_step_ms", "training.step_ms_p50")


def test_the_traced_benchmark_times_every_layer(tmp_path):
    """The traced smoke pass of the train-24 workload, as `bench/run.py --trace 1 --smoke` runs it."""
    bench, spans = _load(PIPELINE_PY), _load(SPANS_PY)
    tracer = spans.Tracer()
    run = bench.Pipeline(bench.smoke_plan(bench.WORKLOADS["train-24"]), 5, 0.0, str(tmp_path),
                         tracer, min_samples=bench.TRACE_SAMPLES)
    with spans.installed(tracer):
        run.run()
    failed = [name for name, ok in run.checks if not ok]
    assert run.checks and not failed, failed
    metrics, _ = spans.layer_metrics(tracer)
    silent = [name for name in TRACED if not math.isfinite(metrics[name])]
    assert not silent, silent


@pytest.mark.parametrize("topo_name", ["tiny_topo", "default_topo"])
def test_every_hooked_span_fires(tmp_path, request, topo_name):
    """On the 6-node graph S·H runs on BLAS, on the 384-node hand on the CSR op."""
    topo = request.getfixturevalue(topo_name)
    spans = _load(SPANS_PY)
    rng = np.random.default_rng(0)
    labels = np.array([1.0, 0.0, 1.0, 0.0, 1.0, 0.0])
    length = 8 + HORIZON   # 8 pairs
    pairs = PairSet([Trial("random", np.arange(length), rng.normal(size=(length, 16)),
                           rng.normal(size=(length, topo.n, 3)), labels)])
    spec = ModelSpec("GCN", (4,), (8,))
    cfg = TrainConfig(spec=spec, epochs=1, batch_size=8, adam=AdamConfig(learning_rate=1e-3))
    with spans.installed(spans.Tracer()) as tracer:
        params = build_from_spec(spec, topo, seed=0)
        report = fit_pairs(params, pairs, None, cfg, str(tmp_path))
        evaluate(report.final_checkpoint, pairs, topo)
    fired = {name for name, *_ in tracer.spans}
    assert fired >= set(HOOKED), sorted(set(HOOKED) - fired)
