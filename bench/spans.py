"""Outside-in layer tracing for the pipeline benchmark.

A `Tracer` records spans (name, start, end, parent, stage, attributes) in
memory.  `installed(tracer)` swaps wrappers into the namespace of the tgl
module that makes each call, so only calls that cross a layer boundary are
timed; everything is restored on exit.  `layer_metrics` turns the spans of
one traced pipeline pass into the per-layer metrics of BENCHMARK.json.
"""
from __future__ import annotations

import json
import math
import os
import statistics
import sys
from contextlib import contextmanager
from time import perf_counter

import numpy as np

import tgl.analysis
import tgl.dataset
import tgl.models
import tgl.plant
import tgl.tensor
import tgl.training

# Adam reads value, grad and both moments and writes value and both moments:
# seven float64 streams per parameter element (computed, not measured).
ADAM_BYTES_PER_ELEMENT = 7 * 8


class Tracer:
    """In-memory span recorder; spans are lists so the hot path stays cheap."""

    def __init__(self):
        self.origin = perf_counter()
        self.spans: list[list] = []   # [name, start, end, parent, stage, attrs]
        self.stage = ""
        self.tensors = 0              # Tensor constructions seen so far
        self.records = 0              # TrajectoryRecord constructions seen so far
        self.params = None            # model of the innermost wrapped model call
        self._stack: list[int] = []

    def _open(self, name: str, attrs: dict) -> list:
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.stage, attrs]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = perf_counter()
        return rec

    def _close(self, rec: list) -> None:
        rec[2] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str, **attrs):
        """Span around a call made from the benchmark's own code; yields its attrs."""
        rec = self._open(name, attrs)
        records = self.records
        try:
            yield attrs
        finally:
            self._close(rec)
            attrs["records"] = self.records - records

    def wrap(self, fn, name, model=False, post=None):
        """Time every call of fn; name is a label or a function of the call's args.

        With model=True the first argument is the model, which classify_matmul
        reads while the call runs.
        """
        def wrapper(*args, **kwargs):
            label, attrs = name(args) if callable(name) else (name, {})
            outer = self.params
            if model:
                self.params = args[0]
            rec = self._open(label, attrs)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(rec)
                self.params = outer
            if post is not None:
                post(attrs, args, out)
            return out
        return wrapper

    def classify_matmul(self, args):
        """Label a models.matmul call by its operands' identity in the running model."""
        a, b, params = args[0], args[1], self.params
        if params is not None and a is params.s_tensor:
            label = "models.propagate"
        elif params is not None and any(b is w.value for w in params.conv_weights):
            label = "models.channel_mix"
        else:
            label = "models.fc"
        # the models' matmuls broadcast a 2-D operand against a batched one
        batch = math.prod(a.shape[:-2] if a.ndim >= b.ndim else b.shape[:-2])
        return label, {"flops": 2 * batch * a.shape[-2] * b.shape[-1] * a.shape[-1]}

    def write(self, path: str) -> None:
        with open(path, "w") as f:
            json.dump({"fields": ["name", "start_s", "end_s", "parent", "stage", "attrs"],
                       "spans": [[n, s - self.origin, e - self.origin, p, st, a]
                                 for n, s, e, p, st, a in self.spans]}, f)


def _mark_training(attrs, args, out) -> None:
    attrs["train"] = bool(out.requires_grad)


def _checkpoint_bytes(attrs, args, out) -> None:
    path = args[1]
    with open(path) as f:
        blob = json.load(f)["blob"]
    attrs["bytes"] = os.path.getsize(path) + os.path.getsize(
        os.path.join(os.path.dirname(path) or ".", blob))


@contextmanager
def installed(tracer: Tracer):
    """Install the wrappers for the duration of one traced pass."""
    # the package attribute tgl.rollout is the function, so take the module itself
    rollout_mod = sys.modules["tgl.rollout"]

    def after_adam(attrs, args, out):
        attrs["tensors"] = tracer.tensors
        attrs["elements"] = sum(p.value.size for p in args[0])

    # (module, attribute, span name, first argument is the model, post hook)
    targets = [
        (tgl.training, "forward_batch", "models.forward_batch", True, _mark_training),
        (tgl.training, "mse_loss", "tensor.mse_loss", False, None),
        (tgl.training, "backward", "tensor.backward", False, None),
        (tgl.training, "adam_step", "optim.adam_step", False, after_adam),
        (tgl.training, "save_checkpoint", "models.save_checkpoint", False, _checkpoint_bytes),
        (tgl.training, "load_checkpoint", "models.load_checkpoint", False, None),
        (tgl.models, "matmul", tracer.classify_matmul, False, None),
        (tgl.models, "propagation_for", "topology.propagation", False, None),
        (tgl.analysis, "conv_features", "analysis.conv_features", True, None),
        (tgl.analysis, "pca", "pca.pca", False, None),
        (tgl.analysis, "silhouette", "analysis.silhouette", False, None),
        (tgl.plant, "generate_trial", "plant.generate_trial", False, None),
        (rollout_mod, "forward", "models.forward", True, None),
        (rollout_mod, "plant_step", "plant.plant_step", False, None),
    ]
    tensor_cls, record_cls = tgl.tensor.Tensor, tgl.dataset.TrajectoryRecord
    tensor_init, record_post_init = tensor_cls.__init__, record_cls.__post_init__

    def counting_tensor_init(obj, *args, **kwargs):
        tracer.tensors += 1
        tensor_init(obj, *args, **kwargs)

    def counting_record_post_init(obj):
        tracer.records += 1
        record_post_init(obj)

    saved = [(mod, attr, getattr(mod, attr)) for mod, attr, *_ in targets]
    try:
        for (mod, attr, name, model, post), (_, _, fn) in zip(targets, saved):
            setattr(mod, attr, tracer.wrap(fn, name, model, post))
        tensor_cls.__init__ = counting_tensor_init
        record_cls.__post_init__ = counting_record_post_init
        yield tracer
    finally:
        for mod, attr, fn in saved:
            setattr(mod, attr, fn)
        tensor_cls.__init__ = tensor_init
        record_cls.__post_init__ = record_post_init


# ---------------------------------------------------------------------------
# per-layer metrics from the spans of one traced pass

def _median(values) -> float:
    return float(statistics.median(values)) if len(values) else math.nan


def _pct(values, q) -> float:
    return float(np.percentile(values, q)) if len(values) else math.nan


def layer_metrics(tracer: Tracer) -> tuple[dict[str, float], dict[str, int]]:
    """Per-layer values (ms unless the name says otherwise) and their sample counts.

    A metric whose spans never fired is NaN, so a wrapper that stops
    matching fails the run instead of reading as a gain.
    """
    spans = tracer.spans
    dur = [(e - s) * 1e3 for _, s, e, *_ in spans]
    children: dict[int, list[int]] = {}
    for i, (_, _, _, parent, *_rest) in enumerate(spans):
        children.setdefault(parent, []).append(i)

    def pick(name, stage=None):
        return [i for i, (n, _, _, _, st, _) in enumerate(spans)
                if n == name and (stage is None or st == stage)]

    def ms(name, stage=None):
        return [dur[i] for i in pick(name, stage)]

    timed = "train"
    train_fwd = [i for i in pick("models.forward_batch", timed) if spans[i][5]["train"]]
    layer_ms, layer_flops = {}, {}
    for kind in ("propagate", "channel_mix", "fc"):
        per_step, flops, secs = [], 0, 0.0
        for f in train_fwd:
            kids = [c for c in children.get(f, []) if spans[c][0] == f"models.{kind}"]
            if not kids:
                continue
            per_step.append(sum(dur[c] for c in kids))
            flops += sum(spans[c][5]["flops"] for c in kids)
            secs += sum(dur[c] for c in kids) / 1e3
        layer_ms[kind], layer_flops[kind] = per_step, (flops, secs)

    adam = pick("optim.adam_step", timed)
    # Tensors built from one Adam step to the next within the same fit_pairs call
    tensors_per_step = [spans[j][5]["tensors"] - spans[i][5]["tensors"]
                        for i, j in zip(adam, adam[1:]) if spans[i][3] == spans[j][3]]
    adam_ms = [dur[i] for i in adam]
    adam_bytes = spans[adam[0]][5]["elements"] * ADAM_BYTES_PER_ELEMENT if adam else 0

    # a training step runs from its forward pass to the end of its Adam update
    steps, start = [], None
    for i, (n, s, e, _, st, a) in enumerate(spans):
        if st != timed:
            continue
        if n == "models.forward_batch" and a["train"]:
            start = s
        elif n == "optim.adam_step" and start is not None:
            steps.append((e - start) * 1e3)
            start = None
    fit_self = sum(dur[i] - sum(dur[c] for c in children.get(i, []))
                   for i in pick("training.fit_pairs", timed))

    # a rollout step ends when its plant step does
    rollout_steps = []
    for r in pick("rollout.rollout", "rollout"):
        ends = [spans[c][2] for c in children.get(r, []) if spans[c][0] == "plant.plant_step"]
        rollout_steps.extend((b - a) * 1e3 for a, b in zip(ends, ends[1:]))

    def mb_per_s(name):
        idx = pick(name, "ingest")
        secs = sum(dur[i] for i in idx) / 1e3
        return sum(spans[i][5]["bytes"] for i in idx) / 1e6 / secs if secs else math.nan

    def gflops(kind):
        flops, secs = layer_flops[kind]
        return flops / secs / 1e9 if secs else math.nan

    ckpt = pick("models.save_checkpoint")
    reads = pick("dataset.read_trial_csv", "ingest")
    metrics = {
        "topology.build_ms": _median(ms("topology.build", "setup")),
        "topology.propagation_ms": _median(ms("topology.propagation", "setup")),
        "tensor.backward_ms": _median(ms("tensor.backward", timed)),
        "tensor.mse_loss_ms": _median(ms("tensor.mse_loss", timed)),
        "tensor.tensors_per_step": _median(tensors_per_step),
        "models.propagate_ms": _median(layer_ms["propagate"]),
        "models.propagate_gflops": gflops("propagate"),
        "models.channel_mix_ms": _median(layer_ms["channel_mix"]),
        "models.fc_ms": _median(layer_ms["fc"]),
        "models.forward_batch_ms": _median([dur[i] for i in train_fwd]),
        "models.forward_ms": _median(ms("models.forward", "rollout")),
        "models.save_checkpoint_ms": _median([dur[i] for i in ckpt]),
        "models.checkpoint_mb": _median([spans[i][5]["bytes"] for i in ckpt]) / 1e6,
        "models.load_checkpoint_ms": _median(ms("models.load_checkpoint", "eval")),
        "optim.adam_step_ms": _median(adam_ms),
        "optim.adam_gb_per_s": adam_bytes / _median(adam_ms) / 1e6,
        "training.step_ms_p50": _pct(steps, 50),
        "training.step_ms_p90": _pct(steps, 90),
        "training.self_ms": fit_self / len(steps) if steps else math.nan,
        "dataset.write_trial_csv_ms": _median(ms("dataset.write_trial_csv", "ingest")),
        "dataset.csv_write_mb_per_s": mb_per_s("dataset.write_trial_csv"),
        "dataset.read_trial_csv_ms": _median([dur[i] for i in reads]),
        "dataset.csv_read_mb_per_s": mb_per_s("dataset.read_trial_csv"),
        "dataset.preprocess_ms": _median(ms("dataset.preprocess")),
        "dataset.pairset_ms": _median(ms("dataset.pairset", "setup")),
        "dataset.records_per_trial": _median([spans[i][5]["records"] for i in reads]),
        "plant.generate_trial_ms": _median(ms("plant.generate_trial")),
        "plant.plant_step_ms": _median(ms("plant.plant_step", "rollout")),
        "rollout.step_ms_p50": _pct(rollout_steps, 50),
        "rollout.step_ms_p99": _pct(rollout_steps, 99),
        "rollout.write_trace_ms": _median(ms("rollout.write_trace", "rollout")),
        "analysis.extract_node_features_ms": _median(ms("analysis.extract_node_features", "pca")),
        "analysis.silhouette_ms": _median(ms("analysis.silhouette", "pca")),
        "pca.pca_ms": _median(ms("pca.pca", "pca")),
    }
    samples = {"training_steps": len(steps), "adam_steps": len(adam_ms),
               "rollout_steps": len(rollout_steps), "csv_reads": len(reads),
               "checkpoint_writes": len(ckpt), "spans": len(spans)}
    return metrics, samples
