"""The benchmark's workloads: the tgl pipeline driven through its public functions.

Every workload runs every stage, the way `tgl gen-data`, `train`, `eval`,
`pca` and `rollout` call the library, so every end-to-end metric is measured
on every workload.  After one setup and a warm-up, samples of every stage
(setup, a training epoch, ingest, eval, pca, rollout) interleave.  Every stage
takes at least MIN_SAMPLES samples over at least MIN_SECONDS; training
samples for --seconds / 2 and ingest for --seconds.  Ingest reports trials
over total time, every other stage the median of its samples.  All inputs
derive from the workload seed.
"""
from __future__ import annotations

import json
import math
import os
import shutil
import statistics
from contextlib import nullcontext
from dataclasses import dataclass, replace
from time import perf_counter

import numpy as np

import tgl
from tgl import dataset, models, plant, topology, training
from tgl.rollout import Disturbance, RolloutConfig, rollout, write_trace

TOY_GCN = tgl.ModelSpec("GCN", (14, 28, 56), (120, 50))
LEARNING_RATE = 1e-3
BATCH_SIZE = 100
SENSOR_NOISE = 0.15
PCA_WINDOW = 45          # final preprocessed steps fed to the node-feature PCA
SETUP_REPS = 3
MIN_SAMPLES = 5          # samples (epochs, for training) behind every median but setup's
TRACE_SAMPLES = 3        # the same for the traced pass, which only has to fire every span
MIN_SECONDS = 2.0        # least time a stage samples for, capped at --seconds
INGEST_TRIALS = 2        # trials per load; split needs two
# (kind, magnitude) cycled over rollouts; the pull lands at 3/5 of the rollout
DISTURBANCES = (None, ("pull_down", 2.0), ("pull_side", 30.0))
RELATIVE_TOLERANCE = 1e-9


@dataclass(frozen=True)
class Plan:
    hand: str            # "default" (384 nodes) or "small" (24 nodes)
    objects: int         # catalog objects in the training set, one radius draw each
    trials_per: int
    length: int = 700    # steps per generated trial, for training and ingest alike
    target_length: int = 330
    rollout_steps: int = 250
    pca_trials: int = 0  # training trials fed to the pca stage; 0 means all
    spec: tgl.ModelSpec = TOY_GCN


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    "train-384": Plan(hand="default", objects=4, trials_per=1, pca_trials=2),
    "train-24": Plan(hand="small", objects=8, trials_per=3),
}


def smoke_plan(plan: Plan) -> Plan:
    """The same stages at a size that runs in about a second, for the harness test."""
    return replace(plan, hand="small", objects=2, trials_per=1, length=200, target_length=120,
                   rollout_steps=20, pca_trials=0, spec=tgl.ModelSpec("GCN", (4, 8), (16,)))


@dataclass
class State:
    topo: topology.HandTopology
    catalog: list
    plants: list
    ds: dataset.Dataset
    train_pairs: list
    val_pairs: list
    train_set: dataset.PairSet
    val_set: dataset.PairSet
    params: tgl.ModelParams


def _no_span(name, **attrs):
    return nullcontext(attrs)


def reference_mse(params, topo, val_set) -> float:
    """Independent dense forward, relu(S @ H @ W) per conv layer then the fc stack."""
    a_hat = np.eye(topo.n)
    for i, j in topo.edges:
        a_hat[i, j] = a_hat[j, i] = 1.0
    d = a_hat.sum(axis=1)
    s = a_hat / np.sqrt(np.outer(d, d))
    h = val_set.tactile
    for w in params.conv_weights:
        h = np.maximum(s @ h @ w.value.data, 0.0)
    x = np.concatenate([h.reshape(len(h), -1), val_set.joints, val_set.labels], axis=1)
    last = len(params.fc_weights) - 1
    for i, (w, b) in enumerate(zip(params.fc_weights, params.fc_biases)):
        x = x @ w.value.data + b.value.data
        if i != last:
            x = np.maximum(x, 0.0)
    diff = x - val_set.targets
    return float(np.mean(diff * diff))


def _trial_arrays(trial) -> list:
    return [np.array([r.t for r in trial.records]), trial.joints_array(),
            trial.tactile_array(), trial.labels]


def _trace_arrays(trace) -> list:
    steps, v = trace.steps, trace.verdict
    return [np.array([s.t for s in steps]), np.stack([s.commanded for s in steps]),
            np.stack([s.state.joints for s in steps]), np.stack([s.tactile for s in steps]),
            np.stack([s.state.contact_map for s in steps]), trace.heights(), trace.tilts(),
            trace.grip_forces(), np.array([s.state.clamped for s in steps]),
            np.array([v.success, v.final_distance, v.final_angle])]


def _same(a: list, b: list) -> bool:
    return len(a) == len(b) and all(np.array_equal(x, y) for x, y in zip(a, b))


def _close(value: float, ref: float) -> bool:
    return abs(value - ref) <= RELATIVE_TOLERANCE * abs(ref)


class Pipeline:
    """One pass over every stage; fills `metrics` (end to end) and `checks`."""

    def __init__(self, plan: Plan, seed: int, seconds: float, workdir: str, tracer=None,
                 min_samples: int = MIN_SAMPLES):
        self.plan, self.seed, self.seconds, self.workdir = plan, seed, seconds, workdir
        self.min_samples = min_samples
        self.tracer = tracer
        self.span = tracer.span if tracer is not None else _no_span
        self.pcfg = replace(plant.PlantConfig(), sensor_noise=SENSOR_NOISE)
        self.train_cfg = training.TrainConfig(
            spec=plan.spec, batch_size=BATCH_SIZE, epochs=1,
            adam=tgl.AdamConfig(learning_rate=LEARNING_RATE), seed=seed)
        self.metrics: dict[str, float] = {}
        self.samples: dict[str, list[float]] = {}   # every stage's samples, as measured
        self.checks: list[tuple[str, bool]] = []
        self._losses: list[tuple[float, float]] = []   # (train, val): warm-up, then each epoch
        self._mses: list[float] = []
        self._node_map = self._first_trace = None
        self._ingested: dict[int, tuple] = {}   # file slot -> (trial, path) last written there

    def _stage(self, name: str) -> None:
        if self.tracer is not None:
            self.tracer.stage = name

    def check(self, name: str, ok: bool) -> None:
        self.checks.append((name, bool(ok)))

    def _interleave(self, steps: dict, need: dict, floor: dict) -> dict[str, list]:
        """Sample the stages in turn, least progressed first, until each is done.

        A stage is done once it has its `need` of samples and has sampled for
        its `floor` of seconds.  Spreading every stage's samples over the
        whole run keeps a burst of load from other tenants from landing on
        one stage alone.
        """
        samples = {name: [] for name in steps}
        spent = dict.fromkeys(steps, 0.0)

        def progress(n):
            time_share = spent[n] / floor[n] if floor[n] else math.inf
            return min(len(samples[n]) / need[n], time_share)

        while True:
            name = min(steps, key=progress)
            if progress(name) >= 1.0:
                break
            self._stage(name)
            t0 = perf_counter()
            samples[name].append(steps[name](len(samples[name])))
            spent[name] += perf_counter() - t0
        return samples

    def run(self) -> None:
        self._stage("setup")
        t0 = perf_counter()
        state = self._build()
        first_setup = perf_counter() - t0
        ckpt, model = self._warm_up(state)
        self._ingested[1] = self._write_trial(state, -1)   # the file round 0 loads beside its own
        steps = {
            "setup": lambda i: self._time_build(),
            "train": lambda i: self._epoch(state, i),
            "ingest": lambda i: self._ingest(state, i),
            "eval": lambda i: self._evaluate(state, ckpt),
            "pca": lambda i: self._pca(state, model),
            "rollout": lambda i: self._rollout_rate(state, model, i),
        }
        # Rollouts cost more per step on some objects than on others, so they come
        # in whole cycles of the catalog: a count that followed the machine's
        # speed would change which objects the median is taken over.
        need = dict.fromkeys(steps, self.min_samples) | {"setup": SETUP_REPS - 1,
                                                    "rollout": len(state.catalog)}
        # The CSV codec's speed swings most with the machine's (up to 2x within
        # seconds), so ingest samples longest, spread over the whole run.
        floor = dict.fromkeys(steps, min(MIN_SECONDS, self.seconds)) | {
            "setup": 0.0, "rollout": 0.0, "train": self.seconds / 2, "ingest": self.seconds}
        samples = self._interleave(steps, need, floor)
        samples["setup"].insert(0, first_setup)
        gen, load = zip(*samples["ingest"])
        # trials over the time they took, which follows the machine's mean speed
        # over the run; a median of rates flips as its fast and slow spells mix
        self.metrics.update(setup_s=statistics.median(samples["setup"]),
                            train_pairs_per_s=len(state.train_set) / statistics.median(
                                samples["train"]),
                            gen_trials_per_s=statistics.harmonic_mean(gen),
                            load_trials_per_s=statistics.harmonic_mean(load),
                            eval_pairs_per_s=statistics.median(samples["eval"]),
                            pca_s=statistics.median(samples["pca"]),
                            rollout_steps_per_s=statistics.median(samples["rollout"]))
        self.samples = {name: got for name, got in samples.items() if name != "ingest"} | {
            "gen": list(gen), "load": list(load)}
        self._stage("check")
        self._check_outputs(state, model)
        self._stage("")

    # -- stages -------------------------------------------------------------------

    def _build(self) -> State:
        p = self.plan
        with self.span("topology.build"):
            topo = topology.build_default_hand() if p.hand == "default" \
                else topology.build_small_hand()
        catalog = plant.object_catalog(self.pcfg)
        with self.span("plant.generate_dataset_trials"):
            trials = plant.generate_dataset_trials(topo, catalog[:p.objects], p.trials_per,
                                                   seed=self.seed, length=p.length, cfg=self.pcfg)
        pre = []
        for trial in trials:
            with self.span("dataset.preprocess"):
                pre.append(dataset.preprocess(trial, p.target_length))
        ds = dataset.Dataset(pre, target_length=p.target_length)
        with self.span("dataset.split"):
            train_pairs, val_pairs = dataset.split(ds, self.seed)
        with self.span("dataset.pairset"):
            train_set, val_set = dataset.PairSet(train_pairs), dataset.PairSet(val_pairs)
        with self.span("models.build"):
            params = tgl.build_from_spec(p.spec, topo, self.seed)
        plants = [plant.make_plant(topo, obj, self.pcfg) for obj in catalog]
        return State(topo, catalog, plants, ds, train_pairs, val_pairs, train_set, val_set,
                     params)

    def _time_build(self) -> float:
        """One more setup, timed and thrown away."""
        t0 = perf_counter()
        self._build()
        return perf_counter() - t0

    def _warm_up(self, state: State):
        """One epoch over a single batch, which runs every code path of an epoch once.

        Its final checkpoint is the fixed model that the eval, pca and
        rollout stages use while training goes on.
        """
        self._stage("train.warmup")
        out = os.path.join(self.workdir, "warmup")
        os.makedirs(out, exist_ok=True)
        with self.span("training.fit_pairs"):
            warm = training.fit_pairs(state.params, dataset.PairSet(state.train_pairs[:BATCH_SIZE]),
                                      dataset.PairSet(state.val_pairs[:BATCH_SIZE]),
                                      self.train_cfg, out)
        self._losses.append((warm.train_losses[0], warm.val_losses[0]))
        model, _ = models.load_checkpoint(warm.final_checkpoint, state.topo)
        return warm.final_checkpoint, model

    def _epoch(self, state: State, e: int) -> float:
        """Epoch e of the training run, as `tgl train` resumed for one epoch runs it.

        The sample is the epoch's wall time as fit_pairs logs it: training,
        validation and the best-checkpoint write, but not the final
        checkpoint that each call also writes.  The checkpoints are deleted
        at once, so that their writeback does not slow the stages after.
        """
        out = os.path.join(self.workdir, f"epoch{e}")
        os.makedirs(out)
        with self.span("training.fit_pairs"):
            report = training.fit_pairs(state.params, state.train_set, state.val_set,
                                        self.train_cfg, out, start_epoch=e)
        self._losses.append((report.train_losses[0], report.val_losses[0]))
        with open(os.path.join(out, "metrics.ndjson")) as f:
            seconds = json.loads(f.readline())["seconds"]
        shutil.rmtree(out)
        return seconds

    def _write_trial(self, state: State, r: int) -> tuple:
        """gen-data job r: a trial of catalog object r % 2, with a new radius draw."""
        with self.span("plant.generate_dataset_trials"):
            trial, = plant.generate_dataset_trials(
                state.topo, [state.catalog[r % INGEST_TRIALS]], 1, seed=self.seed * 1000 + r,
                length=self.plan.length, cfg=self.pcfg)
        path = os.path.join(self.workdir, f"{trial.object_name}.csv")
        with self.span("dataset.write_trial_csv") as at:
            dataset.write_trial_csv(trial, path)
        at["bytes"] = os.path.getsize(path)
        return trial, path

    def _ingest(self, state: State, r: int) -> tuple[float, float]:
        """gen-data for one trial, then the train load path; returns (gen rate, load rate).

        Round r generates and writes trial r, as `tgl gen-data` does per
        job, over the file of trial r - 2.  It then loads the newest two
        files (read, preprocess, split, pairs), which are in the page cache
        for every round alike.  A round costs about two trials' time, so
        the rounds are many, short and spread over the whole run.
        """
        t0 = perf_counter()
        self._ingested[r % INGEST_TRIALS] = self._write_trial(state, r)
        gen = 1.0 / (perf_counter() - t0)
        trials, paths = zip(*(self._ingested[k] for k in range(INGEST_TRIALS)))
        t0 = perf_counter()
        loaded = []
        for path in paths:
            with self.span("dataset.read_trial_csv", bytes=os.path.getsize(path)):
                loaded.append(dataset.read_trial_csv(path))
        pre = []
        for trial in loaded:
            with self.span("dataset.preprocess"):
                pre.append(dataset.preprocess(trial, self.plan.target_length))
        tr, va = dataset.split(dataset.Dataset(pre, target_length=self.plan.target_length), self.seed)
        dataset.PairSet(tr), dataset.PairSet(va)
        load = INGEST_TRIALS / (perf_counter() - t0)
        self.check("csv round trip is exact",
                   all(a.object_name == b.object_name
                       and _same(_trial_arrays(a), _trial_arrays(b))
                       for a, b in zip(trials, loaded)))
        return gen, load

    def _evaluate(self, state: State, ckpt: str) -> float:
        t0 = perf_counter()
        with self.span("training.evaluate"):
            self._mses.append(training.evaluate(ckpt, state.val_pairs, state.topo, BATCH_SIZE))
        return len(state.val_pairs) / (perf_counter() - t0)

    def _pca(self, state: State, model) -> float:
        t = self.plan.target_length
        t0 = perf_counter()
        with self.span("analysis.extract_node_features"):
            stack = tgl.extract_node_features(model, state.topo,
                                              state.ds.trials[:self.plan.pca_trials or None],
                                              (t - PCA_WINDOW, t))
        with self.span("analysis.pca_node_map"):
            report = tgl.pca_node_map(stack)
        self._node_map = stack, report
        return perf_counter() - t0

    def _rollout(self, state: State, model, i: int):
        """Closed-loop rollout i at batch 1; objects and disturbances cycle with i."""
        steps = self.plan.rollout_steps
        dist = DISTURBANCES[i % len(DISTURBANCES)]
        obj = state.catalog[i % len(state.catalog)]
        cfg = RolloutConfig(max_steps=steps, labels=obj.labels,
                            disturbance=Disturbance(steps * 3 // 5, *dist) if dist else None)
        return rollout(model, state.plants[i % len(state.plants)], cfg,
                       seed=self.seed * 1000 + i)

    def _rollout_rate(self, state: State, model, i: int) -> float:
        t0 = perf_counter()
        with self.span("rollout.rollout"):
            trace = self._rollout(state, model, i)
        rate = len(trace) / (perf_counter() - t0)
        with self.span("rollout.write_trace"):
            write_trace(trace, os.path.join(self.workdir, f"rollout_{i % 2}.csv"))
        if i == 0:
            self._first_trace = trace
        return rate

    def _check_outputs(self, state: State, model) -> None:
        """Eval, pca and rollouts all used the warm-up model, so every sample saw the same weights."""
        losses = [v for pair in self._losses for v in pair]
        self.check("training losses are finite", all(math.isfinite(v) for v in losses))
        self.check("training loss falls over the timed epochs",
                   self._losses[-1][0] < self._losses[1][0])
        self.check("eval is repeatable", len(set(self._mses)) == 1)
        self.check("eval matches the dense reference forward",
                   _close(self._mses[0], reference_mse(model, state.topo, state.val_set)))
        stack, report = self._node_map
        var = report.explained_variance
        centered = stack.features - stack.features.mean(axis=0)
        # singular values of the nodes x nodes Gram matrix are the squared ones of `centered`
        s2 = np.linalg.svd(centered @ centered.T, compute_uv=False)
        ref = s2[:len(var)] / (centered.shape[0] - 1)
        self.check("pca variances do not increase", all(a >= b for a, b in zip(var, var[1:])))
        self.check("pca variances match np.linalg.svd", all(_close(v, r) for v, r in zip(var, ref)))
        self.check("rollout replay is bitwise identical",
                   _same(_trace_arrays(self._first_trace),
                         _trace_arrays(self._rollout(state, model, 0))))
