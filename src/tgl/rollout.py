"""Closed-loop rollouts: observe, predict, command, repeat.

The model predicts the joint pose `horizon` steps ahead; commanding that
prediction every step drives the hand toward the final grasp (the plant
rate-limits actuation).  A rollout runs exactly max_steps steps and is
judged once at the end: success means the palm-object distance and the
object tilt both ended below their thresholds.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .dataset import csv_header, csv_line, read_csv, validate_labels
from .models import ModelParams, forward
from .plant import Plant, PlantState, apply_disturbance, distance_to_palm, initial_state, \
    plant_step, tactile_from_contact

DISTURBANCE_KINDS = ("pull_down", "pull_side")
TRACE_COLUMNS = ("height", "tilt", "grip_force", "clamped")  # after the trial columns


class Disturbance(NamedTuple):
    step: int
    kind: str
    magnitude: float


@dataclass(frozen=True)
class RolloutConfig:
    max_steps: int
    labels: np.ndarray
    disturbance: Disturbance | None = None
    success_distance: float = 2.0
    success_angle: float = 15.0
    command_stride: int = 1   # re-predict every step by default

    def __post_init__(self):
        if self.max_steps < 1:
            raise ValueError(f"max_steps must be >= 1, got {self.max_steps}")
        object.__setattr__(self, "labels", np.asarray(self.labels, dtype=np.float64))
        validate_labels(self.labels)
        if self.command_stride < 1:
            raise ValueError(f"command_stride must be >= 1, got {self.command_stride}")
        d = self.disturbance
        if d is not None:
            if d.kind not in DISTURBANCE_KINDS:
                raise ValueError(f"unknown disturbance kind {d.kind!r}")
            if not (0 <= d.step < self.max_steps):
                raise ValueError(f"disturbance step {d.step} outside 0..{self.max_steps - 1}")
            if d.magnitude <= 0:
                raise ValueError(f"disturbance magnitude must be positive, got {d.magnitude}")


@dataclass(frozen=True)
class Verdict:
    success: bool
    final_distance: float
    final_angle: float


@dataclass(frozen=True)
class RolloutStep:
    t: int
    commanded: np.ndarray
    state: PlantState
    tactile: np.ndarray
    grip_force: float


@dataclass
class RolloutTrace:
    steps: list[RolloutStep]
    verdict: Verdict
    labels: np.ndarray

    def __len__(self) -> int:
        return len(self.steps)

    def grip_forces(self) -> np.ndarray:
        return np.array([s.grip_force for s in self.steps])

    def heights(self) -> np.ndarray:
        return np.array([s.state.object_height for s in self.steps])

    def tilts(self) -> np.ndarray:
        return np.array([s.state.object_tilt for s in self.steps])


def total_grip_force(tactile: np.ndarray) -> float:
    """Sum over nodes of the Euclidean norm of the 3-axis reading."""
    t = np.asarray(tactile, dtype=np.float64)
    if t.ndim != 2 or t.shape[1] != 3:
        raise ValueError(f"tactile must have shape (nodes, 3), got {t.shape}")
    return float(np.sqrt((t * t).sum(axis=1)).sum())


def judge_success(final: PlantState, cfg: RolloutConfig, plant: Plant) -> Verdict:
    distance = distance_to_palm(final, plant.cfg)
    return Verdict(success=bool(distance < cfg.success_distance
                                and final.object_tilt < cfg.success_angle),
                   final_distance=distance, final_angle=final.object_tilt)


def rollout(params: ModelParams, plant: Plant, cfg: RolloutConfig,
            state: PlantState | None = None, seed: int = 0) -> RolloutTrace:
    if params.n_nodes != plant.n_nodes:
        raise ValueError(f"model expects {params.n_nodes} nodes, plant has {plant.n_nodes}")
    if state is None:
        state = initial_state(plant, seed)
    tactile = tactile_from_contact(plant, state.contact_map)
    command = state.joints.copy()
    steps: list[RolloutStep] = []
    for t in range(cfg.max_steps):
        d = cfg.disturbance
        if d is not None and t == d.step:
            state = apply_disturbance(plant, state, d.kind, d.magnitude)
            tactile = tactile_from_contact(plant, state.contact_map)
        if t % cfg.command_stride == 0:
            command = forward(params, tactile, state.joints, cfg.labels)
        state, tactile = plant_step(plant, state, command)
        steps.append(RolloutStep(t=t, commanded=command.copy(), state=state,
                                 tactile=tactile, grip_force=total_grip_force(tactile)))
    return RolloutTrace(steps=steps, verdict=judge_success(state, cfg, plant),
                        labels=cfg.labels.copy())


# ---------------------------------------------------------------------------
# trace export: the trial CSV layout plus TRACE_COLUMNS, and a JSON verdict sidecar

def write_trace(trace: RolloutTrace, csv_path: str) -> str:
    """Writes the trace CSV and `<csv_path minus .csv>.verdict.json`; returns sidecar path."""
    if not trace.steps:
        raise ValueError("empty trace")
    with open(csv_path, "w") as f:
        f.write(",".join(csv_header(trace.steps[0].tactile.shape[0], TRACE_COLUMNS)) + "\n")
        for s in trace.steps:
            f.write(csv_line(s.t, s.state.joints, s.tactile, trace.labels,
                             (repr(s.state.object_height), repr(s.state.object_tilt),
                              repr(s.grip_force), str(int(s.state.clamped)))))
    base = csv_path[:-4] if csv_path.endswith(".csv") else csv_path
    sidecar = base + ".verdict.json"
    with open(sidecar, "w") as f:
        json.dump({"success": trace.verdict.success,
                   "final_distance": trace.verdict.final_distance,
                   "final_angle": trace.verdict.final_angle,
                   "steps": len(trace.steps)}, f, indent=1)
        f.write("\n")
    return sidecar


def read_trace_forces(csv_path: str) -> np.ndarray:
    """The grip_force column of a trace CSV, read through the trial codec."""
    _, _, cells = read_csv(csv_path, TRACE_COLUMNS)
    return cells[:, TRACE_COLUMNS.index("grip_force") - len(TRACE_COLUMNS)]
