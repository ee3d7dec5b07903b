"""Trajectory ingestion and preprocessing.

Stages mirror the data pipeline used for training: trim static ends,
attach property labels, smooth with a 10-sample moving average, and
downsample every trial to a fixed length; trials are then split whole
into train/validation sides and expanded into (input at t, joint target
at t+horizon) pairs.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

JOINT_DIM = 16
LABEL_DIM = 6
LABEL_NAMES = ("light", "heavy", "hard", "soft", "non_slippery", "slippery")

DEFAULT_TARGET_LENGTH = 330
DEFAULT_HORIZON = 10
DEFAULT_SPLIT_RATIO = 0.70
DEFAULT_VELOCITY_EPS = 1e-4

SMOOTH_BEFORE = 5   # window [t-5, t+4]: 10 samples including the center
SMOOTH_AFTER = 4
SMOOTH_MIN_LEN = 10


def encode_labels(heavy: bool, soft: bool, slippery: bool) -> np.ndarray:
    """One-of-two encoding per property pair, order light,heavy,hard,soft,non_slippery,slippery."""
    v = np.zeros(LABEL_DIM)
    v[1 if heavy else 0] = 1.0
    v[3 if soft else 2] = 1.0
    v[5 if slippery else 4] = 1.0
    return v


def validate_labels(labels: np.ndarray) -> None:
    labels = np.asarray(labels)
    if labels.shape != (LABEL_DIM,):
        raise ValueError(f"labels must have shape ({LABEL_DIM},), got {labels.shape}")
    if not np.isin(labels, (0.0, 1.0)).all():
        raise ValueError("labels must be 0/1 valued")
    for k, (a, b) in enumerate(((0, 1), (2, 3), (4, 5))):
        if labels[a] + labels[b] != 1.0:
            pair = f"{LABEL_NAMES[a]}/{LABEL_NAMES[b]}"
            raise ValueError(f"label pair {pair} must have exactly one bit set, got {labels.tolist()}")


@dataclass(frozen=True)
class TrajectoryRecord:
    t: int
    joints: np.ndarray   # (16,)
    tactile: np.ndarray  # (nodes, 3)
    labels: np.ndarray   # (6,) in {0,1}

    def __post_init__(self):
        object.__setattr__(self, "joints", np.asarray(self.joints, dtype=np.float64))
        object.__setattr__(self, "tactile", np.asarray(self.tactile, dtype=np.float64))
        object.__setattr__(self, "labels", np.asarray(self.labels, dtype=np.float64))
        if self.joints.shape != (JOINT_DIM,):
            raise ValueError(f"joints must have shape ({JOINT_DIM},), got {self.joints.shape}")
        if self.tactile.ndim != 2 or self.tactile.shape[1] != 3:
            raise ValueError(f"tactile must have shape (nodes, 3), got {self.tactile.shape}")
        validate_labels(self.labels)


@dataclass
class Trial:
    object_name: str
    records: list[TrajectoryRecord]
    smoothed: bool = False

    def __post_init__(self):
        if not self.records:
            raise ValueError(f"trial {self.object_name!r} has no records")
        n = self.records[0].tactile.shape[0]
        labels = self.records[0].labels
        prev_t = None
        for r in self.records:
            if prev_t is not None and r.t <= prev_t:
                raise ValueError(f"trial {self.object_name!r}: time steps must strictly increase "
                                 f"({prev_t} then {r.t})")
            prev_t = r.t
            if r.tactile.shape[0] != n:
                raise ValueError(f"trial {self.object_name!r}: inconsistent node counts "
                                 f"({n} vs {r.tactile.shape[0]})")
            if not np.array_equal(r.labels, labels):
                raise ValueError(f"trial {self.object_name!r}: labels must be constant per trial")

    def __len__(self) -> int:
        return len(self.records)

    @property
    def n_nodes(self) -> int:
        return self.records[0].tactile.shape[0]

    @property
    def labels(self) -> np.ndarray:
        return self.records[0].labels

    def joints_array(self) -> np.ndarray:
        return np.stack([r.joints for r in self.records])

    def tactile_array(self) -> np.ndarray:
        return np.stack([r.tactile for r in self.records])

    def _rebuild(self, joints: np.ndarray, tactile: np.ndarray, ts=None, smoothed=None) -> "Trial":
        ts = ts if ts is not None else [r.t for r in self.records]
        recs = [TrajectoryRecord(t=int(t), joints=j, tactile=x, labels=self.labels)
                for t, j, x in zip(ts, joints, tactile)]
        return Trial(self.object_name, recs,
                     smoothed=self.smoothed if smoothed is None else smoothed)


@dataclass
class Dataset:
    trials: list[Trial]
    target_length: int = DEFAULT_TARGET_LENGTH
    horizon: int = DEFAULT_HORIZON
    split_ratio: float = DEFAULT_SPLIT_RATIO


def trim_static(trial: Trial, velocity_eps: float = DEFAULT_VELOCITY_EPS) -> Trial:
    """Drop the leading and trailing runs where no joint moves.

    A frame counts as moving when either adjacent per-step joint delta
    reaches velocity_eps; the kept range spans the first through last
    moving frame.
    """
    if velocity_eps <= 0:
        raise ValueError(f"velocity_eps must be positive, got {velocity_eps}")
    joints = trial.joints_array()
    if len(trial) < 2:
        raise ValueError("no motion detected: trial has a single frame")
    step = np.abs(np.diff(joints, axis=0)).max(axis=1)  # (L-1,)
    moving_edge = step >= velocity_eps
    frame_moving = np.zeros(len(trial), dtype=bool)
    frame_moving[:-1] |= moving_edge
    frame_moving[1:] |= moving_edge
    idx = np.nonzero(frame_moving)[0]
    if idx.size == 0:
        raise ValueError(f"no motion detected in trial {trial.object_name!r} "
                         f"(velocity_eps={velocity_eps})")
    lo, hi = int(idx[0]), int(idx[-1])
    records = trial.records[lo:hi + 1]
    return Trial(trial.object_name, list(records), smoothed=trial.smoothed)


def smooth(trial: Trial) -> Trial:
    """Moving average of joints and tactile over [t-5, t+4], clipped at the ends."""
    if trial.smoothed:
        raise ValueError(f"trial {trial.object_name!r} is already smoothed")
    length = len(trial)
    if length < SMOOTH_MIN_LEN:
        raise ValueError(f"smoothing needs at least {SMOOTH_MIN_LEN} frames, got {length}")
    joints = trial.joints_array()
    tactile = trial.tactile_array()
    flat = tactile.reshape(length, -1)
    jp = np.vstack([np.zeros((1, joints.shape[1])), np.cumsum(joints, axis=0)])
    tp = np.vstack([np.zeros((1, flat.shape[1])), np.cumsum(flat, axis=0)])
    t = np.arange(length)
    lo = np.maximum(0, t - SMOOTH_BEFORE)
    hi = np.minimum(length - 1, t + SMOOTH_AFTER)
    count = (hi + 1 - lo)[:, None].astype(np.float64)
    sj = (jp[hi + 1] - jp[lo]) / count
    st = ((tp[hi + 1] - tp[lo]) / count).reshape(tactile.shape)
    return trial._rebuild(sj, st, smoothed=True)


def downsample(trial: Trial, target_length: int = DEFAULT_TARGET_LENGTH) -> Trial:
    """Keep round(i*(L-1)/(target-1)) for i in 0..target-1; endpoints survive."""
    if target_length < 2:
        raise ValueError(f"target_length must be >= 2, got {target_length}")
    length = len(trial)
    if length < target_length:
        raise ValueError(f"trial has {length} frames, cannot downsample to {target_length}")
    if length == target_length:
        return trial
    idx = np.rint(np.arange(target_length) * (length - 1) / (target_length - 1)).astype(int)
    records = [trial.records[i] for i in idx]
    return Trial(trial.object_name, records, smoothed=trial.smoothed)


def preprocess(trial: Trial, target_length: int = DEFAULT_TARGET_LENGTH,
               velocity_eps: float = DEFAULT_VELOCITY_EPS) -> Trial:
    return downsample(smooth(trim_static(trial, velocity_eps)), target_length)


def preprocess_dataset(ds: Dataset, velocity_eps: float = DEFAULT_VELOCITY_EPS) -> Dataset:
    trials = [preprocess(t, ds.target_length, velocity_eps) for t in ds.trials]
    return replace(ds, trials=trials)


class Pair(NamedTuple):
    tactile: np.ndarray  # (nodes, 3) at time t
    joints: np.ndarray   # (16,) at time t
    labels: np.ndarray   # (6,)
    target: np.ndarray   # (16,) joints at t + horizon


def make_pairs(trial: Trial, horizon: int = DEFAULT_HORIZON) -> list[Pair]:
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    if len(trial) <= horizon:
        raise ValueError(f"trial of {len(trial)} frames yields no pairs at horizon {horizon}")
    out = []
    for i in range(len(trial) - horizon):
        r = trial.records[i]
        out.append(Pair(r.tactile, r.joints, r.labels, trial.records[i + horizon].joints))
    return out


def split(ds: Dataset, seed: int) -> tuple[list[Pair], list[Pair]]:
    """Assign whole trials to train/validation at split_ratio, then expand pairs."""
    n = len(ds.trials)
    if n < 2:
        raise ValueError(f"need at least 2 trials to split, got {n}")
    for trial in ds.trials:
        if len(trial) != ds.target_length:
            raise ValueError(f"trial {trial.object_name!r} has {len(trial)} frames; "
                             f"preprocess to {ds.target_length} before splitting")
    n_train = int(round(ds.split_ratio * n))
    if n_train == 0 or n_train == n:
        raise ValueError(f"split_ratio {ds.split_ratio} leaves one side empty for {n} trials")
    perm = np.random.default_rng(seed).permutation(n)
    train, val = [], []
    for pos, trial_idx in enumerate(perm):
        side = train if pos < n_train else val
        side.extend(make_pairs(ds.trials[trial_idx], ds.horizon))
    return train, val


class PairSet:
    """Pairs stacked into contiguous arrays for batched training."""

    def __init__(self, pairs: list[Pair]):
        if not pairs:
            raise ValueError("empty pair list")
        self.tactile = np.stack([p.tactile for p in pairs])
        self.joints = np.stack([p.joints for p in pairs])
        self.labels = np.stack([p.labels for p in pairs])
        self.targets = np.stack([p.target for p in pairs])

    def __len__(self) -> int:
        return self.tactile.shape[0]

    def aux(self) -> np.ndarray:
        return np.concatenate([self.joints, self.labels], axis=1)


# ---------------------------------------------------------------------------
# CSV interchange: t, j00..j15, s000x,s000y,s000z, ..., l0..l5 [, extra columns]
# Trial files and rollout traces share this codec; traces append extra columns.

def csv_header(n_nodes: int, extra: tuple[str, ...] = ()) -> list[str]:
    cols = ["t"] + [f"j{i:02d}" for i in range(JOINT_DIM)]
    for node in range(n_nodes):
        cols.extend(f"s{node:03d}{axis}" for axis in "xyz")
    cols.extend(f"l{i}" for i in range(LABEL_DIM))
    cols.extend(extra)
    return cols


def csv_line(t: int, joints: np.ndarray, tactile: np.ndarray, labels: np.ndarray,
             extra: tuple[str, ...] = ()) -> str:
    """One row; repr(float) cells read back to the same bits."""
    return ",".join([str(t), *map(repr, joints.tolist()), *map(repr, tactile.ravel().tolist()),
                     *map(repr, labels.tolist()), *extra]) + "\n"


def write_trial_csv(trial: Trial, path: str) -> None:
    with open(path, "w") as f:
        f.write(",".join(csv_header(trial.n_nodes)) + "\n")
        for r in trial.records:
            f.write(csv_line(r.t, r.joints, r.tactile, r.labels))


def read_csv(path: str, extra: tuple[str, ...] = ()) -> tuple[int, list[int], np.ndarray]:
    """Parse a file laid out as csv_header(nodes, extra): (nodes, t per row, cells [rows, width-1]).

    The header must match exactly and every row must have its full cell
    count; errors name path:line.  Blank lines are skipped.
    """
    with open(path) as f:
        header = f.readline().rstrip("\n").split(",")
        width = len(header)
        n, rem = divmod(width - 1 - JOINT_DIM - LABEL_DIM - len(extra), 3)
        if n < 1 or rem or header != csv_header(n, extra):
            raise ValueError(f"{path}: header is not t, j00..j15, s<node><x|y|z> per node, "
                             f"l0..l5{''.join(', ' + c for c in extra)}")
        ts, rows = [], []
        for lineno, line in enumerate(f, start=2):
            line = line.strip()
            if not line:
                continue
            cells = line.split(",")
            if len(cells) != width:
                raise ValueError(f"{path}:{lineno}: expected {width} cells, got {len(cells)}")
            try:
                ts.append(int(cells[0]))
                rows.append(list(map(float, cells[1:])))
            except ValueError as e:
                raise ValueError(f"{path}:{lineno}: {e}") from None
    return n, ts, np.array(rows).reshape(len(rows), width - 1)


def read_trial_csv(path: str, object_name: str | None = None) -> Trial:
    n, ts, cells = read_csv(path)
    records = [TrajectoryRecord(t=t, joints=row[:JOINT_DIM],
                                tactile=row[JOINT_DIM:JOINT_DIM + 3 * n].reshape(n, 3),
                                labels=row[JOINT_DIM + 3 * n:])
               for t, row in zip(ts, cells)]
    if object_name is None:
        base = path.rsplit("/", 1)[-1]
        object_name = base[:-4] if base.endswith(".csv") else base
    return Trial(object_name, records)
