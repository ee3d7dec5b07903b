"""Trajectory ingestion and preprocessing.

Stages mirror the data pipeline used for training: trim static ends,
attach property labels, smooth with a 10-sample moving average, and
downsample every trial to a fixed length; trials are then split whole
into train/validation sides, each sliced into (input at t, joint target
at t+horizon) pairs.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path
from typing import NoReturn

import numpy as np

JOINT_DIM = 16
LABEL_DIM = 6
LABEL_NAMES = ("light", "heavy", "hard", "soft", "non_slippery", "slippery")

DEFAULT_TARGET_LENGTH = 330
HORIZON = 10          # a pair's target is the joints this many frames later
SPLIT_RATIO = 0.70    # share of whole trials on the training side
VELOCITY_EPS = 1e-4   # least per-step joint change that counts as motion

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
    values = labels.tolist()   # six Python numbers: cheaper to check than numpy ops on six
    if not all(v == 0.0 or v == 1.0 for v in values):
        raise ValueError("labels must be 0/1 valued")
    for a, b in ((0, 1), (2, 3), (4, 5)):
        if values[a] + values[b] != 1.0:
            pair = f"{LABEL_NAMES[a]}/{LABEL_NAMES[b]}"
            raise ValueError(f"label pair {pair} must have exactly one bit set, got {values}")


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
    """One demonstration as whole arrays, validated once."""
    object_name: str
    t: np.ndarray        # (T,) strictly increasing integer time steps
    joints: np.ndarray   # (T, 16)
    tactile: np.ndarray  # (T, nodes, 3)
    labels: np.ndarray   # (6,) one bit per property pair, constant over the trial
    smoothed: bool = False

    def __post_init__(self):
        self.t = np.asarray(self.t)
        self.joints = np.asarray(self.joints, dtype=np.float64)
        self.tactile = np.asarray(self.tactile, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.float64)
        length = self.t.shape[0] if self.t.ndim == 1 else 0
        if not (length and self.t.dtype.kind in "iu" and self.joints.shape == (length, JOINT_DIM)
                and self.tactile.ndim == 3 and self.tactile.shape[::2] == (length, 3)):
            raise ValueError(f"trial {self.object_name!r} needs t [T] of integers, joints [T, 16], "
                             f"tactile [T, nodes, 3], T >= 1; got {self.t.dtype} t {self.t.shape}, "
                             f"joints {self.joints.shape}, tactile {self.tactile.shape}")
        validate_labels(self.labels)
        back = np.flatnonzero(self.t[1:] <= self.t[:-1])
        if back.size:
            raise ValueError(f"trial {self.object_name!r}: time steps must strictly increase "
                             f"({self.t[back[0]]} then {self.t[back[0] + 1]})")

    def __len__(self) -> int:
        return len(self.t)

    @property
    def n_nodes(self) -> int:
        return self.tactile.shape[1]

    def take(self, idx) -> "Trial":
        """The frames at idx (a slice or an index array)."""
        return replace(self, t=self.t[idx], joints=self.joints[idx], tactile=self.tactile[idx])

    @property
    def records(self) -> list[TrajectoryRecord]:
        """Per-frame view for callers that read frame by frame; the pipeline reads the arrays."""
        return [TrajectoryRecord(t, j, x, self.labels)
                for t, j, x in zip(self.t.tolist(), self.joints, self.tactile)]

    def joints_array(self) -> np.ndarray:
        return self.joints

    def tactile_array(self) -> np.ndarray:
        return self.tactile


@dataclass
class Dataset:
    trials: list[Trial]
    target_length: int = DEFAULT_TARGET_LENGTH


def trim_static(trial: Trial) -> Trial:
    """Drop the leading and trailing runs where no joint moves.

    A frame counts as moving when either adjacent per-step joint delta
    reaches VELOCITY_EPS; the kept range spans the first through last
    moving frame.
    """
    moving = np.flatnonzero(np.abs(np.diff(trial.joints, axis=0)).max(axis=1) >= VELOCITY_EPS)
    if moving.size == 0:
        raise ValueError(f"no motion detected in trial {trial.object_name!r} "
                         f"(velocity_eps={VELOCITY_EPS})")
    return trial.take(slice(moving[0], moving[-1] + 2))


def smooth(trial: Trial) -> Trial:
    """Moving average of joints and tactile over [t-5, t+4], clipped at the ends."""
    if trial.smoothed:
        raise ValueError(f"trial {trial.object_name!r} is already smoothed")
    length = len(trial)
    if length < SMOOTH_MIN_LEN:
        raise ValueError(f"smoothing needs at least {SMOOTH_MIN_LEN} frames, got {length}")
    flat = np.concatenate([trial.joints, trial.tactile.reshape(length, -1)], axis=1)
    prefix = np.vstack([np.zeros((1, flat.shape[1])), np.cumsum(flat, axis=0)])
    t = np.arange(length)
    lo = np.maximum(0, t - SMOOTH_BEFORE)
    hi = np.minimum(length, t + SMOOTH_AFTER + 1)   # exclusive
    mean = (prefix[hi] - prefix[lo]) / (hi - lo)[:, None].astype(np.float64)
    return replace(trial, joints=mean[:, :JOINT_DIM],
                   tactile=mean[:, JOINT_DIM:].reshape(trial.tactile.shape), smoothed=True)


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
    return trial.take(idx)


def preprocess(trial: Trial, target_length: int = DEFAULT_TARGET_LENGTH) -> Trial:
    return downsample(smooth(trim_static(trial)), target_length)


def split(ds: Dataset, seed: int) -> tuple[PairSet, PairSet]:
    """Assign whole trials to train/validation at SPLIT_RATIO: (train set, validation set).

    With n >= 2 trials, round(SPLIT_RATIO * n) leaves each side at least one.
    """
    n = len(ds.trials)
    if n < 2:
        raise ValueError(f"need at least 2 trials to split, got {n}")
    for trial in ds.trials:
        if len(trial) != ds.target_length:
            raise ValueError(f"trial {trial.object_name!r} has {len(trial)} frames; "
                             f"preprocess to {ds.target_length} before splitting")
    n_train = int(round(SPLIT_RATIO * n))
    order = [ds.trials[i] for i in np.random.default_rng(seed).permutation(n)]
    return PairSet(order[:n_train]), PairSet(order[n_train:])


class PairSet:
    """Pairs (tactile and joints at t, labels) -> joints at t + HORIZON, as arrays.

    A trial of T frames gives its T - HORIZON pairs in frame order, one
    trial after another.  `PairSet(other)` shares other's arrays; only the
    benchmark, written for the pair lists `split` once returned, calls it so.
    """

    def __init__(self, trials: list[Trial] | PairSet):
        if isinstance(trials, PairSet):
            self.tactile, self.joints, self.labels, self.targets = \
                trials.tactile, trials.joints, trials.labels, trials.targets
            return
        for trial in trials:
            if len(trial) <= HORIZON:
                raise ValueError(f"trial of {len(trial)} frames yields no pairs at horizon {HORIZON}")
        self.tactile = np.concatenate([trial.tactile[:-HORIZON] for trial in trials])
        self.joints = np.concatenate([trial.joints[:-HORIZON] for trial in trials])
        self.labels = np.repeat([trial.labels for trial in trials],
                                [len(trial) - HORIZON for trial in trials], axis=0)
        self.targets = np.concatenate([trial.joints[HORIZON:] for trial in trials])

    def __len__(self) -> int:
        return self.tactile.shape[0]

    def __getitem__(self, idx) -> PairSet:
        """The pairs at idx (a slice or an index array)."""
        part = object.__new__(PairSet)
        part.tactile, part.joints, part.labels, part.targets = \
            self.tactile[idx], self.joints[idx], self.labels[idx], self.targets[idx]
        if not len(part):
            raise ValueError("empty pair selection")
        return part

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
    """The trial as a CSV that `read_trial_csv` reads back to the same bits; a cell that is not
    finite would not read back, so ValueError names it before the file is opened."""
    header = csv_header(trial.n_nodes)
    cells = np.concatenate([trial.joints, trial.tactile.reshape(len(trial), -1)], axis=1)
    if not np.isfinite(cells).all():
        row, col = np.argwhere(~np.isfinite(cells))[0]
        raise ValueError(f"trial {trial.object_name!r}: {header[col + 1]} is {cells[row, col]} "
                         f"at t {trial.t[row]}; every cell must be finite")
    with open(path, "w") as f:
        f.write(",".join(header) + "\n")
        f.writelines(csv_line(t, j, x, trial.labels)
                     for t, j, x in zip(trial.t.tolist(), trial.joints, trial.tactile))


def read_csv(path: str, extra: tuple[str, ...] = ()) -> tuple[int, np.ndarray, np.ndarray]:
    """Parse a file laid out as csv_header(nodes, extra): (nodes, t [rows], cells [rows, width-1]).

    The header must match exactly, and at least one row must follow it.
    Every row must have its full cell count, an integer t above the last
    row's, finite cells, and the first row's labels, which must be one-hot
    pairs.  Errors name path:line.  Blank lines are skipped.  The checked
    lines are parsed in one np.loadtxt call.
    """
    first, *lines = read_text(path).split("\n")
    header = first.split(",")
    width = len(header)
    n, rem = divmod(width - 1 - JOINT_DIM - LABEL_DIM - len(extra), 3)
    if n < 1 or rem or header != csv_header(n, extra):
        raise ValueError(f"{path}: header is not t, j00..j15, s<node><x|y|z> per node, "
                         f"l0..l5{''.join(', ' + c for c in extra)}")
    rows = [(lineno, line) for lineno, line in enumerate(map(str.strip, lines), start=2) if line]
    ts: list[int] = []

    def fail(row: int, message) -> NoReturn:
        raise ValueError(f"{path}:{rows[row][0]}: {message}") from None

    for row, (_, line) in enumerate(rows):
        try:
            if line.count(",") + 1 != width:
                raise ValueError(f"expected {width} cells, got {line.count(',') + 1}")
            ts.append(int(line[:line.index(",")]))
        except ValueError as e:
            fail(row, e)
        if not -2**63 <= ts[-1] < 2**63:
            fail(row, f"t {ts[-1]} does not fit in 64 bits")
        if row and ts[-1] <= ts[-2]:
            fail(row, f"t must strictly increase, got {ts[-2]} then {ts[-1]}")
    if not rows:
        raise ValueError(f"{path}: no rows")
    try:
        cells = np.loadtxt([line for _, line in rows], delimiter=",", comments=None,
                           usecols=range(1, width), ndmin=2)
    except ValueError as e:
        for row, (_, line) in enumerate(rows):   # name the first line float() rejects
            try:
                list(map(float, line.split(",")[1:]))
            except ValueError as bad:
                fail(row, bad)
        raise ValueError(f"{path}: {e}") from None
    if not np.isfinite(cells).all():
        row, col = np.argwhere(~np.isfinite(cells))[0]
        fail(row, f"{header[col + 1]} is {cells[row, col]}; every cell must be finite")
    labels = cells[:, JOINT_DIM + 3 * n:JOINT_DIM + 3 * n + LABEL_DIM]
    try:
        validate_labels(labels[0])
    except ValueError as e:
        fail(0, e)
    changed = np.flatnonzero((labels != labels[0]).any(axis=1))
    if changed.size:
        fail(changed[0], f"labels {labels[changed[0]].tolist()} differ from the first row's")
    return n, np.array(ts, dtype=np.int64), cells


def read_trial_csv(path: str) -> Trial:
    """The trial a CSV holds, named after its file without `.csv`."""
    n, t, cells = read_csv(path)
    end = JOINT_DIM + 3 * n   # the labels follow the tactile cells
    name = Path(path).name.removesuffix(".csv")
    return Trial(name, t, cells[:, :JOINT_DIM], cells[:, JOINT_DIM:end].reshape(-1, n, 3),
                 cells[:1, end:].ravel())


def read_text(path: str) -> str:
    """The file's UTF-8 text, newlines as text mode reads them; ValueError names a non-UTF-8 one."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as e:
        raise ValueError(f"{path} is not UTF-8 text: {e}") from None


def read_json(path: str):
    """The JSON document a file holds; ValueError names a file that is not UTF-8 or not JSON."""
    try:
        return json.loads(read_text(path))
    except json.JSONDecodeError as e:
        raise ValueError(f"{path} is not valid JSON: {e}") from None


def write_json(path: str, doc, sort_keys: bool = False) -> None:
    """Every JSON artifact's one layout: one-space indent and a closing newline."""
    with open(path, "w") as f:
        json.dump(doc, f, indent=1, sort_keys=sort_keys)
        f.write("\n")
