"""Array-backed trials, preprocessing pipeline, pairing, CSV interchange."""
from __future__ import annotations

import ast
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from hypothesis.extra.numpy import arrays

import tgl

from tgl.dataset import (HORIZON, SMOOTH_MIN_LEN, Dataset, PairSet, Trial, downsample,
                         encode_labels, preprocess, read_trial_csv, smooth, split, trim_static,
                         validate_labels, write_json, write_trial_csv)
from tgl.optim import AdamConfig
from tgl.plant import MIN_TRIAL_LENGTH, Disturbance, PlantConfig, generate_dataset_trials, \
    generate_trial, make_object, make_plant, object_catalog
from tgl.rollout import RolloutConfig
from tgl.training import LEAST_TARGET_LENGTH, TrainConfig, recipe

LABELS = encode_labels(heavy=False, soft=False, slippery=False)


def make_trial(joints_per_t: np.ndarray, n_nodes: int = 4, name: str = "obj",
               labels: np.ndarray = LABELS) -> Trial:
    length = len(joints_per_t)
    return Trial(name, np.arange(length), joints_per_t, np.zeros((length, n_nodes, 3)), labels)


def ramp_trial(length: int, start: int, stop: int) -> Trial:
    """Joints hold still outside [start, stop) and rise linearly inside it."""
    joints = np.zeros((length, 16))
    ramp = np.linspace(0.0, 1.0, stop - start)
    joints[start:stop] = ramp[:, None]
    joints[stop:] = 1.0
    return make_trial(joints)


def test_label_encodings():
    # order: light, heavy, hard, soft, non-slippery, slippery
    assert encode_labels(heavy=True, soft=True, slippery=False).tolist() == [0, 1, 0, 1, 1, 0]
    assert encode_labels(heavy=False, soft=False, slippery=True).tolist() == [1, 0, 1, 0, 0, 1]
    assert encode_labels(heavy=False, soft=False, slippery=False).tolist() == [1, 0, 1, 0, 1, 0]
    v = encode_labels(heavy=True, soft=False, slippery=True)
    validate_labels(v)


def test_label_validation():
    with pytest.raises(ValueError):
        validate_labels(np.array([1, 1, 0, 1, 1, 0], dtype=float))  # two in a pair
    with pytest.raises(ValueError):
        validate_labels(np.array([1, 0, 0, 0, 1, 0], dtype=float))  # empty pair
    with pytest.raises(ValueError):
        validate_labels(np.array([1, 0, 1, 0, 1], dtype=float))  # wrong length


@pytest.mark.parametrize("value, valid", [(0.0, True), (1.0, True), (-0.0, True), (0.5, False),
                                          (np.nan, False), (np.inf, False), (-np.inf, False),
                                          (2.0, False)])
def test_label_values_must_be_zero_or_one(value, valid):
    labels = np.array([value, 1.0 - value, 1.0, 0.0, 1.0, 0.0])
    if valid:
        validate_labels(labels)
    else:
        with pytest.raises(ValueError, match="0/1 valued"):
            validate_labels(labels)


def test_trim_static_cuts_leading_and_trailing_rest():
    # at rest for 50 frames, moving for next 200 frame-to-frame diffs, then rest
    trial = ramp_trial(329, 50, 250)
    trimmed = trim_static(trial)
    assert len(trimmed) == 200
    assert trimmed.t[0] == 50
    assert trimmed.t[-1] == 249


def test_trim_static_keeps_always_moving_trial():
    joints = np.linspace(0.0, 1.0, 100)[:, None] * np.ones(16)
    trial = make_trial(joints)
    assert len(trim_static(trial)) == 100


def test_trim_static_rejects_fully_static():
    trial = make_trial(np.ones((50, 16)))
    with pytest.raises(ValueError, match="no motion"):
        trim_static(trial)


def test_smooth_is_windowed_mean():
    # impulse response: value 1.0 at frame 20 spreads over frames 16..29
    joints = np.zeros((60, 16))
    joints[20] = 1.0
    sm = smooth(make_trial(joints))
    assert sm.smoothed
    got = sm.joints[:, 0]
    # window [t-5, t+4] clipped to the trial, so frame 16 onward sees frame 20
    for t in range(60):
        lo, hi = max(0, t - 5), min(60, t + 5)
        expect = joints[lo:hi, 0].mean()
        assert got[t] == pytest.approx(expect, abs=1e-12)


def test_smooth_constant_trial_unchanged():
    joints = np.full((30, 16), 0.7)
    sm = smooth(make_trial(joints))
    np.testing.assert_allclose(sm.joints, joints, atol=1e-12)


def test_smooth_twice_rejected():
    sm = smooth(make_trial(np.zeros((30, 16))))
    with pytest.raises(ValueError, match="smoothed"):
        smooth(sm)


def test_smooth_requires_minimum_length():
    with pytest.raises(ValueError):
        smooth(make_trial(np.zeros((9, 16))))


def test_downsample_endpoints_and_count():
    joints = np.arange(660.0)[:, None] * np.ones(16)
    down = downsample(make_trial(joints), 330)
    assert len(down) == 330
    # first and last frames always survive
    assert down.joints[0, 0] == 0.0
    assert down.joints[-1, 0] == 659.0
    # uniform stride: index i maps to round(i * 659 / 329)
    idx = np.rint(np.arange(330) * 659.0 / 329.0).astype(int)
    np.testing.assert_array_equal(down.joints[:, 0], idx.astype(float))
    np.testing.assert_array_equal(down.t, idx)


def test_downsample_identity_when_equal():
    trial = make_trial(np.zeros((330, 16)))
    assert len(downsample(trial, 330)) == 330


def test_downsample_rejects_upsampling():
    with pytest.raises(ValueError):
        downsample(make_trial(np.zeros((100, 16))), 330)


def test_preprocess_chain():
    trial = ramp_trial(700, 30, 660)
    out = preprocess(trial, target_length=330)
    assert len(out) == 330
    assert out.smoothed


# up to 5 rest frames at each end still leave smooth its SMOOTH_MIN_LEN frames
@given(gaps=st.lists(st.integers(1, 50), min_size=SMOOTH_MIN_LEN + 10, max_size=80),
       lead=st.integers(0, 5), tail=st.integers(0, 5), seed=st.integers(0, 2**32 - 1),
       bits=st.tuples(st.booleans(), st.booleans(), st.booleans()), data=st.data())
def test_preprocessing_keeps_time_order_labels_and_endpoints(gaps, lead, tail, seed, bits, data):
    """Whatever the time steps and rest frames, each stage keeps t strictly
    increasing and the labels as they were; downsample hits its length
    exactly and keeps both endpoints."""
    length = len(gaps)
    rng = np.random.default_rng(seed)
    joints = rng.normal(size=(length, 16))
    joints[:lead] = joints[lead]                             # the hand rests before it moves
    joints[length - tail:] = joints[length - tail - 1]       # and after
    labels = encode_labels(*bits)
    trial = Trial("prop", np.cumsum(gaps), joints, rng.normal(size=(length, 2, 3)), labels)
    trimmed = trim_static(trial)
    smoothed = smooth(trimmed)
    target = data.draw(st.integers(2, len(smoothed)), label="target_length")
    down = downsample(smoothed, target)
    for stage in (trimmed, smoothed, down):
        assert (np.diff(stage.t) > 0).all()
        assert stage.labels.tolist() == labels.tolist()
    assert smoothed.t.tolist() == trimmed.t.tolist()
    assert len(down) == target
    assert (down.t[0], down.t[-1]) == (smoothed.t[0], smoothed.t[-1])


def test_pair_set_horizon():
    joints = np.arange(50.0)[:, None] * np.ones(16)
    pairs = PairSet([make_trial(joints)])
    assert len(pairs) == 40
    assert pairs.joints[0, 0] == 0.0
    assert pairs.targets[0, 0] == 10.0
    assert pairs.joints[-1, 0] == 39.0
    assert pairs.targets[-1, 0] == 49.0


def test_pair_set_rejects_short_trial():
    with pytest.raises(ValueError, match="no pairs at horizon"):
        PairSet([make_trial(np.zeros((10, 16)))])


def test_split_whole_trials_and_ratio():
    trials = [make_trial(np.zeros((330, 16)), name=f"t{i}") for i in range(10)]
    ds = Dataset(trials, target_length=330)
    train, val = split(ds, seed=0)
    # 10 trials at 0.7 -> 7 train, 3 validation; 320 pairs per trial
    assert len(train) == 7 * 320
    assert len(val) == 3 * 320
    t2, v2 = split(ds, seed=0)
    np.testing.assert_array_equal(train.joints, t2.joints)
    t3, _ = split(ds, seed=1)
    assert len(t3) == len(train)


def test_split_rejects_tiny_or_mislength():
    ds = Dataset([make_trial(np.zeros((330, 16)))], target_length=330)
    with pytest.raises(ValueError):
        split(ds, seed=0)
    ds2 = Dataset([make_trial(np.zeros((100, 16)), name="a"),
                   make_trial(np.zeros((330, 16)), name="b")], target_length=330)
    with pytest.raises(ValueError, match="preprocess"):
        split(ds2, seed=0)


def test_paper_scale_step_budget():
    # 80 trials of 330 steps approximate the recorded 26,300 total steps + split
    n_trials, steps = 80, 330
    assert abs(n_trials * steps - 26_300) / 26_300 < 0.005
    n_train = round(0.7 * n_trials)
    assert n_train == 56
    assert abs(n_train / n_trials - 0.700) <= 1.0 / n_trials


def test_pair_set_stacks_and_aux():
    joints = np.arange(50.0)[:, None] * np.ones(16)
    ps = PairSet([make_trial(joints)])
    assert ps.tactile.shape == (40, 4, 3)
    assert ps.aux().shape == (40, 22)
    np.testing.assert_array_equal(ps.aux()[:, 16:], np.tile(LABELS, (40, 1)))


def _stacked_per_pair(trials: list[Trial]) -> tuple[np.ndarray, ...]:
    """Oracle: one (tactile, joints, labels, target) tuple per frame, then np.stack."""
    pairs = [(x, j, trial.labels, y) for trial in trials
             for x, j, y in zip(trial.tactile[:-HORIZON], trial.joints[:-HORIZON],
                                trial.joints[HORIZON:])]
    return tuple(np.stack(column) for column in zip(*pairs))


def _random_trials(n: int, seed: int, length: int = 40) -> list[Trial]:
    rng = np.random.default_rng(seed)
    return [Trial(f"t{i}", np.arange(length), rng.normal(size=(length, 16)),
                  rng.normal(size=(length, 3, 3)),
                  encode_labels(*(bool(b) for b in rng.integers(0, 2, size=3))))
            for i in range(n)]


@pytest.mark.parametrize("n", [2, 3, 10])
@pytest.mark.parametrize("seed", [0, 1, 7, 23])
def test_split_sets_equal_per_pair_stacking(n, seed):
    """split's sets hold, bit for bit, the per-frame pairs of its trials stacked in split order."""
    trials = _random_trials(n, seed)
    ds = Dataset(trials, target_length=40)
    n_train = int(round(0.7 * n))
    order = [trials[i] for i in np.random.default_rng(seed).permutation(n)]
    for got, side in zip(split(ds, seed), (order[:n_train], order[n_train:])):
        want = _stacked_per_pair(side)
        for array, expected in zip((got.tactile, got.joints, got.labels, got.targets), want):
            assert array.dtype == expected.dtype and array.shape == expected.shape
            assert array.tobytes() == expected.tobytes()


def test_pair_set_index_by_slice_and_array():
    pairs = PairSet(_random_trials(3, seed=5))
    assert len(pairs) == 90
    for idx in (slice(25, 65), np.array([89, 0, 31, 31, 60])):
        part = pairs[idx]
        assert len(part) == len(pairs.joints[idx])
        for name in ("tactile", "joints", "labels", "targets"):
            np.testing.assert_array_equal(getattr(part, name), getattr(pairs, name)[idx])
    np.testing.assert_array_equal(pairs[:30].labels, np.tile(pairs.labels[0], (30, 1)))
    with pytest.raises(ValueError, match="empty"):
        pairs[5:5]


def test_pair_set_of_a_pair_set_shares_its_arrays():
    pairs = PairSet(_random_trials(2, seed=3))
    again = PairSet(pairs[:20])
    assert len(again) == 20
    for name in ("tactile", "joints", "labels", "targets"):
        assert np.shares_memory(getattr(again, name), getattr(pairs, name))


def test_trial_validation():
    t, joints, tactile = np.arange(3), np.zeros((3, 16)), np.zeros((3, 4, 3))
    Trial("x", t, joints, tactile, LABELS)
    with pytest.raises(ValueError, match="strictly increase"):
        Trial("x", np.array([0, 1, 1]), joints, tactile, LABELS)
    with pytest.raises(ValueError, match="exactly one"):
        Trial("x", t, joints, tactile, np.array([1.0, 1.0, 1.0, 0.0, 1.0, 0.0]))
    with pytest.raises(ValueError, match="integers"):
        Trial("x", t.astype(float), joints, tactile, LABELS)
    with pytest.raises(ValueError, match="joints"):
        Trial("x", t, np.zeros((2, 16)), tactile, LABELS)   # frame counts disagree
    with pytest.raises(ValueError, match="tactile"):
        Trial("x", t, joints, np.zeros((3, 4, 2)), LABELS)
    with pytest.raises(ValueError, match="T >= 1"):
        Trial("x", t[:0], joints[:0], tactile[:0], LABELS)


def test_records_are_a_view_of_the_arrays():
    rng = np.random.default_rng(3)
    trial = Trial("x", np.array([2, 5, 9]), rng.normal(size=(3, 16)), rng.normal(size=(3, 4, 3)),
                  LABELS)
    records = trial.records
    assert [r.t for r in records] == [2, 5, 9]
    np.testing.assert_array_equal(np.stack([r.joints for r in records]), trial.joints_array())
    np.testing.assert_array_equal(np.stack([r.tactile for r in records]), trial.tactile_array())
    assert all(np.array_equal(r.labels, trial.labels) for r in records)


def test_csv_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(8)
    trial = Trial("sample", np.arange(20), rng.normal(size=(20, 16)), rng.normal(size=(20, 3, 3)),
                  LABELS)
    path = tmp_path / "sample.csv"
    write_trial_csv(trial, str(path))
    back = read_trial_csv(str(path))
    assert back.object_name == "sample"
    assert len(back) == 20
    np.testing.assert_array_equal(back.t, trial.t)
    np.testing.assert_array_equal(back.joints, trial.joints)
    np.testing.assert_array_equal(back.tactile, trial.tactile)
    np.testing.assert_array_equal(back.labels, trial.labels)


EDGE_BITS = np.array([-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072009e-308, -1e-310,
                      np.finfo(float).max, -np.finfo(float).max, np.finfo(float).tiny, 0.1])


@given(bits=arrays(np.uint64, (7, 16 + 2 * 3), elements=st.integers(0, 2**64 - 1)),
       start=st.integers(-10**6, 10**6), gaps=st.lists(st.integers(1, 10**4), min_size=6,
                                                        max_size=6))
@example(bits=np.resize(EDGE_BITS, (7, 22)).view(np.uint64), start=0, gaps=[1] * 6)
def test_csv_round_trip_over_random_float64_bit_patterns(tmp_path_factory, bits, start, gaps):
    cells = bits.view(np.float64)
    cells = np.where(np.isfinite(cells), cells, -0.0)   # every finite pattern, -0.0 for the rest
    trial = Trial("bits", np.cumsum([start] + gaps), cells[:, :16], cells[:, 16:].reshape(7, 2, 3),
                  encode_labels(heavy=True, soft=False, slippery=True))
    path = str(tmp_path_factory.mktemp("bits") / "bits.csv")
    write_trial_csv(trial, path)
    back = read_trial_csv(path)
    assert back.t.tolist() == trial.t.tolist()
    for got, want in ((back.joints, trial.joints), (back.tactile, trial.tactile),
                      (back.labels, trial.labels)):
        assert np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(want).tobytes()


@pytest.mark.parametrize("array, index, value, cell", [
    ("joints", (2, 3), np.nan, "j03 is nan at t 2"),
    ("tactile", (1, 1, 1), np.inf, "s001y is inf at t 1"),
])
def test_write_trial_csv_refuses_a_cell_that_is_not_finite(tmp_path, array, index, value, cell):
    """The file would not read back, so none is written; the error names the trial and the cell."""
    rng = np.random.default_rng(2)
    trial = Trial("n", np.arange(4), rng.normal(size=(4, 16)), rng.normal(size=(4, 2, 3)), LABELS)
    getattr(trial, array)[index] = value
    trial.tactile[3, 0, 0] = np.nan   # a later row's cell is not the one named
    path = tmp_path / "n.csv"
    with pytest.raises(ValueError, match=rf"^trial 'n': {cell}; every cell must be finite$"):
        write_trial_csv(trial, str(path))
    assert not path.exists()


def _written(tmp_path, rows: int = 4) -> tuple[str, list[str]]:
    rng = np.random.default_rng(1)
    trial = Trial("w", np.arange(rows), rng.normal(size=(rows, 16)),
                  rng.normal(size=(rows, 2, 3)), LABELS)
    path = tmp_path / "w.csv"
    write_trial_csv(trial, str(path))
    return str(path), path.read_text().splitlines()


def _cells(line: str, replace_at: dict) -> str:
    cells = line.split(",")
    for i, value in replace_at.items():
        cells[i] = value
    return ",".join(cells)


@pytest.mark.parametrize("mutate, line, message", [
    (lambda ls: ls[:2] + [ls[2].rsplit(",", 1)[0]] + ls[3:], 3, "expected 29 cells, got 28"),
    (lambda ls: ls[:3] + [_cells(ls[3], {0: "2.5"})] + ls[4:], 4, "invalid literal for int"),
    (lambda ls: ls[:3] + [_cells(ls[3], {0: "1"})] + ls[4:], 4, "t must strictly increase"),
    (lambda ls: ls[:4] + [_cells(ls[4], {5: "x"})] + ls[5:], 5, "could not convert"),
    (lambda ls: ls[:4] + [_cells(ls[4], {-6: "0.0", -5: "1.0"})] + ls[5:], 5, "labels"),
    (lambda ls: [ls[0]] + [_cells(l, {-1: "1.0"}) for l in ls[1:]], 2, "exactly one bit"),
    (lambda ls: ls[:1], None, "no rows"),   # a header-only file has no line to name
    (lambda ls: ls[:2] + [_cells(ls[2], {20: "nan"})] + ls[3:], 3, "s001x is nan"),
    (lambda ls: ls[:3] + [_cells(ls[3], {1: "inf"})] + ls[4:], 4, "j00 is inf"),
    (lambda ls: ls[:4] + [_cells(ls[4], {-7: "-inf"})] + ls[5:], 5, "s001z is -inf"),
])
def test_read_trial_csv_errors_name_path_and_line(tmp_path, mutate, line, message):
    path, lines = _written(tmp_path)
    with open(path, "w") as f:
        f.write("\n".join(mutate(lines)) + "\n")
    with pytest.raises(ValueError, match=message) as err:
        read_trial_csv(path)
    assert str(err.value).startswith(f"{path}: " if line is None else f"{path}:{line}: ")


def test_read_trial_csv_skips_blank_lines(tmp_path):
    path, lines = _written(tmp_path)
    want = read_trial_csv(path)
    with open(path, "w") as f:
        f.write("\n".join([lines[0], "", lines[1], "  ", *lines[2:], ""]) + "\n\n")
    back = read_trial_csv(path)
    np.testing.assert_array_equal(back.t, want.t)
    np.testing.assert_array_equal(back.tactile, want.tactile)


def test_csv_rejects_malformed(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ValueError):
        read_trial_csv(str(path))


def test_write_json_layout(tmp_path):
    path = tmp_path / "doc.json"
    write_json(str(path), {"b": [1], "a": 0.5})
    assert path.read_text() == '{\n "b": [\n  1\n ],\n "a": 0.5\n}\n'
    write_json(str(path), {"b": 1, "a": 2}, sort_keys=True)
    assert path.read_text() == '{\n "a": 2,\n "b": 1\n}\n'


@pytest.mark.parametrize("call, owners", [
    ("json.dump(", [("dataset.py", "write_json")]),
    # metrics.ndjson is unhashed telemetry, read line by line and leniently by design
    ("json.load", [("dataset.py", "read_json"), ("training.py", "_metrics_before")]),
], ids=["dump", "load"])
def test_only_the_json_owners_call_json(call, owners):
    """Every JSON artifact is written by write_json and every JSON input read by read_json, so
    a change to either is one edit."""
    assert _owners(lambda line: call in line) == owners


def _owners(matches) -> list[tuple[str, str | None]]:
    """(module, enclosing `Class.function`, or None at module level) of each line of the
    package's source that `matches`, in file and line order."""
    found = []
    for path in sorted(Path(tgl.__file__).parent.rglob("*.py")):
        text = path.read_text()
        scopes = [node for node in ast.walk(ast.parse(text))
                  if isinstance(node, (ast.ClassDef, ast.FunctionDef))]
        for lineno, line in enumerate(text.splitlines(), start=1):
            if matches(line):
                around = sorted((node for node in scopes
                                 if node.lineno <= lineno <= node.end_lineno),
                                key=lambda node: node.lineno)
                found.append((path.name, ".".join(node.name for node in around) or None))
    return found


RANGE_WORDING = ("must be >=", "must be an integer", "finite number", "must lie in")


def test_only_the_rule_owners_state_a_range():
    """Each count, step, size and rate a library type takes is checked by `at_least` or
    `positive`, so a rule and its message are one edit; the invariants kept apart are these."""
    assert sorted(set(_owners(lambda line: any(w in line for w in RANGE_WORDING)))) == [
        ("dataset.py", "at_least"),
        ("dataset.py", "positive"),
        ("models.py", "ModelParams.__post_init__"),   # a seed has no least, as a checkpoint
        ("models.py", "read_manifest"),               # records it
        ("pca.py", "pca"),                            # k's range is the data's shape
        ("plant.py", "PlantState.__post_init__"),     # runs every plant step
        ("topology.py", "_integer"),                  # takes numpy integers too
    ]


_RECIPE = {"epoch": 3, "train_seed": 0, "target_length": 330, "batch_size": 100, "lr": 1e-3,
           "best_val": None}
_SMALL = tgl.build_small_hand()

# (what the message starts with, a call that takes the value, the least value: an int, a
# float, or None for a number > 0)
RANGE_RULES = {
    "AdamConfig.learning_rate": ("learning_rate", lambda v: AdamConfig(learning_rate=v), None),
    "PlantConfig.sensor_noise": ("plant config field 'sensor_noise'",
                                 lambda v: PlantConfig(sensor_noise=v), 0.0),
    "make_object.radius": ("radius", lambda v: make_object(False, False, False, radius=v), None),
    "Disturbance.step": ("step", lambda v: Disturbance(step=v, kind="pull_side", magnitude=30.0),
                         0),
    "Disturbance.magnitude": ("magnitude",
                              lambda v: Disturbance(step=0, kind="pull_side", magnitude=v), None),
    "generate_trial.length": ("length", lambda v: generate_trial(
        make_plant(_SMALL, object_catalog()[0]), seed=0, length=v), MIN_TRIAL_LENGTH),
    # refused at the call, before the first trial is drawn
    "generate_dataset_trials.trials_per": ("trials_per", lambda v: generate_dataset_trials(
        _SMALL, object_catalog()[:1], v, seed=0), 1),
    "RolloutConfig.max_steps": ("max_steps", lambda v: RolloutConfig(max_steps=v, labels=LABELS),
                                1),
    "RolloutConfig.command_stride": ("command_stride", lambda v: RolloutConfig(
        max_steps=1, labels=LABELS, command_stride=v), 1),
    "downsample.target_length": ("target_length",
                                 lambda v: downsample(make_trial(np.zeros((30, 16))), v), 2),
    "TrainConfig.batch_size": ("batch_size", lambda v: TrainConfig(batch_size=v), 1),
    "TrainConfig.epochs": ("epochs", lambda v: TrainConfig(epochs=v), 1),
    "TrainConfig.checkpoint_every": ("checkpoint_every", lambda v: TrainConfig(checkpoint_every=v),
                                     0),
    "TrainConfig.seed": ("seed", lambda v: TrainConfig(seed=v), 0),
    **{f"recipe.{key}": (f"checkpoint c.ckpt.json: extra {key}",
                         lambda v, key=key: recipe("c.ckpt.json", _RECIPE | {key: v}), least)
       for key, least in (("epoch", 0), ("target_length", LEAST_TARGET_LENGTH),
                          ("best_val", 0.0))},
}


@pytest.mark.parametrize("field", RANGE_RULES)
def test_each_count_step_and_rate_refuses_what_its_rule_does(field):
    """The least value constructs; a bool, NaN, +-inf, a string, a value just below the least
    and, for an integer, a float (even a whole one) raise ValueError naming the field."""
    prefix, call, least = RANGE_RULES[field]
    call(math.ulp(0.0) if least is None else least)
    bad = [True, math.nan, math.inf, -math.inf, "1"]
    if type(least) is int:
        bad += [float(least), least + 0.5, least - 1]
    else:
        bad += [0.0 if least is None else math.nextafter(least, -math.inf)]
    for value in bad:
        with pytest.raises(ValueError) as refused:
            call(value)
        assert str(refused.value).startswith(f"{prefix} must be "), (value, refused.value)
