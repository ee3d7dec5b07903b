"""Closed-loop rollout harness: stepping, judging, disturbances, trace export."""
from __future__ import annotations

import json

import numpy as np
import pytest

import tgl
from tgl.plant import GRASP_SPAN, PlantState
from tgl.dataset import write_trial_csv
from tgl.rollout import (SUCCESS_ANGLE, SUCCESS_DISTANCE, TRACE_COLUMNS, Disturbance,
                         RolloutConfig, judge_success, read_trace_forces, rollout,
                         total_grip_force, write_trace)

LABELS = tgl.encode_labels(heavy=False, soft=False, slippery=False)


@pytest.fixture(scope="module")
def trained(overfit_fixture):
    """Competent single-object policy shared with the acceptance suite."""
    return (overfit_fixture["topo"], overfit_fixture["plant"],
            overfit_fixture["params"])


def test_total_grip_force_oracle():
    tac = np.array([[3.0, 4.0, 0.0], [0.0, 0.0, 5.0]])
    assert total_grip_force(tac) == pytest.approx(10.0)
    assert total_grip_force(np.zeros((7, 3))) == 0.0
    assert total_grip_force(2.0 * tac) == pytest.approx(20.0)
    with pytest.raises(ValueError):
        total_grip_force(np.zeros((7, 2)))


def test_trace_runs_exactly_max_steps(trained):
    _, plant, params = trained
    for n in (1, 7, 40):
        trace = rollout(params, plant, RolloutConfig(max_steps=n, labels=LABELS), seed=0)
        assert len(trace) == n
        assert [s.t for s in trace.steps] == list(range(n))


def test_successful_grasp_end_to_end(trained):
    _, plant, params = trained
    trace = rollout(params, plant, RolloutConfig(max_steps=200, labels=LABELS), seed=0)
    assert trace.verdict.success
    assert trace.verdict.final_distance < 2.0
    assert trace.verdict.final_angle < 15.0
    assert trace.heights()[-1] == pytest.approx(5.0)
    assert trace.grip_forces()[-1] > 0.0


def test_rollout_deterministic(trained):
    _, plant, params = trained
    cfg = RolloutConfig(max_steps=30, labels=LABELS)
    a = rollout(params, plant, cfg, seed=3)
    b = rollout(params, plant, cfg, seed=3)
    np.testing.assert_array_equal(a.heights(), b.heights())
    np.testing.assert_array_equal(a.grip_forces(), b.grip_forces())
    c = rollout(params, plant, cfg, seed=4)
    assert not np.array_equal(a.heights(), c.heights())


def test_judge_uses_strict_inequalities(trained):
    _, plant, _ = trained
    at_boundary = PlantState(joints=np.zeros(16), object_height=GRASP_SPAN - SUCCESS_DISTANCE,
                             object_tilt=0.0, contact_map=np.zeros(plant.n_nodes))
    assert not judge_success(at_boundary).success
    tilted = PlantState(joints=np.zeros(16), object_height=GRASP_SPAN,
                        object_tilt=SUCCESS_ANGLE, contact_map=np.zeros(plant.n_nodes))
    assert not judge_success(tilted).success
    inside = PlantState(joints=np.zeros(16), object_height=GRASP_SPAN - SUCCESS_DISTANCE + 0.01,
                        object_tilt=SUCCESS_ANGLE - 0.01,
                        contact_map=np.zeros(plant.n_nodes))
    assert judge_success(inside).success


def test_disturbance_dips_then_recovers(trained):
    _, plant, params = trained
    cfg = RolloutConfig(max_steps=200, labels=LABELS,
                        disturbance=Disturbance(step=120, kind="pull_down", magnitude=2.0))
    trace = rollout(params, plant, cfg, seed=0)
    h = trace.heights()
    assert h[119] == pytest.approx(5.0)
    assert h[120] < h[119] - 1.0  # the pull is visible immediately
    assert h[-1] == pytest.approx(5.0)  # and the policy recovers
    assert trace.verdict.success


def test_command_stride_holds_between_predictions(trained):
    _, plant, params = trained
    cfg = RolloutConfig(max_steps=12, labels=LABELS, command_stride=4)
    trace = rollout(params, plant, cfg, seed=0)
    cmds = np.stack([s.commanded for s in trace.steps])
    for t in range(12):
        base = (t // 4) * 4
        np.testing.assert_array_equal(cmds[t], cmds[base])


def test_config_validation():
    with pytest.raises(ValueError):
        RolloutConfig(max_steps=0, labels=LABELS)
    with pytest.raises(ValueError):
        RolloutConfig(max_steps=10, labels=np.array([1, 1, 0, 1, 1, 0]))
    with pytest.raises(ValueError):
        RolloutConfig(max_steps=10, labels=LABELS, command_stride=0)
    with pytest.raises(ValueError):
        RolloutConfig(max_steps=10, labels=LABELS,
                      disturbance=Disturbance(10, "pull_down", 1.0))
    with pytest.raises(ValueError):
        RolloutConfig(max_steps=10, labels=LABELS,
                      disturbance=Disturbance(5, "shake", 1.0))
    for magnitude in (0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="magnitude"):
            RolloutConfig(max_steps=10, labels=LABELS,
                          disturbance=Disturbance(5, "pull_side", magnitude))


def test_node_count_mismatch(trained, tiny_topo):
    _, plant, _ = trained
    small_model = tgl.build_from_spec(tgl.ModelSpec("GCN", (4,), (8,)), tiny_topo, seed=0)
    with pytest.raises(ValueError, match="nodes"):
        rollout(small_model, plant, RolloutConfig(max_steps=5, labels=LABELS))


def test_write_trace_csv_and_sidecar(trained, tmp_path):
    _, plant, params = trained
    trace = rollout(params, plant, RolloutConfig(max_steps=25, labels=LABELS), seed=0)
    csv_path = tmp_path / "trace.csv"
    sidecar = write_trace(trace, str(csv_path))
    assert sidecar == str(tmp_path / "trace.verdict.json")
    lines = csv_path.read_text().splitlines()
    assert len(lines) == 26
    header = lines[0].split(",")
    n = plant.n_nodes
    assert len(header) == 1 + 16 + n * 3 + 6 + 4
    assert header[-4:] == ["height", "tilt", "grip_force", "clamped"]
    row = lines[-1].split(",")
    assert float(row[header.index("height")]) == trace.heights()[-1]
    assert float(row[header.index("grip_force")]) == trace.grip_forces()[-1]
    doc = json.loads((tmp_path / "trace.verdict.json").read_text())
    assert doc == {"success": trace.verdict.success,
                   "final_distance": trace.verdict.final_distance,
                   "final_angle": trace.verdict.final_angle,
                   "steps": 25}


def test_trace_csv_extends_the_trial_layout(trained, tmp_path):
    _, plant, params = trained
    trace = rollout(params, plant, RolloutConfig(max_steps=30, labels=LABELS), seed=1)
    write_trace(trace, str(tmp_path / "trace.csv"))
    trial = tgl.generate_trial(plant, seed=0, length=50)
    write_trial_csv(trial, str(tmp_path / "trial.csv"))
    trial_header = (tmp_path / "trial.csv").read_text().splitlines()[0].split(",")
    trace_header = (tmp_path / "trace.csv").read_text().splitlines()[0].split(",")
    assert trace_header == trial_header + list(TRACE_COLUMNS)


def test_trace_grip_force_reads_back_exactly(trained, tmp_path):
    _, plant, params = trained
    trace = rollout(params, plant, RolloutConfig(max_steps=40, labels=LABELS), seed=3)
    path = str(tmp_path / "trace.csv")
    write_trace(trace, path)
    forces = read_trace_forces(path)
    assert forces.shape == (40,)
    assert forces.max() > 0.0
    np.testing.assert_array_equal(forces, trace.grip_forces())
