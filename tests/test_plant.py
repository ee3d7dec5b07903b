"""Synthetic grasping plant: contact, lift, disturbances, trial generation."""
from __future__ import annotations

from dataclasses import fields, replace

import numpy as np
import pytest

from tgl import plant as P
from tgl.plant import (Disturbance, PlantConfig, PlantState, apply_disturbance, closure_target,
                       distance_to_palm, generate_dataset_trials, generate_trial,
                       initial_state, make_object, make_plant, object_catalog,
                       plant_step)

import tgl

# the deepest deformation a demonstrated grasp of a soft object may reach
SOFT_DEFORMATION_BOUND = 1.45


@pytest.fixture(scope="module")
def topo():
    return tgl.build_small_hand()


def settle(plant, joints_target: np.ndarray, steps: int, topo) -> tuple:
    """Drive the plant open-loop toward a fixed joint command."""
    state = initial_state(plant, seed=0)
    tactile = np.zeros((topo.n, 3))
    for _ in range(steps):
        state, tactile = plant_step(plant, state, joints_target)
    return state, tactile


def test_object_catalog_covers_all_combos():
    cat = object_catalog()
    assert len(cat) == 8
    combos = {(o.heavy, o.soft, o.slippery) for o in cat}
    assert len(combos) == 8
    assert all(o.labels.shape == (6,) for o in cat)


def test_object_constants():
    hard = make_object(heavy=False, soft=False, slippery=False)
    soft = make_object(heavy=False, soft=True, slippery=False)
    heavy = make_object(heavy=True, soft=False, slippery=False)
    slick = make_object(heavy=False, soft=False, slippery=True)
    assert soft.stiffness == pytest.approx(hard.stiffness * P.SOFT_STIFFNESS_FACTOR)
    assert heavy.mass_proxy == pytest.approx(hard.mass_proxy * P.HEAVY_MASS_FACTOR)
    assert slick.friction == pytest.approx(hard.friction * P.SLIPPERY_FRICTION_FACTOR)


def test_object_radius_must_be_finite_and_positive():
    for radius in (-3.0, 0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="radius"):
            make_object(False, False, False, radius=radius)


def test_initial_state_open_and_on_desk(topo):
    plant = make_plant(topo, make_object(False, False, False), PlantConfig())
    st = initial_state(plant, seed=0)
    assert st.object_height == 0.0
    assert 3.0 <= st.object_tilt <= 10.0
    assert np.all(st.joints >= 0.0) and np.all(st.joints < 0.1)
    assert not st.contact_map.any()
    assert distance_to_palm(st) == pytest.approx(P.GRASP_SPAN)


def test_open_hand_produces_no_tactile(topo):
    plant = make_plant(topo, make_object(False, False, False), PlantConfig())
    state, tactile = settle(plant, np.full(16, 0.05), 30, topo)
    assert not tactile.any()
    assert state.object_height == 0.0


def test_full_closure_lifts_and_straightens(topo):
    plant = make_plant(topo, make_object(False, False, False), PlantConfig())
    state, tactile = settle(plant, np.full(16, 1.3), 80, topo)
    assert state.object_height == pytest.approx(5.0)
    assert state.object_tilt == 0.0
    assert distance_to_palm(state) < 2.0
    assert tactile.any()


def test_rate_limit_and_clamping(topo):
    plant = make_plant(topo, make_object(False, False, False), PlantConfig())
    st = initial_state(plant, seed=0)
    before = st.joints.copy()
    st2, _ = plant_step(plant, st, np.full(16, 99.0))
    np.testing.assert_allclose(st2.joints, before + P.RATE_LIMIT)
    assert st2.clamped
    st3, _ = plant_step(plant, st, np.full(16, 0.06))
    assert not st3.clamped


def test_command_validation(topo):
    plant = make_plant(topo, make_object(False, False, False), PlantConfig())
    st = initial_state(plant, seed=0)
    with pytest.raises(ValueError):
        plant_step(plant, st, np.zeros(15))
    with pytest.raises(ValueError):
        plant_step(plant, st, np.full(16, np.nan))


def test_heavier_grip_gives_larger_forces(topo):
    plant = make_plant(topo, make_object(False, False, False), PlantConfig())
    _, shallow = settle(plant, np.full(16, 1.0), 60, topo)
    _, deep = settle(plant, np.full(16, 1.3), 60, topo)
    norm = lambda t: np.sqrt((t * t).sum(axis=1)).sum()
    assert norm(deep) > norm(shallow) > 0.0


def test_stiffer_object_pushes_back_harder(topo):
    hard = make_plant(topo, make_object(False, False, False))
    soft = make_plant(topo, make_object(False, True, False))
    _, th = settle(hard, np.full(16, 1.2), 60, topo)
    _, ts = settle(soft, np.full(16, 1.2), 60, topo)
    assert th[:, 2].max() > ts[:, 2].max()
    # normal force scales with stiffness at equal penetration
    ratio = th[:, 2].max() / ts[:, 2].max()
    assert ratio == pytest.approx(1.0 / P.SOFT_STIFFNESS_FACTOR, rel=1e-6)


def test_fingertips_touch_before_palm(topo):
    plant = make_plant(topo, make_object(False, False, False), PlantConfig())
    state = initial_state(plant, seed=0)
    first_touch = {}
    cmd = np.full(16, 1.4)
    for step in range(60):
        state, tactile = plant_step(plant, state, cmd)
        touched = np.nonzero(tactile[:, 2])[0]
        for i in touched:
            seg = topo.nodes[i].segment
            first_touch.setdefault(seg, step)
    assert first_touch["fingertip"] < first_touch["proximal_lower"] <= first_touch["palm"]


def test_soft_object_overSqueeze_exceeds_deformation_bound(topo):
    plant = make_plant(topo, make_object(False, True, False))
    state, _ = settle(plant, np.full(16, P.JOINT_MAX), 80, topo)
    assert state.deformation > SOFT_DEFORMATION_BOUND
    # the demonstrated closure depth stays under the bound
    demo, _ = settle(plant, np.full(16, closure_target(plant)), 80, topo)
    assert demo.deformation < SOFT_DEFORMATION_BOUND


def test_closure_target_label_ordering(topo):
    base = closure_target(make_plant(topo, make_object(False, True, False)))
    heavy = closure_target(make_plant(topo, make_object(True, True, False)))
    hard = closure_target(make_plant(topo, make_object(False, False, False)))
    slick = closure_target(make_plant(topo, make_object(False, True, True)))
    assert heavy > base
    assert hard > base
    assert slick > base
    assert closure_target(make_plant(topo, make_object(True, False, True))) <= P.JOINT_MAX


def test_smaller_radius_needs_deeper_closure(topo):
    big = make_object(False, False, False, radius=1.1)
    small = make_object(False, False, False, radius=0.9)
    assert closure_target(make_plant(topo, small)) > closure_target(make_plant(topo, big))


def test_pull_down_arithmetic(topo):
    plant = make_plant(topo, make_object(False, False, False), PlantConfig())
    state, _ = settle(plant, np.full(16, 1.3), 80, topo)
    pulled = apply_disturbance(plant, state, Disturbance(0, "pull_down", 2.0))
    assert pulled.object_height == pytest.approx(state.object_height - 2.0)
    assert pulled.object_tilt == state.object_tilt
    floor = apply_disturbance(plant, state, Disturbance(0, "pull_down", 99.0))
    assert floor.object_height == 0.0


def test_pull_side_arithmetic(topo):
    plant = make_plant(topo, make_object(False, False, False), PlantConfig())
    state, _ = settle(plant, np.full(16, 1.3), 80, topo)
    pushed = apply_disturbance(plant, state, Disturbance(0, "pull_side", 30.0))
    assert pushed.object_tilt == pytest.approx(state.object_tilt + 30.0)
    assert pushed.object_height == state.object_height


def test_disturbance_validation():
    with pytest.raises(ValueError, match="magnitude"):
        Disturbance(0, "pull_down", 0.0)
    with pytest.raises(ValueError, match="kind 'shake'"):
        Disturbance(0, "shake", 1.0)
    for magnitude in (float("nan"), float("inf"), -1.0):
        with pytest.raises(ValueError, match="magnitude"):
            Disturbance(0, "pull_side", magnitude)


def test_recovery_after_pull_down(topo):
    plant = make_plant(topo, make_object(False, False, False), PlantConfig())
    cmd = np.full(16, 1.3)
    state, _ = settle(plant, cmd, 80, topo)
    state = apply_disturbance(plant, state, Disturbance(0, "pull_down", 2.0))
    for _ in range(20):
        state, _ = plant_step(plant, state, cmd)
    assert state.object_height == pytest.approx(5.0)


def test_generate_trial_deterministic(topo):
    plant = make_plant(topo, make_object(False, False, False), PlantConfig())
    a = generate_trial(plant, seed=3, length=120)
    b = generate_trial(plant, seed=3, length=120)
    np.testing.assert_array_equal(a.joints, b.joints)
    np.testing.assert_array_equal(a.tactile, b.tactile)
    c = generate_trial(plant, seed=4, length=120)
    assert not np.array_equal(a.joints, c.joints)


def generate_trial_per_frame(plant, seed: int, length: int):
    """Reference: the demonstration built one frame at a time, as generate_trial once did."""
    noise_std = plant.cfg.sensor_noise
    rng = np.random.default_rng((202, seed))
    target = closure_target(plant)
    t0 = P.MID_FRACTION * length * (1.0 + P.PHASE_JITTER * rng.uniform(-1.0, 1.0, 16))
    tgt = np.clip(target * (1.0 + P.TARGET_JITTER * rng.uniform(-1.0, 1.0, 16)),
                  P.JOINT_MIN, P.JOINT_MAX)
    steps = np.arange(length)[:, None]
    tau = P.SIGMOID_TAU_FRACTION * length
    joints = P.OPEN_POSE + (tgt - P.OPEN_POSE) / (1.0 + np.exp(-(steps - t0) / tau))
    noise = rng.normal(0.0, noise_std, (length, plant.n_nodes, 3)) if noise_std > 0 else None
    frames = []
    for t in range(length):
        blocks = joints[t].reshape(4, 4).mean(axis=1)
        closure = np.where(plant.finger_block >= 0,
                           blocks[np.clip(plant.finger_block, 0, 3)], joints[t].mean())
        contact = np.maximum(0.0, closure - plant.onsets - 0.0)
        normal = plant.obj.stiffness * contact
        tang = P.TANGENTIAL_GAIN * plant.obj.friction * normal[:, None] * plant.tangential
        tactile = np.concatenate([tang, normal[:, None]], axis=1)
        if noise is not None:
            tactile = tactile + noise[t] * (contact > 0)[:, None]
        frames.append(tactile)
    return joints, np.stack(frames)


@pytest.mark.parametrize("hand", ["small", "default"])
@pytest.mark.parametrize("noise", [0.0, 0.15])
def test_generate_trial_matches_the_per_frame_reference_bitwise(hand, noise):
    topo = tgl.build_small_hand() if hand == "small" else tgl.build_default_hand()
    cfg = replace(PlantConfig(), sensor_noise=noise)
    for obj in object_catalog()[::3]:
        plant = make_plant(topo, replace(obj, radius=0.93), cfg)
        trial = generate_trial(plant, seed=9, length=150)
        joints, tactile = generate_trial_per_frame(plant, seed=9, length=150)
        assert trial.t.tolist() == list(range(150))
        assert trial.joints.tobytes() == joints.tobytes()
        assert trial.tactile.tobytes() == tactile.tobytes()
        assert trial.labels.tobytes() == obj.labels.tobytes()
        assert tactile[-1].any() and (noise == 0.0 or (tactile[:, :, 2] < 0).any())


def test_generate_trial_shape_and_motion(topo):
    plant = make_plant(topo, make_object(False, False, False), PlantConfig())
    trial = generate_trial(plant, seed=0, length=200)
    assert len(trial) == 200
    assert trial.n_nodes == topo.n
    joints = trial.joints
    # starts open, ends near the demonstrated closure
    assert joints[0].max() < 0.2
    assert joints[-1].mean() == pytest.approx(closure_target(plant), rel=0.1)
    # tactile silent early, active late
    tac = trial.tactile
    assert not tac[0].any()
    assert tac[-1].any()


def test_generate_trial_length_floor(topo):
    plant = make_plant(topo, make_object(False, False, False), PlantConfig())
    with pytest.raises(ValueError):
        generate_trial(plant, seed=0, length=49)


def test_generate_dataset_trials_radius_jitter(topo):
    trials = generate_dataset_trials(topo, object_catalog()[:2], 3, seed=5, length=120)
    assert len(trials) == 6
    names = [t.object_name for t in trials]
    assert len(set(names)) == 6
    rerun = generate_dataset_trials(topo, object_catalog()[:2], 3, seed=5, length=120)
    for a, b in zip(trials, rerun):
        np.testing.assert_array_equal(a.joints, b.joints)


def test_plant_config_holds_only_a_finite_nonnegative_sensor_noise():
    assert [f.name for f in fields(PlantConfig)] == ["sensor_noise"]
    assert PlantConfig(sensor_noise=0).sensor_noise == 0
    for bad in (-0.1, float("nan"), float("inf"), True, "0.1", None):
        with pytest.raises(ValueError, match="'sensor_noise'"):
            PlantConfig(sensor_noise=bad)


def test_state_validation():
    with pytest.raises(ValueError):
        PlantState(joints=np.zeros(16), object_height=-0.1, object_tilt=0.0,
                   contact_map=np.zeros(24))
    with pytest.raises(ValueError):
        PlantState(joints=np.zeros(16), object_height=0.0, object_tilt=180.0,
                   contact_map=np.zeros(24))
