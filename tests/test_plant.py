"""Synthetic grasping plant: contact, lift, disturbances, trial generation."""
from __future__ import annotations

from dataclasses import fields, replace

import numpy as np
import pytest

from tgl import plant as P
from tgl.models import ModelSpec, build_from_spec, forward
from tgl.plant import (Disturbance, PlantConfig, PlantState, apply_disturbance, closure_target,
                       distance_to_palm, generate_dataset_trials, generate_trial,
                       initial_state, make_object, make_plant, object_catalog,
                       plant_step)
from tgl.rollout import RolloutConfig, rollout

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


def contact_per_step(plant, joints, sag: float) -> np.ndarray:
    """Reference: one step's penetration by the np.where/np.clip/.mean() formulas."""
    blocks = joints.reshape(4, 4).mean(axis=1)
    closure = np.where(plant.finger_block >= 0,
                       blocks[np.clip(plant.finger_block, 0, 3)], joints.mean())
    return np.maximum(0.0, closure - plant.onsets - sag)


def tactile_per_step(plant, contact) -> np.ndarray:
    normal = plant.obj.stiffness * contact
    tang = P.TANGENTIAL_GAIN * plant.obj.friction * normal[:, None] * plant.tangential
    return np.concatenate([tang, normal[:, None]], axis=1)


def sag_per_step(peak_height: float, height: float) -> float:
    return P.SAG_GAIN * max(0.0, peak_height - height) / P.GRASP_SPAN


def plant_step_per_step(plant, state, cmd):
    """Reference: `plant_step` written out with numpy calls on arrays and scalars alike."""
    cmd = np.asarray(cmd, dtype=np.float64)
    clipped = np.clip(cmd, P.JOINT_MIN, P.JOINT_MAX)
    joints = state.joints + np.clip(clipped - state.joints, -P.RATE_LIMIT, P.RATE_LIMIT)
    contact = contact_per_step(plant, joints, sag_per_step(state.peak_height,
                                                           state.object_height))
    mean_force = float((plant.obj.stiffness * contact).mean())
    supported = plant.obj.friction * mean_force / (plant.obj.mass_proxy * P.GRAVITY) >= 1.0
    frac = (float(joints.mean()) - P.LIFT_START) / (P.LIFT_FULL - P.LIFT_START)
    h_ref = P.GRASP_SPAN * float(np.clip(frac, 0.0, 1.0)) if supported else 0.0
    delta = np.clip(h_ref - state.object_height, -P.FALL_RATE, P.RISE_RATE)
    height = max(0.0, state.object_height + float(delta))
    tilt = max(0.0, state.object_tilt - P.TILT_RECOVER) if supported \
        else min(P.TILT_CAP, state.object_tilt + P.TILT_DRIFT)
    new = PlantState(joints=joints, object_height=height, object_tilt=tilt, contact_map=contact,
                     clamped=bool((clipped != cmd).any()),
                     peak_height=max(state.peak_height, height))
    return new, tactile_per_step(plant, contact)


def apply_disturbance_per_step(plant, state, d):
    if d.kind == "pull_down":
        height, tilt = max(0.0, state.object_height - d.magnitude), state.object_tilt
    else:
        height, tilt = state.object_height, min(P.TILT_CAP, state.object_tilt + d.magnitude)
    contact = contact_per_step(plant, state.joints, sag_per_step(state.peak_height, height))
    return replace(state, object_height=height, object_tilt=tilt, contact_map=contact)


def state_bytes(state) -> bytes:
    return state.joints.tobytes() + state.contact_map.tobytes() + np.array(
        [state.object_height, state.object_tilt, state.peak_height, state.clamped]).tobytes()


def _hand(name):
    return tgl.build_small_hand() if name == "small" else tgl.build_default_hand()


@pytest.mark.parametrize("hand", ["small", "default"])
def test_plant_step_and_disturbances_match_the_per_step_reference_bitwise(hand):
    """Closing, lifting, clamping, both pulls and the sag they leave, step by step."""
    topo, rng = _hand(hand), np.random.default_rng(11)
    for i, obj in enumerate(object_catalog()[::3]):
        plant = make_plant(topo, replace(obj, radius=0.85 + 0.1 * i))
        state = initial_state(plant, seed=i)
        lifted = sagged = clamped = 0
        for t in range(160):
            if t in (70, 110):
                d = Disturbance(t, "pull_down" if t == 70 else "pull_side", 1.7)
                got, want = apply_disturbance(plant, state, d), \
                    apply_disturbance_per_step(plant, state, d)
                assert state_bytes(got) == state_bytes(want)
                state = got
            cmd = min(1.4, 0.05 + 0.012 * t) + rng.uniform(-0.05, 0.05, 16)
            cmd[t % 16] += 2.0 * (t % 9 == 0)   # out of the joint box now and then
            (got, tactile), (want, tactile_ref) = plant_step(plant, state, cmd), \
                plant_step_per_step(plant, state, cmd)
            assert state_bytes(got) == state_bytes(want), t
            assert tactile.tobytes() == tactile_ref.tobytes(), t
            lifted += got.object_height > 0
            sagged += got.object_height < got.peak_height
            clamped += got.clamped
            state = got
        assert lifted and sagged and clamped   # every branch of the step was taken


def rollout_per_step(params, plant, cfg, seed):
    """Reference: `rollout`'s loop over the per-step plant; (command, state, tactile) a step."""
    state = initial_state(plant, seed)
    tactile = tactile_per_step(plant, state.contact_map)
    command, steps = state.joints.copy(), []
    for t in range(cfg.max_steps):
        if cfg.disturbance is not None and t == cfg.disturbance.step:
            state = apply_disturbance_per_step(plant, state, cfg.disturbance)
            tactile = tactile_per_step(plant, state.contact_map)
        if t % cfg.command_stride == 0:
            command = forward(params, tactile, state.joints, cfg.labels)
        state, tactile = plant_step_per_step(plant, state, command)
        steps.append((command.copy(), state, tactile))
    return steps


@pytest.mark.parametrize("hand", ["small", "default"])
@pytest.mark.parametrize("pull", [None, "pull_down"])
def test_a_rollout_matches_the_per_step_reference_bitwise(hand, pull):
    """A GCN whose only nonzero parameter is its output bias commands one closing pose, so
    the rollout grasps, lifts, and after a pull sags and lifts again."""
    topo = _hand(hand)
    params = build_from_spec(ModelSpec("GCN", (2,), (4,)), topo, seed=0)
    params.buffer[:] = 0.0
    params.fc_biases[-1].value[:] = 1.3
    obj = object_catalog()[0]
    cfg = RolloutConfig(max_steps=90, labels=obj.labels,
                        disturbance=Disturbance(50, pull, 2.0) if pull else None)
    plant = make_plant(topo, obj)
    trace = rollout(params, plant, cfg, seed=3)
    reference = rollout_per_step(params, plant, cfg, seed=3)
    assert len(trace) == len(reference)
    for step, (command, state, tactile) in zip(trace.steps, reference):
        assert step.commanded.tobytes() == command.tobytes()
        assert state_bytes(step.state) == state_bytes(state)
        assert step.tactile.tobytes() == tactile.tobytes()
    heights = trace.heights()
    assert heights.max() == P.GRASP_SPAN
    if pull:
        assert heights[50] < heights[49] and heights[-1] == P.GRASP_SPAN


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
    trials = list(generate_dataset_trials(topo, object_catalog()[:2], 3, seed=5, length=120))
    assert len(trials) == 6
    names = [t.object_name for t in trials]
    assert len(set(names)) == 6
    rerun = list(generate_dataset_trials(topo, object_catalog()[:2], 3, seed=5, length=120))
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
