"""Synthetic grasp-trial generator and toy plant for closed-loop rollouts.

Nothing here is physical simulation; the plant is a deterministic,
label-sensitive stand-in with just enough structure to exercise the
pipeline end to end:

  * each sensing node touches the object once its finger's closure
    passes a per-node onset (graded tip-first along each strip, shifted
    by the object radius);
  * tactile normal force is stiffness * penetration, with a fixed
    friction-scaled tangential direction per node;
  * the object lifts toward a closure-dependent reference height while
    the support ratio friction * mean-force / (mass * gravity) is at
    least 1, and sinks otherwise; lost height loosens the grip (sag),
    which is how a mid-rollout pull shows up in the tactile image;
  * heavier/harder/more slippery labels make the demonstrator squeeze
    deeper, so property labels causally change the generated forces.

Plant updates are pure: replaying a command log reproduces a trace
bitwise.
"""
from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, replace

import numpy as np

from .dataset import Trial, at_least, encode_labels, positive
from .topology import HandTopology

GOLDEN_ANGLE = 2.399963229728653

FINGER_JOINT_BLOCK = {"thumb": 0, "index": 1, "middle": 2, "ring": 3}

# joint box and actuation
JOINT_MIN = 0.0
JOINT_MAX = 1.8
OPEN_POSE = 0.05
RATE_LIMIT = 0.08
# label-conditioned closure depth of the demonstrator
BASE_CLOSURE = 1.0
HEAVY_EXTRA = 0.25
HARD_EXTRA = 0.20
SOFT_EXTRA = 0.10
SLIPPERY_EXTRA = 0.10
RADIUS_GAIN = 0.5              # smaller object -> squeeze deeper
# object property constants
BASE_RADIUS = 1.0
RADIUS_JITTER = 0.15
HARD_STIFFNESS = 6.0
SOFT_STIFFNESS_FACTOR = 0.3
BASE_FRICTION = 1.0
SLIPPERY_FRICTION_FACTOR = 0.4
LIGHT_MASS = 1.0
HEAVY_MASS_FACTOR = 2.5
# contact geometry
ONSET_ROW_STEP = 0.01          # earlier contact toward the tip
ONSET_ROW_CAP = 0.08
SEGMENT_ONSETS = {"fingertip": 0.30, "distal": 0.45, "proximal_upper": 0.60,
                  "proximal_lower": 0.75, "palm": 0.90}
DEFAULT_ONSET = 0.60
TANGENTIAL_GAIN = 0.5
# lift dynamics
GRAVITY = 0.12
GRASP_SPAN = 5.0               # initial palm-object distance; also max height
LIFT_START = 0.45
LIFT_FULL = 0.95
RISE_RATE = 0.35
FALL_RATE = 0.5
SAG_GAIN = 0.4                 # closure-units of grip lost at full height deficit
TILT_RECOVER = 3.0             # degrees per supported step
TILT_DRIFT = 1.0               # degrees per unsupported step
TILT_CAP = 179.0
# trial generation
SIGMOID_TAU_FRACTION = 1.0 / 14.0
MID_FRACTION = 0.45
PHASE_JITTER = 0.10
TARGET_JITTER = 0.03


@dataclass(frozen=True)
class PlantConfig:
    """Per-node tactile noise std while in contact; the plant's physics are module constants."""

    sensor_noise: float = 0.0

    def __post_init__(self):
        at_least("plant config field 'sensor_noise'", self.sensor_noise, 0.0)


@dataclass(frozen=True)
class SyntheticObject:
    name: str
    heavy: bool
    soft: bool
    slippery: bool
    radius: float
    stiffness: float
    friction: float
    mass_proxy: float

    @property
    def labels(self) -> np.ndarray:
        return encode_labels(self.heavy, self.soft, self.slippery)


def make_object(heavy: bool, soft: bool, slippery: bool, radius: float | None = None,
                name: str | None = None) -> SyntheticObject:
    radius = BASE_RADIUS if radius is None else radius
    positive("radius", radius)
    stiffness = HARD_STIFFNESS * (SOFT_STIFFNESS_FACTOR if soft else 1.0)
    friction = BASE_FRICTION * (SLIPPERY_FRICTION_FACTOR if slippery else 1.0)
    mass = LIGHT_MASS * (HEAVY_MASS_FACTOR if heavy else 1.0)
    if name is None:
        name = "_".join(("heavy" if heavy else "light", "soft" if soft else "hard",
                         "slippery" if slippery else "nonslip"))
    return SyntheticObject(name=name, heavy=heavy, soft=soft, slippery=slippery, radius=radius,
                           stiffness=stiffness, friction=friction, mass_proxy=mass)


def object_catalog(cfg: PlantConfig | None = None) -> list[SyntheticObject]:
    """All 8 property combinations (2 heaviness x 2 hardness x 2 slipperiness).

    cfg is ignored: it is kept only because the benchmark passes one.
    """
    return [make_object(h, s, p) for h in (False, True)
            for s in (False, True) for p in (False, True)]


@dataclass(frozen=True)
class PlantState:
    joints: np.ndarray        # (16,)
    object_height: float
    object_tilt: float        # degrees
    contact_map: np.ndarray   # (nodes,) penetration depth
    clamped: bool = False     # last command hit the joint box
    peak_height: float = 0.0  # high-water mark; height lost below it sags the grip

    def __post_init__(self):
        if self.object_height < 0:
            raise ValueError(f"object_height must be >= 0, got {self.object_height}")
        if not (0.0 <= self.object_tilt < 180.0):
            raise ValueError(f"object_tilt must lie in [0, 180), got {self.object_tilt}")

    @property
    def deformation(self) -> float:
        return float(self.contact_map.max()) if self.contact_map.size else 0.0


@dataclass(frozen=True)
class Plant:
    """Object + topology-derived contact context for stepping."""

    obj: SyntheticObject
    cfg: PlantConfig
    onsets: np.ndarray          # (nodes,) closure at which each node touches
    finger_block: np.ndarray    # (nodes,) joint block index, -1 = whole-hand mean
    tangential: np.ndarray      # (nodes, 2) unit in-plane force direction

    @property
    def n_nodes(self) -> int:
        return self.onsets.shape[0]


def make_plant(topology: HandTopology, obj: SyntheticObject,
               cfg: PlantConfig = PlantConfig()) -> Plant:
    onsets = np.empty(topology.n)
    blocks = np.empty(topology.n, dtype=int)
    radius_shift = BASE_RADIUS - obj.radius  # smaller object -> later contact
    for node in topology.nodes:
        base = SEGMENT_ONSETS.get(node.segment, DEFAULT_ONSET)
        row_term = min(ONSET_ROW_CAP, ONSET_ROW_STEP * node.row)
        onsets[node.id] = base - row_term + radius_shift
        blocks[node.id] = FINGER_JOINT_BLOCK.get(node.finger, -1)
    theta = GOLDEN_ANGLE * np.arange(topology.n)
    tangential = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    return Plant(obj=obj, cfg=cfg, onsets=onsets, finger_block=blocks, tangential=tangential)


def _mean(x: np.ndarray, axis: int | None = None, keepdims: bool = False):
    """x.mean(axis) as numpy computes it, one sum and one division, without its dispatch."""
    return np.add.reduce(x, axis=axis, keepdims=keepdims) / (x.size if axis is None
                                                            else x.shape[axis])


def _closures(plant: Plant, joints: np.ndarray) -> np.ndarray:
    """Per-node driving closure: the node's finger block mean, or hand mean; joints (..., 16)."""
    blocks = _mean(joints.reshape(*joints.shape[:-1], 4, 4), axis=-1)
    means = np.concatenate([blocks, _mean(joints, axis=-1, keepdims=True)], axis=-1)
    return means[..., plant.finger_block]   # block -1, the last mean, is the hand's


def _penetration(plant: Plant, joints: np.ndarray, sag: float) -> np.ndarray:
    return np.maximum(0.0, _closures(plant, joints) - plant.onsets - sag)


def tactile_from_contact(plant: Plant, contact_map: np.ndarray) -> np.ndarray:
    """(..., nodes, 3) readings: x,y tangential, z normal = stiffness * penetration."""
    normal = plant.obj.stiffness * contact_map
    tang = TANGENTIAL_GAIN * plant.obj.friction * normal[..., None] * plant.tangential
    return np.concatenate([tang, normal[..., None]], axis=-1)


def _support(plant: Plant, contact_map: np.ndarray) -> float:
    mean_force = float(_mean(plant.obj.stiffness * contact_map))
    return plant.obj.friction * mean_force / (plant.obj.mass_proxy * GRAVITY)


def _reference_height(joints: np.ndarray) -> float:
    closure = float(_mean(joints))
    frac = (closure - LIFT_START) / (LIFT_FULL - LIFT_START)
    return GRASP_SPAN * min(max(frac, 0.0), 1.0)


def _sag(peak_height: float, height: float) -> float:
    """Grip loosening when the object hangs below the highest point it reached."""
    deficit = max(0.0, peak_height - height)
    return SAG_GAIN * deficit / GRASP_SPAN


def initial_state(plant: Plant, seed: int) -> PlantState:
    rng = np.random.default_rng((101, seed))
    joints = OPEN_POSE + rng.uniform(0.0, 0.02, 16)
    tilt = float(rng.uniform(3.0, 10.0))
    return PlantState(joints=joints, object_height=0.0, object_tilt=tilt,
                      contact_map=np.zeros(plant.n_nodes))


def distance_to_palm(state: PlantState) -> float:
    return max(0.0, GRASP_SPAN - state.object_height)


def plant_step(plant: Plant, state: PlantState,
               commanded_joints: np.ndarray) -> tuple[PlantState, np.ndarray]:
    """Advance one step; returns (new state, tactile (nodes, 3))."""
    cmd = np.asarray(commanded_joints, dtype=np.float64)
    if cmd.shape != (16,):
        raise ValueError(f"commanded joints must have shape (16,), got {cmd.shape}")
    if not np.isfinite(cmd).all():
        raise ValueError("commanded joints contain non-finite values")
    clipped = np.clip(cmd, JOINT_MIN, JOINT_MAX)
    clamped = bool((clipped != cmd).any())
    joints = state.joints + np.clip(clipped - state.joints, -RATE_LIMIT, RATE_LIMIT)

    contact = _penetration(plant, joints, _sag(state.peak_height, state.object_height))
    supported = _support(plant, contact) >= 1.0
    h_ref = _reference_height(joints) if supported else 0.0
    delta = min(max(h_ref - state.object_height, -FALL_RATE), RISE_RATE)
    height = max(0.0, state.object_height + delta)
    if supported:
        tilt = max(0.0, state.object_tilt - TILT_RECOVER)
    else:
        tilt = min(TILT_CAP, state.object_tilt + TILT_DRIFT)

    new_state = PlantState(joints=joints, object_height=height, object_tilt=tilt,
                           contact_map=contact, clamped=clamped,
                           peak_height=max(state.peak_height, height))
    return new_state, tactile_from_contact(plant, contact)


DISTURBANCE_KINDS = ("pull_down", "pull_side")


@dataclass(frozen=True)
class Disturbance:
    """An external pull of `magnitude` on the grasped object at rollout step `step`."""
    step: int
    kind: str
    magnitude: float

    def __post_init__(self):
        if self.kind not in DISTURBANCE_KINDS:
            raise ValueError(f"unknown disturbance kind {self.kind!r}; "
                             f"expected {' or '.join(DISTURBANCE_KINDS)}")
        at_least("step", self.step, 0)
        positive("magnitude", self.magnitude)


def apply_disturbance(plant: Plant, state: PlantState, disturbance: Disturbance) -> PlantState:
    """External pull on the grasped object; contact is recomputed afterwards."""
    magnitude = disturbance.magnitude
    if disturbance.kind == "pull_down":
        height, tilt = max(0.0, state.object_height - magnitude), state.object_tilt
    else:   # pull_side
        height, tilt = state.object_height, min(TILT_CAP, state.object_tilt + magnitude)
    contact = _penetration(plant, state.joints, _sag(state.peak_height, height))
    return replace(state, object_height=height, object_tilt=tilt, contact_map=contact)


def closure_target(plant: Plant) -> float:
    """Demonstrator's label- and radius-conditioned final closure depth."""
    obj = plant.obj
    return min(BASE_CLOSURE + (HEAVY_EXTRA if obj.heavy else 0.0)
               + (SOFT_EXTRA if obj.soft else HARD_EXTRA)
               + (SLIPPERY_EXTRA if obj.slippery else 0.0)
               + RADIUS_GAIN * (BASE_RADIUS - obj.radius), JOINT_MAX)


MIN_TRIAL_LENGTH = 50


def generate_trial(plant: Plant, seed: int, length: int = 700) -> Trial:
    """Open-loop demonstration: seeded sigmoidal closure plus contact tactile.

    The demonstrator is assumed to keep the object supported, so the
    grip never sags and tactile is a pure function of closure.  Sensor
    noise (if configured) applies only where a node is in contact.
    """
    at_least("length", length, MIN_TRIAL_LENGTH)
    rng = np.random.default_rng((202, seed))
    target = closure_target(plant)
    t_mid = MID_FRACTION * length
    tau = SIGMOID_TAU_FRACTION * length
    t0 = t_mid * (1.0 + PHASE_JITTER * rng.uniform(-1.0, 1.0, 16))
    tgt = np.clip(target * (1.0 + TARGET_JITTER * rng.uniform(-1.0, 1.0, 16)),
                  JOINT_MIN, JOINT_MAX)
    steps = np.arange(length)[:, None]
    joints = OPEN_POSE + (tgt - OPEN_POSE) / (1.0 + np.exp(-(steps - t0) / tau))

    contact = _penetration(plant, joints, sag=0.0)   # (length, nodes)
    tactile = tactile_from_contact(plant, contact)
    if plant.cfg.sensor_noise > 0:
        noise = rng.normal(0.0, plant.cfg.sensor_noise, (length, plant.n_nodes, 3))
        tactile = tactile + noise * (contact > 0)[..., None]
    return Trial(plant.obj.name, np.arange(length), joints, tactile, plant.obj.labels)


def trial_name(obj: SyntheticObject, k: int) -> str:
    """Name of demonstration k of obj, and the stem of its CSV."""
    return f"{obj.name}_t{k:02d}"


def generate_object_trial(topology: HandTopology, obj: SyntheticObject, index: int, k: int,
                          seed: int, length: int = 700,
                          cfg: PlantConfig = PlantConfig()) -> Trial:
    """Demonstration k of objects[index], with its own radius and seed drawn from (seed, index, k).

    The per-trial radius moves both contact onsets and the squeeze
    depth, so the tactile image carries grasp information the joint
    trajectory alone does not.
    """
    rng = np.random.default_rng((303, seed, index, k))
    radius = BASE_RADIUS + RADIUS_JITTER * float(rng.uniform(-1.0, 1.0))
    trial_obj = replace(obj, radius=radius, name=trial_name(obj, k))
    return generate_trial(make_plant(topology, trial_obj, cfg), seed=int(rng.integers(2**31)),
                          length=length)


def generate_dataset_trials(topology: HandTopology, objects: list[SyntheticObject],
                            trials_per: int, seed: int, length: int = 700,
                            cfg: PlantConfig = PlantConfig()) -> Iterator[Trial]:
    """trials_per demonstrations per object, object-major (see generate_object_trial), each
    drawn as it is taken; trials_per is checked at the call."""
    at_least("trials_per", trials_per, 1)
    return (generate_object_trial(topology, obj, oi, k, seed, length, cfg)
            for oi, obj in enumerate(objects) for k in range(trials_per))
