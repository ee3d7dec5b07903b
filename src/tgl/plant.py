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

import json
from dataclasses import asdict, dataclass, replace

import numpy as np

from .dataset import Trial, TrajectoryRecord, encode_labels
from .topology import HandTopology

GOLDEN_ANGLE = 2.399963229728653

FINGER_JOINT_BLOCK = {"thumb": 0, "index": 1, "middle": 2, "ring": 3}


@dataclass(frozen=True)
class PlantConfig:
    # joint box and actuation
    joint_min: float = 0.0
    joint_max: float = 1.8
    open_pose: float = 0.05
    rate_limit: float = 0.08
    # label-conditioned closure depth of the demonstrator
    base_closure: float = 1.0
    heavy_extra: float = 0.25
    hard_extra: float = 0.20
    soft_extra: float = 0.10
    slippery_extra: float = 0.10
    radius_gain: float = 0.5        # smaller object -> squeeze deeper
    # object property constants
    base_radius: float = 1.0
    radius_jitter: float = 0.15
    hard_stiffness: float = 6.0
    soft_stiffness_factor: float = 0.3
    base_friction: float = 1.0
    slippery_friction_factor: float = 0.4
    light_mass: float = 1.0
    heavy_mass_factor: float = 2.5
    # contact geometry
    onset_tip: float = 0.30        # fingertip rows touch first
    onset_row_step: float = 0.01   # earlier contact toward the tip
    onset_row_cap: float = 0.08
    segment_onsets: tuple[tuple[str, float], ...] = (
        ("fingertip", 0.30), ("distal", 0.45), ("proximal_upper", 0.60),
        ("proximal_lower", 0.75), ("palm", 0.90))
    default_onset: float = 0.60
    tangential_gain: float = 0.5
    # lift dynamics
    gravity: float = 0.12
    grasp_span: float = 5.0        # initial palm-object distance; also max height
    lift_start: float = 0.45
    lift_full: float = 0.95
    rise_rate: float = 0.35
    fall_rate: float = 0.5
    sag_gain: float = 0.4          # closure-units of grip lost at full height deficit
    tilt_recover: float = 3.0      # degrees per supported step
    tilt_drift: float = 1.0        # degrees per unsupported step
    tilt_cap: float = 179.0
    soft_deformation_bound: float = 1.45
    # trial generation
    sigmoid_tau_fraction: float = 1.0 / 14.0
    mid_fraction: float = 0.45
    phase_jitter: float = 0.10
    target_jitter: float = 0.03
    sensor_noise: float = 0.0

    def to_json(self, path: str) -> None:
        with open(path, "w") as f:
            json.dump(asdict(self), f, indent=1)
            f.write("\n")

    @classmethod
    def from_json(cls, path: str) -> "PlantConfig":
        with open(path) as f:
            raw = json.load(f)
        known = {f.name for f in cls.__dataclass_fields__.values()}  # type: ignore[attr-defined]
        unknown = set(raw) - known
        if unknown:
            raise ValueError(f"unknown plant config fields: {sorted(unknown)}")
        if "segment_onsets" in raw:
            raw["segment_onsets"] = tuple((str(k), float(v)) for k, v in raw["segment_onsets"])
        return cls(**raw)


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


def make_object(heavy: bool, soft: bool, slippery: bool, cfg: PlantConfig = PlantConfig(),
                radius: float | None = None, name: str | None = None) -> SyntheticObject:
    stiffness = cfg.hard_stiffness * (cfg.soft_stiffness_factor if soft else 1.0)
    friction = cfg.base_friction * (cfg.slippery_friction_factor if slippery else 1.0)
    mass = cfg.light_mass * (cfg.heavy_mass_factor if heavy else 1.0)
    if name is None:
        name = "_".join(("heavy" if heavy else "light", "soft" if soft else "hard",
                         "slippery" if slippery else "nonslip"))
    return SyntheticObject(name=name, heavy=heavy, soft=soft, slippery=slippery,
                           radius=cfg.base_radius if radius is None else radius,
                           stiffness=stiffness, friction=friction, mass_proxy=mass)


def object_catalog(cfg: PlantConfig = PlantConfig()) -> list[SyntheticObject]:
    """All 8 property combinations (2 heaviness x 2 hardness x 2 slipperiness)."""
    return [make_object(h, s, p, cfg) for h in (False, True)
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
    seg_onsets = dict(cfg.segment_onsets)
    onsets = np.empty(topology.n)
    blocks = np.empty(topology.n, dtype=int)
    radius_shift = cfg.base_radius - obj.radius  # smaller object -> later contact
    for node in topology.nodes:
        base = seg_onsets.get(node.segment, cfg.default_onset)
        row_term = min(cfg.onset_row_cap, cfg.onset_row_step * node.row)
        onsets[node.id] = base - row_term + radius_shift
        blocks[node.id] = FINGER_JOINT_BLOCK.get(node.finger, -1)
    theta = GOLDEN_ANGLE * np.arange(topology.n)
    tangential = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    return Plant(obj=obj, cfg=cfg, onsets=onsets, finger_block=blocks, tangential=tangential)


def _closures(plant: Plant, joints: np.ndarray) -> np.ndarray:
    """Per-node driving closure: the node's finger block mean, or hand mean."""
    blocks = joints.reshape(4, 4).mean(axis=1)
    hand = joints.mean()
    per_node = np.where(plant.finger_block >= 0,
                        blocks[np.clip(plant.finger_block, 0, 3)], hand)
    return per_node


def _penetration(plant: Plant, joints: np.ndarray, sag: float) -> np.ndarray:
    return np.maximum(0.0, _closures(plant, joints) - plant.onsets - sag)


def tactile_from_contact(plant: Plant, contact_map: np.ndarray) -> np.ndarray:
    """(nodes, 3) readings: x,y tangential, z normal = stiffness * penetration."""
    normal = plant.obj.stiffness * contact_map
    tang = plant.cfg.tangential_gain * plant.obj.friction * normal[:, None] * plant.tangential
    return np.concatenate([tang, normal[:, None]], axis=1)


def _support(plant: Plant, contact_map: np.ndarray) -> float:
    mean_force = float((plant.obj.stiffness * contact_map).mean())
    return plant.obj.friction * mean_force / (plant.obj.mass_proxy * plant.cfg.gravity)


def _reference_height(plant: Plant, joints: np.ndarray) -> float:
    cfg = plant.cfg
    closure = float(joints.mean())
    frac = (closure - cfg.lift_start) / (cfg.lift_full - cfg.lift_start)
    return cfg.grasp_span * float(np.clip(frac, 0.0, 1.0))


def _sag(plant: Plant, peak_height: float, height: float) -> float:
    """Grip loosening when the object hangs below the highest point it reached."""
    deficit = max(0.0, peak_height - height)
    return plant.cfg.sag_gain * deficit / plant.cfg.grasp_span


def initial_state(plant: Plant, seed: int) -> PlantState:
    rng = np.random.default_rng((101, seed))
    joints = plant.cfg.open_pose + rng.uniform(0.0, 0.02, 16)
    tilt = float(rng.uniform(3.0, 10.0))
    return PlantState(joints=joints, object_height=0.0, object_tilt=tilt,
                      contact_map=np.zeros(plant.n_nodes))


def distance_to_palm(state: PlantState, cfg: PlantConfig) -> float:
    return max(0.0, cfg.grasp_span - state.object_height)


def plant_step(plant: Plant, state: PlantState,
               commanded_joints: np.ndarray) -> tuple[PlantState, np.ndarray]:
    """Advance one step; returns (new state, tactile (nodes, 3))."""
    cfg = plant.cfg
    cmd = np.asarray(commanded_joints, dtype=np.float64)
    if cmd.shape != (16,):
        raise ValueError(f"commanded joints must have shape (16,), got {cmd.shape}")
    if not np.isfinite(cmd).all():
        raise ValueError("commanded joints contain non-finite values")
    clipped = np.clip(cmd, cfg.joint_min, cfg.joint_max)
    clamped = bool((clipped != cmd).any())
    joints = state.joints + np.clip(clipped - state.joints, -cfg.rate_limit, cfg.rate_limit)

    contact = _penetration(plant, joints, _sag(plant, state.peak_height, state.object_height))
    supported = _support(plant, contact) >= 1.0
    h_ref = _reference_height(plant, joints) if supported else 0.0
    delta = np.clip(h_ref - state.object_height, -cfg.fall_rate, cfg.rise_rate)
    height = max(0.0, state.object_height + float(delta))
    if supported:
        tilt = max(0.0, state.object_tilt - cfg.tilt_recover)
    else:
        tilt = min(cfg.tilt_cap, state.object_tilt + cfg.tilt_drift)

    new_state = PlantState(joints=joints, object_height=height, object_tilt=tilt,
                           contact_map=contact, clamped=clamped,
                           peak_height=max(state.peak_height, height))
    return new_state, tactile_from_contact(plant, contact)


def apply_disturbance(plant: Plant, state: PlantState, kind: str,
                      magnitude: float) -> PlantState:
    """External pull on the grasped object; contact is recomputed afterwards."""
    if magnitude <= 0:
        raise ValueError(f"disturbance magnitude must be positive, got {magnitude}")
    if kind == "pull_down":
        height, tilt = max(0.0, state.object_height - magnitude), state.object_tilt
    elif kind == "pull_side":
        height = state.object_height
        tilt = min(plant.cfg.tilt_cap, state.object_tilt + magnitude)
    else:
        raise ValueError(f"unknown disturbance kind {kind!r}; expected pull_down or pull_side")
    contact = _penetration(plant, state.joints, _sag(plant, state.peak_height, height))
    return replace(state, object_height=height, object_tilt=tilt, contact_map=contact)


def closure_target(plant: Plant) -> float:
    """Demonstrator's label- and radius-conditioned final closure depth."""
    cfg, obj = plant.cfg, plant.obj
    target = cfg.base_closure
    target += cfg.heavy_extra if obj.heavy else 0.0
    target += cfg.hard_extra if not obj.soft else cfg.soft_extra
    target += cfg.slippery_extra if obj.slippery else 0.0
    target += cfg.radius_gain * (cfg.base_radius - obj.radius)
    return min(target, cfg.joint_max)


def generate_trial(plant: Plant, seed: int, length: int = 700) -> Trial:
    """Open-loop demonstration: seeded sigmoidal closure plus contact tactile.

    The demonstrator is assumed to keep the object supported, so the
    grip never sags and tactile is a pure function of closure.  Sensor
    noise (if configured) applies only where a node is in contact.
    """
    if length < 50:
        raise ValueError(f"trial length must be >= 50, got {length}")
    cfg = plant.cfg
    rng = np.random.default_rng((202, seed))
    target = closure_target(plant)
    t_mid = cfg.mid_fraction * length
    tau = cfg.sigmoid_tau_fraction * length
    t0 = t_mid * (1.0 + cfg.phase_jitter * rng.uniform(-1.0, 1.0, 16))
    tgt = np.clip(target * (1.0 + cfg.target_jitter * rng.uniform(-1.0, 1.0, 16)),
                  cfg.joint_min, cfg.joint_max)
    steps = np.arange(length)[:, None]
    joints = cfg.open_pose + (tgt - cfg.open_pose) / (1.0 + np.exp(-(steps - t0) / tau))

    noise = rng.normal(0.0, cfg.sensor_noise, (length, plant.n_nodes, 3)) \
        if cfg.sensor_noise > 0 else None
    labels = plant.obj.labels
    records = []
    for t in range(length):
        contact = _penetration(plant, joints[t], sag=0.0)
        tactile = tactile_from_contact(plant, contact)
        if noise is not None:
            tactile = tactile + noise[t] * (contact > 0)[:, None]
        records.append(TrajectoryRecord(t=t, joints=joints[t], tactile=tactile, labels=labels))
    return Trial(plant.obj.name, records)


def generate_object_trial(topology: HandTopology, obj: SyntheticObject, index: int, k: int,
                          seed: int, length: int = 700,
                          cfg: PlantConfig = PlantConfig()) -> Trial:
    """Demonstration k of objects[index], with its own radius and seed drawn from (seed, index, k).

    The per-trial radius moves both contact onsets and the squeeze
    depth, so the tactile image carries grasp information the joint
    trajectory alone does not.
    """
    rng = np.random.default_rng((303, seed, index, k))
    radius = cfg.base_radius + cfg.radius_jitter * float(rng.uniform(-1.0, 1.0))
    trial_obj = replace(obj, radius=radius, name=f"{obj.name}_t{k:02d}")
    return generate_trial(make_plant(topology, trial_obj, cfg), seed=int(rng.integers(2**31)),
                          length=length)


def generate_dataset_trials(topology: HandTopology, objects: list[SyntheticObject],
                            trials_per: int, seed: int, length: int = 700,
                            cfg: PlantConfig = PlantConfig()) -> list[Trial]:
    """trials_per demonstrations per object, object-major (see generate_object_trial)."""
    if trials_per < 1:
        raise ValueError(f"trials_per must be >= 1, got {trials_per}")
    return [generate_object_trial(topology, obj, oi, k, seed, length, cfg)
            for oi, obj in enumerate(objects) for k in range(trials_per)]
