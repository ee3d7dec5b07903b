"""Graph-convolution and MLP motion-generation models.

A GCN layer computes H' = sigma(S @ H @ W) where S is the fixed
symmetric-normalized propagation operator of the sensor graph; taking
the last layer's node features, flattening node-major, concatenating
current joints and the 6 property labels, and passing the result through
a fully connected stack yields the joint command 10 steps ahead.  Conv
layers carry no bias; fc hidden layers are ReLU, the 16-wide output
layer is linear.
"""
from __future__ import annotations

import json
import os
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .dataset import JOINT_DIM, LABEL_DIM
from .optim import Parameter, glorot_uniform
from .tensor import NonFiniteError, Tensor, concat, matmul, no_grad, relu, reshape
from .topology import HandTopology, PropagationMatrix, propagation_for

TACTILE_AXES = 3
AUX_DIM = JOINT_DIM + LABEL_DIM
OUTPUT_DIM = 16
HORIZON = 10

CHECKPOINT_FORMAT_VERSION = 1


@dataclass(frozen=True)
class ModelSpec:
    kind: str                        # "GCN" | "MLP"
    conv_channels: tuple[int, ...]   # output width per graph-conv layer
    fc_sizes: tuple[int, ...]        # hidden fc widths (output layer excluded)
    input_channels: int = TACTILE_AXES
    aux_input: int = AUX_DIM
    output_dim: int = OUTPUT_DIM
    horizon: int = HORIZON

    def __post_init__(self):
        if self.kind not in ("GCN", "MLP"):
            raise ValueError(f"kind must be GCN or MLP, got {self.kind!r}")
        if self.kind == "GCN" and not self.conv_channels:
            raise ValueError("GCN models need at least one conv layer")
        if self.kind == "MLP" and self.conv_channels:
            raise ValueError("MLP models must not have conv layers")
        for w in (*self.conv_channels, *self.fc_sizes):
            if w < 1:
                raise ValueError(f"layer widths must be positive, got {w}")
        if self.output_dim != OUTPUT_DIM:
            raise ValueError(f"output_dim must be {OUTPUT_DIM}, got {self.output_dim}")
        if self.horizon < 1:
            raise ValueError(f"horizon must be >= 1, got {self.horizon}")

    def flat_width(self, n_nodes: int) -> int:
        """Width of the flattened per-node features entering the fc stack."""
        per_node = self.conv_channels[-1] if self.kind == "GCN" else self.input_channels
        return n_nodes * per_node

    def fc_input_width(self, n_nodes: int) -> int:
        return self.flat_width(n_nodes) + self.aux_input

    def fc_layer_sizes(self, n_nodes: int) -> list[tuple[int, int]]:
        widths = [self.fc_input_width(n_nodes), *self.fc_sizes, self.output_dim]
        return list(zip(widths[:-1], widths[1:]))


_TABLE_FC = (8000, 1000, 120, 50)
MODEL_TABLE: dict[str, ModelSpec] = {
    "I": ModelSpec("GCN", (14, 28, 56, 112, 112, 112), _TABLE_FC),
    "II": ModelSpec("GCN", (14, 28, 56, 112), _TABLE_FC),
    "III": ModelSpec("GCN", (14, 28, 56), _TABLE_FC),
    "IV": ModelSpec("MLP", (), (1500, 3000, 1500, 700, 350, 100, 50)),
}


def model_spec(name: str) -> ModelSpec:
    try:
        return MODEL_TABLE[name]
    except KeyError:
        raise ValueError(f"unknown model name {name!r}; expected one of {sorted(MODEL_TABLE)}") from None


@dataclass
class ModelParams:
    spec: ModelSpec
    n_nodes: int
    seed: int
    conv_weights: list[Parameter]
    fc_weights: list[Parameter]
    fc_biases: list[Parameter]
    propagation: PropagationMatrix | None
    s_tensor: Tensor | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.spec.kind == "GCN":
            if self.propagation is None:
                raise ValueError("GCN models need a propagation matrix")
            if self.s_tensor is None:
                self.s_tensor = Tensor(self.propagation.s)
        c_in = self.spec.input_channels
        for i, (w, c_out) in enumerate(zip(self.conv_weights, self.spec.conv_channels)):
            if w.shape != (c_in, c_out):
                raise ValueError(f"conv weight {i} has shape {w.shape}, expected {(c_in, c_out)}")
            c_in = c_out
        expected = self.spec.fc_layer_sizes(self.n_nodes)
        if len(self.fc_weights) != len(expected):
            raise ValueError(f"expected {len(expected)} fc layers, got {len(self.fc_weights)}")
        for i, ((a, b), w, bias) in enumerate(zip(expected, self.fc_weights, self.fc_biases)):
            if w.shape != (a, b):
                raise ValueError(f"fc weight {i} has shape {w.shape}, expected {(a, b)}")
            if bias.shape != (b,):
                raise ValueError(f"fc bias {i} has shape {bias.shape}, expected {(b,)}")

    def parameters(self) -> list[Parameter]:
        out = list(self.conv_weights)
        for w, b in zip(self.fc_weights, self.fc_biases):
            out.append(w)
            out.append(b)
        return out

    def parameter_count(self) -> int:
        return sum(p.value.size for p in self.parameters())


def build_from_spec(spec: ModelSpec, topology: HandTopology, seed: int) -> ModelParams:
    """Seeded glorot-uniform weights, zero biases; draw order is fixed."""
    rng = np.random.default_rng(seed)
    conv_weights = []
    c_in = spec.input_channels
    for i, c_out in enumerate(spec.conv_channels):
        conv_weights.append(Parameter(glorot_uniform(rng, c_in, c_out), name=f"conv{i}"))
        c_in = c_out
    fc_weights, fc_biases = [], []
    for i, (a, b) in enumerate(spec.fc_layer_sizes(topology.n)):
        fc_weights.append(Parameter(glorot_uniform(rng, a, b), name=f"fc{i}.weight"))
        fc_biases.append(Parameter(np.zeros(b), name=f"fc{i}.bias"))
    prop = propagation_for(topology) if spec.kind == "GCN" else None
    return ModelParams(spec=spec, n_nodes=topology.n, seed=seed, conv_weights=conv_weights,
                       fc_weights=fc_weights, fc_biases=fc_biases, propagation=prop)


def build_model(name: str, topology: HandTopology, seed: int) -> ModelParams:
    return build_from_spec(model_spec(name), topology, seed)


@contextmanager
def _named_layer(stage: str):
    """Re-raise non-finite errors naming the first offending layer."""
    try:
        yield
    except NonFiniteError as e:
        raise NonFiniteError(f"{stage}: {e}") from e


def conv_features(params: ModelParams, tactile) -> Tensor:
    """Run the conv stack only; returns node features [..., nodes, c_last]."""
    if params.spec.kind != "GCN":
        raise ValueError("no conv features: model has no graph-conv layers")
    x = tactile if isinstance(tactile, Tensor) else Tensor(tactile)
    if x.shape[-2] != params.n_nodes or x.shape[-1] != params.spec.input_channels:
        raise ValueError(f"tactile must end in ({params.n_nodes}, {params.spec.input_channels}), "
                         f"got {x.shape}")
    for i, w in enumerate(params.conv_weights):
        with _named_layer(f"conv layer {i}"):
            x = relu(matmul(matmul(params.s_tensor, x), w.value))
    return x


def forward_batch(params: ModelParams, tactile, aux) -> Tensor:
    """Batched forward: tactile [B, nodes, 3], aux [B, 22] -> joints [B, 16]."""
    aux_t = aux if isinstance(aux, Tensor) else Tensor(aux)
    if aux_t.ndim != 2 or aux_t.shape[1] != params.spec.aux_input:
        raise ValueError(f"aux must be [batch, {params.spec.aux_input}], got {aux_t.shape}")
    batch = aux_t.shape[0]
    if params.spec.kind == "GCN":
        feats = conv_features(params, tactile)
        flat = reshape(feats, (batch, params.spec.flat_width(params.n_nodes)))
    else:
        x = tactile if isinstance(tactile, Tensor) else Tensor(tactile)
        flat = reshape(x, (batch, params.spec.flat_width(params.n_nodes)))
    h = concat([flat, aux_t], axis=1)
    last = len(params.fc_weights) - 1
    for i, (w, b) in enumerate(zip(params.fc_weights, params.fc_biases)):
        stage = "output layer" if i == last else f"fc layer {i}"
        with _named_layer(stage):
            h = matmul(h, w.value) + b.value
            if i != last:
                h = relu(h)
    return h


def forward(params: ModelParams, tactile, joints, labels) -> np.ndarray:
    """Single-step inference; returns the predicted joint vector (16,)."""
    tactile = np.asarray(tactile, dtype=np.float64)
    joints = np.asarray(joints, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    if tactile.shape != (params.n_nodes, params.spec.input_channels):
        raise ValueError(f"tactile must be ({params.n_nodes}, {params.spec.input_channels}), "
                         f"got {tactile.shape}")
    if joints.shape != (JOINT_DIM,):
        raise ValueError(f"joints must be ({JOINT_DIM},), got {joints.shape}")
    if labels.shape != (LABEL_DIM,) or not np.isin(labels, (0.0, 1.0)).all():
        raise ValueError("labels must be 6 values in {0, 1}")
    with no_grad():
        aux = np.concatenate([joints, labels])[None, :]
        out = forward_batch(params, tactile[None, :, :], aux)
    return out.data[0].copy()


# ---------------------------------------------------------------------------
# checkpoints: manifest JSON + one raw little-endian float64 blob

def _blob_path(manifest_path: str) -> str:
    base = manifest_path[:-5] if manifest_path.endswith(".json") else manifest_path
    return base + ".bin"


def save_checkpoint(params: ModelParams, path: str, extra: dict | None = None) -> None:
    blob = _blob_path(path)
    tensors = []
    offset = 0  # in elements
    with open(blob, "wb") as f:
        for p in params.parameters():
            for stream, arr in (("value", p.value.data), ("adam_m", p.adam_m), ("adam_v", p.adam_v)):
                arr = np.ascontiguousarray(arr, dtype="<f8")
                f.write(arr.tobytes())
                tensors.append({"name": f"{p.name}/{stream}", "shape": list(arr.shape),
                                "offset": offset})
                offset += arr.size
    manifest = {
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "kind": params.spec.kind,
        "conv_channels": list(params.spec.conv_channels),
        "fc_sizes": list(params.spec.fc_sizes),
        "input_channels": params.spec.input_channels,
        "aux_input": params.spec.aux_input,
        "output_dim": params.spec.output_dim,
        "horizon": params.spec.horizon,
        "n_nodes": params.n_nodes,
        "seed": params.seed,
        "dtype": "<f8",
        "blob": os.path.basename(blob),
        "total_elements": offset,
        "step_counts": [p.step_count for p in params.parameters()],
        "tensors": tensors,
        "extra": extra or {},
    }
    with open(path, "w") as f:
        json.dump(manifest, f, indent=1)
        f.write("\n")


def load_checkpoint(path: str, topology: HandTopology) -> tuple[ModelParams, dict]:
    with open(path) as f:
        man = json.load(f)
    if man.get("format_version") != CHECKPOINT_FORMAT_VERSION:
        raise ValueError(f"unsupported checkpoint format version {man.get('format_version')!r}")
    if man["n_nodes"] != topology.n:
        raise ValueError(f"checkpoint was built for {man['n_nodes']} nodes, "
                         f"topology has {topology.n}")
    spec = ModelSpec(kind=man["kind"], conv_channels=tuple(man["conv_channels"]),
                     fc_sizes=tuple(man["fc_sizes"]), input_channels=man["input_channels"],
                     aux_input=man["aux_input"], output_dim=man["output_dim"],
                     horizon=man["horizon"])
    blob = os.path.join(os.path.dirname(path) or ".", man["blob"])
    flat = np.fromfile(blob, dtype="<f8")
    if flat.size != man["total_elements"]:
        raise ValueError(f"blob holds {flat.size} elements, manifest says {man['total_elements']}")
    streams = {}
    for entry in man["tensors"]:
        shape = tuple(entry["shape"])
        count = int(np.prod(shape)) if shape else 1
        streams[entry["name"]] = flat[entry["offset"]:entry["offset"] + count].reshape(shape)

    def take(name: str) -> dict[str, np.ndarray]:
        try:
            return {s: streams[f"{name}/{s}"] for s in ("value", "adam_m", "adam_v")}
        except KeyError as e:
            raise ValueError(f"checkpoint is missing tensor {e.args[0]!r}") from e

    def rebuild(name: str) -> Parameter:
        got = take(name)
        p = Parameter(got["value"], name=name)
        p.adam_m = got["adam_m"].astype(np.float64).copy()
        p.adam_v = got["adam_v"].astype(np.float64).copy()
        return p

    conv_weights = [rebuild(f"conv{i}") for i in range(len(spec.conv_channels))]
    n_fc = len(spec.fc_sizes) + 1
    fc_weights = [rebuild(f"fc{i}.weight") for i in range(n_fc)]
    fc_biases = [rebuild(f"fc{i}.bias") for i in range(n_fc)]
    prop = propagation_for(topology) if spec.kind == "GCN" else None
    params = ModelParams(spec=spec, n_nodes=topology.n, seed=man["seed"],
                         conv_weights=conv_weights, fc_weights=fc_weights,
                         fc_biases=fc_biases, propagation=prop)
    for p, steps in zip(params.parameters(), man["step_counts"]):
        p.step_count = int(steps)
    return params, man.get("extra", {})
