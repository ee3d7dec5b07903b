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
import math
import os
from dataclasses import asdict, dataclass, field
from typing import NamedTuple

import numpy as np

from .dataset import HORIZON, JOINT_DIM, LABEL_DIM, read_json, validate_labels, write_json
from .optim import Parameter, glorot_uniform
from .tensor import SymmetricOperator, Tensor, _elementwise, _finite, _product
from .topology import HandTopology, propagation_for, topology_doc, topology_from_doc

TACTILE_AXES = 3                  # input channels per node: a tri-axial reading
AUX_DIM = JOINT_DIM + LABEL_DIM   # current joints and property labels beside the node features
OUTPUT_DIM = JOINT_DIM

CHECKPOINT_FORMAT_VERSION = 2
BLOB_DTYPE = "<f8"
STREAMS = ("value", "adam_m", "adam_v")   # a parameter's block in the buffer, in order
# Manifest entries that every checkpoint holds at these values, after the spec's own fields
_FIXED_ENTRIES = {"input_channels": TACTILE_AXES, "aux_input": AUX_DIM,
                  "output_dim": OUTPUT_DIM, "horizon": HORIZON}


@dataclass(frozen=True)
class ModelSpec:
    kind: str                        # "GCN" | "MLP"
    conv_channels: tuple[int, ...]   # output width per graph-conv layer
    fc_sizes: tuple[int, ...]        # hidden fc widths (output layer excluded)

    def __post_init__(self):
        """ValueError naming the field unless every size is a positive int (not a bool)."""
        if type(self.kind) is not str or self.kind not in ("GCN", "MLP"):
            raise ValueError(f"model spec field 'kind' must be GCN or MLP, got {self.kind!r}")
        if self.kind == "GCN" and not self.conv_channels:
            raise ValueError("GCN models need at least one conv layer")
        if self.kind == "MLP" and self.conv_channels:
            raise ValueError("MLP models must not have conv layers")
        for name in ("conv_channels", "fc_sizes"):
            if not all(type(v) is int and v >= 1 for v in getattr(self, name)):
                raise ValueError(f"model spec field {name!r} must hold integers >= 1, "
                                 f"got {getattr(self, name)!r}")

    def flat_width(self, n_nodes: int) -> int:
        """Width of the flattened per-node features entering the fc stack."""
        per_node = self.conv_channels[-1] if self.kind == "GCN" else TACTILE_AXES
        return n_nodes * per_node

    def fc_input_width(self, n_nodes: int) -> int:
        return self.flat_width(n_nodes) + AUX_DIM

    def fc_layer_sizes(self, n_nodes: int) -> list[tuple[int, int]]:
        widths = [self.fc_input_width(n_nodes), *self.fc_sizes, OUTPUT_DIM]
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


def parameter_layout(spec: ModelSpec, n_nodes: int) -> tuple[list[tuple[str, tuple, int]], int]:
    """(name, shape, offset) of each parameter in `ModelParams.parameters()` order, and the total.

    A parameter's block is its value, adam_m and adam_v; the blocks end to end, in
    float64 elements, are the model's buffer and its checkpoint blob alike.
    """
    widths = (TACTILE_AXES, *spec.conv_channels)
    shapes = [(f"conv{i}", (a, b)) for i, (a, b) in enumerate(zip(widths, widths[1:]))]
    for i, (a, b) in enumerate(spec.fc_layer_sizes(n_nodes)):
        shapes += [(f"fc{i}.weight", (a, b)), (f"fc{i}.bias", (b,))]
    layout, offset = [], 0
    for name, shape in shapes:
        layout.append((name, shape, offset))
        offset += len(STREAMS) * math.prod(shape)
    return layout, offset


@dataclass(eq=False)   # a model is equal only to itself, as its Parameters are
class ModelParams:
    """Parameters and Adam moments, all views into `buffer`, laid out by `parameter_layout`.

    A GCN also holds its graph's propagation matrix S as `s_tensor`.
    """
    spec: ModelSpec
    topology: HandTopology = field(repr=False)
    seed: int
    buffer: np.ndarray = field(repr=False)
    n_nodes: int = field(init=False)
    s_tensor: SymmetricOperator | None = field(init=False, repr=False)
    conv_weights: list[Parameter] = field(init=False, repr=False)
    fc_weights: list[Parameter] = field(init=False, repr=False)
    fc_biases: list[Parameter] = field(init=False, repr=False)
    _parameters: list[Parameter] = field(init=False, repr=False)

    def __post_init__(self):
        if type(self.seed) is not int:   # a checkpoint records it as a JSON integer
            raise ValueError(f"model seed must be an integer, got {self.seed!r}")
        self.n_nodes = self.topology.n
        self.s_tensor = SymmetricOperator(propagation_for(self.topology)) \
            if self.spec.kind == "GCN" else None
        params = self._parameters = [
            Parameter(self.buffer[offset:offset + len(STREAMS) * math.prod(shape)]
                      .reshape(len(STREAMS), *shape), name)
            for name, shape, offset in parameter_layout(self.spec, self.n_nodes)[0]]
        n_conv = len(self.spec.conv_channels)
        self.conv_weights = params[:n_conv]
        self.fc_weights, self.fc_biases = params[n_conv::2], params[n_conv + 1::2]

    def parameters(self) -> list[Parameter]:
        return list(self._parameters)

    def parameter_count(self) -> int:
        return self.buffer.size // len(STREAMS)


def build_from_spec(spec: ModelSpec, topology: HandTopology, seed: int) -> ModelParams:
    """Seeded glorot-uniform weights, zero biases and moments; draw order is fixed."""
    _, total = parameter_layout(spec, topology.n)
    params = ModelParams(spec=spec, topology=topology, seed=seed, buffer=np.zeros(total))
    rng = np.random.default_rng(seed)
    for p in params.parameters():
        if p.value.ndim == 2:   # a weight; biases stay zero
            p.value[:] = glorot_uniform(rng, *p.shape)
    return params


def matmul(a, b) -> np.ndarray:
    """a @ b for every product of a forward: S·H through `SymmetricOperator.apply`, any other
    through `_product`."""
    return a.apply(b) if isinstance(a, SymmetricOperator) else _product(a, b)


def _check_inputs(params: ModelParams, tactile: tuple[int, ...], aux: tuple[int, ...]) -> None:
    """ValueError unless the shapes are tactile [B, nodes, 3] and aux [B, 22], one B for both."""
    batch = aux[:1]
    if tactile != (*batch, params.n_nodes, TACTILE_AXES) or aux != (*batch, AUX_DIM):
        raise ValueError(f"inputs must be tactile [B, {params.n_nodes}, {TACTILE_AXES}] and aux "
                         f"[B, {AUX_DIM}], got {tactile} and {aux}")


def _layer(stage: str, h: np.ndarray, w: Parameter, b: Parameter | None, hidden: bool,
           tape: list | None, out: np.ndarray | None = None) -> np.ndarray:
    """h·W (+ b), through ReLU when hidden; on a tape, records h, the ReLU mask, w and b.

    A hidden layer's ReLU writes into `out` when it is given.

    The layer is checked finite once, after its last product or sum: a NaN or Inf in h or
    in h·W reaches every later sum of its row (BLAS makes inf · 0 NaN), and ReLU keeps
    finite values finite.
    """
    y = matmul(h, w.value)
    y = _finite(y if b is None else y + b.value, stage=stage)
    if tape is not None:
        # the gradient is exactly 0 at the kink
        tape.append((h, _elementwise(np.greater, y, 0, bool) if hidden else None, w, b))
    # maximum(y, 0.0) returns +0.0 for -0.0, matching where(y > 0, y, 0.0) bit for bit
    return _elementwise(np.maximum, y, 0.0, out=out) if hidden else y


def _conv_stack(params: ModelParams, x: np.ndarray, tape: list | None = None,
                out: np.ndarray | None = None) -> np.ndarray:
    """The conv layers' output; the last layer writes it into `out` when that is given."""
    last = len(params.conv_weights) - 1
    for i, w in enumerate(params.conv_weights):   # S·H is checked with its ·W
        x = _layer(f"conv layer {i}: ", matmul(params.s_tensor, x), w, None, True, tape,
                   out if i == last else None)
    return x


def _walk(params: ModelParams, tactile, aux, tape: list | None = None) -> np.ndarray:
    """The network: tactile [B, nodes, 3], aux [B, 22] -> joints [B, 16].

    A layer's NonFiniteError names it as `conv layer i`, `fc layer i` or `output layer`.
    With a tape, each layer appends its cache, first layer first (see `_layer`).
    """
    tactile, aux = np.asarray(tactile, dtype=np.float64), np.asarray(aux, dtype=np.float64)
    _check_inputs(params, tactile.shape, aux.shape)
    flat = params.spec.flat_width(params.n_nodes)
    h = np.empty((len(aux), flat + AUX_DIM))   # the fc input: node features, then aux
    h[:, flat:] = _finite(aux)
    head = h[:, :flat].reshape(len(aux), params.n_nodes, -1)   # a view: splits only the last axis
    x = _conv_stack(params, _finite(tactile), tape, head)
    if x is not head:   # an MLP: no conv layer wrote it
        head[...] = x
    last = len(params.fc_weights) - 1
    for i, (w, b) in enumerate(zip(params.fc_weights, params.fc_biases)):
        h = _layer("output layer: " if i == last else f"fc layer {i}: ", h, w, b, i != last, tape)
    return h


def _walk_back(params: ModelParams, tape: list, g: np.ndarray) -> None:
    """Hand the output gradient g back through the tape's layers, last first.

    Each parameter adds its gradient to its `grad`.  The first layer's input needs no
    gradient, and the aux inputs beside the conv features get none.
    """
    n_conv = len(params.conv_weights)
    for k in reversed(range(len(tape))):
        h, mask, w, b = tape[k]
        if mask is not None:
            g = _elementwise(np.multiply, g, mask)
        if b is not None:
            _accumulate(b, g.sum(axis=0))
        g_w = _product(h.swapaxes(-1, -2), g)
        _accumulate(w, g_w.sum(axis=0) if g_w.ndim > 2 else g_w)   # a conv weight's, over samples
        if k == 0:
            break
        g = _product(g, w.value.swapaxes(-1, -2))
        if k < n_conv:      # a conv layer's input gradient goes back through S
            g = params.s_tensor.apply(g, transpose=True)
        elif k == n_conv:   # the first fc layer's: its conv-feature columns, node by node
            g = g[:, :params.spec.flat_width(params.n_nodes)].reshape(len(g), params.n_nodes, -1)


def _accumulate(p: Parameter, g: np.ndarray) -> None:
    p.grad = g if p.grad is None else p.grad + g


def conv_features(params: ModelParams, tactile) -> np.ndarray:
    """Run the conv stack only; returns node features [..., nodes, c_last]."""
    if params.spec.kind != "GCN":
        raise ValueError("no conv features: model has no graph-conv layers")
    x = _finite(np.asarray(tactile, dtype=np.float64))
    if x.shape[-2:] != (params.n_nodes, TACTILE_AXES):
        raise ValueError(f"tactile must end in ({params.n_nodes}, {TACTILE_AXES}), got {x.shape}")
    return _conv_stack(params, x)


def predict(params: ModelParams, tactile, aux) -> np.ndarray:
    """Inference: tactile [B, nodes, 3], aux [B, 22] -> joints [B, 16], recording nothing."""
    return _walk(params, tactile, aux)


def forward_batch(params: ModelParams, tactile, aux) -> Tensor:
    """The training forward: `predict`'s walk, recording each layer on a tape.

    The Tensor's backward walks that tape back, adding to each parameter's `grad`.
    """
    tape: list = []
    out = _walk(params, tactile, aux, tape)
    return Tensor(out, lambda g: _walk_back(params, tape, g))


def forward(params: ModelParams, tactile, joints, labels) -> np.ndarray:
    """Single-step inference; returns the predicted joint vector (16,)."""
    validate_labels(labels)
    return predict(params, np.asarray(tactile, dtype=np.float64)[None],
                   np.concatenate([joints, labels])[None, :])[0]


# ---------------------------------------------------------------------------
# checkpoints: manifest JSON + one raw little-endian float64 blob

def checkpoint_blob(path: str) -> str:
    """The blob file written beside the manifest at `path`."""
    return (path[:-5] if path.endswith(".json") else path) + ".bin"


def _manifest(spec: ModelSpec, graph: dict, seed: int, step_counts: list, extra: dict,
              path: str) -> dict:
    """The manifest of the checkpoint at `path`, in write order; `graph` is a `topology_doc`."""
    layout, total = parameter_layout(spec, len(graph["nodes"]))
    return {
        "format_version": CHECKPOINT_FORMAT_VERSION,
        **asdict(spec),   # every ModelSpec field, under its own name
        **_FIXED_ENTRIES,
        "seed": seed,
        "dtype": BLOB_DTYPE,
        "blob": os.path.basename(checkpoint_blob(path)),
        "total_elements": total,
        "step_counts": step_counts,
        "tensors": [{"name": f"{name}/{stream}", "shape": list(shape),   # in blob order
                     "offset": offset + k * math.prod(shape)}
                    for name, shape, offset in layout for k, stream in enumerate(STREAMS)],
        "extra": extra,
        "topology": graph,
    }


def save_checkpoint(params: ModelParams, path: str, extra: dict | None = None) -> None:
    params.buffer.astype(BLOB_DTYPE, copy=False).tofile(checkpoint_blob(path))   # one write
    write_json(path, _manifest(params.spec, topology_doc(params.topology), params.seed,
                               [p.step_count for p in params.parameters()], extra or {}, path))


def _same_json(value, expected) -> bool:
    """Equal as JSON text, so that 24.0 or true does not pass for 24 or 1."""
    return json.dumps(value, sort_keys=True) == json.dumps(expected, sort_keys=True)


class Manifest(NamedTuple):
    """A checkpoint manifest's model, once `read_manifest` has checked it and its blob's size."""
    spec: ModelSpec
    topology: HandTopology
    seed: int
    step_counts: list[int]
    blob: str   # the blob's path
    extra: dict

    def model(self) -> ModelParams:
        """The model, with the blob read as its buffer."""
        return self._with_buffer(np.fromfile(self.blob, dtype=BLOB_DTYPE))

    def weights(self) -> ModelParams:
        """The model for inference: only each parameter's value run is read from the blob.

        The Adam moments stay the zeros of a fresh buffer, whose pages are never
        touched, so the model holds about 1x its parameter bytes.  The buffer is
        read-only: an Adam step on it raises before it changes anything.  A blob
        that ends inside a value run raises ValueError naming it.
        """
        layout, total = parameter_layout(self.spec, self.topology.n)
        buffer = np.zeros(total, BLOB_DTYPE)
        with open(self.blob, "rb") as f:
            for name, shape, offset in layout:
                values = buffer[offset:offset + math.prod(shape)]
                f.seek(offset * buffer.itemsize)
                if f.readinto(values) != values.nbytes:
                    raise ValueError(f"checkpoint blob {self.blob} ends inside the values "
                                     f"of {name}")
        buffer.flags.writeable = False
        return self._with_buffer(buffer)

    def _with_buffer(self, buffer: np.ndarray) -> ModelParams:
        params = ModelParams(spec=self.spec, topology=self.topology, seed=self.seed,
                             buffer=buffer)
        for p, count in zip(params.parameters(), self.step_counts):
            p.step_count = count
        return params


def read_manifest(path: str, topology: HandTopology | None = None) -> Manifest:
    """A checkpoint's manifest, checked, without reading its blob.

    Its graph is the manifest's; a `topology` given must equal it and is used as is.
    ValueError names the file and the field when a field is missing or of the wrong
    type, or differs from what `save_checkpoint` writes for the manifest's own model
    spec and graph at `path`; it names the blob when that holds other than
    `total_elements` values.
    """
    man = read_json(path)

    def entry(key: str, expected=None):
        if not isinstance(man, dict) or key not in man:
            raise ValueError(f"checkpoint {path}: manifest has no {key!r}")
        if expected is not None and not _same_json(man[key], expected):
            raise ValueError(f"checkpoint {path}: {key!r} is {man[key]!r}, expected {expected!r}")
        return man[key]

    entry("format_version", CHECKPOINT_FORMAT_VERSION)
    graph = entry("topology")
    if topology is None:
        try:
            topology = topology_from_doc(graph, "the graph")
        except ValueError as e:
            raise ValueError(f"checkpoint {path}: bad 'topology': {e}") from None
    elif not _same_json(graph, topology_doc(topology)):
        raise ValueError(f"checkpoint {path}: 'topology' is not the graph given")
    kind, conv, fc = entry("kind"), entry("conv_channels"), entry("fc_sizes")
    try:
        spec = ModelSpec(kind, tuple(conv), tuple(fc))
    except (TypeError, ValueError) as e:
        raise ValueError(f"checkpoint {path}: bad model spec: {e}") from None
    steps, seed, extra = entry("step_counts"), entry("seed"), man.get("extra", {})
    expected = _manifest(spec, graph, seed, steps, extra, path)
    for key in ("dtype", *_FIXED_ENTRIES, "total_elements", "blob"):
        entry(key, expected[key])
    if not _same_json(entry("tensors"), expected["tensors"]):
        raise ValueError(f"checkpoint {path}: 'tensors' do not match the layout of its model")
    n_params = len(expected["tensors"]) // len(STREAMS)
    if not (isinstance(steps, list) and len(steps) == n_params
            and all(type(count) is int and count >= 0 for count in steps)):
        raise ValueError(f"checkpoint {path}: 'step_counts' must be {n_params} counts >= 0")
    if type(seed) is not int:   # a JSON integer, not true or false
        raise ValueError(f"checkpoint {path}: 'seed' must be an integer, got {seed!r}")
    if not isinstance(extra, dict):
        raise ValueError(f"checkpoint {path}: 'extra' must be a JSON object, got {extra!r}")
    blob, total = checkpoint_blob(path), expected["total_elements"]
    size = os.stat(blob).st_size
    if size != total * np.dtype(BLOB_DTYPE).itemsize:
        raise ValueError(f"checkpoint blob {blob} holds {size} bytes, expected {total} "
                         f"{BLOB_DTYPE} values")
    return Manifest(spec, topology, seed, steps, blob, extra)


def load_checkpoint(path: str, topology: HandTopology | None = None,
                    weights_only: bool = False) -> tuple[ModelParams, dict]:
    """The model a checkpoint holds, with the blob as its buffer, and the manifest's extra.

    With `weights_only`, the model is `Manifest.weights()`: values only, read-only.
    `read_manifest` checks the manifest first; see there for `topology` and the errors.
    """
    man = read_manifest(path, topology)
    return man.weights() if weights_only else man.model(), man.extra
