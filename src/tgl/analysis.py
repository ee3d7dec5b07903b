"""Node-feature PCA maps and force-trace comparisons.

Treating each sensing node as a sample whose features are the last
graph-conv layer's activations stacked over (trials x window steps x
filters), a 2-component PCA gives every node a coordinate; nodes of the
same finger and segment landing together is the trained-representation
signature this module quantifies with a silhouette score.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import Trial, write_json
from .models import ModelParams, conv_features
from .pca import pca
from .topology import HandTopology


@dataclass
class NodeFeatureStack:
    features: np.ndarray              # [nodes, trials*steps*channels]
    node_labels: list[tuple[str, str]]  # (finger, segment) per node

    def __post_init__(self):
        if self.features.ndim != 2:
            raise ValueError(f"features must be 2-D, got shape {self.features.shape}")
        if len(self.node_labels) != self.features.shape[0]:
            raise ValueError(f"{len(self.node_labels)} node labels for "
                             f"{self.features.shape[0]} feature rows")


@dataclass
class ClusterReport:
    coordinates: np.ndarray           # [nodes, 2]
    node_labels: list[tuple[str, str]]
    centroids: dict[tuple[str, str], np.ndarray]
    silhouette: float | None          # None when the map is degenerate
    explained_variance: list[float]
    degenerate: bool


def extract_node_features(params: ModelParams, topology: HandTopology,
                          trials: list[Trial], window: tuple[int, int]) -> NodeFeatureStack:
    """Last conv-layer activations per node over window steps of each trial.

    window is (start, stop), stop exclusive, indexing preprocessed trial
    frames; features concatenate along the feature axis in (trial, step,
    channel) order.  Nodes are labelled from the model's graph, which `topology`
    must equal.
    """
    if topology != params.topology:
        raise ValueError("topology is not the model's graph: their nodes or edges differ")
    if not trials:
        raise ValueError("no trials to extract from")
    start, stop = window
    if not (0 <= start < stop):
        raise ValueError(f"empty or invalid window {window}")
    # per node, the last conv layer's width; an MLP fails in conv_features
    features = np.empty((params.n_nodes, len(trials), stop - start, params.spec.flat_width(1)))
    for k, trial in enumerate(trials):
        if stop > len(trial):
            raise ValueError(f"window {window} exceeds trial {trial.object_name!r} "
                             f"of length {len(trial)}")
        features[:, k] = np.transpose(conv_features(params, trial.tactile[start:stop]), (1, 0, 2))
    features = features.reshape(params.n_nodes, -1)
    labels = [(nd.finger, nd.segment) for nd in params.topology.nodes]
    return NodeFeatureStack(features=features, node_labels=labels)


def silhouette(points: np.ndarray, labels: list) -> float:
    """Mean silhouette over samples; singleton clusters score 0."""
    points = np.asarray(points, dtype=np.float64)
    n = points.shape[0]
    keys = sorted(set(labels))
    if len(keys) < 2:
        raise ValueError("silhouette needs at least 2 clusters")
    if len(keys) >= n:
        raise ValueError("silhouette needs fewer clusters than samples")
    index = {k: j for j, k in enumerate(keys)}
    cluster = np.array([index[l] for l in labels])
    rows = np.arange(n)
    member = np.zeros((n, len(keys)))
    member[rows, cluster] = 1.0
    d2 = ((points[:, None, :] - points[None, :, :]) ** 2).sum(axis=2)
    dist = np.sqrt(np.maximum(d2, 0.0))
    sums = dist @ member                  # [n, clusters]: distance to each cluster
    size = member.sum(axis=0)
    own = size[cluster]
    a = sums[rows, cluster] / np.maximum(own - 1.0, 1.0)
    means = sums / size
    means[rows, cluster] = np.inf
    b = means.min(axis=1)
    denom = np.maximum(a, b)
    scores = np.divide(b - a, denom, out=np.zeros(n), where=(own > 1) & (denom != 0))
    return float(scores.mean())


def pca_node_map(stack: NodeFeatureStack) -> ClusterReport:
    """2-component PCA over nodes-as-samples plus (finger, segment) clustering.

    Nodes that are all identical leave nothing to map: every coordinate is 0.
    """
    n, labels = stack.features.shape[0], list(stack.node_labels)
    degenerate = bool((stack.features == stack.features[:1]).all())
    coords, variances = (np.zeros((n, 2)), [0.0, 0.0]) if degenerate \
        else pca(stack.features, k=2)[1:]
    centroids = {key: coords[[i for i, l in enumerate(labels) if l == key]].mean(axis=0)
                 for key in sorted(set(labels))}
    score = None if degenerate or len(set(labels)) < 2 else silhouette(coords, labels)
    return ClusterReport(coordinates=coords, node_labels=labels, centroids=centroids,
                         silhouette=score, explained_variance=variances, degenerate=degenerate)


@dataclass(frozen=True)
class ForceComparison:
    differences: np.ndarray    # force_b - force_a per step
    fraction_b_higher: float   # over steps with a strict difference; 0.5 if none
    mean_final_quarter_a: float
    mean_final_quarter_b: float


def compare_force_traces(force_a, force_b) -> ForceComparison:
    """Compare two total-grip-force series of equal, nonzero length (e.g. grip_forces())."""
    fa = np.asarray(force_a, dtype=np.float64)
    fb = np.asarray(force_b, dtype=np.float64)
    if fa.shape != fb.shape:
        raise ValueError(f"trace lengths differ: {fa.shape[0]} vs {fb.shape[0]}")
    if fa.size == 0:
        raise ValueError("force series are empty")
    diff = fb - fa
    strict = diff != 0
    frac = float((diff > 0).sum() / strict.sum()) if strict.any() else 0.5
    quarter = max(1, fa.shape[0] // 4)
    return ForceComparison(differences=diff, fraction_b_higher=frac,
                           mean_final_quarter_a=float(fa[-quarter:].mean()),
                           mean_final_quarter_b=float(fb[-quarter:].mean()))


# ---------------------------------------------------------------------------
# exports

def write_node_map_csv(report: ClusterReport, path: str) -> None:
    with open(path, "w") as f:
        f.write("node_id,finger,segment,pc1,pc2\n")
        for i, (finger, segment) in enumerate(report.node_labels):
            f.write(f"{i},{finger},{segment},"
                    f"{float(report.coordinates[i, 0])!r},{float(report.coordinates[i, 1])!r}\n")


SVG_SIZE = 640   # the node map's width and height, in SVG user units
_PALETTE = ("#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd",
            "#8c564b", "#e377c2", "#7f7f7f")


def write_node_map_svg(report: ClusterReport, path: str) -> None:
    coords = report.coordinates
    fingers = sorted({f for f, _ in report.node_labels})
    color = {f: _PALETTE[i % len(_PALETTE)] for i, f in enumerate(fingers)}
    lo = coords.min(axis=0)
    hi = coords.max(axis=0)
    span = np.maximum(hi - lo, 1e-9)
    pad, plot = 40, SVG_SIZE - 80
    xs = pad + plot * (coords[:, 0] - lo[0]) / span[0]
    ys = SVG_SIZE - pad - plot * (coords[:, 1] - lo[1]) / span[1]

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{SVG_SIZE}" height="{SVG_SIZE}" '
             f'viewBox="0 0 {SVG_SIZE} {SVG_SIZE}">',
             f'<rect width="{SVG_SIZE}" height="{SVG_SIZE}" fill="white"/>']
    for i, (finger, _) in enumerate(report.node_labels):
        parts.append(f'<circle cx="{xs[i]:.2f}" cy="{ys[i]:.2f}" '
                     f'r="4" fill="{color[finger]}" fill-opacity="0.8"/>')
    for k, finger in enumerate(fingers):
        y = 20 + 16 * k
        parts.append(f'<circle cx="14" cy="{y - 4}" r="5" fill="{color[finger]}"/>')
        parts.append(f'<text x="24" y="{y}" font-size="12" font-family="sans-serif">{finger}</text>')
    parts.append("</svg>")
    with open(path, "w") as f:
        f.write("\n".join(parts) + "\n")


def write_cluster_report_json(report: ClusterReport, path: str) -> None:
    doc = {
        "silhouette": report.silhouette,
        "degenerate": report.degenerate,
        "explained_variance": report.explained_variance,
        "centroids": {f"{finger}/{segment}": c.tolist()
                      for (finger, segment), c in report.centroids.items()},
        "nodes": report.coordinates.shape[0],
    }
    write_json(path, doc)
