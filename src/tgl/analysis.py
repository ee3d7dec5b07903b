"""Node-feature PCA maps and force-trace comparisons.

Treating each sensing node as a sample whose features are the last
graph-conv layer's activations stacked over (trials x window steps x
filters), a 2-component PCA gives every node a coordinate; nodes of the
same finger and segment landing together is the trained-representation
signature this module quantifies with a silhouette score.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .dataset import Trial
from .models import ModelParams, conv_features
from .pca import pca
from .tensor import no_grad
from .topology import HandTopology


@dataclass
class NodeFeatureStack:
    features: np.ndarray              # [nodes, trials*steps*channels]
    node_labels: list[tuple[str, str]]  # (finger, segment) per node
    meta: dict

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
    channel) order.
    """
    if params.spec.kind != "GCN":
        raise ValueError("no conv features: model has no graph-conv layers")
    if topology.n != params.n_nodes:
        raise ValueError(f"topology has {topology.n} nodes, model expects {params.n_nodes}")
    if not trials:
        raise ValueError("no trials to extract from")
    start, stop = window
    if not (0 <= start < stop):
        raise ValueError(f"empty or invalid window {window}")
    blocks = []
    with no_grad():
        for trial in trials:
            if stop > len(trial):
                raise ValueError(f"window {window} exceeds trial {trial.object_name!r} "
                                 f"of length {len(trial)}")
            if trial.n_nodes != params.n_nodes:
                raise ValueError(f"trial {trial.object_name!r} carries {trial.n_nodes} nodes, "
                                 f"model expects {params.n_nodes}")
            batch = np.stack([trial.records[t].tactile for t in range(start, stop)])
            feats = conv_features(params, batch).data     # [steps, nodes, c]
            blocks.append(np.transpose(feats, (1, 0, 2)).reshape(params.n_nodes, -1))
    features = np.concatenate(blocks, axis=1)
    labels = [(nd.finger, nd.segment) for nd in topology.nodes]
    return NodeFeatureStack(features=features, node_labels=labels,
                            meta={"trials": len(trials), "window": [start, stop],
                                  "channels": params.spec.conv_channels[-1]})


def silhouette(points: np.ndarray, labels: list) -> float:
    """Mean silhouette over samples; singleton clusters score 0."""
    points = np.asarray(points, dtype=np.float64)
    n = points.shape[0]
    keys = sorted(set(labels))
    if len(keys) < 2:
        raise ValueError("silhouette needs at least 2 clusters")
    if len(keys) >= n:
        raise ValueError("silhouette needs fewer clusters than samples")
    idx = {k: np.array([i for i, l in enumerate(labels) if l == k]) for k in keys}
    d2 = ((points[:, None, :] - points[None, :, :]) ** 2).sum(axis=2)
    dist = np.sqrt(np.maximum(d2, 0.0))
    scores = np.zeros(n)
    for k in keys:
        members = idx[k]
        for i in members:
            if members.size == 1:
                scores[i] = 0.0
                continue
            a = dist[i, members].sum() / (members.size - 1)
            b = min(dist[i, idx[other]].mean() for other in keys if other != k)
            denom = max(a, b)
            scores[i] = 0.0 if denom == 0 else (b - a) / denom
    return float(scores.mean())


def pca_node_map(stack: NodeFeatureStack) -> ClusterReport:
    """2-component PCA over nodes-as-samples plus (finger, segment) clustering."""
    n = stack.features.shape[0]
    spread = np.ptp(stack.features, axis=0).max() if n else 0.0
    if spread == 0.0:
        # all nodes identical: nothing to map
        coords = np.zeros((n, 2))
        centroids = {k: np.zeros(2) for k in sorted(set(stack.node_labels))}
        return ClusterReport(coordinates=coords, node_labels=list(stack.node_labels),
                             centroids=centroids, silhouette=None,
                             explained_variance=[0.0, 0.0], degenerate=True)
    _, coords, variances = pca(stack.features, k=2)
    centroids = {}
    for key in sorted(set(stack.node_labels)):
        member = [i for i, l in enumerate(stack.node_labels) if l == key]
        centroids[key] = coords[member].mean(axis=0)
    score = silhouette(coords, stack.node_labels) if len(set(stack.node_labels)) >= 2 else None
    return ClusterReport(coordinates=coords, node_labels=list(stack.node_labels),
                         centroids=centroids, silhouette=score,
                         explained_variance=variances, degenerate=False)


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


_PALETTE = ("#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd",
            "#8c564b", "#e377c2", "#7f7f7f")


def write_node_map_svg(report: ClusterReport, path: str, size: int = 640) -> None:
    coords = report.coordinates
    fingers = sorted({f for f, _ in report.node_labels})
    color = {f: _PALETTE[i % len(_PALETTE)] for i, f in enumerate(fingers)}
    lo = coords.min(axis=0)
    hi = coords.max(axis=0)
    span = np.maximum(hi - lo, 1e-9)
    pad, plot = 40, size - 80

    def sx(v):
        return pad + plot * (v - lo[0]) / span[0]

    def sy(v):
        return size - pad - plot * (v - lo[1]) / span[1]

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
             f'viewBox="0 0 {size} {size}">',
             f'<rect width="{size}" height="{size}" fill="white"/>']
    for i, (finger, _) in enumerate(report.node_labels):
        parts.append(f'<circle cx="{sx(coords[i, 0]):.2f}" cy="{sy(coords[i, 1]):.2f}" '
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
    with open(path, "w") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")
