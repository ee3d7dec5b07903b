"""Node-feature extraction, PCA map, silhouette, force-trace comparison."""
from __future__ import annotations

import csv
import json

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

import tgl
from tgl.analysis import (ClusterReport, NodeFeatureStack, compare_force_traces,
                          extract_node_features, pca_node_map, silhouette,
                          write_cluster_report_json, write_node_map_csv,
                          write_node_map_svg)
from tgl.dataset import Trial, encode_labels
from tgl.models import ModelSpec, build_from_spec
from tgl.topology import HandTopology, SensorNode

LABELS = encode_labels(heavy=False, soft=False, slippery=False)


def make_trial(tactile_per_t: np.ndarray, name: str = "obj") -> Trial:
    length = len(tactile_per_t)
    return Trial(name, np.arange(length), np.zeros((length, 16)), tactile_per_t, LABELS)


def blob_stack(rng, separation: float) -> NodeFeatureStack:
    """Three groups of nodes at controllable separation in feature space."""
    labels = [("f0", "fingertip")] * 5 + [("f1", "fingertip")] * 5 + [("palm", "palm")] * 6
    centers = np.array([[0.0, 0.0], [separation, 0.0], [0.0, separation]])
    rows = []
    for g in range(3):
        count = 5 if g < 2 else 6
        rows.append(centers[g] + 0.1 * rng.normal(size=(count, 2)))
    features = np.concatenate([np.concatenate(rows), rng.normal(size=(16, 6)) * 0.01],
                              axis=1)
    return NodeFeatureStack(features=features, node_labels=labels)


def test_extract_shapes_and_labels(tiny_topo):
    params = build_from_spec(ModelSpec("GCN", (4, 7), (8,)), tiny_topo, seed=0)
    rng = np.random.default_rng(0)
    trials = [make_trial(rng.normal(size=(30, 6, 3)), name=f"t{i}") for i in range(3)]
    stack = extract_node_features(params, tiny_topo, trials, (10, 25))
    assert stack.features.shape == (6, 3 * 15 * 7)
    assert stack.node_labels[0] == ("f0", "proximal_lower")
    assert stack.node_labels[4] == ("palm", "palm")


def test_extract_validation(tiny_topo, small_topo):
    params = build_from_spec(ModelSpec("GCN", (4,), (8,)), tiny_topo, seed=0)
    rng = np.random.default_rng(1)
    trials = [make_trial(rng.normal(size=(20, 6, 3)))]
    with pytest.raises(ValueError, match="window"):
        extract_node_features(params, tiny_topo, trials, (10, 10))
    with pytest.raises(ValueError, match="window"):
        extract_node_features(params, tiny_topo, trials, (10, 30))
    with pytest.raises(ValueError):
        extract_node_features(params, tiny_topo, [], (0, 5))
    mlp = build_from_spec(ModelSpec("MLP", (), (8,)), tiny_topo, seed=0)
    with pytest.raises(ValueError, match="conv"):
        extract_node_features(mlp, tiny_topo, trials, (0, 5))
    with pytest.raises(ValueError, match="nodes"):
        extract_node_features(params, small_topo, trials, (0, 5))


def test_extract_labels_nodes_from_the_model_graph(small_topo):
    """A graph of other placements, even of the model's node count, is refused."""
    params = build_from_spec(ModelSpec("GCN", (4,), (8,)), small_topo, seed=0)
    rng = np.random.default_rng(3)
    trials = [make_trial(rng.normal(size=(20, 24, 3)))]
    stack = extract_node_features(params, tgl.build_small_hand(), trials, (0, 5))
    assert stack.node_labels == [(nd.finger, nd.segment) for nd in small_topo.nodes]
    palm = HandTopology([SensorNode(i, "palm", "palm", 0, i) for i in range(24)], [])
    with pytest.raises(ValueError, match="not the model's graph"):
        extract_node_features(params, palm, trials, (0, 5))
    edgeless = HandTopology(small_topo.nodes, [])
    with pytest.raises(ValueError, match="not the model's graph"):
        extract_node_features(params, edgeless, trials, (0, 5))


def test_silhouette_matches_sklearn_on_blobs():
    sklearn_metrics = pytest.importorskip("sklearn.metrics")
    rng = np.random.default_rng(2)
    points = np.concatenate([rng.normal(size=(10, 3)),
                             rng.normal(size=(12, 3)) + 4.0,
                             rng.normal(size=(9, 3)) - 4.0])
    labels = [0] * 10 + [1] * 12 + [2] * 9
    ours = silhouette(points, labels)
    ref = float(sklearn_metrics.silhouette_score(points, labels))
    assert ours == pytest.approx(ref, abs=1e-12)


def loop_silhouette(points: np.ndarray, labels: list) -> float:
    """Reference: the per-sample double loop, one distance row at a time."""
    points = np.asarray(points, dtype=np.float64)
    keys = sorted(set(labels))
    idx = {k: np.array([i for i, l in enumerate(labels) if l == k]) for k in keys}
    d2 = ((points[:, None, :] - points[None, :, :]) ** 2).sum(axis=2)
    dist = np.sqrt(np.maximum(d2, 0.0))
    scores = np.zeros(points.shape[0])
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


@given(n=st.integers(3, 40), clusters_from_top=st.integers(0, 40), dim=st.integers(1, 3),
       grid=st.sampled_from([0, 1, 2, 4]), tuples=st.booleans(), seed=st.integers(0, 2**32 - 1))
@example(n=3, clusters_from_top=0, dim=2, grid=0, tuples=False, seed=0)    # a singleton
@example(n=6, clusters_from_top=3, dim=2, grid=1, tuples=True, seed=1)     # all coincident
@example(n=9, clusters_from_top=0, dim=1, grid=2, tuples=False, seed=2)    # n - 1 clusters
def test_silhouette_matches_the_loop(n, clusters_from_top, dim, grid, tuples, seed):
    """grid 0 draws continuous points; grid g > 0 draws from {0..g-1}^dim, so points coincide."""
    rng = np.random.default_rng(seed)
    clusters = max(2, n - 1 - clusters_from_top)
    cluster = np.concatenate([np.arange(clusters), rng.integers(0, clusters, n - clusters)])
    cluster = rng.permutation(cluster)
    labels = [(f"f{c % 3}", int(c)) if tuples else int(c) for c in cluster]
    if grid:
        points = rng.integers(0, grid, size=(n, dim)).astype(np.float64)
    else:
        points = rng.normal(size=(n, dim)) + cluster[:, None]
    assert silhouette(points, labels) == pytest.approx(loop_silhouette(points, labels),
                                                       rel=0, abs=1e-12)


def test_silhouette_validation():
    pts = np.zeros((4, 2))
    with pytest.raises(ValueError):
        silhouette(pts, [0, 0, 0, 0])
    with pytest.raises(ValueError):
        silhouette(pts, [0, 1, 2, 3])


def test_separable_fixture_scores_high():
    stack = blob_stack(np.random.default_rng(3), separation=10.0)
    report = pca_node_map(stack)
    assert report.coordinates.shape == (16, 2)
    assert not report.degenerate
    assert report.silhouette > 0.5
    mixed = blob_stack(np.random.default_rng(3), separation=0.05)
    assert pca_node_map(mixed).silhouette < 0.5


def test_degenerate_stack_flagged(tiny_topo):
    labels = [(node.finger, node.segment) for node in tiny_topo.nodes]
    stack = NodeFeatureStack(features=np.ones((6, 20)), node_labels=labels)
    report = pca_node_map(stack)
    assert report.degenerate
    assert report.silhouette is None
    np.testing.assert_array_equal(report.coordinates, np.zeros((6, 2)))


def test_centroids_are_cluster_means():
    stack = blob_stack(np.random.default_rng(4), separation=8.0)
    report = pca_node_map(stack)
    for key, centroid in report.centroids.items():
        members = [i for i, l in enumerate(report.node_labels) if l == key]
        np.testing.assert_allclose(centroid, report.coordinates[members].mean(axis=0))


def test_compare_force_traces_fraction_and_quarter():
    a = np.array([1.0, 1.0, 1.0, 1.0, 2.0, 2.0, 2.0, 2.0])
    b = np.array([2.0, 2.0, 0.5, 1.0, 3.0, 3.0, 3.0, 3.0])
    cmp = compare_force_traces(a, b)
    # one tie excluded; 6 of 7 strict differences favor b
    assert cmp.fraction_b_higher == pytest.approx(6 / 7)
    assert cmp.mean_final_quarter_a == pytest.approx(2.0)
    assert cmp.mean_final_quarter_b == pytest.approx(3.0)
    np.testing.assert_allclose(cmp.differences, b - a)


def test_compare_force_traces_all_ties_and_single_step():
    same = [1.0, 2.0, 3.0]
    assert compare_force_traces(same, same).fraction_b_higher == 0.5
    one = compare_force_traces([1.0], [4.0])
    assert one.fraction_b_higher == 1.0
    assert one.mean_final_quarter_b == 4.0


def test_compare_force_traces_length_mismatch():
    with pytest.raises(ValueError, match="length"):
        compare_force_traces([1.0, 2.0], [1.0])


def test_compare_force_traces_empty():
    with pytest.raises(ValueError, match="empty"):
        compare_force_traces(np.array([]), np.array([]))


def test_exports_round_trip(tmp_path):
    stack = blob_stack(np.random.default_rng(5), separation=6.0)
    report = pca_node_map(stack)
    csv_path = tmp_path / "map.csv"
    write_node_map_csv(report, str(csv_path))
    rows = list(csv.DictReader(open(csv_path)))
    assert len(rows) == 16
    assert float(rows[3]["pc1"]) == report.coordinates[3, 0]
    assert rows[0]["finger"] == "f0"

    svg_path = tmp_path / "map.svg"
    write_node_map_svg(report, str(svg_path))
    body = svg_path.read_text()
    assert body.startswith("<svg") and body.rstrip().endswith("</svg>")
    # one circle per node plus one legend swatch per finger group
    assert body.count("<circle") == 16 + 3

    json_path = tmp_path / "report.json"
    write_cluster_report_json(report, str(json_path))
    doc = json.loads(json_path.read_text())
    assert doc["silhouette"] == report.silhouette
    assert doc["degenerate"] is False
    assert doc["nodes"] == 16
    assert set(doc["centroids"]) == {"f0/fingertip", "f1/fingertip", "palm/palm"}


def test_trained_features_on_real_hand(small_topo, overfit_fixture):
    """End-to-end: features extracted from demo trials produce a full map."""
    params = overfit_fixture["params"]
    trials = overfit_fixture["ds"].trials
    stack = extract_node_features(params, small_topo, trials, (285, 330))
    assert stack.features.shape[0] == 24
    report = pca_node_map(stack)
    assert not report.degenerate
    assert report.coordinates.shape == (24, 2)
    assert report.silhouette is not None
