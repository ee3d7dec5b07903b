"""Hand graphs and the normalized propagation operator."""
from __future__ import annotations

import hashlib
import json
import re
from collections import deque
from dataclasses import replace

import numpy as np
import pytest

import tgl
from tgl.topology import HandTopology, SensorNode, load_topology, propagation_for, save_topology, \
    topology_doc

from conftest import build_tiny_topology


def bfs_component_count(adj: np.ndarray) -> int:
    n = adj.shape[0]
    seen = [False] * n
    parts = 0
    for start in range(n):
        if seen[start]:
            continue
        parts += 1
        queue = deque([start])
        seen[start] = True
        while queue:
            u = queue.popleft()
            for v in np.nonzero(adj[u])[0]:
                if not seen[v]:
                    seen[v] = True
                    queue.append(int(v))
    return parts


def test_default_hand_counts():
    topo = tgl.build_default_hand()
    assert topo.n == 384
    assert len(topo.edges) == 668
    # 4 fingertip patches of 24 elements; 11 phalanx and 7 palm patches of 16
    tips = sum(1 for node in topo.nodes if node.segment == "fingertip")
    assert tips == 4 * 24
    palm = sum(1 for node in topo.nodes if node.finger == "palm")
    assert palm == 7 * 16
    assert topo.n - tips - palm == 11 * 16


def test_default_hand_connected():
    topo = tgl.build_default_hand()
    assert bfs_component_count(topo.adjacency()) == 1


def test_small_hand_counts_and_connectivity():
    topo = tgl.build_small_hand()
    assert topo.n == 24
    assert len(topo.edges) == 34
    assert bfs_component_count(topo.adjacency()) == 1


def test_grid_degree_bounds():
    topo = tgl.build_default_hand()
    deg = topo.adjacency().sum(axis=1)
    assert deg.min() >= 2
    assert deg.max() <= 5  # grid interior plus at most one bridge


def test_two_node_propagation_exact():
    nodes = [SensorNode(0, "palm", "palm", 0, 0), SensorNode(1, "palm", "palm", 0, 1)]
    topo = HandTopology(nodes, [(0, 1)])
    s = propagation_for(topo)
    assert s.tolist() == [[0.5, 0.5], [0.5, 0.5]]


def test_propagation_symmetric_and_contractive(default_topo):
    s = propagation_for(default_topo)
    assert np.array_equal(s, s.T)
    assert np.linalg.norm(s, 2) <= 1.0 + 1e-10
    # row sums of the self-looped adjacency drive the normalization
    a_hat = default_topo.adjacency() + np.eye(default_topo.n)
    d_hat = a_hat.sum(axis=1)
    np.testing.assert_allclose(s * np.sqrt(np.outer(d_hat, d_hat)), a_hat, rtol=0, atol=1e-15)


def test_isolated_node_keeps_self_loop_weight_one():
    nodes = [SensorNode(i, "palm", "palm", 0, i) for i in range(3)]
    s = propagation_for(HandTopology(nodes, [(0, 1)]))
    assert s[2, 2] == 1.0
    assert s[2, 0] == 0.0


def test_topology_validation_errors():
    nodes = [SensorNode(0, "palm", "palm", 0, 0), SensorNode(1, "palm", "palm", 0, 1)]
    with pytest.raises(ValueError):
        HandTopology(nodes, [(0, 0)])  # self loop
    with pytest.raises(ValueError):
        HandTopology(nodes, [(0, 1), (1, 0)])  # duplicate, reversed
    with pytest.raises(ValueError):
        HandTopology(nodes, [(0, 2)])  # out of range
    bad = [SensorNode(0, "palm", "palm", 0, 0), SensorNode(2, "palm", "palm", 0, 1)]
    with pytest.raises(ValueError):
        HandTopology(bad, [])  # ids must be 0..n-1 in order


def test_graphs_compare_by_their_nodes_and_edges(small_topo):
    nodes, edges = small_topo.nodes, small_topo.edges
    assert tgl.build_small_hand() == small_topo
    assert not tgl.build_small_hand() != small_topo
    assert HandTopology(nodes, [(j, i) for i, j in reversed(edges)]) == small_topo
    assert HandTopology(nodes, edges[1:]) != small_topo
    assert HandTopology([replace(nodes[0], col=1), *nodes[1:]], edges) != small_topo
    assert HandTopology([replace(nodes[0], finger="ring"), *nodes[1:]], edges) != small_topo
    assert small_topo != topology_doc(small_topo)
    assert small_topo != tgl.build_default_hand()


@pytest.mark.parametrize("nodes, edges, message", [
    ([SensorNode(True, "palm", "palm", 0, 0)], [], "node 0 id must be an integer, got True"),
    ([SensorNode(0, "palm", "palm", 0, 0), SensorNode(1, "palm", "palm", 1.5, 0)], [],
     "node 1 row must be an integer, got 1.5"),
    ([SensorNode(0, "palm", "palm", 0, np.float64(2.0))], [],
     "node 0 col must be an integer, got np.float64(2.0)"),
    ([SensorNode(i, "palm", "palm", 0, i) for i in range(3)], [(0, 1), (1, np.True_)],
     "edge 1 endpoint must be an integer, got np.True_"),
    ([SensorNode(i, "palm", "palm", 0, i) for i in range(3)], [(0, 1.0)],
     "edge 0 endpoint must be an integer, got 1.0"),
])
def test_a_graph_refuses_what_its_document_cannot_hold(nodes, edges, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        HandTopology(nodes, edges)


def test_a_graph_stores_numpy_integers_as_int(tmp_path, small_topo):
    """numpy integers read as the ints they hold, so the graph saves and loads as the int one."""
    nodes = [SensorNode(np.int64(nd.id), nd.segment, nd.finger, np.int32(nd.row), np.uint8(nd.col))
             for nd in small_topo.nodes]
    topo = HandTopology(nodes, [(np.int64(i), np.int16(j)) for i, j in small_topo.edges])
    assert topo == small_topo
    assert {type(v) for nd in topo.nodes for v in (nd.id, nd.row, nd.col)} == {int}
    assert {type(v) for edge in topo.edges for v in edge} == {int}
    save_topology(topo, str(tmp_path / "hand.json"))
    assert load_topology(str(tmp_path / "hand.json")) == small_topo


def test_json_round_trip(tmp_path, small_topo):
    path = tmp_path / "hand.json"
    save_topology(small_topo, str(path))
    loaded = load_topology(str(path))
    assert loaded.n == small_topo.n
    assert loaded.edges == small_topo.edges
    assert loaded.nodes == small_topo.nodes


def test_json_rejects_malformed(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"nodes": [], "edges": []}))
    with pytest.raises(ValueError):
        load_topology(str(path))
    doc = {"nodes": [{"id": 0.5, "segment": "palm", "finger": "palm",
                      "row": 0, "col": 0}], "edges": []}
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError):
        load_topology(str(path))
    for key, doc in (("nodes", {"nodes": 5, "edges": []}), ("edges", {"nodes": [], "edges": 3})):
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: '{key}' must be a list"):
            load_topology(str(path))
    doc = {"nodes": [{"id": 0, "segment": ["a"], "finger": "palm", "row": 0, "col": 0}],
           "edges": []}
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="segment must be a non-empty string, got \\['a'\\]"):
        load_topology(str(path))


# sha256 of the 384-node hand's JSON as first written; the builder must keep writing it
DEFAULT_HAND_SHA256 = "2c18473ee7649e00c2d3c34a76c406d55941c58aa0eca93f86ffd809fcc48a19"


def test_default_hand_json_is_pinned(tmp_path, default_topo):
    path = tmp_path / "hand.json"
    save_topology(default_topo, str(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == DEFAULT_HAND_SHA256


def test_tiny_topology_propagation_properties():
    topo = build_tiny_topology()
    s = propagation_for(topo)
    assert np.array_equal(s, s.T)
    assert np.linalg.norm(s, 2) <= 1.0 + 1e-10
