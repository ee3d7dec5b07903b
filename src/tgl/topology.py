"""Sensor-graph topology for a four-fingered tactile hand.

The full hand carries 384 sensing nodes: four fingertips with 6x4 sensor
patches (24 each), eleven finger phalanges and seven palm patches with
4x4 sensors (16 each).  Rows run base-to-tip along each finger strip and
top-to-bottom across the palm, so patch-to-patch stitching is plain grid
adjacency between consecutive rows; each finger's base row is bridged to
a palm row.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .dataset import write_json

FINGERTIP_ROWS = 6
PHALANX_ROWS = 4
STRIP_COLS = 4


@dataclass(frozen=True)
class SensorNode:
    id: int
    segment: str
    finger: str
    row: int
    col: int


class HandTopology:
    """An undirected sensor graph with per-node placement metadata."""

    def __init__(self, nodes: list[SensorNode], edges: list[tuple[int, int]]):
        n = len(nodes)
        if n == 0:
            raise ValueError("topology needs at least one node")
        for pos, node in enumerate(nodes):
            if node.id != pos:
                raise ValueError(f"node ids must be 0..n-1 in order, got id {node.id} at position {pos}")
            if not node.segment or not isinstance(node.segment, str):
                raise ValueError(f"node {pos} segment must be a non-empty string, "
                                 f"got {node.segment!r}")
            if not node.finger or not isinstance(node.finger, str):
                raise ValueError(f"node {pos} finger must be a non-empty string, "
                                 f"got {node.finger!r}")
        canon: list[tuple[int, int]] = []
        seen: set[tuple[int, int]] = set()
        for i, j in edges:
            if not (0 <= i < n) or not (0 <= j < n):
                raise ValueError(f"edge ({i}, {j}) references a node outside 0..{n - 1}")
            if i == j:
                raise ValueError(f"self-loop edge ({i}, {j}) is not allowed")
            key = (min(i, j), max(i, j))
            if key in seen:
                raise ValueError(f"duplicate edge ({i}, {j})")
            seen.add(key)
            canon.append(key)
        self.nodes = list(nodes)
        self.edges = sorted(canon)

    @property
    def n(self) -> int:
        return len(self.nodes)

    def adjacency(self) -> np.ndarray:
        a = np.zeros((self.n, self.n))
        for i, j in self.edges:
            a[i, j] = 1.0
            a[j, i] = 1.0
        return a


def propagation_for(topology: HandTopology) -> np.ndarray:
    """The graph's propagation matrix S = D̂^-1/2 (A + I) D̂^-1/2."""
    a_hat = topology.adjacency() + np.eye(topology.n)
    d_hat = a_hat.sum(axis=1)
    # dividing by sqrt(outer(d, d)) keeps S exactly symmetric in floating point
    return a_hat / np.sqrt(np.outer(d_hat, d_hat))


# ---------------------------------------------------------------------------
# builders

def _strip(nodes: list[SensorNode], edges: list[tuple[int, int]], finger: str,
           bands: list[tuple[str, int]], cols: int) -> list[list[int]]:
    """Append one finger/palm strip (a stacked grid); returns ids per row."""
    start = len(nodes)
    rows = sum(r for _, r in bands)
    grid: list[list[int]] = []
    row = 0
    for segment, nrows in bands:
        for _ in range(nrows):
            ids = []
            for col in range(cols):
                ids.append(len(nodes))
                nodes.append(SensorNode(len(nodes), segment, finger, row, col))
            grid.append(ids)
            row += 1
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                edges.append((grid[r][c], grid[r][c + 1]))
            if r + 1 < rows:
                edges.append((grid[r][c], grid[r + 1][c]))
    assert len(nodes) - start == rows * cols
    return grid


def build_default_hand() -> HandTopology:
    """The 384-node hand: 4 fingertips x 24 + (11 phalanges + 7 palm patches) x 16."""
    nodes: list[SensorNode] = []
    edges: list[tuple[int, int]] = []
    full = [("proximal_lower", PHALANX_ROWS), ("proximal_upper", PHALANX_ROWS),
            ("distal", PHALANX_ROWS), ("fingertip", FINGERTIP_ROWS)]
    thumb = [("proximal_lower", PHALANX_ROWS), ("distal", PHALANX_ROWS),
             ("fingertip", FINGERTIP_ROWS)]
    base_rows = {}
    for finger in ("thumb", "index", "middle", "ring"):
        grid = _strip(nodes, edges, finger, thumb if finger == "thumb" else full, STRIP_COLS)
        base_rows[finger] = grid[0]
    palm_grid = _strip(nodes, edges, "palm", [("palm", 7 * PHALANX_ROWS)], STRIP_COLS)
    # bridge each finger's base row onto the top row of a distinct palm patch
    attach = {"thumb": 0, "index": 8, "middle": 16, "ring": 24}
    for finger, palm_row in attach.items():
        for c in range(STRIP_COLS):
            edges.append((base_rows[finger][c], palm_grid[palm_row][c]))
    topo = HandTopology(nodes, edges)
    assert topo.n == 384
    return topo


def build_small_hand() -> HandTopology:
    """A 24-node desk-scale analogue: two 4x2 finger strips plus a 4x2 palm."""
    nodes: list[SensorNode] = []
    edges: list[tuple[int, int]] = []
    bands = [("proximal_lower", 2), ("fingertip", 2)]
    base_rows = {}
    for finger in ("thumb", "index"):
        grid = _strip(nodes, edges, finger, bands, 2)
        base_rows[finger] = grid[0]
    palm_grid = _strip(nodes, edges, "palm", [("palm", 4)], 2)
    for finger, palm_row in (("thumb", 0), ("index", 2)):
        for c in range(2):
            edges.append((base_rows[finger][c], palm_grid[palm_row][c]))
    topo = HandTopology(nodes, edges)
    assert topo.n == 24
    return topo


# ---------------------------------------------------------------------------
# JSON round-trip

def topology_doc(topology: HandTopology) -> dict:
    """The graph as a JSON document: its nodes with their placement, and its edges."""
    return {
        "nodes": [{"id": nd.id, "segment": nd.segment, "finger": nd.finger,
                   "row": nd.row, "col": nd.col} for nd in topology.nodes],
        "edges": [[i, j] for i, j in topology.edges],
    }


def save_topology(topology: HandTopology, path: str) -> None:
    write_json(path, topology_doc(topology))


def _require_int(value, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


def topology_from_doc(doc, where: str) -> HandTopology:
    """The graph a `topology_doc` describes; ValueError, naming `where` for its outer shape."""
    if not isinstance(doc, dict) or "nodes" not in doc or "edges" not in doc:
        raise ValueError(f"{where} must be an object with 'nodes' and 'edges'")
    for key in ("nodes", "edges"):
        if not isinstance(doc[key], list):
            raise ValueError(f"{where}: {key!r} must be a list, got {json.dumps(doc[key])}")
    nodes = []
    for pos, entry in enumerate(doc["nodes"]):
        if not isinstance(entry, dict):
            raise ValueError(f"node entry {pos} must be an object")
        try:
            node = SensorNode(
                id=_require_int(entry["id"], f"node {pos} id"),
                segment=entry["segment"],
                finger=entry["finger"],
                row=_require_int(entry["row"], f"node {pos} row"),
                col=_require_int(entry["col"], f"node {pos} col"),
            )
        except KeyError as e:
            raise ValueError(f"node entry {pos} is missing field {e.args[0]!r}") from e
        nodes.append(node)
    edges = []
    for pos, entry in enumerate(doc["edges"]):
        if (not isinstance(entry, (list, tuple))) or len(entry) != 2:
            raise ValueError(f"edge entry {pos} must be a pair, got {entry!r}")
        edges.append((_require_int(entry[0], f"edge {pos} endpoint"),
                      _require_int(entry[1], f"edge {pos} endpoint")))
    return HandTopology(nodes, edges)


def load_topology(path: str) -> HandTopology:
    with open(path) as f:
        try:
            doc = json.load(f)
        except json.JSONDecodeError as e:
            raise ValueError(f"{path} is not valid JSON: {e}") from e
    return topology_from_doc(doc, path)
