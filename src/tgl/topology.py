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
from dataclasses import dataclass, replace

import numpy as np

from .dataset import read_json, write_json

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


def _integer(value, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return int(value)


class HandTopology:
    """An undirected sensor graph with per-node placement metadata, checked here: ValueError names
    the node or edge.  Ids, rows, cols and endpoints are integers, not bools, and a numpy integer is
    stored as `int`.  Two graphs are equal when their nodes, placement included, and edges are."""

    def __init__(self, nodes: list[SensorNode], edges: list[tuple[int, int]]):
        n = len(nodes)
        if n == 0:
            raise ValueError("topology needs at least one node")
        self.nodes = list(nodes)
        for pos, node in enumerate(self.nodes):
            if not (type(node.id) is type(node.row) is type(node.col) is int):   # else rebuilt
                node = self.nodes[pos] = replace(node, **{
                    k: _integer(getattr(node, k), f"node {pos} {k}") for k in ("id", "row", "col")})
            if node.id != pos:
                raise ValueError(f"node ids must be 0..n-1 in order, got id {node.id} at position {pos}")
            for name in ("segment", "finger"):
                value = getattr(node, name)
                if not value or not isinstance(value, str):
                    raise ValueError(f"node {pos} {name} must be a non-empty string, got {value!r}")
        seen: set[tuple[int, int]] = set()
        for pos, (i, j) in enumerate(edges):
            if not (type(i) is type(j) is int):
                i, j = (_integer(v, f"edge {pos} endpoint") for v in (i, j))
            if not (0 <= i < n) or not (0 <= j < n):
                raise ValueError(f"edge ({i}, {j}) references a node outside 0..{n - 1}")
            if i == j:
                raise ValueError(f"self-loop edge ({i}, {j}) is not allowed")
            key = (i, j) if i < j else (j, i)
            if key in seen:
                raise ValueError(f"duplicate edge ({i}, {j})")
            seen.add(key)
        self.edges = sorted(seen)

    def __eq__(self, other) -> bool:
        return isinstance(other, HandTopology) and self.nodes == other.nodes \
            and self.edges == other.edges

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
    segments = [segment for segment, rows in bands for _ in range(rows)]
    grid = [[len(nodes) + r * cols + c for c in range(cols)] for r in range(len(segments))]
    nodes += [SensorNode(i, segments[r], finger, r, c)
              for r, ids in enumerate(grid) for c, i in enumerate(ids)]
    edges += [pair for ids in grid for pair in zip(ids, ids[1:])]     # along each row
    edges += [pair for a, b in zip(grid, grid[1:]) for pair in zip(a, b)]   # between rows
    return grid


def _hand(fingers: dict[str, list[tuple[str, int]]], palm_rows: int, bridges: dict[str, int],
          cols: int) -> HandTopology:
    """Finger strips, then the palm strip; each finger's base row bridges onto a palm row."""
    nodes, edges = [], []   # filled in strip by strip
    base = {finger: _strip(nodes, edges, finger, bands, cols)[0]
            for finger, bands in fingers.items()}
    palm = _strip(nodes, edges, "palm", [("palm", palm_rows)], cols)
    edges += [pair for finger, row in bridges.items() for pair in zip(base[finger], palm[row])]
    return HandTopology(nodes, edges)


def build_default_hand() -> HandTopology:
    """The 384-node hand: 4 fingertips x 24 + (11 phalanges + 7 palm patches) x 16.

    Each finger's base row bridges onto the top row of a distinct palm patch.
    """
    full = [("proximal_lower", PHALANX_ROWS), ("proximal_upper", PHALANX_ROWS),
            ("distal", PHALANX_ROWS), ("fingertip", FINGERTIP_ROWS)]
    thumb = [full[0], *full[2:]]
    return _hand({"thumb": thumb, "index": full, "middle": full, "ring": full},
                 7 * PHALANX_ROWS, {"thumb": 0, "index": 8, "middle": 16, "ring": 24}, STRIP_COLS)


def build_small_hand() -> HandTopology:
    """A 24-node desk-scale analogue: two 4x2 finger strips plus a 4x2 palm."""
    bands = [("proximal_lower", 2), ("fingertip", 2)]
    return _hand({"thumb": bands, "index": bands}, 4, {"thumb": 0, "index": 2}, 2)


# ---------------------------------------------------------------------------
# JSON round-trip

def topology_doc(topology: HandTopology) -> dict:
    """The graph as a JSON document: its nodes with their placement, and its edges."""
    return {
        "nodes": [vars(nd).copy() for nd in topology.nodes],   # id, segment, finger, row, col
        "edges": [[i, j] for i, j in topology.edges],
    }


def save_topology(topology: HandTopology, path: str) -> None:
    write_json(path, topology_doc(topology))


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
            nodes.append(SensorNode(entry["id"], entry["segment"], entry["finger"],
                                    entry["row"], entry["col"]))
        except KeyError as e:
            raise ValueError(f"node entry {pos} is missing field {e.args[0]!r}") from e
    for pos, entry in enumerate(doc["edges"]):
        if (not isinstance(entry, (list, tuple))) or len(entry) != 2:
            raise ValueError(f"edge entry {pos} must be a pair, got {entry!r}")
    return HandTopology(nodes, doc["edges"])


def load_topology(path: str) -> HandTopology:
    return topology_from_doc(read_json(path), path)
