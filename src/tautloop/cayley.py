"""Finite balls of simplicial Cayley graphs built over equality oracles.

An oracle maps words to canonical hashable keys; two words denote the same
group element iff their keys coincide.  Balls are built breadth-first, so
every vertex's representative word is geodesic.  Vertices are group elements
and edges the 2-element sets {g, gs}; inverse generator pairs and involutions
collapse onto single undirected edges, keeping the graph simplicial.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from . import normal_forms, words
from .words import Word


class OracleInsufficient(RuntimeError):
    """An equality needed for ball construction did not resolve."""


# ---------------------------------------------------------------------------
# Equality oracles
# ---------------------------------------------------------------------------


class FreeGroupOracle:
    """Free group, optionally with formal-inverse generator pairs."""

    def __init__(self, symbols, inverse_pairs=()):
        self.symbols = tuple(symbols)
        self.pairing = {}
        for a, b in inverse_pairs:
            self.pairing[a] = b
            self.pairing[b] = a
        self.tag = f"free({','.join(self.symbols)})"

    def normal_form(self, w: Word):
        return words.free_reduce(words.normalize(w, self.pairing))


class RaagOracle:
    """Right-angled Artin group of a flag complex; exact by canonical forms."""

    def __init__(self, complex_):
        self.engine = normal_forms.RaagEngine(complex_.vertices, complex_.edges)
        self.tag = f"raag({','.join(complex_.vertices)})"

    def normal_form(self, w: Word):
        return self.engine.normal_form(self.engine.encode(words.word(w)))


class RacgOracle:
    """Right-angled Coxeter group of a graph; exponents are ignored mod 2."""

    def __init__(self, graph):
        self.engine = normal_forms.TitsEngine(graph.vertices, graph.edges)
        self.tag = f"racg({','.join(graph.vertices)})"

    def normal_form(self, w: Word):
        return self.engine.normal_form(self.engine.encode([s for s, _ in words.word(w)]))


class BBOracle:
    """Kernel of the Artin group's exponent-sum map, on directed-edge words.

    The generators embed in the ambient Artin group, so equality of images
    under that embedding is exact equality.
    """

    def __init__(self, complex_):
        self.map = normal_forms.BBMap(complex_)
        self.tag = f"bb({','.join(complex_.vertices)})"

    def normal_form(self, w: Word):
        return self.map.normal_form(w)


class ZModOracle:
    """Cyclic group of order n on one generator; n = 0 means infinite cyclic."""

    def __init__(self, n: int, symbol: str = "t"):
        if n < 0:
            raise ValueError("order must be nonnegative")
        self.n = n
        self.symbol = symbol
        self.tag = f"zmod({n})"

    def normal_form(self, w: Word):
        total = 0
        for sym, exp in words.word(w):
            if sym != self.symbol:
                raise OracleInsufficient(f"unknown generator {sym!r}")
            total += exp
        return total % self.n if self.n else total


class CosetTableOracle:
    """Finite group given by a completed coset enumeration."""

    def __init__(self, pres, budget=None):
        from .word_engine import CosetTable, todd_coxeter

        self.pres = pres
        table = todd_coxeter(pres, (), budget)
        if not isinstance(table, CosetTable) or not table.complete:
            raise OracleInsufficient("coset enumeration did not complete in budget")
        self.table = table
        self.tag = f"coset({table.n_cosets})"

    def normal_form(self, w: Word):
        return self.table.trace(0, self.pres.encode(w))


# ---------------------------------------------------------------------------
# Balls
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BallVertex:
    vid: int
    word: Word
    dist: int


@dataclass(frozen=True)
class CayleyBall:
    center: int
    vertices: tuple[BallVertex, ...]
    adjacency: frozenset[frozenset[int]]
    radius: int
    oracle_tag: str
    edge_letters: tuple[tuple[int, int, Word], ...]  # u, v, a length-1 word u->v

    def neighbor_map(self) -> dict[int, list[tuple[int, Word]]]:
        out: dict[int, list[tuple[int, Word]]] = {v.vid: [] for v in self.vertices}
        for u, v, letter in self.edge_letters:
            out[u].append((v, letter))
            out[v].append((u, words.invert(letter)))
        for lst in out.values():
            lst.sort(key=lambda t: t[0])
        return out

    def to_json(self) -> dict:
        return {
            "center": self.center,
            "radius": self.radius,
            "oracle": self.oracle_tag,
            "vertices": [
                {"id": v.vid, "word": words.to_json(v.word), "dist": v.dist}
                for v in self.vertices
            ],
            "edges": sorted(sorted(e) for e in self.adjacency),
        }

    def dumps(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True)

    def to_dot(self) -> str:
        lines = ["graph ball {"]
        for v in self.vertices:
            label = words.format_word(v.word) or "1"
            lines.append(f'  n{v.vid} [label="{label}"];')
        for e in sorted(sorted(e) for e in self.adjacency):
            lines.append(f"  n{e[0]} -- n{e[1]};")
        lines.append("}")
        return "\n".join(lines) + "\n"


def build_ball(oracle, gens, radius: int, budget=None) -> CayleyBall:
    """Breadth-first ball of the given radius around the identity.

    ``gens`` is a list of generator symbols; both exponents are applied, so
    the move set is closed under formal inversion automatically.
    """
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    moves: list[Word] = []
    for s in gens:
        for exp in (1, -1):
            moves.append(((s, exp),))
    try:
        root = oracle.normal_form(())
    except OracleInsufficient:
        raise
    key_to_id = {root: 0}
    verts = [BallVertex(0, (), 0)]
    edges: set[frozenset[int]] = set()
    letters: dict[frozenset[int], Word] = {}
    frontier = [0]
    for dist in range(1, radius + 1):
        nxt = []
        for vid in frontier:
            base = verts[vid].word
            for mv in moves:
                w = base + mv
                key = oracle.normal_form(w)
                if key not in key_to_id:
                    new_id = len(verts)
                    key_to_id[key] = new_id
                    verts.append(BallVertex(new_id, words.free_reduce(w), dist))
                    nxt.append(new_id)
                other = key_to_id[key]
                if other != vid:
                    e = frozenset((vid, other))
                    if e not in edges:
                        edges.add(e)
                        a, b = sorted(e)
                        letters[e] = mv if a == vid else words.invert(mv)
        frontier = nxt
    # edges among frontier vertices (both ends at full radius)
    for vid in frontier:
        base = verts[vid].word
        for mv in moves:
            key = oracle.normal_form(base + mv)
            other = key_to_id.get(key)
            if other is not None and other != vid:
                e = frozenset((vid, other))
                if e not in edges:
                    edges.add(e)
                    a, b = sorted(e)
                    letters[e] = mv if a == vid else words.invert(mv)
    edge_letters = tuple(
        (min(e), max(e), letters[e]) for e in sorted(edges, key=lambda e: sorted(e))
    )
    tag = getattr(oracle, "tag", type(oracle).__name__)
    return CayleyBall(0, tuple(verts), frozenset(edges), radius, tag, edge_letters)


# ---------------------------------------------------------------------------
# Loops and distances
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LoopEnumeration:
    """Closed-loop words at a base vertex, length-lexicographic, deduplicated
    up to rotation and reversal.  ``conclusive`` is False when the requested
    length exceeds what the ball certifies (loops may be missing)."""

    words: tuple[Word, ...]
    vertex_cycles: tuple[tuple[int, ...], ...]
    conclusive: bool

    def __iter__(self):
        return iter(self.words)


def _cycle_key(cycle: tuple[int, ...]) -> tuple[int, ...]:
    best = None
    for seq in (cycle, tuple(reversed(cycle))):
        for i in range(len(seq)):
            rot = seq[i:] + seq[:i]
            if best is None or rot < best:
                best = rot
    return best


def closed_loops(ball: CayleyBall, max_len: int, base: int = 0) -> LoopEnumeration:
    """Cyclically non-backtracking closed edge paths through the base vertex.

    Backtracking loops freely reduce to strictly shorter ones, so omitting
    them loses nothing downstream: their cyclic reductions are enumerated.
    """
    nbrs = ball.neighbor_map()
    dist_from_base = distance_map(ball, base)
    out_words: list[Word] = []
    out_cycles: list[tuple[int, ...]] = []
    seen: set[tuple[int, ...]] = set()

    for length in range(3, max_len + 1):
        found: list[tuple[tuple[int, ...], Word]] = []

        def extend(path: tuple[int, ...], w: Word) -> None:
            steps_left = length - (len(path) - 1)
            here = path[-1]
            if steps_left == 0:
                if here == base and len(path) > 1 and path[1] != path[-2]:
                    found.append((path[:-1], w))
                return
            d = dist_from_base.get(here)
            if d is None or d > steps_left:
                return
            for nxt, letter in nbrs[here]:
                if len(path) > 1 and nxt == path[-2]:
                    continue
                extend(path + (nxt,), w + letter)

        extend((base,), ())
        for cycle, w in sorted(found, key=lambda t: t[0]):
            key = _cycle_key(cycle)
            if key in seen:
                continue
            seen.add(key)
            out_words.append(w)
            out_cycles.append(cycle)
    return LoopEnumeration(
        tuple(out_words), tuple(out_cycles), conclusive=max_len <= 2 * ball.radius
    )


def distance_map(ball: CayleyBall, base: int) -> dict[int, int]:
    nbrs = ball.neighbor_map()
    dist = {base: 0}
    frontier = [base]
    while frontier:
        nxt = []
        for u in frontier:
            for v, _ in nbrs[u]:
                if v not in dist:
                    dist[v] = dist[u] + 1
                    nxt.append(v)
        frontier = nxt
    return dist


def graph_distance(ball: CayleyBall, u: int, v: int) -> int | None:
    """Path metric within the ball; None means unreachable inside the ball."""
    ids = {vert.vid for vert in ball.vertices}
    if u not in ids or v not in ids:
        raise ValueError("vertex outside the ball")
    return distance_map(ball, u).get(v)
