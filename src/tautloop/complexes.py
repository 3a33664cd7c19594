"""Finite flag complexes, their loops, homology and fundamental groups.

Vertices carry a total order (their position in the vertex list); every
derived enumeration; cliques, spanning trees, boundary bases; follows that
order so all outputs are deterministic.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from . import words
from .linalg import rank_of_diagonal, smith_normal_form

MAX_VERTICES = 20


class ComplexError(ValueError):
    pass


def _check_simple(vertices: Sequence[str], edges: Iterable[tuple[str, str]]) -> frozenset[frozenset[str]]:
    vset = set(vertices)
    if len(vset) != len(vertices):
        raise ComplexError("duplicate vertices")
    out = set()
    for u, v in edges:
        if u == v:
            raise ComplexError(f"self-loop at {u!r}")
        if u not in vset or v not in vset:
            raise ComplexError(f"edge ({u!r},{v!r}) leaves the vertex set")
        e = frozenset((u, v))
        if e in out:
            raise ComplexError(f"multi-edge ({u!r},{v!r})")
        out.add(e)
    return frozenset(out)


def bfs(nbrs, root, depth: int | None = None) -> dict:
    """Breadth-first search of a graph given by its neighbour map, to the
    given depth (the root's whole component when None).

    Returns vertex -> (distance, parent, word read from parent to vertex),
    in the order the vertices are reached; the root maps to (0, None, ()).
    """
    found = {root: (0, None, ())}
    frontier = [root]
    dist = 0
    while frontier and (depth is None or dist < depth):
        dist += 1
        nxt = []
        for u in frontier:
            for v, letter in nbrs[u]:
                if v not in found:
                    found[v] = (dist, u, letter)
                    nxt.append(v)
        frontier = nxt
    return found


@dataclass(frozen=True)
class SimpleGraph:
    """Finite simple graph with totally ordered vertices."""

    vertices: tuple[str, ...]
    edges: frozenset[frozenset[str]]

    @classmethod
    def build(cls, vertices: Iterable, edges: Iterable) -> "SimpleGraph":
        vs = tuple(str(v) for v in vertices)
        es = _check_simple(vs, [(str(u), str(v)) for u, v in edges])
        return cls(vs, es)

    @classmethod
    def from_json(cls, data: dict) -> "SimpleGraph":
        edges = [words.json_list(e) for e in words.json_list(data["edges"])]
        return cls.build(words.json_list(data["vertices"]), edges)

    def to_json(self) -> dict:
        return {"vertices": list(self.vertices), "edges": [list(e) for e in self.sorted_edges()]}

    def has_edge(self, u: str, v: str) -> bool:
        return frozenset((u, v)) in self.edges

    def neighbors(self, u: str) -> list[str]:
        return [v for v in self.vertices if v != u and self.has_edge(u, v)]

    def sorted_edges(self) -> list[tuple[str, str]]:
        idx = {v: i for i, v in enumerate(self.vertices)}
        out = []
        for e in self.edges:
            a, b = sorted(e, key=idx.get)
            out.append((a, b))
        out.sort(key=lambda e: (idx[e[0]], idx[e[1]]))
        return out

    def induced(self, keep: Iterable[str]) -> "SimpleGraph":
        ks = [v for v in self.vertices if v in set(keep)]
        es = [e for e in self.sorted_edges() if e[0] in set(ks) and e[1] in set(ks)]
        return SimpleGraph.build(ks, es)

    def is_induced_subgraph_of(self, other: "SimpleGraph") -> bool:
        if not set(self.vertices) <= set(other.vertices):
            return False
        for u, v in itertools.combinations(self.vertices, 2):
            if self.has_edge(u, v) != other.has_edge(u, v):
                return False
        return True


@dataclass(frozen=True)
class FlagComplex(SimpleGraph):
    """Clique complex of a simple graph, and that graph; simplices are derived, not stored."""

    _cliques: tuple[tuple[str, ...], ...] = field(default=None, compare=False, repr=False)
    _trees: dict = field(default_factory=dict, compare=False, repr=False)  # basepoint -> tree, chords

    def graph(self) -> SimpleGraph:
        return SimpleGraph(self.vertices, self.edges)

    def simplices(self) -> tuple[tuple[str, ...], ...]:
        """All cliques in vertex order, smallest dimension first."""
        if self._cliques is not None:
            return self._cliques
        idx = {v: i for i, v in enumerate(self.vertices)}
        cliques: list[tuple[str, ...]] = [(v,) for v in self.vertices]
        frontier = [(v,) for v in self.vertices]
        while frontier:
            nxt = []
            for cl in frontier:
                last = idx[cl[-1]]
                for v in self.vertices[last + 1:]:
                    if all(self.has_edge(u, v) for u in cl):
                        nxt.append(cl + (v,))
            cliques.extend(nxt)
            frontier = nxt
        cliques.sort(key=lambda c: (len(c), tuple(idx[v] for v in c)))
        result = tuple(cliques)
        object.__setattr__(self, "_cliques", result)
        return result

    def simplices_of_dim(self, k: int) -> list[tuple[str, ...]]:
        return [s for s in self.simplices() if len(s) == k + 1]

    @property
    def dimension(self) -> int:
        return max(len(s) for s in self.simplices()) - 1

    def is_connected(self) -> bool:
        if not self.vertices:
            return True
        nbrs = {u: [(v, ()) for v in self.neighbors(u)] for u in self.vertices}
        return len(bfs(nbrs, self.vertices[0])) == len(self.vertices)

    def euler_characteristic(self) -> int:
        return sum((-1) ** (len(s) - 1) for s in self.simplices())

    @classmethod
    def from_json(cls, data: dict) -> "FlagComplex":
        return flag_completion(SimpleGraph.from_json(data))

    def dumps(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True)


def flag_completion(graph: SimpleGraph) -> FlagComplex:
    """Clique complex on the graph's vertex/edge data.  Idempotent."""
    if len(graph.vertices) > MAX_VERTICES:
        raise ComplexError(f"complex capped at {MAX_VERTICES} vertices")
    return FlagComplex(graph.vertices, graph.edges)


@dataclass(frozen=True)
class EdgeLoop:
    """Directed edge loop, stored as the cyclic vertex sequence it visits.

    ``cycle`` lists l vertices for a loop of length l; consecutive vertices
    (cyclically) must span edges.  Directed-edge storage disambiguates
    multi-traversals such as a boundary walked twice.
    """

    cycle: tuple[str, ...]

    def __len__(self) -> int:
        return len(self.cycle)

    def directed_edges(self) -> list[tuple[str, str]]:
        return list(zip(self.cycle, self.cycle[1:] + self.cycle[:1]))

    def validate(self, complex_: FlagComplex) -> None:
        if len(self.cycle) < 3:
            raise ComplexError("simplicial loops have length >= 3")
        for u, v in self.directed_edges():
            if not complex_.has_edge(u, v):
                raise ComplexError(f"loop uses missing edge ({u!r},{v!r})")

    def to_json(self) -> list:
        return list(self.cycle)

    @classmethod
    def from_json(cls, data: Iterable) -> "EdgeLoop":
        return cls(tuple(str(v) for v in words.json_list(data)))


@dataclass(frozen=True)
class OmegaSet:
    """Finite list of directed loops, claimed to normally generate pi1."""

    loops: tuple[EdgeLoop, ...]

    def validate(self, complex_: FlagComplex) -> None:
        for lp in self.loops:
            lp.validate(complex_)

    def to_json(self) -> list:
        return [lp.to_json() for lp in self.loops]

    @classmethod
    def from_json(cls, data: Iterable) -> "OmegaSet":
        return cls(tuple(EdgeLoop.from_json(item) for item in words.json_list(data)))


def _boundary_matrix(complex_: FlagComplex, k: int) -> list[list[int]]:
    """Matrix of the boundary map C_k -> C_{k-1} in the ordered clique bases."""
    faces = complex_.simplices_of_dim(k - 1)
    cells = complex_.simplices_of_dim(k)
    face_index = {s: i for i, s in enumerate(faces)}
    rows = [[0] * len(cells) for _ in faces]
    for j, cell in enumerate(cells):
        for drop in range(len(cell)):
            face = cell[:drop] + cell[drop + 1:]
            rows[face_index[face]][j] = (-1) ** drop
    return rows


@dataclass(frozen=True)
class HomologyGroup:
    rank: int
    torsion: tuple[int, ...]

    @property
    def is_trivial(self) -> bool:
        return self.rank == 0 and not self.torsion


def reduced_homology(complex_: FlagComplex, degree: int) -> HomologyGroup:
    """Reduced integer simplicial homology via Smith normal form."""
    if degree < 0 or degree > complex_.dimension:
        raise ComplexError(f"degree {degree} outside 0..{complex_.dimension}")
    n_cells = len(complex_.simplices_of_dim(degree))
    if n_cells == 0:
        return HomologyGroup(0, ())
    if degree == 0:
        # augmented boundary: every vertex maps to the generator of Z
        lower = [[1] * n_cells]
    else:
        lower = _boundary_matrix(complex_, degree)
    upper = _boundary_matrix(complex_, degree + 1)
    rank_lower = rank_of_diagonal(smith_normal_form(lower)[0])
    diag_upper = smith_normal_form(upper)[0]
    rank_upper = rank_of_diagonal(diag_upper)
    rank = n_cells - rank_lower - rank_upper
    torsion = tuple(d for d in diag_upper if d > 1)
    return HomologyGroup(rank, torsion)


def is_acyclic(complex_: FlagComplex) -> bool:
    return all(reduced_homology(complex_, k).is_trivial for k in range(complex_.dimension + 1))


def spanning_tree(complex_: FlagComplex, basepoint: str) -> frozenset[frozenset[str]]:
    """Deterministic spanning tree: grow from the basepoint, always attaching
    the lowest-index unreached vertex with a reached neighbour, through the
    one reached earliest.  Built once per basepoint, kept with its ``chord_words``."""
    if basepoint in complex_._trees:
        return complex_._trees[basepoint][0]
    if basepoint not in complex_.vertices:
        raise ComplexError(f"unknown basepoint {basepoint!r}")
    reached = [basepoint]
    tree: set[frozenset[str]] = set()
    while len(reached) < len(complex_.vertices):
        grown = False
        for v in complex_.vertices:
            if v in reached:
                continue
            for u in reached:
                if complex_.has_edge(u, v):
                    tree.add(frozenset((u, v)))
                    reached.append(v)
                    grown = True
                    break
            if grown:
                break
        if not grown:
            raise ComplexError("complex is disconnected")
    chords = {}
    for u, v in complex_.sorted_edges():
        letter = () if frozenset((u, v)) in tree else ((edge_symbol(u, v), 1),)
        chords[u, v], chords[v, u] = letter, words.invert(letter)
    complex_._trees[basepoint] = (frozenset(tree), chords)
    return complex_._trees[basepoint][0]


def chord_words(complex_: FlagComplex, basepoint: str) -> dict[tuple[str, str], tuple]:
    """The word read along each directed edge through the spanning tree at
    the basepoint: empty on a tree edge, else the letter of the chord, named
    from its lower-index end."""
    spanning_tree(complex_, basepoint)
    return complex_._trees[basepoint][1]


def edge_symbol(u: str, v: str) -> str:
    return f"e:{u}:{v}"


def pi1_presentation(complex_: FlagComplex, basepoint: str | None = None):
    """Presentation of pi1 from the 2-skeleton: generators are the edges
    outside a deterministic spanning tree, relators the 2-simplex boundaries
    rewritten through the tree.  Length-1 relators are eliminated."""
    from .presentations import GroupPresentation

    if basepoint is None:
        basepoint = complex_.vertices[0]
    tree = spanning_tree(complex_, basepoint)
    gens = [edge_symbol(*e) for e in complex_.sorted_edges() if frozenset(e) not in tree]
    relators = [loop_word(complex_, EdgeLoop(s), basepoint) for s in complex_.simplices_of_dim(2)]
    return _eliminate_unit_relators(GroupPresentation.build(gens, relators))


def _eliminate_unit_relators(pres):
    """Tietze cleanup: kill generators forced trivial by length-1 relators."""
    from .presentations import GroupPresentation

    gens = list(pres.generators)
    relators = [tuple(r) for r in pres.relators]
    while True:
        dead = None
        for r in relators:
            if len(r) == 1:
                dead = r[0][0]
                break
        if dead is None:
            break
        gens = [g for g in gens if g != dead]
        relators = [
            words.free_reduce(tuple(l for l in r if l[0] != dead)) for r in relators
        ]
        relators = [r for r in relators if r]
    return GroupPresentation.build(gens, relators)


def loop_word(complex_: FlagComplex, loop: EdgeLoop, basepoint: str | None = None):
    """Rewrite a loop through the pi1 spanning tree into a chord word."""
    if basepoint is None:
        basepoint = complex_.vertices[0]
    chords = chord_words(complex_, basepoint)
    return words.free_reduce(tuple(x for edge in loop.directed_edges() for x in chords[edge]))


def normally_generates(complex_: FlagComplex, omega: OmegaSet, budget=None):
    """Tri-state check that the loops of omega normally generate pi1.

    Proved: coset enumeration of pi1 plus the loop relators collapses to the
    trivial group.  Refuted: a finite quotient in which some pi1 generator
    survives.  Unknown: budget exhausted.
    """
    from . import word_engine
    from .presentations import GroupPresentation

    omega.validate(complex_)
    base = pi1_presentation(complex_)
    # a chord that the elimination killed is trivial in pi1: drop its letters
    live = set(base.generators)
    extra = [
        words.free_reduce(tuple(x for x in loop_word(complex_, lp) if x[0] in live))
        for lp in omega.loops
    ]
    pres = GroupPresentation.build(list(base.generators), list(base.relators) + extra)
    return word_engine.group_is_trivial(pres, budget)
