"""Finite balls of simplicial Cayley graphs built over equality oracles.

An oracle maps a word, optionally applied to a key it returned, to a
canonical hashable key: ``normal_form(w)`` is the key of w, and
``normal_form(w, key)`` the key of the element of ``key`` followed by w.  Two
words denote the same group element iff their keys coincide.  Balls are
built breadth-first, each vertex's key extended by one move at a time, so
every vertex's representative word is geodesic.  Vertices are group elements
and edges the 2-element sets {g, gs}; inverse generator pairs and involutions
collapse onto single undirected edges, keeping the graph simplicial.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field

from . import normal_forms, words
from .complexes import bfs
from .presentations import PresentationError
from .words import Word


class OracleInsufficient(RuntimeError):
    """An equality needed for ball construction did not resolve."""


class UnknownGenerator(normal_forms.NormalFormError, OracleInsufficient):
    """A symbol none of the oracle's generators name.  It is malformed input,
    a ``NormalFormError`` as the right-angled oracles raise, and also an
    ``OracleInsufficient``: the oracle cannot decide a word over it."""


# ---------------------------------------------------------------------------
# Equality oracles
# ---------------------------------------------------------------------------


class FreeGroupOracle:
    """Free group, optionally with formal-inverse generator pairs."""

    def __init__(self, symbols, inverse_pairs=()):
        self.symbols = tuple(symbols)
        self.pairing = words.pairing_map(inverse_pairs)
        self.tag = f"free({','.join(self.symbols)})"

    def normal_form(self, w: Word, start: Word = ()):
        for sym, _ in w:
            if sym not in self.symbols and sym not in self.pairing:
                raise UnknownGenerator(f"unknown generator {sym!r}")
        return words.free_reduce(start + words.normalize(w, self.pairing))


class RaagOracle:
    """Right-angled Artin group of a flag complex; exact by canonical forms."""

    def __init__(self, complex_):
        self.engine = normal_forms.RaagEngine(complex_.vertices, complex_.edges)
        self.tag = f"raag({','.join(complex_.vertices)})"

    def normal_form(self, w: Word, start=()):
        return self.engine.normal_form(normal_forms.table_letters(self.engine.letters, w), start)


class RacgOracle:
    """Right-angled Coxeter group of a flag complex; exponents are ignored mod 2."""

    def __init__(self, complex_):
        self.engine = normal_forms.TitsEngine(complex_.vertices, complex_.edges)
        self.tag = f"racg({','.join(complex_.vertices)})"

    def normal_form(self, w: Word, start=()):
        return self.engine.normal_form(normal_forms.table_letters(self.engine.letters, w), start)


class BBOracle:
    """Kernel of the Artin group's exponent-sum map, on directed-edge words.

    The generators embed in the ambient Artin group, so equality of images
    under that embedding is exact equality.
    """

    def __init__(self, complex_):
        self.map = normal_forms.BBMap(complex_)
        self.tag = f"bb({','.join(complex_.vertices)})"

    def normal_form(self, w: Word, start=()):
        return self.map.normal_form(w, start)


class ZModOracle:
    """Cyclic group of order n on one generator; n = 0 means infinite cyclic."""

    def __init__(self, n: int, symbol: str = "t"):
        if n < 0:
            raise ValueError("order must be nonnegative")
        self.n = n
        self.symbol = symbol
        self.tag = f"zmod({n})"

    def normal_form(self, w: Word, start: int = 0):
        total = start
        for sym, exp in words.word(w):
            if sym != self.symbol:
                raise UnknownGenerator(f"unknown generator {sym!r}")
            total += exp
        return total % self.n if self.n else total


class CosetTableOracle:
    """Finite group given by a completed coset enumeration."""

    def __init__(self, pres, budget=None):
        from .word_engine import WordProblemEngine

        self.pres = pres
        table = WordProblemEngine(pres, budget).table()
        if table is None:
            raise OracleInsufficient("coset enumeration did not complete in budget")
        self.table = table
        self.tag = f"coset({len(table.rows)})"

    def normal_form(self, w: Word, start: int = 0):
        try:
            return self.table.trace(start, self.pres.encode(w))
        except PresentationError as exc:
            raise UnknownGenerator(str(exc)) from None


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
    words: tuple[Word, ...]  # vertex id -> geodesic word, its length the vertex's distance
    # vertex -> (neighbour, letter read to it) pairs, sorted by neighbour
    nbrs: dict[int, list[tuple[int, Word]]] = field(hash=False, repr=False)
    radius: int
    oracle_tag: str
    # whether the edges among the vertices at distance ``radius`` were built
    rim: bool = field(default=True, compare=False, repr=False)

    def neighbor_map(self) -> dict[int, list[tuple[int, Word]]]:
        return self.nbrs  # kept on the ball, so callers must not change it

    # the vertex and edge views are built on first use
    @functools.cached_property
    def vertices(self) -> tuple[BallVertex, ...]:
        return tuple(BallVertex(vid, w, len(w)) for vid, w in enumerate(self.words))

    @functools.cached_property
    def edge_letters(self) -> tuple[tuple[int, int, Word], ...]:  # u < v, the letter u->v
        return tuple((u, v, letter) for u, pairs in self.nbrs.items() for v, letter in pairs if u < v)

    @functools.cached_property
    def adjacency(self) -> frozenset[frozenset[int]]:
        return frozenset(frozenset((u, v)) for u, v, _ in self.edge_letters)

    def to_json(self) -> dict:
        return {
            "center": self.center,
            "radius": self.radius,
            "oracle": self.oracle_tag,
            "vertices": [
                {"id": v.vid, "word": words.to_json(v.word), "dist": v.dist}
                for v in self.vertices
            ],
            "edges": [[u, v] for u, v, _ in self.edge_letters],
        }

    def dumps(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True)

    def to_dot(self) -> str:
        lines = ["graph ball {"]
        for v in self.vertices:
            label = words.format_word(v.word) or "1"
            lines.append(f'  n{v.vid} [label="{label}"];')
        for u, v, _ in self.edge_letters:
            lines.append(f"  n{u} -- n{v};")
        lines.append("}")
        return "\n".join(lines) + "\n"


def build_ball(oracle, gens, radius: int, *, _rim: bool = True) -> CayleyBall:
    """Breadth-first ball of the given radius around the identity.

    ``gens`` is a list of generator symbols; both exponents are applied, so
    the move set is closed under formal inversion automatically.
    ``_rim=False`` leaves out the edges among the vertices at distance
    ``radius``, the ball's rim, and so spares the last pass.  A generator
    whose two moves reach one vertex from the centre is an involution, so
    g s^-1 = g s everywhere and its move s^-1, met after s, is dropped there.
    """
    if radius < 0:
        raise ValueError(f"radius must be nonnegative, got {radius}")
    moves: list[Word] = [((s, exp),) for s in gens for exp in (1, -1)]
    inverse = {mv: words.invert(mv) for mv in moves}
    keys = [oracle.normal_form(())]  # vertex id -> key
    key_to_id = {keys[0]: 0}
    found, nbrs = [()], {0: []}  # vertex id -> word, and its neighbours
    frontier = [0]
    reached = []  # the centre's key after each move
    # the last pass, if any, only adds the edges among frontier vertices
    for dist in range(1, radius + 1 + _rim):
        nxt = []
        for vid in frontier:
            start, word = keys[vid], found[vid]
            up = {}  # larger neighbour -> the first move that reaches it
            for mv in moves:
                key = oracle.normal_form(mv, start)
                if not vid:
                    reached.append(key)
                other = key_to_id.get(key)
                if other is None:
                    if dist > radius:
                        continue
                    # word + mv is reduced, or the element would be in the ball at dist - 2
                    other = key_to_id[key] = len(found)
                    nxt.append(other)
                    keys.append(key)
                    found.append(word + mv)
                    nbrs[other] = []
                # ids follow the order of extension, so an edge is met first
                # from its smaller end, after those to smaller neighbours
                if vid < other:
                    up.setdefault(other, mv)
            nbrs[vid] += sorted(up.items())
            for other, mv in up.items():
                nbrs[other].append((vid, inverse[mv]))
            if vid == 0:
                moves = [mv for i, mv in enumerate(moves) if i % 2 == 0 or reached[i] != reached[i - 1]]
        frontier = nxt
    return CayleyBall(0, tuple(found), nbrs, radius, getattr(oracle, "tag", type(oracle).__name__), _rim)


# ---------------------------------------------------------------------------
# Loops and distances
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LoopEnumeration:
    """Closed walks at a base vertex in order of length, at least one per
    cyclic word, its least walk first.  ``conclusive`` is False when the
    requested length exceeds what the ball certifies (loops may be missing)."""

    words: tuple[Word, ...]
    vertex_cycles: tuple[tuple[int, ...], ...]
    conclusive: bool


def closed_walks(nbrs, max_len: int, bases, by_label: bool = False) -> list[tuple[tuple, Word]]:
    """Cyclically non-backtracking closed walks through the bases.

    ``nbrs`` maps each vertex to its ``(neighbour, word)`` pairs.  Walks of
    lengths 3..max_len are returned as (vertex cycle, word) pairs, one per
    class up to rotation and reversal, ordered by length, then base, then
    the order of ``nbrs``.  Backtracking walks freely reduce to strictly
    shorter ones, so omitting them loses nothing downstream: their cyclic
    reductions are enumerated, and no walk passes a vertex of degree 1.

    One depth-first search per base files the closed walks of every length
    by length.  No walk visits an earlier base, so a class is found only from
    its earliest base.  It leaves the base by the first neighbour that its
    class steps to or from there, and no walk after those leaving by a
    neighbour uses its edge, so a walk through the base once is found once;
    one through it again is keyed by its least rotation from the base, read
    either way, and the first walk of each key in search order is kept.

    ``by_label`` is for one base of a ball that holds every walk through it,
    with edge labels (words) the same under translation.  It bars every edge
    of the explored edge's label, read either way: a walk over one has a
    rotation that, translated, was walked.  So each cyclic word keeps at
    least one walk, and its least walk, which uses no earlier label, first.
    """
    bases = tuple(dict.fromkeys(bases))
    rank = {base: i for i, base in enumerate(bases)}
    by_length: list[list] = [[] for _ in range(max_len + 1)]
    seen: set[tuple] = set()
    for k, base in enumerate(bases):
        dist = {v: hit[0] for v, hit in bfs(nbrs, base, max_len // 2).items() if v == base or len(nbrs[v]) > 1}
        # each step's neighbours, with the most steps a walk can have taken
        # on reaching them: it must still get back to the base in time
        near = {
            u: [(v, w, max_len - dist[v]) for v, w in nbrs[u] if v in dist and rank.get(v, k) >= k]
            for u in dist
        }
        path, letters, barred = [base], [], set()

        def extend(here, back, steps) -> None:
            # ``steps`` counts the next step, whose closure is tested before it is pushed
            for nxt, letter, latest in near[here]:
                if nxt == back or steps > latest or barred and letter in barred:
                    continue
                letters.append(letter)
                if nxt == base and steps >= 3 and path[1] != here:
                    cycle, fresh = tuple(path), True
                    if path.count(base) > 1:  # through the base again
                        turns = (cycle[i:] + cycle[:i] for i, v in enumerate(cycle) if v == base)
                        key = min(min(t, (base, *t[:0:-1])) for t in turns)
                        fresh = key not in seen
                        seen.add(key)
                    if fresh:
                        by_length[steps].append((cycle, tuple(x for word in letters for x in word)))
                if steps < max_len:
                    path.append(nxt)
                    extend(nxt, here, steps + 1)
                    path.pop()
                letters.pop()

        for first in tuple(near[base]):
            if first[1] in barred:
                continue
            path[1:], letters[:] = [first[0]], [first[1]]
            extend(first[0], base, 2)
            if by_label:  # then bar every edge of its label, read either way
                barred.update((first[1], words.invert(first[1])))
            else:  # then bar the edge between this neighbour and the base
                near[base].remove(first)
                near[first[0]] = [step for step in near[first[0]] if step[0] != base]
        del extend  # it refers to itself; without this its tables wait for the collector
    return [walk for walks in by_length for walk in walks]


def closed_loops(ball: CayleyBall, max_len: int, base: int = 0) -> LoopEnumeration:
    """The closed walks of ``closed_walks`` through one base vertex of a ball,
    barring labels when the ball holds every walk and each label at the
    centre has its inverse there, which one move per involution breaks.

    A closed walk of length n from a base at distance d from the centre stays
    within d + n/2 of it, and uses rim edges only when n is odd."""
    if base not in ball.nbrs:
        raise ValueError("vertex outside the ball")
    conclusive = max_len <= 2 * (ball.radius - len(ball.words[base])) + ball.rim
    labels = {label for _, label in ball.nbrs[ball.center]}
    by_label = conclusive and all(words.invert(label) in labels for label in labels)
    found = closed_walks(ball.neighbor_map(), max_len, (base,), by_label)
    return LoopEnumeration(tuple(w for _, w in found), tuple(c for c, _ in found), conclusive)


def distance_map(ball: CayleyBall, base: int) -> dict[int, int]:
    return {v: hit[0] for v, hit in bfs(ball.neighbor_map(), base).items()}


def graph_distance(ball: CayleyBall, u: int, v: int) -> int | None:
    """Path metric within the ball; None means unreachable inside the ball."""
    if u not in ball.nbrs or v not in ball.nbrs:
        raise ValueError("vertex outside the ball")
    return distance_map(ball, u).get(v)


class Shortcuts:
    """Shortcuts of closed walks in one graph, given by its neighbour map.

    The vertices at positions a < b of a closed walk of length l are joined
    along the walk by two arcs, of lengths b - a and l - (b - a).  A shortcut
    is a pair that the graph joins by a path shorter than both arcs; a walk
    without one is isometrically embedded.  ``nbrs`` maps each vertex to its
    ``(neighbour, word)`` pairs, the word being read along the edge.  The
    breadth-first search from each vertex is kept, to the depth that a
    shortcut of a walk of length at most ``max_len`` can use, so walks that
    share vertices share searches; so is each vertex's neighbour-word table.
    """

    def __init__(self, nbrs, max_len: int):
        self.nbrs = nbrs
        self.depth = depth = max_len // 2 - 1
        self._search = functools.cache(lambda root: bfs(nbrs, root, depth))
        self._words = functools.cache(lambda u: dict(nbrs[u]))

    def find(self, cycle, encode) -> tuple[tuple[int, ...], ...] | None:
        """The first shortcut (a, b) of a closed vertex walk, in order of a
        then b, as the codes of the walk's head before vertex a, its arc from
        a to b and its tail after b, and of a geodesic from a to b; None when
        the walk is isometric.  ``encode`` gives an edge word's signed-index
        codes."""
        n = len(cycle)
        for a in range(n):
            search = self._search(cycle[a])
            for b in range(a + 1, n):
                hit = search.get(cycle[b])
                if hit is None or hit[0] >= min(b - a, n - b + a):
                    continue
                path = []
                v = cycle[b]
                while v != cycle[a]:
                    _, v, letter = search[v]
                    path.append(letter)
                # each edge's word, from its first end's table, then its codes
                edge_words = map(dict.__getitem__, map(self._words, cycle), cycle[1:] + cycle[:1])
                edges, q = list(map(encode, edge_words)), map(encode, reversed(path))
                return sum(edges[:a], ()), sum(edges[a:b], ()), sum(edges[b:], ()), sum(q, ())
        return None
