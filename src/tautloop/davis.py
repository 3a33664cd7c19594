"""Free group actions on graphs and semidirect products W_K x| G.

A finite group G acts freely on a graph K with intra-orbit distance >= 4.
From orbit representatives we produce a finite presentation of the semidirect
product J = W_K x| G (Coxeter generators for the vertex orbit reps, plus the
G generators), and run the kernel-transfer experiment: every short kernel
element of J(S) -> J(T) must be shadowed by a kernel element of G(S) -> G(T)
of no greater length.

Convention used throughout for the twist: g * w_x * g^-1 = w_{g.x}, so the
Coxeter generator of a vertex u off the representative set V' expands to
g_u^-1 * w_ubar * g_u where ubar = g_u.u lies in V'.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from . import words
from .cayley import CosetTableOracle
from .complexes import SimpleGraph, bfs
from .normal_forms import TitsEngine
from .presentations import GroupPresentation
from .word_engine import Budget
from .words import Word


class DavisError(ValueError):
    pass


def vertex_symbol(v: str) -> str:
    return f"w:{v}"


@dataclass(frozen=True)
class GroupAction:
    """A finite group acting on a simple graph by vertex permutations.

    ``action`` maps each core generator to a vertex permutation, from which
    each letter's move is built once.  The group must have a completed coset
    enumeration, kept per budget beside the permutation of every element.
    """

    graph: SimpleGraph
    group: GroupPresentation
    action: tuple[tuple[str, tuple[tuple[str, str], ...]], ...]
    _moves: dict = field(default=None, init=False, compare=False, repr=False)  # letter -> move
    _cosets: dict = field(default_factory=dict, init=False, compare=False, repr=False)  # budget -> (oracle, elements)

    def __post_init__(self) -> None:
        moves = {}
        for g, perm in self.action:
            moves[g, 1] = dict(perm)
            moves[g, -1] = {v: u for u, v in perm}
        object.__setattr__(self, "_moves", moves)

    @classmethod
    def build(
        cls,
        graph: SimpleGraph,
        group: GroupPresentation,
        action: Mapping[str, Mapping[str, str]],
    ) -> "GroupAction":
        core = group.core_generators()
        if set(action) != set(core):
            raise DavisError("action must cover exactly the core generators")
        packed = []
        for g in core:
            perm = dict(action[g])
            if sorted(perm) != sorted(graph.vertices) or sorted(
                perm.values()
            ) != sorted(graph.vertices):
                raise DavisError(f"image of {g!r} is not a vertex permutation")
            packed.append((g, tuple(sorted(perm.items()))))
        return cls(graph, group, tuple(packed))

    def apply_word(self, w: Word, vertex: str) -> str:
        """Left action of the group element on a vertex; w acts last letter
        first, matching (gh).x = g.(h.x)."""
        out = vertex
        for letter in reversed(words.word(w)):
            move = self._moves.get(letter)
            if move is None:
                raise DavisError(f"unknown generator {letter[0]!r}")
            out = move[out]
        return out

    def cosets(self, budget: Budget | None = None):
        """The group's ``cayley.CosetTableOracle`` and its element
        permutations, enumerated once per budget."""
        budget = budget or Budget()
        if budget not in self._cosets:
            oracle = CosetTableOracle(self.group, budget)
            elements = []
            for rep in oracle.table.element_words():
                w = self.group.decode(rep)
                elements.append((w, {v: self.apply_word(w, v) for v in self.graph.vertices}))
            self._cosets[budget] = oracle, elements
        return self._cosets[budget]

    def element_permutations(self, budget: Budget | None = None):
        """(representative word, vertex permutation) for every group element,
        in coset order."""
        return self.cosets(budget)[1]

    def to_json(self) -> dict:
        return {
            "graph": self.graph.to_json(),
            "group": self.group.to_json(),
            "action": {g: dict(perm) for g, perm in self.action},
        }

    @classmethod
    def from_json(cls, data: dict) -> "GroupAction":
        return cls.build(
            SimpleGraph.from_json(data["graph"]),
            GroupPresentation.from_json(data["group"]),
            data["action"],
        )


@dataclass(frozen=True)
class ActionReport:
    valid: bool
    relators_ok: bool
    free: bool
    min_intra_orbit_distance: int | None
    violations: tuple[str, ...]

    def to_json(self) -> dict:
        return {
            "valid": self.valid,
            "relators_ok": self.relators_ok,
            "free": self.free,
            "min_intra_orbit_distance": self.min_intra_orbit_distance,
            "violations": list(self.violations),
        }


def check_action(ga: GroupAction, budget: Budget | None = None) -> ActionReport:
    """Relator compatibility, freeness, edge preservation and the distance-4
    orbit separation, with a witness string per violation."""
    violations: list[str] = []
    relators_ok = True
    for r in ga.group.relators:
        for v in ga.graph.vertices:
            if ga.apply_word(r, v) != v:
                relators_ok = False
                violations.append(f"relator {words.format_word(r)} moves vertex {v}")
                break
    for g, perm in ga.action:
        perm = dict(perm)
        for u, v in ga.graph.sorted_edges():
            if not ga.graph.has_edge(perm[u], perm[v]):
                violations.append(f"generator {g} does not preserve edge ({u},{v})")
    elements = ga.element_permutations(budget)
    free = True
    for w, perm in elements:
        if not w:
            continue
        if any(perm[v] == v for v in ga.graph.vertices):
            free = False
            violations.append(f"element {words.format_word(w)} has a fixed vertex")
    min_dist: int | None = None
    nbrs = {v: [(u, ()) for u in ga.graph.neighbors(v)] for v in ga.graph.vertices}
    for v in ga.graph.vertices:
        dist = bfs(nbrs, v)
        orbit = {perm[v] for _, perm in elements}
        for u in orbit:
            if u == v:
                continue
            if u not in dist:
                violations.append(f"orbit of {v} leaves the component")
                continue
            d = dist[u][0]
            if min_dist is None or d < min_dist:
                min_dist = d
    separated = min_dist is None or min_dist >= 4
    if not separated:
        violations.append(f"intra-orbit distance {min_dist} < 4")
    return ActionReport(
        relators_ok and free and separated and not violations,
        relators_ok,
        free,
        min_dist,
        tuple(violations),
    )


@dataclass(frozen=True)
class OrbitData:
    """Vertex and edge orbit representatives with transfer elements g_u."""

    vprime: tuple[str, ...]
    eprime: tuple[tuple[str, str], ...]
    gu: tuple[tuple[str, Word], ...]  # vertex -> shortest word with g_u.u in V'

    def gu_map(self) -> dict[str, Word]:
        return dict(self.gu)

    def to_json(self) -> dict:
        return {
            "vprime": list(self.vprime),
            "eprime": [list(e) for e in self.eprime],
            "gu": {u: words.to_json(w) for u, w in self.gu},
        }


def choose_orbits(ga: GroupAction, budget: Budget | None = None) -> OrbitData:
    """Canonical orbit representatives: lex-least vertex per orbit, edge reps
    incident to V' whenever possible, and shortest transfer words g_u."""
    elements = ga.element_permutations(budget)
    # order elements by representative length then lexicographically: the
    # first g with g.u in V' is then a shortest transfer word
    elements = sorted(elements, key=lambda t: (len(t[0]), t[0]))
    vprime: list[str] = []
    seen: set[str] = set()
    for v in ga.graph.vertices:
        if v in seen:
            continue
        orbit = {perm[v] for _, perm in elements}
        rep = min(orbit, key=ga.graph.vertices.index)
        vprime.append(rep)
        seen |= orbit
    vset = set(vprime)
    eprime: list[tuple[str, str]] = []
    seen_edges: set[frozenset[str]] = set()
    for u, v in ga.graph.sorted_edges():
        e = frozenset((u, v))
        if e in seen_edges:
            continue
        orbit_edges = []
        for _, perm in elements:
            img = frozenset((perm[u], perm[v]))
            orbit_edges.append(img)
            seen_edges.add(img)
        incident = [e2 for e2 in orbit_edges if e2 & vset]
        if not incident:
            raise DavisError(f"edge orbit of ({u},{v}) misses V'")
        idx = {w: i for i, w in enumerate(ga.graph.vertices)}
        rep = min((tuple(sorted(e2, key=idx.get)) for e2 in incident))
        eprime.append(rep)
    incident_vertices = sorted({u for e in eprime for u in e}, key=ga.graph.vertices.index)
    gu = []
    for u in incident_vertices:
        for w, perm in elements:
            if perm[u] in vset:
                gu.append((u, w))
                break
        else:
            raise DavisError(f"no transfer element for {u}")
    return OrbitData(tuple(vprime), tuple(eprime), tuple(gu))


def compute_N1(ga: GroupAction, orbits: OrbitData) -> int:
    """Max transfer word length over vertices incident to E'; N is 2*N1."""
    gu = orbits.gu_map()
    incident = {u for e in orbits.eprime for u in e}
    lengths = [len(gu[u]) for u in incident]
    return max(lengths, default=0)


def build_J(ga: GroupAction, orbits: OrbitData) -> GroupPresentation:
    """Presentation of W_K x| G on V' Coxeter generators and G generators.

    Relator families: v^2 for v in V'; squared conjugated-edge relators of
    length at most 4*N1 + 4; the relators of G.
    """
    gu = orbits.gu_map()
    vset = set(orbits.vprime)

    def coxeter_word(u: str) -> Word:
        """w_u spelled in the J generators: g_u^-1 * w_ubar * g_u."""
        if u in vset:
            return ((vertex_symbol(u), 1),)
        g = gu[u]
        ubar = ga.apply_word(g, u)
        return words.invert(g) + ((vertex_symbol(ubar), 1),) + tuple(words.word(g))

    gens = [vertex_symbol(v) for v in orbits.vprime] + list(ga.group.generators)
    relators: list[Word] = []
    for v in orbits.vprime:
        relators.append(((vertex_symbol(v), 1), (vertex_symbol(v), 1)))
    n1 = compute_N1(ga, orbits)
    for e in orbits.eprime:
        ends = [u for u in e if u in vset]
        if not ends:
            raise DavisError(f"edge rep {e} misses V'")
        v = ends[0]
        u = e[0] if e[1] == v else e[1]
        once = ((vertex_symbol(v), 1),) + coxeter_word(u)
        if len(once) * 2 > 4 * n1 + 4:
            raise DavisError("edge relator exceeds the 4*N1+4 bound")
        relators.append(once + once)
    relators.extend(ga.group.relators)
    return GroupPresentation.build(gens, relators, ga.group.inverse_pairs)


# ---------------------------------------------------------------------------
# Exact semidirect-product engine
# ---------------------------------------------------------------------------


class SemidirectEngine:
    """Elements of W_K x| G as (Tits normal form over K, coset id in G).

    An equality oracle as those of ``cayley``: ``normal_form(w, start)`` is
    the element ``start`` followed by the word w, over the Coxeter letters
    ``w:v`` of the vertices of K (either exponent: they are involutions) and
    the generators of G.  As (x, g) w_v = (x w_{g.v}, g), a Coxeter letter
    appends its vertex moved by the group part so far, read from one Tits
    letter permutation per group element, and a group letter moves the coset.
    """

    def __init__(self, ga: GroupAction, budget: Budget | None = None) -> None:
        self.ga = ga
        self.tits = TitsEngine(ga.graph.vertices, ga.graph.edges)
        self.cosets, elements = ga.cosets(budget)
        self.identity = ((), 0)
        self._elt_words = [w for w, _ in elements]
        index = self.tits.index
        self._vertex = {vertex_symbol(v): i for v, i in index.items()}
        # coset -> the letter of g.v at the letter of each vertex v
        self._twist = [tuple(index[perm[v]] for v in self.tits.vertices) for _, perm in elements]

    def normal_form(self, w: Word, start=((), 0)):
        x, g = start
        moved = []
        for sym, exp in w:
            i = self._vertex.get(sym)
            if i is None:
                g = self.cosets.normal_form(((sym, exp),), g)
            else:
                moved.append(self._twist[g][i])
        return self.tits.normal_form(moved, x), g

    def mul(self, a, b):
        x, g = b
        spelled = tuple((vertex_symbol(self.tits.vertices[i]), 1) for i in x)
        return self.normal_form(spelled + self._elt_words[g], a)

    def gen_coxeter(self, v: str):
        return self.normal_form(((vertex_symbol(v), 1),))

    def eval_word(self, w: Word, vprime: Sequence[str]):
        w = words.word(w)
        allowed = {vertex_symbol(v) for v in vprime}
        for sym, _ in w:
            if sym.startswith("w:") and sym not in allowed:
                raise DavisError(f"{sym!r} is not a V' generator")
        return self.normal_form(w)


# ---------------------------------------------------------------------------
# The kernel-transfer experiment
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SemikerReport:
    n1: int
    n: int
    max_len: int
    kernel_words_checked: int
    counterexamples: tuple[dict, ...]
    samples: tuple[dict, ...]

    @property
    def passed(self) -> bool:
        return not self.counterexamples

    def to_json(self) -> dict:
        return {
            "N1": self.n1,
            "N": self.n,
            "max_len": self.max_len,
            "kernel_words_checked": self.kernel_words_checked,
            "passed": self.passed,
            "counterexamples": list(self.counterexamples),
            "samples": list(self.samples),
        }


def _vertex_quotient_map(
    eng_s: SemidirectEngine, eng_t: SemidirectEngine, kernel_cosets
) -> dict[str, str]:
    """Vertex map K(S) -> K(T) collapsing kernel orbits.

    K(T) reuses a subset of the K(S) vertex names, so a vertex of K(S) maps
    to the unique K(T)-named vertex in its kernel orbit.
    """
    t_names = set(eng_t.ga.graph.vertices)
    vertices = eng_s.tits.vertices
    out: dict[str, str] = {}
    for i, v in enumerate(vertices):
        orbit = {vertices[eng_s._twist[c][i]] for c in kernel_cosets}
        named = orbit & t_names
        if len(named) != 1:
            raise DavisError(f"kernel orbit of {v} has no unique K(T) name")
        out[v] = named.pop()
    return out


def semiker_experiment(
    instance_s: tuple[GroupAction, OrbitData],
    instance_t: tuple[GroupAction, OrbitData],
    quotient,
    max_len: int,
    budget: Budget | None = None,
) -> SemikerReport:
    """Enumerate kernel elements of J(S) -> J(T) up to max_len and verify the
    transfer bound: each of length > N admits g in ker(G(S) -> G(T)) - {1}
    with l_G(g) <= l_J(w)."""
    if max_len < 0:
        raise ValueError(f"max_len must be nonnegative, got {max_len}")
    ga_s, orbits_s = instance_s
    ga_t, _ = instance_t
    n1 = compute_N1(ga_s, orbits_s)
    n = 2 * n1
    eng_s = SemidirectEngine(ga_s, budget)
    eng_t = SemidirectEngine(ga_t, budget)

    # kernel of G(S) -> G(T): coset ids and the shortest length per element
    g_kernel_lengths: list[int] = []
    kernel_cosets: set[int] = set()
    for i, w in enumerate(eng_s._elt_words):
        if eng_t.cosets.normal_form(quotient.apply(w)) == 0:
            kernel_cosets.add(i)
            if i != 0:
                g_kernel_lengths.append(len(w))
    min_g_kernel = min(g_kernel_lengths, default=None)
    vmap = _vertex_quotient_map(eng_s, eng_t, kernel_cosets)

    def project(state) -> bool:
        """True when the J(S) element dies in J(T)."""
        x, g = state
        if g not in kernel_cosets:
            return False
        mapped = [eng_t.tits.index[vmap[eng_s.tits.vertices[i]]] for i in x]
        return not eng_t.tits.normal_form(mapped)

    moves = [(vertex_symbol(v), 1) for v in orbits_s.vprime]
    for s in ga_s.group.core_generators():
        moves.extend([(s, 1), (s, -1)])
    start = eng_s.identity
    frontier = [start]
    checked = 0
    counterexamples: list[dict] = []
    samples: list[dict] = []
    state_word = {start: ()}
    for depth in range(1, max_len + 1):
        nxt = []
        for st in frontier:
            for mv in moves:
                new = eng_s.normal_form((mv,), st)
                if new in state_word:
                    continue
                state_word[new] = state_word[st] + (mv,)
                nxt.append(new)
        frontier = nxt
        for st in nxt:
            if depth <= n or not project(st):
                continue
            checked += 1
            ok = min_g_kernel is not None and min_g_kernel <= depth
            record = {
                "word": words.to_json(state_word[st]),
                "l_J": depth,
                "g_length": min_g_kernel,
                "ok": ok,
            }
            if not ok:
                counterexamples.append(record)
            elif len(samples) < 10:
                samples.append(record)
    return SemikerReport(
        n1, n, max_len, checked, tuple(counterexamples), tuple(samples)
    )


# ---------------------------------------------------------------------------
# Instance serialization
# ---------------------------------------------------------------------------


def instance_to_json(ga: GroupAction, orbits: OrbitData) -> dict:
    return {"action": ga.to_json(), "orbits": orbits.to_json()}


def instance_from_json(data: dict, budget: Budget | None = None) -> tuple[GroupAction, OrbitData]:
    """An instance from its JSON form, orbits chosen after reading, within the
    budget, when it has none.  A missing key or a value of the wrong shape
    raises ``DavisError``."""
    try:
        ga = GroupAction.from_json(data["action"])
        o = data.get("orbits")
        orbits = None if o is None else OrbitData(
            tuple(words.json_list(o["vprime"])),
            tuple(tuple(words.json_list(e)) for e in words.json_list(o["eprime"])),
            tuple(sorted((u, words.from_json(w)) for u, w in o["gu"].items())),
        )
    except (LookupError, TypeError, AttributeError) as exc:
        raise DavisError(f"malformed instance: {type(exc).__name__}: {exc}") from None
    return ga, choose_orbits(ga, budget) if orbits is None else orbits
