"""Taut loop length spectra and the k-relatedness comparison.

A loop of length l is taut when it stays nontrivial after every strictly
shorter loop has been filled in.  That is decided at the group level: collect
the trivial words shorter than l, present the quotient they normally
generate, and ask the word-problem engine about each length-l loop.  Both a
Cayley-graph entry point (driven by an equality oracle) and a finite-graph
entry point are provided.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from . import cayley, words
from .complexes import FlagComplex, SimpleGraph, loop_word, pi1_presentation
from .presentations import GroupPresentation, truncated_presentation
from .word_engine import (
    PROVED,
    REFUTED,
    UNKNOWN,
    Budget,
    TriState,
    WordProblemEngine,
)
from .words import Word

TAUT = "taut"
NOT_TAUT = "not_taut"


@dataclass(frozen=True)
class TautClaim:
    """One oracle verdict feeding a length status, kept for replay."""

    word: Word
    presentation: GroupPresentation
    state: TriState

    def to_json(self) -> dict:
        return {
            "word": words.to_json(self.word),
            "presentation": self.presentation.to_json(),
            "verdict": self.state.to_json(),
        }


@dataclass(frozen=True)
class LengthStatus:
    length: int
    status: str  # taut | not_taut | unknown
    claims: tuple[TautClaim, ...] = ()
    vacuous: bool = False  # NotTaut because no loops of this length exist

    def to_json(self) -> dict:
        return {
            "length": self.length,
            "status": self.status,
            "vacuous": self.vacuous,
            "claims": [c.to_json() for c in self.claims],
        }


@dataclass(frozen=True)
class Spectrum:
    statuses: tuple[LengthStatus, ...]
    horizon: int

    def lengths(self, status: str = TAUT) -> tuple[int, ...]:
        return tuple(s.length for s in self.statuses if s.status == status)

    def status_of(self, length: int) -> LengthStatus:
        for s in self.statuses:
            if s.length == length:
                return s
        raise KeyError(length)

    def to_length_set(self) -> "LengthSet":
        if any(s.status == UNKNOWN for s in self.statuses):
            first = min(s.length for s in self.statuses if s.status == UNKNOWN)
            return LengthSet.build(
                [l for l in self.lengths(TAUT) if l < first], horizon=first - 1
            )
        return LengthSet.build(self.lengths(TAUT), horizon=self.horizon)

    def to_json(self) -> dict:
        return {
            "horizon": self.horizon,
            "statuses": [s.to_json() for s in self.statuses],
        }

    def dumps(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True)

    def to_csv(self) -> str:
        lines = ["length,status,claims"]
        for s in self.statuses:
            lines.append(f"{s.length},{s.status},{len(s.claims)}")
        return "\n".join(lines) + "\n"


def _status_from_loops(
    gens, inverse_pairs, loop_words, length: int, budget: Budget
) -> LengthStatus:
    """Decide tautness of one length from a full list of trivial loop words."""
    shorter = [w for w in loop_words if len(w) < length]
    exact = [w for w in loop_words if len(w) == length]
    return _length_status(gens, inverse_pairs, shorter, exact, length, budget)


def _length_status(
    gens, inverse_pairs, shorter, exact, length: int, budget: Budget
) -> LengthStatus:
    """The one per-length rule: a length is taut when some loop of it stays
    nontrivial in the quotient by the shorter loops, and not taut when every
    loop of it is proved trivial there."""
    if not exact:
        return LengthStatus(length, NOT_TAUT, (), vacuous=True)
    pres = truncated_presentation(gens, shorter, length, inverse_pairs)
    engine = WordProblemEngine(pres, budget)
    claims = []
    statuses = set()
    for w in exact:
        state = engine.is_trivial(w)
        claims.append(TautClaim(w, pres, state))
        statuses.add(state.status)
        if state.status == REFUTED:
            break
    if REFUTED in statuses:
        return LengthStatus(length, TAUT, tuple(claims))
    if statuses == {PROVED}:
        return LengthStatus(length, NOT_TAUT, tuple(claims))
    return LengthStatus(length, UNKNOWN, ())


def taut_status(
    oracle, gens, l: int, budget: Budget | None = None, inverse_pairs=()
) -> LengthStatus:
    """Tautness of one length in the Cayley graph over an equality oracle."""
    if l < 3:
        raise ValueError("simplicial loops have length >= 3")
    budget = budget or Budget()
    radius = (l + 1) // 2 + 1
    ball = cayley.build_ball(oracle, gens, radius, budget)
    loops = cayley.closed_loops(ball, l, ball.center)
    if not loops.conclusive:
        raise cayley.OracleInsufficient("ball radius does not certify loop list")
    return _status_from_loops(gens, inverse_pairs, loops.words, l, budget)


def spectrum(
    oracle, gens, horizon: int, budget: Budget | None = None, inverse_pairs=()
) -> Spectrum:
    """Taut statuses for all lengths 3..horizon, sharing one ball."""
    budget = budget or Budget()
    radius = (horizon + 1) // 2 + 1
    ball = cayley.build_ball(oracle, gens, radius, budget)
    loops = cayley.closed_loops(ball, horizon, ball.center)
    if not loops.conclusive:
        raise cayley.OracleInsufficient("ball radius does not certify loop list")
    statuses = tuple(
        _status_from_loops(gens, inverse_pairs, loops.words, l, budget)
        for l in range(3, horizon + 1)
    )
    return Spectrum(statuses, horizon)


# ---------------------------------------------------------------------------
# Finite-graph entry point
# ---------------------------------------------------------------------------


def _graph_loop_cycles(graph: SimpleGraph, max_len: int):
    """Cyclically non-backtracking closed walks up to rotation and reversal."""
    nbrs = {v: sorted(graph.neighbors(v), key=graph.vertices.index) for v in graph.vertices}
    seen = set()
    out = []
    for length in range(3, max_len + 1):
        for base in graph.vertices:

            def extend(path):
                if len(path) - 1 == length:
                    if path[-1] == base and path[1] != path[-2]:
                        cycle = path[:-1]
                        key = cayley._cycle_key(cycle)
                        if key not in seen:
                            seen.add(key)
                            out.append(cycle)
                    return
                for nxt in nbrs[path[-1]]:
                    if len(path) > 1 and nxt == path[-2]:
                        continue
                    extend(path + (nxt,))

            extend((base,))
    return out


def spectrum_of_graph(
    graph: SimpleGraph, horizon: int, budget: Budget | None = None
) -> Spectrum:
    """Taut loop length spectrum of a finite simplicial graph.

    Loops from every basepoint are deduplicated up to rotation and reversal
    and rewritten through a spanning tree into words of the free fundamental
    group; the tree conjugation does not change normal closures or
    triviality.
    """
    budget = budget or Budget()
    complex_ = FlagComplex(graph.vertices, graph.edges)
    if not complex_.is_connected():
        raise ValueError("spectrum needs a connected graph")
    cycles = _graph_loop_cycles(graph, horizon)
    from .complexes import EdgeLoop, edge_symbol, spanning_tree

    tree = spanning_tree(complex_, complex_.vertices[0])
    chords = [e for e in graph.sorted_edges() if frozenset(e) not in tree]
    gens = [edge_symbol(u, v) for u, v in chords]
    pairs_with_len = [
        (len(c), loop_word(complex_, EdgeLoop(c))) for c in cycles
    ]
    statuses = tuple(
        _length_status(
            gens,
            (),
            [w for n, w in pairs_with_len if n < l],
            [w for n, w in pairs_with_len if n == l],
            l,
            budget,
        )
        for l in range(3, horizon + 1)
    )
    return Spectrum(statuses, horizon)


# ---------------------------------------------------------------------------
# k-relatedness
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LengthSet:
    """Sorted duplicate-free set of lengths, exactly known up to a horizon.

    horizon None means the set is known in full.
    """

    elements: tuple[int, ...]
    horizon: int | None = None

    @classmethod
    def build(cls, elements, horizon: int | None = None) -> "LengthSet":
        elems = tuple(sorted(set(int(e) for e in elements)))
        if any(e < 1 for e in elems):
            raise ValueError("lengths are positive naturals")
        if horizon is not None and elems and elems[-1] > horizon:
            raise ValueError("element beyond horizon")
        return cls(elems, horizon)

    def to_json(self) -> dict:
        return {"elements": list(self.elements), "horizon": self.horizon}


RELATED = "related"
NOT_RELATED = "not_related"
UNKNOWN_BEYOND_HORIZON = "unknown_beyond_horizon"


@dataclass(frozen=True)
class KRelatedness:
    status: str
    k: int
    threshold: int
    witness: int | None = None  # length with an empty companion window
    first_unverifiable: int | None = None

    def to_json(self) -> dict:
        return {
            "status": self.status,
            "k": self.k,
            "threshold": self.threshold,
            "witness": self.witness,
            "first_unverifiable": self.first_unverifiable,
        }


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def k_related(h1: LengthSet, h2: LengthSet, k: int) -> KRelatedness:
    """Bowditch's multiplicative closeness of two length sets.

    Above the threshold k^2 + 2k + 2, every element of one set must have a
    companion within multiplicative factor k in the other.  Exact on fully
    known sets; with horizons the answer degrades to
    UnknownBeyondHorizon(first unverifiable length).
    """
    if k < 1:
        raise ValueError("k >= 1 required")
    threshold = k * k + 2 * k + 2
    unverifiable: list[int] = []
    for own, other in ((h1, h2), (h2, h1)):
        for l in own.elements:
            if l < threshold:
                continue
            lo, hi = _ceil_div(l, k), l * k
            if any(lo <= lp <= hi for lp in other.elements):
                continue
            if other.horizon is not None and hi > other.horizon:
                unverifiable.append(l)
                continue
            return KRelatedness(NOT_RELATED, k, threshold, witness=l)
        if own.horizon is not None:
            # membership above the horizon is unknown
            unverifiable.append(max(threshold, own.horizon + 1))
    if unverifiable:
        return KRelatedness(
            UNKNOWN_BEYOND_HORIZON, k, threshold, first_unverifiable=min(unverifiable)
        )
    return KRelatedness(RELATED, k, threshold)
