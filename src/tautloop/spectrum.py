"""Taut loop length spectra and the k-relatedness comparison.

A loop of length l is taut when it stays nontrivial after every strictly
shorter loop has been filled in.  That is decided at the group level:
collect the trivial words shorter than l, present the quotient they normally
generate, and settle each length-l loop in it.  The presentation grows from
one length with loops to the next, by the loops in between.  Both a
Cayley-graph entry point (driven by an equality oracle) and a finite-graph
entry point are provided.  Both enumerate their loops with
``cayley.closed_walks``, one depth-first search per base that files the
closed walks of every length at once, over a neighbour map that also serves
the shortcut filter; both use one per-length rule.

Most loops are settled without the word-problem engine, by the splitting
argument behind Bowditch's taut loops.  If two vertices of a length-l loop
are closer in the graph than along either arc of the loop between them, the
loop w = A B C (B one arc) and a geodesic Q between the two vertices give
two loops Q B^-1 and A Q C, each shorter than l.  As w equals
A (Q B^-1)^-1 A^-1 times A Q C, it is trivial in the quotient, and the
certificate is a normal-closure derivation of two insertions: a rotation of
the first piece, which turns w into A Q C, then the inverse of the cyclic
reduction of A Q C.  Replay checks it like any other derivation.  Distances
in a finite ball are sound here, because the argument only needs some
shorter path.  Only isometrically embedded loops go to the engine, and the
Cayley-graph entry point builds only the metric ball of radius h/2 for the
horizon h, which holds its loops and their shortcuts.
"""

from __future__ import annotations

import functools
import json
from dataclasses import asdict, dataclass

from . import cayley, words
from .complexes import EdgeLoop, FlagComplex, SimpleGraph, chord_words, loop_word
from .presentations import (
    GroupPresentation,
    cyclic_reduce_ints,
    invert_ints,
    reduce_ints,
    truncated_presentation,
)
from .word_engine import (
    PROVED,
    REFUTED,
    UNKNOWN,
    Budget,
    NormalClosureDerivation,
    TriState,
    WordProblemEngine,
)
from .words import Word

TAUT = "taut"
NOT_TAUT = "not_taut"
REPORT_FORMAT = 2


@dataclass(frozen=True)
class TautClaim:
    """One oracle verdict feeding a length status, kept for replay."""

    word: Word
    presentation: GroupPresentation
    state: TriState

    def to_json(self) -> dict:
        """The word and verdict; the presentation is written by the length."""
        return {"word": words.to_json(self.word), "verdict": self.state.to_json()}


@dataclass(frozen=True)
class LengthStatus:
    """A length's status and its claims, which share one presentation."""

    length: int
    status: str  # taut | not_taut | unknown
    claims: tuple[TautClaim, ...] = ()

    @property
    def vacuous(self) -> bool:
        """Not taut because no loops of this length exist."""
        return not self.claims

    def to_json(self) -> dict:
        out = {
            "length": self.length,
            "status": self.status,
            "vacuous": self.vacuous,
            "claims": [c.to_json() for c in self.claims],
        }
        if self.claims:
            out["presentation"] = self.claims[0].presentation.to_json()
        return out


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
        """Report format 2: each length with claims writes its presentation once."""
        return {
            "format": REPORT_FORMAT,
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


def _shortcut_derivation(
    pres: GroupPresentation, coding, w: Word, cycle, shortcuts: cayley.Shortcuts
) -> NormalClosureDerivation | None:
    """Two insertions reducing a loop with a shortcut to the empty word.

    With the shortcut Q from vertex a to vertex b, the loop w = A B C
    (B the arc from a to b) splits into the pieces Q B^-1 and A Q C, both
    loops shorter than w, whose cyclic reductions are therefore relators of
    ``pres``.  The first step inserts a rotation of the first piece, or of
    its inverse, turning w into A Q C; the second writes A Q C as u c u^-1
    with c cyclically reduced and inserts c^-1 after u.  None when a piece
    is not a relator, so that the loop goes to the engine.  The search runs
    on signed-index codes; ``coding`` codes an edge word and decodes a
    variant of a relator.
    """
    encode, decode = coding
    cut = shortcuts.find(cycle, encode)
    if cut is None:
        return None
    head, arc, tail, q = cut
    state = reduce_ints(head + arc + tail)
    target = reduce_ints(head + q + tail)
    variants = pres.relator_variants()
    steps = []
    if state != target:
        # the cyclic reduction of Q B^-1 comes first: it is the insertion
        # when w, Q and B are freely reduced
        step = _first_insertion(state, target, cyclic_reduce_ints(q + invert_ints(arc)), variants)
        if step is None:
            return None
        steps.append((step[0], decode(step[1])))
    if target:
        core = cyclic_reduce_ints(target)
        closing = invert_ints(core)
        if closing not in variants:
            return None
        steps.append(((len(target) - len(core)) // 2, decode(closing)))
    return NormalClosureDerivation(w, tuple(steps))


def _first_insertion(state, target, piece, variants) -> tuple | None:
    """The first (position, variant) inserting a rotation of the piece, or
    of its inverse, that turns ``state`` into ``target``, trying rotations
    in order and each at every position in order."""
    for base in (piece, invert_ints(piece)):
        for i in range(len(base)):
            var = base[i:] + base[:i]
            if var in variants:
                for pos in range(len(state) + 1):
                    if reduce_ints(state[:pos] + var + state[pos:]) == target:
                        return pos, var
    return None


def _length_status(pres, coding, exact, length: int, budget: Budget, shortcuts) -> LengthStatus:
    """The one per-length rule: a length is taut when some loop of it stays
    nontrivial in the quotient ``pres`` by the shorter loops, and not taut
    when every loop of it is proved trivial there.

    ``exact`` holds (word, vertex cycle) pairs.  Given the ``shortcuts`` of
    the graph the cycles live in, a loop with a shortcut is proved by its
    splitting derivation; the engine, built on first need, decides the rest.
    An unknown length keeps the claims it made, undecided ones included."""
    engine = None
    claims = []
    for w, cycle in exact:
        proof = _shortcut_derivation(pres, coding, w, cycle, shortcuts)
        if proof is not None:
            state = TriState(PROVED, proof)
        else:
            if engine is None:
                engine = WordProblemEngine(pres, budget)
            state = engine.is_trivial(w)
        claims.append(TautClaim(w, pres, state))
        if state.status == REFUTED:
            break
    return LengthStatus(length, status_from_verdicts([c.state.status for c in claims]), tuple(claims))


def status_from_verdicts(verdicts) -> str:
    """A length's status from its claims' verdicts, in order: taut when only the
    last is refuted, not taut when every one is proved, as at a vacuous length."""
    if REFUTED in verdicts and verdicts.index(REFUTED) == len(verdicts) - 1:
        return TAUT
    if set(verdicts) <= {PROVED}:
        return NOT_TAUT
    return UNKNOWN


def _ball_statuses(oracle, gens, horizon: int, lengths, budget: Budget, inverse_pairs):
    """Statuses of the given lengths from the metric ball of radius h/2 for
    the horizon h: radius h//2, with the edges among its farthest vertices
    (its rim) only when h is odd.

    A closed walk of length n <= h through the centre stays within n/2 of it.
    A shortcut of it joins the vertices at positions i < j by a path of length
    d < j - i, and every point of every geodesic between them lies within
    (i + (n - j) + d)/2 < n/2, so within (n - 1)/2.  Ball distances are never
    shorter than the graph's, so any larger ball gives the same loops in the
    same order, the same first shortcuts and breadth-first geodesics, and so
    the same statuses and certificates."""
    ball = cayley.build_ball(oracle, gens, horizon // 2, _rim=horizon % 2 == 1)
    loops = cayley.closed_loops(ball, horizon, ball.center)
    shortcuts = cayley.Shortcuts(ball.neighbor_map(), horizon)
    pairs = _one_loop_per_cyclic_word(zip(loops.words, loops.vertex_cycles), inverse_pairs)
    return _statuses(gens, inverse_pairs, pairs, lengths, budget, shortcuts)


def _one_loop_per_cyclic_word(loops, inverse_pairs) -> list:
    """The first (word, vertex cycle) pair of each length and cyclic word on
    the core alphabet.  A cyclic word closes at a ball's centre once per
    rotation and orientation, neither of which changes whether it is trivial;
    a graph's closed walks are already one per cyclic word."""
    pairing = words.pairing_map(inverse_pairs)
    kept: dict[tuple[int, Word], tuple] = {}
    for w, c in loops:
        kept.setdefault((len(c), words.canonical_cyclic(words.normalize(w, pairing))), (w, c))
    return list(kept.values())


def _statuses(gens, inverse_pairs, loops, lengths, budget: Budget, shortcuts):
    """The per-length rule at each of the lengths, in increasing order, for
    loops given as (word, vertex cycle) pairs in order of the cycle's length.

    Each length's quotient is ``truncated_presentation`` of the shorter
    loops, grown rather than rebuilt: the presentation of a length with
    loops extends that of the last such length by the canonical forms of
    the loops in between, each loop put in that form once.  A loop's word
    is no longer than its cycle, so no form reaches the length.  Each word is
    filed once on the core alphabet, for the relators, claims and engine."""
    pairing = words.pairing_map(inverse_pairs)
    filed: dict[int, list] = {}
    for w, c in loops:
        filed.setdefault(len(c), []).append((words.normalize(w, pairing), c))
    pres = truncated_presentation(gens, (), 0, inverse_pairs)  # no loops filled in yet
    # codes and words are the same in every grown presentation as with the
    # pairs: each edge word is coded once, and each variant decoded once
    alphabet = GroupPresentation.build(gens, (), inverse_pairs)
    coding = functools.cache(alphabet.encode), functools.cache(alphabet.decode)
    seen: set[Word] = set()
    done = 0  # the loops shorter than this are relators of ``pres``
    out = []
    for l in lengths:
        if l not in filed:
            out.append(LengthStatus(l, NOT_TAUT))
            continue
        forms = (words.canonical_cyclic(w) for n in range(done, l) for w, _ in filed.get(n, ()))
        new = [r for r in dict.fromkeys(forms) if r and r not in seen]
        seen.update(new)
        pres, done = pres.extended(new), l
        out.append(_length_status(pres, coding, filed[l], l, budget, shortcuts))
    return tuple(out)


def taut_status(
    oracle, gens, l: int, budget: Budget | None = None, inverse_pairs=()
) -> LengthStatus:
    """Tautness of one length in the Cayley graph over an equality oracle."""
    if l < 3:
        raise ValueError("simplicial loops have length >= 3")
    return _ball_statuses(oracle, gens, l, [l], budget or Budget(), inverse_pairs)[0]


def spectrum(
    oracle, gens, horizon: int, budget: Budget | None = None, inverse_pairs=()
) -> Spectrum:
    """Taut statuses for all lengths 3..horizon, sharing one ball."""
    if horizon < 0:
        raise ValueError(f"horizon must be nonnegative, got {horizon}")
    budget = budget or Budget()
    statuses = _ball_statuses(oracle, gens, horizon, range(3, horizon + 1), budget, inverse_pairs)
    return Spectrum(statuses, horizon)


# ---------------------------------------------------------------------------
# Finite-graph entry point
# ---------------------------------------------------------------------------


def spectrum_of_graph(
    graph: SimpleGraph, horizon: int, budget: Budget | None = None
) -> Spectrum:
    """Taut loop length spectrum of a finite simplicial graph.

    Loops from every basepoint are deduplicated up to rotation and reversal
    and rewritten through a spanning tree into words of the free fundamental
    group; the tree conjugation does not change normal closures or
    triviality.  The loop enumeration and the shortcut filter share one
    neighbour map, whose edges read their ``chord_words``; ``sorted_edges``
    keeps each vertex's neighbours in vertex order.
    """
    if horizon < 0:
        raise ValueError(f"horizon must be nonnegative, got {horizon}")
    budget = budget or Budget()
    complex_ = FlagComplex(graph.vertices, graph.edges)
    if not complex_.vertices or not complex_.is_connected():
        raise ValueError("spectrum needs a connected graph")
    chords = chord_words(complex_, complex_.vertices[0])
    nbrs = {v: [] for v in graph.vertices}
    for u, v in graph.sorted_edges():
        nbrs[u].append((v, chords[u, v]))
        nbrs[v].append((u, chords[v, u]))
    gens = [sym for u, v in graph.sorted_edges() for sym, _ in chords[u, v]]
    shortcuts = cayley.Shortcuts(nbrs, horizon)
    loops = [
        (loop_word(complex_, EdgeLoop(c)), c)
        for c, _ in cayley.closed_walks(nbrs, horizon, graph.vertices)
    ]
    return Spectrum(_statuses(gens, (), loops, range(3, horizon + 1), budget, shortcuts), horizon)


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
        return asdict(self)


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
