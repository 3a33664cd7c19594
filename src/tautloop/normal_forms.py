"""Exact, always-terminating word-problem engines for right-angled groups.

One engine serves right-angled Artin and Coxeter groups; in the Coxeter case
every letter is its own inverse.  It keeps the lexicographically least word
of the commutation class (the lexicographic normal form of the trace monoid,
Cartier-Foata 1969) one letter at a time.  Appending a letter c:

- cancel: scan left from the end across letters that commute with c; if the
  first letter that does not is c's inverse, delete it (it commuted with
  everything after it, so the rest stays lexicographically least).
- insert: otherwise c may sit anywhere after that letter; put it before the
  first later letter of a larger generator.  Those later letters commute
  with c, so none shares its generator and the sign never decides.

Two words are equal in the group iff their normal forms coincide.  Appending
costs O(n), a whole word O(n^2).
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .words import Word, word


class NormalFormError(ValueError):
    pass


class RightAngledEngine:
    """Lexicographic normal forms in a right-angled Artin or Coxeter group.

    A letter is an int whose absolute value indexes a generator; ``first``
    is the index of the first vertex.  Involutive letters are their own
    inverses, otherwise the inverse of c is -c.
    """

    involutive = False
    first = 1

    def __init__(self, vertices: Sequence[str], edges) -> None:
        self.vertices = tuple(vertices)
        self.index = {v: i + self.first for i, v in enumerate(self.vertices)}
        adjacent: dict[int, set[int]] = {g: set() for g in self.index.values()}
        for e in edges:
            u, v = tuple(e)
            i, j = self.index[u], self.index[v]
            adjacent[i].add(j)
            adjacent[j].add(i)
        letters = list(self.index.values())
        if not self.involutive:
            letters += [-c for c in letters]
        self._inverse = {c: c if self.involutive else -c for c in letters}
        # the letters that c cannot move past: its own generator's and those
        # of the generators it does not commute with
        self._blockers = {
            c: frozenset(u for u in letters if abs(u) not in adjacent[abs(c)])
            for c in letters
        }

    def normal_form(self, letters: Iterable[int]) -> tuple[int, ...]:
        inverse, blockers = self._inverse, self._blockers
        nf: list[int] = []
        for c in letters:
            block = blockers[c]
            i = len(nf)
            while i and nf[i - 1] not in block:
                i -= 1
            if i and nf[i - 1] == inverse[c]:
                del nf[i - 1]
                continue
            g, n = abs(c), len(nf)
            while i < n and abs(nf[i]) < g:
                i += 1
            nf.insert(i, c)
        return tuple(nf)


class TitsEngine(RightAngledEngine):
    """Canonical forms in the right-angled Coxeter group of a graph.

    Letters are 0-based vertex indices; every generator is an involution.
    """

    involutive = True
    first = 0

    def encode(self, w: Sequence[str]) -> list[int]:
        try:
            return [self.index[s] for s in w]
        except KeyError as exc:
            raise NormalFormError(f"unknown vertex symbol {exc.args[0]!r}") from None

    def decode(self, letters: Iterable[int]) -> tuple[str, ...]:
        return tuple(self.vertices[i] for i in letters)


class RaagEngine(RightAngledEngine):
    """Canonical forms in the right-angled Artin group of a flag complex.

    Letters are signed 1-based vertex indices (sign is the exponent).
    """

    def encode(self, w: Word) -> list[int]:
        out = []
        for sym, exp in w:
            if sym not in self.index:
                raise NormalFormError(f"unknown vertex symbol {sym!r}")
            out.append(exp * self.index[sym])
        return out

    def decode(self, letters: Iterable[int]) -> Word:
        return tuple(
            (self.vertices[abs(c) - 1], 1 if c > 0 else -1) for c in letters
        )


def tits_reduce(graph, w: Sequence[str]) -> tuple[str, ...]:
    """Canonical Coxeter normal form of a word given as vertex symbols."""
    eng = TitsEngine(graph.vertices, graph.edges)
    return eng.decode(eng.normal_form(eng.encode(tuple(w))))


def raag_normal_form(complex_, w: Word) -> Word:
    """Canonical Artin normal form of a (vertex, exponent) word."""
    eng = RaagEngine(complex_.vertices, complex_.edges)
    return eng.decode(eng.normal_form(eng.encode(word(w))))


class BBMap:
    """``bb_image`` with one engine and one table from (edge symbol, exponent)
    to letter pair for every call."""

    def __init__(self, complex_) -> None:
        self.engine = RaagEngine(complex_.vertices, complex_.edges)
        index = self.engine.index
        self.letters: dict[tuple[str, int], tuple[int, int]] = {}
        for e in complex_.edges:
            for x, y in (tuple(e), tuple(e)[::-1]):
                sym = f"e:{x}:{y}"
                if sym.count(":") == 2:  # otherwise the symbol names no edge
                    self.letters[sym, 1] = (index[x], -index[y])
                    self.letters[sym, -1] = (index[y], -index[x])

    def normal_form(self, w: Word) -> tuple[int, ...]:
        """Normal form of the image, as engine letters."""
        letters: list[int] = []
        try:
            for sym, exp in w:
                letters += self.letters[sym, exp]
        except KeyError:
            raise NormalFormError(f"unknown edge letter {(sym, exp)!r}") from None
        return self.engine.normal_form(letters)

    def image(self, w: Word) -> Word:
        return self.engine.decode(self.normal_form(w))


def bb_image(complex_, w: Word) -> Word:
    """Image of a directed-edge word in the Artin group: the edge from x to y
    maps to x y^-1.  A nontrivial image certifies nontriviality of the word in
    every G_L(S)."""
    return BBMap(complex_).image(w)


def retract(graph, subgraph, w: Sequence[str]) -> tuple[str, ...]:
    """Retraction of a Coxeter word onto a full subgraph: letters outside the
    subgraph map to the identity, the rest reduce in the smaller group."""
    if not subgraph.is_induced_subgraph_of(graph):
        raise NormalFormError("subgraph must be a full (induced) subgraph")
    keep = set(subgraph.vertices)
    for s in w:
        if s not in set(graph.vertices):
            raise NormalFormError(f"unknown vertex symbol {s!r}")
    return tits_reduce(subgraph, tuple(s for s in w if s in keep))
