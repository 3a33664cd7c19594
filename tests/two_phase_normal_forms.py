"""Two-phase reference for right-angled normal forms, kept for the tests.

Phase one piles letters left to right, cancelling whenever a matching letter
is reachable through commutations; this yields some reduced representative.
Phase two extracts the lexicographically least word of its commutation
class: repeatedly take the smallest letter all of whose predecessors commute
with it.  O(n^3) per word, and independent of the library's one-pass engine;
the letter conventions are those of ``TitsEngine`` and ``RaagEngine``.
"""

from __future__ import annotations

from typing import Iterable, Sequence


class TwoPhaseTits:
    """Canonical forms in the right-angled Coxeter group of a graph.

    Letters are vertex indices; every generator is an involution.
    """

    def __init__(self, vertices: Sequence[str], edges) -> None:
        self.vertices = tuple(vertices)
        self.index = {v: i for i, v in enumerate(self.vertices)}
        self.comm = [0] * len(self.vertices)
        for e in edges:
            u, v = tuple(e)
            i, j = self.index[u], self.index[v]
            self.comm[i] |= 1 << j
            self.comm[j] |= 1 << i

    def push(self, nf: list[int], v: int) -> None:
        comm_v = self.comm[v]
        i = len(nf) - 1
        while i >= 0:
            u = nf[i]
            if u == v:
                del nf[i]
                return
            if not (comm_v >> u) & 1:
                break
            i -= 1
        j = len(nf)
        while j > 0:
            u = nf[j - 1]
            if u != v and (comm_v >> u) & 1 and u > v:
                j -= 1
            else:
                break
        nf.insert(j, v)

    def _canonize(self, nf: list[int]) -> tuple[int, ...]:
        """Lexicographically least representative of the commutation class."""
        remaining = list(nf)
        out: list[int] = []
        while remaining:
            best = None
            for i, v in enumerate(remaining):
                if any(u == v or not (self.comm[u] >> v) & 1 for u in remaining[:i]):
                    continue
                if best is None or v < remaining[best]:
                    best = i
            out.append(remaining.pop(best))
        return tuple(out)

    def normal_form(self, letters: Iterable[int]) -> tuple[int, ...]:
        nf: list[int] = []
        for v in letters:
            self.push(nf, v)
        return self._canonize(nf)


class TwoPhaseRaag:
    """Canonical forms in the right-angled Artin group of a flag complex.

    Letters are signed 1-based vertex indices (sign is the exponent).
    """

    def __init__(self, vertices: Sequence[str], edges) -> None:
        self.vertices = tuple(vertices)
        self.index = {v: i + 1 for i, v in enumerate(self.vertices)}
        self.comm = [0] * (len(self.vertices) + 1)
        for e in edges:
            u, v = tuple(e)
            i, j = self.index[u], self.index[v]
            self.comm[i] |= 1 << j
            self.comm[j] |= 1 << i

    def push(self, nf: list[int], c: int) -> None:
        g = abs(c)
        comm_g = self.comm[g]
        i = len(nf) - 1
        while i >= 0:
            u = nf[i]
            if u == -c:
                del nf[i]
                return
            if abs(u) == g:
                break
            if not (comm_g >> abs(u)) & 1:
                break
            i -= 1
        j = len(nf)
        while j > 0:
            u = nf[j - 1]
            if abs(u) == g:
                break
            if (comm_g >> abs(u)) & 1 and abs(u) > g:
                j -= 1
            else:
                break
        nf.insert(j, c)

    def _canonize(self, nf: list[int]) -> tuple[int, ...]:
        """Lexicographically least representative of the commutation class."""
        remaining = list(nf)
        out: list[int] = []
        while remaining:
            best = None
            for i, c in enumerate(remaining):
                g = abs(c)
                if any(
                    abs(u) == g or not (self.comm[abs(u)] >> g) & 1
                    for u in remaining[:i]
                ):
                    continue
                if best is None or (g, c < 0) < (abs(remaining[best]), remaining[best] < 0):
                    best = i
            out.append(remaining.pop(best))
        return tuple(out)

    def normal_form(self, letters: Iterable[int]) -> tuple[int, ...]:
        nf: list[int] = []
        for c in letters:
            self.push(nf, c)
        return self._canonize(nf)
