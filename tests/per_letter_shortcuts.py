"""Reference shortcut proofs on symbol letters, kept for the tests.

``shortcut_derivation`` is the earlier body of the library's
``_shortcut_derivation``.  Its finder, ``LetterShortcuts``, gives the first
shortcut with its geodesic as a word and reads a walk's edge words from
per-vertex tables; every letter of the walk and the geodesic is then mapped
to its signed index, and every inserted variant is decoded anew.  Under
``per_letter()`` the library proves its loops this way, so its spectra must
equal those it gives without, byte for byte.
"""

from __future__ import annotations

import contextlib
import sys
from unittest import mock

from tautloop import words
from tautloop.complexes import bfs
from tautloop.presentations import cyclic_reduce_ints, invert_ints, reduce_ints, truncated_presentation
from tautloop.word_engine import NormalClosureDerivation

spectrum_mod = sys.modules["tautloop.spectrum"]


class LetterShortcuts:
    """The first shortcut of a closed vertex walk, over a neighbour map whose
    searches reach ``depth``."""

    def __init__(self, nbrs, depth: int):
        self.nbrs = nbrs
        self.depth = depth
        self._searches: dict = {}
        self._words: dict = {}

    def letters(self, cycle) -> list:
        """The word of each edge of a closed walk, in order."""
        return [
            (self._words.get(u) or self._words.setdefault(u, dict(self.nbrs[u])))[v]
            for u, v in zip(cycle, cycle[1:] + cycle[:1])
        ]

    def _search(self, root) -> dict:
        found = self._searches.get(root)
        if found is None:
            found = self._searches[root] = bfs(self.nbrs, root, self.depth)
        return found

    def find(self, cycle):
        """(a, b, word of a geodesic from vertex a to vertex b) of the first
        shortcut, in order of a then b; None when the walk is isometric."""
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
                return a, b, tuple(x for letter in reversed(path) for x in letter)
        return None


def shortcut_derivation(pres, codes: dict, w, cycle, shortcuts: LetterShortcuts):
    """The two insertions of the splitting argument, searched for as the
    library does; ``codes`` maps each letter to its signed index."""
    cut = shortcuts.find(cycle)
    if cut is None:
        return None
    a, b, q = cut
    edges = shortcuts.letters(cycle)
    head, arc, tail = (
        [codes[x] for e in part for x in e] for part in (edges[:a], edges[a:b], edges[b:])
    )
    q = [codes[x] for x in q]
    state = reduce_ints(head + arc + tail)
    target = reduce_ints(head + q + tail)
    variants = pres.relator_variants()
    steps = []
    if state != target:
        piece = cyclic_reduce_ints(q + [-c for c in reversed(arc)])
        candidates = (
            (pos, var)
            for base in (piece, invert_ints(piece))
            for var in (base[i:] + base[:i] for i in range(len(base)))
            if var in variants
            for pos in range(len(state) + 1)
        )
        step = next(
            (c for c in candidates if reduce_ints(state[: c[0]] + c[1] + state[c[0] :]) == target),
            None,
        )
        if step is None:
            return None
        steps.append(step)
    if target:
        core = cyclic_reduce_ints(target)
        closing = invert_ints(core)
        if closing not in variants:
            return None
        steps.append(((len(target) - len(core)) // 2, closing))
    return NormalClosureDerivation(tuple(w), tuple((pos, pres.decode(v)) for pos, v in steps))


@contextlib.contextmanager
def per_letter():
    """Run the library's entry points with every shortcut proof made by
    ``shortcut_derivation``, over a finder and a letter table built, as the
    library built them, once per call of its per-length rule."""
    statuses = spectrum_mod._statuses
    kept = {}

    def letter_statuses(gens, inverse_pairs, loops, lengths, budget, shortcuts):
        pairing = words.pairing_map(inverse_pairs)
        pres = truncated_presentation(gens, (), 0, inverse_pairs)
        kept["codes"] = {
            (g, e): pres.encode(words.normalize(((g, e),), pairing))[0] for g in gens for e in (1, -1)
        }
        kept["finder"] = LetterShortcuts(shortcuts.nbrs, shortcuts.depth)
        return statuses(gens, inverse_pairs, loops, lengths, budget, shortcuts)

    def derivation(pres, _coding, w, cycle, _shortcuts):
        return shortcut_derivation(pres, kept["codes"], w, cycle, kept["finder"])

    with mock.patch.object(spectrum_mod, "_statuses", letter_statuses), mock.patch.object(
        spectrum_mod, "_shortcut_derivation", derivation
    ):
        yield
