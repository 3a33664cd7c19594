"""Reference coding of words over a presentation's core alphabet, kept for
the tests.

``encode`` and ``decode`` are the earlier bodies of
``GroupPresentation.encode`` and ``GroupPresentation.decode``.  Each letter
is rewritten onto its core mate with ``words.normalize``, its symbol checked,
and coded as its exponent times the symbol's 1-based index; a code is read
back from its absolute value and sign.  The library looks each letter up in
one table per alphabet instead, and must give the same codes and words for
every word of generator letters.
"""

from __future__ import annotations

from tautloop import words
from tautloop.presentations import PresentationError, reduce_ints


def _core(pres):
    pairing = words.pairing_map(pres.inverse_pairs)
    core = tuple(g for g in pres.generators if words.is_core(g, pairing))
    return core, {g: i + 1 for i, g in enumerate(core)}, pairing


def encode(pres, w) -> tuple[int, ...]:
    _, index, pairing = _core(pres)
    out = []
    for sym, exp in words.normalize(w, pairing):
        if sym not in index:
            raise PresentationError(f"unknown generator {sym!r}")
        out.append(exp * index[sym])
    return reduce_ints(out)


def decode(pres, codes) -> tuple:
    core = _core(pres)[0]
    return tuple((core[abs(c) - 1], 1 if c > 0 else -1) for c in codes)
