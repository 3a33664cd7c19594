"""Words over symbolic generating sets.

A letter is a pair ``(symbol, exponent)`` with exponent +1 or -1; a word is a
tuple of letters.  The empty word is the identity.  Formal-inverse generator
pairs (two symbols declared mutually inverse) are normalised away before any
arithmetic: the lexicographically smaller symbol of a pair is kept and the
other is rewritten as its inverse.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence, Tuple

Letter = Tuple[str, int]
Word = Tuple[Letter, ...]

EMPTY: Word = ()


def word(letters: Iterable[Sequence]) -> Word:
    """Build a word from an iterable of (symbol, exponent) pairs, each exponent
    the integer 1 or -1; a float or boolean of that value is rejected."""
    out = []
    for sym, exp in letters:
        if type(exp) is not int or exp not in (1, -1):
            raise ValueError(f"exponent must be +-1, got {exp!r}")
        out.append((str(sym), exp))
    return tuple(out)


def invert(w: Word) -> Word:
    return tuple((s, -e) for s, e in reversed(w))


def pairing_map(inverse_pairs: Iterable[Sequence[str]]) -> dict[str, str]:
    """Each symbol of a formal-inverse pair mapped to its mate.  A symbol
    paired with itself, or in two pairs, is a ``ValueError``."""
    out: dict[str, str] = {}
    for a, b in inverse_pairs:
        if a == b or a in out or b in out:
            raise ValueError(f"malformed formal-inverse pair ({a!r},{b!r})")
        out[a] = b
        out[b] = a
    return out


def is_core(symbol: str, pairing: Mapping[str, str]) -> bool:
    """Whether a symbol is kept on the core alphabet: of a formal-inverse
    pair, the smaller symbol; an unpaired symbol always."""
    return pairing.get(symbol, symbol) >= symbol


def normalize(w: Word, pairing: Mapping[str, str] | None = None) -> Word:
    """Rewrite formally-inverse symbols onto their core mates."""
    if not pairing:
        return tuple(w)
    return tuple((s, e) if is_core(s, pairing) else (pairing[s], -e) for s, e in w)


def free_reduce(w: Word) -> Word:
    """Cancel adjacent x x^{-1} pairs until none remain."""
    out: list[Letter] = []
    for let in w:
        if out and out[-1][0] == let[0] and out[-1][1] == -let[1]:
            out.pop()
        else:
            out.append(let)
    return tuple(out)


def cyclic_reduce(w: Word) -> Word:
    w = free_reduce(w)
    while len(w) >= 2 and w[0][0] == w[-1][0] and w[0][1] == -w[-1][1]:
        w = free_reduce(w[1:-1])
    return w


def rotations(w: Word) -> list[Word]:
    return [w[i:] + w[:i] for i in range(max(len(w), 1))]


def canonical_cyclic(w: Word) -> Word:
    """Least rotation of the cyclically reduced word, over both orientations.

    Words that agree up to rotation and inversion share this canonical form,
    which is the deduplication key for relators and loops.
    """
    w = cyclic_reduce(w)
    if not w:
        return EMPTY
    # the least rotation begins with the least letter, so only those are built
    both = (w, invert(w))
    least = min(min(w), min(both[1]))
    return min(v[i:] + v[:i] for v in both for i, x in enumerate(v) if x == least)


def to_json(w: Word) -> list:
    return [[s, e] for s, e in w]


def json_list(data) -> list | tuple:
    """``data`` if it is a JSON array; a string is not read as its characters."""
    if not isinstance(data, (list, tuple)):
        raise TypeError(f"expected a list, got {type(data).__name__}")
    return data


def json_int(data) -> int:
    """``data`` if it is a JSON integer; a float, boolean or string is not."""
    if type(data) is not int:
        raise TypeError(f"expected an integer, got {type(data).__name__}")
    return data


def from_json(data: Iterable) -> Word:
    return word(json_list(data))


def format_word(w: Word) -> str:
    if not w:
        return "1"
    parts = []
    for s, e in w:
        parts.append(s if e == 1 else s + "^-1")
    return " ".join(parts)
