"""Test-only Dehn algorithm for one fixed C'(1/6) presentation.

The presentation is <a, b, c | a a b a b^-1 a c c>: a cyclically reduced
length-8 relator whose 16 cyclic 2-letter subwords (over the relator and its
inverse) are pairwise distinct, so every piece has length 1 < 8/6.  Two
generators cannot carry such a relator: 16 distinct reduced 2-letter words
are needed but only 12 exist, so three generators is minimal.

Greendlinger's lemma then gives a correct and terminating word-problem
algorithm: any nonempty freely reduced word representing the identity
contains more than half of some cyclic conjugate of the relator or its
inverse; replacing that subword by the inverse of the complement strictly
shortens the word.
"""

from tautloop.presentations import invert_ints, reduce_ints
from tautloop.words import word

SYMBOLS = ("a", "b", "c")
RELATOR = (1, 1, 2, 1, -2, 1, 3, 3)

_VARIANTS = []
for _base in (RELATOR, invert_ints(RELATOR)):
    for _i in range(len(RELATOR)):
        _VARIANTS.append(_base[_i:] + _base[:_i])
_BY_FIRST: dict[int, list[tuple[int, ...]]] = {}
for _v in _VARIANTS:
    _BY_FIRST.setdefault(_v[0], []).append(_v)

# Three permutation quotients of the group, of degrees 3, 4 and 5: the images
# of a, b and c as permutations of 0..n-1.  The relator maps to the identity
# in each (asserted below), so equal words have equal images.
QUOTIENTS = (
    ((0, 2, 1), (2, 1, 0), (2, 0, 1)),
    ((2, 0, 1, 3), (3, 2, 0, 1), (3, 0, 2, 1)),
    ((2, 3, 4, 0, 1), (3, 1, 4, 2, 0), (0, 3, 2, 1, 4)),
)


def _code_table(perms) -> dict[int, tuple[int, ...]]:
    table = {}
    for i, p in enumerate(perms, 1):
        table[i] = tuple(p)
        table[-i] = tuple(sorted(range(len(p)), key=p.__getitem__))  # p^-1
    return table


def permutation_image(codes, table) -> tuple[int, ...]:
    """The permutation a code word maps to, letters applied left to right."""
    state = tuple(range(len(table[1])))
    for c in codes:
        p = table[c]
        state = tuple(p[x] for x in state)
    return state


_QUOTIENT_TABLES = [_code_table(perms) for perms in QUOTIENTS]
for _table in _QUOTIENT_TABLES:
    assert permutation_image(RELATOR, _table) == tuple(range(len(_table[1])))


def piece_lengths(relator) -> set[int]:
    """Lengths of repeated cyclic subwords; C'(1/6) at length 8 needs max 1."""
    variants = []
    for base in (tuple(relator), invert_ints(relator)):
        for i in range(len(base)):
            variants.append(base[i:] + base[:i])
    out = set()
    for t in range(2, len(relator)):
        prefixes = [v[:t] for v in variants]
        if len(set(prefixes)) < len(prefixes):
            out.add(t)
    return out


def encode(w) -> tuple[int, ...]:
    return reduce_ints(
        [exp * (SYMBOLS.index(sym) + 1) for sym, exp in word(w)]
    )


def dehn_trivial(codes) -> bool:
    """True iff the word is the identity; terminates by strict shortening."""
    w = reduce_ints(codes)
    while w:
        hit = None
        for i in range(len(w)):
            for v in _BY_FIRST.get(w[i], ()):
                t = 1
                while t < len(v) and i + t < len(w) and w[i + t] == v[t]:
                    t += 1
                if 2 * t > len(v):
                    hit = (i, t, v)
                    break
            if hit:
                break
        if hit is None:
            return False
        i, t, v = hit
        w = reduce_ints(w[:i] + invert_ints(v[t:]) + w[i + t:])
    return True


def words_equal(u, v) -> bool:
    return dehn_trivial(encode(u) + invert_ints(encode(v)))


class SmallCancellationOracle:
    """Equality oracle for the fixed C'(1/6) group, usable by build_ball.

    Keys are representative code tuples; candidate representatives are
    bucketed by the image in Z^3 / <(4, 0, 2)> (the relator's exponent
    vector) and in the three ``QUOTIENTS`` so the quadratic pairwise
    comparison stays local.  Equal words share a bucket, and Dehn's
    algorithm alone decides equality within it.
    """

    tag = "c16(aabab^-1acc)"

    def __init__(self):
        self._memo: dict[tuple[int, ...], tuple[int, ...]] = {}
        self._buckets: dict[tuple, list[tuple[int, ...]]] = {}

    @staticmethod
    def _coset_key(codes) -> tuple:
        x = sum(1 if c == 1 else -1 if c == -1 else 0 for c in codes)
        y = sum(1 if c == 2 else -1 if c == -2 else 0 for c in codes)
        z = sum(1 if c == 3 else -1 if c == -3 else 0 for c in codes)
        images = tuple(permutation_image(codes, t) for t in _QUOTIENT_TABLES)
        return (x - 2 * z, y, z % 2) + images

    def normal_form(self, w, start=()):
        codes = reduce_ints(start + encode(w))
        known = self._memo.get(codes)
        if known is not None:
            return known
        bucket = self._buckets.setdefault(self._coset_key(codes), [])
        for rep in bucket:
            if dehn_trivial(codes + invert_ints(rep)):
                self._memo[codes] = rep
                return rep
        bucket.append(codes)
        self._memo[codes] = codes
        return codes
