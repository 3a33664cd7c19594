"""Square-root simplification by trial division, kept for the tests as the
reference that ``SqrtRational.simplified`` must match: it divides out d*d for
every d up to the square root of what is left of num*den.
"""

from __future__ import annotations

from fractions import Fraction


def simplified(sign: int, square: Fraction) -> tuple[Fraction, int]:
    """(coefficient, radicand) with squarefree integer radicand."""
    num, den = square.numerator, square.denominator
    inner = num * den  # sqrt(num/den) = sqrt(num*den)/den
    coeff = Fraction(sign, den)
    outer = 1
    d = 2
    while d * d <= inner:
        while inner % (d * d) == 0:
            inner //= d * d
            outer *= d
        d += 1
    return coeff * outer, inner
