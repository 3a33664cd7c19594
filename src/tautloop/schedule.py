"""Closed-form constants, interval schedules and obstruction arithmetic.

Everything here is exact: quantities of the form (rational) * sqrt(rational)
are represented by their sign and square, compared by squaring, and never
converted to floating point.  Big integers such as C^(2^n) stay exact.
"""

from __future__ import annotations

import functools
import json
import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable


class ScheduleError(ValueError):
    pass


def check_index(n: int, C: int | None = None) -> None:
    """The one rule for an index n of the schedule: a natural, at most 32 so
    that C^(2^n) can be materialised exactly, and, given C, small enough that
    the least value reported for it, C^(2^n - 1), prints under the
    interpreter's limit on digits.  That power is squared up from n = 0 and
    given up as soon as it passes the limit."""
    if n < 0:
        raise ScheduleError("indices are naturals")
    if n > 32:
        raise ScheduleError("index too large for exact materialization")
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if C is None or not limit:
        return
    value, bound = 1, 10**limit
    for _ in range(n):
        value = value * value * C
        if value >= bound:
            raise ScheduleError(f"index {n} gives values of more than {limit} digits")


@functools.total_ordering
@dataclass(frozen=True)
class SqrtRational:
    """The real number sign * sqrt(square), square a nonnegative rational."""

    sign: int
    square: Fraction
    _factors: tuple = field(default=(), compare=False, repr=False)  # of a product
    _simple: tuple = field(default=(), compare=False, repr=False)  # simplified(), once found

    @classmethod
    def of_ratio(cls, p, q=1) -> "SqrtRational":
        """The rational number p/q itself."""
        val = Fraction(p, q)
        sign = (val > 0) - (val < 0)
        return cls(sign, val * val)

    @classmethod
    def sqrt_of(cls, p, q=1) -> "SqrtRational":
        val = Fraction(p, q)
        if val < 0:
            raise ScheduleError("square root of a negative rational")
        return cls(1 if val else 0, val)

    def __mul__(self, other: "SqrtRational") -> "SqrtRational":
        return SqrtRational(self.sign * other.sign, self.square * other.square, (self, other))

    def scale(self, r) -> "SqrtRational":
        return self * SqrtRational.of_ratio(r)

    def __abs__(self) -> "SqrtRational":
        return SqrtRational(abs(self.sign), self.square, self._factors)

    def __lt__(self, other: "SqrtRational") -> bool:
        # sqrt is increasing, so sign * square orders the values
        return self.sign * self.square < other.sign * other.square

    def is_rational(self) -> bool:
        num, den = self.square.numerator, self.square.denominator
        return math.isqrt(num) ** 2 == num and math.isqrt(den) ** 2 == den

    def floor(self) -> int:
        """Greatest integer <= self, exact: for q > 0, floor(sqrt q) =
        isqrt(floor(q)) and ceil(sqrt q) = isqrt(ceil(q) - 1) + 1."""
        if self.sign < 0:
            return -math.isqrt(math.ceil(self.square) - 1) - 1
        return math.isqrt(math.floor(self.square)) if self.sign else 0

    def ceil(self) -> int:
        """Least integer >= self: ceil(x) = -floor(-x)."""
        return -SqrtRational(-self.sign, self.square).floor()

    def simplified(self) -> tuple[Fraction, int]:
        """(coefficient, radicand) with squarefree radicand m, the least for
        which num*den/m is a square, found once and kept.  A product's m is
        ab/gcd(a, b)^2 for its factors' a and b, so it is not searched for."""
        num, den = self.square.numerator, self.square.denominator
        if not num:
            return Fraction(0), 0
        if not self._simple:
            if self._factors:
                a, b = (factor.simplified()[1] for factor in self._factors)
                k = a * b // math.gcd(a, b) ** 2
            else:
                k = squarefree_part(num * den)
            object.__setattr__(self, "_simple", (Fraction(self.sign * math.isqrt(num * den // k), den), k))
        return self._simple

    def __str__(self) -> str:
        coeff, rad = self.simplified()
        if rad == 1 or coeff == 0:
            return str(coeff)
        if coeff == 1:
            return f"sqrt({rad})"
        return f"{coeff}*sqrt({rad})"

    def to_json(self) -> dict:
        return {
            "sign": self.sign,
            "square": f"{self.square.numerator}/{self.square.denominator}",
            "display": str(self),
        }


def squarefree_part(n: int) -> int:
    """The least m for which the positive integer n/m is a square.  One
    counter k tries k as m and strips k^2 from n; the first to finish gives m,
    so neither a large radicand nor a large square factor alone makes the
    loop long."""
    k, rest = 1, n
    while n % k or math.isqrt(n // k) ** 2 != n // k:
        k += 1
        while rest % (k * k) == 0:
            rest //= k * k
        if k * k > rest:  # no square d^2 > 1 divides rest, as d < k was stripped
            return rest
    return k


def alpha_of(d: int) -> SqrtRational:
    """sqrt(2/(d+1)) for a complex of dimension d."""
    if d < 1:
        raise ScheduleError("dimension must be >= 1")
    return SqrtRational.sqrt_of(2, d + 1)


def beta_of(complex_, omega) -> int:
    """Maximum loop length over the chosen normally generating set."""
    omega.validate(complex_)
    if not omega.loops:
        raise ScheduleError("empty loop set has no maximum length")
    return max(len(lp) for lp in omega.loops)


@dataclass(frozen=True)
class Constants:
    d: int
    beta: int
    C: int

    @functools.cached_property
    def alpha(self) -> SqrtRational:
        return alpha_of(self.d)

    def __post_init__(self) -> None:
        if self.beta < 1 or self.C < 1:
            raise ScheduleError("beta and C must be positive")
        if not SqrtRational.of_ratio(self.C) * self.alpha > SqrtRational.of_ratio(max(self.beta, 3)):
            raise ScheduleError("need C*alpha > max(beta, 3)")

    def to_json(self) -> dict:
        return {
            "d": self.d,
            "alpha": self.alpha.to_json(),
            "beta": self.beta,
            "C": str(self.C),
        }


def choose_C(d: int, beta: int) -> int:
    """Least integer with C*alpha > max(beta, 3), the bound that ``Constants``
    checks, by exact squaring."""
    if d < 1:
        raise ScheduleError("dimension must be >= 1")
    bound = max(beta, 3)
    # least C with C > bound/alpha = bound * sqrt((d+1)/2)
    target = SqrtRational.of_ratio(bound) * SqrtRational.sqrt_of(d + 1, 2)
    return target.floor() + 1


def S_of_F(C: int, F: Iterable[int]) -> tuple[int, ...]:
    """{0} together with C^(2^n) for n in the finite index set F."""
    out = {0}
    for n in sorted(set(int(n) for n in F)):
        check_index(n)
        out.add(C ** (2 ** n))
    return tuple(sorted(out))


def m_of(S: Iterable[int]) -> int:
    """Minimum absolute value of a non-empty set of integers."""
    vals = [abs(int(x)) for x in S]
    if not vals:
        raise ScheduleError("m is undefined on the empty set")
    return min(vals)


def height_distance(d: int, n: int) -> SqrtRational:
    """Distance from the 0-level set to a vertex of height n: |n|/sqrt(d+1)."""
    return SqrtRational.sqrt_of(n * n, d + 1)


def kernel_length_lower_bound(d: int, S: Iterable[int], T: Iterable[int]) -> SqrtRational:
    """Shortest possible kernel element length: m(T-S) * sqrt(2/(d+1))."""
    s_set, t_set = set(S), set(T)
    if not s_set <= t_set:
        raise ScheduleError("need S contained in T")
    diff = t_set - s_set
    if not diff:
        raise ScheduleError("T - S is empty")
    return alpha_of(d).scale(m_of(diff))


@dataclass(frozen=True)
class Interval:
    n: int
    lower: SqrtRational  # alpha * C^(2^n)
    lower_ceil: int
    upper: int  # beta * C^(2^n)

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "lower": self.lower.to_json(),
            "lower_ceil": str(self.lower_ceil),
            "upper": str(self.upper),
        }


@dataclass(frozen=True)
class IntervalSchedule:
    """The containment superset {3} u Union_n [alpha C^(2^n), beta C^(2^n)].

    {3} always belongs to the superset; whether 3 actually lies in the
    spectrum is a separate dimension criterion (it does iff d >= 2), recorded
    in three_in_spectrum.
    """

    constants: Constants
    intervals: tuple[Interval, ...]
    three_in_spectrum: bool
    disjointness_checked: bool

    def to_json(self) -> dict:
        return {
            "constants": self.constants.to_json(),
            "base": [3],
            "three_in_spectrum": self.three_in_spectrum,
            "intervals": [iv.to_json() for iv in self.intervals],
            "disjointness_checked": self.disjointness_checked,
        }

    def dumps(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True)


def predicted_intervals(constants: Constants, n_max: int) -> IntervalSchedule:
    """Intervals for n = 0..n_max with an exact disjointness certificate."""
    check_index(n_max)
    alpha = constants.alpha
    intervals = []
    for n in range(n_max + 1):
        power = constants.C ** (2 ** n)
        lower = alpha.scale(power)
        intervals.append(Interval(n, lower, lower.ceil(), constants.beta * power))
    for prev, nxt in zip(intervals, intervals[1:]):
        if not (SqrtRational.of_ratio(prev.upper) < nxt.lower):
            raise ScheduleError(f"intervals {prev.n} and {nxt.n} overlap")
    return IntervalSchedule(constants, tuple(intervals), constants.d >= 2, True)


def qi_obstruction(F: Iterable[int], Fprime: Iterable[int], C: int) -> dict[int, int]:
    """For each n in the symmetric difference, the threshold C^(2^n - 1) that
    any quasi-isometry constant k must exceed."""
    sym = set(int(n) for n in F) ^ set(int(n) for n in Fprime)
    out = {}
    for n in sorted(sym):
        check_index(n)
        out[n] = C ** (2 ** n - 1)
    return out


def schedule_report(constants: Constants, n_max: int, F=(), Fprime=()) -> dict:
    """JSON-ready report with all big integers as decimal strings."""
    sched = predicted_intervals(constants, n_max)
    report = sched.to_json()
    if F or Fprime:
        report["qi_obstruction"] = {
            str(n): str(v) for n, v in qi_obstruction(F, Fprime, constants.C).items()
        }
        report["S_of_F"] = [str(x) for x in S_of_F(constants.C, F)]
    return report
