import json
import random
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tautloop import cli, schedule
from tautloop.complexes import EdgeLoop, OmegaSet, SimpleGraph, flag_completion
from tautloop.schedule import (
    Constants,
    ScheduleError,
    SqrtRational,
    S_of_F,
    alpha_of,
    beta_of,
    check_index,
    choose_C,
    height_distance,
    kernel_length_lower_bound,
    m_of,
    predicted_intervals,
    qi_obstruction,
    schedule_report,
)

import trial_division_sqrt


def rat(p, q=1):
    return SqrtRational.of_ratio(p, q)


def test_sqrt_rational_construction_and_equality():
    assert rat(3) == SqrtRational.sqrt_of(9)
    assert rat(0).sign == 0
    assert rat(-2).sign == -1
    with pytest.raises(ScheduleError):
        SqrtRational.sqrt_of(-1)


def test_sqrt_rational_comparisons():
    root2 = SqrtRational.sqrt_of(2)
    assert rat(1) < root2 < rat(3, 2)
    assert rat(-2) < rat(0) < rat(1)
    assert rat(-3) < rat(-2)
    assert root2 <= root2 and root2 >= root2
    assert abs(rat(-2)) == rat(2)


def test_sqrt_rational_arithmetic():
    assert SqrtRational.sqrt_of(2) * SqrtRational.sqrt_of(8) == rat(4)
    assert rat(-2) * rat(-3) == rat(6)
    assert SqrtRational.sqrt_of(2).scale(-3) == SqrtRational(-1, Fraction(18))


def test_sqrt_rational_ceil_floor():
    root2 = SqrtRational.sqrt_of(2)
    assert root2.ceil() == 2 and root2.floor() == 1
    assert rat(5).ceil() == 5 and rat(5).floor() == 5
    assert rat(-7, 2).ceil() == -3 and rat(-7, 2).floor() == -4
    assert rat(0).ceil() == 0 and rat(0).floor() == 0


def test_sqrt_rational_simplified_and_str():
    assert SqrtRational.sqrt_of(8).simplified() == (Fraction(2), 2)
    assert SqrtRational.sqrt_of(9, 4).simplified() == (Fraction(3, 2), 1)
    assert str(SqrtRational.sqrt_of(2)) == "sqrt(2)"
    assert str(SqrtRational.sqrt_of(8)) == "2*sqrt(2)"
    assert str(rat(3, 2)) == "3/2"
    assert str(rat(0)) == "0"
    assert SqrtRational.sqrt_of(2).is_rational() is False
    assert SqrtRational.sqrt_of(9, 4).is_rational() is True
    data = SqrtRational.sqrt_of(2).to_json()
    assert data == {"sign": 1, "square": "2/1", "display": "sqrt(2)"}


def test_simplified_equals_trial_division_on_seeded_values():
    """Products of small square roots and of rationals with large factors,
    against the trial-division reference, zero included."""
    rng = random.Random(1805)
    for _ in range(400):
        x = SqrtRational.sqrt_of(rng.randrange(0, 60), rng.randrange(1, 60))
        x = x * SqrtRational.sqrt_of(rng.randrange(1, 30), rng.randrange(1, 30))
        x = x.scale(Fraction(rng.choice([-1, 1]) * rng.randrange(1, 10**4), rng.randrange(1, 10**3)))
        assert x.simplified() == trial_division_sqrt.simplified(x.sign, x.square)


def test_simplified_does_not_count_up_to_a_large_prime():
    # alpha * C for d = 1 and the prime C: trial division would count to C
    c = 1_000_000_007
    assert alpha_of(1).scale(c).simplified() == (Fraction(c), 1)
    assert alpha_of(2).scale(c * c).simplified() == (Fraction(c * c, 3), 6)


def test_simplified_does_not_count_up_to_a_large_radicand():
    # alpha for d = 10^9 + 6 has the squarefree radicand 2 (10^9 + 7): the
    # least m with num*den/m a square is that radicand, trial division stops
    # near its square root
    for x in (alpha_of(1_000_000_006), alpha_of(1_000_000_006).scale(89_443)):
        start = time.perf_counter()
        assert x.simplified() == trial_division_sqrt.simplified(x.sign, x.square)
        assert time.perf_counter() - start < 1.0


def test_a_report_searches_alphas_squarefree_part_once(monkeypatch):
    # alpha = sqrt(2/3) for d = 2, so its search is the one over 2*3 = 6;
    # each interval's lower end alpha * C^(2^n) takes alpha's radicand
    searched = []
    original = schedule.squarefree_part
    monkeypatch.setattr(schedule, "squarefree_part", lambda n: searched.append(n) or original(n))
    constants = Constants(2, 4, choose_C(2, 4))
    report = schedule_report(constants, 3)
    assert [iv["lower"]["display"].endswith("*sqrt(6)") for iv in report["intervals"]] == [True] * 4
    assert searched.count(6) == 1
    searched.clear()
    assert cli.main(["schedule", "--d", "2", "--beta", "4", "--nmax", "3"]) == 0
    assert searched.count(6) == 1


@settings(max_examples=200)
@given(
    st.fractions(min_value=-50, max_value=50),
    st.fractions(min_value=-50, max_value=50),
)
def test_of_ratio_order_embedding(a, b):
    assert (rat(a) < rat(b)) == (a < b)
    assert rat(a).ceil() == -((-a) // 1)
    assert rat(a).floor() == a // 1


@settings(max_examples=200)
@given(st.fractions(min_value=0, max_value=10_000))
def test_sqrt_ceil_floor_bracket_the_root(f):
    x = SqrtRational.sqrt_of(f)
    c, fl = x.ceil(), x.floor()
    assert Fraction(c * c) >= f and (c == 0 or Fraction((c - 1) ** 2) < f)
    assert Fraction(fl * fl) <= f and Fraction((fl + 1) ** 2) > f


def test_alpha_of():
    assert alpha_of(1) == rat(1)
    assert alpha_of(3) == SqrtRational.sqrt_of(1, 2)
    with pytest.raises(ScheduleError):
        alpha_of(0)


def test_beta_of_boundary_loops():
    c4 = flag_completion(
        SimpleGraph.build("0123", [("0", "1"), ("1", "2"), ("2", "3"), ("3", "0")])
    )
    omega = OmegaSet((EdgeLoop(("0", "1", "2", "3")),))
    assert beta_of(c4, omega) == 4
    with pytest.raises(ScheduleError):
        beta_of(c4, OmegaSet(()))


def test_choose_C_goldens():
    assert choose_C(1, 4) == 5
    assert choose_C(2, 4) == 5  # least C with C*sqrt(2/3) > 4
    assert choose_C(1, 2) == 4  # the C*alpha > 3 clause dominates
    assert choose_C(3, 10) == 15  # least C with C/sqrt(2) > 10
    with pytest.raises(ScheduleError):
        choose_C(0, 4)


def test_constants_validation():
    Constants(1, 4, 5)
    with pytest.raises(ScheduleError):
        Constants(1, 4, 4)  # C*alpha > beta fails
    with pytest.raises(ScheduleError):
        Constants(1, 1, 3)  # C*alpha > 3 fails
    with pytest.raises(ScheduleError):
        Constants(1, 0, 5)


def test_choose_C_always_satisfies_constants():
    rng = random.Random(5)
    for _ in range(50):
        d = rng.randrange(1, 7)
        beta = rng.randrange(1, 40)
        Constants(d, beta, choose_C(d, beta))


def test_S_of_F():
    assert S_of_F(5, [0, 1, 2]) == (0, 5, 25, 625)
    assert S_of_F(5, [2, 0, 0]) == (0, 5, 625)
    assert S_of_F(2, []) == (0,)
    with pytest.raises(ScheduleError):
        S_of_F(5, [-1])
    with pytest.raises(ScheduleError):
        S_of_F(5, [33])


def test_check_index_rejects_an_index_whose_values_cannot_be_printed(monkeypatch):
    # 126^(2^11 - 1), the least value reported for index 11, has 4300 digits,
    # the interpreter's default limit; 126^(2^12 - 1) has more
    monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 4300)
    assert 10**4299 <= 126**2047 < 10**4300
    check_index(11, 126)
    with pytest.raises(ScheduleError, match="digits"):
        check_index(12, 126)
    check_index(32)
    for n in (-1, 33):
        with pytest.raises(ScheduleError):
            check_index(n)
    with pytest.raises(ScheduleError):
        qi_obstruction([-1], [], 5)


def test_m_of():
    assert m_of([-3, 7]) == 3
    assert m_of({4}) == 4
    with pytest.raises(ScheduleError):
        m_of([])


def test_height_distance():
    assert height_distance(3, -8) == rat(4)
    assert height_distance(1, 0) == rat(0)
    assert height_distance(1, 3) == SqrtRational.sqrt_of(9, 2)
    assert str(height_distance(1, 3)) == "3/2*sqrt(2)"


def test_kernel_length_lower_bound():
    assert kernel_length_lower_bound(1, {0}, {0, 2}) == rat(2)
    assert kernel_length_lower_bound(3, {0}, {0, 2}) == SqrtRational.sqrt_of(2)
    assert kernel_length_lower_bound(1, {0}, {0, 2, 4}) == rat(2)
    with pytest.raises(ScheduleError):
        kernel_length_lower_bound(1, {0, 1}, {0, 2})
    with pytest.raises(ScheduleError):
        kernel_length_lower_bound(1, {0}, {0})


def test_predicted_intervals_golden():
    sched = predicted_intervals(Constants(1, 4, 5), 2)
    assert [(iv.lower_ceil, iv.upper) for iv in sched.intervals] == [
        (5, 20),
        (25, 100),
        (625, 2500),
    ]
    assert sched.disjointness_checked
    assert not sched.three_in_spectrum


def test_predicted_intervals_dimension_two():
    sched = predicted_intervals(Constants(2, 4, 5), 1)
    assert sched.three_in_spectrum
    assert sched.intervals[0].lower_ceil == 5  # 5*sqrt(2/3) ~ 4.08
    assert sched.intervals[0].upper == 20


def test_predicted_intervals_validation():
    with pytest.raises(ScheduleError):
        predicted_intervals(Constants(1, 4, 5), -1)
    with pytest.raises(ScheduleError):
        predicted_intervals(Constants(1, 4, 5), 33)


def test_predicted_intervals_disjoint_for_random_parameters():
    rng = random.Random(9)
    for _ in range(50):
        d = rng.randrange(1, 7)
        beta = rng.randrange(1, 40)
        constants = Constants(d, beta, choose_C(d, beta))
        sched = predicted_intervals(constants, 10)
        for prev, nxt in zip(sched.intervals, sched.intervals[1:]):
            assert prev.upper < nxt.lower_ceil


def test_qi_obstruction():
    assert qi_obstruction({3}, set(), 5) == {3: 5**7}
    assert qi_obstruction({0, 1}, {1, 2}, 3) == {0: 1, 2: 27}
    assert qi_obstruction({1}, {1}, 5) == {}
    with pytest.raises(ScheduleError):
        qi_obstruction({33}, set(), 5)


def test_schedule_report_serializes_big_integers_as_strings():
    report = schedule_report(Constants(1, 4, 5), 3, F=[0, 4], Fprime=[0])
    assert report["qi_obstruction"] == {"4": str(5 ** (2**4 - 1))}
    assert report["S_of_F"] == ["0", "5", str(5**16)]
    assert report["base"] == [3]
    text = json.dumps(report, sort_keys=True)
    assert json.loads(text) == report
    assert all(isinstance(iv["upper"], str) for iv in report["intervals"])
