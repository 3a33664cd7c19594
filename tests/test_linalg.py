import math
import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from tautloop import linalg
from two_scan_smith_normal_form import smith_normal_form as two_scan_smith_normal_form


def multiply(a, b):
    return [
        [sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))]
        for i in range(len(a))
    ]


def det(m):
    # fraction-free is unnecessary at test scale; exact rationals suffice
    n = len(m)
    a = [[Fraction(x) for x in row] for row in m]
    sign = 1
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            sign = -sign
        for r in range(col + 1, n):
            f = a[r][col] / a[col][col]
            for c in range(col, n):
                a[r][c] -= f * a[col][c]
    out = Fraction(sign)
    for i in range(n):
        out *= a[i][i]
    return out


matrices = st.integers(min_value=1, max_value=4).flatmap(
    lambda rows: st.integers(min_value=1, max_value=4).flatmap(
        lambda cols: st.lists(
            st.lists(st.integers(min_value=-9, max_value=9), min_size=cols, max_size=cols),
            min_size=rows,
            max_size=rows,
        )
    )
)


def test_identity_and_mat_vec():
    m = [[1, 2], [3, 4]]
    assert linalg.mat_vec([1, 0], m) == [1, 2]
    assert linalg.mat_vec([2, 1], m) == [5, 8]
    assert linalg.identity(3) == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


def test_snf_diagonal_of_known_matrices():
    diag, _ = linalg.smith_normal_form([[2, 0], [0, 3]])
    assert diag == [1, 6]
    diag, _ = linalg.smith_normal_form([[4, 0], [0, 6]])
    assert diag == [2, 12]
    diag, _ = linalg.smith_normal_form([[1, 2], [2, 4]])
    assert diag == [1, 0]


def test_snf_of_boundary_like_matrix():
    # circle boundary matrix: rank 3, free quotient of rank 1
    m = [
        [-1, 0, 0, 1],
        [1, -1, 0, 0],
        [0, 1, -1, 0],
        [0, 0, 1, -1],
    ]
    diag, _ = linalg.smith_normal_form(m)
    assert diag == [1, 1, 1, 0]
    assert linalg.rank_of_diagonal(diag) == 3


@settings(max_examples=60)
@given(matrices)
def test_snf_invariants(m):
    diag, v = linalg.smith_normal_form(m)
    ncols = len(m[0])
    assert len(diag) == min(len(m), ncols)
    # nonnegative with a divisibility chain, zeros trailing
    for a, b in zip(diag, diag[1:]):
        assert a >= 0 and b >= 0
        if a == 0:
            assert b == 0
        else:
            assert b % a == 0
    # V is unimodular, so A*V has the recorded diagonal up to row operations:
    # check column-space invariance via gcd of all entries (equals diag[0])
    assert abs(det(v)) == 1
    av = multiply(m, v)
    entries = [x for row in av for x in row]
    gcd_all = 0
    for x in entries:
        gcd_all = math.gcd(gcd_all, abs(x))
    first = diag[0] if diag else 0
    assert gcd_all == first or (first == 0 and gcd_all == 0)


@settings(max_examples=60)
@given(matrices)
def test_snf_rank_matches_gaussian_rank(m):
    diag, _ = linalg.smith_normal_form(m)
    a = [[Fraction(x) for x in row] for row in m]
    rank = 0
    cols = len(m[0])
    row = 0
    for col in range(cols):
        pivot = next((r for r in range(row, len(a)) if a[r][col] != 0), None)
        if pivot is None:
            continue
        a[row], a[pivot] = a[pivot], a[row]
        for r in range(len(a)):
            if r != row and a[r][col] != 0:
                f = a[r][col] / a[row][col]
                for c in range(cols):
                    a[r][c] -= f * a[row][c]
        rank += 1
        row += 1
    assert linalg.rank_of_diagonal(diag) == rank


def test_smith_normal_form_matches_the_two_scan_reference():
    """The pivot is the first entry of least magnitude in scan order, as in
    the reference's two scans, so the diagonal and V are the reference's."""
    rng = random.Random(18)
    for _ in range(5_000):
        rows, cols, span = rng.randint(0, 7), rng.randint(0, 7), rng.choice((1, 3, 9, 100))
        m = [[rng.randint(-span, span) if rng.random() < 0.7 else 0 for _ in range(cols)]
             for _ in range(rows)]
        assert linalg.smith_normal_form(m) == two_scan_smith_normal_form(m), m
