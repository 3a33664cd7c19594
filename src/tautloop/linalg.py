"""Dense exact integer linear algebra: Smith normal form over Python ints.

Matrices are lists of row lists.  Sizes here are desk scale (complexes are
capped around 20 vertices), so the dense cubic algorithm is fine and keeps
every entry exact.
"""

from __future__ import annotations


def identity(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_vec(v: list[int], m: list[list[int]]) -> list[int]:
    """Row vector times matrix."""
    cols = len(m[0]) if m else 0
    return [sum(v[i] * m[i][j] for i in range(len(v))) for j in range(cols)]


def _pivot(a: list[list[int]], v: list[list[int]], t: int, below: int | None) -> bool:
    """Swap into (t, t) the first least nonzero entry of ``a`` from (t, t) on,
    if below ``below`` (any, when None), moving ``v``'s columns too; False if none."""
    nrows, ncols = len(a), len(a[t])
    best = below
    found = None
    for i in range(t, nrows):
        for j in range(t, ncols):
            if a[i][j] != 0 and (best is None or abs(a[i][j]) < best):
                best = abs(a[i][j])
                found = (i, j)
    if found is None:
        return False
    pi, pj = found
    if pi != t:
        a[t], a[pi] = a[pi], a[t]
    if pj != t:
        for row in a:
            row[t], row[pj] = row[pj], row[t]
        for row in v:
            row[t], row[pj] = row[pj], row[t]
    return True


def smith_normal_form(matrix: list[list[int]]) -> tuple[list[int], list[list[int]]]:
    """Return (diagonal, V) with U*A*V diagonal for some unimodular U.

    Only the right transform V is returned; it is what lattice-membership
    tests need.  The diagonal entries are nonnegative and satisfy the
    divisibility chain d1 | d2 | ... (trailing zeros allowed).
    """
    a = [row[:] for row in matrix]
    nrows = len(a)
    ncols = len(a[0]) if nrows else 0
    v = identity(ncols)
    diag: list[int] = []
    t = 0
    while t < nrows and t < ncols:
        if not _pivot(a, v, t, None):
            break
        while True:
            changed = False
            for i in range(t + 1, nrows):
                if a[i][t] != 0:
                    q = a[i][t] // a[t][t]
                    if q:
                        for j in range(t, ncols):
                            a[i][j] -= q * a[t][j]
                        changed = True
            for j in range(t + 1, ncols):
                if a[t][j] != 0:
                    q = a[t][j] // a[t][t]
                    if q:
                        for i in range(nrows):
                            a[i][j] -= q * a[i][t]
                        for i in range(ncols):
                            v[i][j] -= q * v[i][t]
                        changed = True
            # a smaller remainder may have appeared; re-pivot on it
            changed = _pivot(a, v, t, abs(a[t][t])) or changed
            if not changed:
                break
        # enforce divisibility of later entries by the current pivot: add the
        # first later row with an entry it does not divide to row t, and redo t
        bad = next((i for i in range(t + 1, nrows) for j in range(t + 1, ncols) if a[i][j] % a[t][t]), None)
        if bad is not None:
            for k in range(t, ncols):
                a[t][k] += a[bad][k]
            continue
        if a[t][t] < 0:
            for i in range(nrows):
                a[i][t] = -a[i][t]
            for i in range(ncols):
                v[i][t] = -v[i][t]
        diag.append(a[t][t])
        t += 1
    while len(diag) < min(nrows, ncols):
        diag.append(0)
    return diag, v


def rank_of_diagonal(diag: list[int]) -> int:
    return sum(1 for d in diag if d != 0)
