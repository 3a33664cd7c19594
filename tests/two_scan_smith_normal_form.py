"""Smith normal form with its pivot search written out twice, kept for the
tests as the reference that ``tautloop.linalg`` must match entry for entry,
the right transform ``V`` included: both scans take the first entry of least
nonzero magnitude in row-major order as the pivot.
"""

from __future__ import annotations

from tautloop.linalg import identity


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
        # locate a minimal-magnitude nonzero pivot in the remaining block
        pivot = None
        best = None
        for i in range(t, nrows):
            for j in range(t, ncols):
                if a[i][j] != 0 and (best is None or abs(a[i][j]) < best):
                    best = abs(a[i][j])
                    pivot = (i, j)
        if pivot is None:
            break
        pi, pj = pivot
        if pi != t:
            a[t], a[pi] = a[pi], a[t]
        if pj != t:
            for row in a:
                row[t], row[pj] = row[pj], row[t]
            for row in v:
                row[t], row[pj] = row[pj], row[t]
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
            best = abs(a[t][t])
            pivot = None
            for i in range(t, nrows):
                for j in range(t, ncols):
                    if a[i][j] != 0 and abs(a[i][j]) < best:
                        best = abs(a[i][j])
                        pivot = (i, j)
            if pivot is not None:
                pi, pj = pivot
                if pi != t:
                    a[t], a[pi] = a[pi], a[t]
                if pj != t:
                    for row in a:
                        row[t], row[pj] = row[pj], row[t]
                    for row in v:
                        row[t], row[pj] = row[pj], row[t]
                changed = True
            if not changed:
                break
        # enforce divisibility of later entries by the current pivot
        fixed = False
        for i in range(t + 1, nrows):
            for j in range(t + 1, ncols):
                if a[i][j] % a[t][t] != 0:
                    for k in range(t, ncols):
                        a[t][k] += a[i][k]
                    fixed = True
                    break
            if fixed:
                break
        if fixed:
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
