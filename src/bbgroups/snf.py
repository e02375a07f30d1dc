"""Exact integer linear algebra: Smith normal form over Z.

This is the single audited kernel behind simplicial homology and
presentation abelianization.  Matrices are plain lists of lists of
Python ints, so all arithmetic is arbitrary precision; there are no
modular or floating-point shortcuts.

``invariant_factors`` runs in two phases: phase 1 diagonalizes by row
and column reduction, phase 2 folds the diagonal into its divisibility
chain by one gcd/lcm pass (any diagonal matrix is equivalent to its
gcd/lcm chain; Newman, *Integral Matrices*, 1972).
"""

from math import gcd


def invariant_factors(matrix):
    """Invariant factors of an integer matrix.

    Returns the tuple ``(d_1, ..., d_r)`` of nonzero diagonal entries of
    the Smith normal form, normalized positive and satisfying
    ``d_i | d_{i+1}``.  ``r`` is the rank of the matrix over Q.  The
    input matrix is not modified.
    """
    a = [[int(x) for x in row] for row in matrix]
    m = len(a)
    n = len(a[0]) if m else 0
    for row in a:
        if len(row) != n:
            raise ValueError("ragged matrix")
    factors = []
    t = 0
    while t < m and t < n:
        # Smallest-magnitude nonzero entry of the trailing block becomes
        # the pivot; |pivot| strictly decreases on every restart below,
        # which is what makes the loop terminate.
        pi = pj = -1
        best = 0
        for i in range(t, m):
            for j in range(t, n):
                v = a[i][j]
                if v and (best == 0 or abs(v) < best):
                    best = abs(v)
                    pi, pj = i, j
        if best == 0:
            break
        a[t], a[pi] = a[pi], a[t]
        if pj != t:
            for row in a:
                row[t], row[pj] = row[pj], row[t]
        p = a[t][t]

        clean = True
        for i in range(t + 1, m):
            if a[i][t]:
                q = a[i][t] // p
                if q:
                    for j in range(t, n):
                        a[i][j] -= q * a[t][j]
                if a[i][t]:
                    clean = False  # remainder smaller than |p| appeared
        for j in range(t + 1, n):
            if a[t][j]:
                q = a[t][j] // p
                if q:
                    for i in range(t, m):
                        a[i][j] -= q * a[i][t]
                if a[t][j]:
                    clean = False
        if not clean:
            continue
        factors.append(abs(p))
        t += 1

    # Each pair becomes (gcd, lcm), so d_i ends dividing every later d_j.
    for i in range(len(factors)):
        for j in range(i + 1, len(factors)):
            x, y = factors[i], factors[j]
            g = gcd(x, y)
            factors[i], factors[j] = g, x // g * y
    return tuple(factors)


def matrix_multiply(a, b):
    """Product of two integer matrices (lists of rows)."""
    if not a or not b:
        return []
    if len(a[0]) != len(b):
        raise ValueError("dimension mismatch")
    cols = len(b[0])
    return [
        [sum(arow[k] * b[k][j] for k in range(len(b))) for j in range(cols)]
        for arow in a
    ]


def is_zero_matrix(a):
    return all(x == 0 for row in a for x in row)
