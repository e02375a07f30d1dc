"""Exact integer linear algebra: Smith normal form over Z.

This is the single audited kernel behind simplicial homology and
presentation abelianization.  A matrix is a list of sparse rows, each a
``{column: entry}`` dict of its nonzero Python ints, so all arithmetic is
arbitrary precision; there are no modular or floating-point shortcuts.

``invariant_factors`` runs in two phases.  Phase 1 diagonalizes a
copy of the rows; row operations clear the pivot's column first, so
column operations touch only the pivot row.  Phase 2 folds the diagonal
into its divisibility chain: the units lead, and one gcd/lcm pass orders
the rest (any diagonal matrix is equivalent to its gcd/lcm chain; Newman,
*Integral Matrices*, 1972).
"""

from math import gcd


def invariant_factors(matrix):
    """Invariant factors of an integer matrix given as sparse rows.

    Returns the nonzero diagonal ``(d_1, ..., d_r)`` of the Smith normal
    form, positive and with ``d_i | d_{i+1}``; ``r`` is the rank of the
    matrix over Q.  Zero entries are skipped; the input is not modified.
    """
    rows = [{j: int(v) for j, v in row.items() if v} for row in matrix]
    rows = [row for row in rows if row]
    factors = []
    while rows:
        # An entry of least magnitude is the pivot (a unit ends the search:
        # nothing is smaller); |pivot| strictly decreases on every restart
        # below, which is what makes the loop terminate.
        best = 0
        for row in rows:
            for j, v in row.items():
                if not best or abs(v) < best:
                    best, pivot, pj = abs(v), row, j
            if best == 1:
                break
        p = pivot[pj]
        clean = True
        for row in rows:
            if row is not pivot and pj in row:
                q = row[pj] // p
                for j, v in pivot.items():
                    row[j] = row.get(j, 0) - q * v
                    if not row[j]:
                        del row[j]
                clean = clean and pj not in row  # remainder smaller than |p|
        if clean:
            # Column pj is now zero off the pivot row, so the column
            # operations reduce only the pivot row's other entries mod p.
            rest = {j: v % p for j, v in pivot.items() if v % p}
            pivot.clear()
            if rest:
                pivot.update(rest)
                pivot[pj] = p
            else:
                factors.append(abs(p))
        rows = [row for row in rows if row]

    # Units divide everything and lead the chain.  Each pair of the rest
    # becomes (gcd, lcm), so d_i ends dividing every later d_j.
    rest = [d for d in factors if d > 1]
    for i in range(len(rest)):
        for j in range(i + 1, len(rest)):
            x, y = rest[i], rest[j]
            g = gcd(x, y)
            rest[i], rest[j] = g, x // g * y
    return (1,) * (len(factors) - len(rest)) + tuple(rest)


def matrix_multiply(a, b):
    """Product of sparse matrices: row i is the sum of a[i][j] * b[j], zeros dropped."""
    product = []
    for arow in a:
        out = {}
        for t, x in arow.items():
            if not 0 <= t < len(b):
                raise ValueError("dimension mismatch")
            for j, y in b[t].items():
                out[j] = out.get(j, 0) + x * y
        product.append({j: v for j, v in out.items() if v})
    return product


def is_zero_matrix(a):
    """Whether every row is empty (sparse rows hold no zero entries)."""
    return not any(a)
