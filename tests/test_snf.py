"""Tests for the exact Smith normal form kernel."""

import random

import pytest

from bbgroups import boundary_matrix, snf
from corpus import in_row_lattice, projective_plane, random_flag_complex, sparse
from oracles import dense_boundary_matrix, naive_invariant_factors


def test_known_forms():
    assert snf.invariant_factors(sparse([[1, 0], [0, 1]])) == (1, 1)
    assert snf.invariant_factors(sparse([[2]])) == (2,)
    assert snf.invariant_factors(sparse([[0, 0], [0, 0]])) == ()
    assert snf.invariant_factors(sparse([])) == ()
    # classic: diag(2, 4) is already a chain, diag(2, 3) folds to (1, 6)
    assert snf.invariant_factors(sparse([[2, 0], [0, 4]])) == (2, 4)
    assert snf.invariant_factors(sparse([[2, 0], [0, 3]])) == (1, 6)
    # diagonals that are not yet a chain fold to gcd/lcm pairs
    assert snf.invariant_factors(sparse([[4, 0, 0], [0, 6, 0], [0, 0, 10]])) == (2, 2, 60)
    assert snf.invariant_factors(sparse([[6, 0], [0, 4]])) == (2, 12)
    # pairwise non-dividing factors: every pair folds, not only neighbours
    assert snf.invariant_factors(sparse([[6, 0, 0], [0, 10, 0], [0, 0, 15]])) == (1, 30, 30)
    assert snf.invariant_factors(sparse([[15, 0, 0], [0, 10, 0], [0, 0, 6]])) == (1, 30, 30)
    # units interleaved with coprime non-units lead the chain
    assert snf.invariant_factors(sparse([[3, 0, 0], [0, 1, 0], [0, 0, 2]])) == (1, 1, 6)
    diag = [[1, 0, 0, 0], [0, 5, 0, 0], [0, 0, 1, 0], [0, 0, 0, 7]]
    assert snf.invariant_factors(sparse(diag)) == (1, 1, 1, 35)


def test_incidence_matrix_of_a_path_is_unimodular():
    # d_1 of the path a-b-c
    matrix = [[-1, 0], [1, -1], [0, 1]]
    assert snf.invariant_factors(sparse(matrix)) == (1, 1)


def _random_matrices(rng):
    for _ in range(60):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        yield [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
    for _ in range(20):
        m, n = rng.randint(1, 12), rng.randint(1, 12)
        yield [[rng.randint(-1000, 1000) for _ in range(n)] for _ in range(m)]
    for _ in range(20):
        m, n = rng.randint(1, 12), rng.randint(1, 12)
        yield [[rng.choice((0, 0, 0, 1, -1)) for _ in range(n)] for _ in range(m)]
    # No unit entries, so pivots restart from both the row and the column phase.
    for _ in range(20):
        m, n = rng.randint(1, 15), rng.randint(1, 15)
        yield [[rng.choice((0, 2, -2, 3, -3, 4, -4, 6, -6)) for _ in range(n)] for _ in range(m)]
    for _ in range(20):
        m, n = rng.randint(1, 8), rng.randint(1, 8)
        yield [
            [rng.choice((0, 1, -1)) * (10**20 + rng.randint(-99, 99)) for _ in range(n)]
            for _ in range(m)
        ]


def test_divisibility_chain_and_oracle_agreement():
    for matrix in _random_matrices(random.Random(4)):
        factors = snf.invariant_factors(sparse(matrix))
        for a, b in zip(factors, factors[1:]):
            assert b % a == 0
        assert factors == naive_invariant_factors(matrix)


def test_boundary_matrices_agree_with_sympy():
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import invariant_factors

    complexes = [random_flag_complex(s, n=9, p=0.5) for s in range(20)]
    complexes.append(projective_plane())
    for complex in complexes:
        for k in range(1, len(complex.f_vector())):
            dense = dense_boundary_matrix(complex, k)
            matrix = boundary_matrix(complex, k)
            assert matrix == sparse(dense), (complex.f_vector(), k)
            expected = invariant_factors(sympy.Matrix(dense), domain=sympy.ZZ)
            assert snf.invariant_factors(matrix) == tuple(
                abs(int(d)) for d in expected if d
            ), (complex.f_vector(), k)


def test_input_not_modified():
    matrix = sparse([[2, 4], [6, 8]])
    copy = [dict(row) for row in matrix]
    snf.invariant_factors(matrix)
    assert matrix == copy


def test_in_row_lattice():
    rows = sparse([[1, 1, -1]])
    assert in_row_lattice(rows, [3, 3, -3])
    assert not in_row_lattice(rows, [1, 0, 0])
    assert in_row_lattice(rows, [0, 0, 0])
    assert in_row_lattice([], [0, 0])
    assert not in_row_lattice([], [1, 0])
    # index-2 sublattice
    assert not in_row_lattice(sparse([[2, 0], [0, 2]]), [1, 1])
    assert in_row_lattice(sparse([[2, 0], [0, 2]]), [4, -2])


def test_rejects_ragged_and_mismatched_shapes():
    assert snf.invariant_factors([{}]) == ()
    with pytest.raises(ValueError, match="dimension mismatch"):
        snf.matrix_multiply(sparse([[1, 2]]), sparse([[1]]))


def test_matrix_multiply_and_zero():
    assert snf.matrix_multiply(sparse([[1, 2]]), sparse([[3], [4]])) == [{0: 11}]
    assert snf.is_zero_matrix(sparse([[0, 0]]))
    assert not snf.is_zero_matrix(sparse([[0, 1]]))
    # a product whose terms cancel holds no zero entry
    cancel = snf.matrix_multiply([{0: 1, 1: 1}], [{0: 1}, {0: -1}])
    assert cancel == [{}] and snf.is_zero_matrix(cancel)
    rng = random.Random(5)
    for _ in range(50):
        m, k, n = rng.randint(1, 8), rng.randint(1, 8), rng.randint(1, 8)
        a = [[rng.choice((0, 0, 1, -1)) for _ in range(k)] for _ in range(m)]
        b = [[rng.choice((0, 0, 1, -1)) for _ in range(n)] for _ in range(k)]
        expected = [[0] * n for _ in range(m)]
        for i in range(m):
            for j in range(n):
                for t in range(k):
                    expected[i][j] += a[i][t] * b[t][j]
        assert snf.matrix_multiply(sparse(a), sparse(b)) == sparse(expected)
