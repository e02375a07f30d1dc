"""Tests for the exact Smith normal form kernel."""

import random

from bbgroups import snf
from oracles import naive_invariant_factors


def test_known_forms():
    assert snf.invariant_factors([[1, 0], [0, 1]]) == (1, 1)
    assert snf.invariant_factors([[2]]) == (2,)
    assert snf.invariant_factors([[0, 0], [0, 0]]) == ()
    assert snf.invariant_factors([]) == ()
    # classic: diag(2, 4) is already a chain, diag(2, 3) folds to (1, 6)
    assert snf.invariant_factors([[2, 0], [0, 4]]) == (2, 4)
    assert snf.invariant_factors([[2, 0], [0, 3]]) == (1, 6)


def test_incidence_matrix_of_a_path_is_unimodular():
    # d_1 of the path a-b-c
    matrix = [[-1, 0], [1, -1], [0, 1]]
    assert snf.invariant_factors(matrix) == (1, 1)


def test_divisibility_chain_and_oracle_agreement():
    rng = random.Random(4)
    for _ in range(60):
        m = rng.randint(1, 6)
        n = rng.randint(1, 6)
        matrix = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
        factors = snf.invariant_factors(matrix)
        for a, b in zip(factors, factors[1:]):
            assert b % a == 0
        assert factors == naive_invariant_factors(matrix)


def test_input_not_modified():
    matrix = [[2, 4], [6, 8]]
    copy = [row[:] for row in matrix]
    snf.invariant_factors(matrix)
    assert matrix == copy


def test_in_row_lattice():
    rows = [[1, 1, -1]]
    assert snf.in_row_lattice(rows, [3, 3, -3])
    assert not snf.in_row_lattice(rows, [1, 0, 0])
    assert snf.in_row_lattice(rows, [0, 0, 0])
    assert snf.in_row_lattice([], [0, 0])
    assert not snf.in_row_lattice([], [1, 0])
    # index-2 sublattice
    assert not snf.in_row_lattice([[2, 0], [0, 2]], [1, 1])
    assert snf.in_row_lattice([[2, 0], [0, 2]], [4, -2])


def test_matrix_multiply_and_zero():
    assert snf.matrix_multiply([[1, 2]], [[3], [4]]) == [[11]]
    assert snf.is_zero_matrix([[0, 0]])
    assert not snf.is_zero_matrix([[0, 1]])
