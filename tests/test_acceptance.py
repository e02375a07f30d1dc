"""Acceptance suite: one test per criterion, one pass/fail line each.

Every criterion is exact (tolerance zero); randomized quantifiers use
fixed seeds so the whole suite is reproducible bit-for-bit.  Run with
``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.
"""

import random
from contextlib import contextmanager
from itertools import product

import pytest

from bbgroups import (
    BBContext,
    Word,
    abelianization,
    apply_homotopy_move,
    apply_move_to_cycle,
    cycle_relator,
    directed_cycle_presentation,
    enumerate_cycle_classes,
    exponent_matrix,
    express_in_kernel,
    finite_presentation,
    finiteness_report,
    hilbert_series,
    homology,
    letterwise_inverse,
    presentation_relator_edge_words,
    raag_image,
    render_report_text,
    snf,
    verify_relator,
)
from bbgroups.bestvina_brady import _legal_moves
from bbgroups.words import RaagContext
from corpus import (
    c4,
    connected_corpus,
    corpus,
    declared_first,
    in_row_lattice,
    k3,
    octahedron,
    random_zero_sum_word,
    sparse,
    two_points,
)
from oracles import (
    ShuffleClosureOracle,
    basepoint_conjugate,
    extension_image,
    finite_presentation_reference,
    fundamental_cycle_basis,
    lift_vertex,
    naive_invariant_factors,
)


@contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {number} ({name}): FAIL")
        raise
    print(f"\nACCEPTANCE {number} ({name}): PASS")


def test_criterion_1_corpus_identities():
    """Every relator emitted over the corpus maps to the identity, and so
    does every relator of its tree-path loops folded onto the edges.

    Truncation bounds: max_len 6, max_exp 3.  The cycle constructions
    require connectivity, so the disconnected corpus members must
    refuse (their relator families are empty by construction).
    """
    with criterion(1, "corpus identities"):
        checked = 0
        for name, complex in corpus():
            if not complex.is_connected():
                with pytest.raises(ValueError, match="connected"):
                    BBContext(complex)
                continue
            ctx = BBContext(complex)
            truncated = directed_cycle_presentation(ctx, max_len=6, max_exp=3)
            finite = finite_presentation(ctx)
            # Tree-path loops folded onto the edges, as the reference builds them.
            with_extras = finite_presentation_reference(ctx, fundamental_cycle_basis(ctx), max_exp=3)
            for pres in (truncated, finite, with_extras):
                for word in presentation_relator_edge_words(pres, ctx):
                    assert verify_relator(word, ctx), (name, word)
                    checked += 1
        assert checked > 15000  # the quantifier really ran


def test_criterion_2_express_roundtrip():
    """1000 random zero-exponent-sum words per connected corpus complex:
    raag_image(express_in_kernel(w)) is w, under RAAG normal form."""
    with criterion(2, "kernel expression roundtrip"):
        rng = random.Random(20240)
        for name, complex in connected_corpus():
            ctx = BBContext(complex)
            for _ in range(1000):
                word = random_zero_sum_word(
                    rng, ctx.vertex_alphabet, rng.randint(0, 6)
                )
                edge_word = express_in_kernel(word, ctx)
                assert ctx.raag.is_identity(
                    raag_image(edge_word, ctx) * ~word
                ), (name, word)


def test_criterion_3_normal_form_oracle_equivalence():
    """Identity testing agrees with the exhaustive shuffle-closure oracle
    on ALL words of length <= 6 over the C4 and K3 generator sets."""
    with criterion(3, "normal form vs shuffle-closure oracle"):
        for complex in (c4(), k3()):
            ctx = RaagContext(complex)
            oracle = ShuffleClosureOracle(complex)
            vertices = complex.vertices
            signed = len(vertices) * 2
            for length in range(0, 7):
                for code in product(range(signed), repeat=length):
                    letters = [
                        (vertices[c >> 1], 1 if c % 2 == 0 else -1) for c in code
                    ]
                    word = Word(ctx.alphabet, letters)
                    assert ctx.is_identity(word) == oracle.is_identity_encoded(
                        bytes(code)
                    ), code


def test_criterion_4_named_groups():
    """The classical examples come out exactly: the octahedron (Stallings'
    group), the square (Bieri's rank-1 case), and two points."""
    with criterion(4, "named groups"):
        report = finiteness_report(octahedron())
        assert report.finitely_presented == "yes"
        assert report.corollary7_applies is True
        assert report.fp_level == 2  # FP(2), not FP(3): "not of type FP"
        assert report.chi_delta == 2
        assert report.chi_group == -1
        assert hilbert_series(octahedron()) == (1, 6, 12, 8)
        assert homology(octahedron()).betti == (1, 0, 1)
        assert "finitely presented but not of type FP" in render_report_text(report)

        bieri = finiteness_report(c4())
        assert bieri.finitely_generated is True
        assert bieri.fp_level == 1  # FP(1), not FP(2)
        assert bieri.finitely_presented == "no"

        pair = finiteness_report(two_points())
        assert pair.finitely_generated is False
        assert "not finitely generated" in render_report_text(pair)


def test_criterion_5_triangle_relators_at_the_abelian_level():
    """finite_presentation(K3) abelianizes to Z x Z, and the exponent
    vector of every triangle relator c^[n], |n| <= 4, lies in the
    relator lattice."""
    with criterion(5, "triangle relators abelianized"):
        complex = k3()
        ctx = BBContext(complex)
        pres = finite_presentation(ctx)
        result = abelianization(pres)
        assert (result.rank, result.torsion) == (2, ())

        lattice = exponent_matrix(pres)
        triangle = complex.directed_cycle(["a", "b", "c"])
        index = {g: i for i, g in enumerate(pres.generators)}
        for n in range(-4, 5):
            if n == 0:
                continue
            vector = [0] * len(pres.generators)
            for e, s in cycle_relator(triangle, n, ctx).letters:
                if str(e) in index:
                    vector[index[str(e)]] += s
                else:
                    vector[index[str(e.reverse())]] -= s
            assert in_row_lattice(lattice, vector), n


def test_criterion_6_homotopy_move_soundness():
    """500 random move sequences of length <= 10, replayed on verified
    relators for every n in {-3..3} minus 0, stay verified at every
    intermediate step."""
    with criterion(6, "homotopy move soundness"):
        rng = random.Random(606)
        bases = []
        for complex in (k3(), c4(), octahedron()):
            ctx = BBContext(complex)
            for cycle in enumerate_cycle_classes(ctx, 4):
                bases.append((ctx, cycle))
        for _ in range(500):
            ctx, cycle = bases[rng.randrange(len(bases))]
            moves = []
            current = cycle
            for _ in range(rng.randint(1, 10)):
                options = list(_legal_moves(current.edges, ctx))
                move = options[rng.randrange(len(options))]
                moves.append(move)
                current = apply_move_to_cycle(current, move, ctx)
            for n in (-3, -2, -1, 1, 2, 3):
                relator = cycle_relator(cycle, n, ctx)
                assert verify_relator(relator, ctx)
                for move in moves:
                    relator = apply_homotopy_move(relator, move, n, ctx)
                    assert verify_relator(relator, ctx), (move, n)


def test_criterion_7_homomorphism_contracts():
    """The proof maps satisfy their defining identities over the corpus:
    the twist conjugates, twist-flip squared is the identity, vertex
    lifts map back to the vertices, letterwise inversion is an
    involution.  The twist and the lifts are the cyclic extension in
    ``tests/oracles.py``; their images are taken by ``raag_image``."""
    with criterion(7, "homomorphism contracts"):
        rng = random.Random(707)
        for name, complex in connected_corpus():
            for basepoint in complex.vertices:
                ctx = BBContext(declared_first(complex, basepoint))
                a = Word(ctx.vertex_alphabet, [(basepoint, 1)])
                for e in complex.directed_edges():
                    word = Word(ctx.edge_alphabet, [(e, 1)])
                    twisted = basepoint_conjugate(word, ctx)
                    lhs = raag_image(twisted, ctx)
                    rhs = a * raag_image(word, ctx) * ~a
                    assert ctx.raag.is_identity(lhs * ~rhs), (name, basepoint, str(e))

                    once = basepoint_conjugate(letterwise_inverse(word), ctx)
                    twice = basepoint_conjugate(letterwise_inverse(once), ctx)
                    assert ctx.raag.is_identity(
                        raag_image(twice, ctx) * ~raag_image(word, ctx)
                    ), (name, basepoint, str(e))

                for b in complex.vertices:
                    image = extension_image(lift_vertex(b, ctx), ctx)
                    assert ctx.raag.normal_form(image) == Word(
                        ctx.vertex_alphabet, [(b, 1)]
                    ), (name, basepoint, b)

            # letterwise inversion is an involution on arbitrary words
            ctx = BBContext(complex)
            if not ctx.edge_alphabet.letters:
                continue
            for _ in range(20):
                letters = [
                    (rng.choice(ctx.edge_alphabet.letters), rng.choice((1, -1)))
                    for _ in range(rng.randint(0, 8))
                ]
                word = Word(ctx.edge_alphabet, letters)
                assert letterwise_inverse(letterwise_inverse(word)) == word


def test_criterion_8_smith_normal_form_oracle():
    """200 random integer matrices up to 8x8 with entries in [-9, 9]:
    identical invariant factors from the library and the naive
    row/column-reduction oracle."""
    with criterion(8, "Smith normal form vs naive oracle"):
        rng = random.Random(808)
        for _ in range(200):
            m = rng.randint(1, 8)
            n = rng.randint(1, 8)
            matrix = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
            assert snf.invariant_factors(sparse(matrix)) == naive_invariant_factors(
                matrix
            ), matrix
