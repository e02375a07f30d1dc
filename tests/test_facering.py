"""Tests for the exterior face ring and the finiteness report."""

import random
from itertools import combinations, product

import pytest

from bbgroups import (
    FlagComplex,
    Pi1Status,
    euler_characteristic,
    face_monomial,
    finiteness_report,
    group_euler_characteristic,
    hilbert_series,
    homology,
    monomial_product,
    render_report_text,
    report_to_json,
)
from corpus import (
    c4,
    connected_corpus,
    corpus,
    dunce_hat,
    k3,
    octahedron,
    path3,
    projective_plane,
    random_flag_complex,
    suspension,
    two_points,
)
from bbgroups.presentations import TIETZE_BUDGET
from oracles import brute_force_simplices, permutation_parity


# -- monomials -------------------------------------------------------------


def test_product_of_nonadjacent_vertices_is_zero():
    complex = path3()  # a-b-c, no edge a-c
    a = face_monomial(complex, ["a"])
    c = face_monomial(complex, ["c"])
    assert monomial_product(a, c, complex).is_zero()


def test_antisymmetry_on_an_edge():
    complex = path3()
    a = face_monomial(complex, ["a"])
    b = face_monomial(complex, ["b"])
    ab = monomial_product(a, b, complex)
    ba = monomial_product(b, a, complex)
    assert ab.vertices == ba.vertices == ("a", "b")
    assert ab.coefficient == -ba.coefficient == 1


def test_square_is_zero():
    complex = path3()
    a = face_monomial(complex, ["a"])
    assert monomial_product(a, a, complex).is_zero()


def test_merge_sign_matches_permutation_parity_oracle():
    complex = k3()
    vw = face_monomial(complex, ["b", "c"])
    u = face_monomial(complex, ["a"])
    product = monomial_product(vw, u, complex)
    assert product.vertices == ("a", "b", "c")
    # sign of sorting the concatenation (b, c, a)
    assert product.coefficient == permutation_parity(
        ["b", "c", "a"], key=complex.vertex_index
    )


def test_merge_signs_exhaustively_on_octahedron():
    complex = octahedron()
    idx = complex.vertex_index
    for tri in complex.triangles():
        for k in (1, 2):
            for left in combinations(tri, k):
                right = tuple(v for v in tri if v not in left)
                m = monomial_product(
                    face_monomial(complex, left),
                    face_monomial(complex, right),
                    complex,
                )
                assert m.vertices == tri
                assert m.coefficient == permutation_parity(left + right, key=idx)


def test_a_face_is_a_clique_over_the_whole_corpus():
    """Every vertex tuple of length <= 3, repeats allowed: nonzero iff its
    set is a clique (brute force), with the sign of the sorting permutation."""
    for _, complex in corpus():
        levels = brute_force_simplices(complex.vertices, complex.edges)
        cliques = {frozenset(s) for level in levels for s in level}
        idx = complex.vertex_index
        for k in range(4):
            for vertices in product(complex.vertices, repeat=k):
                m = face_monomial(complex, vertices)
                if len(set(vertices)) == k and (not k or frozenset(vertices) in cliques):
                    assert m.vertices == tuple(sorted(vertices, key=idx))
                    assert m.coefficient == permutation_parity(vertices, key=idx)
                else:
                    assert m.is_zero()


def test_unit_and_zero_behaviour():
    complex = k3()
    unit = face_monomial(complex, [])
    a = face_monomial(complex, ["a"])
    assert monomial_product(unit, a, complex) == a
    zero = face_monomial(complex, ["a"], 0)
    assert zero.is_zero()
    assert monomial_product(zero, a, complex).is_zero()


def test_nonface_normalizes_to_zero():
    complex = c4()
    assert face_monomial(complex, ["a", "c"]).is_zero()  # diagonal, not an edge
    assert face_monomial(complex, ["a", "b", "c"]).is_zero()  # no triangles


def test_graded_commutativity_and_associativity():
    complex = octahedron()
    rng = random.Random(41)
    monomials = [face_monomial(complex, [v]) for v in complex.vertices]
    monomials += [
        face_monomial(complex, e) for e in complex.edges
    ]
    for _ in range(100):
        m1, m2, m3 = (rng.choice(monomials) for _ in range(3))
        ab = monomial_product(m1, m2, complex)
        ba = monomial_product(m2, m1, complex)
        sign = (-1) ** (m1.degree * m2.degree)
        assert ab.vertices == ba.vertices
        assert ab.coefficient == sign * ba.coefficient
        left = monomial_product(ab, m3, complex)
        right = monomial_product(m1, monomial_product(m2, m3, complex), complex)
        assert left == right


def test_bilinearity_in_the_coefficient():
    complex = k3()
    m1 = face_monomial(complex, ["a"], 3)
    m2 = face_monomial(complex, ["b"], -2)
    assert monomial_product(m1, m2, complex).coefficient == -6


# -- hilbert series and Euler characteristics --------------------------------


def test_hilbert_series_examples():
    assert hilbert_series(FlagComplex(["a"], [])) == (1, 1)
    assert hilbert_series(octahedron()) == (1, 6, 12, 8)
    assert hilbert_series(k3()) == (1, 3, 3, 1)  # exterior algebra on 3 letters


def test_hilbert_coefficients_count_monomial_basis():
    for name, complex in corpus():
        series = hilbert_series(complex)
        for i, coefficient in enumerate(series):
            if i == 0:
                assert coefficient == 1
            else:
                basis = [
                    s
                    for s in combinations(complex.vertices, i)
                    if not face_monomial(complex, s).is_zero()
                ]
                assert len(basis) == coefficient, (name, i)


def test_group_euler_characteristic_examples():
    assert group_euler_characteristic(k3()) == 0  # a simplex
    assert group_euler_characteristic(octahedron()) == -1
    assert group_euler_characteristic(c4()) == 1


def test_alternating_hilbert_sum_is_group_euler_characteristic():
    for name, complex in corpus():
        series = hilbert_series(complex)
        alternating = sum((-1) ** i * h for i, h in enumerate(series))
        assert alternating == group_euler_characteristic(complex), name


# -- finiteness reports --------------------------------------------------------


def test_octahedron_report():
    report = finiteness_report(octahedron())
    assert report.finitely_generated is True
    assert report.finitely_presented == "yes"
    assert report.fp_level == 2
    assert report.chi_delta == 2
    assert report.chi_group == -1
    assert report.corollary6_obstruction is True
    assert report.corollary7_applies is True
    text = render_report_text(report)
    assert "finitely presented but not of type FP" in text
    assert finiteness_report(octahedron(), tietze_budget=1).finitely_presented == "yes"


def test_dunce_hat_report():
    # Contractible, so H_Delta is of type F; pi_1 = 1 needs Tietze past the collapse.
    report = finiteness_report(dunce_hat())
    assert report.finitely_presented == "yes"
    assert report.fp_level is None and report.chi_delta == 1
    assert finiteness_report(dunce_hat(), tietze_budget=5).finitely_presented == "unknown"


def test_two_points_report():
    report = finiteness_report(two_points())
    assert report.finitely_generated is False
    assert report.finitely_presented == "no"
    assert report.fp_level == 0
    text = render_report_text(report)
    assert "not finitely generated" in text


def test_c4_report_is_the_rank_one_bieri_case():
    report = finiteness_report(c4())
    assert report.finitely_generated is True
    assert report.finitely_presented == "no"
    assert report.fp_level == 1
    assert report.chi_delta == 0
    assert report.corollary7_applies is False


def test_report_makes_one_breadth_first_search(monkeypatch):
    # Reduced H_0 answers connectivity; only the collapse's spanning tree
    # searches, and C4's H_1 != 0 answers without a collapse.
    from bbgroups import complexes

    searches = []
    original = complexes._bfs_parents

    def counting(complex, root):
        searches.append(root)
        return original(complex, root)

    monkeypatch.setattr(complexes, "_bfs_parents", counting)
    for complex, count in ((octahedron(), 1), (c4(), 0)):
        searches.clear()
        assert finiteness_report(complex).finitely_generated is True
        assert len(searches) == count
    searches.clear()
    report = finiteness_report(two_points())
    assert report.finitely_generated is False and report.finitely_presented == "no"
    assert "finitely generated: no" in render_report_text(report)


def test_report_answers_as_simply_connected_status(monkeypatch):
    # H_1 != 0 answers "no" (Hurewicz); only H_1 = 0 asks for the pi_1 status.
    from bbgroups import complexes, facering

    asked = []
    status = complexes.simply_connected_status

    def counting(complex, budget):
        asked.append(complex)
        return status(complex, budget=budget)

    monkeypatch.setattr(facering, "simply_connected_status", counting)
    answer = {
        Pi1Status.CERTIFIED_TRIVIAL: "yes",
        Pi1Status.CERTIFIED_NONTRIVIAL: "no",
        Pi1Status.UNKNOWN: "unknown",
    }
    complexes_ = connected_corpus() + [("dunce_hat", dunce_hat()), ("rp2", projective_plane())]
    complexes_ += [(f"random{s}", random_flag_complex(s)) for s in range(32)]
    for name, complex in complexes_:
        h1_trivial = homology(complex, reduced=True).is_trivial(1)
        for budget in (1, 2, TIETZE_BUDGET):
            asked.clear()
            report = facering.finiteness_report(complex, tietze_budget=budget)
            expected = status(complex, budget=budget)
            assert report.finitely_presented == answer[expected], (name, budget)
            assert report.corollary7_applies == (
                expected is Pi1Status.CERTIFIED_TRIVIAL and report.chi_delta != 1
            ), (name, budget)
            assert asked == ([complex] if h1_trivial else []), (name, budget)


def test_simplex_report_is_type_fp():
    report = finiteness_report(k3())
    assert report.fp_level is None  # acyclic: FP(n) for every n
    assert report.corollary6_obstruction is False
    assert report.corollary7_applies is False
    assert "not excluded" in render_report_text(report)


def test_torsion_alone_decides_the_fp_level():
    # Every Betti number of the suspended projective plane is zero; only
    # the Z/2 in H_2 keeps the kernel from being of type FP(3).
    report = finiteness_report(suspension(projective_plane()))
    assert report.finitely_presented == "yes"
    assert report.fp_level == 2
    assert report.homology_betti == (1, 0, 0, 0)
    assert report.chi_delta == 1


def test_report_monotone_consistency():
    for name, complex in corpus():
        report = finiteness_report(complex)
        assert report.homology_betti == homology(complex).betti, name
        if report.finitely_presented == "yes":
            assert report.finitely_generated, name
            assert report.fp_level is None or report.fp_level >= 2, name
        if report.finitely_generated:
            assert report.fp_level is None or report.fp_level >= 1, name
        # fp_level agrees with the reduced homology ladder
        reduced = homology(complex, reduced=True)
        for k in range(len(reduced.betti)):
            vanishes = reduced.is_trivial(k)
            if report.fp_level is None or k < report.fp_level:
                assert vanishes, (name, k)
            elif k == report.fp_level:
                assert not vanishes, (name, k)
                break


def test_report_json_fields():
    data = report_to_json(finiteness_report(octahedron()))
    assert set(data) == {
        "finitely_generated",
        "finitely_presented",
        "fp_level",
        "chi_delta",
        "chi_group",
        "corollary6_obstruction",
        "corollary7_applies",
        "f_vector",
        "homology_betti",
        "licenses",
    }
    assert data["fp_level"] == 2
    assert data["f_vector"] == [6, 12, 8]


def test_report_rejects_empty():
    with pytest.raises(ValueError, match="nonempty"):
        finiteness_report(FlagComplex([], []))


def test_euler_characteristic_relation():
    for name, complex in corpus():
        assert group_euler_characteristic(complex) == 1 - euler_characteristic(
            complex
        ), name
