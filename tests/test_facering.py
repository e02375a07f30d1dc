"""Tests for the face ring's rank sequence and the finiteness report."""

import pytest

from bbgroups import (
    FlagComplex,
    Pi1Status,
    euler_characteristic,
    finiteness_report,
    group_euler_characteristic,
    hilbert_series,
    homology,
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
    projective_plane,
    random_flag_complex,
    suspension,
    two_points,
    wedge,
)
import bbgroups.complexes as complexes_module
from bbgroups.presentations import TIETZE_BUDGET, abelianization
from oracles import brute_force_simplices


# -- hilbert series and Euler characteristics --------------------------------


def test_hilbert_series_examples():
    assert hilbert_series(FlagComplex(["a"], [])) == (1, 1)
    assert hilbert_series(octahedron()) == (1, 6, 12, 8)
    assert hilbert_series(k3()) == (1, 3, 3, 1)  # exterior algebra on 3 letters


def test_hilbert_coefficients_count_monomial_basis():
    # degree i > 0 has one basis monomial per (i-1)-simplex, found by brute force
    for name, complex in corpus():
        levels = brute_force_simplices(complex.vertices, complex.edges)
        expected = (1,) + tuple(len(level) for level in levels)
        assert hilbert_series(complex) == expected, name


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


def test_dunce_hat_report(monkeypatch):
    # Contractible, so H_Delta is of type F; pi_1 = 1 needs Tietze past the
    # collapse, and Tietze empties the 24-edge residual before any of it is
    # abelianized.  At budget 5 Tietze stops short, and the residual is
    # abelianized once to tell Unknown from CertifiedNontrivial.
    calls = []
    monkeypatch.setattr(
        complexes_module, "abelianization", lambda p: calls.append(p) or abelianization(p)
    )
    report = finiteness_report(dunce_hat())
    assert report.finitely_presented == "yes" and calls == []
    assert report.fp_level is None and report.chi_delta == 1
    assert finiteness_report(dunce_hat(), tietze_budget=5).finitely_presented == "unknown"
    assert [len(p.generators) for p in calls] == [24]


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
    # The dunce hat wedged with the octahedron: Unknown at budgets 1 and 2
    # with chi = 2, where Corollary 7 must not apply.
    hat_octahedron = wedge(dunce_hat(), octahedron())
    complexes_ = connected_corpus() + [("dunce_hat", dunce_hat()), ("rp2", projective_plane())]
    complexes_.append(("dunce_hat_wedge_octahedron", hat_octahedron))
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
    for budget, presented, applies in ((1, "unknown", False), (2, "unknown", False), (TIETZE_BUDGET, "yes", True)):
        report = facering.finiteness_report(hat_octahedron, tietze_budget=budget)
        assert (report.finitely_presented, report.chi_delta, report.corollary7_applies) == (presented, 2, applies)


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
