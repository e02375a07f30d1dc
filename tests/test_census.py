"""Answers checked by the mathematics, not by an earlier version's output.

The census runs over every nonempty graph of ``networkx.graph_atlas_g()``
(every graph on at most 7 vertices, up to isomorphism); networkx is a
test-only dependency, so the census skips without it.  The metamorphic
relations run over seeded random graphs on 3 to 8 vertices, and those of
joins and disjoint unions over seeded pairs of graphs on 2 to 7 vertices.
"""

import random

import pytest

from bbgroups import (
    BBContext,
    FlagComplex,
    Pi1Status,
    RaagContext,
    Word,
    abelianization,
    euler_characteristic,
    finite_presentation,
    finiteness_report,
    homology,
    pi1_presentation,
    presentation_relator_edge_words,
    render_report_text,
    simply_connected_status,
    verify_relator,
)
from corpus import order_complex, random_flag_complex, suspension


def test_graph_atlas_census():
    # Budget 1 never leaves pi_1 Unknown on these graphs; H_1 is the
    # abelianized pi_1 (Hurewicz); every bb-finite relator dies in the RAAG.
    nx = pytest.importorskip("networkx")
    graphs = connected = 0
    for graph in nx.graph_atlas_g():
        if not graph.number_of_nodes():
            continue
        graphs += 1
        name = {v: f"v{v}" for v in graph.nodes}
        complex = FlagComplex(list(name.values()), [(name[u], name[v]) for u, v in graph.edges])
        if not complex.is_connected():
            continue
        connected += 1
        edges = sorted(complex.edges)
        assert simply_connected_status(complex, budget=1) is not Pi1Status.UNKNOWN, edges
        h = homology(complex)
        h1 = (h.betti[1], h.torsion[1]) if len(h.betti) > 1 else (0, ())
        ab = abelianization(pi1_presentation(complex))
        assert (ab.rank, tuple(ab.torsion)) == h1, edges
        ctx = BBContext(complex)
        for word in presentation_relator_edge_words(finite_presentation(ctx), ctx):
            assert verify_relator(word, ctx), (edges, word)
    assert (graphs, connected) == (1252, 996)


def seeded_graphs():
    """About 150 seeded graphs on 3 to 8 vertices, connected or not."""
    for seed in range(150):
        rng = random.Random(seed)
        n, p = rng.randint(3, 8), rng.choice((0.3, 0.5, 0.7))
        yield seed, random_flag_complex(seed, n=n, p=p, require_connected=False)


def test_vertex_order_leaves_the_report_unchanged():
    for seed, complex in seeded_graphs():
        order = list(complex.vertices)
        random.Random(seed).shuffle(order)
        shuffled = FlagComplex(order, complex.edges)
        expected = render_report_text(finiteness_report(complex))
        assert render_report_text(finiteness_report(shuffled)) == expected, (seed, order)


def test_a_cone_point_makes_the_kernel_finitely_presented_of_type_fp():
    for seed, complex in seeded_graphs():
        cone_edges = list(complex.edges) + [("apex", v) for v in complex.vertices]
        for order in (["apex", *complex.vertices], [*complex.vertices, "apex"]):
            report = finiteness_report(FlagComplex(order, cone_edges))
            assert report.finitely_presented == "yes", (seed, order)
            assert report.fp_level is None, (seed, order)


def test_suspension_shifts_reduced_homology_up_one_degree():
    for seed, complex in seeded_graphs():
        h = homology(complex, reduced=True)
        s = homology(suspension(complex), reduced=True)
        assert (s.betti, s.torsion) == ((0,) + h.betti, ((),) + h.torsion), seed


def reduced_betti(complex):
    return homology(complex, reduced=True).betti


def side_by_side(k, l, joined):
    """The disjoint union of two flag complexes, their vertices renamed k...
    and l...; with ``joined``, every vertex of K is adjacent to every vertex
    of L, which gives the join K * L."""
    kv, lv = [f"k{v}" for v in k.vertices], [f"l{v}" for v in l.vertices]
    edges = [(f"k{u}", f"k{v}") for u, v in k.edges] + [(f"l{u}", f"l{v}") for u, v in l.edges]
    if joined:
        edges += [(u, v) for u in kv for v in lv]
    return FlagComplex(kv + lv, edges)


def seeded_pairs():
    """40 seeded pairs of graphs on 2 to 7 vertices, connected or not."""
    for seed in range(40):
        rng = random.Random(1000 + seed)
        yield seed, [
            random_flag_complex(
                rng.randrange(10**6),
                n=rng.randint(2, 7),
                p=rng.choice((0.2, 0.4, 0.6)),
                require_connected=False,
            )
            for _ in range(2)
        ]


def test_a_join_multiplies_reduced_euler_characteristics_and_follows_kunneth():
    # chi~(K * L) = -chi~(K) chi~(L), and over Q
    # b~_{n+1}(K * L) = sum over i + j = n of b~_i(K) b~_j(L) (Milnor).
    chi = lambda c: euler_characteristic(c) - 1  # noqa: E731
    for seed, (k, l) in seeded_pairs():
        kl = side_by_side(k, l, joined=True)
        assert chi(kl) == -chi(k) * chi(l), seed
        bk, bl, bkl = reduced_betti(k), reduced_betti(l), reduced_betti(kl)
        expected = [0] * (len(bk) + len(bl))
        for i, x in enumerate(bk):
            for j, y in enumerate(bl):
                expected[i + j + 1] += x * y
        assert list(bkl) + [0] * (len(expected) - len(bkl)) == expected, seed


def test_words_over_the_two_sides_of_a_join_commute():
    for seed, (k, l) in seeded_pairs():
        raag = RaagContext(side_by_side(k, l, joined=True))
        rng = random.Random(seed)
        u, v = (
            Word(raag.alphabet, [(tag + rng.choice(c.vertices), rng.choice((1, -1)))
                                 for _ in range(rng.randint(0, 12))])
            for tag, c in (("k", k), ("l", l))
        )
        assert raag.normal_form(u * v) == raag.normal_form(v * u), seed


def test_a_disjoint_union_is_not_finitely_generated():
    for seed, (k, l) in seeded_pairs():
        text = render_report_text(finiteness_report(side_by_side(k, l, joined=False)))
        assert "\nfinitely generated: no " in text, seed


def test_the_order_complex_keeps_reduced_homology_and_pi1_status():
    # Vertex names v0 ... v7 keep the order complex's face names distinct.
    trivial, nontrivial = Pi1Status.CERTIFIED_TRIVIAL, Pi1Status.CERTIFIED_NONTRIVIAL
    checked = 0
    for seed, complex in seeded_graphs():
        if complex.dim > 2:
            continue
        checked += 1
        simplices = [s for k in range(complex.dim + 1) for s in complex.simplices(k)]
        subdivided = order_complex(simplices)
        h, hs = homology(complex, reduced=True), homology(subdivided, reduced=True)
        assert (hs.betti, hs.torsion) == (h.betti, h.torsion), seed
        if complex.is_connected():
            statuses = {simply_connected_status(complex), simply_connected_status(subdivided)}
            assert statuses != {trivial, nontrivial}, seed
    assert checked > 50
