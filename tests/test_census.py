"""Answers checked by the mathematics, not by an earlier version's output.

The census runs over every nonempty graph of ``networkx.graph_atlas_g()``
(every graph on at most 7 vertices, up to isomorphism); networkx is a
test-only dependency, so the census skips without it.  The metamorphic
relations run over seeded random graphs on 3 to 8 vertices.
"""

import random

import pytest

from bbgroups import (
    BBContext,
    FlagComplex,
    Pi1Status,
    abelianization,
    finite_presentation,
    finiteness_report,
    homology,
    pi1_presentation,
    presentation_relator_edge_words,
    render_report_text,
    simply_connected_status,
    verify_relator,
)
from corpus import random_flag_complex, suspension


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
