"""Tests for flag complex construction, homology, and the graph parsers."""

import copy
import json
import pickle
import random
import sys
import tracemalloc

import pytest

from bbgroups import (
    DirectedEdge,
    FlagComplex,
    ParseError,
    Pi1Status,
    SpanningTree,
    abelianization,
    boundary_matrix,
    euler_characteristic,
    homology,
    parse_complex,
    parse_graph_json,
    parse_graph_text,
    pi1_presentation,
    simply_connected_status,
    snf,
)
from bbgroups import complexes
from bbgroups.cli import main
from bbgroups.complexes import _collapse, edge_path_presentation
from bbgroups.errors import tokens
from bbgroups.presentations import TIETZE_BUDGET
from corpus import (
    MALFORMED_GRAPHS,
    c4,
    complete_graph,
    connected_corpus,
    corpus,
    disjoint_union,
    dunce_hat,
    edge_complex,
    grid_disk,
    join_of_pairs,
    k3,
    octahedron,
    path3,
    point,
    projective_plane,
    random_flag_complex,
    sparse,
    suspension,
    three_points,
    two_points,
)
from oracles import (
    brute_force_simplices,
    collapse_replays,
    dense_boundary_matrix,
    naive_invariant_factors,
)


# -- construction -------------------------------------------------------


def levels(complex):
    return tuple(complex.simplices(k) for k in range(complex.dim + 1))


def test_k3_f_vector():
    assert k3().f_vector() == (3, 3, 1)


def test_octahedron_f_vector_matches_subset_enumeration():
    complex = octahedron()
    oracle = brute_force_simplices(complex.vertices, complex.edges)
    assert complex.f_vector() == tuple(len(level) for level in oracle)
    assert complex.f_vector() == (6, 12, 8)
    assert levels(complex) == oracle


def test_c4_has_no_triangles():
    assert c4().f_vector() == (4, 4)


def test_simplices_match_oracle_on_random_complexes():
    for seed in (11, 22, 33):
        complex = random_flag_complex(seed, n=7, p=0.5, require_connected=False)
        oracle = brute_force_simplices(complex.vertices, complex.edges)
        assert levels(complex) == oracle


def test_levels_do_not_depend_on_the_order_they_are_asked_for():
    rng = random.Random(4)
    draws = [
        (f"g9_{s}", random_flag_complex(s, n=9, p=0.6, require_connected=False))
        for s in range(8)
    ]
    for name, reference in corpus() + draws:
        graph = (reference.vertices, reference.edges)
        oracle = brute_force_simplices(*graph)
        full = FlagComplex(*graph)
        f = full.f_vector()
        lazy = FlagComplex(*graph)
        order = list(range(-1, len(oracle) + 2))
        rng.shuffle(order)
        for k in order:
            expected = oracle[k] if 0 <= k < len(oracle) else ()
            assert lazy.simplices(k) == FlagComplex(*graph).simplices(k), (name, k)
            assert lazy.simplices(k) == full.simplices(k) == expected, (name, k)
        fresh = FlagComplex(*graph)
        before = (fresh.edges, hash(fresh), fresh == lazy, fresh == full)
        assert (fresh.dim, fresh.f_vector()) == (lazy.dim, lazy.f_vector()) == (full.dim, f)
        assert (fresh.edges, hash(fresh), fresh == lazy, fresh == full) == before, name
        assert before == (oracle[1] if len(oracle) > 1 else (), hash(full), True, True), name
        assert f == tuple(len(level) for level in oracle), name


def test_express_reads_no_level_above_the_edges(tmp_path, capsys):
    # K16 has 2^16 - 1 simplices; express needs its 120 edges only.
    k16 = complete_graph(16)
    graph = tmp_path / "k16.txt"
    edges = " ".join(f"{u}-{v}" for u, v in k16.edges)
    graph.write_text(f"vertices: {' '.join(k16.vertices)}\nedges: {edges}\n")
    tracemalloc.start()
    try:
        code = main(["express", str(graph), "v0 v1^-1"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (code, capsys.readouterr().out) == (0, "[v0>v1]\n")
    assert peak < 2 * 2**20


def test_flag_property_every_clique_is_a_simplex():
    from itertools import combinations

    k4 = FlagComplex("abcd", list(combinations("abcd", 2)))
    assert k4.f_vector() == (4, 6, 4, 1)
    assert euler_characteristic(k4) == 1
    for complex in (k4, random_flag_complex(5, n=8, p=0.5, require_connected=False)):
        for k in range(2, len(complex.vertices) + 1):
            level = set(complex.simplices(k - 1))
            for subset in combinations(complex.vertices, k):
                is_clique = all(
                    complex.adjacent(u, v) for u, v in combinations(subset, 2)
                )
                assert (subset in level) == is_clique


def test_construction_errors():
    with pytest.raises(ValueError, match="not a declared vertex"):
        FlagComplex(["a"], [("a", "b")])
    with pytest.raises(ValueError, match="loop"):
        FlagComplex(["a", "b"], [("a", "a")])
    with pytest.raises(ValueError, match="duplicate vertex"):
        FlagComplex(["a", "a"], [])
    with pytest.raises(ValueError, match="duplicate edge"):
        FlagComplex(["a", "b"], [("a", "b"), ("b", "a")])
    with pytest.raises(ValueError, match="forbidden character"):
        FlagComplex(["a-b"], [])
    with pytest.raises(ValueError, match="nonempty"):
        FlagComplex([""], [])


@pytest.mark.parametrize(
    "vertices, edges",
    [
        (["a", "a"], []),
        (["a-b"], []),
        (["a", "b"], [("a", "c")]),
        (["a"], [("a", "a")]),
        (["a", "b"], [("a", "b"), ("b", "a")]),
    ],
)
def test_graph_rules_give_one_message_for_every_input_form(vertices, edges):
    with pytest.raises(ValueError) as direct:
        FlagComplex(vertices, edges)
    message = str(direct.value)
    text = "vertices: " + " ".join(vertices) + "\nedges: "
    text += " ".join(f"{u}-{v}" for u, v in edges) + "\n"
    with pytest.raises(ParseError) as from_text:
        parse_graph_text(text)
    err = from_text.value
    assert str(err) == f"line {err.line}, column {err.column}: {message}"
    data = json.dumps({"vertices": vertices, "edges": [list(e) for e in edges]})
    with pytest.raises(ParseError) as from_json:
        parse_graph_json(data)
    assert str(from_json.value) == message


# -- Euler characteristic and homology ---------------------------------


def test_euler_characteristic_examples():
    assert euler_characteristic(FlagComplex(["a"], [])) == 1
    assert euler_characteristic(octahedron()) == 2
    assert euler_characteristic(c4()) == 0


def test_homology_examples():
    assert homology(three_points()).betti == (3,)
    oct_h = homology(octahedron())
    assert oct_h.betti == (1, 0, 1)
    assert all(t == () for t in oct_h.torsion)
    assert homology(c4()).betti == (1, 1)


def test_homology_reduced():
    assert homology(two_points(), reduced=True).betti == (1,)
    assert homology(octahedron(), reduced=True).betti == (0, 0, 1)


def test_octahedron_betti_against_naive_snf_oracle():
    complex = octahedron()
    d1 = dense_boundary_matrix(complex, 1)
    d2 = dense_boundary_matrix(complex, 2)
    assert len(d1) == 6 and len(d1[0]) == 12
    assert len(d2) == 12 and len(d2[0]) == 8
    assert [boundary_matrix(complex, k) for k in (1, 2)] == [sparse(d1), sparse(d2)]
    r1 = len(naive_invariant_factors(d1))
    r2 = len(naive_invariant_factors(d2))
    assert (6 - r1, 12 - r1 - r2, 8 - r2) == (1, 0, 1)


def assert_homology_matches_the_dense_oracle(complex):
    """Reduced and unreduced homology against dense boundary matrices and the
    naive Smith form, in every degree."""
    f = complex.f_vector()
    for reduced in (False, True):
        factors = [(1,) if reduced and f else ()]
        factors += [naive_invariant_factors(dense_boundary_matrix(complex, k)) for k in range(1, len(f))]
        factors.append(())
        h = homology(complex, reduced=reduced)
        assert h.betti == tuple(f[k] - len(factors[k]) - len(factors[k + 1]) for k in range(len(f)))
        assert h.torsion == tuple(tuple(d for d in factors[k + 1] if d > 1) for k in range(len(f)))


@pytest.mark.parametrize(
    "complex",
    [
        FlagComplex([], []),
        point(),
        three_points(),
        FlagComplex([f"v{i}" for i in range(6)], []),
        disjoint_union(k3(), point()),
        disjoint_union(c4(), point(), k3(), path3(), point()),
        disjoint_union(octahedron(), edge_complex(), three_points()),
        disjoint_union(projective_plane(), c4(), point()),
    ],
    ids=["empty", "point", "three_points", "six_points", "k3+point", "five_parts", "sphere+edge+points", "rp2+c4+point"],
)
def test_homology_matches_the_dense_oracle_in_every_degree(complex):
    # d_1's invariant factors come from the graph's components, not from SNF.
    assert_homology_matches_the_dense_oracle(complex)


def test_homology_matches_the_dense_oracle_on_random_graphs():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @hypothesis.given(st.integers(0, 2**32), st.integers(0, 9), st.sampled_from((0.0, 0.15, 0.3, 0.5, 0.7)))
    def check(seed, n, p):
        assert_homology_matches_the_dense_oracle(random_flag_complex(seed, n=n, p=p, require_connected=False))

    check()


def test_boundary_of_boundary_is_zero_everywhere():
    for _, complex in corpus():
        for k in range(2, complex.dim + 1):
            product = snf.matrix_multiply(
                boundary_matrix(complex, k - 1), boundary_matrix(complex, k)
            )
            assert snf.is_zero_matrix(product)


def test_euler_characteristic_equals_alternating_betti_sum():
    for name, complex in corpus():
        h = homology(complex)
        chi = sum((-1) ** k * b for k, b in enumerate(h.betti))
        assert chi == euler_characteristic(complex), name


def test_projective_plane_has_two_torsion():
    complex = projective_plane()
    assert complex.f_vector() == (31, 90, 60)
    assert euler_characteristic(complex) == 1
    h = homology(complex)
    assert h.betti == (1, 0, 0)
    assert h.torsion == ((), (2,), ())  # H_1 = Z/2
    assert simply_connected_status(complex) is Pi1Status.CERTIFIED_NONTRIVIAL


def test_homology_of_large_known_complexes():
    # Large enough that the elimination must stay sparse to finish quickly.
    disk = homology(grid_disk(20), reduced=True)
    assert disk.betti == (0, 0, 0) and not any(disk.torsion)
    sphere = homology(join_of_pairs(7), reduced=True)
    assert sphere.betti == (0, 0, 0, 0, 0, 0, 1) and not any(sphere.torsion)
    suspended = suspension(projective_plane())
    assert suspended.f_vector() == (33, 152, 240, 120)
    h = homology(suspended, reduced=True)
    assert h.betti == (0, 0, 0, 0)
    assert h.torsion == ((), (), (2,), ())  # H_2 = Z/2


def test_homology_of_a_dense_random_flag_complex_stays_small():
    # Its boundary matrices have 16 million entries, 30,448 of them
    # nonzero; as dense rows they take about 150 MB.
    complex = random_flag_complex(1, n=60, p=0.45)
    tracemalloc.start()
    try:
        h = homology(complex, reduced=True)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert complex.f_vector() == (60, 787, 2903, 3272, 1212, 159, 9)
    assert h.betti == (0, 0, 41, 76, 0, 0, 0) and not any(h.torsion)
    assert sum((-1) ** k * b for k, b in enumerate(h.betti)) == euler_characteristic(complex) - 1
    assert peak < 20 * 2**20


def test_homology_torsion_is_a_divisibility_chain():
    for name, complex in corpus() + [("rp2", projective_plane())]:
        h = homology(complex)
        for chain in h.torsion:
            for a, b in zip(chain, chain[1:]):
                assert b % a == 0, name


def test_homology_checks_that_the_boundary_of_a_boundary_vanishes(monkeypatch):
    def one_sign_flipped(complex, k):
        matrix = boundary_matrix(complex, k)
        if k == 2:
            row = next(row for row in matrix if row)
            column = min(row)
            row[column] = -row[column]
        return matrix

    monkeypatch.setattr(complexes, "boundary_matrix", one_sign_flipped)
    with pytest.raises(AssertionError, match=r"^boundary composition d_1 d_2 is nonzero$"):
        homology(k3())


# -- fundamental group ---------------------------------------------------


def test_pi1_of_a_tree_is_free_on_nothing():
    pres = pi1_presentation(path3())
    assert pres.generators == ()
    assert pres.relators == ()


def test_pi1_of_c4_is_infinite_cyclic():
    pres = pi1_presentation(c4())
    assert len(pres.generators) == 1
    assert pres.relators == ()


def test_pi1_of_k3_is_trivial():
    pres = pi1_presentation(k3())
    assert len(pres.generators) == 1
    assert len(pres.relators) == 1
    assert len(pres.relators[0]) == 1  # the single generator is killed


def test_pi1_requires_connected():
    with pytest.raises(ValueError, match="connected"):
        pi1_presentation(two_points())


def test_pi1_abelianization_matches_first_homology():
    for name, complex in connected_corpus():
        ab = abelianization(pi1_presentation(complex))
        h = homology(complex)
        b1 = h.betti[1] if len(h.betti) > 1 else 0
        t1 = h.torsion[1] if len(h.torsion) > 1 else ()
        assert (ab.rank, ab.torsion) == (b1, t1), name


def test_simply_connected_status_examples():
    # The spanning-tree collapse matches every non-tree edge of the
    # octahedron, so it is certified with no Tietze move at any budget.
    for budget in (1, 5, 10, TIETZE_BUDGET):
        assert simply_connected_status(octahedron(), budget) is Pi1Status.CERTIFIED_TRIVIAL
    # The dunce hat is contractible but not collapsible: its 24 critical
    # edges take Tietze more than 5 moves and at most 50 to empty.
    hat = dunce_hat()
    for budget in (1, 2, 5):
        assert simply_connected_status(hat, budget) is Pi1Status.UNKNOWN
    for budget in (50, TIETZE_BUDGET):
        assert simply_connected_status(hat, budget) is Pi1Status.CERTIFIED_TRIVIAL
    assert simply_connected_status(c4()) is Pi1Status.CERTIFIED_NONTRIVIAL
    assert simply_connected_status(k3()) is Pi1Status.CERTIFIED_TRIVIAL
    with pytest.raises(ValueError, match="connected"):
        simply_connected_status(three_points())
    for name, complex in connected_corpus():
        nontrivial = simply_connected_status(complex) is Pi1Status.CERTIFIED_NONTRIVIAL
        assert nontrivial == (not homology(complex, reduced=True).is_trivial(1)), name


def test_simply_connected_status_of_a_dense_random_flag_complex():
    # 2148 non-tree edges and 15,091 triangles: Tietze on the whole
    # edge-path presentation ran for a minute and still answered Unknown;
    # the collapse matches every non-tree edge.
    assert simply_connected_status(random_flag_complex(1, n=100, p=0.45)) is (
        Pi1Status.CERTIFIED_TRIVIAL
    )


def test_collapse_certificate_replays_and_its_residual_abelianizes_to_h1():
    cases = (
        connected_corpus()
        + [(f"g9_{s}", random_flag_complex(s, n=9, p=0.5)) for s in range(1, 25)]
        + [(f"g14_{s}", random_flag_complex(s, n=14, p=0.35)) for s in range(1, 9)]
        + [("grid5", grid_disk(5)), ("rp2", projective_plane()), ("hat", dunce_hat())]
    )
    for name, complex in cases:
        tree, pairs, critical = _collapse(complex)
        assert collapse_replays(complex, tree, pairs, critical), name
        residual = edge_path_presentation(complex, tree.union(e for _, e in pairs))
        assert residual.generators == tuple(str(DirectedEdge(*e)) for e in critical)
        ab = abelianization(residual)
        h = homology(complex, reduced=True)
        h1 = (h.betti[1], h.torsion[1]) if len(h.betti) > 1 else (0, ())
        assert (ab.rank, ab.torsion) == h1, name
        if not critical:
            assert h.is_trivial(1), name


def test_collapse_replay_rejects_tampered_certificates():
    complex = dunce_hat()
    tree, pairs, critical = _collapse(complex)
    assert len(critical) == 24
    assert collapse_replays(complex, tree, pairs, critical)
    # Pair i's triangle holds pair i - 1's edge, so it must come after it.
    i = next(i for i in range(1, len(pairs)) if set(pairs[i - 1][1]) <= set(pairs[i][0]))
    swapped = pairs[: i - 1] + [pairs[i], pairs[i - 1]] + pairs[i + 1 :]
    assert not collapse_replays(complex, tree, swapped, critical)
    (a, b, c), edge = pairs[0]
    wrong = next(e for e in ((a, b), (b, c), (a, c)) if e != edge)
    assert not collapse_replays(complex, tree, [((a, b, c), wrong)] + pairs[1:], critical)
    assert not collapse_replays(complex, tree, pairs, critical[1:])
    assert not collapse_replays(complex, tree, pairs, critical + critical[:1])
    assert not collapse_replays(complex, set(list(tree)[1:]), pairs, critical)


# -- spanning trees -------------------------------------------------------


def test_bfs_tree_is_deterministic():
    tree = SpanningTree(c4(), "a")
    assert tree.parent == {"a": None, "b": "a", "d": "a", "c": "b"}
    assert tuple(tree.parent) == ("a", "b", "d", "c")


def test_tree_paths():
    tree = SpanningTree(path3(), "a")
    assert tree.path_vertices("a", "c") == ["a", "b", "c"]
    assert tree.path_vertices("c", "a") == ["c", "b", "a"]
    assert tree.path_vertices("b", "b") == ["b"]
    edges = tree.path_edges("a", "c")
    assert [(e.initial, e.terminal) for e in edges] == [("a", "b"), ("b", "c")]


def _tree_path_oracle(tree, u, v):
    """The path from u to v found by a breadth-first search over the tree's
    ``parent`` edges alone."""
    adjacent = {w: set() for w in tree.parent}
    for w, p in tree.parent.items():
        if p is not None:
            adjacent[w].add(p)
            adjacent[p].add(w)
    came_from = {u: None}
    queue = [u]
    for x in queue:
        for y in adjacent[x]:
            if y not in came_from:
                came_from[y] = x
                queue.append(y)
    path = [v]
    while path[-1] != u:
        path.append(came_from[path[-1]])
    return path[::-1]


def _spider():
    """Three legs of lengths 3, 2, 3 from the center o; rooted at a leg's tip,
    its tree paths meet at o or along a leg, away from the root."""
    legs = [["x1", "x2", "x3"], ["y1", "y2"], ["z1", "z2", "z3"]]
    edges = [(a, b) for leg in legs for a, b in zip(["o"] + leg, leg)]
    return FlagComplex(["o"] + [v for leg in legs for v in leg], edges)


def test_tree_paths_match_an_independent_search():
    path6 = FlagComplex([f"p{i}" for i in range(6)], [(f"p{i}", f"p{i + 1}") for i in range(5)])
    complexes = connected_corpus() + [("path6", path6), ("spider", _spider())]
    for name, complex in complexes:
        for root in complex.vertices:
            tree = SpanningTree(complex, root)
            pairs = {frozenset((w, p)) for w, p in tree.parent.items() if p is not None}
            assert {frozenset(e) for e in tree.edges} == pairs, (name, root)
            assert len(tree.edges) == len(complex.vertices) - 1, (name, root)
            assert tree.edges <= set(complex.edges), (name, root)
            for u in complex.vertices:
                for v in complex.vertices:
                    path = tree.path_vertices(u, v)
                    assert path == _tree_path_oracle(tree, u, v), (name, root, u, v)
                    assert path == tree.path_vertices(v, u)[::-1], (name, root, u, v)
    tree = SpanningTree(_spider(), "x3")
    assert tree.path_vertices("y2", "z3") == ["y2", "y1", "o", "z1", "z2", "z3"]
    assert tree.path_vertices("x1", "z1") == ["x1", "o", "z1"]


def test_spanning_tree_rejects_bad_roots_and_disconnected_complexes():
    with pytest.raises(ValueError, match="not connected"):
        SpanningTree(two_points(), "a")
    with pytest.raises(ValueError, match="unknown vertex 'z'"):
        SpanningTree(two_points(), "z")
    with pytest.raises(ValueError, match="unknown vertex 'z'"):
        SpanningTree(path3(), "a").path_vertices("z", "q")
    assert not FlagComplex([], []).is_connected()
    assert FlagComplex(["a"], []).is_connected()
    assert not three_points().is_connected()


def test_copies_and_pickles_rebuild_through_the_checks():
    for complex in (octahedron(), two_points(), FlagComplex([], [])):
        complex.f_vector(), complex.is_connected()  # fill the lazy levels and search
        for twin in (copy.copy(complex), copy.deepcopy(complex), pickle.loads(pickle.dumps(complex))):
            assert twin == complex and twin.vertices == complex.vertices
            assert twin._levels is not complex._levels and twin._searches is not complex._searches
            assert homology(twin, reduced=True) == homology(complex, reduced=True)
            assert twin.is_connected() == complex.is_connected()


# -- parsers ---------------------------------------------------------------


def test_parse_graph_text_roundtrip():
    text = """
    # a square
    vertices: a b c d
    edges: a-b b-c c-d a-d
    """
    complex = parse_graph_text(text)
    assert complex == c4()


def test_parse_graph_text_diagnostics():
    with pytest.raises(ParseError) as err:
        parse_graph_text("vertices: a b\nedges: a-c\n")
    assert "unknown vertex 'c'" in str(err.value)
    assert err.value.line == 2

    with pytest.raises(ParseError, match="line 1.*duplicate vertex"):
        parse_graph_text("vertices: a a\n")
    with pytest.raises(ParseError, match="loop"):
        parse_graph_text("vertices: a\nedges: a-a\n")
    with pytest.raises(ParseError, match="duplicate edge"):
        parse_graph_text("vertices: a b\nedges: a-b b-a\n")
    with pytest.raises(ParseError, match="malformed edge"):
        parse_graph_text("vertices: a b\nedges: ab\n")
    with pytest.raises(ParseError, match="unrecognized line"):
        parse_graph_text("nodes: a b\n")


@pytest.mark.parametrize("name, text, data, where", MALFORMED_GRAPHS, ids=[g[0] for g in MALFORMED_GRAPHS])
def test_graph_text_errors_point_at_the_bad_token(name, text, data, where):
    line, column, message = where
    with pytest.raises(ParseError) as err:
        parse_graph_text(text)
    assert (err.value.line, err.value.column) == (line, column)
    assert str(err.value) == f"line {line}, column {column}: {message}"
    if data is not None:
        with pytest.raises(ParseError) as from_json:
            parse_graph_json(json.dumps(data))
        assert (from_json.value.line, from_json.value.column) == (None, None)
        assert str(from_json.value) == message


def test_graph_text_fields_split_where_token_columns_do():
    # parse_graph_text splits fields with str.split and asks errors.tokens for
    # a column only when it raises, so both must split at the same characters.
    text = "x".join(map(chr, range(sys.maxunicode + 1)))
    assert [tok for tok, _ in tokens(text)] == text.split()


def test_parse_graph_json():
    complex = parse_graph_json(
        '{"vertices": ["a", "b", "c"], "edges": [["a", "b"], ["b", "c"], ["a", "c"]]}'
    )
    assert complex == k3()
    with pytest.raises(ParseError):
        parse_graph_json("{not json")
    with pytest.raises(ParseError, match="unknown key"):
        parse_graph_json('{"vertices": [], "edgez": []}')
    with pytest.raises(ParseError, match="loop"):
        parse_graph_json('{"vertices": ["a"], "edges": [["a", "a"]]}')


@pytest.mark.parametrize("space", ["\u00a0", "\u2028", "\x1c", "\x85"])
def test_json_vertex_names_may_not_hold_any_whitespace(space):
    # The text form splits tokens and lines at every str.isspace character.
    name = f"a{space}b"
    data = {"vertices": [name, "c", "d"], "edges": [[name, "c"], ["c", "d"], [name, "d"]]}
    with pytest.raises(ParseError) as err:
        parse_graph_json(json.dumps(data))
    assert str(err.value) == (
        f"vertex identifier {name!r} contains forbidden character {space!r} "
        "(whitespace and - # [ ] > ^ are reserved by the text formats)"
    )


def test_parse_complex_sniffs_format():
    assert parse_complex('{"vertices": ["a"], "edges": []}').vertices == ("a",)
    assert parse_complex("vertices: a\n").vertices == ("a",)
