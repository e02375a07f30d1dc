"""Tests for the kernel presentations, proof maps, and homotopy moves."""

import inspect
import json
import random
import sys

import pytest

from bbgroups import (
    BBContext,
    DeleteMove,
    DirectedCycle,
    DirectedEdge,
    FlagComplex,
    InsertMove,
    Presentation,
    RaagContext,
    RotateMove,
    TriangleMove,
    Word,
    abelianization,
    apply_homotopy_move,
    apply_move_to_cycle,
    cycle_relator,
    directed_cycle_presentation,
    enumerate_cycle_classes,
    exponent_sum,
    express_in_kernel,
    find_move_sequence,
    finite_presentation,
    letterwise_inverse,
    parse_presentation,
    presentation_from_json,
    presentation_relator_edge_words,
    presentation_to_json,
    raag_image,
    relator_to_cycle,
    render_word,
    serialize_presentation,
    verify_relator,
)
from bbgroups import bestvina_brady as bb_module
from corpus import (
    c4,
    complete_graph,
    connected_corpus,
    declared_first,
    dunce_hat,
    edge_complex,
    k3,
    octahedron,
    path3,
    random_flag_complex,
    random_word,
    random_zero_sum_word,
    two_points,
)
from oracles import (
    ExtensionElement,
    basepoint_conjugate,
    brute_force_closed_walk_classes,
    conjugate_power,
    extension_identity,
    extension_image,
    extension_inverse,
    extension_multiply,
    finite_presentation_reference,
    fundamental_cycle_basis,
    homomorphism,
    lift_vertex,
    raag_table,
    substitute,
    tree_path_word,
    verify_reference,
)


def k3_ctx():
    return BBContext(k3())


def vw(ctx, text):
    from bbgroups import parse_word

    return parse_word(text, ctx.vertex_alphabet)


def ew(ctx, text):
    from bbgroups import parse_word

    return parse_word(text, ctx.edge_alphabet)


# -- the edge-to-vertex map ----------------------------------------------


def test_raag_image_of_single_edge():
    ctx = k3_ctx()
    assert render_word(raag_image(ew(ctx, "[a>b]"), ctx)) == "a b^-1"


def test_raag_image_of_backtrack_cancels():
    ctx = k3_ctx()
    assert len(raag_image(ew(ctx, "[a>b] [b>a]"), ctx)) == 0


def test_raag_image_of_cycle_word_telescopes():
    ctx = BBContext(c4())
    word = ew(ctx, "[a>b] [b>c] [c>d] [d>a]")
    assert verify_relator(word, ctx)


def test_raag_image_has_exponent_sum_zero():
    ctx = BBContext(octahedron())
    rng = random.Random(31)
    for _ in range(100):
        word = random_word(rng, ctx.edge_alphabet, rng.randint(0, 12))
        assert exponent_sum(raag_image(word, ctx)) == 0


def test_raag_image_spells_the_table_route_letter_for_letter():
    # [a>b] -> a b^-1 and [a>b]^-1 -> b a^-1, pinned against the word-map table
    rng = random.Random(37)
    for name, complex in connected_corpus():
        if not complex.edges:
            continue
        ctx = BBContext(complex)
        table = raag_table(ctx)
        for _ in range(20):
            word = random_word(rng, ctx.edge_alphabet, rng.randint(0, 12))
            expected = Word(ctx.vertex_alphabet, substitute(word.letters, table))
            assert raag_image(word, ctx).letters == expected.letters, (name, render_word(word))


def test_raag_image_rejects_vertex_words():
    ctx = k3_ctx()
    with pytest.raises(ValueError, match="directed-edge alphabet"):
        raag_image(vw(ctx, "a"), ctx)


# -- tree path words -------------------------------------------------------


def test_tree_path_word_examples():
    ctx = BBContext(path3())  # basepoint a
    assert len(tree_path_word(ctx, "a", "a")) == 0
    assert render_word(tree_path_word(ctx, "a", "b")) == "[a>b]"
    p_ac = tree_path_word(ctx, "a", "c")
    assert render_word(p_ac) == "[a>b] [b>c]"
    image = raag_image(p_ac, ctx)
    assert render_word(image) == "a c^-1"


def test_tree_path_word_unknown_vertex():
    ctx = k3_ctx()
    with pytest.raises(ValueError, match="unknown vertex"):
        tree_path_word(ctx, "a", "z")


def test_tree_path_image_is_ab_inverse_for_all_pairs():
    for name, complex in connected_corpus():
        ctx = BBContext(complex)
        for a in complex.vertices:
            for b in complex.vertices:
                image = raag_image(tree_path_word(ctx, a, b), ctx)
                expected = Word(ctx.vertex_alphabet, [(a, 1), (b, -1)])
                assert image == expected, (name, a, b)


# -- letterwise inversion ---------------------------------------------------


def test_letterwise_inverse_examples():
    ctx = k3_ctx()
    assert render_word(letterwise_inverse(ew(ctx, "[a>b]"))) == "[a>b]^-1"
    word = ew(ctx, "[a>b] [b>c]")
    assert render_word(letterwise_inverse(word)) == "[a>b]^-1 [b>c]^-1"


def test_letterwise_inverse_is_an_involution():
    ctx = BBContext(octahedron())
    rng = random.Random(32)
    for _ in range(100):
        word = random_word(rng, ctx.edge_alphabet, rng.randint(0, 10))
        assert letterwise_inverse(letterwise_inverse(word)) == word


# -- the basepoint twist -----------------------------------------------------


def test_twist_fixes_edges_out_of_the_basepoint():
    ctx = k3_ctx()  # basepoint a; both tree paths in the image are empty
    e = ew(ctx, "[a>b]")
    assert basepoint_conjugate(e, ctx) == e


def test_twist_conjugation_contract_all_edges_all_basepoints():
    for name, complex in connected_corpus():
        if len(complex.vertices) > 6:
            continue  # keep the full quantifier affordable; acceptance covers the rest
        for basepoint in complex.vertices:
            ctx = BBContext(declared_first(complex, basepoint))
            a = Word(ctx.vertex_alphabet, [(basepoint, 1)])
            for e in complex.directed_edges():
                word = Word(ctx.edge_alphabet, [(e, 1)])
                lhs = raag_image(basepoint_conjugate(word, ctx), ctx)
                rhs = a * raag_image(word, ctx) * ~a
                assert ctx.raag.is_identity(lhs * ~rhs), (name, basepoint, str(e))


def test_twist_conjugation_contract_on_random_words():
    # the contract extends from single edges to arbitrary words, signs included
    rng = random.Random(36)
    for complex in (path3(), c4(), octahedron()):
        ctx = BBContext(complex)
        a = Word(ctx.vertex_alphabet, [(ctx.tree.root, 1)])
        for _ in range(40):
            word = random_word(rng, ctx.edge_alphabet, rng.randint(0, 8))
            lhs = raag_image(basepoint_conjugate(word, ctx), ctx)
            rhs = a * raag_image(word, ctx) * ~a
            assert ctx.raag.is_identity(lhs * ~rhs)


def test_word_maps_are_homomorphisms_letter_for_letter():
    # raag_image and the twist are free-group maps: they respect products
    # and inverses before any RAAG relation is used.
    rng = random.Random(9)
    for name, complex in connected_corpus():
        if not complex.edges:
            continue
        ctx = BBContext(complex)
        for word_map in (raag_image, basepoint_conjugate):
            for _ in range(5):
                u = random_word(rng, ctx.edge_alphabet, rng.randint(0, 8))
                v = random_word(rng, ctx.edge_alphabet, rng.randint(0, 8))
                image = word_map(u, ctx)
                assert word_map(u * v, ctx) == image * word_map(v, ctx), name
                assert word_map(~u, ctx) == ~image, name


def test_twist_then_inverse_twist_is_identity_at_image_level():
    ctx = BBContext(c4())
    rng = random.Random(33)
    for _ in range(30):
        word = random_word(rng, ctx.edge_alphabet, rng.randint(0, 6))
        back = conjugate_power(conjugate_power(word, 1, ctx), -1, ctx)
        assert ctx.raag.is_identity(
            raag_image(back, ctx) * ~raag_image(word, ctx)
        )


def test_twist_flip_composition_has_order_two_at_image_level():
    for name, complex in [("k3", k3()), ("c4", c4()), ("octahedron", octahedron())]:
        ctx = BBContext(complex)
        for e in complex.directed_edges():
            word = Word(ctx.edge_alphabet, [(e, 1)])
            once = basepoint_conjugate(letterwise_inverse(word), ctx)
            twice = basepoint_conjugate(letterwise_inverse(once), ctx)
            assert ctx.raag.is_identity(
                raag_image(twice, ctx) * ~raag_image(word, ctx)
            ), (name, str(e))


# -- cycle relators -----------------------------------------------------------


def test_cycle_relator_backtrack_kept_as_two_letters():
    ctx = k3_ctx()
    cycle = ctx.complex.directed_cycle(["a", "b"])
    relator = cycle_relator(cycle, 1, ctx)
    assert render_word(relator) == "[a>b] [b>a]"
    assert len(relator) == 2  # not collapsed; the fold happens only in K-presentations
    assert verify_relator(relator, ctx)
    again = DirectedCycle([DirectedEdge("a", "b"), DirectedEdge("b", "a")])
    assert again == cycle and hash(again) == hash(cycle)


def test_cycle_relator_negative_exponent():
    ctx = k3_ctx()
    triangle = ctx.complex.directed_cycle(["a", "b", "c"])
    assert render_word(cycle_relator(triangle, -1, ctx)) == "[a>b]^-1 [b>c]^-1 [c>a]^-1"


def test_cycle_relator_square():
    ctx = BBContext(c4())
    square = ctx.complex.directed_cycle(["a", "b", "c", "d"])
    assert (
        render_word(cycle_relator(square, 2, ctx))
        == "[a>b]^2 [b>c]^2 [c>d]^2 [d>a]^2"
    )


def test_cycle_relator_rejects_zero():
    ctx = k3_ctx()
    with pytest.raises(ValueError, match="nonzero"):
        cycle_relator(ctx.complex.directed_cycle(["a", "b"]), 0, ctx)


# -- cycle enumeration ---------------------------------------------------------


def test_cycle_classes_match_product_enumeration_oracle():
    # a triangle with a pendant edge, vertex names not in declaration order
    unsorted = FlagComplex(
        ["z", "b", "y", "a"], [("z", "b"), ("b", "y"), ("y", "z"), ("y", "a")]
    )
    # K_4, K_5, the octahedron and G(6, 0.5) have many periodic and
    # vertex-repeating walks, whose prenecklace periods repeat and restart.
    cases = [(edge_complex(), 4), (path3(), 4), (k3(), 6), (c4(), 6), (unsorted, 6)]
    cases += [(complete_graph(4), 6), (complete_graph(5), 5), (octahedron(), 6)]
    cases += [(random_flag_complex(s, n=6, p=0.5), 5) for s in range(1, 11)]
    for complex, longest in cases:
        ctx = BBContext(complex)
        edges = {e: e for e in ctx.edge_alphabet.letters}
        index = complex.vertex_index
        for max_len in range(2, longest + 1):
            classes = enumerate_cycle_classes(ctx, max_len)
            keys = [tuple((e.initial, e.terminal) for e in c.edges) for c in classes]
            assert keys == brute_force_closed_walk_classes(complex, max_len)
            # in (length, key) order, each class once
            order = [(len(k), tuple((index(a), index(b)) for a, b in k)) for k in keys]
            assert order == sorted(set(order))
            # cycles are made of the edge alphabet's own letters
            assert all(edges[e] is e for c in classes for e in c.edges)


def test_cycle_classes_do_not_recurse_per_step():
    # One class per even length on a single edge; a walk of 1050 steps must
    # not need 1050 stack frames.
    ctx = BBContext(edge_complex())
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 50)
    try:
        classes = enumerate_cycle_classes(ctx, 1050)
    finally:
        sys.setrecursionlimit(limit)
    assert [len(c) for c in classes] == list(range(2, 1051, 2))


def test_k3_cycle_classes_at_length_three():
    ctx = k3_ctx()
    classes = enumerate_cycle_classes(ctx, 3)
    by_len = {}
    for c in classes:
        by_len.setdefault(len(c), []).append(c)
    assert len(by_len[2]) == 3  # one backtrack class per edge
    assert len(by_len[3]) == 2  # the two orientations of the triangle


def test_directed_cycle_presentation_single_edge():
    ctx = BBContext(edge_complex())
    pres = directed_cycle_presentation(ctx, 2, 2)
    assert pres.generators == ("[a>b]", "[b>a]")
    rendered = {render_word(r) for r in pres.relators}
    assert rendered == {
        "[a>b] [b>a]",
        "[a>b]^-1 [b>a]^-1",
        "[a>b]^2 [b>a]^2",
        "[a>b]^-2 [b>a]^-2",
    }
    assert pres.provenance["truncated"] is True
    assert pres.provenance["complete"] is False


def test_directed_cycle_presentation_k3():
    ctx = k3_ctx()
    pres = directed_cycle_presentation(ctx, 3, 1)
    assert len(pres.generators) == 6
    assert len(pres.relators) == 10  # (3 backtrack + 2 triangle classes) x n in {1, -1}
    for word in presentation_relator_edge_words(pres, ctx):
        assert verify_relator(word, ctx)


def test_relator_family_closed_under_letterwise_inversion():
    ctx = BBContext(c4())
    pres = directed_cycle_presentation(ctx, 4, 2)
    words = presentation_relator_edge_words(pres, ctx)
    family = {w.letters for w in words}
    for w in words:
        assert letterwise_inverse(w).letters in family


def test_directed_cycle_presentation_matches_relators_built_as_words():
    for name, complex in connected_corpus():
        ctx = BBContext(complex)
        names = homomorphism({e: ((str(e), 1),) for e in ctx.edge_alphabet.letters})
        for max_len in range(2, 6):
            for max_exp in (1, 2):
                pres = directed_cycle_presentation(ctx, max_len, max_exp)
                relators = [
                    substitute(cycle_relator(cycle, n, ctx).letters, names)
                    for cycle in enumerate_cycle_classes(ctx, max_len)
                    for k in range(1, max_exp + 1)
                    for n in (k, -k)
                ]
                expected = Presentation([str(e) for e in ctx.edge_alphabet.letters], relators)
                assert pres == expected, (name, max_len, max_exp)
                assert pres.provenance == {
                    "construction": "directed-cycle-relators",
                    "max_len": max_len,
                    "max_exp": max_exp,
                    "truncated": True,
                    "complete": False,
                    "presents": "kernel (truncated infinite relator family)",
                }


def test_read_edge_relators_match_the_parse_route_run_for_run():
    # verify reads each relator straight to its freely reduced syllables;
    # they must equal the words of the file parsed whole and re-lettered, run
    # for run, in text and JSON form; words built from runs must equal the
    # checked, reduced word of them.
    def agree(text, ctx, where):
        direct = list(bb_module._read_edge_relators(text, ctx))
        parse = presentation_from_json if text.startswith("{") else parse_presentation
        relettered = presentation_relator_edge_words(parse(text), ctx)
        assert [list(runs) for runs in direct] == [w.syllables() for w in relettered], where
        assert all(runs and e in ctx.edge_alphabet.index for runs in direct for e, _ in runs), where
        for word in relettered:
            built = Word.from_syllables(word.alphabet, word.syllables())
            assert word == built and len(word) == len(built) and word.letters == built.letters, where

    for name, complex in connected_corpus():
        ctx = BBContext(complex)
        for max_len in range(2, 6):
            for max_exp in (1, 2, 3):
                pres = directed_cycle_presentation(ctx, max_len, max_exp)
                for word in pres.relators:
                    built = Word.from_syllables(word.alphabet, word.syllables())
                    assert word == built and len(word) == len(built) and word.letters == built.letters
                for text in (serialize_presentation(pres), json.dumps(presentation_to_json(pres))):
                    agree(text, ctx, (name, max_len, max_exp))
    ctx = k3_ctx()
    for gens in ("[a>b] [b>c] [c>a]", "[a>b] [b>c] [c>a] junk"):
        for rel in ("[a>b]^3 [a>b]^-2 [b>c] [c>a]", "[a>b] [b>c] [b>c]^-1 [a>b]^-1 [b>c] [c>a] [a>b]"):
            agree(f"gens: {gens}\nrel: {rel}\n", ctx, (gens, rel))
            agree(json.dumps({"gens": gens.split(), "rel": [rel]}), ctx, (gens, rel))


def test_directed_cycle_presentation_validation():
    ctx = k3_ctx()
    with pytest.raises(ValueError, match="max_len"):
        directed_cycle_presentation(ctx, 1, 1)
    with pytest.raises(ValueError, match="max_exp"):
        directed_cycle_presentation(ctx, 2, 0)
    with pytest.raises(ValueError, match="connected"):
        BBContext(two_points())


# -- the finite presentation ----------------------------------------------------


def test_relator_edge_words_check_only_the_generators_in_use():
    ctx = k3_ctx()
    unused = Presentation(["[a>b]", "junk"], [[("[a>b]", 1), ("[a>b]", 1)]])
    (word,) = presentation_relator_edge_words(unused, ctx)
    assert render_word(word) == "[a>b]^2"
    # 'zz' is declared after 'junk' but used first, so it is the one named.
    both = Presentation(["junk", "[a>b]", "zz"], [[("[a>b]", 1), ("zz", -1)], [("junk", 1)]])
    with pytest.raises(ValueError, match="unknown generator 'zz'"):
        presentation_relator_edge_words(both, ctx)


def test_relator_edge_words_match_words_built_syllable_by_syllable():
    def expected(pres, ctx):
        edges = {str(e): e for e in ctx.edge_alphabet.letters}
        return [
            Word.from_syllables(ctx.edge_alphabet, [(edges[t], k) for t, k in rel.syllables()])
            for rel in pres.relators
        ]

    def agree(pres, ctx):
        words = presentation_relator_edge_words(pres, ctx)
        built = expected(pres, ctx)
        assert words == built
        assert [len(w) for w in words] == [len(w) for w in built]
        assert [w.letters for w in words] == [w.letters for w in built]

    for name, complex in connected_corpus():
        ctx = BBContext(complex)
        for max_len in range(2, 6):
            agree(directed_cycle_presentation(ctx, max_len, 2), ctx)
    ctx = k3_ctx()
    # one token under both signs of a repeated exponent: two table entries
    powers = Presentation(
        ["[a>b]", "[b>c]", "[c>a]"],
        [
            [("[a>b]", 1), ("[a>b]", 1), ("[b>c]", 1)],
            [("[a>b]", -1), ("[a>b]", -1), ("[c>a]", 1), ("[a>b]", 1), ("[a>b]", 1)],
        ],
    )
    assert [render_word(r) for r in powers.relators] == [
        "[a>b]^2 [b>c]",
        "[a>b]^-2 [c>a] [a>b]^2",
    ]
    agree(powers, ctx)


def test_finite_presentation_k3():
    pres = finite_presentation(k3_ctx())
    assert pres.generators == ("[a>b]", "[a>c]", "[b>c]")
    assert len(pres.relators) == 2
    result = abelianization(pres)
    assert (result.rank, result.torsion) == (2, ())
    assert pres.provenance["complete"] is True


def test_finite_presentation_octahedron():
    ctx = BBContext(octahedron())
    pres = finite_presentation(ctx)
    assert len(pres.generators) == 12
    assert len(pres.relators) == 16  # two per triangle
    assert pres.provenance["complete"] is True
    for word in presentation_relator_edge_words(pres, ctx):
        assert verify_relator(word, ctx)
    # The collapse certifies pi_1 = 1 with no Tietze move, at any budget.
    sure = finite_presentation(ctx, tietze_budget=1).provenance
    assert sure["complete"] is True and sure["simply_connected"] == "CertifiedTrivial"
    unsure = finite_presentation(BBContext(dunce_hat()), tietze_budget=5).provenance
    assert unsure["complete"] is False and unsure["simply_connected"] == "Unknown"


def test_finite_presentation_matches_the_directed_cycle_construction():
    for name, complex in connected_corpus() + [("dunce_hat", dunce_hat())]:
        ctx = BBContext(complex)
        got = finite_presentation(ctx)
        want = finite_presentation_reference(ctx)
        assert got.generators == want.generators, name
        assert got.relators == want.relators, name
        assert got.provenance == want.provenance, name


def test_finite_presentation_edge_and_point():
    edge_pres = finite_presentation(BBContext(edge_complex()))
    assert edge_pres.generators == ("[a>b]",)
    assert edge_pres.relators == ()
    assert edge_pres.provenance["complete"] is True


def test_finite_presentation_c4_with_extra_cycle():
    # Folded square relators, built by the reference, verify.
    ctx = BBContext(c4())
    square = ctx.complex.directed_cycle(["a", "b", "c", "d"])
    pres = finite_presentation_reference(ctx, extra_cycles=[square], max_exp=2)
    assert len(pres.generators) == 4
    assert len(pres.relators) == 4  # no triangles; c^[+-1], c^[+-2]
    assert pres.provenance["complete"] is False
    assert "truncated" in pres.provenance["presents"]
    for word in presentation_relator_edge_words(pres, ctx):
        assert verify_relator(word, ctx)


def test_finite_presentation_c4_without_extras_presents_edge_group():
    pres = finite_presentation(BBContext(c4()))
    assert pres.relators == ()
    assert pres.provenance["complete"] is False
    assert pres.provenance["simply_connected"] == "CertifiedNontrivial"


def test_finite_presentation_folds_backtracks_away():
    ctx = BBContext(c4())
    backtrack = ctx.complex.directed_cycle(["a", "b"])
    pres = finite_presentation_reference(ctx, extra_cycles=[backtrack], max_exp=3)
    assert pres.relators == ()  # e e-bar folds to a cancelling pair


# -- verify_relator ----------------------------------------------------------------


def test_verify_relator_examples():
    ctx = BBContext(path3())
    assert verify_relator(Word(ctx.edge_alphabet), ctx)  # empty word
    assert not verify_relator(ew(ctx, "[a>b] [b>c]"), ctx)  # open path
    assert verify_relator(ew(ctx, "[a>b] [b>a]"), ctx)
    with pytest.raises(ValueError, match="directed-edge alphabet"):
        verify_relator(vw(ctx, "a b^-1"), ctx)


def test_verify_relator_agrees_with_the_reduced_image_on_random_words():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    contexts = [BBContext(complex) for _, complex in connected_corpus()]

    @st.composite
    def edge_words(draw):
        """Edge words of single syllables e^k (0 < |k| <= 3), backtracks
        e^k ebar^k and cancelling pairs e^k e^-k, so many images are
        trivial and most cancel inside."""
        ctx = draw(st.sampled_from(contexts))
        edges = ctx.edge_alphabet.letters
        if not edges:
            return ctx, Word(ctx.edge_alphabet)
        runs = []
        for e, k, kind in draw(
            st.lists(
                st.tuples(st.sampled_from(edges), st.sampled_from((1, -1, 2, -2, 3, -3)), st.integers(0, 2)),
                max_size=12,
            )
        ):
            runs += [[(e, k)], [(e, k), (e.reverse(), k)], [(e, k), (e, -k)]][kind]
        return ctx, Word.from_syllables(ctx.edge_alphabet, runs)

    @hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @hypothesis.given(edge_words())
    def check(drawn):
        ctx, word = drawn
        assert verify_relator(word, ctx) == ctx.raag.is_identity(raag_image(word, ctx))

    check()


def test_verify_relator_on_syllables_agrees_with_the_word_and_the_oracle():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    cases = [(complex, BBContext(complex)) for _, complex in connected_corpus()]
    cases = [(complex, ctx) for complex, ctx in cases if ctx.edge_alphabet.letters]

    @st.composite
    def syllable_lists(draw):
        """Unreduced (edge, exponent) lists over at most three edges: single
        syllables e^k, runs that merge e^j e^k, cancelling e^k e^-k blocks and
        backtracks e^k ebar^k, so edges repeat, adjacent and apart."""
        complex, ctx = draw(st.sampled_from(cases))
        edges = draw(st.lists(st.sampled_from(ctx.edge_alphabet.letters), min_size=1, max_size=3))
        exps = st.sampled_from((1, -1, 2, -2, 3, -3))
        runs = []
        for e, j, k, kind in draw(
            st.lists(st.tuples(st.sampled_from(edges), exps, exps, st.integers(0, 3)), min_size=1, max_size=10)
        ):
            runs += [[(e, j)], [(e, j), (e, k)], [(e, k), (e, -k)], [(e, k), (e.reverse(), k)]][kind]
        return complex, ctx, runs

    @hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @hypothesis.given(syllable_lists())
    def check(drawn):
        complex, ctx, runs = drawn
        word = Word.from_syllables(ctx.edge_alphabet, runs)
        verdict = verify_relator(runs, ctx)
        assert verdict == verify_relator(word, ctx)
        if len(word):
            text = f"gens: {' '.join(map(str, ctx.edge_alphabet.letters))}\n"
            text += "rel: " + " ".join(f"{e}^{k}" for e, k in runs) + "\n"
            assert verify_reference(complex, text)[0] == (0 if verdict else 1), text
        else:
            assert verdict

    check()


def test_verify_relator_pinned_syllable_cases(monkeypatch):
    """c^[n] for n < 0 and a folded bb-finite triangle relator telescope: the
    image reduces freely to the empty word, so the piles see nothing.  A
    syllable list is piled as the Word of the same runs, and an unreduced
    one as its runs map, one image pair per syllable."""
    piled = []
    pile = RaagContext._pile
    monkeypatch.setattr(RaagContext, "_pile", lambda self, runs: piled.append(runs) or pile(self, runs))
    ctx = k3_ctx()
    for text in ("[a>b]^-2 [b>c]^-2 [c>a]^-2", "[a>b]^3 [b>c]^3 [c>a]^3", "[a>b] [b>a]"):
        assert verify_relator(ew(ctx, text), ctx), text
        assert verify_relator(ew(ctx, text).syllables(), ctx), text
    assert piled == []
    assert not verify_relator(ew(ctx, "[a>b]^2 [b>a]"), ctx)
    assert not verify_relator(ew(ctx, "[a>b]^2 [b>a]").syllables(), ctx)
    assert piled == [[("a", 2), ("b", -1), ("a", -1)]] * 2

    piled.clear()
    ab, bc, ca = (ctx.complex.directed_edge(u, v) for u, v in ("ab", "bc", "ca"))
    assert not verify_relator([(ab, 3), (ab, -1), (bc, 1), (ca, 1)], ctx)
    assert not verify_relator([(ab, 2), (bc, 1), (ca, 1)], ctx)
    assert verify_relator([(ab, 2), (ab, -2)], ctx)  # a walk a -> b -> a
    assert verify_relator([], ctx)
    assert piled == [
        [("a", 3), ("b", -3), ("a", -1), ("b", 2), ("a", -1)],
        [("a", 2), ("b", -1), ("a", -1)],
    ]

    piled.clear()
    assert render_word(finite_presentation(ctx).relators[0]) == "[a>b] [b>c] [a>c]^-1"
    for complex in (k3(), octahedron(), c4()):
        bb = BBContext(complex)
        pres = finite_presentation_reference(bb, fundamental_cycle_basis(bb), max_exp=2)
        words = presentation_relator_edge_words(pres, bb)
        assert words and all(verify_relator(w, bb) for w in words)
        assert all(verify_relator(w.syllables(), bb) for w in words)
    assert piled == []
    truncated = directed_cycle_presentation(ctx, 4, 3)
    assert all(verify_relator(w, ctx) for w in presentation_relator_edge_words(truncated, ctx))
    assert all(verify_relator(runs, ctx) for runs in bb_module._read_edge_relators(serialize_presentation(truncated), ctx))
    assert piled == []
    with pytest.raises(ValueError, match="directed-edge alphabet"):
        verify_relator(vw(ctx, "a b^-1"), ctx)


def test_verify_relator_walk_near_misses():
    """Syllables that look like a closed walk but are not one, with their
    verdicts: an open walk, a step of exponent -k read forwards, one
    exponent off, and a reversed triangle whose first exponent fixes k = -1,
    so it is no walk for that k but its image still telescopes."""
    ctx = k3_ctx()
    for text, verdict in (
        ("[a>b] [b>c]", False),
        ("[a>b] [b>a]^-1", False),
        ("[a>b]^2 [b>c] [c>a]", False),
        ("[b>a]^-1 [c>b]^-1 [a>c]^-1", True),
    ):
        word = ew(ctx, text)
        assert verify_relator(word, ctx) is verdict, text
        assert verify_relator(word.syllables(), ctx) is verdict, text
        assert ctx.raag.is_identity(raag_image(word, ctx)) is verdict, text


def test_verify_relator_on_walks_agrees_with_the_image():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    contexts = [BBContext(octahedron()), BBContext(c4())]

    @st.composite
    def walks(draw):
        """The syllables of an edge-walk, closed along the tree or left open:
        a step u -> v is ([u>v], k) or, flipped, ([v>u], -k).  At most one
        syllable is then perturbed: its exponent grown or negated, its edge
        reversed or replaced, the syllable dropped or swapped with the next."""
        ctx = draw(st.sampled_from(contexts))
        complex = ctx.complex
        start = v = draw(st.sampled_from(complex.vertices))
        steps = []
        for _ in range(draw(st.integers(1, 6))):
            w = draw(st.sampled_from(complex.neighbors(v)))
            steps.append(DirectedEdge(v, w))
            v = w
        closed = draw(st.booleans())
        if closed:
            steps += ctx.tree.path_edges(v, start)
        k = draw(st.sampled_from((1, -1, 2, -2, 3)))
        runs = [(e.reverse(), -k) if draw(st.booleans()) else (e, k) for e in steps]
        kind = draw(st.sampled_from((None, "grow", "negate", "reverse", "replace", "drop", "swap")))
        if kind:
            i = draw(st.integers(0, len(runs) - 1))
            e, n = runs[i]
            if kind == "grow":
                runs[i] = (e, n + (1 if n > 0 else -1))
            elif kind == "negate":
                runs[i] = (e, -n)
            elif kind == "reverse":
                runs[i] = (e.reverse(), n)
            elif kind == "replace":
                runs[i] = (draw(st.sampled_from(ctx.edge_alphabet.letters)), n)
            elif kind == "drop":
                del runs[i]
            elif i + 1 < len(runs):
                runs[i], runs[i + 1] = runs[i + 1], runs[i]
        return ctx, runs, closed and not kind

    @hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @hypothesis.given(walks())
    def check(drawn):
        ctx, runs, closed_walk = drawn
        word = Word.from_syllables(ctx.edge_alphabet, runs)
        verdict = ctx.raag.is_identity(raag_image(word, ctx))
        assert verify_relator(word, ctx) is verdict
        assert verify_relator(runs, ctx) is verdict
        if closed_walk:
            assert verdict

    check()


# -- express_in_kernel ----------------------------------------------------------


def test_express_single_edge():
    ctx = BBContext(edge_complex())
    assert render_word(express_in_kernel(vw(ctx, "a b^-1"), ctx)) == "[a>b]"


def test_express_commuting_square():
    ctx = BBContext(edge_complex())
    result = express_in_kernel(vw(ctx, "a^2 b^-2"), ctx)
    assert render_word(result) == "[a>b]^2"
    check = raag_image(result, ctx) * ~vw(ctx, "a^2 b^-2")
    assert ctx.raag.is_identity(check)


def test_express_across_a_path():
    ctx = BBContext(path3())
    assert render_word(express_in_kernel(vw(ctx, "a c^-1"), ctx)) == "[a>b] [b>c]"


def test_express_with_large_exponents():
    ctx = BBContext(path3())
    word = vw(ctx, "a^4 c^-4")
    result = express_in_kernel(word, ctx)
    assert render_word(result) == "[a>b]^4 [b>c]^4"
    assert ctx.raag.is_identity(raag_image(result, ctx) * ~word)
    word = vw(ctx, "c^-3 b^2 a c^-1 b a^-1 c")
    result = express_in_kernel(word, ctx)
    assert ctx.raag.is_identity(raag_image(result, ctx) * ~word)


def test_express_requires_zero_exponent_sum():
    ctx = BBContext(edge_complex())
    with pytest.raises(ValueError, match="exponent sum"):
        express_in_kernel(vw(ctx, "a"), ctx)


def many_syllable_zero_sum_word(rng, alphabet, pairs=1500):
    """Syllables a^k b^-k, so the carried exponent often merges to zero."""
    letters = []
    for _ in range(pairs):
        k = rng.randint(1, 3)
        letters += [(rng.choice(alphabet.letters), 1)] * k
        letters += [(rng.choice(alphabet.letters), -1)] * k
    return Word(alphabet, letters)


def test_express_roundtrip_random_words():
    rng = random.Random(34)
    long_rng = random.Random(35)
    for name, complex in connected_corpus():
        ctx = BBContext(complex)
        words = [
            random_zero_sum_word(rng, ctx.vertex_alphabet, rng.randint(0, 5))
            for _ in range(40)
        ]
        words.append(many_syllable_zero_sum_word(long_rng, ctx.vertex_alphabet))
        for word in words:
            edge_word = express_in_kernel(word, ctx)
            assert ctx.raag.is_identity(
                raag_image(edge_word, ctx) * ~word
            ), (name, render_word(word))


# -- homotopy moves ---------------------------------------------------------------


def test_insert_then_delete_roundtrip():
    ctx = k3_ctx()
    relator = cycle_relator(ctx.complex.directed_cycle(["a", "b", "c"]), 2, ctx)
    inserted = apply_homotopy_move(
        relator, InsertMove(1, ctx.complex.directed_edge("b", "a")), 2, ctx
    )
    assert verify_relator(inserted, ctx)
    assert apply_homotopy_move(inserted, DeleteMove(1), 2, ctx) == relator


def test_rotation_move_conjugates():
    ctx = k3_ctx()
    relator = cycle_relator(ctx.complex.directed_cycle(["a", "b", "c"]), -2, ctx)
    rotated = apply_homotopy_move(relator, RotateMove(2), -2, ctx)
    assert verify_relator(rotated, ctx)
    assert relator_to_cycle(rotated, -2, ctx).edges[0] == ctx.complex.directed_edge(
        "c", "a"
    )


def test_triangle_move():
    ctx = k3_ctx()
    complex = ctx.complex
    cycle = complex.directed_cycle(["a", "b", "c"])
    move = TriangleMove(
        0,
        complex.directed_edge("a", "b"),
        complex.directed_edge("b", "c"),
        complex.directed_edge("c", "a"),
    )
    moved = apply_move_to_cycle(cycle, move, ctx)
    assert [str(e) for e in moved.edges] == ["[a>c]", "[c>b]", "[b>c]", "[c>a]"]
    for n in (-2, -1, 1, 2):
        assert verify_relator(cycle_relator(moved, n, ctx), ctx)


def test_move_site_validation():
    ctx = k3_ctx()
    complex = ctx.complex
    cycle = complex.directed_cycle(["a", "b", "c"])
    with pytest.raises(ValueError, match="must start at"):
        apply_move_to_cycle(cycle, InsertMove(0, complex.directed_edge("b", "c")), ctx)
    with pytest.raises(ValueError, match="backtrack"):
        apply_move_to_cycle(DirectedCycle(cycle.edges * 2), DeleteMove(0), ctx)
    with pytest.raises(ValueError, match="length < 2"):
        apply_move_to_cycle(complex.directed_cycle(["a", "b"]), DeleteMove(0), ctx)
    with pytest.raises(ValueError, match="not a directed triangle"):
        apply_move_to_cycle(
            cycle,
            TriangleMove(
                0,
                complex.directed_edge("a", "b"),
                complex.directed_edge("b", "c"),
                complex.directed_edge("c", "b"),
            ),
            ctx,
        )
    with pytest.raises(ValueError, match="is .*, not"):
        apply_move_to_cycle(
            cycle,
            TriangleMove(
                1,
                complex.directed_edge("a", "b"),
                complex.directed_edge("b", "c"),
                complex.directed_edge("c", "a"),
            ),
            ctx,
        )
    ab = complex.directed_edge("a", "b")
    with pytest.raises(ValueError, match="insert position 4 out of range"):
        apply_move_to_cycle(cycle, InsertMove(4, ab), ctx)
    with pytest.raises(ValueError, match="insert position -1 out of range"):
        apply_move_to_cycle(cycle, InsertMove(-1, ab), ctx)
    with pytest.raises(ValueError, match="delete position 2 out of range"):
        apply_move_to_cycle(cycle, DeleteMove(2), ctx)
    with pytest.raises(ValueError, match="triangle position 3 out of range"):
        apply_move_to_cycle(cycle, TriangleMove(3, *cycle.edges), ctx)
    for move in ("rot 1", RotateMove):
        with pytest.raises(ValueError, match="unknown move"):
            apply_move_to_cycle(cycle, move, ctx)


def test_directed_cycle_rejects_bad_walks():
    ab = DirectedEdge("a", "b")
    bc = DirectedEdge("b", "c")
    with pytest.raises(ValueError, match="length >= 2, got 1"):
        DirectedCycle([ab])
    with pytest.raises(ValueError, match="not consecutive"):
        DirectedCycle([ab, ab])
    with pytest.raises(ValueError, match="not closed"):
        DirectedCycle([ab, bc])


def test_relator_to_cycle_validation():
    ctx = k3_ctx()
    relator = cycle_relator(ctx.complex.directed_cycle(["a", "b", "c"]), 2, ctx)
    with pytest.raises(ValueError, match="not of the form"):
        relator_to_cycle(relator, 3, ctx)


def test_find_move_sequence_trivial_and_single():
    ctx = k3_ctx()
    triangle = ctx.complex.directed_cycle(["a", "b", "c"])
    assert find_move_sequence(triangle, triangle, ctx) == ()
    padded = apply_move_to_cycle(
        triangle, InsertMove(1, ctx.complex.directed_edge("b", "a")), ctx
    )
    seq = find_move_sequence(triangle, padded, ctx, budget=200)
    assert seq is not None and len(seq) == 1
    assert apply_move_to_cycle(triangle, seq[0], ctx) == padded


def test_find_move_sequence_k3_replay():
    ctx = k3_ctx()
    triangle = ctx.complex.directed_cycle(["a", "b", "c"])
    target = apply_move_to_cycle(
        triangle, InsertMove(0, ctx.complex.directed_edge("a", "c")), ctx
    )
    target = apply_move_to_cycle(target, RotateMove(1), ctx)
    seq = find_move_sequence(triangle, target, ctx, budget=2000)
    assert seq is not None and len(seq) <= 4
    current = triangle
    for move in seq:
        current = apply_move_to_cycle(current, move, ctx)
        for n in (-1, 1):
            assert verify_relator(cycle_relator(current, n, ctx), ctx)
    assert current == target


def test_find_move_sequence_budget_exhaustion_returns_none():
    ctx = BBContext(c4())
    square = ctx.complex.directed_cycle(["a", "b", "c", "d"])
    backtrack = ctx.complex.directed_cycle(["a", "b"])
    # not homotopic (different classes in the fundamental group): the
    # search must give up with None, never a wrong certificate
    assert find_move_sequence(square, backtrack, ctx, budget=300) is None


# -- the cyclic extension -----------------------------------------------------------


def test_lift_of_basepoint():
    ctx = k3_ctx()
    x = lift_vertex("a", ctx)
    assert x == ExtensionElement(Word(ctx.edge_alphabet), 1)
    image = extension_image(x, ctx)
    assert render_word(image) == "a"


def test_lift_images_are_the_vertices():
    for name, complex in connected_corpus():
        ctx = BBContext(complex)
        for b in complex.vertices:
            image = extension_image(lift_vertex(b, ctx), ctx)
            assert ctx.raag.normal_form(image) == Word(
                ctx.vertex_alphabet, [(b, 1)]
            ), (name, b)


def test_conjugation_by_the_stable_letter_is_the_twist():
    ctx = k3_ctx()
    e = ctx.complex.directed_edge("b", "c")
    word = Word(ctx.edge_alphabet, [(e, 1)])
    t = ExtensionElement(Word(ctx.edge_alphabet), 1)
    product = extension_multiply(
        extension_multiply(t, ExtensionElement(word, 0), ctx),
        extension_inverse(t, ctx),
        ctx,
    )
    assert product == ExtensionElement(basepoint_conjugate(word, ctx), 0)


def test_lift_intertwines_edges():
    # lifting the initial vertex equals the edge times the lift of the
    # terminal vertex, measured in the RAAG
    for name, complex in [("k3", k3()), ("c4", c4()), ("path3", path3())]:
        ctx = BBContext(complex)
        for e in complex.directed_edges():
            lhs = extension_image(lift_vertex(e.initial, ctx), ctx)
            rhs = extension_image(
                extension_multiply(
                    ExtensionElement(Word(ctx.edge_alphabet, [(e, 1)]), 0),
                    lift_vertex(e.terminal, ctx),
                    ctx,
                ),
                ctx,
            )
            assert ctx.raag.is_identity(lhs * ~rhs), (name, str(e))


def test_extension_group_laws_at_image_level():
    ctx = BBContext(c4())
    rng = random.Random(35)

    def random_element():
        return ExtensionElement(
            random_word(rng, ctx.edge_alphabet, rng.randint(0, 4)),
            rng.randint(-2, 2),
        )

    def images_equal(x, y):
        return ctx.raag.is_identity(
            extension_image(x, ctx) * ~extension_image(y, ctx)
        )

    for _ in range(25):
        x, y, z = random_element(), random_element(), random_element()
        assert images_equal(
            extension_multiply(extension_multiply(x, y, ctx), z, ctx),
            extension_multiply(x, extension_multiply(y, z, ctx), ctx),
        )
        assert images_equal(
            extension_multiply(x, extension_inverse(x, ctx), ctx),
            extension_identity(ctx),
        )
        # the image map is multiplicative
        assert ctx.raag.is_identity(
            extension_image(extension_multiply(x, y, ctx), ctx)
            * ~(extension_image(x, ctx) * extension_image(y, ctx))
        )


# -- the tree-path cycle basis of the reference --------------------------------------------------------


def test_fundamental_cycle_basis_c4():
    ctx = BBContext(c4())
    basis = fundamental_cycle_basis(ctx)
    assert len(basis) == 1  # one non-tree edge
    for cycle in basis:
        for n in (-2, -1, 1, 2):
            assert verify_relator(cycle_relator(cycle, n, ctx), ctx)


def test_fundamental_cycle_basis_trivial_for_trees():
    assert fundamental_cycle_basis(BBContext(path3())) == ()
