"""Tests for words, alphabets, and the RAAG normal-form engine."""

import random
import re
from itertools import product

import pytest

from bbgroups import (
    Alphabet,
    DirectedEdge,
    FlagComplex,
    ParseError,
    RaagContext,
    Word,
    edge_alphabet,
    exponent_sum,
    parse_presentation,
    parse_word,
    render_word,
    vertex_alphabet,
)
from bbgroups.words import reduce_syllables
from corpus import c4, k3, octahedron, random_word, three_points
from oracles import ShuffleClosureOracle, free_reduce, homomorphism, substitute, syllable_runs

AB = Alphabet("named", ("a", "b", "c", "d"))


def W(*pairs):
    return Word(AB, pairs)


# -- free reduction -------------------------------------------------------


def test_free_reduce_examples():
    assert Word(AB, [("a", 1), ("a", -1)]).letters == ()
    assert Word(AB, [("a", 1), ("b", 1), ("b", -1), ("a", 1)]).letters == (
        ("a", 1),
        ("a", 1),
    )
    already = [("a", 1), ("b", 1), ("a", -1)]
    assert Word(AB, already).letters == tuple(already)
    a, b, c = ("a", 1), ("b", 1), ("c", 1)
    a_, b_ = ("a", -1), ("b", -1)
    assert W(a, a_, b, c).letters == (b, c)  # only the first pair cancels
    assert W(b, c, a, a_).letters == (b, c)  # only the last pair cancels
    assert W(a, b, b_, a_).letters == ()  # a cascade
    u, v = W(a, b), W(b_, c)
    assert (u * v).letters == (a, c)  # only the junction of u * v cancels


def test_nested_cancellation():
    word = Word(
        AB, [("a", 1), ("b", 1), ("c", 1), ("c", -1), ("b", -1), ("a", -1)]
    )
    assert word.letters == ()


def test_reduction_gate_matches_the_stack_loop_on_random_letters():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    letter = st.tuples(st.sampled_from(AB.letters), st.sampled_from((1, -1)))

    @st.composite
    def cancelling_letters(draw):
        """Letter lists with inserted u u^-1 blocks, so pairs cancel and cascade."""
        letters = draw(st.lists(letter, max_size=12))
        for _ in range(draw(st.integers(0, 3))):
            i = draw(st.integers(0, len(letters)))
            u = draw(st.lists(letter, min_size=1, max_size=4))
            letters[i:i] = u + [(g, -s) for g, s in reversed(u)]
        return letters

    @hypothesis.settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @hypothesis.given(cancelling_letters())
    def check(letters):
        word = Word(AB, letters)
        assert word.letters == free_reduce(letters)
        assert word.syllables() == syllable_runs(word.letters)
        cut = len(letters) // 2
        joined = Word(AB, letters[:cut]) * Word(AB, letters[cut:])
        assert joined.letters == word.letters

    check()


def test_from_syllables_agrees_with_the_letter_oracle():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    syllable = st.tuples(
        st.sampled_from(AB.letters), st.integers(-3, 3).filter(bool)
    )

    @st.composite
    def cancelling_syllables(draw):
        """Syllable lists with inserted u u^-1 blocks and split runs, so
        syllables merge, cancel to zero and cascade (a^2 b b^-1 a^-2)."""
        runs = draw(st.lists(syllable, max_size=8))
        for _ in range(draw(st.integers(0, 3))):
            i = draw(st.integers(0, len(runs)))
            u = draw(st.lists(syllable, min_size=1, max_size=3))
            runs[i:i] = u + [(g, -e) for g, e in reversed(u)]
        return runs

    def spelled(runs):
        return [(g, 1 if e > 0 else -1) for g, e in runs for _ in range(abs(e))]

    @hypothesis.settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @hypothesis.given(cancelling_syllables(), cancelling_syllables(), st.integers(-3, 3))
    def check(runs, other, n):
        word = Word.from_syllables(AB, runs)
        letters = free_reduce(spelled(runs))
        assert word.letters == letters
        assert len(word) == len(letters)
        assert word.syllables() == syllable_runs(letters)
        by_letters = Word(AB, spelled(runs))
        assert word == by_letters and hash(word) == hash(by_letters)
        right = Word.from_syllables(AB, other)
        assert (word * right).letters == free_reduce(letters + free_reduce(spelled(other)))
        assert (~word).letters == free_reduce([(g, -s) for g, s in reversed(letters)])
        assert (word**n).letters == free_reduce(
            list(letters if n >= 0 else (~word).letters) * abs(n)
        )

    check()
    assert Word.from_syllables(AB, [("a", 2), ("b", 1), ("b", -1), ("a", -2)]).letters == ()


def test_product_and_power_agree_with_the_letter_oracle():
    """``*`` cancels and merges only runs at its operands' junction, and
    ``**`` squares through ``*``; both give the word of the reduced letters."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    letter = st.tuples(st.sampled_from(AB.letters[:3]), st.sampled_from((1, -1)))

    @st.composite
    def operands(draw):
        """Letter lists x and y where y often starts by undoing a tail of x,
        so the junction cancels deep, then merges or stops."""
        x = draw(st.lists(letter, max_size=10))
        cut = draw(st.integers(0, len(x)))
        y = [(g, -s) for g, s in reversed(x[cut:])] + draw(st.lists(letter, max_size=10))
        return x, y

    @hypothesis.settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @hypothesis.given(operands(), st.integers(-3, 3))
    def check(drawn, n):
        x, y = drawn
        product = Word(AB, x) * Word(AB, y)
        assert product == Word(AB, x + y)
        assert product.letters == free_reduce(x + y)
        assert len(product) == len(product.letters)
        assert product.syllables() == syllable_runs(product.letters)
        base = x if n >= 0 else [(g, -s) for g, s in reversed(x)]
        power = Word(AB, x) ** n
        assert power.letters == free_reduce(base * abs(n))
        assert power == Word(AB, base * abs(n))
        assert len(power) == len(power.letters)

    check()


def test_from_syllables_rejects_bad_exponents():
    for exp in (0, 1.0, 2.5, "2", None, True):
        with pytest.raises(ValueError, match="nonzero integer"):
            Word.from_syllables(AB, [("a", 1), ("b", exp)])
    with pytest.raises(ValueError, match="not in the named alphabet"):
        Word.from_syllables(AB, [("a", 2), ("z", 3)])
    assert Word.from_syllables(AB, [("a", 10**12)]).syllables() == [("a", 10**12)]
    assert len(Word.from_syllables(AB, [("a", 10**12), ("b", -1)])) == 10**12 + 1


def test_letters_must_be_in_alphabet():
    with pytest.raises(ValueError, match="not in the named alphabet"):
        Word(AB, [("z", 1)])
    with pytest.raises(ValueError, match="sign"):
        Word(AB, [("a", 2)])
    with pytest.raises(ValueError, match="'\\[a>z\\]' is not in the edge alphabet"):
        Word(edge_alphabet(k3()), [(DirectedEdge("a", "b"), 1), (DirectedEdge("a", "z"), 1)])
    # the first bad letter is reported, a bad sign before a foreign letter
    with pytest.raises(ValueError, match="sign"):
        Word(AB, [("a", 1), ("a", 0), ("z", 1)])


def test_homomorphism_table_holds_both_signs():
    table = homomorphism({"a": [("b", 1), ("c", -1)], "d": []})
    assert table == {
        ("a", 1): (("b", 1), ("c", -1)),
        ("a", -1): (("c", 1), ("b", -1)),
        ("d", 1): (),
        ("d", -1): (),
    }
    # the image is left unreduced for the caller
    assert substitute([("a", 1), ("a", -1), ("d", 1)], table) == [
        ("b", 1),
        ("c", -1),
        ("c", 1),
        ("b", -1),
    ]


def test_cross_alphabet_concatenation_is_an_error():
    other = Alphabet("named", ("a", "b"))
    with pytest.raises(ValueError, match="different alphabets"):
        W(("a", 1)) * Word(other, [("a", 1)])


def test_word_algebra():
    w = W(("a", 1), ("b", -1))
    assert (~w).letters == (("b", 1), ("a", -1))
    assert (w * ~w).letters == ()
    assert (w**3).letters == w.letters * 3
    assert (w**-1) == ~w
    assert (w**0).letters == ()
    assert w.syllables() == [("a", 1), ("b", -1)]
    assert W(("a", 1), ("a", 1), ("b", -1)).syllables() == [("a", 2), ("b", -1)]
    assert W().syllables() == []
    assert W(("a", -1), ("b", 1), ("a", -1), ("a", -1)).syllables() == [
        ("a", -1),
        ("b", 1),
        ("a", -2),
    ]
    # runs merge only after reduction
    assert W(("a", 1), ("b", 1), ("b", -1), ("a", 1)).syllables() == [("a", 2)]
    assert list(w**2) == list((w**2).letters)
    with pytest.raises(TypeError):
        w * 3


def test_exponent_sum():
    assert exponent_sum(W(("a", 1), ("b", -1))) == 0
    assert exponent_sum(W(("a", 1), ("a", 1), ("b", 1))) == 3
    assert exponent_sum(W()) == 0


def test_exponent_sum_is_a_homomorphism():
    rng = random.Random(1)
    for _ in range(50):
        u = random_word(rng, AB, rng.randint(0, 8))
        v = random_word(rng, AB, rng.randint(0, 8))
        assert exponent_sum(u * v) == exponent_sum(u) + exponent_sum(v)


# -- RAAG normal form -----------------------------------------------------


def ctx4():
    return RaagContext(c4())


def test_conjugation_by_adjacent_commuting_generator():
    ctx = ctx4()
    va = ctx.alphabet
    word = Word(va, [("a", 1), ("b", 1), ("a", -1)])  # a, b adjacent in C4
    assert ctx.normal_form(word) == Word(va, [("b", 1)])


def test_commutator_of_adjacent_vertices_dies():
    ctx = ctx4()
    word = parse_word("a b a^-1 b^-1", ctx.alphabet)
    assert ctx.is_identity(word)
    assert ctx.normal_form(word).letters == ()


def test_commutator_of_nonadjacent_vertices_survives():
    ctx = ctx4()
    word = parse_word("a c a^-1 c^-1", ctx.alphabet)  # a, c not adjacent in C4
    assert not ctx.is_identity(word)
    assert ShuffleClosureOracle(c4()).is_identity(word) is False


def test_is_identity_examples():
    ctx = ctx4()
    assert ctx.is_identity(Word(ctx.alphabet))
    assert ctx.is_identity(parse_word("a^2 b a^-2 b^-1", ctx.alphabet))


def test_normal_form_is_lex_least_shuffle():
    # a < b < c; a-b and b-c commute, a-c does not.  The commutation
    # class of "c a b" is {cab, cba, bca}; bca is least, and reaching it
    # requires an uphill adjacent swap from cab.
    ctx = ctx4()
    word = parse_word("c a b", ctx.alphabet)
    assert render_word(ctx.normal_form(word)) == "b c a"


def run_heavy_words(rng, ctx, count=40):
    """Seeded words of long runs: syllables g^k with |k| <= 4, runs split by
    a commuting letter, and runs that cancel in part (a-b commute in C4 and
    K3, a-c only in K3)."""
    letters = ctx.alphabet.letters
    exps = [k for k in range(-4, 5) if k]
    texts = ["a^3 b a^-2", "a^2 b a^-5", "a^2 c a^-5", "a^-2 c a^3 b^2 a^-1", "a b^4 a^-1 b^-4"]
    for _ in range(count):
        syllables = [f"{rng.choice(letters)}^{rng.choice(exps)}" for _ in range(rng.randint(1, 3))]
        texts.append(" ".join(syllables))
        g = rng.choice(letters)
        commuting = [h for h in letters if ctx.commutes(g, h)]
        if commuting:
            h = rng.choice(commuting)
            texts.append(f"{g}^{rng.choice(exps)} {h}^{rng.choice((1, -1))} {g}^{rng.choice(exps)}")
    return [parse_word(text, ctx.alphabet) for text in texts]


def test_normal_form_idempotent_and_constant_on_classes():
    ctx = ctx4()
    rng = random.Random(9)

    def exponents(word):
        return [sum(s for h, s in word.letters if h == g) for g in ctx.alphabet.letters]

    def check(word):
        nf = ctx.normal_form(word)
        assert ctx.normal_form(nf) == nf
        assert exponents(nf) == exponents(word)  # the abelianization is kept
        # random legal adjacent swaps must not change the normal form
        letters = list(word.letters)
        for _ in range(10):
            if len(letters) < 2:
                break
            i = rng.randrange(len(letters) - 1)
            (g, s), (h, t) = letters[i], letters[i + 1]
            if g != h and ctx.commutes(g, h):
                letters[i], letters[i + 1] = letters[i + 1], letters[i]
        shuffled = Word(ctx.alphabet, letters)
        assert ctx.normal_form(shuffled) == nf

    for _ in range(200):
        check(random_word(rng, ctx.alphabet, rng.randint(0, 10)))
    for word in run_heavy_words(random.Random(19), ctx):
        check(word)


def test_normal_form_preserves_exponent_sum():
    ctx = ctx4()
    rng = random.Random(10)
    for _ in range(100):
        word = random_word(rng, ctx.alphabet, rng.randint(0, 10))
        assert exponent_sum(ctx.normal_form(word)) == exponent_sum(word)


def test_fully_commuting_words_collect_exponents():
    ctx = RaagContext(k3())  # complete graph: everything commutes
    rng = random.Random(11)
    for _ in range(50):
        word = random_word(rng, ctx.alphabet, rng.randint(0, 10))
        nf = ctx.normal_form(word)
        syllables = nf.syllables()
        # generator-ordered, one syllable per generator
        names = [g for g, _ in syllables]
        assert names == sorted(names)
        assert len(set(names)) == len(names)


def test_words_over_an_adjacent_pair_collect_even_in_a_sparse_graph():
    # only the letters appearing in the word need to commute pairwise
    ctx = ctx4()
    rng = random.Random(13)
    pair_alphabet = [("a", 1), ("a", -1), ("b", 1), ("b", -1)]  # a-b is an edge
    for _ in range(50):
        letters = [rng.choice(pair_alphabet) for _ in range(rng.randint(0, 8))]
        nf = ctx.normal_form(Word(ctx.alphabet, letters))
        names = [g for g, _ in nf.syllables()]
        assert names == sorted(names)
        assert len(set(names)) == len(names)


def test_identity_testing_agrees_with_closure_oracle_sample():
    complex = c4()
    ctx = RaagContext(complex)
    oracle = ShuffleClosureOracle(complex)
    letters = [(v, s) for v in complex.vertices for s in (1, -1)]
    for length in (2, 4):
        for combo in product(letters, repeat=length):
            word = Word(ctx.alphabet, combo)
            assert ctx.is_identity(word) == oracle.is_identity(word)


def test_confluence_against_oracle_over_the_whole_corpus():
    """Exhaustive agreement with the shuffle-closure oracle in every
    corpus RAAG, on words over (at most) four of its generators.

    Length 6 for up-to-3-letter alphabets, length 5 for 4-letter ones;
    the acceptance suite pushes C4 and K3 to the full length-6 sweep.
    """
    from corpus import corpus

    for name, complex in corpus():
        if not complex.vertices:
            continue
        ctx = RaagContext(complex)
        oracle = ShuffleClosureOracle(complex)
        generators = complex.vertices[:4]
        max_len = 6 if len(generators) <= 3 else 5
        letters = [(v, s) for v in generators for s in (1, -1)]
        for length in range(max_len + 1):
            for combo in product(letters, repeat=length):
                word = Word(ctx.alphabet, combo)
                assert ctx.is_identity(word) == oracle.is_identity(word), (
                    name,
                    combo,
                )


def test_commutation_is_symmetric_and_irreflexive():
    ctx = ctx4()
    for u in ctx.complex.vertices:
        assert not ctx.commutes(u, u)
        for v in ctx.complex.vertices:
            assert ctx.commutes(u, v) == ctx.commutes(v, u)


def test_normal_form_rejects_foreign_words():
    ctx = ctx4()
    with pytest.raises(ValueError, match="vertex alphabet"):
        ctx.normal_form(W(("a", 1)))


def test_normal_form_is_the_minimum_of_its_swap_closure():
    """Global lex-minimality: enumerate the whole commutation class of the
    normal form by adjacent swaps and check nothing is smaller.

    Letter order: alphabet position, with g before g^-1.  The class of a
    reduced word is closed under swaps (a swap can never create a
    cancellable pair in a geodesic), so swap closure is the full class.
    """
    from collections import deque

    for complex in (c4(), k3()):
        ctx = RaagContext(complex)
        position = {v: i for i, v in enumerate(complex.vertices)}

        def encode(letters):
            return tuple((position[g], 0 if s > 0 else 1) for g, s in letters)

        rng = random.Random(14)
        words = [random_word(rng, ctx.alphabet, rng.randint(0, 7)) for _ in range(60)]
        for word in words + run_heavy_words(random.Random(15), ctx):
            nf = ctx.normal_form(word)
            start = tuple(nf.letters)
            seen = {start}
            queue = deque([start])
            while queue:
                w = queue.popleft()
                for i in range(len(w) - 1):
                    (g, s), (h, t) = w[i], w[i + 1]
                    if g != h and ctx.commutes(g, h):
                        swapped = w[:i] + ((h, t), (g, s)) + w[i + 2 :]
                        if swapped not in seen:
                            seen.add(swapped)
                            queue.append(swapped)
            assert encode(start) == min(encode(w) for w in seen)


def p4():
    return FlagComplex("abcd", [("a", "b"), ("b", "c"), ("c", "d")])


def c5():
    return FlagComplex("abcde", [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"), ("a", "e")])


def test_normal_form_matches_the_closure_oracle_letter_for_letter():
    """Sparse and dense graphs beyond C4 and K3: P4, C5, K4 minus an edge
    and the octahedron (the RAAG of Stallings' group)."""
    graphs = [
        p4(),
        c5(),
        FlagComplex("abcd", [("a", "b"), ("a", "c"), ("a", "d"), ("b", "c"), ("b", "d")]),
        octahedron(),
    ]
    rng = random.Random(16)
    for complex in graphs:
        ctx = RaagContext(complex)
        oracle = ShuffleClosureOracle(complex)
        for _ in range(300):
            word = random_word(rng, ctx.alphabet, rng.randint(0, 8))
            form = ctx.normal_form(word)
            assert form.letters == oracle.normal_form(word), word
            # Word._of keeps the emitted runs as they are: they must be reduced.
            runs = form.syllables()
            assert reduce_syllables(runs) == runs, word
            assert len(form) == sum(abs(e) for _, e in runs), word


def piled(ctx, syllables):
    """The state ``_pile`` leaves: per generator with runs, its exponents and
    the markers under each run, and every field's marker count."""
    exps, unders, counts, width = ctx._pile(syllables)
    letters = ctx.alphabet.letters
    runs = {letters[i]: (e, u) for i, (e, u) in enumerate(zip(exps, unders)) if e}
    fields = {g: counts >> i * width & (1 << width) - 1 for i, g in enumerate(letters)}
    return runs, {g: n for g, n in fields.items() if n}


def test_a_popped_run_restores_the_markers_under_it():
    """On P4 (a-b, b-c, c-d commute; a-c, a-d, b-d do not): a run that
    cancels to zero is popped, the pop restores its pile's count to the
    markers under the run, and once the blocking run is popped too the
    next syllable merges into the run below."""
    ctx = RaagContext(p4())
    # a b b^-1 a^-1: nested cancellation, every pile empty again.
    assert piled(ctx, [("a", 1), ("b", 1), ("b", -1), ("a", -1)]) == ({}, {})
    a, c = ("a", 1), ("c", 1)
    # a c a: the second a run lies over c's marker, c's run over a's.
    assert piled(ctx, [a, c, a]) == (
        {"a": ([1, 1], [0, 1]), "c": ([1], [1])},
        {"c": 1, "d": 2},
    )
    # a^-1 pops the top a run: a's count is the one marker under it again.
    assert piled(ctx, [a, c, a, ("a", -1)]) == (
        {"a": ([1], [0]), "c": ([1], [1])},
        {"a": 1, "d": 1},
    )
    # c^-1 pops c's run, which takes its marker off a's pile and restores c's
    # own count to the marker under it; a^2 then merges into the bottom run.
    steps = [a, c, a, ("a", -1), ("c", -1)]
    assert piled(ctx, steps) == ({"a": ([1], [0])}, {"c": 1, "d": 1})
    assert piled(ctx, steps + [("a", 2)]) == ({"a": ([3], [0])}, {"c": 1, "d": 1})
    assert piled(ctx, steps + [("a", -1)]) == ({}, {})
    # The same through reduced words, where only commuting letters part the
    # cancelling runs: a c a b a^-1 c^-1 a^2 is a^3 b.
    for text, form in (
        ("a c a b a^-1 c^-1 a^2", "a^3 b"),
        ("a c a b a^-1 c^-1 a^-1", "b"),
        ("a c a b a^-1 c^-1 a^-1 b^-1", ""),
        ("d a c a b^2 a^-1 c^-1 a^2 d^-1", "d a^3 b^2 d^-1"),
        ("a c a c^-1 a^-1 c^-1 a^-1", "a c a c^-1 a^-1 c^-1 a^-1"),  # no commuting letter
    ):
        word = parse_word(text, ctx.alphabet)
        assert render_word(ctx.normal_form(word)) == form, text
        assert ctx.is_identity(word) == (form == ""), text


def run_heavy_word(rng, ctx, max_letters=9):
    """A random word of syllables g^k, |k| <= 3, with at most
    ``max_letters`` letters; or, about half the time, the conjugate
    u g^+-1 u'^-1 of its first one or two syllables u, where u' is u with
    its two syllables swapped if they commute, so runs cancel through the
    pile and not by free reduction."""
    letters = ctx.alphabet.letters
    syllables = []
    while True:
        g, k = rng.choice(letters), rng.choice((-3, -2, -1, 1, 2, 3))
        if sum(abs(e) for _, e in syllables) + abs(k) > max_letters:
            break
        syllables.append((g, k))
    if rng.random() < 0.5 and len(syllables) >= 2:
        u = syllables[: rng.randint(1, 2)]
        g = rng.choice(letters)
        middle = [(g, rng.choice((-1, 1)))]
        ends = list(u)
        if len(ends) == 2 and ctx.commutes(ends[0][0], ends[1][0]):
            ends.reverse()
        syllables = u + middle + [(h, -k) for h, k in reversed(ends)]
    return Word.from_syllables(ctx.alphabet, syllables)


def test_run_heavy_normal_forms_match_the_closure_oracle():
    """Seeded run-heavy words on P4, C5 and the octahedron: the normal form
    equals the oracle's letter for letter, and a word times the inverse of
    its normal form piles to nothing."""
    rng = random.Random(31)
    for complex in (p4(), c5(), octahedron()):
        ctx = RaagContext(complex)
        oracle = ShuffleClosureOracle(complex)
        for _ in range(150):
            word = run_heavy_word(rng, ctx)
            nf = ctx.normal_form(word)
            assert nf.letters == oracle.normal_form(word), word
            assert ctx.is_identity(word * ~nf) and ctx.normal_form(nf) == nf, word


@pytest.mark.parametrize("k", range(1, 11))
def test_marker_counts_at_the_edge_of_their_field(k):
    """Words whose lengths straddle 2^k, where a marker count's field gets
    one bit wider: alternating a c on C4, and on three points alternating
    b c, then a, whose run lies over a marker from every letter before it."""
    ctx = ctx4()
    ctx3 = RaagContext(three_points())
    for length in (2**k - 1, 2**k, 2**k + 1):
        w = Word(ctx.alphabet, [("ac"[i % 2], 1) for i in range(length)])
        b = Word(ctx.alphabet, [("b", 1)])
        assert ctx.normal_form(w) == w
        assert ctx.is_identity(w * b * ~w * ~b)
        u = Word(ctx3.alphabet, [("bc"[i % 2], 1) for i in range(length - 1)] + [("a", 1)])
        assert ctx3.normal_form(u) == u
        assert not ctx3.is_identity(u)


# -- word syntax -----------------------------------------------------------


def test_render_parse_roundtrip():
    rng = random.Random(12)
    for _ in range(50):
        word = random_word(rng, AB, rng.randint(0, 10))
        assert parse_word(render_word(word), AB) == word


def test_parse_word_powers():
    assert parse_word("a^3 b^-2", AB).letters == (
        ("a", 1),
        ("a", 1),
        ("a", 1),
        ("b", -1),
        ("b", -1),
    )
    assert parse_word("", AB).letters == ()
    # an exponent is any decimal digits (str.isdecimal), Arabic-Indic three too
    assert parse_word("a^\u0663 b^-\u0663", AB) == parse_word("a^3 b^-3", AB)


def test_parse_word_leaves_the_alphabet_token_table_as_it_was():
    # read_syllables records each g^k it decodes in the table it is given,
    # so parse_word must hand it a copy of the alphabet's table.
    for alphabet in (Alphabet("named", "abcd"), edge_alphabet(k3())):
        first = str(alphabet.letters[0])
        assert parse_word(f"{first}^5 {alphabet.letters[1]}", alphabet).syllables()[0][1] == 5
        table = alphabet.factors()
        assert f"{first}^5" not in table
        assert table == {str(l): (l, 1) for l in alphabet.letters}
        for token, (letter, _) in table.items():
            assert alphabet.letter_for_token(token) == letter


def test_parse_word_errors():
    with pytest.raises(ParseError, match="nonzero"):
        parse_word("a^0", AB)
    with pytest.raises(ParseError, match="unknown generator"):
        parse_word("z", AB)
    with pytest.raises(ParseError, match="column 3"):
        parse_word("a z", AB)
    with pytest.raises(ParseError, match="malformed factor"):
        parse_word("a^b", AB)
    # superscripts are digits but not decimal; a sign other than one '-', an
    # underscore, a second caret, an empty exponent or base are malformed;
    # a rel: line's columns count from the start of the line
    for factor in ("a^\u00b2", "a^+2", "a^1_0", "a^--1", "a^2^3", "a^", "^2", "b^+2"):
        message = f"line 2, column 9: malformed factor {factor!r}"
        with pytest.raises(ParseError, match=re.escape(message)):
            parse_presentation(f"gens: a b\nrel: b  {factor} a\n")
    # exponents past sys.maxsize, and past int()'s digit limit, are out of range
    for huge in ("99999999999999999999", "-9223372036854775808", "9" * 5000):
        with pytest.raises(ParseError, match="^column 3: exponent out of range"):
            parse_word(f"a b^{huge}", AB)
        with pytest.raises(ParseError, match="^line 4, column 8: exponent out of range"):
            parse_presentation(f"gens: a b\n\n# line 3\nrel: a b^{huge}\n")


def test_edge_alphabet_tokens():
    complex = k3()
    ea = edge_alphabet(complex)
    word = parse_word("[a>b] [b>c]^-1", ea)
    assert render_word(word) == "[a>b] [b>c]^-1"
    (e1, s1), (e2, s2) = word.letters
    assert (e1.initial, e1.terminal, s1) == ("a", "b", 1)
    assert (e2.initial, e2.terminal, s2) == ("b", "c", -1)
    with pytest.raises(ParseError, match="unknown generator"):
        parse_word("[a>z]", ea)


def test_vertex_and_edge_alphabets_are_distinct():
    complex = k3()
    va = vertex_alphabet(complex)
    ea = edge_alphabet(complex)
    assert va != ea
    word = parse_word("a", va)
    with pytest.raises(ValueError):
        word * parse_word("[a>b]", ea)
