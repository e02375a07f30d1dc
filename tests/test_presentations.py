"""Tests for presentation storage, abelianization, Tietze moves, and I/O."""

import hashlib
import json
import random
import sys

import pytest

from bbgroups import (
    Alphabet,
    BBContext,
    ParseError,
    Presentation,
    TietzeStatus,
    Word,
    abelianization,
    directed_cycle_presentation,
    exponent_matrix,
    finite_presentation,
    parse_presentation,
    parse_word,
    pi1_presentation,
    presentation_from_json,
    presentation_to_json,
    render_word,
    serialize_presentation,
    tietze_simplify,
)
from bbgroups import presentations
from bbgroups.errors import tokens
from bbgroups.presentations import TIETZE_BUDGET, TIETZE_MAX_LETTERS
from corpus import complete_graph, connected_corpus, octahedron, random_flag_complex
from oracles import tietze_reference


def P(gens, rels, **kw):
    return Presentation(gens, [[*r] for r in rels], **kw)


def L(text):
    """Letters from a compact spec like 'a b- a' (trailing - = inverse)."""
    out = []
    for tok in text.split():
        if tok.endswith("-"):
            out.append((tok[:-1], -1))
        else:
            out.append((tok, 1))
    return out


# -- construction -----------------------------------------------------------


def test_relators_must_be_nonempty_and_in_alphabet():
    with pytest.raises(ValueError, match="empty"):
        P(["a"], [L("a a-")])
    with pytest.raises(ValueError, match="not in the named alphabet"):
        P(["a"], [L("b")])
    with pytest.raises(ValueError, match="bad generator name"):
        P(["a b"], [])
    with pytest.raises(ValueError, match="bad generator name"):
        P(["a^2"], [])


@pytest.mark.parametrize("gens", [["a", "a"], ["a^2"]])
def test_generator_rule_gives_one_message_for_every_input_form(gens):
    with pytest.raises(ValueError) as direct:
        P(gens, [])
    message = str(direct.value)
    with pytest.raises(ParseError) as from_text:
        parse_presentation("gens: " + " ".join(gens) + "\n")
    err = from_text.value
    assert str(err) == f"line {err.line}, column {err.column}: {message}"
    with pytest.raises(ParseError) as from_json:
        presentation_from_json({"gens": gens, "rel": []})
    assert str(from_json.value) == message


def test_json_generator_names_may_not_hold_a_comment_sign():
    # The text form reads "gens: a#b c" as "gens: a", so Z/2 * Z would read
    # back as the trivial group.
    with pytest.raises(ParseError) as err:
        presentation_from_json({"gens": ["a#b", "c"], "rel": ["a#b^2"]})
    assert str(err.value) == "bad generator name 'a#b' (nonempty, no whitespace, '#' or '^')"
    with pytest.raises(ParseError) as err:
        presentation_from_json({"gens": ["a\u00a0b"], "rel": []})
    assert str(err.value).startswith("bad generator name 'a\\xa0b'")


def test_equality_ignores_provenance():
    p = P(["a"], [L("a a")], provenance={"construction": "x"})
    q = P(["a"], [L("a a")])
    assert p == q
    assert p.provenance != q.provenance
    assert hash(p) == hash(q)


# -- abelianization ----------------------------------------------------------


def test_abelianization_of_unfolded_triangle_relators():
    # the group on e, f, g with relators efg and e^-1 f^-1 g^-1 abelianizes
    # to a free abelian group of rank 2
    p = P(["e", "f", "g"], [L("e f g"), L("e- f- g-")])
    result = abelianization(p)
    assert (result.rank, result.torsion) == (2, ())


def test_abelianization_torsion():
    p = P(["x"], [L("x x")])
    result = abelianization(p)
    assert (result.rank, result.torsion) == (0, (2,))


def test_abelianization_of_free_group():
    assert abelianization(P(["x", "y"], [])).rank == 2


def test_exponent_matrix():
    p = P(["a", "b"], [L("a b a b-"), L("b b"), L("a b a- b-")])
    assert exponent_matrix(p) == [{0: 2}, {1: 2}, {}]


# -- Tietze simplification ----------------------------------------------------


def test_tietze_eliminates_killed_generator():
    p = P(["x", "y"], [L("y")])
    simplified, status = tietze_simplify(p, 100)
    assert status is TietzeStatus.FIXPOINT
    assert simplified.generators == ("x",)
    assert simplified.relators == ()


def test_tietze_certifies_octahedron_pi1_trivial():
    pres = pi1_presentation(octahedron())
    simplified, status = tietze_simplify(pres, 10000)
    assert status is TietzeStatus.FIXPOINT
    assert simplified.is_empty()


def test_tietze_budget_exhaustion():
    pres = pi1_presentation(octahedron())
    partial, status = tietze_simplify(pres, 1)
    assert status is TietzeStatus.BUDGET_EXHAUSTED
    assert partial.generators or partial.relators


def test_tietze_budget_must_be_positive():
    with pytest.raises(ValueError, match="positive"):
        tietze_simplify(P(["x"], []), 0)


def test_tietze_refuses_more_letters_than_its_cap_before_spelling():
    # One letter past the cap, kept as one syllable: a check that regressed
    # would spell 10^7 pairs, slow but within memory.
    huge = TIETZE_MAX_LETTERS + 1
    for pres in (
        parse_presentation(f"gens: a\nrel: a^{huge}\n"),
        presentation_from_json({"gens": ["a"], "rel": [f"a^{huge}"]}),
    ):
        with pytest.raises(ValueError, match=f"{huge} letters; .* at most {TIETZE_MAX_LETTERS}$"):
            tietze_simplify(pres)


def test_tietze_takes_a_presentation_at_its_letter_cap(monkeypatch):
    monkeypatch.setattr(presentations, "TIETZE_MAX_LETTERS", 3)
    simplified, status = tietze_simplify(parse_presentation("gens: a b\nrel: a b a\n"))
    assert status is TietzeStatus.FIXPOINT and simplified.generators == ("a",)
    with pytest.raises(ValueError, match="4 letters"):
        tietze_simplify(parse_presentation("gens: a b\nrel: a b a b\n"))


def test_tietze_counts_only_the_generators_its_relators_hold(monkeypatch):
    monkeypatch.setattr(presentations, "TIETZE_MAX_GENERATORS", 2)
    simplified, status = tietze_simplify(parse_presentation("gens: a b c\nrel: a b a\n"))
    assert status is TietzeStatus.FIXPOINT and simplified.generators == ("a", "c")
    with pytest.raises(ValueError, match="relators hold 3 generators; .* at most 2$"):
        tietze_simplify(parse_presentation("gens: a b c\nrel: a b c\n"))


def test_tietze_takes_generators_whose_letters_pass_the_surrogate_block():
    # 28,000 generators spell letters up to chr(55,999), past the surrogate
    # code points 0xD800-0xDFFF.  Eliminating x0 from W kills W W.
    names = [f"x{k}" for k in range(28000)]
    word = " ".join(names)
    p = parse_presentation(f"gens: {word}\nrel: {word}\nrel: {word} {word}\n")
    simplified, status = tietze_simplify(p)
    assert status is TietzeStatus.FIXPOINT
    assert simplified == P(names[1:], [])


def test_tietze_handles_cyclic_reduction_and_powers():
    # x is killed by x^2 = x^3 = 1; the untouched free generator y remains
    p = P(["x", "y"], [L("y x x y-"), L("x x x")])
    simplified, status = tietze_simplify(p, 1000)
    assert status is TietzeStatus.FIXPOINT
    assert simplified.generators == ("y",)
    assert simplified.relators == ()


def test_tietze_eliminates_an_inverse_letter_through_both_signs():
    # c^-1 is the only c in the first relator, so c = b^2 a^2; the next two
    # relators hold c with both signs, and the first of them then cancels a a^-1.
    p = P(["a", "b", "c", "d"], [L("a a c- b b"), L("c a- c- b"), L("d c d- c-"), L("d b d")])
    once, status = tietze_simplify(p, 1)
    assert status is TietzeStatus.BUDGET_EXHAUSTED
    assert once == P(["a", "b", "d"], [L("b b a- b-"), L("d b b a a d- a- a- b- b-"), L("d b d")])
    assert tietze_simplify(p, 100) == (P(["d"], []), TietzeStatus.FIXPOINT)


def test_tietze_preserves_abelianization():
    rng = random.Random(21)
    gens = ["g0", "g1", "g2", "g3", "g4", "g5"]
    cases = []
    for _ in range(30):
        k = rng.randint(1, 6)
        names = gens[:k]
        rels = []
        for _ in range(rng.randint(0, 5)):
            letters = [
                (rng.choice(names), rng.choice((1, -1)))
                for _ in range(rng.randint(1, 8))
            ]
            rels.append(letters)
        try:
            p = Presentation(names, rels)
        except ValueError:
            continue  # a random relator reduced to nothing
        cases.append((p, 500))
    # Short budgets run out with trivial relators still pending.
    for _, complex in connected_corpus():
        p = directed_cycle_presentation(BBContext(complex), 4, 2)
        cases.extend((p, budget) for budget in range(1, 7))
    # A large kernel presentation, reduced to a pinned fixpoint shape.
    large = directed_cycle_presentation(BBContext(random_flag_complex(7, n=7, p=0.5)), 4, 2)
    assert (len(large.generators), len(large.relators)) == (26, 508)
    cases.append((large, 10000))
    for p, budget in cases:
        before = abelianization(p)
        after_p, status = tietze_simplify(p, budget)
        after = abelianization(after_p)
        assert before.torsion == after.torsion
        assert before.rank == after.rank
        if p is large:
            assert status is TietzeStatus.FIXPOINT
            assert (len(after_p.generators), len(after_p.relators)) == (6, 20)


def test_tietze_takes_the_moves_of_the_reference_loop():
    for name, complex in connected_corpus():
        ctx = BBContext(complex)
        for p in (
            pi1_presentation(complex),
            finite_presentation(ctx),
            directed_cycle_presentation(ctx, 3, 2),
        ):
            for budget in (1, 2, 7, TIETZE_BUDGET):
                assert tietze_simplify(p, budget) == tietze_reference(p, budget), (name, budget)


def test_tietze_takes_the_moves_of_the_reference_loop_on_random_presentations():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def presentations(draw):
        names = ["a", "b", "c", "d"][: draw(st.integers(2, 4))]
        letter = st.tuples(st.sampled_from(names), st.sampled_from((1, -1)))
        drawn = draw(st.lists(st.lists(letter, min_size=1, max_size=8), max_size=6))
        words = [Word(Alphabet("named", names), r) for r in drawn]
        return Presentation(names, [w for w in words if len(w)])

    @hypothesis.settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @hypothesis.given(presentations(), st.sampled_from((1, 2, 3, 7, TIETZE_BUDGET)))
    def check(p, budget):
        assert tietze_simplify(p, budget) == tietze_reference(p, budget)

    check()


def test_tietze_fixpoint_of_a_large_kernel_presentation_is_pinned():
    # 30 generators and 880 relators (4,860 letters) shrink to 5 generators
    # and 37 relators (334 letters) after about 2,600 moves, most of them
    # shortenings; a move taken out of order changes the digest.
    p = directed_cycle_presentation(BBContext(complete_graph(6)), 4, 2)
    simplified, status = tietze_simplify(p)
    assert status is TietzeStatus.FIXPOINT
    text = serialize_presentation(simplified).encode()
    assert hashlib.sha256(text).hexdigest() == (
        "6bd94f2855314990b1b0097fa6217a548accf53b3ba0c8b7b81d960a86be41af"
    )


# -- serialization -------------------------------------------------------------


def test_serialize_parse_roundtrip():
    p = P(
        ["a", "b"],
        [L("a b a- b-"), L("a a")],
        provenance={"construction": "test", "max_exp": 2},
    )
    text = serialize_presentation(p)
    q = parse_presentation(text)
    assert q == p
    assert q.provenance == p.provenance


def test_serialize_empty_presentation():
    p = P([], [])
    assert parse_presentation(serialize_presentation(p)) == p


def test_serialize_refuses_a_non_finite_provenance_number():
    # No reader accepts NaN or Infinity, so writing one would break the round trip.
    for value in (float("nan"), float("inf"), -float("inf")):
        p = Presentation(["a"], [], provenance={"x": value})
        with pytest.raises(ValueError):
            serialize_presentation(p)


def test_finite_provenance_numbers_round_trip():
    provenance = {"x": 0.1, "y": -2.5e-300, "big": 10**30, "nested": {"z": [1.5, -0.0]}}
    p = Presentation(["a"], [], provenance=provenance)
    for parsed in (
        parse_presentation(serialize_presentation(p)),
        presentation_from_json(json.dumps(presentation_to_json(p), allow_nan=False)),
    ):
        assert parsed == p and parsed.provenance == provenance


def test_serialize_parse_roundtrip_on_random_presentations():
    # Syllables repeat across relators, so the writers' factor tables are hit.
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    exponents = [k for k in range(-3, 4) if k]

    @st.composite
    def presentations(draw):
        pool = ["a", "b", "[a>b]", "[b>a]", "x1", "[x>y]"]
        names = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=4, unique=True))
        alphabet = Alphabet("named", names)
        syllable = st.tuples(st.sampled_from(names), st.sampled_from(exponents))
        shared = draw(st.lists(syllable, min_size=1, max_size=5))
        runs = st.lists(st.sampled_from(shared) | syllable, min_size=1, max_size=6)
        words = [Word.from_syllables(alphabet, r) for r in draw(st.lists(runs, max_size=6))]
        provenance = draw(
            st.none()
            | st.dictionaries(
                st.sampled_from(["construction", "max_len", "truncated"]),
                st.integers(-5, 5) | st.booleans() | st.sampled_from(["x", "[a>b]", "a # b"]),
            )
        )
        return Presentation(names, [w for w in words if len(w)], provenance=provenance)

    @hypothesis.settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @hypothesis.given(presentations())
    def check(p):
        text = serialize_presentation(p)
        parsed = parse_presentation(text)
        assert parsed == p and parsed.provenance == p.provenance
        rel_lines = [line for line in text.splitlines() if line.startswith("rel:")]
        assert rel_lines == ["rel: " + render_word(r) for r in p.relators]
        data = presentation_to_json(p)
        assert data["rel"] == [render_word(r) for r in p.relators]
        mirrored = presentation_from_json(data)
        assert mirrored == p and mirrored.provenance == p.provenance

    check()


def test_roundtrip_for_every_corpus_presentation():
    from bbgroups import BBContext, directed_cycle_presentation, finite_presentation
    from corpus import connected_corpus

    for name, complex in connected_corpus():
        ctx = BBContext(complex)
        for pres in (
            pi1_presentation(complex),
            finite_presentation(ctx),
            directed_cycle_presentation(ctx, 3, 1),
        ):
            parsed = parse_presentation(serialize_presentation(pres))
            assert parsed == pres, name
            assert parsed.provenance == pres.provenance, name
            mirrored = presentation_from_json(presentation_to_json(pres))
            assert mirrored == pres, name
            assert mirrored.provenance == pres.provenance, name


def test_parse_presentation_basic():
    p = parse_presentation("gens: a b\nrel: a b a^-1 b^-1\n# comment\n")
    assert p.generators == ("a", "b")
    assert len(p.relators) == 1
    assert len(p.relators[0]) == 4


def test_parse_presentation_errors():
    with pytest.raises(ParseError, match="empty"):
        parse_presentation("gens: a\nrel: a a^-1\n")
    with pytest.raises(ParseError, match="empty"):
        parse_presentation("gens: a\nrel:\n")
    with pytest.raises(ParseError, match="unknown generator"):
        parse_presentation("gens: a\nrel: b\n")
    with pytest.raises(ParseError, match="line 2"):
        parse_presentation("gens: a\nrel: b\n")
    with pytest.raises(ParseError, match="duplicate generator"):
        parse_presentation("gens: a a\n")
    with pytest.raises(ParseError, match="unrecognized line"):
        parse_presentation("generators: a\n")
    with pytest.raises(ParseError, match="provenance"):
        parse_presentation("# provenance: {nope}\ngens: a\n")


def _parse_error(parse, text):
    with pytest.raises(ParseError) as err:
        parse(text)
    return err.value


def _parse_word_over_a(text):
    return parse_word(text, Alphabet("named", ["a"]))


def test_parse_diagnostics_point_at_the_factor_at_fault():
    # A bad factor repeated on one line: its first column, counted from the
    # line's start whatever whitespace comes before the head and whatever
    # follows a '#'.
    for indent in ("", "\t  ", "  \t "):
        column = len(indent) + 8
        err = _parse_error(parse_presentation, f"gens: a\n{indent}rel: a b a b  # z^0\nrel: b\n")
        message = f"line 2, column {column}: unknown generator 'b'"
        assert (str(err), err.line, err.column) == (message, 2, column)
        err = _parse_error(parse_presentation, f"gens: a\n{indent}rel: a a^+2 a a^+2 #a^0\n")
        assert str(err) == f"line 2, column {column}: malformed factor 'a^+2'"
    # A bad factor after many valid lines that share its letters: its own line.
    text = "gens: a b\n" + "rel: a b^2 a^-1 b\n" * 500 + "rel: a b^0 a\n"
    assert str(_parse_error(parse_presentation, text)) == (
        "line 502, column 8: exponent must be nonzero"
    )
    # Columns count code points, and fields split at every whitespace character.
    err = _parse_error(parse_presentation, "gens: a\nrel:\u00a0a\u3000a^-1\u00a0\u00a0z a\n")
    assert (err.line, err.column) == (2, 14)
    assert str(_parse_error(_parse_word_over_a, "a\u3000\u00a0z")) == "column 4: unknown generator 'z'"
    # JSON relators: a column and no line.
    err = _parse_error(presentation_from_json, {"gens": ["a"], "rel": ["a", "a  b a"]})
    assert (str(err), err.line, err.column) == ("column 4: unknown generator 'b'", None, 4)


def test_split_fields_are_the_tokens_on_every_code_point():
    # A bad factor's column is that of the token numbered like its field.
    text = "x".join(map(chr, range(sys.maxunicode + 1)))
    assert text.split() == [token for token, _ in tokens(text)]


def test_a_relator_line_may_come_before_the_generators():
    p = parse_presentation("rel: a b a^-1 b^-1\ngens: a b\n")
    assert p == P(["a", "b"], [L("a b a- b-")])


def test_each_parse_reads_factors_against_its_own_generators():
    assert parse_presentation("gens: a b\nrel: a b^2\n").generators == ("a", "b")
    err = _parse_error(parse_presentation, "gens: a\nrel: a b^2\n")
    assert str(err) == "line 2, column 8: unknown generator 'b'"
    assert presentation_from_json({"gens": ["a", "b"], "rel": ["b^2"]}).generators == ("a", "b")
    with pytest.raises(ParseError, match="unknown generator 'b'"):
        presentation_from_json({"gens": ["a"], "rel": ["b^2"]})
    assert len(parse_word("a b^2", Alphabet("named", ["a", "b"]))) == 3
    with pytest.raises(ParseError, match="unknown generator 'b'"):
        _parse_word_over_a("b^2")


def test_json_mirror_roundtrip():
    p = P(["a", "b"], [L("a b- a")], provenance={"construction": "t"})
    data = presentation_to_json(p)
    assert data["gens"] == ["a", "b"]
    assert data["rel"] == ["a b^-1 a"]
    q = presentation_from_json(data)
    assert q == p and q.provenance == p.provenance


def test_json_mirror_errors():
    with pytest.raises(ParseError, match="unknown key"):
        presentation_from_json({"gens": [], "rel": [], "extra": 1})
    with pytest.raises(ParseError):
        presentation_from_json("{bad json")
    with pytest.raises(ParseError, match="'rel'"):
        presentation_from_json({"gens": ["a"], "rel": [1]})
    with pytest.raises(ParseError, match="'provenance'"):
        presentation_from_json({"gens": [], "rel": [], "provenance": [1]})
    with pytest.raises(ParseError, match="distinct"):
        presentation_from_json({"gens": ["a", "a"], "rel": []})
