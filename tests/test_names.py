"""Property tests of the name rule: a name the JSON forms accept reads back
unchanged through the text forms, and a name they reject does not."""

import json

import pytest

from bbgroups import (
    BBContext,
    FlagComplex,
    ParseError,
    directed_cycle_presentation,
    finite_presentation,
    parse_graph_json,
    parse_graph_text,
    parse_presentation,
    presentation_from_json,
    serialize_presentation,
)

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

# All of Unicode, with the characters the text formats reserve drawn often.
NAMES = st.text(
    st.one_of(st.characters(), st.sampled_from(" \t\n\u00a0\u2028\x1c\x85#^-[]>")),
    max_size=6,
)
SETTINGS = hypothesis.settings(max_examples=150, deadline=None, derandomize=True, database=None)
KERNEL_SETTINGS = hypothesis.settings(SETTINGS, max_examples=40)


def _json_graph(vertices, edges=()):
    return json.dumps({"vertices": vertices, "edges": [list(e) for e in edges]})


def _or_none(parse, text):
    try:
        return parse(text)
    except ParseError:
        return None


@SETTINGS
@hypothesis.given(NAMES)
def test_json_graph_accepts_a_vertex_name_iff_the_text_form_reads_it_back(name):
    from_json = _or_none(parse_graph_json, _json_graph([name]))
    from_text = _or_none(parse_graph_text, f"vertices: {name}\n")
    if from_json is None:
        with pytest.raises(ValueError):
            FlagComplex([name], [])
        assert from_text is None or from_text.vertices != (name,)
    else:
        assert from_json.vertices == (name,)
        assert from_text == from_json


@SETTINGS
@hypothesis.given(NAMES)
def test_json_presentation_accepts_a_generator_iff_it_round_trips(name):
    data = {"gens": [name, "z"], "rel": [f"{name}^2 z^-1", f"z {name}"]}
    pres = _or_none(presentation_from_json, data)
    if pres is None:
        from_text = _or_none(parse_presentation, f"gens: {name} z\n")
        assert from_text is None or from_text.generators != (name, "z")
    else:
        assert parse_presentation(serialize_presentation(pres)) == pres


@KERNEL_SETTINGS
@hypothesis.given(NAMES)
def test_kernel_presentations_of_accepted_vertex_names_round_trip(name):
    hypothesis.assume(name not in ("b", "c"))
    edges = [(name, "b"), ("b", "c"), (name, "c")]
    complex = _or_none(parse_graph_json, _json_graph([name, "b", "c"], edges))
    hypothesis.assume(complex is not None)
    ctx = BBContext(complex)
    for pres in (finite_presentation(ctx), directed_cycle_presentation(ctx, 3, 2)):
        assert parse_presentation(serialize_presentation(pres)) == pres
