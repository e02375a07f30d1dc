"""Input checks of the file formats and of the library's bounds.

Each malformed file goes through ``cli.main`` and must exit 2 with one
error line; each out-of-range library argument must raise its message.
"""

import pytest

from bbgroups import (
    Alphabet,
    BBContext,
    DirectedEdge,
    InsertMove,
    ParseError,
    apply_move_to_cycle,
    boundary_matrix,
    express_in_kernel,
    parse_word,
    presentation_from_json,
    relator_to_cycle,
    simply_connected_status,
)
from bbgroups.cli import main
from corpus import c4, k3

MALFORMED_FILES = {
    "vertices-not-a-list": (
        "info", "graph.json", '{"vertices": "a b", "edges": []}',
        "'vertices' must be a list of strings",
    ),
    "vertex-not-a-string": (
        "info", "graph.json", '{"vertices": ["a", 1], "edges": []}',
        "'vertices' must be a list of strings",
    ),
    "edges-not-a-list": (
        "info", "graph.json", '{"vertices": ["a", "b"], "edges": {}}',
        "'edges' must be a list of two-element lists",
    ),
    "edge-of-three-ends": (
        "info", "graph.json", '{"vertices": ["a", "b"], "edges": [["a", "b", "a"]]}',
        "edges[0] must be a two-element list of strings",
    ),
    "edge-end-not-a-string": (
        "info", "graph.json", '{"vertices": ["a", "b"], "edges": [["a", "b"], ["a", 2]]}',
        "edges[1] must be a two-element list of strings",
    ),
    "duplicate-provenance": (
        "reduce", "pres.txt", '# provenance: {"a": 1}\n# provenance: {"a": 1}\ngens: a\n',
        "line 2: duplicate provenance comment",
    ),
    "provenance-not-an-object": (
        "reduce", "pres.txt", "# provenance: [1, 2]\ngens: a\n",
        "line 1: provenance must be a JSON object",
    ),
    "gens-not-a-list": (
        "reduce", "pres.json", '{"gens": "a b", "rel": []}',
        "'gens' must be a list of strings",
    ),
    "generator-not-a-string": (
        "reduce", "pres.json", '{"gens": ["a", 2], "rel": []}',
        "'gens' must be a list of strings",
    ),
    # Strict JSON: no non-finite number, repeated key or integer past
    # Python's 4300-digit conversion limit, in any of the three JSON readers.
    "graph-repeated-key": (
        "info", "graph.json", '{"vertices": ["a"], "edges": [], "vertices": ["b"]}',
        "repeated key in a JSON object",
    ),
    "graph-nan": (
        "info", "graph.json", '{"vertices": ["a", "b"], "edges": [["a", NaN]]}',
        "number NaN is not finite",
    ),
    "presentation-infinity": (
        "reduce", "pres.json", '{"gens": ["a"], "rel": [], "provenance": {"x": -Infinity}}',
        "number -Infinity is not finite",
    ),
    "presentation-overflowing-float": (
        "reduce", "pres.json", '{"gens": ["a"], "rel": [], "provenance": {"x": 1e999}}',
        "number 1e999 is not finite",
    ),
    "presentation-repeated-key": (
        "reduce", "pres.json", '{"gens": ["a"], "rel": [], "gens": ["b"]}',
        "repeated key in a JSON object",
    ),
    "presentation-long-integer": (
        "reduce", "pres.json", '{"gens": ["a"], "rel": [], "provenance": {"x": %s}}' % ("7" * 5000),
        "integer of more than 4300 digits",
    ),
    "provenance-nan": (
        "reduce", "pres.txt", '# provenance: {"x": NaN}\ngens: a\n',
        "line 1: malformed provenance JSON",
    ),
    "provenance-repeated-key": (
        "reduce", "pres.txt", 'gens: a\n# provenance: {"x": 1, "x": 2}\n',
        "line 2: malformed provenance JSON",
    ),
    "provenance-long-integer": (
        "reduce", "pres.txt", '# provenance: {"x": -%s}\ngens: a\n' % ("7" * 5000),
        "line 1: malformed provenance JSON",
    ),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_FILES))
def test_malformed_input_file_is_exit_2(tmp_path, capsys, case):
    verb, name, text, message = MALFORMED_FILES[case]
    path = tmp_path / name
    path.write_text(text)
    assert main([verb, str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def _relator_at_exponent_zero():
    ctx = BBContext(k3())
    return relator_to_cycle(parse_word("[a>b] [b>a]", ctx.edge_alphabet), 0, ctx)


def _edge_word_expressed():
    ctx = BBContext(k3())
    return express_in_kernel(parse_word("[a>b]", ctx.edge_alphabet), ctx)


def _diagonal_inserted_into_the_square():
    complex = c4()
    ctx = BBContext(complex)
    cycle = complex.directed_cycle(["a", "b", "c", "d"])
    return apply_move_to_cycle(cycle, InsertMove(0, DirectedEdge("a", "c")), ctx)


OUT_OF_RANGE_CALLS = {
    # The CLI sends only text starting with '{' to the JSON reader.
    "presentation-json-not-an-object": (
        lambda: presentation_from_json([]),
        ParseError, "top-level JSON value must be an object",
    ),
    "relator-to-cycle-exponent-0": (
        _relator_at_exponent_zero, ValueError, "relator exponent must be nonzero",
    ),
    "simply-connected-budget-0": (
        lambda: simply_connected_status(k3(), budget=0),
        ValueError, "budget must be positive",
    ),
    "boundary-matrix-degree-0": (
        lambda: boundary_matrix(k3(), 0),
        ValueError, "boundary_matrix is defined for k >= 1",
    ),
    "express-in-kernel-edge-word": (
        _edge_word_expressed, ValueError, "word is not over this complex's vertex alphabet",
    ),
    "insert-move-non-edge": (
        _diagonal_inserted_into_the_square,
        ValueError, "'a'-'c' is not an edge of the complex",
    ),
    "directed-cycle-one-vertex": (
        lambda: k3().directed_cycle(["a"]),
        ValueError, "a cycle needs at least two vertices",
    ),
    "alphabet-letters-one-text": (
        lambda: Alphabet("named", [1, "1"]),
        ValueError, "alphabet letters must have distinct text forms",
    ),
}


@pytest.mark.parametrize("case", sorted(OUT_OF_RANGE_CALLS))
def test_out_of_range_library_argument_raises(case):
    call, error, message = OUT_OF_RANGE_CALLS[case]
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error and str(info.value) == message
