"""Tests for the command-line front end: dispatch, output, exit codes."""

import json
import re
import sys
import tracemalloc

import pytest

from bbgroups import (
    BBContext,
    Word,
    directed_cycle_presentation,
    parse_presentation,
    presentation_to_json,
    serialize_presentation,
)
from bbgroups import bestvina_brady as bb_module
from bbgroups.cli import build_parser, main
from bbgroups.complexes import parse_complex
from bbgroups.presentations import TIETZE_MAX_LETTERS
from bbgroups.words import reduce_syllables
from corpus import c4, connected_corpus, dunce_hat, grid_disk, k3, octahedron
from oracles import verify_reference

C4_TEXT = "vertices: a b c d\nedges: a-b b-c c-d a-d\n"
K3_JSON = '{"vertices": ["a", "b", "c"], "edges": [["a", "b"], ["b", "c"], ["a", "c"]]}'
OCTA_TEXT = (
    "vertices: u0 u1 v0 v1 w0 w1\n"
    "edges: u0-v0 u0-v1 u0-w0 u0-w1 u1-v0 u1-v1 u1-w0 u1-w1 v0-w0 v0-w1 v1-w0 v1-w1\n"
)

HAT = dunce_hat()
HAT_TEXT = (
    "vertices: " + " ".join(HAT.vertices) + "\n"
    "edges: " + " ".join(f"{u}-{v}" for u, v in HAT.edges) + "\n"
)


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, text in [
        ("c4.txt", C4_TEXT),
        ("k3.json", K3_JSON),
        ("octa.txt", OCTA_TEXT),
        ("two.txt", "vertices: a b\n"),
        ("edge.txt", "vertices: a b\nedges: a-b\n"),
        ("bad.txt", "vortices: a\n"),
        ("hat.txt", HAT_TEXT),
        ("empty.txt", "vertices:\n"),
        ("empty.json", '{"vertices": [], "edges": []}'),
        ("empty_pres.txt", "gens:\n"),
    ]:
        p = tmp_path / name
        p.write_text(text)
        paths[name] = str(p)
    return paths


# -- argument parsing ---------------------------------------------------------


def test_parse_args_present_kinds():
    parser = build_parser()
    ns = parser.parse_args(["present", "--kind", "bb-finite", "delta.txt"])
    assert ns.verb == "present" and ns.kind == "bb-finite"
    ns = parser.parse_args(
        ["present", "--kind", "bb-truncated", "--max-len", "4", "--max-exp", "2", "d.txt"]
    )
    assert (ns.max_len, ns.max_exp) == (4, 2)


def test_the_parser_is_built_once_and_keeps_no_state(files, capsys, tmp_path):
    assert build_parser() is build_parser()
    assert main(["present", "--kind", "bb-truncated", files["c4.txt"]]) == 0
    pres_file = tmp_path / "c4_truncated.txt"
    pres_file.write_text(capsys.readouterr().out)
    pres, c4, octa = str(pres_file), files["c4.txt"], files["octa.txt"]
    runs = [
        ["reduce", "--budget", "2", pres],
        ["reduce", pres],
        ["present", "--kind", "bb-truncated", "--max-len", "3", "--max-exp", "1", c4],
        ["present", "--kind", "bb-truncated", c4],
        ["homology", "--reduced", "--json", c4],
        ["homology", c4],
        ["homology", "--bogus-flag", c4],
        ["report", "--budget", "1", "--json", octa],
        ["report", octa],
    ]

    def outputs(fresh):
        results = []
        for argv in runs:
            if fresh:
                build_parser.cache_clear()
            code = main(argv)
            captured = capsys.readouterr()
            results.append((code, captured.out, captured.err))
        return results

    shared = outputs(fresh=False)
    assert shared == outputs(fresh=True)
    assert shared[0] != shared[1] and shared[2] != shared[3] and shared[4] != shared[5]
    assert shared[6][0] == 2 and "unrecognized arguments" in shared[6][2]


def test_unknown_verb_is_usage_error(capsys):
    assert main(["frobnicate", "x"]) == 2
    assert main([]) == 2
    assert main(["homology"]) == 2
    assert main(["homology", "--bogus-flag", "x"]) == 2
    capsys.readouterr()


# -- verbs ----------------------------------------------------------------------


def test_info(files, capsys):
    assert main(["info", files["c4.txt"]]) == 0
    out = capsys.readouterr().out
    assert "vertices: 4" in out and "f-vector: (4, 4)" in out


def test_homology_text_and_json(files, capsys):
    assert main(["homology", files["c4.txt"]]) == 0
    out = capsys.readouterr().out
    assert "betti: (1, 1)" in out
    assert main(["homology", "--json", files["c4.txt"]]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["betti"] == [1, 1]


def test_report_octahedron(files, capsys):
    assert main(["report", files["octa.txt"]]) == 0
    out = capsys.readouterr().out
    assert "finitely presented but not of type FP" in out
    assert "chi(complex) = 2" in out

    assert main(["report", "--json", files["octa.txt"]]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["corollary7_applies"] is True
    assert data["fp_level"] == 2

    # The collapse certifies pi_1 = 1 with no Tietze move, at any budget.
    assert main(["report", "--budget", "1", files["octa.txt"]]) == 0
    assert "finitely presented: yes" in capsys.readouterr().out

    assert main(["report", "--budget", "2", files["hat.txt"]]) == 0
    assert "finitely presented: unknown" in capsys.readouterr().out
    assert main(["report", files["hat.txt"]]) == 0
    assert "finitely presented: yes" in capsys.readouterr().out


def test_present_and_verify_roundtrip(files, capsys, tmp_path):
    assert main(["present", "--kind", "bb-finite", files["k3.json"]]) == 0
    pres_text = capsys.readouterr().out
    pres_file = tmp_path / "k3pres.txt"
    pres_file.write_text(pres_text)
    assert main(["verify", files["k3.json"], str(pres_file)]) == 0
    assert "all relators verified" in capsys.readouterr().out


def test_json_presentation_files_are_read(files, capsys, tmp_path):
    assert main(["present", "--kind", "bb-finite", "--json", files["k3.json"]]) == 0
    pres_file = tmp_path / "k3pres.json"
    pres_file.write_text(capsys.readouterr().out)
    assert main(["verify", files["k3.json"], str(pres_file)]) == 0
    assert "all relators verified" in capsys.readouterr().out
    assert main(["reduce", str(pres_file)]) == 0
    assert "# status: Fixpoint" in capsys.readouterr().out


def test_verify_fails_on_a_non_relator(files, capsys, tmp_path):
    pres_file = tmp_path / "bad_pres.txt"
    pres_file.write_text("gens: [a>b]\nrel: [a>b]\n")
    assert main(["verify", files["k3.json"], str(pres_file)]) == 1
    assert "FAILED relator 0" in capsys.readouterr().out


def _graph_text(complex):
    return (
        "vertices: " + " ".join(complex.vertices) + "\n"
        "edges: " + " ".join(f"{u}-{v}" for u, v in complex.edges) + "\n"
    )


def _json_form(text):
    """The JSON form of a presentation text: its gens and rel lines."""
    gens = [line.split()[1:] for line in text.splitlines() if line.startswith("gens:")]
    rel = [line.split(None, 1)[1] for line in text.splitlines() if line.startswith("rel:")]
    return json.dumps({"gens": gens[0] if gens else [], "rel": rel})


# Presentation files over K3 with a problem each, and the exit code of verify.
K3_CASES = [
    ("gens: [a>b] [b>c] [c>a]\nrel: [a>b] [b>c] [c>a]\nrel: [a>b] [b>c]^2\n", 1),  # false relator
    ("gens: [a>b]\nrel: [a>b] [b>c]\n", 2),  # undeclared generator
    ("gens: [a>b]\nrel: [a>b]^x\n", 2),  # malformed factor
    ("gens: [a>b] [b>a]\nrel: [b>a] [a>b]^2 [a>b]^-2 [b>a]^-1\n", 2),  # empty after reduction
    ("gens: junk [a>b] [a>z]\nrel: [a>b] [a>z]\nrel: junk\n", 1),  # non-edge generators, used
    ("gens: [a>b] junk [b>a]\nrel: [a>b] [b>a]\n", 0),  # a non-edge generator, unused
    ("gens: [a>b] junk\nrel: [a>b] junk\nrel: [a>b]^0\n", 2),  # exit 2 wins over exit 1
    # A two-character non-edge name must not unpack as the edge a>b.
    ("gens: [a>b] [b>c] [c>a] ab\nrel: ab\n", 1),
    ("gens: [a>b] junk bunk\nrel: [a>b] junk bunk^-1\n", 1),  # two non-edge letters stay distinct
    ("gens: [a>b] [b>c] [c>a] junk\nrel: [a>b] [b>c] junk junk^-1 [c>a]\n", 0),  # cancels away
    ("gens: [a>b] [b>c] junk\nrel: junk [b>c]\nrel: [a>b] [b>c]\nrel: [a>b]^-\n", 2),  # the last line
]


def test_verify_matches_the_oracle(capsys, tmp_path, monkeypatch):
    # verify reads every file one way, each relator straight to its
    # syllables; each relator it decides is freely reduced, nonempty and
    # over the edges, and a non-edge generator in use is an error.
    returned = []
    read = bb_module._read_edge_relators
    monkeypatch.setattr(
        bb_module, "_read_edge_relators", lambda t, ctx: returned.extend(read(t, ctx)) or returned
    )

    def run(argv):
        code = main(argv)
        out, err = capsys.readouterr()
        return code, out, err.splitlines()[0] if err else ""

    def agree(complex, graph, text, expected=None):
        path = tmp_path / "pres"
        path.write_text(text)
        edges = BBContext(complex).edge_alphabet.index
        for flags in ([], ["--json"]):
            returned.clear()
            got = run(["verify", *flags, str(graph), str(path)])
            assert got == verify_reference(complex, text, as_json=bool(flags)), (graph, text)
            assert expected is None or got[0] == expected, (text, got)
            for runs in returned:
                assert runs and reduce_syllables(runs) == list(runs), text
                assert all(e in edges for e, _ in runs), text

    for name, complex in connected_corpus():
        graph = tmp_path / f"{name}.txt"
        graph.write_text(_graph_text(complex))
        for kind in ("bb-finite", "bb-truncated"):
            for flags in ([], ["--json"]):
                code, text, _ = run(["present", "--kind", kind, *flags, str(graph)])
                assert code == 0
                agree(complex, graph, text, 0)
    graph = tmp_path / "k3.txt"
    graph.write_text(_graph_text(k3()))
    for text, expected in K3_CASES:
        agree(k3(), graph, text, expected)
        agree(k3(), graph, _json_form(text), expected)


def test_verify_on_fuzzed_files_exits_cleanly_and_matches_the_oracle(capsys, tmp_path):
    # Presentation files on K3 and C4 drawn from edge names, non-edge names
    # (one a two-character name, one an edge of K3 but not of C4), cycle
    # relators and, in some files, one malformed factor or exponent.
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    others = ["junk", "bunk", "ab", "[a>z]", "[a>c]"]
    exps = ["", "", "", "^-1", "^2", "^-2", "^3"]
    bad = ["[a>b]^0", "[a>b]^x", "^2", "[a>b]^", "[a>b]^+1", "[a>b]^--1", "[a>b]^99999999999999999999", "[a>z]"]
    graphs = []
    for complex in (k3(), c4()):
        graph = tmp_path / f"graph{len(graphs)}.txt"
        graph.write_text(_graph_text(complex))
        ctx = BBContext(complex)
        cycles = [[str(e) for e in c.edges] for c in bb_module.enumerate_cycle_classes(ctx, 4)]
        graphs.append((complex, str(graph), [str(e) for e in ctx.edge_alphabet.letters], cycles))

    @st.composite
    def files(draw):
        complex, graph, edges, cycles = draw(st.sampled_from(graphs))
        gens = draw(st.lists(st.sampled_from(edges + others), unique=True, max_size=8))
        if draw(st.booleans()):
            gens = list(dict.fromkeys(gens + edges))
        factor = st.tuples(st.sampled_from(gens or ["junk"]), st.sampled_from(exps)).map("".join)
        cycle = st.tuples(st.sampled_from(cycles), st.sampled_from((1, -1, 2, -3)))
        line = st.one_of(
            st.lists(factor, min_size=1, max_size=5).map(" ".join),
            cycle.map(lambda c: " ".join(f"{e}^{c[1]}" for e in c[0])),
        )
        rels = draw(st.lists(line, max_size=5))
        if rels and draw(st.integers(0, 3)) == 0:
            rels[draw(st.integers(0, len(rels) - 1))] += " " + draw(st.sampled_from(bad))
        if draw(st.booleans()):
            return complex, graph, json.dumps({"gens": gens, "rel": rels})
        return complex, graph, "".join([f"gens: {' '.join(gens)}\n", *(f"rel: {r}\n" for r in rels)])

    codes = set()
    path = tmp_path / "pres"

    @hypothesis.settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @hypothesis.given(files())
    def check(drawn):
        complex, graph, text = drawn
        path.write_text(text)
        for flags in ([], ["--json"]):
            code = main(["verify", *flags, graph, str(path)])
            out, err = capsys.readouterr()
            assert code in (0, 1, 2) and "Traceback" not in err, (text, err)
            got = code, out, err.splitlines()[0] if err else ""
            assert got == verify_reference(complex, text, as_json=bool(flags)), text
            codes.add(code)

    check()
    assert codes == {0, 1, 2}


def test_verify_builds_a_word_only_for_each_failed_relator(files, capsys, tmp_path, monkeypatch):
    # Word._of runs once per Word built: present builds none, and verify
    # one per FAILED line it prints, so none for a file that passes or --json.
    scans = []
    of = Word._of
    monkeypatch.setattr(Word, "_of", lambda a, runs: scans.append(runs) or of(a, runs))
    assert main(["present", "--kind", "bb-truncated", files["octa.txt"]]) == 0
    text = capsys.readouterr().out
    relators = text.count("\nrel: ")
    assert relators > 100 and scans == []
    path = tmp_path / "octa_truncated.txt"
    path.write_text(text)
    assert main(["verify", files["octa.txt"], str(path)]) == 0
    assert capsys.readouterr().out.startswith(f"relators: {relators}\nverified: {relators}\n")
    assert scans == []

    octahedron = parse_complex(OCTA_TEXT)
    lines = text.splitlines()
    rels = [i for i, line in enumerate(lines) if line.startswith("rel:")]
    for k in (1, 2, 7):
        tampered = list(lines)
        for i in rels[:: len(rels) // k][:k]:
            tampered[i] = _tampered_lines(lines[i])[0]
        path.write_text("\n".join(tampered) + "\n")
        for flags, built in (([], k), (["--json"], 0)):
            scans.clear()
            assert main(["verify", *flags, files["octa.txt"], str(path)]) == 1
            assert len(scans) == built, (k, flags)
            out = capsys.readouterr().out
            assert (1, out, "") == verify_reference(octahedron, path.read_text(), as_json=bool(flags))
        assert len(json.loads(out)["failures"]) == k


def test_present_truncated(files, capsys):
    assert (
        main(
            ["present", "--kind", "bb-truncated", "--max-len", "2", "--max-exp", "1",
             files["k3.json"]]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "gens: [a>b] [a>c] [b>a] [b>c] [c>a] [c>b]" in out
    assert out.count("rel:") == 6  # three backtrack classes, n in {1, -1}
    assert '"truncated": true' in out


def test_truncated_output_is_the_presentation_it_builds_written(tmp_path, capsys):
    # present writes the family from its relator texts, with no Presentation;
    # writing directed_cycle_presentation's result must give the same bytes.
    for name, complex in connected_corpus():
        graph = tmp_path / f"{name}.txt"
        graph.write_text(_graph_text(complex))
        ctx = BBContext(complex)
        for max_len in range(2, 7):
            for max_exp in range(1, 4):
                pres = directed_cycle_presentation(ctx, max_len, max_exp)
                argv = ["present", "--kind", "bb-truncated", "--max-len", str(max_len), "--max-exp", str(max_exp)]
                assert main([*argv, str(graph)]) == 0
                assert capsys.readouterr().out == serialize_presentation(pres), (name, max_len, max_exp)
                assert main([*argv, "--json", str(graph)]) == 0
                data = presentation_to_json(pres)
                assert capsys.readouterr().out == json.dumps(data, indent=2, sort_keys=True) + "\n"
    # The point has no edges: no generator, no relator, no trailing space.
    assert main(["present", "--kind", "bb-truncated", str(tmp_path / "point.txt")]) == 0
    assert capsys.readouterr().out.endswith('"truncated": true}\ngens:\n')


def _tampered_lines(line):
    """Three copies of a ``rel:`` line, each changed in one way: the middle
    factor's exponent moved, the first two factors swapped, or the middle
    factor's edge reversed."""
    head, *factors = line.split()
    mid = len(factors) // 2
    base, caret, exp = factors[mid].partition("^")
    k = int(exp) if caret else 1
    bumped = factors[:mid] + [f"{base}^{k + 1 or k - 1}"] + factors[mid + 1 :]  # never ^0
    swapped = [factors[1], factors[0]] + factors[2:]
    a, b = base[1:-1].split(">")
    flipped = factors[:mid] + [f"[{b}>{a}]{caret}{exp}"] + factors[mid + 1 :]
    return [" ".join([head, *f]) for f in (bumped, swapped, flipped)]


def test_verify_agrees_with_the_oracle_on_tampered_truncated_files(tmp_path, capsys):
    # verify_reference decides by raag_image, not verify_relator, so a verifier
    # that accepts too much fails here; each file changes one rel: line.
    codes = set()
    for name, complex in (("k3", k3()), ("c4", c4()), ("octahedron", octahedron()), ("grid3", grid_disk(3))):
        graph = tmp_path / f"{name}.txt"
        graph.write_text(_graph_text(complex))
        assert main(["present", "--kind", "bb-truncated", str(graph)]) == 0
        lines = capsys.readouterr().out.splitlines(keepends=True)
        rels = [i for i, line in enumerate(lines) if line.startswith("rel:")]
        for i in rels[:: max(1, len(rels) // 10)]:
            for changed in _tampered_lines(lines[i]):
                text = "".join(lines[:i] + [changed + "\n"] + lines[i + 1 :])
                path = tmp_path / "tampered.txt"
                path.write_text(text)
                for flags in ([], ["--json"]):
                    code = main(["verify", *flags, str(graph), str(path)])
                    out, err = capsys.readouterr()
                    got = (code, out, err.splitlines()[0] if err else "")
                    assert got == verify_reference(complex, text, as_json=bool(flags)), (name, changed)
                    codes.add(code)
    assert codes == {0, 1}


def test_present_pi1(files, capsys):
    assert main(["present", "--kind", "pi1", files["c4.txt"]]) == 0
    out = capsys.readouterr().out
    assert "gens: [c>d]" in out


def test_express(files, capsys):
    assert main(["express", files["c4.txt"], "a c^-1"]) == 0
    assert capsys.readouterr().out == "[a>b] [b>c]\n"


def test_express_domain_error(files, capsys):
    assert main(["express", files["c4.txt"], "a"]) == 1
    err = capsys.readouterr().err
    assert "exponent sum" in err


def test_express_keeps_a_huge_exponent_as_one_syllable(files, capsys):
    assert main(["express", files["k3.json"], "a^1000000000 b^-1000000000"]) == 0
    assert capsys.readouterr().out == "[a>b]^1000000000\n"
    tracemalloc.start()
    try:
        assert main(["express", files["k3.json"], "a^1000000 b^-1000000"]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert capsys.readouterr().out == "[a>b]^1000000\n"
    assert peak < 1_000_000  # 10^6 letter pairs would take 8 MB of pointers alone


def test_reduce(files, capsys, tmp_path):
    pres_file = tmp_path / "p.txt"
    pres_file.write_text("gens: x y\nrel: y\n")
    assert main(["reduce", str(pres_file)]) == 0
    out = capsys.readouterr().out
    assert "gens: x" in out
    assert "# status: Fixpoint" in out


def test_huge_exponent_is_a_syntax_error(files, capsys, tmp_path):
    assert main(["express", files["k3.json"], "a^99999999999999999999"]) == 2
    pres_file = tmp_path / "huge.txt"
    pres_file.write_text("gens: a\nrel: a^99999999999999999999\n")
    assert main(["reduce", str(pres_file)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    express_err, reduce_err = captured.err.splitlines()
    assert express_err == f"error: column 1: exponent out of range (|k| <= {sys.maxsize})"
    assert reduce_err.startswith("error: line 2, column 6: exponent out of range")


def test_reduce_refuses_a_presentation_past_the_tietze_letter_cap(capsys, tmp_path):
    huge = TIETZE_MAX_LETTERS + 1
    text = f"gens: a\nrel: a^{huge}\n"
    for name, content in (("huge.txt", text), ("huge.json", _json_form(text))):
        pres_file = tmp_path / name
        pres_file.write_text(content)
        for flags in ([], ["--json"]):
            assert main(["reduce", *flags, str(pres_file)]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == (
                f"error: relators hold {huge} letters;"
                f" Tietze simplification takes at most {TIETZE_MAX_LETTERS}\n"
            )


def test_reduce_budget_runs_out_on_a_trivial_relator(files, capsys, tmp_path):
    assert main(["present", "--kind", "bb-truncated", files["edge.txt"]]) == 0
    pres_file = tmp_path / "edge_truncated.txt"
    pres_file.write_text(capsys.readouterr().out)
    assert main(["reduce", "--budget", "2", str(pres_file)]) == 0
    assert "# status: " in capsys.readouterr().out


def test_report_golden_text(files, capsys):
    assert main(["report", files["octa.txt"]]) == 0
    expected = (
        "f-vector: (6, 12, 8)\n"
        "homology betti numbers: (1, 0, 1)\n"
        "chi(complex) = 2\n"
        "chi(raag) = -1\n"
        "finitely generated: yes"
        "    [finitely generated iff the complex is connected (Bestvina-Brady)]\n"
        "finitely presented: yes"
        "    [finitely presented iff the complex is simply connected (Bestvina-Brady)]\n"
        "finiteness type: type FP(2), not FP(3)"
        "    [type FP(n) iff reduced homology vanishes through degree n-1 (Bestvina-Brady)]\n"
        "rational cohomology of the kernel: infinite-dimensional, since chi = 2 != 1"
        "    [finite-dimensional rational cohomology of the kernel forces chi(complex) = 1]\n"
        "conclusion: finitely presented but not of type FP"
        "    [simply connected with chi != 1: finitely presented but not of type FP"
        " (Bestvina-Brady)]\n"
    )
    assert capsys.readouterr().out == expected


def test_hilbert_and_euler(files, capsys):
    assert main(["hilbert", files["octa.txt"]]) == 0
    assert capsys.readouterr().out == "hilbert series: (1, 6, 12, 8)\n"
    assert main(["euler", files["octa.txt"]]) == 0
    assert capsys.readouterr().out == "chi(complex) = 2\nchi(raag) = -1\n"


def _numbers(text):
    return [int(n) for n in re.findall(r"-?\d+", text)]


# verb: (arguments, the documented JSON keys, what the JSON must say given the text)
JSON_MIRRORS = {
    "info": (
        ["octa.txt"],
        {"vertices", "edges", "f_vector", "dimension", "connected", "chi"},
        lambda data, text: [data["vertices"], data["edges"], *data["f_vector"],
                            data["dimension"], data["chi"]] == _numbers(text)
        and data["connected"] == ("connected: yes" in text),
    ),
    "verify": (
        ["octa.txt", "octa_pres.txt"],
        {"relators", "verified", "failures"},
        lambda data, text: [data["relators"], data["verified"], *data["failures"]]
        == _numbers(text),
    ),
    "express": (
        ["octa.txt", "u0 v0^-1 w1^2 u1^-2"],
        {"word"},
        lambda data, text: data["word"] + "\n" == text,
    ),
    "reduce": (
        ["--budget", "3", "octa_pres.txt"],
        {"presentation", "status"},
        lambda data, text: data["presentation"] == presentation_to_json(parse_presentation(text))
        and text.endswith(f"# status: {data['status']}\n"),
    ),
    "hilbert": (
        ["octa.txt"],
        {"hilbert_series"},
        lambda data, text: data["hilbert_series"] == _numbers(text),
    ),
    "euler": (
        ["octa.txt"],
        {"chi_delta", "chi_group"},
        lambda data, text: [data["chi_delta"], data["chi_group"]] == _numbers(text),
    ),
}


@pytest.mark.parametrize("verb", sorted(JSON_MIRRORS))
def test_json_mirrors_the_text_output(verb, files, capsys, tmp_path):
    assert main(["present", "--kind", "bb-finite", files["octa.txt"]]) == 0
    files["octa_pres.txt"] = str(tmp_path / "octa_pres.txt")
    (tmp_path / "octa_pres.txt").write_text(capsys.readouterr().out)
    args, keys, agrees = JSON_MIRRORS[verb]
    args = [files.get(a, a) for a in args]
    assert main([verb, *args]) == 0
    text = capsys.readouterr().out
    assert main([verb, "--json", *args]) == 0
    data = json.loads(capsys.readouterr().out)
    assert isinstance(data, dict) and set(data) == keys
    assert agrees(data, text), (data, text)


# -- error handling ----------------------------------------------------------------


def test_domain_error_disconnected(files, capsys):
    assert main(["present", "--kind", "bb-finite", files["two.txt"]]) == 1
    err = capsys.readouterr().err
    assert "not connected" in err


@pytest.mark.parametrize("name", ["empty.txt", "empty.json"])
def test_the_empty_graph_is_a_domain_error(name, files, capsys):
    graph = files[name]
    runs = [["present", "--kind", kind, graph] for kind in ("pi1", "bb-finite", "bb-truncated")]
    runs += [["express", graph, ""], ["verify", graph, files["empty_pres.txt"]]]
    for argv in runs:
        for fmt in ([], ["--json"]):
            assert main(argv[:1] + fmt + argv[1:]) == 1, argv
            assert capsys.readouterr() == ("", "error: complex is not connected\n"), argv
    for fmt in ([], ["--json"]):
        assert main(["report", *fmt, graph]) == 1
        assert capsys.readouterr() == ("", "error: the kernel group needs a nonempty complex\n")


def test_file_syntax_error_is_exit_2(files, capsys):
    assert main(["info", files["bad.txt"]]) == 2
    err = capsys.readouterr().err
    assert "line 1" in err


def test_undecodable_file_is_exit_2(capsys, tmp_path):
    path = tmp_path / "latin1.txt"
    path.write_bytes("vertices: \xe9\n".encode("latin-1"))
    assert main(["info", str(path)]) == 2
    err = capsys.readouterr().err
    assert "UTF-8" in err and "Traceback" not in err


def test_deeply_nested_json_is_exit_2(files, capsys, tmp_path):
    nested = "[" * 100_000 + "]" * 100_000
    graph = tmp_path / "nested_graph.json"
    graph.write_text(f'{{"vertices": {nested}, "edges": []}}')
    pres = tmp_path / "nested_pres.json"
    pres.write_text(f'{{"gens": {nested}}}')
    prov = tmp_path / "nested_prov.txt"
    prov.write_text(f"# provenance: {nested}\ngens: a\n")
    runs = [["info", str(graph)], ["verify", files["k3.json"], str(pres)], ["reduce", str(pres)]]
    for argv in runs + [["reduce", str(prov)]]:
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1, argv
        assert captured.err.startswith("error: ") and "Traceback" not in captured.err, argv


@pytest.mark.parametrize(
    "argv",
    [
        ["reduce", "--budget", "0"],
        ["report", "--budget", "0"],
        ["present", "--kind", "bb-finite", "--budget", "0"],
        ["present", "--kind", "bb-truncated", "--max-len", "1"],
        ["present", "--kind", "bb-truncated", "--max-exp", "0"],
        ["present", "--kind", "pi1", "--max-exp", "-3"],
    ],
)
def test_out_of_range_option_is_usage_error(files, capsys, argv):
    assert main(argv + [files["c4.txt"]]) == 2
    assert "must be at least" in capsys.readouterr().err


def test_reserved_character_in_a_json_generator_is_exit_2(files, capsys, tmp_path):
    pres = tmp_path / "hash.json"
    pres.write_text('{"gens": ["a#b", "c"], "rel": ["a#b^2"]}')
    assert main(["reduce", str(pres)]) == 2
    assert main(["verify", files["k3.json"], str(pres)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("bad generator name 'a#b'") == 2


def test_whitespace_in_a_json_vertex_name_is_exit_2(files, capsys, tmp_path):
    graph = tmp_path / "nbsp.json"
    name = "a\u00a0b"
    data = {"vertices": [name, "c", "d"], "edges": [[name, "c"], ["c", "d"], [name, "d"]]}
    graph.write_text(json.dumps(data))
    graph = str(graph)
    runs = [["info", graph], ["homology", graph], ["euler", graph], ["hilbert", graph]]
    runs += [["report", graph], ["express", graph, "c d^-1"], ["verify", graph, files["k3.json"]]]
    runs += [["present", "--kind", kind, graph] for kind in ("pi1", "bb-finite", "bb-truncated")]
    for argv in runs:
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "" and "forbidden character '\\xa0'" in captured.err, argv


def test_missing_file_is_domain_error(capsys):
    assert main(["info", "/nonexistent/path.txt"]) == 1
    capsys.readouterr()


def test_no_partial_output_on_failure(files, capsys):
    main(["present", "--kind", "bb-finite", files["two.txt"]])
    captured = capsys.readouterr()
    assert captured.out == ""


# -- determinism ---------------------------------------------------------------------


def test_byte_identical_output_across_runs(files, capsys):
    outputs = []
    for _ in range(2):
        assert main(["report", "--json", files["octa.txt"]]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]

    for _ in range(2):
        assert main(["present", "--kind", "bb-truncated", files["k3.json"]]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[2] == outputs[3]


def test_byte_identical_outputs_across_the_corpus(tmp_path, capsys):
    from corpus import corpus

    for name, complex in corpus():
        path = tmp_path / f"{name}.txt"
        path.write_text(
            "vertices: "
            + " ".join(complex.vertices)
            + "\nedges: "
            + " ".join(f"{u}-{v}" for u, v in complex.edges)
            + "\n"
        )
        for argv in (
            ["info", str(path)],
            ["homology", str(path)],
            ["report", "--json", str(path)],
        ):
            first = main(argv)
            out_one = capsys.readouterr().out
            assert first == main(argv)
            assert out_one == capsys.readouterr().out, (name, argv)
