"""Run every CLI verb over a fixed corpus and record what it prints.

Usage: python3 tests/cli_sweep.py SRC OUT.json
       python3 tests/cli_sweep.py --diff A.json B.json
       python3 tests/cli_sweep.py --strict OUT.json

SRC is the ``src`` directory of the checkout whose ``bbgroups`` is run.
The sweep covers ``tests/corpus.py``, 12 seeded
``random_flag_complex(s, n=7, p=0.5)`` graphs, and K_6 and
``join_of_pairs(4)``, whose cliques reach dimensions 5 and 3 (K_6's
``bb-truncated`` runs use the default ``--max-len``, and ``reduce`` of
that output, 880 relators, takes about 3 s on a shared 2-CPU host;
``join_of_pairs(4)``'s use ``--max-len 3``, because at the default its
``reduce`` takes about 21 s there): every verb with and
without ``--json``, ``verify`` and ``reduce`` on each ``present`` output
at the default and small budgets, ``verify`` (with and without
``--json``) on a copy of each text ``bb-truncated`` output at the
default ``--max-len`` (``trunc``) whose middle ``rel:`` line has one
exponent moved by one (``NAME.trunc_tampered.txt``), so a verifier that
accepts too much changes the sweep, ``express`` on fixed words,
``verify`` and ``reduce`` on malformed presentation files in text and
JSON form, ``info`` on graph JSON and ``verify`` and ``reduce`` on
presentation JSON and provenance comments (each with and without
``--json``) that a strict JSON reader rejects (``NaN``, ``-Infinity``,
``1e999``, a 5000-digit integer, a repeated key), ``verify`` (with and without ``--json``) of true and false
relators with long runs on K3, C4 and C6 (where each generator commutes
with only two of the other five), in text and JSON form, ``verify``
and ``reduce`` (with and without ``--json``) of K3 relators that must
freely reduce (cancelling inside a run, in a cascade, and to the empty
word), in text and JSON form, ``verify`` and ``reduce`` (with and
without ``--json``) of K3 relators whose syllables are 10^5 letters
long, in text and JSON form, ``express`` (with and without ``--json``)
on K3 of ``a^1000000 b^-1000000``, ``express``, ``verify`` and ``reduce``
on exponent factors such as ``a^+2``, ``a^2^3``, ``^2`` and a
superscript or Arabic-Indic exponent, ``verify`` and ``reduce`` (with
and without ``--json``) on a text presentation whose ``rel:`` lines are
indented by tabs and spaces and end in a comment, one of them holding a
malformed factor, so the column reported counts from the line's start,
every verb on a JSON graph whose vertex name holds a
no-break space (it has no text form), every verb (with and without
``--json``) on the graph with no vertices in text (``vertices:``) and
JSON form, and ``reduce`` of the empty presentation, the homology,
report and pi1 verbs on ``projective_plane()`` (H_1 = Z/2; ``bb-truncated`` is skipped
there: 31 vertices make it too large), the homology, report and pi1
verbs on its suspension, whose only torsion is H_2 = Z/2, so torsion
alone sets its FP level, ``report`` (at the default budget and
``--budget 2``) and ``present --kind pi1|bb-finite`` on ``dunce_hat()``,
whose pi_1 = 1 is certified only by Tietze past the collapse, so at
budget 2 it is unknown, and homology (reduced or not) and report on
``random_flag_complex(1, n=40, p=0.45)``, whose cliques reach dimension
6, so the runs cover homology up to that dimension, ``present --kind
bb-truncated --max-len 1050 --max-exp 1`` on one edge (walks longer
than the recursion limit; ``reduce`` of relators that long would take
far too long), and ``info``, ``verify`` and ``reduce`` on JSON nested
100,000 arrays deep.  OUT maps each run (verb line, file names only) to
``[exit code, stdout, first stderr line]``, or to ``[null, stdout,
"raised <ExceptionType>"]`` when an exception escapes ``cli.main``; two
checkouts print the same CLI output iff their OUT files are equal.
After writing OUT, the sweep lists the runs that raised and exits 1 if
any did.  ``--strict`` lists the ``--json`` runs of an OUT file whose
output is not strict JSON and exits 1 if there are any.  ``--diff`` lists the runs whose records differ between two
OUT files, with the fields that differ, then counts them per verb and
options (the arguments before the first file name), and exits 1 if any
differ.
"""

import contextlib
import io
import itertools
import json
import os
import sys
import tempfile
from collections import Counter


def graph_texts(complex):
    text = "vertices: " + " ".join(complex.vertices) + "\n"
    if complex.edges:
        text += "edges: " + " ".join(f"{u}-{v}" for u, v in complex.edges) + "\n"
    data = {"vertices": list(complex.vertices), "edges": [list(e) for e in complex.edges]}
    return text, json.dumps(data)


def express_words(vertices):
    a, b = vertices[0], vertices[1 % len(vertices)]
    c = vertices[-1]
    return ["", f"{a} {b}^-1", f"{b}^3 {c}^-2 {a}^-1", f"{c}^-1 {a} {b} {a}^-1", a, f"{a}^0"]


# Presentation files that break one rule each: (name, text form, JSON form).
MALFORMED_PRESENTATIONS = [
    ("dup_gen", "gens: [a>b] [a>b]\n", {"gens": ["[a>b]", "[a>b]"], "rel": []}),
    ("caret_gen", "gens: a^2\n", {"gens": ["a^2"], "rel": []}),
    (
        "provenance_list",
        "# provenance: [1]\ngens: [a>b]\n",
        {"gens": ["[a>b]"], "rel": [], "provenance": [1]},
    ),
    ("unknown_rel_gen", "gens: [a>b]\nrel: [b>a]\n", {"gens": ["[a>b]"], "rel": ["[b>a]"]}),
    # Z/2 * Z in JSON; the text form's '#' starts a comment.
    ("hash_gen", "gens: a#b c\nrel: a#b^2\n", {"gens": ["a#b", "c"], "rel": ["a#b^2"]}),
]

# Files a strict JSON reader rejects, for each of the three JSON readers (graph
# JSON, presentation JSON and the text form's provenance comment): non-finite
# numbers, an integer past Python's 4300-digit limit and a repeated key.
BAD_NUMBERS = [("nan", "NaN"), ("inf", "-Infinity"), ("1e999", "1e999"), ("long_int", "7" * 5000)]
STRICT_JSON_GRAPHS = {
    f"graph_{name}.json": '{"vertices": ["a", "b"], "edges": [["a", %s]]}' % value
    for name, value in BAD_NUMBERS
}
STRICT_JSON_GRAPHS["graph_repeated_key.json"] = '{"vertices": ["a"], "edges": [], "vertices": ["b"]}'
STRICT_JSON_PRESENTATIONS = {}
for name, value in BAD_NUMBERS:
    STRICT_JSON_PRESENTATIONS[f"prov_{name}.json"] = (
        '{"gens": ["[a>b]", "[b>a]"], "rel": ["[a>b] [b>a]"], "provenance": {"x": %s}}' % value
    )
    STRICT_JSON_PRESENTATIONS[f"prov_{name}.txt"] = (
        '# provenance: {"x": %s}\ngens: [a>b] [b>a]\nrel: [a>b] [b>a]\n' % value
    )
STRICT_JSON_PRESENTATIONS["pres_repeated_key.json"] = '{"gens": ["[a>b]"], "rel": [], "gens": ["[b>a]"]}'
STRICT_JSON_PRESENTATIONS["prov_repeated_key.txt"] = '# provenance: {"x": 1, "x": 2}\ngens: [a>b]\n'

# Relators with long runs for verify: (name, graph text, generators, relators).
K3_TEXT = "vertices: a b c\nedges: a-b b-c a-c\n"
C4_TEXT = "vertices: a b c d\nedges: a-b b-c c-d a-d\n"
C6_TEXT = "vertices: a b c d e f\nedges: a-b b-c c-d d-e e-f a-f\n"
SQUARE = "[a>b] [b>c] [c>d] [d>a]"
LONG_RUN_PRESENTATIONS = [
    ("k3_runs", K3_TEXT, "[a>b] [b>a] [b>c] [c>a]", ["[a>b]^40 [b>a]^40", "[a>b]^40 [b>c]^40 [c>a]^40"]),
    ("k3_false", K3_TEXT, "[a>b] [b>c]", ["[a>b]^40 [b>c]^40"]),
    ("c4_runs", C4_TEXT, SQUARE, ["[a>b]^40 [b>c]^40 [c>d]^40 [d>a]^40", " ".join([SQUARE] * 3)]),
    ("c4_false", C4_TEXT, "[a>b] [b>c] [c>d]", ["[a>b]^40 [b>c]^40", "[a>b]^3 [c>d]^-3"]),
    (
        "c6_runs",
        C6_TEXT,
        "[a>b] [b>c] [c>d] [d>e] [e>f] [f>a]",
        ["[a>b]^40 [b>c]^40 [c>d]^40 [d>e]^40 [e>f]^40 [f>a]^40", "[a>b]^40 [b>c]^40 [c>d]^40"],
    ),
]

# K3 relators that must freely reduce: (name, relator).
REDUCING_RELATORS = [
    ("k3_run_cancel", "[a>b]^3 [a>b]^-2 [b>c] [c>a]"),
    ("k3_cascade", "[a>b] [b>c] [b>c]^-1 [a>b]^-1 [b>c] [c>a] [a>b]"),
    ("k3_empty", "[a>b] [a>b]^-1"),
]

# K3 relators whose syllables are 10^5 letters long: several for verify, and
# one for reduce (Tietze spells a relator out letter by letter and matches
# every pair of relators, so two relators this long would take too long).
HUGE = 100_000
HUGE_VERIFY = [
    f"[a>b]^{HUGE} [b>c]^{HUGE} [c>a]^{HUGE}",
    f"[a>b]^-{HUGE} [b>c]^-{HUGE} [c>a]^-{HUGE}",
    f"[a>b]^{HUGE} [b>c]^{HUGE}",
    f"[a>b]^{HUGE} [a>b]^-{HUGE - 1} [b>c] [c>a]",
]
HUGE_REDUCE = [f"[a>b]^{HUGE} [b>c]^{HUGE} [c>a]^-{HUGE}"]

# Factors over the letter a, each malformed but the last (a^3 in Arabic-Indic).
FACTORS = ["a^\u00b2", "a^+2", "a^1_0", "a^--1", "a^2^3", "a^", "^2", "a^\u0663"]

# rel: lines indented by tabs and spaces, each with a comment; the second's
# malformed factor [b>a]^+2 sits at column 18 of line 3.
INDENTED_PRESENTATION = (
    "gens: [a>b] [b>a]\n\t rel: [a>b] [b>a]  # [a>b]^0\n  \t rel: [a>b]^2 [b>a]^+2 # x\n"
)

NBSP_GRAPH = {
    "vertices": ["a\u00a0b", "c", "d"],
    "edges": [["a\u00a0b", "c"], ["c", "d"], ["a\u00a0b", "d"]],
}


def tamper(text):
    """``text`` with the exponent of the middle factor of its middle ``rel:``
    line moved by one, away from 0; None if it has no ``rel:`` line."""
    lines = text.splitlines(keepends=True)
    rels = [i for i, line in enumerate(lines) if line.startswith("rel:")]
    if not rels:
        return None
    i = rels[len(rels) // 2]
    head, *factors = lines[i].split()
    mid = len(factors) // 2
    base, caret, exp = factors[mid].partition("^")
    k = int(exp) if caret else 1
    factors[mid] = f"{base}^{k + 1 or k - 1}"
    lines[i] = " ".join([head, *factors]) + "\n"
    return "".join(lines)


def main(src, out_path):
    sys.path.insert(0, os.path.abspath(src))
    sys.path.insert(1, os.path.dirname(os.path.abspath(__file__)))
    from bbgroups.cli import main as cli_main
    from corpus import (
        complete_graph,
        corpus,
        dunce_hat,
        join_of_pairs,
        projective_plane,
        random_flag_complex,
        suspension,
    )

    graphs = (
        corpus()
        + [(f"g7_{s}", random_flag_complex(s, n=7, p=0.5)) for s in range(1, 13)]
        + [("k6", complete_graph(6)), ("join4", join_of_pairs(4))]
    )
    results = {}
    written = set()
    with tempfile.TemporaryDirectory() as tmp:

        def write(name, text):
            with open(os.path.join(tmp, name), "w", encoding="utf-8") as handle:
                handle.write(text)
            written.add(name)
            return name

        def run(*argv):
            stdout, stderr = io.StringIO(), io.StringIO()
            args = [os.path.join(tmp, a) if a in written else a for a in argv]
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                try:
                    code = cli_main(args)
                    # Error messages name the file by its full path; keep its base name.
                    err = stderr.getvalue().replace(tmp + os.sep, "").partition("\n")[0]
                except Exception as exc:
                    code, err = None, f"raised {type(exc).__name__}"
            results[" ".join(argv)] = [code, stdout.getvalue(), err]
            return code, stdout.getvalue()

        k3 = write("malformed_k3.txt", "vertices: a b c\nedges: a-b b-c a-c\n")
        for name, text, data in MALFORMED_PRESENTATIONS:
            for pres in (write(f"{name}.txt", text), write(f"{name}.json", json.dumps(data))):
                run("verify", k3, pres)
                run("reduce", pres)

        for name, text in STRICT_JSON_GRAPHS.items():
            graph = write(name, text)
            for fmt in ((), ("--json",)):
                run("info", *fmt, graph)
        for name, text in STRICT_JSON_PRESENTATIONS.items():
            pres = write(name, text)
            for fmt in ((), ("--json",)):
                run("verify", *fmt, k3, pres)
                run("reduce", *fmt, pres)

        for name, graph_text, gens, rels in LONG_RUN_PRESENTATIONS:
            graph = write(f"{name}_graph.txt", graph_text)
            text = f"gens: {gens}\n" + "".join(f"rel: {r}\n" for r in rels)
            data = {"gens": gens.split(), "rel": rels}
            for pres in (write(f"{name}.txt", text), write(f"{name}.json", json.dumps(data))):
                for fmt in ((), ("--json",)):
                    run("verify", *fmt, graph, pres)

        for name, rel in REDUCING_RELATORS:
            gens = "[a>b] [b>c] [c>a]"
            text = f"gens: {gens}\nrel: {rel}\n"
            data = {"gens": gens.split(), "rel": [rel]}
            for pres in (write(f"{name}.txt", text), write(f"{name}.json", json.dumps(data))):
                for fmt in ((), ("--json",)):
                    run("verify", *fmt, k3, pres)
                    run("reduce", *fmt, pres)

        gens = "[a>b] [b>c] [c>a]"
        for name, rels in (("huge_verify", HUGE_VERIFY), ("huge_reduce", HUGE_REDUCE)):
            text = f"gens: {gens}\n" + "".join(f"rel: {r}\n" for r in rels)
            data = {"gens": gens.split(), "rel": rels}
            for pres in (write(f"{name}.txt", text), write(f"{name}.json", json.dumps(data))):
                for fmt in ((), ("--json",)):
                    if rels is HUGE_VERIFY:
                        run("verify", *fmt, k3, pres)
                    else:
                        run("reduce", *fmt, pres)
        for fmt in ((), ("--json",)):
            run("express", *fmt, k3, "a^1000000 b^-1000000")

        for i, factor in enumerate(FACTORS):
            run("express", k3, f"b^-3 {factor}")
            rel = "[a>b]^3  " + factor.replace("a", "[b>a]", 1)
            text = f"gens: [a>b] [b>a]\nrel: {rel}\n"
            data = {"gens": ["[a>b]", "[b>a]"], "rel": [rel]}
            for pres in (write(f"factor{i}.txt", text), write(f"factor{i}.json", json.dumps(data))):
                run("verify", k3, pres)
                run("reduce", pres)

        indented = write("indented_rel.txt", INDENTED_PRESENTATION)
        for fmt in ((), ("--json",)):
            run("verify", *fmt, k3, indented)
            run("reduce", *fmt, indented)

        # Walks 1050 steps long, and JSON nested deeper than the recursion limit.
        edge = write("long_walk_edge.txt", "vertices: a b\nedges: a-b\n")
        run("present", "--kind", "bb-truncated", "--max-len", "1050", "--max-exp", "1", edge)
        nested = "[" * 100_000 + "]" * 100_000
        run("info", write("nested_graph.json", f'{{"vertices": {nested}, "edges": []}}'))
        nested_pres = write("nested_pres.json", f'{{"gens": {nested}}}')
        run("verify", k3, nested_pres)
        run("reduce", nested_pres)

        nbsp = write("nbsp.json", json.dumps(NBSP_GRAPH))
        nbsp_pres = write("nbsp_pres.txt", "gens: [c>d]\n")
        for fmt in ((), ("--json",)):
            for verb in (["info"], ["homology"], ["euler"], ["hilbert"], ["report"]):
                run(*verb, *fmt, nbsp)
            for kind in ("pi1", "bb-finite", "bb-truncated"):
                run("present", "--kind", kind, *fmt, nbsp)
            run("express", *fmt, nbsp, "c d^-1")
            run("verify", *fmt, nbsp, nbsp_pres)

        # The graph with no vertices, which the kernel verbs reject as not connected.
        empty_text = write("empty.txt", "vertices:\n")
        empty_json = write("empty.json", json.dumps({"vertices": [], "edges": []}))
        empty_pres = write("empty_pres.txt", "gens:\n")
        for fmt in ((), ("--json",)):
            for graph in (empty_text, empty_json):
                for verb in (
                    ["info"],
                    ["homology"],
                    ["homology", "--reduced"],
                    ["euler"],
                    ["hilbert"],
                    ["report"],
                ):
                    run(*verb, *fmt, graph)
                for kind in ("pi1", "bb-finite", "bb-truncated"):
                    run("present", "--kind", kind, *fmt, graph)
                run("express", *fmt, graph, "")
                run("verify", *fmt, graph, empty_pres)
            run("reduce", *fmt, empty_pres)

        rp2 = write("rp2.txt", graph_texts(projective_plane())[0])
        for fmt, ext in (((), "txt"), (("--json",), "json")):
            for verb in (
                ["info"],
                ["homology"],
                ["homology", "--reduced"],
                ["euler"],
                ["hilbert"],
                ["report"],
                ["report", "--budget", "2"],
            ):
                run(*verb, *fmt, rp2)
            code, out = run("present", "--kind", "pi1", *fmt, rp2)
            if code == 0:
                pres = write(f"rp2.pi1.{ext}", out)
                for vfmt in ((), ("--json",)):
                    run("reduce", *vfmt, pres)

        suspended = write("suspended_rp2.txt", graph_texts(suspension(projective_plane()))[0])
        for fmt in ((), ("--json",)):
            for verb in (
                ["homology"],
                ["homology", "--reduced"],
                ["report"],
                ["report", "--budget", "2"],
                ["present", "--kind", "pi1"],
            ):
                run(*verb, *fmt, suspended)

        hat = write("dunce_hat.txt", graph_texts(dunce_hat())[0])
        for fmt in ((), ("--json",)):
            for verb in (
                ["report"],
                ["report", "--budget", "2"],
                ["present", "--kind", "pi1"],
                ["present", "--kind", "bb-finite"],
            ):
                run(*verb, *fmt, hat)

        # f = (40, 350, 880, 694, 170, 18, 1), reduced H_2 = Z^35, H_3 = Z^7.
        g40 = write("g40_1.txt", graph_texts(random_flag_complex(1, n=40, p=0.45))[0])
        for fmt in ((), ("--json",)):
            for verb in (["homology"], ["homology", "--reduced"], ["report"]):
                run(*verb, *fmt, g40)

        for name, complex in graphs:
            text, data = graph_texts(complex)
            graph = write(f"{name}.txt", text)
            graph_json = write(f"{name}.json", data)
            for fmt in ((), ("--json",)):
                for g in (graph, graph_json):
                    run("info", *fmt, g)
                run("homology", *fmt, graph)
                run("homology", "--reduced", *fmt, graph)
                run("euler", *fmt, graph)
                run("hilbert", *fmt, graph)
                run("report", *fmt, graph)
                run("report", "--budget", "2", *fmt, graph)
                for word in express_words(complex.vertices):
                    run("express", *fmt, graph, word)
            kinds = [
                ("pi1", ["--kind", "pi1"]),
                ("finite", ["--kind", "bb-finite"]),
                ("finite_b1", ["--kind", "bb-finite", "--budget", "1"]),
                ("trunc", ["--kind", "bb-truncated"] + (["--max-len", "3"] if name == "join4" else [])),
                ("trunc_3_1", ["--kind", "bb-truncated", "--max-len", "3", "--max-exp", "1"]),
            ]
            for kind, options in kinds:
                for fmt, ext in (((), "txt"), (("--json",), "json")):
                    code, out = run("present", *options, *fmt, graph)
                    if code != 0:
                        continue
                    pres = write(f"{name}.{kind}.{ext}", out)
                    for vfmt in ((), ("--json",)):
                        run("verify", *vfmt, graph, pres)
                        for budget in ((), ("--budget", "1"), ("--budget", "3")):
                            run("reduce", *budget, *vfmt, pres)
                    tampered = tamper(out) if (kind, ext) == ("trunc", "txt") else None
                    if tampered is not None:
                        tampered = write(f"{name}.trunc_tampered.txt", tampered)
                        for vfmt in ((), ("--json",)):
                            run("verify", *vfmt, graph, tampered)
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(results, handle, indent=1, sort_keys=True)
    raised = [run for run, record in results.items() if record[0] is None]
    for run in raised:
        print(f"{run}: {results[run][2]}")
    print(f"{len(results)} runs -> {out_path}, {len(raised)} raised")
    return 1 if raised else 0


FIELDS = ("exit code", "stdout", "stderr")


def _non_finite(token):
    raise ValueError(f"non-finite number {token}")


def strict(path):
    """Print the ``--json`` runs of an OUT file whose stdout is not strict
    JSON (it holds NaN or Infinity, or does not parse); 1 if any."""
    with open(path, encoding="utf-8") as handle:
        records = json.load(handle)
    loose = 0
    for run, (_, out, _) in sorted(records.items()):
        if "--json" not in run.split() or not out:
            continue
        try:
            json.loads(out, parse_constant=_non_finite)
        except ValueError as exc:
            print(f"{run}: {exc}")
            loose += 1
    print(f"{loose} --json outputs are not strict JSON")
    return 1 if loose else 0


def diff(a_path, b_path):
    """Print the runs whose records differ between two OUT files; 1 if any do."""
    records = []
    for path in (a_path, b_path):
        with open(path, encoding="utf-8") as handle:
            records.append(json.load(handle))
    a, b = records
    runs = sorted(a.keys() | b.keys())
    differing = [run for run in runs if a.get(run) != b.get(run)]
    for run in differing:
        if run not in a or run not in b:
            what = f"only in {a_path if run in a else b_path}"
        else:
            what = ", ".join(f for f, x, y in zip(FIELDS, a[run], b[run]) if x != y)
        print(f"{run}: {what}")
    print(f"{len(differing)} of {len(runs)} runs differ")
    # Every run names a file, and every file name holds a dot.
    groups = Counter(
        " ".join(itertools.takewhile(lambda arg: "." not in arg, run.split()))
        for run in differing
    )
    for group, count in sorted(groups.items()):
        print(f"{count:6d}  {group}")
    return 1 if differing else 0


if __name__ == "__main__":
    if len(sys.argv) == 4 and sys.argv[1] == "--diff":
        sys.exit(diff(sys.argv[2], sys.argv[3]))
    if len(sys.argv) == 3 and sys.argv[1] == "--strict":
        sys.exit(strict(sys.argv[2]))
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1], sys.argv[2]))
