"""Command-line front end.

Verbs map one-to-one onto library operations; all output is
deterministic for deterministic inputs, UTF-8 and newline-terminated.
Exit status: 0 success, 1 domain errors (for ``verify``, also any
failed relator), 2 usage or file-syntax errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import bestvina_brady as bb
from . import facering
from .complexes import euler_characteristic, homology, parse_complex, pi1_presentation
from .errors import ParseError, parse_text_or_json
from .presentations import (
    TIETZE_BUDGET,
    _json_form,
    _text_form,
    parse_presentation,
    presentation_from_json,
    presentation_to_json,
    serialize_presentation,
    tietze_simplify,
)
from .words import Word, parse_word, render_word


def _int_at_least(low):
    """argparse ``type=`` for an integer option with a lower bound."""

    def integer(text):
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return integer


@functools.cache
def build_parser():
    """The argument parser, built once and shared: parsing leaves no state in it."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit JSON instead of text")

    parser = argparse.ArgumentParser(
        prog="bbgroups",
        description="Flag complexes, RAAGs, and verified kernel presentations.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("info", parents=[common], help="basic facts about a complex")
    p.add_argument("complex", help="graph file (text or JSON form)")

    p = sub.add_parser("homology", parents=[common], help="integral homology")
    p.add_argument("--reduced", action="store_true")
    p.add_argument("complex")

    p = sub.add_parser("present", parents=[common], help="emit a presentation")
    p.add_argument(
        "--kind",
        required=True,
        choices=["bb-finite", "bb-truncated", "pi1"],
        help="which presentation to construct",
    )
    p.add_argument("--max-len", type=_int_at_least(2), default=4, help="cycle length bound (bb-truncated)")
    p.add_argument("--max-exp", type=_int_at_least(1), default=2, help="relator exponent bound (bb-truncated)")
    p.add_argument("--budget", type=_int_at_least(1), default=TIETZE_BUDGET, help="Tietze budget for certification")
    p.add_argument("complex")

    p = sub.add_parser("verify", parents=[common], help="check an edge-generated presentation")
    p.add_argument("complex")
    p.add_argument("presentation")

    p = sub.add_parser("express", parents=[common], help="rewrite a kernel element over edges")
    p.add_argument("complex")
    p.add_argument("word", help="vertex word with exponent sum zero, e.g. 'a b^-1'")

    p = sub.add_parser("reduce", parents=[common], help="Tietze-simplify a presentation file")
    p.add_argument("--budget", type=_int_at_least(1), default=TIETZE_BUDGET)
    p.add_argument("presentation")

    p = sub.add_parser("report", parents=[common], help="finiteness-properties report")
    p.add_argument("--budget", type=_int_at_least(1), default=TIETZE_BUDGET)
    p.add_argument("complex")

    p = sub.add_parser("hilbert", parents=[common], help="face ring rank sequence")
    p.add_argument("complex")

    p = sub.add_parser("euler", parents=[common], help="Euler characteristics")
    p.add_argument("complex")

    return parser


def _read(path):
    with open(path, encoding="utf-8") as handle:
        try:
            return handle.read()
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path}: not UTF-8 text (byte {exc.start})") from None


def _load_complex(path):
    return parse_complex(_read(path))


def _load_presentation(path):
    return parse_text_or_json(_read(path), presentation_from_json, parse_presentation)


def _dump_json(data):
    return json.dumps(data, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _tuple_text(values):
    return "(" + ", ".join(str(v) for v in values) + ")"


def _run_info(ns):
    complex = _load_complex(ns.complex)
    chi = euler_characteristic(complex)
    if ns.json:
        return _dump_json(
            {
                "vertices": len(complex.vertices),
                "edges": len(complex.edges),
                "f_vector": list(complex.f_vector()),
                "dimension": complex.dim,
                "connected": complex.is_connected(),
                "chi": chi,
            }
        ), 0
    lines = [
        f"vertices: {len(complex.vertices)}",
        f"edges: {len(complex.edges)}",
        f"f-vector: {_tuple_text(complex.f_vector())}",
        f"dimension: {complex.dim}",
        f"connected: {'yes' if complex.is_connected() else 'no'}",
        f"chi: {chi}",
    ]
    return "\n".join(lines) + "\n", 0


def _run_homology(ns):
    complex = _load_complex(ns.complex)
    result = homology(complex, reduced=ns.reduced)
    if ns.json:
        return _dump_json(
            {
                "reduced": result.reduced,
                "betti": list(result.betti),
                "torsion": [list(t) for t in result.torsion],
            }
        ), 0
    lines = [f"betti: {_tuple_text(result.betti)}"]
    for k in range(len(result.betti)):
        lines.append(f"H_{k}: {result.group_text(k)}")
    return "\n".join(lines) + "\n", 0


def _run_present(ns):
    complex = _load_complex(ns.complex)
    if ns.kind == "bb-truncated":
        # The family is written from its relator texts, with no Presentation.
        family = bb._truncated_family(bb.BBContext(complex), ns.max_len, ns.max_exp)
        if ns.json:
            return _dump_json(_json_form(*family)), 0
        return _text_form(*family), 0
    if ns.kind == "pi1":
        presentation = pi1_presentation(complex)
    else:
        presentation = bb.finite_presentation(bb.BBContext(complex), tietze_budget=ns.budget)
    if ns.json:
        return _dump_json(presentation_to_json(presentation)), 0
    return serialize_presentation(presentation), 0


def _run_verify(ns):
    complex = _load_complex(ns.complex)
    ctx = bb.BBContext(complex)
    # Each relator's syllables go straight to their verdict; a Word is built
    # only to print a relator that fails.
    count, failed = 0, []
    for runs in bb._read_edge_relators(_read(ns.presentation), ctx):
        if not bb.verify_relator(runs, ctx):
            failed.append((count, runs))
        count += 1
    failures = [i for i, _ in failed]
    if ns.json:
        return _dump_json(
            {
                "relators": count,
                "verified": count - len(failures),
                "failures": failures,
            }
        ), (0 if not failures else 1)
    lines = [f"relators: {count}", f"verified: {count - len(failures)}"]
    if failures:
        for i, runs in failed:
            lines.append(f"FAILED relator {i}: {render_word(Word._of(ctx.edge_alphabet, runs))}")
    else:
        lines.append("all relators verified")
    return "\n".join(lines) + "\n", (0 if not failures else 1)


def _run_express(ns):
    complex = _load_complex(ns.complex)
    ctx = bb.BBContext(complex)
    word = parse_word(ns.word, ctx.vertex_alphabet)
    result = bb.express_in_kernel(word, ctx)
    if ns.json:
        return _dump_json({"word": render_word(result)}), 0
    return render_word(result) + "\n", 0


def _run_reduce(ns):
    presentation = _load_presentation(ns.presentation)
    simplified, status = tietze_simplify(presentation, ns.budget)
    if ns.json:
        return _dump_json(
            {"presentation": presentation_to_json(simplified), "status": status.value}
        ), 0
    return serialize_presentation(simplified) + f"# status: {status.value}\n", 0


def _run_report(ns):
    complex = _load_complex(ns.complex)
    report = facering.finiteness_report(complex, tietze_budget=ns.budget)
    if ns.json:
        return _dump_json(facering.report_to_json(report)), 0
    return facering.render_report_text(report), 0


def _run_hilbert(ns):
    complex = _load_complex(ns.complex)
    series = facering.hilbert_series(complex)
    if ns.json:
        return _dump_json({"hilbert_series": list(series)}), 0
    return f"hilbert series: {_tuple_text(series)}\n", 0


def _run_euler(ns):
    complex = _load_complex(ns.complex)
    chi = euler_characteristic(complex)
    chi_group = facering.group_euler_characteristic(complex)
    if ns.json:
        return _dump_json({"chi_delta": chi, "chi_group": chi_group}), 0
    return f"chi(complex) = {chi}\nchi(raag) = {chi_group}\n", 0


_RUNNERS = {
    "info": _run_info,
    "homology": _run_homology,
    "present": _run_present,
    "verify": _run_verify,
    "express": _run_express,
    "reduce": _run_reduce,
    "report": _run_report,
    "hilbert": _run_hilbert,
    "euler": _run_euler,
}


def main(argv=None):
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        output, status = _RUNNERS[ns.verb](ns)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    sys.stdout.write(output)
    return status


if __name__ == "__main__":
    sys.exit(main())
