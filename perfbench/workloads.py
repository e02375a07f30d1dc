"""The three workloads: their inputs, the calls they time and the checks.

A workload is a list of ``Op``s run in order; one run of the list is a
pass.  Each op is one call into the program (a CLI verb through
``bbgroups.cli.main``, or one public library call), timed on its own.
Its check runs after the timer stops, with tracing paused, and returns
a problem text or None.  Checks compare against answers known from the
construction of the input, and against invariants that any correct
program keeps; they never compare against the program's own output from
a previous version, except through the pinned digests.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import random

import inputs

WORKLOADS = ("finiteness", "kernel", "words")


class Op:
    """One timed call, its check and, optionally, where its stdout goes."""

    __slots__ = ("id", "span", "call", "check", "save")

    def __init__(self, id, span, call, check, save=None):
        self.id = id
        self.span = span
        self.call = call
        self.check = check
        self.save = save


def cli_call(cli, argv):
    """Run one verb in-process; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def cli_op(bb, id, argv, check, save=None):
    return Op(id, "cli." + argv[0], lambda: cli_call(bb.cli, argv), check, save)


def digest(output):
    """Short digest of an op's output, as pinned in digests.json."""
    if isinstance(output, tuple) and len(output) == 3 and isinstance(output[0], int):
        text = f"{output[0]}\n{output[1]}"  # a verb's exit code and stdout
    elif hasattr(output, "letters"):
        text = repr(output.letters)
    else:
        text = repr(output)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _exit_ok(output):
    code, out, err = output
    if code != 0:
        return f"exit code {code}: {err.strip()[:200]}"
    return None


def _write(workdir, name, text):
    path = os.path.join(workdir, name)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
    return path


def typical_graph(rng, n, p, draws=5):
    """Of ``draws`` seeded G(n, M) graphs, the one with the median simplex count.

    Homology cost grows steeply with the clique counts, so taking the
    median draw keeps one seed's workload close to another's.
    """
    graphs = [inputs.random_graph(rng, n, p) for _ in range(draws)]
    graphs.sort(key=lambda g: sum(inputs.f_vector(*g)))
    return graphs[draws // 2]


# -- finiteness ------------------------------------------------------------


def _report_fields(text):
    fields = {}
    for line in text.splitlines():
        key, sep, value = line.partition(":")
        if sep and not key.startswith("chi"):
            fields[key] = value.split("    [")[0].strip()
        elif line.startswith("chi(complex) = "):
            fields["chi"] = int(line.split("= ")[1])
    return fields


def _tuple(text):
    return tuple(int(x) for x in text.strip("()").split(",") if x.strip())


def report_check(graph, reduced_betti=None, presented=None, fp_text=None):
    """Check a ``report`` against independent facts about ``graph``."""
    f_vec = inputs.f_vector(*graph)
    connected = inputs.is_connected(*graph)

    def check(output):
        problem = _exit_ok(output)
        if problem:
            return problem
        fields = _report_fields(output[1])
        try:
            f_rep = _tuple(fields["f-vector"])
            betti = _tuple(fields["homology betti numbers"])
            chi = fields["chi"]
            generated = fields["finitely generated"]
        except (KeyError, ValueError) as exc:
            return f"unreadable report ({exc})"
        if f_rep != f_vec:
            return f"f-vector {f_rep} != {f_vec}"
        if chi != sum((-1) ** k * f for k, f in enumerate(f_vec)):
            return f"chi {chi} disagrees with the f-vector"
        if chi != sum((-1) ** k * b for k, b in enumerate(betti)):
            return f"chi {chi} disagrees with the betti numbers {betti}"
        if generated != ("yes" if connected else "no"):
            return f"finitely generated: {generated}"
        if reduced_betti is not None:
            expected = tuple(b + (k == 0) for k, b in enumerate(reduced_betti))
            if betti != expected:
                return f"betti numbers {betti} != {expected}"
        if presented is not None and fields.get("finitely presented") != presented:
            return f"finitely presented: {fields.get('finitely presented')}"
        if fp_text is not None and fields.get("finiteness type") != fp_text:
            return f"finiteness type: {fields.get('finiteness type')}"
        return None

    return check


def _fp_text(level):
    return f"type FP({level}), not FP({level + 1})"


def finiteness(bb, rng, workdir):
    """``report`` over a ladder of known complexes and many small random ones."""
    items = []
    contractible = dict(presented="yes", fp_text="type FP (FP(n) for every n)")
    for m in range(6, 9):
        items.append((f"grid{m}", inputs.grid_disk(m), dict(reduced_betti=(0, 0, 0), **contractible)))
    for m in (5, 7):
        g = inputs.coned_grid(m)
        dim = len(inputs.f_vector(*g))
        items.append((f"cone{m}", g, dict(reduced_betti=(0, 0, 1) + (0,) * (dim - 3), fp_text=_fp_text(2))))
    for k in range(3, 6):
        sphere = dict(reduced_betti=(0,) * (k - 1) + (1,), fp_text=_fp_text(k - 1))
        items.append((f"join{k}", inputs.join_of_pairs(k), sphere))
    for n in range(7, 9):
        items.append((f"K{n}", inputs.complete_graph(n), dict(reduced_betti=(0,) * n, **contractible)))
    for n in (25, 28, 31):
        items.append((f"gnp{n}", typical_graph(rng, n, 0.3), {}))
    for i in range(100):
        n = rng.randint(6, 14)
        items.append((f"small{i}", inputs.random_graph(rng, n, rng.choice((0.3, 0.4, 0.5))), {}))
    ops = []
    for name, graph, expect in items:
        path = _write(workdir, name + ".txt", inputs.graph_text(*graph))
        ops.append(cli_op(bb, f"report {name}", ["report", path], report_check(graph, **expect)))
    return ops


# -- kernel ------------------------------------------------------------------


def _relator_count(text):
    return sum(1 for line in text.splitlines() if line.startswith("rel:"))


def _gens(text):
    for line in text.splitlines():
        if line.startswith("gens:"):
            return line.split()[1:]
    return None


def kernel(bb, rng, workdir):
    """Kernel presentations, their verification, Tietze reduction and abelianization."""
    items = [("octahedron", inputs.join_of_pairs(3)), ("join4", inputs.join_of_pairs(4))]
    items += [(f"grid{m}", inputs.grid_disk(m)) for m in (5, 6)]
    items.append(("cone4", inputs.coned_grid(4)))
    items += [(f"gnp{n}", typical_graph(rng, n, 0.3)) for n in (12, 14)]
    items += [(f"small{i}", inputs.random_graph(rng, rng.randint(5, 9), 0.45)) for i in range(10)]

    ops = []
    for name, graph in items:
        f_vec = inputs.f_vector(*graph)
        edges, triangles = f_vec[1], (f_vec[2] if len(f_vec) > 2 else 0)
        path = _write(workdir, name + ".txt", inputs.graph_text(*graph))
        finite = os.path.join(workdir, name + ".finite")
        reduced = os.path.join(workdir, name + ".reduced")
        truncated = os.path.join(workdir, name + ".truncated")

        def check_finite(output, edges=edges, triangles=triangles):
            problem = _exit_ok(output)
            if problem:
                return problem
            gens, rels = _gens(output[1]), _relator_count(output[1])
            if gens is None or len(gens) != edges or rels != 2 * triangles:
                return f"bb-finite has {gens and len(gens)} gens, {rels} relators; expected {edges}, {2 * triangles}"
            return None

        def check_verify(output, source):
            problem = _exit_ok(output)
            if problem:
                return problem
            with open(source, encoding="utf-8") as handle:
                rels = _relator_count(handle.read())
            lines = output[1].splitlines()
            if lines[:3] != [f"relators: {rels}", f"verified: {rels}", "all relators verified"]:
                return f"verify says {lines[:3]} for {rels} relators"
            return None

        def check_reduce(output):
            problem = _exit_ok(output)
            if problem:
                return problem
            if not output[1].endswith("# status: Fixpoint\n"):
                return "reduce did not reach a fixpoint"
            return None

        def abelianize(finite=finite, reduced=reduced):
            out = []
            for source in (finite, reduced):
                with open(source, encoding="utf-8") as handle:
                    text = handle.read()
                out.append(bb.abelianization(bb.parse_presentation(text)))
            return tuple(out)

        def check_abelian(output):
            before, after = output
            if before != after:
                return f"reduce changed the abelianization: {before} -> {after}"
            return None

        def check_truncated(output, edges=edges):
            problem = _exit_ok(output)
            if problem:
                return problem
            gens = _gens(output[1])
            if gens is None or len(gens) != 2 * edges or _relator_count(output[1]) % 4:
                return "bb-truncated has the wrong shape"
            return None

        ops += [
            cli_op(bb, f"bb-finite {name}", ["present", "--kind", "bb-finite", path], check_finite, finite),
            cli_op(bb, f"verify-finite {name}", ["verify", path, finite], lambda o, s=finite: check_verify(o, s)),
            cli_op(bb, f"reduce {name}", ["reduce", finite], check_reduce, reduced),
            Op(f"abelianization {name}", "op.abelianization", abelianize, check_abelian),
            cli_op(
                bb,
                f"bb-truncated {name}",
                ["present", "--kind", "bb-truncated", "--max-len", "5", "--max-exp", "2", path],
                check_truncated,
                truncated,
            ),
            cli_op(
                bb,
                f"verify-truncated {name}",
                ["verify", path, truncated],
                lambda o, s=truncated: check_verify(o, s),
            ),
        ]
    return ops


# -- words -------------------------------------------------------------------


def _exponent_sums(letters):
    sums = {}
    for letter, sign in letters:
        sums[letter] = sums.get(letter, 0) + sign
    return {k: v for k, v in sums.items() if v}


def _normal_form_check(word, ctx):
    """Cheap invariants of nf(word): same alphabet, no longer, same exponent sums."""
    sums = _exponent_sums(word.letters)

    def check(nf):
        if nf.alphabet != ctx.alphabet or len(nf) > len(word):
            return "normal form is over another alphabet or longer than its input"
        if _exponent_sums(nf.letters) != sums:
            return "normal form changed the exponent sums"
        return None

    return check


def words(bb, rng, workdir):
    """The RAAG word problem on long +-1 words and on syllable words."""
    ops = []
    nf = {}  # normal form of each +-1 word in this pass, by tag
    raags = [("n50", 50, 0.3, (1_000, 10_000, 100_000)), ("n200", 200, 0.05, (1_000, 5_000, 20_000))]
    for label, n, p, lengths in raags:
        verts, edges = inputs.random_graph(rng, n, p)
        path = _write(workdir, label + ".txt", inputs.graph_text(verts, edges))
        with open(path, encoding="utf-8") as handle:
            complex = bb.parse_complex(handle.read())
        ctx = bb.RaagContext(complex)
        adjacent = {(u, v) for u, v in edges} | {(v, u) for u, v in edges}
        for length in lengths:
            letters = inputs.random_pm1_word(rng, verts, length)
            shuffled = inputs.commuting_shuffle(rng, letters, adjacent, length)
            w = bb.Word(ctx.alphabet, letters)
            ws = bb.Word(ctx.alphabet, shuffled)
            # The control swaps one adjacent non-commuting pair, which
            # changes the element by a conjugate of a nontrivial commutator.
            control = list(letters)
            i = next(
                i
                for i in range(length - 1)
                if control[i][0] != control[i + 1][0] and (control[i][0], control[i + 1][0]) not in adjacent
            )
            control[i], control[i + 1] = control[i + 1], control[i]
            same = w * ~ws
            differs = w * ~bb.Word(ctx.alphabet, control)
            tag = f"{label} L={length}"

            def first(out, key=tag, check=_normal_form_check(w, ctx)):
                nf[key] = out
                return check(out)

            def again(out, key=tag):
                return None if out == nf.get(key) else "normal form changed"

            ops.append(Op(f"normal_form {tag}", "op.normal_form", lambda c=ctx, w=w: c.normal_form(w), first))
            if length <= 10_000:
                # Canonicity and idempotence on the shorter words only, to
                # keep a pass short enough for several passes per run.
                ops += [
                    Op(f"normal_form shuffled {tag}", "op.normal_form", lambda c=ctx, w=ws: c.normal_form(w), again),
                    Op(f"normal_form twice {tag}", "op.normal_form", lambda c=ctx, k=tag: c.normal_form(nf[k]), again),
                ]
            ops += [
                Op(
                    f"is_identity shuffled {tag}",
                    "op.is_identity",
                    lambda c=ctx, w=same: c.is_identity(w),
                    lambda out: None if out is True else "w sigma(w)^-1 is not the identity",
                ),
                Op(
                    f"is_identity control {tag}",
                    "op.is_identity",
                    lambda c=ctx, w=differs: c.is_identity(w),
                    lambda out: None if out is False else "control word is the identity",
                ),
            ]
        if n == 50:
            for exp in (1_000, 10_000, 50_000):
                text = inputs.syllable_text(rng, verts, 3, exp)
                sums = _exponent_sums(
                    (ctx.alphabet.letter_for_token(t.split("^")[0]), int(t.split("^")[1])) for t in text.split()
                )

                def roundtrip(c=ctx, text=text):
                    form = c.normal_form(bb.parse_word(text, c.alphabet))
                    return form, bb.render_word(form)

                def check_roundtrip(out, c=ctx, sums=sums):
                    form, rendered = out
                    if bb.parse_word(rendered, c.alphabet) != form:
                        return "parse_word(render_word(nf)) != nf"
                    got = {}
                    for letter, exp in form.syllables():
                        got[letter] = got.get(letter, 0) + exp
                    if {k: v for k, v in got.items() if v} != sums:
                        return "normal form changed the exponent sums"
                    return None

                ops.append(Op(f"syllables {label} e={exp}", "op.syllable_roundtrip", roundtrip, check_roundtrip))
        bbctx = bb.BBContext(complex)
        for i in range(5):
            text = inputs.zero_sum_text(rng, verts, 20, 50)

            def check_express(output, c=bbctx, text=text):
                problem = _exit_ok(output)
                if problem:
                    return problem
                edge_word = bb.parse_word(output[1].strip(), c.edge_alphabet)
                image = c.raag.normal_form(bb.raag_image(edge_word, c))
                if image != c.raag.normal_form(bb.parse_word(text, c.vertex_alphabet)):
                    return "nf(raag_image(express(w))) != nf(w)"
                return None

            ops.append(cli_op(bb, f"express {label} {i}", ["express", path, text], check_express))
    return ops


BUILDERS = {"finiteness": finiteness, "kernel": kernel, "words": words}


def build(name, bb, seed, workdir):
    """The ops of one workload; inputs depend only on ``seed``."""
    return BUILDERS[name](bb, random.Random(f"{name}:{seed}"), workdir)
