"""Outside-in tracing of the program's public functions.

The program has no spans of its own, so the benchmark wraps each traced
function object and rebinds every reference to it: module globals of
every loaded ``bbgroups`` module (``homology``, for instance, is bound
in ``complexes``, ``facering``, ``cli`` and the package root) and class
attributes (``RaagContext.normal_form``).  Calls between the program's
modules look names up at call time, so they reach the wrappers too.
``Tracer.uninstall`` puts every original binding back.

Spans live in memory as ``[name, start, end, parent, item]`` lists and
are written out only when the run ends.  Counters are integers computed
from argument and result shapes ("computed", not measured inside the
program), outside the timed interval of the call they describe.
"""

from __future__ import annotations

import sys
import time

PACKAGE = "bbgroups"


def _matrix_entries(matrix):
    return len(matrix) * (len(matrix[0]) if matrix else 0)


def _homology(tracer, args, result):
    # Homology calls per distinct complex; holding the complex keeps its
    # id from being reused while the pass runs.
    tracer.complexes[id(args[0])] = args[0]


def _invariant_factors(tracer, args, result):
    matrix = args[0]
    tracer.add("snf.invariant_factors.entries", _matrix_entries(matrix))
    tracer.add("snf.invariant_factors.nonzeros", sum(1 for row in matrix for x in row if x))


def _matrix_multiply(tracer, args, result):
    a, b = args
    if a and b:
        tracer.add("snf.matrix_multiply.mults", len(a) * len(b) * len(b[0]))


def _boundary_matrix(tracer, args, result):
    tracer.add("complexes.boundary_matrix.entries", _matrix_entries(result))


def _parse_complex(tracer, args, result):
    tracer.add("complexes.parse_complex.simplices", sum(result.f_vector()))


def _tietze(tracer, args, result):
    simplified, status = result
    tracer.add("presentations.tietze_simplify.letters_in", args[0].total_relator_length())
    tracer.add("presentations.tietze_simplify.letters_out", simplified.total_relator_length())
    tracer.add("presentations.tietze_simplify.exhausted", int(status.value == "BudgetExhausted"))


def _abelianization(tracer, args, result):
    p = args[0]
    tracer.add("presentations.abelianization.entries", len(p.relators) * len(p.generators))


def _normal_form(tracer, args, result):
    tracer.add("words.normal_form.letters_in", len(args[1]))
    tracer.add("words.normal_form.letters_out", len(result))


def _is_identity(tracer, args, result):
    tracer.add("words.is_identity.letters_in", len(args[1]))


def _result_len(name):
    def count(tracer, args, result):
        tracer.add(name, len(result))

    return count


def _relators(name):
    def count(tracer, args, result):
        tracer.add(name, len(result.relators))

    return count


def _verify_relator(tracer, args, result):
    tracer.add("bestvina_brady.verify_relator.ok", int(bool(result)))


# span name -> (module, attribute path, counter hook or None)
TARGETS = {
    "snf.invariant_factors": ("snf", "invariant_factors", _invariant_factors),
    "snf.matrix_multiply": ("snf", "matrix_multiply", _matrix_multiply),
    "snf.is_zero_matrix": ("snf", "is_zero_matrix", None),
    "complexes.homology": ("complexes", "homology", _homology),
    "complexes.boundary_matrix": ("complexes", "boundary_matrix", _boundary_matrix),
    "complexes.parse_complex": ("complexes", "parse_complex", _parse_complex),
    "complexes.pi1_presentation": ("complexes", "pi1_presentation", None),
    "complexes.simply_connected_status": ("complexes", "simply_connected_status", None),
    "presentations.tietze_simplify": ("presentations", "tietze_simplify", _tietze),
    "presentations.abelianization": ("presentations", "abelianization", _abelianization),
    "presentations.parse_presentation": ("presentations", "parse_presentation", None),
    "presentations.serialize_presentation": ("presentations", "serialize_presentation", None),
    "words.normal_form": ("words", "RaagContext.normal_form", _normal_form),
    "words.is_identity": ("words", "RaagContext.is_identity", _is_identity),
    "words.parse_word": ("words", "parse_word", _result_len("words.parse_word.letters_out")),
    "words.render_word": ("words", "render_word", None),
    "bestvina_brady.finite_presentation": (
        "bestvina_brady",
        "finite_presentation",
        _relators("bestvina_brady.finite_presentation.relators"),
    ),
    "bestvina_brady.directed_cycle_presentation": (
        "bestvina_brady",
        "directed_cycle_presentation",
        _relators("bestvina_brady.directed_cycle_presentation.relators"),
    ),
    "bestvina_brady.enumerate_cycle_classes": (
        "bestvina_brady",
        "enumerate_cycle_classes",
        _result_len("bestvina_brady.enumerate_cycle_classes.cycles"),
    ),
    "bestvina_brady.verify_relator": ("bestvina_brady", "verify_relator", _verify_relator),
    "bestvina_brady.raag_image": (
        "bestvina_brady",
        "raag_image",
        _result_len("bestvina_brady.raag_image.letters_out"),
    ),
    "bestvina_brady.express_in_kernel": (
        "bestvina_brady",
        "express_in_kernel",
        _result_len("bestvina_brady.express_in_kernel.letters_out"),
    ),
    "facering.finiteness_report": ("facering", "finiteness_report", None),
    "facering.render_report_text": ("facering", "render_report_text", None),
}


def rebind(replacements):
    """Point every binding of each original function at its replacement.

    ``replacements`` maps ``id(original)`` to ``(original, replacement)``.
    Scans module globals and class attributes of the loaded program
    modules.  Returns ``(owner, name, original)`` triples for ``restore``.
    """
    owners = {}
    for name, module in list(sys.modules.items()):
        if name != PACKAGE and not name.startswith(PACKAGE + "."):
            continue
        owners[id(module)] = module
        for value in vars(module).values():
            if isinstance(value, type) and value.__module__.startswith(PACKAGE):
                owners[id(value)] = value
    undo = []
    for owner in owners.values():
        for name, value in list(vars(owner).items()):
            new = replacements.get(id(value))
            if new is not None and new[0] is value:
                setattr(owner, name, new[1])
                undo.append((owner, name, value))
    return undo


def restore(undo):
    for owner, name, value in reversed(undo):
        setattr(owner, name, value)


def resolve(module, path):
    """The object at ``path`` (``name`` or ``Class.name``) in a program module."""
    obj = sys.modules[f"{PACKAGE}.{module}"]
    for part in path.split("."):
        obj = getattr(obj, part)
    return obj


class Tracer:
    """Spans and counters of one pass; installed around program calls."""

    def __init__(self):
        self.active = False
        self.spans = []
        self.counters = {}
        self.complexes = {}
        self._stack = []
        self._undo = []
        self.item = None

    # -- binding ---------------------------------------------------------

    def install(self):
        originals = {name: resolve(module, path) for name, (module, path, _) in TARGETS.items()}
        replacements = {
            id(original): (original, self._wrap(name, original, TARGETS[name][2]))
            for name, original in originals.items()
        }
        self._undo = rebind(replacements)
        bound = {id(value) for _, _, value in self._undo}
        missing = sorted(name for name, original in originals.items() if id(original) not in bound)
        if missing:
            self.uninstall()
            raise RuntimeError(f"no binding found for {missing}")

    def uninstall(self):
        restore(self._undo)
        self._undo = []

    def _wrap(self, name, original, hook):
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return original(*args, **kwargs)
            tracer.open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.close()
            if hook is not None:
                hook(tracer, args, result)
            return result

        return traced

    # -- spans and counters ------------------------------------------------

    def reset(self):
        self.spans = []
        self.counters = {}
        self.complexes = {}
        self._stack = []

    def open(self, name):
        parent = self._stack[-1] if self._stack else None
        self._stack.append(len(self.spans))
        self.spans.append([name, time.perf_counter(), None, parent, self.item])

    def close(self):
        self.spans[self._stack.pop()][2] = time.perf_counter()

    def add(self, name, amount):
        self.counters[name] = self.counters.get(name, 0) + amount

    def self_times(self):
        """Span duration minus child-span coverage, summed by span name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name] = out.get(name, 0.0) + (end - start) - child[i]
        return out

    def calls(self):
        out = {}
        for span in self.spans:
            out[span[0]] = out.get(span[0], 0) + 1
        return out

    def top_level(self):
        return [s for s in self.spans if s[3] is None]
