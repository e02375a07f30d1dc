"""Checks of the benchmark itself, for the default seed of every workload.

Run from the root of a checkout (takes a few minutes):

    python3 perfbench/selfcheck.py

1. ``BENCHMARK.json`` names exactly the per-layer metrics ``run.py`` prints.
2. A wrong answer injected through the wrapper layer is counted as a
   failed call.
3. Two traced passes give identical per-layer counts.
4. Top-level spans account for the traced pass: the time between them,
   other than the checks, is under 2% of the pass, and the self times
   of all spans add up to the top-level spans.
"""

import json
import os
import shutil
import sys
import time

import run
import tracing
import workloads


def _first_call_wrong(original, corrupt):
    state = {"left": 1}

    def wrong(*args, **kwargs):
        result = original(*args, **kwargs)
        if state["left"]:
            state["left"] -= 1
            return corrupt(result)
        return result

    return wrong


def _drop_last_letter(word):
    return type(word)(word.alphabet, word.letters[:-1])


FAULTS = {
    "finiteness": ("complexes", "euler_characteristic", lambda chi: chi + 1),
    "kernel": ("bestvina_brady", "verify_relator", lambda ok: not ok),
    "words": ("words", "RaagContext.normal_form", _drop_last_letter),
}


def check_fault(name, ops):
    module, path, corrupt = FAULTS[name]
    original = tracing.resolve(module, path)
    undo = tracing.rebind({id(original): (original, _first_call_wrong(original, corrupt))})
    failures = []
    try:
        run.run_pass(ops, None, failures)
    finally:
        tracing.restore(undo)
    if not failures:
        return f"injected fault in {module}.{path} was not counted"
    print(f"  fault in {module}.{path} counted: {failures[0][:100]}")
    return None


def traced_pass(ops, tracer):
    """One traced pass; returns (snapshot, seconds not spent in checks)."""
    tracer.reset()
    checking = 0.0
    failures = []
    start = time.perf_counter()
    for op in ops:
        elapsed, output, error = run.run_op(op, tracer)
        before = time.perf_counter()
        if run.settle(op, output, error, None) is not None:
            failures.append(op.id)
        checking += time.perf_counter() - before
    busy = time.perf_counter() - start - checking
    return run.snapshot(tracer, [busy], [busy]), busy, failures


def check_trace(name, ops):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        first, busy, failures = traced_pass(ops, tracer)
        top = sum(end - start for _, start, end, _, _ in tracer.top_level())
        self_total = sum(tracer.self_times().values())
        second, _, more = traced_pass(ops, tracer)
    finally:
        tracer.uninstall()
    if failures or more:
        return f"traced passes failed calls {(failures + more)[:3]}"
    if first[0] != second[0]:
        diff = sorted(k for k in set(first[0]) | set(second[0]) if first[0].get(k) != second[0].get(k))
        return f"per-layer counts differ between traced passes: {diff[:5]}"
    if busy - top > 0.02 * busy:
        return f"top-level spans cover {top:.3f} s of {busy:.3f} s"
    if abs(self_total - top) > 1e-6 * max(top, 1.0):
        return f"self times add to {self_total:.6f} s, top-level spans to {top:.6f} s"
    print(f"  counts repeat; top-level spans cover {top:.3f} of {busy:.3f} s")
    return None


def check_manifest():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        manifest = json.load(handle)
    listed = [(m["name"], m["unit"]) for m in manifest["per_layer"]]
    if listed != [(name, run.unit(name)) for name in run.PER_LAYER]:
        return "BENCHMARK.json per_layer does not match run.PER_LAYER"
    if [w["name"] for w in manifest["workloads"]] != list(workloads.WORKLOADS):
        return "BENCHMARK.json workloads do not match workloads.WORKLOADS"
    return None


def main():
    sys.path.insert(0, run.SRC)
    problems = []
    problem = check_manifest()
    if problem:
        problems.append(problem)
    for name in workloads.WORKLOADS:
        print(name)
        workdir = os.path.join(run.HERE, "out", f"selfcheck-{name}-{os.getpid()}")
        try:
            _, ops = run.setup(name, run.DEFAULT_SEED, workdir)
            for check in (check_fault, check_trace):
                problem = check(name, ops)
                if problem:
                    problems.append(f"{name}: {problem}")
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    for problem in problems:
        print("SELF-CHECK FAILED:", problem)
    if not problems:
        print("self-check passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
