"""Benchmark of bbgroups: three seeded workloads, checked answers, traced layers.

Run from the root of a checkout:

    python3 perfbench/run.py --workload finiteness --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 35

One run is one fresh single-threaded process.  It sets up several times
(import the program from ``src/``, generate the seeded inputs, write the
graph files, warm each kind of call once) and reports the median set-up
time.  Then it repeats passes over the workload's fixed list of calls
until ``--seconds`` are used, timing every call and checking every
answer after its timer stops.

With ``--trace 0`` the last line reports the end-to-end metrics, as
medians over the passes: ``wall_s`` (the summed time of a pass's calls:
what a user waits for the answers to the whole input set),
``max_call_s`` (a pass's slowest call), then ``peak_rss_mb`` of the
process and ``setup_s``, the median set-up.

Times are scaled to a reference host speed.  The hosts this runs on are
shared, and the same call can take twice as long from one minute to
the next; a fixed piece of pure-Python work (``probe``) is timed before
and after every call and set-up, and each time is multiplied by
``REFERENCE_PROBE_S`` over the mean of its probes.  The unscaled median
``wall_s`` is printed on a line of its own, and every call's raw and
scaled times go to ``perfbench/out/times-<workload>-seed<seed>.json``.

With ``--trace 1`` passes alternate between untraced and traced, and the
last line reports the per-layer metrics of the traced passes.

``attempted`` and ``failed`` count calls; a call fails if it raises,
exits non-zero, fails a check or, for the default seed, differs from
the pinned digest in ``digests.json``.  The line before the result
prints ``fail_frac`` = failed / attempted with its base.
"""

from __future__ import annotations

import argparse
import gc
import gzip
import importlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
DEFAULT_SEED = 1
SETUPS = 5
# Median time of probe() on the host where the baseline was recorded.
REFERENCE_PROBE_S = 0.0024

sys.path.insert(0, HERE)
sys.dont_write_bytecode = True

import tracing  # noqa: E402
import workloads  # noqa: E402


def load_program():
    """Import the program from source, dropping any earlier import."""
    for name in [n for n in sys.modules if n == "bbgroups" or n.startswith("bbgroups.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    bb = importlib.import_module("bbgroups")
    importlib.import_module("bbgroups.cli")
    return bb


def run_op(op, tracer=None):
    """Time one call; returns (seconds, output, error text or None)."""
    if tracer is not None:
        tracer.item = op.id
        tracer.active = True
        tracer.open(op.span)
    start = time.perf_counter()
    try:
        output = op.call()
        error = None
    except Exception:
        output, error = None, traceback.format_exc(limit=3)
    elapsed = time.perf_counter() - start
    if tracer is not None:
        tracer.close()
        tracer.active = False
    return elapsed, output, error


def settle(op, output, error, pinned):
    """Save the op's stdout where later calls read it, then check it."""
    if error is not None:
        return error.strip().splitlines()[-1]
    if op.save is not None:
        with open(op.save, "w", encoding="utf-8") as handle:
            handle.write(output[1])
    try:
        problem = op.check(output)
    except Exception:
        problem = "check raised: " + traceback.format_exc(limit=3).strip().splitlines()[-1]
    if problem is None and pinned is not None:
        got = workloads.digest(output)
        if got != pinned.get(op.id):
            problem = f"output digest {got} != pinned {pinned.get(op.id)}"
    return problem


def probe():
    """Time a fixed piece of pure-Python work: the host's current speed."""
    start = time.perf_counter()
    table, total = {}, 0
    for i in range(20000):
        total += i * i % 7
        table[i & 255] = total
    return time.perf_counter() - start


def scale(seconds, probes):
    """``seconds`` at the reference host speed, from probe times taken around them."""
    return seconds * REFERENCE_PROBE_S / statistics.fmean(probes)


def setup(name, seed, workdir):
    """One set-up: import, generate inputs, write files, warm each call kind.

    Returns its time at the reference host speed, and the ops.
    """
    probes = [probe() for _ in range(3)]
    start = time.perf_counter()
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    bb = load_program()
    ops = workloads.build(name, bb, seed, workdir)
    seen = set()
    for op in ops:
        if op.span not in seen:
            seen.add(op.span)
            elapsed, output, error = run_op(op)
            settle(op, output, error, None)
    elapsed = time.perf_counter() - start
    return scale(elapsed, probes + [probe() for _ in range(3)]), ops


def run_pass(ops, pinned, failures, tracer=None):
    """Every op once, in order; returns per-op seconds, raw and scaled.

    A probe runs between consecutive calls, and each call's time is
    scaled by the probes on either side of it.
    """
    gc.collect()
    times, scaled = [], []
    before = probe()
    for op in ops:
        elapsed, output, error = run_op(op, tracer)
        after = probe()
        problem = settle(op, output, error, pinned)
        if problem is not None:
            failures.append(f"{op.id}: {problem}")
        times.append(elapsed)
        scaled.append(scale(elapsed, (before, after)))
        before = after
    return times, scaled


# Per-layer metrics: "<span>.calls" and "<span>.self_s" come from the
# spans, "trace.*", "cli.call_*" and the ratios are derived below, and
# every other name is a counter kept by tracing.py.
PER_LAYER = [
    "snf.invariant_factors.calls", "snf.invariant_factors.self_s",
    "snf.invariant_factors.entries", "snf.invariant_factors.nonzeros",
    "snf.matrix_multiply.self_s", "snf.matrix_multiply.mults",
    "snf.is_zero_matrix.self_s",
    "complexes.homology.calls", "complexes.homology.self_s", "complexes.homology.per_complex",
    "complexes.boundary_matrix.self_s", "complexes.boundary_matrix.entries",
    "complexes.parse_complex.calls", "complexes.parse_complex.self_s", "complexes.parse_complex.simplices",
    "complexes.pi1_presentation.self_s",
    "complexes.simply_connected_status.self_s",
    "presentations.tietze_simplify.calls", "presentations.tietze_simplify.self_s",
    "presentations.tietze_simplify.letters_in", "presentations.tietze_simplify.letters_out",
    "presentations.tietze_simplify.exhausted",
    "presentations.abelianization.self_s", "presentations.abelianization.entries",
    "presentations.parse_presentation.self_s", "presentations.serialize_presentation.self_s",
    "words.normal_form.calls", "words.normal_form.self_s",
    "words.normal_form.letters_in", "words.normal_form.letters_out",
    "words.is_identity.calls", "words.is_identity.self_s", "words.is_identity.letters_in",
    "words.parse_word.self_s", "words.parse_word.letters_out",
    "words.render_word.self_s",
    "bestvina_brady.finite_presentation.self_s", "bestvina_brady.finite_presentation.relators",
    "bestvina_brady.directed_cycle_presentation.self_s", "bestvina_brady.directed_cycle_presentation.relators",
    "bestvina_brady.enumerate_cycle_classes.self_s", "bestvina_brady.enumerate_cycle_classes.cycles",
    "bestvina_brady.verify_relator.calls", "bestvina_brady.verify_relator.self_s",
    "bestvina_brady.verify_relator.ok_frac",
    "bestvina_brady.raag_image.self_s", "bestvina_brady.raag_image.letters_out",
    "bestvina_brady.express_in_kernel.self_s", "bestvina_brady.express_in_kernel.letters_out",
    "facering.finiteness_report.self_s",
    "facering.render_report_text.self_s",
    *(f"cli.{verb}.{q}" for verb in ("report", "present", "verify", "reduce", "express") for q in ("calls", "self_s")),
    "cli.call_p50_ms", "cli.call_p90_ms",
    "trace.overhead_frac", "trace.spans",
]


def unit(name):
    if name.endswith("self_s"):
        return "s"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith(("_frac", ".per_complex")):
        return "ratio"
    return "count"


def snapshot(tracer, times, scaled):
    """What one traced pass contributes: counts, self times, CLI call times.

    Times are scaled to the reference host speed by the pass's overall
    factor, since the probes run between calls, not between spans.
    """
    factor = sum(scaled) / sum(times)
    counts = dict(tracer.counters)
    counts.update({f"{name}.calls": n for name, n in tracer.calls().items()})
    counts["complexes.homology.distinct"] = len(tracer.complexes)
    counts["trace.spans"] = len(tracer.spans)
    self_s = {name: value * factor for name, value in tracer.self_times().items()}
    cli_ms = [(end - start) * 1000 * factor for name, start, end, _, _ in tracer.top_level() if name.startswith("cli.")]
    return counts, self_s, cli_ms, sum(scaled)


def layer_metrics(traced, untraced):
    """Per-layer metrics: counts of the first traced pass, times as medians."""
    counts = traced[0][0]
    self_s = {}
    for run in traced:
        for name, value in run[1].items():
            self_s.setdefault(name, []).append(value)
    cli_ms = sorted(ms for run in traced for ms in run[2])
    derived = {
        "complexes.homology.per_complex": counts.get("complexes.homology.calls", 0)
        / max(counts["complexes.homology.distinct"], 1),
        "bestvina_brady.verify_relator.ok_frac": counts.get("bestvina_brady.verify_relator.ok", 0)
        / max(counts.get("bestvina_brady.verify_relator.calls", 0), 1),
        "cli.call_p50_ms": statistics.median(cli_ms) if cli_ms else 0.0,
        "cli.call_p90_ms": statistics.quantiles(cli_ms, n=10)[-1] if len(cli_ms) > 1 else sum(cli_ms),
        "trace.overhead_frac": statistics.median(run[3] for run in traced)
        / statistics.median(sum(scaled) for _, scaled in untraced)
        - 1,
    }
    metrics = {}
    for name in PER_LAYER:
        if name in derived:
            value = derived[name]
        elif name.endswith(".self_s"):
            value = statistics.median(self_s.get(name[: -len(".self_s")], [0.0]))
        else:
            value = counts.get(name, 0)
        metrics[name] = (value, unit(name))
    return metrics


def write_spans(path, spans):
    """The spans of the last traced pass, one JSON array per line, gzipped."""
    with gzip.open(path, "wt", encoding="utf-8") as handle:
        for name, start, end, parent, item in spans:
            handle.write(json.dumps([name, round(start, 9), round(end, 9), parent, item]) + "\n")


def measure(name, seed, seconds, traced):
    """Set up, then run passes for ``seconds``; returns metrics and failures."""
    out = os.path.join(HERE, "out")
    workdir = os.path.join(out, f"work-{name}-{os.getpid()}")
    try:
        setups, ops = [], None
        for _ in range(SETUPS):
            ops = None  # free the previous set-up's inputs before building anew
            gc.collect()
            elapsed, ops = setup(name, seed, workdir)
            setups.append(elapsed)
        pinned = None
        if seed == DEFAULT_SEED:
            with open(os.path.join(HERE, "digests.json"), encoding="utf-8") as handle:
                pinned = json.load(handle)[name]
        tracer = tracing.Tracer() if traced else None
        failures, untraced, traced_runs = [], [], []
        deadline = time.perf_counter() + seconds
        if tracer is not None:
            tracer.install()
        try:
            while True:
                start = time.perf_counter()
                if tracer is not None and len(untraced) > len(traced_runs):
                    tracer.reset()
                    traced_runs.append(snapshot(tracer, *run_pass(ops, pinned, failures, tracer)))
                else:
                    untraced.append(run_pass(ops, pinned, failures))
                now = time.perf_counter()
                if (not traced or traced_runs) and now + (now - start) > deadline:
                    break
        finally:
            if tracer is not None:
                tracer.uninstall()
        passes = len(untraced) + len(traced_runs)
        if traced:
            if any(run[0] != traced_runs[0][0] for run in traced_runs):
                failures.append("per-layer counts differ between traced passes")
            metrics = layer_metrics(traced_runs, untraced)
            write_spans(os.path.join(out, f"spans-{name}-seed{seed}.jsonl.gz"), tracer.spans)
        else:
            with open(os.path.join(out, f"times-{name}-seed{seed}.json"), "w", encoding="utf-8") as handle:
                raw, scaled = zip(*untraced)
                json.dump({"ops": [op.id for op in ops], "raw": raw, "scaled": scaled}, handle)
            metrics = {
                "wall_s": (statistics.median(sum(scaled) for _, scaled in untraced), "s"),
                "max_call_s": (statistics.median(max(scaled) for _, scaled in untraced), "s"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
                "setup_s": (statistics.median(setups), "s"),
            }
            print(f"unscaled wall_s={statistics.median(sum(times) for times, _ in untraced):.6g} s")
        return metrics, len(ops) * passes, failures, passes
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run_all(args):
    """Each workload in its own fresh process, one after another."""
    status = 0
    for name in workloads.WORKLOADS:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed)]
        argv += ["--seconds", str(args.seconds), "--trace", str(args.trace)]
        result = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=False)
        lines = result.stdout.splitlines()
        print("\n".join(lines[:-1]))
        status = status or result.returncode
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "bbgroups", "__init__.py")):
        print(f"error: the program's source is missing ({SRC}/bbgroups)", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.workload == "all":
        return run_all(args)

    metrics, attempted, failures, passes = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    for failure in failures[:20]:
        print("FAILED", failure, file=sys.stderr)
    summary = " ".join(f"{k}={v:.6g} {u}" for k, (v, u) in metrics.items()) if not args.trace else ""
    print(
        f"{args.workload} seed={args.seed} passes={passes}: {summary}"
        f" fail_frac={len(failures) / attempted:.6g} (ops={attempted})".replace(":  ", ": ")
    )
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
