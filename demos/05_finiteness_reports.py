"""Finiteness properties of the kernel, read off the complex.

The Bestvina-Brady classification makes the kernel's homological
finiteness properties a function of the topology of the flag complex:
connected = finitely generated, simply connected = finitely presented,
(n-1)-acyclic = type FP(n).  The exterior face ring supplies the
cohomology ranks of the ambient RAAG, and the Euler characteristic
obstruction rules out finite-dimensional rational cohomology whenever
chi differs from 1.
"""

import json

from bbgroups import (
    FlagComplex,
    finiteness_report,
    hilbert_series,
    parse_graph_text,
    render_report_text,
    report_to_json,
)

octahedron = parse_graph_text(
    """
    vertices: u0 u1 v0 v1 w0 w1
    edges: u0-v0 u0-v1 u0-w0 u0-w1 u1-v0 u1-v1 u1-w0 u1-w1
    edges: v0-w0 v0-w1 v1-w0 v1-w1
    """
)

print("=== octahedron (Stallings' group) ===")
print(render_report_text(finiteness_report(octahedron)))
print("face ring ranks:", hilbert_series(octahedron))
print()

print("=== square (Bieri's rank-1 example: FP(1) but not FP(2)) ===")
square = FlagComplex("abcd", [("a", "b"), ("b", "c"), ("c", "d"), ("a", "d")])
print(render_report_text(finiteness_report(square)))

print("=== two points (free group; kernel not finitely generated) ===")
print(render_report_text(finiteness_report(FlagComplex("ab", []))))

print("=== JSON mirror of the octahedron report ===")
print(json.dumps(report_to_json(finiteness_report(octahedron)), indent=2, sort_keys=True))
