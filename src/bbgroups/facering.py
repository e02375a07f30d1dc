"""The exterior face ring of a flag complex, and finiteness reports.

The exterior algebra on the vertex set modulo all monomials supported
on non-faces.  Its degree-i component is free abelian of rank equal to
the number of (i-1)-simplices, so the coefficient sequence below is
simultaneously the rank sequence of the integral cohomology of the
associated RAAG.  Coefficients are integers throughout; the
anticommutativity is normalized into the sign of a sorted vertex tuple.

The finiteness report applies the Bestvina-Brady classification to the
kernel of the RAAG's total-exponent map: finitely generated iff the
complex is connected, finitely presented iff simply connected, type
FP(n) iff reduced homology vanishes through degree n-1, with the Euler
characteristic obstruction to finite-dimensional rational cohomology
layered on top.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from itertools import combinations

from .complexes import (
    Pi1Status,
    euler_characteristic,
    homology,
    simply_connected_status,
)
from .presentations import TIETZE_BUDGET


@dataclass(frozen=True)
class FaceMonomial:
    """An integer multiple of a strictly ordered vertex tuple.

    The zero monomial is coefficient 0 with the empty tuple; the unit of
    the ring is coefficient 1 with the empty tuple.
    """

    vertices: tuple
    coefficient: int

    def is_zero(self):
        return self.coefficient == 0

    @property
    def degree(self):
        return len(self.vertices)

    def __repr__(self):
        if self.is_zero():
            return "FaceMonomial(0)"
        body = "^".join(self.vertices) if self.vertices else "1"
        return f"FaceMonomial({self.coefficient}*{body})"


_ZERO = FaceMonomial((), 0)


def face_monomial(complex, vertices, coefficient=1):
    """Normalized monomial: zero unless the vertices are pairwise adjacent (a
    face of a flag complex is a clique; no vertex is adjacent to itself), signed
    by the parity of their inversions in complex order."""
    vertices = tuple(vertices)
    if coefficient == 0:
        return _ZERO
    idx = [complex.vertex_index(v) for v in vertices]
    if not all(complex.adjacent(u, v) for u, v in combinations(vertices, 2)):
        return _ZERO
    inversions = sum(i > j for i, j in combinations(idx, 2))
    ordered = tuple(v for _, v in sorted(zip(idx, vertices)))
    return FaceMonomial(ordered, (-1) ** inversions * coefficient)


def monomial_product(m1, m2, complex):
    """Exterior product in the face ring (possibly zero).

    Zero when the supports meet or their union is not a simplex;
    otherwise the merged sorted tuple with the parity of the merge
    permutation folded into the coefficient.
    """
    return face_monomial(
        complex, m1.vertices + m2.vertices, m1.coefficient * m2.coefficient
    )


def hilbert_series(complex):
    """Rank of each graded piece: 1, then the face counts.

    Degree i > 0 has rank equal to the number of (i-1)-simplices; this
    equals the rank sequence of the integral cohomology of the RAAG of
    the complex.
    """
    return (1,) + complex.f_vector()


def group_euler_characteristic(complex):
    """Euler characteristic of the RAAG: 1 - chi(complex)."""
    return 1 - euler_characteristic(complex)


@dataclass(frozen=True)
class FinitenessReport:
    """Finiteness properties of the kernel group, with their licenses.

    ``fp_level`` is the largest n such that the group is of type FP(n)
    (0 = not even finitely generated); None means type FP, i.e. FP(n)
    for every n.  ``finitely_presented`` is a tri-state 'yes'/'no'/
    'unknown' because triviality of the fundamental group can only be
    certified, never decided.  ``corollary6_obstruction`` is true when
    chi != 1, which forces infinite-dimensional rational cohomology
    (chi = 1 is necessary, not sufficient, for finite dimension).
    ``corollary7_applies`` marks the certified simply connected, chi != 1
    case: finitely presented but not of type FP.
    """

    finitely_generated: bool
    finitely_presented: str
    fp_level: int | None
    chi_delta: int
    chi_group: int
    corollary6_obstruction: bool
    corollary7_applies: bool
    f_vector: tuple
    homology_betti: tuple
    licenses: dict


_LICENSES = {
    "finitely_generated": "finitely generated iff the complex is connected (Bestvina-Brady)",
    "finitely_presented": "finitely presented iff the complex is simply connected (Bestvina-Brady)",
    "fp_level": "type FP(n) iff reduced homology vanishes through degree n-1 (Bestvina-Brady)",
    "chi_group": "Euler characteristic of the RAAG is 1 - chi(complex) (Droms)",
    "corollary6_obstruction": "finite-dimensional rational cohomology of the kernel forces chi(complex) = 1",
    "corollary7_applies": "simply connected with chi != 1: finitely presented but not of type FP (Bestvina-Brady)",
}


def finiteness_report(complex, tietze_budget=TIETZE_BUDGET):
    """Apply the classification to a complex.

    Homology is computed once, reduced: the unreduced b_0 of a nonempty
    complex is one more, the complex is connected iff reduced H_0 = 0, and
    simply_connected_status reads H_1 off pi_1.
    """
    if not complex.vertices:
        raise ValueError("the kernel group needs a nonempty complex")

    reduced = homology(complex, reduced=True)
    connected = reduced.is_trivial(0)
    fp_level = None
    for k in range(len(reduced.betti)):
        if not reduced.is_trivial(k):
            fp_level = k
            break

    if not connected:
        presented = "no"
        status = None
    else:
        status = simply_connected_status(complex, budget=tietze_budget)
        presented = {
            Pi1Status.CERTIFIED_TRIVIAL: "yes",
            Pi1Status.CERTIFIED_NONTRIVIAL: "no",
            Pi1Status.UNKNOWN: "unknown",
        }[status]

    chi = euler_characteristic(complex)
    return FinitenessReport(
        finitely_generated=connected,
        finitely_presented=presented,
        fp_level=fp_level,
        chi_delta=chi,
        chi_group=group_euler_characteristic(complex),
        corollary6_obstruction=chi != 1,
        corollary7_applies=(
            connected and status is Pi1Status.CERTIFIED_TRIVIAL and chi != 1
        ),
        f_vector=complex.f_vector(),
        homology_betti=(reduced.betti[0] + 1,) + reduced.betti[1:],
        licenses=dict(_LICENSES),
    )


def fp_level_text(report):
    if report.fp_level is None:
        return "type FP (FP(n) for every n)"
    if report.fp_level == 0:
        return "not of type FP(1)"
    return f"type FP({report.fp_level}), not FP({report.fp_level + 1})"


def render_report_text(report):
    """Deterministic human-readable report."""
    lines = [
        f"f-vector: ({', '.join(str(x) for x in report.f_vector)})",
        f"homology betti numbers: ({', '.join(str(x) for x in report.homology_betti)})",
        f"chi(complex) = {report.chi_delta}",
        f"chi(raag) = {report.chi_group}",
        f"finitely generated: {'yes' if report.finitely_generated else 'no'}"
        f"    [{report.licenses['finitely_generated']}]",
        f"finitely presented: {report.finitely_presented}"
        f"    [{report.licenses['finitely_presented']}]",
        f"finiteness type: {fp_level_text(report)}"
        f"    [{report.licenses['fp_level']}]",
    ]
    if report.corollary6_obstruction:
        lines.append(
            "rational cohomology of the kernel: infinite-dimensional, "
            f"since chi = {report.chi_delta} != 1"
            f"    [{report.licenses['corollary6_obstruction']}]"
        )
    else:
        lines.append(
            "rational cohomology of the kernel: finite dimension not excluded "
            "(chi = 1 is necessary, not sufficient)"
            f"    [{report.licenses['corollary6_obstruction']}]"
        )
    if report.corollary7_applies:
        lines.append(
            "conclusion: finitely presented but not of type FP"
            f"    [{report.licenses['corollary7_applies']}]"
        )
    if not report.finitely_generated:
        lines.append("conclusion: not finitely generated")
    return "\n".join(lines) + "\n"


def report_to_json(report):
    """JSON mirror with fixed field names."""
    return {
        **asdict(report),
        "f_vector": list(report.f_vector),
        "homology_betti": list(report.homology_betti),
    }
