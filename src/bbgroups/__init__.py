"""bbgroups: flag complexes, RAAGs, and verified kernel presentations.

Build a flag complex from a graph, compute its homology and Euler
characteristic exactly, decide the word problem of its right-angled
Artin group, and construct machine-verified presentations (truncated
infinite families and, for simply connected complexes, complete finite
ones) of the Bestvina-Brady kernel of the total-exponent map, together
with the rank sequence of the exterior face ring and the
finiteness-properties report.
"""

from .complexes import (
    DirectedCycle,
    DirectedEdge,
    FlagComplex,
    HomologyResult,
    Pi1Status,
    SpanningTree,
    boundary_matrix,
    euler_characteristic,
    homology,
    parse_complex,
    parse_graph_json,
    parse_graph_text,
    pi1_presentation,
    simply_connected_status,
)
from .errors import ParseError
from .words import (
    Alphabet,
    RaagContext,
    Word,
    edge_alphabet,
    exponent_sum,
    parse_word,
    render_word,
    vertex_alphabet,
)
from .presentations import (
    AbelianizationResult,
    Presentation,
    TietzeStatus,
    abelianization,
    exponent_matrix,
    parse_presentation,
    presentation_from_json,
    presentation_to_json,
    serialize_presentation,
    tietze_simplify,
)
from .bestvina_brady import (
    BBContext,
    DeleteMove,
    InsertMove,
    RotateMove,
    TriangleMove,
    apply_homotopy_move,
    apply_move_to_cycle,
    cycle_relator,
    directed_cycle_presentation,
    enumerate_cycle_classes,
    express_in_kernel,
    find_move_sequence,
    finite_presentation,
    letterwise_inverse,
    presentation_relator_edge_words,
    raag_image,
    relator_to_cycle,
    verify_relator,
)
from .facering import (
    FinitenessReport,
    finiteness_report,
    group_euler_characteristic,
    hilbert_series,
    render_report_text,
    report_to_json,
)

__version__ = "0.1.0"
