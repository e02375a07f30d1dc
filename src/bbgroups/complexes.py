"""Flag (clique) complexes of finite graphs.

A flag complex is completely determined by its 1-skeleton: a set of
k+1 vertices spans a k-simplex exactly when all its pairs are edges.
Complexes are therefore constructed from graphs only, and the clique
simplices are derived (on request; the graph never changes) rather than
supplied: a complex always holds every clique of its graph.

Everything here is deterministic: vertices are ordered by declaration,
simplices are tuples sorted in that order, and simplex lists, spanning
trees and boundary matrices follow from that ordering.  A complex's
graph and answers never change after construction; building a level is
not locked, so one complex is not shared between threads.

The graph rules live in ``_add_vertex`` and ``_add_edge`` alone: the
parsers only tokenize and attach positions, so every input form rejects
a bad graph with the same message.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import NamedTuple

from . import snf
from .errors import ParseError, json_object, parse_text_or_json, reserved_chars, tokens
from .presentations import TIETZE_BUDGET, Presentation, abelianization, tietze_simplify


def _add_vertex(vidx, v):
    """Declare v as the next vertex of ``vidx`` (name -> position)."""
    if not isinstance(v, str) or not v:
        raise ValueError(f"vertex identifier must be a nonempty string, got {v!r}")
    bad = reserved_chars(v, "-[]>")
    if bad:
        raise ValueError(
            f"vertex identifier {v!r} contains forbidden character {bad[0]!r} "
            "(whitespace and - # [ ] > ^ are reserved by the text formats)"
        )
    if v in vidx:
        raise ValueError(f"duplicate vertex identifier {v!r}")
    vidx[v] = len(vidx)


def _add_edge(vidx, edge_keys, u, v):
    """Record the edge u-v in ``edge_keys``; returns its endpoint positions."""
    for w in (u, v):
        if w not in vidx:
            raise ValueError(f"unknown vertex {w!r}: edge endpoint is not a declared vertex")
    i, j = vidx[u], vidx[v]
    if i == j:
        raise ValueError(f"loop edge at vertex {u!r}")
    key = (min(i, j), max(i, j))
    if key in edge_keys:
        raise ValueError(f"duplicate edge {u!r}-{v!r}")
    edge_keys.add(key)
    return i, j


class DirectedEdge(NamedTuple):
    """An oriented edge, written ``[a>b]`` for the edge from a to b."""

    initial: str
    terminal: str

    def reverse(self):
        return DirectedEdge(self.terminal, self.initial)

    def __str__(self):
        return f"[{self.initial}>{self.terminal}]"

    def __repr__(self):
        return f"DirectedEdge({self.initial!r}, {self.terminal!r})"


class DirectedCycle:
    """A closed directed edge-walk of length >= 2.

    Vertex and edge repetition is allowed; consecutive edges must be
    incident (terminal of one = initial of the next) and the walk must
    return to its starting vertex.
    """

    __slots__ = ("edges",)

    def __init__(self, edges):
        edges = tuple(edges)
        if len(edges) < 2:
            raise ValueError(f"directed cycle needs length >= 2, got {len(edges)}")
        for e, f in zip(edges, edges[1:]):
            if e.terminal != f.initial:
                raise ValueError(f"edges {e} and {f} are not consecutive")
        if edges[-1].terminal != edges[0].initial:
            raise ValueError("walk is not closed")
        self.edges = edges

    @classmethod
    def _trusted(cls, edges):
        """The cycle of a tuple of edges its builder knows to be a closed walk."""
        cycle = cls.__new__(cls)
        cycle.edges = edges
        return cycle

    def __len__(self):
        return len(self.edges)

    def __iter__(self):
        return iter(self.edges)

    def __eq__(self, other):
        return isinstance(other, DirectedCycle) and self.edges == other.edges

    def __hash__(self):
        return hash((DirectedCycle, self.edges))

    def __repr__(self):
        return "DirectedCycle(%s)" % " ".join(str(e) for e in self.edges)


class FlagComplex:
    """The clique complex of a finite graph."""

    def __init__(self, vertices, edges):
        vertices = tuple(vertices)
        self._vidx = {}
        for v in vertices:
            _add_vertex(self._vidx, v)
        self.vertices = vertices

        n = len(vertices)
        adj = [set() for _ in range(n)]
        edge_keys = set()
        for u, v in edges:
            i, j = _add_edge(self._vidx, edge_keys, u, v)
            adj[i].add(j)
            adj[j].add(i)
        self._adj_idx = [frozenset(s) for s in adj]
        self._neighbors = {
            vertices[i]: tuple(vertices[j] for j in sorted(adj[i])) for i in range(n)
        }

        # The last level's cliques (vertex names), each with the positions of
        # its later common neighbours; the empty simplex is extended by every vertex.
        self._frontier = [((), tuple(range(n)))]
        self._levels = []

    # -- basic queries ------------------------------------------------

    @property
    def dim(self):
        return len(self.f_vector()) - 1

    def f_vector(self):
        self.simplices(len(self.vertices))
        return tuple(len(level) for level in self._levels)

    def simplices(self, k):
        """The k-simplices, in lexicographic order of declaration positions.

        Level k is built on the first request that reaches it: it is level
        k - 1 with each clique extended by each of its later common neighbours."""
        adj, names = self._adj_idx, self.vertices
        while len(self._levels) <= k and self._frontier:
            self._frontier = [
                (c + (names[w],), tuple([x for x in later if x > w and x in adj[w]]))
                for c, later in self._frontier for w in later
            ]
            if self._frontier:
                self._levels.append(tuple([c for c, _ in self._frontier]))
        return self._levels[k] if 0 <= k < len(self._levels) else ()

    @property
    def edges(self):
        return self.simplices(1)

    def triangles(self):
        return self.simplices(2)

    def vertex_index(self, v):
        try:
            return self._vidx[v]
        except KeyError:
            raise ValueError(f"unknown vertex {v!r}") from None

    def neighbors(self, v):
        self.vertex_index(v)
        return self._neighbors[v]

    def adjacent(self, u, v):
        return self.vertex_index(v) in self._adj_idx[self.vertex_index(u)]

    def directed_edge(self, u, v):
        if not self.adjacent(u, v):
            raise ValueError(f"{u!r}-{v!r} is not an edge of the complex")
        return DirectedEdge(u, v)

    def directed_edges(self):
        return tuple(DirectedEdge(u, v) for u in self.vertices for v in self._neighbors[u])

    def directed_cycle(self, vertex_walk):
        """Closed walk through the given vertices (first vertex repeated implicitly)."""
        walk = list(vertex_walk)
        if len(walk) < 2:
            raise ValueError("a cycle needs at least two vertices")
        pairs = list(zip(walk, walk[1:] + walk[:1]))
        return DirectedCycle(self.directed_edge(u, v) for u, v in pairs)

    def is_connected(self):
        return bool(self.vertices) and len(_bfs_parents(self, self.vertices[0])) == len(self.vertices)

    def __eq__(self, other):
        return (
            isinstance(other, FlagComplex)
            and self.vertices == other.vertices
            and self.edges == other.edges
        )

    def __hash__(self):
        return hash((self.vertices, self.edges))

    def __repr__(self):
        return f"FlagComplex({len(self.vertices)} vertices, {len(self.edges)} edges)"


def _bfs_parents(complex, root):
    """``{vertex: parent}`` of the breadth-first search from root, neighbors
    visited in vertex order; the dict's order is the visiting order."""
    parent = {root: None}
    queue = [root]
    for v in queue:
        for w in complex._neighbors[v]:
            if w not in parent:
                parent[w] = v
                queue.append(w)
    return parent


class SpanningTree:
    """Breadth-first spanning tree, neighbors visited in vertex order; ``edges``
    holds its edges as (earlier, later) pairs, the form ``FlagComplex.edges`` uses."""

    def __init__(self, complex, root):
        complex.vertex_index(root)
        self.complex = complex
        self.root = root
        self.parent = _bfs_parents(complex, root)
        if len(self.parent) != len(complex.vertices):
            raise ValueError("complex is not connected")
        pos = complex._vidx
        self.edges = frozenset(
            (p, v) if pos[p] < pos[v] else (v, p) for v, p in self.parent.items() if p is not None
        )

    def path_vertices(self, u, v):
        """The unique tree path from u to v, as a vertex list."""
        up, down = [u], [v]
        for path in (up, down):
            self.complex.vertex_index(path[0])
            while path[-1] != self.root:
                path.append(self.parent[path[-1]])
        while len(up) > 1 and len(down) > 1 and up[-2] == down[-2]:
            up.pop()
            down.pop()
        return up + down[-2::-1]

    def path_edges(self, u, v):
        """The tree path from u to v as a tuple of directed edges."""
        path = self.path_vertices(u, v)
        return tuple(DirectedEdge(a, b) for a, b in zip(path, path[1:]))


# -- Euler characteristic and homology --------------------------------


def euler_characteristic(complex):
    """Alternating sum of face counts."""
    return sum((-1) ** k * f for k, f in enumerate(complex.f_vector()))


def boundary_matrix(complex, k):
    """Sparse integer matrix of the boundary map C_k -> C_{k-1} (k >= 1).

    Rows are indexed by (k-1)-simplices, columns by k-simplices, both in
    the complex's deterministic order.  Row i is a ``{column: +-1}`` dict
    of the k-simplices that have (k-1)-simplex i as a face.
    """
    if k < 1:
        raise ValueError("boundary_matrix is defined for k >= 1")
    faces = complex.simplices(k - 1)
    face_index = {s: i for i, s in enumerate(faces)}
    matrix = [{} for _ in faces]
    for j, cell in enumerate(complex.simplices(k)):
        for i in range(len(cell)):
            face = cell[:i] + cell[i + 1 :]
            matrix[face_index[face]][j] = (-1) ** i
    return matrix


@dataclass(frozen=True)
class HomologyResult:
    """Integral simplicial homology, one (betti, torsion) pair per degree."""

    betti: tuple
    torsion: tuple
    reduced: bool

    def is_trivial(self, k):
        """Whether H_k = 0 (no free part, no torsion)."""
        if k >= len(self.betti):
            return True
        return self.betti[k] == 0 and not self.torsion[k]

    def group_text(self, k):
        parts = []
        if k < len(self.betti):
            b = self.betti[k]
            if b == 1:
                parts.append("Z")
            elif b > 1:
                parts.append(f"Z^{b}")
            parts.extend(f"Z/{d}" for d in self.torsion[k])
        return " + ".join(parts) if parts else "0"

    def __repr__(self):
        kind = "reduced" if self.reduced else "unreduced"
        body = ", ".join(
            f"H_{k}={self.group_text(k)}" for k in range(len(self.betti))
        )
        return f"HomologyResult({kind}: {body})"


def homology(complex, reduced=False):
    """Integral homology in every degree, via exact Smith normal form.

    The boundary-of-boundary identity is checked before any reduction.
    Degree 0 uses the augmentation map when ``reduced`` is true.
    """
    f = complex.f_vector()
    dim = len(f) - 1
    matrices = {k: boundary_matrix(complex, k) for k in range(1, dim + 1)}
    for k in range(2, dim + 1):
        if not snf.is_zero_matrix(snf.matrix_multiply(matrices[k - 1], matrices[k])):
            raise AssertionError(f"boundary composition d_{k-1} d_{k} is nonzero")

    # factors[k] belongs to the map out of C_k: the augmentation C_0 -> Z
    # at k = 0, and nothing at k = dim + 1.
    factors = [(1,) if reduced and f else ()]
    factors += [snf.invariant_factors(matrices[k]) for k in range(1, dim + 1)]
    factors.append(())
    betti = tuple(f[k] - len(factors[k]) - len(factors[k + 1]) for k in range(dim + 1))
    torsion = tuple(tuple(d for d in factors[k + 1] if d > 1) for k in range(dim + 1))
    return HomologyResult(betti, torsion, reduced)


# -- fundamental group -------------------------------------------------


def basepoint_tree(complex):
    """The spanning tree from the first vertex, the basepoint; raises
    ValueError("complex is not connected") if disconnected or empty."""
    if not complex.vertices:
        raise ValueError("complex is not connected")
    return SpanningTree(complex, complex.vertices[0])


def edge_path_presentation(complex, trivial):
    """Edge-path presentation of pi_1 at the first vertex, with the edges in
    ``trivial`` deleted.

    ``trivial`` holds edges that are trivial in pi_1, such as a spanning
    tree's; every other edge u-v, u declared first, is a generator named
    ``[u>v]``.  Each triangle a < b < c contributes the word
    ``[a>b] [b>c] [a>c]^-1`` of its remaining edges, if any, as a relator.
    """
    generators = [str(DirectedEdge(u, v)) for u, v in complex.edges if (u, v) not in trivial]
    relators = []
    for a, b, c in complex.triangles():
        sides = ((a, b, 1), (b, c, 1), (a, c, -1))
        word = [(str(DirectedEdge(u, v)), sign) for u, v, sign in sides if (u, v) not in trivial]
        if word:
            relators.append(word)
    return Presentation(
        generators,
        relators,
        provenance={
            "construction": "edge-path-pi1",
            "basepoint": complex.vertices[0],
        },
    )


def pi1_presentation(complex):
    """Edge-path presentation of the fundamental group.

    Generators are the edges off ``basepoint_tree``, ``[u>v]`` for u
    declared before v; each triangle contributes one relator, with tree
    edges eliminated.
    """
    return edge_path_presentation(complex, basepoint_tree(complex).edges)


def _collapse(complex):
    """Greedy edge-triangle matching from the spanning tree (a discrete gradient).

    Tree edges start trivial.  A triangle with exactly one non-trivial
    edge matches that edge, which becomes trivial: the triangle's
    relator writes it as a word in tree edges and earlier matched edges.
    A stack holds the triangles that have exactly one non-trivial edge
    left.  Returns ``(tree, pairs, critical)``: the tree's edges, the
    ``(triangle, edge)`` pairs in matching order, and the unmatched
    non-tree edges in edge order.
    """
    tree = basepoint_tree(complex).edges
    trivial = set(tree)
    triangles = complex.triangles()
    sides = [((a, b), (b, c), (a, c)) for a, b, c in triangles]
    cofaces = {e: [] for e in complex.edges}
    for t, edges in enumerate(sides):
        for e in edges:
            cofaces[e].append(t)
    open_edges = [3 - len(trivial.intersection(edges)) for edges in sides]
    stack = [t for t, k in enumerate(open_edges) if k == 1]
    pairs = []
    while stack:
        t = stack.pop()
        if open_edges[t] != 1:
            continue
        e = next(e for e in sides[t] if e not in trivial)
        trivial.add(e)
        pairs.append((triangles[t], e))
        for s in cofaces[e]:
            open_edges[s] -= 1
            if open_edges[s] == 1:
                stack.append(s)
    critical = [e for e in complex.edges if e not in trivial]
    return tree, pairs, critical


class Pi1Status(enum.Enum):
    CERTIFIED_TRIVIAL = "CertifiedTrivial"
    CERTIFIED_NONTRIVIAL = "CertifiedNontrivial"
    UNKNOWN = "Unknown"


def simply_connected_status(complex, budget=TIETZE_BUDGET):
    """Tri-state simple-connectivity certificate.

    Triviality comes from a collapse first: ``_collapse`` matches edges
    to triangles from the spanning tree, and every matched edge is
    trivial in pi_1, so pi_1 is presented by the edge-path presentation
    with tree and matched edges deleted (generators are the critical
    edges).  No critical edge certifies triviality outright.  Otherwise
    Tietze simplification (``budget`` moves) of that residual reaching
    the empty presentation certifies triviality, and failing that, a
    nonzero abelianization of it, H_1 != 0 (Hurewicz), nontriviality:
    Tietze moves keep the group, so they never empty it then.  Anything
    else is honestly Unknown (pi_1 triviality is undecidable in general).
    """
    if budget <= 0:
        raise ValueError("budget must be positive")
    tree, pairs, critical = _collapse(complex)
    if not critical:
        return Pi1Status.CERTIFIED_TRIVIAL
    pres = edge_path_presentation(complex, tree.union(e for _, e in pairs))
    simplified, _ = tietze_simplify(pres, budget)
    if simplified.is_empty():
        return Pi1Status.CERTIFIED_TRIVIAL
    h1 = abelianization(pres)
    if h1.rank or h1.torsion:
        return Pi1Status.CERTIFIED_NONTRIVIAL
    return Pi1Status.UNKNOWN


# -- text and JSON graph input -----------------------------------------


def parse_graph_text(text):
    """Parse the line-oriented graph format.

    ``vertices: a b c`` and ``edges: a-b c-d`` lines, ``#`` comments.
    Raises ParseError with 1-based line/column diagnostics.
    """
    vidx = {}
    edges = []
    edge_keys = set()
    for lineno, line in enumerate(text.splitlines(), start=1):
        found = tokens(line.split("#", 1)[0])
        if not found:
            continue
        (head, headcol), *body = found
        if head not in ("vertices:", "edges:"):
            raise ParseError(
                f"unrecognized line head {head!r} (expected 'vertices:' or 'edges:')",
                lineno,
                headcol,
            )
        for tok, col in body:
            try:
                if head == "vertices:":
                    _add_vertex(vidx, tok)
                else:
                    ends = tok.split("-")
                    if len(ends) != 2 or not all(ends):
                        raise ValueError(f"malformed edge token {tok!r} (expected a-b)")
                    _add_edge(vidx, edge_keys, *ends)
                    edges.append(ends)
            except ValueError as exc:
                raise ParseError(str(exc), lineno, col) from None
    return FlagComplex(vidx, edges)


def parse_graph_json(text):
    """Parse the JSON graph form {"vertices": [...], "edges": [[a, b], ...]}."""
    data = json_object(text, ("vertices", "edges"), "graph object")
    verts = data.get("vertices", [])
    edges = data.get("edges", [])
    if not isinstance(verts, list) or not all(isinstance(v, str) for v in verts):
        raise ParseError("'vertices' must be a list of strings")
    if not isinstance(edges, list):
        raise ParseError("'edges' must be a list of two-element lists")
    for i, e in enumerate(edges):
        if (
            not isinstance(e, list)
            or len(e) != 2
            or not all(isinstance(x, str) for x in e)
        ):
            raise ParseError(f"edges[{i}] must be a two-element list of strings")
    try:
        return FlagComplex(verts, edges)
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def parse_complex(text):
    """Dispatch on content: JSON if the text starts with '{', else the line format."""
    return parse_text_or_json(text, parse_graph_json, parse_graph_text)
