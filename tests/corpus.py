"""Shared corpus of flag complexes, random-word helpers and sparse-matrix helpers."""

import random
from itertools import combinations

from bbgroups import FlagComplex, Word, snf


def point():
    return FlagComplex(["a"], [])


def two_points():
    return FlagComplex(["a", "b"], [])


def three_points():
    return FlagComplex(["a", "b", "c"], [])


def edge_complex():
    return FlagComplex(["a", "b"], [("a", "b")])


def path3():
    return FlagComplex(["a", "b", "c"], [("a", "b"), ("b", "c")])


def k3():
    return FlagComplex(["a", "b", "c"], [("a", "b"), ("b", "c"), ("a", "c")])


def c4():
    return FlagComplex(
        ["a", "b", "c", "d"], [("a", "b"), ("b", "c"), ("c", "d"), ("a", "d")]
    )


def octahedron():
    verts = ["u0", "u1", "v0", "v1", "w0", "w1"]
    antipodal = {("u0", "u1"), ("v0", "v1"), ("w0", "w1")}
    edges = [
        (a, b)
        for i, a in enumerate(verts)
        for b in verts[i + 1 :]
        if (a, b) not in antipodal
    ]
    return FlagComplex(verts, edges)


def complete_graph(n):
    """K_n on v0 ... v(n-1): an (n-1)-simplex."""
    names = [f"v{i}" for i in range(n)]
    return FlagComplex(names, [(u, v) for i, u in enumerate(names) for v in names[i + 1 :]])


def join_of_pairs(pairs=3):
    """Join of ``pairs`` pairs of points; for pairs=3 this is the octahedron."""
    verts = []
    for i in range(pairs):
        verts += [f"p{i}", f"q{i}"]
    edges = []
    for i in range(pairs):
        for j in range(i + 1, pairs):
            for a in (f"p{i}", f"q{i}"):
                for b in (f"p{j}", f"q{j}"):
                    edges.append((a, b))
    return FlagComplex(verts, edges)


def order_complex(triangles):
    """Order complex of the simplicial complex spanned by ``triangles``
    (vertex-label tuples): its faces are the vertices, adjacent when one
    face contains the other.  Always flag; homeomorphic to the complex.

    A face is named ``f`` followed by its sorted labels, and faces are
    declared by dimension, then in sorted order.
    """
    faces = {frozenset(s) for t in triangles for k in (1, 2, 3) for s in combinations(t, k)}
    faces = sorted(faces, key=lambda f: (len(f), sorted(f)))
    names = {f: "f" + "".join(sorted(f)) for f in faces}
    edges = [
        (names[a], names[b])
        for a, b in combinations(faces, 2)
        if a < b or b < a
    ]
    return FlagComplex([names[f] for f in faces], edges)


def projective_plane():
    """Order complex of the 6-vertex projective plane; flag, H_1 = Z/2.

    The face list is the standard minimal triangulation (every edge of
    K6 lies in exactly two of the ten triangles).  Kept out of
    ``corpus()``: 31 vertices are too many for the brute-force subset
    oracles run over the corpus.
    """
    triangles = ["125", "126", "134", "136", "145", "234", "235", "246", "356", "456"]
    return order_complex(triangles)


def dunce_hat():
    """Order complex of a triangulated dunce hat: contractible, not collapsible.

    A disk whose boundary 9-gon P0 ... P8 reads the loop a = v0 v1 v2
    three times as a a a^-1, with a ring r0 ... r8 and a centre c inside
    it; f = (79, 240, 162), acyclic, and the spanning-tree matching of
    ``complexes`` leaves critical edges.  Kept out of ``corpus()``: 79
    vertices are too many for the brute-force subset oracles.
    """
    boundary = ["v0", "v1", "v2", "v0", "v1", "v2", "v0", "v2", "v1"]
    ring = [f"r{i}" for i in range(9)]
    triangles = []
    for i in range(9):
        j = (i + 1) % 9
        triangles += [
            (boundary[i], boundary[j], ring[i]),
            (boundary[j], ring[j], ring[i]),
            (ring[i], ring[j], "c"),
        ]
    return order_complex(triangles)


def grid_disk(m):
    """Triangulated m x m grid, each square cut by one diagonal: a disk.

    Kept out of ``corpus()``: it is large for any m worth testing.
    """
    name = lambda i, j: f"g{i}_{j}"  # noqa: E731
    verts = [name(i, j) for i in range(m) for j in range(m)]
    edges = []
    for i in range(m):
        for j in range(m):
            for di, dj in ((0, 1), (1, 0), (1, 1)):
                if i + di < m and j + dj < m:
                    edges.append((name(i, j), name(i + di, j + dj)))
    return FlagComplex(verts, edges)


def suspension(complex):
    """Two non-adjacent cone points joined to every vertex.

    The result is flag whenever ``complex`` is, and its reduced homology
    is that of ``complex`` shifted up one degree.  Kept out of
    ``corpus()``.
    """
    cones = ("north", "south")
    edges = list(complex.edges) + [(c, v) for c in cones for v in complex.vertices]
    return FlagComplex(list(complex.vertices) + list(cones), edges)


def wedge(a, b):
    """``a`` and ``b`` glued at their first vertices: b's first vertex is
    a's, and b's other vertices are primed.  Flag, since no edge joins the
    two parts; chi(wedge) = chi(a) + chi(b) - 1, and pi_1 is the free product.
    Kept out of ``corpus()``."""
    root = a.vertices[0]
    name = {v: v + "'" for v in b.vertices}
    name[b.vertices[0]] = root
    verts = list(a.vertices) + [name[v] for v in b.vertices[1:]]
    return FlagComplex(verts, list(a.edges) + [(name[u], name[v]) for u, v in b.edges])


def random_flag_complex(seed, n=8, p=0.45, require_connected=True):
    rng = random.Random(seed)
    verts = [f"v{i}" for i in range(n)]
    while True:
        edges = [
            (verts[i], verts[j])
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < p
        ]
        complex = FlagComplex(verts, edges)
        if not require_connected or complex.is_connected():
            return complex


def declared_first(complex, v):
    """The same graph with v declared first, so v is its basepoint."""
    return FlagComplex([v] + [w for w in complex.vertices if w != v], complex.edges)


def corpus():
    """The full test corpus, as (name, complex) pairs."""
    return [
        ("point", point()),
        ("two_points", two_points()),
        ("three_points", three_points()),
        ("edge", edge_complex()),
        ("path3", path3()),
        ("k3", k3()),
        ("c4", c4()),
        ("octahedron", octahedron()),
        ("join3", join_of_pairs(3)),
        ("random1", random_flag_complex(101, n=5, p=0.6)),
        ("random2", random_flag_complex(202, n=7, p=0.5)),
        ("random3", random_flag_complex(303, n=8, p=0.45)),
    ]


def connected_corpus():
    return [(name, c) for name, c in corpus() if c.is_connected()]


def random_word(rng, alphabet, length):
    letters = [
        (rng.choice(alphabet.letters), rng.choice((1, -1))) for _ in range(length)
    ]
    return Word(alphabet, letters)


def random_zero_sum_word(rng, alphabet, pairs):
    """Random word with exponent sum zero (balanced +/- letters, shuffled)."""
    letters = [(rng.choice(alphabet.letters), 1) for _ in range(pairs)]
    letters += [(rng.choice(alphabet.letters), -1) for _ in range(pairs)]
    rng.shuffle(letters)
    return Word(alphabet, letters)


def sparse(matrix):
    """The ``{column: entry}`` rows of a dense matrix, zero entries dropped."""
    return [{j: x for j, x in enumerate(row) if x} for row in matrix]


def in_row_lattice(rows, vector):
    """Whether the dense ``vector`` is an integer combination of the sparse rows.

    Uses the Hopfian property of finitely generated abelian groups: for
    sublattices L <= L' of Z^n, equal invariant factors force L = L',
    so appending the vector changes the factors iff it enlarges the
    lattice.
    """
    if any(j >= len(vector) for row in rows for j in row):
        raise ValueError("vector is shorter than the matrix is wide")
    return snf.invariant_factors(rows) == snf.invariant_factors(rows + sparse([vector]))
