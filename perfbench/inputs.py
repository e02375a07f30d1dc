"""Seeded inputs for the benchmark: graphs, graph files and RAAG words.

Everything here is pure standard library and depends only on its
arguments, so the same seed always gives the same inputs.  Graphs are
plain ``(vertices, edges)`` pairs and are handed to the program as text
files in its own ``vertices:`` / ``edges:`` format; the answers the
benchmark checks against are known from the construction (grid disks
are contractible, coned grids are 2-spheres, joins of k pairs of points
are (k-1)-spheres, complete graphs span simplices).
"""

from __future__ import annotations


def grid_disk(m):
    """Triangulated m x m grid: a disk, so every reduced homology group is 0."""
    name = lambda i, j: f"g{i}_{j}"  # noqa: E731
    verts = [name(i, j) for i in range(m) for j in range(m)]
    edges = []
    for i in range(m):
        for j in range(m):
            if j + 1 < m:
                edges.append((name(i, j), name(i, j + 1)))
            if i + 1 < m:
                edges.append((name(i, j), name(i + 1, j)))
            if i + 1 < m and j + 1 < m:
                edges.append((name(i, j), name(i + 1, j + 1)))
    return verts, edges


def coned_grid(m):
    """Grid disk with a cone point on its boundary circle: a 2-sphere."""
    verts, edges = grid_disk(m)
    boundary = [f"g{i}_{j}" for i in range(m) for j in range(m) if i in (0, m - 1) or j in (0, m - 1)]
    return verts + ["apex"], edges + [("apex", b) for b in boundary]


def join_of_pairs(k):
    """Join of k pairs of points, the octahedral (k-1)-sphere."""
    verts = [f"{side}{i}" for i in range(k) for side in ("p", "q")]
    edges = [
        (f"{a}{i}", f"{b}{j}")
        for i in range(k)
        for j in range(i + 1, k)
        for a in ("p", "q")
        for b in ("p", "q")
    ]
    return verts, edges


def complete_graph(n):
    """K_n, whose flag complex is the (n-1)-simplex."""
    verts = [f"k{i}" for i in range(n)]
    return verts, [(verts[i], verts[j]) for i in range(n) for j in range(i + 1, n)]


def random_graph(rng, n, p, connected=True):
    """Seeded G(n, M) with M = round(p * n(n-1)/2) edges.

    A fixed edge count keeps the cost of one graph closer across seeds
    than independent edge coins would, with the same expected density.
    With ``connected`` the draw repeats until the graph is connected.
    """
    verts = [f"v{i}" for i in range(n)]
    pairs = [(verts[i], verts[j]) for i in range(n) for j in range(i + 1, n)]
    m = max(n - 1, round(p * len(pairs))) if connected else round(p * len(pairs))
    while True:
        edges = sorted(rng.sample(pairs, m), key=pairs.index)
        if not connected or is_connected(verts, edges):
            return verts, edges


def is_connected(verts, edges):
    adj = {v: [] for v in verts}
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    seen = {verts[0]}
    stack = [verts[0]]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == len(verts)


def graph_text(verts, edges):
    """The program's line-oriented graph format."""
    return "vertices: " + " ".join(verts) + "\nedges: " + " ".join(f"{u}-{v}" for u, v in edges) + "\n"


def f_vector(verts, edges):
    """Clique counts by dimension, computed independently of the program."""
    index = {v: i for i, v in enumerate(verts)}
    adj = [set() for _ in verts]
    for u, v in edges:
        adj[index[u]].add(index[v])
        adj[index[v]].add(index[u])
    counts = []

    def grow(size, candidates):
        while len(counts) < size:
            counts.append(0)
        counts[size - 1] += 1
        for c in sorted(candidates):
            grow(size + 1, {w for w in candidates if w > c and w in adj[c]})

    for v in range(len(verts)):
        grow(1, {w for w in adj[v] if w > v})
    return tuple(counts)


# -- words over a RAAG ----------------------------------------------------


def random_pm1_word(rng, verts, length):
    """Uniform random word of +-1 letters, as (letter, sign) pairs."""
    return [(rng.choice(verts), rng.choice((1, -1))) for _ in range(length)]


def commuting_shuffle(rng, letters, adjacent, swaps):
    """Apply ``swaps`` random swaps of adjacent commuting distinct letters.

    The result represents the same RAAG element as ``letters``, so its
    normal form must be the same.
    """
    out = list(letters)
    n = len(out)
    for _ in range(swaps):
        i = rng.randrange(n - 1)
        a, b = out[i][0], out[i + 1][0]
        if a != b and (a, b) in adjacent:
            out[i], out[i + 1] = out[i + 1], out[i]
    return out


def syllable_text(rng, verts, syllables, exp):
    """Word text ``g^k ...`` on distinct letters, exponents of size ``exp`` and random sign.

    Distinct letters cannot cancel, so every seed's word keeps all its
    letters through the normal form.
    """
    return " ".join(f"{v}^{exp * rng.choice((1, -1))}" for v in rng.sample(verts, syllables))


def zero_sum_text(rng, verts, syllables, max_exp):
    """Word text with total exponent zero, for the ``express`` verb."""
    exps = [rng.randint(1, max_exp) * rng.choice((1, -1)) for _ in range(syllables - 1)]
    total = sum(exps)
    if total == 0:
        exps[-1] += 1
        total = 1
    exps.append(-total)
    names = [rng.choice(verts) for _ in exps]
    return " ".join(f"{v}^{e}" for v, e in zip(names, exps))
