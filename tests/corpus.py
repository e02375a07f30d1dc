"""Shared corpus of flag complexes and random-word helpers."""

import random

from bbgroups import FlagComplex, Word


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
