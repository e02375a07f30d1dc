"""Flag complexes from graphs: faces, homology, Euler characteristics.

A flag complex is the clique complex of its 1-skeleton, so a graph is
all the input we ever need.  This script builds the classical small
examples and prints their derived structure.
"""

from bbgroups import FlagComplex, euler_characteristic, homology, parse_graph_text

# The octahedron: six vertices, all pairs joined except the three
# antipodal ones.  Its flag complex is the boundary of the octahedron,
# a 2-sphere.
octahedron = parse_graph_text(
    """
    vertices: u0 u1 v0 v1 w0 w1
    edges: u0-v0 u0-v1 u0-w0 u0-w1 u1-v0 u1-v1 u1-w0 u1-w1
    edges: v0-w0 v0-w1 v1-w0 v1-w1
    """
)

print("octahedron")
print("  f-vector:", octahedron.f_vector())
print("  triangles:", octahedron.triangles())
print("  chi:", euler_characteristic(octahedron))
print("  homology:", homology(octahedron))
print("  reduced:", homology(octahedron, reduced=True))
print()

# A square (4-cycle): no triangles, so the complex is the circle.
square = FlagComplex("abcd", [("a", "b"), ("b", "c"), ("c", "d"), ("a", "d")])
print("square")
print("  f-vector:", square.f_vector())
print("  chi:", euler_characteristic(square))
print("  homology:", homology(square))
print()

# A complete graph gives a full simplex: contractible, chi = 1.
k4 = FlagComplex(
    "wxyz", [("w", "x"), ("w", "y"), ("w", "z"), ("x", "y"), ("x", "z"), ("y", "z")]
)
print("K4 (a 3-simplex)")
print("  f-vector:", k4.f_vector())
print("  chi:", euler_characteristic(k4))
print("  homology:", homology(k4))
print()

# Disconnected complexes have homology too; three points have three
# components and nothing above degree zero.
points = FlagComplex("pqr", [])
print("three points")
print("  homology:", homology(points))
