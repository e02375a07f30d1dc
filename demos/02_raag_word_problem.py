"""The word problem in a right-angled Artin group.

The RAAG of a graph is generated by the vertices, and two generators
commute exactly when they are adjacent.  The normal form is the
lexicographically least word among all commutation-equivalent ones
after full cancellation; two words represent the same group element iff
their normal forms coincide letter-for-letter.
"""

from bbgroups import (
    FlagComplex,
    RaagContext,
    parse_word,
    render_word,
)

# In the square a-b-c-d-a, consecutive vertices commute but the two
# diagonals (a, c) and (b, d) do not: this RAAG is F2 x F2.
square = FlagComplex("abcd", [("a", "b"), ("b", "c"), ("c", "d"), ("a", "d")])
ctx = RaagContext(square)


def show(text):
    word = parse_word(text, ctx.alphabet)
    nf = ctx.normal_form(word)
    print(f"  {text!r:28} -> {render_word(nf) or '1'}")


print("normal forms in the F2 x F2 square group")
show("a b a^-1")  # adjacent: conjugation collapses
show("a c a^-1")  # non-adjacent: nothing cancels
show("a b a^-1 b^-1")  # commutator of adjacent vertices dies
show("a c a^-1 c^-1")  # commutator of the diagonal survives
show("c a b")  # the shuffle can pass b over both c and a
show("d^2 c b a c^-1 d^-2")
print()

print("identity testing")
for text in ["a b a^-1 b^-1", "a c a^-1 c^-1", "b d^3 b^-1 d^-3"]:
    word = parse_word(text, ctx.alphabet)
    print(f"  {text!r:28} -> identity: {ctx.is_identity(word)}")
print()

# On a complete graph everything commutes, and the normal form is just
# the exponent-collected, generator-ordered abelian form.
k3 = FlagComplex("xyz", [("x", "y"), ("y", "z"), ("x", "z")])
abelian = RaagContext(k3)
word = parse_word("z x y x z^-1 x", abelian.alphabet)
print("abelian collection in the rank-3 free abelian RAAG")
print("  z x y x z^-1 x ->", render_word(abelian.normal_form(word)))
