"""Rewriting cycle relators one backtrack or triangle at a time.

Homotopic cycles have interdependent relators: splicing or removing a
backtrack pair, replacing one triangle edge by the other two, or
re-rooting the cycle all preserve the property of mapping to the
identity.  A bounded breadth-first search recovers a move sequence
between two cycles when one exists within budget.
"""

from bbgroups import (
    BBContext,
    InsertMove,
    RotateMove,
    TriangleMove,
    apply_homotopy_move,
    apply_move_to_cycle,
    cycle_relator,
    find_move_sequence,
    parse_graph_text,
    render_word,
    verify_relator,
)

k3 = parse_graph_text("vertices: a b c\nedges: a-b b-c a-c\n")
ctx = BBContext(k3)

triangle = k3.directed_cycle(["a", "b", "c"])
relator = cycle_relator(triangle, 2, ctx)
print("starting relator:", render_word(relator))
print("verified:", verify_relator(relator, ctx))
print()

moves = [
    InsertMove(1, k3.directed_edge("b", "a")),
    RotateMove(2),
    TriangleMove(
        0,
        k3.directed_edge("a", "b"),
        k3.directed_edge("b", "c"),
        k3.directed_edge("c", "a"),
    ),
]
print("applying moves, verifying after each step:")
current = relator
for move in moves:
    current = apply_homotopy_move(current, move, 2, ctx)
    print(f"  {move}")
    print(f"    -> {render_word(current)}   verified: {verify_relator(current, ctx)}")
print()

# Search: pad the triangle with a backtrack and re-root it, then ask the
# breadth-first search to find its own way there.
target = apply_move_to_cycle(triangle, InsertMove(0, k3.directed_edge("a", "c")), ctx)
target = apply_move_to_cycle(target, RotateMove(1), ctx)
sequence = find_move_sequence(triangle, target, ctx, budget=2000)
print("search result (None would mean: unknown within budget):")
for move in sequence:
    print(f"  {move}")
replayed = triangle
for move in sequence:
    replayed = apply_move_to_cycle(replayed, move, ctx)
print("replay reaches the target:", replayed == target)
