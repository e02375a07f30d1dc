"""Edge-generated presentations of Bestvina-Brady kernels.

For a connected flag complex, the kernel H of the total-exponent map
from the RAAG onto Z is generated by the directed edges, a directed
edge [a>b] mapping to the vertex word ``a b^-1``.  Every closed
directed edge-walk c = (e_1, ..., e_l) contributes the relators
``c^[n] = e_1^n ... e_l^n`` for all nonzero n; backtrack (length-2) and
triangle (length-3) cycles already suffice when the complex is simply
connected, which is how the finite presentation below arises.

Everything claimed about these words is checked through their images in
the RAAG: ``verify_relator`` maps each edge syllable to a syllable pair,
reduces the image freely and asks the normal-form engine's piles whether
what is left is trivial.  The
module also implements the supporting word transformations (letterwise
inversion, tree-path conjugation, the cyclic extension of the kernel by
the basepoint letter) and a homotopy-move engine that rewrites cycle
relators one backtrack or triangle at a time.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, fields
from functools import cached_property

from .complexes import DirectedCycle, DirectedEdge, Pi1Status, basepoint_tree
from .complexes import edge_path_presentation, simply_connected_status
from .errors import ParseError, lex
from .presentations import TIETZE_BUDGET, Presentation
from .words import (
    Alphabet,
    RaagContext,
    Word,
    edge_alphabet,
    exponent_sum,
    homomorphism,
    reduce_syllables,
    substitute,
)


class BBContext:
    """A connected flag complex with ``complexes.basepoint_tree``, the BFS
    spanning tree from its first vertex, the basepoint; a disconnected or
    empty complex raises ValueError("complex is not connected")."""

    def __init__(self, complex):
        self.complex = complex
        self.tree = basepoint_tree(complex)
        self.basepoint = self.tree.root
        self.edge_alphabet = edge_alphabet(complex)
        self.raag = RaagContext(complex)

    @cached_property
    def raag_table(self):
        """The table of raag_image: [a>b] -> a b^-1."""
        return homomorphism(
            {e: ((e.initial, 1), (e.terminal, -1)) for e in self.edge_alphabet.letters}
        )

    @property
    def vertex_alphabet(self):
        return self.raag.alphabet

    def __repr__(self):
        return f"BBContext({self.complex!r})"


# -- the word transformations ------------------------------------------


def raag_image(edge_word, ctx):
    """Image of an edge word in the RAAG: [a>b] maps to ``a b^-1``.

    The result is freely reduced and always has exponent sum zero, so
    it lies in the kernel of the total-exponent map.
    """
    if edge_word.alphabet != ctx.edge_alphabet:
        raise ValueError("word is not over this complex's directed-edge alphabet")
    return Word(ctx.vertex_alphabet, substitute(edge_word.letters, ctx.raag_table))


def tree_path_word(ctx, a, b):
    """Edge word of the unique spanning-tree path from a to b.

    Its raag_image free-reduces to ``a b^-1``; the path from a vertex to
    itself is the empty word.
    """
    return Word(ctx.edge_alphabet, [(e, 1) for e in ctx.tree.path_edges(a, b)])


def letterwise_inverse(word):
    """Flip the sign of every letter in place (order preserved).

    An involution on words over any alphabet; on edge words it realizes
    the automorphism sending each directed edge to its inverse.
    """
    return Word.from_syllables(word.alphabet, [(l, -e) for l, e in word.syllables()])


def basepoint_conjugate(edge_word, ctx):
    """Replace each edge e by (path to its start) e (path back), letterwise.

    Negative letters get the inverse of the positive-letter image.  The
    verified contract: raag_image of the result equals
    ``a * raag_image(word) * a^-1`` in the RAAG, a the basepoint.
    """
    if edge_word.alphabet != ctx.edge_alphabet:
        raise ValueError("word is not over this complex's directed-edge alphabet")
    a, path = ctx.basepoint, ctx.tree.path_edges
    edges = {e: path(a, e.initial) + (e,) + path(e.initial, a) for e, _ in edge_word.letters}
    twist = homomorphism({e: [(f, 1) for f in image] for e, image in edges.items()})
    return Word(ctx.edge_alphabet, substitute(edge_word.letters, twist))


def conjugate_power(edge_word, k, ctx):
    """k-fold basepoint twist; negative k applies the inverse twist,
    realized as (letterwise inverse) twist (letterwise inverse)."""
    word = edge_word if k >= 0 else letterwise_inverse(edge_word)
    for _ in range(abs(k)):
        word = basepoint_conjugate(word, ctx)
    return word if k >= 0 else letterwise_inverse(word)


def cycle_relator(cycle, n, ctx):
    """The relator ``e_1^n e_2^n ... e_l^n`` of a directed cycle.

    Kept as written (a backtrack pair e followed by its reverse stays
    two letters); only genuine free cancellation is performed.
    """
    if n == 0:
        raise ValueError("relator exponent must be nonzero")
    return Word.from_syllables(ctx.edge_alphabet, [(e, n) for e in cycle.edges])


def verify_relator(edge_word, ctx):
    """Ground-truth check: does the word die in the RAAG?

    True iff the raag_image is the identity.  This is a necessary
    condition for being a relator of the kernel presentation, and a
    sufficient acceptance check because the edge-word group embeds via
    raag_image.  A syllable [a>b]^k maps to a^k b^-k if b is an end of
    the next syllable's edge (the first one's, after the last), else to
    b^-k a^k: both are exact, because a and b commute.  So the image of
    each c^[n], and of each folded triangle relator, reduces freely to the
    empty word, and the piles see only what does not cancel.
    """
    if edge_word.alphabet != ctx.edge_alphabet:
        raise ValueError("word is not over this complex's directed-edge alphabet")
    runs = edge_word.syllables()
    image = []
    for ((a, b), k), (following, _) in zip(runs, runs[1:] + runs[:1]):
        image += ((a, k), (b, -k)) if b in following else ((b, -k), (a, k))
    image = reduce_syllables(image)
    return not image or not any(ctx.raag._pile(image)[0])


def express_in_kernel(vertex_word, ctx):
    """An edge word mapping to the given zero-exponent-sum vertex word.

    Absorbs one syllable at a time: for a leading ``a^n`` followed by
    ``b^m``, emit the tree path from a to b raised to the n-th power
    (whose image is ``a^n b^-n``) and continue with ``b^(n+m)``.  The
    zero total exponent makes the final syllable vanish.
    """
    if vertex_word.alphabet != ctx.vertex_alphabet:
        raise ValueError("word is not over this complex's vertex alphabet")
    if exponent_sum(vertex_word) != 0:
        raise ValueError("word has nonzero exponent sum, so it is not in the kernel")
    out = []
    v, n = None, 0  # the syllable carried forward; none while n == 0
    for u, m in vertex_word.syllables():
        if n:
            out += [(f, n) for f in ctx.tree.path_edges(v, u)]
        v, n = u, n + m
    return Word.from_syllables(ctx.edge_alphabet, out)


# -- cycle enumeration and the presentations ----------------------------


def enumerate_cycle_classes(ctx, max_len):
    """All closed directed edge-walks of length 2..max_len, up to rotation.

    Vertex and edge repetition is allowed; orientation reversal is NOT
    identified (the reversed cycle carries its own relators).  A walk
    is keyed by its steps as (initial, terminal) vertex positions; each
    class is represented by its rotation with the least key, and
    classes come out sorted by (length, key).  Walks grow on an explicit
    stack, so ``max_len`` is not bounded by the recursion limit; a walk
    of ``max_len - 1`` steps is not grown but closed, if one adjacency
    test of its last vertex with its first allows.  Each cycle is made of
    the edge alphabet's own ``DirectedEdge`` objects, looked up by step.
    """
    if max_len < 2:
        raise ValueError("max_len must be at least 2")
    complex = ctx.complex
    index = complex.vertex_index
    step = {(index(e.initial), index(e.terminal)): e for e in ctx.edge_alphabet.letters}
    adj = [[index(w) for w in complex.neighbors(v)] for v in complex.vertices]
    found = set()

    # A least rotation starts at its walk's least vertex: grow walks from there.
    for v in range(len(adj)):
        stack = [(v,)]
        while stack:
            walk = stack.pop()
            if len(walk) > 2 and walk[-1] == v:
                steps = tuple(zip(walk, walk[1:]))
                found.add(min(steps[r:] + steps[:r] for r in range(len(steps)) if walk[r] == v))
            if len(walk) < max_len:
                stack.extend(walk + (w,) for w in adj[walk[-1]] if w >= v)
            elif (walk[-1], v) in step:  # never true of a closed walk: no loops
                stack.append(walk + (v,))
    return tuple(
        DirectedCycle(map(step.__getitem__, key))
        for key in sorted(found, key=lambda key: (len(key), key))
    )


def directed_cycle_presentation(ctx, max_len, max_exp):
    """Truncation of the full cycle-relator presentation of the kernel.

    Generators: all directed edges.  Relators: ``c^[n]`` for every
    rotation class of closed directed walks with 2 <= length <= max_len
    and every 0 < |n| <= max_exp.  The full family is infinite, so the
    provenance always records the truncation; this output is never
    flagged complete.
    """
    if max_exp < 1:
        raise ValueError("max_exp must be at least 1")
    names = {e: str(e) for e in ctx.edge_alphabet.letters}
    alphabet = Alphabet("named", names.values())
    # Adjacent syllables are distinct edges, so no relator freely reduces
    # and every syllable is a checked (generator, nonzero int) pair.
    relators = (
        Word._of(alphabet, [(names[e], n) for e in cycle.edges])
        for cycle in enumerate_cycle_classes(ctx, max_len)
        for k in range(1, max_exp + 1)
        for n in (k, -k)
    )
    return Presentation(
        alphabet.letters,
        relators,
        provenance={
            "construction": "directed-cycle-relators",
            "max_len": max_len,
            "max_exp": max_exp,
            "truncated": True,
            "complete": False,
            "presents": "kernel (truncated infinite relator family)",
        },
    )


def finite_presentation(ctx, extra_cycles=(), max_exp=1, tietze_budget=TIETZE_BUDGET):
    """One generator per undirected edge; backtracks folded away.

    Generators and triangle relators come from the edge-path builder
    ``complexes.edge_path_presentation`` with no edge deleted: each
    triangle a < b < c gives ``c^[1] = [a>b] [b>c] [a>c]^-1`` followed
    by its letterwise inverse ``c^[-1]``.  Then come ``c^[n]`` for each
    supplied extra cycle and 0 < |n| <= max_exp, folded onto the same
    generators.  When the complex is certified simply connected and no
    extra cycles were supplied, this is a complete presentation of the
    kernel; otherwise it presents the edge group with only backtrack and
    triangle relations (plus the truncated extra families), and the
    provenance says so explicitly.
    """
    if max_exp < 1:
        raise ValueError("max_exp must be at least 1")
    extra_cycles = tuple(extra_cycles)
    complex = ctx.complex
    edge_path = edge_path_presentation(complex, ())
    relators = [w for r in edge_path.relators for w in (r, letterwise_inverse(r))]
    if extra_cycles:
        # One generator per edge: [b>a] is [a>b]^-1, so backtracks fold away.
        fold = {e: complex.edge_letter(*e) for e in ctx.edge_alphabet.letters}
        words = (
            Word.from_syllables(edge_path.alphabet, [(fold[e][0], fold[e][1] * n) for e in cycle])
            for cycle in extra_cycles
            for k in range(1, max_exp + 1)
            for n in (k, -k)
        )
        relators += [w for w in words if len(w)]  # a cycle of backtracks can fold away

    status = simply_connected_status(complex, budget=tietze_budget)
    complete = status is Pi1Status.CERTIFIED_TRIVIAL and not extra_cycles
    if complete:
        presents = "kernel (complete finite presentation)"
    elif extra_cycles:
        presents = "edge group with backtrack/triangle relators plus truncated extra-cycle families"
    else:
        presents = "edge group with backtrack/triangle relators only (maps onto the kernel)"
    provenance = {
        "construction": "edge-triangle-presentation",
        "complete": complete,
        "presents": presents,
        "simply_connected": status.value,
        "extra_cycles": len(extra_cycles),
    }
    if extra_cycles:
        provenance["max_exp"] = max_exp
    return Presentation(edge_path.generators, relators, provenance=provenance)


def presentation_relator_edge_words(presentation, ctx):
    """The relators of an edge-generated presentation, as edge words.

    Only the generators in use must name edges; the first unknown one used
    raises.  Each syllable (token, k) is re-lettered to (edge, k) once, the
    first time it occurs.
    """
    alphabet = ctx.edge_alphabet
    table = {}

    def edge_run(syllable):
        run = table[syllable] = (alphabet.letter_for_token(syllable[0]), syllable[1])
        return run

    # A relator's tokens are checked generators with distinct neighbours, and
    # distinct tokens name distinct edges, so its edge runs are checked and reduced.
    return [
        Word._of(alphabet, [table.get(s) or edge_run(s) for s in rel.syllables()])
        for rel in presentation.relators
    ]


def fundamental_cycle_basis(ctx):
    """One based loop per non-tree edge: tree path out, the edge, tree path back.

    The loops normally generate the fundamental group, so they are a
    reasonable default for the extra cycles of finite_presentation when
    the complex is not simply connected.  No minimality is attempted.
    """
    out = []
    for u, v in ctx.complex.edges:
        if (u, v) in ctx.tree.edges:
            continue
        edges = (
            ctx.tree.path_edges(ctx.basepoint, u)
            + (DirectedEdge(u, v),)
            + ctx.tree.path_edges(v, ctx.basepoint)
        )
        out.append(DirectedCycle(edges))
    return tuple(out)


# -- the cyclic extension ------------------------------------------------


@dataclass(frozen=True)
class ExtensionElement:
    """A pair (edge word, integer) in the extension of the kernel by Z.

    Multiplication is the semidirect law
    ``(h, j) * (h', k) = (h * twist^j(h'), j + k)`` where twist is the
    basepoint conjugation; (empty, 0) is the identity.  The group laws
    hold through the extension image, not letter-for-letter.
    """

    word: Word
    power: int


def extension_identity(ctx):
    return ExtensionElement(Word(ctx.edge_alphabet), 0)


def extension_multiply(x, y, ctx):
    return ExtensionElement(
        x.word * conjugate_power(y.word, x.power, ctx), x.power + y.power
    )


def extension_inverse(x, ctx):
    return ExtensionElement(conjugate_power(~x.word, -x.power, ctx), -x.power)


def extension_image(x, ctx):
    """Image in the RAAG: the word's image times basepoint^power."""
    tail = Word(ctx.vertex_alphabet, [(ctx.basepoint, 1)]) ** x.power
    return raag_image(x.word, ctx) * tail


def lift_vertex(b, ctx):
    """Lift of a vertex generator: (tree path from b to the basepoint, 1).

    Its extension image normal-form-equals the vertex itself.
    """
    return ExtensionElement(tree_path_word(ctx, b, ctx.basepoint), 1)


# -- homotopy moves on cycle relators ------------------------------------


@dataclass(frozen=True)
class InsertMove:
    """Splice a backtrack pair (edge, reverse) in before position ``position``."""

    head = "ins"
    position: int
    edge: DirectedEdge

    def apply(self, edges, ctx):
        if not 0 <= self.position <= len(edges):
            raise ValueError(f"insert position {self.position} out of range")
        ctx.complex.directed_edge(self.edge.initial, self.edge.terminal)
        junction = edges[self.position % len(edges)].initial
        if self.edge.initial != junction:
            raise ValueError(f"inserted edge {self.edge} must start at {junction!r}")
        pair = (self.edge, self.edge.reverse())
        return edges[: self.position] + pair + edges[self.position :]


@dataclass(frozen=True)
class DeleteMove:
    """Remove the backtrack pair at positions (position, position + 1)."""

    head = "del"
    position: int

    def apply(self, edges, ctx):
        p = self.position
        if not 0 <= p <= len(edges) - 2:
            raise ValueError(f"delete position {p} out of range")
        if edges[p + 1] != edges[p].reverse():
            raise ValueError(f"edges at positions {p}, {p + 1} are not a backtrack pair")
        if len(edges) - 2 < 2:
            raise ValueError("deletion would leave a cycle of length < 2")
        return edges[:p] + edges[p + 2 :]


@dataclass(frozen=True)
class TriangleMove:
    """Replace edge e at ``position`` by (reverse g, reverse f) for a triangle (e, f, g)."""

    head = "tri"
    position: int
    e: DirectedEdge
    f: DirectedEdge
    g: DirectedEdge

    def apply(self, edges, ctx):
        p, e, f, g = self.position, self.e, self.f, self.g
        if not 0 <= p < len(edges):
            raise ValueError(f"triangle position {p} out of range")
        if edges[p] != e:
            raise ValueError(f"edge at position {p} is {edges[p]}, not {e}")
        for edge in (e, f, g):
            ctx.complex.directed_edge(edge.initial, edge.terminal)
        if e.terminal != f.initial or f.terminal != g.initial or g.terminal != e.initial:
            raise ValueError(f"({e}, {f}, {g}) is not a directed triangle")
        return edges[:p] + (g.reverse(), f.reverse()) + edges[p + 1 :]


@dataclass(frozen=True)
class RotateMove:
    """Re-root the cycle k steps forward."""

    head = "rot"
    amount: int

    def apply(self, edges, ctx):
        k = self.amount % len(edges)
        return edges[k:] + edges[:k]


# A move file line is the kind's head, then its fields in declaration order:
# an integer, then [a>b] edges.
_MOVE_KINDS = {kind.head: kind for kind in (InsertMove, DeleteMove, TriangleMove, RotateMove)}


def _known_move(move):
    if _MOVE_KINDS.get(getattr(move, "head", None)) is not type(move):
        raise ValueError(f"unknown move {move!r}")
    return move


def apply_move_to_cycle(cycle, move, ctx):
    """Apply one homotopy move to a directed cycle; validates the site."""
    return DirectedCycle(_known_move(move).apply(cycle.edges, ctx))


def relator_to_cycle(relator_word, n, ctx):
    """Recover the directed cycle c from the relator word c^[n]."""
    if n == 0:
        raise ValueError("relator exponent must be nonzero")
    edges = []
    for letter, exp in relator_word.syllables():
        if exp != n:
            raise ValueError(
                f"relator is not of the form c^[{n}]: syllable {letter} has exponent {exp}"
            )
        edges.append(letter)
    return DirectedCycle(edges)


def apply_homotopy_move(relator_word, move, n, ctx):
    """Move the underlying cycle of a relator c^[n]; returns the new relator."""
    cycle = relator_to_cycle(relator_word, n, ctx)
    return cycle_relator(apply_move_to_cycle(cycle, move, ctx), n, ctx)


def _legal_moves(cycle, ctx):
    edges = cycle.edges
    l = len(edges)
    for k in range(1, l):
        yield RotateMove(k)
    if l >= 4:
        for pos in range(l - 1):
            if edges[pos + 1] == edges[pos].reverse():
                yield DeleteMove(pos)
    complex = ctx.complex
    for pos in range(l):
        e = edges[pos]
        for c in complex.neighbors(e.initial):
            if c != e.terminal and complex.adjacent(c, e.terminal):
                yield TriangleMove(
                    pos, e, DirectedEdge(e.terminal, c), DirectedEdge(c, e.initial)
                )
    for pos in range(l):
        junction = edges[pos].initial
        for w in complex.neighbors(junction):
            yield InsertMove(pos, DirectedEdge(junction, w))


def find_move_sequence(cycle, target, ctx, budget=2000):
    """Breadth-first search for a move sequence turning one cycle into another.

    Returns a tuple of moves replayable with apply_move_to_cycle, or
    None when the budget (number of expanded nodes) runs out.  None
    means "unknown", never "not homotopic": the search is bounded.
    """
    start = cycle.edges
    goal = target.edges
    if start == goal:
        return ()
    seen = {start: None}
    queue = deque([start])
    expanded = 0
    while queue and expanded < budget:
        state = queue.popleft()
        expanded += 1
        current = DirectedCycle(state)
        for move in _legal_moves(current, ctx):
            child = apply_move_to_cycle(current, move, ctx).edges
            if child in seen:
                continue
            seen[child] = (state, move)
            if child == goal:
                moves = []
                node = child
                while seen[node] is not None:
                    node, mv = seen[node]
                    moves.append(mv)
                return tuple(reversed(moves))
            queue.append(child)
    return None


# -- move files ----------------------------------------------------------

def render_moves(moves):
    """Move-sequence file: one move per line."""
    lines = []
    for move in map(_known_move, moves):
        values = [str(getattr(move, field.name)) for field in fields(move)]
        lines.append(" ".join([move.head] + values))
    return "\n".join(lines) + ("\n" if lines else "")


def parse_moves(text):
    """Parse a move-sequence file; inverse of render_moves."""
    moves = []
    for lineno, tokens in lex(text):
        head, headcol = tokens[0]
        kind = _MOVE_KINDS.get(head)
        if kind is None or len(tokens) != 1 + len(fields(kind)):
            raise ParseError(f"malformed move line starting {head!r}", lineno, headcol)
        args = []
        for tok, col in tokens[1:]:
            try:
                args.append(DirectedEdge.parse(tok) if args else int(tok))
            except ValueError as exc:
                message = str(exc) if args else f"expected an integer, got {tok!r}"
                raise ParseError(message, lineno, col) from None
        moves.append(kind(*args))
    return tuple(moves)
