"""Edge-generated presentations of Bestvina-Brady kernels.

For a connected flag complex, the kernel H of the total-exponent map
from the RAAG onto Z is generated by the directed edges, a directed
edge [a>b] mapping to the vertex word ``a b^-1``.  Every closed
directed edge-walk c = (e_1, ..., e_l) contributes the relators
``c^[n] = e_1^n ... e_l^n`` for all nonzero n; backtrack (length-2) and
triangle (length-3) cycles already suffice when the complex is simply
connected (Dicks-Leary), which is how the finite presentation arises.

The truncated family is made once, as relator texts (``_truncated_family``):
``present`` writes them and ``directed_cycle_presentation`` reads them
back.  Everything claimed about these words is checked through their
images in the RAAG.  ``verify_relator`` first reads the syllables as an
edge-walk, [a>b]^k a step a -> b and [a>b]^-k a step b -> a for k the
first exponent: the image of a closed walk telescopes to 1, and every
relator that ``present`` writes is one.  Any other word's image, each
[a>b]^k mapped to a^k b^-k and freely reduced by
``words.reduce_syllables``, goes to the normal-form engine's piles unless
nothing is left.  It takes an edge Word or the bare syllables: ``verify``
reads each relator of a file once, to its freely reduced syllables over
the edges (``_read_edge_relators``), and hands them over, with no Word
per relator.  The module also implements letterwise inversion and a
homotopy-move engine that rewrites cycle relators one backtrack or
triangle at a time; each move is a frozen dataclass.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .complexes import DirectedCycle, DirectedEdge, Pi1Status, basepoint_tree
from .complexes import edge_path_presentation, simply_connected_status
from .errors import parse_text_or_json
from .presentations import TIETZE_BUDGET, Presentation
from .presentations import _json_parts, _read_relators, _relator_syllables, _text_parts
from .words import RaagContext, Word, edge_alphabet, exponent_sum, reduce_syllables


class BBContext:
    """A connected flag complex with ``complexes.basepoint_tree``, the BFS
    spanning tree from its first vertex, the basepoint; a disconnected or
    empty complex raises ValueError("complex is not connected")."""

    def __init__(self, complex):
        self.complex = complex
        self.tree = basepoint_tree(complex)
        self.edge_alphabet = edge_alphabet(complex)
        self.raag = RaagContext(complex)

    @property
    def vertex_alphabet(self):
        return self.raag.alphabet

    def __repr__(self):
        return f"BBContext({self.complex!r})"


# -- the word transformations ------------------------------------------


def raag_image(edge_word, ctx):
    """Image of an edge word in the RAAG: [a>b] maps to ``a b^-1``.

    The result is freely reduced and always has exponent sum zero, so
    it lies in the kernel of the total-exponent map.  Letter by letter
    it respects products and inverses: ``[a>b]^-1`` maps to ``b a^-1``.
    """
    if edge_word.alphabet != ctx.edge_alphabet:
        raise ValueError("word is not over this complex's directed-edge alphabet")
    letters = []
    for (a, b), sign in edge_word.letters:
        letters += ((a, 1), (b, -1)) if sign == 1 else ((b, 1), (a, -1))
    return Word(ctx.vertex_alphabet, letters)


def letterwise_inverse(word):
    """Flip the sign of every letter in place (order preserved).

    An involution on words over any alphabet; on edge words it realizes
    the automorphism sending each directed edge to its inverse.
    """
    return Word.from_syllables(word.alphabet, [(l, -e) for l, e in word.syllables()])


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

    ``edge_word`` is a Word over the complex's directed-edge alphabet (any
    other Word raises ValueError), or a sequence of (edge, exponent)
    syllables over those edges, reduced or not (``verify``'s are reduced).
    True iff the raag_image is the identity.  This is a necessary
    condition for being a relator of the kernel presentation, and a
    sufficient acceptance check because the edge-word group embeds via
    raag_image.

    First the syllables are read as a walk: with k the first exponent,
    ([a>b], k) is a step a -> b and ([a>b], -k) a step b -> a.  A closed
    walk is a relator, since each step's image is u^k v^-k for its ends
    u -> v (a and b commute), so the image telescopes.  Every c^[n] and
    every folded triangle relator is such a walk.  Any other syllables map
    to their image, [a>b]^k to a^k b^-k, freely reduced; the piles see
    only what does not cancel.
    """
    if isinstance(edge_word, Word):
        if edge_word.alphabet != ctx.edge_alphabet:
            raise ValueError("word is not over this complex's directed-edge alphabet")
        runs = edge_word._runs
    else:
        runs = edge_word
    walk = iter(runs)
    for (start, at), k in walk:  # the first syllable only: k, and a step start -> at
        for (a, b), n in walk:
            if n == k and a == at:
                at = b
            elif n == -k and b == at:
                at = a
            else:
                break
        else:
            if at == start:
                return True
        break
    image = reduce_syllables(run for (a, b), k in runs for run in ((a, k), (b, -k)))
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
    stack, so ``max_len`` is not bounded by the recursion limit.  Each
    cycle is made of the edge alphabet's own ``DirectedEdge`` objects,
    looked up by step.
    """
    if max_len < 2:
        raise ValueError("max_len must be at least 2")
    complex = ctx.complex
    index = complex.vertex_index
    step = {(index(e.initial), index(e.terminal)): e for e in ctx.edge_alphabet.letters}
    # Neighbours in descending position, so the stack pops the least first.
    adj = [[index(w) for w in reversed(complex.neighbors(v))] for v in complex.vertices]
    by_length = [[] for _ in range(max_len + 1)]

    # A least rotation (keys compare as vertex sequences) is a necklace: it
    # starts at its least vertex v and each prefix c is a prenecklace, grown
    # only by w >= c[-p], p the period of c's longest Lyndon prefix; c is a
    # necklace iff p divides len(c) (Ruskey-Savage-Wang, 1992).
    for v in range(len(adj)):
        stack = [((v,), 1)]
        while stack:
            c, p = stack.pop()
            if len(c) >= 2 and len(c) % p == 0 and (c[-1], v) in step:
                edges = tuple(map(step.__getitem__, zip(c, c[1:] + (v,))))
                by_length[len(c)].append(DirectedCycle._trusted(edges))
            if len(c) < max_len:
                u = c[-p]
                stack.extend((c + (w,), p if w == u else len(c) + 1) for w in adj[c[-1]] if w >= u)
    return tuple(cycle for cycles in by_length for cycle in cycles)


def directed_cycle_presentation(ctx, max_len, max_exp):
    """Truncation of the full cycle-relator presentation of the kernel.

    Generators: all directed edges.  Relators: ``c^[n]`` for every
    rotation class of closed directed walks with 2 <= length <= max_len
    and every 0 < |n| <= max_exp.  The full family is infinite, so the
    provenance always records the truncation; this output is never
    flagged complete.  The relators are ``_truncated_family``'s texts,
    read back.
    """
    generators, texts, provenance = _truncated_family(ctx, max_len, max_exp)
    gens = {g: i for i, g in enumerate(generators)}
    return _read_relators(gens, [(None, text) for text in texts], provenance)


def _truncated_family(ctx, max_len, max_exp):
    """The generators, relator texts and provenance of
    ``directed_cycle_presentation``; ``present --kind bb-truncated`` writes
    them as they are.

    The texts come from a generator, in the family's order: cycle classes
    as ``enumerate_cycle_classes`` gives them, and for each class c^[1],
    c^[-1], ..., c^[max_exp], c^[-max_exp].  Each is written as
    ``words.write_word`` writes the relator, by one join of its edge names:
    adjacent edges of a class are distinct, so no relator freely reduces.
    """
    if max_exp < 1:
        raise ValueError("max_exp must be at least 1")
    cycles = enumerate_cycle_classes(ctx, max_len)
    names = {e: str(e) for e in ctx.edge_alphabet.letters}
    # c^[n] is "e_1^n e_2^n ... e_l^n", and "e_1 e_2 ... e_l" for n = 1.
    joins = [(f"^{n} ", f"^{n}") if n != 1 else (" ", "") for k in range(1, max_exp + 1) for n in (k, -k)]

    def texts():
        for cycle in cycles:
            gens = [names[e] for e in cycle.edges]
            for sep, tail in joins:
                yield sep.join(gens) + tail

    provenance = {
        "construction": "directed-cycle-relators",
        "max_len": max_len,
        "max_exp": max_exp,
        "truncated": True,
        "complete": False,
        "presents": "kernel (truncated infinite relator family)",
    }
    return list(names.values()), texts(), provenance


def finite_presentation(ctx, tietze_budget=TIETZE_BUDGET):
    """One generator per undirected edge; backtracks folded away.

    Each triangle a < b < c of ``complexes.edge_path_presentation`` gives
    ``c^[1] = [a>b] [b>c] [a>c]^-1`` and its letterwise inverse ``c^[-1]``.
    When the complex is certified simply connected within ``tietze_budget``,
    this presents the kernel (Dicks-Leary, arXiv 1210.6585); otherwise it
    presents the edge group with backtrack and triangle relators only, which
    maps onto the kernel, and the provenance says so.
    """
    edge_path = edge_path_presentation(ctx.complex, ())
    relators = [w for r in edge_path.relators for w in (r, letterwise_inverse(r))]
    status = simply_connected_status(ctx.complex, budget=tietze_budget)
    complete = status is Pi1Status.CERTIFIED_TRIVIAL
    if complete:
        presents = "kernel (complete finite presentation)"
    else:
        presents = "edge group with backtrack/triangle relators only (maps onto the kernel)"
    provenance = {
        "construction": "edge-triangle-presentation",
        "complete": complete,
        "presents": presents,
        "simply_connected": status.value,
        "extra_cycles": 0,
    }
    return Presentation(edge_path.generators, relators, provenance=provenance)


def presentation_relator_edge_words(presentation, ctx):
    """The relators of an edge-generated presentation, as edge words.

    A generator names the edge whose text it is; each relator's runs are
    re-lettered and built by ``Word._of``.  Only the generators in use must
    name edges; the first one used that names none raises ValueError.
    """
    edge = ctx.edge_alphabet.letter_for_token  # ValueError: unknown generator
    return [
        Word._of(ctx.edge_alphabet, [(edge(g), k) for g, k in rel._runs])
        for rel in presentation.relators
    ]


def _read_edge_relators(text, ctx):
    """The relators of a presentation file (text or JSON form), each read
    once to its freely reduced, nonempty (edge, exponent) syllables, the
    form ``verify_relator`` takes, as the result is iterated, with no Word.

    A declared generator that names no edge stands for itself; the relators
    stop at the first that uses one, and once the last line has been read
    ValueError names that generator, so every syntax error (ParseError)
    comes first.
    """
    gens, rel_lines, _ = parse_text_or_json(text, _json_parts, _text_parts)
    edges = ctx.edge_alphabet.factors()
    relators = _relator_syllables(rel_lines, {g: edges.get(g) or (g, 1) for g in gens})
    others = gens.keys() - edges.keys()
    return _up_to_unknown(relators, others) if others else relators


def _up_to_unknown(relators, others):
    """The relators up to the first that uses a generator in ``others``."""
    unknown = []
    for runs in relators:
        unknown = unknown or [g for g, _ in runs if g in others]
        if not unknown:
            yield runs
    if unknown:
        raise ValueError(f"unknown generator {unknown[0]!r}")


# -- homotopy moves on cycle relators ------------------------------------


@dataclass(frozen=True)
class InsertMove:
    """Splice a backtrack pair (edge, reverse) in before position ``position``."""

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

    amount: int

    def apply(self, edges, ctx):
        k = self.amount % len(edges)
        return edges[k:] + edges[:k]


def apply_move_to_cycle(cycle, move, ctx):
    """Apply one homotopy move to a directed cycle; validates the site."""
    if type(move) not in (InsertMove, DeleteMove, TriangleMove, RotateMove):
        raise ValueError(f"unknown move {move!r}")
    return DirectedCycle(move.apply(cycle.edges, ctx))


def relator_to_cycle(relator_word, n, ctx):
    """Recover the directed cycle c from the relator word c^[n]."""
    if relator_word.alphabet != ctx.edge_alphabet:
        raise ValueError("word is not over this complex's directed-edge alphabet")
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


def _legal_moves(edges, ctx):
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
    Each generated move is applied once, through its own site checks.
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
        for move in _legal_moves(state, ctx):
            child = move.apply(state, ctx)
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
