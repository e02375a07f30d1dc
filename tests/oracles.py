"""Independent oracles the library is checked against.

Each oracle takes the dumbest correct route it can: subset enumeration
for cliques, a subset test for boundary matrices, textbook corner
reduction for Smith normal form, full product enumeration for closed
walks, breadth-first closure for the RAAG word problem, a stack loop
for free reduction, a pair-by-pair merge for syllables, a Tietze loop
that rescans every move from scratch, a set-by-set replay of a
collapse certificate, the directed-cycle construction of the finite
kernel presentation (which also folds extra cycles, such as
``fundamental_cycle_basis``'s tree-path loops, onto its generators, so
``verify_relator`` meets folded relators the library never builds), and
a word-map table (``homomorphism``,
``substitute``, ``raag_table``) that spells ``raag_image`` one lookup per
letter.  None of them shares code with the library paths they audit,
except ``verify_reference``: it checks ``bbgroups verify`` against the
route that parses a whole presentation file and only then re-letters its
relators onto edges, and it decides each relator by piling its letterwise
``raag_image``, not by ``verify_relator``'s walk pass or its syllable
image.

The cyclic extension of the kernel by the basepoint letter (the paper's
G = H x| Z: ``ExtensionElement`` and its ``extension_*`` laws,
``lift_vertex``), its twist (``basepoint_conjugate``, ``conjugate_power``)
and ``tree_path_word`` are not oracles of a library path: their images
are taken by ``raag_image``, and the identities those images must
satisfy check it and the spanning tree's paths.
"""

import json
from collections import deque
from dataclasses import dataclass
from itertools import combinations, product
from math import gcd

from bbgroups import (
    Alphabet,
    BBContext,
    DirectedCycle,
    DirectedEdge,
    ParseError,
    Pi1Status,
    Presentation,
    TietzeStatus,
    Word,
    cycle_relator,
    letterwise_inverse,
    parse_presentation,
    presentation_from_json,
    presentation_relator_edge_words,
    raag_image,
    render_word,
    simply_connected_status,
)


def naive_invariant_factors(matrix):
    """Recursive corner-pivot row/column reduction, then gcd/lcm folding."""
    a = [[int(x) for x in row] for row in matrix]
    if not a or not a[0]:
        return ()
    m, n = len(a), len(a[0])
    pivot = None
    for i in range(m):
        for j in range(n):
            if a[i][j]:
                pivot = (i, j)
                break
        if pivot:
            break
    if pivot is None:
        return ()
    i0, j0 = pivot
    a[0], a[i0] = a[i0], a[0]
    for row in a:
        row[0], row[j0] = row[j0], row[0]
    while True:
        for i in range(1, m):
            while a[i][0]:
                q = a[i][0] // a[0][0]
                for j in range(n):
                    a[i][j] -= q * a[0][j]
                if a[i][0]:
                    a[0], a[i] = a[i], a[0]
        for j in range(1, n):
            while a[0][j]:
                q = a[0][j] // a[0][0]
                for i in range(m):
                    a[i][j] -= q * a[i][0]
                if a[0][j]:
                    for i in range(m):
                        a[i][0], a[i][j] = a[i][j], a[i][0]
        if not any(a[i][0] for i in range(1, m)) and not any(
            a[0][j] for j in range(1, n)
        ):
            break
    diagonal = [abs(a[0][0])]
    diagonal.extend(naive_invariant_factors([row[1:] for row in a[1:]]))
    # any diagonal matrix is equivalent to its gcd/lcm-folded chain
    changed = True
    while changed:
        changed = False
        for i in range(len(diagonal) - 1):
            x, y = diagonal[i], diagonal[i + 1]
            if y % x:
                g = gcd(x, y)
                diagonal[i], diagonal[i + 1] = g, x * y // g
                changed = True
    return tuple(diagonal)


def dense_boundary_matrix(complex, k):
    """Dense d_k by subset test: a (k-1)-simplex that is a k-simplex minus its
    i-th vertex gets the entry (-1)^i in that k-simplex's column."""
    cells = complex.simplices(k)
    matrix = []
    for face in complex.simplices(k - 1):
        row = []
        for cell in cells:
            missing = [i for i, v in enumerate(cell) if v not in face]
            row.append((-1) ** missing[0] if len(missing) == 1 else 0)
        matrix.append(row)
    return matrix


def brute_force_simplices(vertices, edges):
    """Cliques by raw subset enumeration; returns levels of vertex tuples."""
    vertices = list(vertices)
    adjacent = set()
    for u, v in edges:
        adjacent.add((u, v))
        adjacent.add((v, u))
    levels = []
    for k in range(1, len(vertices) + 1):
        level = tuple(
            subset
            for subset in combinations(vertices, k)
            if all((u, v) in adjacent for u, v in combinations(subset, 2))
        )
        if not level:
            break
        levels.append(level)
    return tuple(levels)


def brute_force_closed_walk_classes(complex, max_len):
    """Rotation classes of closed directed walks, by product enumeration.

    Only usable on small complexes (cost |vertices|^length): a closed
    walk of length l is a sequence of l vertex positions, each adjacent to
    the next and the last to the first.  Each class is given by its
    rotation with the least tuple of (initial, terminal) declaration
    positions, written as vertex-name pairs; classes are listed by
    (length, position tuple).
    """
    names = complex.vertices
    classes = set()
    for l in range(2, max_len + 1):
        for walk in product(range(len(names)), repeat=l):
            keys = [(walk[i], walk[(i + 1) % l]) for i in range(l)]
            if all(complex.adjacent(names[i], names[j]) for i, j in keys):
                classes.add(min(tuple(keys[r:] + keys[:r]) for r in range(l)))
    return [
        tuple((names[i], names[j]) for i, j in key)
        for key in sorted(classes, key=lambda key: (len(key), key))
    ]


class ShuffleClosureOracle:
    """Word-problem oracle: exhaustive closure under adjacent-commutation
    swaps and free cancellation, with memoization across queries.

    Words are encoded as bytes, one letter per byte: ``2 * index + (0 if
    positive else 1)``.  Every word visited by one closure represents
    the same group element, so the closure's answer is recorded for all
    of them.
    """

    def __init__(self, complex):
        self.complex = complex
        self.letters = complex.vertices
        index = {v: i for i, v in enumerate(self.letters)}
        n = len(self.letters)
        self.commutes = [[False] * n for _ in range(n)]
        for u, v in complex.edges:
            self.commutes[index[u]][index[v]] = True
            self.commutes[index[v]][index[u]] = True
        self._index = index
        self._memo = {}

    def encode(self, word):
        return bytes(
            2 * self._index[letter] + (0 if sign > 0 else 1)
            for letter, sign in word.letters
        )

    def _closure(self, code, stop=None):
        """The words reachable from code by cancellations and commuting
        swaps, breadth first; stops early once ``stop`` is dequeued."""
        commutes = self.commutes
        seen = {code}
        queue = deque([code])
        while queue:
            w = queue.popleft()
            if w == stop:
                break
            for i in range(len(w) - 1):
                x, y = w[i], w[i + 1]
                if x >> 1 == y >> 1:
                    if x != y:  # inverse pair: cancel
                        nw = w[:i] + w[i + 2 :]
                        if nw not in seen:
                            seen.add(nw)
                            queue.append(nw)
                elif commutes[x >> 1][y >> 1]:
                    nw = w[:i] + bytes((y, x)) + w[i + 2 :]
                    if nw not in seen:
                        seen.add(nw)
                        queue.append(nw)
        return seen

    def is_identity_encoded(self, code):
        memo = self._memo
        known = memo.get(code)
        if known is not None:
            return known
        seen = self._closure(code, stop=b"")
        answer = b"" in seen
        for w in seen:
            memo[w] = answer
        return answer

    def is_identity(self, word):
        return self.is_identity_encoded(self.encode(word))

    def normal_form(self, word):
        """The least (length, bytes) word of the closure, as (letter, sign)
        pairs: letters order by vertex position, with g before g^-1."""
        least = min(self._closure(self.encode(word)), key=lambda w: (len(w), w))
        return tuple((self.letters[x >> 1], -1 if x & 1 else 1) for x in least)


def free_reduce(letters):
    """Free reduction by a stack loop over every pair."""
    out = []
    for letter in letters:
        if out and out[-1] == (letter[0], -letter[1]):
            out.pop()
        else:
            out.append(letter)
    return tuple(out)


def syllable_runs(letters):
    """Runs of equal letters as (letter, signed exponent) pairs, merged one
    pair at a time."""
    out = []
    for letter, sign in letters:
        if out and out[-1][0] == letter:
            out[-1][1] += sign
        else:
            out.append([letter, sign])
    return [(l, e) for l, e in out]


def _inverse(letters):
    return tuple((g, -s) for g, s in reversed(letters))


def _tietze_move(gens, rels):
    """The first applicable move, found by a full scan with no memo; False
    at a fixpoint.  Moves in order: cyclic reduction, deleting a trivial
    relator, eliminating a generator that occurs once in some relator, and
    shortening a relator by more than half of a rotation of another or of
    its inverse (longest match first)."""
    for i, rel in enumerate(rels):
        if len(rel) >= 2 and rel[0] == (rel[-1][0], -rel[-1][1]):
            while len(rel) >= 2 and rel[0] == (rel[-1][0], -rel[-1][1]):
                rel = rel[1:-1]
            rels[i] = rel
            return True
    if () in rels:
        rels.remove(())
        return True
    for i, rel in enumerate(rels):
        for p, (g, sign) in enumerate(rel):
            if [h for h, _ in rel].count(g) != 1:
                continue
            rest = rel[p + 1 :] + rel[:p]
            value = _inverse(rest) if sign > 0 else rest
            del rels[i]
            for k, r in enumerate(rels):
                image = []
                for h, s in r:
                    if h == g:
                        image.extend(value if s > 0 else _inverse(value))
                    else:
                        image.append((h, s))
                rels[k] = free_reduce(image)
            gens.remove(g)
            return True
    for i, target in enumerate(rels):
        for j, source in enumerate(rels):
            if i == j:
                continue
            for base in (source, _inverse(source)):
                for rot in range(len(base)):
                    u = base[rot:] + base[:rot]
                    for length in range(min(len(u), len(target)), len(u) // 2, -1):
                        for p in range(len(target) - length + 1):
                            if target[p : p + length] == u[:length]:
                                rels[i] = free_reduce(
                                    target[:p] + _inverse(u[length:]) + target[p + length :]
                                )
                                return True
    return False


def tietze_reference(presentation, budget):
    """``(presentation, status)`` after at most ``budget`` moves, as
    ``tietze_simplify`` promises: the status is BUDGET_EXHAUSTED iff a move
    is still left once the budget is spent."""
    gens = list(presentation.generators)
    rels = [tuple(r.letters) for r in presentation.relators]
    while budget and _tietze_move(gens, rels):
        budget -= 1
    rels = [r for r in rels if r]
    status = TietzeStatus.FIXPOINT
    if not budget and _tietze_move(list(gens), list(rels)):
        status = TietzeStatus.BUDGET_EXHAUSTED
    return Presentation(gens, rels, provenance=presentation.provenance), status


def collapse_replays(complex, tree, pairs, critical):
    """Whether a collapse certificate replays on the complex's edge set.

    ``tree`` must be a spanning tree: n - 1 edges that reach every vertex
    from the first.  Its edges start trivial.  In order, each
    ``(triangle, edge)`` pair's triangle must span three edges, exactly
    one of them not yet trivial, and that one must be the pair's edge,
    which becomes trivial.  At the end the non-trivial edges must be
    exactly ``critical``, listed once each.
    """
    edges = {frozenset(e) for e in complex.edges}
    trivial = {frozenset(e) for e in tree}
    if not trivial <= edges or len(trivial) != len(complex.vertices) - 1:
        return False
    reached = set(complex.vertices[:1])
    while True:
        grown = reached.union(*(e for e in trivial if e & reached))
        if grown == reached:
            break
        reached = grown
    if len(reached) != len(complex.vertices):
        return False
    for triangle, edge in pairs:
        sides = {frozenset(p) for p in combinations(set(triangle), 2)}
        if len(sides) != 3 or not sides <= edges or sides - trivial != {frozenset(edge)}:
            return False
        trivial |= sides
    left = [frozenset(e) for e in critical]
    return len(set(left)) == len(left) and set(left) == edges - trivial


def fundamental_cycle_basis(ctx):
    """One based loop per edge off the spanning tree: the tree path out from
    the root, the edge, the tree path back.  The loops generate the
    fundamental group, so they are extra cycles for
    ``finite_presentation_reference`` on a complex that is not simply
    connected."""
    root, path = ctx.tree.root, ctx.tree.path_edges
    return tuple(
        DirectedCycle(path(root, u) + (DirectedEdge(u, v),) + path(v, root))
        for u, v in ctx.complex.edges
        if (u, v) not in ctx.tree.edges
    )


def finite_presentation_reference(ctx, extra_cycles=(), max_exp=1):
    """``finite_presentation`` by the directed-cycle route: a DirectedCycle
    a > b > c > a per triangle with its ``cycle_relator`` for n = 1 and
    n = -1, then each extra cycle's for n = k, -k (0 < k <= max_exp), each
    relator folded onto one generator per edge, the edge's orientation from
    its earlier-declared end (so [b>a] is [a>b]^-1), and dropped if it folds
    away.  The provenance is rebuilt from the pi_1 certificate at the
    default budget; with extra cycles the result is never complete."""
    complex = ctx.complex
    edges = set(complex.edges)
    alphabet = Alphabet("named", [str(DirectedEdge(u, v)) for u, v in complex.edges])
    fold = {e: (str(e), 1) if e in edges else (str(e.reverse()), -1) for e in ctx.edge_alphabet.letters}
    families = [
        (DirectedCycle((DirectedEdge(a, b), DirectedEdge(b, c), DirectedEdge(c, a))), n)
        for a, b, c in complex.triangles()
        for n in (1, -1)
    ]
    families += [(c, n) for c in extra_cycles for k in range(1, max_exp + 1) for n in (k, -k)]
    relators = []
    for cycle, n in families:
        runs = cycle_relator(cycle, n, ctx).syllables()
        word = Word.from_syllables(alphabet, [(fold[e][0], fold[e][1] * k) for e, k in runs])
        if len(word):
            relators.append(word)
    status = simply_connected_status(complex)
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
    return Presentation(alphabet.letters, relators, provenance=provenance)


def verify_reference(complex, text, as_json=False):
    """What ``bbgroups verify [--json]`` gives for a connected complex and a
    presentation file's text, as ``(exit code, stdout, first stderr line)``:
    the file parsed whole by ``parse_presentation`` or
    ``presentation_from_json``, then ``presentation_relator_edge_words``,
    then, per relator, whether the RAAG's piles hold nothing for its
    ``raag_image`` spelled letter by letter (not ``verify_relator``'s walk
    pass or syllable image)."""
    ctx = BBContext(complex)
    try:
        if text.lstrip().startswith("{"):
            presentation = presentation_from_json(text)
        else:
            presentation = parse_presentation(text)
        words = presentation_relator_edge_words(presentation, ctx)
    except ParseError as exc:
        return 2, "", f"error: {exc}"
    except ValueError as exc:
        return 1, "", f"error: {exc}"
    failures = [i for i, w in enumerate(words) if not ctx.raag.is_identity(raag_image(w, ctx))]
    verified = len(words) - len(failures)
    if as_json:
        data = {"relators": len(words), "verified": verified, "failures": failures}
        out = json.dumps(data, indent=2, sort_keys=True) + "\n"
    else:
        lines = [f"relators: {len(words)}", f"verified: {verified}"]
        lines += [f"FAILED relator {i}: {render_word(presentation.relators[i])}" for i in failures]
        out = "\n".join(lines + ([] if failures else ["all relators verified"])) + "\n"
    return int(bool(failures)), out, ""


# -- word maps and the cyclic extension ----------------------------------


def homomorphism(images):
    """The table ``{(g, 1): image, (g, -1): inverse image}`` of g -> images[g]."""
    table = {(g, 1): tuple(image) for g, image in images.items()}
    for (g, _), image in list(table.items()):
        table[g, -1] = tuple([(l, -s) for l, s in reversed(image)])
    return table


def substitute(letters, table):
    """The image of (letter, sign) pairs under a ``homomorphism`` table, unreduced."""
    return [pair for letter in letters for pair in table[letter]]


def raag_table(ctx):
    """The table of ``raag_image``: [a>b] -> a b^-1."""
    return homomorphism({e: ((e.initial, 1), (e.terminal, -1)) for e in ctx.edge_alphabet.letters})


def tree_path_word(ctx, a, b):
    """Edge word of the unique spanning-tree path from a to b.

    Its raag_image free-reduces to ``a b^-1``; the path from a vertex to
    itself is the empty word.
    """
    return Word(ctx.edge_alphabet, [(e, 1) for e in ctx.tree.path_edges(a, b)])


def basepoint_conjugate(edge_word, ctx):
    """Replace each edge e by (path to its start) e (path back), letterwise.

    Negative letters get the inverse of the positive-letter image.  The
    contract: raag_image of the result equals ``a * raag_image(word) * a^-1``
    in the RAAG, a the basepoint.
    """
    a, path = ctx.tree.root, ctx.tree.path_edges
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
    return ExtensionElement(x.word * conjugate_power(y.word, x.power, ctx), x.power + y.power)


def extension_inverse(x, ctx):
    return ExtensionElement(conjugate_power(~x.word, -x.power, ctx), -x.power)


def extension_image(x, ctx):
    """Image in the RAAG: the word's image times basepoint^power."""
    tail = Word(ctx.vertex_alphabet, [(ctx.tree.root, 1)]) ** x.power
    return raag_image(x.word, ctx) * tail


def lift_vertex(b, ctx):
    """Lift of a vertex generator: (tree path from b to the basepoint, 1).

    Its extension image normal-form-equals the vertex itself.
    """
    return ExtensionElement(tree_path_word(ctx, b, ctx.tree.root), 1)
