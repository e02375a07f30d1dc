"""Finite group presentations: storage, abelianization, Tietze moves, I/O.

A Presentation owns an ordered alphabet of generator names (plain
tokens; directed-edge generators use their ``[a>b]`` text form) and a
sequence of freely reduced, nonempty relator words over that alphabet.
A free-form provenance mapping records which construction emitted the
presentation and with what truncation parameters; provenance rides
along through serialization but does not take part in equality.
Tietze moves spell each relator once as a string of one character per
letter, so each scan, match and substitution is a ``str`` method.
Abelianizing a complex's edge-path presentation gives its H_1
(Hurewicz).
"""

from __future__ import annotations

import enum
import json as _json
import re
from collections import Counter, defaultdict
from dataclasses import dataclass

from . import snf
from .errors import ParseError, json_object, reserved_chars, strict_json, tokens
from .words import Alphabet, Word, read_word, write_word


def _add_generator(names, g):
    """Declare g as the next generator of ``names`` (name -> position)."""
    if not g or reserved_chars(g):
        raise ValueError(f"bad generator name {g!r} (nonempty, no whitespace, '#' or '^')")
    if g in names:
        raise ValueError(f"duplicate generator {g!r} (generators must be distinct)")
    names[g] = len(names)


class Presentation:
    """Generators plus relators; immutable."""

    __slots__ = ("generators", "relators", "alphabet", "provenance")

    def __init__(self, generators, relators, provenance=None):
        self.generators = tuple(generators)
        names = {}
        for g in self.generators:
            _add_generator(names, g)
        alphabet = Alphabet("named", self.generators)
        rels = []
        for r in relators:
            if not (isinstance(r, Word) and r.alphabet == alphabet):
                r = Word(alphabet, r)
            if not len(r):
                raise ValueError("relator is empty after free reduction")
            rels.append(r)
            alphabet = r.alphabet  # equal to it, so later relators match by identity
        self.alphabet = alphabet
        self.relators = tuple(rels)
        self.provenance = dict(provenance) if provenance else {}

    def is_empty(self):
        return not self.generators and not self.relators

    def total_relator_length(self):
        return sum(len(r) for r in self.relators)

    def __eq__(self, other):
        return (
            isinstance(other, Presentation)
            and self.generators == other.generators
            and self.relators == other.relators
        )

    def __hash__(self):
        return hash((self.generators, self.relators))

    def __repr__(self):
        return (
            f"Presentation({len(self.generators)} generators, "
            f"{len(self.relators)} relators)"
        )


@dataclass(frozen=True)
class AbelianizationResult:
    """Rank and torsion divisibility chain of the abelianized group."""

    rank: int
    torsion: tuple


def exponent_matrix(presentation):
    """One ``{generator position: exponent sum}`` row per relator, zero sums dropped."""
    index = presentation.alphabet.index
    rows = []
    for rel in presentation.relators:
        row = {}
        for letter, exp in rel.syllables():
            j = index[letter]
            row[j] = row.get(j, 0) + exp
        rows.append({j: v for j, v in row.items() if v})
    return rows

def abelianization(presentation):
    """Smith normal form of the exponent matrix.

    rank = #generators - matrix rank; torsion = diagonal entries > 1.
    """
    factors = snf.invariant_factors(exponent_matrix(presentation))
    return AbelianizationResult(
        rank=len(presentation.generators) - len(factors),
        torsion=tuple(d for d in factors if d > 1),
    )


# -- Tietze simplification ----------------------------------------------


class TietzeStatus(enum.Enum):
    FIXPOINT = "Fixpoint"
    BUDGET_EXHAUSTED = "BudgetExhausted"


def _reduce(word):
    """Free reduction of a Tietze string: a stack that pops a letter its inverse meets."""
    stack = []
    for c in word:
        if stack and ord(stack[-1]) == ord(c) ^ 1:
            stack.pop()
        else:
            stack.append(c)
    return "".join(stack)


def _apply_one_move(gens, rels, names, flip, to_gen, tried):
    """Apply the first applicable elementary move; returns False at fixpoint.

    ``rels`` holds the relators as strings, generator k (``names[k]``) as
    ``chr(2k)`` and its inverse as ``chr(2k + 1)``; ``translate(flip)``
    inverts each letter and ``translate(to_gen)`` maps it to its generator.
    Moves are tried cheapest first, scans in deterministic order: cyclic
    reduction, trivial-relator deletion, elimination of a generator
    occurring exactly once in some relator, and shortening a relator by (a
    rotation of) another.  Every move is a Tietze transformation, so the
    presented group never changes.

    Shortening depends only on the two strings.  ``tried`` maps each target
    to the sources whose scan found no match, skipped from then on.  A match
    of a rotation u is longer than |u|/2, so a rotation whose first
    |u|//2 + 1 letters are not in the target is skipped.
    """
    # cyclic reduction
    for i, rel in enumerate(rels):
        if len(rel) >= 2 and ord(rel[0]) == ord(rel[-1]) ^ 1:
            while len(rel) >= 2 and ord(rel[0]) == ord(rel[-1]) ^ 1:
                rel = rel[1:-1]
            rels[i] = rel
            return True

    # trivial relators
    if "" in rels:
        rels.remove("")
        return True

    # generator elimination
    for i, rel in enumerate(rels):
        view = rel.translate(to_gen)
        # A Counter lists letters by first occurrence: the first once-letter is leftmost.
        g = next((g for g, n in Counter(view).items() if n == 1), None)
        if g is None:
            continue
        # rel = pre x post = 1 with x = g^+-1, so x^-1 = post pre
        p = view.index(g)
        x, x_inverse = rel[p], flip[ord(rel[p])]
        rest = rel[p + 1 :] + rel[:p]
        images = {ord(x): rest[::-1].translate(flip), ord(x_inverse): rest}
        del rels[i]
        # Relators are freely reduced, so one without the generator stays as it is.
        for k, r in enumerate(rels):
            if x in r or x_inverse in r:
                rels[k] = _reduce(r.translate(images))
        gens.remove(names[ord(g) >> 1])
        return True

    # shorten one relator by more than half of a rotation of another
    for i, target in enumerate(rels):
        failed = tried[target]
        for j, source in enumerate(rels):
            if i == j or source in failed:
                continue
            k = len(source) // 2 + 1
            for base in (source, source[::-1].translate(flip)):
                doubled = base + base
                for rot in range(len(base)):
                    if doubled[rot : rot + k] not in target:
                        continue
                    u = doubled[rot : rot + len(base)]
                    for length in range(min(len(u), len(target)), len(u) // 2, -1):
                        p = target.find(u[:length])
                        if p >= 0:
                            rest = u[length:][::-1].translate(flip)
                            rels[i] = _reduce(target[:p] + rest + target[p + length :])
                            return True
            failed.add(source)
    return False


TIETZE_BUDGET = 10000  # default move budget of every Tietze caller
TIETZE_MAX_LETTERS = 10**7  # Tietze spells relators out letter by letter
TIETZE_MAX_GENERATORS = 0x110000 // 2  # generator k is chr(2k), its inverse chr(2k + 1)


def tietze_simplify(presentation, budget=TIETZE_BUDGET):
    """Bounded Tietze simplification.

    Returns ``(presentation, status)`` where status reports whether a
    fixpoint was reached or the move budget ran out first.  Each relator is
    spelled once into a string of one character per letter, and the moves
    work on those strings.  A presentation whose relators hold more than
    ``TIETZE_MAX_LETTERS`` letters, or more than ``TIETZE_MAX_GENERATORS``
    distinct generators, raises ValueError before any is spelled out.
    """
    if budget <= 0:
        raise ValueError("budget must be positive")
    runs = [r.syllables() for r in presentation.relators]
    names = list(dict.fromkeys([g for rel in runs for g, _ in rel]))  # generator k's name
    for n, what, cap in (
        (presentation.total_relator_length(), "letters", TIETZE_MAX_LETTERS),
        (len(names), "generators", TIETZE_MAX_GENERATORS),
    ):
        if n > cap:
            raise ValueError(f"relators hold {n} {what}; Tietze simplification takes at most {cap}")
    code = {g: (chr(2 * k), chr(2 * k + 1)) for k, g in enumerate(names)}
    rels = ["".join([code[g][e < 0] * abs(e) for g, e in rel]) for rel in runs]
    flip = "".join([chr(c ^ 1) for c in range(2 * len(names))])
    to_gen = "".join([chr(c & ~1) for c in range(2 * len(names))])
    gens = list(presentation.generators)
    tried = defaultdict(set)  # see _apply_one_move
    while budget and _apply_one_move(gens, rels, names, flip, to_gen, tried):
        budget -= 1
    # Deleting a trivial relator is itself a Tietze move; a fixpoint has none left.
    rels = [r for r in rels if r]
    status = TietzeStatus.FIXPOINT
    if not budget and _apply_one_move(list(gens), list(rels), names, flip, to_gen, tried):
        status = TietzeStatus.BUDGET_EXHAUSTED
    letter = [(g, sign) for g in names for sign in (1, -1)]
    rels = [[letter[ord(c)] for c in r] for r in rels]
    return Presentation(gens, rels, provenance=presentation.provenance), status


# -- text and JSON formats ----------------------------------------------

_PROVENANCE_RE = re.compile(r"^#\s*provenance:\s*(.*)$")


def serialize_presentation(presentation):
    """Text form: ``gens:`` line, one ``rel:`` line per relator.

    Provenance is carried in a ``# provenance:`` comment so the round
    trip through parse_presentation is the identity.
    """
    factors = {}
    texts = [write_word(rel, factors) for rel in presentation.relators]
    return _text_form(presentation.generators, texts, presentation.provenance)


def _text_form(generators, relator_texts, provenance):
    """The text form of a presentation given as its generators, its relators'
    texts (an iterable, read once) and its provenance.  A non-finite
    provenance number raises ValueError, since no reader accepts it."""
    head = " ".join(["gens:", *generators])
    if provenance:
        blob = _json.dumps(provenance, sort_keys=True, allow_nan=False)
        head = f"# provenance: {blob}\n{head}"
    rels = "\nrel: ".join(relator_texts)  # relators are nonempty
    return f"{head}\nrel: {rels}\n" if rels else head + "\n"


def parse_presentation(text):
    """Parse the presentation text format; errors carry line/column.

    ``gens:`` and provenance lines are read in a first pass, which keeps each
    ``rel:`` line; relators are read once the generators are known,
    so a ``rel:`` line may come before the ``gens:`` line.
    """
    return _read_relators(*_text_parts(text))


def _text_parts(text):
    """The first pass of ``parse_presentation``: ``(generators, rel_lines,
    provenance)`` for ``_read_relator_words``, generators as name -> position
    and each ``rel:`` line's head (its first "rel:") blanked by four spaces,
    so its fields are the factors and its columns the line's."""
    gens = {}
    rel_lines = []
    provenance = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        if "#" in line:  # a comment, perhaps the provenance line
            prov = _PROVENANCE_RE.match(line.strip())
            if prov:
                if provenance is not None:
                    raise ParseError("duplicate provenance comment", lineno)
                try:
                    provenance = strict_json(prov.group(1))
                except ParseError:
                    raise ParseError("malformed provenance JSON", lineno) from None
                if not isinstance(provenance, dict):
                    raise ParseError("provenance must be a JSON object", lineno)
                continue
            line = line.split("#", 1)[0]
        fields = line.split(None, 1)
        if not fields:
            continue
        if fields[0] == "rel:":
            rel_lines.append((lineno, line.replace("rel:", "    ", 1)))
            continue
        (head, headcol), *body = tokens(line)
        if head != "gens:":
            raise ParseError(
                f"unrecognized line head {head!r} (expected 'gens:' or 'rel:')",
                lineno,
                headcol,
            )
        for g, col in body:
            try:
                _add_generator(gens, g)
            except ValueError as exc:
                raise ParseError(str(exc), lineno, col) from None
    return gens, rel_lines, provenance


def _read_relator_words(rel_lines, alphabet, factors):
    """One nonempty word over ``alphabet`` per ``(line, text)`` pair, read by
    ``words.read_word`` from every whitespace field of the text, each token
    standing for the letter ``factors`` gives it; errors are ParseErrors."""
    relators = []
    for lineno, text in rel_lines:
        word = read_word(text, alphabet, factors, lineno)
        if not len(word):
            raise ParseError("relator is empty after free reduction", lineno)
        relators.append(word)
    return relators


def _read_relators(gens, rel_lines, provenance):
    """The presentation on ``gens`` with its relators read by
    ``_read_relator_words``, each token its own letter."""
    alphabet = Alphabet("named", gens)
    relators = _read_relator_words(rel_lines, alphabet, alphabet.factors())
    return Presentation(alphabet.letters, relators, provenance)


def presentation_to_json(presentation):
    """JSON mirror with the text format's field names."""
    factors = {}
    texts = [write_word(r, factors) for r in presentation.relators]
    return _json_form(presentation.generators, texts, presentation.provenance)


def _json_form(generators, relator_texts, provenance):
    """The JSON mirror of ``_text_form``'s arguments."""
    data = {"gens": list(generators), "rel": list(relator_texts)}
    if provenance:
        data["provenance"] = dict(provenance)
    return data


def presentation_from_json(data):
    """Inverse of presentation_to_json; accepts a dict or JSON text."""
    return _read_relators(*_json_parts(data))


def _json_parts(data):
    """The checks of ``presentation_from_json``, then its ``(generators,
    rel_lines, provenance)`` for ``_read_relator_words``."""
    data = json_object(data, ("gens", "rel", "provenance"), "presentation JSON")
    gens = data.get("gens", [])
    if not isinstance(gens, list) or not all(isinstance(g, str) for g in gens):
        raise ParseError("'gens' must be a list of strings")
    rel = data.get("rel", [])
    if not isinstance(rel, list) or not all(isinstance(r, str) for r in rel):
        raise ParseError("'rel' must be a list of word strings")
    if not isinstance(data.get("provenance", {}), dict):
        raise ParseError("'provenance' must be an object")
    names = {}
    for g in gens:
        try:
            _add_generator(names, g)
        except ValueError as exc:
            raise ParseError(str(exc)) from None
    return names, [(None, r) for r in rel], data.get("provenance")
