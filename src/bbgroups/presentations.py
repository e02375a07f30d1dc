"""Finite group presentations: storage, abelianization, Tietze moves, I/O.

A Presentation owns an ordered alphabet of generator names (plain
tokens; directed-edge generators use their ``[a>b]`` text form) and a
sequence of freely reduced, nonempty relator words over that alphabet.
A free-form provenance mapping records which construction emitted the
presentation and with what truncation parameters; provenance rides
along through serialization but does not take part in equality.
Tietze moves reuse the free reduction and the word maps of ``words``.
Abelianizing a complex's edge-path presentation gives its H_1
(Hurewicz).
"""

from __future__ import annotations

import enum
import json as _json
import re
from collections import Counter, defaultdict
from dataclasses import dataclass

from . import snf, words
from .errors import ParseError, json_object, reserved_chars, tokens
from .words import Alphabet, Word, invert_letters, read_word, reduce_letters, write_word


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

    @classmethod
    def _trusted(cls, alphabet, relators, provenance):
        """The presentation on a named alphabet whose letters passed
        ``_add_generator``, of nonempty words over that alphabet its builder
        has made; nothing is checked again."""
        presentation = cls.__new__(cls)
        presentation.generators = alphabet.letters
        presentation.alphabet = alphabet
        presentation.relators = tuple(relators)
        presentation.provenance = dict(provenance) if provenance else {}
        return presentation

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


def _apply_one_move(gens, rels, memo):
    """Apply the first applicable elementary move; returns False at fixpoint.

    Moves are tried cheapest first, scans in deterministic order:
    cyclic reduction, trivial-relator deletion, elimination of a
    generator occurring exactly once in some relator, and shortening a
    relator by (a rotation of) another.  Every move is a Tietze
    transformation, so the presented group never changes.  Elimination
    maps the generator to its value by one ``words.homomorphism`` table.

    Shortening depends only on the two relators' letters.  ``memo`` holds,
    for one ``tietze_simplify`` call, a small integer id per relator text,
    the source ids per target id whose scan found no match (skipped from
    then on), and the target's subwords of length k per (target id, k).  A
    match of a rotation u is longer than |u|/2, so it opens with u's first
    k = |u|//2 + 1 letters: a rotation whose k-letter opening is not a
    subword of the target is skipped, and the first match found is the one
    the full scan would find.
    """
    # cyclic reduction
    for i, rel in enumerate(rels):
        if len(rel) >= 2 and rel[0] == (rel[-1][0], -rel[-1][1]):
            word = rel
            while len(word) >= 2 and word[0] == (word[-1][0], -word[-1][1]):
                word = word[1:-1]
            rels[i] = word
            return True

    # trivial relators
    if () in rels:
        rels.remove(())
        return True

    # generator elimination
    for i, rel in enumerate(rels):
        counts = Counter(letter for letter, _ in rel)
        for p, (letter, sign) in enumerate(rel):
            if counts[letter] != 1:
                continue
            # rel = pre g^sign post = 1, so g^-sign = post pre
            rest = rel[p + 1 :] + rel[:p]
            del rels[i]
            # Relators are freely reduced, so one without the generator stays as it is.
            holding = [k for k, r in enumerate(rels) if (letter, 1) in r or (letter, -1) in r]
            images = {g: ((g, 1),) for k in holding for g, _ in rels[k]}
            images[letter] = invert_letters(rest) if sign > 0 else rest
            table = words.homomorphism(images)
            for k in holding:
                rels[k] = reduce_letters(words.substitute(rels[k], table))
            gens.remove(letter)
            return True

    # shorten one relator by more than half of a rotation of another
    ids, unshortenable, subwords = memo
    keys = [ids.setdefault(r, len(ids)) for r in rels]
    for i, target in enumerate(rels):
        tried = unshortenable[keys[i]]
        for j, source in enumerate(rels):
            if i == j or keys[j] in tried:
                continue
            k = len(source) // 2 + 1
            openings = subwords.get((keys[i], k))
            if openings is None:
                openings = subwords[keys[i], k] = {
                    target[p : p + k] for p in range(len(target) - k + 1)
                }
            for base in (source, invert_letters(source)):
                doubled = base + base
                for rot in range(len(base)):
                    if doubled[rot : rot + k] not in openings:
                        continue
                    u = doubled[rot : rot + len(base)]
                    longest = min(len(u), len(target))
                    for length in range(longest, len(u) // 2, -1):
                        pattern = u[:length]
                        for p in range(len(target) - length + 1):
                            if target[p : p + length] == pattern:
                                rels[i] = reduce_letters(
                                    target[:p]
                                    + invert_letters(u[length:])
                                    + target[p + length :]
                                )
                                return True
            tried.add(keys[j])
    return False


TIETZE_BUDGET = 10000  # default move budget of every Tietze caller
TIETZE_MAX_LETTERS = 10**7  # Tietze spells relators out letter by letter


def tietze_simplify(presentation, budget=TIETZE_BUDGET):
    """Bounded Tietze simplification.

    Returns ``(presentation, status)`` where status reports whether a
    fixpoint was reached or the move budget ran out first.  A presentation
    whose relators hold more than ``TIETZE_MAX_LETTERS`` letters raises
    ValueError before any is spelled out.
    """
    if budget <= 0:
        raise ValueError("budget must be positive")
    letters = presentation.total_relator_length()
    if letters > TIETZE_MAX_LETTERS:
        raise ValueError(
            f"relators hold {letters} letters; Tietze simplification takes at most"
            f" {TIETZE_MAX_LETTERS}"
        )
    gens = list(presentation.generators)
    rels = [tuple(r.letters) for r in presentation.relators]
    memo = {}, defaultdict(set), {}  # see _apply_one_move
    while budget and _apply_one_move(gens, rels, memo):
        budget -= 1
    # Deleting a trivial relator is itself a Tietze move; a fixpoint has none left.
    rels = [r for r in rels if r]
    status = TietzeStatus.FIXPOINT
    if not budget and _apply_one_move(list(gens), list(rels), memo):
        status = TietzeStatus.BUDGET_EXHAUSTED
    simplified = Presentation(gens, rels, provenance=presentation.provenance)
    return simplified, status


# -- text and JSON formats ----------------------------------------------

_PROVENANCE_RE = re.compile(r"^#\s*provenance:\s*(.*)$")


def serialize_presentation(presentation):
    """Text form: ``gens:`` line, one ``rel:`` line per relator.

    Provenance is carried in a ``# provenance:`` comment so the round
    trip through parse_presentation is the identity.
    """
    lines = []
    if presentation.provenance:
        blob = _json.dumps(presentation.provenance, sort_keys=True)
        lines.append(f"# provenance: {blob}")
    gens_line = "gens:"
    if presentation.generators:
        gens_line += " " + " ".join(presentation.generators)
    lines.append(gens_line)
    factors = {}
    lines += ["rel: " + write_word(rel, factors) for rel in presentation.relators]
    return "\n".join(lines) + "\n"


def parse_presentation(text):
    """Parse the presentation text format; errors carry line/column.

    ``gens:`` and provenance lines are read in a first pass, which keeps each
    ``rel:`` line as it is; relators are read once the generators are known,
    so a ``rel:`` line may come before the ``gens:`` line.
    """
    return _read_relators(*_text_parts(text))


def _text_parts(text):
    """The first pass of ``parse_presentation``: ``(generators, rel_lines, 1,
    provenance)`` for ``_read_relator_words``, generators as name -> position."""
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
                    provenance = _json.loads(prov.group(1))
                except (_json.JSONDecodeError, RecursionError):
                    raise ParseError("malformed provenance JSON", lineno) from None
                if not isinstance(provenance, dict):
                    raise ParseError("provenance must be a JSON object", lineno)
                continue
            line = line.split("#", 1)[0]
        fields = line.split(None, 1)
        if not fields:
            continue
        if fields[0] == "rel:":
            rel_lines.append((lineno, line))
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
    return gens, rel_lines, 1, provenance


def _read_relator_words(rel_lines, start, alphabet, factors):
    """One nonempty word over ``alphabet`` per ``(line, text)`` pair, read by
    ``words.read_word`` from whitespace field ``start`` of the text on, each
    token standing for the letter ``factors`` gives it; errors are
    ParseErrors."""
    relators = []
    for lineno, text in rel_lines:
        word = read_word(text, alphabet, factors, lineno, start)
        if not len(word):
            raise ParseError("relator is empty after free reduction", lineno)
        relators.append(word)
    return relators


def _read_relators(gens, rel_lines, start, provenance):
    """The presentation on ``gens``, which passed ``_add_generator``, with its
    relators read by ``_read_relator_words``, each token its own letter."""
    alphabet = Alphabet("named", gens)
    relators = _read_relator_words(rel_lines, start, alphabet, alphabet.factors())
    return Presentation._trusted(alphabet, relators, provenance)


def presentation_to_json(presentation):
    """JSON mirror with the text format's field names."""
    factors = {}
    data = {
        "gens": list(presentation.generators),
        "rel": [write_word(r, factors) for r in presentation.relators],
    }
    if presentation.provenance:
        data["provenance"] = dict(presentation.provenance)
    return data


def presentation_from_json(data):
    """Inverse of presentation_to_json; accepts a dict or JSON text."""
    return _read_relators(*_json_parts(data))


def _json_parts(data):
    """The checks of ``presentation_from_json``, then its ``(generators,
    rel_lines, 0, provenance)`` for ``_read_relator_words``."""
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
    return names, [(None, r) for r in rel], 0, data.get("provenance")
