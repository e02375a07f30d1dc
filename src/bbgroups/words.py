"""Free-group words over tagged alphabets, and the RAAG word problem.

A Word stores its freely reduced syllables: (letter, exponent) runs with
adjacent letters distinct and no exponent 0, and its letter count.  Its
``letters`` spell it as (letter, sign) pairs, |k| pairs for a run g^k.
Runs are reduced where they are made, by one stack over syllables
(``reduce_syllables``): in ``Word(alphabet, letters)`` (a letter is a
syllable of exponent +-1), ``Word.from_syllables`` and
``read_syllables``.  ``*`` reduces only at the junction of its reduced
operands, and ``**`` squares through ``*``.  Later steps trust the runs:
``Word._of`` keeps them as given and only counts their letters.
Alphabets are tagged ("vertex", "edge", "named") so that words over a
complex's vertex letters and words over its directed-edge letters can
never be mixed by accident; concatenating across alphabets is a hard
error.

The word problem for a right-angled Artin group is decided by a
heap-of-pieces normal form: a generator's pile holds its runs g^k, each
with one marker on the pile of every generator it does not commute with.
Markers are only counted, all piles' counts in one integer, so pushing or
popping a run costs a few big-integer operations, not one step per
non-commuting generator.  A pile is two plain int stacks, its runs'
exponents and the marker count under each run, and a pile's count is
read by one AND with its field's mask.  A syllable adds its exponent to
the run on top of its pile if no marker lies over it, and a run that
reaches zero is popped, which restores the count under it.  The heap is
linearized by always emitting the least available run; a pile offers its
bottom run while no marker lies under it, and one AND finds the piles
that do.  The result is the lexicographically least word among all
commutation-equivalent ones, so two words represent the same group
element iff their normal forms are equal syllable for syllable.
"""

from __future__ import annotations

import sys

from .errors import ParseError, tokens


def reduce_syllables(syllables):
    """Free reduction of (letter, exponent) runs: a stack on which a run
    merges into a top run of its letter, and a run that reaches 0 is popped."""
    stack = []
    for run in syllables:
        letter, exp = run
        if stack and stack[-1][0] == letter:
            exp += stack.pop()[1]
            if exp:
                stack.append((letter, exp))
        else:
            stack.append(run)
    return stack


def spell(syllables):
    """The (letter, sign) pairs of (letter, exponent) runs, |exponent| pairs each."""
    out = []
    for run in syllables:
        exp = run[1]
        if exp == 1 or exp == -1:
            out.append(run)
        else:
            out += [(run[0], 1 if exp > 0 else -1)] * abs(exp)
    return tuple(out)


class Alphabet:
    """An ordered, tagged set of letters; ``index`` gives each letter's
    position and ``pairs`` holds the (letter, +-1) pairs a word may use."""

    __slots__ = ("kind", "letters", "index", "pairs", "_factors")

    def __init__(self, kind, letters):
        self.kind = kind
        self.letters = tuple(letters)
        self.index = {l: i for i, l in enumerate(self.letters)}
        self.pairs = frozenset((l, s) for l in self.letters for s in (1, -1))
        self._factors = {str(l): (l, 1) for l in self.letters}
        if len(self._factors) != len(self.letters):
            raise ValueError("alphabet letters must have distinct text forms")

    def letter_for_token(self, token):
        try:
            return self._factors[token][0]
        except KeyError:
            raise ValueError(f"unknown generator {token!r}") from None

    def factors(self):
        """A new factor table for ``read_syllables``: each letter's text -> (letter, 1)."""
        return self._factors.copy()

    def __eq__(self, other):
        if self is other:
            return True
        return (
            isinstance(other, Alphabet)
            and self.kind == other.kind
            and self.letters == other.letters
        )

    def __hash__(self):
        return hash((self.kind, self.letters))

    def __repr__(self):
        return f"Alphabet({self.kind!r}, {len(self.letters)} letters)"


def vertex_alphabet(complex):
    """The vertex letters of a complex (generators of its RAAG)."""
    return Alphabet("vertex", complex.vertices)


def edge_alphabet(complex):
    """All directed edges of a complex, both orientations as distinct letters."""
    return Alphabet("edge", complex.directed_edges())


class Word:
    """A freely reduced word; immutable.

    Stored as its syllables, (letter, exponent) runs with adjacent letters
    distinct and no exponent 0, and its letter count, which ``len`` gives.
    ``Word(alphabet, letters)`` takes (letter, +-1) pairs and
    ``Word.from_syllables`` takes runs of any nonzero exponent; both check
    and reduce them.  ``letters`` spells the word as (letter, +-1) pairs.
    Words multiply with ``*``, invert with ``~`` and power with ``**``;
    operands must share an alphabet.
    """

    __slots__ = ("alphabet", "_runs", "_length")

    def __new__(cls, alphabet, letters=()):
        letters = tuple(letters)
        if not alphabet.pairs.issuperset(letters):
            for letter, sign in letters:
                if sign not in (1, -1):
                    raise ValueError(f"letter sign must be +1 or -1, got {sign!r}")
                if letter not in alphabet.index:
                    raise ValueError(
                        f"letter {str(letter)!r} is not in the {alphabet.kind} alphabet"
                    )
        return cls._of(alphabet, reduce_syllables(letters))

    @classmethod
    def from_syllables(cls, alphabet, syllables):
        """The word of (letter, exponent) tuples, each exponent a nonzero int."""
        runs = tuple(syllables)
        index = alphabet.index
        for letter, exp in runs:
            if type(exp) is not int or not exp:
                raise ValueError(f"syllable exponent must be a nonzero integer, got {exp!r}")
            if letter not in index:
                raise ValueError(f"letter {str(letter)!r} is not in the {alphabet.kind} alphabet")
        return cls._of(alphabet, reduce_syllables(runs))

    @classmethod
    def _of(cls, alphabet, runs, length=None):
        """The word of runs over ``alphabet`` that the caller has checked and
        freely reduced, kept as they are; only their letters are counted,
        unless the caller gives their count as ``length``."""
        word = object.__new__(cls)
        word.alphabet = alphabet
        word._runs = runs = tuple(runs)
        if length is None:
            length = 0
            for _, exp in runs:
                length += abs(exp)
        word._length = length
        return word

    @property
    def letters(self):
        """The (letter, +-1) pairs of the word; its runs if every run is one letter."""
        return self._runs if self._length == len(self._runs) else spell(self._runs)

    def syllables(self):
        """The stored runs, as a list of (letter, signed exponent) pairs."""
        return list(self._runs)

    def __len__(self):
        return self._length

    def __iter__(self):
        return iter(self.letters)

    def __eq__(self, other):
        return (
            isinstance(other, Word)
            and self.alphabet == other.alphabet
            and self._runs == other._runs
        )

    def __hash__(self):
        return hash((self.alphabet, self._runs))

    def __mul__(self, other):
        if not isinstance(other, Word):
            return NotImplemented
        if self.alphabet != other.alphabet:
            raise ValueError(
                f"cannot concatenate words over different alphabets "
                f"({self.alphabet.kind} vs {other.alphabet.kind})"
            )
        # Both operands are reduced, so only runs at the junction cancel or merge.
        left, right = self._runs, other._runs
        i, j, merged = len(left), 0, ()
        length = self._length + other._length
        for (a, e), (b, f) in zip(reversed(left), right):
            if a != b:
                break
            i -= 1
            j += 1
            if e + f:
                merged = ((a, e + f),)
                length -= abs(e) + abs(f) - abs(e + f)
                break
            length -= 2 * abs(f)
        return Word._of(self.alphabet, left[:i] + merged + right[j:], length)

    def __invert__(self):
        return Word._of(self.alphabet, [(l, -e) for l, e in reversed(self._runs)], self._length)

    def __pow__(self, n):
        if n < 0:
            return (~self) ** (-n)
        power, square = Word._of(self.alphabet, ()), self
        while n:
            if n & 1:
                power = power * square
            n >>= 1
            if n:
                square = square * square
        return power

    def __reduce__(self):
        # copy and pickle rebuild through the checks
        return Word.from_syllables, (self.alphabet, self._runs)

    def __repr__(self):
        return f"Word({render_word(self) or '1'})"


def exponent_sum(word):
    """Sum of letter signs; the total-exponent map to Z."""
    return sum(e for _, e in word.syllables())


class RaagContext:
    """A right-angled Artin group: vertex generators, adjacent pairs commute.

    Commutation is symmetric and irreflexive, derived from the edge set
    of the owning complex.  ``_pile`` gives the heap of (letter, exponent)
    syllables, reduced or not (a syllable adds its exponent to an open run
    of its letter): per generator two int stacks, ``exps`` holding its
    runs' exponents bottom first and ``unders`` the markers under each
    run, and one integer holding each generator's marker count in a field
    of ``width`` bits, which a count (at most the number of syllables)
    never fills.  A run is pushed or popped by adding or subtracting its
    generator's blocker mask: one marker in the field of every generator
    it does not commute with.
    """

    __slots__ = ("complex", "alphabet", "_masks")

    def __init__(self, complex):
        self.complex = complex
        self.alphabet = vertex_alphabet(complex)
        self._masks = {}  # field width -> (blocker masks, every field's low bit, field masks)

    def commutes(self, u, v):
        return u != v and self.complex.adjacent(u, v)

    def _blocker_masks(self, width):
        if width not in self._masks:
            complex = self.complex
            n = len(complex.vertices)
            ones = sum(1 << i * width for i in range(n))
            masks = [
                ones - sum(1 << complex.vertex_index(w) * width for w in (v, *complex.neighbors(v)))
                for v in complex.vertices
            ]
            fields = [((1 << width) - 1) << i * width for i in range(n)]
            self._masks[width] = masks, ones, fields
        return self._masks[width]

    def _vertex_runs(self, word):
        if word.alphabet != self.alphabet:
            raise ValueError("word is not over this RAAG's vertex alphabet")
        return word._runs

    def _pile(self, syllables):
        width = len(syllables).bit_length() + 1
        masks, _, fields = self._blocker_masks(width)
        index = self.alphabet.index
        n = len(masks)
        exps = [[] for _ in range(n)]
        unders = [[] for _ in range(n)]
        counts = 0  # per field: the markers over the pile's top run
        for letter, exp in syllables:
            i = index[letter]
            runs = exps[i]
            over = counts & fields[i]
            if runs and not over:
                # No marker above the run: nothing non-commuting came after it.
                exp += runs[-1]
                if exp:
                    runs[-1] = exp
                else:
                    runs.pop()
                    counts += (unders[i].pop() << i * width) - masks[i]
            else:
                runs.append(exp)
                unders[i].append(over >> i * width)
                counts += masks[i] - over
        return exps, unders, counts, width

    def normal_form(self, word):
        """Lexicographically least representative of the reduced heap.

        Letter order: by generator position in the vertex alphabet, with
        g preceding g^-1.
        """
        exps, unders, counts, width = self._pile(self._vertex_runs(word))
        masks, ones, fields = self._blocker_masks(width)
        letters = self.alphabet.letters
        under = counts  # per field: the markers under the pile's bottom run
        offered = 0  # the top bit of each field whose pile still holds a run
        for i, runs in enumerate(exps):
            if runs:
                # Runs pop bottom first, each with the markers under the run
                # after it; the last one's are those over it, the field's count.
                shift = i * width
                marks = unders[i]
                top = counts & fields[i]
                marks.append(top >> shift)
                marks.reverse()
                under += (marks.pop() << shift) - top
                runs.reverse()
                offered |= 1 << shift + width - 1
        # Adding each field's top bit and subtracting 1 leaves the top bit set
        # iff the field's count is nonzero, with no borrow across fields; so
        # in the complement it is set iff the pile's bottom run is free, and a
        # change d to the counts changes the complement by -d.
        free_bits = ~(under + (ones << width - 1) - ones)
        out = []
        while True:
            free = free_bits & offered
            if not free:
                return Word._of(self.alphabet, out)
            shift = (free & -free).bit_length() - width
            i = shift // width
            runs = exps[i]
            out.append((letters[i], runs.pop()))
            free_bits += masks[i] - (unders[i].pop() << shift)
            if not runs:
                offered ^= 1 << shift + width - 1

    def is_identity(self, word):
        return not any(self._pile(self._vertex_runs(word))[0])


# -- word text syntax ---------------------------------------------------


def render_word(word):
    """Whitespace-separated factors ``g``, ``g^k``; edge letters as [a>b]."""
    return write_word(word, {})


def write_word(word, factors):
    """The text of ``word``, as ``render_word`` writes it.

    ``factors`` maps each syllable already written to its factor text: a
    syllable is formatted the first time it is seen, and looked up after that.
    """
    return " ".join([factors.get(s) or _factor_text(s, factors) for s in word._runs])


def _factor_text(syllable, factors):
    """The factor ``g`` or ``g^k`` of a syllable (g, k), recorded in ``factors``."""
    letter, exp = syllable
    text = factors[syllable] = f"{letter}" if exp == 1 else f"{letter}^{exp}"
    return text


def parse_word(text, alphabet):
    """Parse the word syntax against an alphabet.

    Whitespace-separated factors: ``g``, ``g^-1``, ``g^k`` for a nonzero
    decimal k with ``|k| <= sys.maxsize``; directed-edge letters written
    ``[a>b]``.  Raises ParseError with position diagnostics.
    """
    return Word._of(alphabet, read_syllables(text, alphabet.factors()))


def read_syllables(text, factors, line=None):
    """The syllables (letter, exponent) of ``text``'s whitespace-separated
    fields, each a factor as read by ``parse_word``, freely reduced.

    ``factors`` maps factor texts to syllables.  It starts with one entry
    ``g -> (letter, 1)`` per generator token g, which fixes the letter each
    token stands for (``Alphabet.factors()``, or another lettering); any
    other factor ``g^k`` is checked and decoded the first time it is seen,
    recorded, and looked up after that.  The runs go through
    ``reduce_syllables`` only if two adjacent ones share a letter.  A
    ParseError carries ``line`` and the column of the factor at fault,
    counted from the start of ``text``.
    """
    runs = []
    last, merges = None, False
    fields = text.split()
    get = factors.get
    for field in fields:
        syllable = get(field)
        if syllable is None:
            try:
                syllable = factors[field] = _factor_syllable(field, factors)
            except ValueError as exc:
                # A failed factor is not recorded, so this is its first field;
                # str.split and errors.tokens split at the same characters.
                raise ParseError(str(exc), line, tokens(text)[fields.index(field)][1]) from None
        letter = syllable[0]
        if letter == last:
            merges = True
        last = letter
        runs.append(syllable)
    return reduce_syllables(runs) if merges else runs


def _factor_syllable(factor, factors):
    """The syllable (letter, exponent) of one factor g^k, the letter that of
    g's entry in ``factors``; ValueError says what is wrong."""
    base, caret, exp_text = factor.partition("^")
    if not base or caret and not exp_text.removeprefix("-").isdecimal():
        raise ValueError(f"malformed factor {factor!r}")
    # A key with no '^' is a generator token: factors that fail are not recorded.
    if base not in factors:
        raise ValueError(f"unknown generator {base!r}")
    try:
        exp = int(exp_text) if caret else 1
    except ValueError:  # more digits than int() converts
        exp = sys.maxsize + 1
    if exp == 0:
        raise ValueError("exponent must be nonzero")
    if abs(exp) > sys.maxsize:
        raise ValueError(f"exponent out of range (|k| <= {sys.maxsize})")
    return factors[base][0], exp
