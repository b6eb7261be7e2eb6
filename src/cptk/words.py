"""Length-lexicographic word order: comparison, successor, ranking and unranking.

Words are plain Python strings over a declared :class:`Alphabet`.  The empty
string is the first word.  Ranks are 0-based: ``lex(0) == ""``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

LT, EQ, GT = -1, 0, 1


class AlphabetMismatch(ValueError):
    """A word contains symbols outside the declared alphabet."""


@dataclass(frozen=True)
class Alphabet:
    """An ordered finite alphabet.

    Symbol order is declaration order unless an explicit permutation is
    given, and it is the order used everywhere: comparisons, ranking and
    the canonical enumeration of automata.
    """

    symbols: tuple[str, ...]
    _index: dict[str, int] = field(init=False, repr=False, compare=False, hash=False)

    def __post_init__(self):
        if not self.symbols:
            raise ValueError("alphabet must be nonempty")
        if len(set(self.symbols)) != len(self.symbols):
            raise ValueError("alphabet symbols must be distinct")
        if any(len(s) != 1 for s in self.symbols):
            raise ValueError("alphabet symbols must be single characters")
        object.__setattr__(self, "_index", {s: i for i, s in enumerate(self.symbols)})

    @classmethod
    def parse(cls, spec: str, order: str | None = None) -> "Alphabet":
        """Build from a symbol string, optionally reordered by ``order``."""
        for field, value in (("alphabet", spec), ("order", order)):
            if value is not None and type(value) is not str:
                raise ValueError(f"'{field}' must be a string, not {value!r}")
        syms = tuple(spec)
        if order is not None:
            if sorted(order) != sorted(spec):
                raise ValueError("order must be a permutation of the alphabet")
            syms = tuple(order)
        return cls(syms)

    @property
    def size(self) -> int:
        return len(self.symbols)

    def code(self, symbol: str) -> int:
        try:
            return self._index[symbol]
        except KeyError:
            raise AlphabetMismatch(f"symbol {symbol!r} not in alphabet {''.join(self.symbols)!r}") from None

    def codes(self, word: str) -> tuple[int, ...]:
        return tuple(self.code(s) for s in word)

    def word(self, codes) -> str:
        return "".join(self.symbols[c] for c in codes)

    def check(self, word: str) -> str:
        for s in word:
            if s not in self._index:
                raise AlphabetMismatch(f"symbol {s!r} not in alphabet {''.join(self.symbols)!r}")
        return word

    def __str__(self) -> str:
        return "".join(self.symbols)


def compare(alphabet: Alphabet, w: str, v: str) -> int:
    """Length-lexicographic comparison; returns LT, EQ or GT."""
    alphabet.check(w)
    alphabet.check(v)
    if len(w) != len(v):
        return LT if len(w) < len(v) else GT
    for x, y in zip(w, v):
        cx, cy = alphabet.code(x), alphabet.code(y)
        if cx != cy:
            return LT if cx < cy else GT
    return EQ


def succ(alphabet: Alphabet, w: str) -> str:
    """The next word in length-lexicographic order (odometer with carry)."""
    alphabet.check(w)
    b = alphabet.size
    codes = list(alphabet.codes(w))
    for i in range(len(codes) - 1, -1, -1):
        if codes[i] + 1 < b:
            codes[i] += 1
            return alphabet.word(codes)
        codes[i] = 0
    # all positions carried: next word is one longer, all first-symbol
    return alphabet.symbols[0] * (len(w) + 1)


def lex(alphabet: Alphabet, i: int) -> str:
    """The i-th word (0-based) in length-lexicographic order."""
    if i < 0:
        raise ValueError("rank must be nonnegative")
    b = alphabet.size
    if b == 1:
        return alphabet.symbols[0] * i
    # peel off full length blocks of size b**length
    length, block = 0, 1
    while i >= block:
        i -= block
        length += 1
        block *= b
    codes = []
    for _ in range(length):
        block //= b
        codes.append(i // block)
        i %= block
    return alphabet.word(codes)


def ord_(alphabet: Alphabet, w: str) -> int:
    """Rank of a word: inverse of :func:`lex` (closed form, O(len))."""
    alphabet.check(w)
    b = alphabet.size
    if b == 1:
        return len(w)
    # number of shorter words, plus the base-b positional value
    before = (b ** len(w) - 1) // (b - 1)
    value = 0
    for s in w:
        value = value * b + alphabet.code(s)
    return before + value


def words_up_to(alphabet: Alphabet, count: int):
    """Yield the first ``count`` words in order, one length block at a time.

    Each block of words of one length is the Cartesian power of the
    symbols in alphabet order, the last position varying fastest: the
    order in which :func:`succ` steps through it.
    """
    length = 0
    while count > 0:
        yield from map("".join, itertools.islice(
            itertools.product(alphabet.symbols, repeat=length), count))
        count -= alphabet.size ** length
        length += 1
