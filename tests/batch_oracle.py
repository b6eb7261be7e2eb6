"""The per-word batch evaluator that :func:`cptk.langs.window_rows`
replaced, kept as a differential oracle for the tests.

``member_batch`` evaluates an expression over a :class:`PackedWords`
batch as a numpy bool vector; ``row_bits`` turns such a vector into a
window row.  The code is a copy of the replaced modules.  Only the names
it used to reach through its own modules are spelled out: the mismatch
error of :mod:`cptk.langs`, the predicate batch functions
(resolved through :func:`predicate_batch`) and ``Dfa.accepts_batch``
(now :func:`accepts_batch`, which converts the transition table itself).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from cptk import langs
from cptk.langs import (Complement, DfaAtom, FiniteSet, Inter, LeftMark,
                        LeftQuotient, Predicate, Union)
from cptk.words import Alphabet


# ---------------------------------------------------------------------------
# packed words (was cptk.words)


@dataclass(frozen=True, eq=False)
class PackedWords:
    """A batch of words packed for vector evaluation.

    ``flat`` holds symbol codes of all words back to back; word ``i``
    occupies ``flat[starts[i]:starts[i] + lengths[i]]``.  Views built by
    the evaluator (suffixes, prefixed copies) share ``flat`` buffers.
    Identity-hashed: evaluation caches key on the batch object itself.
    """

    alphabet: Alphabet
    flat: np.ndarray     # int16 symbol codes
    starts: np.ndarray   # int64, one per word
    lengths: np.ndarray  # int64, one per word

    def __post_init__(self):
        if len(self.starts) != len(self.lengths):
            raise ValueError("starts and lengths must have equal length")

    def __len__(self) -> int:
        return len(self.starts)

    def word(self, i: int) -> str:
        s, n = int(self.starts[i]), int(self.lengths[i])
        return self.alphabet.word(self.flat[s:s + n])

    def suffixes(self, mask: np.ndarray) -> "PackedWords":
        """Drop the first symbol of the selected words (all must be nonempty)."""
        return PackedWords(self.alphabet, self.flat,
                           self.starts[mask] + 1, self.lengths[mask] - 1)

    def prefixed(self, codes: tuple[int, ...]) -> "PackedWords":
        """A new batch whose i-th word is ``codes`` prepended to word i."""
        k = len(codes)
        n = len(self)
        if k == 0:
            return self
        new_lengths = self.lengths + k
        new_starts = np.zeros(n, dtype=np.int64)
        np.cumsum(new_lengths[:-1], out=new_starts[1:])
        total = int(new_starts[-1] + new_lengths[-1]) if n else 0
        flat = np.empty(total, dtype=np.int16)
        word_id = np.repeat(np.arange(n, dtype=np.int64), new_lengths)
        pos = np.arange(total, dtype=np.int64) - new_starts[word_id]
        head = pos < k
        prefix = np.asarray(codes, dtype=np.int16)
        flat[head] = prefix[pos[head]]
        tail = ~head
        flat[tail] = self.flat[self.starts[word_id[tail]] + pos[tail] - k]
        return PackedWords(self.alphabet, flat, new_starts, new_lengths)


def window(alphabet: Alphabet, count: int) -> PackedWords:
    """Pack the first ``count`` words lex(0..count-1), built blockwise."""
    b = alphabet.size
    seg_flats, seg_lengths = [], []
    remaining, length = count, 0
    block = 1
    while remaining > 0:
        take = min(block, remaining)
        if length > 0:
            vals = np.arange(take, dtype=np.int64)
            powers = b ** np.arange(length - 1, -1, -1, dtype=np.int64)
            digits = (vals[:, None] // powers[None, :]) % b
            seg_flats.append(digits.astype(np.int16).ravel())
        seg_lengths.append(np.full(take, length, dtype=np.int64))
        remaining -= take
        length += 1
        block *= b
    lengths = np.concatenate(seg_lengths) if seg_lengths else np.empty(0, dtype=np.int64)
    flat = np.concatenate(seg_flats) if seg_flats else np.empty(0, dtype=np.int16)
    starts = np.zeros(len(lengths), dtype=np.int64)
    if len(lengths):
        np.cumsum(lengths[:-1], out=starts[1:])
    return PackedWords(alphabet, flat, starts, lengths)


def window_for_horizon(alphabet: Alphabet, horizon: int) -> PackedWords:
    """Pack lex(0..horizon) inclusive."""
    return window(alphabet, horizon + 1)


# ---------------------------------------------------------------------------
# kernels (was cptk.kernels)


def dfa_final_states(trans: np.ndarray, initial: int, flat: np.ndarray,
                     starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Final DFA state per packed word."""
    n = len(starts)
    out = np.full(n, initial, dtype=np.int64)
    if n == 0:
        return out
    active = lengths > 0
    for p in range(int(lengths.max())):
        idx = np.nonzero(active)[0]
        if idx.size == 0:
            break
        syms = flat[starts[idx] + p].astype(np.int64)
        out[idx] = trans[out[idx], syms]
        active[idx] = lengths[idx] > p + 1
    return out


def row_bits(vec: np.ndarray) -> int:
    """The bool vector as an int whose bit j is ``vec[j]``."""
    return int.from_bytes(np.packbits(vec, bitorder="little").tobytes(), "little")


def symbol_counts(flat: np.ndarray, starts: np.ndarray, lengths: np.ndarray,
                  code: int) -> np.ndarray:
    """Occurrences of one symbol code per packed word (safe on empty words)."""
    marks = (flat == code).astype(np.int64)
    csum = np.concatenate(([0], np.cumsum(marks)))
    return csum[starts + lengths] - csum[starts]


def accepts_batch(dfa, packed: PackedWords) -> np.ndarray:
    """``Dfa.accepts_batch``."""
    finals = dfa_final_states(np.array(dfa.transitions, dtype=np.int64), dfa.initial,
                              packed.flat, packed.starts, packed.lengths)
    acc = np.zeros(dfa.n_states, dtype=bool)
    for s in dfa.accepting:
        acc[s] = True
    return acc[finals]


# ---------------------------------------------------------------------------
# predicate batches (was the ``batch`` of each predicate registry entry)


def _square_batch(packed):
    roots = np.asarray(np.sqrt(packed.lengths).round(), dtype=np.int64)
    return roots * roots == packed.lengths


def _prime_batch(packed):
    top = int(packed.lengths.max()) if len(packed) else 2
    return np.frombuffer(langs._prime_mask(top), dtype=np.uint8)[packed.lengths] == 1


def _equal_counts_batch(x, y):
    def batch(packed):
        cx = symbol_counts(packed.flat, packed.starts, packed.lengths,
                           packed.alphabet.code(x))
        cy = symbol_counts(packed.flat, packed.starts, packed.lengths,
                           packed.alphabet.code(y))
        return cx == cy

    return batch


def predicate_batch(name: str):
    """The batch function of a registered predicate."""
    langs.resolve_predicate(name)  # UnknownPredicate, as before
    if name == "square-length":
        return _square_batch
    if name == "prime-length":
        return _prime_batch
    return _equal_counts_batch(name[-2], name[-1])


# ---------------------------------------------------------------------------
# the evaluator (was cptk.langs)


def member_batch(expr: LangExpr, packed: PackedWords) -> np.ndarray:
    """Membership of every packed word, as a bool vector."""
    memo: dict = {}
    return _eval(expr, packed, memo)


def _eval(expr, packed, memo):
    key = (expr, id(packed))
    hit = memo.get(key)
    if hit is not None:
        return hit[1]
    alphabet = packed.alphabet
    if isinstance(expr, FiniteSet):
        out = np.zeros(len(packed), dtype=bool)
        if expr.words:
            by_len: dict[int, np.ndarray] = {}
            for w in expr.words:
                idx = by_len.get(len(w))
                if idx is None:
                    idx = np.nonzero(packed.lengths == len(w))[0]
                    by_len[len(w)] = idx
                if idx.size == 0:
                    continue
                if len(w) == 0:
                    out[idx] = True
                    continue
                codes = np.array(alphabet.codes(w), dtype=np.int16)
                cols = packed.starts[idx][:, None] + np.arange(len(w), dtype=np.int64)[None, :]
                out[idx] |= (packed.flat[cols] == codes[None, :]).all(axis=1)
    elif isinstance(expr, DfaAtom):
        if expr.dfa.n_symbols != alphabet.size:
            raise langs._alphabet_mismatch(expr, alphabet)
        out = accepts_batch(expr.dfa, packed)
    elif isinstance(expr, Predicate):
        out = np.asarray(predicate_batch(expr.name)(packed), dtype=bool)
    elif isinstance(expr, Union):
        out = np.zeros(len(packed), dtype=bool)
        for a in expr.args:
            out |= _eval(a, packed, memo)
    elif isinstance(expr, Inter):
        out = np.ones(len(packed), dtype=bool)
        for a in expr.args:
            out &= _eval(a, packed, memo)
    elif isinstance(expr, Complement):
        out = ~_eval(expr.arg, packed, memo)
    elif isinstance(expr, LeftMark):
        out = np.zeros(len(packed), dtype=bool)
        code = alphabet.code(expr.symbol)
        nonempty = packed.lengths > 0
        first = np.full(len(packed), -1, dtype=np.int64)
        first[nonempty] = packed.flat[packed.starts[nonempty]]
        sel = first == code
        if sel.any():
            out[sel] = _eval(expr.arg, packed.suffixes(sel), memo)
    elif isinstance(expr, LeftQuotient):
        shifted = packed.prefixed(alphabet.codes(expr.word))
        out = _eval(expr.arg, shifted, memo)
    else:
        raise TypeError(f"not a language expression: {expr!r}")
    memo[key] = (packed, out)
    return out


def batch_row(expr, alphabet: Alphabet, count: int) -> int:
    """The window row of ``expr`` over lex(0..count-1), the way the
    callers of ``member_batch`` built it."""
    return row_bits(member_batch(expr, window(alphabet, count)))
