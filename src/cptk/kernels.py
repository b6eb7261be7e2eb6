"""Vector kernels behind the batch evaluator.

* :func:`dfa_final_states` runs one automaton over a packed batch of
  arbitrary words, one symbol position at a time.
* :func:`window_final_states` runs a stack of automata over the window
  lex(0..count-1) in one pass over the ranks.
* :func:`row_bits` packs a boolean membership vector into an ``int``
  bitset, the row format of the solvability search.
"""

from __future__ import annotations

import numpy as np


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


def window_final_states(trans: np.ndarray, initials: np.ndarray,
                        count: int) -> np.ndarray:
    """Final state of every word lex(0..count-1), for a stack of automata.

    ``trans`` is the (states, symbols) table of all automata with their
    states numbered consecutively, ``initials`` the initial state of each.
    In length-lex order the children of rank r are the ranks b·r+1 .. b·r+b,
    so each level of the window is one gather from the level before it:
    ``S[:, b·r+1+x] = trans[S[:, r], x]``.  Returns an int32 array of shape
    (automata, count).
    """
    b = trans.shape[1]
    out = np.empty((len(initials), count), dtype=np.int32)
    if count == 0:
        return out
    out[:, 0] = initials
    lo, hi = 0, 1  # the ranks whose children come next
    while b * lo + 1 < count:
        first = b * lo + 1
        width = min(b * hi + 1, count) - first
        parents = out[:, lo:lo + -(-width // b)]
        out[:, first:first + width] = \
            trans[parents].reshape(len(initials), -1)[:, :width]
        lo, hi = first, first + width
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
