"""The vector kernels behind the window rows: :func:`window_final_states`
runs a stack of automata over the window lex(0..count-1) in one pass over
the ranks, and :func:`packed_state_rows` turns the final states into one
int row per state."""

from __future__ import annotations

import numpy as np

# bound on automata x words per stacked pass, which keeps the int32 state
# array and the gathers that fill it small
STACK_WORDS = 1 << 16


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


def packed_state_rows(finals: np.ndarray, n_states: int, used) -> list[int]:
    """The window row of each state in ``used``: bit j is set when lex(j)
    ends in that state.

    ``finals`` is the output of :func:`window_final_states` for a stack of
    ``n_states`` states in all.  One ``np.packbits`` call over a one-hot of
    the final states against ``used``: byte row p holds the ranks that end
    in state used[p], and the other states share a spare last row.
    """
    count = finals.shape[1]
    slot = np.full(n_states, len(used), dtype=np.int32)
    slot[used] = np.arange(len(used))
    hot = np.zeros((len(used) + 1, count), dtype=bool)
    hot[slot[finals], np.arange(count)] = True
    width = -(-count // 8)
    data = np.packbits(hot, axis=1, bitorder="little").tobytes()
    return [int.from_bytes(data[p * width:(p + 1) * width], "little")
            for p in range(len(used))]
