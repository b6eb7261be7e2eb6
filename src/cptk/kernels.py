"""The vector kernel behind the window rows: :func:`window_final_states`
runs a stack of automata over the window lex(0..count-1) in one pass over
the ranks."""

from __future__ import annotations

import numpy as np


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
