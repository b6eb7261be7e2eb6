"""The vector kernels behind the window rows, in the one module of
:mod:`cptk` that imports numpy.  :func:`state_rows` is the stacked pass of
:func:`langs.window_rows`: automata run over the window lex(0..count-1) a
stack at a time, each stack in one :func:`window_final_states` pass and
one :func:`packed_state_rows` packing.  :func:`table_rows` is the regular
family's: a stack of transition tables per :func:`window_final_states`
pass, and the rows of every accepting set of a table built from the bit
planes of its states."""

from __future__ import annotations

import itertools

import numpy as np

# bound on automata x words, and on wanted states x words, per stack, which
# keeps the int32 state array, its gathers and the packed one-hot small
STACK_WORDS = 1 << 16


def state_rows(trans, sizes, initials, wanted, count: int) -> list[int]:
    """The rows over lex(0..count-1) of the wanted states of a run of
    automata, flat and in order: bit j of a state's row is set when lex(j)
    ends in that state.

    ``trans`` holds the automata's transition rows one after another (an
    array of shape states × symbols, or a sequence of equally long rows),
    each automaton numbering its states from 0; ``sizes``, ``initials``
    and ``wanted`` give each automaton's state count, its initial state
    and the states whose rows are asked for.  A stack takes automata while
    both automata × words and wanted states × words stay within
    ``STACK_WORDS``, one automaton at least.
    """
    if not isinstance(trans, np.ndarray):
        # one flat pass: np.asarray on a list of row tuples is several times slower
        width = len(trans[0]) if trans else 0
        trans = np.fromiter(itertools.chain.from_iterable(trans), np.int32,
                            len(trans) * width).reshape(len(trans), width)
    trans = np.asarray(trans, dtype=np.int32)
    starts = [0, *itertools.accumulate(sizes)]
    words, out, lo = max(count, 1), [], 0
    while lo < len(sizes):
        hi, n_wanted = lo + 1, len(wanted[lo])
        while (hi < len(sizes) and (hi + 1 - lo) * words <= STACK_WORDS
               and (n_wanted + len(wanted[hi])) * words <= STACK_WORDS):
            n_wanted += len(wanted[hi])
            hi += 1
        # state ids within the stack: each automaton's own ids plus its offset
        offsets = [s - starts[lo] for s in starts[lo:hi]]
        shift = np.repeat(np.array(offsets, dtype=np.int32), sizes[lo:hi])
        finals = window_final_states(trans[starts[lo]:starts[hi]] + shift[:, None],
                                     np.add(offsets, initials[lo:hi]), count)
        out += packed_state_rows(finals, len(shift), [
            off + s for off, states in zip(offsets, wanted[lo:hi]) for s in states])
        lo = hi
    return out


def table_digits(first: int, last: int, n: int, n_symbols: int) -> np.ndarray:
    """The transition rows of the n-state tables of ranks first..last over
    ``n_symbols`` symbols, one table after another: the base-n digits of
    each rank, the first position most significant."""
    ranks = np.arange(first, last + 1, dtype=np.int64)
    digits = np.empty((len(ranks), n * n_symbols), dtype=np.int32)
    for p in reversed(range(n * n_symbols)):
        ranks, digits[:, p] = np.divmod(ranks, n)
    return digits.reshape(-1, n_symbols)


def table_rows(first: int, last: int, n: int, n_symbols: int, count: int) -> list[int]:
    """The rows over lex(0..count-1) of every (table, accepting set) of the
    n-state tables of ranks first..last over ``n_symbols`` symbols, table
    rank major and acc rank 0..2^n-1 minor: acc rank a accepts in state s
    when bit n-1-s of a is set.

    A stack takes ``STACK_WORDS // (n · count)`` tables, one at least.  Its
    final states, less each table's offset, give one bit plane per (table,
    state) in one ``np.packbits`` call; the planes of the accepting sets
    are built by doubling, the states in reverse order, each new plane
    the OR of an old one and a state's, and each row is one
    ``int.from_bytes`` of its plane.
    """
    words, width = max(count, 1), -(-count // 8)
    step = max(1, STACK_WORDS // (n * words))
    out = []
    for lo in range(first, last + 1, step):
        tables = min(step, last + 1 - lo)
        offsets = np.arange(0, tables * n, n, dtype=np.int32)
        shift = np.repeat(offsets, n)[:, None]
        trans = table_digits(lo, lo + tables - 1, n, n_symbols) + shift
        finals = window_final_states(trans, offsets, count)
        finals -= offsets[:, None]
        planes = np.packbits(finals[:, None, :] == np.arange(n)[:, None], axis=2,
                             bitorder="little")
        sets = np.zeros((tables, 1, width), dtype=np.uint8)
        for s in reversed(range(n)):
            sets = np.concatenate((sets, sets | planes[:, s:s + 1]), axis=1)
        data = sets.tobytes()
        out += [int.from_bytes(data[p * width:(p + 1) * width], "little")
                for p in range(tables << n)]
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
