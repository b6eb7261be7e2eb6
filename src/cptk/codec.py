"""Cantor pairing and tuple codes used to index derived enumerations.

All codes are exact bijections on Python integers (no overflow), so index
decoding stays total no matter how large an index gets.
"""

from __future__ import annotations

from math import isqrt


def pair(x: int, y: int) -> int:
    """Cantor pairing: diagonal number plus the second component."""
    s = x + y
    return s * (s + 1) // 2 + y


def unpair(z: int) -> tuple[int, int]:
    s = (isqrt(8 * z + 1) - 1) // 2
    y = z - s * (s + 1) // 2
    return s - y, y


def tuple_code(values) -> int:
    """Fixed-arity code: right-nested pairs; arity 1 is the identity."""
    values = list(values)
    if not values:
        raise ValueError("tuple_code needs at least one value")
    code = values[-1]
    for v in reversed(values[:-1]):
        code = pair(v, code)
    return code


def tuple_decode(code: int, arity: int) -> tuple[int, ...]:
    """The inverse of :func:`tuple_code` at the given arity.  Unpairing
    stops once the code reaches 0, since ``unpair(0) == (0, 0)``: every
    value left is 0."""
    if arity < 1:
        raise ValueError("arity must be positive")
    out = []
    while code and len(out) < arity - 1:
        x, code = unpair(code)
        out.append(x)
    out.append(code)
    out += [0] * (arity - len(out))
    return tuple(out)


def seq_code(values) -> int:
    """Length-prefixed code for nonempty sequences of naturals."""
    values = list(values)
    if not values:
        raise ValueError("seq_code needs a nonempty sequence")
    return pair(len(values) - 1, tuple_code(values))


def seq_decode(code: int) -> tuple[int, ...]:
    n_minus_1, payload = unpair(code)
    return tuple_decode(payload, n_minus_1 + 1)
