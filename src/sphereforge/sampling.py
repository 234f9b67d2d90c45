"""Deterministic cross-platform choice-vector sampling.

Bits come from a SplitMix64-style finalizer applied to the (seed, vector
index, cell index) counters, so the same seed yields the same vectors on
every platform and run.
"""

from __future__ import annotations

import re

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_CELL_SALT = 0xC2B2AE3D27D4EB4F
_HEX = re.compile(r"(0[xX])?[0-9a-fA-F]+")


def _mix(z: int) -> int:
    z &= _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def choice_bit(seed: int, vector_index: int, cell_index: int) -> int:
    base = _mix((seed & _MASK) ^ (_GAMMA * (vector_index + 1) & _MASK))
    return _mix(base ^ (_CELL_SALT * (cell_index + 1) & _MASK)) & 1


def choice_vector(seed: int, vector_index: int, length: int) -> tuple[int, ...]:
    return tuple(choice_bit(seed, vector_index, j) for j in range(length))


def parse_hex_choices(text: str, length: int) -> tuple[int, ...]:
    """Bit j of the hex integer (value >> j & 1) selects cell j.  Only
    ASCII hex digits, after an optional ``0x``, are read: a sign, an
    underscore, a space or a non-ASCII digit, which ``int`` would read,
    is refused."""
    if not _HEX.fullmatch(text):
        raise ValueError(f"bad choice vector {text!r}: expected hex digits, optionally after 0x")
    value = int(text, 16)
    if value >= 1 << length:
        raise ValueError(f"choice value {text} out of range for {length} cells")
    return tuple((value >> j) & 1 for j in range(length))


def format_hex_choices(bits) -> str:
    value = 0
    for j, b in enumerate(bits):
        if b:
            value |= 1 << j
    return hex(value)
