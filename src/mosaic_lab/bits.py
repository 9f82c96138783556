"""Bitmask helpers: subsets of a carrier {0..n-1} are ints with bit i = element i."""

from __future__ import annotations

from operator import getitem
from typing import Iterable


def _byte_table(k: int) -> tuple[tuple[int, ...], ...]:
    """Entry b: the indices 8k + i of the set bits i of the byte value b."""
    table = [()]
    for i in range(8 * k, 8 * k + 8):
        table += [low + (i,) for low in table]
    return tuple(table)


# the tables of bytes 0 and 1, built at import; bits() makes higher ones on
# first use and rebinds _TABLES, so a caller's tables are never cut short
_LOW, _SECOND = _TABLES = _byte_table(0), _byte_table(1)


def mask_of(elements: Iterable[int]) -> int:
    m = 0
    for x in elements:
        m |= 1 << x
    return m


def transpose(rows) -> list[int]:
    """The converse relation of bitmask rows on 0..len(rows)-1: bit i of
    out[j] is set iff bit j of rows[i] is set."""
    out = [0] * len(rows)
    for i, row in enumerate(rows):
        bit = 1 << i
        for j in bits(row):
            out[j] |= bit
    return out


def image(mask: int, images) -> int:
    """The bitmask of images[i] over the members i of a non-negative mask,
    read through bits."""
    out = 0
    for i in bits(mask):
        out |= 1 << images[i]
    return out


def bits(mask: int) -> tuple[int, ...]:
    """Indices of the set bits of a non-negative mask, ascending, as a tuple
    read from per-byte tables: one look-up below 2^8, two below 2^16."""
    if mask < 256:
        return _LOW[mask]
    if mask < 65536:
        return _LOW[mask & 255] + _SECOND[mask >> 8]
    global _TABLES
    data, tables = mask.to_bytes((mask.bit_length() + 7) >> 3, "little"), _TABLES
    if len(tables) < len(data):
        tables = _TABLES = tuple(map(_byte_table, range(len(data))))
    return sum(map(getitem, tables, data), ())


def least(mask: int) -> int:
    """Index of the lowest set bit of a nonzero mask."""
    return (mask & -mask).bit_length() - 1


def elements(mask: int) -> frozenset[int]:
    return frozenset(bits(mask))


def full_mask(size: int) -> int:
    return (1 << size) - 1
