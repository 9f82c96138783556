"""Bitmask helpers: subsets of a carrier {0..n-1} are ints with bit i = element i."""

from __future__ import annotations

from typing import Iterable, Iterator


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
        while row:
            low = row & -row
            out[low.bit_length() - 1] |= bit
            row ^= low
    return out


def image(mask: int, images) -> int:
    """The bitmask of images[i] over the members i of mask."""
    out = 0
    while mask:
        low = mask & -mask
        out |= 1 << images[low.bit_length() - 1]
        mask ^= low
    return out


def bits(mask: int) -> Iterator[int]:
    """Indices of the set bits, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def least(mask: int) -> int:
    """Index of the lowest set bit of a nonzero mask."""
    return (mask & -mask).bit_length() - 1


def elements(mask: int) -> frozenset[int]:
    return frozenset(bits(mask))


def full_mask(size: int) -> int:
    return (1 << size) - 1


def subsets(mask: int) -> Iterator[int]:
    """All subsets of mask, including 0 and mask itself."""
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask
