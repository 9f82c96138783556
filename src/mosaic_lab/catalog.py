"""Named example lattices and exhaustive small-n enumeration up to isomorphism.

Enumeration is orderly: it generates only candidates that can be the
canonical form of their class (minimal leq bit matrix over
invariant-class-respecting relabelings) and keeps those that are their own
canonical form, so no class is generated as a duplicate that must be removed.
The candidates are naturally-labeled bounded posets, grown one middle element
at a time, in which every new element has a meet with every earlier one and
the down-set sizes never decrease.  The canonicity test is staged from cheap
to dear: unsorted base pairs (down-set size, up-set size) rule a candidate
out, then an unsorted invariant sequence, and only the rest try relabelings.
Each relabeling's key is built one row at a time and dropped at its first
row above the best key so far; the test stops at the first relabeling that
comes out below the candidate.  Counts are never copied from external
sources; tests freeze what the independent oracle and this generator produce.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass

from .bits import bits, full_mask, least, mask_of, transpose
from .equivalence import OrthoPair
from .errors import InvalidStructure, SizeTooLarge, UnknownName
from .lattice_core import (
    FiniteBoundedLattice,
    Involution,
    build_from_covers,
    complement_mask,
    from_leq,
    hexagon_pattern,
    is_modular,
    is_orthomodular,
    lattice_automorphisms,
    orthocomplementations,
    pentagon_pattern,
)

MAX_ENUM = 8


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    lattice: FiniteBoundedLattice
    ortho: Involution | None
    expected_flags: dict

    def __post_init__(self):
        for key in ("modular", "ortholattice", "orthomodular"):
            if key not in self.expected_flags:
                raise InvalidStructure(f"missing flag {key}")


def _letters(k: int) -> list[str]:
    out = []
    for i in range(k):
        out.append(chr(ord("a") + i) if k <= 8 else f"x{i + 1}")
    return out


def _chain(n: int) -> FiniteBoundedLattice:
    if n == 1:
        return build_from_covers(["0"], [])
    names = ["0"] + _letters(n - 2) + ["1"]
    return build_from_covers(names, list(zip(names, names[1:])))


def _boolean(n: int) -> FiniteBoundedLattice:
    atoms = _letters(n)
    subsets = sorted(range(1 << n), key=lambda s: (bin(s).count("1"), s))
    def lab(s):
        if s == 0:
            return "0"
        if s == (1 << n) - 1 and n > 1:
            return "1"
        return "".join(a for i, a in enumerate(atoms) if s >> i & 1)
    pos = {s: i for i, s in enumerate(subsets)}
    up = [mask_of(pos[t] for t in range(1 << n) if s & ~t == 0) for s in subsets]
    return from_leq([lab(s) for s in subsets], up)


def _mo(n: int) -> FiniteBoundedLattice:
    pairs = [(x, x + "'") for x in _letters(n)]
    names = ["0"] + [lab for p in pairs for lab in p] + ["1"]
    covers = [("0", lab) for p in pairs for lab in p] + [(lab, "1") for p in pairs for lab in p]
    return build_from_covers(names, covers)


def _pairing(l: FiniteBoundedLattice, pairs) -> Involution:
    m = list(range(l.size))
    for a, b in pairs:
        i, j = l.index(a), l.index(b)
        m[i], m[j] = j, i
    return Involution(tuple(m))


def _require_in_catalog(family: str, n: int, largest: int) -> None:
    if not 1 <= n <= largest:
        raise SizeTooLarge(f"{family}_{n}: the catalog holds {family}_1 to {family}_{largest}")


def named(name: str) -> CatalogEntry:
    # one spelling per entry: ASCII digits, no leading zero
    chain = re.fullmatch(r"chain_(0|[1-9][0-9]*)", name)
    boolean = re.fullmatch(r"boolean_(0|[1-9][0-9]*)", name)
    mo = re.fullmatch(r"[Mm][Oo]_(0|[1-9][0-9]*)", name)
    if name == "pentagon":
        return CatalogEntry(
            name, pentagon_pattern(), None,
            {"modular": False, "ortholattice": False, "orthomodular": False},
        )
    if name == "hexagon":
        l = hexagon_pattern()
        pi = _pairing(l, [("0", "1"), ("a", "a'"), ("b", "b'")])
        # the pentagon {0,b,a,a',1} sits inside H, so H is NOT modular
        return CatalogEntry(
            name, l, pi,
            {"modular": False, "ortholattice": True, "orthomodular": False},
        )
    if name == "diamond_M3":
        l = build_from_covers(
            ["0", "a", "b", "c", "1"],
            [("0", "a"), ("0", "b"), ("0", "c"), ("a", "1"), ("b", "1"), ("c", "1")],
        )
        return CatalogEntry(
            name, l, None,
            {"modular": True, "ortholattice": False, "orthomodular": False},
        )
    if chain:
        n = int(chain.group(1))
        _require_in_catalog("chain", n, 16)
        l = _chain(n)
        pi = None
        if n == 1:
            pi = Involution.identity(1)
        elif n == 2:
            pi = _pairing(l, [("0", "1")])
        return CatalogEntry(
            name, l, pi,
            {"modular": True, "ortholattice": n <= 2, "orthomodular": n <= 2},
        )
    if boolean:
        n = int(boolean.group(1))
        _require_in_catalog("boolean", n, 4)
        l = _boolean(n)
        comp = Involution(tuple(least(complement_mask(l, i)) for i in range(l.size)))
        return CatalogEntry(
            name, l, comp,
            {"modular": True, "ortholattice": True, "orthomodular": True},
        )
    if mo:
        n = int(mo.group(1))
        _require_in_catalog("MO", n, 6)
        l = _mo(n)
        pi = _pairing(l, [("0", "1")] + [(x, x + "'") for x in _letters(n)])
        return CatalogEntry(
            f"MO_{n}", l, pi,
            {"modular": True, "ortholattice": True, "orthomodular": True},
        )
    raise UnknownName(f"unknown catalog name {name!r}")


CATALOG_NAMES = ("pentagon", "hexagon", "diamond_M3", "chain_1", "chain_2", "chain_3",
                 "boolean_1", "boolean_2", "boolean_3", "MO_2", "MO_3")


# -- enumeration ---------------------------------------------------------------


def _middle_posets(m: int):
    """Naturally-labeled posets on 0..m-1 as strict down-set bitmask rows, in
    which every two elements have a meet (or no common lower bound) and the
    down-set sizes never decrease.

    The first field of the canonical key's invariant is the down-set size, so
    every canonical key has non-decreasing sizes; labels are natural, so the
    common down-set of two elements is fixed once the later one is added."""
    downs = []
    closed = []

    def rec(i: int):
        if i == m:
            yield tuple(downs)
            return
        least_size = downs[-1].bit_count() if downs else 0
        for cand in range(1 << i):
            if cand.bit_count() < least_size:
                continue
            if any(downs[j] & ~cand for j in bits(cand)):
                continue
            if not all(_has_greatest(cand & c, closed) for c in closed):
                continue
            downs.append(cand)
            closed.append(cand | 1 << i)
            yield from rec(i + 1)
            downs.pop()
            closed.pop()

    yield from rec(0)


def _has_greatest(common: int, closed: list[int]) -> bool:
    """common is empty or its highest label lies above all of it."""
    return not common or common & ~closed[common.bit_length() - 1] == 0


def _bounded_lattice_candidates(n: int):
    """(up, down) rows of the naturally-labeled n-element bounded lattices
    whose down-set sizes never decrease: among them the canonical key of
    every class.  A finite meet-semilattice with a top is a lattice."""
    if n == 1:
        yield (1,), (1,)
        return
    full, top_bit = full_mask(n), 1 << (n - 1)
    for downs in _middle_posets(n - 2):
        # middle element i is element i + 1 of the lattice
        middle_up = (top_bit | (above | 1 << i) << 1 for i, above in enumerate(transpose(downs)))
        middle_down = (1 | (below | 1 << i) << 1 for i, below in enumerate(downs))
        yield (full, *middle_up, top_bit), (1, *middle_down, full)


def _base_pairs(up, down) -> list:
    """Per element of the order with up-set rows up and down-set rows down:
    (down-set size, up-set size), the first field of its key invariant."""
    return [(d.bit_count(), u.bit_count()) for u, d in zip(up, down)]


def _key_invariants(up, down) -> list:
    """Per element of the order with up-set rows up and down-set rows down:
    its base pair, and the sorted base pairs of the elements above and below
    it.  The sort key of the canonical form."""
    base = _base_pairs(up, down)
    return [
        (
            base[i],
            tuple(sorted(base[j] for j in bits(up[i]))),
            tuple(sorted(base[j] for j in bits(down[i]))),
        )
        for i in range(len(up))
    ]


def _canonical_key(up: tuple[int, ...]) -> tuple[int, ...]:
    """Minimal leq bit matrix over invariant-class-respecting relabelings."""
    return _least_relabeling(up, _key_invariants(up, transpose(up)))


def _is_canonical(up: tuple[int, ...], down: tuple[int, ...]) -> bool:
    """up, with down rows down, is its own canonical key.  The key lists its
    elements in invariant order, so the test is staged: unsorted base pairs
    rule up out at once, then an unsorted invariant sequence, and only then
    are relabelings tried, up to the first whose key comes out below up."""
    base = _base_pairs(up, down)
    if base != sorted(base):
        return False
    inv = _key_invariants(up, down)
    return inv == sorted(inv) and _least_relabeling(up, inv, up) == up


def _least_relabeling(up: tuple[int, ...], inv: list, below: tuple[int, ...] | None = None) -> tuple[int, ...]:
    """Least up-row matrix over the relabelings that list the elements in
    sorted invariant order.

    Each relabeling's key is built one row at a time against the best key so
    far: a row above the best key's row drops the relabeling, and a row
    below it makes the relabeling the new best.  Given below, the key of one
    of these relabelings, the search returns the first key that comes out
    below it, or below itself when none does."""
    n = len(up)
    groups: dict = {}
    for i in range(n):
        groups.setdefault(inv[i], []).append(i)
    above = [list(bits(row)) for row in up]
    bit = [0] * n  # old element -> the bit of its new position
    best = below
    for parts in itertools.product(*(itertools.permutations(groups[key]) for key in sorted(groups))):
        old_at = [i for part in parts for i in part]  # new position -> old element
        for p, old in enumerate(old_at):
            bit[old] = 1 << p
        rows = (sum(map(bit.__getitem__, above[old])) for old in old_at)
        if best is None:
            best = tuple(rows)
            continue
        for p, row in enumerate(rows):
            if row != best[p]:
                if row < best[p]:
                    best = (*best[:p], row, *rows)
                    if below is not None:
                        return best
                break
    return best


def enumerate_lattices(n: int) -> list[FiniteBoundedLattice]:
    """Every isomorphism class of n-element bounded lattices, exactly once,
    in canonical-key order: the candidates that are their own key."""
    if not 1 <= n <= MAX_ENUM:
        raise SizeTooLarge(f"enumeration supports 1..{MAX_ENUM}, got {n}")
    keys = sorted(up for up, down in _bounded_lattice_candidates(n) if _is_canonical(up, down))
    names = [f"x{i}" for i in range(n)]
    return [from_leq(names, key) for key in keys]


def enumerate_ortholattices(n: int) -> list[OrthoPair]:
    """Each enumerated lattice paired with each orthocomplementation, up to
    isomorphisms commuting with pi."""
    return [pair for l in enumerate_lattices(n) for pair in _ortho_classes(l)]


def _ortho_classes(l: FiniteBoundedLattice) -> list[OrthoPair]:
    """l with each of its orthocomplementations, one per class of
    automorphisms commuting with pi, in order of the least map.  The maps run
    in sorted order; a map not yet seen is the least of its orbit, and its
    whole orbit, the conjugates by every automorphism, is then seen."""
    pis = orthocomplementations(l)
    if not pis:
        return []
    auts = lattice_automorphisms(l)
    # each automorphism with its inverse, the sort of range(n) by image
    conjugators = [(sigma, sorted(range(l.size), key=sigma.__getitem__)) for sigma in auts]
    seen = set()
    out = []
    for pi in sorted(pis, key=lambda p: p.map):
        if pi.map not in seen:
            seen.update(
                tuple(sigma[pi(inverse[p])] for p in range(l.size))
                for sigma, inverse in conjugators
            )
            out.append(OrthoPair(l, pi))
    return out


def census(n: int) -> list[dict]:
    """Classifier summary rows for the n-element enumeration."""
    rows = []
    for i, l in enumerate(enumerate_lattices(n)):
        pairs = _ortho_classes(l)
        rows.append(
            {
                "id": f"n{n}_{i}",
                "size": n,
                "modular": is_modular(l).holds,
                "ortholattice": bool(pairs),
                "ortho_count": len(pairs),
                "orthomodular": [is_orthomodular(p.lattice, p.pi).holds for p in pairs],
                "covers": [[l.names[a], l.names[b]] for a, b in l.covers()],
            }
        )
    return rows
