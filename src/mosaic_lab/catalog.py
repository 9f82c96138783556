"""Named example lattices and exhaustive small-n enumeration up to isomorphism.

Enumeration is orderly: it generates only candidates that can be the
canonical form of their class (minimal leq bit matrix over
invariant-class-respecting relabelings) and keeps those that are their own
canonical form, so no class is generated as a duplicate that must be removed.
The candidates are naturally-labeled bounded posets, grown one middle element
at a time from the order ideals of the poset so far, in which every new
element has a meet with every earlier one and the base pairs (down-set size,
up-set size) are sorted; a branch whose base pairs can no longer end sorted
is cut before its leaves.  The canonicity test is staged from cheap to dear:
unsorted base pairs rule a candidate out, then an unsorted invariant
sequence, built only where base pairs tie.  Relabelings keep twins
(elements whose swap is an automorphism) in their order, so a candidate
whose invariant classes are single elements or single classes of twins has
the identity as its one relabeling and is canonical at once; only the rest
build relabelings.  Each relabeling's rows are built one at a time and
compared with the candidate's; the test stops at the first relabeling that
comes out below the candidate.  No other routine computes a canonical form:
the test only decides whether a candidate is one.  Orthocomplementations
are classed by conjugating with the generators of the automorphism group,
which is never listed.  Counts are never copied from external sources;
tests freeze what the independent oracle and this generator produce.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass

from .bits import bits, full_mask, least, mask_of, transpose
from .errors import InvalidStructure, SizeTooLarge, UnknownName, _echo
from .lattice_core import (
    FiniteBoundedLattice,
    Involution,
    OrthoPair,
    _automorphism_generators,
    _base_pairs,
    _orbit,
    _order_fields,
    _orthomodular_law,
    _unchecked,
    build_from_covers,
    complement_mask,
    from_leq,
    hexagon_pattern,
    is_modular,
    orthocomplementations,
    pentagon_pattern,
)

MAX_ENUM = 9


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
    base pairs (down-set size, up-set size) are sorted.

    The first field of the canonical key's invariant is the base pair, so
    every canonical key lists its elements with sorted base pairs; labels
    are natural, so the common down-set of two elements is fixed once the
    later one is added.  The down-set of each new element is one of the
    order ideals of the poset so far that meet every principal ideal in the
    empty set or a principal ideal; they are carried down in ascending
    order.  Adding element i with down-set D keeps each such ideal I whose
    meet I & D with the new principal ideal passes, and adds I | 1 << i for
    each I containing D, which meets the new principal ideal in D | 1 << i.
    An ideal that fails once fails for good, so none is carried.  Down-set
    sizes are fixed when an element is added and never decrease.  Up-set
    sizes only grow, and each of the m - 1 - i elements after i adds at most
    one to a count, so a branch is cut once two adjacent elements j, j + 1
    with equal down-set sizes have above[j] > above[j + 1] + m - 1 - i: no
    leaf below it has sorted base pairs.  At the last element that cut is
    the base-pair test itself, so every leaf reached is yielded."""
    downs = []
    closed = []
    above = [0] * m  # above[j]: how many of the elements so far lie above j
    ties = []  # the j < i whose down-set is as large as that of j + 1

    def rec(i: int, ideals: list[int]):
        if i == m:
            yield tuple(downs)
            return
        least_size = downs[-1].bit_count() if downs else 0
        slack = m - 1 - i
        for cand in ideals:
            size = cand.bit_count()
            if size < least_size:
                continue
            tied = i > 0 and size == least_size
            if tied:
                ties.append(i - 1)
            downs.append(cand)
            closed.append(cand | 1 << i)
            for j in bits(cand):
                above[j] += 1
            if all(above[j] <= above[j + 1] + slack for j in ties):
                nxt = [] if slack == 0 else [
                    ideal for ideal in ideals if _has_greatest(ideal & cand, closed)
                ] + [ideal | 1 << i for ideal in ideals if cand & ~ideal == 0]
                yield from rec(i + 1, nxt)
            for j in bits(cand):
                above[j] -= 1
            downs.pop()
            closed.pop()
            if tied:
                ties.pop()

    yield from rec(0, [0])


def _has_greatest(common: int, closed: list[int]) -> bool:
    """common is empty or its highest label lies above all of it."""
    return not common or common & ~closed[common.bit_length() - 1] == 0


def _bounded_lattice_candidates(n: int):
    """(up, down) rows of the naturally-labeled n-element bounded lattices
    whose base pairs are sorted: among them the canonical key of every
    class.  A finite meet-semilattice with a top is a lattice."""
    if n == 1:
        yield (1,), (1,)
        return
    full, top_bit = full_mask(n), 1 << (n - 1)
    for downs in _middle_posets(n - 2):
        # middle element i is element i + 1 of the lattice
        middle_up = (top_bit | (above | 1 << i) << 1 for i, above in enumerate(transpose(downs)))
        middle_down = (1 | (below | 1 << i) << 1 for i, below in enumerate(downs))
        yield (full, *middle_up, top_bit), (1, *middle_down, full)


def _is_canonical(up: tuple[int, ...], down: tuple[int, ...]) -> bool:
    """up, with down rows down, is its own canonical key: no relabeling that
    lists the elements in sorted invariant order has a lesser up-row matrix.

    An element's invariant is its base pair and the sorted base pairs of
    the elements above and below it.  The test is staged: unsorted base
    pairs rule up out at once (the generator yields none, but the test takes
    any rows), then an unsorted invariant sequence, and only then are
    relabelings tried, with twins in their relative order.  Once the base
    pairs are sorted, equal ones are adjacent, and only an element whose
    base pair equals a neighbour's has its sorted rows built; a lone
    element's base pair decides every comparison it is in.  When every
    invariant class of two or more elements is one class of twins, twins
    keeping their order leaves the identity as the only relabeling, and up
    is canonical without building a row.  Each relabeling's rows are built
    one at a time against up's: the first row that differs decides, and a
    row below up's ends the test."""
    base = _base_pairs(up, down)
    if base != sorted(base):
        return False
    tied = {i for i in range(1, len(base)) if base[i - 1] == base[i]}
    tied |= {i - 1 for i in tied}
    inv = [
        (b, tuple(sorted(base[j] for j in bits(up[i]))), tuple(sorted(base[j] for j in bits(down[i]))))
        if i in tied else (b,)
        for i, b in enumerate(base)
    ]
    if inv != sorted(inv):
        return False
    groups: dict = {}
    for i, key in enumerate(inv):
        groups.setdefault(key, []).append(i)
    if all(len(group) == 1 or len(_twin_classes(group, up, down)) == 1 for group in groups.values()):
        return True
    above = [bits(row) for row in up]
    bit = [0] * len(up)  # old element -> the bit of its new position
    orders = [
        _twin_respecting_orders(group, up, down) if len(group) > 1 else (group,)
        for group in groups.values()
    ]
    for parts in itertools.product(*orders):
        old_at = [i for part in parts for i in part]  # new position -> old element
        for p, old in enumerate(old_at):
            bit[old] = 1 << p
        for row, old in zip(up, old_at):
            new = sum(map(bit.__getitem__, above[old]))
            if new != row:
                if new < row:
                    return False
                break
    return True


def _twin_classes(group: list[int], up, down) -> list[list[int]]:
    """group split into classes of twins: elements whose up and down rows
    agree apart from their own bits."""
    twins: dict = {}
    for i in group:
        twins.setdefault((up[i] ^ 1 << i, down[i] ^ 1 << i), []).append(i)
    return list(twins.values())


def _twin_respecting_orders(group: list[int], up, down):
    """The orders of an invariant class in which twins keep their relative
    order, each built by taking the next element of one twin class at a
    time.  Twins are elements whose up and down rows agree apart from their
    own bits; every permutation of twins is an automorphism, so these orders
    give the same relabeled matrices as all orders of the class (M_6's six
    atoms: 1 order instead of 720)."""
    classes = _twin_classes(group, up, down)
    if len(classes) == len(group):
        return itertools.permutations(group)
    taken = [0] * len(classes)
    order = []

    def rec():
        if len(order) == len(group):
            yield tuple(order)
            return
        for k, twin_class in enumerate(classes):
            if taken[k] < len(twin_class):
                order.append(twin_class[taken[k]])
                taken[k] += 1
                yield from rec()
                taken[k] -= 1
                order.pop()

    return rec()


def enumerate_lattices(n: int) -> list[FiniteBoundedLattice]:
    """Every isomorphism class of n-element bounded lattices, exactly once,
    in canonical-key order: the candidates that are their own key, each
    built by _unchecked from its rows without the constructor's order check,
    sharing one tuple of names and one index per n (tests/test_catalog.py
    checks that from_leq builds each alike).  InvalidStructure for an n
    that is no int (a bool included)."""
    if type(n) is not int:
        raise InvalidStructure(f"the size must be an int, got {_echo(n)}")
    if not 1 <= n <= MAX_ENUM:
        raise SizeTooLarge(f"enumeration supports 1..{MAX_ENUM}, got {n}")
    rows = sorted((up, down) for up, down in _bounded_lattice_candidates(n) if _is_canonical(up, down))
    names = tuple(f"x{i}" for i in range(n))
    index = {name: i for i, name in enumerate(names)}
    return [_unchecked(FiniteBoundedLattice, size=n, names=names, _index=index, leq=up, down=down,
                       **_order_fields(names, up, down)) for up, down in rows]


def enumerate_ortholattices(n: int) -> list[OrthoPair]:
    """Each enumerated lattice paired with each orthocomplementation, up to
    isomorphisms commuting with pi."""
    return [pair for l in enumerate_lattices(n) for pair in _ortho_classes(l)]


def _ortho_classes(l: FiniteBoundedLattice) -> list[OrthoPair]:
    """l with each of its orthocomplementations, one per class of
    automorphisms commuting with pi, in order of the least map.
    orthocomplementations lists the maps in lexicographic order, so a map
    not yet seen is the least of its orbit, and its whole orbit, the
    conjugates sigma pi sigma^-1 by every automorphism sigma, is then seen.
    The orbit is reached by a breadth-first search that conjugates by the
    generators of the group only, so the group is never listed: MO_5's 945
    maps are one orbit under 9 generators, not under 3 628 800 maps.  Each
    pi comes from the orthocomplement search, so its OrthoPair is built
    without OrthoPair's check of pi (lattice_core._unchecked)."""
    pis = orthocomplementations(l)
    if not pis:
        return []
    gens = _automorphism_generators(l)
    seen = set()
    out = []
    for pi in pis:
        if pi.map not in seen:
            seen |= _orbit(pi.map, gens, _conjugate)
            out.append(_unchecked(OrthoPair, lattice=l, pi=pi))
    return out


def _conjugate(sigma, pi) -> tuple[int, ...]:
    """sigma pi sigma^-1, which maps sigma(x) to sigma(pi(x))."""
    conj = [0] * len(pi)
    for x, px in enumerate(pi):
        conj[sigma[x]] = sigma[px]
    return tuple(conj)


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
                "orthomodular": [_orthomodular_law(l, p.pi, "orthomodular").holds for p in pairs],
                "covers": [[l.names[a], l.names[b]] for a, b in l.covers()],
            }
        )
    return rows
