"""Finite bounded lattices: construction, order/join/meet queries, complements
(the complement multimap omega, which the orthocomplement search reads),
orthocomplementations, the ortholattice type OrthoPair (its constructor
tests a pi from outside the program), modularity/orthomodularity/
distributivity checks, forbidden-sublattice search and the generators of
the automorphism group.

Elements are canonical indices 0..n-1; labels are presentation-only.  Subsets
of the carrier are bitmask ints throughout (see bits.py).

Each orthocomplementation is checked once.  The constructors of Involution
and OrthoPair check what comes from outside the program.  What the program
derives and the test suite checks is built by _unchecked, without the
constructor's check: the maps the orthocomplement search yields, whose pairs
are involutive by construction, the OrthoPairs of catalog's orthocomplement
classes and of the equivalence's reconstruction, and catalog's enumerated
lattices.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from functools import cache
from operator import getitem

from .bits import bits, elements, full_mask, image, least, mask_of, transpose
from .errors import (
    CyclicCovers,
    DuplicateLabel,
    InvalidStructure,
    NotALattice,
    NotAnOrder,
    NotAnOrthocomplementation,
    NotASublattice,
    NotBounded,
    SizeMismatch,
    SizeTooLarge,
    UnknownName,
    _echo,
)


def _unchecked(cls, **fields):
    """An instance of the frozen dataclass cls with the given fields, built
    without running its __post_init__ check."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


@dataclass(frozen=True)
class AxiomReport:
    """Pass/fail result of one axiom check, with a falsifying witness on failure.

    The witness is a tuple of element indices; substituted into the axiom it
    must falsify it.  Reports carry the lexicographically least witness so
    that test output is deterministic.  A passing check returns its axiom's
    one shared report (_passing), built once through this constructor; a
    failing one is built per call with its own witness.  Compare reports
    with ==, not is.
    """

    axiom: str
    holds: bool
    witness: tuple[int, ...] | None = None
    reason: str | None = None

    def __post_init__(self):
        if self.holds and self.witness is not None:
            raise InvalidStructure("passing report must not carry a witness")
        if not self.holds and self.witness is None:
            raise InvalidStructure(f"failing report for {self.axiom!r} needs a witness")


@dataclass(frozen=True)
class Involution:
    """A self-inverse unary map on a carrier (rho, pi, orthocomplementations).

    The constructor stores the map as a tuple, whatever iterable of ints it
    is given, and checks that it is a self-inverse permutation
    (InvalidStructure otherwise)."""

    map: tuple[int, ...]

    def __post_init__(self):
        try:
            m = tuple(self.map)
        except TypeError:
            raise InvalidStructure(f"involution map must be a sequence of ints, got {_echo(self.map)}") from None
        object.__setattr__(self, "map", m)
        if any(type(y) is not int for y in m):
            raise InvalidStructure(f"involution entries must be ints, got {_echo(m)}")
        if sorted(m) != list(range(len(m))):
            raise InvalidStructure("not a permutation")
        for x, y in enumerate(m):
            if m[y] != x:
                raise InvalidStructure(f"not an involution at {x}")

    @property
    def size(self) -> int:
        return len(self.map)

    def __call__(self, x: int) -> int:
        return self.map[x]

    @staticmethod
    @cache
    def identity(n: int) -> "Involution":
        """The identity map on n elements: one shared instance per n, built
        and checked once through the constructor."""
        return Involution(tuple(range(n)))


@cache
def _passing(axiom: str) -> AxiomReport:
    """The one passing report of an axiom."""
    return AxiomReport(axiom, True)


def _verdict(axiom: str, witness, reason: str) -> AxiomReport:
    """_passing(axiom) when witness is None, else a failing report with it."""
    return _passing(axiom) if witness is None else AxiomReport(axiom, False, witness, reason)


@dataclass(frozen=True)
class FiniteBoundedLattice:
    """Carrier of `size` indexed elements with order, join/meet tables and bounds.

    Built from labels and the order alone: leq is stored as bitmask rows, bit
    j of leq[i] set iff i <= j.  Construction checks once that the rows are an
    order, then derives the down rows, the bounds and the join and meet tables
    from them, so no lattice with inconsistent tables can be built.  In an
    order, the common up row leq[i] & leq[j] is an element's up row exactly
    when that element is the join of i and j, so a join is one look-up of
    that row, and a miss means the pair lacks a join.  Meets likewise from
    the down rows.  == and hash read names and leq, on which the rest
    depends.  Frozen, so a lattice can key the weak maps of its Nakano
    table and its hexagon copy; all checks are pure.  catalog's enumerated
    classes, lattices by a theorem, skip the order check and share the
    derivation of bounds and tables (_order_fields).
    """

    size: int = field(init=False, compare=False)
    names: tuple[str, ...]
    leq: tuple[int, ...]
    join_table: tuple[tuple[int, ...], ...] = field(init=False, compare=False)
    meet_table: tuple[tuple[int, ...], ...] = field(init=False, compare=False)
    bottom: int = field(init=False, compare=False)
    top: int = field(init=False, compare=False)
    down: tuple[int, ...] = field(init=False, repr=False, compare=False)
    _index: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        labels, up = list(self.names), tuple(self.leq)
        n = len(labels)
        full = full_mask(n)
        if any(type(row) is not int for row in up):
            raise InvalidStructure(f"up-set rows must be int bitmasks, got {_echo(up)}")
        if len(up) != n or any(row & ~full for row in up):
            raise SizeMismatch(f"{len(up)} up-set rows over {n} labels")
        for i in range(n):
            if not up[i] >> i & 1:
                raise NotAnOrder(f"leq not reflexive at {i}")
            for j in bits(up[i]):
                if i != j and up[j] >> i & 1:
                    raise NotAnOrder(f"leq not antisymmetric at ({i},{j})")
                if up[j] & ~up[i]:
                    raise NotAnOrder(f"leq not transitive through ({i},{j})")
        down = tuple(transpose(up))
        tables = _order_fields(labels, up, down)
        names = tuple(str(x) for x in labels)
        index = {name: i for i, name in enumerate(names)}
        if len(index) != n:
            raise DuplicateLabel("duplicate element labels")
        self.__dict__.update(tables, size=n, names=names, _index=index, leq=up, down=down)

    # -- queries ------------------------------------------------------------

    def le(self, i: int, j: int) -> bool:
        return bool(self.leq[i] >> j & 1)

    def join(self, i: int, j: int) -> int:
        return self.join_table[i][j]

    def meet(self, i: int, j: int) -> int:
        return self.meet_table[i][j]

    def index(self, label) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise UnknownName(f"unknown element {_echo(label)}") from None

    def covers(self) -> list[tuple[int, int]]:
        """Cover pairs (i, j) with i covered by j."""
        out = []
        for i in range(self.size):
            strict = self.leq[i] & ~(1 << i)
            for j in bits(strict):
                between = strict & self.down[j] & ~(1 << j)
                if between == 0:
                    out.append((i, j))
        return out


def _order_fields(labels, up, down) -> dict:
    """The bounds and join and meet tables of the order with rows up and down,
    as fields: NotBounded, or NotALattice at the first pair lacking a join or
    a meet."""
    n, full = len(up), full_mask(len(up))
    bottoms = [i for i in range(n) if up[i] == full]
    tops = [i for i in range(n) if down[i] == full]
    if not bottoms or not tops:
        raise NotBounded("no bottom element" if not bottoms else "no top element")
    join = [[0] * n for _ in range(n)]
    meet = [[0] * n for _ in range(n)]
    above = {row: m for m, row in enumerate(up)}
    below = {row: m for m, row in enumerate(down)}
    for i in range(n):
        up_i, down_i = up[i], down[i]
        for j in range(i, n):
            m = above.get(up_i & up[j])
            if m is None:
                raise NotALattice(f"{_echo(labels[i])} and {_echo(labels[j])} lack a join", (i, j))
            join[i][j] = join[j][i] = m
            m = below.get(down_i & down[j])
            if m is None:
                raise NotALattice(f"{_echo(labels[i])} and {_echo(labels[j])} lack a meet", (i, j))
            meet[i][j] = meet[j][i] = m
    return {"bottom": bottoms[0], "top": tops[0],
            "join_table": tuple(map(tuple, join)), "meet_table": tuple(map(tuple, meet))}


def build_from_covers(names, covers) -> FiniteBoundedLattice:
    """Lattice from labels and cover pairs (lower, upper); validates eagerly."""
    names = list(names)
    if len(set(names)) != len(names):
        raise DuplicateLabel(f"duplicate labels in {_echo(names)}")
    n = len(names)
    idx = {x: i for i, x in enumerate(names)}
    up = [1 << i for i in range(n)]
    for lo, hi in covers:
        for lab in (lo, hi):
            if lab not in idx:
                raise UnknownName(f"cover mentions unknown element {_echo(lab)}")
        if lo == hi:
            raise CyclicCovers(f"self-loop at {_echo(lo)}")
        up[idx[lo]] |= 1 << idx[hi]
    # reflexive-transitive closure (Warshall's, on the rows), then cycle
    # detection via antisymmetry
    for k in range(n):
        for i in range(n):
            if up[i] >> k & 1:
                up[i] |= up[k]
    for i in range(n):
        for j in bits(up[i]):
            if i != j and up[j] >> i & 1:
                raise CyclicCovers(f"cycle through {_echo(names[i])} and {_echo(names[j])}")
    return FiniteBoundedLattice(names, up)


def from_leq(names, leq_rows) -> FiniteBoundedLattice:
    """Lattice from an explicit order given as up-set bitmask rows."""
    return FiniteBoundedLattice(names, leq_rows)


def dual_lattice(l: FiniteBoundedLattice) -> FiniteBoundedLattice:
    """Order reversed, join/meet swapped, bounds swapped; involutive.  The
    dual of a lattice is a lattice, so l's own rows, tables and bounds are
    swapped unchecked; tests/test_lattice_core.py checks the constructor
    builds the same lattice from l.down."""
    return _unchecked(FiniteBoundedLattice, size=l.size, names=l.names, _index=l._index, leq=l.down, down=l.leq,
                      join_table=l.meet_table, meet_table=l.join_table, bottom=l.top, top=l.bottom)


# -- complements and orthocomplementations -----------------------------------


def _members(size: int, subset) -> list[int]:
    """The sorted distinct members of a bitmask or of an iterable of
    elements, checked once to lie in the carrier 0..size-1: SizeMismatch
    otherwise, and InvalidStructure for a mask or an element that is no int
    (a bool included)."""
    if type(subset) is int:
        if subset < 0 or subset >> size:
            raise SizeMismatch(f"subset mask {subset} is not a subset of a {size}-element carrier")
        return list(bits(subset))
    members = (subset,) if isinstance(subset, bool) else tuple(subset)
    if any(type(x) is not int for x in members):
        raise InvalidStructure(f"elements must be ints, got {_echo(subset)}")
    members = sorted(set(members))
    if members and not 0 <= members[0] <= members[-1] < size:
        raise SizeMismatch(f"elements must lie in 0..{size - 1}, got {members}")
    return members


def complements(l: FiniteBoundedLattice, x: int) -> frozenset[int]:
    """{y : x v y = 1 and x ^ y = 0}."""
    _members(l.size, (x,))
    return elements(complement_mask(l, x))


def complement_mask(l: FiniteBoundedLattice, x: int) -> int:
    """complements(l, x) as a mask, read off the join and meet rows of x."""
    top, bottom, meets, m = l.top, l.bottom, l.meet_table[x], 0
    for y, j in enumerate(l.join_table[x]):
        if j == top and meets[y] == bottom:
            m |= 1 << y
    return m


def is_order_reversing(l: FiniteBoundedLattice, pi: Involution) -> bool:
    """OC1: x <= y iff pi(y) <= pi(x), one up-set row at a time: the elements
    above x are the pi-images of the elements below pi(x)."""
    down, p = l.down, pi.map
    for row, px in zip(l.leq, p):
        if image(down[px], p) != row:
            return False
    return True


def orthocomplementations(l: FiniteBoundedLattice, limit: int | None = None) -> list[Involution]:
    """All orthocomplementations: complement-selecting involutions satisfying OC1.

    One backtracking search: the least unassigned x is paired with each of
    its complements y in ascending order (x itself when it is its own
    complement), and a branch is cut as soon as the pair breaks OC1 against
    the elements assigned so far.  The maps come out in the order in which
    the same search without the cut lists the complement-selecting
    involutions (tests/oracles.py keeps it).  SizeTooLarge stops it past
    _MAX_PLACEMENTS pairs tried, and with a limit past limit maps found.

    The De Morgan laws (OC2/OC3) follow from OC1 for an involution, so they
    are not tested here; tests/test_lattice_core.py checks them on every
    returned map.  The search pairs carrier elements only, so each map is
    an involution by construction and is built without the Involution
    check; tests/test_ortho_kernels.py checks every map it yields.
    InvalidStructure for a limit that is neither None nor an int >= 0.
    """
    if limit is not None and (type(limit) is not int or limit < 0):
        raise InvalidStructure(f"the limit must be None or an int >= 0, got {_echo(limit)}")
    out = []
    for pi in _orthocomplementation_search(l):
        if limit is not None and len(out) == limit:
            raise SizeTooLarge(f"more than {limit} orthocomplementations")
        out.append(pi)
    return out


# placements one search makes at most (about 2 s): pairs the orthocomplement
# search tries (MO_5's full listing tries 2 278, MO_7's first 20 001 maps
# 48 219), or elements the lattice-map search places for one question of
# _automorphism_generators (12 at most on MO_5) or one find_sublattice_copy
# (the first hexagon copy 41 712 at most, on chain_64)
_MAX_PLACEMENTS = 1_000_000


def _orthocomplementation_search(l: FiniteBoundedLattice):
    """The search of orthocomplementations, yielding each map as it is
    found: next() of it stops at the first.  pi has no fixed point (x = pi(x)
    gives x = x v pi(x) = 1 and x = x ^ pi(x) = 0), so an odd carrier with
    n > 1 has none.  pi maps the elements below x onto the elements above
    pi(x), so the base pairs (down-set size, up-set size) of the carrier,
    swapped, are its base pairs again; a carrier where they are not has none
    either, and neither answer builds a complement mask.

    One generator frame runs the whole search, and raises SizeTooLarge
    past _MAX_PLACEMENTS pairs tried.  frames holds, per pair assigned on
    the way down, its element x, the elements assigned before it and the
    complements of x not yet tried; the candidates of the least unassigned x
    are om[x] & ~done, so an assigned element is never scanned."""
    n, up, down = l.size, l.leq, l.down
    if n > 1 and n % 2:
        return
    pairs = _base_pairs(up, down)
    if sorted(pairs) != sorted((u, d) for d, u in pairs):
        return
    om, full = [complement_mask(l, x) for x in range(n)], full_mask(n)
    assign = [-1] * n
    frames = []
    budget = _MAX_PLACEMENTS
    x, done, cands = 0, 0, om[0]
    while True:
        if cands:
            if not budget:
                raise SizeTooLarge(f"orthocomplement search past {_MAX_PLACEMENTS} placements")
            budget -= 1
            low = cands & -cands
            cands ^= low
            y = low.bit_length() - 1
            assign[x], assign[y] = y, x
            pair = done | 1 << x | low
            # OC1 between each new element u in {x, y} and every assigned
            # element: those above u are the images of those below pi(u).  A
            # pair (v, u) is the pair (pi(u), pi(v)) of OC1, so the rows of
            # the new elements cover it.
            if (up[x] & pair == image(down[y] & pair, assign)
                    and up[y] & pair == image(down[x] & pair, assign)):
                if pair == full:
                    yield _unchecked(Involution, map=tuple(assign))
                else:
                    frames.append((x, done, cands))
                    x, done = least(full & ~pair), pair
                    cands = om[x] & ~pair
                    continue
            assign[x] = assign[y] = -1
        elif frames:
            x, done, cands = frames.pop()
            assign[assign[x]] = -1
            assign[x] = -1
        else:
            return


def is_orthocomplementation(l: FiniteBoundedLattice, pi: Involution) -> bool:
    """Whether pi, of l's size, sends each x to a complement and satisfies
    OC1.  The complements are read off the join row alone: join[x][pi(x)]
    over all x is the one value top.  The meets follow, since an involution
    that passes OC1 turns joins into meets: x ^ pi(x) = pi(pi(x) v x) =
    pi(1) = 0."""
    p = pi.map
    return len(p) == l.size and set(map(getitem, l.join_table, p)) == {l.top} and is_order_reversing(l, pi)


@dataclass(frozen=True)
class OrthoPair:
    """An ortholattice: a bounded lattice together with one orthocomplementation
    (Kalmbach, Orthomodular Lattices, 1983).  Construction raises
    NotAnOrthocomplementation otherwise.  The pairs that the program derives
    (catalog's orthocomplement classes, the equivalence's reconstruction)
    are built by _unchecked, and the test suite checks them."""

    lattice: FiniteBoundedLattice
    pi: Involution

    def __post_init__(self):
        if not is_orthocomplementation(self.lattice, self.pi):
            raise NotAnOrthocomplementation("pi does not orthocomplement the lattice")

    @property
    def size(self) -> int:
        return self.lattice.size


# -- modularity, orthomodularity, distributivity ------------------------------


def is_modular(l: FiniteBoundedLattice) -> AxiomReport:
    """x v (y ^ (x v z)) = (x v y) ^ (x v z) for all triples.

    Both sides read z only through t = x v z, which ranges over the elements
    above x, so each (x, y) tests only those t: sum |up x| * n triples in
    place of n^3.  At the first (x, y) with a failing t, the witness is the
    least z whose x v z fails, the one the n^3 scan in x, y, z order finds
    (tests/oracles.modular_loops keeps it)."""
    join, meet = l.join_table, l.meet_table
    for x, joins in enumerate(join):
        above = bits(l.leq[x])
        for y, meets_y in enumerate(meet):
            meets_xvy = meet[joins[y]]
            for t in above:
                if joins[meets_y[t]] != meets_xvy[t]:
                    z = next(z for z, xvz in enumerate(joins) if joins[meets_y[xvz]] != meets_xvy[xvz])
                    return AxiomReport("modular", False, (x, y, z), "modular law")
    return _passing("modular")


def is_distributive(l: FiniteBoundedLattice, subset=None) -> AxiomReport:
    """x ^ (y v z) = (x ^ y) v (x ^ z) over a nonempty meet/join-closed subset.

    The triples run in x, y, z order over the sorted members, reading the
    meets of x and the joins of y and of x ^ y as table rows."""
    if subset is None:
        members = list(range(l.size))
    else:
        members = _members(l.size, subset)
        _require_closed(l, members)
    return _distributive_law(l, members)


def _distributive_law(l: FiniteBoundedLattice, members: list[int]) -> AxiomReport:
    join, meet = l.join_table, l.meet_table
    for x in members:
        meets = meet[x]
        for y in members:
            joins_y, joins_xy = join[y], join[meets[y]]
            for z in members:
                if meets[joins_y[z]] != joins_xy[meets[z]]:
                    return AxiomReport("distributive", False, (x, y, z), "distributive law")
    return _passing("distributive")


def is_orthomodular(l: FiniteBoundedLattice, pi: Involution) -> AxiomReport:
    """x <= y implies x v (pi(x) ^ y) = y; pi is checked by OrthoPair."""
    OrthoPair(l, pi)
    return _orthomodular_law(l, pi, "orthomodular")


def _orthomodular_law(l: FiniteBoundedLattice, pi: Involution, axiom: str) -> AxiomReport:
    join, meet = l.join_table, l.meet_table
    for x, px in enumerate(pi.map):
        joins, meets = join[x], meet[px]
        for y in bits(l.leq[x]):
            if joins[meets[y]] != y:
                return AxiomReport(axiom, False, (x, y), "orthomodular law")
    return _passing(axiom)


def generated_sublattice(l: FiniteBoundedLattice, seeds, close_under_pi: Involution | None = None) -> frozenset[int]:
    """Least subset containing seeds closed under meet, join (and pi if given)."""
    if close_under_pi is not None and close_under_pi.size != l.size:
        raise SizeMismatch("involution size disagrees with the carrier")
    seeds = _members(l.size, list(seeds))
    if not seeds:
        raise NotASublattice("seeds must be nonempty")
    return elements(_generated_mask(l, mask_of(seeds), close_under_pi))


def _generated_mask(l: FiniteBoundedLattice, seeds: int, pi: Involution | None) -> int:
    """generated_sublattice as a mask.  Each member is taken up once, and
    then joined and met only with the members taken up before it and itself,
    so each pair is closed once."""
    join, meet = l.join_table, l.meet_table
    done, todo = 0, seeds
    while todo:
        low = todo & -todo
        x = low.bit_length() - 1
        done |= low
        joins, meets = join[x], meet[x]
        found = 0 if pi is None else 1 << pi.map[x]
        for y in bits(done):
            found |= 1 << joins[y] | 1 << meets[y]
        todo = (todo | found) & ~done
    return done


def find_sublattice_copy(l: FiniteBoundedLattice, pattern: FiniteBoundedLattice):
    """The least injective map embedding pattern into l preserving meet and
    join, or None; SizeTooLarge past _MAX_PLACEMENTS placements of the
    lattice-map search."""
    return next(_lattice_embeddings(pattern, l), None)


def hexagon_pattern() -> FiniteBoundedLattice:
    """The 6-element benzene-ring lattice: 0<b<a<1 and 0<a'<b'<1."""
    return build_from_covers(
        ["0", "a", "b", "a'", "b'", "1"],
        [("0", "b"), ("b", "a"), ("a", "1"), ("0", "a'"), ("a'", "b'"), ("b'", "1")],
    )


# built once at import, for check_om_equivalences; callers of hexagon_pattern()
# get a lattice of their own
_HEXAGON = hexagon_pattern()

# lattice -> its least hexagon copy, or None
_HEXAGON_COPIES = weakref.WeakKeyDictionary()


def _hexagon_copy(l: FiniteBoundedLattice):
    """The least copy of the hexagon in l, or None.  It depends on the
    order alone, so it is searched once while l lives, however many pis l
    carries: an entry of _HEXAGON_COPIES lives as long as its lattice, and
    a dual lattice, whose order differs, is a key of its own."""
    try:
        return _HEXAGON_COPIES[l]
    except KeyError:
        found = _HEXAGON_COPIES[l] = find_sublattice_copy(l, _HEXAGON)
        return found


def pentagon_pattern() -> FiniteBoundedLattice:
    """The 5-element pentagon: 0<b<a<1 and 0<c<1."""
    return build_from_covers(
        ["0", "a", "b", "c", "1"],
        [("0", "b"), ("b", "a"), ("a", "1"), ("0", "c"), ("c", "1")],
    )


def check_om_equivalences(l: FiniteBoundedLattice, pi: Involution) -> list[AxiomReport]:
    """OM1 (definition), OM2, OM3 (hexagon-freeness), OM4 (generated distributivity).

    The four reports agree in truth value on every ortholattice.  pi is
    checked once, on entry, by OrthoPair.  OM3's witness, the least hexagon
    copy, depends on the order alone, so it is searched once per lattice
    over all calls and all pis, and kept while the lattice lives
    (_hexagon_copy).  OM4 scans x <= y
    in lexicographic order; the first (x, y) whose generated pi-closed
    sublattice is not distributive is the witness.  A pair with x = 0,
    x = y or y = 1 generates {0, 1, u, pi(u)}, which is Boolean and so never
    the witness; those pairs are skipped.  Every other pair generates what
    its pi-closed seed set {x, y, pi(x), pi(y)} generates, so each distinct
    seed set is closed once per call, and each distinct closure tested for
    distributivity once per call.
    """
    OrthoPair(l, pi)
    om1 = _orthomodular_law(l, pi, "OM1")

    # x <= y and x v pi(y) = 1 imply x = y; the section-3 print swaps the
    # complement onto x, which is vacuous under x <= y, so the form the
    # section-5 proof actually quotes is used here
    om2 = _passing("OM2")
    for x in range(l.size):
        joins = l.join_table[x]
        for y in bits(l.leq[x] & ~(1 << x)):
            if joins[pi.map[y]] == l.top:
                om2 = AxiomReport("OM2", False, (x, y), "x v pi(y) = 1 but x != y")
                break
        if not om2.holds:
            break

    om3 = _verdict("OM3", _hexagon_copy(l), "hexagon sublattice")

    om4 = _passing("OM4")
    p, closures, distributive = pi.map, {}, {}
    for x in range(l.size):
        if x == l.bottom:
            continue
        for y in bits(l.leq[x] & ~(1 << x | 1 << l.top)):
            seeds = 1 << x | 1 << y | 1 << p[x] | 1 << p[y]
            sub = closures.get(seeds)
            if sub is None:
                sub = closures[seeds] = _generated_mask(l, seeds, pi)
            if sub not in distributive:
                distributive[sub] = _distributive_law(l, list(bits(sub))).holds
            if not distributive[sub]:
                om4 = AxiomReport("OM4", False, (x, y), "generated pi-closed sublattice not distributive")
                break
        if not om4.holds:
            break

    return [om1, om2, om3, om4]


# -- sublattices and isomorphism ----------------------------------------------


def sublattice(l: FiniteBoundedLattice, subset) -> tuple[FiniteBoundedLattice, tuple[int, ...]]:
    """Restrict to a meet/join-closed subset; returns (lattice, index map).

    index map sends new indices to old ones (elements in ascending old order;
    a repeated member counts once).
    """
    members = _members(l.size, subset)
    _require_closed(l, members)
    pos = {x: i for i, x in enumerate(members)}
    up = [mask_of(pos[j] for j in bits(l.leq[x]) if j in pos) for x in members]
    return from_leq([l.names[x] for x in members], up), tuple(members)


def _require_closed(l: FiniteBoundedLattice, members: list[int]):
    """Raise NotASublattice when the sorted members are empty, or at the
    first (x, y) of them whose join or meet leaves them."""
    if not members:
        raise NotASublattice("empty subset")
    mask = mask_of(members)
    for x in members:
        joins, meets = l.join_table[x], l.meet_table[x]
        for y in members:
            if not (mask >> joins[y] & 1 and mask >> meets[y] & 1):
                raise NotASublattice(f"subset not closed at ({x},{y})")


def _base_pairs(up, down) -> list[tuple[int, int]]:
    """Per element of the order with up-set rows up and down-set rows down:
    (down-set size, up-set size).  The invariant that lattice maps and the
    enumeration's canonical form read: an embedding sends an element only
    to one with at least as many elements above and below it, and the
    canonical form lists the elements in order of it."""
    return [(d.bit_count(), u.bit_count()) for u, d in zip(up, down)]


def _automorphism_generators(l: FiniteBoundedLattice) -> list[tuple[int, ...]]:
    """Generators of the automorphism group of l, found without listing it;
    a rigid l gives none.

    A stabilizer chain (Sims 1970): for i from the last element to the
    first, the maps found so far fix 0..i-1 and generate every automorphism
    that fixes 0..i.  Each v > i with the base pair of i that is not yet in
    the orbit of i under them asks the embedding search for one automorphism
    that fixes 0..i-1 and sends i to v; each one found is a new generator.
    An automorphism g fixing 0..i-1 then agrees at i with some product h of
    the generators, and h^-1 g fixes 0..i, so the generators give g.  Each
    question is one call of the lattice-map search, under its budget."""
    n, pairs, gens = l.size, _base_pairs(l.leq, l.down), []
    for i in reversed(range(n)):
        orbit = {i}
        for v in range(i + 1, n):
            if pairs[v] == pairs[i] and v not in orbit:
                sigma = next(_lattice_embeddings(l, l, (*range(i), v)), None)
                if sigma is not None:
                    gens.append(sigma)
                    orbit = _orbit(i, gens, tuple.__getitem__)
    return gens


def _orbit(start, gens, act) -> set:
    """Every point that the maps gens, applied as act(g, point), reach from
    start: the orbit of start under the group they generate."""
    orbit, queue = {start}, [start]
    for point in queue:
        for g in gens:
            moved = act(g, point)
            if moved not in orbit:
                orbit.add(moved)
                queue.append(moved)
    return orbit


def _lattice_embeddings(a: FiniteBoundedLattice, b: FiniteBoundedLattice, pinned=()):
    """Yield every injective map a -> b that preserves joins and meets, as an
    index tuple, in lexicographic order; with pinned, only those that send
    each element i < len(pinned) to pinned[i].  The library's one
    lattice-map search: find_sublattice_copy asks it for the first copy of a
    pattern, _automorphism_generators for one automorphism with a pinned
    prefix.  Each call raises SizeTooLarge past _MAX_PLACEMENTS placements,
    the budget of the orthocomplement search too.

    a's elements are placed in index order, each on the free elements of b
    in ascending order.  An embedding sends the elements above and below i
    to distinct elements above and below the image of i, so i goes only on
    an element with at least as many of each (fits[i]); an element that
    fits nowhere ends the search before it starts.  When i's turn comes, its
    candidates are narrowed once, by one row of b per placed element u: the
    free elements that fit and lie above the image of u when u <= i, below
    it when i <= u, and apart from it otherwise (places[i]).  As the map is
    injective, that holds both orders between i and every placed element,
    and so the join and the meet of every comparable pair.  When a is the
    smaller, the join and the meet w of each incomparable pair u < x are
    tested once, when the last of u, x and w is placed (checks[i]), so every
    map yielded is an embedding.  When the sizes are equal, a bijective
    order embedding is an order isomorphism and preserves joins and meets,
    so the rows alone narrow the candidates."""
    k = a.size
    if k > b.size:
        return
    a_up, a_down, b_up, b_down = a.leq, a.down, b.leq, b.down
    rooms = _base_pairs(b_up, b_down)
    fits = []  # fits[i]: the elements of b with room above and below for i
    for need_down, need_up in _base_pairs(a_up, a_down):
        mask = 0
        for v, (down, up) in enumerate(rooms):
            if up >= need_up and down >= need_down:
                mask |= 1 << v
        fits.append(mask)
    for i, v in enumerate(pinned):
        fits[i] &= 1 << v
    if not all(fits):
        return
    # checks[i]: (table of b, u, x, w) for the join (meet) w of each
    # incomparable pair u < x where i is the last of u, x and w
    checks = [()] * k
    if k < b.size:
        checks = [[] for _ in range(k)]
        for x in range(k):
            for u in bits(~(a_up[x] | a_down[x]) & ((1 << x) - 1)):
                for table, w in ((b.join_table, a.join_table[u][x]), (b.meet_table, a.meet_table[u][x])):
                    checks[max(x, w)].append((table, u, x, w))
    # places[i]: per u < i, the rows of b (up, down or apart) whose row at
    # the image of u holds the elements that stand to it as i stands to u
    b_apart = [~(up | down) for up, down in zip(b_up, b_down)]
    places = [[(u, b_up if a_down[i] >> u & 1 else b_down if a_up[i] >> u & 1 else b_apart) for u in range(i)]
              for i in range(k)]
    assign = [0] * k
    left = _MAX_PLACEMENTS
    frames = []  # per element placed on the way down: its untried candidates
    i, used, free = 0, 0, fits[0]
    while True:
        if free:
            low = free & -free
            free ^= low
            assign[i] = low.bit_length() - 1
            if checks[i] and any(table[assign[u]][assign[x]] != assign[w] for table, u, x, w in checks[i]):
                continue
            if not left:
                raise SizeTooLarge(f"lattice-map search past {_MAX_PLACEMENTS} placements")
            left -= 1
            if i + 1 < k:
                frames.append(free)
                i, used = i + 1, used | low
                free = fits[i] & ~used
                for u, rows in places[i]:
                    free &= rows[assign[u]]
            else:
                yield tuple(assign)
        elif frames:
            free = frames.pop()
            i -= 1
            used ^= 1 << assign[i]
        else:
            return

