"""Additive and multiplicative Nakano mosaics of bounded lattices.

N_v(x,y) = {z : x v y = x v z = z v y} with neutral 0 (additive);
N_^(x,y) = {z : x ^ y = x ^ z = z ^ y} with neutral 1 (multiplicative).
N_^ of L is N_v of the dual lattice, so the multiplicative mosaic is the
additive mosaic of dual_lattice(L), and every check below reads the join
side of its base.  Tables are materialized eagerly; every element is its own
inverse.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .bits import bits, image, least, mask_of
from .errors import InvalidStructure, NoUniqueExtremum, SizeMismatch, _echo
from .hyperstructure import Mosaic, Multioperation, is_reproductive, principal_rows
from .lattice_core import AxiomReport, FiniteBoundedLattice, _unchecked, _verdict, dual_lattice


@dataclass(frozen=True)
class NakanoMosaic:
    """The additive Nakano mosaic of the lattice base: its table is N_v of
    base, with neutral base.bottom.  The multiplicative mosaic of a lattice
    is this mosaic of its dual.

    The constructor checks that base is a FiniteBoundedLattice and mosaic a
    Mosaic on as many elements.  The base's own Nakano table _cells, which
    the triple bound reads, and the lemma scan are derived on first use and
    kept on the mosaic, outside ==, hash and repr; additive_nakano hands
    over the table it built as _cells."""

    base: FiniteBoundedLattice
    mosaic: Mosaic

    def __post_init__(self):
        if not isinstance(self.base, FiniteBoundedLattice):
            raise InvalidStructure(f"the base must be a FiniteBoundedLattice, got {_echo(self.base)}")
        if not isinstance(self.mosaic, Mosaic):
            raise InvalidStructure(f"the mosaic must be a Mosaic, got {_echo(self.mosaic)}")
        if self.base.size != self.mosaic.size:
            raise SizeMismatch("carrier sizes disagree")

    @property
    def size(self) -> int:
        return self.base.size

    def cell(self, x: int, y: int) -> int:
        return self.mosaic.cell(x, y)

    @cached_property
    def _cells(self) -> tuple[tuple[int, ...], ...]:
        """The base's own Nakano table, never the mosaic's, which may be an
        edited one."""
        return _nakano_table(self.base.join_table)

    @cached_property
    def _lemma_scan(self):
        """The least witnesses of antisym, the bound by the junction, the
        junction characterization and the triple junction bound, each None
        where its lemma holds: one scan of the pairs y >= x.

        The table and the join are commutative, so (x, y) and (y, x) test
        alike and each least failing pair has x <= y.  With t = x v y,
        antisym fails at (x, x) when x is not in x+x and at (x, y), y > x,
        when x+y holds x and y; the bound fails where x+y leaks outside the
        down row of t; the characterization where under[x] & under[y] & x+y
        is not {t}, at its lowest differing z.

        The triple bound packs u+(x+y) over u, the cell of u at bit offset
        w*u, with w the slot width of the table's cube (see
        hyperstructure.Multioperation).  u+(x+y) is (x+y)+u, the packed
        union of the rows of the members of x+y: the table's row unions,
        which is_associative shares.  The allowed set
        {s : s v x v y = s v u v x = s v u v y = u v x v y} is
        N(t, u v x) & N(t, u v y), with N the base's own Nakano cells, so
        it is bound[t][x] & bound[t][y], where bound[t][v] (v <= t) packs
        N(t, u v v) over u: it depends on the lattice alone.  Its witness
        (u, x, y, s) has the least leaking u over all pairs, then the first
        pair at that u and the lowest leaking s, so the scan visits every
        pair."""
        join, below, cells, op = self.base.join_table, self.base.down, self._cells, self.mosaic.op
        w, under, sums = op._masks.width, op._under, op._row_unions  # under[x] = {z : x in z+z}
        bound = []
        for t, ct in enumerate(cells):  # ct[a] = N(t, a)
            planes = {}
            for v in bits(below[t]):
                plane = 0
                for a in reversed(join[v]):  # a = u v v
                    plane = plane << w | ct[a]
                planes[v] = plane
            bound.append(planes)
        antisym = bounded = junction = triple = None
        for x, (jx, ux, row) in enumerate(zip(join, under, op.table)):
            for y, cell in enumerate(row[x:], x):
                t = jx[y]
                if antisym is None and (cell >> x & cell >> y & 1) != (x == y):
                    antisym = (x, y)
                if bounded is None and cell & ~below[t]:
                    bounded = (x, y, least(cell & ~below[t]))
                if junction is None and (ux & under[y] & cell) ^ 1 << t:
                    junction = (x, y, least((ux & under[y] & cell) ^ 1 << t))
                leak = sums[cell] & ~(bound[t][x] & bound[t][y])
                if leak:
                    u, s = divmod(least(leak), w)
                    if triple is None or u < triple[0]:
                        triple = (u, x, y, s)
        return antisym, bounded, junction, triple


def _nakano_table(join) -> tuple[tuple[int, ...], ...]:
    """The additive Nakano table of a lattice's join table:
    N(x, y) = reach[x][t] & reach[y][t] with t = x v y, where
    reach[x][t] = {z : x v z = t}."""
    n = len(join)
    reach = [[0] * n for _ in range(n)]
    for x, row in enumerate(join):
        rx = reach[x]
        for z, t in enumerate(row):
            rx[t] |= 1 << z
    return tuple(tuple(rx[t] & reach[y][t] for y, t in enumerate(row)) for rx, row in zip(reach, join))


def additive_nakano(l: FiniteBoundedLattice) -> NakanoMosaic:
    """The mosaic (L, N_v, 0); commutative, total, reproductive, rho = id.

    The paper proves that the table of any bounded lattice is an L-mosaic
    with this neutral, each element its own inverse, and its cells lie in
    the carrier by construction, so its Multioperation and Mosaic are built
    by _unchecked, with neither verify_mosaic nor the constructors' checks;
    tests/test_nakano.py checks the theorem on the enumerated lattices.
    The NakanoMosaic, whose sizes agree by construction, is built by
    _unchecked too, with the table as its _cells."""
    cells = _nakano_table(l.join_table)
    op = _unchecked(Multioperation, size=l.size, table=cells)
    mosaic = _unchecked(Mosaic, op=op, neutral=l.bottom)
    return _unchecked(NakanoMosaic, base=l, mosaic=mosaic, _cells=cells)


def multiplicative_nakano(l: FiniteBoundedLattice) -> NakanoMosaic:
    """The mosaic (L, N_^, 1): the additive mosaic of the dual lattice."""
    return additive_nakano(dual_lattice(l))


def extremum_by_characterization(m: NakanoMosaic) -> int:
    """The unique u with: u in x+x implies x = u.  The base's top (the
    lattice's bottom for a multiplicative mosaic); anything else signals a
    corrupted table."""
    found = [u for u, xs in enumerate(principal_rows(m.mosaic)) if not xs & ~(1 << u)]
    if len(found) != 1:
        raise NoUniqueExtremum(f"candidates: {found}")
    return found[0]


def _restricted_op(table, members: list[int]) -> Multioperation:
    """The table's rows and columns at the sorted members, each cell
    intersected with them and relabeled by bits.image; index k is the k-th
    member.  On the Nakano table of a lattice and the members of a
    sublattice this is the Nakano table of the sublattice
    (generated_polygroup_check restricts to the generated subalgebra this
    way; tests/test_nakano.py checks the identity).  Its cells lie in the
    restricted carrier by construction, so it is built by _unchecked."""
    index, keep = {x: k for k, x in enumerate(members)}, mask_of(members)
    rows = (table[x] for x in members)
    return _unchecked(Multioperation, size=len(members),
                      table=tuple(tuple(image(row[y] & keep, index) for y in members) for row in rows))


# -- the section-4 lemma battery ----------------------------------------------


def nakano_property_reports(m: NakanoMosaic) -> list[AxiomReport]:
    """The section-4 lemma battery, one report per lemma, in this order:

    - antisym: x,y in x+y iff x = y;
    - principal-idempotent: (x+x)+(x+x) = x+x;
    - bounded-by-junction: z in x+y implies z <= x v y;
    - junction-characterization: z = x v y iff (x,y in z+z and z in x+y);
    - triple-bound: x+(y+z) stays in
      {t : t v x v y = t v x v z = t v y v z = x v y v z};
    - lms3-inclusion: (x+(x+y)) & ((x+y)+y) <= x+y;
    - reproductive, then extremum: the u with "u in x+x implies x = u" is
      the base's top.

    The table and the join are commutative, so each pair lemma reads only
    the pairs y >= x.  principal-idempotent and lms3-inclusion are the Lms2
    and Lms3 witnesses of the table's own scan of those pairs, which
    verify_lmosaic shares; the other four pair lemmas read one scan kept on
    the NakanoMosaic, _lemma_scan.  A table that verify_lmosaic or
    is_associative has already checked derives neither its principal rows
    nor its packed unions again, and no order of the calls changes a
    report."""
    antisym, bounded, junction, triple = m._lemma_scan
    lms2, lms3 = m.mosaic.op._pair_scan[:2]
    expected = m.base.top
    try:
        ok = extremum_by_characterization(m) == expected
    except NoUniqueExtremum:
        ok = False
    return [
        _verdict("antisym", antisym, "x,y in x+y iff x=y"),
        _verdict("principal-idempotent", lms2, "(x+x)+(x+x) != x+x"),
        _verdict("bounded-by-junction", bounded, "z not under x v y"),
        _verdict("junction-characterization", junction, "lemma sup/inf"),
        _verdict("triple-bound", triple, "triple junction bound"),
        _verdict("lms3-inclusion", lms3, "intersection leaks"),
        is_reproductive(m.mosaic.op),
        _verdict("extremum", None if ok else (expected,), "characterized extremum is not the bound"),
    ]
