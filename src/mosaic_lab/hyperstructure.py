"""Multivalued operations and the mosaic axiom stack: magmas, neutral elements,
reversibility, mosaics, polygroups, morphisms, the L-mosaic axioms and the
order that the principal cells of an L-mosaic induce.

Table cells are bitmask subsets of the carrier; empty cells are representable
(partial magma) but rejected by verify_mosaic.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
from operator import or_

from .bits import bits, elements, full_mask, image, least, mask_of, transpose
from .errors import InvalidStructure, SizeMismatch
from .lattice_core import AxiomReport, Involution


@dataclass(frozen=True)
class Multioperation:
    """n x n table of carrier subsets.

    The rows that several checks read (packed rows, their unions, the
    principal rows, the Lms2 and Lms3 witnesses) are derived once per
    table, on first use, in the private _view.  They depend on the cells
    alone and take no part in ==, hash or repr."""

    size: int
    table: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        full = full_mask(self.size)
        if len(self.table) != self.size or any(len(r) != self.size for r in self.table):
            raise SizeMismatch("table is not size x size")
        if any(c & ~full for r in self.table for c in r):
            raise SizeMismatch("cell not a subset of the carrier")

    def cell(self, x: int, y: int) -> int:
        return self.table[x][y]

    def cell_set(self, x: int, y: int) -> frozenset[int]:
        return elements(self.table[x][y])

    def left_extend(self, xmask: int, y: int) -> int:
        """X [.] y as a set union."""
        m = 0
        for x in bits(xmask):
            m |= self.table[x][y]
        return m

    def right_extend(self, x: int, ymask: int) -> int:
        m = 0
        for y in bits(ymask):
            m |= self.table[x][y]
        return m

    def with_cell(self, x: int, y: int, zs) -> "Multioperation":
        """Copy with one cell replaced (mutation testing helper)."""
        table = [list(r) for r in self.table]
        table[x][y] = mask_of(zs)
        return Multioperation(self.size, tuple(tuple(r) for r in table))

    @cached_property
    def _view(self) -> "_TableView":
        return _TableView(self.table)


@dataclass(frozen=True)
class Mosaic:
    """Commutative unital magma, reversible with respect to rho.

    rho(x) is the unique inverse of x.  Construction checks only that the
    neutral is neutral and that rho fixes it: verify_mosaic builds a Mosaic
    from a table not yet known to be one, and a constructor whose tables are
    mosaics by theorem (the Nakano mosaics) passes the neutral and rho itself.
    """

    op: Multioperation
    neutral: int
    rho: Involution

    def __post_init__(self):
        n = self.op.size
        if self.rho.size != n or not 0 <= self.neutral < n:
            raise SizeMismatch("carrier sizes disagree")
        e = self.neutral
        for x in range(n):
            if self.op.cell(e, x) != 1 << x or self.op.cell(x, e) != 1 << x:
                raise InvalidStructure(f"{e} is not neutral at {x}")
        if self.rho(e) != e:
            raise InvalidStructure("rho does not fix the neutral element")

    @property
    def size(self) -> int:
        return self.op.size

    def cell(self, x: int, y: int) -> int:
        return self.op.cell(x, y)


def find_neutral(op: Multioperation):
    """The unique neutral element, or None."""
    units = tuple(1 << x for x in range(op.size))
    for e, row in enumerate(op.table):
        if row == units and all(op.table[x][e] == units[x] for x in range(op.size)):
            return e
    return None


@dataclass(frozen=True)
class MosaicVerification:
    reports: tuple[AxiomReport, ...]
    mosaic: Mosaic | None

    @property
    def ok(self) -> bool:
        return self.mosaic is not None

    def report(self, axiom: str) -> AxiomReport:
        for r in self.reports:
            if r.axiom == axiom:
                return r
        raise KeyError(axiom)


def verify_mosaic(op: Multioperation) -> MosaicVerification:
    """Full pipeline: commutative, total, neutral, unique inverses, rho := inverse
    map, reversibility.  On success it also reports the structural
    consequences that Lemma 1 derives from these (rho fixes neutral, rho is a
    strong iso onto the dual operation, RINV and the three-way membership
    equivalences); tests/oracles.py checks them on every table the kernel
    tests pass.

    Past the commutativity stage every check reads one transpose of the table,
    T[v][u] = {w : u in v.w}: the inverses of x are T[x][e], and with
    commutativity "x in z.rho(y)" is "z in T[rho(y)][x]", so reversibility
    at (x, y) compares three masks over all z."""
    n = op.size
    table = op.table
    reports = []

    witness = None
    for x, (row, col) in enumerate(zip(table, zip(*table))):
        if row != col:
            witness = (x, next(y for y in range(n) if row[y] != col[y]))
            break
    reports.append(AxiomReport("commutative", witness is None, witness, witness and "cell asymmetry"))
    witness = next(((x, row.index(0)) for x, row in enumerate(table) if 0 in row), None)
    reports.append(AxiomReport("total", witness is None, witness, witness and "empty cell"))
    if not all(r.holds for r in reports):
        return MosaicVerification(tuple(reports), None)

    e = find_neutral(op)
    if e is None:
        reports.append(AxiomReport("neutral", False, (), "no neutral element"))
        return MosaicVerification(tuple(reports), None)
    reports.append(AxiomReport("neutral", True))

    tr = [transpose(row) for row in table]
    inv = []
    for x in range(n):
        ys = tr[x][e]
        if not ys or ys & (ys - 1):
            reason = "no inverse" if not ys else "multiple inverses"
            reports.append(AxiomReport("unique-inverses", False, (x,), reason))
            return MosaicVerification(tuple(reports), None)
        inv.append(least(ys))
    reports.append(AxiomReport("unique-inverses", True))
    rho = Involution(tuple(inv))

    for x, row in enumerate(table):
        trx = tr[inv[x]]
        for y, cell in enumerate(row):
            bad = cell & ~(tr[inv[y]][x] & trx[y])
            if bad:
                reports.append(AxiomReport("reversible", False, (x, y, least(bad)), "RE fails"))
                return MosaicVerification(tuple(reports), None)
    reports.append(AxiomReport("reversible", True))
    reports.append(AxiomReport("lemma1-consequences", True))

    return MosaicVerification(tuple(reports), Mosaic(op, e, rho))


def _pack(cells, width: int) -> int:
    """The cells side by side in one integer, cell k at bit offset width*k."""
    out = 0
    for cell in reversed(cells):
        out = out << width | cell
    return out


class _PackedUnions(dict):
    """M -> the OR of planes[w] over the members w of M, made on first use."""

    def __init__(self, planes):
        super().__init__()
        self.planes = planes

    def __missing__(self, m: int) -> int:
        acc, rest = 0, m
        while rest:
            low = rest & -rest
            acc |= self.planes[low.bit_length() - 1]
            rest ^= low
        self[m] = acc
        return acc


class _TableView:
    """What the checks read off one table, each part derived on first use.

    Multioperation._view holds the one view of a table, so every part lives
    exactly as long as the table: with_cell makes a new table, with a new
    view.  The view keeps the cells, not the Multioperation, so the two form
    no reference cycle."""

    def __init__(self, table):
        self.table = table

    @cached_property
    def packed_rows(self) -> list[int]:
        """Row x as one integer, the cell x.y at bit offset n*y."""
        n = len(self.table)
        return [_pack(row, n) for row in self.table]

    @cached_property
    def row_unions(self) -> _PackedUnions:
        """row_unions[M] packs M.z for every z."""
        return _PackedUnions(self.packed_rows)

    @cached_property
    def column_unions(self) -> _PackedUnions:
        """column_unions[M] packs x.M for every x; the same object as
        row_unions when the table is commutative."""
        columns = tuple(zip(*self.table))
        if columns == self.table:
            return self.row_unions
        n = len(self.table)
        return _PackedUnions([_pack(col, n) for col in columns])

    @cached_property
    def under(self) -> tuple[int, ...]:
        """under[x] = {z : x in z.z}: the principal cells as up-set rows."""
        return tuple(transpose([row[j] for j, row in enumerate(self.table)]))

    @cached_property
    def lms2_witness(self):
        """(x,) for the least x with (x+x)+(x+x) != x+x, or None."""
        table = self.table
        for x, row in enumerate(table):
            cell, acc = row[x], 0
            members = list(bits(cell))
            for a in members:
                ra = table[a]
                for b in members:
                    acc |= ra[b]
            if acc != cell:
                return (x,)
        return None

    @cached_property
    def lms3_witness(self):
        """The least (x, y) with (x+(x+y)) & ((x+y)+y) not inside x+y, or None.

        x+(x+y) is slot x of the column union of x+y, and (x+y)+y slot y of
        its row union: the unions that is_associative and the triple
        junction bound read."""
        n = len(self.table)
        full = (1 << n) - 1
        lefts, rights = self.column_unions, self.row_unions
        for x, row in enumerate(self.table):
            for y, cell in enumerate(row):
                if lefts[cell] >> n * x & rights[cell] >> n * y & full & ~cell:
                    return (x, y)
        return None


def is_associative(op: Multioperation) -> AxiomReport:
    """(x [.] y) [.] z = x [.] (y [.] z), set-extended on both sides.

    One integer holds the whole plane of a fixed x: the n-bit cell of slot
    (y, z) sits at bit offset n*(n*y + z).  The left side x.(y.z) is the OR
    over w of x.w times marks[w], which has a 1 at the low bit of every slot
    whose cell y.z holds w.  The right side (x.y).z places, for each y, the
    union of the packed rows of the members of x.y at offset n*n*y.  The
    lowest bit where the two differ is the least (y, z).  The packed rows
    and their unions come from the table's view."""
    n, table, view = op.size, op.table, op._view
    cells = _pack(view.packed_rows, n * n)
    low = ((1 << n ** 3) - 1) // ((1 << n) - 1) if n else 0  # bit 0 of every slot
    marks = [cells >> w & low for w in range(n)]
    unions = view.row_unions  # unions[M]: M.z for every z
    for x, row in enumerate(table):
        left = 0
        for cell, mark in zip(row, marks):
            left |= cell * mark
        diff = left ^ _pack([unions[xy] for xy in row], n * n)
        if diff:
            slot = least(diff) // n
            return AxiomReport("associative", False, (x, slot // n, slot % n), "associativity")
    return AxiomReport("associative", True)


def _carrier_map(f, source_size: int, target_size: int) -> tuple[int, ...]:
    """f as a tuple, once it is checked to map every element of a carrier
    of source_size into one of target_size; SizeMismatch otherwise."""
    f = tuple(f)
    if len(f) != source_size or any(not 0 <= v < target_size for v in f):
        raise SizeMismatch("f is not a map between the carriers")
    return f


def check_morphism(f, a: Mosaic, b: Mosaic) -> AxiomReport:
    """Mosaic morphism: unitary, and f(x [.] y) inside f(x) [.] f(y) for every
    cell.  Inverse preservation, which unitary morphisms of invertible magmas
    cannot break, is verified alongside.  The report's axiom is
    "morphism-morphism"."""
    f = _carrier_map(f, a.size, b.size)
    name = "morphism-morphism"
    if f[a.neutral] != b.neutral:
        return AxiomReport(name, False, (a.neutral,), "not unitary")
    target = b.op.table
    for x, row in enumerate(a.op.table):
        images = target[f[x]]  # images[v] = f(x) [.] v
        for y, cell in enumerate(row):
            if image(cell, f) & ~images[f[y]]:
                return AxiomReport(name, False, (x, y), "cell condition fails")
    for x in range(a.size):
        if f[a.rho(x)] != b.rho(f[x]):
            return AxiomReport(name, False, (x,), "inverse preservation fails")
    return AxiomReport(name, True)


# -- L-mosaics ----------------------------------------------------------------


def verify_lmosaic(m: Mosaic) -> tuple[AxiomReport, ...]:
    """The four L-mosaic axioms; Lms4 failures report zero or multiple join
    candidates at the witness pair.  Lms2, Lms3 and the principal rows that
    Lms4 reads come from the table's view, which the section-4 lemma battery
    shares: whichever runs first derives them, once per table."""
    e, table, view = m.neutral, m.op.table, m.op._view
    lms1 = AxiomReport("Lms1", True)
    for x, row in enumerate(table):
        if not (row[x] >> e & 1 and row[x] >> x & 1):
            lms1 = AxiomReport("Lms1", False, (x,), "0,x not both in x+x")
            break
    witness = view.lms2_witness
    lms2 = AxiomReport("Lms2", witness is None, witness, witness and "(x+x)+(x+x) != x+x")
    witness = view.lms3_witness
    lms3 = AxiomReport("Lms3", witness is None, witness, witness and "intersection leaks")
    lms4 = AxiomReport("Lms4", True)
    under = view.under  # under[x] = {z : x in z+z}
    for x, row in enumerate(table):
        for y, cell in enumerate(row):
            cands = under[x] & under[y] & cell
            if not cands or cands & (cands - 1):
                reason = "no join candidate" if not cands else "multiple join candidates"
                lms4 = AxiomReport("Lms4", False, (x, y), reason)
                break
        if not lms4.holds:
            break
    return (lms1, lms2, lms3, lms4)


def principal_rows(m: Mosaic) -> tuple[int, ...]:
    """The principal cells read as up-set rows (bit j of row i iff i in j+j),
    unchecked: the order of a table already known to be an L-mosaic, a
    partial order with the neutral at the bottom (Lms1 makes it reflexive
    with the neutral least, Lms4 at (x, x) antisymmetric, Lms2 transitive).
    A caller checks the table first, as reconstruct_from does.  The rows are
    transposed once per table and shared with verify_lmosaic and the
    section-4 lemma battery."""
    return m.op._view.under


def is_reproductive(op: Multioperation) -> AxiomReport:
    """x [.] A = A for every x (row-union check)."""
    full = full_mask(op.size)
    for x, row in enumerate(op.table):
        if reduce(or_, row, 0) != full:
            return AxiomReport("reproductive", False, (x,), "row union misses elements")
    return AxiomReport("reproductive", True)
