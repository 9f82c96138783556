"""Multivalued operations and the mosaic axiom stack: magmas, neutral elements,
reversibility, mosaics, polygroups, morphisms, the L-mosaic axioms and the
order that the principal cells of an L-mosaic induce.

Table cells are bitmask subsets of the carrier; empty cells are representable
(partial magma) but rejected by verify_mosaic.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property, reduce
from operator import itemgetter, or_

from .bits import bits, elements, full_mask, image, least, mask_of, transpose
from .errors import InvalidStructure, SizeMismatch, _echo
from .lattice_core import AxiomReport, FiniteBoundedLattice, Involution, _members, _passing, _verdict, from_leq


@dataclass(frozen=True)
class Multioperation:
    """n x n table of carrier subsets.

    What several checks read off the table (the cube, the packed rows,
    their unions, the principal rows and the lattice they induce, the Lms2
    and Lms3 witnesses) is derived once per table, on first use, in the
    private cached properties below.  So are two dicts of what the
    equivalence derives from the table and an orthocomplementation pi, keyed
    by pi.map: the orthomodularity report, and the associativity verdict of
    the subalgebra each pi-closed seed set generates.  They take no part in
    ==, hash or repr, and live exactly as long as the table: with_cell
    makes a new table.

    The whole table is one integer, the cube: with the slot width w, the
    least power of two >= n, bit w*(w*x + y) + z is set iff z is in x.y.
    Axis 0 is x, axis 1 is y, axis 2 is z; block x is the w*w bits of one
    row of the table and slot (x, y) the w bits of one cell.  Swapping two
    axes is a bit-matrix transpose of log2(w) shift-xor-mask steps, with
    masks built once per width, so a check over all cells takes a fixed
    number of integer operations.  The packed rows and their unions use the
    same slot width."""

    size: int
    table: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        full = full_mask(self.size)
        if len(self.table) != self.size or not set(map(len, self.table)) <= {self.size}:
            raise SizeMismatch("table is not size x size")
        # one pass tests each cell's type (a bool is no mask) and then its range
        for row in self.table:
            for cell in row:
                if type(cell) is not int:
                    raise InvalidStructure(f"table cells must be int bitmasks, got {_echo(cell)}")
                if not 0 <= cell <= full:
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
        """Copy with one cell replaced (mutation testing helper); SizeMismatch
        when x, y or a member of zs lies outside the carrier."""
        zs = tuple(zs)
        _members(self.size, (x, y, *zs))
        table = [list(r) for r in self.table]
        table[x][y] = mask_of(zs)
        return Multioperation(self.size, tuple(tuple(r) for r in table))

    @cached_property
    def _masks(self) -> "_Masks":
        return _masks_of(1 << max(self.size - 1, 0).bit_length())

    @cached_property
    def _packed_rows(self) -> list[int]:
        """Row x as one integer, the cell x.y at bit offset w*y."""
        w = self._masks.width
        return [_pack(row, w) for row in self.table]

    @cached_property
    def _cube(self) -> int:
        return _pack(self._packed_rows, self._masks.width ** 2)

    @cached_property
    def _row_unions(self) -> "_PackedUnions":
        """_row_unions[M] packs M.z for every z."""
        return _PackedUnions(self._packed_rows)

    @cached_property
    def _column_unions(self) -> "_PackedUnions":
        """_column_unions[M] packs x.M for every x; the same object as
        _row_unions when the table is commutative."""
        columns = tuple(zip(*self.table))
        if columns == self.table:
            return self._row_unions
        w = self._masks.width
        return _PackedUnions([_pack(col, w) for col in columns])

    @cached_property
    def _under(self) -> tuple[int, ...]:
        """_under[x] = {z : x in z.z}: the principal cells as up-set rows."""
        return tuple(transpose([row[j] for j, row in enumerate(self.table)]))

    @cached_property
    def _induced_lattice(self) -> FiniteBoundedLattice:
        """The lattice of _under on names x0, x1, ...: the inverse functor's
        lattice, which every pi on this table shares.  Like principal_rows
        it is read only off a table known to be an L-mosaic; from_leq
        refuses rows that are no lattice order."""
        return from_leq([f"x{i}" for i in range(self.size)], self._under)

    @cached_property
    def _orthomodular_reports(self) -> dict:
        """pi.map -> the orthomodularity report of (this table, pi); filled
        by equivalence.is_orthomodular_mosaic."""
        return {}

    @cached_property
    def _polygroup_verdicts(self) -> dict:
        """(pi.map, pi-closed seed set) -> whether the table restricted to
        the subalgebra it generates is associative; filled by
        equivalence.generated_polygroup_check."""
        return {}

    @cached_property
    def _lms2_witness(self):
        """(x,) for the least x with (x+x)+(x+x) != x+x, or None.

        With C = x+x, C+C is the union of the cells at the slots b in C of
        _row_unions[C], which packs C.z for every z: |C| slot reads, not |C|^2
        cell reads, and the unions are those is_associative reads."""
        w, slot, unions = self._masks.width, self._masks.slot, self._row_unions
        for x, row in enumerate(self.table):
            cell, acc = row[x], 0
            packed = unions[cell]
            for b in bits(cell):
                acc |= packed >> w * b & slot
            if acc != cell:
                return (x,)
        return None

    @cached_property
    def _lms3_witness(self):
        """The least (x, y) with (x+(x+y)) & ((x+y)+y) not inside x+y, or None.

        x+(x+y) is slot (x, y) of the per-block square of the cube, and
        (x+y)+y slot (x, y) of the square of the cube with axes 0 and 1
        swapped, swapped back; on a commutative table, which _column_unions
        tells, the two squares are one."""
        n, masks, cube = self.size, self._masks, self._cube
        left = _square(cube, n, masks)
        commutative = self._column_unions is self._row_unions
        right = left if commutative else _square(_swap(cube, masks.swap01), n, masks)
        bad = left & _swap(right, masks.swap01) & ~cube
        return divmod(least(bad) // masks.width, masks.width) if bad else None

    def _antisym_witness(self):
        """The least (x, y) where x and y both lie in x.y but x != y, or
        where x is not in x.x; None if there is none.  Bit x and bit y of
        every slot (x, y) are masked and tested slot-wise for nonzero, and
        the slots where both are set must be the n diagonal slots."""
        n, masks, cube = self.size, self._masks, self._cube
        w = masks.width
        both = _nonzero(cube & masks.own_x, masks) & _nonzero(cube & masks.own_y, masks)
        bad = both ^ _repeat(1 << w - 1, w * w + w, n)
        return divmod(least(bad) // w, w) if bad else None


@dataclass(frozen=True)
class Mosaic:
    """Commutative unital magma, reversible with respect to rho.

    rho(x) is the unique inverse of x.  Construction checks only that the
    neutral is neutral and that rho fixes it: verify_mosaic builds a Mosaic
    from a table not yet known to be one, and a constructor whose tables are
    mosaics by theorem (the Nakano mosaics) passes the neutral and rho itself.
    The neutral's row and column are each compared whole with the units
    {x}, one tuple per n that find_neutral shares; only when one differs is
    the least x where it does looked for, for the error.
    """

    op: Multioperation
    neutral: int
    rho: Involution

    def __post_init__(self):
        n = self.op.size
        if self.rho.size != n or not 0 <= self.neutral < n:
            raise SizeMismatch("carrier sizes disagree")
        e, table, units = self.neutral, self.op.table, _units(n)
        if table[e] != units or tuple(map(itemgetter(e), table)) != units:
            x = next(x for x in range(n) if table[e][x] != units[x] or table[x][e] != units[x])
            raise InvalidStructure(f"{e} is not neutral at {x}")
        if self.rho(e) != e:
            raise InvalidStructure("rho does not fix the neutral element")

    @property
    def size(self) -> int:
        return self.op.size

    def cell(self, x: int, y: int) -> int:
        return self.op.cell(x, y)


@cache
def _units(n: int) -> tuple[int, ...]:
    """The row and the column of a neutral element of an n-element table."""
    return tuple(1 << x for x in range(n))


def find_neutral(op: Multioperation):
    """The unique neutral element, or None."""
    units = _units(op.size)
    for e, row in enumerate(op.table):
        if row == units and tuple(map(itemgetter(e), op.table)) == units:
            return e
    return None


@dataclass(frozen=True)
class MosaicVerification:
    reports: tuple[AxiomReport, ...]
    mosaic: Mosaic | None

    @property
    def ok(self) -> bool:
        return self.mosaic is not None


def verify_mosaic(op: Multioperation) -> MosaicVerification:
    """Full pipeline: commutative, total, neutral, unique inverses, rho := inverse
    map, reversibility.  On success it also reports the structural
    consequences that Lemma 1 derives from these (rho fixes neutral, rho is a
    strong iso onto the dual operation, RINV and the three-way membership
    equivalences); tests/oracles.py checks them on every table the kernel
    tests pass.

    Past the commutativity stage the checks read the table's cube C (see
    Multioperation) with its axes 1 and 2 swapped: slot (v, u) of T holds
    {t : u in v.t}.  The inverses of x are slot (x, e) of T.  With
    commutativity "x in z.rho(y)" is "z in T[rho(y)][x]", so with T1 the
    cube whose block y is block rho(y) of T, the cells that break
    reversibility are C & ~(T1 & T1 with axes 0 and 1 swapped), and the
    lowest set bit is the least witness (x, y, z)."""
    n = op.size
    table = op.table
    reports = []

    witness = None
    for x, (row, col) in enumerate(zip(table, zip(*table))):
        if row != col:
            witness = (x, next(y for y in range(n) if row[y] != col[y]))
            break
    reports.append(_verdict("commutative", witness, "cell asymmetry"))
    witness = next(((x, row.index(0)) for x, row in enumerate(table) if 0 in row), None)
    reports.append(_verdict("total", witness, "empty cell"))
    if not all(r.holds for r in reports):
        return MosaicVerification(tuple(reports), None)

    e = find_neutral(op)
    if e is None:
        reports.append(AxiomReport("neutral", False, (), "no neutral element"))
        return MosaicVerification(tuple(reports), None)
    reports.append(_passing("neutral"))

    masks, cube = op._masks, op._cube
    w = masks.width
    flip = _swap(cube, masks.swap12)
    inv = []
    for x in range(n):
        ys = flip >> w * (w * x + e) & masks.slot
        if not ys or ys & (ys - 1):
            reason = "no inverse" if not ys else "multiple inverses"
            reports.append(AxiomReport("unique-inverses", False, (x,), reason))
            return MosaicVerification(tuple(reports), None)
        inv.append(least(ys))
    reports.append(_passing("unique-inverses"))

    if inv == list(range(n)):
        rho = Involution.identity(n)
    else:
        rho = Involution(tuple(inv))
        block = (1 << w * w) - 1
        flip = _pack([flip >> w * w * v & block for v in inv], w * w)
    bad = cube & ~(flip & _swap(flip, masks.swap01))
    if bad:
        slot, z = divmod(least(bad), w)
        reports.append(AxiomReport("reversible", False, (*divmod(slot, w), z), "RE fails"))
        return MosaicVerification(tuple(reports), None)
    reports.append(_passing("reversible"))
    reports.append(_passing("lemma1-consequences"))

    return MosaicVerification(tuple(reports), Mosaic(op, e, rho))


def _pack(cells, width: int) -> int:
    """The cells side by side in one integer, cell k at bit offset width*k."""
    out = 0
    for cell in reversed(cells):
        out = out << width | cell
    return out


def _repeat(pattern: int, stride: int, count: int) -> int:
    """count copies of pattern, copy k at bit offset stride*k; the copies
    must not overlap.  pattern doubles its copies at each step, and the
    steps at the set bits of count go into the result."""
    out = offset = 0
    while count:
        if count & 1:
            out |= pattern << offset
            offset += stride
        count >>= 1
        if count:
            pattern |= pattern << stride
            stride *= 2
    return out


def _transpose_steps(w: int, unit: int, copies: int):
    """(shift, mask) steps that transpose each of copies w x w matrices of
    unit-bit entries, laid out row-major one after the other.  Step k swaps
    bit k of the row and column indices: the entries (r, c) with bit k of r
    clear and of c set trade places with (r + k, c - k), k * (w - 1)
    entries further up (Warren, Hacker's Delight, 2nd ed., section 7-3)."""
    steps = []
    k = w // 2
    while k:
        columns = _repeat(((1 << unit * k) - 1) << unit * k, 2 * k * unit, w // (2 * k))
        rows = _repeat(_repeat(1, w * unit, k), 2 * k * w * unit, w // (2 * k))
        steps.append((k * (w - 1) * unit, _repeat(columns * rows, w * w * unit, copies)))
        k //= 2
    return tuple(steps)


def _swap(cube: int, steps) -> int:
    """cube with two axes swapped by the steps of _transpose_steps."""
    for shift, mask in steps:
        t = (cube ^ cube >> shift) & mask
        cube ^= t | t << shift
    return cube


class _Masks:
    """The constant masks of every cube of slot width w (see Multioperation):
    the transpose steps that swap axes 1 and 2 (swap12) and axes 0 and 1
    (swap01), one full slot (slot), bit 0 of every slot of one block
    (slots) and of every block (blocks), the low and the top bit of every
    slot of the cube, and bit x and bit y of every slot (x, y)."""

    def __init__(self, w: int):
        self.width, self.slot = w, (1 << w) - 1
        self.swap12 = _transpose_steps(w, 1, w)
        self.swap01 = _transpose_steps(w, w, 1)
        self.slots = _repeat(1, w, w)
        self.blocks = _repeat(1, w * w, w)
        self.low = self.slots * self.blocks
        self.high = self.low << w - 1
        self.own_x = _repeat(1, w * w + 1, w) * self.slots  # bit x of slot (x, y)
        self.own_y = _repeat(1, w + 1, w) * self.blocks  # bit y of slot (x, y)


_masks_of = cache(_Masks)


def _nonzero(v: int, masks: _Masks) -> int:
    """The top bit of every slot of the cube v that is not empty: the low
    bits of a slot, plus all ones below the top, carry into the top bit
    iff one of them is set."""
    high = masks.high
    return ((v & ~high) + (high - masks.low) | v) & high


def _square(cube: int, n: int, masks: _Masks) -> int:
    """Per block x, the Boolean square of the relation y -> x.y: slot (x, y)
    holds the union of x.u over the members u of x.y.  For each u, cell x.u
    of every block x is copied to all slots of its block and kept in the
    slots whose cell holds u."""
    w, first = masks.width, masks.blocks * masks.slot  # slot 0 of every block
    out = 0
    for u in range(n):
        out |= (cube >> w * u & first) * masks.slots & (cube >> u & masks.low) * masks.slot
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


def is_associative(op: Multioperation) -> AxiomReport:
    """(x [.] y) [.] z = x [.] (y [.] z), set-extended on both sides.

    For a fixed x both sides over all (y, z) fill one integer laid out as
    the table's cube (see Multioperation): the w-bit cell of slot (y, z) at bit
    offset w*(w*y + z).  The left side x.(y.z) is the OR over u of x.u
    times the cube's bit u of every slot, moved to the slot's low bit.  The
    right side (x.y).z places, for each y, the union of the packed rows of
    the members of x.y in block y.  The lowest bit where the two differ is
    the least (y, z).  The cube, the packed rows and their unions are the
    table's own, derived once per table."""
    n, table, masks, cube = op.size, op.table, op._masks, op._cube
    w, low = masks.width, masks.low
    marks = [cube >> u & low for u in range(n)]
    unions = op._row_unions  # unions[M]: M.z for every z
    for x, row in enumerate(table):
        left = 0
        for cell, mark in zip(row, marks):
            left |= cell * mark
        diff = left ^ _pack([unions[xy] for xy in row], w * w)
        if diff:
            slot = least(diff) // w
            return AxiomReport("associative", False, (x, *divmod(slot, w)), "associativity")
    return _passing("associative")


def _carrier_map(f, source_size: int, target_size: int) -> tuple[int, ...]:
    """f as a tuple, once it is checked to map every element of a carrier
    of source_size into one of target_size: SizeMismatch otherwise, and
    InvalidStructure for an entry that is no int (a bool included)."""
    f = tuple(f)
    if any(type(v) is not int for v in f):
        raise InvalidStructure(f"map entries must be ints, got {_echo(f)}")
    if len(f) != source_size or any(not 0 <= v < target_size for v in f):
        raise SizeMismatch("f is not a map between the carriers")
    return f


def check_morphism(f, a: Mosaic, b: Mosaic) -> AxiomReport:
    """Mosaic morphism: unitary, and f(x [.] y) inside f(x) [.] f(y) for every
    cell.  Inverse preservation follows, so it is not tested: the neutral e
    is in x.rho(x), so f(e), the neutral of b, is in f(x).f(rho(x)), and
    f(rho(x)) is an inverse of f(x), whose one inverse in b is rho'(f(x)).
    That needs each rho to be its mosaic's inverse map, as verify_mosaic and
    the Nakano constructors build it; Mosaic itself checks only that rho
    fixes the neutral, so for a hand-built rho the report says nothing about
    inverses.  tests/oracles.morphism_loops keeps the literal test.  The
    report's axiom is "morphism-morphism"."""
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
    return _passing(name)


# -- L-mosaics ----------------------------------------------------------------


def verify_lmosaic(m: Mosaic) -> tuple[AxiomReport, ...]:
    """The four L-mosaic axioms; Lms4 failures report zero or multiple join
    candidates at the witness pair.  Lms2, Lms3 and the principal rows that
    Lms4 reads are the table's own, which the section-4 lemma battery
    shares: whichever runs first derives them, once per table.

    Lms4 runs on the whole cube (see Multioperation) at once: the cube masked
    by under[x] in every slot of block x and by under[y] in slot y of every
    block holds the join candidates of each (x, y), and two slot-wise
    tests, nonzero and "more than one bit", find the pairs without exactly
    one among the n x n slots in use."""
    e, op = m.neutral, m.op
    lms1 = _passing("Lms1")
    for x, row in enumerate(op.table):
        if not (row[x] >> e & 1 and row[x] >> x & 1):
            lms1 = AxiomReport("Lms1", False, (x,), "0,x not both in x+x")
            break
    lms2 = _verdict("Lms2", op._lms2_witness, "(x+x)+(x+x) != x+x")
    lms3 = _verdict("Lms3", op._lms3_witness, "intersection leaks")
    n, masks = m.size, op._masks
    w = masks.width
    under = op._under  # under[x] = {z : x in z+z}
    cands = op._cube & _pack(under, w * w) * masks.slots & _pack(under, w) * masks.blocks
    high = masks.high
    multiple = _nonzero(cands & (cands | high) - masks.low, masks)
    bad = _repeat(_repeat(1 << w - 1, w, n), w * w, n) & ~_nonzero(cands, masks) | multiple
    if bad:
        slot = least(bad) // w
        reason = "multiple join candidates" if multiple >> w * slot & masks.slot else "no join candidate"
        lms4 = AxiomReport("Lms4", False, divmod(slot, w), reason)
    else:
        lms4 = _passing("Lms4")
    return (lms1, lms2, lms3, lms4)


def principal_rows(m: Mosaic) -> tuple[int, ...]:
    """The principal cells read as up-set rows (bit j of row i iff i in j+j),
    unchecked: the order of a table already known to be an L-mosaic, a
    partial order with the neutral at the bottom (Lms1 makes it reflexive
    with the neutral least, Lms4 at (x, x) antisymmetric, Lms2 transitive).
    A caller checks the table first, as reconstruct_from does.  The rows are
    transposed once per table and shared with verify_lmosaic and the
    section-4 lemma battery."""
    return m.op._under


def is_reproductive(op: Multioperation) -> AxiomReport:
    """x [.] A = A for every x (row-union check)."""
    full = full_mask(op.size)
    for x, row in enumerate(op.table):
        if reduce(or_, row, 0) != full:
            return AxiomReport("reproductive", False, (x,), "row union misses elements")
    return _passing("reproductive")
