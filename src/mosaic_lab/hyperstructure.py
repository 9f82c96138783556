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
from .lattice_core import (
    AxiomReport,
    FiniteBoundedLattice,
    Involution,
    _members,
    _passing,
    _unchecked,
    _verdict,
    from_leq,
)


@dataclass(frozen=True)
class Multioperation:
    """n x n table of carrier subsets.

    What several checks read off the table (the cube, the packed rows,
    their unions, the principal rows and the lattice they induce, and the
    one scan of the pairs y >= x that gives the Lms2, Lms3 and Lms4
    witnesses) is derived once per table, on first use, in the private
    cached properties below.  So are two dicts of what the
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
    masks built once per width.  The packed rows and their unions use the
    same slot width.

    The constructor stores the table as a tuple of tuples, whatever
    iterable of rows it is given, as Involution stores its map, and checks
    the size, the shape and every cell before anything is indexed."""

    size: int
    table: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        n = self.size
        if type(n) is not int or n < 0:
            raise InvalidStructure(f"the size must be a non-negative int, got {_echo(n)}")
        try:
            table = tuple(map(tuple, self.table))
        except TypeError:
            raise InvalidStructure(f"the table must be a sequence of rows, got {_echo(self.table)}") from None
        object.__setattr__(self, "table", table)
        full = full_mask(n)
        if len(table) != n or not set(map(len, table)) <= {n}:
            raise SizeMismatch("table is not size x size")
        # one pass tests each cell's type (a bool is no mask) and then its range
        for row in table:
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
        return Multioperation(self.size, table)

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
    def _pair_scan(self):
        """(Lms2's, Lms3's and Lms4's least witnesses, Lms4's reason), each
        witness None where its axiom holds: one scan of the pairs y >= x.

        Read only off a Mosaic's table, which is commutative, so (x, y)
        and (y, x) test alike and the least failing pair has x <= y.  The
        head of row x tests Lms2: with C = x+x, C+C is the OR of the slots
        b in C of _row_unions[C], which packs C+z for every z.  With
        C = x+y, x+(x+y) = C+x and (x+y)+y = C+y are slots x and y of
        _row_unions[C]; Lms3 fails where both leak outside C.  Lms4's join
        candidates are under[x] & under[y] & C.  The scan stops once all
        three witnesses are found."""
        w, slot = self._masks.width, self._masks.slot
        unions, under = self._row_unions, self._under  # under[x] = {z : x in z+z}
        lms2 = lms3 = lms4 = reason = None
        for x, (row, ux) in enumerate(zip(self.table, under)):
            if lms2 is None:
                cell, packed = row[x], unions[row[x]]
                if reduce(or_, (packed >> w * b & slot for b in bits(cell)), 0) != cell:
                    lms2 = (x,)
            for y, cell in enumerate(row[x:], x):
                if lms3 is None:
                    packed = unions[cell]
                    if packed >> w * x & packed >> w * y & slot & ~cell:
                        lms3 = (x, y)
                if lms4 is None:
                    cands = ux & under[y] & cell
                    if not cands or cands & (cands - 1):
                        lms4, reason = (x, y), "multiple join candidates" if cands else "no join candidate"
                if lms3 and lms4:
                    break
            if lms2 and lms3 and lms4:
                break
        return lms2, lms3, lms4, reason


@dataclass(frozen=True)
class Mosaic:
    """Commutative unital magma with unique inverses, reversible with
    respect to its inverse map rho.

    A Mosaic is its table and its neutral.  The constructor checks a Mosaic
    from outside the program: a Multioperation, an int neutral that is
    neutral, then a commutative table.  verify_mosaic, additive_nakano and
    the table-side search of equivalence build theirs by
    lattice_core._unchecked.  The neutral's row and column are each
    compared whole with the units {x}, one tuple per n that find_neutral
    shares; only when one differs is the least x where it does looked for,
    for the error.
    """

    op: Multioperation
    neutral: int

    def __post_init__(self):
        if not isinstance(self.op, Multioperation):
            raise InvalidStructure(f"the operation must be a Multioperation, got {_echo(self.op)}")
        n, e = self.op.size, self.neutral
        if type(e) is not int:
            raise InvalidStructure(f"the neutral must be an int, got {_echo(e)}")
        if not 0 <= e < n:
            raise SizeMismatch("the neutral lies outside the carrier")
        table, units = self.op.table, _units(n)
        if table[e] != units or tuple(map(itemgetter(e), table)) != units:
            x = next(x for x in range(n) if table[e][x] != units[x] or table[x][e] != units[x])
            raise InvalidStructure(f"{e} is not neutral at {x}")
        asymmetry = _asymmetry(table)
        if asymmetry is not None:
            raise InvalidStructure(f"not commutative at {asymmetry}")

    @cached_property
    def rho(self) -> Involution:
        """The inverse map, rho(x) the unique inverse of x, which the table
        fixes: the map verify_mosaic derives, which it hands to the Mosaic
        it builds, so no table derives it twice.  InvalidStructure names
        verify_mosaic's first failing axiom and its witness when the table
        is no mosaic.  Outside ==, hash and repr."""
        got = verify_mosaic(self.op)
        if got.mosaic is None:
            bad = next(r for r in got.reports if not r.holds)
            raise InvalidStructure(f"the table is no mosaic: {bad.axiom} fails at {bad.witness}")
        return got.mosaic.rho

    @property
    def size(self) -> int:
        return self.op.size

    def cell(self, x: int, y: int) -> int:
        return self.op.cell(x, y)


@cache
def _units(n: int) -> tuple[int, ...]:
    """The row and the column of a neutral element of an n-element table."""
    return tuple(1 << x for x in range(n))


def _asymmetry(table):
    """The least (x, y) with x.y != y.x, or None: row x against column x."""
    for x, (row, col) in enumerate(zip(table, zip(*table))):
        if row != col:
            return x, next(y for y, (a, b) in enumerate(zip(row, col)) if a != b)
    return None


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
    lowest set bit is the least witness (x, y, z).  The stages prove the
    Mosaic constructor's checks, and on a commutative table unique inverses
    make the inverse map an involution, so a passing table's Mosaic and a
    rho other than the identity are built by lattice_core._unchecked; the
    Mosaic holds the map as its rho."""
    n, table = op.size, op.table
    empty = next(((x, row.index(0)) for x, row in enumerate(table) if 0 in row), None)
    reports = [_verdict("commutative", _asymmetry(table), "cell asymmetry"), _verdict("total", empty, "empty cell")]
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
        rho = _unchecked(Involution, map=tuple(inv))
        block = (1 << w * w) - 1
        flip = _pack([flip >> w * w * v & block for v in inv], w * w)
    bad = cube & ~(flip & _swap(flip, masks.swap01))
    if bad:
        slot, z = divmod(least(bad), w)
        reports.append(AxiomReport("reversible", False, (*divmod(slot, w), z), "RE fails"))
        return MosaicVerification(tuple(reports), None)
    reports.append(_passing("reversible"))
    reports.append(_passing("lemma1-consequences"))

    return MosaicVerification(tuple(reports), _unchecked(Mosaic, op=op, neutral=e, rho=rho))


def _pack(cells, width: int) -> int:
    """The cells side by side in one integer, cell k at bit offset width*k."""
    out = 0
    for cell in reversed(cells):
        out = out << width | cell
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
        columns = _pack([((1 << unit * k) - 1) << unit * k] * (w // (2 * k)), 2 * k * unit)
        rows = _pack([_pack([1] * k, w * unit)] * (w // (2 * k)), 2 * k * w * unit)
        steps.append((k * (w - 1) * unit, _pack([columns * rows] * copies, w * w * unit)))
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
    (swap01), one full slot (slot) and the low bit of every slot of the
    cube (low).  They serve verify_mosaic and is_associative; the checks
    that read a pair at a time scan the rows."""

    def __init__(self, w: int):
        self.width, self.slot = w, (1 << w) - 1
        self.swap12 = _transpose_steps(w, 1, w)
        self.swap01 = _transpose_steps(w, w, 1)
        self.low = _pack([_pack([1] * w, w)] * w, w * w)


_masks_of = cache(_Masks)


class _PackedUnions(dict):
    """M -> the OR of planes[w] over the members w of M, made on first use."""

    def __init__(self, planes):
        super().__init__()
        self.planes = planes

    def __missing__(self, m: int) -> int:
        acc, planes = 0, self.planes
        for w in bits(m):
            acc |= planes[w]
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
    Both tables are commutative, so (x, y) and (y, x) test the same cell
    against the same target cell, and only the pairs y >= x are read.
    tests/oracles.morphism_loops keeps the literal test.  The report's
    axiom is "morphism-morphism"."""
    f = _carrier_map(f, a.size, b.size)
    name = "morphism-morphism"
    if f[a.neutral] != b.neutral:
        return AxiomReport(name, False, (a.neutral,), "not unitary")
    target = b.op.table
    for x, row in enumerate(a.op.table):
        images = target[f[x]]  # images[v] = f(x) [.] v
        for y, cell in enumerate(row[x:], x):
            if image(cell, f) & ~images[f[y]]:
                return AxiomReport(name, False, (x, y), "cell condition fails")
    return _passing(name)


# -- L-mosaics ----------------------------------------------------------------


def verify_lmosaic(m: Mosaic) -> tuple[AxiomReport, ...]:
    """The four L-mosaic axioms; Lms4 failures report zero or multiple join
    candidates at the witness pair.  The one scan of the pairs y >= x that
    gives Lms2's, Lms3's and Lms4's witnesses is the table's own, which the
    section-4 lemma battery shares: whichever runs first derives it, once
    per table."""
    e, op = m.neutral, m.op
    lms1 = _passing("Lms1")
    for x, row in enumerate(op.table):
        if not (row[x] >> e & 1 and row[x] >> x & 1):
            lms1 = AxiomReport("Lms1", False, (x,), "0,x not both in x+x")
            break
    lms2, lms3, lms4, reason = op._pair_scan
    return (lms1, _verdict("Lms2", lms2, "(x+x)+(x+x) != x+x"),
            _verdict("Lms3", lms3, "intersection leaks"), _verdict("Lms4", lms4, reason))


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
