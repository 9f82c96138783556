"""The ortholattice <-> dualizable L-mosaic equivalence: functor, inverse
reconstruction, morphism transfer and the mosaic-side orthomodularity test.

The ortholattice side is lattice_core.OrthoPair, whose constructor checks a
pi from outside the program.  Both directions build what the paper's main
theorem proves: functor_E the Nakano mosaic of an ortholattice, the
reconstruction the order that the principal cells of a dualizable table
induce, with pi as orthocomplement, in an OrthoPair built unchecked
(lattice_core._unchecked).  Neither re-checks the theorem; the test suite
does.  A table from outside the program is checked once, by
_dualizability_failure, before it is reconstructed.  A pair's reconstruction
and orthomodularity verdict have one public name each: reconstruct_lattice
and is_orthomodular_mosaic.

The table depends on the order alone, and the rebuilt order on the table
alone, so one lattice carrying many orthocomplementations (MO_5 has 945)
needs one of each.  functor_E and morphism_transfer_check read the additive
Nakano table of a lattice from _NAKANO, a weak map: an entry lives as long
as its lattice, and no table holds its own lattice.  additive_nakano itself
still builds a new table on every call.  A dualizable pair is a plain
(table, pi) value that stores nothing: every reconstruction wraps the
table's induced lattice, Multioperation._induced_lattice, and the
orthomodularity verdict and the associativity verdicts of the generated
subalgebras are kept on the table, keyed by pi.map.

The table-side search reads L-mosaics off the orbit bits of one symmetric
relation and builds a table's lattice only once it passed verify_lmosaic.
"""

from __future__ import annotations

import itertools
import weakref
from dataclasses import dataclass

from .bits import bits, image, least, mask_of
from .errors import (
    InvalidStructure,
    PreconditionFailed,
    ReconstructionFailure,
    SizeMismatch,
    SizeTooLarge,
    _echo,
)
from .hyperstructure import (
    Mosaic,
    Multioperation,
    _carrier_map,
    check_morphism,
    is_associative,
    principal_rows,
    verify_lmosaic,
    verify_mosaic,
)
from .lattice_core import (
    AxiomReport,
    Involution,
    OrthoPair,
    _generated_mask,
    _members,
    _passing,
    _unchecked,
    orthocomplementations,
)
from .nakano import _restricted_op, additive_nakano

# lattice -> the Mosaic of its additive Nakano table
_NAKANO = weakref.WeakKeyDictionary()


def _nakano_mosaic(l) -> Mosaic:
    """The additive Nakano mosaic of l, built once while l lives."""
    mosaic = _NAKANO.get(l)
    if mosaic is None:
        mosaic = _NAKANO[l] = additive_nakano(l).mosaic
    return mosaic


def _dualizability_failure(mosaic: Mosaic, pi: Involution):
    """Why (mosaic, pi) is not a dualizable L-mosaic pair, as (reason,
    witness); None when it is.

    The table checks come first.  pi maps the pi-dual table isomorphically
    onto the table, so the pi-dual is a mosaic exactly when the table is,
    and its L-mosaic axioms are the table's own; the table is checked in its
    place (tests/oracles.dualizability_failure_loops keeps the literal
    pi-dual route).  An involution of another size is a SizeMismatch once
    the table is an L-mosaic.  Then pi must orthocomplement the induced
    order: reverse it, with pi(0) in x + pi(x) for every x.  Without these
    the reconstructed structure is no pi-ortholattice.
    """
    bad = [r for r in verify_lmosaic(mosaic) if not r.holds]
    if bad:
        return f"{bad[0].axiom} fails at {bad[0].witness}", bad[0].witness
    if pi.size != mosaic.size:
        raise SizeMismatch("involution size disagrees with the carrier")
    if not verify_mosaic(mosaic.op).ok:
        return "pi-dual table is not a mosaic", ()
    # the elements below x (its principal cell x+x) must be the pi-images of
    # the elements above pi(x)
    up = principal_rows(mosaic)
    for x, px in enumerate(pi.map):
        wrong = mosaic.cell(x, x) ^ image(up[px], pi.map)
        if wrong:
            return "pi does not reverse the induced order", (x, least(wrong))
    one = pi(mosaic.neutral)
    for x in range(mosaic.size):
        if not mosaic.cell(x, pi(x)) >> one & 1:
            return "pi(x) is no complement of x", (x,)
    return None


@dataclass(frozen=True)
class DualizableLMosaicPair:
    """An L-mosaic with an involution that orthocomplements its induced
    order.  The paper's main theorem makes that order a pi-ortholattice
    and the table its Nakano mosaic.

    A plain value: construction checks nothing, and the pair stores
    nothing.  A Mosaic from outside the program was checked, when built,
    only for a neutral that is neutral and a commutative table.  functor_E
    builds pairs that the paper proves dualizable, and a table from outside
    is checked by reconstruct_from.  What the equivalence derives from a
    pair depends on its table and pi alone, so it is kept on the table,
    keyed by pi: the pairs that functor_E builds from one lattice share one
    Mosaic, and with it the table's induced lattice, the orthomodularity
    verdict of each pi and the associativity verdict of each subalgebra
    that a pi-closed seed set generates.
    """

    mosaic: Mosaic
    pi: Involution

    @property
    def size(self) -> int:
        return self.mosaic.size

    @property
    def one(self) -> int:
        return self.pi(self.mosaic.neutral)


def functor_E(op: OrthoPair) -> DualizableLMosaicPair:
    """Object assignment of the equivalence: the additive Nakano mosaic with
    the same orthocomplementation.  The table is built once per lattice, so
    the images of every pi on one lattice hold the same Mosaic.  The paper's
    main theorem makes the pair dualizable, so it is built unchecked;
    test_equivalence.py runs the full check on the images of the corpus."""
    return DualizableLMosaicPair(_nakano_mosaic(op.lattice), op.pi)


def reconstruct_from(mosaic: Mosaic, pi: Involution) -> OrthoPair:
    """The pi-ortholattice of a table from outside the program: the
    dualizability check, then the inverse functor.  Raises
    ReconstructionFailure when (mosaic, pi) is not a dualizable L-mosaic
    pair."""
    failure = _dualizability_failure(mosaic, pi)
    if failure is not None:
        raise ReconstructionFailure(*failure)
    return reconstruct_lattice(DualizableLMosaicPair(mosaic, pi))


def reconstruct_lattice(p: DualizableLMosaicPair) -> OrthoPair:
    """The inverse functor on a dualizable pair (an image of functor_E, or
    a table that passed the dualizability check): the pi-ortholattice on
    the carrier, with names x0, x1, ..., of the order read off the
    principal cells and pi as its orthocomplementation.  The paper proves
    that this order is a lattice with bounds 0 and pi(0), that pi
    orthocomplements it and that the table is its Nakano mosaic, so none of
    it is checked: the lattice constructor keeps its own input checks, and
    the OrthoPair is built without OrthoPair's check of pi.  The lattice is
    the table's own, built once per table, and each pi's OrthoPair wraps
    it.  tests/test_ortho_kernels.py checks the theorem on every dualizable
    input it has."""
    return _unchecked(OrthoPair, lattice=p.mosaic.op._induced_lattice, pi=p.pi)


@dataclass(frozen=True)
class MorphismTransferReport:
    """Raw lattice/mosaic morphism status of one map plus the pi-intertwining
    flag.  The provable coincidence is between the arrow statuses (morphism
    and intertwining), not the raw ones: they agree when the map does not
    intertwine, or is a morphism on both sides or on neither."""

    map: tuple[int, ...]
    lattice_hom: bool
    mosaic_hom: bool
    intertwines: bool

    @property
    def agree(self) -> bool:
        return not self.intertwines or self.lattice_hom == self.mosaic_hom


def morphism_transfer_check(f, src: OrthoPair, dst: OrthoPair) -> MorphismTransferReport:
    """Whether f is a lattice morphism, a mosaic morphism of the Nakano
    mosaics and intertwines the orthocomplements.  f is checked to be a map
    between the carriers before either side is tested (SizeMismatch).

    The lattice side compares whole join and meet rows (_preserves).  The
    mosaic side reads the Nakano table of each lattice that functor_E reads,
    built once per lattice over all calls."""
    f = _carrier_map(f, src.size, dst.size)
    a, b = src.lattice, dst.lattice
    lattice_hom = _preserves(f, a, b)
    mosaic_hom = check_morphism(f, _nakano_mosaic(a), _nakano_mosaic(b)).holds
    intertwines = all(f[src.pi(x)] == dst.pi(f[x]) for x in range(a.size))
    return MorphismTransferReport(f, lattice_hom, mosaic_hom, intertwines)


def _preserves(f, a, b) -> bool:
    """Whether the map f between the lattices a and b preserves joins and
    meets: the join row of each x, mapped through f, is the join row of
    f(x) read at the images, and likewise the meet row."""
    for rows, targets in ((a.join_table, b.join_table), (a.meet_table, b.meet_table)):
        for row, fx in zip(rows, f):
            images = targets[fx]
            if [f[z] for z in row] != [images[v] for v in f]:
                return False
    return True


def is_orthomodular_mosaic(p: DualizableLMosaicPair) -> AxiomReport:
    """The pair's mosaic-side orthomodularity verdict.  It depends on the
    table and pi alone, so it is kept on the table, keyed by pi.map, and
    the criterion is scanned once per (table, pi) over every pair."""
    reports = p.mosaic.op._orthomodular_reports
    report = reports.get(p.pi.map)
    if report is None:
        report = reports[p.pi.map] = _orthomodular_criterion(p.mosaic, p.pi)
    return report


def _orthomodular_criterion(mosaic: Mosaic, pi: Involution) -> AxiomReport:
    """Criterion: x in y+y and 1 in x + pi(y) imply x = y, with 1 = pi(0).

    Read row by row: the y with x in y+y are the principal row of x, read
    off the diagonal as it stands, and for each of them, in ascending
    order, the cell x + pi(y) is tested for 1.  That is the order of the
    pairwise scan, so the witness is the least (x, y)."""
    one, table, p = pi(mosaic.neutral), mosaic.op.table, pi.map
    for x, above in enumerate(principal_rows(mosaic)):
        row = table[x]
        for y in bits(above & ~(1 << x)):
            if row[p[y]] >> one & 1:
                return AxiomReport("orthomodular-mosaic", False, (x, y), "criterion violated")
    return _passing("orthomodular-mosaic")


def generated_polygroup_check(p: DualizableLMosaicPair, x: int, y: int) -> AxiomReport:
    """Smallest pi-closed L-submosaic containing x and y, realized through the
    reconstructed lattice; its restricted multioperation must be an
    associative mosaic (a polygroup).

    p.mosaic is the Nakano mosaic of the table's induced lattice (the
    paper's main theorem), and the generated subset is a sublattice holding
    0, so the restriction is the Nakano mosaic of that sublattice: a mosaic
    by theorem, of which only associativity is checked.  {x, y} generates
    what its pi-closed seed set {x, y, pi(x), pi(y), 0, 1} generates, and
    the closure and the restriction depend on the table, pi and that seed
    set alone.  So the verdict is kept on the table, keyed by (pi.map, seed
    set): each seed set is closed and restricted once per (table, pi), over
    every pair on the table, and a failing report carries its own (x, y).
    x and y past the carrier raise SizeMismatch."""
    _members(p.mosaic.size, (x, y))
    if not is_orthomodular_mosaic(p).holds:
        raise PreconditionFailed("mosaic is not orthomodular")
    op, pm = p.mosaic.op, p.pi.map
    seeds = mask_of((x, y, pm[x], pm[y], p.mosaic.neutral, p.one))
    verdicts = op._polygroup_verdicts
    if (pm, seeds) not in verdicts:
        generated = _generated_mask(op._induced_lattice, seeds, p.pi)
        verdicts[pm, seeds] = is_associative(_restricted_op(op.table, list(bits(generated)))).holds
    if not verdicts[pm, seeds]:
        return AxiomReport("generated-polygroup", False, (x, y), "restriction not associative")
    return _passing("generated-polygroup")


# -- exhaustive search for dualizable pairs on tiny carriers -------------------


def _lmosaic_tables(n: int):
    """Every L-mosaic on 0..n-1 with neutral 0, read off the orbit bits of
    one symmetric relation and built unchecked.

    Lms1 puts 0 in x+x, so every x is its own inverse and the Mosaic's rho
    is the identity, and a commutative table that is reversible for it
    holds "z in x+y" symmetrically in x, y and z.  So a candidate is one
    bit per 3-element multiset: commutative, unital, with unique inverses
    and reversible by construction.  The neutral 0 fixes every multiset
    that holds 0 ({0, x, x} in, {0, x, y} out), Lms1 puts {x, x, x} in, and
    the other multisets are free.  A candidate is a mosaic exactly when no
    cell is empty (tests/oracles.lmosaic_tables_loops checks that cell by
    cell), so no verify_mosaic runs and verify_lmosaic alone decides."""
    free = [t for t in itertools.combinations_with_replacement(range(1, n), 3) if t[0] != t[2]]
    orbits = [set(itertools.permutations(t)) for t in free]
    base = [[0] * n for _ in range(n)]
    for x in range(n):  # the fixed bits {0, x, x} and {x, x, x}
        base[0][x] = base[x][0] = 1 << x
        base[x][x] |= 1 | 1 << x
    for choice in range(1 << len(free)):
        table = [row[:] for row in base]
        for k in bits(choice):
            for x, y, z in orbits[k]:
                table[x][y] |= 1 << z
        if any(0 in row for row in table):
            continue
        op = _unchecked(Multioperation, size=n, table=tuple(map(tuple, table)))
        mosaic = _unchecked(Mosaic, op=op, neutral=0)
        if all(r.holds for r in verify_lmosaic(mosaic)):
            yield mosaic


def enumerate_dualizable_pairs(max_n: int):
    """Exhaustively discover (L-mosaic, pi) pairs on carriers up to max_n <= 4:
    each table of _lmosaic_tables with the orthocomplementations of its
    induced lattice, the one reconstruct_lattice reads, found once per
    table.  With Lms4 they are exactly the involutions that pass
    _dualizability_failure.  InvalidStructure for a max_n that is no int (a
    bool included)."""
    if type(max_n) is not int:
        raise InvalidStructure(f"the size must be an int, got {_echo(max_n)}")
    if max_n > 4:
        raise SizeTooLarge("raw table search is capped at carrier size 4")
    out = []
    for n in range(1, max_n + 1):
        for mosaic in _lmosaic_tables(n):
            pis = orthocomplementations(mosaic.op._induced_lattice)
            out.extend(DualizableLMosaicPair(mosaic, pi) for pi in pis)
    return out
