"""Additive and multiplicative Nakano mosaics of bounded lattices.

N_v(x,y) = {z : x v y = x v z = z v y} with neutral 0 (additive);
N_^(x,y) = {z : x ^ y = x ^ z = z ^ y} with neutral 1 (multiplicative).
Tables are materialized eagerly; every element is its own inverse.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bits import bits, mask_of
from .errors import MissingBound, NoUniqueExtremum, NotASubmosaic
from .hyperstructure import Mosaic, Multioperation, is_reproductive, verify_mosaic
from .lattice_core import AxiomReport, FiniteBoundedLattice, Involution, sublattice

ADDITIVE = "additive"
MULTIPLICATIVE = "multiplicative"


@dataclass(frozen=True)
class NakanoMosaic:
    base: FiniteBoundedLattice
    flavor: str
    mosaic: Mosaic

    def __post_init__(self):
        if self.flavor not in (ADDITIVE, MULTIPLICATIVE):
            raise ValueError(f"unknown flavor {self.flavor!r}")
        if self.base.size != self.mosaic.size:
            raise ValueError("carrier sizes disagree")

    @property
    def size(self) -> int:
        return self.base.size

    def cell(self, x: int, y: int) -> int:
        return self.mosaic.cell(x, y)


def _nakano_table(l: FiniteBoundedLattice, binop) -> Multioperation:
    n = l.size

    def cell(x, y):
        t = binop(x, y)
        return mask_of(z for z in range(n) if binop(x, z) == t and binop(z, y) == t)

    return Multioperation.build(n, cell)


def additive_nakano(l: FiniteBoundedLattice) -> NakanoMosaic:
    """The mosaic (L, N_v, 0); commutative, total, reproductive, rho = id."""
    got = verify_mosaic(_nakano_table(l, l.join))
    assert got.ok, "additive Nakano table failed the mosaic pipeline"
    assert got.mosaic.neutral == l.bottom
    assert got.mosaic.rho == Involution.identity(l.size)
    return NakanoMosaic(l, ADDITIVE, got.mosaic)


def multiplicative_nakano(l: FiniteBoundedLattice) -> NakanoMosaic:
    """The mosaic (L, N_^, 1); cell-for-cell the additive mosaic of the dual."""
    got = verify_mosaic(_nakano_table(l, l.meet))
    assert got.ok, "multiplicative Nakano table failed the mosaic pipeline"
    assert got.mosaic.neutral == l.top
    assert got.mosaic.rho == Involution.identity(l.size)
    return NakanoMosaic(l, MULTIPLICATIVE, got.mosaic)


def extremum_by_characterization(m: NakanoMosaic) -> int:
    """The unique u with: u in x+x implies x = u.  Top for additive mosaics,
    bottom for multiplicative ones; anything else signals a corrupted table."""
    n = m.size
    found = [
        u for u in range(n)
        if all(not m.cell(x, x) >> u & 1 for x in range(n) if x != u)
    ]
    if len(found) != 1:
        raise NoUniqueExtremum(f"candidates: {found}")
    return found[0]


def restrict_to_sublattice(m: NakanoMosaic, sub) -> Mosaic:
    """Cellwise intersection with a meet/join-closed subset containing the
    flavor's neutral bound; index k of the result is sorted(sub)[k].  Equals
    the Nakano mosaic of the sublattice; raises NotASubmosaic when m's table
    is no Nakano table and its restriction fails the mosaic pipeline."""
    members = sorted(sub if not isinstance(sub, int) else bits(sub))
    bound = m.base.bottom if m.flavor == ADDITIVE else m.base.top
    if bound not in members:
        raise MissingBound(f"subset must contain element {m.base.names[bound]!r}")
    sublattice(m.base, members)  # raises NotASublattice when not closed
    pos = {x: i for i, x in enumerate(members)}
    submask = mask_of(members)
    k = len(members)

    def cell(i, j):
        return mask_of(pos[z] for z in bits(m.cell(members[i], members[j]) & submask))

    op = Multioperation.build(k, cell)
    got = verify_mosaic(op)
    if not got.ok:
        failed = next(r for r in got.reports if not r.holds)
        raise NotASubmosaic(f"restriction is no mosaic: {failed.axiom} fails at {failed.witness}")
    return got.mosaic


# -- the section-4 lemma battery, as runnable checks ---------------------------


def check_antisym(m: NakanoMosaic) -> AxiomReport:
    """x,y in x+y iff x = y."""
    for x in range(m.size):
        for y in range(m.size):
            both = m.cell(x, y) >> x & 1 and m.cell(x, y) >> y & 1
            if both != (x == y):
                return AxiomReport("antisym", False, (x, y), "x,y in x+y iff x=y")
    return AxiomReport("antisym", True)


def check_principal_idempotent(m: NakanoMosaic) -> AxiomReport:
    """(x+x)+(x+x) = x+x."""
    for x in range(m.size):
        diag = m.cell(x, x)
        if m.mosaic.op.set_product(diag, diag) != diag:
            return AxiomReport("principal-idempotent", False, (x,), "(x+x)+(x+x) != x+x")
    return AxiomReport("principal-idempotent", True)


def _flavor_ops(m: NakanoMosaic):
    if m.flavor == ADDITIVE:
        return m.base.join, lambda a, b: m.base.le(a, b)
    return m.base.meet, lambda a, b: m.base.le(b, a)


def check_bound_by_extremum(m: NakanoMosaic) -> AxiomReport:
    """z in x+y implies z <= x v y (additive; order dualized for multiplicative)."""
    junction, le = _flavor_ops(m)
    for x in range(m.size):
        for y in range(m.size):
            for z in bits(m.cell(x, y)):
                if not le(z, junction(x, y)):
                    return AxiomReport("bounded-by-junction", False, (x, y, z), "z not under x v y")
    return AxiomReport("bounded-by-junction", True)


def check_junction_characterization(m: NakanoMosaic) -> AxiomReport:
    """z = x v y iff (x,y in z+z and z in x+y); dual statement with meets."""
    junction, _ = _flavor_ops(m)
    for x in range(m.size):
        for y in range(m.size):
            for z in range(m.size):
                lhs = junction(x, y) == z
                rhs = (
                    bool(m.cell(z, z) >> x & 1)
                    and bool(m.cell(z, z) >> y & 1)
                    and bool(m.cell(x, y) >> z & 1)
                )
                if lhs != rhs:
                    return AxiomReport("junction-characterization", False, (x, y, z), "lemma sup/inf")
    return AxiomReport("junction-characterization", True)


def check_triple_bound(m: NakanoMosaic) -> AxiomReport:
    """x+(y+z) stays in {t : t v x v y = t v x v z = t v y v z = x v y v z}."""
    junction, _ = _flavor_ops(m)
    for x in range(m.size):
        for y in range(m.size):
            for z in range(m.size):
                total = junction(junction(x, y), z)
                for t in bits(m.mosaic.op.right_extend(x, m.cell(y, z))):
                    if not (
                        junction(t, junction(x, y)) == total
                        and junction(t, junction(x, z)) == total
                        and junction(t, junction(y, z)) == total
                    ):
                        return AxiomReport("triple-bound", False, (x, y, z, t), "triple junction bound")
    return AxiomReport("triple-bound", True)


def check_lms3_inclusion(m: NakanoMosaic) -> AxiomReport:
    """(x+(x+y)) & ((x+y)+y) <= x+y."""
    op = m.mosaic.op
    for x in range(m.size):
        for y in range(m.size):
            cell = m.cell(x, y)
            if op.right_extend(x, cell) & op.left_extend(cell, y) & ~cell:
                return AxiomReport("lms3-inclusion", False, (x, y), "intersection leaks")
    return AxiomReport("lms3-inclusion", True)


def nakano_property_reports(m: NakanoMosaic) -> list[AxiomReport]:
    reports = [
        check_antisym(m),
        check_principal_idempotent(m),
        check_bound_by_extremum(m),
        check_junction_characterization(m),
        check_triple_bound(m),
        check_lms3_inclusion(m),
        is_reproductive(m.mosaic.op),
    ]
    expected = m.base.top if m.flavor == ADDITIVE else m.base.bottom
    try:
        ok = extremum_by_characterization(m) == expected
    except NoUniqueExtremum:
        ok = False
    reports.append(
        AxiomReport("extremum", True)
        if ok
        else AxiomReport("extremum", False, (expected,), "characterized extremum is not the bound")
    )
    return reports
