"""The ortholattice <-> dualizable L-mosaic equivalence: functor, inverse
reconstruction, morphism transfer and the mosaic-side orthomodularity test.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

from .bits import bits, full_mask, least, mask_of, subsets, transpose
from .errors import (
    NotAnLMosaic,
    NotAnOrthocomplementation,
    PreconditionFailed,
    ReconstructionFailure,
    SizeTooLarge,
)
from .hyperstructure import (
    Mosaic,
    Multioperation,
    check_morphism,
    dualize,
    is_associative,
    principal_rows,
    verify_lmosaic,
    verify_mosaic,
)
from .lattice_core import (
    AxiomReport,
    FiniteBoundedLattice,
    Involution,
    _lub,
    from_leq,
    generated_sublattice,
    is_orthocomplementation,
)
from .nakano import ADDITIVE, NakanoMosaic, additive_nakano, restrict_to_sublattice


@dataclass(frozen=True)
class OrthoPair:
    """An ortholattice: a bounded lattice together with one orthocomplementation."""

    lattice: FiniteBoundedLattice
    pi: Involution

    def __post_init__(self):
        if not is_orthocomplementation(self.lattice, self.pi):
            raise NotAnOrthocomplementation("pi does not orthocomplement the lattice")

    @property
    def size(self) -> int:
        return self.lattice.size


def _dualizability_failure(mosaic: Mosaic, pi: Involution):
    """Why (mosaic, pi) is not a dualizable L-mosaic pair; None when it is.

    Beyond the transported-mosaic check (which any involution passes, the
    outer-pi table being an isomorphic copy), pi must orthocomplement the
    induced order: order-reversing, with pi(0) in x + pi(x) for every x.
    Without these the reconstructed structure is no pi-ortholattice.
    """
    bad = [r for r in verify_lmosaic(mosaic) if not r.holds]
    if bad:
        return f"{bad[0].axiom} fails at {bad[0].witness}", bad[0].witness
    dual = dualize(mosaic, pi)
    if dual is None:
        return "pi-dual table is not a mosaic", ()
    bad = [r for r in verify_lmosaic(dual) if not r.holds]
    if bad:
        return f"pi-dual violates {bad[0].axiom} at {bad[0].witness}", bad[0].witness
    # the elements below x (its principal cell x+x) must be the pi-images of
    # the elements above pi(x)
    up = principal_rows(mosaic)
    for x, px in enumerate(pi.map):
        wrong = mosaic.cell(x, x) ^ pi.image_mask(up[px])
        if wrong:
            return "pi does not reverse the induced order", (x, least(wrong))
    one = pi(mosaic.neutral)
    for x in range(mosaic.size):
        if not mosaic.cell(x, pi(x)) >> one & 1:
            return "pi(x) is no complement of x", (x,)
    return None


def is_genuinely_dualizable(mosaic: Mosaic, pi: Involution) -> bool:
    return _dualizability_failure(mosaic, pi) is None


@dataclass(frozen=True)
class DualizableLMosaicPair:
    """A verified L-mosaic with an involution that orthocomplements its
    induced order (equivalently: reconstruction yields a pi-ortholattice).

    Construction proves the pair dualizable; the reconstruction and the
    orthomodularity verdict are then computed at most once per pair, on first
    use, and live as long as the pair.  They take no part in ==, hash or repr.
    """

    mosaic: Mosaic
    pi: Involution

    def __post_init__(self):
        failure = _dualizability_failure(self.mosaic, self.pi)
        if failure is not None:
            reason, witness = failure
            if "Lms" in reason:
                raise NotAnLMosaic(reason)
            raise ReconstructionFailure(reason, witness)

    @property
    def size(self) -> int:
        return self.mosaic.size

    @property
    def one(self) -> int:
        return self.pi(self.mosaic.neutral)

    @cached_property
    def reconstruction(self) -> "OrthoPair":
        """The pi-ortholattice on the carrier, with default names x0, x1, ..."""
        return _reconstruct(self.mosaic, self.pi)

    @cached_property
    def orthomodular(self) -> AxiomReport:
        """Criterion: x in y+y and 1 in x + pi(y) imply x = y, with 1 = pi(0)."""
        one = self.one
        m, pi = self.mosaic, self.pi
        for x in range(self.size):
            for y in range(self.size):
                if x == y:
                    continue
                if m.cell(y, y) >> x & 1 and m.cell(x, pi(y)) >> one & 1:
                    return AxiomReport("orthomodular-mosaic", False, (x, y), "criterion violated")
        return AxiomReport("orthomodular-mosaic", True)


def functor_E(op: OrthoPair) -> DualizableLMosaicPair:
    """Object assignment of the equivalence: the additive Nakano mosaic with
    the same orthocomplementation."""
    return DualizableLMosaicPair(additive_nakano(op.lattice).mosaic, op.pi)


def reconstruct_from(mosaic: Mosaic, pi: Involution, names=None) -> OrthoPair:
    """Rebuild the pi-ortholattice of an unverified (mosaic, pi).  Raises
    ReconstructionFailure when the input is not genuinely a dualizable
    L-mosaic."""
    failure = _dualizability_failure(mosaic, pi)
    if failure is not None:
        raise ReconstructionFailure(*failure)
    return _reconstruct(mosaic, pi, names)


def reconstruct_lattice(p: DualizableLMosaicPair, names=None) -> OrthoPair:
    """Rebuild the pi-ortholattice of a verified pair; with default names the
    pair's own reconstruction, built on first use."""
    if names is None:
        return p.reconstruction
    return _reconstruct(p.mosaic, p.pi, names)


def _reconstruct(mosaic: Mosaic, pi: Involution, names=None) -> OrthoPair:
    """Rebuild the pi-ortholattice on the mosaic's own carrier from a pair
    already known to be dualizable: order from the principal cells, joins
    from the unique Lms4 candidate, top = pi(0), meets transported through
    pi; finally the mosaic must equal the Nakano mosaic of that order, cell
    for cell."""
    n = mosaic.size
    if names is None:
        names = [f"x{i}" for i in range(n)]
    lattice = from_leq(names, principal_rows(mosaic))
    if lattice.bottom != mosaic.neutral or lattice.top != pi(mosaic.neutral):
        raise ReconstructionFailure("bounds are not 0 and pi(0)", (lattice.bottom, lattice.top))
    cells, join, p = mosaic.op.table, lattice.join_table, pi.map
    for x in range(n):
        # the Lms4 candidate is the least upper bound
        joins, transported = join[x], join[p[x]]
        meets = tuple(p[transported[py]] for py in p)
        if meets != lattice.meet_table[x] or any(not c >> z & 1 for c, z in zip(cells[x], joins)):
            for y in range(n):
                if not cells[x][y] >> joins[y] & 1:
                    raise ReconstructionFailure("join escapes its cell", (x, y))
                if meets[y] != lattice.meet_table[x][y]:
                    raise ReconstructionFailure("meet is not the pi-transported join", (x, y))
    rebuilt = additive_nakano(lattice).mosaic.op.table
    if rebuilt != cells:
        x = next(x for x in range(n) if rebuilt[x] != cells[x])
        y = next(y for y in range(n) if rebuilt[x][y] != cells[x][y])
        raise ReconstructionFailure("mosaic is not the Nakano mosaic of its order", (x, y))
    return OrthoPair(lattice, pi)


@dataclass(frozen=True)
class MorphismTransferReport:
    """Raw lattice/mosaic morphism status of one map plus the pi-intertwining
    flag.  The provable coincidence is between the arrow statuses (morphism
    and intertwining), not the raw ones."""

    map: tuple[int, ...]
    lattice_hom: bool
    mosaic_hom: bool
    intertwines: bool

    @property
    def lattice_arrow(self) -> bool:
        return self.lattice_hom and self.intertwines

    @property
    def mosaic_arrow(self) -> bool:
        return self.mosaic_hom and self.intertwines

    @property
    def agree(self) -> bool:
        return self.lattice_arrow == self.mosaic_arrow

    def as_report(self) -> AxiomReport:
        if self.agree:
            return AxiomReport("morphism-transfer", True)
        return AxiomReport("morphism-transfer", False, self.map, "arrow statuses disagree")


def morphism_transfer_check(f, src: OrthoPair, dst: OrthoPair) -> MorphismTransferReport:
    f = tuple(f)
    a, b = src.lattice, dst.lattice
    lattice_hom = all(
        f[a.join(x, y)] == b.join(f[x], f[y]) and f[a.meet(x, y)] == b.meet(f[x], f[y])
        for x in range(a.size)
        for y in range(a.size)
    )
    ma = additive_nakano(a).mosaic
    mb = additive_nakano(b).mosaic
    mosaic_hom = check_morphism(f, ma, mb, "morphism").holds
    intertwines = all(f[src.pi(x)] == dst.pi(f[x]) for x in range(a.size))
    return MorphismTransferReport(f, lattice_hom, mosaic_hom, intertwines)


def is_orthomodular_mosaic(p: DualizableLMosaicPair) -> AxiomReport:
    """The pair's mosaic-side orthomodularity verdict, computed once per pair."""
    return p.orthomodular


def generated_polygroup_check(p: DualizableLMosaicPair, x: int, y: int) -> AxiomReport:
    """Smallest pi-closed L-submosaic containing x and y, realized through the
    reconstructed lattice; its restricted multioperation must be an
    associative mosaic (a polygroup).

    The reconstruction has proved p.mosaic cell for cell equal to the Nakano
    mosaic of the rebuilt lattice, so p.mosaic is restricted as it stands;
    the restriction verifies itself as a mosaic."""
    if not is_orthomodular_mosaic(p).holds:
        raise PreconditionFailed("mosaic is not orthomodular")
    ortho = reconstruct_lattice(p)
    seeds = {x, y, p.mosaic.neutral, p.one}
    closed = generated_sublattice(ortho.lattice, seeds, p.pi)
    restricted = restrict_to_sublattice(NakanoMosaic(ortho.lattice, ADDITIVE, p.mosaic), closed)
    assoc = is_associative(restricted.op)
    if not assoc.holds:
        return AxiomReport("generated-polygroup", False, (x, y), "restriction not associative")
    return AxiomReport("generated-polygroup", True)


# -- exhaustive search for dualizable pairs on tiny carriers -------------------


def _orders_with_bottom(n: int):
    """All labeled partial orders on 0..n-1 with bottom 0 and pairwise joins,
    yielded as down-set bitmask rows."""
    down = [0] * n
    down[0] = 1

    def rec(i: int):
        if i == n:
            rows = tuple(down)
            if _all_joins_exist(rows):
                yield rows
            return
        base = 1 | 1 << i
        others = [j for j in range(1, n) if j != i]
        for extra in range(1 << len(others)):
            cand = base | mask_of(others[k] for k in bits(extra))
            down[i] = cand
            yield from rec(i + 1)
        down[i] = 0

    def _all_joins_exist(rows) -> bool:
        # antisymmetry + transitivity + pairwise least upper bounds
        up = transpose(rows)
        for i in range(n):
            for j in bits(up[i]):
                if i != j and up[j] >> i & 1:
                    return False
                if up[j] & ~up[i]:
                    return False
        return all(_lub(up, i, j) is not None for i in range(n) for j in range(n))

    yield from rec(1) if n > 1 else iter([(1,)])


def enumerate_dualizable_pairs(max_n: int):
    """Exhaustively discover (L-mosaic, pi) pairs on carriers up to max_n <= 4,
    generating only tables that satisfy the Lms1 diagonal constraints (and the
    neutral row) before running the full verification pipeline."""
    if max_n > 4:
        raise SizeTooLarge("raw table search is capped at carrier size 4")
    out = []
    for n in range(1, max_n + 1):
        for rows in _orders_with_bottom(n):
            up = transpose(rows)
            free_pairs = [(x, y) for x in range(1, n) for y in range(x + 1, n)]
            free_space = [
                [m | 1 << _lub(up, x, y) for m in subsets(full_mask(n) & ~(up[x] & up[y]))]
                for x, y in free_pairs
            ]
            for choice in itertools.product(*free_space):
                table = [[0] * n for _ in range(n)]
                for x in range(n):
                    table[0][x] = table[x][0] = 1 << x
                for x in range(1, n):
                    table[x][x] = rows[x]
                for (x, y), cell in zip(free_pairs, choice):
                    table[x][y] = table[y][x] = cell
                op = Multioperation(n, tuple(tuple(r) for r in table))
                got = verify_mosaic(op)
                if not got.ok or not all(r.holds for r in verify_lmosaic(got.mosaic)):
                    continue
                for pi in _involutions(n):
                    if is_genuinely_dualizable(got.mosaic, pi):
                        out.append(DualizableLMosaicPair(got.mosaic, pi))
    return out


def _involutions(n: int):
    for perm in itertools.permutations(range(n)):
        if all(perm[perm[x]] == x for x in range(n)):
            yield Involution(perm)
