"""The table kernels against their element-at-a-time references.

The Nakano table and most of the section-4 lemma battery read whole rows
of bitmasks, those that test a pair (x, y) of a commutative table only
from y = x on; verify_mosaic, is_associative and the triple junction
bound read the whole table, or whole planes of it, packed into one
integer of w-bit slots, w the least power of two >= n, and Lms2 and Lms3
read slots of the packed row unions.  tests/oracles.py keeps the same
checks one element at a time.  Their reports must agree exactly, least witness and reason
included, on every lattice with at most 6 elements and on seeded cell edits
of those lattices' tables, on larger and padded lattices, where one plane
spans thousands of bits, and on random commutative tables that no lattice
gives.

What these checks share (the packed cube, packed rows and their unions,
the principal rows, the table's scan of its pairs for Lms2, Lms3 and Lms4,
and the NakanoMosaic's base cells and its scan for four lemmas) is derived
once, by whichever check runs first, and kept with the table or the
NakanoMosaic.  So the
reports are compared in both orders in which the checks can run on a new
table, the derived rows must follow an edited table rather than the one it
was edited from, and a
verify or ortho battery must leave the lattice and the ortholattice pair it
ran on as they were.

verify_mosaic reports the lemma-1 consequences without testing them, since
Lemma 1 derives them from the stages before; the oracle tests them, so the
agreement here is where that theorem is checked.
"""

import random
from collections import Counter
from copy import deepcopy
from dataclasses import fields, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mosaic_lab.bits import full_mask
from mosaic_lab.catalog import named
from mosaic_lab.equivalence import (
    OrthoPair,
    functor_E,
    generated_polygroup_check,
    is_orthomodular_mosaic,
    reconstruct_from,
    reconstruct_lattice,
)
from mosaic_lab.errors import ReconstructionFailure
from mosaic_lab.hyperstructure import (
    Mosaic,
    Multioperation,
    is_associative,
    principal_rows,
    verify_lmosaic,
    verify_mosaic,
)
from mosaic_lab.lattice_core import (
    Involution,
    build_from_covers,
    check_om_equivalences,
    from_leq,
    is_modular,
    is_orthomodular,
)
from mosaic_lab.nakano import (
    NakanoMosaic,
    additive_nakano,
    multiplicative_nakano,
    nakano_property_reports,
)

from oracles import (
    associativity_loops,
    closure_oracle,
    lmosaic_reports_loops,
    mosaic_reports_loops,
    nakano_property_loops,
    nakano_table_loops,
)

FLAVORS = ((True, additive_nakano), (False, multiplicative_nakano))


def fresh(nm):
    """nm on a new copy of its table, from which nothing is derived yet."""
    op = nm.mosaic.op
    return replace(nm, mosaic=replace(nm.mosaic, op=Multioperation(op.size, op.table)))


def verify_battery(nm, lemmas_first=False):
    """The checks the verify workload runs on one table, the section-4 lemma
    battery last or first."""
    m, op = nm.mosaic, nm.mosaic.op
    if lemmas_first:
        lemmas = nakano_property_reports(nm)
        return verify_lmosaic(m), is_associative(op), lemmas
    return verify_lmosaic(m), is_associative(op), nakano_property_reports(nm)


def assert_table_reports_agree(op):
    """verify_mosaic and is_associative, which take any table, equal the
    references, the latter on a new copy of the table."""
    assert verify_mosaic(op).reports == mosaic_reports_loops(op.table)
    assert is_associative(Multioperation(op.size, op.table)) == associativity_loops(op.table)


def assert_reports_agree(l, additive, nm):
    """The kernels' reports equal the references, in both orders on a new
    copy of the table each."""
    table, e = nm.mosaic.op.table, nm.mosaic.neutral
    assert verify_mosaic(nm.mosaic.op).reports == mosaic_reports_loops(table)
    want = (lmosaic_reports_loops(table, e), associativity_loops(table), nakano_property_loops(l, additive, table))
    for lemmas_first in (False, True):
        assert verify_battery(fresh(nm), lemmas_first) == want


def edits(nm, rng, count):
    """Seeded edits of one cell (x, y) off the neutral row and column, as
    pairs (table, NakanoMosaic).  Every other table is one-sided, for the
    checks that take any table, verify_mosaic and is_associative; the rest
    have the edit mirrored onto (y, x) too, which keeps the table
    commutative and lets it reach the later stages of verify_mosaic.  The
    NakanoMosaic, for the checks that take a Mosaic, always holds the
    mirrored table."""
    n, e = nm.size, nm.mosaic.neutral
    others = [x for x in range(n) if x != e]
    for k in range(count):
        x, y = rng.choice(others), rng.choice(others)
        zs = [z for z in range(n) if rng.random() < 0.4]
        op = nm.mosaic.op.with_cell(x, y, zs)
        mirrored = op.with_cell(y, x, zs)
        yield (mirrored if k % 2 else op), NakanoMosaic(nm.base, Mosaic(mirrored, e))


def first_failure(reports):
    return next((r.axiom for r in reports if not r.holds), None)


def test_nakano_tables_match(lattices_upto_6):
    for l in lattices_upto_6:
        for additive, build in FLAVORS:
            assert build(l).mosaic.op.table == nakano_table_loops(l, additive)


def test_reports_match_on_nakano_tables(lattices_upto_6):
    for l in lattices_upto_6:
        for additive, build in FLAVORS:
            assert_reports_agree(l, additive, build(l))


def test_reports_match_on_edited_tables(lattices_upto_6):
    rng = random.Random(20260118)
    mosaic_stage, lemma_failures = Counter(), Counter()
    for l in lattices_upto_6:
        if l.size < 3:
            continue
        for additive, build in FLAVORS:
            for op, bad in edits(build(l), rng, 12):
                assert_table_reports_agree(op)
                assert_reports_agree(l, additive, bad)
                mosaic_stage[first_failure(verify_mosaic(op).reports)] += 1
                for r in nakano_property_reports(bad):
                    lemma_failures[r.axiom] += not r.holds
    # every stage of verify_mosaic is reached, some edits pass it in full
    # (the oracle then tests the lemma-1 consequences), and each lemma fails
    # somewhere
    assert set(mosaic_stage) == {"commutative", "total", "unique-inverses", "reversible", None}
    assert all(lemma_failures.values()), lemma_failures


@pytest.fixture(scope="module")
def wide_lattices(lattices_upto_8):
    """chain_16, boolean_4, MO_6, the hexagon and a seeded sample of the
    7- and 8-element lattices."""
    rng = random.Random(90210)
    sample = [l for n, k in ((7, 10), (8, 16)) for l in rng.sample([l for l in lattices_upto_8 if l.size == n], k)]
    return [named(name).lattice for name in ("chain_16", "boolean_4", "MO_6", "hexagon")] + sample


def test_plane_kernels_match_on_wide_tables(wide_lattices):
    """On chain_16 a plane of is_associative spans 16 * 16 * 16 = 4 096 bits.
    A Nakano table meets the triple bound, and is associative exactly when
    the lattice is modular; the edits make both plane kernels fail, some of
    them past the first 64 bits of a plane: is_associative on one-sided and
    mirrored tables, the triple bound, which visits only the pairs y <= z
    of a Mosaic's commutative table, on mirrored ones.  They also make the
    Lms2 witness, read off the packed row unions, fail."""
    rng = random.Random(4471)
    failed = Counter()
    for l in wide_lattices:
        n = l.size
        for additive, build in FLAVORS:
            nm = build(l)
            for op, m in ((nm.mosaic.op, nm), *edits(nm, rng, 6)):
                assoc = is_associative(op)
                assert assoc == associativity_loops(op.table)
                reports = nakano_property_reports(m)
                assert reports == nakano_property_loops(l, additive, m.mosaic.op.table)
                lemmas = {r.axiom: r for r in reports}
                triple = lemmas["triple-bound"]
                if m is nm:
                    assert triple.holds and assoc.holds == is_modular(l).holds
                if not assoc.holds:
                    x, y, z = assoc.witness
                    failed["associative"] += 1
                    failed["associative past 64 bits"] += n * (n * y + z) >= 64
                if not triple.holds:
                    failed["triple-bound"] += 1
                    failed["triple-bound past 64 bits"] += n * triple.witness[0] >= 64
                failed["principal-idempotent"] += not lemmas["principal-idempotent"].holds
    assert len(failed) == 5 and all(failed.values()), failed


def cube_bit(witness, n: int) -> int:
    """Where a witness (x, y) or (x, y, z) of an n-element table lies in the
    table's cube: slot (x, y) at bit w * (w * x + y), w the least power of
    two >= n."""
    w = 1 << (n - 1).bit_length()
    x, y, *z = witness
    return w * (w * x + y) + sum(z)


def test_cube_kernels_match_on_wide_tables(wide_lattices, lattices_upto_6):
    """verify_mosaic reads the table as one cube of w-bit slots; Lms3 and
    Lms4 share one scan of its rows from y = x on, Lms3 reading slots of
    the packed row unions, and antisym, the bound by the junction and the
    junction characterization share another.  The sizes cover
    n = w = 16 (chain_16, boolean_4) and n = w = 8, where an element's bit
    is the top bit of its slot, the padded cubes of n = 7, of MO_6 (n = 14,
    w = 16) and of chain_34 (w = 64), and n = 1 and 2, where w = n.  The
    edits make reversibility (of mirrored tables), Lms3 and Lms4 (of the
    Mosaics, which hold the mirrored tables) fail with witnesses past the
    first 64 bits of the cube, and each row scan fail at some y >= 16."""
    rng = random.Random(5120)
    smallest = [l for l in lattices_upto_6 if l.size <= 2]
    chain = [f"c{i}" for i in range(34)]
    chain_34 = build_from_covers(chain, zip(chain, chain[1:]))
    failed, sizes = Counter(), set()
    for l in smallest + wide_lattices + [chain_34]:
        n = l.size
        sizes.add(n)
        for additive, build in FLAVORS:
            nm = build(l)
            for op, m in ((nm.mosaic.op, nm), *(edits(nm, rng, 8) if n > 1 else ())):
                reports = verify_mosaic(op).reports
                assert reports == mosaic_reports_loops(op.table)
                lms = verify_lmosaic(m.mosaic)
                assert lms == lmosaic_reports_loops(m.mosaic.op.table, m.mosaic.neutral)
                lemmas = nakano_property_reports(m)
                assert lemmas == nakano_property_loops(l, additive, m.mosaic.op.table)
                stage = first_failure(reports)
                if stage == "reversible":
                    failed["reversible past 64 bits"] += cube_bit(reports[-1].witness, n) >= 64
                for r in lms[2:]:
                    if not r.holds:
                        failed[f"{r.axiom} past 64 bits"] += cube_bit(r.witness, n) >= 64
                for r in (lms[3], lemmas[0], lemmas[2], lemmas[3]):
                    if not r.holds:
                        failed[f"{r.axiom} at y >= 16"] += r.witness[1] >= 16
    assert {1, 2, 7, 8, 14, 16, 34} <= sizes
    assert len(failed) == 7 and all(failed.values()), failed


def test_rows_derived_from_a_table_do_not_follow_its_edits(lattices_upto_6):
    """The rows a battery derived from a Nakano table stay with that table:
    an edit of it whose Lms3 fails reports the reference's witness, from
    verify_lmosaic and from the lemma battery, and the original still
    reports what it did."""
    rng = random.Random(3301)
    leaks = 0
    for l in lattices_upto_6:
        if l.size < 3:
            continue
        for additive, build in FLAVORS:
            nm = build(l)
            before = verify_battery(nm)
            for _, bad in edits(nm, rng, 12):
                table = bad.mosaic.op.table
                lms3 = lmosaic_reports_loops(table, bad.mosaic.neutral)[2]
                if lms3.holds:
                    continue
                leaks += 1
                assert verify_lmosaic(bad.mosaic)[2] == lms3
                assert {r.axiom: r for r in nakano_property_reports(bad)}["lms3-inclusion"].witness == lms3.witness
                assert nakano_property_reports(bad) == nakano_property_loops(l, additive, table)
            assert verify_battery(nm) == before
    assert leaks


def test_each_check_of_a_shared_scan_has_its_own_least_witness(lattices_upto_6):
    """One scan of a table's pairs y >= x serves Lms2, Lms3 and Lms4, and
    one scan of a NakanoMosaic's serves antisym, the bound by the junction,
    the junction characterization and the triple bound; each runs on past
    the first failure until every check it serves has its least witness.
    Each table here carries two seeded mirrored edits, one on top of the
    other.  Lms3 fails first on some tables and Lms4 on others, and the
    three lemmas fail at three distinct pairs on some; every witness is the
    reference's.  Lms2's witness row lies past the rows of both Lms3's and
    Lms4's pairs on some tables, and the triple bound's pair past the pairs
    of the three other lemmas on some: a scan that stopped once the other
    checks it serves had their witnesses would lose these."""
    rng = random.Random(3535)
    seen = Counter()
    for l in lattices_upto_6:
        if l.size < 3:
            continue
        for additive, build in FLAVORS:
            for _, once in edits(build(l), rng, 12):
                _, bad = next(edits(once, rng, 1))
                table = bad.mosaic.op.table
                lms = verify_lmosaic(bad.mosaic)
                assert lms == lmosaic_reports_loops(table, bad.mosaic.neutral)
                lemmas = {r.axiom: r for r in nakano_property_reports(bad)}
                assert list(lemmas.values()) == nakano_property_loops(l, additive, table)
                lms2, lms3, lms4 = lms[1:]
                if not lms3.holds and not lms4.holds:
                    if lms3.witness != lms4.witness:
                        seen["Lms3 first" if lms3.witness < lms4.witness else "Lms4 first"] += 1
                    seen["Lms2 past Lms3 and Lms4"] += not lms2.holds and lms2.witness[0] > max(
                        lms3.witness[0], lms4.witness[0])
                scanned = ("antisym", "bounded-by-junction", "junction-characterization")
                failed = [lemmas[name].witness[:2] for name in scanned if not lemmas[name].holds]
                seen["three lemma pairs"] += len(set(failed)) == 3
                triple = lemmas["triple-bound"]
                seen["triple bound past the three"] += (
                    len(failed) == 3 and not triple.holds and triple.witness[1:3] > max(failed))
    assert len(seen) == 5 and all(seen.values()), seen


def test_batteries_store_nothing_on_the_lattice_or_the_pair(lattices_upto_6, ortholattices_upto_8):
    """The derived rows, the rebuilt lattice and the verdicts of each pi
    live on the tables, and equivalence keeps each lattice's table in a
    weak map beside it; the lattices and ortholattice pairs that the
    benchmark builds once and reuses are left as they were, and a
    dualizable pair holds its table and pi and nothing else.  Each lattice
    is rebuilt here, so that nothing an earlier test ran on the shared
    fixtures hides what this battery adds."""
    for l in lattices_upto_6:
        l = from_leq(l.names, l.leq)
        before = deepcopy(vars(l))
        for nm in (additive_nakano(l), multiplicative_nakano(l)):
            verify_battery(nm)
        assert vars(l) == before
    for p in ortholattices_upto_8:
        p = OrthoPair(from_leq(p.lattice.names, p.lattice.leq), p.pi)
        before, lattice_before = deepcopy(vars(p)), deepcopy(vars(p.lattice))
        d = functor_E(p)
        reconstruct_lattice(d)
        is_orthomodular_mosaic(d)
        check_om_equivalences(p.lattice, p.pi)
        if is_orthomodular(p.lattice, p.pi).holds:
            for x in range(p.size):
                for y in range(p.size):
                    generated_polygroup_check(d, x, y)
        assert vars(p) == before and vars(p.lattice) == lattice_before
        assert vars(d) == {"mosaic": d.mosaic, "pi": d.pi}


def test_base_cells_are_no_part_of_a_nakano_mosaic(lattices_upto_6, call_counts):
    """A NakanoMosaic is its base and its mosaic.  The base's own Nakano
    cells that the triple bound reads are derived from the base on first
    use, once per mosaic, and equal the element-at-a-time table of the
    lattice; the constructors hand over the table they built; a
    NakanoMosaic built by hand, as edits() builds one, equals the built
    one, with the same repr and hash, and gives the same reports."""
    assert [f.name for f in fields(NakanoMosaic)] == ["base", "mosaic"]
    counts = call_counts(NakanoMosaic, "_cells")
    built = 0
    for l in lattices_upto_6:
        for additive, build in FLAVORS:
            nm = build(l)
            bare = NakanoMosaic(nm.base, nm.mosaic)
            assert bare == nm and repr(bare) == repr(nm) and hash(bare) == hash(nm)
            want = nakano_property_loops(l, additive, nm.mosaic.op.table)
            assert nakano_property_reports(bare) == nakano_property_reports(nm) == want
            built += 1
            assert counts["_cells"] == built
            assert bare._cells == nm._cells == nakano_table_loops(l, additive)
            assert counts["_cells"] == built


def test_order_of_an_lmosaic_is_a_bounded_partial_order(lattices_upto_6):
    """Lms1 makes the principal cells reflexive with the neutral at the bottom,
    Lms4 at (x, x) makes them antisymmetric and Lms2 transitive, so the
    principal rows of an edited table that passes verify_lmosaic are always
    an order."""
    rng = random.Random(7)
    passed = 0
    for l in lattices_upto_6:
        if l.size < 3:
            continue
        for _, build in FLAVORS:
            for _, bad in edits(build(l), rng, 12):
                if not all(r.holds for r in verify_lmosaic(bad.mosaic)):
                    continue
                passed += 1
                rows = principal_rows(bad.mosaic)
                names = list(range(l.size))
                covers = [(i, j) for i in names for j in names if i != j and rows[i] >> j & 1]
                up = closure_oracle(names, covers)
                assert up is not None and all(up[i] == {j for j in names if rows[i] >> j & 1} for i in names)
                assert rows[bad.mosaic.neutral] == (1 << l.size) - 1
    assert passed


def test_induced_order_raises_a_typed_error(pentagon):
    """Putting a into b+b (b < a, so b is in a+a already) breaks antisymmetry
    of the principal cells; Lms4 then finds two join candidates, a and b, at
    (a, a), and reconstruct_from, which checks the table before it reads the
    order, raises ReconstructionFailure with that pair, under -O as well."""
    p = pentagon.lattice
    nm = additive_nakano(p)
    a, b = p.index("a"), p.index("b")
    op = nm.mosaic.op.with_cell(b, b, [p.bottom, a, b])
    assert op.cell(a, a) >> b & 1 and op.cell(b, b) >> a & 1
    with pytest.raises(ReconstructionFailure) as err:
        reconstruct_from(Mosaic(op, nm.mosaic.neutral), Involution.identity(p.size))
    assert str(err.value) == f"Lms4 fails at {(a, a)}"
    assert err.value.witness == (a, a)


@st.composite
def commutative_tables(draw):
    """A commutative table on n <= 10 elements with neutral 0.  Each cell
    off the neutral row and column is drawn at random or is the complete
    cell, every element but 0.  In most tables 0 is then put in x.y exactly
    where y is x's partner under a drawn involution, so that the inverses
    are unique and not all the identity; the complete cells alone then make
    a mosaic, and the draws reach every stage of verify_mosaic."""
    n = draw(st.integers(1, 10))
    full = full_mask(n)
    order = draw(st.permutations(range(1, n)))
    pairs = draw(st.integers(0, len(order) // 2))
    rho = list(range(n))
    for a, b in zip(order[: 2 * pairs : 2], order[1 : 2 * pairs : 2]):
        rho[a], rho[b] = b, a
    inverses = draw(st.integers(0, 3)) > 0
    table = [[1 << x + y if 0 in (x, y) else 0 for y in range(n)] for x in range(n)]
    for x in range(1, n):
        for y in range(x, n):
            cell = draw(st.one_of(st.none(), st.integers(0, full)))
            if cell is None:
                cell = full & ~1
            if inverses:
                cell = cell & ~1 | (rho[x] == y)
            table[x][y] = table[y][x] = cell
    return tuple(map(tuple, table))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(commutative_tables())
def test_cube_kernels_match_the_oracles_on_random_commutative_tables(table):
    """A differential test over tables that no lattice gives: verify_mosaic,
    verify_lmosaic and is_associative against the element-at-a-time oracles,
    witnesses included."""
    n = len(table)
    op = Multioperation(n, table)
    got = verify_mosaic(op)
    assert got.reports == mosaic_reports_loops(table)
    mosaic = got.mosaic or Mosaic(op, 0)
    assert verify_lmosaic(mosaic) == lmosaic_reports_loops(table, 0)
    assert is_associative(Multioperation(n, table)) == associativity_loops(table)
