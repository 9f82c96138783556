import json
from pathlib import Path

import pytest

from mosaic_lab.bits import bits, mask_of
from mosaic_lab.errors import NoUniqueExtremum, NotASublattice
from mosaic_lab.hyperstructure import is_associative, principal_rows, verify_lmosaic, verify_mosaic
from mosaic_lab.lattice_core import dual_lattice, is_modular, sublattice
from mosaic_lab.nakano import (
    NakanoMosaic,
    _restricted_op,
    additive_nakano,
    check_antisym,
    check_bound_by_extremum,
    check_junction_characterization,
    check_lms3_inclusion,
    check_principal_idempotent,
    check_triple_bound,
    extremum_by_characterization,
    multiplicative_nakano,
    nakano_property_reports,
)
from mosaic_lab.catalog import named
from mosaic_lab.equivalence import OrthoPair, functor_E
from mosaic_lab.io import parse_table_json, table_doc_from_mosaic

from oracles import mosaic_isomorphism, nakano_cell_oracle, order_isomorphisms_loops

DATA = Path(__file__).parent.parent / "src" / "mosaic_lab" / "data"


def cells_by_label(l, mosaic):
    return {
        (l.names[x], l.names[y]): frozenset(l.names[z] for z in bits(mosaic.cell(x, y)))
        for x in range(l.size)
        for y in range(l.size)
    }


class TestAdditive:
    def test_table1_exact(self, pentagon):
        p = pentagon.lattice
        got = cells_by_label(p, additive_nakano(p).mosaic)
        doc = parse_table_json((DATA / "table1_pentagon_additive_printed.json").read_text())
        want = doc.cell_sets()
        assert got == want  # all 25 cells

    def test_neutral_row(self, lattices_upto_6):
        for l in lattices_upto_6:
            m = additive_nakano(l).mosaic
            for x in range(l.size):
                assert m.cell(l.bottom, x) == 1 << x

    def test_hexagon_cells(self, hexagon):
        h = hexagon.lattice
        m = additive_nakano(h).mosaic
        a, a1, one = h.index("a"), h.index("a'"), h.index("1")
        assert m.cell(a, one) == mask_of([h.index("a'"), h.index("b'"), one])
        assert m.cell(a, a1) == 1 << one

    def test_cells_match_oracle(self, pentagon, hexagon):
        for l in (pentagon.lattice, hexagon.lattice, named("diamond_M3").lattice):
            m = additive_nakano(l).mosaic
            w = multiplicative_nakano(l).mosaic
            for x in range(l.size):
                for y in range(l.size):
                    assert frozenset(bits(m.cell(x, y))) == nakano_cell_oracle(l, x, y, True)
                    assert frozenset(bits(w.cell(x, y))) == nakano_cell_oracle(l, x, y, False)


@pytest.mark.parametrize("build", [additive_nakano, multiplicative_nakano])
def test_nakano_table_is_the_mosaic_verify_mosaic_finds(build, lattices_upto_8):
    """The theorem the constructors rely on instead of verifying: the Nakano
    table of a bounded lattice is an L-mosaic whose neutral is its bottom
    (additive) or top (multiplicative) and whose rho is the identity."""
    extra = ["chain_16", "boolean_4"] + [f"MO_{k}" for k in range(2, 7)]
    for l in lattices_upto_8 + [named(name).lattice for name in extra]:
        nm = build(l)
        assert verify_mosaic(nm.mosaic.op).mosaic == nm.mosaic
        assert all(r.holds for r in verify_lmosaic(nm.mosaic))


class TestMultiplicative:
    def test_pentagon_recomputed_row_a(self, pentagon):
        p = pentagon.lattice
        got = cells_by_label(p, multiplicative_nakano(p).mosaic)
        assert got[("a", "1")] == {"a"}
        assert got[("a", "a")] == {"a", "1"}
        assert got[("a", "0")] == {"0", "c"}
        assert got[("0", "0")] == {"0", "a", "b", "c", "1"}

    def test_neutral_row(self, lattices_upto_6):
        for l in lattices_upto_6:
            m = multiplicative_nakano(l).mosaic
            for x in range(l.size):
                assert m.cell(l.top, x) == 1 << x


class TestExtremum:
    def test_pentagon(self, pentagon):
        p = pentagon.lattice
        assert extremum_by_characterization(additive_nakano(p)) == p.top
        assert extremum_by_characterization(multiplicative_nakano(p)) == p.bottom

    def test_one_element(self):
        l = named("chain_1").lattice
        assert extremum_by_characterization(additive_nakano(l)) == 0

    def test_corrupted_table(self, pentagon):
        nm = additive_nakano(pentagon.lattice)
        a, one = pentagon.lattice.index("a"), pentagon.lattice.index("1")
        bad_cell = list(bits(nm.cell(a, a))) + [one]
        corrupted = NakanoMosaic(
            nm.base,
            type(nm.mosaic)(nm.mosaic.op.with_cell(a, a, bad_cell), nm.mosaic.neutral, nm.mosaic.rho),
        )
        with pytest.raises(NoUniqueExtremum):
            extremum_by_characterization(corrupted)


class TestRestriction:
    """_restricted_op, the restriction that generated_polygroup_check runs:
    on a Nakano table and the sorted members of a sublattice it gives the
    Nakano table of the sublattice."""

    def test_pentagon_copy_inside_hexagon(self, hexagon, pentagon):
        h = hexagon.lattice
        sub = sorted([h.index(x) for x in ("0", "a", "b", "a'", "1")])
        restricted = _restricted_op(additive_nakano(h).mosaic.op.table, sub)
        assert restricted.table == additive_nakano(pentagon.lattice).mosaic.op.table

    def test_full_carrier(self, pentagon):
        nm = additive_nakano(pentagon.lattice)
        assert _restricted_op(nm.mosaic.op.table, list(range(5))) == nm.mosaic.op

    def test_bounds_pair(self, pentagon):
        p = pentagon.lattice
        two = _restricted_op(additive_nakano(p).mosaic.op.table, [p.bottom, p.top])
        want = additive_nakano(named("chain_2").lattice).mosaic
        assert two.table == want.op.table

    def test_restriction_equals_sublattice_mosaic(self, hexagon, lattices_upto_6):
        closed = 0
        for l in [hexagon.lattice, *lattices_upto_6]:
            table = additive_nakano(l).mosaic.op.table
            for mask in range(1, 1 << l.size):
                try:
                    sl, members = sublattice(l, mask)
                except NotASublattice:
                    continue
                closed += 1
                assert _restricted_op(table, list(members)).table == additive_nakano(sl).mosaic.op.table
        assert closed


class TestLemmaBattery:
    def test_all_properties_upto_6_both_flavors(self, lattices_upto_6):
        for l in lattices_upto_6:
            for nm in (additive_nakano(l), multiplicative_nakano(l)):
                for rep in nakano_property_reports(nm):
                    assert rep.holds, (l.names, nm.mosaic.neutral, rep)

    def test_antisym_witnessed_on_mutation(self, pentagon):
        nm = additive_nakano(pentagon.lattice)
        p = pentagon.lattice
        a, b = p.index("a"), p.index("b")
        edited = NakanoMosaic(
            nm.base,
            type(nm.mosaic)(
                nm.mosaic.op.with_cell(a, b, [a, b]).with_cell(b, a, [a, b]),
                nm.mosaic.neutral,
                nm.mosaic.rho,
            ),
        )
        assert not check_antisym(edited).holds

    def test_checks_of_one_table_share_its_derived_parts(self, call_counts):
        """verify_mosaic, verify_lmosaic, is_associative and the battery read
        the cube, its square and the principal rows that the table derives
        once, whichever check runs first; a second verify_lmosaic derives
        nothing."""
        import mosaic_lab.hyperstructure as hs

        counts = call_counts(hs, "_square", "transpose")
        nm = additive_nakano(named("MO_3").lattice)
        assert verify_mosaic(nm.mosaic.op).ok
        first = verify_lmosaic(nm.mosaic)
        assert is_associative(nm.mosaic.op).holds
        assert all(r.holds for r in nakano_property_reports(nm))
        assert verify_lmosaic(nm.mosaic) == first
        assert counts == {"_square": 1, "transpose": 1}

    def test_individual_checks_pass(self, hexagon):
        nm = additive_nakano(hexagon.lattice)
        for check in (
            check_antisym,
            check_principal_idempotent,
            check_bound_by_extremum,
            check_junction_characterization,
            check_triple_bound,
            check_lms3_inclusion,
        ):
            assert check(nm).holds


def test_fact4_nakano_equivalence(lattices_upto_6):
    for l in lattices_upto_6:
        add_assoc = is_associative(additive_nakano(l).mosaic.op).holds
        mul_assoc = is_associative(multiplicative_nakano(l).mosaic.op).holds
        mod = is_modular(l).holds
        assert add_assoc == mul_assoc == mod, l.names


def test_induced_order_is_base_order(lattices_upto_6):
    for l in lattices_upto_6:
        m = additive_nakano(l).mosaic
        assert all(r.holds for r in verify_lmosaic(m))
        assert principal_rows(m) == l.leq


class TestConservativity:
    def test_pairwise_over_catalog(self):
        names = ("pentagon", "hexagon", "diamond_M3", "chain_5", "boolean_2", "MO_2", "chain_4")
        entries = [named(x).lattice for x in names]
        entries.append(dual_lattice(named("pentagon").lattice))  # isomorphic to P
        for a in entries:
            for b in entries:
                lat_iso = bool(order_isomorphisms_loops(a.leq, b.leq))
                mos_iso = (
                    mosaic_isomorphism(additive_nakano(a).mosaic, additive_nakano(b).mosaic)
                    is not None
                )
                assert lat_iso == mos_iso, (a.names, b.names)

    def test_pentagon_additive_iso_multiplicative(self, pentagon):
        # P is self-dual, so conservativity forces P_v ~ P_^ as mosaics
        p = pentagon.lattice
        sigma = mosaic_isomorphism(multiplicative_nakano(p).mosaic, additive_nakano(p).mosaic)
        assert sigma is not None
        assert sigma[p.index("c")] == p.index("c")

    def test_chain_vs_pentagon_not_iso(self, pentagon):
        a = additive_nakano(named("chain_5").lattice).mosaic
        b = additive_nakano(pentagon.lattice).mosaic
        assert mosaic_isomorphism(a, b) is None


def test_records_holding_a_lattice_hash(pentagon, hexagon):
    """Equal records hash alike, and the multiplicative mosaic of a lattice
    is one set element with the additive mosaic of its dual."""
    p, h = pentagon.lattice, hexagon.lattice
    pair = OrthoPair(h, hexagon.ortho)
    records = [additive_nakano(p), multiplicative_nakano(p), pair, functor_E(pair)]
    again = [additive_nakano(p), multiplicative_nakano(p), OrthoPair(h, hexagon.ortho), functor_E(pair)]
    for a, b in zip(records, again):
        assert a == b and hash(a) == hash(b)
    assert len(set(records + again)) == len(records)
    assert {multiplicative_nakano(p), additive_nakano(dual_lattice(p))} == {multiplicative_nakano(p)}


def test_table_doc_roundtrip_through_mosaic(pentagon):
    p = pentagon.lattice
    doc = table_doc_from_mosaic("pv", p.names, additive_nakano(p).mosaic)
    op = doc.to_multioperation()
    assert op.table == additive_nakano(p).mosaic.op.table
