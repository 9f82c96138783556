import dataclasses
import itertools
import random
import re
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mosaic_lab.bits import bits, full_mask, mask_of
from mosaic_lab.equivalence import reconstruct_from
from mosaic_lab.errors import InvalidStructure, MosaicLabError, ReconstructionFailure, SizeMismatch
from mosaic_lab.hyperstructure import (
    Mosaic,
    Multioperation,
    check_morphism,
    find_neutral,
    is_associative,
    is_reproductive,
    principal_rows,
    verify_lmosaic,
    verify_mosaic,
)
from mosaic_lab.lattice_core import AxiomReport, Involution, is_modular
from mosaic_lab.nakano import (
    NakanoMosaic,
    _restricted_op,
    additive_nakano,
    multiplicative_nakano,
    nakano_property_reports,
)
from mosaic_lab.catalog import enumerate_lattices, named

from oracles import (
    Multimap,
    all_involutions,
    compose_relations,
    dual_table_loops,
    inverse_map_loops,
    morphism_loops,
    nakano_table_loops,
    order_isomorphisms_loops,
    table_of,
)


@pytest.fixture(scope="module")
def pv(pentagon):
    return additive_nakano(pentagon.lattice).mosaic


@pytest.fixture(scope="module")
def hv(hexagon):
    return additive_nakano(hexagon.lattice).mosaic


def multimaps(dom, cod):
    return st.tuples(*[st.integers(0, full_mask(cod)) for _ in range(dom)]).map(
        lambda rows: Multimap(dom, cod, rows)
    )


class TestComposeRelations:
    def test_identity_neutral(self):
        g = Multimap(2, 2, (0b11, 0b01))
        assert compose_relations(Multimap.identity(2), g) == g
        assert compose_relations(g, Multimap.identity(2)) == g

    def test_empty_stays_empty(self):
        f = Multimap(3, 3, (0, 0, 0))
        g = Multimap(3, 3, (0b111, 0b111, 0b111))
        assert compose_relations(f, g).rows == (0, 0, 0)

    def test_union_formula(self):
        f = Multimap(2, 2, (0b11, 0b10))
        g = Multimap(2, 2, (0b01, 0b10))
        assert compose_relations(f, g).rows[0] == 0b11

    def test_size_mismatch(self):
        with pytest.raises(SizeMismatch):
            compose_relations(Multimap(2, 3, (0, 0)), Multimap(2, 2, (0, 0)))

    @settings(max_examples=80, deadline=None)
    @given(multimaps(3, 4), multimaps(4, 2), multimaps(2, 5))
    def test_associative(self, f, g, h):
        assert compose_relations(compose_relations(f, g), h) == compose_relations(
            f, compose_relations(g, h)
        )


class TestMultioperation:
    def test_cell_out_of_range(self):
        with pytest.raises(ValueError):
            Multioperation(1, ((0b10,),))

    def test_a_float_cell_is_refused_before_any_check_runs(self):
        """Not built, so verify_mosaic never meets it with a bare TypeError."""
        with pytest.raises(InvalidStructure, match=r"^table cells must be int bitmasks, got 1\.0$"):
            Multioperation(1, ((1.0,),))

    def test_a_bool_cell_is_refused_not_read_as_a_mask(self):
        with pytest.raises(InvalidStructure, match="^table cells must be int bitmasks, got True$"):
            Multioperation(2, ((True, 2), (2, 3)))

    def test_a_string_cell_is_refused_with_a_typed_error(self):
        """Not a bare TypeError from comparing it with the carrier's mask."""
        with pytest.raises(InvalidStructure, match="^table cells must be int bitmasks, got '1'$"):
            Multioperation(1, (("1",),))

    def test_a_table_of_lists_is_stored_as_tuples(self, pentagon):
        """Rows given as lists are stored as tuples, so the table hashes,
        equals its tuple twin and gives the twin's reports: a row of a list
        table never equals a tuple column or the units, which made
        verify_mosaic and the Mosaic constructor stop on a bare
        StopIteration and find_neutral miss the neutral."""
        chain2 = Multioperation(2, [[1, 2], [2, 3]])
        assert chain2.table == ((1, 2), (2, 3)) and hash(chain2) == hash(Multioperation(2, chain2.table))
        assert find_neutral(chain2) == 0 and verify_mosaic(chain2).ok
        nm = additive_nakano(pentagon.lattice)
        twin = nm.mosaic
        op = Multioperation(twin.size, [list(row) for row in twin.op.table])
        lists = NakanoMosaic(nm.base, Mosaic(op, twin.neutral))
        assert op == twin.op and verify_mosaic(op) == verify_mosaic(twin.op)
        assert verify_lmosaic(lists.mosaic) == verify_lmosaic(twin)
        assert is_associative(op) == is_associative(twin.op)
        assert nakano_property_reports(lists) == nakano_property_reports(nm)

    @pytest.mark.parametrize("x, y, zs", [(-1, 0, [1]), (3, 0, [1]), (0, 3, []), (0, 0, [-1]), (0, 0, [1, 3])])
    def test_a_cell_edit_past_the_carrier_is_a_size_mismatch(self, x, y, zs):
        """Not the last row for x = -1, nor a bare IndexError or a negative
        shift count."""
        op = Multioperation(3, ((1, 2, 4), (2, 2, 4), (4, 4, 4)))
        with pytest.raises(SizeMismatch):
            op.with_cell(x, y, zs)
        assert op.with_cell(2, 1, iter([0, 2])).table[2] == (4, 5, 4)


def test_bad_parts_raise_typed_errors(pentagon, hexagon):
    """Each constructor refuses parts that do not make its structure with a
    MosaicLabError (exit code 2 in the CLI) that is still a ValueError."""
    chain2 = Multioperation(2, ((0b01, 0b10), (0b10, 0b11)))
    cases = [
        (lambda: Involution((1, 2, 0)), InvalidStructure, "not an involution at 0"),
        (lambda: Involution((0, 0)), InvalidStructure, "not a permutation"),
        (lambda: Involution((1, 2, 1)), InvalidStructure, "not a permutation"),
        (lambda: Multioperation(1, ((0b10,),)), SizeMismatch, "cell not a subset of the carrier"),
        (lambda: Multioperation(2, ((1, 2),)), SizeMismatch, "table is not size x size"),
        (lambda: Multioperation(2, ((1, 2), (2,))), SizeMismatch, "table is not size x size"),
        (lambda: Multioperation(1, ((1,), (1,))), SizeMismatch, "table is not size x size"),
        (lambda: Multioperation(2.0, ((1, 2), (2, 3))), InvalidStructure,
         "the size must be a non-negative int, got 2.0"),
        (lambda: Multioperation("2", ((1, 2), (2, 3))), InvalidStructure,
         "the size must be a non-negative int, got '2'"),
        (lambda: Multioperation(True, ((1,),)), InvalidStructure, "the size must be a non-negative int, got True"),
        (lambda: Multioperation(-1, ()), InvalidStructure, "the size must be a non-negative int, got -1"),
        (lambda: Multioperation(2, 5), InvalidStructure, "the table must be a sequence of rows, got 5"),
        (lambda: Multioperation(2, (5, 6)), InvalidStructure, "the table must be a sequence of rows, got (5, 6)"),
        (lambda: Multioperation(1, None), InvalidStructure, "the table must be a sequence of rows, got None"),
        (lambda: Mosaic(chain2, 2), SizeMismatch, "the neutral lies outside the carrier"),
        (lambda: Mosaic(chain2, 1), InvalidStructure, "1 is not neutral at 0"),
        (lambda: Mosaic(Multioperation(2, ((1, 2), (1, 2))), 0), InvalidStructure, "0 is not neutral at 1"),
        (lambda: Mosaic(Multioperation(3, ((1, 2, 4), (2, 4, 4), (4, 2, 4))), 0), InvalidStructure,
         "not commutative at (1, 2)"),
        (lambda: NakanoMosaic(pentagon.lattice, additive_nakano(hexagon.lattice).mosaic), SizeMismatch,
         "carrier sizes disagree"),
        (lambda: Mosaic(chain2.table, 0), InvalidStructure,
         "the operation must be a Multioperation, got ((1, 2), (2, 3))"),
        (lambda: NakanoMosaic(pentagon.lattice, "x"), InvalidStructure, "the mosaic must be a Mosaic, got 'x'"),
        (lambda: NakanoMosaic("x", additive_nakano(pentagon.lattice).mosaic), InvalidStructure,
         "the base must be a FiniteBoundedLattice, got 'x'"),
    ]
    for build, error, message in cases:
        with pytest.raises(error) as exc:
            build()
        assert str(exc.value) == message
        assert isinstance(exc.value, MosaicLabError) and isinstance(exc.value, ValueError)


class TestMosaic:
    @pytest.mark.parametrize("neutral", [1.0, "0", None, False])
    def test_a_neutral_that_is_no_int_is_refused(self, pentagon, neutral):
        """A typed error before the table is indexed: not a bare TypeError,
        and no mosaic whose neutral is False."""
        m = additive_nakano(pentagon.lattice).mosaic
        with pytest.raises(InvalidStructure, match=f"^the neutral must be an int, got {re.escape(repr(neutral))}$"):
            Mosaic(m.op, neutral)

    def test_a_one_sided_table_is_refused_at_the_commutative_witness(self, lattices_upto_6):
        """Seeded edits that flip one member of two cells off the diagonal
        and off the neutral row and column, leaving the mirrored cells as
        they were: the constructor refuses the table exactly when
        verify_mosaic's commutative stage fails, and names its witness, the
        least asymmetric (x, y)."""
        rng = random.Random(3303)
        wide = [named(name).lattice for name in ("MO_6", "boolean_4", "chain_16")]
        refused = 0
        for l in [*lattices_upto_6, *wide]:
            for build in (additive_nakano, multiplicative_nakano):
                m = build(l).mosaic
                others = [x for x in range(l.size) if x != m.neutral]
                if len(others) < 2:
                    continue
                for _ in range(3):
                    op = m.op
                    for _ in range(2):
                        x, y = rng.sample(others, 2)
                        op = op.with_cell(x, y, bits(op.cell(x, y) ^ 1 << rng.randrange(l.size)))
                    commutative = verify_mosaic(op).reports[0]
                    if commutative.holds:
                        assert Mosaic(op, m.neutral).op is op
                        continue
                    with pytest.raises(InvalidStructure) as exc:
                        Mosaic(op, m.neutral)
                    assert str(exc.value) == f"not commutative at {commutative.witness}"
                    refused += 1
        assert refused


class TestFindNeutral:
    def test_nakano_neutrals(self, pentagon):
        p = pentagon.lattice
        assert find_neutral(additive_nakano(p).mosaic.op) == p.bottom
        assert find_neutral(multiplicative_nakano(p).mosaic.op) == p.top

    def test_join_op_on_chain(self):
        c = named("chain_2").lattice
        op = Multioperation(2, table_of(2, lambda x, y: 1 << c.join(x, y)))
        assert find_neutral(op) == c.bottom

    def test_no_neutral(self):
        op = Multioperation(2, table_of(2, lambda x, y: 0b11))
        assert find_neutral(op) is None


class TestInverses:
    def test_nakano_self_inverse(self, lattices_upto_6):
        # verify_mosaic finds the unique inverses: each element is its own
        for l in lattices_upto_6:
            got = verify_mosaic(additive_nakano(l).mosaic.op)
            assert got.ok and got.mosaic.rho == Involution.identity(l.size)

    def test_neutral_inverse(self, pv):
        assert verify_mosaic(pv.op).mosaic.rho(pv.neutral) == pv.neutral

    def test_edited_cell_drops_inverse(self, pv, pentagon):
        a = pentagon.lattice.index("a")
        edited = pv.op.with_cell(a, a, [a, 2])  # drop 0 from a+a
        got = verify_mosaic(edited)
        assert got.mosaic is None
        assert got.reports[-1] == AxiomReport("unique-inverses", False, (a,), "no inverse")


class TestDerivedRho:
    """A Mosaic is its table and its neutral; its rho is the inverse map
    the table determines, derived by verify_mosaic."""

    def test_the_fields_are_the_table_and_the_neutral(self):
        z3 = Multioperation(3, table_of(3, lambda x, y: 1 << ((x + y) % 3)))
        assert [f.name for f in dataclasses.fields(Mosaic)] == ["op", "neutral"]
        m = Mosaic(z3, 0)
        assert m.rho.map == (0, 2, 1)
        assert m == verify_mosaic(z3).mosaic and hash(m) == hash(verify_mosaic(z3).mosaic)
        assert repr(m) == f"Mosaic(op={z3!r}, neutral=0)"

    def test_rho_is_the_inverse_map_of_the_table(self, lattices_upto_6):
        """Both Nakano tables of every lattice with n <= 6, built by the
        Nakano constructors and by hand, and Z_3."""
        for l in lattices_upto_6:
            for build in (additive_nakano, multiplicative_nakano):
                m = build(l).mosaic
                want = inverse_map_loops(m.op.table, m.neutral)
                assert m.rho.map == Mosaic(m.op, m.neutral).rho.map == want
        z3 = Multioperation(3, table_of(3, lambda x, y: 1 << ((x + y) % 3)))
        assert Mosaic(z3, 0).rho.map == inverse_map_loops(z3.table, 0) == (0, 2, 1)

    def test_seeded_mirrored_edits(self, lattices_upto_6):
        """Edits of a cell (x, y) and its mirror off the neutral row and
        column: rho is the inverse map where the table stays a mosaic, and
        otherwise InvalidStructure names verify_mosaic's first failing
        axiom and its witness."""
        rng = random.Random(3907)
        kept, refused = 0, Counter()
        for l in lattices_upto_6:
            for build in (additive_nakano, multiplicative_nakano):
                m = build(l).mosaic
                others = [x for x in range(l.size) if x != m.neutral]
                if not others:
                    continue
                for _ in range(4):
                    x, y = rng.choice(others), rng.choice(others)
                    zs = [z for z in range(l.size) if rng.random() < 0.4]
                    edited = Mosaic(m.op.with_cell(x, y, zs).with_cell(y, x, zs), m.neutral)
                    got = verify_mosaic(edited.op)
                    if got.ok:
                        assert edited.rho.map == inverse_map_loops(edited.op.table, edited.neutral)
                        kept += 1
                        continue
                    bad = next(r for r in got.reports if not r.holds)
                    with pytest.raises(InvalidStructure) as exc:
                        edited.rho
                    assert str(exc.value) == f"the table is no mosaic: {bad.axiom} fails at {bad.witness}"
                    refused[bad.axiom] += 1
        assert kept and set(refused) == {"total", "unique-inverses", "reversible"}

    def test_the_rho_verify_mosaic_hands_over_is_read_without_a_second_run(self, call_counts, pentagon):
        import mosaic_lab.hyperstructure as hs

        counts = call_counts(hs, "verify_mosaic")
        z3 = Multioperation(3, table_of(3, lambda x, y: 1 << ((x + y) % 3)))
        m = hs.verify_mosaic(z3).mosaic
        assert m.rho.map == (0, 2, 1) and counts["verify_mosaic"] == 1
        nakano = additive_nakano(pentagon.lattice).mosaic
        assert nakano.rho is nakano.rho is Involution.identity(5)
        assert counts["verify_mosaic"] == 2


class TestVerifyMosaic:
    def test_pentagon_additive(self, pv):
        got = verify_mosaic(pv.op)
        assert got.ok
        assert got.mosaic.rho == Involution.identity(5)

    def test_z2_group(self):
        op = Multioperation(2, table_of(2, lambda x, y: 1 << (x ^ y)))
        got = verify_mosaic(op)
        assert got.ok and got.mosaic.rho == Involution.identity(2)

    def test_z3_group_nontrivial_rho(self):
        op = Multioperation(3, table_of(3, lambda x, y: 1 << ((x + y) % 3)))
        got = verify_mosaic(op)
        assert got.ok
        assert got.mosaic.rho.map == (0, 2, 1)
        assert is_associative(op).holds

    def test_mutated_cell_fails_invertibility(self, pv, pentagon):
        a = pentagon.lattice.index("a")
        edited = pv.op.with_cell(a, a, [1, 2])  # {a,b}: 0 dropped
        got = verify_mosaic(edited)
        assert not got.ok
        assert {r.axiom: r for r in got.reports}["unique-inverses"].witness == (a,)

    def test_partial_rejected(self, pv):
        edited = pv.op.with_cell(1, 2, [])
        got = verify_mosaic(edited)
        assert not got.ok
        assert not {r.axiom: r for r in got.reports}["total"].holds

    def test_noncommutative_rejected(self):
        op = Multioperation(2, ((0b01, 0b10), (0b11, 0b10)))
        got = verify_mosaic(op)
        assert not {r.axiom: r for r in got.reports}["commutative"].holds

    def test_reversibility_failure_witnessed(self, pv, pentagon):
        p = pentagon.lattice
        a, c = p.index("a"), p.index("c")
        edited = pv.op.with_cell(a, c, [c, 4]).with_cell(c, a, [c, 4])
        got = verify_mosaic(edited)
        assert not got.ok
        assert not {r.axiom: r for r in got.reports}["reversible"].holds

    def test_three_way_equivalences_on_corpus(self, lattices_upto_6):
        for l in lattices_upto_6[:10]:
            m = additive_nakano(l).mosaic
            rho = inverse_map_loops(m.op.table, m.neutral)
            for x in range(m.size):
                for y in range(m.size):
                    for z in range(m.size):
                        a = bool(m.cell(x, y) >> z & 1)
                        b = bool(m.cell(z, rho[y]) >> x & 1)
                        c = bool(m.cell(rho[x], z) >> y & 1)
                        assert a == b == c


def table_battery(nm):
    """Every report of the checks the verify workload runs on one Nakano
    table, with the rho that verify_mosaic hands out."""
    m = nm.mosaic
    got = verify_mosaic(m.op)
    reports = (*got.reports, *verify_lmosaic(m), is_associative(m.op), *nakano_property_reports(nm))
    return reports, got.mosaic.rho


class TestSharedConstants:
    """A passing check returns its axiom's one report, and verify_mosaic
    the one identity map per n; a failing check builds its own report."""

    def test_passing_reports_are_shared_across_tables(self):
        first, _ = table_battery(additive_nakano(named("boolean_2").lattice))
        second, _ = table_battery(multiplicative_nakano(named("chain_5").lattice))
        assert all(r.holds for r in first + second)
        for a, b in zip(first, second):
            assert a == b == AxiomReport(a.axiom, True)
            assert a is b
        assert is_modular(named("chain_3").lattice) is is_modular(named("boolean_3").lattice)

    def test_failing_reports_are_built_per_call(self, pentagon):
        first, second = is_modular(pentagon.lattice), is_modular(pentagon.lattice)
        assert not first.holds and first.witness is not None
        assert first == second and first is not second

    def test_identity_rho_is_shared(self, lattices_upto_6):
        for l in lattices_upto_6:
            for build in (additive_nakano, multiplicative_nakano):
                m = build(l).mosaic
                assert m.rho is Involution.identity(l.size)
                assert verify_mosaic(m.op).mosaic.rho is Involution.identity(l.size)
        assert Involution.identity(3) == Involution((0, 1, 2))

    def test_the_library_checks_no_table_it_builds(self, monkeypatch, lattices_upto_6):
        """The Nakano constructors build their tables without the
        Multioperation check, whose cells are in range by construction, and
        verify_mosaic builds the inverse map of a commutative table without
        the Involution check, since unique inverses make it one.  The tables
        still equal the references, and Z_3's map is still (0, 2, 1)."""
        z3 = Multioperation(3, table_of(3, lambda x, y: 1 << ((x + y) % 3)))
        checks = Counter()
        for cls in (Multioperation, Involution):
            def counted(self, _check=cls.__post_init__, _name=cls.__name__):
                checks[_name] += 1
                _check(self)
            monkeypatch.setattr(cls, "__post_init__", counted)
        for l in lattices_upto_6:
            for additive, build in ((True, additive_nakano), (False, multiplicative_nakano)):
                nm = build(l)
                table_battery(nm)
                assert nm.mosaic.op.table == nakano_table_loops(l, additive)
        assert checks["Multioperation"] == 0
        assert verify_mosaic(z3).mosaic.rho.map == (0, 2, 1)
        assert checks["Involution"] == 0

    def test_a_checked_table_builds_no_report_and_no_map(self, monkeypatch, pentagon):
        """After one table of a size has been checked, a second modular one
        of that size (both flavors of boolean_3 after chain_8) passes every
        check without building an AxiomReport or an Involution; a failing
        check builds one report."""
        table_battery(additive_nakano(named("chain_8").lattice))
        tables = [build(named("boolean_3").lattice) for build in (additive_nakano, multiplicative_nakano)]
        built = Counter()
        for cls in (AxiomReport, Involution):
            def counted(self, *args, _init=cls.__init__, _name=cls.__name__, **kwargs):
                built[_name] += 1
                _init(self, *args, **kwargs)
            monkeypatch.setattr(cls, "__init__", counted)
        for nm in tables:
            reports, rho = table_battery(nm)
            assert all(r.holds for r in reports) and rho is Involution.identity(8)
        assert built == Counter()
        is_modular(pentagon.lattice)
        assert built == Counter(AxiomReport=1)


class TestAssociativity:
    def test_pentagon_witness_and_sides(self, pv, pentagon):
        p = pentagon.lattice
        rep = is_associative(pv.op)
        assert not rep.holds
        assert rep.witness == (p.index("a"), p.index("b"), p.index("c"))
        x, y, z = rep.witness
        lhs = pv.op.right_extend(x, pv.cell(y, z))
        rhs = pv.op.left_extend(pv.cell(x, y), z)
        assert lhs == mask_of([p.index("c"), p.index("1")])
        assert rhs == mask_of([p.index("1")])

    def test_chain_nakano_associative(self):
        for n in (1, 2, 4):
            l = named(f"chain_{n}").lattice
            assert is_associative(additive_nakano(l).mosaic.op).holds

    def test_one_element(self):
        assert is_associative(Multioperation(1, ((1,),))).holds

    def test_polygroups_are_the_associative_mosaics(self, pv, hv):
        b2 = additive_nakano(named("boolean_2").lattice).mosaic
        for op, polygroup in ((pv.op, False), (hv.op, False), (b2.op, True)):
            assert verify_mosaic(op).ok and is_associative(op).holds == polygroup


class TestMorphisms:
    def test_identity_is_a_morphism(self, pv):
        assert check_morphism(range(5), pv, pv) == AxiomReport("morphism-morphism", True)

    def test_rho_iso_to_dual(self, pv):
        # the dual operation (x, y) -> y + x; commutative, so it coincides
        # with the operation and rho = id is an isomorphism onto it
        n = pv.size
        dual = Multioperation(n, tuple(tuple(pv.cell(y, x) for y in range(n)) for x in range(n)))
        got = verify_mosaic(dual)
        rho = inverse_map_loops(pv.op.table, pv.neutral)
        assert got.ok and got.mosaic.rho.map == rho
        assert check_morphism(rho, pv, got.mosaic).holds
        assert check_morphism(rho, got.mosaic, pv).holds

    def test_constant_to_neutral_is_a_morphism(self, pv):
        assert check_morphism([pv.neutral] * 5, pv, pv).holds

    def test_constant_elsewhere_not_unitary(self, pv):
        rep = check_morphism([1] * 5, pv, pv)
        assert rep == AxiomReport("morphism-morphism", False, (pv.neutral,), "not unitary")

    def test_restriction_inclusion_is_embedding(self, hv, hexagon):
        # the inclusion of a sublattice's Nakano mosaic is a morphism whose
        # cells are the target's cells cut down to the image
        h = hexagon.lattice
        members = sorted([0, h.index("b"), h.index("a"), h.index("a'"), h.index("1")])
        restricted = Mosaic(_restricted_op(hv.op.table, members), 0)
        assert check_morphism(members, restricted, hv).holds
        image = mask_of(members)
        for x in range(5):
            for y in range(5):
                cell = mask_of(members[z] for z in bits(restricted.cell(x, y)))
                assert cell == hv.cell(members[x], members[y]) & image

    def test_z3_automorphism_preserves_inverses(self):
        op = Multioperation(3, table_of(3, lambda x, y: 1 << ((x + y) % 3)))
        m = verify_mosaic(op).mosaic
        assert check_morphism((0, 2, 1), m, m).holds

    @pytest.mark.parametrize("f", [(0, 1), (0, 1, 2, 3, 4, 9)])
    def test_map_off_the_carriers_is_a_size_mismatch(self, hv, f):
        with pytest.raises(SizeMismatch, match="f is not a map between the carriers"):
            check_morphism(f, hv, hv)

    @pytest.mark.parametrize("f", [(True,) * 5, (0, 1, 2, 3, 4.0), [0, 1, 2, 3, "4"]])
    def test_map_entries_that_are_no_ints_raise_a_typed_error(self, hv, f):
        with pytest.raises(InvalidStructure, match="ints"):
            check_morphism(f, hv, hv)


class TestMorphismReference:
    """check_morphism's whole report, witness and reason included, against
    the element-at-a-time tests/oracles.morphism_loops."""

    def test_every_map_between_small_nakano_mosaics(self):
        mosaics = [
            build(l).mosaic
            for n in range(1, 4)
            for l in enumerate_lattices(n)
            for build in (additive_nakano, multiplicative_nakano)
        ]
        reasons = set()
        for a in mosaics:
            for b in mosaics:
                for f in itertools.product(range(b.size), repeat=a.size):
                    rep = check_morphism(f, a, b)
                    assert rep == morphism_loops(f, a, b), (a, b, f)
                    reasons.add(rep.reason)
        assert reasons == {None, "not unitary", "cell condition fails"}

    def test_seeded_maps_among_ortholattices(self, ortholattices_upto_8):
        mosaics = [additive_nakano(p.lattice).mosaic for p in ortholattices_upto_8]
        rng = random.Random(1607)  # fixed: results must be deterministic
        reasons = set()
        for a in mosaics:
            for b in mosaics:
                maps = [[b.neutral] * a.size]  # a morphism onto the neutral
                for _ in range(8):
                    f = [rng.randrange(b.size) for _ in range(a.size)]
                    if rng.random() < 0.75:
                        f[a.neutral] = b.neutral
                    maps.append(f)
                for f in maps:
                    rep = check_morphism(f, a, b)
                    assert rep == morphism_loops(f, a, b), (a, b, f)
                    reasons.add(rep.reason)
        assert reasons == {None, "not unitary", "cell condition fails"}

    def test_seeded_cell_edits_of_the_target(self, ortholattices_upto_8):
        """An automorphism f into a copy of the table with cell (x, y), and
        its mirror (y, x), cut down fails exactly at the least preimage of
        the two, which lies past (0, 0): neither x nor y is the neutral, the
        bottom 0."""
        rng = random.Random(2911)  # fixed: results must be deterministic
        edits = 0
        for p in ortholattices_upto_8:
            m = additive_nakano(p.lattice).mosaic
            inner = [x for x in range(m.size) if x != m.neutral]
            if not inner:
                continue
            automorphisms = order_isomorphisms_loops(p.lattice.leq, p.lattice.leq)
            for _ in range(6):
                x, y = rng.choice(inner), rng.choice(inner)
                cell = list(bits(m.cell(x, y)))
                kept = [z for z in cell if rng.random() < 0.5]
                if len(kept) == len(cell):
                    kept.remove(rng.choice(kept))
                target = Mosaic(m.op.with_cell(x, y, kept).with_cell(y, x, kept), m.neutral)
                f = rng.choice(automorphisms)
                rep = check_morphism(f, m, target)
                assert rep == morphism_loops(f, m, target), (p, f, x, y, kept)
                assert rep.witness == min((f.index(x), f.index(y)), (f.index(y), f.index(x)))
                assert rep.witness != (0, 0)
                edits += 1
        assert edits


class TestLMosaic:
    def test_pentagon_and_hexagon_pass(self, pv, hv):
        assert all(r.holds for m in (pv, hv) for r in verify_lmosaic(m))

    def test_corpus_lmosaic(self, lattices_upto_6):
        for l in lattices_upto_6:
            for build in (additive_nakano, multiplicative_nakano):
                assert all(r.holds for r in verify_lmosaic(build(l).mosaic))

    def test_mutating_ac_breaks_reversibility_not_lms(self, pv, pentagon):
        # adding c to a+c leaves Lms1-4 checkable but breaks (RE)
        p = pentagon.lattice
        a, c, one = p.index("a"), p.index("c"), p.index("1")
        edited = pv.op.with_cell(a, c, [one, c]).with_cell(c, a, [one, c])
        got = verify_mosaic(edited)
        assert not got.ok and not {r.axiom: r for r in got.reports}["reversible"].holds

    def test_mutating_top_cell_breaks_lms1(self, pv, pentagon):
        one = pentagon.lattice.index("1")
        edited = pv.op.with_cell(one, one, [one])
        m = Mosaic(edited, pv.neutral)
        reports = verify_lmosaic(m)
        lms1 = reports[0]
        assert not lms1.holds and lms1.witness == (one,)

    def test_lms4_multiple_candidates_detected(self):
        # on the 3-chain 0<m<1, inflating m's diagonal to the whole carrier
        # and putting m into the (m,1) cell makes both m and 1 candidates
        c = named("chain_3").lattice
        m = additive_nakano(c).mosaic
        edited = m.op.with_cell(1, 1, [0, 1, 2]).with_cell(1, 2, [1, 2]).with_cell(2, 1, [1, 2])
        mm = Mosaic(edited, 0)
        reports = {r.axiom: r for r in verify_lmosaic(mm)}
        assert not reports["Lms4"].holds
        assert reports["Lms4"].reason == "multiple join candidates"

    def test_lms4_no_candidate_detected(self):
        # removing the join from a cell leaves it with no candidate
        c = named("chain_3").lattice
        m = additive_nakano(c).mosaic
        edited = m.op.with_cell(1, 2, [1]).with_cell(2, 1, [1])
        mm = Mosaic(edited, 0)
        reports = {r.axiom: r for r in verify_lmosaic(mm)}
        assert not reports["Lms4"].holds
        assert reports["Lms4"].reason == "no join candidate"


class TestInducedOrder:
    """The order of an L-mosaic is read off its principal cells once
    verify_lmosaic has passed."""

    def test_pentagon_order_recovered(self, pv, pentagon):
        assert all(r.holds for r in verify_lmosaic(pv))
        assert principal_rows(pv) == pentagon.lattice.leq

    def test_hexagon_order_recovered(self, hv, hexagon):
        assert all(r.holds for r in verify_lmosaic(hv))
        assert principal_rows(hv) == hexagon.lattice.leq

    def test_neutral_is_bottom(self, lattices_upto_6):
        for l in lattices_upto_6[:8]:
            m = additive_nakano(l).mosaic
            assert all(r.holds for r in verify_lmosaic(m))
            assert principal_rows(m)[m.neutral] == full_mask(m.size)

    def test_not_lmosaic_raises(self, pv, pentagon):
        # the order is read only after the table check: reconstruct_from
        # refuses a table that fails it
        one = pentagon.lattice.index("1")
        m = Mosaic(pv.op.with_cell(one, one, [one]), pv.neutral)
        bad = [r for r in verify_lmosaic(m) if not r.holds]
        assert bad
        with pytest.raises(ReconstructionFailure) as err:
            reconstruct_from(m, Involution.identity(5))
        assert err.value.witness == bad[0].witness


def is_strong_submosaic(m, mask: int) -> bool:
    """Holds the neutral, and no cell of two members leaks out of it."""
    return bool(mask >> m.neutral & 1) and all(m.cell(x, y) & ~mask == 0 for x in bits(mask) for y in bits(mask))


def strong_closure_mask(m, mask: int) -> int:
    """The least strong submosaic holding mask: the meet of all that do."""
    acc = full_mask(m.size)
    for sup in range(1 << m.size):
        if sup | mask == sup and is_strong_submosaic(m, sup):
            acc &= sup
    return acc


class TestStrongClosure:
    """The strong submosaics of a Nakano mosaic, and the least one that
    holds a subset, which is the union of the subset's principal cells
    whenever that union is itself a strong submosaic."""

    def test_principal(self, pv, pentagon):
        p = pentagon.lattice
        a = p.index("a")
        want = mask_of([p.index("0"), p.index("b"), a])
        assert strong_closure_mask(pv, 1 << a) == want == pv.cell(a, a)

    def test_neutral_alone(self, pv):
        assert strong_closure_mask(pv, 1 << pv.neutral) == 1 << pv.neutral

    def test_whole_carrier(self, pv):
        assert strong_closure_mask(pv, full_mask(5)) == full_mask(5)

    def test_closure_properties_exhaustive(self, hv):
        n = hv.size
        strong = [s for s in range(1 << n) if is_strong_submosaic(hv, s)]

        def union(mask):
            acc = 0
            for x in bits(mask):
                acc |= hv.cell(x, x)
            return acc

        def closure(mask):
            acc = full_mask(n)
            for s in strong:
                if s | mask == s:
                    acc &= s
            return acc

        for mask in range(1, 1 << n):
            cmask = closure(mask)
            # the union sits inside every strong submosaic holding the subset
            for s in strong:
                if s | mask == s:
                    assert union(mask) & ~s == 0
            assert (cmask == union(mask)) == is_strong_submosaic(hv, union(mask))
            assert cmask | mask == cmask  # extensive
            assert closure(cmask) == cmask  # idempotent
            assert is_strong_submosaic(hv, cmask)
            for sup in range(1, 1 << n):
                if sup | mask == sup:
                    assert closure(sup) | cmask == closure(sup)  # monotone

    def test_principal_cells_are_strong_submosaics(self, lattices_upto_6):
        for l in lattices_upto_6:
            m = additive_nakano(l).mosaic
            for x in range(m.size):
                assert is_strong_submosaic(m, m.cell(x, x))


class TestDualize:
    """The pi-dual table (x, y) -> pi(pi(x) + pi(y)), with neutral pi(0)."""

    def test_hexagon_dual_is_multiplicative(self, hexagon):
        h = hexagon.lattice
        hv = additive_nakano(h).mosaic
        pi = hexagon.ortho
        assert dual_table_loops(hv.op.table, hv.neutral, pi) == multiplicative_nakano(h).mosaic.op.table
        assert pi(hv.neutral) == h.top

    def test_literal_formula_fails(self, hexagon):
        # the paper's erratum: (x, y) -> pi(x) + pi(y), without the outer pi,
        # gives no mosaic on the hexagon, while the corrected form does
        hv = additive_nakano(hexagon.lattice).mosaic
        pi = hexagon.ortho
        assert dual_table_loops(hv.op.table, hv.neutral, pi, literal=True) is None
        literal = Multioperation(hv.size, tuple(tuple(hv.cell(pi(x), pi(y)) for y in range(hv.size))
                                                for x in range(hv.size)))
        assert not verify_mosaic(literal).ok
        assert dual_table_loops(hv.op.table, hv.neutral, pi) is not None

    def test_identity_dualization(self, pv):
        assert dual_table_loops(pv.op.table, pv.neutral, Involution.identity(5)) == pv.op.table

    def test_double_dual_restores(self, hexagon):
        hv = additive_nakano(hexagon.lattice).mosaic
        pi = hexagon.ortho
        once = dual_table_loops(hv.op.table, hv.neutral, pi)
        assert dual_table_loops(once, pi(hv.neutral), pi) == hv.op.table

    def test_double_dual_restores_over_corpus(self, ortholattices_upto_8):
        for p in ortholattices_upto_8:
            m = additive_nakano(p.lattice).mosaic
            once = dual_table_loops(m.op.table, m.neutral, p.pi)
            assert once is not None
            assert dual_table_loops(once, p.pi(m.neutral), p.pi) == m.op.table

    def test_every_involution_transports_pentagon(self, pv):
        # the corrected table is transport of structure, so every involution
        # yields a mosaic; genuine dualizability is a pair-level matter
        passing = [pi for pi in all_involutions(5) if dual_table_loops(pv.op.table, pv.neutral, Involution(pi))]
        assert len(passing) == 26  # all involutions on 5 elements


class TestReproductive:
    def test_pentagon(self, pv):
        assert is_reproductive(pv.op).holds

    def test_one_element(self):
        assert is_reproductive(Multioperation(1, ((1,),))).holds

    def test_missing_row_detected(self, pv):
        edited = pv.op.with_cell(1, 4, [4]).with_cell(1, 3, [4])
        rep = is_reproductive(edited)
        assert not rep.holds and rep.witness == (1,)
