import gc
import itertools
import json
import random
import weakref
from collections import Counter
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mosaic_lab import equivalence, hyperstructure, io, lattice_core
from mosaic_lab.bits import full_mask, mask_of
from mosaic_lab.errors import (
    InvalidStructure,
    MosaicLabError,
    NotAnOrthocomplementation,
    PreconditionFailed,
    ReconstructionFailure,
    SizeMismatch,
    SizeTooLarge,
)
from mosaic_lab.equivalence import (
    MorphismTransferReport,
    OrthoPair,
    enumerate_dualizable_pairs,
    functor_E,
    generated_polygroup_check,
    is_orthomodular_mosaic,
    morphism_transfer_check,
    reconstruct_from,
    reconstruct_lattice,
)
from mosaic_lab.hyperstructure import Mosaic, check_morphism, is_associative, principal_rows
from mosaic_lab.lattice_core import (
    AxiomReport,
    Involution,
    check_om_equivalences,
    dual_lattice,
    find_sublattice_copy,
    from_leq,
    hexagon_pattern,
    is_modular,
    is_orthomodular,
    orthocomplementations,
    sublattice,
)
from mosaic_lab.nakano import additive_nakano, extremum_by_characterization
from mosaic_lab.catalog import named

from oracles import (
    all_involutions,
    associativity_loops,
    dualizability_failure_loops,
    generated_sublattice_loops,
    labeled_lattice_count,
    labeled_ortho_pair_count,
    lmosaic_tables_loops,
    nakano_table_loops,
    orthomodular_criterion_loops,
    restricted_table_loops,
)

NAMED_ORTHO = [f"boolean_{k}" for k in range(1, 5)] + [f"MO_{k}" for k in range(2, 7)] + [
    "hexagon", "chain_1", "chain_2"]
COUNTS = json.loads((Path(__file__).parent / "fixtures" / "enumeration_counts.json").read_text())


def searched_tables(n: int):
    """(candidates, L-mosaics): the tables that the table-side search on n
    elements hands to verify_lmosaic, and the tables it yields."""
    with mock.patch.object(equivalence, "verify_lmosaic", wraps=equivalence.verify_lmosaic) as verify:
        lmosaics = [m.op.table for m in equivalence._lmosaic_tables(n)]
    return [call.args[0].op.table for call in verify.call_args_list], lmosaics


@pytest.fixture(scope="module")
def hexagon_pair(hexagon):
    return OrthoPair(hexagon.lattice, hexagon.ortho)


class TestPairValidation:
    def test_orthopair_rejects_non_ortho(self, pentagon):
        with pytest.raises(NotAnOrthocomplementation):
            OrthoPair(pentagon.lattice, Involution.identity(5))

    def test_functor_image_is_valid(self, hexagon_pair):
        p = functor_E(hexagon_pair)
        assert p.one == hexagon_pair.lattice.top

    def test_identity_involution_on_chain_rejected(self):
        m = additive_nakano(named("chain_2").lattice).mosaic
        pi = Involution.identity(2)
        assert equivalence._dualizability_failure(m, pi) is not None
        with pytest.raises(ReconstructionFailure):
            reconstruct_from(m, pi)

    def test_antitone_non_complement_rejected(self):
        # on 2^2 the involution fixing both atoms and swapping the bounds
        # reverses order but selects no complements
        b2 = named("boolean_2")
        m = additive_nakano(b2.lattice).mosaic
        swap_bounds = Involution((3, 1, 2, 0))
        assert equivalence._dualizability_failure(m, swap_bounds) is not None
        with pytest.raises(ReconstructionFailure) as exc:
            reconstruct_from(m, swap_bounds)
        assert "complement" in str(exc.value)

    def test_involution_of_another_size_is_a_typed_error(self):
        m = additive_nakano(named("boolean_2").lattice).mosaic
        with pytest.raises(SizeMismatch):
            reconstruct_from(m, Involution.identity(5))

    def test_a_pi_built_from_a_list_is_read_like_its_tuple(self, fresh_maps):
        """A list-built pi is stored as a tuple, so the verdicts that the
        table keeps by pi.map accept it, and it equals the catalog's pi."""
        b2 = named("boolean_2")
        pi = Involution([3, 2, 1, 0])
        assert pi == b2.ortho
        d = functor_E(OrthoPair(b2.lattice, pi))
        assert is_orthomodular_mosaic(d).holds
        assert generated_polygroup_check(d, 1, 2).holds
        assert reconstruct_lattice(d).pi == b2.ortho

    def test_pentagon_admits_no_dualizing_involution(self, pentagon):
        m = additive_nakano(pentagon.lattice).mosaic
        passing = [pi for pi in all_involutions(5) if equivalence._dualizability_failure(m, Involution(pi)) is None]
        assert passing == []


class TestReconstruction:
    def test_roundtrip_all_ortholattices(self, ortholattices_upto_8):
        for p in ortholattices_upto_8:
            r = reconstruct_lattice(functor_E(p))
            assert r.lattice.leq == p.lattice.leq
            assert r.pi == p.pi

    def test_boolean_3_tables_equal(self):
        e = named("boolean_3")
        p = OrthoPair(e.lattice, e.ortho)
        r = reconstruct_lattice(functor_E(p))
        assert r.lattice.leq == e.lattice.leq
        assert r.lattice.join_table == e.lattice.join_table
        assert r.lattice.meet_table == e.lattice.meet_table

    def test_one_element(self):
        e = named("chain_1")
        p = OrthoPair(e.lattice, e.ortho)
        r = reconstruct_lattice(functor_E(p))
        assert r.lattice.size == 1

    def test_reconstruct_from_raw_junk_raises(self):
        m = additive_nakano(named("chain_3").lattice).mosaic
        with pytest.raises(ReconstructionFailure):
            reconstruct_from(m, Involution.identity(3))

    def test_one_is_the_characterized_extremum(self, ortholattices_upto_8):
        # pi(neutral) and the no-other-diagonal characterization must agree
        for p in ortholattices_upto_8:
            d = functor_E(p)
            nm = additive_nakano(p.lattice)
            assert d.one == extremum_by_characterization(nm) == p.lattice.top
            # and the top's principal cell is the whole carrier
            assert d.mosaic.cell(d.one, d.one) == full_mask(d.size)


class TestEssentialSurjectivity:
    def test_search_is_capped(self):
        with pytest.raises(SizeTooLarge):
            enumerate_dualizable_pairs(5)

    def test_a_size_that_is_no_int_is_refused(self):
        for n in (True, 3.5):
            with pytest.raises(InvalidStructure):
                enumerate_dualizable_pairs(n)

    def test_raw_table_search(self):
        """One pair per orthocomplementation of a lattice on 0..n-1 with
        bottom 0, counted from the lattice classes, their
        orthocomplementations and their automorphisms, and the frozen
        total; each pair is the functor's image of its reconstruction."""
        pairs = enumerate_dualizable_pairs(4)
        sizes = Counter(p.size for p in pairs)
        assert [sizes[n] for n in range(1, 5)] == [labeled_ortho_pair_count(n) for n in range(1, 5)]
        assert len(pairs) == COUNTS["dualizable_pairs_by_raw_table_search_upto_4"]
        for p in pairs:
            r = reconstruct_lattice(p)
            e = functor_E(r)
            assert e.mosaic.op.table == p.mosaic.op.table
            assert e.pi == p.pi

    def test_search_verifies_each_table_once(self, call_counts):
        """No candidate goes through verify_mosaic or the Multioperation
        check; verify_lmosaic runs once per total candidate, and the
        involutions are searched once per L-mosaic table."""
        counts = call_counts(equivalence, "verify_mosaic", "verify_lmosaic", "orthocomplementations")
        call_counts(hyperstructure.Multioperation, "__post_init__")
        assert len(enumerate_dualizable_pairs(4)) == 5
        assert counts["verify_mosaic"] == counts["__post_init__"] == 0
        assert counts["verify_lmosaic"] == sum(COUNTS["lms1_mosaic_tables"][str(n)] for n in range(1, 5))
        assert counts["orthocomplementations"] == sum(COUNTS["lmosaic_tables"][str(n)] for n in range(1, 5))

    def test_search_matches_the_cell_by_cell_route(self):
        """The candidates are exactly the mosaics with neutral 0 and 0 and x
        in x+x, and the tables yielded exactly their L-mosaics, against the
        oracle that fills each cell on its own and assumes no reversibility
        (n = 4 takes seconds there: a CI step compares it)."""
        for n in range(1, 4):
            candidates, lmosaics = searched_tables(n)
            want = lmosaic_tables_loops(n)
            assert (sorted(candidates), sorted(lmosaics)) == tuple(map(sorted, want))
            assert len(candidates) == COUNTS["lms1_mosaic_tables"][str(n)]

    def test_lmosaic_counts_are_the_labeled_lattice_counts(self):
        """One L-mosaic with neutral 0 per lattice on 0..n-1 with bottom 0,
        counted from the lattice classes and their automorphisms."""
        for n in range(1, 5):
            assert len(searched_tables(n)[1]) == labeled_lattice_count(n) == COUNTS["lmosaic_tables"][str(n)]

    def test_search_pairs_each_table_with_its_dualizing_involutions(self):
        """The involutions found for each table are exactly those that pass
        the element-at-a-time dualizability check, in permutation order."""
        found = {}
        for p in enumerate_dualizable_pairs(4):
            found.setdefault((p.mosaic.op.table, p.mosaic.neutral), []).append(p.pi.map)
        for (table, e), pis in found.items():
            want = [pi for pi in all_involutions(len(table))
                    if dualizability_failure_loops(table, e, Involution(pi)) is None]
            assert pis == want

    def test_search_finds_only_nakano_tables(self):
        """Every generated table, orthocomplemented or not, is the additive
        Nakano table of the lattice it induces."""
        for n in range(1, 5):
            for m in equivalence._lmosaic_tables(n):
                assert additive_nakano(m.op._induced_lattice).mosaic.op.table == m.op.table


class TestMorphismTransfer:
    def test_identity_on_hexagon(self, hexagon_pair):
        rep = morphism_transfer_check(range(6), hexagon_pair, hexagon_pair)
        assert rep.lattice_hom and rep.mosaic_hom and rep.intertwines and rep.agree

    def test_exhaustive_all_functions_upto_4(self, ortholattices_upto_4):
        for src in ortholattices_upto_4:
            for dst in ortholattices_upto_4:
                for f in itertools.product(range(dst.size), repeat=src.size):
                    rep = morphism_transfer_check(f, src, dst)
                    assert rep.agree, (src.size, dst.size, f)
                    if rep.intertwines:
                        assert rep.lattice_hom == rep.mosaic_hom

    def test_builds_one_table_per_distinct_lattice(self, call_counts, fresh_maps, hexagon_pair):
        """Over a whole sequence of calls, each distinct lattice gets one
        Nakano table: a map from a lattice to itself, to the same lattice
        built twice, between the pis of one lattice, and between lattices
        of one size and of two sizes."""
        counts = call_counts(equivalence, "additive_nakano")
        h, mo2 = hexagon_pair.lattice, named("MO_2").lattice
        mo2_pairs = [OrthoPair(mo2, pi) for pi in orthocomplementations(mo2)]
        b3 = named("boolean_3")
        b3_pair = OrthoPair(b3.lattice, b3.ortho)
        calls = [(hexagon_pair, hexagon_pair), (hexagon_pair, OrthoPair(from_leq(h.names, h.leq), hexagon_pair.pi)),
                 *itertools.product(mo2_pairs, repeat=2),
                 (hexagon_pair, mo2_pairs[0]), (mo2_pairs[0], hexagon_pair), (hexagon_pair, b3_pair)]
        assert len(mo2_pairs) == 3 and mo2.size == h.size
        for src, dst in calls:
            morphism_transfer_check([dst.lattice.bottom] * src.size, src, dst)
        assert counts["additive_nakano"] == 3
        # functor_E reads the same tables
        images = [functor_E(p).mosaic for p in (hexagon_pair, mo2_pairs[0], b3_pair)]
        assert counts["additive_nakano"] == 3
        assert images == [additive_nakano(l).mosaic for l in (h, mo2, b3.lattice)]

    def test_report_matches_separately_built_mosaics(self, ortholattices_upto_4, hexagon_pair):
        """The report computed from the definitions, with a Nakano mosaic
        built for each side: every map among the ortholattices with at most
        4 elements, and seeded maps between the hexagon and MO_2, two
        lattices of one size."""
        mo2 = named("MO_2")
        rng = random.Random(7301)  # fixed: results must be deterministic
        cases = [
            (src, dst, list(itertools.product(range(dst.size), repeat=src.size)))
            for src, dst in itertools.product(ortholattices_upto_4, repeat=2)
        ] + [
            (src, dst, [[dst.lattice.bottom] * 6] + [[rng.randrange(6) for _ in range(6)] for _ in range(200)])
            for src, dst in itertools.product([hexagon_pair, OrthoPair(mo2.lattice, mo2.ortho)], repeat=2)
        ]
        arrows = 0
        for src, dst, maps in cases:
            a, b = src.lattice, dst.lattice
            ma, mb = additive_nakano(a).mosaic, additive_nakano(b).mosaic
            pairs = list(itertools.product(range(a.size), repeat=2))
            for f in maps:
                f = tuple(f)
                want = MorphismTransferReport(
                    f,
                    all(f[a.join(x, y)] == b.join(f[x], f[y]) and f[a.meet(x, y)] == b.meet(f[x], f[y])
                        for x, y in pairs),
                    check_morphism(f, ma, mb).holds,
                    all(f[src.pi(x)] == dst.pi(f[x]) for x in range(a.size)),
                )
                assert morphism_transfer_check(f, src, dst) == want
                arrows += want.lattice_hom and want.intertwines
        assert arrows

    def test_frozen_raw_counterexample(self):
        # unitary join-preserving map 2^2 -> 2-chain that breaks meets:
        # the raw statuses differ, the arrow statuses still agree because
        # the map does not intertwine the orthocomplementations
        b2 = named("boolean_2")
        c2 = named("chain_2")
        src = OrthoPair(b2.lattice, b2.ortho)
        dst = OrthoPair(c2.lattice, c2.ortho)
        f = (0, 1, 1, 1)
        rep = morphism_transfer_check(f, src, dst)
        assert rep.mosaic_hom and not rep.lattice_hom
        assert not rep.intertwines and rep.agree

    def test_sampled_functions_on_larger(self, hexagon_pair):
        b3 = named("boolean_3")
        pairs = [hexagon_pair, OrthoPair(b3.lattice, b3.ortho)]
        rng = random.Random(20260811)  # fixed: results must be deterministic
        for src in pairs:
            for dst in pairs:
                for _ in range(300):
                    f = tuple(rng.randrange(dst.size) for _ in range(src.size))
                    rep = morphism_transfer_check(f, src, dst)
                    assert rep.agree
                    if rep.intertwines:
                        assert rep.lattice_hom == rep.mosaic_hom

    @pytest.mark.parametrize("f", [(0, 1), (0, 1, 2, 3, 4, 9)])
    def test_map_off_the_carriers_is_a_size_mismatch(self, hexagon_pair, f):
        # checked before the lattice side is tested, which would index f
        with pytest.raises(SizeMismatch, match="f is not a map between the carriers"):
            morphism_transfer_check(f, hexagon_pair, hexagon_pair)

    def test_bool_entries_raise_a_typed_error(self, hexagon_pair):
        """(True,) * 6 is no map of the carrier, not the constant map to 1."""
        with pytest.raises(MosaicLabError, match="map entries must be ints"):
            morphism_transfer_check((True,) * 6, hexagon_pair, hexagon_pair)

    def test_identity_map_agrees(self, hexagon_pair):
        assert morphism_transfer_check(range(6), hexagon_pair, hexagon_pair).agree

    def test_agree_compares_the_arrow_statuses(self):
        """An arrow is a morphism that intertwines pi; the two arrow
        statuses are compared, not the raw morphism statuses."""
        for lattice_hom, mosaic_hom, intertwines in itertools.product((False, True), repeat=3):
            rep = MorphismTransferReport((0,), lattice_hom, mosaic_hom, intertwines)
            assert rep.agree == ((lattice_hom and intertwines) == (mosaic_hom and intertwines))


class TestOrthomodularMosaic:
    def test_hexagon_witness(self, hexagon, hexagon_pair):
        h = hexagon.lattice
        rep = is_orthomodular_mosaic(functor_E(hexagon_pair))
        assert not rep.holds
        assert rep.witness == (h.index("b"), h.index("a"))

    def test_booleans_and_mo2(self):
        for name in ("boolean_1", "boolean_2", "boolean_3", "MO_2"):
            e = named(name)
            assert is_orthomodular_mosaic(functor_E(OrthoPair(e.lattice, e.ortho))).holds

    def test_criterion_scanned_once_per_table_and_pi(self, call_counts, fresh_maps):
        """The verdict is kept on the table, keyed by pi: a second pair with
        the same pi scans nothing, and another pi on the table scans once."""
        counts = call_counts(equivalence, "_orthomodular_criterion")
        mo2 = named("MO_2").lattice
        first, other = (OrthoPair(mo2, pi) for pi in orthocomplementations(mo2)[:2])
        for p, expected in ((first, 1), (first, 1), (other, 2), (other, 2)):
            d = functor_E(p)
            assert is_orthomodular_mosaic(d).holds
            assert generated_polygroup_check(d, 0, 1).holds
            assert counts == {"_orthomodular_criterion": expected}
        assert functor_E(first).mosaic is functor_E(other).mosaic

    def test_matches_lattice_side(self, ortholattices_upto_8):
        for p in ortholattices_upto_8:
            assert (
                is_orthomodular_mosaic(functor_E(p)).holds
                == is_orthomodular(p.lattice, p.pi).holds
            )


class TestGeneratedPolygroup:
    def test_boolean_3_atom_pair(self):
        e = named("boolean_3")
        p = functor_E(OrthoPair(e.lattice, e.ortho))
        a, b = e.lattice.index("a"), e.lattice.index("b")
        assert generated_polygroup_check(p, a, b).holds

    def test_neutral_pair_gives_two_element_polygroup(self):
        e = named("boolean_2")
        p = functor_E(OrthoPair(e.lattice, e.ortho))
        assert generated_polygroup_check(p, p.mosaic.neutral, p.mosaic.neutral).holds

    def test_mo2_distinct_atoms(self):
        e = named("MO_2")
        p = functor_E(OrthoPair(e.lattice, e.ortho))
        x, y = e.lattice.index("a"), e.lattice.index("b")
        assert generated_polygroup_check(p, x, y).holds

    def test_precondition(self, hexagon_pair):
        with pytest.raises(PreconditionFailed):
            generated_polygroup_check(functor_E(hexagon_pair), 0, 1)

    @pytest.mark.parametrize("x, y", [(6, 0), (0, 6), (-1, 0)])
    def test_elements_past_the_carrier_are_a_typed_error(self, x, y):
        e = named("MO_2")
        p = functor_E(OrthoPair(e.lattice, e.ortho))
        with pytest.raises(SizeMismatch):
            generated_polygroup_check(p, x, y)

    def test_lattice_side_fact6(self, ortholattices_upto_8, monkeypatch, fresh_maps):
        """The generated pi-closed sublattice is modular, and the table that
        generated_polygroup_check restricts, and checks only for
        associativity, is the Nakano table of what {x, y} generates under
        the pair's own pi.  Every pi of MO_2 and boolean_3, and of each
        ortholattice with at most 8 elements, runs over the table that the
        pis of its lattice share: one restriction per (pi, pi-closed seed
        set) of the table, made when that key first occurs."""
        restricted = []
        monkeypatch.setattr(equivalence, "is_associative", lambda op: restricted.append(op) or is_associative(op))
        lattices = [named(name).lattice for name in ("MO_2", "boolean_3")]
        pairs = [OrthoPair(l, pi) for l in lattices for pi in orthocomplementations(l)]
        assert len(pairs) == 4
        seen = set()  # (id of a table, alive in _NAKANO, pi, seed set)
        for p in pairs + ortholattices_upto_8:
            if not is_orthomodular(p.lattice, p.pi).holds:
                continue
            d = functor_E(p)
            ends = (p.lattice.bottom, p.lattice.top)
            for x in range(p.size):
                for y in range(p.size):
                    closed = generated_sublattice_loops(p.lattice, [x, y], p.pi)
                    sl, _ = sublattice(p.lattice, closed)
                    assert is_modular(sl).holds
                    assert generated_polygroup_check(d, x, y).holds
                    key = (id(d.mosaic.op), p.pi.map, mask_of((x, y, p.pi(x), p.pi(y), *ends)))
                    if key not in seen:
                        seen.add(key)
                        assert restricted.pop().table == nakano_table_loops(sl)
                    assert restricted == []

    def test_one_associativity_check_per_generated_subalgebra(self, call_counts, fresh_maps):
        """The 144 (x, y) of MO_5 have 16 pi-closed seed sets, which
        generate 16 distinct subalgebras; each is checked once per (table,
        pi), and another pair with that pi on the table reads the verdicts
        of the first."""
        counts = call_counts(equivalence, "is_associative")
        e = named("MO_5")
        p = OrthoPair(e.lattice, e.ortho)
        for expected in (16, 16):
            d = functor_E(p)
            for x in range(p.size):
                for y in range(p.size):
                    assert generated_polygroup_check(d, x, y).holds
            assert counts == {"is_associative": expected}

    def test_each_seed_set_closed_once_per_table_and_pi(self, call_counts, fresh_maps):
        """{x, y} generates what its pi-closed seed set {x, y, pi(x),
        pi(y), 0, 1} generates; over the 144 (x, y) of MO_5 each of the 16
        distinct seed sets is closed once per (table, pi), and another pair
        with that pi on the table closes none."""
        counts = call_counts(equivalence, "_generated_mask")
        e = named("MO_5")
        p = OrthoPair(e.lattice, e.ortho)
        ends = mask_of((e.lattice.bottom, e.lattice.top))
        seed_sets = {mask_of((x, y, p.pi(x), p.pi(y))) | ends for x in range(p.size) for y in range(p.size)}
        assert len(seed_sets) == 16
        for expected in (16, 16):
            d = functor_E(p)
            for x in range(p.size):
                for y in range(p.size):
                    assert generated_polygroup_check(d, x, y).holds
            assert counts == {"_generated_mask": expected}

    def test_failing_report_carries_its_own_pair(self, monkeypatch, fresh_maps):
        """A verdict reused from an earlier (x, y), of this pair or of
        another pair on the table, is reported with the (x, y) of the
        call."""
        e = named("MO_2")
        p = OrthoPair(e.lattice, e.ortho)
        monkeypatch.setattr(equivalence, "is_associative", lambda op: AxiomReport("associative", False, (0, 0, 0)))
        a, b = e.lattice.index("a"), e.lattice.index("b")
        for d, (x, y) in ((functor_E(p), (a, b)), (functor_E(p), (b, a))):
            rep = generated_polygroup_check(d, x, y)
            assert (rep.holds, rep.witness, rep.reason) == (False, (x, y), "restriction not associative")
        assert len(d.mosaic.op._polygroup_verdicts) == 1


class TestBuiltOncePerOrder:
    """The Nakano table and the least hexagon copy depend on the lattice's
    order alone, and the rebuilt lattice on the table alone: each is built
    once, however many pis a lattice carries.  The verdicts of a pi are
    built once per (table, pi)."""

    @pytest.fixture
    def mo4_pairs(self):
        mo4 = named("MO_4").lattice
        return [OrthoPair(mo4, pi) for pi in orthocomplementations(mo4)]

    def test_every_pi_reads_one_table(self, call_counts, fresh_maps, mo4_pairs):
        counts = call_counts(equivalence, "additive_nakano")
        images = [functor_E(p) for p in mo4_pairs]
        assert len(images) == 105
        assert counts["additive_nakano"] == 1
        assert all(d.mosaic is images[0].mosaic for d in images)
        assert images[0].mosaic == additive_nakano(mo4_pairs[0].lattice).mosaic

    def test_reconstructions_share_one_lattice(self, call_counts, fresh_maps, mo4_pairs):
        counts = call_counts(hyperstructure, "from_leq")
        rebuilt = [reconstruct_lattice(functor_E(p)) for p in mo4_pairs]
        assert counts["from_leq"] == 1
        assert all(r.lattice is rebuilt[0].lattice for r in rebuilt)
        mosaic = additive_nakano(mo4_pairs[0].lattice).mosaic
        assert rebuilt[0].lattice == from_leq([f"x{i}" for i in range(mosaic.size)], principal_rows(mosaic))
        assert [r.pi for r in rebuilt] == [p.pi for p in mo4_pairs]

    def test_entries_die_with_their_keys(self, fresh_maps, mo4_pairs):
        l = from_leq(mo4_pairs[0].lattice.names, mo4_pairs[0].lattice.leq)
        pairs = [OrthoPair(l, p.pi) for p in mo4_pairs[:3]]
        images = [functor_E(p) for p in pairs]
        rebuilt = [reconstruct_lattice(d) for d in images]
        morphism_transfer_check(range(l.size), pairs[0], pairs[1])
        assert len(equivalence._NAKANO) == 1
        induced = weakref.ref(rebuilt[0].lattice)
        del l, pairs, images, rebuilt
        gc.collect()
        assert len(equivalence._NAKANO) == 0
        assert induced() is None

    def test_every_pi_reads_one_hexagon_search(self, call_counts, fresh_maps, mo4_pairs):
        counts = call_counts(lattice_core, "find_sublattice_copy")
        reports = [check_om_equivalences(p.lattice, p.pi) for p in mo4_pairs]
        assert len(reports) == 105
        assert counts == {"find_sublattice_copy": 1}
        assert all(r[2] == AxiomReport("OM3", True) for r in reports)

    def test_a_second_pair_on_the_table_restricts_nothing(self, call_counts, fresh_maps, mo4_pairs):
        counts = call_counts(equivalence, "_restricted_op")
        first, second = functor_E(mo4_pairs[0]), functor_E(mo4_pairs[0])
        assert first is not second and first.mosaic is second.mosaic
        everything = [(x, y) for x in range(first.size) for y in range(first.size)]
        reports = [generated_polygroup_check(first, x, y) for x, y in everything]
        restrictions = counts["_restricted_op"]
        assert restrictions > 0
        assert [generated_polygroup_check(second, x, y) for x, y in everything] == reports
        assert counts["_restricted_op"] == restrictions

    def test_a_dual_lattice_gets_its_own_hexagon_search(self, fresh_maps, hexagon_pair):
        h, pi = hexagon_pair.lattice, hexagon_pair.pi
        own = check_om_equivalences(h, pi)[2]
        d = dual_lattice(h)
        dual = check_om_equivalences(d, pi)[2]
        assert own == AxiomReport("OM3", False, find_sublattice_copy(h, hexagon_pattern()), "hexagon sublattice")
        assert dual == AxiomReport("OM3", False, find_sublattice_copy(d, hexagon_pattern()), "hexagon sublattice")
        assert dual != own

    def test_hexagon_copies_and_table_verdicts_die_with_their_keys(self, fresh_maps, hexagon_pair):
        l = named("MO_2").lattice
        pairs = [OrthoPair(l, pi) for pi in orthocomplementations(l)]
        for p in pairs:
            check_om_equivalences(p.lattice, p.pi)
            generated_polygroup_check(functor_E(p), 1, 2)
        check_om_equivalences(hexagon_pair.lattice, hexagon_pair.pi)
        assert len(lattice_core._HEXAGON_COPIES) == 2
        table = weakref.ref(functor_E(pairs[0]).mosaic.op)
        assert table()._polygroup_verdicts and table()._orthomodular_reports
        del l, pairs, p
        gc.collect()
        assert len(lattice_core._HEXAGON_COPIES) == 1
        assert table() is None

    def test_a_dual_lattice_gets_its_own_table(self, fresh_maps, hexagon_pair):
        h = hexagon_pair.lattice
        d = dual_lattice(h)
        own = functor_E(hexagon_pair).mosaic
        dual = functor_E(OrthoPair(d, hexagon_pair.pi)).mosaic
        assert own.op.table == additive_nakano(h).mosaic.op.table
        assert dual.op.table == additive_nakano(d).mosaic.op.table != own.op.table
        assert dual.neutral == d.bottom != own.neutral


class TestVerifiedOnce:
    def test_polygroup_checks_reconstruct_once(self, call_counts, fresh_maps):
        counts = call_counts(hyperstructure, "from_leq")
        call_counts(equivalence, "_dualizability_failure")
        e = named("MO_3")
        p = functor_E(OrthoPair(e.lattice, e.ortho))
        for x in range(p.size):
            for y in range(p.size):
                assert generated_polygroup_check(p, x, y).holds
        assert counts == {"from_leq": 1}

    def test_verified_pair_matches_external_input(self, ortholattices_upto_8):
        """functor_E builds its pairs unchecked; the full dualizability check
        runs on each of them here, through reconstruct_from."""
        named_pairs = [OrthoPair(named(name).lattice, named(name).ortho) for name in NAMED_ORTHO]
        for p in ortholattices_upto_8 + named_pairs:
            d = functor_E(p)
            assert reconstruct_lattice(d) == reconstruct_from(d.mosaic, d.pi)

    def test_memo_leaves_eq_hash_repr(self, hexagon_pair, fresh_maps):
        """The rebuilt lattice and the verdicts that a pair's table keeps
        enter neither the pair's nor the table's ==, hash or repr."""
        mo3 = named("MO_3")
        for p in (hexagon_pair, OrthoPair(mo3.lattice, mo3.ortho)):
            d = functor_E(p)
            before = (hash(d), repr(d), hash(d.mosaic.op), repr(d.mosaic.op))
            reconstruct_lattice(d)
            if is_orthomodular_mosaic(d).holds:
                for x in range(d.size):
                    for y in range(d.size):
                        generated_polygroup_check(d, x, y)
                assert d.mosaic.op._polygroup_verdicts
            assert d.mosaic.op._orthomodular_reports
            assert (hash(d), repr(d), hash(d.mosaic.op), repr(d.mosaic.op)) == before
            fresh = functor_E(p)
            assert d == fresh and hash(d) == hash(fresh)
            table = additive_nakano(p.lattice).mosaic.op
            assert d.mosaic.op == table and hash(d.mosaic.op) == hash(table)

    def test_table_with_wrong_bounds_is_a_typed_error(self):
        # 2^2 with its diagonal rewritten so that the atom a sits on top:
        # the order is still a lattice with bottom 0, but pi(0) is not its
        # top, and the table is no L-mosaic
        b2 = named("boolean_2")
        l = b2.lattice
        op = additive_nakano(l).mosaic.op
        a, one = l.index("a"), l.top
        op = op.with_cell(a, a, range(4)).with_cell(one, one, [l.bottom, one])
        m = Mosaic(op, l.bottom)
        with pytest.raises(ReconstructionFailure) as exc:
            reconstruct_from(m, b2.ortho)
        assert str(exc.value) == "Lms4 fails at (1, 2)"
        assert exc.value.witness == (1, 2)


@pytest.fixture(scope="module")
def relabeling_inputs(ortholattices_upto_8):
    """The lattices of the ortholattices with at most 8 elements, MO_2 to
    MO_5 and boolean_1 to boolean_4."""
    lattices = list({id(p.lattice): p.lattice for p in ortholattices_upto_8}.values())
    return lattices + [named(f"MO_{k}").lattice for k in range(2, 6)] + [
        named(f"boolean_{k}").lattice for k in range(1, 5)]


@settings(max_examples=10, deadline=None, derandomize=True)
@given(data=st.data())
def test_every_pi_of_a_relabeled_input_agrees_with_the_oracles(relabeling_inputs, data):
    """Each input lattice with its elements listed in a drawn order, as the
    benchmark's relabeled inputs are built, and each of its pis: the
    functor's table, the reconstruction, the orthomodularity verdict and
    the generated-polygroup verdicts of drawn (x, y) against tests/oracles.py.
    Every pi of a lattice runs over the one table they share."""
    associative = {}  # restricted table -> associativity_loops verdict
    for lattice in relabeling_inputs:
        doc = io.lattice_to_doc(lattice, None, "input")
        l, _, _ = io.lattice_from_doc(dict(doc, elements=data.draw(st.permutations(doc["elements"]))))
        xs = st.integers(0, l.size - 1)
        pairs = data.draw(st.lists(st.tuples(xs, xs), min_size=1, max_size=3))
        table = nakano_table_loops(l)
        for pi in orthocomplementations(l):
            d = functor_E(OrthoPair(l, pi))
            assert d.mosaic.op.table == table
            rebuilt = reconstruct_lattice(d)
            assert (rebuilt.lattice.leq, rebuilt.pi) == (l.leq, pi)
            criterion = orthomodular_criterion_loops(table, l.bottom, pi)
            assert is_orthomodular_mosaic(d) == criterion
            if not criterion.holds:
                continue
            for x, y in pairs:
                restricted = restricted_table_loops(table, generated_sublattice_loops(l, [x, y], pi))
                if restricted not in associative:
                    associative[restricted] = associativity_loops(restricted).holds
                assert generated_polygroup_check(d, x, y).holds == associative[restricted]
