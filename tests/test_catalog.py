import functools
import json
from dataclasses import fields
from pathlib import Path

import pytest

from mosaic_lab.bits import transpose
from mosaic_lab.errors import InvalidStructure, MosaicLabError, SizeTooLarge, UnknownName
from mosaic_lab.lattice_core import (
    _automorphism_generators,
    _orbit,
    find_sublattice_copy,
    from_leq,
    hexagon_pattern,
    is_modular,
    is_orthomodular,
    orthocomplementations,
    pentagon_pattern,
)
from mosaic_lab.catalog import (
    CATALOG_NAMES,
    CatalogEntry,
    _bounded_lattice_candidates,
    _conjugate,
    _is_canonical,
    _middle_posets,
    _ortho_classes,
    census,
    enumerate_lattices,
    enumerate_ortholattices,
    named,
)

from oracles import (
    brute_bounded_lattices,
    brute_poset_iso,
    canonical_key_unpruned,
    order_isomorphisms_loops,
    ortho_classes_loops,
)

FIXTURES = Path(__file__).parent / "fixtures"
COUNTS = json.loads((FIXTURES / "enumeration_counts.json").read_text())


class TestNamed:
    def test_flags_match_recomputation(self):
        for name in CATALOG_NAMES:
            entry = named(name)
            l = entry.lattice
            pis = orthocomplementations(l)
            assert entry.expected_flags["modular"] == is_modular(l).holds, name
            assert entry.expected_flags["ortholattice"] == bool(pis), name
            if entry.ortho is not None:
                assert entry.ortho in pis, name
                om = is_orthomodular(l, entry.ortho).holds
            else:
                om = False
            assert entry.expected_flags["orthomodular"] == om, name

    def test_pentagon_flags(self):
        assert named("pentagon").expected_flags == {
            "modular": False,
            "ortholattice": False,
            "orthomodular": False,
        }

    def test_hexagon_entry(self):
        e = named("hexagon")
        h = e.lattice
        assert e.ortho(h.index("a")) == h.index("a'")
        assert e.ortho(h.index("b")) == h.index("b'")
        assert e.ortho(h.index("0")) == h.index("1")
        # H contains a pentagon, hence is not modular
        assert e.expected_flags == {
            "modular": False,
            "ortholattice": True,
            "orthomodular": False,
        }

    def test_chain_1_all_flags(self):
        assert named("chain_1").expected_flags == {
            "modular": True,
            "ortholattice": True,
            "orthomodular": True,
        }

    def test_mo_n_sizes(self):
        for n in (1, 2, 3):
            e = named(f"MO_{n}")
            assert e.lattice.size == 2 * n + 2

    def test_boolean_sizes(self):
        for n in (1, 2, 3):
            assert named(f"boolean_{n}").lattice.size == 2 ** n

    def test_unknown(self):
        with pytest.raises(UnknownName):
            named("dodecahedron")

    def test_too_large(self):
        with pytest.raises(SizeTooLarge):
            named("boolean_9")
        with pytest.raises(SizeTooLarge):
            named("chain_99")

    @pytest.mark.parametrize("name, message", [
        ("chain_17", "chain_17: the catalog holds chain_1 to chain_16"),
        ("chain_0", "chain_0: the catalog holds chain_1 to chain_16"),
        ("boolean_5", "boolean_5: the catalog holds boolean_1 to boolean_4"),
        ("MO_7", "MO_7: the catalog holds MO_1 to MO_6"),
    ])
    def test_too_large_names_the_range(self, name, message):
        with pytest.raises(SizeTooLarge) as err:
            named(name)
        assert str(err.value) == message

    @pytest.mark.parametrize("name", [
        "chain_01", "boolean_02", "MO_03", "mo_03", "chain_00", "chain_\u0663", "boolean_\uff12",
        "chain_+3", "chain_3 ", "chain_",
    ])
    def test_one_spelling_per_entry(self, name):
        """Sizes are ASCII digits without a leading zero; any other
        spelling of a size is an unknown name, not a second name of the
        entry."""
        with pytest.raises(UnknownName, match="unknown catalog name"):
            named(name)

    def test_entry_names_are_canonical(self):
        assert named("chain_3").name == "chain_3"
        assert named("boolean_2").name == "boolean_2"
        assert named("mo_3").name == named("MO_3").name == "MO_3"


def natural_middle_posets(m):
    """Every naturally-labeled poset on 0..m-1, as strict down-set rows."""
    downs = []

    def rec(i):
        if i == m:
            yield tuple(downs)
            return
        for cand in range(1 << i):
            if all(downs[j] & ~cand == 0 for j in range(i) if cand >> j & 1):
                downs.append(cand)
                yield from rec(i + 1)
                downs.pop()

    yield from rec(0)


def least_of_common(rows, i, j):
    """The least element of rows[i] & rows[j] (rows[x]: the set above x)."""
    common = rows[i] & rows[j]
    return next((k for k in range(len(rows)) if common >> k & 1 and common & ~rows[k] == 0), None)


@functools.cache
def generate_filter_dedup(n):
    """The route the enumerator replaced: every naturally-labeled bounded
    poset on n elements, kept when every pair has a join and a meet, then
    deduplicated by the unpruned canonical key of tests/oracles.py, so that
    no pruning of the library's is shared.  Returns (lattices, keys) as
    frozensets, since the result is cached for every test that reads it."""
    if n == 1:
        return frozenset({(1,)}), frozenset({(1,)})
    m, full, top = n - 2, (1 << n) - 1, 1 << (n - 1)
    lattices = set()
    for downs in natural_middle_posets(m):
        up = [full] + [
            1 << (i + 1) | top | sum(1 << (j + 1) for j in range(m) if downs[j] >> i & 1)
            for i in range(m)
        ] + [top]
        down = [sum(1 << i for i in range(n) if up[i] >> j & 1) for j in range(n)]
        if all(
            least_of_common(up, i, j) is not None and least_of_common(down, i, j) is not None
            for i in range(n) for j in range(i + 1, n)
        ):
            lattices.add(tuple(up))
    return frozenset(lattices), frozenset(canonical_key_unpruned(up) for up in lattices)


class TestEnumerateLattices:
    def test_pruned_generator_loses_no_class(self):
        for n in range(1, 9):
            lattices, keys = generate_filter_dedup(n)
            assert {up for up, _ in _bounded_lattice_candidates(n)} <= lattices, n
            assert {l.leq for l in enumerate_lattices(n)} == keys, n

    @pytest.mark.parametrize("m", range(8))
    def test_middle_posets_keep_up_set_counts_sorted_within_each_down_set_size(self, m):
        """The generator cuts a branch before its leaves and runs no leaf
        test: every poset it yields still lists the elements of each run of
        equal down-set sizes with non-decreasing up-set sizes."""
        posets = list(_middle_posets(m))
        assert posets and len(posets) == len(set(posets))
        for downs in posets:
            above = [row.bit_count() for row in transpose(downs)]
            assert all(
                above[j] <= above[j + 1]
                for j in range(m - 1)
                if downs[j].bit_count() == downs[j + 1].bit_count()
            ), downs

    def test_each_class_is_listed_as_its_canonical_key_in_order(self):
        for n in range(1, 9):
            ls = enumerate_lattices(n)
            assert all(_is_canonical(l.leq, l.down) and canonical_key_unpruned(l.leq) == l.leq for l in ls), n
            ups = [l.leq for l in ls]
            assert ups == sorted(set(ups)), n

    def test_counts_match_frozen_fixture(self):
        for n, want in COUNTS["lattice_classes"].items():
            assert len(enumerate_lattices(int(n))) == want

    def test_classes_built_without_the_order_check_equal_from_leq(self):
        """enumerate_lattices builds each class from its candidate's up and
        down rows without the constructor's order check: a naturally
        labelled finite meet-semilattice with a top is a lattice.  The
        constructor, run on each class's names and up rows, builds the same
        lattice, field for field, with the same index, == and hash."""
        for n in range(1, 10):
            for l in enumerate_lattices(n):
                built = from_leq(l.names, l.leq)
                assert {f.name: getattr(l, f.name) for f in fields(l)} == {
                    f.name: getattr(built, f.name) for f in fields(built)
                }, l.leq
                assert [l.index(x) for x in l.names] == [built.index(x) for x in built.names] == list(range(n))
                assert l == built and hash(l) == hash(built), l.leq

    def test_agrees_with_bruteforce_oracle(self):
        for n in range(1, COUNTS["oracle_max_n"] + 1):
            oracle = brute_bounded_lattices(n)
            mine = enumerate_lattices(n)
            assert len(mine) == len(oracle)
            # and the classes themselves correspond one-to-one
            for l in mine:
                assert sum(1 for up in oracle if brute_poset_iso(list(l.leq), list(up))) == 1

    def test_no_isomorphic_duplicates(self):
        for n in (4, 5, 6):
            ls = enumerate_lattices(n)
            for i, a in enumerate(ls):
                for b in ls[i + 1 :]:
                    assert order_isomorphisms_loops(a.leq, b.leq) == []

    def test_pentagon_is_the_unique_nonmodular_5_class(self):
        ls = enumerate_lattices(5)
        nonmodular = [l for l in ls if not is_modular(l).holds]
        assert len(nonmodular) == 1
        assert order_isomorphisms_loops(nonmodular[0].leq, pentagon_pattern().leq)

    def test_deterministic(self):
        a = [l.leq for l in enumerate_lattices(6)]
        b = [l.leq for l in enumerate_lattices(6)]
        assert a == b

    def test_size_guard(self):
        with pytest.raises(SizeTooLarge):
            enumerate_lattices(10)
        with pytest.raises(SizeTooLarge):
            enumerate_lattices(0)

    def test_a_size_that_is_no_int_is_refused(self):
        """A bool, a float, a str or None is no size: InvalidStructure at
        entry, not one lattice of size True or a bare TypeError."""
        for n in (True, 2.0, "3", None):
            with pytest.raises(InvalidStructure):
                enumerate_lattices(n)


def pi_compatible_isomorphic(p, q) -> bool:
    if p.lattice.size != q.lattice.size:
        return False
    for sigma in order_isomorphisms_loops(p.lattice.leq, q.lattice.leq):
        if all(sigma[p.pi(x)] == q.pi(sigma[x]) for x in range(p.lattice.size)):
            return True
    return False


class TestEnumerateOrtholattices:
    def test_counts_match_frozen_fixture(self):
        for n, want in COUNTS["ortholattice_pairs"].items():
            assert len(enumerate_ortholattices(int(n))) == want

    def test_a_size_that_is_no_int_is_refused(self):
        for n in (2.5, True):
            with pytest.raises(InvalidStructure):
                enumerate_ortholattices(n)

    def test_n2_is_the_two_chain(self):
        pairs = enumerate_ortholattices(2)
        assert len(pairs) == 1
        assert pairs[0].pi.map == (1, 0)

    def test_n6_includes_hexagon_and_mo2(self):
        pairs = enumerate_ortholattices(6)
        h = named("hexagon")
        mo2 = named("MO_2")
        from mosaic_lab.lattice_core import OrthoPair

        targets = [OrthoPair(h.lattice, h.ortho), OrthoPair(mo2.lattice, mo2.ortho)]
        for t in targets:
            assert sum(1 for p in pairs if pi_compatible_isomorphic(p, t)) == 1

    def test_no_pi_compatible_duplicates(self):
        for n in (4, 6, 8):
            pairs = enumerate_ortholattices(n)
            for i, a in enumerate(pairs):
                for b in pairs[i + 1 :]:
                    assert not pi_compatible_isomorphic(a, b)

    def test_classes_agree_with_conjugation_by_every_automorphism(self, lattices_upto_8):
        """Over every enumerated class with at most 8 elements and MO_2 to
        MO_4, the orbits reached from the automorphism generators are the
        classes that conjugating by every automorphism gives, and the pairs
        are their least maps, in order."""
        lattices = lattices_upto_8 + [named(f"MO_{k}").lattice for k in range(2, 5)]
        classes = 0
        for l in lattices:
            want = ortho_classes_loops(l)
            pairs = _ortho_classes(l)
            assert all(p.lattice is l for p in pairs)
            assert [p.pi.map for p in pairs] == [maps[0] for maps in want], l.leq
            gens = _automorphism_generators(l)
            assert [sorted(_orbit(maps[0], gens, _conjugate)) for maps in want] == want, l.leq
            classes += len(pairs)
        assert classes == 13  # 10 up to 8 elements, and MO_2 to MO_4 once more

    def test_mo5_is_one_class(self):
        """MO_5's 945 orthocomplementations are one orbit, reached without
        listing its 3 628 800 automorphisms."""
        assert len(_ortho_classes(named("MO_5").lattice)) == 1

    def test_odd_sizes_above_one_are_empty(self):
        assert enumerate_ortholattices(3) == []
        assert enumerate_ortholattices(5) == []
        assert enumerate_ortholattices(7) == []


class TestClassifierClosure:
    def test_modular_iff_pentagon_free_upto_8(self):
        p = pentagon_pattern()
        for n in range(1, 9):
            for l in enumerate_lattices(n):
                assert is_modular(l).holds == (find_sublattice_copy(l, p) is None)

    def test_orthomodular_iff_hexagon_free(self, ortholattices_upto_8):
        h = hexagon_pattern()
        for pair in ortholattices_upto_8:
            om = is_orthomodular(pair.lattice, pair.pi).holds
            assert om == (find_sublattice_copy(pair.lattice, h) is None)


def test_catalog_entry_without_a_flag_raises_a_typed_error():
    entry = named("boolean_2")
    flags = {key: entry.expected_flags[key] for key in ("modular", "ortholattice")}
    with pytest.raises(InvalidStructure) as exc:
        CatalogEntry("boolean_2", entry.lattice, entry.ortho, flags)
    assert str(exc.value) == "missing flag orthomodular"
    assert isinstance(exc.value, MosaicLabError) and isinstance(exc.value, ValueError)


def test_census_shape_and_determinism():
    rows = census(5)
    assert len(rows) == 5
    assert rows == census(5)
    assert sum(1 for r in rows if not r["modular"]) == 1
    assert all(not r["ortholattice"] for r in rows)


def test_census_refuses_a_size_that_is_no_int():
    """census(True) would otherwise give the row id "nTrue_0"."""
    for n in (True, None):
        with pytest.raises(InvalidStructure):
            census(n)


def test_census_enumerates_once(call_counts):
    import mosaic_lab.catalog as cat

    counts = call_counts(cat, "enumerate_lattices")
    rows = census(6)
    assert counts == {"enumerate_lattices": 1}
    assert sum(r["ortho_count"] for r in rows) == len(enumerate_ortholattices(6))
