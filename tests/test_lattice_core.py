import itertools
import random
from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mosaic_lab.bits import bits, mask_of
from mosaic_lab.errors import (
    CyclicCovers,
    DuplicateLabel,
    InvalidStructure,
    MosaicLabError,
    NotALattice,
    NotAnOrder,
    NotAnOrthocomplementation,
    NotASublattice,
    NotBounded,
    SizeMismatch,
    UnknownName,
)
from mosaic_lab.lattice_core import (
    AxiomReport,
    FiniteBoundedLattice,
    Involution,
    build_from_covers,
    check_om_equivalences,
    complements,
    dual_lattice,
    find_sublattice_copy,
    from_leq,
    generated_sublattice,
    hexagon_pattern,
    is_distributive,
    is_modular,
    is_order_reversing,
    is_orthocomplementation,
    is_orthomodular,
    orthocomplementations,
    sublattice,
)
from mosaic_lab.catalog import named

from oracles import (
    bound_tables_scan,
    brute_bound,
    brute_sublattice_copy,
    closure_oracle,
    complement_selecting_involutions,
    least_closed_superset,
    modular_loops,
    order_isomorphisms_loops,
)


def omega(l) -> dict:
    return {x: complements(l, x) for x in range(l.size)}


def omega_cubed(l) -> dict:
    om = omega(l)
    return {x: {t for y in om[x] for z in om[y] for t in om[z]} for x in range(l.size)}


def test_axiom_report_witness_discipline():
    with pytest.raises(ValueError):
        AxiomReport("x", True, (1,))
    with pytest.raises(ValueError):
        AxiomReport("x", False)
    r = AxiomReport("x", False, (0, 1), "why")
    assert r.witness == (0, 1)


@pytest.mark.parametrize(
    "holds, witness, message",
    [(True, (1,), "passing report must not carry a witness"), (False, None, "failing report for 'x' needs a witness")],
)
def test_axiom_report_that_contradicts_its_verdict_raises_a_typed_error(holds, witness, message):
    with pytest.raises(InvalidStructure) as exc:
        AxiomReport("x", holds, witness)
    assert str(exc.value) == message
    assert isinstance(exc.value, MosaicLabError) and isinstance(exc.value, ValueError)


def test_involution_validation():
    Involution((1, 0, 2))
    with pytest.raises(ValueError):
        Involution((1, 2, 0))
    with pytest.raises(ValueError):
        Involution((0, 0))


@pytest.mark.parametrize(
    "entries", [(0.0,), (1, 0.0), ("0",), (None,), (True, False), (1, False), [1, 0.0], iter([None]), "10"]
)
def test_involution_entries_that_are_no_ints_raise_a_typed_error(entries):
    with pytest.raises(InvalidStructure, match=r"^involution entries must be ints, got \("):
        Involution(entries)


@pytest.mark.parametrize("entries", [[3, 2, 1, 0], iter([3, 2, 1, 0]), range(3, -1, -1), (3, 2, 1, 0)])
def test_an_involution_stores_its_map_as_a_tuple(entries):
    """Any iterable of ints gives the same hashable Involution as its
    tuple."""
    pi = Involution(entries)
    assert type(pi.map) is tuple and pi.map == (3, 2, 1, 0)
    assert pi == Involution((3, 2, 1, 0)) and hash(pi) == hash(Involution((3, 2, 1, 0)))
    assert {pi: 1}[Involution((3, 2, 1, 0))] == 1


@pytest.mark.parametrize("entries", [None, 3, 1.5])
def test_an_involution_map_that_is_no_iterable_raises_a_typed_error(entries):
    with pytest.raises(InvalidStructure, match=r"^involution map must be a sequence of ints, got "):
        Involution(entries)


class TestBuildFromCovers:
    def test_pentagon_structure(self, pentagon):
        p = pentagon.lattice
        assert p.names == ("0", "a", "b", "c", "1")
        assert p.bottom == 0 and p.top == 4
        assert p.le(p.index("b"), p.index("a"))
        assert not p.le(p.index("a"), p.index("c"))

    def test_one_element(self):
        l = build_from_covers(["x"], [])
        assert l.bottom == l.top == 0
        assert l.join(0, 0) == l.meet(0, 0) == 0

    def test_kite_succeeds(self):
        l = build_from_covers(["0", "a", "b", "1"], [("0", "a"), ("0", "b"), ("a", "1"), ("b", "1")])
        assert l.join(l.index("a"), l.index("b")) == l.index("1")
        assert l.meet(l.index("a"), l.index("b")) == l.index("0")

    def test_missing_cover_not_bounded(self):
        with pytest.raises(NotBounded):
            build_from_covers(["0", "a", "b", "1"], [("0", "a"), ("0", "b"), ("a", "1")])

    def test_bowtie_not_a_lattice(self):
        covers = [("0", "a"), ("0", "b"), ("a", "c"), ("a", "d"), ("b", "c"), ("b", "d"), ("c", "1"), ("d", "1")]
        with pytest.raises(NotALattice):
            build_from_covers(["0", "a", "b", "c", "d", "1"], covers)

    def test_cycle_rejected(self):
        with pytest.raises(CyclicCovers):
            build_from_covers(["a", "b", "c"], [("a", "b"), ("b", "c"), ("c", "a")])
        with pytest.raises(CyclicCovers):
            build_from_covers(["a"], [("a", "a")])

    def test_duplicate_label(self):
        with pytest.raises(DuplicateLabel):
            build_from_covers(["x", "x"], [])

    def test_unknown_cover_label(self):
        with pytest.raises(UnknownName):
            build_from_covers(["x"], [("x", "y")])

    def test_index_of_an_unknown_label(self, pentagon):
        with pytest.raises(UnknownName, match="^unknown element 'z'$"):
            pentagon.lattice.index("z")

    def test_a_long_label_is_echoed_cut_short(self, pentagon):
        """A message quotes at most 60 characters of a label, then "..."."""
        long = "x" * 10_000
        echoed = repr(long)[:60] + "..."
        with pytest.raises(UnknownName) as exc:
            pentagon.lattice.index(long)
        assert str(exc.value) == f"unknown element {echoed}"
        with pytest.raises(CyclicCovers) as exc:
            build_from_covers(["0", long], [(long, long)])
        assert str(exc.value) == f"self-loop at {echoed}"

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)), max_size=10))
    def test_random_covers_agree_with_closure_oracle(self, pairs):
        names = list(range(6))
        covers = [(a, b) for a, b in pairs if a != b]
        up = closure_oracle(names, covers)
        try:
            l = build_from_covers(names, covers)
        except CyclicCovers:
            assert up is None or any(
                (b, a) in [(x, y) for x in names for y in up[x] if x != y] for a in names for b in up[a] if a != b
            )
            return
        except (NotBounded, NotALattice):
            return
        assert up is not None
        for i, x in enumerate(names):
            assert set(bits(l.leq[i])) == {names.index(y) for y in up[x]}
        # lattice invariants: canonical order vs tables, absorption, monotonicity
        for x in range(l.size):
            for y in range(l.size):
                assert l.le(x, y) == (l.meet(x, y) == x) == (l.join(x, y) == y)
                assert l.join(x, l.meet(x, y)) == x
                assert l.meet(x, l.join(x, y)) == x
                exp = brute_bound({i: set(bits(l.leq[i])) for i in range(l.size)}, range(l.size), (x, y), True)
                assert l.join(x, y) == exp
                for z in range(l.size):
                    if l.le(x, y):
                        assert l.le(l.meet(x, z), l.meet(y, z))
                        assert l.le(l.join(x, z), l.join(y, z))


def _oracle_lattice(rows):
    """(join, meet, bottom, top) of the bounded lattice whose up-set rows are
    rows, found by closure and scanning; None when rows are no such order."""
    names = range(len(rows))
    up = closure_oracle(names, [(i, j) for i in names for j in bits(rows[i]) if i != j])
    if up is None or any(up[i] != set(bits(rows[i])) for i in names):
        return None  # not reflexive, transitive and antisymmetric

    def bound(xs, upper):
        return brute_bound(up, names, xs, upper)

    join = [[bound((x, y), True) for y in names] for x in names]
    meet = [[bound((x, y), False) for y in names] for x in names]
    bottom, top = bound((), True), bound((), False)
    if bottom is None or top is None or any(None in row for row in join + meet):
        return None
    return join, meet, bottom, top


def _random_rows(rng, n):
    """Up rows of a random reflexive acyclic relation under a random labeling;
    most get a bottom and a top, and most are closed transitively, so that
    orders, non-orders, lattices and non-lattices all occur."""
    order = rng.sample(range(n), n)
    rows = [1 << i for i in range(n)]
    for a, b in itertools.combinations(range(n), 2):
        if rng.random() < (0.9 if a == 0 or b == n - 1 else 0.3):
            rows[order[a]] |= 1 << order[b]
    if rng.random() < 0.8:
        for k in range(n):
            for i in range(n):
                if rows[i] >> k & 1:
                    rows[i] |= rows[k]
    return rows


class TestFromLeq:
    def test_builds_exactly_the_bounded_lattices(self):
        """Every up-row matrix on at most 3 elements and seeded random ones on
        4 to 6: from_leq builds the lattice with the oracles' order, tables
        and bounds, or raises when the rows are no bounded lattice order."""
        rng = random.Random(20261018)
        inputs = [rows for n in range(4) for rows in itertools.product(range(1 << n), repeat=n)]
        for n in range(4, 7):
            inputs += [[rng.randrange(1 << n) for _ in range(n)] for _ in range(200)]
            inputs += [_random_rows(rng, n) for _ in range(400)]
        built = 0
        for rows in inputs:
            n = len(rows)
            want = _oracle_lattice(rows)
            try:
                l = from_leq([f"x{i}" for i in range(n)], rows)
            except MosaicLabError:
                assert want is None, rows
                continue
            assert want is not None, rows
            built += 1
            join, meet, bottom, top = want
            assert l.size == n and l.leq == tuple(rows)
            assert l.down == tuple(mask_of(i for i in range(n) if rows[i] >> j & 1) for j in range(n))
            assert [list(r) for r in l.join_table] == join
            assert [list(r) for r in l.meet_table] == meet
            assert (l.bottom, l.top) == (bottom, top)
        assert 0 < built < len(inputs)

    @pytest.mark.parametrize(
        "rows, message",
        [
            ([2, 3], "leq not reflexive at 0"),
            ([3, 3], "leq not antisymmetric at (0,1)"),
            # 1 <= 2 <= 3 without 1 <= 3, between a bottom 0 and a top 4
            ([0b11111, 0b10110, 0b11100, 0b11000, 0b10000], "leq not transitive through (1,2)"),
        ],
    )
    def test_rows_that_are_no_order_raise_a_typed_error(self, rows, message):
        with pytest.raises(NotAnOrder) as exc:
            from_leq([f"x{i}" for i in range(len(rows))], rows)
        assert str(exc.value) == message
        assert isinstance(exc.value, MosaicLabError) and isinstance(exc.value, ValueError)

    def test_duplicate_labels_raise_a_typed_error(self):
        for names, rows in ((["x", "x"], [0b11, 0b10]), (["a", "b", "a"], [0b111, 0b110, 0b100])):
            with pytest.raises(DuplicateLabel, match="^duplicate element labels$"):
                from_leq(names, rows)

    def test_row_count_must_match_label_count(self):
        for names, rows in ((["a"], []), (["a", "b"], [3]), ([], [1]), (["a"], [3])):
            with pytest.raises(SizeMismatch):
                from_leq(names, rows)
        assert issubclass(SizeMismatch, MosaicLabError)

    @pytest.mark.parametrize("rows", [[1.0], ["1"], [None], [True], [0b11, 2.0], [0b11, "2"], [0b11, None]])
    def test_rows_that_are_no_ints_raise_a_typed_error(self, rows):
        with pytest.raises(InvalidStructure) as exc:
            from_leq([f"x{i}" for i in range(len(rows))], rows)
        assert str(exc.value) == f"up-set rows must be int bitmasks, got {tuple(rows)!r}"


@pytest.mark.parametrize(
    "call",
    [
        lambda l: sublattice(l, [0, l.size]),
        lambda l: sublattice(l, 1 << l.size | 1),
        lambda l: sublattice(l, -1),
        lambda l: is_distributive(l, [-1, 0]),
        lambda l: generated_sublattice(l, [l.size]),
        lambda l: generated_sublattice(l, [-1, 0]),
        lambda l: generated_sublattice(l, [3], Involution.identity(2)),
        lambda l: generated_sublattice(l, [3], Involution.identity(l.size + 2)),
        lambda l: complements(l, l.size),
        lambda l: complements(l, -1),
    ],
    ids=["sublattice", "sublattice-mask", "sublattice-negative-mask", "is_distributive",
         "generated_sublattice", "generated_sublattice-negative", "generated_sublattice-short-pi",
         "generated_sublattice-long-pi", "complements", "complements-negative"],
)
def test_elements_past_the_carrier_raise_size_mismatch(call):
    """Checked once on entry: no bare IndexError, no negative shift count,
    no answer for the element that a negative index wraps around to, and no
    answer from an involution of another size."""
    with pytest.raises(SizeMismatch):
        call(named("MO_2").lattice)



@pytest.mark.parametrize(
    "call",
    [
        lambda l: sublattice(l, [0, l.size - 1, True]),
        lambda l: sublattice(l, True),
        lambda l: sublattice(l, [l.size - 1, True]),
        lambda l: is_distributive(l, [0.0, 1]),
        lambda l: generated_sublattice(l, [False]),
        lambda l: complements(l, True),
    ],
    ids=["sublattice-bool-member", "sublattice-bool-mask", "sublattice-top-and-bool", "is_distributive-float",
         "generated_sublattice-bool", "complements-bool"],
)
def test_elements_that_are_no_ints_raise_a_typed_error(call):
    """A bool is no element: [0, 5, True] is not the subset {0, 1, 5}, and
    True is no mask of {0}."""
    with pytest.raises(InvalidStructure, match="ints"):
        call(named("MO_2").lattice)

def test_join_meet_tables_equal_a_scan(lattices_upto_8):
    """The joins and meets the constructor reads off the rows are the bounds
    a scan of the whole carrier finds."""
    extra = [f"boolean_{k}" for k in range(1, 5)] + [f"MO_{k}" for k in range(2, 7)]
    for l in lattices_upto_8 + [named(name).lattice for name in extra]:
        assert (l.join_table, l.meet_table) == bound_tables_scan(l.leq)


def test_join_meet_tables_commutative_associative(lattices_upto_6):
    for l in lattices_upto_6:
        for x in range(l.size):
            for y in range(l.size):
                assert l.join(x, y) == l.join(y, x)
                assert l.meet(x, y) == l.meet(y, x)
                for z in range(l.size):
                    assert l.join(l.join(x, y), z) == l.join(x, l.join(y, z))
                    assert l.meet(l.meet(x, y), z) == l.meet(x, l.meet(y, z))


class TestComplements:
    def test_pentagon_a(self, pentagon):
        p = pentagon.lattice
        assert complements(p, p.index("a")) == {p.index("c")}

    def test_bottom_complements_top(self, lattices_upto_6):
        for l in lattices_upto_6:
            assert complements(l, l.bottom) == {l.top}

    def test_hexagon_b(self, hexagon):
        h = hexagon.lattice
        assert complements(h, h.index("b")) == {h.index("a'"), h.index("b'")}

    # O1 and O2 by relation chasing over omega, the complement multimap

    def test_o1_everywhere(self, lattices_upto_6):
        # omega(x) nonempty implies x in omega(omega(x))
        for l in lattices_upto_6:
            for x in range(l.size):
                om = complements(l, x)
                assert not om or any(x in complements(l, y) for y in om)

    def test_o2_fails_exactly_where_frozen(self, lattices_upto_6):
        # the omega^3 = omega claim is false in general; frozen from this
        # corpus: exactly three counterexample classes up to 6 elements (the
        # diamond M3, the 4-atom diamond M4, and the pentagon with a doubled
        # atom)
        failing = [l for l in lattices_upto_6 if omega_cubed(l) != omega(l)]
        assert len(failing) == 3
        m3 = named("diamond_M3").lattice
        assert any(order_isomorphisms_loops(l.leq, m3.leq) for l in failing)

    def test_o2_counterexample_diamond(self):
        # in M3, omega(a) = {b, c} but omega^3(a) is all three atoms
        m3 = named("diamond_M3").lattice
        om, om3 = omega(m3), omega_cubed(m3)
        atoms = {x for x in range(m3.size) if x not in (m3.bottom, m3.top)}
        assert {x for x in range(m3.size) if om3[x] != om[x]} == atoms
        for x in atoms:
            assert om[x] == atoms - {x} and om3[x] == atoms

    def test_non_involutive_complement_selector_exists_on_diamond(self):
        # pi(a)=b, pi(b)=c, pi(c)=a picks complements but is not an involution
        m3 = named("diamond_M3").lattice
        sel = {0: m3.top, m3.top: 0}
        a, b, c = (m3.index(x) for x in "abc")
        sel.update({a: b, b: c, c: a})
        for x, y in sel.items():
            assert y in complements(m3, x)
        assert sel[sel[a]] != a


class TestOrthocomplementations:
    def test_hexagon_unique(self, hexagon):
        h = hexagon.lattice
        pis = orthocomplementations(h)
        assert len(pis) == 1
        want = {"0": "1", "a": "a'", "b": "b'"}
        for k, v in want.items():
            assert pis[0](h.index(k)) == h.index(v)

    def test_hexagon_oc1_violator(self, hexagon):
        # the swap a<->b', b<->a' also selects complements but breaks OC1
        h = hexagon.lattice
        sel = complement_selecting_involutions(h)
        ortho = orthocomplementations(h)
        violators = [pi for pi in sel if pi not in ortho]
        assert len(violators) == 1
        assert not is_order_reversing(h, violators[0])
        assert violators[0](h.index("a")) == h.index("b'")

    def test_pentagon_none(self, pentagon):
        assert orthocomplementations(pentagon.lattice) == []

    def test_pi_of_another_size_is_no_orthocomplementation(self, hexagon):
        h = hexagon.lattice
        for pi in (Involution.identity(h.size - 1), Involution((*hexagon.ortho.map, h.size))):
            assert not is_orthocomplementation(h, pi)
        assert is_orthocomplementation(h, hexagon.ortho)

    def test_boolean_2_set_complement(self):
        b2 = named("boolean_2")
        pis = orthocomplementations(b2.lattice)
        assert pis == [b2.ortho]

    def test_oc1_filter_report_over_corpus(self, lattices_upto_6):
        # every complement-selecting involution that is dropped violates OC1
        dropped = 0
        for l in lattices_upto_6:
            keep = orthocomplementations(l)
            for pi in complement_selecting_involutions(l):
                if pi in keep:
                    assert is_order_reversing(l, pi)
                else:
                    dropped += 1
                    assert not is_order_reversing(l, pi)
        assert dropped > 0  # the hexagon violator is in this corpus

    def test_de_morgan_laws_hold(self, lattices_upto_8):
        """OC2 and OC3 follow from OC1 and are not tested by
        orthocomplementations; every map it returns satisfies them."""
        extra = [f"boolean_{k}" for k in range(1, 5)] + [f"MO_{k}" for k in range(2, 6)] + ["hexagon"]
        maps = 0
        for l in lattices_upto_8 + [named(name).lattice for name in extra]:
            for pi in orthocomplementations(l):
                maps += 1
                for x in range(l.size):
                    for y in range(l.size):
                        assert pi(l.join(x, y)) == l.meet(pi(x), pi(y)), "OC2"
                        assert pi(l.meet(x, y)) == l.join(pi(x), pi(y)), "OC3"
        assert maps


def test_orthocomplementations_are_listed_in_lexicographic_order(lattices_upto_8):
    """catalog._ortho_classes takes the first map of each conjugacy class
    as its least, so the listing must come sorted."""
    extra = [f"MO_{k}" for k in range(2, 6)] + [f"boolean_{k}" for k in range(1, 5)] + ["hexagon"]
    longest = 0
    for l in lattices_upto_8 + [named(name).lattice for name in extra]:
        maps = [pi.map for pi in orthocomplementations(l)]
        assert maps == sorted(maps), l.names
        longest = max(longest, len(maps))
    assert longest == 945  # MO_5


class TestModularity:
    def test_pentagon_witness_falsifies(self, pentagon):
        p = pentagon.lattice
        rep = is_modular(p)
        assert not rep.holds
        x, y, z = rep.witness
        assert p.join(x, p.meet(y, p.join(x, z))) != p.meet(p.join(x, y), p.join(x, z))

    def test_chains_modular(self):
        for n in (1, 2, 5):
            assert is_modular(named(f"chain_{n}").lattice).holds

    def test_hexagon_not_modular(self, hexagon):
        # H contains the pentagon {0,b,a,a',1}, so it cannot be modular
        assert not is_modular(hexagon.lattice).holds

    def test_fact3_pentagon_freeness(self, lattices_upto_6, pentagon):
        for l in lattices_upto_6:
            assert is_modular(l).holds == (find_sublattice_copy(l, pentagon.lattice) is None)

    def test_least_witness_matches_the_triple_scan(self, lattices_upto_8):
        """is_modular tests only the x v z above each x; its report, least
        witness included, is the one of the scan over all n^3 triples."""
        wide = [named(name).lattice for name in ("chain_16", "boolean_4", "MO_6", "hexagon", "pentagon")]
        failing = 0
        for l in lattices_upto_8 + wide:
            for lattice in (l, dual_lattice(l)):
                report = is_modular(lattice)
                assert report == modular_loops(lattice), lattice.names
                failing += not report.holds
        assert failing


class TestSublatticeCopy:
    def test_hexagon_contains_pentagon(self, hexagon, pentagon):
        h, p = hexagon.lattice, pentagon.lattice
        copy = find_sublattice_copy(h, p)
        assert copy is not None
        for u in range(p.size):
            for v in range(p.size):
                assert copy[p.join(u, v)] == h.join(copy[u], copy[v])
                assert copy[p.meet(u, v)] == h.meet(copy[u], copy[v])

    def test_identity_copy(self, pentagon):
        assert find_sublattice_copy(pentagon.lattice, pentagon.lattice) == (0, 1, 2, 3, 4)

    def test_boolean_3_pentagon_free(self, pentagon):
        assert find_sublattice_copy(named("boolean_3").lattice, pentagon.lattice) is None

    def test_agrees_with_bruteforce(self, pentagon):
        pats = [pentagon.lattice, hexagon_pattern()]
        hosts = [named(x).lattice for x in ("hexagon", "boolean_2", "diamond_M3", "chain_3", "MO_2")]
        for host in hosts:
            for pat in pats:
                got = find_sublattice_copy(host, pat)
                want = brute_sublattice_copy(host, pat)
                assert (got is None) == (want is None)


class TestOrthomodularity:
    def test_hexagon_witness(self, hexagon):
        h = hexagon.lattice
        rep = is_orthomodular(h, hexagon.ortho)
        assert not rep.holds
        assert rep.witness == (h.index("b"), h.index("a"))
        b, a = rep.witness
        pi = hexagon.ortho
        assert h.join(b, h.meet(pi(b), a)) == b != a

    def test_booleans_orthomodular(self):
        for n in (1, 2, 3):
            e = named(f"boolean_{n}")
            assert is_orthomodular(e.lattice, e.ortho).holds

    def test_one_element(self):
        e = named("chain_1")
        assert is_orthomodular(e.lattice, e.ortho).holds

    def test_requires_orthocomplementation(self, pentagon, hexagon):
        """The pentagon has no orthocomplementation, and an involution of
        another size orthocomplements nothing; both laws check pi through
        OrthoPair and raise its error."""
        for law in (is_orthomodular, check_om_equivalences):
            for l, pi in ((pentagon.lattice, Involution.identity(5)), (hexagon.lattice, Involution.identity(4))):
                with pytest.raises(NotAnOrthocomplementation, match="pi does not orthocomplement the lattice"):
                    law(l, pi)

    def test_om_equivalences_hexagon_all_false(self, hexagon):
        reports = check_om_equivalences(hexagon.lattice, hexagon.ortho)
        assert [r.axiom for r in reports] == ["OM1", "OM2", "OM3", "OM4"]
        assert all(not r.holds for r in reports)

    def test_om_equivalences_boolean_2_all_true(self):
        e = named("boolean_2")
        assert all(r.holds for r in check_om_equivalences(e.lattice, e.ortho))

    def test_om_equivalences_mo2_all_true(self):
        e = named("MO_2")
        assert all(r.holds for r in check_om_equivalences(e.lattice, e.ortho))


class TestGeneratedSublattice:
    def test_pentagon_bc(self, pentagon):
        p = pentagon.lattice
        got = generated_sublattice(p, [p.index("b"), p.index("c")])
        assert got == {p.index("0"), p.index("b"), p.index("c"), p.index("1")}

    def test_singleton(self, pentagon):
        assert generated_sublattice(pentagon.lattice, [2]) == {2}

    def test_hexagon_pi_closed_is_everything(self, hexagon):
        h = hexagon.lattice
        got = generated_sublattice(h, [h.index("b"), h.index("a")], hexagon.ortho)
        assert got == set(range(h.size))

    def test_empty_seeds_are_a_typed_error(self, pentagon):
        for seeds in ([], iter(())):
            with pytest.raises(NotASublattice, match="^seeds must be nonempty$") as info:
                generated_sublattice(pentagon.lattice, seeds)
            assert isinstance(info.value, MosaicLabError)
            assert isinstance(info.value, ValueError)

    def test_agrees_with_intersection_oracle(self, hexagon):
        h = hexagon.lattice
        for x in range(h.size):
            for y in range(h.size):
                assert generated_sublattice(h, [x, y]) == least_closed_superset(h, [x, y])
                assert generated_sublattice(h, [x, y], hexagon.ortho) == least_closed_superset(
                    h, [x, y], hexagon.ortho
                )


class TestDistributivity:
    def test_chain_subset(self, pentagon):
        p = pentagon.lattice
        assert is_distributive(p, [0, 2, 1, 4]).holds  # the chain 0<b<a<1

    def test_full_pentagon_fails(self, pentagon):
        rep = is_distributive(pentagon.lattice)
        assert not rep.holds
        x, y, z = rep.witness
        p = pentagon.lattice
        assert p.meet(x, p.join(y, z)) != p.join(p.meet(x, y), p.meet(x, z))

    def test_boolean_3(self):
        assert is_distributive(named("boolean_3").lattice).holds

    def test_rejects_non_closed_subset(self, pentagon):
        with pytest.raises(NotASublattice):
            is_distributive(pentagon.lattice, [1, 3])  # a,c: join 1 missing


def all_fields(l):
    """Every field of a lattice, the derived ones included."""
    return {f.name: getattr(l, f.name) for f in fields(l)}


DUAL_EXTRA = ("chain_16", "boolean_4", "MO_6", "hexagon")


class TestDual:
    def test_equals_the_constructed_dual(self, lattices_upto_8):
        """dual_lattice swaps l's rows, tables and bounds without running the
        constructor; the dual of a lattice is a lattice, and the constructor
        run on the down rows builds the same one, field for field.  The
        multiplicative Nakano mosaic is the additive one of this dual."""
        for l in lattices_upto_8 + [named(name).lattice for name in DUAL_EXTRA]:
            assert all_fields(dual_lattice(l)) == all_fields(FiniteBoundedLattice(l.names, l.down)), l.names

    def test_involutive(self, lattices_upto_8):
        for l in lattices_upto_8 + [named(name).lattice for name in DUAL_EXTRA]:
            assert all_fields(dual_lattice(dual_lattice(l))) == all_fields(l), l.names

    def test_chain_reversed(self):
        c = named("chain_3").lattice
        d = dual_lattice(c)
        assert d.bottom == c.top and d.top == c.bottom
        assert d.le(c.top, c.bottom)

    def test_pentagon_self_dual_via_expected_map(self, pentagon):
        p = pentagon.lattice
        d = dual_lattice(p)
        sigma = tuple(p.index({"0": "1", "1": "0", "a": "b", "b": "a", "c": "c"}[p.names[i]]) for i in range(5))
        assert order_isomorphisms_loops(d.leq, p.leq)
        # the expected map is itself an isomorphism dual(P) -> P
        for x in range(5):
            for y in range(5):
                assert d.le(x, y) == p.le(sigma[x], sigma[y])


class TestEqualityAndHash:
    def test_eq_and_hash_read_names_and_leq(self, lattices_upto_6):
        for l in lattices_upto_6:
            same = from_leq(l.names, l.leq)
            assert same == l and hash(same) == hash(l)
            assert same.leq == l.leq
            if l.size > 1:
                assert dual_lattice(l) != l
                assert from_leq(tuple(reversed(l.names)), l.leq) != l

    def test_covers_and_leq_give_one_set_element(self, pentagon):
        p = pentagon.lattice
        by_covers = build_from_covers(p.names, [(p.names[i], p.names[j]) for i, j in p.covers()])
        by_leq = from_leq(p.names, p.leq)
        assert by_covers is not by_leq
        assert {by_covers, by_leq, p} == {p}


def test_sublattice_restriction(pentagon):
    p = pentagon.lattice
    sub, members = sublattice(p, [0, 2, 1, 4])
    assert members == (0, 1, 2, 4)
    assert sub.size == 4 and sub.names == ("0", "a", "b", "1")
    with pytest.raises(NotASublattice):
        sublattice(p, [1, 3])
    for empty in ([], 0):
        with pytest.raises(NotASublattice, match="^empty subset$"):
            sublattice(p, empty)
    # a repeated member counts once
    sub, members = sublattice(p, [0, 0, 4])
    assert members == (0, 4) and sub.names == ("0", "1") and sub.leq == (0b11, 0b10)


def test_automorphisms_m3():
    m3 = named("diamond_M3").lattice
    assert len(order_isomorphisms_loops(m3.leq, m3.leq)) == 6  # S3 on the atoms
