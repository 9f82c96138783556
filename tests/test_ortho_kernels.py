"""The ortholattice kernels against their element-at-a-time references, and
the inverse direction of the paper's main theorem.

OC1, the orthocomplement search, OM1-OM4 with the sublattice-copy search
and the generated closures, the mosaic-side orthomodularity criterion, the
dualizability check and the pi-dual table read whole bitmask rows;
tests/oracles.py keeps each one element at a time.
Results must agree exactly, map order and least witness included, on every
lattice with at most 6 elements, the lattices of the ortholattices with at
most 8, MO_2 to MO_6, boolean_1 to boolean_4 and the hexagon, and on seeded
cell edits of their Nakano tables.  OM1-OM4 run on every orthocomplementation
of these lattices except MO_5 and MO_6, where a seeded sample of their 945
and 10 395 maps keeps the references quick; the criterion runs on all of
them.

The reconstruction checks nothing: it reads the order off the principal
cells and takes pi as orthocomplement.  That this is right is the theorem,
checked here once on every input that passes the dualizability check: the
order is a lattice with bounds 0 and pi(0) that pi orthocomplements, each
join lies in its cell, each meet is the pi-transported join, and the table
is the Nakano mosaic of the order.  The orthocomplement search builds its
maps without the Involution check, and each map it yields is checked here
against the checked constructor and the reference.
"""

import itertools
import random
from collections import Counter

import pytest

from mosaic_lab import catalog, equivalence, lattice_core
from mosaic_lab.bits import bits, mask_of
from mosaic_lab.catalog import CATALOG_NAMES, named
from mosaic_lab.errors import SizeTooLarge
from mosaic_lab.hyperstructure import Mosaic, verify_mosaic
from mosaic_lab.lattice_core import (
    Involution,
    OrthoPair,
    _lattice_embeddings,
    _orthocomplementation_search,
    build_from_covers,
    check_om_equivalences,
    find_sublattice_copy,
    generated_sublattice,
    hexagon_pattern,
    is_distributive,
    is_order_reversing,
    is_orthocomplementation,
    orthocomplementations,
    pentagon_pattern,
)
from mosaic_lab.nakano import additive_nakano

from oracles import (
    all_involutions,
    brute_lattice_embeddings,
    distributive_loops,
    dual_table_loops,
    dualizability_failure_loops,
    generated_sublattice_loops,
    is_orthocomplementation_loops,
    om_reports_loops,
    order_reversing_loops,
    orthomodular_criterion_loops,
    orthocomplementations_loops,
    reconstruction_failure_loops,
    sublattice_copy_loops,
)

NAMED = ["hexagon"] + [f"MO_{k}" for k in range(2, 7)] + [f"boolean_{k}" for k in range(1, 5)]
# maps sampled for the OM references
SAMPLED = {"MO_5": 40, "MO_6": 20}


@pytest.fixture(scope="module")
def corpus(lattices_upto_6, ortholattices_upto_8):
    """(name, lattice) for every lattice with at most 6 elements, the
    lattices of the ortholattices with 7 or 8, and the named ones."""
    bigger = {p.lattice.leq: p.lattice for p in ortholattices_upto_8 if p.size > 6}
    out = [(f"n{l.size}", l) for l in lattices_upto_6]
    out += [(f"n{l.size}", l) for l in bigger.values()]
    return out + [(name, named(name).lattice) for name in NAMED]


def involutions(l, rng):
    """Every involution of the carrier up to 8 elements; past that the
    orthocomplementations and 200 seeded random involutions."""
    if l.size <= 8:
        return [Involution(p) for p in all_involutions(l.size)]
    out = orthocomplementations(l)[:50]
    for _ in range(200):
        rest, perm = list(range(l.size)), [0] * l.size
        rng.shuffle(rest)
        while rest:
            x = rest.pop()
            y = rest.pop() if rest and rng.random() < 0.8 else x
            perm[x], perm[y] = y, x
        out.append(Involution(tuple(perm)))
    return out


def test_order_reversing_matches(corpus):
    rng = random.Random(6)
    verdicts = set()
    for _, l in corpus:
        for pi in involutions(l, rng):
            got = is_order_reversing(l, pi)
            assert got == order_reversing_loops(l, pi)
            verdicts.add(got)
    assert verdicts == {True, False}


def test_orthocomplementation_verdicts_match(lattices_upto_6):
    """is_orthocomplementation reads the complements off the join row alone;
    the reference reads the meet row too.  They agree on all 1 297
    involutions of the lattices with at most 6 elements, 24 of which pass
    OC1 without selecting complements, and on seeded involutions of MO_4,
    boolean_4 and the hexagon."""
    rng = random.Random(30)
    verdicts = Counter()
    lattices = lattices_upto_6 + [named(name).lattice for name in ("MO_4", "boolean_4", "hexagon")]
    for k, l in enumerate(lattices):
        for pi in involutions(l, rng):
            got = is_orthocomplementation(l, pi)
            assert got == is_orthocomplementation_loops(l, pi), (l.names, pi)
            verdicts[got, is_order_reversing(l, pi), k < len(lattices_upto_6)] += 1
    assert sum(count for (_, _, enumerated), count in verdicts.items() if enumerated) == 1_297
    assert verdicts[False, True, True] == 24


def test_search_lists_the_filtered_involutions_in_order(corpus):
    for _, l in corpus:
        assert orthocomplementations(l) == orthocomplementations_loops(l)


def test_every_searched_map_is_a_checked_orthocomplementation(lattices_upto_8):
    """The search builds its maps without the Involution check, since it
    pairs carrier elements only.  Every map it yields is the Involution
    that the checked constructor builds from it, and orthocomplements the
    lattice by the element-at-a-time reference: on every lattice with at
    most 8 elements, MO_2 to MO_6, boolean_1 to boolean_4 and the hexagon."""
    maps = 0
    for l in lattices_upto_8 + [named(name).lattice for name in NAMED]:
        for pi in orthocomplementations(l):
            checked = Involution(pi.map)
            assert pi == checked and hash(pi) == hash(checked)
            assert is_orthocomplementation_loops(l, pi), (l.names, pi)
            maps += 1
    assert maps > 10_395


class TestEachPiIsCheckedOnce:
    """The search's maps, catalog's orthocomplement classes and the
    reconstruction's OrthoPairs are built without the constructor checks;
    the theorem tests of this module check what they build."""

    def test_the_search_runs_no_involution_check(self, monkeypatch):
        mo5 = named("MO_5").lattice
        checks = Counter()
        check = Involution.__post_init__

        def counted(self):
            checks["Involution"] += 1
            check(self)

        monkeypatch.setattr(Involution, "__post_init__", counted)
        assert len(orthocomplementations(mo5)) == 945
        assert checks["Involution"] == 0
        Involution((1, 0))
        assert checks["Involution"] == 1

    def test_the_reconstruction_runs_no_orthocomplement_check(self, call_counts):
        mo4 = named("MO_4").lattice
        images = [equivalence.functor_E(OrthoPair(mo4, pi)) for pi in orthocomplementations(mo4)]
        counts = call_counts(lattice_core, "is_orthocomplementation")
        rebuilt = [equivalence.reconstruct_lattice(d) for d in images]
        assert len(rebuilt) == 105
        assert counts["is_orthocomplementation"] == 0
        OrthoPair(rebuilt[0].lattice, rebuilt[0].pi)
        assert counts["is_orthocomplementation"] == 1

    def test_the_ortho_classes_run_no_orthocomplement_check(self, call_counts):
        mo5 = named("MO_5").lattice
        counts = call_counts(lattice_core, "is_orthocomplementation")
        assert len(catalog._ortho_classes(mo5)) == 1
        assert counts["is_orthocomplementation"] == 0


def test_search_budget():
    mo5 = named("MO_5").lattice
    assert len(orthocomplementations(mo5, limit=945)) == 945
    with pytest.raises(SizeTooLarge, match="more than 944 orthocomplementations"):
        orthocomplementations(mo5, limit=944)


def test_search_yields_from_one_frame():
    """The search runs in one generator frame, with no chain of nested
    frames below it, and yields the listed maps one at a time."""
    l = named("MO_6").lattice
    search = _orthocomplementation_search(l)
    first = list(itertools.islice(search, 3))
    assert search.gi_yieldfrom is None
    assert first == orthocomplementations(l)[:3]


def atoms_and_chain(atoms: int, chain: int = 0):
    """0 < a1..a{atoms} < 1, the atoms listed first, plus a chain
    0 < c1 < ... < c{chain} < 1 beside them."""
    names = [f"a{i}" for i in range(1, atoms + 1)]
    steps = ["0", *(f"c{i}" for i in range(1, chain + 1)), "1"]
    covers = [(x, y) for a in names for x, y in (("0", a), (a, "1"))] + list(zip(steps, steps[1:]))
    return build_from_covers(["0", *names, *steps[1:-1], "1"], covers)


def test_odd_carriers_are_answered_without_a_placement(lattices_upto_8, monkeypatch):
    """An orthocomplementation has no fixed point, so a carrier of odd size
    past one element has none, and the search tries no pair to say so."""
    monkeypatch.setattr(lattice_core, "_MAX_PLACEMENTS", 0)
    odd = [l for l in lattices_upto_8 if l.size % 2 and l.size > 1] + [atoms_and_chain(17)]
    assert len(odd) == 1 + 5 + 53 + 1
    for l in odd:
        assert orthocomplementations(l) == []


def test_asymmetric_base_pairs_are_answered_before_a_complement_mask(lattices_upto_8, call_counts, monkeypatch):
    """pi maps the elements below x onto the elements above pi(x), so a
    carrier whose base pairs (down-set size, up-set size), swapped, are not
    its base pairs again has no orthocomplementation, and the search says so
    before it builds a complement mask.  Every lattice with at most 8
    elements gets the maps of the element-at-a-time reference in its order,
    and every named catalog lattice those of the same search without the
    cut (MO_6's 10 395 maps are held to the reference above)."""
    masks = call_counts(lattice_core, "complement_mask")
    cut = 0
    for l in lattices_upto_8:
        masks.clear()
        assert orthocomplementations(l) == orthocomplementations_loops(l)
        pairs = lattice_core._base_pairs(l.leq, l.down)
        if sorted(pairs) != sorted((u, d) for d, u in pairs):
            assert not masks
            cut += l.size % 2 == 0
    assert cut
    names = [*CATALOG_NAMES, *(f"chain_{k}" for k in range(1, 17)), *(f"boolean_{k}" for k in range(1, 5)),
             *(f"MO_{k}" for k in range(1, 7))]
    lattices = [named(name).lattice for name in names]
    got = [orthocomplementations(l) for l in lattices]
    monkeypatch.setattr(lattice_core, "_base_pairs", lambda up, down: [])
    assert got == [orthocomplementations(l) for l in lattices]


def test_search_stops_past_its_placement_budget(monkeypatch):
    """A budget of pairs tried bounds the search whether it finds maps or
    not: the first-map search on 0 < a1..a16 < 1 beside 0 < c1 < c2 < 1,
    which has no orthocomplementation (c1 and c2 would go to comparable
    atoms) but pairs atoms for over a minute, stops with SizeTooLarge; MO_5's full
    listing tries exactly 2 278 pairs."""
    with pytest.raises(SizeTooLarge, match="orthocomplement search past 1000000 placements"):
        next(_orthocomplementation_search(atoms_and_chain(16, chain=2)), None)
    mo5 = named("MO_5").lattice
    monkeypatch.setattr(lattice_core, "_MAX_PLACEMENTS", 2278)
    assert len(orthocomplementations(mo5)) == 945
    monkeypatch.setattr(lattice_core, "_MAX_PLACEMENTS", 2277)
    with pytest.raises(SizeTooLarge, match="past 2277 placements"):
        orthocomplementations(mo5)


def test_om_reports_match(corpus):
    rng = random.Random(44)
    hexagon = hexagon_pattern()
    failing = 0
    for name, l in corpus:
        pis = orthocomplementations(l)
        if name in SAMPLED:
            pis = rng.sample(pis, SAMPLED[name])
        for pi in pis:
            got = check_om_equivalences(l, pi)
            assert got == om_reports_loops(l, pi, hexagon), (name, pi)
            failing += not got[0].holds
    assert failing


def test_om4_closes_each_seed_set_once(call_counts):
    """OM4 skips the pairs with x = 0, x = y or y = 1, which generate the
    Boolean {0, 1, u, pi(u)}, and closes every other pair once per distinct
    pi-closed seed set {x, y, pi(x), pi(y)}: never on MO_4, whose pairs
    x <= y are all of those kinds, and once per seed set on boolean_3, each
    distinct closure then tested for distributivity once."""
    counts = call_counts(lattice_core, "_generated_mask", "_distributive_law")
    mo4 = named("MO_4").lattice
    for pi in orthocomplementations(mo4):
        assert all(r.holds for r in check_om_equivalences(mo4, pi))
    assert counts == Counter()
    e = named("boolean_3")
    l, pi = e.lattice, e.ortho
    pairs = [(x, y) for x in range(l.size) for y in bits(l.leq[x])
             if x not in (l.bottom, y) and y != l.top]
    seed_sets = {mask_of((x, y, pi(x), pi(y))) for x, y in pairs}
    closures = {generated_sublattice_loops(l, [x, y], pi) for x, y in pairs}
    assert all(r.holds for r in check_om_equivalences(l, pi))
    assert counts == {"_generated_mask": len(seed_sets), "_distributive_law": len(closures)}
    assert len(closures) < len(seed_sets) < len(pairs)


def test_orthomodular_criterion_matches(corpus):
    """The row-by-row mosaic-side criterion against the pairwise scan,
    witness included, on the Nakano mosaic of every lattice of the corpus
    with each of its orthocomplementations, and on every pair of the raw
    table search."""
    verdicts = Counter()

    def pairs():
        for _, l in corpus:
            m = additive_nakano(l).mosaic
            for pi in orthocomplementations(l):
                yield equivalence.DualizableLMosaicPair(m, pi)
        yield from equivalence.enumerate_dualizable_pairs(4)

    for p in pairs():
        got = equivalence.is_orthomodular_mosaic(p)
        assert got == orthomodular_criterion_loops(p.mosaic.op.table, p.mosaic.neutral, p.pi)
        verdicts[got.holds] += 1
    assert verdicts[True] and verdicts[False], verdicts


def boolean_5():
    """The 32 subsets of five atoms, built from their covers."""
    names = [format(s, "05b") for s in range(32)]
    return build_from_covers(names, [(names[s], names[s | 1 << k]) for s in range(32) for k in range(5) if not s >> k & 1])


def test_sublattice_copies_match(corpus):
    """The least copy against the pairwise reference on the corpus and a
    boolean_5, and on hosts with at most 6 elements every copy, in order,
    against the sweep over all injections."""
    patterns = {"hexagon": hexagon_pattern(), "pentagon": pentagon_pattern()}
    patterns.update((name, named(name).lattice) for name in ("diamond_M3", "boolean_3", "chain_3"))
    found = Counter()
    for _, l in corpus + [("boolean_5", boolean_5())]:
        for name, pattern in patterns.items():
            got = find_sublattice_copy(l, pattern)
            assert got == sublattice_copy_loops(l, pattern)
            if l.size <= 6:
                assert list(_lattice_embeddings(pattern, l)) == list(brute_lattice_embeddings(pattern, l))
            found[name] += got is not None
    # each pattern sits in some lattice of the corpus and not in others
    assert all(0 < found[name] < len(corpus) for name in patterns), found


def test_generated_sublattices_and_distributivity_match(corpus):
    """Closed under join and meet alone, under an orthocomplementation too,
    and under an involution that is none: the join/meet closure of a set
    closed under an orthocomplementation is closed under it by De Morgan,
    so only the last tells closing every member under pi from closing the
    seeds."""
    rng = random.Random(8)
    for _, l in corpus:
        others = involutions(l, rng)
        pis = [None] + orthocomplementations(l)[:2] + rng.sample(others, min(2, len(others)))
        pairs = list(itertools.product(range(l.size), repeat=2))
        for x, y in pairs if l.size <= 8 else rng.sample(pairs, 40):
            for pi in pis:
                sub = generated_sublattice(l, [x, y], pi)
                assert sub == generated_sublattice_loops(l, [x, y], pi)
                assert is_distributive(l, sub) == distributive_loops(l, sub)
        assert is_distributive(l) == distributive_loops(l, range(l.size))


def edited_mosaics(m, rng, count):
    """Seeded edits of one or two cells of a row, off the neutral row and
    column, each mirrored onto the column so that the table stays
    commutative, as a Mosaic's must."""
    n, e = m.size, m.neutral
    others = [x for x in range(n) if x != e]
    for k in range(count):
        x, op = rng.choice(others), m.op
        for y in rng.sample(others, min(len(others), 1 + k % 3 // 2)):
            zs = [z for z in range(n) if rng.random() < 0.4]
            op = op.with_cell(x, y, zs).with_cell(y, x, zs)
        yield Mosaic(op, e)


@pytest.fixture(scope="module")
def mosaic_cases(ortholattices_upto_8):
    """(mosaic, pi): the Nakano mosaic of each ortholattice with at most 8
    elements and of the named ones, and seeded edits of it, each with its own
    pi and with a seeded other involution; up to 6 elements the mosaic also
    with every other involution."""
    rng = random.Random(20261018)
    pairs = [(p.lattice, p.pi) for p in ortholattices_upto_8]
    pairs += [(named(name).lattice, named(name).ortho) for name in NAMED if name != "MO_6"]
    out = []
    for l, pi in pairs:
        m = additive_nakano(l).mosaic
        others = [q for q in involutions(l, rng) if q != pi]
        out.append((m, pi))
        if l.size >= 3:
            out += [(bad, q) for bad in edited_mosaics(m, rng, 8) for q in (pi, rng.choice(others))]
        if l.size <= 6:
            out += [(m, q) for q in others]
    return out


def test_dualizability_failures_match(mosaic_cases):
    reasons = set()
    for m, pi in mosaic_cases:
        got = equivalence._dualizability_failure(m, pi)
        assert got == dualizability_failure_loops(m.op.table, m.neutral, pi)
        reasons.add(got and got[0].split(" ")[0])
    assert {None, "pi", "pi-dual", "Lms1", "Lms3"} <= reasons, reasons


def test_pi_dual_is_a_mosaic_exactly_when_the_table_is(mosaic_cases):
    """pi maps the pi-dual table isomorphically onto the table, which is why
    _dualizability_failure checks the table in the pi-dual's place."""
    duals = 0
    for m, pi in mosaic_cases:
        dual = dual_table_loops(m.op.table, m.neutral, pi)
        assert (dual is not None) == verify_mosaic(m.op).ok
        duals += dual is not None
    assert 0 < duals < len(mosaic_cases)


def test_reconstruction_is_the_inverse_functor(mosaic_cases):
    """Every input that passes the dualizability check, from the seeded
    cases and the raw table search on at most 4 elements: the lattice that
    reconstruct_from reads off the table has bounds 0 and pi(0), pi
    orthocomplements it by the element-at-a-time reference, which the
    reconstruction does not check, and the reference finds no cell where
    the table fails to be its Nakano mosaic."""
    cases = [(m, pi) for m, pi in mosaic_cases if equivalence._dualizability_failure(m, pi) is None]
    searched = [(p.mosaic, p.pi) for p in equivalence.enumerate_dualizable_pairs(4)]
    for m, pi in cases + searched:
        r = equivalence.reconstruct_from(m, pi)
        assert reconstruction_failure_loops(r.lattice, m.op.table, pi) is None
        assert (r.lattice.bottom, r.lattice.top) == (m.neutral, pi(m.neutral))
        assert r.pi == pi
        assert is_orthocomplementation_loops(r.lattice, r.pi)
    assert cases and searched
