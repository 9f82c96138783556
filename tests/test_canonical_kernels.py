"""The pruned canonicity test and lattice-map search against their unpruned
references.

catalog's canonicity test stages its invariants and cuts each relabeling at
its first row that differs from the candidate's; the lattice-map search
behind lattice_isomorphisms and find_sublattice_copy tests each candidate
image by two row identities.  tests/oracles.py keeps the unpruned
relabeling sweep, a pairwise backtracking search with no invariants and a
sweep over all injections.  Verdicts, isomorphism lists and
embedding lists, their order included, must agree on every lattice and
candidate with at most 8 elements, on the 1 833 candidates with 9 (only
agreement is checked there, no count), and on seeded relabelings.  The
generator drops candidates with unsorted base pairs, so the canonicity test
is also run on the candidates of test_catalog.py's filter route, which
drops none, and twins are checked on the diamonds and on a lattice whose
invariant class mixes twins and non-twins.  On the chains, whose invariant
classes are single elements, and on the diamonds, whose atoms are one class
of twins, no relabeling is tried at all.  The automorphism generators,
found by the same search with a pinned prefix, must generate exactly the
group the pairwise search lists.
"""

import itertools
import random

import pytest

from mosaic_lab import lattice_core
from mosaic_lab.bits import transpose
from mosaic_lab.errors import SizeTooLarge
from mosaic_lab.catalog import (
    _bounded_lattice_candidates,
    _is_canonical,
    _twin_respecting_orders,
    enumerate_lattices,
    named,
)
from mosaic_lab.lattice_core import (
    _automorphism_generators,
    _lattice_embeddings,
    build_from_covers,
    from_leq,
    hexagon_pattern,
    lattice_automorphisms,
    lattice_isomorphisms,
    orthocomplementations,
    pentagon_pattern,
)

from oracles import (
    brute_lattice_embeddings,
    canonical_key_unpruned,
    is_canonical_unpruned,
    key_invariants_loops,
    order_isomorphisms_loops,
)
from test_catalog import generate_filter_dedup


def relabeled(up, perm):
    """The up rows of the order up with element i renamed perm[i]."""
    out = [0] * len(up)
    for i, row in enumerate(up):
        out[perm[i]] = sum(1 << perm[j] for j in range(len(up)) if row >> j & 1)
    return tuple(out)


def seeded_relabelings(up, rng, count):
    for _ in range(count):
        perm = list(range(len(up)))
        rng.shuffle(perm)
        yield relabeled(up, perm)


@pytest.mark.parametrize("n", range(1, 10))
def test_is_canonical_agrees_on_every_candidate(n):
    for up, down in _bounded_lattice_candidates(n):
        assert down == tuple(transpose(up)), up
        assert _is_canonical(up, down) == is_canonical_unpruned(up), up


def is_canonical(up):
    return _is_canonical(up, tuple(transpose(up)))


def unpruned_candidates(n):
    """The naturally-labeled n-element lattices whose down-set sizes never
    decrease, from the filter route of test_catalog.py, each with whether
    its base pairs are sorted: the candidates before the generator dropped
    those with unsorted base pairs."""
    lattices, _ = generate_filter_dedup(n)
    out = []
    for up in sorted(lattices):
        base = [inv[0] for inv in key_invariants_loops(up)]
        if [d for d, _ in base] == sorted(d for d, _ in base):
            out.append((up, base == sorted(base)))
    return out


@pytest.mark.parametrize("n", range(1, 9))
def test_generator_yields_exactly_the_unpruned_candidates_with_sorted_base_pairs(n):
    candidates = unpruned_candidates(n)
    generated = [up for up, _ in _bounded_lattice_candidates(n)]
    assert len(generated) == len(set(generated))
    assert set(generated) == {up for up, base_sorted in candidates if base_sorted}
    for up, _ in candidates:
        assert is_canonical(up) == is_canonical_unpruned(up), up


def class_shuffled(key, rng, count):
    """Copies of key with each invariant class shuffled, which only
    relabelings can rule out."""
    inv = key_invariants_loops(key)
    for _ in range(count):
        old_at = sorted(range(len(key)), key=lambda i: (inv[i], rng.random()))
        yield relabeled(key, sorted(range(len(key)), key=old_at.__getitem__))


def diamond(k):
    """The up rows of M_k: a bottom, k atoms and a top, naturally labeled."""
    top = 1 << (k + 1)
    return ((1 << (k + 2)) - 1, *(1 << i | top for i in range(1, k + 1)), top)


def assert_agrees_with_the_oracle(up, rng):
    """up's key is canonical, and of up, class-shuffled copies of the key and
    seeded relabeled copies, exactly the key is, with the key as their
    unpruned key."""
    key = canonical_key_unpruned(up)
    copies = [up, key, *class_shuffled(key, rng, 4), *seeded_relabelings(up, rng, 4)]
    for copy in dict.fromkeys(copies):
        assert canonical_key_unpruned(copy) == key, copy
        assert is_canonical(copy) == is_canonical_unpruned(copy) == (copy == key), copy
    return key


@pytest.mark.parametrize("k", range(3, 8))
def test_twins_keep_their_order_on_the_diamonds(k, call_counts):
    """The atoms of M_k are one invariant class of twins: one order of them
    is tried instead of k!, and as it is the identity, the key is canonical
    without building a relabeling."""
    key = assert_agrees_with_the_oracle(diamond(k), random.Random(k))
    atoms = list(range(1, k + 1))
    assert list(_twin_respecting_orders(atoms, key, tuple(transpose(key)))) == [tuple(atoms)]
    counts = call_counts(itertools, "product")
    assert is_canonical(key)
    assert counts["product"] == 0


def test_twins_keep_their_order_in_a_class_that_mixes_twins_and_non_twins():
    """Two atoms, each below two coatoms of its own: the four coatoms are one
    invariant class, twins in pairs, so 4!/(2! 2!) = 6 orders are tried."""
    names = ["0", "a", "b", "c", "d", "e", "f", "1"]
    covers = [("0", "a"), ("0", "b"), ("a", "c"), ("a", "d"), ("b", "e"), ("b", "f")]
    l = build_from_covers(names, covers + [(x, "1") for x in "cdef"])
    key = assert_agrees_with_the_oracle(l.leq, random.Random(65))
    assert key in {m.leq for m in enumerate_lattices(8)}
    coatoms = [i for i, row in enumerate(key) if row.bit_count() == 2]
    inv = key_invariants_loops(key)
    assert len(coatoms) == 4 and len({inv[i] for i in coatoms}) == 1
    orders = list(_twin_respecting_orders(coatoms, key, tuple(transpose(key))))
    assert len(set(orders)) == len(orders) == 6


def test_relabelings_are_built_for_64_candidates_at_8(call_counts):
    """Of the 318 candidates with 8 elements, 55 are ruled out by their
    invariants, 81 have only one-element invariant classes and 118 only
    one-element classes and classes of twins; the other 64 build
    relabelings."""
    counts = call_counts(itertools, "product")
    verdicts = [_is_canonical(up, down) for up, down in _bounded_lattice_candidates(8)]
    assert (len(verdicts), sum(verdicts)) == (318, 222)
    assert counts["product"] == 64


@pytest.mark.parametrize("k", range(1, 9))
def test_a_chain_is_canonical_without_a_relabeling(k, call_counts):
    """A chain's invariant classes are single elements, so the identity is
    the only relabeling and none is tried; a relabeled chain is rejected."""
    key = named(f"chain_{k}").lattice.leq
    counts = call_counts(itertools, "product")
    assert is_canonical(key)
    assert counts["product"] == 0
    if k > 3:
        assert not is_canonical(relabeled(key, [0, 2, 1, *range(3, k)]))


def test_twin_orders_give_every_relabeled_matrix(lattices_upto_8):
    """Over each enumerated class, the relabelings that keep twins in order
    give the same set of up-row matrices as all relabelings within the
    invariant classes."""
    def matrices(up, orders_of):
        inv = key_invariants_loops(up)
        groups = [[i for i in range(len(up)) if inv[i] == key] for key in sorted(set(inv))]
        out = set()
        for parts in itertools.product(*map(orders_of, groups)):
            old_at = [i for part in parts for i in part]
            out.add(relabeled(up, sorted(range(len(up)), key=old_at.__getitem__)))
        return out

    for l in lattices_upto_8:
        twin_orders = matrices(l.leq, lambda group: _twin_respecting_orders(group, l.leq, l.down))
        assert twin_orders == matrices(l.leq, itertools.permutations), l.leq


def test_canonical_key_agrees_on_seeded_relabelings(lattices_upto_8):
    """Each class is listed as its key, and a relabeled copy is canonical
    exactly when it is that key."""
    rng = random.Random(20141)
    rejected = 0
    for l in lattices_upto_8:
        assert is_canonical(l.leq), l.leq
        for up in seeded_relabelings(l.leq, rng, 3):
            assert canonical_key_unpruned(up) == l.leq, up
            assert is_canonical(up) == (up == l.leq), up
            rejected += up != l.leq
    assert rejected > 0


@pytest.mark.parametrize("name", ["MO_2", "MO_3", "boolean_3"])
def test_canonical_key_agrees_on_named_lattices(name):
    """Large invariant classes: the atoms of MO_3 form one class of six.  The
    key is canonical; of the named lattice, copies of the key with each
    invariant class shuffled (which only relabelings can rule out) and
    seeded relabeled copies, exactly those equal to the key are."""
    up = named(name).lattice.leq
    key = canonical_key_unpruned(up)
    assert is_canonical(key)
    rng = random.Random(5)
    shuffled = list(class_shuffled(key, rng, 4))
    relabelings = list(seeded_relabelings(up, rng, 4))
    for copy in [up, *shuffled, *relabelings]:
        assert is_canonical(copy) == (copy == key), copy
    assert not any(map(is_canonical, relabelings))


def test_isomorphism_lists_agree_on_pairs_upto_6(lattices_upto_6):
    """Every pair of the same size among the lattices and two seeded
    relabeled copies of each: most isomorphic pairs are no automorphisms,
    and in most neither side is naturally labeled."""
    rng = random.Random(7)
    pool = list(lattices_upto_6)
    for l in lattices_upto_6:
        pool += [from_leq(l.names, up) for up in seeded_relabelings(l.leq, rng, 2)]
    for a in pool:
        for b in pool:
            if a.size == b.size:
                assert list(lattice_isomorphisms(a, b)) == order_isomorphisms_loops(a.leq, b.leq)


def test_automorphism_lists_agree_upto_8(lattices_upto_8):
    """Each lattice as enumerated and as a seeded relabeled copy.  On a
    naturally-labeled lattice no assigned element lies above the next one,
    so only the copies exercise the up-row identity; from 7 elements on,
    some copies need it to exclude maps that are no isomorphisms."""
    rng = random.Random(31)
    for l in lattices_upto_8:
        (up,) = seeded_relabelings(l.leq, rng, 1)
        for m in (l, from_leq(l.names, up)):
            assert lattice_automorphisms(m) == order_isomorphisms_loops(m.leq, m.leq), m.leq


def closure(gens, n):
    """Every map that composing the maps gens gives, the identity included."""
    identity = tuple(range(n))
    group, queue = {identity}, [identity]
    for g in queue:
        for sigma in gens:
            h = tuple(sigma[x] for x in g)
            if h not in group:
                group.add(h)
                queue.append(h)
    return group


def test_generators_generate_exactly_the_automorphism_group(lattices_upto_8):
    """Over every enumerated class with at most 8 elements, the diamonds M_3
    to M_7, MO_2 to MO_4, boolean_1 to boolean_4, the hexagon and the
    pentagon: each generator is an automorphism, the maps they generate are
    every order automorphism the oracle lists, and a rigid lattice gives no
    generator."""
    named_ones = [f"MO_{k}" for k in range(2, 5)] + [f"boolean_{k}" for k in range(1, 5)] + ["hexagon", "pentagon"]
    diamonds = [from_leq([f"x{i}" for i in range(k + 2)], diamond(k)) for k in range(3, 8)]
    rigid = 0
    for l in lattices_upto_8 + diamonds + [named(name).lattice for name in named_ones]:
        automorphisms = set(order_isomorphisms_loops(l.leq, l.leq))
        gens = _automorphism_generators(l)
        assert set(gens) <= automorphisms, l.leq
        assert closure(gens, l.size) == automorphisms, l.leq
        if len(automorphisms) == 1:
            assert gens == [], l.leq
            rigid += 1
    assert rigid > 0


def test_the_generator_search_stops_at_its_budget(monkeypatch):
    """Every question on M_6 finds its map at once, placing each of the 8
    elements one time: 8 placements a question pass, 7 stop the search."""
    m6 = named("MO_3").lattice
    monkeypatch.setattr(lattice_core, "_MAX_PLACEMENTS", 8)
    assert len(_automorphism_generators(m6)) == 5
    monkeypatch.setattr(lattice_core, "_MAX_PLACEMENTS", 7)
    with pytest.raises(SizeTooLarge, match="past 7 placements"):
        _automorphism_generators(m6)


def test_both_searches_stop_at_the_one_placement_budget(monkeypatch):
    """_MAX_PLACEMENTS bounds the orthocomplement search and each question
    of the generator search.  On M_4, the listing of its 3 orthocomplements
    tries 7 pairs and the generator search places at most 6 elements a
    question: 7 pass both, 6 stop the listing alone and 5 stop both."""
    m4 = named("MO_2").lattice
    monkeypatch.setattr(lattice_core, "_MAX_PLACEMENTS", 7)
    assert len(orthocomplementations(m4)) == 3
    assert len(_automorphism_generators(m4)) == 3
    monkeypatch.setattr(lattice_core, "_MAX_PLACEMENTS", 6)
    with pytest.raises(SizeTooLarge, match="orthocomplement search past 6 placements"):
        orthocomplementations(m4)
    assert len(_automorphism_generators(m4)) == 3
    monkeypatch.setattr(lattice_core, "_MAX_PLACEMENTS", 5)
    with pytest.raises(SizeTooLarge, match="orthocomplement search past 5 placements"):
        orthocomplementations(m4)
    with pytest.raises(SizeTooLarge, match="lattice-map search past 5 placements"):
        _automorphism_generators(m4)


def test_embedding_lists_agree_with_the_sweep_over_injections(lattices_upto_6):
    """Every lattice with at most 4 elements, the pentagon and the hexagon,
    embedded into every lattice with at most 6 elements and a seeded
    relabeled copy of each: the full listing, not only the least copy."""
    rng = random.Random(18)
    patterns = [l for l in lattices_upto_6 if l.size <= 4] + [pentagon_pattern(), hexagon_pattern()]
    hosts = []
    for l in lattices_upto_6:
        (up,) = seeded_relabelings(l.leq, rng, 1)
        hosts += [l, from_leq(l.names, up)]
    longest = 0
    for pattern in patterns:
        for host in hosts:
            want = list(brute_lattice_embeddings(pattern, host))
            assert list(_lattice_embeddings(pattern, host)) == want, (pattern.leq, host.leq)
            longest = max(longest, len(want))
    assert longest > 1
