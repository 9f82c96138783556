"""The pruned canonicity test and lattice-map search against their unpruned
references.

catalog's canonicity test stages its invariants and cuts each relabeling at
its first row that differs from the candidate's; the lattice-map search
behind lattice_isomorphisms and find_sublattice_copy tests each candidate
image by two row identities.  tests/oracles.py keeps the unpruned
relabeling sweep, a pairwise backtracking search with no invariants and a
sweep over all injections.  Verdicts, isomorphism lists and
embedding lists, their order included, must agree on every lattice and
candidate with at most 8 elements, on the 8 892 candidates with 9 (only
agreement is checked there, no count), and on seeded relabelings.
"""

import random

import pytest

from mosaic_lab.bits import transpose
from mosaic_lab.catalog import _bounded_lattice_candidates, _is_canonical, named
from mosaic_lab.lattice_core import (
    _lattice_embeddings,
    from_leq,
    hexagon_pattern,
    lattice_automorphisms,
    lattice_isomorphisms,
    pentagon_pattern,
)

from oracles import (
    brute_lattice_embeddings,
    canonical_key_unpruned,
    is_canonical_unpruned,
    key_invariants_loops,
    order_isomorphisms_loops,
)


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
    inv, rng = key_invariants_loops(key), random.Random(5)
    shuffled = []
    for _ in range(4):
        old_at = sorted(range(len(key)), key=lambda i: (inv[i], rng.random()))
        shuffled.append(relabeled(key, sorted(range(len(key)), key=old_at.__getitem__)))
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
