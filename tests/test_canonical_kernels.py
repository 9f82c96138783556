"""The pruned canonical form and lattice-map search against their unpruned
references.

catalog's canonicity test stages its invariants and cuts each relabeling at
its first row that differs from the best key so far; the lattice-map search
behind lattice_isomorphisms and find_sublattice_copy tests each candidate
image by two row identities.  tests/oracles.py keeps the unpruned
relabeling sweep, a pairwise backtracking search with no invariants and a
sweep over all injections.  Keys, verdicts, isomorphism lists and
embedding lists, their order included, must agree on every lattice and
candidate with at most 8 elements, on the 8 892 candidates with 9 (only
agreement is checked there, no count), and on seeded relabelings.
"""

import random

import pytest

from mosaic_lab.bits import transpose
from mosaic_lab.catalog import _bounded_lattice_candidates, _canonical_key, _is_canonical, named
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


def test_canonical_key_agrees_on_seeded_relabelings(lattices_upto_8):
    rng = random.Random(20141)
    for l in lattices_upto_8:
        for up in seeded_relabelings(l.leq, rng, 3):
            assert _canonical_key(up) == canonical_key_unpruned(up) == l.leq, up


@pytest.mark.parametrize("name", ["MO_2", "MO_3", "boolean_3"])
def test_canonical_key_agrees_on_named_lattices(name):
    """Large invariant classes: the atoms of MO_3 form one class of six."""
    up = named(name).lattice.leq
    assert _canonical_key(up) == canonical_key_unpruned(up)


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
