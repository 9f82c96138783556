"""Independent brute-force oracles.

Each oracle recomputes a quantity by a route different from the library's
(dict-of-sets closures instead of bitmask propagation, scan-all-candidates
bounds, permutation sweeps instead of backtracking, intersection-of-closed
-sets instead of fixpoint iteration) so the two sides check each other.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from mosaic_lab.bits import bits, full_mask, mask_of
from mosaic_lab.errors import SizeMismatch
from mosaic_lab.lattice_core import AxiomReport, Involution, from_leq


# -- plain helpers: multimaps and their composition, and tables built from a
# function of (x, y); no library check calls them


@dataclass(frozen=True)
class Multimap:
    """Multimap dom -> powerset(cod); row x is the bitmask image of x."""

    dom: int
    cod: int
    rows: tuple[int, ...]

    def __post_init__(self):
        if len(self.rows) != self.dom:
            raise SizeMismatch("row count != domain size")
        full = full_mask(self.cod)
        if any(row & ~full for row in self.rows):
            raise ValueError("row not a subset of the codomain")

    @classmethod
    def identity(cls, n: int) -> "Multimap":
        return cls(n, n, tuple(1 << x for x in range(n)))


def compose_relations(f: Multimap, g: Multimap) -> Multimap:
    """(g o f)(x) = union of g(y) over y in f(x)."""
    if f.cod != g.dom:
        raise SizeMismatch(f"codomain {f.cod} != domain {g.dom}")
    rows = tuple(mask_of(z for y in bits(f.rows[x]) for z in bits(g.rows[y])) for x in range(f.dom))
    return Multimap(f.dom, g.cod, rows)


def table_of(size: int, fn):
    """The size x size table of bitmask cells fn(x, y)."""
    return tuple(tuple(fn(x, y) for y in range(size)) for x in range(size))


def closure_oracle(names, covers):
    """Reflexive-transitive closure as a dict of up-sets; None on a cycle."""
    up = {x: {x} for x in names}
    changed = True
    while changed:
        changed = False
        for lo, hi in covers:
            add = up[hi] - up[lo]
            if add:
                up[lo] |= add
                changed = True
        for x in names:
            for y in list(up[x]):
                add = up[y] - up[x]
                if add:
                    up[x] |= add
                    changed = True
    for x in names:
        for y in up[x]:
            if x != y and x in up[y]:
                return None
    return up


def brute_bound(up: dict, pool, xs, upper: bool):
    """Least upper / greatest lower bound by definition-direct scanning."""
    if upper:
        cands = [m for m in pool if all(m in up[x] for x in xs)]
        least = [m for m in cands if all(c in up[m] for c in cands)]
    else:
        cands = [m for m in pool if all(x in up[m] for x in xs)]
        least = [m for m in cands if all(m in up[c] for c in cands)]
    return least[0] if len(least) == 1 else None


def bound_tables_scan(rows):
    """(join, meet) tables of the order with up-set rows `rows`, every bound
    found by brute_bound's scan of the whole carrier."""
    names = range(len(rows))
    up = {x: set(bits(rows[x])) for x in names}
    return tuple(
        tuple(tuple(brute_bound(up, names, (x, y), upper) for y in names) for x in names)
        for upper in (True, False)
    )


def all_involutions(n: int):
    for perm in itertools.permutations(range(n)):
        if all(perm[perm[x]] == x for x in range(n)):
            yield perm


def complement_selecting_involutions(l):
    """Every involution pi with pi(x) a complement of x, OC1 not required,
    listed by backtracking on the least unassigned element: the unpruned
    reference for the library's orthocomplement search."""
    n = l.size
    comps = [[y for y in range(n) if l.join(x, y) == l.top and l.meet(x, y) == l.bottom] for x in range(n)]
    out = []
    assign = [-1] * n

    def rec(x: int):
        while x < n and assign[x] != -1:
            x += 1
        if x == n:
            out.append(Involution(tuple(assign)))
            return
        for y in comps[x]:
            if y == x:
                assign[x] = x
                rec(x + 1)
                assign[x] = -1
            elif y > x and assign[y] == -1:
                assign[x], assign[y] = y, x
                rec(x + 1)
                assign[x] = assign[y] = -1

    rec(0)
    return out


def nakano_cell_oracle(l, x: int, y: int, additive: bool = True) -> frozenset:
    """N(x,y) from the defining equations, with bounds recomputed by scanning."""
    up = {i: set(bits(l.leq[i])) for i in range(l.size)}
    pool = range(l.size)

    def b(*xs):
        return brute_bound(up, pool, xs, additive)

    t = b(x, y)
    return frozenset(z for z in pool if b(x, z) == t and b(z, y) == t)


def least_closed_superset(l, seeds, pi=None) -> frozenset:
    """Intersection of all meet/join(/pi)-closed subsets containing the seeds."""
    n = l.size
    seeds = set(seeds)
    best = None
    for mask in range(1 << n):
        members = set(bits(mask))
        if not seeds <= members:
            continue
        if pi is not None and any(pi(x) not in members for x in members):
            continue
        if any(
            l.join(x, y) not in members or l.meet(x, y) not in members
            for x in members
            for y in members
        ):
            continue
        if best is None or len(members) < len(best):
            best = frozenset(members)
    return best


def brute_lattice_embeddings(pattern, l):
    """Yield every injective map pattern -> l that preserves joins and meets,
    in lexicographic order: a sweep over all injections, each tested pair by
    pair, with no order rows and no pruning."""
    k = pattern.size
    for image in itertools.permutations(range(l.size), k):
        if all(
            image[pattern.join(u, v)] == l.join(image[u], image[v])
            and image[pattern.meet(u, v)] == l.meet(image[u], image[v])
            for u in range(k)
            for v in range(k)
        ):
            yield image


def brute_sublattice_copy(l, pattern):
    """The least meet/join-preserving embedding of pattern into l, or None."""
    return next(brute_lattice_embeddings(pattern, l), None)


def brute_poset_iso(up1, up2):
    n = len(up1)
    if len(up2) != n:
        return None
    for perm in itertools.permutations(range(n)):
        if all(
            (up1[i] >> j & 1) == (up2[perm[i]] >> perm[j] & 1)
            for i in range(n)
            for j in range(n)
        ):
            return perm
    return None


def key_invariants_loops(up):
    """catalog's key invariant of each element of the order with up-set rows
    up, from the order relation one pair at a time: the base pair (down-set
    size, up-set size), then the sorted base pairs above and below it."""
    n = len(up)
    le = [[up[i] >> j & 1 for j in range(n)] for i in range(n)]
    base = [(sum(le[j][i] for j in range(n)), sum(le[i])) for i in range(n)]
    return [
        (
            base[i],
            tuple(sorted(base[j] for j in range(n) if le[i][j])),
            tuple(sorted(base[j] for j in range(n) if le[j][i])),
        )
        for i in range(n)
    ]


def least_relabeling_unpruned(up, inv):
    """Least up-row matrix over the relabelings that list the elements in
    sorted invariant order, each relabeling's key built in full: the
    unpruned reference for catalog's search."""
    n = len(up)
    groups = [[i for i in range(n) if inv[i] == key] for key in sorted(set(inv))]
    best = None
    for parts in itertools.product(*(itertools.permutations(g) for g in groups)):
        old_at = [i for part in parts for i in part]
        newpos = {old: p for p, old in enumerate(old_at)}
        key = tuple(sum(1 << newpos[j] for j in bits(up[old])) for old in old_at)
        if best is None or key < best:
            best = key
    return best


def canonical_key_unpruned(up):
    return least_relabeling_unpruned(up, key_invariants_loops(up))


def is_canonical_unpruned(up) -> bool:
    """up is its own canonical key.  The key lists its elements in sorted
    invariant order, so an unsorted invariant sequence rules up out."""
    inv = key_invariants_loops(up)
    return inv == sorted(inv) and least_relabeling_unpruned(up, inv) == tuple(up)


def order_isomorphisms_loops(up1, up2) -> list:
    """Every order isomorphism between the orders with up-set rows up1 and
    up2, in lexicographic order: backtracking over every unused target in
    ascending order, each tested pairwise against every assigned element.
    No invariant narrows the candidates."""
    n = len(up1)
    if len(up2) != n:
        return []
    out = []
    assign = []

    def rec(i: int):
        if i == n:
            out.append(tuple(assign))
            return
        for v in range(n):
            if v not in assign and all(
                (up1[i] >> k & 1) == (up2[v] >> w & 1) and (up1[k] >> i & 1) == (up2[w] >> v & 1)
                for k, w in enumerate(assign)
            ):
                assign.append(v)
                rec(i + 1)
                assign.pop()

    rec(0)
    return out


def brute_bounded_lattices(n: int):
    """All isomorphism classes of n-element bounded lattices, by enumerating
    every upper-triangular transitive relation (every poset has such a natural
    labeling) and deduplicating with full-permutation isomorphism tests."""
    if n == 1:
        return [(1,)]
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    classes = []
    for sub in range(1 << len(pairs)):
        up = [1 << i for i in range(n)]
        for k, (i, j) in enumerate(pairs):
            if sub >> k & 1:
                up[i] |= 1 << j
        if not _transitive(up, n):
            continue
        if not _bounded_lattice(up, n):
            continue
        if any(brute_poset_iso(up, seen) for seen in classes):
            continue
        classes.append(tuple(up))
    return classes


def labeled_lattice_count(n: int) -> int:
    """How many lattices on 0..n-1 have bottom 0: (n-1)!/|Aut L| labelings
    of each class of brute_bounded_lattices, whose automorphisms all fix
    the bottom, counted by order_isomorphisms_loops."""
    labelings = math.factorial(n - 1)
    return sum(labelings // len(order_isomorphisms_loops(up, up)) for up in brute_bounded_lattices(n))


def labeled_ortho_pair_count(n: int) -> int:
    """How many pairs (L, pi), pi an orthocomplementation of a lattice L on
    0..n-1 with bottom 0, there are: each class of brute_bounded_lattices
    has (n-1)!/|Aut L| labelings, each with the maps of
    orthocomplementations_loops."""
    labelings = math.factorial(n - 1)
    return sum(labelings * len(orthocomplementations_loops(from_leq([f"x{i}" for i in range(n)], up)))
               // len(order_isomorphisms_loops(up, up)) for up in brute_bounded_lattices(n))


def _transitive(up, n) -> bool:
    for i in range(n):
        for j in bits(up[i]):
            if up[j] & ~up[i]:
                return False
    return True


def _bounded_lattice(up, n) -> bool:
    down = [0] * n
    for i in range(n):
        for j in bits(up[i]):
            down[j] |= 1 << i
    full = (1 << n) - 1
    if full not in up or full not in down:
        return False
    for rows in (up, down):
        for i in range(n):
            for j in range(i + 1, n):
                common = rows[i] & rows[j]
                if not any(common & ~rows[m] == 0 for m in bits(common)):
                    return False
    return True


def mosaic_isomorphism(a, b):
    """Unitary strong bijection between two mosaics, by backtracking on
    row profiles (multisets of cell sizes)."""
    n = a.size
    if b.size != n:
        return None

    def profile(m, x):
        return tuple(sorted(bin(m.cell(x, y)).count("1") for y in range(n)))

    pa = [profile(a, x) for x in range(n)]
    pb = [profile(b, x) for x in range(n)]
    if sorted(pa) != sorted(pb):
        return None
    assign = [-1] * n
    used = [False] * n

    def ok(x, v):
        if (x == a.neutral) != (v == b.neutral):
            return False
        for x2 in range(n):
            v2 = assign[x2]
            if v2 < 0:
                continue
            img = mask_of(assign[z] for z in bits(a.cell(x, x2)) if assign[z] >= 0)
            tgt = b.cell(v, v2)
            if img & ~tgt:
                return False
            if bin(a.cell(x, x2)).count("1") != bin(tgt).count("1"):
                return False
        return True

    def rec(x):
        if x == n:
            for i in range(n):
                for j in range(n):
                    if mask_of(assign[z] for z in bits(a.cell(i, j))) != b.cell(assign[i], assign[j]):
                        return None
            return tuple(assign)
        for v in range(n):
            if not used[v] and pb[v] == pa[x] and ok(x, v):
                assign[x] = v
                used[v] = True
                got = rec(x + 1)
                if got:
                    return got
                assign[x] = -1
                used[v] = False
        return None

    return rec(0)


# -- element-at-a-time references for the table kernels -------------------------
#
# The library reads Nakano tables and runs the mosaic, L-mosaic and section-4
# checks as whole-row bitmask operations.  These are the same checks written
# one element at a time, over plain tuples of cell masks; they return the
# same AxiomReports, least witness and reason included.


def _report(axiom, witness=None, reason=None):
    return AxiomReport(axiom, witness is None, witness, reason)


def _right(table, x, ymask):
    out = 0
    for y in bits(ymask):
        out |= table[x][y]
    return out


def _left(table, xmask, y):
    out = 0
    for x in bits(xmask):
        out |= table[x][y]
    return out


def _square(table, mask):
    out = 0
    for x in bits(mask):
        out |= _right(table, x, mask)
    return out


def nakano_table_loops(l, additive: bool = True):
    """N(x,y) = {z : x o y = x o z = z o y}, testing each z."""
    op = l.join if additive else l.meet
    n = l.size
    return tuple(
        tuple(mask_of(z for z in range(n) if op(x, z) == op(x, y) and op(z, y) == op(x, y)) for y in range(n))
        for x in range(n)
    )


def _inverses_loops(table, e):
    """For each x, the list of its inverses y: e in x.y and in y.x."""
    n = len(table)
    return [[y for y in range(n) if table[x][y] >> e & 1 and table[y][x] >> e & 1] for x in range(n)]


def inverse_map_loops(table, e):
    """The inverse map of a table with neutral e, found one element at a
    time: the tuple of each x's one inverse, or None when some x has none
    or several."""
    inverses = _inverses_loops(table, e)
    if any(len(ys) != 1 for ys in inverses):
        return None
    return tuple(ys[0] for ys in inverses)


def mosaic_reports_loops(table):
    """verify_mosaic's reports: commutative, total, neutral, unique inverses,
    reversibility, then the lemma-1 consequences tested for every (x, y, z):
    the least failing (x, y) is their witness."""
    n = len(table)
    reports = []
    w = next(((x, y) for x in range(n) for y in range(n) if table[x][y] != table[y][x]), None)
    reports.append(_report("commutative", w, w and "cell asymmetry"))
    w = next(((x, y) for x in range(n) for y in range(n) if not table[x][y]), None)
    reports.append(_report("total", w, w and "empty cell"))
    if not all(r.holds for r in reports):
        return tuple(reports)
    e = next((e for e in range(n)
              if all(table[e][x] == 1 << x and table[x][e] == 1 << x for x in range(n))), None)
    if e is None:
        return tuple(reports + [_report("neutral", (), "no neutral element")])
    reports.append(_report("neutral"))
    inverses = _inverses_loops(table, e)
    x = next((x for x, ys in enumerate(inverses) if len(ys) != 1), None)
    if x is not None:
        reason = "no inverse" if not inverses[x] else "multiple inverses"
        return tuple(reports + [_report("unique-inverses", (x,), reason)])
    rho = [ys[0] for ys in inverses]
    reports.append(_report("unique-inverses"))
    for x in range(n):
        for y in range(n):
            for z in bits(table[x][y]):
                if not table[z][rho[y]] >> x & 1 or not table[rho[x]][z] >> y & 1:
                    return tuple(reports + [_report("reversible", (x, y, z), "RE fails")])
    reports.append(_report("reversible"))

    def consequences_hold(x, y):
        rinv = table[x][rho[x]] >> e & 1 and table[rho[x]][x] >> e & 1
        dual_iso = mask_of(rho[z] for z in bits(table[x][y])) == table[rho[y]][rho[x]]
        membership = all(
            bool(table[x][y] >> z & 1) == bool(table[z][rho[y]] >> x & 1) == bool(table[rho[x]][z] >> y & 1)
            for z in range(n)
        )
        return rinv and dual_iso and membership

    w = (e,) if rho[e] != e else next(
        ((x, y) for x in range(n) for y in range(n) if not consequences_hold(x, y)), None)
    reports.append(_report("lemma1-consequences", w, w and "lemma 1 consequence fails"))
    return tuple(reports)


def associativity_loops(table):
    n = len(table)
    for x in range(n):
        for y in range(n):
            for z in range(n):
                if _right(table, x, table[y][z]) != _left(table, table[x][y], z):
                    return _report("associative", (x, y, z), "associativity")
    return _report("associative")


def restricted_table_loops(table, members):
    """The table's rows and columns at the members in ascending order, each
    cell cut down to the members and renumbered by their rank."""
    members = sorted(members)
    return tuple(
        tuple(mask_of(k for k, z in enumerate(members) if table[x][y] >> z & 1) for y in members)
        for x in members
    )


def morphism_loops(f, a, b):
    """check_morphism's report for the map f between the mosaics a and b:
    unitary, then the least (x, y) in row-major order with an element z of
    x.y whose image is not in f(x).f(y), each z tested on its own, then
    inverse preservation, with each side's inverse map from
    inverse_map_loops."""
    name = "morphism-morphism"
    if f[a.neutral] != b.neutral:
        return _report(name, (a.neutral,), "not unitary")
    n = a.size
    for x in range(n):
        for y in range(n):
            for z in range(n):
                if a.cell(x, y) >> z & 1 and not b.cell(f[x], f[y]) >> f[z] & 1:
                    return _report(name, (x, y), "cell condition fails")
    rho_a, rho_b = inverse_map_loops(a.op.table, a.neutral), inverse_map_loops(b.op.table, b.neutral)
    for x in range(n):
        if f[rho_a[x]] != rho_b[f[x]]:
            return _report(name, (x,), "inverse preservation fails")
    return _report(name)


def lmosaic_reports_loops(table, e):
    """Lms1-Lms4, with the join candidates of Lms4 listed one z at a time."""
    n = len(table)
    w = next(((x,) for x in range(n) if not (table[x][x] >> e & 1 and table[x][x] >> x & 1)), None)
    lms1 = _report("Lms1", w, w and "0,x not both in x+x")
    w = next(((x,) for x in range(n) if _square(table, table[x][x]) != table[x][x]), None)
    lms2 = _report("Lms2", w, w and "(x+x)+(x+x) != x+x")
    w = next(((x, y) for x in range(n) for y in range(n)
              if _right(table, x, table[x][y]) & _left(table, table[x][y], y) & ~table[x][y]), None)
    lms3 = _report("Lms3", w, w and "intersection leaks")
    lms4 = _report("Lms4")
    for x in range(n):
        for y in range(n):
            cands = [z for z in bits(table[x][y]) if table[z][z] >> x & 1 and table[z][z] >> y & 1]
            if len(cands) != 1:
                lms4 = _report("Lms4", (x, y), "no join candidate" if not cands else "multiple join candidates")
                break
        if not lms4.holds:
            break
    return (lms1, lms2, lms3, lms4)


def lmosaic_tables_loops(n: int):
    """(mosaics, L-mosaics): the tables on 0..n-1 that pass
    mosaic_reports_loops, and those of them that also pass
    lmosaic_reports_loops, among every commutative table with neutral 0, no
    empty cell and 0 and x in x+x.  Each cell (x, y) with 0 < x <= y takes
    every such mask on its own; no reversibility is assumed."""
    full = full_mask(n)
    cells = [(x, y) for x in range(1, n) for y in range(x, n)]
    masks = [[m for m in range(1, full + 1) if x != y or m & (1 | 1 << x) == 1 | 1 << x] for x, y in cells]
    mosaics, lmosaics = [], []
    for choice in itertools.product(*masks):
        table = [[0] * n for _ in range(n)]
        for x in range(n):
            table[0][x] = table[x][0] = 1 << x
        for (x, y), m in zip(cells, choice):
            table[x][y] = table[y][x] = m
        table = tuple(map(tuple, table))
        if all(r.holds for r in mosaic_reports_loops(table)):
            mosaics.append(table)
            if all(r.holds for r in lmosaic_reports_loops(table, 0)):
                lmosaics.append(table)
    return mosaics, lmosaics


def nakano_property_loops(l, additive, table):
    """nakano_property_reports of a Nakano-flavored table over the lattice l:
    every z, t and u tested on its own."""
    n = l.size
    junction = l.join if additive else l.meet
    le = (lambda a, b: l.le(a, b)) if additive else (lambda a, b: l.le(b, a))
    out = []
    w = next(((x, y) for x in range(n) for y in range(n)
              if bool(table[x][y] >> x & 1 and table[x][y] >> y & 1) != (x == y)), None)
    out.append(_report("antisym", w, w and "x,y in x+y iff x=y"))
    w = next(((x,) for x in range(n) if _square(table, table[x][x]) != table[x][x]), None)
    out.append(_report("principal-idempotent", w, w and "(x+x)+(x+x) != x+x"))
    w = next(((x, y, z) for x in range(n) for y in range(n) for z in bits(table[x][y])
              if not le(z, junction(x, y))), None)
    out.append(_report("bounded-by-junction", w, w and "z not under x v y"))
    w = next(((x, y, z) for x in range(n) for y in range(n) for z in range(n)
              if (junction(x, y) == z) != bool(table[z][z] >> x & 1 and table[z][z] >> y & 1
                                               and table[x][y] >> z & 1)), None)
    out.append(_report("junction-characterization", w, w and "lemma sup/inf"))
    w = next(((x, y, z, t) for x in range(n) for y in range(n) for z in range(n)
              for t in bits(_right(table, x, table[y][z]))
              if not junction(t, junction(x, y)) == junction(t, junction(x, z)) == junction(t, junction(y, z))
              == junction(junction(x, y), z)), None)
    out.append(_report("triple-bound", w, w and "triple junction bound"))
    w = next(((x, y) for x in range(n) for y in range(n)
              if _right(table, x, table[x][y]) & _left(table, table[x][y], y) & ~table[x][y]), None)
    out.append(_report("lms3-inclusion", w, w and "intersection leaks"))
    w = next(((x,) for x in range(n) if _right(table, x, (1 << n) - 1) != (1 << n) - 1), None)
    out.append(_report("reproductive", w, w and "row union misses elements"))
    expected = l.top if additive else l.bottom
    found = [u for u in range(n) if all(not table[x][x] >> u & 1 for x in range(n) if x != u)]
    w = None if found == [expected] else (expected,)
    out.append(_report("extremum", w, w and "characterized extremum is not the bound"))
    return out


# -- element-at-a-time references for the ortholattice kernels -----------------
#
# The library tests OC1, searches orthocomplementations, runs OM1-OM4 and
# checks dualizability and reconstruction with whole bitmask rows.  These are
# the same checks one element at a time, through le/join/meet, and return the
# same results, least witness and reason included.


def order_reversing_loops(l, pi) -> bool:
    """OC1 for every pair: x <= y iff pi(y) <= pi(x)."""
    return all(l.le(x, y) == l.le(pi(y), pi(x)) for x in range(l.size) for y in range(l.size))


def is_orthocomplementation_loops(l, pi) -> bool:
    """pi orthocomplements l: its map is a tuple of ints that permutes the
    carrier and is its own inverse, each pi(x) is a complement of x, and
    OC1 holds for every pair."""
    m, n = pi.map, l.size
    return (
        type(m) is tuple
        and all(type(y) is int for y in m)
        and sorted(m) == list(range(n))
        and all(m[m[x]] == x for x in range(n))
        and all(l.join(x, m[x]) == l.top and l.meet(x, m[x]) == l.bottom for x in range(n))
        and order_reversing_loops(l, pi)
    )


def orthocomplementations_loops(l):
    """The unpruned search filtered by OC1, in the order it lists the maps."""
    return [pi for pi in complement_selecting_involutions(l) if order_reversing_loops(l, pi)]


def ortho_classes_loops(l) -> list:
    """The classes of l's orthocomplementations under conjugation by
    automorphisms, each as its maps in lexicographic order, in order of
    their least maps: each map not yet met is conjugated by every order
    automorphism, pi^sigma(y) = sigma(pi(sigma^-1(y))), and all its
    conjugates are then met."""
    pis = sorted(pi.map for pi in orthocomplementations_loops(l))
    if not pis:
        return []
    n = l.size
    inverses = [(sigma, sorted(range(n), key=sigma.__getitem__)) for sigma in order_isomorphisms_loops(l.leq, l.leq)]
    classes, met = [], set()
    for pi in pis:
        if pi not in met:
            conjugates = {tuple(sigma[pi[inverse[y]]] for y in range(n)) for sigma, inverse in inverses}
            classes.append(sorted(conjugates))
            met |= conjugates
    return classes


def generated_sublattice_loops(l, seeds, pi=None) -> frozenset:
    """Add every join and meet (and pi-image) of the current members until
    nothing changes."""
    members = set(seeds)
    while True:
        new = {l.join(x, y) for x in members for y in members}
        new |= {l.meet(x, y) for x in members for y in members}
        if pi is not None:
            new |= {pi(x) for x in members}
        if new <= members:
            return frozenset(members)
        members |= new


def distributive_loops(l, members) -> AxiomReport:
    members = sorted(members)
    for x in members:
        for y in members:
            for z in members:
                if l.meet(x, l.join(y, z)) != l.join(l.meet(x, y), l.meet(x, z)):
                    return _report("distributive", (x, y, z), "distributive law")
    return _report("distributive")


def modular_loops(l) -> AxiomReport:
    """The least (x, y, z) in x, y, z order with x v (y ^ (x v z)) !=
    (x v y) ^ (x v z), over every triple, each bound found by
    bound_tables_scan from the order rows."""
    join, meet = bound_tables_scan(l.leq)
    n = len(join)
    for x in range(n):
        for y in range(n):
            for z in range(n):
                if join[x][meet[y][join[x][z]]] != meet[join[x][y]][join[x][z]]:
                    return _report("modular", (x, y, z), "modular law")
    return _report("modular")


def sublattice_copy_loops(l, pattern):
    """Place pattern elements in index order on the least free element of l
    that agrees, pair by pair, on order, joins and meets with the elements
    placed so far; the first complete embedding found."""
    k, n = pattern.size, l.size
    if k > n:
        return None
    assign = [-1] * k

    def consistent(u, v):
        for u2 in range(u):
            v2 = assign[u2]
            if v2 == v or pattern.le(u, u2) != l.le(v, v2) or pattern.le(u2, u) != l.le(v2, v):
                return False
            ju, mu = assign[pattern.join(u, u2)], assign[pattern.meet(u, u2)]
            if ju >= 0 and l.join(v, v2) != ju or mu >= 0 and l.meet(v, v2) != mu:
                return False
        return True

    def rec(u):
        if u == k:
            ok = all(assign[pattern.join(a, b)] == l.join(assign[a], assign[b])
                     and assign[pattern.meet(a, b)] == l.meet(assign[a], assign[b])
                     for a in range(k) for b in range(k))
            return tuple(assign) if ok else None
        for v in range(n):
            if consistent(u, v):
                assign[u] = v
                got = rec(u + 1)
                if got:
                    return got
                assign[u] = -1
        return None

    return rec(0)


def om_reports_loops(l, pi, hexagon):
    """check_om_equivalences of an orthocomplemented l: OM1 to OM4, each
    scanning x <= y in lexicographic order; OM4 closes and tests every pair
    afresh."""
    n = l.size
    pairs = [(x, y) for x in range(n) for y in range(n) if l.le(x, y)]
    w = next(((x, y) for x, y in pairs if l.join(x, l.meet(pi(x), y)) != y), None)
    om1 = _report("OM1", w, w and "orthomodular law")
    w = next(((x, y) for x, y in pairs if x != y and l.join(x, pi(y)) == l.top), None)
    om2 = _report("OM2", w, w and "x v pi(y) = 1 but x != y")
    w = sublattice_copy_loops(l, hexagon)
    om3 = _report("OM3", w, w and "hexagon sublattice")
    w = next(((x, y) for x, y in pairs
              if not distributive_loops(l, generated_sublattice_loops(l, [x, y], pi)).holds), None)
    om4 = _report("OM4", w, w and "generated pi-closed sublattice not distributive")
    return [om1, om2, om3, om4]


def orthomodular_criterion_loops(table, e, pi) -> AxiomReport:
    """The mosaic-side orthomodularity criterion for every pair: x in y+y
    and pi(e) in x + pi(y) imply x = y."""
    n, one = len(table), pi(e)
    w = next(((x, y) for x in range(n) for y in range(n)
              if x != y and table[y][y] >> x & 1 and table[x][pi(y)] >> one & 1), None)
    return _report("orthomodular-mosaic", w, w and "criterion violated")


def dual_table_loops(table, e, pi, literal=False):
    """The pi-dual table, cell by cell, when it is a mosaic with neutral
    pi(e); None otherwise."""
    n = len(table)
    dual = tuple(
        tuple(
            table[pi(x)][pi(y)] if literal else mask_of(pi(z) for z in bits(table[pi(x)][pi(y)]))
            for y in range(n)
        )
        for x in range(n)
    )
    if not all(r.holds for r in mosaic_reports_loops(dual)):
        return None
    neutral = next(u for u in range(n) if all(dual[u][x] == 1 << x for x in range(n)))
    return dual if neutral == pi(e) else None


def dualizability_failure_loops(table, e, pi):
    """(reason, witness) of the first dualizability condition that fails,
    or None: the L-mosaic axioms on the table and on its pi-dual, then OC1 on
    the principal cells pair by pair, then the complements."""
    n = len(table)
    bad = next((r for r in lmosaic_reports_loops(table, e) if not r.holds), None)
    if bad:
        return f"{bad.axiom} fails at {bad.witness}", bad.witness
    dual = dual_table_loops(table, e, pi)
    if dual is None:
        return "pi-dual table is not a mosaic", ()
    bad = next((r for r in lmosaic_reports_loops(dual, pi(e)) if not r.holds), None)
    if bad:
        return f"pi-dual violates {bad.axiom} at {bad.witness}", bad.witness
    for x in range(n):
        for y in range(n):
            if bool(table[x][x] >> y & 1) != bool(table[pi(y)][pi(y)] >> pi(x) & 1):
                return "pi does not reverse the induced order", (x, y)
    w = next(((x,) for x in range(n) if not table[x][pi(x)] >> pi(e) & 1), None)
    return w and ("pi(x) is no complement of x", w)


def reconstruction_failure_loops(l, table, pi):
    """(reason, witness) of the first cell at which a table fails to be the
    Nakano mosaic of the lattice l read off its principal cells, or None:
    the join in its cell and the pi-transported meet, cell by cell, then
    every cell against the Nakano table of l."""
    n = l.size
    for x in range(n):
        for y in range(n):
            if not table[x][y] >> l.join(x, y) & 1:
                return "join escapes its cell", (x, y)
            if l.meet(x, y) != pi(l.join(pi(x), pi(y))):
                return "meet is not the pi-transported join", (x, y)
    rebuilt = nakano_table_loops(l)
    w = next(((x, y) for x in range(n) for y in range(n) if rebuilt[x][y] != table[x][y]), None)
    return w and ("mosaic is not the Nakano mosaic of its order", w)
