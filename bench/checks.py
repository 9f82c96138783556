"""Checks made apart from the library.

Lattices are rebuilt from their labels and cover pairs with the brute-force
closure and bound scans of tests/oracles.py, and every law is evaluated on
those tables by code of its own.  Nothing here calls mosaic_lab, so a fault
in the library cannot hide itself by also corrupting its check.
"""

from __future__ import annotations

from oracles import brute_bound, closure_oracle


class Lattice:
    """A bounded lattice rebuilt from labels and cover pairs (lower, upper).

    `leq` holds bitmask up-set rows and `size` the element count, so the
    object can stand in for a library lattice in tests/oracles.py.
    """

    def __init__(self, elements, covers):
        self.names = list(elements)
        n = self.size = len(self.names)
        if n == 0 or len(set(self.names)) != n:
            raise ValueError("need distinct element labels")
        try:
            up = closure_oracle(self.names, [tuple(c) for c in covers])
        except KeyError as exc:
            raise ValueError(f"cover names unknown element {exc}") from None
        if up is None:
            raise ValueError("covers contain a cycle")
        index = {x: i for i, x in enumerate(self.names)}
        self.up = [frozenset(index[y] for y in up[x]) for x in self.names]
        self.leq = tuple(sum(1 << j for j in row) for row in self.up)
        by_index = dict(enumerate(self.up))
        pool = range(n)
        self.join = [[brute_bound(by_index, pool, (x, y), True) for y in pool] for x in pool]
        self.meet = [[brute_bound(by_index, pool, (x, y), False) for y in pool] for x in pool]
        if any(v is None for row in self.join + self.meet for v in row):
            raise ValueError("some pair lacks a join or a meet")
        self.bottom = next(i for i in pool if len(self.up[i]) == n)
        self.top = next(i for i in pool if all(i in row for row in self.up))
        # (elements above, elements below): isomorphisms must preserve it
        self.degrees = [(len(self.up[x]), sum(1 for row in self.up if x in row)) for x in pool]

    def le(self, x: int, y: int) -> bool:
        return y in self.up[x]


def first_modular_failure(l: Lattice):
    """Lexicographically least (x, y, z) breaking x v (y ^ (x v z)) =
    (x v y) ^ (x v z), or None when the modular law holds."""
    j, m, n = l.join, l.meet, l.size
    for x in range(n):
        for y in range(n):
            for z in range(n):
                if j[x][m[y][j[x][z]]] != m[j[x][y]][j[x][z]]:
                    return (x, y, z)
    return None


def _extend(table, cell: int, other: int, left: bool) -> int:
    out = 0
    w = 0
    while cell:
        if cell & 1:
            out |= table[w][other] if left else table[other][w]
        cell >>= 1
        w += 1
    return out


def associativity_fails(table, x: int, y: int, z: int) -> bool:
    """x(yz) != (xy)z for a table of bitmask cells, set-extended on both sides."""
    return _extend(table, table[y][z], x, left=False) != _extend(table, table[x][y], z, left=True)


def first_associativity_failure(table):
    """Lexicographically least (x, y, z) at which associativity fails, or None."""
    n = len(table)
    return next(((x, y, z) for x in range(n) for y in range(n) for z in range(n)
                 if associativity_fails(table, x, y, z)), None)


def orthomodular(l: Lattice, pi) -> bool:
    """x <= y implies x v (pi(x) ^ y) = y."""
    return all(
        l.join[x][l.meet[pi[x]][y]] == y for x in range(l.size) for y in l.up[x]
    )


def is_orthocomplementation(l: Lattice, pi) -> bool:
    """An involution that picks a complement and reverses the order."""
    n = l.size
    if sorted(pi) != list(range(n)) or any(pi[pi[x]] != x for x in range(n)):
        return False
    if any(l.join[x][pi[x]] != l.top or l.meet[x][pi[x]] != l.bottom for x in range(n)):
        return False
    return all(l.le(x, y) == l.le(pi[y], pi[x]) for x in range(n) for y in range(n))


def orthocomplementations(l: Lattice) -> list[tuple[int, ...]]:
    """Every orthocomplementation, found by pairing each element with one of
    its complements and keeping the order-reversing pairings."""
    n = l.size
    comps = [
        [y for y in range(n) if l.join[x][y] == l.top and l.meet[x][y] == l.bottom]
        for x in range(n)
    ]
    pi = [None] * n
    found = []

    def pair_next():
        x = next((i for i in range(n) if pi[i] is None), None)
        if x is None:
            if is_orthocomplementation(l, pi):
                found.append(tuple(pi))
            return
        for y in comps[x]:
            if pi[y] is None:
                pi[x], pi[y] = y, x
                pair_next()
                pi[x] = pi[y] = None

    pair_next()
    return found


def isomorphisms(a: Lattice, b: Lattice):
    """Yield every order isomorphism a -> b as a tuple of indices."""
    n = a.size
    if b.size != n or sorted(a.degrees) != sorted(b.degrees):
        return
    image = [None] * n
    used = set()

    def extend(x):
        if x == n:
            yield tuple(image)
            return
        for v in range(n):
            if v in used or a.degrees[x] != b.degrees[v]:
                continue
            if all(a.le(x, w) == b.le(v, image[w]) and a.le(w, x) == b.le(image[w], v) for w in range(x)):
                image[x] = v
                used.add(v)
                yield from extend(x + 1)
                used.discard(v)
        image[x] = None

    yield from extend(0)


def orthocomplementation_classes(l: Lattice) -> list[tuple[int, ...]]:
    """One orthocomplementation per class of maps conjugate under the
    lattice's automorphisms, each given by the least map of its class."""
    autos = list(isomorphisms(l, l))
    classes = set()
    for pi in orthocomplementations(l):
        classes.add(
            min(
                tuple(s[pi[s.index(p)]] for p in range(l.size))
                for s in autos
            )
        )
    return sorted(classes)


def duplicate_classes(lattices) -> list[tuple[int, int]]:
    """Index pairs (i, j), i < j, of isomorphic lattices in the list."""
    groups = {}
    for i, l in enumerate(lattices):
        groups.setdefault((l.size, tuple(sorted(l.degrees))), []).append(i)
    dupes = []
    for members in groups.values():
        for k, j in enumerate(members):
            for i in members[:k]:
                if next(isomorphisms(lattices[i], lattices[j]), None) is not None:
                    dupes.append((i, j))
    return sorted(dupes)


def double_factorial(k: int) -> int:
    out = 1
    while k > 1:
        out *= k
        k -= 2
    return out
