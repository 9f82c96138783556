"""The fixed input corpus of the verify, ortho and cli workloads.

    python3 bench/corpus.py

regenerates bench/corpus.json from catalog.enumerate_lattices,
catalog.enumerate_ortholattices and catalog.named, after checking it apart
from the library: per-n class counts against the brute-force oracle of
tests/oracles.py for n <= 6 and against the two-route fixture
tests/fixtures/enumeration_counts.json for n = 7 and 8, and pairwise
non-isomorphism with the benchmark's own isomorphism search.  The file holds
cover lists and orthocomplementations as label pairs, so a rewritten
enumerator that labels its classes differently leaves the inputs unchanged.
"""

from __future__ import annotations

import functools
import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
CORPUS = BENCH / "corpus.json"
FIXTURE = ROOT / "tests" / "fixtures" / "enumeration_counts.json"
MAX_N = 8

# lattices the verify workload adds to the enumerated classes
VERIFY_NAMED = ("chain_16", "boolean_4", "MO_6", "pentagon", "hexagon", "diamond_M3")
# shipped ortholattices the ortho workload adds to the enumerated pairs
ORTHO_NAMED = ("chain_1", "chain_2", "boolean_1", "boolean_2", "boolean_3", "boolean_4",
               "MO_2", "MO_3", "MO_4", "MO_5", "MO_6", "hexagon")


def load() -> dict:
    with open(CORPUS, encoding="utf-8") as fh:
        return json.load(fh)


@functools.cache
def expected_class_counts() -> dict[int, int]:
    """Per-n class counts: brute-force oracle for n <= 6, fixture above."""
    from oracles import brute_bounded_lattices

    with open(FIXTURE, encoding="utf-8") as fh:
        fixture = json.load(fh)
    counts = {int(n): c for n, c in fixture["lattice_classes"].items()}
    for n in range(1, fixture["oracle_max_n"] + 1):
        counts[n] = len(brute_bounded_lattices(n))
    return counts


def _doc(lattice, ortho, name: str) -> dict:
    doc = {
        "name": name,
        "elements": list(lattice.names),
        "covers": [[lattice.names[a], lattice.names[b]] for a, b in lattice.covers()],
    }
    if ortho is not None:
        doc["ortho"] = [[lattice.names[x], lattice.names[ortho(x)]]
                        for x in range(lattice.size) if x <= ortho(x)]
    return doc


def generate() -> dict:
    from mosaic_lab import catalog

    classes, pairs = [], []
    for n in range(1, MAX_N + 1):
        for i, l in enumerate(catalog.enumerate_lattices(n)):
            classes.append(_doc(l, None, f"n{n}_{i}"))
        for i, p in enumerate(catalog.enumerate_ortholattices(n)):
            pairs.append(_doc(p.lattice, p.pi, f"ortho_n{n}_{i}"))
    named = {}
    for name in dict.fromkeys(VERIFY_NAMED + ORTHO_NAMED):
        entry = catalog.named(name)
        named[name] = _doc(entry.lattice, entry.ortho, name)
    return {"classes": classes, "ortho_pairs": pairs, "named": named}


def problems(corpus: dict) -> list[str]:
    """Everything wrong with the corpus, judged without the library."""
    from checks import Lattice, duplicate_classes, is_orthocomplementation

    out = []
    with open(FIXTURE, encoding="utf-8") as fh:
        want_pairs = {int(n): c for n, c in json.load(fh)["ortholattice_pairs"].items()}
    want = expected_class_counts()
    by_n: dict[int, list] = {}
    for doc in corpus["classes"]:
        l = Lattice(doc["elements"], doc["covers"])
        by_n.setdefault(l.size, []).append(l)
    for n in range(1, MAX_N + 1):
        got = len(by_n.get(n, []))
        if got != want[n]:
            out.append(f"n={n}: {got} classes, expected {want[n]}")
        for i, j in duplicate_classes(by_n.get(n, [])):
            out.append(f"n={n}: classes {i} and {j} are isomorphic")
    pair_counts: dict[int, int] = {}
    for doc in corpus["ortho_pairs"] + [d for d in corpus["named"].values() if "ortho" in d]:
        l = Lattice(doc["elements"], doc["covers"])
        if not is_orthocomplementation(l, ortho_map(l.names, doc["ortho"])):
            out.append(f"{doc['name']}: ortho is no orthocomplementation")
        if doc in corpus["ortho_pairs"]:
            pair_counts[l.size] = pair_counts.get(l.size, 0) + 1
    for n in range(1, MAX_N + 1):
        if pair_counts.get(n, 0) != want_pairs[n]:
            out.append(f"n={n}: {pair_counts.get(n, 0)} ortho pairs, expected {want_pairs[n]}")
    return out


def ortho_map(names, pairs) -> list[int]:
    """An involution given as label pairs, as an index map over `names`."""
    index = {x: i for i, x in enumerate(names)}
    pi = list(range(len(index)))
    for a, b in pairs:
        i, j = index[a], index[b]
        pi[i], pi[j] = j, i
    return pi


def _one_doc_per_line(corpus: dict) -> str:
    sections = []
    for key, docs in corpus.items():
        items = docs.items() if isinstance(docs, dict) else enumerate(docs)
        lines = [
            (f"{json.dumps(k)}: " if isinstance(docs, dict) else "") + json.dumps(d)
            for k, d in items
        ]
        opening, closing = "{}" if isinstance(docs, dict) else "[]"
        sections.append(f"{json.dumps(key)}: {opening}\n" + ",\n".join(lines) + f"\n{closing}")
    return "{\n" + ",\n".join(sections) + "\n}\n"


def main() -> int:
    corpus = generate()
    found = problems(corpus)
    for line in found:
        print(f"corpus check failed: {line}", file=sys.stderr)
    if found:
        return 1
    with open(CORPUS, "w", encoding="utf-8") as fh:
        fh.write(_one_doc_per_line(corpus))
    print(f"wrote {CORPUS.relative_to(ROOT)}: {len(corpus['classes'])} classes, "
          f"{len(corpus['ortho_pairs'])} ortho pairs, {len(corpus['named'])} named lattices")
    return 0


if __name__ == "__main__":
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(BENCH)]
    sys.exit(main())
