"""File formats and rendering.

Lattice JSON: {"name": str, "elements": [str...], "covers": [[str,str]...],
               "ortho": optional [[str,str]...]}  (pair order irrelevant;
unknown element names, and an ortho block that is no orthocomplementation,
are rejected).

Mosaic table JSON: {"name": str, "elements": [str...], "neutral": str,
                    "table": [[[str...]...]...]} plus an optional free-form
"provenance" string.  The ASCII renderer mirrors the printed-table layout:
operation symbol in the corner, labelled rows/columns, set-valued cells.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass

from .bits import bits
from .errors import FormatError, NotAnOrthocomplementation, _echo
from .lattice_core import FiniteBoundedLattice, Involution, build_from_covers, is_orthocomplementation
from .hyperstructure import Mosaic, Multioperation


def _require(cond: bool, message: str):
    if not cond:
        raise FormatError(message)


# arrays and objects a JSON file may nest: a lattice file needs 3, a table
# file 4.  The decoder recurses once per level, and on Python 3.10 and 3.11
# its limit is what the caller's stack leaves of the 1 000-frame recursion
# limit, so the bound is checked first and the verdict is the file's own.
_MAX_NESTING = 64
# a string literal, closed or not, whose brackets nest nothing
_STRING = re.compile(r'"(?:[^"\\]|\\.)*"?', re.S)
_NOT_BRACKET = re.compile(r"[^\[\]{}]+")


def _nesting_exceeds(text: str, bound: int) -> bool:
    """Whether the arrays and objects of the JSON text nest deeper than
    bound, read off its brackets outside string literals."""
    depth = 0
    for c in _NOT_BRACKET.sub("", _STRING.sub("", text)):
        if c in "[{":
            depth += 1
            if depth > bound:
                return True
        else:
            depth -= 1
    return False


def _json_doc(text: str):
    """The decoded JSON text; a FormatError with line info when it is
    malformed, and one without when it nests deeper than _MAX_NESTING."""
    if _nesting_exceeds(text, _MAX_NESTING):
        raise FormatError("JSON nested too deep to decode")
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc


def parse_lattice_json(text: str):
    """-> (lattice, ortho involution or None, name)."""
    return lattice_from_doc(_json_doc(text))


def lattice_from_doc(doc):
    _require(isinstance(doc, dict), "top level must be an object")
    for key in ("name", "elements", "covers"):
        _require(key in doc, f"missing key {key!r}")
    elements = doc["elements"]
    _require(
        isinstance(elements, list) and all(isinstance(e, str) for e in elements),
        "elements must be a list of strings",
    )
    known = set(elements)
    _require(len(known) == len(elements), "duplicate element names")
    covers = []
    for pair in _label_pairs(doc["covers"], "covers", "bad cover"):
        for lab in pair:
            _require(lab in known, f"unknown element {_echo(lab)} in covers")
        covers.append(tuple(pair))
    lattice = build_from_covers(elements, covers)
    ortho = None
    if doc.get("ortho") is not None:
        m = list(range(lattice.size))
        seen = set()
        for pair in _label_pairs(doc["ortho"], "ortho", "bad ortho pair"):
            # a self-pair [x, x] is legal only for the one-element lattice
            for lab in dict.fromkeys(pair):
                _require(lab in known, f"unknown element {_echo(lab)} in ortho")
                _require(lab not in seen, f"element {_echo(lab)} paired twice in ortho")
                seen.add(lab)
            i, j = lattice.index(pair[0]), lattice.index(pair[1])
            m[i], m[j] = j, i
        ortho = Involution(tuple(m))
        if not is_orthocomplementation(lattice, ortho):
            raise NotAnOrthocomplementation("ortho block does not orthocomplement the lattice")
    return lattice, ortho, str(doc["name"])


def _label_pairs(pairs, key: str, bad: str) -> list:
    """pairs, once it is known to be a list of two-string lists."""
    _require(isinstance(pairs, list), f"{key} must be a list of label pairs")
    for pair in pairs:
        _require(isinstance(pair, list) and len(pair) == 2 and all(isinstance(lab, str) for lab in pair),
                 f"{bad} {_echo(pair)}")
    return pairs


def lattice_to_doc(lattice: FiniteBoundedLattice, ortho: Involution | None, name: str) -> dict:
    doc = {
        "name": name,
        "elements": list(lattice.names),
        "covers": [[lattice.names[a], lattice.names[b]] for a, b in lattice.covers()],
    }
    if ortho is not None:
        doc["ortho"] = _ortho_pairs(lattice, ortho)
    return doc


def _ortho_pairs(lattice: FiniteBoundedLattice, pi: Involution) -> list:
    """pi as the label pairs [x, pi(x)] with x <= pi(x), in the order of x."""
    return [[lattice.names[x], lattice.names[y]] for x, y in enumerate(pi.map) if x <= y]


@dataclass
class TableDoc:
    """A mosaic table over labels; cells may mention foreign labels when the
    document transcribes a printed table with typos."""

    name: str
    elements: tuple[str, ...]
    neutral: str | None
    rows: list  # rows[i][j] = list of label strings
    provenance: str | None = None

    def cell_sets(self) -> dict:
        return {
            (self.elements[i], self.elements[j]): frozenset(self.rows[i][j])
            for i in range(len(self.elements))
            for j in range(len(self.elements))
        }

    def foreign_labels(self) -> set:
        known = set(self.elements)
        out = set()
        for row in self.rows:
            for cell in row:
                out.update(lab for lab in cell if lab not in known)
        return out

    def commutativity_failures(self) -> list:
        """Label pairs whose transcribed cells are not symmetric."""
        bad = []
        for i, a in enumerate(self.elements):
            for j in range(i):
                if set(self.rows[i][j]) != set(self.rows[j][i]):
                    bad.append((a, self.elements[j]))
        return bad

    def neutrality_failures(self) -> list:
        """Positions where the declared neutral's row/column law breaks."""
        if self.neutral is None:
            return []
        e = self.elements.index(self.neutral)
        bad = []
        for i, a in enumerate(self.elements):
            if set(self.rows[e][i]) != {a}:
                bad.append((self.neutral, a))
            if set(self.rows[i][e]) != {a}:
                bad.append((a, self.neutral))
        return bad

    def to_multioperation(self) -> Multioperation:
        _require(not self.foreign_labels(), f"table mentions foreign labels {_echo(sorted(self.foreign_labels()))}")
        pos = {lab: i for i, lab in enumerate(self.elements)}
        n = len(self.elements)
        return Multioperation(
            n,
            tuple(
                tuple(sum(1 << pos[lab] for lab in set(self.rows[i][j])) for j in range(n))
                for i in range(n)
            ),
        )


def parse_table_json(text: str) -> TableDoc:
    return table_from_doc(_json_doc(text))


def table_from_doc(doc) -> TableDoc:
    _require(isinstance(doc, dict), "top level must be an object")
    for key in ("name", "elements", "table"):
        _require(key in doc, f"missing key {key!r}")
    elements = doc["elements"]
    _require(
        isinstance(elements, list) and all(isinstance(e, str) for e in elements),
        "elements must be a list of strings",
    )
    _require(len(set(elements)) == len(elements), "duplicate element names")
    n = len(elements)
    rows = doc["table"]
    _require(isinstance(rows, list) and len(rows) == n, "table must have one row per element")
    for row in rows:
        _require(isinstance(row, list) and len(row) == n, "table rows must have one cell per element")
        for cell in row:
            _require(
                isinstance(cell, list) and all(isinstance(lab, str) for lab in cell),
                "cells must be lists of label strings",
            )
    neutral = doc.get("neutral")
    if neutral is not None:
        _require(neutral in elements, f"neutral {_echo(neutral)} is not an element")
    return TableDoc(str(doc["name"]), tuple(elements), neutral, rows, doc.get("provenance"))


def table_doc_from_mosaic(name: str, labels, mosaic: Mosaic, provenance: str | None = None) -> TableDoc:
    labels = tuple(labels)
    rows = [
        [[labels[z] for z in bits(mosaic.cell(x, y))] for y in range(mosaic.size)]
        for x in range(mosaic.size)
    ]
    return TableDoc(name, labels, labels[mosaic.neutral], rows, provenance)


def table_doc_to_json(doc: TableDoc) -> str:
    out = {
        "name": doc.name,
        "elements": list(doc.elements),
        "neutral": doc.neutral,
        "table": doc.rows,
    }
    if doc.provenance:
        out["provenance"] = doc.provenance
    return json.dumps(out, indent=2) + "\n"


def diff_table_docs(recomputed: TableDoc, other: TableDoc) -> list[dict]:
    """Cell-level differences keyed by label pairs, recomputed side first.
    Requires the two documents to cover the same element set."""
    if set(recomputed.elements) != set(other.elements):
        raise FormatError(
            f"element sets differ: {sorted(recomputed.elements)} vs {sorted(other.elements)}"
        )
    a, b = recomputed.cell_sets(), other.cell_sets()
    diffs = []
    for x in recomputed.elements:
        for y in recomputed.elements:
            if a[x, y] != b[x, y]:
                diffs.append(
                    {
                        "row": x,
                        "col": y,
                        "recomputed": sorted(a[x, y]),
                        "other": sorted(b[x, y]),
                    }
                )
    return diffs


def render_table_ascii(doc: TableDoc, corner: str = "+") -> str:
    labels = doc.elements

    def fmt(cell) -> str:
        return "{" + ",".join(cell) + "}"

    col_w = [
        max(len(labels[j]), max(len(fmt(doc.rows[i][j])) for i in range(len(labels))))
        for j in range(len(labels))
    ]
    head_w = max(len(corner), max(len(x) for x in labels))
    lines = [
        " | ".join([corner.ljust(head_w)] + [labels[j].ljust(col_w[j]) for j in range(len(labels))]).rstrip()
    ]
    lines.append("-" * head_w + "-+-" + "-+-".join("-" * w for w in col_w))
    for i, lab in enumerate(labels):
        cells = [fmt(doc.rows[i][j]).ljust(col_w[j]) for j in range(len(labels))]
        lines.append(" | ".join([lab.ljust(head_w)] + cells).rstrip())
    return "\n".join(lines) + "\n"
