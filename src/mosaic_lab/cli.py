"""Command-line front end: load lattice files, run constructions and checks,
render tables and reports.

Inputs are lattice JSON files or catalog names.  Exit codes are stable per
failure class: 0 all requested checks passed, 1 a check or table diff failed,
2 unusable input (parse/validation errors, unknown names).  Everything is
deterministic; the MOSAIC_LAB_SEED environment variable is ignored.
"""

from __future__ import annotations

import json
import os
import sys
from itertools import islice

import click

from . import catalog as cat
from .bits import bits
from .equivalence import DualizableLMosaicPair, is_orthomodular_mosaic, reconstruct_lattice
from .errors import MosaicLabError, SizeTooLarge
from .hyperstructure import is_associative, verify_lmosaic, verify_mosaic
from .io import (
    _json_doc,
    diff_table_docs,
    lattice_from_doc,
    lattice_to_doc,
    parse_table_json,
    render_table_ascii,
    table_doc_from_mosaic,
    table_doc_to_json,
)
from .lattice_core import (
    AxiomReport,
    OrthoPair,
    _orthocomplementation_search,
    _orthomodular_law,
    is_modular,
    orthocomplementations,
)
from .nakano import additive_nakano, multiplicative_nakano, nakano_property_reports

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT_ERROR = 2

ALL_CHECKS = (
    "mosaic",
    "lmosaic",
    "polygroup",
    "modular",
    "ortholattice",
    "orthomodular",
    "roundtrip",
    "nakano-props",
)
# the checks that need the orthocomplementations of the input
ORTHO_CHECKS = ("ortholattice", "orthomodular", "roundtrip")
# check and roundtrip run every orthocomplementation of an input without an
# ortho block; past this many (MO_5 has 945, no lattice with at most 8
# elements has more) the input is refused rather than run for minutes
MAX_ORTHOCOMPLEMENTATIONS = 1000
# orthocomplements lists every map; past this many (MO_6 has 10 395, MO_7
# 135 135) the listing is refused.  Every search, the first-map one too,
# also stops past lattice_core._MAX_PLACEMENTS pairs tried.
_MAX_LISTED_ORTHOCOMPLEMENTATIONS = 20000
# lattice files past this many elements are refused before the lattice is
# built, since the cost of check grows between n^3 and n^4 in the elements
_MAX_FILE_ELEMENTS = 64


def _fail_input(message: str):
    click.echo(f"error: {message}", err=True)
    sys.exit(EXIT_INPUT_ERROR)


def _read(path: str) -> str:
    """The text of a UTF-8 file; a file that cannot be read or decoded is
    unusable input."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        _fail_input(f"cannot read {path}: {exc}")


def _load(source: str):
    """Lattice file path or catalog name -> (lattice, ortho or None, name)."""
    try:
        if os.path.exists(source):
            doc = _json_doc(_read(source))
            elements = doc.get("elements") if isinstance(doc, dict) else None
            if isinstance(elements, list) and len(elements) > _MAX_FILE_ELEMENTS:
                raise SizeTooLarge(f"{len(elements)} elements; lattice files hold at most {_MAX_FILE_ELEMENTS}")
            return lattice_from_doc(doc)
        entry = cat.named(source)
        return entry.lattice, entry.ortho, entry.name
    except MosaicLabError as exc:
        _fail_input(str(exc))


def _write(path: str, text: str):
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        _fail_input(f"cannot write {path}: {exc}")


def _witness_labels(l, report: AxiomReport):
    if report.witness is None:
        return None
    return [l.names[i] for i in report.witness]


def _emit(results, l, fmt: str, quiet: bool, header: str):
    ok = all(r.holds for _, r in results)
    if fmt == "json":
        doc = {
            "input": header,
            "ok": ok,
            "checks": [
                {
                    "name": name,
                    "holds": r.holds,
                    "witness": _witness_labels(l, r),
                    "reason": r.reason,
                }
                for name, r in results
            ],
        }
        click.echo(json.dumps(doc, indent=2))
    elif not quiet:
        for name, r in results:
            if r.holds:
                click.echo(f"PASS {name}")
            else:
                w = ",".join(_witness_labels(l, r))
                click.echo(f"FAIL {name} witness=({w}) reason={r.reason}")
    sys.exit(EXIT_OK if ok else EXIT_CHECK_FAILED)


@click.group()
def main():
    """Finite lattice / Nakano mosaic laboratory."""


@main.command()
@click.argument("source")
def validate(source: str):
    """Parse and validate a lattice file (or catalog name)."""
    l, ortho, name = _load(source)
    click.echo(
        f"ok: {name}: {l.size} elements, bottom={l.names[l.bottom]}, top={l.names[l.top]}, "
        f"ortho={'yes' if ortho is not None else 'no'}"
    )
    sys.exit(EXIT_OK)


def _set_str(l, mask: int) -> str:
    return "{" + ",".join(l.names[z] for z in bits(mask)) + "}"


@main.command()
@click.argument("source")
@click.option("--additive/--multiplicative", "additive", default=True, help="table flavor")
@click.option("--format", "fmt", type=click.Choice(["ascii", "json"]), default="ascii")
@click.option("--diff", "diff_path", default=None, help="golden table JSON to diff against")
@click.option("--golden", "golden_path", default=None, help="write the recomputed table JSON here")
@click.option("--quiet", is_flag=True)
def table(source, additive, fmt, diff_path, golden_path, quiet):
    """Print the Nakano multioperation grid of a lattice."""
    l, _, name = _load(source)
    flavor = "additive" if additive else "multiplicative"
    nm = additive_nakano(l) if additive else multiplicative_nakano(l)
    doc = table_doc_from_mosaic(f"{name} {flavor}", l.names, nm.mosaic, provenance="recomputed")
    if golden_path:
        _write(golden_path, table_doc_to_json(doc))
        if not quiet:
            click.echo(f"wrote {golden_path}")
    if diff_path:
        text = _read(diff_path)
        try:
            diffs = diff_table_docs(doc, parse_table_json(text))
        except MosaicLabError as exc:
            _fail_input(str(exc))
        if fmt == "json":
            click.echo(json.dumps({"input": name, "diff": diffs}, indent=2))
        elif not quiet:
            for d in diffs:
                click.echo(
                    f"cell ({d['row']},{d['col']}): recomputed {{{','.join(d['recomputed'])}}}"
                    f" vs {{{','.join(d['other'])}}}"
                )
            click.echo(f"{len(diffs)} differing cell(s)")
        sys.exit(EXIT_OK if not diffs else EXIT_CHECK_FAILED)
    if fmt == "json":
        click.echo(table_doc_to_json(doc).rstrip("\n"))
    elif not quiet:
        click.echo(render_table_ascii(doc, "+" if additive else "*"), nl=False)
    sys.exit(EXIT_OK)


def _ortho_list(l, ortho, first_only: bool = False):
    if ortho is not None:
        return [ortho]
    try:
        if first_only:
            return list(islice(_orthocomplementation_search(l), 1))
        return orthocomplementations(l, limit=MAX_ORTHOCOMPLEMENTATIONS)
    except SizeTooLarge as exc:
        _fail_input(f"{exc}; give the input an ortho block")


def _run_checks(l, pis, names):
    """Results of the named checks; pis are the orthocomplementations that
    ORTHO_CHECKS run against.  orthomodular or roundtrip with no pi is
    unusable input.  The additive Nakano table depends on the order alone,
    so it is built once and each pi's dualizable pair reads it."""
    results = []
    reads_table = {"mosaic", "lmosaic", "polygroup", "nakano-props"} & set(names) or (
        pis and {"orthomodular", "roundtrip"} & set(names)
    )
    add = additive_nakano(l) if reads_table else None
    if "mosaic" in names:
        got = verify_mosaic(add.mosaic.op)
        for r in got.reports:
            results.append((f"mosaic.{r.axiom}", r))
    if "lmosaic" in names:
        for r in verify_lmosaic(add.mosaic):
            results.append((f"lmosaic.{r.axiom}", r))
    if "polygroup" in names:
        assoc = is_associative(add.mosaic.op)
        if assoc.holds:
            results.append(("polygroup", assoc))
        else:
            x, y, z = assoc.witness
            op = add.mosaic.op
            lhs = _set_str(l, op.right_extend(x, op.cell(y, z)))
            rhs = _set_str(l, op.left_extend(op.cell(x, y), z))
            reason = f"{l.names[x]}+({l.names[y]}+{l.names[z]})={lhs} != ({l.names[x]}+{l.names[y]})+{l.names[z]}={rhs}"
            results.append(("polygroup", AxiomReport("associative", False, assoc.witness, reason)))
    if "modular" in names:
        results.append(("modular", is_modular(l)))
    if "ortholattice" in names:
        if pis:
            results.append(("ortholattice", AxiomReport("ortholattice", True)))
        else:
            results.append(
                ("ortholattice", AxiomReport("ortholattice", False, (), "no orthocomplementation"))
            )
    if "orthomodular" in names or "roundtrip" in names:
        if not pis:
            _fail_input("input has no ortho block and no discoverable orthocomplementation")
        for k, pi in enumerate(pis):
            tag = "" if len(pis) == 1 else f"[pi{k}]"
            mosaic_pair = DualizableLMosaicPair(add.mosaic, OrthoPair(l, pi).pi)
            if "orthomodular" in names:
                results.append((f"orthomodular{tag}", _orthomodular_law(l, pi, "orthomodular")))
                results.append((f"orthomodular-mosaic{tag}", is_orthomodular_mosaic(mosaic_pair)))
            if "roundtrip" in names:
                rebuilt = reconstruct_lattice(mosaic_pair)
                ok = rebuilt.lattice.leq == l.leq and rebuilt.pi == pi
                results.append(
                    (
                        f"roundtrip{tag}",
                        AxiomReport("roundtrip", True)
                        if ok
                        else AxiomReport("roundtrip", False, (), "reconstruction differs"),
                    )
                )
    if "nakano-props" in names:
        for flavor, nm in (("additive", add), ("multiplicative", multiplicative_nakano(l))):
            for r in nakano_property_reports(nm):
                results.append((f"nakano.{flavor}.{r.axiom}", r))
    return results


@main.command()
@click.argument("source")
@click.option("--checks", "checks", default=None, help="comma-separated subset of: " + ",".join(ALL_CHECKS))
@click.option("--format", "fmt", type=click.Choice(["ascii", "json"]), default="ascii")
@click.option("--quiet", is_flag=True)
def check(source, checks, fmt, quiet):
    """Run axiom checks; exit 0 iff all hold."""
    l, ortho, name = _load(source)
    if checks is None:
        pis = _ortho_list(l, ortho)
        requested = [c for c in ALL_CHECKS if c not in ("orthomodular", "roundtrip")]
        if pis:
            requested += ["orthomodular", "roundtrip"]
    else:
        requested = [c.strip() for c in checks.split(",") if c.strip()]
        if not requested:
            _fail_input(f"no checks named; choose from: {', '.join(ALL_CHECKS)}")
        unknown = [c for c in requested if c not in ALL_CHECKS]
        if unknown:
            _fail_input(f"unknown checks: {', '.join(unknown)}")
        ortho_checks = set(requested) & set(ORTHO_CHECKS)
        # the ortholattice check alone needs one map, not the listing
        pis = _ortho_list(l, ortho, ortho_checks == {"ortholattice"}) if ortho_checks else []
    _emit(_run_checks(l, pis, requested), l, fmt, quiet, name)


@main.command()
@click.argument("source")
@click.option("--format", "fmt", type=click.Choice(["ascii", "json"]), default="ascii")
def orthocomplements(source, fmt):
    """List every orthocomplementation of the lattice."""
    l, _, name = _load(source)
    try:
        pis = orthocomplementations(l, limit=_MAX_LISTED_ORTHOCOMPLEMENTATIONS)
    except SizeTooLarge as exc:
        _fail_input(str(exc))
    if fmt == "json":
        doc = {
            "input": name,
            "count": len(pis),
            "orthocomplementations": [
                [[l.names[x], l.names[pi(x)]] for x in range(l.size) if x <= pi(x)] for pi in pis
            ],
        }
        click.echo(json.dumps(doc, indent=2))
    else:
        click.echo(f"{name}: {len(pis)} orthocomplementation(s)")
        for k, pi in enumerate(pis):
            pairs = " ".join(f"{l.names[x]}<->{l.names[pi(x)]}" for x in range(l.size) if x <= pi(x))
            click.echo(f"  pi{k}: {pairs}")
    sys.exit(EXIT_OK)


@main.command()
@click.argument("source")
@click.option("--format", "fmt", type=click.Choice(["ascii", "json"]), default="ascii")
@click.option("--quiet", is_flag=True)
def roundtrip(source, fmt, quiet):
    """Reconstruct the lattice from its Nakano mosaic and compare."""
    l, ortho, name = _load(source)
    _emit(_run_checks(l, _ortho_list(l, ortho), ["roundtrip"]), l, fmt, quiet, name)


@main.command()
@click.argument("name", required=False)
@click.option("--enumerate", "enum_n", type=int, default=None, help="census of all n-element lattices")
@click.option("-o", "--out", "outdir", default=".", help="directory for exported files")
@click.option("--format", "fmt", type=click.Choice(["ascii", "json"]), default="ascii")
def catalog(name, enum_n, outdir, fmt):
    """Export a named lattice as JSON, or print an enumeration census."""
    if (name is None) == (enum_n is None):
        _fail_input("need exactly one of NAME or --enumerate n")
    if enum_n is not None:
        try:
            rows = cat.census(enum_n)
        except MosaicLabError as exc:
            _fail_input(str(exc))
        if fmt == "json":
            click.echo(json.dumps({"n": enum_n, "classes": rows}, indent=2))
        else:
            click.echo(f"n={enum_n}: {len(rows)} lattice class(es)")
            click.echo("id       modular ortho om      covers")
            for r in rows:
                om = ",".join(str(v) for v in r["orthomodular"]) or "-"
                covers = " ".join(f"{a}<{b}" for a, b in r["covers"])
                click.echo(f"{r['id']:<8} {str(r['modular']):<7} {r['ortho_count']:<5} {om:<7} {covers}")
        sys.exit(EXIT_OK)
    try:
        entry = cat.named(name)
    except MosaicLabError as exc:
        _fail_input(str(exc))
    doc = lattice_to_doc(entry.lattice, entry.ortho, entry.name)
    path = os.path.join(outdir, f"{entry.name}.json")
    _write(path, json.dumps(doc, indent=2) + "\n")
    click.echo(f"wrote {path}")
    sys.exit(EXIT_OK)


if __name__ == "__main__":
    main()
