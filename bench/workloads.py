"""The four workloads.

Each workload builds its inputs in `setup`, gives the fixed list of commands
that make up one pass, and checks each command's output in `check`, against
a computation made apart from the library (checks.py) or a property the
method must have.  A command is a callable taking the pass's memo dict, in
which earlier commands of the same pass may leave results for later ones.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from types import SimpleNamespace

import checks
import corpus as corpus_mod
from checks import Lattice
from oracles import nakano_cell_oracle

CENSUS_SIZES = range(1, corpus_mod.MAX_N + 1)
PRINTED_HEXAGON = "src/mosaic_lab/data/table3_hexagon_additive_printed.json"
MO_4_FILE = "MO_4_no_ortho.json"
GENERATED_POLYGROUP_MAX_N = 12
TRANSFER_MAX_N = 4


def _mask(elements) -> int:
    return sum(1 << z for z in elements)


def relabeled(doc: dict, rng: random.Random) -> dict:
    """The same lattice (and pi) with its elements listed in a random order,
    which is the order of their indices once built."""
    elements = list(doc["elements"])
    rng.shuffle(elements)
    return dict(doc, elements=elements)


def oracle_cells(own: Lattice, additive: bool) -> list[list[int]]:
    return [[_mask(nakano_cell_oracle(own, x, y, additive)) for y in range(own.size)]
            for x in range(own.size)]


class Census:
    """catalog.census(n) for n = 1..8, the work of `catalog --enumerate n`."""

    name = "census"

    def setup(self, ml, corpus, seed, workdir):
        return SimpleNamespace(ml=ml)

    def commands(self, st, in_process=False):
        return [(f"census({n})", lambda memo, n=n: st.ml.catalog.census(n)) for n in CENSUS_SIZES]

    def check(self, st, outputs):
        want = corpus_mod.expected_class_counts()
        problems = {}
        for n in CENSUS_SIZES:
            key = f"census({n})"
            found = census_problems(n, outputs[key], want[n])
            if not found:
                found = listed_ortho_problems(st.ml, n, outputs[key])
            if found:
                problems[key] = found
        return problems


def census_problems(n: int, rows, want_classes: int) -> list[str]:
    """Rows of an n-element census, judged by rebuilding every class."""
    if isinstance(rows, CommandError):
        return [str(rows)]
    out = []
    if len(rows) != want_classes:
        out.append(f"{len(rows)} classes, expected {want_classes}")
    if len({row["id"] for row in rows}) != len(rows):
        out.append("row ids repeat")
    lattices = []
    for row in rows:
        labels = sorted({lab for pair in row["covers"] for lab in pair}) or [row["id"]]
        if row["size"] != n or len(labels) != n:
            out.append(f"{row['id']}: not {n} elements")
            continue
        try:
            own = Lattice(labels, row["covers"])
        except ValueError as exc:
            out.append(f"{row['id']}: {exc}")
            continue
        lattices.append(own)
        if row["modular"] != (checks.first_modular_failure(own) is None):
            out.append(f"{row['id']}: modular column is wrong")
        classes = checks.orthocomplementation_classes(own)
        if row["ortho_count"] != len(classes) or row["ortholattice"] != bool(classes):
            out.append(f"{row['id']}: {row['ortho_count']} ortho classes, expected {len(classes)}")
        elif sorted(row["orthomodular"]) != sorted(checks.orthomodular(own, pi) for pi in classes):
            out.append(f"{row['id']}: orthomodular column is wrong")
    for i, j in checks.duplicate_classes(lattices):
        out.append(f"classes {i} and {j} are isomorphic")
    return out


def listed_ortho_problems(ml, n: int, rows) -> list[str]:
    """The orthocomplementations behind the census's ortho columns."""
    pairs = ml.catalog.enumerate_ortholattices(n)
    out = []
    if len(pairs) != sum(row["ortho_count"] for row in rows):
        out.append(f"{len(pairs)} ortho pairs listed, census counts {sum(r['ortho_count'] for r in rows)}")
    for p in pairs:
        own = Lattice(p.lattice.names, [(p.lattice.names[a], p.lattice.names[b]) for a, b in p.lattice.covers()])
        if not checks.is_orthocomplementation(own, p.pi.map):
            out.append(f"{p.pi.map} is no orthocomplementation")
    return out


@dataclass(frozen=True)
class CommandError:
    """Stands in for the output of a command that raised."""

    message: str

    def __str__(self):
        return f"raised {self.message}"


def _build(ml, doc):
    lattice = ml.lattice_core.build_from_covers(doc["elements"], doc["covers"])
    pi = None
    if "ortho" in doc:
        pi = ml.lattice_core.Involution(tuple(corpus_mod.ortho_map(doc["elements"], doc["ortho"])))
    return lattice, pi


class Verify:
    """Nakano mosaics and their verifiers, once per corpus lattice."""

    name = "verify"

    def setup(self, ml, corpus, seed, workdir):
        rng = random.Random(seed)
        docs = corpus["classes"] + [corpus["named"][name] for name in corpus_mod.VERIFY_NAMED]
        items = []
        for doc in docs:
            doc = relabeled(doc, rng)
            items.append((doc, _build(ml, doc)[0]))
        return SimpleNamespace(ml=ml, items=items)

    def commands(self, st, in_process=False):
        return [(doc["name"], lambda memo, l=l: self.run(st.ml, l)) for doc, l in st.items]

    @staticmethod
    def run(ml, l):
        nk, hs = ml.nakano, ml.hyperstructure
        flavors = []
        for nm in (nk.additive_nakano(l), nk.multiplicative_nakano(l)):
            op = nm.mosaic.op
            flavors.append((
                op.table,
                hs.verify_mosaic(op).reports,
                hs.verify_lmosaic(nm.mosaic),
                hs.is_associative(op),
                tuple(nk.nakano_property_reports(nm)),
            ))
        return tuple(flavors), ml.lattice_core.is_modular(l)

    def check(self, st, outputs):
        problems = {}
        for doc, _ in st.items:
            found = verify_problems(doc, outputs[doc["name"]])
            if found:
                problems[doc["name"]] = found
        return problems


def verify_problems(doc, output) -> list[str]:
    if isinstance(output, CommandError):
        return [str(output)]
    own = Lattice(doc["elements"], doc["covers"])
    flavors, modular = output
    out = []
    want_modular = checks.first_modular_failure(own)
    if modular.holds != (want_modular is None) or (not modular.holds and modular.witness != want_modular):
        out.append(f"modular report {modular.witness}, least failure {want_modular}")
    for additive, (table, mosaic, lmosaic, assoc, props) in zip((True, False), flavors):
        flavor = "additive" if additive else "multiplicative"
        if [list(row) for row in table] != oracle_cells(own, additive):
            out.append(f"{flavor} table differs from the oracle")
        failing = [r.axiom for r in mosaic + lmosaic + props if not r.holds]
        if failing:
            out.append(f"{flavor}: {', '.join(failing)} fail")
        want_assoc = checks.first_associativity_failure(table)
        if assoc.holds != (want_assoc is None) or (not assoc.holds and assoc.witness != want_assoc):
            out.append(f"{flavor} associativity report {assoc.witness}, least failure {want_assoc}")
        if assoc.holds != (want_modular is None):
            out.append(f"{flavor} associativity disagrees with modularity")
    return out


class Ortho:
    """The ortholattice <-> L-mosaic correspondence over the ortho corpus."""

    name = "ortho"

    def setup(self, ml, corpus, seed, workdir):
        rng = random.Random(seed)
        docs = corpus["ortho_pairs"] + [corpus["named"][name] for name in corpus_mod.ORTHO_NAMED]
        pairs = []
        for doc in docs:
            doc = relabeled(doc, rng)
            lattice, pi = _build(ml, doc)
            pairs.append((doc, ml.equivalence.OrthoPair(lattice, pi)))
        named = {doc["name"]: (doc, p) for doc, p in pairs}
        small = [p for doc, p in pairs[:len(corpus["ortho_pairs"])] if p.size <= TRANSFER_MAX_N]
        return SimpleNamespace(ml=ml, pairs=pairs, mo={k: named[f"MO_{k}"] for k in (4, 5)},
                               transfer=list(itertools.product(small, repeat=2)))

    def commands(self, st, in_process=False):
        ml = st.ml
        cmds = []
        for k, (doc, p) in st.mo.items():
            def search(memo, k=k, l=p.lattice):
                memo[k] = ml.lattice_core.orthocomplementations(l)
                return tuple(pi.map for pi in memo[k])
            cmds.append((f"orthocomplementations(MO_{k})", search))
        mo4 = st.mo[4][1].lattice
        for i in range(checks.double_factorial(2 * 4 - 1)):
            cmds.append((f"MO_4 map {i}", lambda memo, i=i: self.battery(
                ml, ml.equivalence.OrthoPair(mo4, memo[4][i]), polygroups=False)))
        for doc, p in st.pairs:
            cmds.append((doc["name"], lambda memo, p=p: self.battery(ml, p, polygroups=True)))
        for s, (src, dst) in enumerate(st.transfer):
            cmds.append((f"transfer {s}", lambda memo, src=src, dst=dst: tuple(
                (r.map, r.lattice_hom, r.mosaic_hom, r.intertwines)
                for f in itertools.product(range(dst.size), repeat=src.size)
                for r in [ml.equivalence.morphism_transfer_check(f, src, dst)])))
        return cmds

    @staticmethod
    def battery(ml, p, polygroups):
        eq, lc = ml.equivalence, ml.lattice_core
        d = eq.functor_E(p)
        rebuilt = eq.reconstruct_lattice(d)
        om = lc.is_orthomodular(p.lattice, p.pi)
        verdicts = (om, eq.is_orthomodular_mosaic(d), *lc.check_om_equivalences(p.lattice, p.pi))
        checked = ()
        if polygroups and om.holds and p.size <= GENERATED_POLYGROUP_MAX_N:
            checked = tuple(eq.generated_polygroup_check(d, x, y)
                            for x in range(p.size) for y in range(p.size))
        r = rebuilt.lattice
        return (r.leq, r.join_table, r.meet_table, rebuilt.pi.map), verdicts, checked

    def check(self, st, outputs):
        problems = {}
        own = {k: Lattice(doc["elements"], doc["covers"]) for k, (doc, _) in st.mo.items()}
        for k, (doc, p) in st.mo.items():
            key = f"orthocomplementations(MO_{k})"
            maps = outputs[key]
            found = []
            if isinstance(maps, CommandError):
                found.append(str(maps))
            else:
                if len(maps) != checks.double_factorial(2 * k - 1) or len(set(maps)) != len(maps):
                    found.append(f"{len(maps)} maps, expected (2k-1)!! = {checks.double_factorial(2 * k - 1)}")
                if not all(checks.is_orthocomplementation(own[k], pi) for pi in maps):
                    found.append("a map is no orthocomplementation")
            if found:
                problems[key] = found
        mo4 = st.mo[4][1].lattice
        maps4 = outputs["orthocomplementations(MO_4)"]
        for i in range(checks.double_factorial(2 * 4 - 1)):
            key = f"MO_4 map {i}"
            if isinstance(maps4, CommandError) or i >= len(maps4):
                problems[key] = ["no such map"]
                continue
            found = battery_problems(mo4, maps4[i], own[4], outputs[key], polygroups=False)
            if found:
                problems[key] = found
        for doc, p in st.pairs:
            found = battery_problems(p.lattice, p.pi.map, Lattice(doc["elements"], doc["covers"]),
                                     outputs[doc["name"]], polygroups=True)
            if found:
                problems[doc["name"]] = found
        for s, (src, dst) in enumerate(st.transfer):
            key = f"transfer {s}"
            reports = outputs[key]
            if isinstance(reports, CommandError):
                problems[key] = [str(reports)]
            elif len(reports) != dst.size ** src.size:
                problems[key] = [f"{len(reports)} maps, expected {dst.size ** src.size}"]
            elif not all(lh == mh for _, lh, mh, intertwines in reports if intertwines):
                problems[key] = ["an intertwining map is a morphism on one side only"]
        return problems


def battery_problems(lattice, pi, own: Lattice, output, polygroups: bool) -> list[str]:
    if isinstance(output, CommandError):
        return [str(output)]
    (leq, join, meet, rebuilt_pi), verdicts, checked = output
    out = []
    if (leq, join, meet, rebuilt_pi) != (lattice.leq, lattice.join_table, lattice.meet_table, tuple(pi)):
        out.append("round trip does not reproduce the ortholattice")
    want = checks.orthomodular(own, pi)
    if any(v.holds != want for v in verdicts):
        out.append(f"OM verdicts {[v.holds for v in verdicts]}, orthomodular is {want}")
    expect = own.size ** 2 if polygroups and want and own.size <= GENERATED_POLYGROUP_MAX_N else 0
    if len(checked) != expect or not all(r.holds for r in checked):
        out.append(f"{sum(r.holds for r in checked)} of {len(checked)} generated polygroups hold, "
                   f"expected {expect}")
    return out


# the README commands the cli workload runs, as argument lists; MO_4_FILE is
# MO_4 written as lattice JSON without its ortho block, made at set-up
CLI_COMMANDS = (
    ("table", "pentagon"),
    ("table", "boolean_4", "--multiplicative", "--format", "json"),
    ("table", "hexagon", "--diff", PRINTED_HEXAGON),
    ("check", "hexagon"),
    ("check", "MO_6"),
    ("check", "boolean_4"),
    ("check", "chain_16"),
    ("roundtrip", "MO_5"),
    ("orthocomplements", "MO_5"),
    ("validate", "hexagon"),
    ("catalog", "--enumerate", "7"),
    ("catalog", "--enumerate", "8"),
    ("check", MO_4_FILE),
)


class Cli:
    """README commands as `python -m mosaic_lab.cli` children, one at a time."""

    name = "cli"

    def setup(self, ml, corpus, seed, workdir):
        workdir.mkdir(parents=True, exist_ok=True)
        mo4 = {k: v for k, v in corpus["named"]["MO_4"].items() if k != "ortho"}
        path = workdir / MO_4_FILE
        path.write_text(json.dumps(dict(mo4, name="MO_4 without ortho")) + "\n", encoding="utf-8")
        root = corpus_mod.ROOT
        files = {MO_4_FILE: str(path), PRINTED_HEXAGON: str(root / PRINTED_HEXAGON)}
        argv = [tuple(files.get(a, a) for a in cmd) for cmd in CLI_COMMANDS]
        return SimpleNamespace(ml=ml, corpus=corpus, argv=argv, root=root)

    def commands(self, st, in_process=False):
        if in_process:
            from click.testing import CliRunner

            def invoke(memo, args):
                res = CliRunner().invoke(st.ml.cli.main, list(args))
                return res.exit_code, res.stdout
        else:
            def invoke(memo, args):
                res = subprocess.run([sys.executable, "-m", "mosaic_lab.cli", *args], cwd=st.root,
                                     env=child_env(st.root), capture_output=True, text=True)
                return res.returncode, res.stdout
        return [(" ".join(cmd), lambda memo, args=args: invoke(memo, args))
                for cmd, args in zip(CLI_COMMANDS, st.argv)]

    def check(self, st, outputs):
        problems = {}
        for cmd in CLI_COMMANDS:
            key = " ".join(cmd)
            output = outputs[key]
            found = [str(output)] if isinstance(output, CommandError) else cli_problems(st.corpus, cmd, *output)
            if found:
                problems[key] = found
        return problems


def child_env(root) -> dict:
    """The environment of a mosaic-lab child: the library from root/src."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
    return env


def _named(corpus, name) -> tuple[dict, Lattice]:
    doc = corpus["named"][name]
    return doc, Lattice(doc["elements"], doc["covers"])


def _label_cells(own: Lattice, additive: bool) -> dict:
    cells = oracle_cells(own, additive)
    return {(own.names[x], own.names[y]): {own.names[z] for z in range(own.size) if cells[x][y] >> z & 1}
            for x in range(own.size) for y in range(own.size)}


def _ascii_cells(text: str) -> dict:
    rows = [[part.strip() for part in line.split("|")] for line in text.splitlines()]
    header, body = rows[0], [r for r in rows[2:] if r]
    return {(r[0], header[j]): set(filter(None, r[j].strip("{}").split(",")))
            for r in body for j in range(1, len(header))}


def expected_failures(own: Lattice, pis) -> set[str]:
    """Names of the `check` lines that must FAIL, from the facts the paper
    proves: a Nakano mosaic is always an L-mosaic with the Nakano properties,
    it is a polygroup exactly when the lattice is modular, and the
    orthomodular criterion on the mosaic side agrees with the lattice side."""
    fails = set()
    if checks.first_modular_failure(own) is not None:
        fails |= {"polygroup", "modular"}
    if not pis:
        fails.add("ortholattice")
    elif not all(checks.orthomodular(own, pi) for pi in pis):
        fails |= {"orthomodular", "orthomodular-mosaic"}
    return fails


def cli_problems(corpus, cmd, code: int, stdout: str) -> list[str]:
    verb, target = cmd[0], cmd[1]
    out = []

    def expect_code(want):
        if code != want:
            out.append(f"exit code {code}, expected {want}")

    if verb == "table":
        _, own = _named(corpus, target)
        additive = "--multiplicative" not in cmd
        want = _label_cells(own, additive)
        if "--diff" in cmd:
            with open(corpus_mod.ROOT / PRINTED_HEXAGON, encoding="utf-8") as fh:
                printed = json.load(fh)
            labels = printed["elements"]
            diffs = sum(1 for i, a in enumerate(labels) for j, b in enumerate(labels)
                        if set(printed["table"][i][j]) != want[a, b])
            expect_code(1 if diffs else 0)
            if not stdout.endswith(f"\n{diffs} differing cell(s)\n"):
                out.append(f"diff summary is not {diffs} differing cell(s)")
        else:
            expect_code(0)
            try:
                if "json" in cmd:
                    doc = json.loads(stdout)
                    got = {(a, b): set(doc["table"][i][j]) for i, a in enumerate(doc["elements"])
                           for j, b in enumerate(doc["elements"])}
                else:
                    got = _ascii_cells(stdout)
            except (ValueError, KeyError, IndexError) as exc:
                got = {}
                out.append(f"unreadable table: {exc}")
            if got != want:
                out.append("table cells differ from the oracle")
    elif verb == "check":
        if target == MO_4_FILE:
            doc, own = _named(corpus, "MO_4")
            pis = checks.orthocomplementations(own)
        else:
            doc, own = _named(corpus, target)
            pis = [corpus_mod.ortho_map(doc["elements"], doc["ortho"])] if "ortho" in doc \
                else checks.orthocomplementations(own)
        fails = expected_failures(own, pis)
        expect_code(1 if fails else 0)
        verdicts = [(line[:4], line.split()[1].split("[")[0]) for line in stdout.splitlines()
                     if line.startswith(("PASS ", "FAIL "))]
        got = {name for verdict, name in verdicts if verdict == "FAIL"}
        if got != fails:
            out.append(f"failing checks {sorted(got)}, expected {sorted(fails)}")
        om_lines = sum(1 for _, name in verdicts if name == "orthomodular")
        if om_lines != len(pis):
            out.append(f"{om_lines} orthomodular lines for {len(pis)} orthocomplementations")
    elif verb == "roundtrip":
        expect_code(0)
        if stdout != "PASS roundtrip\n":
            out.append("round trip did not pass")
    elif verb == "orthocomplements":
        k = int(target.split("_")[1])
        want = checks.double_factorial(2 * k - 1)
        expect_code(0)
        lines = stdout.splitlines()
        if not lines or lines[0] != f"{target}: {want} orthocomplementation(s)" or len(lines) != want + 1:
            out.append(f"does not list (2k-1)!! = {want} orthocomplementations")
    elif verb == "validate":
        doc, own = _named(corpus, target)
        expect_code(0)
        want = (f"ok: {target}: {own.size} elements, bottom={own.names[own.bottom]}, "
                f"top={own.names[own.top]}, ortho={'yes' if 'ortho' in doc else 'no'}\n")
        if stdout != want:
            out.append(f"validate printed {stdout!r}")
    elif verb == "catalog":
        n = int(cmd[2])
        expect_code(0)
        try:
            rows = parse_census_ascii(n, stdout)
        except (ValueError, IndexError) as exc:
            out.append(f"unreadable census: {exc}")
        else:
            out += census_problems(n, rows, corpus_mod.expected_class_counts()[n])
    return out


def parse_census_ascii(n: int, text: str) -> list[dict]:
    """`catalog --enumerate n` lines back into census rows."""
    lines = text.splitlines()
    count = int(lines[0].split(": ")[1].split()[0])
    rows = []
    for line in lines[2:]:
        ident, modular, ortho_count, om, *covers = line.split()
        rows.append({
            "id": ident,
            "size": n,
            "modular": modular == "True",
            "ortholattice": int(ortho_count) > 0,
            "ortho_count": int(ortho_count),
            "orthomodular": [] if om == "-" else [v == "True" for v in om.split(",")],
            "covers": [c.split("<") for c in covers],
        })
    if count != len(rows):
        raise ValueError(f"header says {count} classes, {len(rows)} rows follow")
    return rows


WORKLOADS = {w.name: w for w in (Census(), Verify(), Ortho(), Cli())}
