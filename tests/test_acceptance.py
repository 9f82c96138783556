"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they go.
"""

import itertools
import json
import time
from pathlib import Path

import pytest
from click.testing import CliRunner

from mosaic_lab.bits import mask_of
from mosaic_lab.cli import main
from mosaic_lab.equivalence import (
    OrthoPair,
    enumerate_dualizable_pairs,
    functor_E,
    generated_polygroup_check,
    is_orthomodular_mosaic,
    morphism_transfer_check,
    reconstruct_lattice,
)
from mosaic_lab.hyperstructure import (
    is_associative,
    is_reproductive,
    verify_lmosaic,
    verify_mosaic,
)
from mosaic_lab.io import diff_table_docs, parse_table_json, table_doc_from_mosaic
from mosaic_lab.lattice_core import (
    check_om_equivalences,
    generated_sublattice,
    is_modular,
    is_orthomodular,
    sublattice,
)
from mosaic_lab.nakano import additive_nakano, multiplicative_nakano
from mosaic_lab.catalog import named

DATA = Path(__file__).parent.parent / "src" / "mosaic_lab" / "data"


def report(criterion: str, ok: bool, detail: str = ""):
    line = f"{'PASS' if ok else 'FAIL'} {criterion}"
    if detail:
        line += f": {detail}"
    print(line)
    assert ok, line


def test_criterion_1_table1_reproduction(pentagon):
    t0 = time.perf_counter()
    res = CliRunner().invoke(main, ["table", "pentagon", "--additive", "--format", "json"])
    elapsed = time.perf_counter() - t0
    assert res.exit_code == 0
    got = parse_table_json(res.output).cell_sets()
    want = parse_table_json((DATA / "table1_pentagon_additive_printed.json").read_text()).cell_sets()
    matches = sum(1 for k in want if got[k] == want[k])
    report(
        "criterion-1 (Table 1 via CLI)",
        matches == 25 == len(want) and elapsed < 1.0,
        f"{matches}/25 cells, {elapsed * 1000:.0f} ms",
    )


def test_criterion_2_nonassociativity_witness(pentagon):
    p = pentagon.lattice
    op = additive_nakano(p).mosaic.op
    rep = is_associative(op)
    a, b, c, one = (p.index(x) for x in "abc1")
    ok = not rep.holds and rep.witness == (a, b, c)
    x, y, z = rep.witness
    lhs = op.right_extend(x, op.cell(y, z))
    rhs = op.left_extend(op.cell(x, y), z)
    ok = ok and lhs == mask_of([c, one]) and rhs == mask_of([one])
    report(
        "criterion-2 (a+(b+c)={c,1} != {1}=(a+b)+c)",
        ok,
        f"witness {tuple(p.names[i] for i in rep.witness)}",
    )


def test_criterion_3_hexagon_not_orthomodular(hexagon):
    h, pi = hexagon.lattice, hexagon.ortho
    lat = is_orthomodular(h, pi)
    mos = is_orthomodular_mosaic(functor_E(OrthoPair(h, pi)))
    ok = not lat.holds and not mos.holds
    b, a = lat.witness
    ok = ok and h.join(b, h.meet(pi(b), a)) == b and lat.witness == mos.witness == (h.index("b"), h.index("a"))
    report("criterion-3 (hexagon fails OM on both sides)", ok, f"witness (b,a), b v (b' ^ a) = b")


def test_criterion_4_nakano_equivalence(lattices_upto_8):
    t0 = time.perf_counter()
    exceptions = []
    for l in lattices_upto_8:
        va = is_associative(additive_nakano(l).mosaic.op).holds
        vm = is_associative(multiplicative_nakano(l).mosaic.op).holds
        mod = is_modular(l).holds
        if not (va == vm == mod):
            exceptions.append(l)
    elapsed = time.perf_counter() - t0
    report(
        "criterion-4 (associativity iff modularity, n<=8)",
        not exceptions and elapsed < 60.0,
        f"{len(lattices_upto_8)} lattices, {len(exceptions)} exceptions, {elapsed:.2f}s",
    )


def test_criterion_5_lmosaic_axioms(lattices_upto_8):
    checked = 0
    ok = True
    for l in lattices_upto_8:
        for nm in (additive_nakano(l), multiplicative_nakano(l)):
            got = verify_mosaic(nm.mosaic.op)
            ok = ok and got.ok  # commutativity, totality, inverses, (RE)
            ok = ok and all(r.holds for r in verify_lmosaic(nm.mosaic))
            ok = ok and is_reproductive(nm.mosaic.op).holds
            m, rho = nm.mosaic, nm.mosaic.rho
            for x in range(m.size):
                for y in range(m.size):
                    for z in range(m.size):
                        a = bool(m.cell(x, y) >> z & 1)
                        ok = ok and a == bool(m.cell(z, rho(y)) >> x & 1) == bool(
                            m.cell(rho(x), z) >> y & 1
                        )
            checked += 1
    report("criterion-5 (L-mosaic axioms over the n<=8 corpus)", ok, f"{checked} mosaics")


def test_criterion_6_equivalence_roundtrip(ortholattices_upto_8):
    ok = True
    for p in ortholattices_upto_8:
        r = reconstruct_lattice(functor_E(p))
        ok = ok and r.lattice.leq == p.lattice.leq
        ok = ok and r.lattice.join_table == p.lattice.join_table
        ok = ok and r.lattice.meet_table == p.lattice.meet_table
        ok = ok and r.pi == p.pi
    dualizable = [functor_E(p) for p in ortholattices_upto_8] + enumerate_dualizable_pairs(4)
    for d in dualizable:
        e = functor_E(reconstruct_lattice(d))
        ok = ok and e.mosaic.op.table == d.mosaic.op.table and e.pi == d.pi
    report(
        "criterion-6 (equivalence round trips)",
        ok,
        f"{len(ortholattices_upto_8)} ortholattices, {len(dualizable)} dualizable pairs",
    )


def test_criterion_7_om_equivalences(ortholattices_upto_8):
    exceptions = 0
    for p in ortholattices_upto_8:
        vals = [r.holds for r in check_om_equivalences(p.lattice, p.pi)]
        vals.append(is_orthomodular_mosaic(functor_E(p)).holds)
        if len(set(vals)) != 1:
            exceptions += 1
    report(
        "criterion-7 (OM1-OM4 and criterion 5.2 agree, n<=8)",
        exceptions == 0,
        f"{len(ortholattices_upto_8)} ortholattices, {exceptions} exceptions",
    )


def test_criterion_8_morphism_transfer(ortholattices_upto_4):
    checked = 0
    ok = True
    for src in ortholattices_upto_4:
        for dst in ortholattices_upto_4:
            for f in itertools.product(range(dst.size), repeat=src.size):
                rep = morphism_transfer_check(f, src, dst)
                ok = ok and rep.agree and (not rep.intertwines or rep.lattice_hom == rep.mosaic_hom)
                checked += 1
    report("criterion-8 (morphism transfer, exhaustive n<=4)", ok, f"{checked} functions")


def test_criterion_9_printed_table_diffs(pentagon, hexagon):
    p, h = pentagon.lattice, hexagon.lattice
    pw = table_doc_from_mosaic("x", p.names, multiplicative_nakano(p).mosaic)
    hv = table_doc_from_mosaic("x", h.names, additive_nakano(h).mosaic)
    printed2 = parse_table_json((DATA / "table2_pentagon_multiplicative_printed.json").read_text())
    printed3 = parse_table_json((DATA / "table3_hexagon_additive_printed.json").read_text())
    frozen2 = json.loads((DATA / "diff_table2.json").read_text())["diff"]
    frozen3 = json.loads((DATA / "diff_table3.json").read_text())["diff"]
    ok = diff_table_docs(pw, printed2) == frozen2
    ok = ok and diff_table_docs(hv, printed3) == frozen3
    # recomputed tables pass every mosaic axiom
    for l in (p, h):
        for nm in (additive_nakano(l), multiplicative_nakano(l)):
            ok = ok and verify_mosaic(nm.mosaic.op).ok
            ok = ok and all(r.holds for r in verify_lmosaic(nm.mosaic))
    # the printed ones fail commutativity/neutrality where noted
    ok = ok and printed2.commutativity_failures() and printed2.neutrality_failures()
    got2 = verify_mosaic(printed2.to_multioperation())
    ok = ok and not {r.axiom: r for r in got2.reports}["commutative"].holds
    ok = ok and printed3.foreign_labels() == {"c"}
    ok = ok and ("b'", "a'") in printed3.commutativity_failures()
    report(
        "criterion-9 (printed-table diffs are exactly the frozen fixtures)",
        bool(ok),
        f"table2: {len(frozen2)} cells, table3: {len(frozen3)} cells",
    )


def test_criterion_10_generated_polygroups(ortholattices_upto_8):
    corpus = list(ortholattices_upto_8)
    for name in ("boolean_3", "MO_2", "MO_3", "chain_2", "chain_1"):
        e = named(name)
        corpus.append(OrthoPair(e.lattice, e.ortho))
    checked = 0
    ok = True
    for p in corpus:
        if not is_orthomodular(p.lattice, p.pi).holds:
            continue
        d = functor_E(p)
        for x in range(p.size):
            for y in range(p.size):
                closed = generated_sublattice(p.lattice, [x, y], p.pi)
                sl, _ = sublattice(p.lattice, closed)
                ok = ok and is_modular(sl).holds
                ok = ok and generated_polygroup_check(d, x, y).holds
                checked += 1
    report("criterion-10 (generated pi-closed polygroups)", ok, f"{checked} pairs")
