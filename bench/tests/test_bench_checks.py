"""The benchmark's checks catch faults: each planted fault must come out as a
failed operation, in every pass of the run.

    PYTHONPATH=src python3 -m pytest bench/tests -q
"""

import json

import pytest

import checks
import corpus
import run
import tracing
import workloads
from workloads import WORKLOADS


@pytest.fixture(scope="module")
def ml():
    return run.fresh_library()


@pytest.fixture(scope="module")
def docs():
    return corpus.load()


def two_passes(workload, state):
    m = run.Measurement(workload.commands(state), 0, 2)
    assert m.passes == 2 and workload.check(state, m.first) == {}
    return m


def assert_failed_operation(workload, state, m, key):
    problems = workload.check(state, m.first)
    assert list(problems) == [key]
    assert m.failed(problems) == m.passes


@pytest.fixture
def verify_run(ml, docs):
    w = WORKLOADS["verify"]
    st = w.setup(ml, docs, 7, None)
    st.items = [item for item in st.items if item[0]["name"] in ("pentagon", "n5_1", "diamond_M3")]
    return w, st, two_passes(w, st)


def test_changed_nakano_cell_is_a_failed_operation(ml, verify_run):
    w, st, m = verify_run
    (additive, multiplicative), modular = m.first["diamond_M3"]
    table = additive[0]
    op = ml.hyperstructure.Multioperation(len(table), table)
    x, y = 1, 2
    cell = set(op.cell_set(x, y))
    changed = op.with_cell(x, y, cell ^ {next(iter(cell))})
    m.first["diamond_M3"] = ((changed.table, *additive[1:]), multiplicative), modular
    assert_failed_operation(w, st, m, "diamond_M3")


def test_associativity_witness_that_is_not_least_is_a_failed_operation(ml, verify_run):
    w, st, m = verify_run
    (additive, multiplicative), modular = m.first["pentagon"]
    table, mosaic, lmosaic, assoc, props = additive
    assert not assoc.holds and assoc.witness == checks.first_associativity_failure(table)
    n = len(table)
    later = next((x, y, z) for x in range(n) for y in range(n) for z in range(n)
                 if (x, y, z) > assoc.witness and checks.associativity_fails(table, x, y, z))
    report = type(assoc)("associative", False, later, assoc.reason)
    m.first["pentagon"] = ((table, mosaic, lmosaic, report, props), multiplicative), modular
    assert_failed_operation(w, st, m, "pentagon")


@pytest.mark.parametrize("fault", ["dropped", "duplicated"])
def test_census_with_a_class_dropped_or_duplicated_is_a_failed_operation(ml, docs, monkeypatch, fault):
    monkeypatch.setattr(workloads, "CENSUS_SIZES", range(1, 7))
    w = WORKLOADS["census"]
    st = w.setup(ml, docs, 0, None)
    m = two_passes(w, st)
    rows = m.first["census(6)"]
    m.first["census(6)"] = rows[:-1] if fault == "dropped" else rows + [dict(rows[3], id="n6_extra")]
    assert_failed_operation(w, st, m, "census(6)")


def test_flipped_cli_exit_code_is_a_failed_operation(ml, docs, monkeypatch, tmp_path):
    monkeypatch.setattr(workloads, "CLI_COMMANDS", (("check", "hexagon"), ("check", "MO_6")))
    w = WORKLOADS["cli"]
    st = w.setup(ml, docs, 0, tmp_path)
    m = two_passes(w, st)
    code, stdout = m.first["check hexagon"]
    assert code == 1  # hexagon is neither modular nor orthomodular
    m.first["check hexagon"] = (0, stdout)
    assert_failed_operation(w, st, m, "check hexagon")


def test_a_command_that_raises_is_a_failed_operation(ml, verify_run):
    w, st, _ = verify_run
    commands = [(key, fn) for key, fn in w.commands(st)]
    key = commands[0][0]
    commands[0] = (key, lambda memo: 1 / 0)
    m = run.Measurement(commands, 0, 3)
    assert_failed_operation(w, st, m, key)


def test_layer_self_times_add_up_to_the_traced_time(ml):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        ml.catalog.census(5)
    finally:
        tracer.uninstall()
    assert ml.catalog.census.__name__ == "census"  # unwrapped again
    figures = tracing.layer_figures(tracer.spans)
    roots = [s for s in tracer.spans if s[1] == -1]
    assert len(roots) == 1
    total_self = sum(v for k, v in figures.items() if k.endswith(".self_s"))
    assert total_self == pytest.approx(roots[0][3] - roots[0][2], rel=1e-6)
    assert figures["catalog.enumerate_lattices_calls"] == 2
    assert figures["catalog.classes"] == 5
    assert figures["catalog.ortho_pairs"] == 0


def test_benchmark_json_names_every_reported_metric():
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == dict(run.per_layer_metrics())
    assert [m["name"] for m in spec["end_to_end"]] == [
        "setup_s", "pass_s", "cmd_p50_ms", "cmd_tail_ms", "peak_rss_mib"]
