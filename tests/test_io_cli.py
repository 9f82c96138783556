import json
from pathlib import Path

import pytest
from click.testing import CliRunner

from mosaic_lab import lattice_core
from mosaic_lab.cli import _MAX_FILE_ELEMENTS, main
from mosaic_lab.errors import FormatError, NotAnOrthocomplementation, SizeTooLarge
from mosaic_lab.io import (
    diff_table_docs,
    lattice_from_doc,
    lattice_to_doc,
    parse_lattice_json,
    parse_table_json,
    render_table_ascii,
    table_doc_from_mosaic,
    table_doc_to_json,
)
from mosaic_lab.nakano import additive_nakano, multiplicative_nakano
from mosaic_lab.catalog import named

DATA = Path(__file__).parent.parent / "src" / "mosaic_lab" / "data"
GOLDEN = Path(__file__).parent / "fixtures" / "cli_golden"
# an ortho block for boolean_2 that pairs the bottom and the top with atoms
NON_ORTHO_PAIRING = [["0", "a"], ["b", "1"]]
# lattice documents whose covers or ortho block is no list of two-string
# lists, with the one error line each gives
MALFORMED_PAIRS = [
    ({"covers": 5}, "covers must be a list of label pairs"),
    ({"ortho": 7}, "ortho must be a list of label pairs"),
    ({"covers": [[["0"], "1"]]}, "bad cover [['0'], '1']"),
    ({"ortho": [[{"a": 1}, "1"]]}, "bad ortho pair [{'a': 1}, '1']"),
]
# each command with a library call that it makes, patched below to raise a
# typed error; {tmp} is the test's directory
TYPED_ERROR_CALLS = [
    (["validate", "{tmp}/chain_2.json"], "mosaic_lab.cli.lattice_from_doc"),
    (["table", "pentagon"], "mosaic_lab.cli.additive_nakano"),
    (["table", "hexagon", "--diff", str(DATA / "table3_hexagon_additive_printed.json")],
     "mosaic_lab.cli.diff_table_docs"),
    (["check", "pentagon"], "mosaic_lab.cli.is_modular"),
    (["roundtrip", "hexagon"], "mosaic_lab.cli.reconstruct_lattice"),
    (["orthocomplements", "MO_2"], "mosaic_lab.cli.orthocomplementations"),
    (["catalog", "pentagon", "-o", "{tmp}"], "mosaic_lab.cli.lattice_to_doc"),
    (["catalog", "--enumerate", "3"], "mosaic_lab.catalog.census"),
]
# a lattice document nested deeper than the JSON decoder's recursion limit on
# every supported Python: 3.11 counts it against the 1 000-frame Python limit,
# 3.12 and 3.13 against a C limit of 10 000; io refuses it before decoding
DEEP_JSON = '{"name": "deep", "elements": ["0", "1"], "covers": ' + "[" * 100_000 + "]" * 100_000 + "}"


def duplicate_name_table(pentagon) -> dict:
    """The pentagon's additive table with an extra element "a", listed
    before the real one, whose row and column are all {1}."""
    p = pentagon.lattice
    doc = json.loads(table_doc_to_json(table_doc_from_mosaic("pv", p.names, additive_nakano(p).mosaic)))
    at = doc["elements"].index("a")
    doc["elements"].insert(at, "a")
    doc["table"].insert(at, [["1"]] * len(doc["table"]))
    for row in doc["table"]:
        row.insert(at, ["1"])
    return doc


def chain_2_doc(**changes):
    return dict({"name": "chain_2", "elements": ["0", "1"], "covers": [["0", "1"]]}, **changes)


def atoms_and_chain_doc(atoms: int, chain: int = 0) -> dict:
    """0 < a1..a{atoms} < 1, the atoms listed first, plus a chain
    0 < c1 < ... < c{chain} < 1 beside them, as a lattice document."""
    names = [f"a{i}" for i in range(1, atoms + 1)]
    steps = ["0", *(f"c{i}" for i in range(1, chain + 1)), "1"]
    covers = [[x, y] for a in names for x, y in (("0", a), (a, "1"))] + [list(s) for s in zip(steps, steps[1:])]
    return {"name": f"atoms_{atoms}" + (f"_chain_{chain}" if chain else ""),
            "elements": ["0", *names, *steps[1:-1], "1"], "covers": covers}


def chain_doc(n: int) -> dict:
    """The chain c0 < c1 < ... < c(n-1) as a lattice document."""
    elements = [f"c{i}" for i in range(n)]
    return {"name": "chain", "elements": elements, "covers": [list(pair) for pair in zip(elements, elements[1:])]}


@pytest.fixture
def runner():
    return CliRunner()


class TestLatticeFormat:
    def test_roundtrip(self, hexagon):
        doc = lattice_to_doc(hexagon.lattice, hexagon.ortho, "hexagon")
        l, pi, name = lattice_from_doc(doc)
        assert l.leq == hexagon.lattice.leq
        assert pi == hexagon.ortho
        assert name == "hexagon"

    def test_parse_print_parse_fixpoint(self, pentagon):
        doc = lattice_to_doc(pentagon.lattice, None, "pentagon")
        text = json.dumps(doc)
        l, _, _ = parse_lattice_json(text)
        assert lattice_to_doc(l, None, "pentagon") == doc

    def test_unknown_cover_element_rejected(self):
        doc = {"name": "x", "elements": ["a"], "covers": [["a", "z"]]}
        with pytest.raises(FormatError):
            lattice_from_doc(doc)

    def test_unknown_ortho_element_rejected(self):
        doc = {"name": "x", "elements": ["a", "b"], "covers": [["a", "b"]], "ortho": [["a", "z"]]}
        with pytest.raises(FormatError):
            lattice_from_doc(doc)

    def test_duplicate_elements_rejected(self):
        with pytest.raises(FormatError):
            lattice_from_doc({"name": "x", "elements": ["a", "a"], "covers": []})

    def test_malformed_json_reports_line(self):
        with pytest.raises(FormatError) as exc:
            parse_lattice_json('{"name": "x",\n  "elements": [}')
        assert "line 2" in str(exc.value)

    def test_ortho_block_that_is_no_orthocomplementation_rejected(self):
        doc = lattice_to_doc(named("boolean_2").lattice, named("boolean_2").ortho, "boolean_2")
        doc["ortho"] = NON_ORTHO_PAIRING
        with pytest.raises(NotAnOrthocomplementation):
            lattice_from_doc(doc)

    @pytest.mark.parametrize("changes, message", MALFORMED_PAIRS)
    def test_pairs_that_are_no_label_pairs_rejected(self, changes, message):
        with pytest.raises(FormatError) as exc:
            lattice_from_doc(chain_2_doc(**changes))
        assert str(exc.value) == message

    def test_ortho_pair_order_irrelevant(self, hexagon):
        doc = lattice_to_doc(hexagon.lattice, hexagon.ortho, "h")
        doc["ortho"] = [list(reversed(p)) for p in reversed(doc["ortho"])]
        _, pi, _ = lattice_from_doc(doc)
        assert pi == hexagon.ortho


class TestTableFormat:
    def test_roundtrip(self, pentagon):
        p = pentagon.lattice
        doc = table_doc_from_mosaic("pv", p.names, additive_nakano(p).mosaic)
        again = parse_table_json(table_doc_to_json(doc))
        assert again.cell_sets() == doc.cell_sets()
        assert again.neutral == doc.neutral

    def test_printed_table2_loads_with_duplicate_token(self):
        doc = parse_table_json((DATA / "table2_pentagon_multiplicative_printed.json").read_text())
        assert doc.foreign_labels() == set()
        assert doc.cell_sets()[("0", "0")] == frozenset("0abc")

    def test_printed_table3_foreign_label(self):
        doc = parse_table_json((DATA / "table3_hexagon_additive_printed.json").read_text())
        assert doc.foreign_labels() == {"c"}
        with pytest.raises(FormatError):
            doc.to_multioperation()

    def test_repeated_element_names_are_refused(self, pentagon):
        """Cells are keyed by label, so a repeated name would let one row
        and column silently overwrite the other."""
        with pytest.raises(FormatError, match="^duplicate element names$"):
            parse_table_json(json.dumps(duplicate_name_table(pentagon)))

    def test_render_ascii_matches_paper_layout(self, pentagon):
        p = pentagon.lattice
        doc = table_doc_from_mosaic("pv", p.names, additive_nakano(p).mosaic)
        text = render_table_ascii(doc, "+")
        lines = text.splitlines()
        assert lines[0].startswith("+ | 0")
        assert lines[2].startswith("0 |") and "{0,a,b}" in lines[3]
        assert lines[-1].startswith("1 |")
        assert "{0,a,b,c,1}" in lines[-1]


class TestCliTable:
    def test_pentagon_ascii(self, runner):
        res = runner.invoke(main, ["table", "pentagon", "--additive"])
        assert res.exit_code == 0
        assert "{0,a,b}" in res.output and "{a,b,1}" in res.output

    def test_pentagon_json_roundtrips(self, runner, pentagon):
        res = runner.invoke(main, ["table", "pentagon", "--format", "json"])
        assert res.exit_code == 0
        doc = parse_table_json(res.output)
        want = table_doc_from_mosaic("x", pentagon.lattice.names, additive_nakano(pentagon.lattice).mosaic)
        assert doc.cell_sets() == want.cell_sets()

    def test_multiplicative_flag(self, runner, pentagon):
        res = runner.invoke(main, ["table", "pentagon", "--multiplicative", "--format", "json"])
        doc = parse_table_json(res.output)
        want = table_doc_from_mosaic("x", pentagon.lattice.names, multiplicative_nakano(pentagon.lattice).mosaic)
        assert doc.cell_sets() == want.cell_sets()

    def test_diff_against_printed_table3(self, runner):
        res = runner.invoke(
            main, ["table", "hexagon", "--additive", "--diff", str(DATA / "table3_hexagon_additive_printed.json")]
        )
        assert res.exit_code == 1
        assert "6 differing cell(s)" in res.output

    def test_diff_self_is_empty(self, runner, tmp_path):
        out = tmp_path / "golden.json"
        res = runner.invoke(main, ["table", "pentagon", "--golden", str(out)])
        assert res.exit_code == 0
        res = runner.invoke(main, ["table", "pentagon", "--diff", str(out)])
        assert res.exit_code == 0
        assert "0 differing cell(s)" in res.output

    def test_diff_self_in_json_is_an_empty_list(self, runner, tmp_path):
        out = tmp_path / "golden.json"
        assert runner.invoke(main, ["table", "pentagon", "--golden", str(out), "--quiet"]).exit_code == 0
        res = runner.invoke(main, ["table", "pentagon", "--diff", str(out), "--format", "json"])
        assert res.exit_code == 0
        assert json.loads(res.stdout) == {"input": "pentagon", "diff": []}

    def test_diff_refuses_a_table_with_repeated_element_names(self, runner, tmp_path, pentagon):
        path = tmp_path / "dup.json"
        path.write_text(json.dumps(duplicate_name_table(pentagon)))
        res = runner.invoke(main, ["table", "pentagon", "--diff", str(path)])
        assert res.exit_code == 2
        assert res.stdout == ""
        assert res.stderr == "error: duplicate element names\n"

    @pytest.mark.parametrize("kind", ["directory", "missing", "undecodable"])
    def test_diff_against_an_unreadable_file_is_input_error(self, runner, tmp_path, kind):
        path = tmp_path / "golden.json"
        if kind == "directory":
            path.mkdir()
        elif kind == "undecodable":
            path.write_bytes(b"\xff\xfe")
        res = runner.invoke(main, ["table", "pentagon", "--diff", str(path)])
        assert res.exit_code == 2
        assert res.stdout == ""
        assert res.stderr.startswith(f"error: cannot read {path}: ")

    def test_one_element_grid(self, runner):
        res = runner.invoke(main, ["table", "chain_1", "--additive"])
        assert res.exit_code == 0
        assert "{0}" in res.output and res.output.count("{") == 1

    def test_file_input(self, runner, tmp_path, hexagon):
        path = tmp_path / "h.json"
        path.write_text(json.dumps(lattice_to_doc(hexagon.lattice, hexagon.ortho, "hex")))
        res = runner.invoke(main, ["table", str(path), "--format", "json"])
        assert res.exit_code == 0


class TestCliCheck:
    def test_boolean_3_all_pass(self, runner):
        res = runner.invoke(main, ["check", "boolean_3"])
        assert res.exit_code == 0
        assert "FAIL" not in res.output

    def test_pentagon_polygroup_witness(self, runner):
        res = runner.invoke(main, ["check", "pentagon", "--checks", "polygroup"])
        assert res.exit_code == 1
        assert "witness=(a,b,c)" in res.output
        assert "a+(b+c)={c,1} != (a+b)+c={1}" in res.output

    def test_hexagon_orthomodular_witness(self, runner):
        res = runner.invoke(main, ["check", "hexagon", "--checks", "orthomodular"])
        assert res.exit_code == 1
        assert "witness=(b,a)" in res.output

    def test_missing_ortho_is_input_error(self, runner):
        for args in (["check", "chain_3", "--checks", "orthomodular"], ["check", "pentagon", "--checks", "roundtrip"]):
            res = runner.invoke(main, args)
            assert res.exit_code == 2, args
            assert res.stdout == "", args
            assert res.stderr == "error: input has no ortho block and no discoverable orthocomplementation\n", args

    def test_unknown_check_is_input_error(self, runner):
        res = runner.invoke(main, ["check", "pentagon", "--checks", "sparkles"])
        assert res.exit_code == 2

    @pytest.mark.parametrize("checks", [",", "", " , "])
    def test_no_named_check_is_input_error(self, runner, checks):
        res = runner.invoke(main, ["check", "pentagon", "--checks", checks])
        assert res.exit_code == 2
        assert res.stdout == ""
        assert res.stderr == (
            "error: no checks named; choose from: mosaic, lmosaic, polygroup, modular, "
            "ortholattice, orthomodular, roundtrip, nakano-props\n"
        )

    def test_unknown_name_is_input_error(self, runner):
        res = runner.invoke(main, ["check", "nonexistent_thing"])
        assert res.exit_code == 2

    def test_name_past_the_catalog_is_input_error(self, runner):
        res = runner.invoke(main, ["check", "chain_17"])
        assert res.exit_code == 2
        assert res.stdout == ""
        assert res.stderr == "error: chain_17: the catalog holds chain_1 to chain_16\n"

    def test_json_format_parses(self, runner):
        res = runner.invoke(main, ["check", "hexagon", "--format", "json"])
        doc = json.loads(res.output)
        assert doc["ok"] is False
        names = [c["name"] for c in doc["checks"]]
        assert "modular" in names and any(n.startswith("orthomodular") for n in names)

    def test_quiet_mode(self, runner):
        res = runner.invoke(main, ["check", "pentagon", "--checks", "modular", "--quiet"])
        assert res.exit_code == 1
        assert res.output == ""

    def test_exit_codes_depend_only_on_results(self, runner):
        a = runner.invoke(main, ["check", "pentagon", "--checks", "modular"])
        b = runner.invoke(main, ["check", "pentagon", "--checks", "modular", "--format", "json"])
        assert a.exit_code == b.exit_code == 1


class TestCliOther:
    def test_validate(self, runner):
        res = runner.invoke(main, ["validate", "hexagon"])
        assert res.exit_code == 0 and "6 elements" in res.output

    def test_validate_bad_file(self, runner, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"name": "x", "elements": ["a", "a"], "covers": []}')
        res = runner.invoke(main, ["validate", str(path)])
        assert res.exit_code == 2

    @pytest.mark.parametrize("command", ["validate", "check", "table", "orthocomplements", "roundtrip"])
    def test_lattice_file_past_the_size_cap_is_input_error(self, runner, tmp_path, command):
        path = tmp_path / "chain.json"
        path.write_text(json.dumps(chain_doc(_MAX_FILE_ELEMENTS + 1)))
        res = runner.invoke(main, [command, str(path)])
        assert res.exit_code == 2
        assert res.stdout == ""
        assert res.stderr == "error: 65 elements; lattice files hold at most 64\n"

    def test_lattice_file_at_the_size_cap_is_accepted(self, runner, tmp_path):
        path = tmp_path / "chain.json"
        path.write_text(json.dumps(chain_doc(_MAX_FILE_ELEMENTS)))
        res = runner.invoke(main, ["validate", str(path)])
        assert res.exit_code == 0
        assert res.stdout == "ok: chain: 64 elements, bottom=c0, top=c63, ortho=no\n"

    @pytest.mark.parametrize("args", [["catalog", "pentagon", "-o", "{missing}"],
                                      ["table", "pentagon", "--golden", "{missing}/x.json"]])
    def test_unwritable_output_is_input_error(self, runner, tmp_path, args):
        missing = tmp_path / "missing"
        res = runner.invoke(main, [a.format(missing=missing) for a in args])
        assert res.exit_code == 2
        assert res.stdout == ""
        assert res.stderr.startswith(f"error: cannot write {missing}")
        assert "No such file or directory" in res.stderr
        assert not missing.exists()

    def test_directory_source_is_input_error(self, runner, tmp_path):
        res = runner.invoke(main, ["check", str(tmp_path)])
        assert res.exit_code == 2
        assert res.output.startswith("error: cannot read")

    def test_unreadable_source_is_input_error(self, runner, tmp_path, monkeypatch):
        path = tmp_path / "locked.json"
        path.write_text(json.dumps(lattice_to_doc(named("hexagon").lattice, None, "h")))

        def refuse(*args, **kwargs):
            raise PermissionError(13, "Permission denied", str(path))

        # file modes do not stop a superuser, so the refusal is simulated
        monkeypatch.setattr("mosaic_lab.cli.open", refuse, raising=False)
        res = runner.invoke(main, ["validate", str(path)])
        assert res.exit_code == 2
        assert "Permission denied" in res.output

    def test_undecodable_source_is_input_error(self, runner, tmp_path):
        path = tmp_path / "binary.json"
        path.write_bytes(b"\xff\xfe{")
        res = runner.invoke(main, ["validate", str(path)])
        assert res.exit_code == 2

    @pytest.mark.parametrize("args", [["validate", "{path}"], ["check", "{path}"],
                                      ["table", "pentagon", "--diff", "{path}"]])
    def test_json_nested_too_deep_is_input_error(self, runner, tmp_path, args):
        path = tmp_path / "deep.json"
        path.write_text(DEEP_JSON)
        res = runner.invoke(main, [a.format(path=path) for a in args])
        assert res.exit_code == 2
        assert res.stdout == ""
        assert res.stderr == "error: JSON nested too deep to decode\n"

    @pytest.mark.parametrize("args, call", TYPED_ERROR_CALLS)
    def test_a_typed_error_in_any_command_is_input_error(self, runner, tmp_path, monkeypatch, args, call):
        def refuse(*_args, **_kwargs):
            raise SizeTooLarge("boom")

        (tmp_path / "chain_2.json").write_text(json.dumps(chain_2_doc()))
        monkeypatch.setattr(call, refuse)
        res = runner.invoke(main, [a.format(tmp=tmp_path) for a in args])
        assert res.exit_code == 2
        assert res.stdout == ""
        assert res.stderr == "error: boom\n"

    @pytest.mark.parametrize(
        "args", [["validate"], ["check"], ["check", "--checks", "ortholattice"], ["roundtrip"]]
    )
    def test_ortho_block_that_is_no_orthocomplementation_is_input_error(self, runner, tmp_path, args):
        b2 = named("boolean_2")
        doc = dict(lattice_to_doc(b2.lattice, b2.ortho, "boolean_2"), ortho=NON_ORTHO_PAIRING)
        path = tmp_path / "boolean_2.json"
        path.write_text(json.dumps(doc))
        res = runner.invoke(main, [args[0], str(path), *args[1:]])
        assert res.exit_code == 2
        assert res.stdout == ""
        assert res.stderr == "error: ortho block does not orthocomplement the lattice\n"

    @pytest.mark.parametrize("command", ["validate", "check"])
    @pytest.mark.parametrize("changes, message", MALFORMED_PAIRS)
    def test_pairs_that_are_no_label_pairs_are_input_errors(self, runner, tmp_path, command, changes, message):
        path = tmp_path / "chain_2.json"
        path.write_text(json.dumps(chain_2_doc(**changes)))
        res = runner.invoke(main, [command, str(path)])
        assert res.exit_code == 2
        assert res.stdout == ""
        assert res.stderr == f"error: {message}\n"

    @pytest.mark.parametrize("command", ["validate", "check"])
    @pytest.mark.parametrize(
        "covers, start",
        [
            ("[" + "[" * 62 + "]" * 62 + "]", "error: bad cover [[[["),
            (json.dumps([["0", "x" * 10_000]]), "error: unknown element 'xxxx"),
        ],
        ids=["cover_nested_62_deep", "label_of_10000_characters"],
    )
    def test_a_long_echoed_value_is_cut_to_one_short_line(self, runner, tmp_path, command, covers, start):
        """The cover nested 62 deep sits at the file's 64-level nesting
        bound, so it reaches the echo."""
        path = tmp_path / "long.json"
        path.write_text('{"name": "long", "elements": ["0", "1"], "covers": ' + covers + "}")
        res = runner.invoke(main, [command, str(path)])
        assert res.exit_code == 2
        assert res.stdout == ""
        assert res.stderr.startswith(start) and "..." in res.stderr
        assert res.stderr.count("\n") == 1 and len(res.stderr) < 200

    @pytest.mark.parametrize("levels, refused", [(64, False), (65, True), (400, True)])
    def test_nesting_verdict_is_the_files_own(self, levels, refused):
        """A file is accepted or refused for its own nesting, at either side
        of the bound: the verdict is the same from a shallow stack and from
        one 600 frames deep.  On Python 3.10 and 3.11 the decoder alone
        would read 400 levels from the first but not from the second."""
        text = '{"name": "x", "elements": ["0", "1"], "covers": ' + "[" * (levels - 1) + "]" * (levels - 1) + "}"

        def verdict(depth):
            if depth:
                return verdict(depth - 1)
            try:
                parse_lattice_json(text)
            except FormatError as exc:
                return str(exc)

        shallow, deep = verdict(0), verdict(600)
        assert shallow == deep
        assert (shallow == "JSON nested too deep to decode") == refused

    def test_check_searches_orthocomplements_once(self, runner, tmp_path, call_counts, fresh_maps):
        """MO_3 without an ortho block has 15 orthocomplementations: one
        search finds them all, one additive Nakano table serves every pi's
        orthomodular and roundtrip checks, and every roundtrip reads one
        lattice rebuilt from it."""
        import mosaic_lab.cli as cli
        import mosaic_lab.hyperstructure as hyperstructure

        counts = call_counts(cli, "orthocomplementations", "additive_nakano")
        call_counts(hyperstructure, "from_leq")
        path = tmp_path / "mo3.json"
        path.write_text(json.dumps(lattice_to_doc(named("MO_3").lattice, None, "MO_3")))
        res = runner.invoke(main, ["check", str(path)])
        assert res.exit_code == 0
        assert "PASS roundtrip[pi14]" in res.output
        assert counts == {"orthocomplementations": 1, "additive_nakano": 1, "from_leq": 1}

    @pytest.mark.parametrize("command", ["check", "roundtrip"])
    def test_an_ortho_block_is_checked_once_before_its_reconstruction(
        self, runner, tmp_path, call_counts, hexagon, command
    ):
        """The ortho block's pi is checked once, by io; _run_checks takes it
        as checked, and its reconstruction builds its OrthoPair unchecked."""
        import mosaic_lab.io as io

        counts = call_counts(lattice_core, "is_orthocomplementation")
        call_counts(io, "is_orthocomplementation")
        path = tmp_path / "hexagon.json"
        path.write_text(json.dumps(lattice_to_doc(hexagon.lattice, hexagon.ortho, "hexagon")))
        res = runner.invoke(main, [command, str(path)])
        assert res.exit_code == (1 if command == "check" else 0)
        assert "PASS roundtrip" in res.output
        assert counts["is_orthocomplementation"] == 1

    @pytest.mark.parametrize("checks, tables", [("ortholattice", 0), ("modular", 0), (None, 1)])
    def test_check_builds_the_nakano_table_only_for_checks_that_read_it(
        self, runner, call_counts, checks, tables
    ):
        """The order-side checks read no Nakano table, so none is built for
        them; a default check builds the additive table once."""
        import mosaic_lab.cli as cli

        counts = call_counts(cli, "additive_nakano")
        args = ["check", "MO_5"] + (["--checks", checks] if checks else [])
        assert runner.invoke(main, args).exit_code == 0
        assert counts["additive_nakano"] == tables

    def test_check_refuses_inputs_with_too_many_orthocomplementations(self, runner, tmp_path):
        """MO_6 has 10 395 orthocomplementations; without an ortho block,
        check and roundtrip stop the search past the budget and exit 2."""
        path = tmp_path / "mo6.json"
        path.write_text(json.dumps(lattice_to_doc(named("MO_6").lattice, None, "MO_6")))
        for command in ("check", "roundtrip"):
            res = runner.invoke(main, [command, str(path)])
            assert res.exit_code == 2
            assert res.stderr == "error: more than 1000 orthocomplementations; give the input an ortho block\n"
        assert runner.invoke(main, ["check", str(path), "--checks", "modular"]).exit_code == 0

    def test_ortholattice_check_alone_stops_at_the_first_map(self, runner, tmp_path):
        """The ortholattice check needs one orthocomplementation, so on an
        MO_6 file without an ortho block it takes the first the search finds
        instead of refusing past the listing budget."""
        path = tmp_path / "mo6.json"
        path.write_text(json.dumps(lattice_to_doc(named("MO_6").lattice, None, "MO_6")))
        res = runner.invoke(main, ["check", str(path), "--checks", "ortholattice"])
        assert (res.exit_code, res.stdout) == (0, "PASS ortholattice\n")
        res = runner.invoke(main, ["check", str(path), "--checks", "modular,ortholattice"])
        assert (res.exit_code, res.stdout) == (0, "PASS modular\nPASS ortholattice\n")
        for checks in ("ortholattice,orthomodular", "ortholattice,roundtrip"):
            res = runner.invoke(main, ["check", str(path), "--checks", checks])
            assert res.exit_code == 2 and res.stderr.startswith("error: more than 1000 orthocomplementations")
        res = runner.invoke(main, ["check", "pentagon", "--checks", "ortholattice"])
        assert (res.exit_code, res.stdout) == (1, "FAIL ortholattice witness=() reason=no orthocomplementation\n")

    def test_orthocomplements_refuses_a_listing_past_its_budget(self, runner, tmp_path):
        """MO_7 has 135 135 orthocomplementations; orthocomplements stops
        the search past 20 000 maps and exits 2, while MO_6 (10 395) is
        still listed in full."""
        atoms = [x for c in "abcdefg" for x in (c, c + "'")]
        covers = [["0", x] for x in atoms] + [[x, "1"] for x in atoms]
        path = tmp_path / "mo7.json"
        path.write_text(json.dumps({"name": "MO_7", "elements": ["0", *atoms, "1"], "covers": covers}))
        for fmt in ("ascii", "json"):
            res = runner.invoke(main, ["orthocomplements", str(path), "--format", fmt])
            assert res.exit_code == 2
            assert res.stdout == ""
            assert res.stderr == "error: more than 20000 orthocomplementations\n"
        res = runner.invoke(main, ["orthocomplements", "MO_6", "--format", "json"])
        assert res.exit_code == 0 and json.loads(res.stdout)["count"] == 10395

    def test_odd_file_fails_the_ortholattice_check_at_once(self, runner, tmp_path):
        """0 < 17 atoms < 1 has 19 elements, so no orthocomplementation:
        an orthocomplementation has no fixed point, and the search answers
        without pairing the atoms off."""
        path = tmp_path / "atoms_17.json"
        path.write_text(json.dumps(atoms_and_chain_doc(17)))
        res = runner.invoke(main, ["check", str(path), "--checks", "ortholattice"])
        assert (res.exit_code, res.stdout) == (1, "FAIL ortholattice witness=() reason=no orthocomplementation\n")
        res = runner.invoke(main, ["orthocomplements", str(path)])
        assert (res.exit_code, res.stdout) == (0, "atoms_17: 0 orthocomplementation(s)\n")

    def test_search_past_its_placement_budget_is_input_error(self, runner, tmp_path, monkeypatch):
        """0 < a1..a16 < 1 beside 0 < c1 < c2 < 1 has 20 elements and no
        orthocomplementation, and the search pairs atoms for over a minute
        before it finds that out.  Every command that searches stops at the budget of
        pairs tried and exits 2: the first-map search of the ortholattice
        check with the library's budget, the others with a smaller one."""
        path = tmp_path / "atoms_16_chain_2.json"
        path.write_text(json.dumps(atoms_and_chain_doc(16, chain=2)))
        res = runner.invoke(main, ["check", str(path), "--checks", "ortholattice"])
        assert (res.exit_code, res.stdout) == (2, "")
        assert res.stderr == ("error: orthocomplement search past 1000000 placements;"
                              " give the input an ortho block\n")
        monkeypatch.setattr(lattice_core, "_MAX_PLACEMENTS", 20000)
        for args, advice in ((["check"], True), (["roundtrip"], True), (["orthocomplements"], False)):
            res = runner.invoke(main, [*args, str(path)])
            assert (res.exit_code, res.stdout) == (2, "")
            assert res.stderr == ("error: orthocomplement search past 20000 placements"
                                  + ("; give the input an ortho block" if advice else "") + "\n")

    @pytest.mark.parametrize(
        "stem, args, exit_code",
        [
            ("orthocomplements_MO_5.txt", ["orthocomplements", "MO_5"], 0),
            ("orthocomplements_MO_5.json", ["orthocomplements", "MO_5", "--format", "json"], 0),
            ("check_MO_4_no_ortho.txt", ["check", str(GOLDEN / "MO_4_no_ortho.json")], 0),
            ("roundtrip_MO_5.txt", ["roundtrip", "MO_5"], 0),
            ("check_hexagon.json", ["check", "hexagon", "--format", "json"], 1),
            ("catalog_enumerate_8.txt", ["catalog", "--enumerate", "8"], 0),
            ("catalog_enumerate_7.json", ["catalog", "--enumerate", "7", "--format", "json"], 0),
        ],
    )
    def test_output_is_byte_identical_to_the_frozen_one(self, runner, stem, args, exit_code):
        """Standard output and exit code as printed before the row kernels
        replaced the element-at-a-time checks, and, for the census, before
        the canonicity test and the isomorphism search were pruned."""
        res = runner.invoke(main, args)
        assert res.exit_code == exit_code
        assert res.stdout_bytes == (GOLDEN / stem).read_bytes()

    def test_orthocomplements_hexagon(self, runner):
        res = runner.invoke(main, ["orthocomplements", "hexagon", "--format", "json"])
        doc = json.loads(res.output)
        assert doc["count"] == 1
        assert [["0", "1"], ["a", "a'"], ["b", "b'"]] == doc["orthocomplementations"][0]

    def test_roundtrip_command(self, runner):
        res = runner.invoke(main, ["roundtrip", "hexagon"])
        assert res.exit_code == 0 and "PASS roundtrip" in res.output

    def test_roundtrip_without_an_orthocomplementation_is_input_error(self, runner):
        res = runner.invoke(main, ["roundtrip", "pentagon"])
        assert res.exit_code == 2
        assert res.stdout == ""
        assert res.stderr == "error: input has no ortho block and no discoverable orthocomplementation\n"

    def test_catalog_export_roundtrips(self, runner, tmp_path):
        res = runner.invoke(main, ["catalog", "hexagon", "-o", str(tmp_path)])
        assert res.exit_code == 0
        l, pi, name = parse_lattice_json((tmp_path / "hexagon.json").read_text())
        e = named("hexagon")
        assert l.leq == e.lattice.leq and pi == e.ortho

    def test_catalog_one_element_export(self, runner, tmp_path):
        res = runner.invoke(main, ["catalog", "chain_1", "-o", str(tmp_path)])
        assert res.exit_code == 0
        l, pi, _ = parse_lattice_json((tmp_path / "chain_1.json").read_text())
        assert l.size == 1 and pi is not None

    @pytest.mark.parametrize("name", ["chain_01", "boolean_02", "chain_\u0663"])
    def test_catalog_refuses_a_second_spelling(self, runner, tmp_path, name):
        """Another spelling of chain_1's size would write a second file for
        the same entry; it is refused as an unknown name."""
        res = runner.invoke(main, ["catalog", name, "-o", str(tmp_path)])
        assert res.exit_code == 2
        assert res.stderr == f"error: unknown catalog name {name!r}\n"
        assert list(tmp_path.iterdir()) == []

    def test_catalog_enumerate(self, runner):
        res = runner.invoke(main, ["catalog", "--enumerate", "5"])
        assert res.exit_code == 0
        assert "5 lattice class(es)" in res.output

    def test_catalog_enumerate_json(self, runner):
        res = runner.invoke(main, ["catalog", "--enumerate", "4", "--format", "json"])
        doc = json.loads(res.output)
        assert len(doc["classes"]) == 2

    def test_catalog_too_large(self, runner):
        res = runner.invoke(main, ["catalog", "--enumerate", "11"])
        assert res.exit_code == 2

    def test_catalog_needs_exactly_one_mode(self, runner):
        assert runner.invoke(main, ["catalog"]).exit_code == 2
        assert runner.invoke(main, ["catalog", "pentagon", "--enumerate", "3"]).exit_code == 2


def test_diff_requires_same_elements(pentagon, hexagon):
    a = table_doc_from_mosaic("a", pentagon.lattice.names, additive_nakano(pentagon.lattice).mosaic)
    b = table_doc_from_mosaic("b", hexagon.lattice.names, additive_nakano(hexagon.lattice).mosaic)
    with pytest.raises(FormatError):
        diff_table_docs(a, b)
