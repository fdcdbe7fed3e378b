"""CLI subcommands: reports, formats, files, exit codes, schema stability."""

import json
import tracemalloc
from importlib import resources
from pathlib import Path

import jsonschema
import pytest

from cartcodes import cli, dimension_formula, oracle
from cartcodes import code as code_module
from helpers import inject_damaged_matrices


def run_cli(capsys, *argv):
    rc = cli.main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def _schema(name):
    with resources.files("cartcodes").joinpath("schemas/reports.schema.json").open() as fh:
        doc = json.load(fh)
    return {"$ref": f"#/$defs/{name}", "$defs": doc["$defs"]}


def _validate(payload, schema_name):
    jsonschema.validate(payload, _schema(schema_name))


def test_params_f9_example(capsys):
    rc, out, _ = run_cli(
        capsys, "params", "--q", "9", "--ext", "auto",
        "--sets", "full,full,full,full", "--d", "3",
    )
    assert rc == 0
    report = json.loads(out)
    _validate(report, "params_report")
    assert report["dimension"] == 35
    assert report["min_distance"] == 4374
    assert report["length"] == 6561
    assert report["regularity"] == 32


def test_params_f2_example(capsys):
    rc, out, _ = run_cli(capsys, "params", "--q", "2", "--sets", "full,full", "--d", "1")
    assert rc == 0
    report = json.loads(out)
    assert (report["length"], report["dimension"], report["min_distance"]) == (4, 3, 2)


def test_params_repetition_convention(capsys):
    rc, out, _ = run_cli(
        capsys, "params", "--q", "5", "--sets", "{1,2},subgroup:4", "--d", "0"
    )
    assert rc == 0
    report = json.loads(out)
    assert report["dimension"] == 1 and report["min_distance"] == 8
    assert report["cards"] == [2, 4]


def test_params_ext_validation(capsys):
    rc, out, _ = run_cli(capsys, "params", "--q", "9", "--ext", "2",
                         "--sets", "full", "--d", "1")
    assert rc == 0
    rc, _, err = run_cli(capsys, "params", "--q", "9", "--ext", "1",
                         "--sets", "full", "--d", "1")
    assert rc == 2 and "error" in err


def test_params_invalid_inputs_exit_2(capsys):
    rc, _, err = run_cli(capsys, "params", "--q", "6", "--sets", "full", "--d", "1")
    assert rc == 2
    rc, _, err = run_cli(capsys, "params", "--q", "5", "--sets", "{0,0}", "--d", "1")
    assert rc == 2
    rc, _, err = run_cli(capsys, "params", "--q", "5", "--sets", "{9}", "--d", "1")
    assert rc == 2


TORUS_MD = """| d | 1 | 2 | 3 | 4 | 5 | 6 | 7 | 8 | 9 | 10 | 11 | 12 | 13 |
| --- | --- | --- | --- | --- | --- | --- | --- | --- | --- | --- | --- | --- | --- |
| length | 90 | 90 | 90 | 90 | 90 | 90 | 90 | 90 | 90 | 90 | 90 | 90 | 90 |
| dimension | 4 | 9 | 16 | 25 | 35 | 45 | 55 | 65 | 74 | 81 | 86 | 89 | 90 |
| min_distance | 45 | 36 | 27 | 18 | 9 | 8 | 7 | 6 | 5 | 4 | 3 | 2 | 1 |
"""


def test_table_torus_markdown_golden(capsys):
    rc, out, _ = run_cli(capsys, "table", "--torus", "2,5,9", "--dmax", "13",
                         "--format", "md")
    assert rc == 0
    assert out == TORUS_MD


def test_table_repeat_expression(capsys):
    rc, out, _ = run_cli(capsys, "table", "--q", "9", "--sets", "full×4",
                         "--dmax", "5", "--format", "json")
    assert rc == 0
    report = json.loads(out)
    _validate(report, "table_report")
    assert report["cards"] == [9, 9, 9, 9]
    assert [r["dimension"] for r in report["rows"]] == [5, 15, 35, 70, 126]
    assert [r["min_distance"] for r in report["rows"]] == [5832, 5103, 4374, 3645, 2916]
    # the ASCII spellings behave identically
    rc2, out2, _ = run_cli(capsys, "table", "--q", "9", "--sets", "fullx4",
                           "--dmax", "5", "--format", "json")
    rc3, out3, _ = run_cli(capsys, "table", "--q", "9", "--sets", "full*4",
                           "--dmax", "5", "--format", "json")
    assert out2 == out == out3


def test_table_csv_golden(capsys):
    rc, out, _ = run_cli(capsys, "table", "--q", "2", "--sets", "full",
                         "--dmax", "1", "--format", "csv")
    assert rc == 0
    assert out == "d,length,dimension,min_distance\n1,2,2,1\n"


# The params, table and construct reports, byte for byte as recorded in
# data/reports.txt, one command after another; the CI's console-script step
# diffs the installed command's output against the same file.
GOLDEN_REPORT_COMMANDS = [
    ("params", "--q", "9", "--sets", "fullx4", "--d", "3"),
    ("params", "--q", "5", "--sets", "{1,2},subgroup:4", "--d", "0"),
    ("table", "--q", "9", "--sets", "fullx4", "--dmax", "5", "--format", "json"),
    ("table", "--torus", "2,5,9", "--dmax", "13", "--format", "csv"),
    ("construct", "--degrees", "2,5,9"),
]


def test_reports_match_golden_bytes(capsys):
    outs = []
    for argv in GOLDEN_REPORT_COMMANDS:
        rc, out, _ = run_cli(capsys, *argv)
        assert rc == 0
        outs.append(out)
    golden = Path(__file__).parent / "data" / "reports.txt"
    assert "".join(outs).encode() == golden.read_bytes()


def test_table_byte_determinism(capsys):
    args = ("table", "--torus", "2,5,9", "--dmax", "13", "--format", "csv")
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second


def test_table_usage_errors(capsys):
    assert run_cli(capsys, "table", "--q", "3", "--sets", "full", "--dmax", "0")[0] == 2
    assert run_cli(capsys, "table", "--dmax", "3")[0] == 2
    assert run_cli(capsys, "table", "--sets", "full", "--dmax", "3")[0] == 2


def test_matrix_files_golden(tmp_path, capsys):
    out_path = tmp_path / "mat.txt"
    rc, out, _ = run_cli(capsys, "matrix", "--q", "2", "--sets", "full,full",
                         "--d", "1", "--out", str(out_path))
    assert rc == 0
    _validate(json.loads(out), "matrix_report")
    assert out_path.read_text() == "2 3 4\n1 1 1 1\n0 1 0 1\n0 0 1 1\n"
    assert (tmp_path / "mat.txt.legend").read_text() == "0 0\n0 1\n1 0\n"


def test_matrix_square_when_saturated(tmp_path, capsys):
    out_path = tmp_path / "sq.txt"
    rc, out, _ = run_cli(capsys, "matrix", "--q", "3", "--sets", "full,full",
                         "--d", "4", "--out", str(out_path))
    assert rc == 0
    head = out_path.read_text().splitlines()[0]
    assert head == "3 9 9"


def test_matrix_command_memory_is_bounded(tmp_path, capsys):
    # F9^4 d = 8: 495 x 6561 codes, 3.1 MiB as bytes and 24.8 MiB as int64; the file
    # is 6.5 MB.  The command gathers a block of about 2^16 codes at a time straight
    # into text and writes it (about 0.7 MiB at peak), so holding the whole matrix
    # even as bytes, or a block's int64 log sums next to its codes and text
    # (1.3 MiB), exceeds the bound
    argv = ["matrix", "--q", "9", "--sets", "fullx4", "--d", "8", "--out", str(tmp_path / "m.mat")]
    tracemalloc.start()
    try:
        rc = cli.main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["rows"] == 495
    assert (tmp_path / "m.mat").stat().st_size == 6495401
    assert peak < 2**20


def test_matrix_bad_path_exit_2(tmp_path, capsys):
    rc, _, err = run_cli(capsys, "matrix", "--q", "2", "--sets", "full,full",
                         "--d", "1", "--out", str(tmp_path / "missing" / "mat.txt"))
    assert rc == 2 and "error" in err


def test_verify_all_pass(capsys):
    rc, out, _ = run_cli(capsys, "verify", "--q", "3", "--sets", "full,full", "--dall")
    assert rc == 0
    report = json.loads(out)
    _validate(report, "verify_report")
    assert report["ok"] is True
    assert all(c["status"] == "pass" for c in report["checks"])


def test_verify_budget_skips(capsys):
    rc, out, _ = run_cli(capsys, "verify", "--q", "9", "--sets", "full×4",
                         "--d", "3", "--max-words", "1000")
    assert rc == 0
    report = json.loads(out)
    _validate(report, "verify_report")
    by_name = {c["name"]: c for c in report["checks"]}
    assert by_name["rank_dimension"]["status"] == "pass"
    assert by_name["min_distance"]["status"] == "skipped"


def test_verify_budget_message_past_int_str_limit(capsys):
    # F2^16 at d = 7: K = 26333, so the scan needs 2^26333 words, a number of
    # 7928 digits, past the 4300 that Python converts to a string by default
    rc, out, _ = run_cli(capsys, "verify", "--q", "2", "--sets", "fullx16", "--d", "7")
    assert rc == 0
    report = json.loads(out)
    _validate(report, "verify_report")
    by_name = {c["name"]: c for c in report["checks"]}
    for name in ("rank_dimension", "min_distance", "max_zeros"):
        assert by_name[name]["status"] == "skipped", name
    assert by_name["extremal_weight"]["status"] == "pass"
    assert report["ok"]
    try:
        words = str(2**26333)
    except ValueError:  # the default digit limit
        words = "about 10^7927.0"
    assert by_name["min_distance"]["detail"] == f"enumeration needs {words} items, budget allows {1 << 24}"


def test_verify_corrupted_fixture_exit_1(capsys, monkeypatch):
    inject_damaged_matrices(monkeypatch)
    rc, out, _ = run_cli(capsys, "verify", "--q", "2", "--sets", "full,full", "--d", "1")
    assert rc == 1
    report = json.loads(out)
    _validate(report, "verify_report")
    assert report["ok"] is False
    by_name = {c["name"]: c for c in report["checks"]}
    assert by_name["rank_dimension"]["status"] == "fail"
    assert by_name["rank_dimension"]["detail"] == "oracle 2 != formula 3"


def test_verify_dall_negative_control(capsys, monkeypatch):
    inject_damaged_matrices(monkeypatch)
    rc, out, _ = run_cli(capsys, "verify", "--q", "2", "--sets", "full,full", "--dall")
    assert rc == 1
    report = json.loads(out)
    _validate(report, "verify_report")
    rank = {c["d"]: c for c in report["checks"] if c["name"] == "rank_dimension"}
    assert rank[0]["status"] == "pass"  # the damage sits in row 1, outside the d = 0 prefix
    assert rank[1]["status"] == "fail"
    assert rank[1]["detail"] == "oracle 2 != formula 3"


# On {0,1,2} x {0,1,2,3} (regularity 5) the full row 2 of the first set's chain is read
# by d = 2 (k = 0, ell = 2) and by d = 3, 4 (k = 1); row 1 of the second set's by d = 3 alone.
@pytest.mark.parametrize("coord,row,degrees", [(0, 2, [2, 3, 4]), (1, 1, [3])])
def test_verify_fails_on_damaged_extremal_chain(capsys, monkeypatch, coord, row, degrees):
    # drop the last root s_(row - 1) of one partial factor: its values no longer vanish
    # there, so the word of every degree that reads the row is heavier than the distance
    sets = [(0, 1, 2), (0, 1, 2, 3)]
    real = code_module._root_chain

    def damaged(F, s, rows):
        chain = real(F, s, rows)
        if tuple(s) == sets[coord] and row in chain:
            coeffs, values = chain[row]
            values = values.copy()
            values[row - 1] = 1
            chain[row] = coeffs, values
        return chain

    monkeypatch.setattr(code_module, "_root_chain", damaged)

    def failed(*argv):
        rc, out, _ = run_cli(capsys, "verify", "--q", "7", "--sets", "{0,1,2},{0,1,2,3}", *argv)
        report = json.loads(out)
        _validate(report, "verify_report")
        assert rc == 1 and report["ok"] is False
        for c in report["checks"]:
            del c["elapsed"]
        return [c for c in report["checks"] if c["status"] == "fail"]

    dall = failed("--dall")
    assert [(c["name"], c["d"]) for c in dall] == [("extremal_weight", d) for d in degrees]
    assert all(c["oracle"] > c["formula"] for c in dall)
    assert failed("--d", str(degrees[-1])) == dall[-1:]


def test_verify_fails_on_damaged_zero_bound(capsys, monkeypatch):
    # max_zeros reads the sharp zero bound for 1 <= d <= regularity - 1, so damage there must fail
    real = oracle.zero_bound
    monkeypatch.setattr(oracle, "zero_bound", lambda cards, d: real(cards, d) + 1)
    rc, out, _ = run_cli(capsys, "verify", "--q", "4", "--sets", "fullx3", "--dall")
    assert rc == 1
    report = json.loads(out)
    _validate(report, "verify_report")
    failed = [(c["name"], c["d"]) for c in report["checks"] if c["status"] == "fail"]
    assert failed and all(name == "max_zeros" and 1 <= d <= 8 for name, d in failed)
    zeros = {c["d"]: c for c in report["checks"] if c["name"] == "max_zeros"}
    # the boundary degrees keep length - delta (d = 9, the full space, is over the scan budget)
    assert zeros[0]["status"] == "pass" and zeros[0]["formula"] == 64 - 64
    assert zeros[9]["formula"] == 64 - 1


@pytest.mark.parametrize("q,sets", [("3", "full,full"), ("4", "{0,1},full")])
def test_verify_dall_matches_each_degree(capsys, monkeypatch, q, sets):
    # a small rank cap sends the higher degrees down the rank-skip branch
    monkeypatch.setattr(oracle, "MAX_RANK_ENTRIES", 60)

    def checks(*argv):
        rc, out, _ = run_cli(capsys, "verify", "--q", q, "--sets", sets, *argv)
        report = json.loads(out)
        _validate(report, "verify_report")
        for c in report["checks"]:
            del c["elapsed"]
        return rc, report

    rc, dall = checks("--dall")
    assert rc == 0 and dall["ok"] is True
    degrees = sorted({c["d"] for c in dall["checks"]})
    assert degrees == list(range(sum(c - 1 for c in dall["cards"]) + 1))
    per_degree = []
    for d in degrees:
        rc, one = checks("--d", str(d))
        assert rc == 0 and one["q"] == dall["q"] and one["cards"] == dall["cards"]
        per_degree += one["checks"]
    assert dall["checks"] == per_degree
    rank = [c for c in dall["checks"] if c["name"] == "rank_dimension"]
    assert {c["status"] for c in rank} == {"pass", "skipped"}


# tests/data/verify_dall.jsonl holds one line per grid, in this order: the
# `verify` report with each check's elapsed removed, as json.dumps writes it.
# CI diffs the installed console script against the same file.  Lines 6 and 7
# pin the scan admission: at d = 1 the F5 grid's scan needs 5^4 = 625 words,
# exactly its budget, and the F9 grid's one degree is skipped with a 34-digit
# word count.  The last two pin extremal words: over an odd extension field with
# 0 in a set, and over a prime field with partial factors of every length.
GOLDEN_VERIFY_GRIDS = [
    ("4", "fullx3", "--dall"),
    ("5", "{1,2,4},full,{0,1}", "--dall"),
    ("8", "unitsx3", "--dall"),
    ("9", "subgroup:4,full,full", "--dall"),
    ("4", "{0,1,2},full", "--dall"),
    ("5", "{1,2,4},full,{0,1}", "--dall", "--max-words", "625"),
    ("9", "fullx4", "--d", "3", "--max-words", "1000"),
    ("9", "{0,1,2},full", "--dall"),
    ("7", "{0,1,2,3,4,5}x2", "--dall"),
]


def test_verify_dall_reports_match_golden(capsys):
    lines = []
    for q, sets, *args in GOLDEN_VERIFY_GRIDS:
        rc, out, _ = run_cli(capsys, "verify", "--q", q, "--sets", sets, *args)
        assert rc == 0
        report = json.loads(out)
        for c in report["checks"]:
            del c["elapsed"]
        lines.append(json.dumps(report) + "\n")
    golden = Path(__file__).parent / "data" / "verify_dall.jsonl"
    assert "".join(lines) == golden.read_text()


def test_verify_above_former_table_limit(capsys):
    # q = 4099 and q = 3^7 exceed the former dense-table limit of 2048
    for q, sets in (("4099", "{1,2},{1,2,3}"), ("2187", "{1,2},{0,5}")):
        rc, out, _ = run_cli(capsys, "verify", "--q", q, "--sets", sets, "--dall")
        assert rc == 0
        report = json.loads(out)
        _validate(report, "verify_report")
        assert report["ok"] is True
        for c in report["checks"]:
            words = int(q) ** dimension_formula(report["cards"], c["d"])
            over_budget = c["name"] in ("min_distance", "max_zeros") and words > 1 << 24
            assert c["status"] == ("skipped" if over_budget else "pass"), c
        assert any(c["status"] == "skipped" for c in report["checks"])


def test_verify_usage_errors(capsys):
    assert run_cli(capsys, "verify", "--q", "3", "--sets", "full")[0] == 2
    assert run_cli(capsys, "verify", "--q", "3", "--sets", "full", "--d", "1",
                   "--dall")[0] == 2


def test_construct_example(capsys):
    rc, out, _ = run_cli(capsys, "construct", "--degrees", "2,5,9")
    assert rc == 0
    report = json.loads(out)
    _validate(report, "construct_report")
    assert report["q"] == 181
    assert report["v"] == [90, 36, 20]
    assert report["regularity"] == 13
    assert [r["dimension"] for r in report["rows"]] == [4, 9, 16, 25, 35, 45, 55, 65, 74, 81, 86, 89, 90]
    assert [r["min_distance"] for r in report["rows"]] == [45, 36, 27, 18, 9, 8, 7, 6, 5, 4, 3, 2, 1]
    assert len(report["subgroups"]) == 3
    assert report["subgroups"][0] == [1, 180]


def test_construct_smallest_prime(capsys):
    rc, out, _ = run_cli(capsys, "construct", "--degrees", "2")
    assert rc == 0
    assert json.loads(out)["q"] == 3


def test_construct_rejects_degree_one(capsys):
    rc, _, err = run_cli(capsys, "construct", "--degrees", "1,3")
    assert rc == 2 and "error" in err


def test_construct_determinism(capsys):
    _, first, _ = run_cli(capsys, "construct", "--degrees", "2,5,9")
    _, second, _ = run_cli(capsys, "construct", "--degrees", "2,5,9")
    assert first == second


def test_field_cap_env_var(capsys, monkeypatch):
    monkeypatch.setenv("CARTESIAN_MAX_FIELD", "100")
    rc, _, err = run_cli(capsys, "construct", "--degrees", "2,5,9")
    assert rc == 2 and "error" in err


def test_field_cap_env_var_malformed(capsys, monkeypatch):
    for raw in ("abc", "0", "-3"):
        monkeypatch.setenv("CARTESIAN_MAX_FIELD", raw)
        rc, out, err = run_cli(capsys, "params", "--q", "5", "--sets", "full", "--d", "1")
        assert rc == 2 and out == ""
        assert "CARTESIAN_MAX_FIELD" in err and repr(raw) in err


def test_parser_is_built_once_and_reused(capsys):
    for args in (
        ("params", "--q", "9", "--sets", "fullx2", "--d", "3"),
        ("table", "--torus", "2,5,9", "--dmax", "13"),
        ("construct", "--degrees", "2,5,9"),
    ):
        rc1, first, _ = run_cli(capsys, *args)
        rc2, second, _ = run_cli(capsys, *args)
        assert (rc1, rc2) == (0, 0)
        assert first and first == second
    assert cli.build_parser() is cli.build_parser()


def test_bad_argv_exits_2_after_a_good_call(capsys):
    assert run_cli(capsys, "params", "--q", "3", "--sets", "full", "--d", "1")[0] == 0
    for argv in (["params", "--q", "3"], ["nosuch"], [], ["verify", "--q", "x", "--sets", "full"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert "usage: cartcodes" in capsys.readouterr().err
    assert run_cli(capsys, "params", "--q", "3", "--sets", "full", "--d", "1")[0] == 0


def test_cached_parser_calls_the_command_bound_at_call_time(capsys, monkeypatch):
    assert run_cli(capsys, "params", "--q", "3", "--sets", "full", "--d", "1")[0] == 0
    calls = []
    original = cli.cmd_params

    def wrapped(args):
        calls.append(args.command)
        return original(args)

    monkeypatch.setattr(cli, "cmd_params", wrapped)
    assert run_cli(capsys, "params", "--q", "3", "--sets", "full", "--d", "1")[0] == 0
    assert calls == ["params"]
    monkeypatch.undo()
    assert run_cli(capsys, "params", "--q", "3", "--sets", "full", "--d", "1")[0] == 0
    assert calls == ["params"]
