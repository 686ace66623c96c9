"""Command-line surface: literals, table mode, golden files, record lines,
and the exit-code contract."""

import argparse
import json
import os
import pathlib
import shlex
import subprocess
import sys

import pytest

import qadic.cli
import qadic.correspondence
import qadic.suites
from qadic.cli import OutputRecord, main, run
from qadic.correspondence import exceptional_q
from qadic.errors import DomainError, InvariantError
from qadic.padic_core import QParameter, from_rational
from qadic.suites import SuiteResult

GOLDEN = pathlib.Path(__file__).parent / "golden"
README = pathlib.Path(__file__).parents[1] / "README.md"


def out_of(capsys) -> str:
    return capsys.readouterr().out.rstrip("\n")


# -- documented examples -----------------------------------------------------


def test_iota_rational_exponent(capsys):
    assert run(["iota", "--p", "3", "--q", "4", "--z", "-1/2", "--n", "6"]) == 0
    assert out_of(capsys) == "3^6:1,1,1,1,1,1"


def test_iota_identity_parameter(capsys):
    assert run(["iota", "--p", "3", "--q", "1", "--z", "5", "--n", "3"]) == 0
    assert out_of(capsys) == "5"


def test_fixed_count(capsys):
    assert run(["fixed", "count", "--p", "3", "--q", "4", "--n", "4"]) == 0
    assert out_of(capsys) == "21"


def test_fixed_count_at_level_twenty(capsys):
    # the rooted point of 4 sits at valuation 1, so the count stays 2·3^2 + 3
    assert run(["fixed", "count", "--p", "3", "--q", "4", "--n", "20"]) == 0
    assert out_of(capsys) == "21"


def test_fixed_enumerate(capsys):
    assert run(["fixed", "enumerate", "--p", "3", "--q", "7", "--n", "2"]) == 0
    assert out_of(capsys) == "0,1,3,4,6,7"


def test_fixed_classify(capsys):
    assert run(["fixed", "classify", "--p", "3", "--q", "4", "--n", "4", "--z", "13"]) == 0
    assert out_of(capsys) == "rooted"


@pytest.mark.parametrize("z", ["2", "-1", "1/2"])
def test_fixed_classify_at_level_one(z, capsys):
    assert run(["fixed", "classify", "--p", "3", "--q", "4", "--z", z, "--n", "1"]) == 0
    assert out_of(capsys) == "pair"


def test_exceptional_eight_digits(capsys):
    # digit index 3 is 2, not 0: the printed source form drops one term, and
    # the certified digit stream (each stage exhausts its 3-candidate search
    # with an evaluation witness) is the authority here
    assert run(["exceptional", "--branch", "seven", "--digits", "8"]) == 0
    assert out_of(capsys) == "3^8:1,2,1,2,0,0,1,2"


def test_phi_examples(capsys):
    assert run(["phi", "--q", "4", "--precision", "6"]) == 0
    assert out_of(capsys) == "3^5:1,1,1,1,1"
    assert run(["phi", "--q", "7", "--precision", "8"]) == 0
    assert out_of(capsys) == "3^7:0,2,2,0,2,2,2"


def test_psi_examples(capsys):
    assert run(["psi", "--z", "0", "--precision", "8"]) == 0
    assert out_of(capsys) == "3^8:1,2,1,2,0,0,1,2"
    assert run(["psi", "--z", "1", "--precision", "8"]) == 0
    assert out_of(capsys) == "3^8:1,1,2,0,2,1,0,1"
    assert run(["psi", "--z", "-1/2", "--precision", "8"]) == 0
    assert out_of(capsys) == "3^8:1,1,0,0,0,0,0,0"


def test_phi_reports_exceptional_parameter(capsys):
    q0 = str(exceptional_q("seven", 9))
    assert run(["phi", "--q", q0, "--precision", "9"]) == 0
    text = out_of(capsys)
    assert "seven" in text and "3^8" in text


def test_negative_literal_both_spellings(capsys):
    run(["iota", "--p", "3", "--q", "4", "--z", "-1/2", "--n", "4"])
    split_form = out_of(capsys)
    run(["iota", "--p", "3", "--q", "4", "--z=-1/2", "--n", "4"])
    assert out_of(capsys) == split_form


def test_digit_string_q_matches_integer_q(capsys):
    run(["iota", "--p", "3", "--q", "4", "--z", "7", "--n", "3"])
    want = out_of(capsys)
    run(["iota", "--p", "3", "--q", "3^5:1,1,0,0,0", "--z", "7", "--n", "3"])
    assert out_of(capsys) == want


def _readme_examples() -> list[tuple[list[str], list[str]]]:
    """(argv, stdout lines shown) for each `$ qadic` line of README's first
    command-line block, but `verify`, with trailing `# ...` comments cut."""
    block = README.read_text().split("## Command line", 1)[1].split("```\n", 2)[1]
    examples = []
    for line in block.splitlines():
        if line.startswith("$ "):
            examples.append((shlex.split(line[2:], comments=True)[1:], []))
        else:
            examples[-1][1].append(line.split("  #")[0].rstrip())
    return [(argv, shown) for argv, shown in examples if argv[0] != "verify"]


README_EXAMPLES = _readme_examples()


@pytest.mark.parametrize("argv, shown", README_EXAMPLES, ids=[" ".join(argv) for argv, _ in README_EXAMPLES])
def test_readme_examples_print_what_readme_shows(argv, shown, capsys):
    assert run(argv) == 0
    got = capsys.readouterr().out.splitlines()
    if "..." in shown:  # README elides the rest
        shown = shown[: shown.index("...")]
        got = got[: len(shown)]
    assert got == shown


# -- golden tables -----------------------------------------------------------


@pytest.mark.parametrize(
    "fname,n,limit",
    [("table_mod81.txt", 4, 82), ("table_mod243.txt", 5, 112), ("table_mod729.txt", 6, 82)],
)
def test_golden_tables_byte_identical(tmp_path, fname, n, limit):
    out = tmp_path / fname
    code = run(
        [
            "iota", "--p", "3", "--q", "4", "--n", str(n),
            "--table", str(limit), "--mark-fixed", "--out", str(out),
        ]
    )
    assert code == 0
    assert out.read_bytes() == (GOLDEN / fname).read_bytes()


def test_table_marks_the_fixed_residues(capsys):
    assert run(["iota", "--p", "3", "--q", "4", "--n", "4", "--table", "82",
                "--mark-fixed", "--json"]) == 0
    record = OutputRecord.from_line(out_of(capsys))
    marked = record.result["fixed_positions"]
    assert len(marked) == 23  # 21 residues, two of them seen again past z = 80
    assert {z % 81 for z in marked} == {
        0, 1, 4, 10, 13, 19, 22, 27, 28, 31, 37, 40, 46, 49, 54, 55, 58, 64, 67, 73, 76,
    }


@pytest.mark.parametrize(
    "p, q, n, limit",
    [
        (2, (5, 1), 3, 20),
        (2, (3, 1), 4, 40),  # q = 3 mod 4
        (3, (4, 1), 2, 30),
        (3, (-1, 2), 3, 60),
        (5, (6, 1), 2, 60),
        (3, (1, 1), 2, 20),
        (2, (1, 1), 3, 8),
        (5, (2, 1), 2, 60),  # outside 1 + pZ_p: the exponent is an integer
    ],
)
def test_a_table_past_one_period_matches_each_value(p, q, n, limit, monkeypatch, capsys):
    ring = p**n
    assert limit >= ring
    qp = QParameter(from_rational(*q, p, n + 8))
    want = [qadic.cli.iota_eval(qp, z, n).lift() for z in range(limit + 1)]
    calls = []
    real = qadic.cli.iota_eval
    monkeypatch.setattr(qadic.cli, "iota_eval", lambda *a: calls.append(a) or real(*a))
    literal = f"{q[0]}/{q[1]}"
    argv = ["iota", "--p", str(p), "--q", literal, "--n", str(n), "--table", str(limit), "--mark-fixed", "--json"]
    assert run(argv) == 0
    result = OutputRecord.from_line(out_of(capsys)).result
    assert result["values"] == want
    assert result["fixed_positions"] == [z for z, v in enumerate(want) if v == z % ring]
    assert len(calls) == (ring if qp.in_u1 else limit + 1)


# -- structured records ------------------------------------------------------


def test_record_roundtrip_direct():
    r = OutputRecord(
        command=("iota", "--p", "3"),
        inputs={"p": 3, "q": "4"},
        result={"value": "5"},
        method="structural",
        timing=0.25,
    )
    assert OutputRecord.from_line(r.to_line()) == r


def test_json_mode_emits_one_sorted_record(capsys):
    argv = ["iota", "--p", "3", "--q", "4", "--z", "5", "--n", "3", "--json"]
    assert run(argv) == 0
    line = out_of(capsys)
    assert "\n" not in line
    record = OutputRecord.from_line(line)
    assert list(record.command) == argv
    assert record.method == "structural"
    assert record.result == {"value": str((4**5 - 1) // 3 % 27)}
    assert record.inputs["p"] == 3 and record.inputs["q"] == "4"
    assert record.timing >= 0
    # deterministic serialization: the line is its own canonical form
    assert line == json.dumps(json.loads(line), sort_keys=True, separators=(",", ":"))


def test_verify_json_method_provenance(capsys):
    assert run(["verify", "--suite", "census", "--depth", "4", "--json"]) == 0
    assert OutputRecord.from_line(out_of(capsys)).method == "structural"
    assert run(["verify", "--suite", "criterion", "--depth", "2", "--json"]) == 0
    assert OutputRecord.from_line(out_of(capsys)).method == "oracle"


def test_record_parser_rejects_malformed_lines():
    with pytest.raises(DomainError):
        OutputRecord.from_line("not json at all {")
    with pytest.raises(DomainError):
        OutputRecord.from_line('{"command":[],"inputs":{}}')
    with pytest.raises(DomainError):
        OutputRecord.from_line("[1,2,3]")


# -- output destination ------------------------------------------------------


def test_out_file_writes_instead_of_stdout(tmp_path, capsys):
    target = tmp_path / "value.txt"
    assert run(["iota", "--p", "3", "--q", "4", "--z", "5", "--n", "3", "--out", str(target)]) == 0
    assert capsys.readouterr().out == ""
    assert target.read_text() == "17\n"  # (4^5 - 1)/3 = 341 = 17 mod 27
    # the shared parser does not carry --out over to the next call
    assert run(["iota", "--p", "3", "--q", "4", "--z", "5", "--n", "3"]) == 0
    assert out_of(capsys) == "17"
    assert target.read_text() == "17\n"


def test_out_file_in_a_missing_directory_exits_one(tmp_path, capsys):
    target = tmp_path / "missing" / "value.txt"
    assert run(["iota", "--p", "3", "--q", "4", "--z", "5", "--n", "3", "--out", str(target)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot write --out {target}: ")
    assert not target.exists()


# -- the shared parser -------------------------------------------------------


def test_run_builds_the_parser_once(monkeypatch, capsys):
    builds = []
    real = qadic.cli.build_parser

    def counting():
        builds.append(1)
        return real()

    monkeypatch.setattr(qadic.cli, "build_parser", counting)
    qadic.cli._parser.cache_clear()
    codes = [
        run(argv)
        for argv in (
            ["iota", "--p", "3", "--q", "4", "--z", "5", "--n", "3"],
            ["fixed", "count", "--p", "3", "--q", "4", "--n", "4"],
            ["phi", "--q", "4", "--precision", "5"],
            ["psi", "--z", "3", "--precision", "8"],
            ["exceptional", "--branch", "seven", "--digits", "8"],
            ["fixed", "count", "--p", "x", "--q", "4", "--n", "3"],
        )
    ]
    capsys.readouterr()
    assert codes == [0, 0, 0, 0, 0, 1]
    assert len(builds) == 1


def test_parser_is_built_on_first_run_not_at_import():
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(qadic.cli.__file__).parents[1])}
    probe = "import qadic.cli as c; print(c._parser.cache_info().currsize)"
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "0"


def test_build_parser_returns_a_new_parser_each_call():
    assert qadic.cli.build_parser() is not qadic.cli.build_parser()


EDGE_ARGVS = [
    [],
    ["--help"],
    ["iota", "--help"],
    ["nosuch"],
    ["--json", "iota"],
    ["iota", "--p", "3", "--q", "4"],  # missing --n
    ["fixed", "count", "--p", "x", "--q", "4", "--n", "3"],  # bad int
    ["fixed", "bogus", "--p", "3", "--q", "4", "--n", "3"],  # bad choice
    ["exceptional", "--branch", "six", "--digits", "3"],
    ["iota", "--p", "3", "--q", "4", "--z", "1", "--n", "3", "--bogus"],  # unknown flag
    ["fixed", "count", "--p", "3", "--q", "4", "--n", "3", "extra"],  # extra argument
    ["phi", "--q", "4", "--prec", "6"],  # abbreviated flag
    ["iota", "--p", "3", "--q=4", "--z", "5", "--n", "3"],
    ["iota", "--p", "3", "--q", "-1/2", "--z", "2", "--n", "4"],
    ["iota", "--p", "3", "--q", "4", "--z", "-3", "--n", "4"],
]


def _outcome(argv, capsys):
    try:
        code = run(argv)
    except SystemExit as exc:
        code = ("SystemExit", exc.code)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("argv", EDGE_ARGVS, ids=lambda a: " ".join(a) or "empty")
def test_dispatch_answers_as_the_full_parser_does(argv, monkeypatch, capsys):
    dispatched = _outcome(argv, capsys)
    # With no subcommand map, run parses every line with build_parser().parse_args.
    monkeypatch.setattr(qadic.cli, "_parser", lambda: (qadic.cli.build_parser(), {}))
    assert dispatched == _outcome(argv, capsys)


def test_a_well_formed_query_skips_the_top_level_parser(monkeypatch, capsys):
    progs = []
    real = argparse.ArgumentParser.parse_known_args

    def spy(self, *args, **kwargs):
        progs.append(self.prog)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", spy)
    queries = [
        ["iota", "--p", "3", "--q", "4", "--z", "5", "--n", "3", "--json"],
        ["fixed", "count", "--p", "3", "--q", "4", "--n", "4"],
        ["phi", "--q", "4", "--precision", "5"],
        ["exceptional", "--branch", "seven", "--digits", "8", "--json"],
    ]
    assert [run(argv) for argv in queries] == [0, 0, 0, 0]
    assert progs == [f"qadic {argv[0]}" for argv in queries]
    progs.clear()
    assert run(["--json", "iota"]) == 1
    assert progs == ["qadic", "qadic iota"]
    capsys.readouterr()


def test_json_flag_does_not_stick(capsys):
    argv = ["fixed", "count", "--p", "3", "--q", "4", "--n", "4"]
    assert run([*argv, "--json"]) == 0
    assert OutputRecord.from_line(out_of(capsys)).result == {"count": 21}
    assert run(argv) == 0
    assert out_of(capsys) == "21"


def test_a_malformed_call_leaves_the_next_one_intact(capsys):
    assert run(["fixed", "count", "--p", "3", "--q", "4"]) == 1
    assert "error" in capsys.readouterr().err
    assert run(["fixed", "count", "--p", "3", "--q", "4", "--n", "4"]) == 0
    assert out_of(capsys) == "21"


def test_negative_q_after_earlier_calls(capsys):
    for argv in (["phi", "--q", "4", "--precision", "5"], ["iota", "--p", "3", "--q", "x", "--z", "1", "--n", "2"]):
        run(argv)
    capsys.readouterr()
    assert run(["iota", "--p", "3", "--q", "-1/2", "--z", "2", "--n", "4"]) == 0
    assert out_of(capsys) == "41"  # iota_q(2) = 1 + q = 1/2 = 41 mod 81


# -- verify ------------------------------------------------------------------


def test_verify_single_suite_passes(capsys):
    assert run(["verify", "--suite", "census", "--depth", "4"]) == 0
    text = out_of(capsys)
    assert "census" in text and "pass" in text


def test_verify_reports_first_counterexample(monkeypatch, capsys):
    bad = SuiteResult(name="census", cases=3, failures=["n=4: count off by 1"])

    monkeypatch.setattr(qadic.suites, "run_suites", lambda names, depth, seed: [bad])
    assert run(["verify", "--suite", "census"]) == 3
    text = out_of(capsys)
    assert "FAIL" in text
    assert "first counterexample: n=4: count off by 1" in text


def test_verify_invariant_error_exits_three(monkeypatch, capsys):
    def boom(names, depth, seed):
        raise InvariantError("cross-check broke")

    monkeypatch.setattr(qadic.suites, "run_suites", boom)
    assert run(["verify", "--suite", "census"]) == 3
    assert "invariant violated" in capsys.readouterr().err


@pytest.mark.parametrize("suite, depth", [("all", "0"), ("order", "-2")])
@pytest.mark.parametrize("flags", [[], ["--json"]])
def test_verify_refuses_depth_below_one(suite, depth, flags, capsys):
    assert run(["verify", "--suite", suite, "--depth", depth, *flags]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"--depth must be at least 1, got {depth}" in captured.err


def test_verify_at_depth_one_passes(capsys):
    assert run(["verify", "--suite", "oracle-equivalence", "--depth", "1", "--json"]) == 0
    assert OutputRecord.from_line(out_of(capsys)).result["passed"]


# -- exit codes --------------------------------------------------------------


@pytest.mark.parametrize(
    "argv",
    [
        ["iota", "--p", "3", "--q", "abc", "--z", "1", "--n", "3"],  # bad literal
        ["iota", "--p", "3", "--q", "4", "--n", "3"],  # neither --z nor --table
        ["iota", "--p", "3", "--q", "4", "--z", "1", "--n", "3", "--table", "5"],
        ["iota", "--p", "3", "--q", "4", "--z", "1", "--n", "3", "--mark-fixed"],
        ["iota", "--p", "3", "--q", "4", "--z", "1", "--n", "0"],
        ["iota", "--p", "3", "--q", "5^3:1,0,0", "--z", "1", "--n", "2"],  # wrong prime
        ["iota", "--p", "5", "--q", "2", "--z", "1/2", "--n", "2"],  # rational z off-domain
        ["fixed", "enumerate", "--p", "3", "--q", "4", "--n", "3", "--z", "1"],
        ["fixed", "classify", "--p", "3", "--q", "4", "--n", "3"],  # classify without --z
        ["verify", "--suite", "no-such-suite"],
        ["exceptional", "--branch", "seven", "--digits", "0"],
        ["iota"],  # argparse failure routed through the same path
        ["no-such-command"],
    ],
)
def test_domain_errors_exit_one(argv, capsys):
    assert run(argv) == 1
    assert "error" in capsys.readouterr().err


def test_precision_errors_exit_two(capsys):
    # q given with too few digits for the requested level
    assert run(["iota", "--p", "3", "--q", "3^2:1,1", "--z", "5", "--n", "4"]) == 2
    assert "precision" in capsys.readouterr().err
    # z digit string shorter than the level
    assert run(["iota", "--p", "3", "--q", "4", "--z", "3^2:1,1", "--n", "4"]) == 2
    # a table's first evaluation meets the short q
    assert run(["iota", "--p", "3", "--q", "3^2:1,1", "--n", "4", "--table", "90"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("precision error: ")


def test_resource_cap_exits_four(capsys):
    assert run(["iota", "--p", "3", "--q", "4", "--z", "1", "--n", "100"]) == 4
    assert "resource cap" in capsys.readouterr().err


@pytest.mark.parametrize("branch", ["seven", "four"])
def test_exceptional_digit_33_exits_four_naming_its_level(branch, monkeypatch, capsys):
    monkeypatch.delenv("QADIC_PRECISION_CAP", raising=False)
    assert run(["exceptional", "--branch", branch, "--digits", "33", "--json"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "resource cap: digit 33 needs a fixedness test at level 65, "
        "beyond the precision cap 64 (QADIC_PRECISION_CAP)\n"
    )
    assert run(["exceptional", "--branch", branch, "--digits", "32"]) == 0


def test_a_wrong_exceptional_root_exits_three_printing_no_digit(monkeypatch, capsys):
    right = qadic.correspondence._multiplier_root
    monkeypatch.setattr(qadic.correspondence, "_EXC_DIGITS", {"seven": (1, 2), "four": (1, 1)})
    monkeypatch.setattr(qadic.correspondence, "_multiplier_root", lambda b, d: (right(b, d) + 3 ** (d - 1)) % 3**d)
    assert run(["exceptional", "--branch", "four", "--digits", "9"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("invariant violated: the four-branch multiplier root")


@pytest.mark.parametrize(
    "var, value, argv",
    [
        ("QADIC_PRECISION_CAP", "abc", ["phi", "--q", "4", "--precision", "6"]),
        ("QADIC_SCAN_BUDGET", "1e9", ["verify", "--suite", "order", "--depth", "1"]),
        ("QADIC_PRECISION_CAP", "0", ["iota", "--p", "3", "--q", "4", "--z", "1", "--n", "4"]),
        ("QADIC_SCAN_BUDGET", "-9", ["fixed", "count", "--p", "3", "--q", "4", "--n", "4", "--json"]),
    ],
)
def test_malformed_settings_exit_one_quoting_the_value(var, value, argv, monkeypatch, capsys):
    monkeypatch.setenv(var, value)
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {var}='{value}' is not a positive integer\n"


def test_enumerate_beyond_the_scan_budget_exits_four(monkeypatch, capsys):
    monkeypatch.setenv("QADIC_SCAN_BUDGET", "100")
    assert run(["fixed", "enumerate", "--p", "3", "--q", "1", "--n", "9"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "listing 19683 residues mod 3^9 exceeds budget 100" in captured.err
    assert run(["fixed", "enumerate", "--p", "3", "--q", "1", "--n", "4"]) == 0
    assert out_of(capsys).split(",") == [str(z) for z in range(81)]


def test_table_beyond_the_scan_budget_exits_four(monkeypatch, capsys):
    monkeypatch.setenv("QADIC_SCAN_BUDGET", "100")
    assert run(["iota", "--p", "3", "--q", "4", "--n", "3", "--table", "200"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "listing 201 table values mod 3^3 exceeds budget 100" in captured.err
    assert run(["iota", "--p", "3", "--q", "4", "--n", "3", "--table", "99"]) == 0


@pytest.mark.parametrize("flags", [[], ["--json"]])
def test_oracle_equivalence_depth_beyond_the_scan_budget_exits_four(flags, monkeypatch, capsys):
    monkeypatch.setenv("QADIC_SCAN_BUDGET", str(7**3))
    assert run(["verify", "--suite", "oracle-equivalence", "--depth", "4", *flags]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "verify --depth 4: scan of size 2401 exceeds budget 343" in captured.err
    assert run(["verify", "--suite", "oracle-equivalence", "--depth", "3", *flags]) == 0


def test_oracle_equivalence_refuses_depth_six_before_building_a_grid(monkeypatch, capsys):
    def boom(p, n):
        raise AssertionError(f"grid built for p={p} n={n}")

    monkeypatch.delenv("QADIC_SCAN_BUDGET", raising=False)
    monkeypatch.setattr(qadic.suites, "_u1_values", boom)
    assert run(["verify", "--suite", "oracle-equivalence", "--depth", "6", "--json"]) == 4
    assert "verify --depth 6: scan of size 117649 exceeds budget 19683" in capsys.readouterr().err


def test_verify_all_refuses_depth_six_before_any_suite_runs(monkeypatch, capsys):
    def boom(*args):
        raise AssertionError("a suite ran")

    monkeypatch.delenv("QADIC_SCAN_BUDGET", raising=False)
    monkeypatch.setattr(qadic.suites, "iota_eval", boom)
    for name in qadic.suites.SUITES:
        monkeypatch.setitem(qadic.suites.SUITES, name, boom)
    assert run(["verify", "--suite", "all", "--depth", "6"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("resource cap: verify --depth 6: ")


@pytest.mark.parametrize(
    "suite,top", [("norm", 7**4), ("valuation", 5**4), ("criterion", 5**4), ("sums", 5**4)]
)
def test_depth_scaled_suites_respect_the_scan_budget(suite, top, monkeypatch, capsys):
    monkeypatch.setenv("QADIC_SCAN_BUDGET", str(7**3))
    assert run(["verify", "--suite", suite, "--depth", "4"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"verify --depth 4: scan of size {top} exceeds budget 343" in captured.err
    assert f"suite {suite} walks" in captured.err
    assert run(["verify", "--suite", suite, "--depth", "3"]) == 0


@pytest.mark.parametrize("suite, depth, ring", [("valuation", 40, "5^40"), ("all", 62, "7^62")])
def test_rings_past_the_ceiling_are_named_by_their_power(suite, depth, ring, monkeypatch, capsys):
    monkeypatch.delenv("QADIC_PRECISION_CAP", raising=False)
    assert run(["verify", "--suite", suite, "--depth", str(depth)]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert ring in captured.err and "2147483648" not in captured.err
    # below exponent 31 the true size is quoted
    assert run(["verify", "--suite", "norm", "--depth", "12"]) == 4
    assert "scan of size 13841287201 reaches the kernels' 64-bit ceiling" in capsys.readouterr().err


@pytest.mark.parametrize("suite, top", [("propagation", 203), ("roundtrip", 204)])
def test_level_growing_suites_refuse_depth_200_before_running(suite, top, monkeypatch, capsys):
    def boom(*args):
        raise AssertionError(f"{suite} ran")

    monkeypatch.delenv("QADIC_PRECISION_CAP", raising=False)
    monkeypatch.setitem(qadic.suites.SUITES, suite, boom)
    assert run(["verify", "--suite", suite, "--depth", "200"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"resource cap: verify --depth 200: requested precision {top} exceeds cap 64"
        f" (QADIC_PRECISION_CAP); suite {suite} reaches level {top}\n"
    )


def test_verify_checks_each_top_level_against_the_precision_cap(monkeypatch, capsys):
    monkeypatch.setenv("QADIC_PRECISION_CAP", "10")
    assert run(["verify", "--suite", "propagation", "--depth", "8"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "verify --depth 8: requested precision 11 exceeds cap 10" in captured.err
    assert "suite propagation reaches level 11" in captured.err
    assert run(["verify", "--suite", "propagation", "--depth", "7"]) == 0


TOP_LEVELS_AT_DEPTH_FOUR = {
    "cocycle-identity": 4,
    "identities": 4,
    "norm": 4,
    "valuation": 4,
    "sums": 5,
    "oracle-equivalence": 4,
    "criterion": 4,
    "census": 6,
    "propagation": 7,
    "exceptional-minimality": 9,
    "stability": 12,
    "roundtrip": 8,
    "isometry": 10,
    "order": 5,
}


def test_verify_records_the_top_level_each_body_was_given(monkeypatch, capsys):
    given = {}
    for name in qadic.suites.SUITES:
        monkeypatch.setitem(
            qadic.suites.SUITES, name, lambda res, top, rng, name=name: given.setdefault(name, top)
        )
    assert run(["verify", "--suite", "all", "--depth", "4", "--json"]) == 0
    entries = OutputRecord.from_line(out_of(capsys)).result["suites"]
    assert {e["name"]: e["top_level"] for e in entries} == TOP_LEVELS_AT_DEPTH_FOUR
    assert given == TOP_LEVELS_AT_DEPTH_FOUR


@pytest.mark.parametrize("command", [["iota", "--z", "1"], ["fixed", "count"]])
@pytest.mark.parametrize("p", ["1", "0", "-3", "4"])
def test_non_prime_p_exits_one(command, p):
    # --p 1 used to loop forever reading --q, --p 0 to divide by zero
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(qadic.cli.__file__).parents[1])}
    argv = [command[0], *command[1:], f"--p={p}", "--q", "4", "--n", "2"]
    proc = subprocess.run(
        [sys.executable, "-m", "qadic.cli", *argv], env=env, capture_output=True, text=True, timeout=10
    )
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == f"error: --p must be prime, got {p}\n"


def test_python_dash_m_qadic_runs_the_cli():
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(qadic.cli.__file__).parents[1])}
    argv = ["verify", "--suite", "order", "--depth", "1", "--json"]
    proc = subprocess.run(
        [sys.executable, "-m", "qadic", *argv], env=env, capture_output=True, text=True, timeout=30
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 1
    assert OutputRecord.from_line(lines[0]).result["passed"]


def test_oracle_equivalence_at_depth_five_passes(monkeypatch, capsys):
    monkeypatch.delenv("QADIC_SCAN_BUDGET", raising=False)
    assert run(["verify", "--suite", "oracle-equivalence", "--depth", "5", "--json"]) == 0
    assert OutputRecord.from_line(out_of(capsys)).result["passed"]


def test_precision_cap_applies_to_the_requested_level(capsys):
    # q = 4 is materialized at n + 2 digits internally; only --n is capped
    assert run(["iota", "--p", "3", "--q", "4", "--z", "1", "--n", "64"]) == 0
    assert out_of(capsys) == "1"
    assert run(["fixed", "count", "--p", "3", "--q", "4", "--n", "64"]) == 0
    assert out_of(capsys) == "21"
    # phi and psi work above their output precision; only --precision is capped
    assert run(["phi", "--q", "4", "--precision", "64"]) == 0
    assert out_of(capsys) == "3^63:" + ",".join(["1"] * 63)
    for z in ("3", "-1/2"):
        assert run(["psi", "--z", z, "--precision", "64"]) == 0
        assert out_of(capsys).startswith("3^64:")
    for argv in (
        ["iota", "--p", "3", "--q", "4", "--z", "1", "--n", "65"],
        ["phi", "--q", "4", "--precision", "65"],
        ["psi", "--z", "3", "--precision", "65"],
    ):
        assert run(argv) == 4
        assert "requested precision 65 exceeds cap 64" in capsys.readouterr().err


def test_phi_reports_a_too_small_precision(capsys):
    assert run(["phi", "--q", "4", "--precision", "0"]) == 1
    assert "in_precision is 0" in capsys.readouterr().err


def test_main_raises_systemexit(monkeypatch):
    monkeypatch.setattr(
        "sys.argv", ["qadic", "iota", "--p", "3", "--q", "4", "--z", "5", "--n", "3"]
    )
    with pytest.raises(SystemExit) as exc:
        main()
    assert exc.value.code == 0
