"""Command-line interface: exit codes, output formats, determinism."""

import csv
import re
import sys

import pytest

from generators import flat_stretch
from carrieralloc import cli, oracle
from carrieralloc.cli import EXIT_NUMERIC, _build_parser, _UsageError, main
from carrieralloc.oracle import OracleError, solve_central
from carrieralloc.protocol import EngineConfig, run
from carrieralloc.scenario import (
    RunRecord,
    build_paper_scenario,
    run_point,
    save_scenario,
    write_results,
)
from carrieralloc.subproblem import ProtocolError
from carrieralloc.utility import RootFindingError

@pytest.fixture()
def paper_file(tmp_path):
    path = tmp_path / "paper18.yaml"
    save_scenario(build_paper_scenario(300.0), path)
    return path


def test_run_converges_with_expected_prices(paper_file, capsys):
    assert main(["run", "--scenario", str(paper_file)]) == 0
    out = capsys.readouterr().out
    match = re.search(r"rounds=(\d+) objective=(\S+) converged=True p1=(\S+) p2=(\S+)", out)
    assert match, out
    p1, p2 = float(match.group(3)), float(match.group(4))
    # carrier-1 price reproduces the published value; see the verification
    # notes for why the carrier-2 tail differs slightly from the plot data
    assert p1 == pytest.approx(0.008824, rel=0.10)
    assert p1 < p2


def test_run_missing_file_is_usage_error(tmp_path):
    assert main(["run", "--scenario", str(tmp_path / "nope.yaml")]) == 1


def test_run_with_one_round_budget_fails_numerically(paper_file):
    assert main(["run", "--scenario", str(paper_file), "--max-rounds", "1"]) == 2


def test_run_writes_result_files(paper_file, tmp_path, capsys):
    out_dir = tmp_path / "results"
    assert main(["run", "--scenario", str(paper_file), "--out", str(out_dir)]) == 0
    assert (out_dir / "rates.csv").exists()
    assert (out_dir / "prices.csv").exists()
    assert (out_dir / "summary.csv").exists()


def test_cli_run_equals_library_run(paper_file, tmp_path):
    out_dir = tmp_path / "cli_out"
    assert main(["run", "--scenario", str(paper_file), "--out", str(out_dir)]) == 0
    lib_dir = tmp_path / "lib_out"
    scenario = build_paper_scenario(300.0)
    record = RunRecord(sweep_value=300.0, result=run(scenario, EngineConfig()))
    write_results([record], lib_dir)
    assert (out_dir / "rates.csv").read_bytes() == (lib_dir / "rates.csv").read_bytes()
    assert (out_dir / "prices.csv").read_bytes() == (lib_dir / "prices.csv").read_bytes()


def test_sweep_flag_validation(paper_file, capsys):
    base = ["sweep", "--scenario", str(paper_file), "--carrier", "1"]
    assert main(base + ["--from", "20", "--to", "40", "--step", "0"]) == 1
    assert main(base + ["--from", "300", "--to", "20", "--step", "10"]) == 1
    assert main(base + ["--from", "20", "--to", "40"]) == 1  # missing --step
    # non-finite bounds are refused naming the field, before any point runs
    for flags, field in ((["--to", "inf"], "stop"), (["--step", "nan"], "step"),
                         (["--from", "nan"], "start")):
        capsys.readouterr()
        assert main(base + ["--from", "20", "--to", "40", "--step", "10"] + flags) == 1
        assert f"sweep {field} must be finite" in capsys.readouterr().err
    # a vanishing step is refused before any point runs, not with a traceback
    capsys.readouterr()
    assert main(base + ["--from", "20", "--to", "300", "--step", "1e-320"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and "no finite point count" in err


def test_sweep_small_range_passes(paper_file, tmp_path):
    out_dir = tmp_path / "sweep_out"
    code = main(
        ["sweep", "--scenario", str(paper_file), "--carrier", "1",
         "--from", "240", "--to", "260", "--step", "10",
         "--verify", "--out", str(out_dir)]
    )
    assert code == 0
    lines = (out_dir / "summary.csv").read_text().splitlines()
    assert len(lines) == 4


def test_sweep_exit_2_lists_failing_points(paper_file, capsys):
    code = main(
        ["sweep", "--scenario", str(paper_file), "--carrier", "1",
         "--from", "240", "--to", "250", "--step", "10", "--max-rounds", "1"]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert "failing sweep points" in err
    assert "240" in err and "250" in err
    assert "no convergence after 1 rounds" in err


def test_sweep_records_a_protocol_error_per_point(paper_file, tmp_path, monkeypatch, capsys):
    # A protocol run that raises at R1=260 fails that point alone: its record
    # holds the error and no result, and the oracle is not asked about it.
    def run_failing_at_260(point, config):
        if point.carrier(1).capacity == 260.0:
            raise ProtocolError("bid of UE 13 is not finite")
        return run(point, config)

    solved = []

    def recording_oracle(point):
        solved.append(point.carrier(1).capacity)
        return solve_central(point)

    monkeypatch.setattr("carrieralloc.scenario.run", run_failing_at_260)
    monkeypatch.setattr("carrieralloc.scenario.solve_central", recording_oracle)
    message = "ProtocolError: bid of UE 13 is not finite"
    rec = run_point(build_paper_scenario(260.0), 260.0, EngineConfig(), verify=True)
    assert rec.result is None and rec.oracle is None and rec.comparison is None
    assert rec.error == message and solved == []
    with open(write_results([rec], tmp_path / "point")["summary"], newline="") as fh:
        (row,) = csv.DictReader(fh)
    assert row["error"] == message

    code = main(
        ["sweep", "--scenario", str(paper_file), "--carrier", "1",
         "--from", "250", "--to", "260", "--step", "10", "--verify"]
    )
    assert code == EXIT_NUMERIC and solved == [250.0]
    captured = capsys.readouterr()
    assert f"R1=260: error: {message}\n" in captured.out
    assert f"failing sweep points: 260 ({message})" in captured.err


def test_sweep_verify_records_an_oracle_kernel_failure(tmp_path, monkeypatch, capsys):
    def failing_demands(*args):
        raise RootFindingError("Newton inverter failed to converge")

    monkeypatch.setattr(oracle, "demands", failing_demands)
    path = tmp_path / "flat.yaml"
    save_scenario(flat_stretch(), path)
    out_dir = tmp_path / "out"
    code = main(
        ["sweep", "--scenario", str(path), "--carrier", "1",
         "--from", "181.3", "--to", "181.3", "--step", "1",
         "--max-rounds", "50", "--verify", "--out", str(out_dir)]
    )
    assert code == EXIT_NUMERIC
    with open(out_dir / "summary.csv", newline="") as fh:
        (row,) = csv.DictReader(fh)
    assert "oracle:" in row["error"] and "users [1, 2]" in row["error"]
    assert "Traceback" not in capsys.readouterr().err


def test_sweep_uses_file_sweep_section(tmp_path, monkeypatch, capsys):
    swept = []
    monkeypatch.setattr(
        "carrieralloc.cli.run_sweep", lambda scenario, sweep, *a, **k: swept.append(sweep) or []
    )
    paper = tmp_path / "paper18.yaml"
    assert main(["paper-scenario", "--out", str(paper)]) == 0
    # the file's section alone, then with one flag overriding one field
    assert main(["sweep", "--scenario", str(paper)]) == 0
    assert main(["sweep", "--scenario", str(paper), "--to", "40"]) == 0
    assert [s.carrier_id for s in swept] == [1, 1]
    assert swept[0].values() == [20.0 + 10.0 * i for i in range(29)]
    assert swept[1].values() == [20.0, 30.0, 40.0]
    path = tmp_path / "with_sweep.yaml"
    save_scenario(
        build_paper_scenario(300.0),
        path,
        sweep=None,
    )
    # no sweep section and no flags: usage error
    assert main(["sweep", "--scenario", str(path)]) == 1
    # the error names exactly the flags still missing
    capsys.readouterr()
    assert main(["sweep", "--scenario", str(path), "--carrier", "1", "--step", "10"]) == 1
    assert "sweep needs --from --to (" in capsys.readouterr().err
    assert len(swept) == 2


def test_verify_command(paper_file, capsys):
    assert main(["verify", "--scenario", str(paper_file)]) == 0
    out = capsys.readouterr().out
    assert "verification pass" in out


def test_verify_passes_an_optimum_whose_kkt_diagnostic_fails(tmp_path, capsys):
    # One logarithmic user alone on a carrier it fills at any price above 0,
    # in units where its price is about 880: the protocol stops at 879.28
    # with the oracle's objective, the oracle prices the carrier at the
    # user's marginal, 879.58.  The KKT residual 0.3 fails 10 * delta and is
    # reported; the certificate decides.
    path = tmp_path / "one.yaml"
    path.write_text("carriers: [{id: 1, capacity: 0.001}]\n"
                    "ues: [{id: 1, utility: {type: logarithmic, k: 300, r_max: 1}, carriers: [1]}]\n")
    assert main(["verify", "--scenario", str(path)]) == 0
    out = capsys.readouterr().out
    assert " kkt=FAIL verify=pass" in out
    assert "certificate: P(T*) - P(T) = 0 in [" in out
    assert out.splitlines()[-1] == "verification pass"


def test_verify_reports_protocol_non_convergence(paper_file, capsys):
    assert main(["verify", "--scenario", str(paper_file), "--max-rounds", "1"]) == EXIT_NUMERIC
    captured = capsys.readouterr()
    assert "rounds=1 " in captured.out and "converged=False" in captured.out
    assert "failing sweep points: 300 (no convergence after 1 rounds" in captured.err


def test_verify_runs_the_oracle_after_protocol_non_convergence(paper_file, capsys):
    assert main(["verify", "--scenario", str(paper_file), "--max-rounds", "1"]) == EXIT_NUMERIC
    out = capsys.readouterr().out
    assert "obj_delta=" in out and "oracle objective=" in out
    assert out.splitlines()[-1] == "verification FAIL"


def test_run_and_verify_print_the_sweep_point_line(paper_file, tmp_path, capsys):
    flags = ["--scenario", str(paper_file)]
    assert main(["run"] + flags + ["--out", str(tmp_path / "run")]) == 0
    run_line = capsys.readouterr().out.splitlines()[0]
    assert main(["sweep"] + flags + ["--carrier", "1", "--from", "300", "--to", "300",
                                     "--step", "10", "--out", str(tmp_path / "sweep")]) == 0
    assert capsys.readouterr().out.splitlines() == [run_line]
    for name in ("rates.csv", "prices.csv", "summary.csv"):
        assert (tmp_path / "run" / name).read_bytes() == (tmp_path / "sweep" / name).read_bytes()
    assert run_line.startswith("R1=300: rounds=")
    assert main(["verify"] + flags) == 0
    verify_line = capsys.readouterr().out.splitlines()[0]
    assert verify_line.startswith(run_line + " obj_delta=")


def test_run_out_records_the_non_convergence_message(paper_file, tmp_path):
    out_dir = tmp_path / "results"
    assert main(["run", "--scenario", str(paper_file), "--max-rounds", "1",
                 "--out", str(out_dir)]) == EXIT_NUMERIC
    with open(out_dir / "summary.csv", newline="") as fh:
        (row,) = csv.DictReader(fh)
    assert row["converged"] == "False"
    assert row["error"].startswith("no convergence after 1 rounds")


def test_verify_reports_an_oracle_error_as_numeric_failure(paper_file, monkeypatch, capsys):
    def failing_oracle(scenario):
        raise OracleError("price clearing did not converge in 200 steps")

    monkeypatch.setattr("carrieralloc.scenario.solve_central", failing_oracle)
    assert main(["verify", "--scenario", str(paper_file)]) == EXIT_NUMERIC
    err = capsys.readouterr().err
    assert "failing sweep points: 300 (oracle: price clearing did not converge in 200 steps)" in err
    assert "Traceback" not in err


def test_utility_curve_contains_published_point(capsys):
    assert main(
        ["utility-curve", "--utility", "{type: sigmoidal, a: 1, b: 30}",
         "--max", "100", "--samples", "1000"]
    ) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "r,utility"
    assert len(out) == 1002
    row = {float(line.split(",")[0]): float(line.split(",")[1]) for line in out[1:]}
    r_key = min(row, key=lambda r: abs(r - 30.2))
    assert abs(r_key - 30.2) < 1e-9
    assert row[r_key] == pytest.approx(0.549834, abs=1e-6)


def test_utility_curve_log_reaches_one(capsys):
    assert main(["utility-curve", "--utility", "{type: logarithmic, k: 3, r_max: 100}"]) == 0
    out = capsys.readouterr().out.splitlines()
    last_r, last_u = out[-1].split(",")
    assert float(last_r) == 100.0
    assert float(last_u) == 1.0


def test_utility_curve_validation(capsys):
    sig = "{type: sigmoidal, a: 1, b: 30}"
    assert main(["utility-curve", "--utility", sig, "--samples", "0"]) == 1
    # a utility is refused exactly as in a scenario file, before any row
    for bad in ("{type: sigmoidal, b: 30}", "{type: logarithmic, k: 3}",
                "{type: logarithmic, k: -3, r_max: 100}", "{type: sigmoidal, a: 1",
                "[1, 2]", "{type: logarithmic, k: 3, r_max: 100, a: 1}",
                "{type: sigmoidal, a: true, b: 30}", "{type: sig, a: 1, b: 30}",
                '{type: logarithmic, k: "3", r_max: 100}'):
        capsys.readouterr()
        assert main(["utility-curve", "--utility", bad]) == 1, bad
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: --utility: "), bad
        assert "Traceback" not in captured.err
    # an infinite axis fails before any row is written
    assert main(["utility-curve", "--utility", sig, "--max", "inf"]) == 1
    assert capsys.readouterr().out == ""


def test_utility_curve_is_deterministic(capsys):
    args = ["utility-curve", "--utility", "{type: logarithmic, k: 0.5, r_max: 100}"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    assert capsys.readouterr().out == first


def test_paper_scenario_roundtrip(tmp_path, capsys):
    out = tmp_path / "gen.yaml"
    assert main(["paper-scenario", "--out", str(out)]) == 0
    assert main(["run", "--scenario", str(out)]) == 0
    run_line = capsys.readouterr().out
    # generated file runs exactly like the built-in fixture
    res = run(build_paper_scenario(300.0), EngineConfig())
    assert f"rounds={res.rounds}" in run_line
    assert f"objective={res.objective:.9g}" in run_line


def test_paper_scenario_stdout(capsys):
    assert main(["paper-scenario"]) == 0
    text = capsys.readouterr().out
    assert "carriers:" in text and "sweep:" in text


def test_unknown_flags_exit_usage(paper_file):
    assert main(["run", "--scenario", str(paper_file), "--bogus"]) == 1
    assert main(["frobnicate"]) == 1
    # settings that are module constants, not flags
    assert main(["run", "--scenario", str(paper_file), "--anchor-gain", "0.3"]) == 1
    for command in ("sweep", "verify"):
        for flag, value in (("--anchor-gain", "0.3"), ("--oracle-tol", "1e-9")):
            assert main([command, "--scenario", str(paper_file), flag, value]) == 1
    # engine settings other than the round limit are EngineConfig's alone,
    # and carrier 2 of the reference experiment is fixed
    for command in ("run", "sweep", "verify"):
        for flag, value in (("--delta", "1e-3"), ("--damping", "0.7")):
            assert main([command, "--scenario", str(paper_file), flag, value]) == 1
    assert main(["paper-scenario", "--r2", "100"]) == 1
    # the reference experiment's carrier 1 is swept, not set; a utility is
    # written as in a scenario file
    assert main(["paper-scenario", "--r1", "300"]) == 1
    assert main(["utility-curve", "--type", "sig", "--a", "1", "--b", "30"]) == 1


COMMANDS = ("run", "sweep", "verify", "utility-curve", "paper-scenario")


def _exits(call, capsys):
    """The code ``call`` exits with through argparse's SystemExit, and what it prints."""
    with pytest.raises(SystemExit) as info:
        call()
    return info.value.code, capsys.readouterr()


@pytest.mark.parametrize("command", COMMANDS)
def test_a_command_builds_its_own_parser_alone(command, capsys):
    assert _build_parser(command).format_usage() == f"usage: carrieralloc [-h] {{{command}}} ...\n"
    # main builds the command's subparser alone; its help, and its errors, are
    # those of the parser of every command, or the two build paths have drifted
    full = _exits(lambda: _build_parser().parse_args([command, "--help"]), capsys)
    assert full[0] == 0 and full[1].out.startswith(f"usage: carrieralloc {command} [-h]")
    assert _exits(lambda: main([command, "--help"]), capsys) == full
    for argv in ([command, "--bogus"], [command, "--scenario"], [command, "--out"],
                 [command, "--max-rounds", "x"]):
        with pytest.raises(_UsageError) as info:
            _build_parser().parse_args(argv)
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: {info.value}\n"


@pytest.mark.parametrize("argv", [
    ["run", "--scenario", "s.yaml", "--out", "o"],
    ["sweep", "--scen", "s.yaml", "--from", "20", "--step", "5", "--verify"],
    ["verify", "--scenario", "s.yaml", "--max-rounds", "3"],
    ["utility-curve", "--utility", "{type: sigmoidal, a: 1, b: 30}", "--max", "5"],
    ["paper-scenario"],
])
def test_a_command_parses_as_the_parser_of_every_command(argv):
    assert vars(_build_parser(argv[0]).parse_args(argv)) == vars(_build_parser().parse_args(argv))


def test_no_or_an_unknown_command_builds_every_parser(capsys):
    assert main([]) == 1
    assert capsys.readouterr().err == "error: the following arguments are required: command\n"
    assert main(["nope"]) == 1
    assert capsys.readouterr().err == (
        "error: argument command: invalid choice: 'nope' (choose from "
        "'run', 'sweep', 'verify', 'utility-curve', 'paper-scenario')\n"
    )
    full = _exits(lambda: _build_parser().parse_args(["--help"]), capsys)
    assert "{run,sweep,verify,utility-curve,paper-scenario}" in full[1].out
    assert _exits(lambda: main(["--help"]), capsys) == full
    assert _exits(lambda: main(["-h", "sweep"]), capsys) == full


def test_main_builds_the_parser_of_the_command_it_reads(monkeypatch, capsys):
    built = []
    monkeypatch.setattr(cli, "_build_parser",
                        lambda command=None: built.append(command) or _build_parser(command))
    assert main(["paper-scenario"]) == 0
    text = capsys.readouterr().out
    # without argv, main reads the command line as argparse would
    monkeypatch.setattr(sys, "argv", ["carrieralloc", "paper-scenario"])
    assert main() == 0
    assert capsys.readouterr().out == text
    monkeypatch.setattr(sys, "argv", ["carrieralloc", "nope"])
    assert main() == 1
    assert "invalid choice: 'nope'" in capsys.readouterr().err
    assert built == ["paper-scenario", "paper-scenario", "nope"]
