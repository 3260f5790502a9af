"""Command-line interface: exit codes, output formats, determinism."""

import csv
import re

import pytest

from helpers import flat_stretch_scenario
from carrieralloc import oracle
from carrieralloc.cli import EXIT_NUMERIC, main
from carrieralloc.oracle import OracleError
from carrieralloc.protocol import EngineConfig, run
from carrieralloc.scenario import (
    RunRecord,
    build_paper_scenario,
    save_scenario,
    write_results,
)
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


def test_sweep_verify_records_an_oracle_kernel_failure(tmp_path, monkeypatch, capsys):
    def failing_demands(*args):
        raise RootFindingError("Newton inverter failed to converge")

    monkeypatch.setattr(oracle, "demands", failing_demands)
    path = tmp_path / "flat.yaml"
    save_scenario(flat_stretch_scenario(), path)
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


def test_verify_reports_protocol_non_convergence(paper_file, capsys):
    assert main(["verify", "--scenario", str(paper_file), "--max-rounds", "1"]) == EXIT_NUMERIC
    captured = capsys.readouterr()
    assert "rounds=1 " in captured.out and "converged=False" in captured.out
    assert "protocol did not converge" in captured.err


def test_verify_reports_an_oracle_error_as_numeric_failure(paper_file, monkeypatch, capsys):
    def failing_oracle(scenario, tol=1e-9):
        raise OracleError("price clearing did not converge in 200 steps")

    monkeypatch.setattr("carrieralloc.cli.solve_central", failing_oracle)
    assert main(["verify", "--scenario", str(paper_file)]) == EXIT_NUMERIC
    err = capsys.readouterr().err
    assert "numeric failure: price clearing did not converge in 200 steps" in err
    assert "Traceback" not in err


def test_utility_curve_contains_published_point(capsys):
    assert main(
        ["utility-curve", "--type", "sig", "--a", "1", "--b", "30",
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
    assert main(["utility-curve", "--type", "log", "--k", "3", "--rmax", "100"]) == 0
    out = capsys.readouterr().out.splitlines()
    last_r, last_u = out[-1].split(",")
    assert float(last_r) == 100.0
    assert float(last_u) == 1.0


def test_utility_curve_validation(capsys):
    assert main(["utility-curve", "--type", "sig", "--a", "1", "--b", "30", "--samples", "0"]) == 1
    assert main(["utility-curve", "--type", "sig", "--b", "30"]) == 1
    assert main(["utility-curve", "--type", "log", "--k", "3"]) == 1
    assert main(["utility-curve", "--type", "log", "--k", "-3", "--rmax", "100"]) == 1
    # an infinite axis fails before any row is written
    capsys.readouterr()
    assert main(["utility-curve", "--type", "sig", "--a", "1", "--b", "30", "--max", "inf"]) == 1
    assert capsys.readouterr().out == ""


def test_utility_curve_is_deterministic(capsys):
    args = ["utility-curve", "--type", "log", "--k", "0.5", "--rmax", "100"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    assert capsys.readouterr().out == first


def test_paper_scenario_roundtrip(tmp_path, capsys):
    out = tmp_path / "gen.yaml"
    assert main(["paper-scenario", "--r1", "300", "--out", str(out)]) == 0
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
