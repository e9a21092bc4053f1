import json
import re
from pathlib import Path

import pytest

from cartansim import NumericalError, pipeline
from cartansim.cli import build_parser, main
from cartansim.pipeline import RunRecord


def run_cli(*argv):
    return main(list(argv))


def record_path_from(capsys):
    for line in capsys.readouterr().out.splitlines():
        if line.startswith("record:"):
            return line.split("record:", 1)[1].strip()
    raise AssertionError("no record path printed")


XY = ("--model", "xy", "--qubits", "3", "--t-points", "5")


# ------------------------------------------------------------------ happy paths

def test_decompose_exit_zero(tmp_path, capsys):
    code = run_cli("decompose", *XY, "--order", "1", "--output", str(tmp_path))
    assert code == 0
    out = capsys.readouterr().out
    assert "converged=True" in out and "decomposed=True" in out
    assert "optimizer: cost_evals=" in out and "forward_reuses=" in out and "backtracks=" in out
    assert "start seed=7: won iterations=" in out
    assert "record:" in out


def test_curve_writes_artifacts(tmp_path, capsys):
    code = run_cli(
        "curve", *XY, "--order", "1", "--output", str(tmp_path),
        "--format", "csv", "--format", "svg",
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "max error" in out
    svgs = list(tmp_path.glob("*/curve.svg"))
    assert len(svgs) == 1


def test_verify_round_trip(tmp_path, capsys):
    assert run_cli("decompose", *XY, "--output", str(tmp_path)) == 0
    path = record_path_from(capsys)
    assert run_cli("verify", path) == 0
    assert "record verifies" in capsys.readouterr().out


def test_benchmark_exit_zero(tmp_path, capsys):
    code = run_cli(
        "benchmark", "--model", "xy", "--qubits", "3", "--order", "1",
        "--t-points", "5", "--output", str(tmp_path),
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "baseline" in out
    assert (tmp_path / "benchmark.csv").exists()


def test_cost_trace_reports_orders(tmp_path, capsys):
    code = run_cli(
        "cost-trace", "--model", "xy", "--qubits", "3",
        "--order", "1", "2", "--output", str(tmp_path),
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "order 1:" in out
    assert "order 2:" in out


def test_scaling_default_pair(capsys):
    assert run_cli("scaling", "--order", "1") == 0
    out = capsys.readouterr().out
    assert "order 1: slope" in out
    assert "trotter" in out


def test_scaling_model_pair(capsys):
    assert run_cli("scaling", "--model", "tfim", "--order", "1") == 0
    assert "split into" in capsys.readouterr().out


def test_help_exits_zero(capsys):
    assert run_cli("--help") == 0
    assert "decompose" in capsys.readouterr().out


# ---------------------------------------------------------------- config files

def test_flags_override_config_file(tmp_path, capsys):
    doc = {
        "model": {"name": "xy", "n": 3},
        "order": 1,
        "t_points": 5,
        "optimizer": {"seed": 9},
        "output_dir": str(tmp_path / "from_config"),
    }
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(doc))
    code = run_cli("decompose", "--config", str(cfg_path), "--order", "2")
    assert code == 0
    record = RunRecord.load(record_path_from(capsys))
    assert record.config.order == 2  # flag wins
    assert record.config.optimizer.seed == 9  # file survives where not overridden
    assert record.config.output_dir == str(tmp_path / "from_config")


def test_config_file_alone(tmp_path, capsys):
    doc = {"model": {"name": "xy", "n": 3}, "order": 1, "t_points": 5,
           "output_dir": str(tmp_path)}
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(doc))
    assert run_cli("decompose", "--config", str(cfg_path)) == 0
    record = RunRecord.load(record_path_from(capsys))
    assert record.config.model.name == "xy"
    assert record.config.order == 1


def test_benchmark_cells_take_every_config_file_field(tmp_path, capsys):
    doc = {"t_points": 3, "variant": "paper", "output_dir": str(tmp_path)}
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(doc))
    argv = ("benchmark", "--config", str(cfg_path), "--model", "xy", "--order", "1")
    assert run_cli(*argv) == 0
    capsys.readouterr()
    (path,) = tmp_path.glob("*/record.json")
    record = RunRecord.load(path)
    assert (record.config.t_points, record.config.variant) == (3, "paper")
    assert len(record.curve_ts) == 3


# ----------------------------------------------------------------- exit codes

def test_usage_error_exits_two(capsys):
    assert run_cli("decompose", "--model", "nosuch") == 2
    assert run_cli("nosuch-command") == 2
    assert run_cli("decompose", "--order", "nine") == 2
    capsys.readouterr()


def test_config_error_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    assert run_cli("decompose", "--config", str(bad)) == 2
    missing = tmp_path / "missing.json"
    assert run_cli("decompose", "--config", str(missing)) == 2
    assert run_cli("decompose", "--model", "xy", "--order", "7") == 2
    capsys.readouterr()


def test_removed_optimizer_settings_exit_two(tmp_path, capsys):
    # the gradient is always analytic and the line search always Armijo
    assert run_cli("decompose", *XY, "--grad", "fd", "--output", str(tmp_path)) == 2
    capsys.readouterr()
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps({"model": {"name": "xy", "n": 3}, "optimizer": {"line_search": "wolfe"}}))
    assert run_cli("decompose", "--config", str(cfg_path), "--output", str(tmp_path)) == 2
    assert "line_search" in capsys.readouterr().err
    assert not list(tmp_path.glob("*/record.json"))


def test_removed_workers_setting_exits_two(tmp_path, capsys):
    # benchmark cells run one after another in this process
    assert run_cli("benchmark", *XY, "--order", "1", "--workers", "1", "--output", str(tmp_path)) == 2
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps({"model": {"name": "xy", "n": 3}, "order": 1, "workers": 1}))
    assert run_cli("benchmark", "--config", str(cfg_path), "--output", str(tmp_path)) == 2
    assert "workers" in capsys.readouterr().err
    assert not list(tmp_path.glob("*/record.json"))


def test_benchmark_qubits_without_model_exits_two(capsys):
    assert run_cli("benchmark", "--qubits", "4") == 2
    assert run_cli("scaling", "--qubits", "4") == 2
    capsys.readouterr()


def test_verify_tampered_exits_five(tmp_path, capsys):
    assert run_cli("decompose", *XY, "--output", str(tmp_path)) == 0
    path = record_path_from(capsys)
    doc = json.loads(open(path).read())
    doc["residual_fro"] = 0.5
    tampered = tmp_path / "t.json"
    tampered.write_text(json.dumps(doc))
    assert run_cli("verify", str(tampered)) == 5
    assert "error" in capsys.readouterr().err


def test_verify_missing_record_exits_two(tmp_path, capsys):
    assert run_cli("verify", str(tmp_path / "none.json")) == 2
    capsys.readouterr()


def test_benchmark_cell_failure_exits_nonzero(tmp_path, capsys, monkeypatch):
    def boom(config, record=None):
        raise NumericalError("synthetic failure")

    monkeypatch.setattr(pipeline, "run_error_curve", boom)
    code = run_cli(
        "benchmark", "--model", "xy", "--qubits", "3", "--order", "1",
        "--t-points", "5", "--output", str(tmp_path),
    )
    assert code == 1
    captured = capsys.readouterr()
    assert "failed" in captured.out or "failed" in captured.err


def test_benchmark_undecomposed_cell_exits_four(tmp_path, capsys):
    # tfim order 3 does not decompose from either default start
    code = run_cli("benchmark", "--model", "tfim", "--qubits", "4", "--order", "3", "--output", str(tmp_path))
    assert code == 4
    captured = capsys.readouterr()
    assert "did not decompose: tfim n=4 order 3" in captured.err
    assert "false" in captured.out  # the table was printed first
    rows = json.loads((tmp_path / "benchmark.json").read_text())["rows"]
    assert [(r["model"], r["order"], r["decomposed"]) for r in rows] == [("tfim", 3, False)]
    assert (tmp_path / "benchmark.csv").exists()


def test_stage_name_reported_on_failure(tmp_path, capsys, monkeypatch):
    from cartansim import CapacityError

    assert run_cli("decompose", *XY, "--output", str(tmp_path)) == 0
    path = record_path_from(capsys)
    pipeline.LAST_PROBLEM.clear()

    def boom(terms):
        raise CapacityError("too big")

    monkeypatch.setattr(pipeline, "generate_dla", boom)
    for argv in (("decompose", *XY, "--output", str(tmp_path)), ("verify", path)):
        assert run_cli(*argv) == 3
        assert "[generate_dla]" in capsys.readouterr().err


# -------------------------------------------------------------------- docs

def test_every_readme_flag_is_accepted():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    mentioned = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", readme))
    (subcommands,) = (a for a in build_parser()._actions if a.choices and a.dest == "command")
    accepted = {flag for p in subcommands.choices.values() for flag in p._option_string_actions}
    assert mentioned and mentioned <= accepted, sorted(mentioned - accepted)
