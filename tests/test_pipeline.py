import json
import re
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from cartansim import (
    CapacityError,
    ConfigError,
    NumericalError,
    OptimizerOptions,
)
from cartansim.models import ModelSpec, default_benchmark_specs
from cartansim.optimize import COUNTERS, DECOMPOSED_TOL
from cartansim.pauli import AlgebraElement, bracket, commutes
from cartansim import pipeline
from cartansim.pipeline import (
    BENCHMARK_COLUMNS,
    CostTrace,
    RunConfig,
    RunRecord,
    benchmark_configs,
    model_pair,
    run_benchmark,
    run_cost_trace,
    run_decompose,
    run_error_curve,
    run_scaling_check,
    trend_mark,
    verify,
)


def xy_config(tmp_path, **kw):
    kw.setdefault("model", ModelSpec("xy", 3))
    kw.setdefault("order", 1)
    kw.setdefault("t_points", 11)
    kw.setdefault("output_dir", str(tmp_path))
    return RunConfig(**kw)


@pytest.fixture(scope="module")
def xy_record(tmp_path_factory):
    """One small finished run shared by the read-only tests."""
    out = tmp_path_factory.mktemp("xyrun")
    config = xy_config(out, formats=("csv", "json", "svg"))
    record = run_error_curve(config)
    return config, record


# ------------------------------------------------------------ configuration

def test_config_validation():
    with pytest.raises(ConfigError):
        RunConfig(model=ModelSpec("xy", 3), order=5)
    with pytest.raises(ConfigError):
        RunConfig(model=ModelSpec("xy", 3), t_points=1)
    with pytest.raises(ConfigError):
        RunConfig(model=ModelSpec("xy", 3), table_t=300.0)
    with pytest.raises(ConfigError):
        RunConfig(model=ModelSpec("xy", 3), table_t=-1.0)
    with pytest.raises(ConfigError):
        RunConfig(model=ModelSpec("xy", 3), formats=("csv", "pdf"))
    with pytest.raises(ConfigError):
        RunConfig(model=ModelSpec("xy", 3), variant="nonstandard")


def test_config_round_trip():
    config = RunConfig(
        model=ModelSpec("heisenberg", 4, couplings={"J": 0.5}),
        order=3,
        optimizer=OptimizerOptions(seed=11, multi_start=2),
        t_max=50.0,
        t_points=21,
        table_t=5.0,
        formats=("json",),
    )
    again = RunConfig.from_dict(config.to_dict())
    assert again == config
    assert again.config_hash() == config.config_hash()


def test_config_rejects_unknown_keys():
    d = RunConfig(model=ModelSpec("xy", 3)).to_dict()
    d["typo"] = 1
    with pytest.raises(ConfigError):
        RunConfig.from_dict(d)
    d.pop("typo")
    d["optimizer"]["momentum"] = 0.9
    with pytest.raises(ConfigError):
        RunConfig.from_dict(d)


def test_hash_ignores_output_routing():
    base = RunConfig(model=ModelSpec("xy", 3))
    moved = replace(base, output_dir="elsewhere", formats=("svg",))
    assert moved.config_hash() == base.config_hash()


def test_hash_tracks_result_fields():
    base = RunConfig(model=ModelSpec("xy", 3))
    seen = {base.config_hash()}
    for other in (
        replace(base, order=3),
        replace(base, t_max=100.0),
        replace(base, t_points=51),
        replace(base, table_t=10.0),
        replace(base, optimizer=OptimizerOptions(seed=8)),
        replace(base, model=ModelSpec("xy", 4)),
        replace(base, variant="paper"),
    ):
        h = other.config_hash()
        assert h not in seen
        seen.add(h)


def test_run_dir_prefixed_by_hash(tmp_path):
    config = xy_config(tmp_path)
    assert config.run_dir().name == config.config_hash()[:12]


# ---------------------------------------------------------------- decompose

def test_decompose_record_contents(xy_record):
    config, record = xy_record
    assert record.config_hash == config.config_hash()
    assert record.dla_dim == record.split_dims["k"] + record.split_dims["h"] + record.split_dims["mtilde"]
    assert record.parameter_count == record.split_dims["k"]
    assert len(record.theta_star) == record.parameter_count
    assert record.converged
    assert record.residual_rel < 1e-6
    assert record.version == "1"
    assert set(record.timings_ms) >= {"generate_dla", "cartan_split", "optimize", "extract_h0"}
    counters = record.optimizer_counters
    assert set(counters) == set(COUNTERS)
    assert counters["cost_evals"] >= record.iterations and counters["forward_reuses"] >= 1
    assert record.cost_trace.array.shape == (record.iterations + 1, 3)  # rows 0..iterations
    assert record.decomposed and record.residual_rel <= DECOMPOSED_TOL
    (start,) = record.starts  # the default single start
    assert start["outcome"] == "won" and start["decomposed"]
    assert start["residual_rel"] == record.residual_rel
    assert (start["seed"], start["iterations"]) == (config.optimizer.seed, record.iterations)


def test_records_without_counters_or_starts_do_not_load(xy_record, tmp_path):
    # every record states its counters, starts and decomposed flag; none is
    # filled in on load
    config, record = xy_record
    for key in ("optimizer_counters", "starts", "decomposed"):
        doc = json.loads((config.run_dir() / "record.json").read_text())
        del doc[key]
        path = tmp_path / f"no_{key}.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ConfigError, match=key):
            verify(path)


def test_abelian_model_runs_on_its_own_qubit_count(tmp_path):
    # xy n=2 has an abelian DLA, so K is the identity on the model's 4 states
    record = run_error_curve(RunConfig(model=ModelSpec("xy", 2), order=1, output_dir=str(tmp_path)))
    assert record.parameter_count == 0
    assert max(record.curve_errors) <= 1e-12 and record.error_at_table_t <= 1e-12


def test_decompose_persists_artifacts(xy_record):
    config, record = xy_record
    run_dir = config.run_dir()
    assert (run_dir / "record.json").exists()
    trace = (run_dir / "cost_trace.csv").read_text().splitlines()
    assert trace[0] == "iteration,cost,normalized_cost,grad_inf_norm"
    assert len(trace) == len(record.cost_trace) + 1
    assert trace[1].split(",")[0] == "0"
    # cost / normalized_cost is the fixed scale ||v|| * ||H|| on every row
    ratios = {
        round(float(c) / float(nc), 9)
        for _, c, nc, _ in (row.split(",") for row in trace[1:])
        if float(nc) != 0.0
    }
    assert len(ratios) == 1


def test_record_round_trip(xy_record):
    config, record = xy_record
    loaded = RunRecord.load(config.run_dir() / "record.json")
    assert loaded == record
    assert json.dumps(loaded.to_dict(), sort_keys=True) == json.dumps(record.to_dict(), sort_keys=True)


def test_cost_trace_compares_every_entry(xy_record):
    _, record = xy_record
    rows = [list(row) for row in record.cost_trace]
    assert CostTrace(rows) == record.cost_trace and all(type(row[0]) is int for row in rows)
    rows[-1][1] = float(np.nextafter(rows[-1][1], np.inf))  # one ulp
    assert CostTrace(rows) != record.cost_trace


def test_reruns_are_bit_identical(tmp_path):
    a = run_error_curve(xy_config(tmp_path / "a"))
    b = run_error_curve(xy_config(tmp_path / "b"))
    assert a.config_hash == b.config_hash
    assert a.theta_star == b.theta_star
    assert a.cost_trace == b.cost_trace
    assert a.curve_errors == b.curve_errors


def test_stage_error_carries_stage_name(tmp_path, monkeypatch):
    config = xy_config(tmp_path)
    record = run_decompose(config)
    pipeline.LAST_PROBLEM.clear()

    def boom(terms):
        raise CapacityError("too big")

    monkeypatch.setattr(pipeline, "generate_dla", boom)
    for run in (
        lambda: run_decompose(config),
        lambda: run_error_curve(config, record),
        lambda: verify(config.run_dir() / "record.json"),
    ):
        with pytest.raises(CapacityError) as err:
            run()
        assert err.value.stage == "generate_dla"


def test_one_build_per_configuration(tmp_path, monkeypatch):
    calls = Counter()
    held = []  # builds the pipeline holds while it builds

    def spy(name):
        real = getattr(pipeline, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            held.append(len(pipeline.LAST_PROBLEM))
            return real(*args, **kwargs)

        return counted

    for name in ("generate_dla", "build_ansatz"):
        monkeypatch.setattr(pipeline, name, spy(name))
    config = xy_config(tmp_path, t_points=3)
    path = config.run_dir() / "record.json"
    run_error_curve(config, run_decompose(config))
    verify(path)
    assert calls == {"generate_dla": 1, "build_ansatz": 1}

    # another configuration in between drops the first build
    run_decompose(replace(config, order=2))
    verify(path)
    assert calls == {"generate_dla": 3, "build_ansatz": 3}
    assert held == [0] * 6 and len(pipeline.LAST_PROBLEM) == 1


def test_reused_build_gives_the_same_floats(tmp_path):
    config = xy_config(tmp_path, model=ModelSpec("tfim", 4), order=2, t_points=5)
    first = run_error_curve(config, run_decompose(config))
    reused = run_error_curve(config, run_decompose(config))  # the build the first run used
    pipeline.LAST_PROBLEM.clear()
    fresh = run_decompose(config)
    pipeline.LAST_PROBLEM.clear()
    fresh = run_error_curve(config, fresh)
    for record in (reused, fresh):
        assert record.theta_star == first.theta_star
        assert record.cost_trace == first.cost_trace
        assert record.curve_errors == first.curve_errors


# -------------------------------------------------------------------- curve

def test_curve_artifacts_and_values(xy_record):
    config, record = xy_record
    assert record.curve_ts[0] == 0.0
    assert record.curve_ts[-1] == config.t_max
    assert len(record.curve_ts) == config.t_points
    assert max(record.curve_errors) < 1e-6
    assert record.error_at_table_t < 1e-6
    run_dir = config.run_dir()
    lines = (run_dir / "curve.csv").read_text().splitlines()
    assert lines[0] == "t,error"
    assert len(lines) == config.t_points + 1
    svg = (run_dir / "curve.svg").read_text()
    assert svg.lstrip().startswith("<svg")


def test_curve_minimal_grid(tmp_path):
    record = run_error_curve(xy_config(tmp_path, t_points=2, formats=("json",)))
    assert record.curve_ts == [0.0, 200.0]


def test_curve_rejects_foreign_record(tmp_path, xy_record):
    _, record = xy_record
    other = xy_config(tmp_path, order=2)
    with pytest.raises(ConfigError):
        run_error_curve(other, record)


# ------------------------------------------------------------------- verify

def test_verify_accepts_fresh_record(xy_record):
    config, _ = xy_record
    record = verify(config.run_dir() / "record.json")
    assert record.converged


def test_verify_rejects_tampered_results(xy_record, tmp_path):
    config, record = xy_record
    doc = json.loads((config.run_dir() / "record.json").read_text())
    doc["residual_fro"] = 0.25
    path = tmp_path / "tampered.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(NumericalError):
        verify(path)


def test_verify_rejects_tampered_theta(xy_record, tmp_path):
    config, record = xy_record
    doc = json.loads((config.run_dir() / "record.json").read_text())
    doc["theta_star"][0] += 1e-3
    path = tmp_path / "tampered.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(NumericalError):
        verify(path)


def test_verify_rejects_edited_config(xy_record, tmp_path):
    config, record = xy_record
    doc = json.loads((config.run_dir() / "record.json").read_text())
    doc["config"]["order"] = 2  # hash no longer matches
    path = tmp_path / "tampered.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(NumericalError):
        verify(path)


TFIM_ORDER3 = (
    Path(__file__).resolve().parents[1]
    / benchmark_configs((ModelSpec("tfim", 4),), (3,), output_dir="runs/benchmark")[0].run_dir()
    / "record.json"
)


def test_verify_rejects_a_flipped_decomposed_flag(xy_record, tmp_path):
    config, _ = xy_record
    # the xy record decomposes; tfim n=4 order 3 stops at residual_rel 7e-2
    for source, stored in ((config.run_dir() / "record.json", True), (TFIM_ORDER3, False)):
        doc = json.loads(source.read_text())
        assert doc["decomposed"] is stored
        doc["decomposed"] = not stored
        path = tmp_path / "record.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(NumericalError, match="decomposed"):
            verify(path)


def _add_seven(doc):
    doc["factor_counts"] = {kind: c + 7 for kind, c in doc["factor_counts"].items()}


def _drop_quad_key(doc):
    del doc["factor_counts"]["quad"]


def _add_three(doc):
    doc["parameter_count"] += 3


@pytest.mark.parametrize(
    "edits, field",
    [
        ((_add_seven, _add_three), "factor_counts"),
        ((_add_seven,), "factor_counts"),
        ((_drop_quad_key,), "factor_counts"),
        ((_add_three,), "parameter_count"),
    ],
)
def test_verify_rejects_a_stored_ansatz_shape_the_builder_does_not_make(tmp_path, edits, field):
    doc = json.loads(TFIM_ORDER3.read_text())
    assert (doc["config"]["model"]["name"], doc["config"]["order"]) == ("tfim", 3)
    for edit in edits:
        edit(doc)
    path = tmp_path / "record.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(NumericalError, match=field):
        verify(path)


def test_records_from_before_the_five_optimizer_fields_do_not_load(tmp_path):
    # records written while OptimizerOptions had eleven fields carry these six
    doc = json.loads(TFIM_ORDER3.read_text())
    opt = doc["config"]["optimizer"]
    doc["config"]["optimizer"] = {
        "grad_mode": "analytic", "fd_step": 1e-06, "tol_grad_inf": opt["tol_grad_inf"],
        "max_iters": opt["max_iters"], "armijo_c1": 0.0001, "backtrack_rho": 0.5, "wolfe_c2": 0.9,
        "line_search": "armijo", "seed": opt["seed"], "init_scale": opt["init_scale"],
        "multi_start": opt["multi_start"],
    }
    path = tmp_path / "record.json"
    path.write_text(json.dumps(doc))
    removed = ["armijo_c1", "backtrack_rho", "fd_step", "grad_mode", "line_search", "wolfe_c2"]
    with pytest.raises(ConfigError, match=re.escape(f"unknown optimizer keys: {removed}")):
        verify(path)


def test_verify_unreadable_record(tmp_path):
    with pytest.raises(ConfigError):
        verify(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError):
        verify(bad)


# ---------------------------------------------------------------- benchmark

def test_benchmark_small_grid(tmp_path):
    configs = benchmark_configs(
        specs=(ModelSpec("xy", 3),),
        orders=(1, 2),
        output_dir=str(tmp_path),
        t_points=5,
    )
    table = run_benchmark(configs)
    rows = table["rows"]
    assert [(r["model"], r["order"]) for r in rows] == [("xy", 1), ("xy", 2)]
    assert rows[0]["trend"] == "baseline"
    assert rows[1]["trend"] in ("improved", "matched", "regressed")
    assert all(r["error"] is None for r in rows)
    lines = (tmp_path / "benchmark.csv").read_text().splitlines()
    assert lines[0] == BENCHMARK_COLUMNS
    assert lines[0] == "model,order,n,error_at_t,converged,decomposed,residual,dla_dim,iters,wall_ms"
    assert all(r["decomposed"] for r in rows)
    assert len(lines) == 3
    doc = json.loads((tmp_path / "benchmark.json").read_text())
    assert doc["columns"] == BENCHMARK_COLUMNS.split(",")


@pytest.mark.parametrize(
    "error, baseline",
    [
        (1.1177997465877316e-13, 5.5347360854149464e-14),  # tfim o2: ratio 2.02
        (3.2041201208909786e-14, 6.627097106751074e-14),  # tfxy o2: ratio 0.48
        (4.185081248965729e-14, 1.8096919593151183e-13),  # heisenberg o2: ratio 0.23
    ],
)
def test_trend_at_the_floor_is_matched(error, baseline):
    assert trend_mark(2, error, baseline) == "matched"


def test_trend_above_the_floor_compares_ratios():
    assert trend_mark(1, 0.3, 0.3) == "baseline"
    assert trend_mark(3, None, 1e-13) == trend_mark(3, 1e-13, None) == "unavailable"
    assert trend_mark(2, 0.04, 0.1) == "improved"
    assert trend_mark(2, 0.15, 0.1) == "matched"
    assert trend_mark(4, 0.44, 0.1) == "regressed"
    assert trend_mark(2, 1e-12, 1e-10) == "improved"  # 9.9e-11 apart, past VERIFY_TOL


def test_benchmark_cell_failure_recorded_in_cell(tmp_path, monkeypatch):
    real = pipeline.run_error_curve

    def flaky(config, record=None):
        if config.order == 2:
            raise NumericalError("synthetic cell failure")
        return real(config, record)

    monkeypatch.setattr(pipeline, "run_error_curve", flaky)
    configs = benchmark_configs(
        specs=(ModelSpec("xy", 3),),
        orders=(1, 2, 3),
        output_dir=str(tmp_path),
        t_points=5,
    )
    table = run_benchmark(configs)
    rows = {r["order"]: r for r in table["rows"]}
    assert rows[1]["error"] is None
    assert rows[3]["error"] is None  # the run continued past the failure
    assert "synthetic cell failure" in rows[2]["error"]
    assert rows[2]["error_at_t"] is None
    assert rows[2]["trend"] == "unavailable"
    lines = (tmp_path / "benchmark.csv").read_text().splitlines()
    assert len(lines) == 4  # failed cell still emits a row


def test_benchmark_default_grid_shape():
    configs = benchmark_configs()
    assert len(configs) == len(default_benchmark_specs()) * 4
    assert all(c.optimizer.multi_start >= 2 for c in configs)
    names = {c.model.name for c in configs}
    assert names == {"tfim", "xy", "tfxy", "heisenberg", "kitaev_even", "kitaev_odd"}


def test_benchmark_rejects_empty():
    with pytest.raises(ConfigError):
        run_benchmark([])


# --------------------------------------------------------------- cost trace

def test_cost_trace_summary(tmp_path):
    config = xy_config(tmp_path, formats=("csv", "svg"))
    summary = run_cost_trace(config, orders=(1, 2))
    assert sorted(summary) == [1, 2]
    for info in summary.values():
        assert info["converged"]
        assert info["iterations"] >= 1
        assert info["final_normalized_cost"] <= 0.0
    assert (tmp_path / "cost_trace_xy.svg").exists()


def test_cost_trace_rejects_empty_orders(tmp_path):
    with pytest.raises(ConfigError):
        run_cost_trace(xy_config(tmp_path), orders=())


# ------------------------------------------------------------------ scaling

def test_scaling_default_pair(tmp_path):
    out = run_scaling_check(output_dir=str(tmp_path))
    slopes = {row["order"]: row["slope"] for row in out["slopes"]}
    for order, expect in [(1, 2.0), (2, 3.0), (3, 4.0), (4, 5.0)]:
        assert abs(slopes[order] - expect) < 0.25
    assert abs(out["trotter"]["slope_uncorrected"] - 1.0) < 0.3
    assert abs(out["trotter"]["slope_corrected"] - 2.0) < 0.3
    lines = (tmp_path / "scaling.csv").read_text().splitlines()
    assert lines[0] == "series,slope,saturated"
    assert len(lines) == 7  # four orders + two trotter rows
    json.loads((tmp_path / "scaling.json").read_text())


def test_scaling_commuting_pair_saturates():
    a = AlgebraElement.from_label_dict({"XI": 1.0})
    b = AlgebraElement.from_label_dict({"IX": 1.0})
    out = run_scaling_check(a, b, orders=(1, 2))
    assert all(row["saturated"] for row in out["slopes"])


def test_scaling_requires_full_pair():
    a = AlgebraElement.from_label_dict({"X": 1.0})
    with pytest.raises(ConfigError):
        run_scaling_check(a, None)


def test_model_pair_splits_hamiltonian():
    from cartansim.models import build_model

    spec = ModelSpec("tfim", 4)
    a, b = model_pair(spec)
    assert (a + b).allclose(build_model(spec))
    terms_a = [p for p, _ in a.sorted_terms()]
    for i, p in enumerate(terms_a):
        for q in terms_a[i + 1:]:
            assert commutes(p, q)
    assert not bracket(a, b).is_zero()
