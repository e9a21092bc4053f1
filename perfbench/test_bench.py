"""The benchmark's own test: its checks pass good outputs and catch bad
ones, and the traced mode survives names the program no longer has.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import copy

import numpy as np
import pytest

import run  # noqa: F401  (puts src/ on sys.path and fixes the BLAS threads)
import checks
import tracing
from cartansim import ModelSpec, OptimizerOptions, RunConfig, parse_label, string_dense
from cartansim import adjoint, pipeline
from cartansim.pipeline import run_decompose, run_error_curve, verify


def _cell(tmp_path, model: str, order: int):
    config = RunConfig(
        model=ModelSpec(model, 4),
        order=order,
        optimizer=OptimizerOptions(multi_start=2),
        t_max=25.0,
        t_points=5,
        table_t=18.5,
        output_dir=str(tmp_path),
    )
    run_error_curve(config, run_decompose(config))
    return config, verify(config.run_dir() / "record.json")


@pytest.fixture(scope="module")
def tfim_cell(tmp_path_factory):
    return _cell(tmp_path_factory.mktemp("runs"), "tfim", 2)


def test_label_matrices_match_the_program():
    for label in ("XYZI", "YYXZ", "ZIZY"):
        rows, ph = checks.monomial(label)
        p = np.zeros((16, 16), dtype=complex)
        p[rows, np.arange(16)] = ph
        assert np.array_equal(p, string_dense(parse_label(label)))


def test_good_cell_passes(tfim_cell):
    config, stored = tfim_cell
    assert checks.check_cell(config, stored) == []


def test_perturbed_theta_is_caught(tfim_cell, tmp_path):
    config, stored = tfim_cell
    bad = copy.deepcopy(stored)
    bad.theta_star[0] += 1e-3
    problems = checks.check_cell(config, bad)
    assert any(kind == "wrong" for kind, _ in problems), problems
    # and the program's own verify rejects the corrupted file
    path = tmp_path / "record.json"
    bad.save(path)
    with pytest.raises(Exception, match="residual"):
        verify(path)


def test_edited_h0_is_caught(tfim_cell):
    config, stored = tfim_cell
    bad = copy.deepcopy(stored)
    bad.h0[0]["coefficient"] += 1e-3
    kinds = {kind for kind, _ in checks.check_cell(config, bad)}
    assert kinds == {"wrong"}


def test_wrong_reported_error_is_caught(tfim_cell):
    config, stored = tfim_cell
    bad = copy.deepcopy(stored)
    bad.error_at_table_t = 1e-6
    assert any(kind == "wrong" for kind, _ in checks.check_cell(config, bad))


def test_stalled_cell_is_undecomposed_not_wrong(tmp_path):
    # tfim n=4 order 3 at optimizer seed 7: converged=True at residual 7e-2
    config, stored = _cell(tmp_path, "tfim", 3)
    problems = checks.check_cell(config, stored)
    assert [kind for kind, _ in problems] == ["undecomposed"], problems


def test_scaling_slopes():
    from cartansim import run_scaling_check

    report = run_scaling_check()
    assert checks.check_scaling(report) == []
    report["slopes"][2]["slope"] = 3.5
    assert len(checks.check_scaling(report)) == 1


def test_traced_cell_reports_every_layer_metric(tmp_path):
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        config, _ = _cell(tmp_path, "tfim", 2)
    finally:
        tracer.restore()
    assert pipeline.run_decompose is run_decompose  # unwrapped again
    metrics = tracing.layer_metrics(tracer, 1, 1.0)
    assert set(metrics) == set(tracing.LAYER_METRICS)
    assert metrics["evolution.points"]["value"] == 2 * (config.t_points + 1)
    assert metrics["optimize.self_s"]["value"] < metrics["optimize.optimize_theta_s"]["value"]


def test_traced_mode_tolerates_missing_names(monkeypatch):
    monkeypatch.delattr(adjoint.CompiledAdjoint, "conjugate")
    monkeypatch.delattr(pipeline, "k_dense")
    tracer = tracing.Tracer()
    tracing.install(tracer)
    tracer.restore()
    assert {"CompiledAdjoint.conjugate", "pipeline.k_dense"} <= set(tracer.absent)
    metrics = tracing.layer_metrics(tracer, 1, 1.0)
    assert "zassenhaus.k_dense_s" not in metrics and "adjoint.sweep_s" not in metrics
    assert "optimize.iterations" in metrics
