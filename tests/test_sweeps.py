"""The engine's chunked one-point sweeps, lane sweeps and reused forward
sweeps give the very floats of the one-vector reference kernels: every
comparison here is exact equality.  The sweeps' memory and the benchmark
tracer's hooks on the engine are checked here too."""

import importlib.util
import tracemalloc
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

from cartansim import (
    CompiledAdjoint,
    DimensionError,
    ModelSpec,
    RunConfig,
    TargetV,
    default_benchmark_specs,
)
from cartansim import adjoint
from cartansim.optimize import _fd_hessian, make_cost_functions
from cartansim.pauli import parse_label
from cartansim.pipeline import build_problem
from cartansim.zassenhaus import build_ansatz

from oracles import fd_grad_fn, reference_conjugate, reference_cost_and_grad

GRID = [(spec, order) for spec in default_benchmark_specs() for order in (1, 2, 3, 4)]


def grid_id(cell):
    spec, order = cell
    return f"{spec.name}-n{spec.n}-o{order}"


@lru_cache(maxsize=None)
def setup(spec, order):
    p = build_problem(RunConfig(model=spec, order=order))
    return p.h, p.dla, p.split, p.ansatz, p.v


def closures(spec, order):
    h, dla, _, ansatz, v = setup(spec, order)
    return make_cost_functions(ansatz, dla.strings, v, h)


def fresh_grad(spec, order, theta, v=None):
    """The gradient from a new engine, with no forward state to reuse."""
    h, dla, _, ansatz, target = setup(spec, order)
    engine = CompiledAdjoint(ansatz, dla.strings)
    v_vec = engine.vector((v or target).element)
    return engine.cost_and_grad(theta, v_vec, engine.vector(h))


def points(spec, order, count, seed=0):
    m = setup(spec, order)[3].parameter_count
    return np.random.default_rng(seed).uniform(-0.5, 0.5, size=(count, m))


TFIM = ModelSpec("tfim", 4)
HEIS = ModelSpec("heisenberg", 4)


@pytest.mark.parametrize("spec, order", [(TFIM, 2), (ModelSpec("tfxy", 4), 3), (HEIS, 1), (HEIS, 4)])
def test_gradient_after_cost_reuses_forward_exactly(spec, order):
    cost_fn, grad_fn, engine = closures(spec, order)
    v_vec = engine.vector(setup(spec, order)[4].element)
    h_vec = engine.vector(setup(spec, order)[0])
    for theta in points(spec, order, 3):
        f = cost_fn(theta)
        g = grad_fn(theta)
        f_fresh, g_fresh = fresh_grad(spec, order, theta)
        f_ref, g_ref = reference_cost_and_grad(engine, theta, v_vec, h_vec)
        assert f == f_fresh == f_ref
        assert np.array_equal(g, g_fresh) and np.array_equal(g, g_ref)


@pytest.mark.parametrize("spec, order", [(TFIM, 2), (HEIS, 4)])
def test_conjugate_equals_reference_steps(spec, order):
    h, dla, _, ansatz, _ = setup(spec, order)
    engine = CompiledAdjoint(ansatz, dla.strings)
    h_vec = engine.vector(h)
    for theta in points(spec, order, 2, seed=4):
        for side in ("kdag_e_k", "k_e_kdag"):
            assert np.array_equal(engine.conjugate(theta, h_vec, side), reference_conjugate(engine, theta, h_vec, side))


def mixed_engine(order):
    """An engine whose steps have 2 and 8 edges: su(2) on qubit 0 plus su(4)
    on qubits 1-2, rotated by one k-string of the first and four of the second."""
    pauli = "IXYZ"
    basis = [parse_label(a + "II") for a in "XYZ"]
    basis += [parse_label("I" + a + b) for a in pauli for b in pauli if a + b != "II"]
    ansatz = build_ansatz([parse_label(s) for s in ("YII", "IYI", "IXY", "IYZ", "IZY")], order)
    return CompiledAdjoint(ansatz, basis)


@pytest.mark.parametrize("lane_bytes", [1, 1 << 16])
@pytest.mark.parametrize("order", [1, 2])
def test_mixed_edge_counts_equal_the_references(monkeypatch, order, lane_bytes):
    monkeypatch.setattr(adjoint, "_LANE_BYTES", lane_bytes)
    engine = mixed_engine(order)
    ks = np.array([len(engine._edges[j].qa) for j in engine.sub_edge])
    assert set(ks.tolist()) == {2, 8} and np.any(ks[1:] != ks[:-1])
    rng = np.random.default_rng(order)
    v, h = rng.standard_normal((2, len(engine.basis)))
    for theta in rng.uniform(-0.5, 0.5, size=(3, engine.ansatz.parameter_count)):
        f, g = engine.cost_and_grad(theta, v, h)
        f_ref, g_ref = reference_cost_and_grad(engine, theta, v, h)
        assert f == f_ref and np.array_equal(g, g_ref)
        f_reused, g_reused = engine.cost_and_grad(theta, v, h, forward=engine.conjugate(theta, v))
        assert f_reused == f_ref and np.array_equal(g_reused, g_ref)
        for side in ("kdag_e_k", "k_e_kdag"):
            assert np.array_equal(engine.conjugate(theta, v, side), reference_conjugate(engine, theta, v, side))


def test_engine_and_sweep_memory_stay_small():
    # heisenberg n=4 order 4: 824 steps over 24 strings with 32 edges each
    h, dla, _, ansatz, target = setup(HEIS, 4)
    theta = points(HEIS, 4, 1)[0]
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        engine = CompiledAdjoint(ansatz, dla.strings)
        held = tracemalloc.get_traced_memory()[0] - before
        v_vec, h_vec = engine.vector(target.element), engine.vector(h)
        e = engine.conjugate(theta, v_vec)
        tracemalloc.reset_peak()
        inputs = tracemalloc.get_traced_memory()[0]
        engine.cost_and_grad(theta, v_vec, h_vec, forward=e)
        peak = tracemalloc.get_traced_memory()[1] - inputs
    finally:
        tracemalloc.stop()
    assert held <= 512 * 1024
    assert peak <= 256 * 1024


def load_tracing():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_tracer_finds_every_engine_hook():
    # perfbench's traced run wraps cost, cost_and_grad and conjugate and
    # reads sub_edge for the step count; none of them may go missing
    tracing = load_tracing()
    h, dla, _, ansatz, target = setup(TFIM, 3)
    theta = points(TFIM, 3, 1)[0]
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)
        engine = CompiledAdjoint(ansatz, dla.strings)
        engine.cost_and_grad(theta, engine.vector(target.element), engine.vector(h))
    finally:
        tracer.restore()
    assert tracer.absent == []
    assert tracer.counts["adjoint.sweeps"] == 1
    assert tracer.counts["adjoint.rotation_steps"] == len(ansatz.factors)


def test_stale_forward_state_is_recomputed():
    cost_fn, grad_fn, _ = closures(TFIM, 3)
    a, b = points(TFIM, 3, 2, seed=1)
    cost_fn(a)
    assert np.array_equal(grad_fn(b), fresh_grad(TFIM, 3, b)[1])

    # the memo keys on the point's bits, so an in-place edit is a new point
    theta = a.copy()
    cost_fn(theta)
    theta[0] += 1e-9
    assert np.array_equal(grad_fn(theta), fresh_grad(TFIM, 3, theta)[1])

    # closures for another target v keep their own forward state
    h, dla, _, ansatz, v = setup(TFIM, 3)
    other_v = TargetV(v.element * 3.0, v.h_basis, v.gammas)
    cost_other, grad_other, _ = make_cost_functions(ansatz, dla.strings, other_v, h)
    cost_fn(a)
    cost_other(b)
    assert np.array_equal(grad_fn(a), fresh_grad(TFIM, 3, a)[1])
    assert np.array_equal(grad_other(a), fresh_grad(TFIM, 3, a, v=other_v)[1])


def test_reused_state_with_wrong_shape_is_refused():
    _, _, engine = closures(TFIM, 1)
    pts = points(TFIM, 1, 2)
    v_vec = np.zeros(len(engine.basis))
    with pytest.raises(DimensionError, match="single theta"):
        engine.cost_and_grad(pts, v_vec, v_vec, forward=v_vec)
    with pytest.raises(DimensionError, match="expected"):
        engine.cost_and_grad(pts[:0], v_vec, v_vec)


@pytest.mark.parametrize("cell", GRID, ids=grid_id)
def test_lane_gradients_equal_single_points(cell):
    spec, order = cell
    h, _, _, _, v = setup(spec, order)
    _, _, engine = closures(spec, order)
    v_vec, h_vec = engine.vector(v.element), engine.vector(h)
    pts = points(spec, order, 3, seed=order)
    f_lanes, g_lanes = engine.cost_and_grad(pts, v_vec, h_vec)
    assert g_lanes.shape == pts.shape and f_lanes.shape == (3,)
    for theta, f, g in zip(pts, f_lanes, g_lanes):
        f_one, g_one = engine.cost_and_grad(theta, v_vec, h_vec)
        f_ref, g_ref = reference_cost_and_grad(engine, theta, v_vec, h_vec)
        assert f == f_one == f_ref
        assert np.array_equal(g, g_one) and np.array_equal(g, g_ref)


@pytest.mark.parametrize("spec, order", [(TFIM, 4), (ModelSpec("kitaev_odd", 5), 2), (HEIS, 2)])
def test_lane_hessian_equals_column_loop(spec, order):
    _, grad_fn, _ = closures(spec, order)
    assert grad_fn.lanes is not None
    theta = points(spec, order, 1, seed=5)[0]

    def columns_only(th):  # the same gradients, without the lanes entry point
        return grad_fn(th)

    assert np.array_equal(_fd_hessian(grad_fn, theta, 1e-6), _fd_hessian(columns_only, theta, 1e-6))


def test_plain_callables_keep_the_column_loop():
    center = np.array([0.5, -1.0, 2.0])
    hess = _fd_hessian(lambda th: 2.0 * (th - center) + th**3, np.zeros(3), 1e-4)
    assert np.allclose(hess, 2.0 * np.eye(3), atol=1e-7)
    # a finite-difference gradient has no lanes; its Hessian runs column by
    # column and agrees with the lanes Hessian of the analytic gradient
    cost_fn, grad_fn, _ = closures(TFIM, 1)
    fd_grad = fd_grad_fn(cost_fn)
    assert not hasattr(fd_grad, "lanes")
    theta = points(TFIM, 1, 1)[0]
    assert np.allclose(_fd_hessian(fd_grad, theta, 1e-3), _fd_hessian(grad_fn, theta, 1e-3), atol=1e-5)


@pytest.mark.parametrize("lane_bytes", [1, 20_000, 1 << 40])
def test_lane_chunks_give_the_same_floats(monkeypatch, lane_bytes):
    monkeypatch.setattr(adjoint, "_LANE_BYTES", lane_bytes)
    h, _, _, _, v = setup(TFIM, 4)
    _, _, engine = closures(TFIM, 4)
    v_vec, h_vec = engine.vector(v.element), engine.vector(h)
    pts = points(TFIM, 4, 7, seed=3)
    f_lanes, g_lanes = engine.cost_and_grad(pts, v_vec, h_vec)
    for theta, f, g in zip(pts, f_lanes, g_lanes):
        f_one, g_one = engine.cost_and_grad(theta, v_vec, h_vec)
        assert f == f_one and np.array_equal(g, g_one)
