"""Cost/gradient correctness and BFGS behavior on standard test problems."""

import gc
import weakref

import numpy as np
import pytest

from cartansim import optimize
from cartansim.errors import ConfigError, NumericalError, StagnationError, StructuralError
from cartansim.lie import cartan_split, generate_dla
from cartansim.optimize import (
    COUNTERS,
    DECOMPOSED_TOL,
    OptimizerOptions,
    bfgs_minimize,
    extract_h0,
    initial_theta,
    make_cost_functions,
    make_target_v,
    normalized_cost,
    optimize_theta,
)
from cartansim.pauli import AlgebraElement, hs_inner, parse_label, to_dense
from cartansim.zassenhaus import build_ansatz, k_dense

from oracles import adjoint_K, cost, fd_grad_fn, fd_gradient, gradient


def strs(*labels):
    return [parse_label(l) for l in labels]


def tfim2_setup(order=2):
    terms = strs("XX", "ZI", "IZ")
    h = AlgebraElement.from_label_dict({"XX": 1.0, "ZI": 1.0, "IZ": 1.0})
    dla = generate_dla(terms)
    split = cartan_split(dla, terms)
    ansatz = build_ansatz(list(split.k_basis), order=order)
    v = make_target_v(list(split.h_basis))
    return h, dla, split, ansatz, v


def residual_fn_of(engine, h, split):
    """The relative residual ||K H K^dag - h0|| / ||H||, as run_decompose passes it."""
    return lambda th: extract_h0(engine, th, h, split.h_basis)[1] / h.norm()


def never_decomposed(th):
    return 1.0


def double_well_cost(th):
    # seeded draws at init_scale 1.5 land in two basins: seeds 1-4 at
    # x = -1.05745 (cost -0.515), seeds 0 and 5 at x = 0.93040 (cost 0.483)
    x = float(th[0])
    return (x * x - 1.0) ** 2 + 0.5 * x


def double_well_grad(th):
    x = float(th[0])
    return np.array([4.0 * x * (x * x - 1.0) + 0.5])


# ---------------------------------------------------------------- target v

def test_make_target_v_coefficients():
    v1 = make_target_v(strs("XX"))
    assert v1.gammas == (pytest.approx(1 / np.pi),)
    v2 = make_target_v(strs("XX", "YY"))
    assert v2.gammas == (pytest.approx(1 / np.pi), pytest.approx(1 / np.pi**2))
    v3 = make_target_v(strs("ZI", "IZ", "ZZ"))
    mags = sorted(abs(g) for g in v3.gammas)
    assert all(b - a > 1e-12 for a, b in zip(mags, mags[1:]))
    with pytest.raises(StructuralError):
        make_target_v([])


def test_cost_at_theta_zero_is_trace_overlap():
    h, _, _, ansatz, v = tfim2_setup()
    f0 = cost(ansatz, np.zeros(ansatz.parameter_count), v, h)
    assert f0 == pytest.approx(4 / np.pi)  # 2^2 * (1/pi) * 1 on the XX overlap
    assert f0 == pytest.approx(hs_inner(v.element, h))


def test_cost_matches_dense_trace():
    rng = np.random.default_rng(3)
    h, dla, split, ansatz, v = tfim2_setup(order=2)
    for _ in range(10):
        theta = rng.uniform(-1, 1, size=ansatz.parameter_count)
        u = k_dense(ansatz, theta)
        dense_f = np.trace(u.conj().T @ to_dense(v.element) @ u @ to_dense(h)).real
        assert cost(ansatz, theta, v, h) == pytest.approx(dense_f, abs=1e-10)


def test_engine_cost_matches_reference():
    rng = np.random.default_rng(4)
    h, dla, split, ansatz, v = tfim2_setup(order=3)
    cost_fn, grad_fn, _ = make_cost_functions(ansatz, dla.strings, v, h)
    for _ in range(10):
        theta = rng.uniform(-1, 1, size=ansatz.parameter_count)
        assert cost_fn(theta) == pytest.approx(cost(ansatz, theta, v, h), abs=1e-11)


# ---------------------------------------------------------------- gradients

@pytest.mark.parametrize("order", [1, 2, 3])
def test_analytic_gradient_matches_fd(order):
    rng = np.random.default_rng(50 + order)
    h, dla, split, ansatz, v = tfim2_setup(order=order)
    for _ in range(20):
        theta = rng.uniform(-0.5, 0.5, size=ansatz.parameter_count)
        ga = gradient(ansatz, theta, v, h)
        gf = gradient(ansatz, theta, v, h, fd_step=1e-6)
        assert np.max(np.abs(ga - gf)) < 1e-6


def test_gradient_vanishes_for_commuting_direction():
    # K = exp(i theta X) commutes with v = H = X, so f is constant
    ansatz = build_ansatz(strs("X"), order=1)
    h = AlgebraElement.from_label_dict({"X": 1.0})
    v = make_target_v(strs("X"))
    g = gradient(ansatz, np.array([0.3]), v, h)
    assert abs(g[0]) < 1e-12


def test_engine_gradient_matches_fd_of_engine_cost():
    rng = np.random.default_rng(8)
    h, dla, split, ansatz, v = tfim2_setup(order=4)
    cost_fn, grad_fn, _ = make_cost_functions(ansatz, dla.strings, v, h)
    for _ in range(10):
        theta = rng.uniform(-0.5, 0.5, size=ansatz.parameter_count)
        assert np.max(np.abs(grad_fn(theta) - fd_gradient(cost_fn, theta, 1e-6))) < 1e-6


# ---------------------------------------------------------------- options

def test_optimizer_options_validation():
    with pytest.raises(ConfigError):
        OptimizerOptions(max_iters=0)
    with pytest.raises(ConfigError):
        OptimizerOptions(multi_start=0)


def test_initial_theta_deterministic_and_bounded():
    opts = OptimizerOptions(seed=123, init_scale=0.01)
    a = initial_theta(6, opts)
    b = initial_theta(6, opts)
    assert np.array_equal(a, b)
    assert np.max(np.abs(a)) <= 0.01
    assert np.any(a != 0.0)


# ---------------------------------------------------------------- bfgs

def test_bfgs_quadratic_bowl():
    center = np.array([1.5, -2.0, 0.25])

    def f(th):
        return float(np.sum((th - center) ** 2))

    def g(th):
        return 2.0 * (th - center)

    result = bfgs_minimize(f, g, np.zeros(3), OptimizerOptions(tol_grad_inf=1e-9))
    assert result.converged
    assert result.iterations <= 30
    assert np.max(np.abs(result.theta_star - center)) < 1e-8


def test_bfgs_rosenbrock():
    def f(th):
        x, y = th
        return float((1 - x) ** 2 + 100 * (y - x * x) ** 2)

    def g(th):
        x, y = th
        return np.array([-2 * (1 - x) - 400 * x * (y - x * x), 200 * (y - x * x)])

    result = bfgs_minimize(
        f, g, np.array([-1.2, 1.0]), OptimizerOptions(tol_grad_inf=1e-8, max_iters=1000)
    )
    assert result.converged
    assert np.max(np.abs(result.theta_star - 1.0)) < 1e-5


def test_bfgs_trace_is_monotone_and_recorded():
    def f(th):
        return float(np.sum(th**2) + 0.1 * np.sum(th**4))

    def g(th):
        return 2 * th + 0.4 * th**3

    result = bfgs_minimize(f, g, np.full(4, 2.0), OptimizerOptions(tol_grad_inf=1e-9))
    costs = [row[1] for row in result.cost_trace]
    assert all(b <= a for a, b in zip(costs, costs[1:]))
    assert result.cost_trace[0][0] == 0
    assert [row[0] for row in result.cost_trace] == list(range(len(costs)))


def test_bfgs_zero_parameters_converges_immediately():
    result = bfgs_minimize(lambda th: 3.14, lambda th: np.zeros(0), np.zeros(0))
    assert result.converged and result.iterations == 0


def test_bfgs_nonfinite_cost_raises_numerical():
    with pytest.raises(NumericalError) as info:
        bfgs_minimize(lambda th: float("nan"), lambda th: np.ones(1), np.zeros(1))
    assert info.value.iteration == 0


def test_bfgs_lying_gradient_stagnates():
    # a spike bottom: every move raises the cost, while the reported
    # gradient is a constant lie, so no acceptance tier can ever fire
    def spiky(th):
        return 0.0 if np.array_equal(th, np.zeros(2)) else 1.0

    with pytest.raises(StagnationError) as info:
        bfgs_minimize(spiky, lambda th: np.ones(2), np.zeros(2))
    assert info.value.iteration == 1
    assert np.array_equal(info.value.theta, np.zeros(2))


def test_bfgs_determinism_on_pipeline_cost():
    h, dla, split, ansatz, v = tfim2_setup(order=2)
    opts = OptimizerOptions(seed=7)
    cost_fn, grad_fn, _ = make_cost_functions(ansatz, dla.strings, v, h)
    runs = []
    for _ in range(2):
        theta0 = initial_theta(ansatz.parameter_count, opts)
        runs.append(bfgs_minimize(cost_fn, grad_fn, theta0, opts))
    assert np.array_equal(runs[0].theta_star, runs[1].theta_star)
    assert runs[0].cost_trace == runs[1].cost_trace


def test_optimize_theta_single_start_matches_bfgs():
    h, dla, split, ansatz, v = tfim2_setup(order=2)
    opts = OptimizerOptions(seed=7)
    cost_fn, grad_fn, engine = make_cost_functions(ansatz, dla.strings, v, h)
    direct = bfgs_minimize(cost_fn, grad_fn, initial_theta(ansatz.parameter_count, opts), opts)
    wrapped = optimize_theta(cost_fn, grad_fn, ansatz.parameter_count, residual_fn_of(engine, h, split), opts)
    assert np.array_equal(direct.theta_star, wrapped.theta_star)
    assert direct.cost_trace == wrapped.cost_trace
    assert [s["outcome"] for s in wrapped.starts] == ["won"]


def test_optimize_theta_restart_takes_lower_cost():
    # a deliberately multi-modal cost: seeded draws land in different basins,
    # and among starts tied on residual (none decomposes) the restart driver
    # must keep the genuinely lower cost
    singles = []
    for seed in (0, 1, 2, 3):
        opts = OptimizerOptions(seed=seed, init_scale=1.5)
        singles.append(bfgs_minimize(double_well_cost, double_well_grad, initial_theta(1, opts), opts).final_cost)
    assert max(singles) - min(singles) > 0.5  # both basins are actually visited
    opts = OptimizerOptions(seed=0, init_scale=1.5, multi_start=4)
    multi = optimize_theta(double_well_cost, double_well_grad, 1, never_decomposed, opts)
    assert multi.final_cost == pytest.approx(min(singles), abs=1e-9)
    assert multi.theta_star[0] == pytest.approx(-1.05745, abs=1e-3)


def test_lower_residual_beats_lower_cost():
    # neither start decomposes; the first ends at the lower cost but the
    # larger residual (tfxy n=4 order 4: 6.3e-2 against 1.8e-3), and loses
    def residual_fn(th):
        return 6.3e-2 if th[0] < 0 else 1.8e-3

    opts = OptimizerOptions(seed=4, init_scale=1.5, multi_start=2)
    result = optimize_theta(double_well_cost, double_well_grad, 1, residual_fn, opts)
    assert result.theta_star[0] == pytest.approx(0.93040, abs=1e-3)
    lost, won = result.starts
    assert lost["final_cost"] < won["final_cost"]
    assert (lost["outcome"], lost["residual_rel"]) == ("lost", 6.3e-2)
    assert (won["outcome"], won["residual_rel"], won["seed"]) == ("won", 1.8e-3, 5)
    assert not lost["decomposed"] and not won["decomposed"]


def counting_bfgs(monkeypatch):
    """Count optimize_theta's calls of bfgs_minimize, keeping their results."""
    calls = []
    real = optimize.bfgs_minimize

    def bfgs(*args, **kwargs):
        calls.append(real(*args, **kwargs))
        return calls[-1]

    monkeypatch.setattr(optimize, "bfgs_minimize", bfgs)
    return calls


def test_first_decomposed_start_ends_the_retry(monkeypatch):
    h, dla, split, ansatz, v = tfim2_setup(order=2)
    cost_fn, grad_fn, engine = make_cost_functions(ansatz, dla.strings, v, h)
    calls = counting_bfgs(monkeypatch)
    opts = OptimizerOptions(seed=7, multi_start=3)
    result = optimize_theta(cost_fn, grad_fn, ansatz.parameter_count, residual_fn_of(engine, h, split), opts)
    assert len(calls) == 1
    assert result.counters == calls[0].counters
    assert np.array_equal(result.theta_star, calls[0].theta_star)
    (start,) = result.starts
    assert start["outcome"] == "won" and start["decomposed"] and start["seed"] == 7
    assert start["residual_rel"] <= DECOMPOSED_TOL
    assert start["iterations"] == result.iterations and start["final_cost"] == result.final_cost


def test_undecomposed_first_start_runs_the_second(monkeypatch):
    h, dla, split, ansatz, v = tfim2_setup(order=2)
    cost_fn, grad_fn, _ = make_cost_functions(ansatz, dla.strings, v, h)
    residuals = iter([0.5, 0.0])
    calls = counting_bfgs(monkeypatch)
    opts = OptimizerOptions(seed=7, multi_start=3)
    result = optimize_theta(cost_fn, grad_fn, ansatz.parameter_count, lambda th: next(residuals), opts)
    assert len(calls) == 2  # the second start decomposes, so the third never runs
    assert np.array_equal(result.theta_star, calls[1].theta_star)
    assert [(s["seed"], s["outcome"], s["decomposed"]) for s in result.starts] == [
        (7, "lost", False),
        (8, "won", True),
    ]
    for name in COUNTERS:
        assert result.counters[name] == calls[0].counters[name] + calls[1].counters[name]


def test_stalled_start_is_summarized_and_skipped(monkeypatch):
    calls = counting_bfgs(monkeypatch)
    counted = optimize.bfgs_minimize

    def stall_first(cost_fn, grad_fn, theta0, options):
        if options.seed == 0:
            err = StagnationError("synthetic stall")
            err.iteration, err.counters = 3, {"cost_evals": 5}
            raise err
        return counted(cost_fn, grad_fn, theta0, options)

    monkeypatch.setattr(optimize, "bfgs_minimize", stall_first)
    opts = OptimizerOptions(seed=0, init_scale=1.5, multi_start=2)
    result = optimize_theta(double_well_cost, double_well_grad, 1, never_decomposed, opts)
    stalled, won = result.starts
    assert stalled == {
        "seed": 0, "iterations": 3, "final_cost": None, "residual_rel": None,
        "decomposed": False, "outcome": "stalled",
    }
    assert (won["seed"], won["outcome"]) == (1, "won")
    assert result.counters["cost_evals"] == 5 + calls[0].counters["cost_evals"]


def test_counters_tally_calls_and_sum_over_starts():
    h, dla, split, ansatz, v = tfim2_setup(order=2)
    cost_fn, grad_fn, _ = make_cost_functions(ansatz, dla.strings, v, h)
    opts = OptimizerOptions(seed=7, multi_start=2)
    singles = [
        bfgs_minimize(cost_fn, grad_fn, initial_theta(ansatz.parameter_count, o), o)
        for o in (opts, OptimizerOptions(seed=8))
    ]
    # no start decomposes, so both run and the counters sum over both
    multi = optimize_theta(cost_fn, grad_fn, ansatz.parameter_count, never_decomposed, opts)
    assert set(multi.counters) == set(COUNTERS)
    for name in COUNTERS:
        assert multi.counters[name] == sum(r.counters[name] for r in singles)
    assert 0 < multi.counters["forward_reuses"] <= multi.counters["grad_evals"]

    # plain wrappers hide the lanes and the memo's count: every Hessian
    # gradient is one call, and no reuse is reported although the memo hits
    calls = {"cost": 0, "grad": 0}

    def cost(th):
        calls["cost"] += 1
        return cost_fn(th)

    def grad(th):
        calls["grad"] += 1
        return grad_fn(th)

    hits = grad_fn.forward_reuses
    wrapped = optimize_theta(cost, grad, ansatz.parameter_count, never_decomposed, opts)
    assert np.array_equal(wrapped.theta_star, multi.theta_star)
    assert calls["cost"] == wrapped.counters["cost_evals"] == multi.counters["cost_evals"]
    assert calls["grad"] == wrapped.counters["grad_evals"]
    assert wrapped.counters["forward_reuses"] == 0
    assert grad_fn.forward_reuses - hits == multi.counters["forward_reuses"]


def test_closures_free_their_engine_without_the_cycle_collector():
    h, dla, split, ansatz, v = tfim2_setup(order=2)
    cost_fn, grad_fn, engine = make_cost_functions(ansatz, dla.strings, v, h)
    theta = initial_theta(ansatz.parameter_count, OptimizerOptions())
    cost_fn(theta)
    grad_fn(theta)
    grad_fn.lanes(np.array([theta, -theta]))
    assert grad_fn.forward_reuses == 1
    ref = weakref.ref(engine)
    gc.disable()
    try:
        del cost_fn, grad_fn, engine
        assert ref() is None  # nothing holds the engine in a reference cycle
    finally:
        gc.enable()


def test_fd_gradients_report_no_forward_reuse():
    h, dla, split, ansatz, v = tfim2_setup()
    cost_fn, _, _ = make_cost_functions(ansatz, dla.strings, v, h)
    res = bfgs_minimize(cost_fn, fd_grad_fn(cost_fn), initial_theta(ansatz.parameter_count, OptimizerOptions()))
    assert res.counters["grad_evals"] > 0 and res.counters["forward_reuses"] == 0


def test_counters_on_a_stalled_start():
    def spiky(th):
        return 0.0 if np.array_equal(th, np.zeros(2)) else 1.0

    grads = []

    def grad(th):
        grads.append(np.array(th))
        return np.ones(2)

    with pytest.raises(StagnationError) as info:
        bfgs_minimize(spiky, grad, np.zeros(2))
    c = info.value.counters
    # one backtracking run, a steepest-descent retry with the metric reset,
    # then a polish on a zero Hessian, whose 2m differenced gradients count
    assert c["metric_resets"] == 1 and c["polish_attempts"] == c["polish_failures"] == 1
    assert c["backtracks"] == 2 * 60  # every trial of both searches is rejected
    assert c["grad_evals"] == len(grads) >= 1 + 2 * 2
    # both polish directions are zero: a trial step that lands back on theta
    # is tried once, not once per backtrack
    assert sum(np.array_equal(g, np.zeros(2)) for g in grads) <= 1 + 2


def test_optimize_theta_propagates_when_all_starts_fail():
    def bad_cost(th):
        return float("nan")

    def zero_grad(th):
        return np.zeros_like(np.asarray(th, dtype=float))

    with pytest.raises(NumericalError):
        optimize_theta(bad_cost, zero_grad, 2, never_decomposed, OptimizerOptions(multi_start=3))


# ---------------------------------------------------------------- h0

def test_extract_h0_identity_case():
    h, dla, split, ansatz, v = tfim2_setup()
    _, _, engine = make_cost_functions(ansatz, dla.strings, v, h)
    h_in_span = AlgebraElement.from_label_dict({"XX": 0.7, "YY": -0.1})
    h0, residual = extract_h0(engine, np.zeros(ansatz.parameter_count), h_in_span, split.h_basis)
    assert h0 == h_in_span and residual == 0.0


def test_extract_h0_pythagoras_and_engine_agreement():
    rng = np.random.default_rng(21)
    h, dla, split, ansatz, v = tfim2_setup(order=3)
    _, _, engine = make_cost_functions(ansatz, dla.strings, v, h)
    for _ in range(10):
        theta = rng.uniform(-1, 1, size=ansatz.parameter_count)
        e = adjoint_K(ansatz, theta, h, side="k_e_kdag")
        h0 = e.restricted(split.h_basis)
        residual = (e - h0).norm()
        assert hs_inner(h0, h0) + residual**2 == pytest.approx(hs_inner(h, h), abs=1e-10)
        h0e, residual_e = extract_h0(engine, theta, h, split.h_basis)
        assert hs_inner(h0e, h0e) + residual_e**2 == pytest.approx(hs_inner(h, h), abs=1e-10)
        assert h0e.allclose(h0, tol=1e-11)
        assert residual_e == pytest.approx(residual, abs=1e-11)


def test_normalized_cost_scale():
    h, dla, split, ansatz, v = tfim2_setup()
    f0 = cost(ansatz, np.zeros(ansatz.parameter_count), v, h)
    norm = normalized_cost(f0, v, h)
    assert norm == pytest.approx(f0 / (v.element.norm() * h.norm()))
    assert abs(norm) <= 1.0 + 1e-12  # Cauchy-Schwarz for the trace overlap
