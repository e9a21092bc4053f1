"""End-to-end acceptance gate.

Nine checks, each printing one PASS line with its measured figures and a
single-core wall-clock budget.  Together they pin the package's
quantitative guarantees: exact string algebra against dense matrices,
Cartan structure for every shipped model, unitarity and adjoint fidelity
of the product ansatz, truncation-order and product-formula scaling,
end-to-end fixed-depth fidelity, the expansion-order comparison table,
optimizer behavior, and bit-level determinism of recorded runs.
"""

import time

import numpy as np
import pytest

from cartansim import (
    AlgebraElement,
    CompiledAdjoint,
    ModelSpec,
    OptimizerOptions,
    PauliString,
    RunConfig,
    bfgs_minimize,
    bracket,
    bracket_strings,
    build_ansatz,
    build_model,
    cartan_split,
    check_hamiltonian_in_m,
    commutes,
    generate_dla,
    hs_inner,
    k_dense,
    make_cost_functions,
    make_target_v,
    pauli_mul,
    require_valid_split,
    run_benchmark,
    run_error_curve,
    to_dense,
    trotter_sweep,
    truncation_slope,
    verify_cartan_relations,
)
from cartansim.pipeline import RunRecord, benchmark_configs
from oracles import fd_gradient, label_matrix

NUMERICAL_FLOOR = 1e-12  # dense 16x16 evolutions over t<=200 round at ~1e-13


def report(name, detail, elapsed, budget):
    assert elapsed < budget, f"{name} took {elapsed:.1f}s, budget {budget}s"
    print(f"PASS {name}: {detail} [{elapsed:.1f}s < {budget}s]")


# 1 ---------------------------------------------------------------------------

def test_exact_algebra_matches_dense():
    t0 = time.perf_counter()
    worst = 0.0
    pairs = 0
    for n in (1, 2, 3):
        strings = [PauliString(n, x, z) for x in range(2 ** n) for z in range(2 ** n)]
        dense = {s: label_matrix(s.label) for s in strings}
        for p in strings:
            dp = dense[p]
            ep = AlgebraElement.from_string(p)
            for q in strings:
                pairs += 1
                prod = dp @ dense[q]
                rho, r = pauli_mul(p, q)
                worst = max(worst, float(np.max(np.abs(prod - (1j ** rho) * dense[r]))))
                comm = -1j * (prod - dense[q] @ dp)
                hit = bracket_strings(p, q)
                if hit is None:
                    worst = max(worst, float(np.max(np.abs(comm))))
                else:
                    worst = max(worst, float(np.max(np.abs(comm - hit[0] * dense[hit[1]]))))
                inner = hs_inner(ep, AlgebraElement.from_string(q))
                worst = max(worst, abs(complex(np.trace(prod)) - inner))
    assert worst <= 1e-12
    report(
        "algebra vs dense",
        f"{pairs} string pairs (n<=3), products/brackets/inner products, max dev {worst:.2e} <= 1e-12",
        time.perf_counter() - t0, 10,
    )


# 2 ---------------------------------------------------------------------------

def test_cartan_validity_all_models():
    t0 = time.perf_counter()
    checked = []
    for spec in benchmark_specs_n4():
        h = build_model(spec)
        terms = [p for p, _ in h.sorted_terms()]
        dla = generate_dla(terms)
        check_hamiltonian_in_m(h)
        split = cartan_split(dla, terms)
        require_valid_split(split)
        rep = verify_cartan_relations(split)
        assert rep.ok, rep.summary()
        for i, p in enumerate(split.h_basis):
            for q in split.h_basis[i + 1:]:
                assert commutes(p, q), f"{spec.name}: h not abelian"
        for q in split.mtilde_basis:
            assert any(not commutes(q, p) for p in split.h_basis), (
                f"{spec.name}: {q} commutes with all of h; h not maximal"
            )
        checked.append(f"{spec.name}(n={spec.n})")
    report(
        "cartan validity",
        f"relations/abelian/maximal certified for {', '.join(checked)}",
        time.perf_counter() - t0, 30,
    )


def benchmark_specs_n4():
    return (
        ModelSpec("tfim", 4),
        ModelSpec("xy", 4),
        ModelSpec("tfxy", 4),
        ModelSpec("heisenberg", 4),
        ModelSpec("kitaev_even", 4),
        ModelSpec("kitaev_odd", 5),
    )


# 3 ---------------------------------------------------------------------------

def test_ansatz_unitarity_and_adjoint():
    t0 = time.perf_counter()
    specs = (
        ModelSpec("tfim", 4),
        ModelSpec("xy", 4),
        ModelSpec("tfxy", 4),
        ModelSpec("heisenberg", 4),
        ModelSpec("kitaev_even", 4),
        ModelSpec("kitaev_odd", 3),  # dense checks stay at n <= 4
    )
    eye = {n: np.eye(2 ** n) for n in (3, 4)}
    worst_u = 0.0
    worst_a = 0.0
    draws = 0
    for m_idx, spec in enumerate(specs):
        h = build_model(spec)
        terms = [p for p, _ in h.sorted_terms()]
        dla = generate_dla(terms)
        split = cartan_split(dla, terms)
        basis_dense = np.stack([label_matrix(s.label) for s in dla.strings])
        h_dense = to_dense(h)
        dim = 2 ** spec.n
        for order in (1, 2, 3, 4):
            ansatz = build_ansatz(split.k_basis, order)
            engine = CompiledAdjoint(ansatz, dla.strings)
            h_vec = engine.vector(h)
            rng = np.random.default_rng(1000 + 10 * m_idx + order)
            for _ in range(100):
                draws += 1
                theta = rng.uniform(-np.pi, np.pi, ansatz.parameter_count)
                u = k_dense(ansatz, theta)
                worst_u = max(worst_u, float(np.linalg.norm(u.conj().T @ u - eye[spec.n], 2)))
                got_vec = engine.conjugate(theta, h_vec, side="k_e_kdag")
                want_dense = u @ h_dense @ u.conj().T
                # coefficients of the dense conjugation in the string basis ...
                want_vec = np.einsum("kij,ji->k", basis_dense, want_dense).real / dim
                worst_a = max(worst_a, float(np.max(np.abs(got_vec - want_vec))))
                # ... and nothing of it outside that basis
                recon = np.tensordot(want_vec, basis_dense, axes=1)
                worst_a = max(worst_a, float(np.max(np.abs(recon - want_dense))))
    assert worst_u <= 1e-10
    assert worst_a <= 1e-10
    report(
        "ansatz unitarity/adjoint",
        f"{draws} random theta across 6 models x 4 orders: "
        f"max ||KdagK-I|| {worst_u:.2e}, max adjoint dev {worst_a:.2e} <= 1e-10",
        time.perf_counter() - t0, 120,
    )


# 4 ---------------------------------------------------------------------------

def test_truncation_order_scaling():
    t0 = time.perf_counter()
    a = AlgebraElement.from_label_dict({"X": 1.0})
    b = AlgebraElement.from_label_dict({"Z": 1.0})
    slopes = {}
    for order, want in [(1, 2.0), (2, 3.0), (3, 4.0), (4, 5.0)]:
        rep = truncation_slope(a, b, order)
        assert not rep.saturated
        assert abs(rep.slope - want) <= 0.25, f"order {order}: slope {rep.slope}"
        slopes[order] = rep.slope
    # order-2 error bounded by one constant times the squared commutator norm
    rep2 = truncation_slope(a, b, 2)
    comm_norm = float(np.linalg.norm(to_dense(bracket(a, b)), 2))
    ratios = [err / (s * s * comm_norm) ** 2 for s, err in rep2.points if err > 0]
    c_fit = max(ratios)
    assert np.isfinite(c_fit) and c_fit > 0
    for s, err in rep2.points:
        assert err <= c_fit * (s * s * comm_norm) ** 2 * (1 + 1e-12)
    report(
        "truncation order scaling",
        "slopes " + ", ".join(f"o{o}={s:.3f}" for o, s in slopes.items())
        + f" (targets 2,3,4,5 +-0.25); order-2 error <= {c_fit:.3g}*||[A,B]||^2 on the grid",
        time.perf_counter() - t0, 30,
    )


# 5 ---------------------------------------------------------------------------

def test_corrected_trotter_scaling():
    t0 = time.perf_counter()
    a = AlgebraElement.from_label_dict({"X": 1.0})
    b = AlgebraElement.from_label_dict({"Z": 1.0})
    sweep = trotter_sweep(a, b)  # t = 0.5, m in 1..64
    assert abs(sweep.slope_uncorrected - 1.0) <= 0.3
    assert abs(sweep.slope_corrected - 2.0) <= 0.3
    report(
        "corrected trotter",
        f"t={sweep.t}: error slopes in 1/m, uncorrected {sweep.slope_uncorrected:.3f} (~1), "
        f"corrected {sweep.slope_corrected:.3f} (~2), both +-0.3",
        time.perf_counter() - t0, 30,
    )


# 6 ---------------------------------------------------------------------------

def test_end_to_end_tfim_fidelity(tmp_path):
    t0 = time.perf_counter()
    config = RunConfig(model=ModelSpec("tfim", 4), order=2, output_dir=str(tmp_path))
    assert config.optimizer == OptimizerOptions()  # stock settings, single start
    record = run_error_curve(config)
    assert record.converged
    assert record.residual_rel < 1e-6
    max_err = max(record.curve_errors)
    assert max_err < 1e-6
    report(
        "end-to-end tfim fidelity",
        f"n=4 order 2 default optimizer: converged, residual/||H|| {record.residual_rel:.2e} < 1e-6, "
        f"max evolution error over [0,200] {max_err:.2e} < 1e-6",
        time.perf_counter() - t0, 300,
    )


# 7 ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def benchmark_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("acceptance_bench")
    t0 = time.perf_counter()
    table = run_benchmark(benchmark_configs(output_dir=str(out)))
    return table, out, time.perf_counter() - t0


def test_order_improvement_ordering(benchmark_run):
    table, _, elapsed = benchmark_run
    rows = {(r["model"], r["order"]): r for r in table["rows"]}
    assert len(rows) == 24
    details = []
    for model in ("tfim", "tfxy", "heisenberg"):
        r1, r2 = rows[(model, 1)], rows[(model, 2)]
        assert r1["converged"] and r2["converged"], f"{model}: order 1/2 not converged"
        e1, e2 = r1["error_at_t"], r2["error_at_t"]
        assert e2 <= 2 * e1 or e2 <= NUMERICAL_FLOOR, (
            f"{model}: order-2 error {e2:.2e} above order-1 {e1:.2e} beyond the noise band"
        )
        details.append(f"{model} {e1:.1e}->{e2:.1e}")
    for model in ("xy", "kitaev_even", "kitaev_odd"):
        e1 = rows[(model, 1)]["error_at_t"]
        for order in (2, 3, 4):
            r = rows[(model, order)]
            assert r["converged"], f"{model} order {order} not converged"
            e = r["error_at_t"]
            within_band = e1 / 2 <= e <= 2 * e1
            at_floor = e <= NUMERICAL_FLOOR and e1 <= NUMERICAL_FLOOR
            assert within_band or at_floor, (
                f"{model}: order-{order} error {e:.2e} not equal to order-1 {e1:.2e} within 2x"
            )
        details.append(f"{model} unchanged")
    report(
        "order-improvement ordering",
        f"24-cell benchmark at t=20: {'; '.join(details)}",
        elapsed, 900,
    )


# 8 ---------------------------------------------------------------------------

def test_optimizer_unit_suite(benchmark_run):
    t0 = time.perf_counter()
    center = np.array([1.5, -2.0, 0.25])
    bowl = bfgs_minimize(
        lambda th: float(np.sum((th - center) ** 2)),
        lambda th: 2.0 * (th - center),
        np.zeros(3),
        OptimizerOptions(tol_grad_inf=1e-9),
    )
    assert bowl.converged and bowl.iterations <= 30
    assert float(np.max(np.abs(bowl.theta_star - center))) <= 1e-8

    def rosen(th):
        x, y = th
        return float((1 - x) ** 2 + 100 * (y - x * x) ** 2)

    def rosen_grad(th):
        x, y = th
        return np.array([-2 * (1 - x) - 400 * x * (y - x * x), 200 * (y - x * x)])

    rb = bfgs_minimize(
        rosen, rosen_grad, np.array([-1.2, 1.0]),
        OptimizerOptions(tol_grad_inf=1e-8, max_iters=1000),
    )
    assert rb.converged
    assert float(np.max(np.abs(rb.theta_star - 1.0))) <= 1e-5

    _, out, _ = benchmark_run
    traces = 0
    for path in sorted(out.glob("*/record.json")):
        record = RunRecord.load(path)
        costs = [row[1] for row in record.cost_trace]
        assert all(b <= a for a, b in zip(costs, costs[1:])), f"NON-monotone trace in {path}"
        traces += 1
    assert traces >= 24

    worst_g = 0.0
    for name, order in (("tfim", 2), ("heisenberg", 2)):
        h = build_model(ModelSpec(name, 4))
        terms = [p for p, _ in h.sorted_terms()]
        dla = generate_dla(terms)
        split = cartan_split(dla, terms)
        ansatz = build_ansatz(split.k_basis, order)
        cost_fn, grad_fn, _ = make_cost_functions(ansatz, dla.strings, make_target_v(split.h_basis), h)
        rng = np.random.default_rng(90 + order)
        for _ in range(5):
            theta = rng.uniform(-0.5, 0.5, ansatz.parameter_count)
            diff = grad_fn(theta) - fd_gradient(cost_fn, theta, 1e-6)
            worst_g = max(worst_g, float(np.max(np.abs(diff))))
    assert worst_g <= 1e-6
    report(
        "optimizer unit suite",
        f"bowl {bowl.iterations} iters to 1e-8; rosenbrock to 1e-5; "
        f"{traces} recorded traces monotone; analytic-vs-fd gradient dev {worst_g:.2e} <= 1e-6",
        time.perf_counter() - t0, 60,
    )


# 9 ---------------------------------------------------------------------------

def test_determinism_bit_identical(tmp_path):
    t0 = time.perf_counter()
    first = run_error_curve(
        RunConfig(model=ModelSpec("tfim", 4), order=2, output_dir=str(tmp_path / "a"))
    )
    second = run_error_curve(
        RunConfig(model=ModelSpec("tfim", 4), order=2, output_dir=str(tmp_path / "b"))
    )
    assert first.config_hash == second.config_hash

    def bits(xs):
        return np.asarray(xs, dtype=float).tobytes()

    assert bits(first.theta_star) == bits(second.theta_star)
    assert bits([c for _, c, _ in first.cost_trace]) == bits([c for _, c, _ in second.cost_trace])
    assert bits(first.curve_errors) == bits(second.curve_errors)
    report(
        "determinism",
        f"hash {first.config_hash[:12]} reruns bit-identical in theta*, cost trace, error curve",
        time.perf_counter() - t0, 300,
    )
