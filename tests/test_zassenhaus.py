"""Ansatz construction, analytic conjugation, and dense agreement."""

import numpy as np
import pytest
import scipy.linalg

from cartansim.adjoint import CompiledAdjoint
from cartansim.errors import ConfigError, DimensionError, ResourceLimitError, StructuralError
from cartansim.lie import cartan_split, generate_dla
from cartansim.models import build_model, default_benchmark_specs
from cartansim import pauli
from cartansim.pauli import AlgebraElement, parse_label, sort_strings, string_dense, to_dense
from cartansim.zassenhaus import build_ansatz, k_dense, truncation_coefficients

from oracles import adjoint_K, conjugate_by_factor, dense_generators, factor_coeff, k_dense_oracle, random_label


def strs(*labels):
    return [parse_label(l) for l in labels]


def random_element(rng, n, nterms=3):
    return AlgebraElement.from_label_dict(
        {random_label(rng, n): float(rng.normal()) for _ in range(nterms)}, n
    )


def dense_k_oracle(ansatz, theta):
    """Independent product of scipy expm's over the factors."""
    dim = 2**ansatz.n
    out = np.eye(dim, dtype=complex)
    for f in ansatz.factors:
        out = out @ scipy.linalg.expm(1j * factor_coeff(f, theta) * f.weight * string_dense(f.string))
    return out


# ------------------------------------------------------------ coefficients

def test_truncation_coefficients_tables():
    assert truncation_coefficients(2) == {("A", "B"): -0.5}
    t3 = truncation_coefficients(3)
    assert t3[("A", "A", "B")] == pytest.approx(1 / 6)
    assert t3[("B", "A", "B")] == pytest.approx(1 / 3)
    t4 = truncation_coefficients(4)
    assert t4 == {
        ("A", "A", "A", "B"): pytest.approx(-1 / 24),
        ("B", "A", "A", "B"): pytest.approx(-3 / 24),
        ("B", "B", "A", "B"): pytest.approx(-3 / 24),
    }
    t3p = truncation_coefficients(3, variant="paper")
    assert t3p[("B", "A", "B")] == pytest.approx(1 / 6)
    assert set(truncation_coefficients(4, variant="paper")) == {
        ("A", "A", "A", "B"),
        ("A", "B", "B", "A"),
        ("B", "B", "B", "A"),
    }
    with pytest.raises(ConfigError):
        truncation_coefficients(5)
    with pytest.raises(ConfigError):
        truncation_coefficients(2, variant="mystery")


# ------------------------------------------------------------ construction

def test_tfim_k_basis_has_no_pair_factors():
    ansatz = build_ansatz(strs("XY", "YX"), order=2)
    counts = ansatz.factor_counts()
    assert counts["linear"] == 2 and counts["pair"] == 0


def test_xy_pair_factor_frozen():
    # k = {X, Y}: pair factor is exp(i * (-t1*t2/2) * (-2 Z)) = exp(i t1 t2 Z)
    ansatz = build_ansatz(strs("X", "Y"), order=2)
    assert [f.kind for f in ansatz.factors] == ["linear", "linear", "pair"]
    pair = ansatz.factors[2]
    assert pair.scale == -0.5
    assert (pair.string.label, pair.weight) == ("Z", -2.0)
    theta = np.array([0.3, -0.7])
    assert ansatz.angles(theta)[2] == pytest.approx(-2.0 * 0.5 * 0.3 * 0.7)


def test_order_one_is_linear_only():
    ansatz = build_ansatz(strs("X", "Y", "Z"), order=1)
    assert all(f.kind == "linear" for f in ansatz.factors)
    assert ansatz.parameter_count == 3


def test_order_nesting_prefix_property():
    basis = strs("XY", "YX", "YI", "IY")
    previous = build_ansatz(basis, order=1)
    for order in (2, 3, 4):
        current = build_ansatz(basis, order=order)
        assert current.factors[: len(previous.factors)] == previous.factors
        previous = current


def test_factor_count_bound_order_two():
    basis = strs("XY", "YX", "YI", "IY")
    d = len(basis)
    ansatz = build_ansatz(basis, order=2)
    assert len(ansatz.factors) <= d + d * (d - 1) // 2


def test_triple_generators_are_in_span_of_k_for_closed_basis():
    # k of the TFIM n=3 DLA is bracket-closed, so every correction
    # generator must stay inside it
    dla = generate_dla(strs("XXI", "IXX", "ZII", "IZI", "IIZ"))
    k = [p for p in dla.strings if p.y_count % 2]
    ansatz = build_ansatz(k, order=4)
    k_set = set(k)
    for f in ansatz.factors:
        assert f.string in k_set


def test_build_ansatz_validation():
    with pytest.raises(ConfigError):
        build_ansatz(strs("X"), order=0)
    with pytest.raises(ConfigError):
        build_ansatz(strs("X"), order=5)
    with pytest.raises(ConfigError):
        build_ansatz(strs("X"), order=2, variant="nope")
    with pytest.raises(StructuralError):
        build_ansatz(strs("X", "XX"), order=1)


def test_empty_k_basis_gives_identity_ansatz():
    ansatz = build_ansatz([], order=3)
    assert ansatz.parameter_count == 0 and ansatz.factors == ()
    assert np.allclose(k_dense(ansatz, np.zeros(0)), np.eye(2))
    ansatz = build_ansatz([], order=1, n=3)
    assert ansatz.n == 3 and np.array_equal(k_dense(ansatz, np.zeros(0)), np.eye(8))
    with pytest.raises(StructuralError):
        build_ansatz(strs("XX"), order=1, n=3)


# ------------------------------------------------------------ conjugation

def test_conjugate_by_factor_frozen_rotation():
    # exp(i phi X) Z exp(-i phi X) = cos(2 phi) Z + sin(2 phi) Y
    z = AlgebraElement.from_label_dict({"Z": 1.0})
    phi = 0.37
    out = conjugate_by_factor(z, parse_label("X"), 1.0, phi, direction=1)
    assert out.coeff(parse_label("Z")) == pytest.approx(np.cos(2 * phi))
    assert out.coeff(parse_label("Y")) == pytest.approx(np.sin(2 * phi))


def test_conjugate_by_factor_identity_cases():
    e = AlgebraElement.from_label_dict({"ZZ": 0.8, "XI": -0.2})
    p = parse_label("ZI")
    assert conjugate_by_factor(e, p, 1.0, 0.0) == e
    commuting = AlgebraElement.from_label_dict({"ZZ": 1.0})
    assert conjugate_by_factor(commuting, p, 1.0, 0.9) == commuting


def test_conjugate_by_factor_matches_dense():
    rng = np.random.default_rng(7)
    for _ in range(60):
        n = int(rng.integers(1, 4))
        p = parse_label(random_label(rng, n))
        w = float(rng.normal())
        e = random_element(rng, n)
        phi = float(rng.normal())
        direction = 1 if rng.random() < 0.5 else -1
        got = conjugate_by_factor(e, p, w, phi, direction)
        u = scipy.linalg.expm(1j * direction * phi * w * string_dense(p))
        want = u @ to_dense(e) @ u.conj().T
        assert np.max(np.abs(to_dense(got) - want)) < 1e-12


def test_conjugate_by_factor_contract_errors():
    e = AlgebraElement.from_label_dict({"Z": 1.0})
    with pytest.raises(ConfigError):
        conjugate_by_factor(e, parse_label("X"), 1.0, 0.1, direction=2)


# ------------------------------------------------------------ adjoint vs dense

BASES = [strs("X", "Y"), strs("XY", "YX", "YI"), strs("XY", "YX", "YI", "IY")]


def test_adjoint_theta_zero_is_identity():
    ansatz = build_ansatz(strs("X", "Y"), order=3)
    e = AlgebraElement.from_label_dict({"Z": 0.4, "X": -1.1})
    assert adjoint_K(ansatz, np.zeros(2), e) == e


@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_adjoint_matches_dense_conjugation(order):
    rng = np.random.default_rng(100 + order)
    for basis in BASES:
        ansatz = build_ansatz(basis, order=order)
        n = ansatz.n
        for _ in range(8):
            theta = rng.uniform(-0.8, 0.8, size=ansatz.parameter_count)
            e = random_element(rng, n)
            u = k_dense(ansatz, theta)
            got = to_dense(adjoint_K(ansatz, theta, e, side="kdag_e_k"))
            want = u.conj().T @ to_dense(e) @ u
            assert np.max(np.abs(got - want)) < 1e-10
            got2 = to_dense(adjoint_K(ansatz, theta, e, side="k_e_kdag"))
            want2 = u @ to_dense(e) @ u.conj().T
            assert np.max(np.abs(got2 - want2)) < 1e-10


def test_adjoint_round_trip_restores_element():
    rng = np.random.default_rng(41)
    ansatz = build_ansatz(strs("XY", "YX", "YI"), order=3)
    for _ in range(10):
        theta = rng.uniform(-1, 1, size=3)
        e = random_element(rng, 2)
        inner = adjoint_K(ansatz, theta, e, side="kdag_e_k")
        back = adjoint_K(ansatz, theta, inner, side="k_e_kdag")
        assert back.allclose(e, tol=1e-10)


def test_adjoint_argument_validation():
    ansatz = build_ansatz(strs("X", "Y"), order=2)
    e = AlgebraElement.from_label_dict({"Z": 1.0})
    with pytest.raises(DimensionError):
        adjoint_K(ansatz, np.zeros(3), e)
    with pytest.raises(ConfigError):
        adjoint_K(ansatz, np.zeros(2), e, side="sideways")


# ------------------------------------------------------------ dense K

def test_k_dense_identity_and_closed_form():
    ansatz = build_ansatz(strs("X"), order=1)
    assert np.allclose(k_dense(ansatz, np.zeros(1)), np.eye(2))
    phi = 0.81
    got = k_dense(ansatz, np.array([phi]))
    want = np.array([[np.cos(phi), 1j * np.sin(phi)], [1j * np.sin(phi), np.cos(phi)]])
    assert np.allclose(got, want, atol=1e-14)


@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_k_dense_unitary_and_matches_expm_oracle(order):
    rng = np.random.default_rng(200 + order)
    for basis in BASES:
        ansatz = build_ansatz(basis, order=order)
        for _ in range(5):
            theta = rng.uniform(-1.2, 1.2, size=ansatz.parameter_count)
            u = k_dense(ansatz, theta)
            assert np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0]))) < 1e-10
            assert np.max(np.abs(u - dense_k_oracle(ansatz, theta))) < 1e-10


GRID_SPECS = default_benchmark_specs()


@pytest.fixture(scope="module")
def grid_k_bases():
    bases = {}
    for spec in GRID_SPECS:
        terms = [p for p, _ in build_model(spec).sorted_terms()]
        bases[spec.name] = cartan_split(generate_dla(terms), terms).k_basis
    return bases


@pytest.mark.parametrize("order", [1, 2, 3, 4])
@pytest.mark.parametrize("name", [spec.name for spec in GRID_SPECS])
def test_k_dense_matches_matmul_oracle_on_grid_models(grid_k_bases, name, order):
    ansatz = build_ansatz(grid_k_bases[name], order=order)
    theta = np.random.default_rng(order).uniform(-1.2, 1.2, size=ansatz.parameter_count)
    u = k_dense(ansatz, theta)
    assert u.dtype == np.float64
    assert np.max(np.abs(u - k_dense_oracle(ansatz, theta))) < 1e-13


def assert_factors_are_dense_brackets(basis, order):
    ansatz = build_ansatz(basis, order=order)
    want = dense_generators([p.label for p in basis], order)
    # same factors in the same order: every omitted bracket is exactly zero
    assert [(f.kind, f.indices) for f in ansatz.factors] == [(kind, idx) for kind, idx, _ in want]
    for f, (_, _, g) in zip(ansatz.factors, want):
        assert f.weight == int(f.weight)
        assert np.array_equal(f.weight * string_dense(f.string), g), (f.kind, f.indices)


@pytest.mark.parametrize("order", [1, 2, 3, 4])
@pytest.mark.parametrize("name", [spec.name for spec in GRID_SPECS])
def test_factors_equal_dense_nested_commutators_on_grid_models(grid_k_bases, name, order):
    assert_factors_are_dense_brackets(grid_k_bases[name], order)


@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_factors_equal_dense_nested_commutators_on_test_bases(order):
    for basis in BASES:
        assert_factors_are_dense_brackets(basis, order)


# ------------------------------------------------------------ factor program

@pytest.mark.parametrize("order", [1, 2, 3, 4])
@pytest.mark.parametrize("name", [spec.name for spec in GRID_SPECS])
def test_factor_program_on_grid_models(grid_k_bases, name, order):
    ansatz = build_ansatz(grid_k_bases[name], order=order)
    assert len(set(ansatz.strings)) == len(ansatz.strings)
    assert [ansatz.strings[j] for j in ansatz.string_ids] == [f.string for f in ansatz.factors]
    rng = np.random.default_rng(order)
    theta = rng.uniform(-1.2, 1.2, size=ansatz.parameter_count)
    want = [factor_coeff(f, theta) * f.weight for f in ansatz.factors]
    # one vectorized product against a factor's running product: a few ulps apart
    assert np.allclose(ansatz.angles(theta), want, rtol=8 * np.finfo(float).eps, atol=0)
    # angle_grad is J^T dphi of angles; every monomial is at most quadratic in
    # one theta_i, so central differences are exact up to rounding
    dphi = rng.standard_normal(len(ansatz.factors))
    step = 1e-4
    want_grad = [
        (ansatz.angles(theta + step * e) - ansatz.angles(theta - step * e)) @ dphi / (2 * step)
        for e in np.eye(ansatz.parameter_count)
    ]
    got = ansatz.angle_grad(theta, dphi)
    assert np.allclose(got, want_grad, rtol=1e-8, atol=1e-8 * np.abs(dphi).sum())


def test_factor_program_stays_out_of_equality_and_hash():
    basis = strs("XY", "YX", "YI", "IY")
    a, b = build_ansatz(basis, order=3), build_ansatz(basis, order=3)
    a.angle_grad(np.full(4, 0.3), a.angles(np.full(4, 0.3)))
    assert a.strings and len(a.string_ids) == len(a.factors)
    assert a == b and hash(a) == hash(b)
    assert {a: 1}[b] == 1


def test_angles_check_theta_shape():
    ansatz = build_ansatz(strs("X", "Y"), order=2)
    for bad in (np.zeros(3), np.zeros((1, 2)), np.zeros(0)):
        with pytest.raises(DimensionError, match="expected"):
            ansatz.angles(bad)
    with pytest.raises(DimensionError):
        k_dense(ansatz, np.zeros(3))


def test_engine_compiles_one_edge_block_per_string():
    basis = strs("XY", "YX", "YI", "IY")
    ansatz, engine = engine_setup(basis, 4, [])
    assert len(engine._edges) == len(ansatz.strings) < len(ansatz.factors)
    assert np.array_equal(engine.sub_edge, ansatz.string_ids)


def test_k_dense_respects_cap(monkeypatch):
    monkeypatch.setattr(pauli, "DENSE_QUBIT_CAP", 2)
    ansatz = build_ansatz(strs("XYZ"), order=1)
    with pytest.raises(ResourceLimitError):
        k_dense(ansatz, np.zeros(1))


# ------------------------------------------------------------ compiled engine

def engine_setup(basis_strings, order, extra_support):
    ansatz = build_ansatz(basis_strings, order=order)
    seeds = sort_strings(set(basis_strings) | set(extra_support))
    dla = generate_dla(seeds)
    return ansatz, CompiledAdjoint(ansatz, dla.strings)


@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_compiled_engine_matches_adjoint(order):
    rng = np.random.default_rng(300 + order)
    for basis in BASES:
        n = basis[0].n
        e = random_element(rng, n)
        ansatz, engine = engine_setup(basis, order, e.support())
        for _ in range(6):
            theta = rng.uniform(-1, 1, size=ansatz.parameter_count)
            for side in ("kdag_e_k", "k_e_kdag"):
                got = engine.element(engine.conjugate(theta, engine.vector(e), side))
                want = adjoint_K(ansatz, theta, e, side)
                assert got.allclose(want, tol=1e-11)


def test_compiled_engine_rejects_open_basis():
    ansatz = build_ansatz(strs("X"), order=1)
    with pytest.raises(StructuralError):
        CompiledAdjoint(ansatz, strs("Z"))  # bb(X, Z) = -2Y missing


def test_compiled_engine_rejects_foreign_terms():
    ansatz = build_ansatz(strs("X"), order=1)
    engine = CompiledAdjoint(ansatz, strs("X", "Y", "Z"))
    with pytest.raises(StructuralError):
        engine.vector(AlgebraElement.from_label_dict({"XX": 1.0}, 2))
