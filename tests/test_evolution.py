import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from cartansim import (
    AlgebraElement,
    ConfigError,
    DimensionError,
    ModelSpec,
    ResourceLimitError,
    RunConfig,
    StructuralError,
    build_ansatz,
    build_model,
    cartan_split,
    error_curve,
    evolution,
    expm_hermitian,
    fixed_depth_evolution,
    generate_dla,
    k_dense,
    parse_label,
    run_decompose,
    spectral_norm,
    to_dense,
    trotter_step,
    trotter_sweep,
    truncation_slope,
    zassenhaus_product,
)
from cartansim.evolution import DEFAULT_S_GRID, ErrorCurve, exp_element
from oracles import dense_sum, error_curve_oracle, power_norm, random_label


def random_element(rng, n, k=3):
    terms = {}
    for _ in range(k):
        terms[random_label(rng, n)] = float(rng.uniform(-1, 1))
    return AlgebraElement.from_label_dict(terms, n)


# ------------------------------------------------------------ expm_hermitian

def test_expm_matches_scipy():
    rng = np.random.default_rng(11)
    for _ in range(20):
        n = int(rng.integers(1, 4))
        e = random_element(rng, n)
        t = float(rng.uniform(-2, 2))
        ours = expm_hermitian(e, t)
        ref = scipy.linalg.expm(-1j * to_dense(e) * t)
        assert np.max(np.abs(ours - ref)) < 1e-12


def test_expm_single_z():
    e = AlgebraElement.from_label_dict({"Z": 1.0})
    u = expm_hermitian(e, 0.7)
    assert np.allclose(np.diag(u), [np.exp(-0.7j), np.exp(0.7j)])
    assert abs(u[0, 1]) == 0.0 and abs(u[1, 0]) == 0.0


def test_expm_x_quarter_period():
    e = AlgebraElement.from_label_dict({"X": 1.0})
    u = expm_hermitian(e, np.pi / 2)
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    assert np.max(np.abs(u - (-1j) * x)) < 1e-12


def test_expm_accepts_dense_input():
    h = np.diag([1.0, -2.0]).astype(complex)
    u = expm_hermitian(h, 0.3)
    assert np.allclose(np.diag(u), [np.exp(-0.3j), np.exp(0.6j)])


def test_expm_is_unitary():
    rng = np.random.default_rng(12)
    e = random_element(rng, 3, k=5)
    u = expm_hermitian(e, 1.3)
    assert np.max(np.abs(u @ u.conj().T - np.eye(8))) < 1e-12


# ------------------------------------------------------------- spectral_norm

def test_spectral_norm_diagonal():
    assert spectral_norm(np.diag([3.0, -4.0])) == pytest.approx(4.0)


def test_spectral_norm_unitary_is_one():
    rng = np.random.default_rng(13)
    e = random_element(rng, 2)
    u = expm_hermitian(e, 0.9)
    assert spectral_norm(u) == pytest.approx(1.0, abs=1e-12)


def test_spectral_norm_against_power_iteration():
    rng = np.random.default_rng(14)
    for _ in range(10):
        m = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        assert spectral_norm(m) == pytest.approx(power_norm(m), rel=1e-8)


def test_spectral_norm_unitary_invariance():
    rng = np.random.default_rng(15)
    m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    u = expm_hermitian(random_element(rng, 2), 0.4)
    assert spectral_norm(u @ m) == pytest.approx(spectral_norm(m), rel=1e-10)


def test_spectral_norm_rejects_nonsquare():
    with pytest.raises(ConfigError):
        spectral_norm(np.ones((2, 3)))
    with pytest.raises(ConfigError):
        spectral_norm(np.ones((4, 2, 3)))
    with pytest.raises(ConfigError):
        spectral_norm(np.ones((2, 2, 3, 3)))


def test_spectral_norm_of_a_stack_is_the_block_diagonal_norm():
    rng = np.random.default_rng(16)
    stack = rng.normal(size=(3, 5, 5)) + 1j * rng.normal(size=(3, 5, 5))
    stack[1] *= 4.0  # the largest block norm is not the first block's
    assembled = scipy.linalg.block_diag(*stack)
    assert spectral_norm(stack) == pytest.approx(spectral_norm(assembled), rel=1e-12)
    assert spectral_norm(stack) == pytest.approx(power_norm(assembled), rel=1e-8)
    assert spectral_norm(stack[:1]) == spectral_norm(stack[0])


# --------------------------------------------------------------- exp_element

def test_exp_element_commuting_matches_expm():
    e = AlgebraElement.from_label_dict({"ZI": 0.7, "IZ": -0.4, "ZZ": 1.1})
    t = 0.83
    assert np.max(np.abs(exp_element(e, t) - expm_hermitian(e, t))) < 1e-12


def test_exp_element_noncommuting_matches_expm():
    e = AlgebraElement.from_label_dict({"X": 0.5, "Z": 0.25})
    t = 1.7
    assert np.max(np.abs(exp_element(e, t) - expm_hermitian(e, t))) < 1e-12


# ------------------------------------------------------ fixed_depth_evolution

def tfim2_decomposition():
    h = AlgebraElement.from_label_dict({"XX": 1.0, "ZI": 1.0, "IZ": 1.0})
    terms = [p for p, _ in h.sorted_terms()]
    dla = generate_dla(terms)
    split = cartan_split(dla, terms)
    return h, split


def test_fixed_depth_at_t_zero_is_identity():
    h, split = tfim2_decomposition()
    ansatz = build_ansatz(split.k_basis, order=2)
    theta = np.array([0.3, -0.2])
    kc = k_dense(ansatz, theta)
    h0 = AlgebraElement.from_label_dict({"XX": 0.5, "YY": -0.25})
    u = fixed_depth_evolution(kc, h0, 0.0)
    assert np.max(np.abs(u - np.eye(4))) < 1e-14


def test_fixed_depth_single_string_closed_form():
    h0 = AlgebraElement.from_label_dict({"ZZ": 0.6})
    kc = np.eye(4, dtype=complex)
    u = fixed_depth_evolution(kc, h0, 1.1)
    ref = scipy.linalg.expm(-1j * 0.6 * 1.1 * dense_sum({"ZZ": 1.0}))
    assert np.max(np.abs(u - ref)) < 1e-12


def test_fixed_depth_conjugation_order():
    # U must equal K^dag e^{-i h0 t} K, not the reverse conjugation
    h, split = tfim2_decomposition()
    ansatz = build_ansatz(split.k_basis, order=1)
    theta = np.array([0.4, 0.15])
    kc = k_dense(ansatz, theta)
    h0 = AlgebraElement.from_label_dict({"XX": 0.8, "YY": 0.3})
    u = fixed_depth_evolution(kc, h0, 0.9)
    ref = kc.conj().T @ scipy.linalg.expm(-1j * 0.9 * to_dense(h0)) @ kc
    assert np.max(np.abs(u - ref)) < 1e-12


def test_fixed_depth_rejects_noncommuting_core():
    kc = np.eye(2, dtype=complex)
    bad = AlgebraElement.from_label_dict({"X": 1.0, "Z": 1.0})
    with pytest.raises(StructuralError, match="commuting"):
        fixed_depth_evolution(kc, bad, 0.5)


# ----------------------------------------------------------------- error_curve

def sectors_used(monkeypatch, h, kc, h0, ts):
    """The (sectors, size) shape error_curve ran with, and its errors."""
    shapes = []
    sectors = evolution._sectors

    def spy(masks, dim):
        blocks = sectors(masks, dim)
        shapes.append(blocks.shape)
        return blocks

    monkeypatch.setattr(evolution, "_sectors", spy)
    errors = error_curve(h, kc, h0, ts).errors
    assert len(shapes) == 1
    return shapes[0], errors


def test_error_curve_exact_decomposition_is_flat(monkeypatch):
    # H = ZZ already commutes with itself: K = I, h0 = H reproduces e^{-iHt}.
    # Nothing moves a basis state, so every state is its own sector.
    h = AlgebraElement.from_label_dict({"ZZ": 1.0})
    shape, errors = sectors_used(monkeypatch, h, np.eye(4, dtype=complex), h, np.linspace(0, 10, 21))
    assert shape == (4, 1)
    assert errors.max() < 1e-10


def test_error_curve_t_zero_row():
    h, split = tfim2_decomposition()
    ansatz = build_ansatz(split.k_basis, order=2)
    theta = np.array([0.2, 0.1])
    kc = k_dense(ansatz, theta)
    h0 = AlgebraElement.from_label_dict({"XX": 0.4, "YY": 0.2})
    curve = error_curve(h, kc, h0, np.array([0.0, 1.0]))
    assert curve.errors[0] < 1e-12
    assert curve.rows()[0][0] == 0.0


def test_error_curve_reproducible():
    h, split = tfim2_decomposition()
    ansatz = build_ansatz(split.k_basis, order=2)
    theta = np.array([0.2, 0.1])
    kc = k_dense(ansatz, theta)
    h0 = AlgebraElement.from_label_dict({"XX": 0.4, "YY": 0.2})
    grid = np.linspace(0, 5, 11)
    c1 = error_curve(h, kc, h0, grid)
    c2 = error_curve(h, kc, h0, grid)
    assert np.array_equal(c1.errors, c2.errors)


def test_error_curve_matches_direct_norms():
    h, split = tfim2_decomposition()
    ansatz = build_ansatz(split.k_basis, order=2)
    theta = np.array([-0.3, 0.25])
    kc = k_dense(ansatz, theta)
    h0 = AlgebraElement.from_label_dict({"XX": 0.7, "YY": -0.1})
    grid = np.array([0.5, 2.0])
    curve = error_curve(h, kc, h0, grid)
    for t, err in curve.rows():
        exact = scipy.linalg.expm(-1j * to_dense(h) * t)
        approx = kc.conj().T @ scipy.linalg.expm(-1j * to_dense(h0) * t) @ kc
        assert err == pytest.approx(power_norm(exact - approx), rel=1e-8, abs=1e-12)


def model_split(name, n):
    h = build_model(ModelSpec(name, n))
    terms = [p for p, _ in h.sorted_terms()]
    return h, cartan_split(generate_dla(terms), terms)


def labels(e):
    return {p.label: c for p, c in e.items()}


ORACLE_TS = np.array([0.0, 0.37, 20.0, 123.4, 200.0])


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8])
@pytest.mark.parametrize("name", ["tfim", "xy"])
def test_error_curve_matches_matmul_oracle(name, n):
    # a generic K over the k-basis and a generic h0 over the Cartan subalgebra
    rng = np.random.default_rng(10 * n + len(name))
    h, split = model_split(name, n)
    ansatz = build_ansatz(split.k_basis, order=1)
    kc = k_dense(ansatz, rng.uniform(-1, 1, size=ansatz.parameter_count))
    h0 = AlgebraElement(n, {p: float(rng.normal()) for p in split.h_basis})
    got = error_curve(h, kc, h0, ORACLE_TS).errors
    want = error_curve_oracle(labels(h), kc, labels(h0), ORACLE_TS)
    assert np.max(np.abs(got - want)) < 1e-12


@pytest.mark.parametrize("name", ["tfim", "xy"])
def test_error_curve_matches_matmul_oracle_at_the_floor(name, tmp_path):
    # a found decomposition: every error is round-off, up to t = 200
    config = RunConfig(model=ModelSpec(name, 4), order=1, output_dir=str(tmp_path))
    record = run_decompose(config, persist=False)
    h, split = model_split(name, 4)
    kc = k_dense(build_ansatz(split.k_basis, order=1), np.asarray(record.theta_star))
    h0 = AlgebraElement.from_records(record.h0, n=4)
    got = error_curve(h, kc, h0, ORACLE_TS).errors
    want = error_curve_oracle(labels(h), kc, labels(h0), ORACLE_TS)
    assert got.max() < 1e-11
    assert np.max(np.abs(got - want)) < 1e-12


def test_error_curve_matches_matmul_oracle_off_the_real_path():
    # odd-Y terms make H complex and a generic K is complex unitary
    rng = np.random.default_rng(77)
    h = AlgebraElement.from_label_dict({"XYZ": 0.7, "ZZI": -0.4, "IYX": 0.9, "XXX": 0.3})
    kc = expm_hermitian(random_element(rng, 3, k=5), 1.3)
    h0 = AlgebraElement.from_label_dict({"ZZI": 0.5, "XXI": -0.8, "YYI": 0.2, "IIZ": 1.1})
    got = error_curve(h, kc, h0, ORACLE_TS).errors
    want = error_curve_oracle(labels(h), kc, labels(h0), ORACLE_TS)
    assert np.max(np.abs(got - want)) < 1e-12


def test_error_curve_rejects_mismatched_k():
    h, split = tfim2_decomposition()
    with pytest.raises(DimensionError):
        error_curve(h, np.eye(2, dtype=complex), h, np.array([1.0]))


def xor_span(masks):
    span = {0}
    for m in masks:
        span |= {s ^ m for s in span}
    return span


@pytest.mark.parametrize("dim", [1, 2, 16, 64])
def test_sectors_are_the_cosets_of_the_mask_span(dim):
    rng = np.random.default_rng(dim)
    for count in range(6):
        masks = [int(m) for m in rng.integers(0, dim, size=count)]
        span = xor_span(masks)
        blocks = evolution._sectors(masks, dim)
        assert blocks.shape == (dim // len(span), len(span))
        assert sorted(blocks.ravel().tolist()) == list(range(dim))
        for row in blocks.tolist():
            assert set(row) == {row[0] ^ s for s in span}


@pytest.mark.parametrize("dim", [1, 2, 8, 32])
def test_xor_masks_match_the_nonzero_entries(dim):
    rng = np.random.default_rng(dim)
    for density in (0.0, 0.05, 0.3, 1.0):
        a = (rng.random((dim, dim)) < density) * (rng.normal(size=(dim, dim)) + 1j)
        rows, cols = np.nonzero(a)
        want = np.zeros(dim, dtype=bool)
        want[rows ^ cols] = True
        assert np.array_equal(evolution._xor_masks(a), want)


def generic_k_and_h0(rng, split, n):
    ansatz = build_ansatz(split.k_basis, order=1, n=n)
    kc = k_dense(ansatz, rng.uniform(-1, 1, size=ansatz.parameter_count))
    return kc, AlgebraElement(n, {p: float(rng.normal()) for p in split.h_basis})


@pytest.mark.parametrize(
    "name,n",
    [("tfim", 4), ("xy", 4), ("tfxy", 4), ("heisenberg", 4), ("kitaev_even", 4), ("kitaev_odd", 5),
     ("kitaev_even", 8), ("xy", 9), ("kitaev_even", 10)],
)
def test_error_curve_runs_the_models_in_two_parity_sectors(name, n, monkeypatch):
    # every x-mask of H, of the k-basis and of h has even weight
    rng = np.random.default_rng(n)
    h, split = model_split(name, n)
    kc, h0 = generic_k_and_h0(rng, split, n)
    ts = ORACLE_TS if n <= 8 else np.array([20.0])  # the kron oracle is slow above dim 256
    shape, got = sectors_used(monkeypatch, h, kc, h0, ts)
    assert shape == (2, 2 ** (n - 1))
    if n <= 8:
        want = error_curve_oracle(labels(h), kc, labels(h0), ts)
        assert np.max(np.abs(got - want)) < 1e-12


def test_error_curve_abelian_xy_two_sites(monkeypatch):
    # the DLA is abelian: an empty k-basis, K = I and h0 = H
    h, split = model_split("xy", 2)
    assert split.k_basis == ()
    kc = k_dense(build_ansatz(split.k_basis, order=1, n=2), np.zeros(0))
    shape, got = sectors_used(monkeypatch, h, kc, h, ORACLE_TS)
    assert shape == (2, 2)
    assert got.max() < 1e-13
    assert np.max(np.abs(got - error_curve_oracle(labels(h), kc, labels(h), ORACLE_TS))) < 1e-12


def test_error_curve_generic_unitary_k_mixes_the_sectors(monkeypatch):
    rng = np.random.default_rng(78)
    h, split = model_split("tfim", 4)
    a = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
    kc = scipy.linalg.expm(-1j * (a + a.conj().T))
    h0 = AlgebraElement(4, {p: float(rng.normal()) for p in split.h_basis})
    shape, got = sectors_used(monkeypatch, h, kc, h0, ORACLE_TS)
    assert shape == (1, 16)
    assert np.max(np.abs(got - error_curve_oracle(labels(h), kc, labels(h0), ORACLE_TS))) < 1e-12


def test_error_curve_h0_strings_join_the_sectors(monkeypatch):
    # H and K are diagonal; only h0's XX moves a basis state, pairing 00-11 and 01-10
    h = AlgebraElement.from_label_dict({"ZZ": 1.0, "ZI": 0.6})
    h0 = AlgebraElement.from_label_dict({"XX": 0.8, "ZZ": 0.3})
    kc = np.eye(4, dtype=complex)
    shape, got = sectors_used(monkeypatch, h, kc, h0, ORACLE_TS)
    assert shape == (2, 2)
    assert got.max() > 0.1
    assert np.max(np.abs(got - error_curve_oracle(labels(h), kc, labels(h0), ORACLE_TS))) < 1e-12


# ---------------------------------------------------------- truncated product

def XZ_pair():
    a = AlgebraElement.from_label_dict({"X": 1.0})
    b = AlgebraElement.from_label_dict({"Z": 1.0})
    return a, b


def test_product_commuting_terms_is_exact():
    a = AlgebraElement.from_label_dict({"ZI": 1.0})
    b = AlgebraElement.from_label_dict({"IZ": 0.7})
    for order in (1, 2, 3, 4):
        prod = zassenhaus_product(a, b, order, 0.4)
        ref = scipy.linalg.expm(-1j * 0.4 * to_dense(a + b))
        assert np.max(np.abs(prod - ref)) < 1e-13


def test_product_scale_zero_is_identity():
    a, b = XZ_pair()
    assert np.max(np.abs(zassenhaus_product(a, b, 3, 0.0) - np.eye(2))) < 1e-14


def test_product_order_one_is_plain_split():
    a, b = XZ_pair()
    s = 0.3
    prod = zassenhaus_product(a, b, 1, s)
    ref = scipy.linalg.expm(-1j * s * to_dense(a)) @ scipy.linalg.expm(-1j * s * to_dense(b))
    assert np.max(np.abs(prod - ref)) < 1e-13


def test_product_rejects_bad_order():
    a, b = XZ_pair()
    with pytest.raises(ConfigError):
        zassenhaus_product(a, b, 5, 0.1)


def test_truncation_slopes_match_order():
    a, b = XZ_pair()
    expected = {1: 2.0, 2: 3.0, 3: 4.0, 4: 5.0}
    slopes = {}
    for order, want in expected.items():
        rep = truncation_slope(a, b, order)
        assert not rep.saturated
        assert rep.slope == pytest.approx(want, abs=0.25)
        slopes[order] = rep.slope
    # hierarchy: each additional correction visibly steepens the decay
    assert slopes[2] > slopes[1] + 0.6
    assert slopes[3] > slopes[2] + 0.6
    assert slopes[4] > slopes[3] + 0.6


def test_truncation_slope_two_qubit_pair():
    a = AlgebraElement.from_label_dict({"XX": 1.0})
    b = AlgebraElement.from_label_dict({"ZI": 0.9, "IZ": 0.7})
    rep = truncation_slope(a, b, 2)
    assert not rep.saturated
    assert rep.slope == pytest.approx(3.0, abs=0.25)


def test_truncation_saturated_for_commuting_pair():
    a = AlgebraElement.from_label_dict({"ZI": 1.0})
    b = AlgebraElement.from_label_dict({"IZ": 1.0})
    rep = truncation_slope(a, b, 2)
    assert rep.saturated
    assert rep.slope is None


def test_truncation_slope_needs_enough_points():
    a, b = XZ_pair()
    with pytest.raises(ConfigError):
        truncation_slope(a, b, 2, s_grid=(0.1, 0.2))


def test_paper_variant_stalls_at_third_order():
    # alternative coefficient table: order raises 2->3 but the quartic
    # correction no longer gains an order
    a, b = XZ_pair()
    r3 = truncation_slope(a, b, 3, variant="paper")
    r4 = truncation_slope(a, b, 4, variant="paper")
    assert r3.slope == pytest.approx(3.0, abs=0.35)
    assert r4.slope < 3.6


def test_slope_report_record_roundtrips():
    a, b = XZ_pair()
    rep = truncation_slope(a, b, 2)
    rec = rep.to_record()
    assert rec["order"] == 2
    assert len(rec["points"]) == len(DEFAULT_S_GRID)
    assert rec["slope"] == rep.slope


# ---------------------------------------------------------------- trotterizing

def test_trotter_single_step_order_one():
    a, b = XZ_pair()
    u = trotter_step((a, b), 0.4, 1)
    ref = scipy.linalg.expm(-1j * 0.4 * to_dense(a)) @ scipy.linalg.expm(-1j * 0.4 * to_dense(b))
    assert np.max(np.abs(u - ref)) < 1e-13


def test_trotter_commuting_parts_exact_either_way():
    a = AlgebraElement.from_label_dict({"ZI": 0.8})
    b = AlgebraElement.from_label_dict({"IZ": 1.2})
    exact = expm_hermitian(a + b, 0.9)
    for corrected in (False, True):
        u = trotter_step((a, b), 0.9, 3, corrected=corrected)
        assert np.max(np.abs(u - exact)) < 1e-13


def test_trotter_rejects_zero_steps():
    a, b = XZ_pair()
    with pytest.raises(ConfigError):
        trotter_step((a, b), 0.5, 0)


def test_trotter_correction_beats_plain_splitting():
    a, b = XZ_pair()
    exact = expm_hermitian(a + b, 0.5)
    for m in (2, 8, 32):
        plain = spectral_norm(exact - trotter_step((a, b), 0.5, m, corrected=False))
        fixed = spectral_norm(exact - trotter_step((a, b), 0.5, m, corrected=True))
        assert fixed < plain


def test_trotter_sweep_slopes():
    a, b = XZ_pair()
    sweep = trotter_sweep(a, b, t=0.5)
    assert sweep.slope_uncorrected == pytest.approx(1.0, abs=0.3)
    assert sweep.slope_corrected == pytest.approx(2.0, abs=0.3)
    # errors decay monotonically with m in both columns
    assert all(x > y for x, y in zip(sweep.uncorrected, sweep.uncorrected[1:]))
    assert all(x > y for x, y in zip(sweep.corrected, sweep.corrected[1:]))


def test_trotter_sweep_record():
    a, b = XZ_pair()
    rec = trotter_sweep(a, b, t=0.5, ms=(1, 2, 4, 8)).to_record()
    assert rec["ms"] == [1, 2, 4, 8]
    assert len(rec["corrected"]) == 4


# ------------------------------------------------------------------- guards

def test_dense_cap_enforced():
    with pytest.raises(ResourceLimitError):  # a zero-stride view: no 512 MiB matrix
        spectral_norm(np.broadcast_to(0.0, (8192, 8192)))
    with pytest.raises(ResourceLimitError):  # a stack of 3 blocks of 2048 stands for dim 6144
        spectral_norm(np.broadcast_to(0.0, (3, 2048, 2048)))


def test_dense_cap_raised_before_allocation(monkeypatch):
    # a dim-1024 float matrix alone is 8 MiB; nothing of that size may be built
    monkeypatch.setattr(evolution, "DENSE_DIM_CAP", 2**9)
    h = AlgebraElement.from_label_dict({"X" * 10: 1.0})
    kc = np.broadcast_to(np.complex128(0), (1024, 1024))
    ansatz = build_ansatz([parse_label("Y" + "X" * 11)], order=1)
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError):
            error_curve(h, kc, h, np.array([1.0]))
        with pytest.raises(ResourceLimitError):
            exp_element(h, 1.0)
        with pytest.raises(ResourceLimitError):
            expm_hermitian(h, 1.0)
        with pytest.raises(ResourceLimitError):
            k_dense(ansatz, np.zeros(1), qubit_cap=11)
        with pytest.raises(ResourceLimitError):
            to_dense(h, qubit_cap=9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_product_cap_enforced():
    a = AlgebraElement.from_label_dict({"X" * 7: 1.0})
    b = AlgebraElement.from_label_dict({"Z" * 7: 1.0})
    with pytest.raises(ResourceLimitError):
        zassenhaus_product(a, b, 2, 0.1)
