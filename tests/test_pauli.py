"""String algebra against dense-matrix oracles and hand-frozen cases."""

from itertools import product

import numpy as np
import pytest

from cartansim import pauli
from cartansim.errors import DimensionError, PauliParseError, ResourceLimitError
from cartansim.pauli import (
    AlgebraElement,
    PauliString,
    bracket,
    bracket_strings,
    canonical_key,
    commutes,
    hs_inner,
    parse_label,
    pauli_mul,
    phased_permutation,
    sort_strings,
    string_dense,
    to_dense,
    y_parity,
)

from oracles import closure_dim, dense_sum, label_matrix, random_label


# ---------------------------------------------------------------- parsing

def test_parse_label_frozen_encoding():
    # site 0 is leftmost and maps to bit 0: X_0 I_1 Y_2 Z_3
    p = parse_label("XIYZ")
    assert (p.n, p.x, p.z) == (4, 0b0101, 0b1100)
    assert p.label == "XIYZ"
    assert p.y_count == 1
    assert p.weight == 3


def test_parse_label_round_trip():
    rng = np.random.default_rng(11)
    for _ in range(300):
        n = int(rng.integers(1, 9))
        lbl = random_label(rng, n, nontrivial=False)
        assert parse_label(lbl).label == lbl


def test_parse_label_errors():
    with pytest.raises(PauliParseError):
        parse_label("")
    with pytest.raises(PauliParseError, match="position 2"):
        parse_label("XIQZ")
    with pytest.raises(PauliParseError):
        parse_label("X" * 13)


def test_pauli_string_validation():
    with pytest.raises(DimensionError):
        PauliString(0, 0, 0)
    with pytest.raises(DimensionError):
        PauliString(13, 0, 0)
    with pytest.raises(DimensionError):
        PauliString(2, 4, 0)  # x needs 3 bits
    assert PauliString(3, 0, 0).label == "III"


# ---------------------------------------------------------------- products

def test_pauli_mul_frozen_cases():
    # X * Y = i Z on one site
    rho, r = pauli_mul(parse_label("X"), parse_label("Y"))
    assert (rho, r.label) == (1, "Z")
    # XX * ZI = -i YX  (hand-checked: (X Z) o (X I) = (-iY) o (X))
    rho, r = pauli_mul(parse_label("XX"), parse_label("ZI"))
    assert (rho, r.label) == (3, "YX")


def test_pauli_mul_matches_dense():
    rng = np.random.default_rng(23)
    for _ in range(250):
        n = int(rng.integers(1, 5))
        a, b = random_label(rng, n, False), random_label(rng, n, False)
        rho, r = pauli_mul(parse_label(a), parse_label(b))
        lhs = label_matrix(a) @ label_matrix(b)
        rhs = (1j**rho) * label_matrix(r.label)
        assert np.allclose(lhs, rhs, atol=1e-15)


def test_pauli_mul_rejects_mixed_sizes():
    with pytest.raises(DimensionError):
        pauli_mul(parse_label("X"), parse_label("XX"))


def test_commutes_matches_dense():
    rng = np.random.default_rng(5)
    for _ in range(250):
        n = int(rng.integers(1, 5))
        a, b = random_label(rng, n, False), random_label(rng, n, False)
        ma, mb = label_matrix(a), label_matrix(b)
        assert commutes(parse_label(a), parse_label(b)) == np.allclose(ma @ mb, mb @ ma)


def test_bracket_strings_matches_dense():
    rng = np.random.default_rng(42)
    seen_pm = set()
    for _ in range(300):
        n = int(rng.integers(1, 5))
        a, b = random_label(rng, n, False), random_label(rng, n, False)
        hit = bracket_strings(parse_label(a), parse_label(b))
        ma, mb = label_matrix(a), label_matrix(b)
        expected = -1j * (ma @ mb - mb @ ma)
        if hit is None:
            assert np.allclose(expected, 0)
        else:
            c, r = hit
            assert c in (2.0, -2.0)
            seen_pm.add(c)
            assert np.allclose(expected, c * label_matrix(r.label), atol=1e-13)
    assert seen_pm == {2.0, -2.0}  # both signs actually exercised


def test_bracket_frozen_case():
    # bb(X, Z) = -i(XZ - ZX) = -2 Y
    c, r = bracket_strings(parse_label("X"), parse_label("Z"))
    assert (c, r.label) == (-2.0, "Y")


def test_double_bracket_identity():
    # for anticommuting strings bb(P, bb(P, Q)) = -4 Q
    rng = np.random.default_rng(7)
    count = 0
    while count < 100:
        n = int(rng.integers(1, 5))
        p, q = parse_label(random_label(rng, n)), parse_label(random_label(rng, n))
        first = bracket_strings(p, q)
        if first is None:
            continue
        c1, r = first
        c2, r2 = bracket_strings(p, r)
        assert r2 == q and c1 * c2 == -4.0
        count += 1


# ---------------------------------------------------------------- sums

def test_element_prunes_small_coefficients():
    a = AlgebraElement.from_label_dict({"XX": 1.0, "ZZ": 1e-15})
    assert len(a) == 1 and parse_label("ZZ") not in a


def test_element_arithmetic_and_cancellation():
    a = AlgebraElement.from_label_dict({"XX": 1.0, "ZI": 0.5})
    b = AlgebraElement.from_label_dict({"XX": -1.0, "IZ": 2.0})
    s = a + b
    assert parse_label("XX") not in s  # exact cancellation pruned
    assert s.coeff(parse_label("IZ")) == 2.0
    assert (2.0 * a).coeff(parse_label("ZI")) == 1.0
    assert (-a).coeff(parse_label("XX")) == -1.0
    assert (a - a).is_zero()


def test_element_rejects_mixed_sizes():
    a = AlgebraElement.from_label_dict({"XX": 1.0})
    b = AlgebraElement.from_label_dict({"X": 1.0})
    with pytest.raises(DimensionError):
        a + b
    with pytest.raises(DimensionError):
        AlgebraElement(3, {parse_label("XX"): 1.0})


def test_bracket_of_sums_matches_dense():
    rng = np.random.default_rng(101)
    for _ in range(40):
        n = int(rng.integers(1, 4))
        la = {random_label(rng, n): float(rng.normal()) for _ in range(3)}
        lb = {random_label(rng, n): float(rng.normal()) for _ in range(3)}
        a = AlgebraElement.from_label_dict(la, n)
        b = AlgebraElement.from_label_dict(lb, n)
        got = to_dense(bracket(a, b))
        want = -1j * (dense_sum(la) @ dense_sum(lb) - dense_sum(lb) @ dense_sum(la))
        assert np.allclose(got, want, atol=1e-12)


def test_hs_inner_matches_trace():
    rng = np.random.default_rng(202)
    for _ in range(40):
        n = int(rng.integers(1, 4))
        la = {random_label(rng, n): float(rng.normal()) for _ in range(3)}
        lb = {random_label(rng, n): float(rng.normal()) for _ in range(3)}
        a = AlgebraElement.from_label_dict(la, n)
        b = AlgebraElement.from_label_dict(lb, n)
        want = np.trace(dense_sum(la) @ dense_sum(lb)).real
        assert abs(hs_inner(a, b) - want) < 1e-10
        assert abs(a.norm() - np.linalg.norm(dense_sum(la))) < 1e-10


def test_to_dense_respects_cap(monkeypatch):
    monkeypatch.setattr(pauli, "DENSE_QUBIT_CAP", 2)
    a = AlgebraElement.from_label_dict({"XXX": 1.0})
    with pytest.raises(ResourceLimitError):
        to_dense(a)


def _oracle_labels():
    """All 4^n labels for n <= 3, then 200 random labels at n = 7."""
    labels = ["".join(t) for n in (1, 2, 3) for t in product("IXYZ", repeat=n)]
    rng = np.random.default_rng(404)
    return labels + [random_label(rng, 7, nontrivial=False) for _ in range(200)]


def test_string_dense_equals_kron_oracle_exactly():
    for lbl in _oracle_labels():
        got = string_dense(parse_label(lbl))
        assert got.dtype == complex and np.array_equal(got, label_matrix(lbl)), lbl


def test_to_dense_equals_kron_oracle_exactly():
    labels = _oracle_labels()
    rng = np.random.default_rng(405)
    sums = [{lbl: float(rng.normal())} for lbl in labels]
    for n in (1, 2, 3):  # every string of n sites in one sum
        sums.append({lbl: float(rng.normal()) for lbl in labels if len(lbl) == n})
    big = labels[-200:]  # the n = 7 labels
    sums += [{lbl: float(rng.normal()) for lbl in big[i : i + 4]} for i in range(0, 200, 4)]
    for terms in sums:
        got = to_dense(AlgebraElement.from_label_dict(terms))
        assert np.array_equal(got, dense_sum(terms)), terms


def test_phased_permutation_layout():
    for lbl in ("XYZI", "YYXZ", "ZIZY", "IIII"):
        rows, phase = phased_permutation(parse_label(lbl))
        cols = np.arange(16)
        assert np.array_equal(np.sort(rows), cols)
        assert np.array_equal(rows[rows], cols)  # an involution
        assert set(np.round(phase, 12).tolist()) <= {1, -1, 1j, -1j}
        assert np.array_equal(label_matrix(lbl)[rows, cols], phase)


def test_string_dense_site_order():
    # site 0 leftmost <-> most significant kron factor
    assert np.allclose(string_dense(parse_label("XI")), np.kron(label_matrix("X"), np.eye(2)))
    assert np.allclose(string_dense(parse_label("IX")), np.kron(np.eye(2), label_matrix("X")))


# ---------------------------------------------------------------- ordering / grading

def test_canonical_order_frozen():
    labels = ["XX", "YX", "XY", "YY", "ZI", "IZ"]
    ordered = [p.label for p in sort_strings(parse_label(l) for l in labels)]
    assert ordered == ["XX", "ZI", "YX", "IZ", "XY", "YY"]
    keys = [canonical_key(parse_label(l)) for l in ordered]
    assert keys == sorted(keys)


def test_y_parity_matches_transpose_grading():
    # odd-Y strings are antisymmetric, even-Y symmetric: P^T = (-1)^{#Y} P
    rng = np.random.default_rng(303)
    for _ in range(100):
        n = int(rng.integers(1, 5))
        lbl = random_label(rng, n, False)
        p = parse_label(lbl)
        sign = -1.0 if y_parity(p) else 1.0
        assert np.allclose(label_matrix(lbl).T, sign * label_matrix(lbl))


# ---------------------------------------------------------------- oracle sanity

def test_closure_oracle_recovers_su2():
    # {X, Z} on one site generates su(2)
    assert closure_dim(["X", "Z"]) == 3
    # a single string only spans itself
    assert closure_dim(["XX"]) == 1
