"""Output checks for benchmark operations, made apart from the program.

Dense matrices here come from Pauli labels through plain ``np.kron`` of the
2x2 site matrices (as ``tests/oracles.py`` builds them), never from
``cartansim.to_dense``/``string_dense``/``k_dense``/``error_curve``.  The exact
propagator is ``scipy.linalg.expm`` and the spectral norm is the top singular
value from ``scipy.linalg.svdvals``.

Each check returns a list of problems ``(kind, message)``:

* ``undecomposed`` -- residual_rel is not below RESIDUAL_TOL, whatever the
  record's ``converged`` flag says (the optimizer fault the benchmark keeps);
* ``error`` -- the pipeline raised;
* ``wrong`` -- a reported number disagrees with the independent computation
  or breaks a property the method must have.

An operation with any problem counts as failed; a ``wrong`` problem also
makes the run incorrect.
"""

from __future__ import annotations

from functools import reduce
from itertools import combinations

import numpy as np

#: A cell counts as decomposed only below this ||K H K^dag - h0|| / ||H||.
#: Decomposed cells sit at or below 2.2e-11, the faulty ones at 1e-2 or above.
RESIDUAL_TOL = 1e-8
#: Agreement between a reported error and its recomputation: abs + rel.
ERROR_ABS_TOL = 1e-9
ERROR_REL_TOL = 1e-8
#: Round-off floor added to the Duhamel bound error(t) <= t * residual_fro.
BOUND_FLOOR = 1e-10
#: The program's dense K is compared with the oracle up to this many qubits;
#: above it k_dense alone costs seconds per cell.
K_COMPARE_MAX_QUBITS = 8
K_TOL = 1e-10
SLOPE_TOL = 0.05

SITE = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def label_matrix(label: str) -> np.ndarray:
    """Dense matrix of a Pauli label, site 0 as the leftmost kron factor."""
    return reduce(np.kron, (SITE[c] for c in label))


def dense_sum(terms: list[tuple[str, float]], n: int) -> np.ndarray:
    out = np.zeros((2**n, 2**n), dtype=complex)
    for label, c in terms:
        out += c * label_matrix(label)
    return out


def monomial(label: str) -> tuple[np.ndarray, np.ndarray]:
    """(rows, phases) with P[rows[j], j] = phases[j]: a string is a phased permutation."""
    p = label_matrix(label)
    cols = np.arange(p.shape[0])
    rows = np.argmax(np.abs(p), axis=0)
    return rows, p[rows, cols]


def labels_commute(a: str, b: str) -> bool:
    clash = sum(1 for x, y in zip(a, b) if x != "I" and y != "I" and x != y)
    return clash % 2 == 0


def bb(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Adapted bracket -i[A, B]."""
    return -1j * (a @ b - b @ a)


def oracle_k(k_labels: list[str], theta: np.ndarray, order: int) -> np.ndarray:
    """K(theta) rebuilt from the k-basis labels by the Zassenhaus formulas.

    Factors multiply left to right in the program's order: linear k_i; then
    for i < j the pair -bb(k_i, k_j) with c = -th_i th_j / 2; then for each
    i < j the triples bb(k_i, bb(k_i, k_j)) with th_i^2 th_j / 6 and
    bb(k_j, bb(k_i, k_j)) with th_i th_j^2 / 3; then for i < j < k < l the
    quad -C4 with -th_i th_j th_k th_l / 24, where C4 weighs the left-nested
    brackets (i,j,k,l), (i,l,j,k), (j,k,l,i), (l,j,k,i) by 1, 3, 3, 1.
    A linear factor uses exp(i c P) = cos(c) I + i sin(c) P; the corrections
    go through scipy's expm (they only occur in the n <= 5 grid).
    """
    from scipy.linalg import expm

    dim = 2 ** len(k_labels[0]) if k_labels else 1
    out = np.eye(dim, dtype=complex)
    for label, c in zip(k_labels, theta):
        rows, ph = monomial(label)
        # (K P)[:, j] = K[:, rows[j]] * ph[j]
        out = np.cos(c) * out + 1j * np.sin(c) * (out[:, rows] * ph)
    if order == 1:
        return out

    d = len(k_labels)
    k = [label_matrix(lbl) for lbl in k_labels]
    pairs = [(i, j) for i in range(d) for j in range(i + 1, d)]
    inner = {(i, j): bb(k[i], k[j]) for i, j in pairs}
    factors = [(-inner[i, j], -0.5 * theta[i] * theta[j]) for i, j in pairs]
    if order >= 3:
        for i, j in pairs:
            factors.append((bb(k[i], inner[i, j]), theta[i] ** 2 * theta[j] / 6))
            factors.append((bb(k[j], inner[i, j]), theta[i] * theta[j] ** 2 / 3))
    if order >= 4:
        def nested(a, b, c, e):
            return bb(k[a], bb(k[b], bb(k[c], k[e])))

        for i, j, kk, ll in combinations(range(d), 4):
            c4 = nested(i, j, kk, ll) + 3 * nested(i, ll, j, kk) + 3 * nested(j, kk, ll, i) + nested(ll, j, kk, i)
            factors.append((-c4, -theta[i] * theta[j] * theta[kk] * theta[ll] / 24))
    for g, c in factors:
        if np.max(np.abs(g)) > 1e-12:  # exp(0) = I
            out = out @ expm(1j * c * g)
    return out


def apply_commuting_exp(h0_terms: list[tuple[str, float]], t: float, m: np.ndarray) -> np.ndarray:
    """e^{-i h0 t} M for pairwise-commuting strings: prod (cos(ct) I - i sin(ct) P) M."""
    out = m
    for label, c in h0_terms:
        rows, ph = monomial(label)
        # (P M)[rows[j], :] = ph[j] M[j, :]
        pm = np.empty_like(out)
        pm[rows] = ph[:, None] * out
        out = np.cos(c * t) * out - 1j * np.sin(c * t) * pm
    return out


def check_cell(config, record) -> list[tuple[str, str]]:
    """Every check of one decompose -> curve -> verify cell."""
    from scipy.linalg import expm, svdvals

    from cartansim import build_ansatz, build_model, cartan_split, generate_dla, k_dense

    problems: list[tuple[str, str]] = []
    n = config.model.n
    if not record.residual_rel < RESIDUAL_TOL:
        problems.append(
            (
                "undecomposed",
                f"residual_rel {record.residual_rel:.2e} >= {RESIDUAL_TOL:g} "
                f"(converged={record.converged})",
            )
        )

    h = build_model(config.model)
    h_terms = [(p.label, c) for p, c in h.sorted_terms()]
    h0_terms = [(r["label"], float(r["coefficient"])) for r in record.h0]
    for (a, _), (b, _) in combinations(h0_terms, 2):
        if not labels_commute(a, b):
            problems.append(("wrong", f"h0 strings {a} and {b} do not commute"))
            break

    # trace orthogonality: ||H||^2 = ||h0||^2 + residual^2 in the Frobenius norm
    h_sq = 2**n * sum(c * c for _, c in h_terms)
    split_sq = 2**n * sum(c * c for _, c in h0_terms) + record.residual_fro**2
    if abs(h_sq - split_sq) > 1e-9 * h_sq:
        problems.append(("wrong", f"||H||^2 = {h_sq!r} but ||h0||^2 + residual^2 = {split_sq!r}"))

    errors = np.asarray(record.curve_errors, dtype=float)
    if len(errors) != config.t_points or not np.all(np.isfinite(errors)) or np.any(errors < 0):
        problems.append(("wrong", "error curve has the wrong length or non-finite/negative values"))

    terms = [p for p, _ in h.sorted_terms()]
    split = cartan_split(generate_dla(terms), terms)
    theta = np.asarray(record.theta_star, dtype=float)
    k = oracle_k([p.label for p in split.k_basis], theta, config.order)
    if n <= K_COMPARE_MAX_QUBITS:
        kp = k_dense(build_ansatz(split.k_basis, config.order, variant=config.variant), theta)
        if np.max(np.abs(kp.conj().T @ kp - np.eye(2**n))) > K_TOL:
            problems.append(("wrong", "k_dense is not unitary"))
        if np.max(np.abs(kp - k)) > K_TOL:
            problems.append(("wrong", "k_dense differs from the product of factor exponentials"))

    t = config.table_t
    exact = expm(-1j * t * dense_sum(h_terms, n))
    err = float(svdvals(exact - k.conj().T @ apply_commuting_exp(h0_terms, t, k))[0])
    reported = record.error_at_table_t
    if reported is None or abs(err - reported) > ERROR_ABS_TOL + ERROR_REL_TOL * err:
        problems.append(("wrong", f"error at t={t} recomputes as {err:.6e}, reported {reported}"))
    if record.residual_rel < RESIDUAL_TOL and err > t * record.residual_fro + BOUND_FLOOR:
        problems.append(
            ("wrong", f"error {err:.3e} at t={t} exceeds the bound t*residual = {t * record.residual_fro:.3e}")
        )
    return problems


def check_scaling(report: dict) -> list[tuple[str, str]]:
    """Truncation slopes order+1 for orders 1..4, corrected Trotter slope 2."""
    problems = []
    for s in report["slopes"]:
        want = s["order"] + 1
        if s["slope"] is None or abs(s["slope"] - want) > SLOPE_TOL:
            problems.append(("wrong", f"order {s['order']} truncation slope {s['slope']}, expected {want}"))
    corrected = report["trotter"]["slope_corrected"]
    if abs(corrected - 2.0) > SLOPE_TOL:
        problems.append(("wrong", f"corrected Trotter slope {corrected}, expected 2"))
    return problems
