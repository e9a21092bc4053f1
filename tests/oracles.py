"""Reference implementations used to cross-check the package.

The dense oracles are deliberately written against text labels and numpy
primitives only, so a bug in the package's symplectic bookkeeping cannot
propagate into the expected values.  The adjoint references at the end
(the one-vector sweep kernel and the standalone gradient) keep the plain
loops the compiled engine's lane sweeps must reproduce bit for bit.
"""

from functools import reduce

import numpy as np

from cartansim.adjoint import CompiledAdjoint
from cartansim.lie import generate_dla
from cartansim.optimize import OptimizerOptions, TargetV, cost, fd_gradient
from cartansim.pauli import sort_strings

SITE = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def label_matrix(label: str) -> np.ndarray:
    """Dense matrix of a label, site 0 as the leftmost kron factor."""
    return reduce(np.kron, (SITE[c] for c in label))


def dense_sum(labels: dict[str, float]) -> np.ndarray:
    dim = 2 ** len(next(iter(labels)))
    out = np.zeros((dim, dim), dtype=complex)
    for lbl, c in labels.items():
        out += c * label_matrix(lbl)
    return out


def random_label(rng: np.random.Generator, n: int, nontrivial: bool = True) -> str:
    while True:
        lbl = "".join(rng.choice(list("IXYZ"), size=n))
        if not nontrivial or set(lbl) != {"I"}:
            return lbl


def power_norm(m: np.ndarray, iters: int = 300, seed: int = 0) -> float:
    """Spectral norm by power iteration on M^dagger M."""
    rng = np.random.default_rng(seed)
    g = m.conj().T @ m
    v = rng.standard_normal(g.shape[0]) + 1j * rng.standard_normal(g.shape[0])
    v /= np.linalg.norm(v)
    lam = 0.0
    for _ in range(iters):
        w = g @ v
        lam = float(np.linalg.norm(w))
        if lam == 0.0:
            return 0.0
        v = w / lam
    return float(np.sqrt(lam))


def closure_dim(labels: list[str], tol: float = 1e-8) -> int:
    """Brute-force dimension of the Lie closure of i*(the given strings).

    Maintains an orthonormal basis of flattened matrices and keeps taking
    dense commutators until nothing new appears.
    """
    basis: list[np.ndarray] = []

    def add(m: np.ndarray) -> bool:
        v = m.reshape(-1).astype(complex)
        for b in basis:
            v = v - (b.conj() @ v) * b
        nv = np.linalg.norm(v)
        if nv > tol:
            basis.append(v / nv)
            return True
        return False

    mats: list[np.ndarray] = []
    frontier: list[np.ndarray] = []
    for lbl in labels:
        g = 1j * label_matrix(lbl)
        if add(g):
            frontier.append(g)
            mats.append(g)
    while frontier:
        fresh = []
        for a in frontier:
            for b in mats:
                c = a @ b - b @ a
                if add(c):
                    fresh.append(c)
        mats.extend(fresh)
        frontier = fresh
    return len(basis)


def k_dense_oracle(ansatz, theta) -> np.ndarray:
    """K(theta) as the plain matmul product of cos(c) I + i sin(c) P over the
    factors' generator terms, each P a kron of site matrices."""
    dim = 2**ansatz.n
    out = np.eye(dim, dtype=complex)
    for f in ansatz.factors:
        c = f.coeff(theta)
        for p, w in f.generator.sorted_terms():
            phi = c * w
            out = out @ (np.cos(phi) * np.eye(dim) + 1j * np.sin(phi) * label_matrix(p.label))
    return out


def error_curve_oracle(h_labels: dict[str, float], k_c, h0_labels: dict[str, float], t_grid) -> np.ndarray:
    """||e^{-iHt} - K^dag e^{-i h0 t} K||_2 per t: complex eigh of H, the h0
    core as a matmul product of cos/sin factors, the norm from eigvalsh."""
    lam, vec = np.linalg.eigh(dense_sum(h_labels))
    dim = len(lam)
    h0_mats = [(c, label_matrix(lbl)) for lbl, c in h0_labels.items()]
    kdag = k_c.conj().T
    errs = []
    for t in np.asarray(t_grid, dtype=float):
        exact = (vec * np.exp(-1j * lam * t)) @ vec.conj().T
        core = np.eye(dim, dtype=complex)
        for c, pd in h0_mats:
            core = core @ (np.cos(c * t) * np.eye(dim) - 1j * np.sin(c * t) * pd)
        diff = exact - kdag @ core @ k_c
        errs.append(float(np.sqrt(max(np.linalg.eigvalsh(diff.conj().T @ diff)[-1], 0.0))))
    return np.asarray(errs)


def reference_cost_and_grad(engine: CompiledAdjoint, theta, v, h):
    """Cost and gradient from one-vector sweeps: a forward sweep, then a
    backward sweep that undoes each rotation on E and on B separately."""
    theta = np.asarray(theta, dtype=float)
    phi = engine._angles(theta)
    tcount = len(phi)
    scale = float(2**engine.n)

    e = np.array(v, dtype=float, copy=True)
    c2 = np.cos(2 * phi)
    s2 = np.sin(2 * phi)
    for t in range(tcount):
        qa, qb, sgn = engine._edges[engine.sub_edge[t]][:3]
        va = e[qa]
        e[qb] = c2[t] * e[qb] + s2[t] * (sgn * va)
    f = scale * float(e @ h)
    grad = np.zeros_like(theta)
    if tcount == 0 or theta.size == 0:
        return f, grad

    b = np.array(h, dtype=float, copy=True)
    gsub = np.empty(tcount)
    for t in range(tcount - 1, -1, -1):
        qa, qb, sgn = engine._edges[engine.sub_edge[t]][:3]
        gsub[t] = 2.0 * float(np.dot(sgn * e[qa], b[qb]))
        va = e[qa]
        e[qb] = c2[t] * e[qb] - s2[t] * (sgn * va)
        wa = b[qa]
        b[qb] = c2[t] * b[qb] - s2[t] * (sgn * wa)
    gsub *= scale

    gfac = np.bincount(
        engine.sub_factor, weights=gsub * engine.sub_weight, minlength=len(engine.ansatz.factors)
    )
    tx = theta[engine.m_idx]
    powed = np.power(tx, engine.m_pow)
    width = engine.m_idx.shape[1]
    for s in range(width):
        others = engine.f_scale.copy()
        for s2_ in range(width):
            if s2_ != s:
                others *= powed[:, s2_]
        pw = engine.m_pow[:, s]
        with np.errstate(divide="ignore", invalid="ignore"):
            dphi = np.where(pw > 0, pw * np.power(tx[:, s], np.maximum(pw - 1, 0.0)) * others, 0.0)
        np.add.at(grad, engine.m_idx[:, s], gfac * dphi)
    return f, grad


def closure_basis(ansatz, *elements):
    """The DLA closure of the k-basis together with the elements' strings."""
    seeds = list(ansatz.k_basis)
    for e in elements:
        seeds.extend(p for p, _ in e.items())
    return generate_dla(sort_strings(set(seeds))).strings


def gradient(ansatz, theta, v, h, options=None):
    """Gradient of the trace cost, analytic by default.

    The analytic path compiles the adjoint over the bracket closure of
    (k-basis, v, H); the fd path takes central differences of the
    dictionary-based reference cost.
    """
    options = options or OptimizerOptions()
    ve = v.element if isinstance(v, TargetV) else v
    theta = np.asarray(theta, float)
    if options.grad_mode == "fd":
        return fd_gradient(lambda th: cost(ansatz, th, ve, h), theta, options.fd_step)
    engine = CompiledAdjoint(ansatz, closure_basis(ansatz, ve, h))
    return engine.cost_and_grad(theta, engine.vector(ve), engine.vector(h))[1]
