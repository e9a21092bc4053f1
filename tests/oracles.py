"""Reference implementations used to cross-check the package.

The dense oracles are deliberately written against text labels and numpy
primitives only, so a bug in the package's symplectic bookkeeping cannot
propagate into the expected values.  The adjoint references at the end
keep the term-by-term dictionary conjugation (``adjoint_K`` and the cost
on it) that the compiled engine must agree with, and the plain one-vector
sweep loops that its sweeps must reproduce bit for bit.  The
central-difference gradient is the reference the analytic one is held to.
``fixed_depth_evolution`` assembles K^dag e^{-i h0 t} K from the string
rotations ``error_curve`` applies, so their tests check that core directly.
"""

from functools import reduce
from itertools import combinations

import numpy as np

from cartansim.adjoint import CompiledAdjoint
from cartansim.errors import ConfigError, DimensionError
from cartansim.evolution import _commuting_exp, _commuting_rotations
from cartansim.lie import generate_dla
from cartansim.optimize import TargetV
from cartansim.pauli import AlgebraElement, PauliString, bracket_strings, hs_inner, sort_strings

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


def factor_coeff(f, theta) -> float:
    """c(theta) = scale * prod theta[i]**p of one factor, term by term; its
    angle is c * weight."""
    c = f.scale
    for i, p in f.monomial:
        c *= theta[i] ** p
    return c


def k_dense_oracle(ansatz, theta) -> np.ndarray:
    """K(theta) as the plain matmul product of cos(c w) I + i sin(c w) P over
    the factors, each P a kron of site matrices."""
    dim = 2**ansatz.n
    out = np.eye(dim, dtype=complex)
    for f in ansatz.factors:
        phi = factor_coeff(f, theta) * f.weight
        out = out @ (np.cos(phi) * np.eye(dim) + 1j * np.sin(phi) * label_matrix(f.string.label))
    return out


def _bb(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Adapted bracket -i[a, b] of matrices, or of stacks of them."""
    return -1j * (a @ b - b @ a)


def dense_generators(labels: list[str], order: int) -> list[tuple[str, tuple[int, ...], np.ndarray]]:
    """(kind, indices, G) for every nonzero generator of the Zassenhaus
    ansatz up to ``order``, in the ansatz's factor order, with G the matrix
    nested commutator of kron-built k-strings.  Every entry is a small
    integer times a unit, so the arithmetic is exact; a generator left out
    is exactly the zero matrix."""
    k = np.array([label_matrix(lbl) for lbl in labels])
    d = len(labels)
    out = [("linear", (i,), k[i]) for i in range(d)]
    pairs = list(combinations(range(d), 2))
    if order >= 2:
        out += [("pair", (i, j), -_bb(k[i], k[j])) for i, j in pairs]
    if order >= 3:
        for i, j in pairs:
            inner = _bb(k[i], k[j])
            out += [("triple_a", (i, j), _bb(k[i], inner)), ("triple_b", (i, j), _bb(k[j], inner))]
    if order >= 4:

        def nested(a, b, c, e):
            return _bb(k[a], _bb(k[b], _bb(k[c], k[e])))

        quads = list(combinations(range(d), 4))
        for lo in range(0, len(quads), 256):  # stacks of 256 keep the arrays small
            i, j, kk, ll = np.array(quads[lo : lo + 256]).T
            c4 = nested(i, j, kk, ll) + 3 * nested(i, ll, j, kk) + 3 * nested(j, kk, ll, i)
            c4 += nested(ll, j, kk, i)
            out += [("quad", q, -g) for q, g in zip(quads[lo : lo + 256], c4)]
    return [(kind, idx, g) for kind, idx, g in out if np.any(g)]


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


def fixed_depth_evolution(k_c: np.ndarray, h0: AlgebraElement, t: float) -> np.ndarray:
    """U(t) = K_c^dag e^{-i h0 t} K_c with h0 on mutually commuting strings."""
    return k_c.conj().T @ _commuting_exp(_commuting_rotations(h0), t, k_c)


def conjugate_by_factor(
    element: AlgebraElement, p: PauliString, w: float, angle: float, direction: int = 1
) -> AlgebraElement:
    """Analytic conjugation exp(i*d*angle*w*P) E exp(-i*d*angle*w*P).

    Each term Q of E either commutes with P (unchanged) or rotates in the
    plane {Q, bb(P,Q)}:

        Q -> cos(2 phi) Q - (1/2) sin(2 phi) bb(P, Q),   phi = d*angle*w.
    """
    if direction not in (1, -1):
        raise ConfigError(f"direction must be +1 or -1, got {direction}")
    if p.n != element.n:
        raise DimensionError(f"mixed qubit counts: {p.n} vs {element.n}")
    phi = direction * angle * w
    c2, s2 = np.cos(2 * phi), np.sin(2 * phi)
    acc: dict[PauliString, float] = {}
    for q, cq in element.items():
        hit = bracket_strings(p, q)
        if hit is None:
            acc[q] = acc.get(q, 0.0) + cq
        else:
            br, r = hit
            acc[q] = acc.get(q, 0.0) + c2 * cq
            acc[r] = acc.get(r, 0.0) - 0.5 * s2 * br * cq
    return AlgebraElement(element.n, acc)


def adjoint_K(ansatz, theta, element: AlgebraElement, side: str = "kdag_e_k") -> AlgebraElement:
    """Conjugate an algebra element by K(theta), factor by factor, through
    dictionaries: side "kdag_e_k" gives K^dag E K (the cost orientation),
    side "k_e_kdag" gives K E K^dag (the h0-extraction orientation)."""
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (ansatz.parameter_count,):
        raise DimensionError(f"theta has shape {theta.shape}, expected ({ansatz.parameter_count},)")
    if side == "kdag_e_k":
        factors, direction = ansatz.factors, -1
    elif side == "k_e_kdag":
        factors, direction = ansatz.factors[::-1], 1
    else:
        raise ConfigError(f"side must be 'kdag_e_k' or 'k_e_kdag', got {side!r}")
    out = element
    for f in factors:
        out = conjugate_by_factor(out, f.string, f.weight, factor_coeff(f, theta), direction)
    return out


def cost(ansatz, theta, v, h: AlgebraElement) -> float:
    """Reference trace cost tr(K^dag v K H) through adjoint_K."""
    ve = v.element if isinstance(v, TargetV) else v
    return hs_inner(adjoint_K(ansatz, theta, ve, side="kdag_e_k"), h)


def _padded_monomials(ansatz):
    """(scale, weight, index, power) per factor, monomials padded with theta[0]**0."""
    width = max((len(f.monomial) for f in ansatz.factors), default=1)
    idx = np.zeros((len(ansatz.factors), width), dtype=np.intp)
    pw = np.zeros((len(ansatz.factors), width))
    for fi, f in enumerate(ansatz.factors):
        for s, (i, p) in enumerate(f.monomial):
            idx[fi, s], pw[fi, s] = i, p
    scale = np.array([f.scale for f in ansatz.factors])
    weight = np.array([f.weight for f in ansatz.factors])
    return scale, weight, idx, pw


def reference_cost_and_grad(engine: CompiledAdjoint, theta, v, h):
    """Cost and gradient from one-vector sweeps: a forward sweep, then a
    backward sweep that undoes each rotation on E and on B separately, and
    a chain rule of its own through the factor monomials."""
    theta = np.asarray(theta, dtype=float)
    scale, weight, idx, pw = _padded_monomials(engine.ansatz)
    tx = theta[idx]
    powed = np.power(tx, pw)
    phi = scale * np.prod(powed, axis=1) * weight
    tcount = len(phi)
    scale_n = float(2**engine.n)

    e = np.array(v, dtype=float, copy=True)
    c2 = np.cos(2 * phi)
    s2 = np.sin(2 * phi)
    for t in range(tcount):
        qa, qb, sgn = engine._edges[engine.sub_edge[t]][:3]
        va = e[qa]
        e[qb] = c2[t] * e[qb] + s2[t] * (sgn * va)
    f = scale_n * float(e @ h)
    grad = np.zeros_like(theta)
    if tcount == 0 or theta.size == 0:
        return f, grad

    b = np.array(h, dtype=float, copy=True)
    gphi = np.empty(tcount)
    for t in range(tcount - 1, -1, -1):
        qa, qb, sgn = engine._edges[engine.sub_edge[t]][:3]
        gphi[t] = 2.0 * float(np.dot(sgn * e[qa], b[qb]))
        va = e[qa]
        e[qb] = c2[t] * e[qb] - s2[t] * (sgn * va)
        wa = b[qa]
        b[qb] = c2[t] * b[qb] - s2[t] * (sgn * wa)
    gphi *= scale_n

    gfac = gphi * weight
    width = idx.shape[1]
    for s in range(width):
        others = scale.copy()
        for s2_ in range(width):
            if s2_ != s:
                others *= powed[:, s2_]
        p = pw[:, s]
        with np.errstate(divide="ignore", invalid="ignore"):
            dphi = np.where(p > 0, p * np.power(tx[:, s], np.maximum(p - 1, 0.0)) * others, 0.0)
        np.add.at(grad, idx[:, s], gfac * dphi)
    return f, grad


def reference_conjugate(engine: CompiledAdjoint, theta, v, side="kdag_e_k"):
    """``engine.conjugate`` as one-vector steps of separate in-place
    operations, v[qb] <- c v[qb] + (sgn v[qa]) s; the k_e_kdag side runs
    the steps in reverse with s = -sin."""
    scale, weight, idx, pw = _padded_monomials(engine.ansatz)
    phi = scale * np.prod(np.power(np.asarray(theta, dtype=float)[idx], pw), axis=1) * weight
    c2, s2 = np.cos(2 * phi), np.sin(2 * phi)
    steps = range(len(phi))
    if side == "k_e_kdag":
        steps, s2 = steps[::-1], -1.0 * s2
    out = np.array(v, dtype=float, copy=True)
    for t in steps:
        qa, qb, sgn = engine._edges[engine.sub_edge[t]][:3]
        va, vb = out[qa], out[qb]
        va *= sgn
        va *= s2[t]
        vb *= c2[t]
        vb += va
        out[qb] = vb
    return out


def closure_basis(ansatz, *elements):
    """The DLA closure of the k-basis together with the elements' strings."""
    seeds = list(ansatz.k_basis)
    for e in elements:
        seeds.extend(p for p, _ in e.items())
    return generate_dla(sort_strings(set(seeds))).strings


def fd_gradient(cost_fn, theta, step):
    """Central finite differences, one coordinate at a time."""
    theta = np.asarray(theta, dtype=float)
    g = np.zeros_like(theta)
    for i in range(theta.size):
        up = theta.copy()
        up[i] += step
        dn = theta.copy()
        dn[i] -= step
        g[i] = (cost_fn(up) - cost_fn(dn)) / (2 * step)
    return g


def fd_grad_fn(cost_fn, step=1e-6):
    """A plain gradient callable from fd_gradient: no lanes, no forward memo."""
    return lambda theta: fd_gradient(cost_fn, theta, step)


def gradient(ansatz, theta, v, h, fd_step=None):
    """Gradient of the trace cost, analytic unless fd_step is given.

    The analytic path compiles the adjoint over the bracket closure of
    (k-basis, v, H); with fd_step it takes central differences of the
    dictionary-based reference cost.
    """
    ve = v.element if isinstance(v, TargetV) else v
    theta = np.asarray(theta, float)
    if fd_step is not None:
        return fd_gradient(lambda th: cost(ansatz, th, ve, h), theta, fd_step)
    engine = CompiledAdjoint(ansatz, closure_basis(ansatz, ve, h))
    return engine.cost_and_grad(theta, engine.vector(ve), engine.vector(h))[1]
