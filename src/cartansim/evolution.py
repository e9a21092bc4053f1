"""Dense verification: exact propagators, error curves, truncation scaling.

Everything here is the slow, trustworthy path: 2^n x 2^n matrices, Hermitian
eigendecompositions, and spectral norms.  It exists to check the algebraic
pipeline, not to compete with it.

The error curve runs block by block over the cosets of its strings' x-masks.
The pipeline hands it H, K and h0 in a symmetry frame (pauli.symmetry_frame),
a Clifford change of basis that turns a maximal commuting set of the
algebra's Pauli symmetries into single-site Z's, so the cosets are all 2^r
symmetry sectors: kitaev_even n=10 runs as 64 blocks of 16, not 2 of 512.

Conventions: expm_hermitian(H, t) = e^{-iHt}; the truncated product uses the
evolution orientation A' = -it A so its error against e^{-is(A+B)} shrinks
at the advertised order.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import prod

import numpy as np

from . import pauli
from .errors import ConfigError, DimensionError, NumericalError, ResourceLimitError, StructuralError
from .pauli import (
    AlgebraElement,
    apply_rotation,
    bracket,
    commutes,
    phased_permutation,
    string_rotation,
    to_dense,
)
from .zassenhaus import truncation_coefficients


def _check_dim(dim: int) -> None:
    cap = 2**pauli.DENSE_QUBIT_CAP
    if dim > cap:
        raise ResourceLimitError(f"dense operation at dimension {dim} exceeds cap {cap}")


def expm_hermitian(h: AlgebraElement | np.ndarray, t: float) -> np.ndarray:
    """U(t) = e^{-iHt} through a Hermitian eigendecomposition.

    Accepts an AlgebraElement or an already-dense Hermitian matrix.
    """
    is_element = isinstance(h, AlgebraElement)
    _check_dim(2**h.n if is_element else np.shape(h)[0])
    m = to_dense(h) if is_element else np.asarray(h)
    lam, vec = np.linalg.eigh(m)
    if not np.all(np.isfinite(lam)):
        raise NumericalError("eigendecomposition returned non-finite eigenvalues")
    return (vec * np.exp(-1j * lam * t)) @ vec.conj().T


def spectral_norm(m: np.ndarray) -> float:
    """Largest singular value, via the top eigenvalue of M^dag M.

    An (s, b, b) stack stands for the block-diagonal matrix of its s blocks,
    whose norm is the largest block norm; each block costs b^3, not (sb)^3.
    """
    m = np.asarray(m)
    if m.ndim not in (2, 3) or m.shape[-1] != m.shape[-2]:
        raise ConfigError(f"spectral_norm expects a square matrix or a stack of them, got shape {m.shape}")
    _check_dim(prod(m.shape[:-1]))
    ev = np.linalg.eigvalsh(m.conj().swapaxes(-1, -2) @ m)
    top = float(ev[..., -1].max())
    return float(np.sqrt(max(top, 0.0)))


def _commuting_rotations(e: AlgebraElement) -> list:
    """(coefficient, rotation) per term; e^{-iEt} factors so only if the strings commute."""
    terms = e.sorted_terms()
    for (p, _), (q, _) in combinations(terms, 2):
        if not commutes(p, q):
            raise StructuralError(f"support is not mutually commuting: {p.label} vs {q.label}")
    return [(c, string_rotation(p)) for p, c in terms]


def _commuting_exp(rotations, t: float, m: np.ndarray) -> np.ndarray:
    """e^{-iEt} M = prod_P (cos(c_P t) - i sin(c_P t) P) M, one row gather per string."""
    for c, rotation in rotations:
        m = apply_rotation(m, rotation, c * t)
    return m


@dataclass(frozen=True)
class ErrorCurve:
    """Spectral-norm distance between exact and fixed-depth evolution."""

    ts: np.ndarray
    errors: np.ndarray

    def rows(self) -> list[tuple[float, float]]:
        return [(float(t), float(e)) for t, e in zip(self.ts, self.errors)]

    @property
    def max_error(self) -> float:
        return float(np.max(self.errors)) if len(self.errors) else 0.0


def _sectors(masks: list[int], dim: int) -> np.ndarray:
    """Cosets of the GF(2) span of ``masks`` in 0..dim-1, one per row.

    Each new basis vector is reduced by the earlier ones, in order, so it
    holds none of their leading bits and all leading bits differ.  Every
    coset then holds exactly one index with all leading bits clear: its
    leader.  Rows are leader ^ span, all of size 2^rank.
    """
    basis: list[int] = []
    for m in masks:
        for v in basis:
            m = min(m, m ^ v)  # clears v's leading bit, touches no higher bit
        if m:
            basis.append(m)
    span = np.zeros(1, dtype=np.intp)
    leading = 0
    for v in basis:
        span = np.concatenate([span, span ^ v])
        leading |= 1 << (v.bit_length() - 1)
    leaders = np.flatnonzero((np.arange(dim) & leading) == 0)
    return leaders[:, None] ^ span


def _diagonal_blocks(e: AlgebraElement, blocks: np.ndarray) -> np.ndarray:
    """``to_dense(e)[blocks[:, :, None], blocks[:, None, :]]``, built from the strings.

    Every string of ``e`` must keep the cosets.  Terms add in ``e``'s order,
    as ``to_dense`` adds them, so every entry is the same float; only the
    (s, b, b) blocks are allocated, not the dim x dim matrix.
    """
    s, b = blocks.shape
    order = blocks.ravel()
    at = np.empty(s * b, dtype=np.intp)
    at[order] = np.arange(s * b)
    out = np.zeros((s, b, b), dtype=complex)
    # column j of block i is index order[i b + j]; the string's row for it is at[rows[.]]
    cols = np.tile(np.arange(b), s)
    for p, c in e.items():
        rows, phase = phased_permutation(p)
        out.reshape(s * b, b)[at[rows[order]], cols] += c * phase[order]
    return out


def error_curve(
    h: AlgebraElement, k_c: np.ndarray, h0: AlgebraElement, t_grid: np.ndarray
) -> ErrorCurve:
    """|| e^{-iHt} - K_c^dag e^{-i h0 t} K_c ||_2 over a time grid.

    A string P = i^y X^x Z^z sends |b> to |b ^ x>, so H and e^{-i h0 t} map
    each coset of the GF(2) span S of the x-masks of their strings to itself.
    Distinct strings are linearly independent, so H has a nonzero entry at
    mask x exactly when one of its strings has x-mask x, and no dense scan
    is needed.  A K_c built from H's DLA stays in the cosets, since the DLA's
    x-masks are XORs of H's; a K_c with a nonzero entry outside them runs as
    one block.  In a basis ordered by coset all three are block-diagonal
    with s blocks of size b = dim/s, and the norm is the largest block norm.
    H's blocks are built from its strings; the dense H is never made.

    The cosets see only Z-type symmetries: strings of x-mask 0 that commute
    with H.  The pipeline calls this in the symmetry frame of its problem
    (pauli.symmetry_frame), where a maximal commuting set of the Pauli
    symmetries are single-site Z's; the norm is the same in any Clifford frame.

    Per block, with H = V diag(lam) V^dag and W = K_c V, the error is
    || e^{-i lam t} - W^dag (e^{-i h0 t} W) ||_2.  Per point, e^{-i h0 t} W
    takes |h0| exact O(dim b) string rotations (no eigensolve of h0), then
    the s blocks' products and norms run as one stack, s b^3 in place of
    dim^3.  Even-Y H and odd-Y K are real, and so are V and W.
    """
    dim = 2**h.n
    _check_dim(dim)
    k_c = np.asarray(k_c)
    if k_c.shape != (dim, dim):
        raise DimensionError(f"K has shape {k_c.shape}, expected ({dim}, {dim})")
    rotations = _commuting_rotations(h0)
    # rows[0] = 0 ^ x is a string's x-mask
    string_masks = {int(phased_permutation(p)[0][0]) for p, _ in h.items()}
    string_masks |= {int(rows[0]) for _, (rows, _) in rotations}
    nonzero = np.count_nonzero(k_c)
    # the n unit masks span everything: one block, which holds any K_c
    for masks in (sorted(string_masks), [1 << j for j in range(h.n)]):
        blocks = _sectors(masks, dim)
        pick = blocks[:, :, None], blocks[:, None, :]
        if np.count_nonzero(k_c[pick]) == nonzero:
            break
    s, b = blocks.shape
    # every rotation stays inside its block: a row gather on the coset-ordered (dim, b) W
    order = blocks.ravel()
    at = np.empty(dim, dtype=np.intp)
    at[order] = np.arange(dim)
    rotations = [(c, (at[rows[order]], g[order])) for c, (rows, g) in rotations]
    m = _diagonal_blocks(h, blocks)
    lam, vec = np.linalg.eigh(m if m.imag.any() else m.real)
    k_c = k_c[pick]
    if np.iscomplexobj(k_c) and not k_c.imag.any():
        k_c = k_c.real
    w = (k_c @ vec).reshape(dim, b)
    wh = w.reshape(s, b, b).conj().swapaxes(1, 2)
    ts = np.asarray(t_grid, dtype=float)
    errs = np.empty(len(ts))
    for i, t in enumerate(ts):
        cw = np.asarray(_commuting_exp(rotations, t, w), dtype=complex)
        # a real W^T multiplies CW's (re, im) pairs in one real product
        if wh.dtype == complex:
            diff = wh @ cw.reshape(s, b, b)
        else:
            diff = (wh @ cw.view(float).reshape(s, b, 2 * b)).view(complex)
        diff.reshape(s, b * b)[:, :: b + 1] -= np.exp(-1j * lam * t)
        errs[i] = spectral_norm(diff)
    return ErrorCurve(ts, errs)


# ----------------------------------------------------------------- truncation

def zassenhaus_product(
    a: AlgebraElement,
    b: AlgebraElement,
    order: int,
    scale: float,
    variant: str = "standard",
) -> np.ndarray:
    """Truncated product e^{A'}e^{B'} prod_k e^{W_k}, A' = -i*scale*A.

    W_k is assembled densely from the nested-commutator table of
    :func:`cartansim.zassenhaus.truncation_coefficients`; folding ``scale``
    into A' and B' first makes every W_k scale-homogeneous automatically.
    """
    if order not in (1, 2, 3, 4):
        raise ConfigError(f"product order must be 1..4, got {order}")
    if a.n > 6 or b.n > 6:
        raise ResourceLimitError("truncated products are limited to n <= 6")
    ap = -1j * scale * to_dense(a)
    bp = -1j * scale * to_dense(b)
    out = expm_hermitian(1j * ap, 1.0) @ expm_hermitian(1j * bp, 1.0)
    sides = {"A": ap, "B": bp}
    for k in range(2, order + 1):
        w = np.zeros_like(ap)
        for shape, coeff in truncation_coefficients(k, variant).items():
            nest = sides[shape[-1]]
            for letter in reversed(shape[:-1]):
                m = sides[letter]
                nest = m @ nest - nest @ m
            w = w + coeff * nest
        out = out @ expm_hermitian(1j * w, 1.0)  # e^W for anti-Hermitian W
    return out


DEFAULT_S_GRID = tuple(np.geomspace(1e-3, 1e-1, 7))

#: Errors at or below this are machine-precision floor; fitting a slope
#: through them is meaningless.
SATURATION_FLOOR = 1e-14


@dataclass(frozen=True)
class SlopeReport:
    """Log-log fit of truncation error against the step scale."""

    order: int
    slope: float | None
    intercept: float | None
    points: tuple[tuple[float, float], ...]  # (s, error) rows
    saturated: bool

    def to_record(self) -> dict:
        return {
            "order": self.order,
            "slope": self.slope,
            "intercept": self.intercept,
            "points": [list(row) for row in self.points],
            "saturated": self.saturated,
        }


def truncation_slope(
    a: AlgebraElement,
    b: AlgebraElement,
    order: int,
    s_grid=DEFAULT_S_GRID,
    variant: str = "standard",
) -> SlopeReport:
    """Fitted scaling exponent of ||e^{-is(A+B)} - product(s)|| vs s.

    Expected slope is order + 1.  Grids that sit entirely at the numerical
    floor come back flagged ``saturated`` with no slope.
    """
    s_vals = [float(s) for s in s_grid]
    if len(s_vals) < 5:
        raise ConfigError("slope fits need at least 5 grid points")
    total = a + b
    rows = []
    for s in s_vals:
        err = spectral_norm(expm_hermitian(total, s) - zassenhaus_product(a, b, order, s, variant))
        rows.append((s, float(err)))
    usable = [(s, e) for s, e in rows if e > SATURATION_FLOOR]
    if len(usable) < 3:
        return SlopeReport(order, None, None, tuple(rows), True)
    logs = np.log([s for s, _ in usable])
    loge = np.log([e for _, e in usable])
    slope, intercept = np.polyfit(logs, loge, 1)
    return SlopeReport(order, float(slope), float(intercept), tuple(rows), False)


def trotter_step(
    parts: tuple[AlgebraElement, AlgebraElement],
    t: float,
    m: int,
    corrected: bool = False,
) -> np.ndarray:
    """m-step Trotterization of e^{-i(A+B)t}, optionally Zassenhaus-corrected.

    Uncorrected: (e^{-iAt/m} e^{-iBt/m})^m.  Corrected appends the
    second-order factor exp(i (t/m)^2 bb(A,B) / 2) to every step, which
    cancels the leading commutator error exactly.
    """
    if m < 1:
        raise ConfigError(f"step count must be >= 1, got {m}")
    a, b = parts
    if a.n > 6 or b.n > 6:
        raise ResourceLimitError("trotter stepping is limited to n <= 6")
    dt = t / m
    step = expm_hermitian(a, dt) @ expm_hermitian(b, dt)
    if corrected:
        c = bracket(a, b)
        if not c.is_zero():
            step = step @ expm_hermitian(c, -(dt * dt) / 2.0)
    return np.linalg.matrix_power(step, m)


@dataclass(frozen=True)
class TrotterSweep:
    """Error vs step count at fixed t, with log-log slopes in 1/m."""

    t: float
    ms: tuple[int, ...]
    uncorrected: tuple[float, ...]
    corrected: tuple[float, ...]
    slope_uncorrected: float
    slope_corrected: float

    def to_record(self) -> dict:
        return {
            "t": self.t,
            "ms": list(self.ms),
            "uncorrected": list(self.uncorrected),
            "corrected": list(self.corrected),
            "slope_uncorrected": self.slope_uncorrected,
            "slope_corrected": self.slope_corrected,
        }


def trotter_sweep(
    a: AlgebraElement,
    b: AlgebraElement,
    t: float = 0.5,
    ms: tuple[int, ...] = (1, 2, 4, 8, 16, 32, 64),
) -> TrotterSweep:
    """Compare corrected vs uncorrected stepping over a range of m."""
    exact = expm_hermitian(a + b, t)
    un, co = [], []
    for m in ms:
        un.append(spectral_norm(exact - trotter_step((a, b), t, m, corrected=False)))
        co.append(spectral_norm(exact - trotter_step((a, b), t, m, corrected=True)))

    def fit(errs):
        pairs = [(m, e) for m, e in zip(ms, errs) if e > SATURATION_FLOOR]
        if len(pairs) < 3:
            return 0.0
        x = np.log([1.0 / m for m, _ in pairs])
        y = np.log([e for _, e in pairs])
        return float(np.polyfit(x, y, 1)[0])

    return TrotterSweep(
        t,
        tuple(int(m) for m in ms),
        tuple(float(e) for e in un),
        tuple(float(e) for e in co),
        slope_uncorrected=fit(un),
        slope_corrected=fit(co),
    )
