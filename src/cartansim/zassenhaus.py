"""Zassenhaus-structured product ansatz over a k-basis.

The unitary searched by the optimizer is a finite product

    K(theta) = prod_m exp(i * c_m(theta) * G_m)

with Hermitian generators G_m built from nested brackets of the k-basis
strings and scalar monomials c_m(theta).  The factor list follows the
multivariate Zassenhaus expansion of exp(sum_i i*theta_i*k_i) truncated at a
chosen order:

    order 1   Linear    c = theta_i                 G = k_i
    order 2   Pair      c = -theta_i*theta_j/2      G = -bb(k_i, k_j)
    order 3   TripleA   c = theta_i^2*theta_j/6     G = bb(k_i, bb(k_i, k_j))
              TripleB   c = theta_i*theta_j^2/3     G = bb(k_j, bb(k_i, k_j))
    order 4   Quad      c = -theta_i..theta_l/24    G = -C4(i, j, k, l)

where bb is the adapted bracket -i[.,.] and C4 is the weighted four-index
combination (1, 3, 3, 1) of left-nested brackets.  The signs fall out of
substituting A_i = i*theta_i*k_i into the scalar expansion.  A nonzero
nested bracket of Pauli strings is +-2^r times one string, the product of
its arguments, and C4's four brackets share that string, so every G_m is
an integer weight times a single string and each factor is an exact
rotation exp(i c w P).

The ansatz owns the map theta -> phi_t = c_t(theta) * w_t (``angles``, with
its chain rule ``angle_grad``) and names each distinct factor string once
(``strings``, ``string_ids``); ``adjoint.CompiledAdjoint`` and
:func:`k_dense` only rotate by the angles they are handed.

The constants in c are read from :func:`truncation_coefficients`; the
table above shows its ``standard`` variant.  Exact values only matter for
the direct truncation experiments (module ``evolution``); as an
optimization ansatz the monomials merely shape the search manifold and the
optimizer absorbs any residual constant.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property, lru_cache
from itertools import combinations
from typing import Sequence

import numpy as np

from . import pauli
from .errors import ConfigError, DimensionError, ResourceLimitError, StructuralError
from .pauli import PauliString, SymmetryFrame, apply_rotation, bracket_strings, commutes, string_rotation

#: Nested-commutator coefficients of the scalar Zassenhaus expansion
#: e^{A+B} = e^A e^B e^{W2} e^{W3} e^{W4} ...  Shapes are left-nested
#: tuples: ("B", "A", "B") stands for [B, [A, B]].
_TRUNCATION_TABLES = {
    "standard": {
        2: {("A", "B"): -1 / 2},
        3: {("A", "A", "B"): 1 / 6, ("B", "A", "B"): 1 / 3},
        4: {
            ("A", "A", "A", "B"): -1 / 24,
            ("B", "A", "A", "B"): -3 / 24,
            ("B", "B", "A", "B"): -3 / 24,
        },
    },
    # Variant transcribed from the source derivation; kept selectable even
    # though the order-scaling harness shows it stalls at third order.
    "paper": {
        2: {("A", "B"): -1 / 2},
        3: {("A", "A", "B"): 1 / 6, ("B", "A", "B"): 1 / 6},
        4: {
            ("A", "A", "A", "B"): -1 / 24,
            ("A", "B", "B", "A"): -3 / 24,
            ("B", "B", "B", "A"): -1 / 24,
        },
    },
}

VARIANTS = tuple(_TRUNCATION_TABLES)


def truncation_coefficients(order: int, variant: str = "standard") -> dict[tuple[str, ...], float]:
    """Coefficient table {nested-bracket shape: weight} for one correction order.

    Shapes are left-nested: ("A", "A", "B") means [A, [A, B]].  The
    ``standard`` table carries the classical Zassenhaus weights (validated by
    the order-scaling harness); ``paper`` selects the transcribed variant.
    """
    if variant not in _TRUNCATION_TABLES:
        raise ConfigError(f"unknown coefficient variant {variant!r}; choose from {VARIANTS}")
    if order not in (2, 3, 4):
        raise ConfigError(f"correction order must be 2..4, got {order}")
    return dict(_TRUNCATION_TABLES[variant][order])


@dataclass(frozen=True)
class Factor:
    """One unitary factor exp(i * phi * string) of the ansatz.

    ``weight`` is the exact integer in front of the nested bracket's string.
    ``monomial`` holds ((parameter index, power), ...) and ``scale`` the
    constant in front, so phi = scale * prod theta[i]**p * weight.
    """

    kind: str  # linear | pair | triple_a | triple_b | quad
    indices: tuple[int, ...]
    string: PauliString
    weight: float
    scale: float
    monomial: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class Ansatz:
    """Ordered factor product K(theta) over a fixed k-basis.

    The factor list is blocks in expansion order (linear, pair, triple,
    quad), each block in lexicographic index order, zero generators dropped;
    the factor list of order r is therefore a prefix of order r+1.  The
    factor program is cached on first use, outside ``==`` and ``hash``.
    """

    n: int
    order: int
    k_basis: tuple[PauliString, ...]
    factors: tuple[Factor, ...]

    @property
    def parameter_count(self) -> int:
        return len(self.k_basis)

    def factor_counts(self) -> dict[str, int]:
        counts = {"linear": 0, "pair": 0, "triple_a": 0, "triple_b": 0, "quad": 0}
        for f in self.factors:
            counts[f.kind] += 1
        return counts

    def in_frame(self, frame: SymmetryFrame) -> "Ansatz":
        """The ansatz of U K U^dag: each factor's string mapped, its weight times the sign.

        U exp(i phi P) U^dag = exp(i phi sign P'), so the angles, and with them
        theta -> phi, stay as they are.  The identity frame returns this ansatz.
        """
        if not frame.pairs:
            return self
        images = {p: frame.map(p) for p in self.k_basis + self.strings}
        factors = []
        for f in self.factors:
            sign, image = images[f.string]
            factors.append(replace(f, string=image, weight=sign * f.weight))
        return replace(self, k_basis=tuple(images[p][1] for p in self.k_basis), factors=tuple(factors))

    @cached_property
    def strings(self) -> tuple[PauliString, ...]:
        """Each distinct factor string once, in first-use order."""
        return tuple(dict.fromkeys(f.string for f in self.factors))

    @cached_property
    def string_ids(self) -> np.ndarray:
        """For each factor, the index of its string in ``strings``."""
        index = {p: i for i, p in enumerate(self.strings)}
        return np.array([index[f.string] for f in self.factors], dtype=np.intp)

    @cached_property
    def _monomials(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(scale, weight, index, power) per factor, padded with theta[0]**0."""
        width = max((len(f.monomial) for f in self.factors), default=1)
        rows = [f.monomial + ((0, 0),) * (width - len(f.monomial)) for f in self.factors]
        mono = np.array(rows, dtype=np.intp).reshape(len(rows), width, 2)
        scale = np.array([f.scale for f in self.factors], dtype=float)
        weight = np.array([f.weight for f in self.factors], dtype=float)
        return scale, weight, mono[..., 0], mono[..., 1].astype(float)

    def angles(self, theta: np.ndarray) -> np.ndarray:
        """phi_t = scale_t * prod theta[i]**p * weight_t for every factor t."""
        theta = np.asarray(theta, dtype=float)
        if theta.shape != (self.parameter_count,):
            raise DimensionError(f"theta has shape {theta.shape}, expected ({self.parameter_count},)")
        scale, weight, idx, pw = self._monomials
        return scale * np.prod(np.power(theta[idx], pw), axis=1) * weight

    def angle_grad(self, theta: np.ndarray, dphi: np.ndarray) -> np.ndarray:
        """Chain d f / d phi_t through the factor monomials to d f / d theta."""
        scale, weight, idx, pw = self._monomials
        grad = np.zeros_like(theta)
        gfac = dphi * weight  # d phi_t / d theta = w_t * d c_t / d theta
        tx = theta[idx]
        powed = np.power(tx, pw)
        width = idx.shape[1]
        for s in range(width):
            others = scale.copy()  # prod over the other slots (width <= 4)
            for s2 in range(width):
                if s2 != s:
                    others *= powed[:, s2]
            p = pw[:, s]
            with np.errstate(divide="ignore", invalid="ignore"):
                dc = np.where(p > 0, p * np.power(tx[:, s], np.maximum(p - 1, 0.0)) * others, 0.0)
            np.add.at(grad, idx[:, s], gfac * dc)
        return grad


def build_ansatz(
    k_basis: Sequence[PauliString], order: int, variant: str = "standard", n: int | None = None
) -> Ansatz:
    """Assemble the factor list for a k-basis at the given expansion order.

    Every generator is evaluated on strings: a nested bracket is the chain
    of ``bracket_strings`` results, its weight the product of their +-2
    factors.  An empty basis yields the identity ansatz (no factors, no
    parameters); that happens for models whose DLA is already abelian.
    ``n`` is the qubit count, which an empty basis cannot tell; without it
    such an ansatz acts on one qubit.  Each block's scale is its leading
    shape's weight in :func:`truncation_coefficients` for ``variant``: [A, B]
    for pairs, [A, [A, B]] and [B, [A, B]] for triples, [A, [A, [A, B]]]
    for quads.  The quads always take C4's chain weights 1, 3, 3, 1.
    """
    if order not in (1, 2, 3, 4):
        raise ConfigError(f"ansatz order must be 1..4, got {order}")
    c2, c3, c4 = (truncation_coefficients(r, variant) for r in (2, 3, 4))
    if k_basis:
        n = k_basis[0].n if n is None else n
        for p in k_basis:
            if p.n != n:
                raise StructuralError(f"mixed qubit counts in k-basis: {n} vs {p.n}")
    elif n is None:
        n = 1  # degenerate identity ansatz

    k = list(k_basis)
    d = len(k)
    bb = lru_cache(maxsize=None)(bracket_strings)  # nested brackets share inner ones

    def nested(*args: PauliString) -> tuple[float, PauliString] | None:
        """bb(a0, bb(a1, ... bb(a_{r-2}, a_{r-1}))) as (weight, string), None if zero."""
        w, acc = 1.0, args[-1]
        for p in reversed(args[:-1]):
            hit = bb(p, acc)
            if hit is None:
                return None
            c, acc = hit
            w *= c
        return w, acc

    factors = [Factor("linear", (i,), k[i], 1.0, 1.0, ((i, 1),)) for i in range(d)]

    def add(kind, indices, g, sign, scale, monomial):
        if g is not None:
            factors.append(Factor(kind, indices, g[1], sign * g[0], scale, monomial))

    if order >= 2:
        for i, j in combinations(range(d), 2):
            add("pair", (i, j), nested(k[i], k[j]), -1.0, c2["A", "B"], ((i, 1), (j, 1)))

    if order >= 3:
        for i, j in combinations(range(d), 2):
            add("triple_a", (i, j), nested(k[i], k[i], k[j]), 1.0, c3["A", "A", "B"], ((i, 2), (j, 1)))
            add("triple_b", (i, j), nested(k[j], k[i], k[j]), 1.0, c3["B", "A", "B"], ((i, 1), (j, 2)))

    if order >= 4:
        anti = np.array([[not commutes(p, q) for q in k] for p in k], dtype=bool)

        def chain(a, b, c, e):
            """Where bb(a, bb(b, bb(c, e))) != 0, elementwise over index arrays:
            each argument must anticommute with the product of those to its
            right, and the symplectic form is bilinear."""
            return anti[c, e] & (anti[b, c] ^ anti[b, e]) & (anti[a, b] ^ anti[a, c] ^ anti[a, e])

        js, ks, ls = np.ogrid[:d, :d, :d]
        ordered = (js < ks) & (ks < ls)
        for i in range(d):
            # decide C4's four chains for every (j, kk, ll) before any bracket is taken
            live = chain(i, js, ks, ls) | chain(i, ls, js, ks) | chain(js, ks, ls, i) | chain(ls, js, ks, i)
            for j, kk, ll in zip(*(a.tolist() for a in np.nonzero(live & ordered & (js > i)))):
                pi, pj, pk, pl = k[i], k[j], k[kk], k[ll]
                # C4's brackets all land on one string, the product of the four
                hits = [
                    (x * g[0], g[1])
                    for x, g in ((1.0, nested(pi, pj, pk, pl)), (3.0, nested(pi, pl, pj, pk)),
                                 (3.0, nested(pj, pk, pl, pi)), (1.0, nested(pl, pj, pk, pi)))
                    if g is not None
                ]
                w = sum(x for x, _ in hits)
                if w:
                    g = w, hits[0][1]
                    monomial = ((i, 1), (j, 1), (kk, 1), (ll, 1))
                    add("quad", (i, j, kk, ll), g, -1.0, c4["A", "A", "A", "B"], monomial)

    return Ansatz(n, order, tuple(k_basis), tuple(factors))


def k_dense(ansatz: Ansatz, theta: np.ndarray) -> np.ndarray:
    """Materialize K(theta) as a dense unitary.

    Each factor exp(i phi P) = cos(phi) I + i sin(phi) P is applied to the
    left of the running matrix, last factor first, as an O(dim^2) row
    gather.  Odd-Y strings (all of k) keep the work, and K, real.
    """
    if ansatz.n > pauli.DENSE_QUBIT_CAP:
        raise ResourceLimitError(f"dense K at {ansatz.n} qubits exceeds cap {pauli.DENSE_QUBIT_CAP}")
    phi = -ansatz.angles(theta)
    rotations = [string_rotation(p) for p in ansatz.strings]
    out = np.eye(2**ansatz.n)
    for j, angle in zip(ansatz.string_ids[::-1].tolist(), phi[::-1].tolist()):
        out = apply_rotation(out, rotations[j], angle)
    return out
