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
substituting A_i = i*theta_i*k_i into the scalar expansion; each factor is
exactly unitary because every G_m is a real-weighted Pauli sum.

Exact coefficient values only matter for the direct truncation experiments
(module ``evolution``, via :func:`truncation_coefficients`); as an
optimization ansatz the monomials merely shape the search manifold and the
optimizer absorbs any residual constant.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

import numpy as np

from .errors import ConfigError, DimensionError, ResourceLimitError, StructuralError
from .pauli import (
    DENSE_QUBIT_CAP,
    AlgebraElement,
    PauliString,
    apply_rotation,
    bracket,
    bracket_strings,
    string_rotation,
)

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
    """One unitary factor exp(i * coeff(theta) * generator) of the ansatz.

    ``monomial`` holds ((parameter index, power), ...) and ``scale`` the
    constant in front, so coeff(theta) = scale * prod theta[i]**p.
    """

    kind: str  # linear | pair | triple_a | triple_b | quad
    indices: tuple[int, ...]
    generator: AlgebraElement
    scale: float
    monomial: tuple[tuple[int, int], ...]

    def coeff(self, theta: np.ndarray) -> float:
        c = self.scale
        for i, p in self.monomial:
            c *= theta[i] ** p
        return c

    def to_record(self) -> dict:
        return {
            "kind": self.kind,
            "indices": list(self.indices),
            "generator": {p.label: c for p, c in self.generator.sorted_terms()},
            "scale": self.scale,
            "monomial": [list(entry) for entry in self.monomial],
        }


@dataclass(frozen=True)
class Ansatz:
    """Ordered factor product K(theta) over a fixed k-basis.

    The factor list is blocks in expansion order (linear, pair, triple,
    quad), each block in lexicographic index order, zero generators dropped;
    the factor list of order r is therefore a prefix of order r+1.
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

    def to_record(self) -> dict:
        return {
            "n": self.n,
            "order": self.order,
            "k_basis": [p.label for p in self.k_basis],
            "factors": [f.to_record() for f in self.factors],
        }


def _nested(elems: Sequence[AlgebraElement]) -> AlgebraElement:
    """Left-nested bracket bb(e0, bb(e1, ... bb(e_{r-2}, e_{r-1})))."""
    acc = elems[-1]
    for e in reversed(elems[:-1]):
        acc = bracket(e, acc)
    return acc


def build_ansatz(
    k_basis: Sequence[PauliString], order: int, variant: str = "standard", n: int | None = None
) -> Ansatz:
    """Assemble the factor list for a k-basis at the given expansion order.

    An empty basis yields the identity ansatz (no factors, no parameters);
    that happens for models whose DLA is already abelian.  ``n`` is the
    qubit count, which an empty basis cannot tell; without it such an
    ansatz acts on one qubit.
    """
    if order not in (1, 2, 3, 4):
        raise ConfigError(f"ansatz order must be 1..4, got {order}")
    if variant not in VARIANTS:
        raise ConfigError(f"unknown coefficient variant {variant!r}; choose from {VARIANTS}")
    if k_basis:
        n = k_basis[0].n if n is None else n
        for p in k_basis:
            if p.n != n:
                raise StructuralError(f"mixed qubit counts in k-basis: {n} vs {p.n}")
    elif n is None:
        n = 1  # degenerate identity ansatz

    k = [AlgebraElement.from_string(p) for p in k_basis]
    d = len(k)
    triple_b_scale = 1 / 3 if variant == "standard" else 1 / 6
    factors: list[Factor] = []

    for i in range(d):
        factors.append(Factor("linear", (i,), k[i], 1.0, ((i, 1),)))

    if order >= 2:
        for i, j in combinations(range(d), 2):
            g = -1.0 * bracket(k[i], k[j])
            if not g.is_zero():
                factors.append(Factor("pair", (i, j), g, -0.5, ((i, 1), (j, 1))))

    if order >= 3:
        for i, j in combinations(range(d), 2):
            inner = bracket(k[i], k[j])
            if inner.is_zero():
                continue
            ga = bracket(k[i], inner)
            if not ga.is_zero():
                factors.append(Factor("triple_a", (i, j), ga, 1 / 6, ((i, 2), (j, 1))))
            gb = bracket(k[j], inner)
            if not gb.is_zero():
                factors.append(
                    Factor("triple_b", (i, j), gb, triple_b_scale, ((i, 1), (j, 2)))
                )

    if order >= 4:
        for i, j, kk, ll in combinations(range(d), 4):
            c4 = (
                _nested([k[i], k[j], k[kk], k[ll]])
                + 3.0 * _nested([k[i], k[ll], k[j], k[kk]])
                + 3.0 * _nested([k[j], k[kk], k[ll], k[i]])
                + _nested([k[ll], k[j], k[kk], k[i]])
            )
            if not c4.is_zero():
                factors.append(
                    Factor(
                        "quad",
                        (i, j, kk, ll),
                        -1.0 * c4,
                        -1 / 24,
                        ((i, 1), (j, 1), (kk, 1), (ll, 1)),
                    )
                )

    return Ansatz(n, order, tuple(k_basis), tuple(factors))


def conjugate_by_factor(
    element: AlgebraElement,
    p_sum: AlgebraElement,
    angle: float,
    direction: int = 1,
) -> AlgebraElement:
    """Analytic conjugation exp(i*d*angle*w*P) E exp(-i*d*angle*w*P).

    ``p_sum`` must hold exactly one string P with weight w.  Each term Q of E
    either commutes with P (unchanged) or rotates in the plane {Q, bb(P,Q)}:

        Q -> cos(2 phi) Q - (1/2) sin(2 phi) bb(P, Q),   phi = d*angle*w.
    """
    terms = list(p_sum.items())
    if len(terms) != 1:
        raise StructuralError(
            f"analytic conjugation needs a single-string generator, got {len(terms)} terms"
        )
    if direction not in (1, -1):
        raise ConfigError(f"direction must be +1 or -1, got {direction}")
    p, w = terms[0]
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


def _split(factor: Factor) -> list[tuple[PauliString, float]]:
    """Single-string subfactors of a factor, in canonical term order.

    A nonzero nested bracket of Pauli strings is a scalar times one string
    (the XOR of its arguments), and C4's four brackets share that string, so
    every generator built here has exactly one term.  Every evaluation path
    (adjoint, dense, compiled) iterates this list, so all of them agree on
    the order for any generator.
    """
    return factor.generator.sorted_terms()


def adjoint_K(
    ansatz: Ansatz,
    theta: np.ndarray,
    element: AlgebraElement,
    side: str = "kdag_e_k",
) -> AlgebraElement:
    """Conjugate an algebra element by K(theta) analytically.

    side "kdag_e_k" returns K^dag E K (the cost-function orientation);
    side "k_e_kdag" returns K E K^dag (the h0-extraction orientation).
    """
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (ansatz.parameter_count,):
        raise DimensionError(
            f"theta has shape {theta.shape}, expected ({ansatz.parameter_count},)"
        )
    out = element
    if side == "kdag_e_k":
        for f in ansatz.factors:
            c = f.coeff(theta)
            for p, w in _split(f):
                out = conjugate_by_factor(out, AlgebraElement.from_string(p, w), c, direction=-1)
    elif side == "k_e_kdag":
        for f in reversed(ansatz.factors):
            c = f.coeff(theta)
            for p, w in reversed(_split(f)):
                out = conjugate_by_factor(out, AlgebraElement.from_string(p, w), c, direction=1)
    else:
        raise ConfigError(f"side must be 'kdag_e_k' or 'k_e_kdag', got {side!r}")
    return out


def k_dense(ansatz: Ansatz, theta: np.ndarray, qubit_cap: int = DENSE_QUBIT_CAP) -> np.ndarray:
    """Materialize K(theta) as a dense unitary.

    Each factor exp(i c P) = cos(c) I + i sin(c) P is applied to the left of
    the running matrix, last factor first, as an O(dim^2) row gather.  Odd-Y
    strings (all of k) keep the work in real arithmetic.
    """
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (ansatz.parameter_count,):
        raise DimensionError(
            f"theta has shape {theta.shape}, expected ({ansatz.parameter_count},)"
        )
    if ansatz.n > qubit_cap:
        raise ResourceLimitError(f"dense K at {ansatz.n} qubits exceeds cap {qubit_cap}")
    out = np.eye(2**ansatz.n)
    rotations: dict[PauliString, tuple[np.ndarray, np.ndarray]] = {}
    for f in reversed(ansatz.factors):
        c = f.coeff(theta)
        for p, w in reversed(_split(f)):
            if p not in rotations:
                rotations[p] = string_rotation(p)
            out = apply_rotation(out, rotations[p], -c * w)
    return out.astype(complex)
