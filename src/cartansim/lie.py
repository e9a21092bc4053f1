"""Dynamical Lie algebra closure and its Cartan decomposition.

For a Hamiltonian ``H = sum c_P P`` the dynamical Lie algebra g(H) is the
closure of {i P} under commutation.  Because the bracket of two Pauli strings
is a single string (up to a real scalar), the closure lives entirely at the
level of string *sets* and is computed exactly.

The involution theta(g) = -g^T splits g into

    k = span{ i P : P has odd Y-count }   (theta-fixed)
    m = span{ i P : P has even Y-count }

satisfying bb(k,k) in k, bb(k,m) in m, bb(m,m) in k.  Inside m a maximal
abelian subalgebra h is selected greedily, seeded by the Hamiltonian's own
strings so that H tends to sit inside span(h) already.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .errors import CapacityError, StructuralError
from .pauli import (
    AlgebraElement,
    PauliString,
    bracket_strings,
    commutes,
    sort_strings,
    y_parity,
)

#: Cap on the closure dimension, read at call time.  The models shipped here
#: stay far below it; generic Hamiltonians can reach dim su(2^n) = 4^n - 1.
DLA_CAP = 4096


@dataclass(frozen=True)
class DlaBasis:
    """Canonically ordered string basis of a dynamical Lie algebra."""

    n: int
    strings: tuple[PauliString, ...]

    @property
    def dim(self) -> int:
        return len(self.strings)


def generate_dla(terms: Sequence[PauliString]) -> DlaBasis:
    """Close a set of strings under the pairwise bracket.

    Worklist sweep: every string added to the basis is bracketed against all
    current members; new result strings join the worklist.  Terminates
    because there are only 4^n - 1 non-identity strings; raises
    CapacityError when the basis would exceed ``DLA_CAP``.
    """
    if not terms:
        raise StructuralError("cannot generate a Lie algebra from zero strings")
    n = terms[0].n
    for p in terms:
        if p.n != n:
            raise StructuralError(f"mixed qubit counts in generators: {n} vs {p.n}")

    basis: set[PauliString] = set()
    work: list[PauliString] = []
    for p in terms:
        if p not in basis:
            basis.add(p)
            work.append(p)

    members: list[PauliString] = list(work)
    while work:
        p = work.pop()
        for q in members:
            hit = bracket_strings(p, q)
            if hit is None:
                continue
            r = hit[1]
            if r not in basis:
                if len(basis) >= DLA_CAP:
                    raise CapacityError(
                        f"Lie closure exceeded the cap of {DLA_CAP} strings at n={n}"
                    )
                basis.add(r)
                members.append(r)
                work.append(r)
    return DlaBasis(n, tuple(sort_strings(basis)))


def involution_split(dla: DlaBasis) -> tuple[list[PauliString], list[PauliString]]:
    """Split a DLA basis by the involution theta(g) = -g^T.

    On i*P the involution acts as (-1)^{y_count(P)+1}, so odd-Y strings span
    the fixed subalgebra k and even-Y strings span its complement m.  Both
    lists come back in canonical order.
    """
    k = [p for p in dla.strings if y_parity(p)]
    m = [p for p in dla.strings if not y_parity(p)]
    return k, m


def check_hamiltonian_in_m(h: AlgebraElement) -> None:
    """Require every Hamiltonian term to be even under the involution.

    Raises StructuralError listing the offending strings when theta(H) = -H
    fails; the decomposition K^dag e^{-i h0 t} K needs H inside m.
    """
    bad = sort_strings(p for p, _ in h.items() if y_parity(p))
    if bad:
        names = ", ".join(p.label for p in bad)
        raise StructuralError(
            f"Hamiltonian is not inside m for the -g^T involution; odd-Y terms: {names}"
        )


def cartan_subalgebra(
    m: Sequence[PauliString], h_terms: Sequence[PauliString]
) -> tuple[list[PauliString], list[PauliString]]:
    """Greedy maximal abelian subalgebra of m, seeded by the Hamiltonian.

    Scans the Hamiltonian's strings (in canonical order) first, then the
    rest of m in canonical order, keeping any string that commutes with
    everything kept so far.  Returns ``(h, mtilde)`` with m = h + mtilde
    as sets; maximality holds because every rejected string failed to
    commute with some member of h.
    """
    if not m:
        raise StructuralError("m is empty; no abelian subalgebra to extract")
    m_set = set(m)
    for p in h_terms:
        if p not in m_set:
            raise StructuralError(f"seed string {p.label} does not lie in m")
    seeds = sort_strings(h_terms)
    rest = sort_strings(m_set - set(seeds))
    h: list[PauliString] = []
    for p in seeds + rest:
        if all(commutes(p, q) for q in h):
            h.append(p)
    h_set = set(h)
    mtilde = [p for p in sort_strings(m) if p not in h_set]
    return sort_strings(h), mtilde


@dataclass(frozen=True)
class CartanSplit:
    """The decomposition g = k + m with m = h + mtilde."""

    n: int
    k_basis: tuple[PauliString, ...]
    h_basis: tuple[PauliString, ...]
    mtilde_basis: tuple[PauliString, ...]

    @property
    def m_basis(self) -> tuple[PauliString, ...]:
        return tuple(sort_strings(self.h_basis + self.mtilde_basis))

    @property
    def dim(self) -> int:
        return len(self.k_basis) + len(self.h_basis) + len(self.mtilde_basis)


def cartan_split(dla: DlaBasis, h_terms: Sequence[PauliString]) -> CartanSplit:
    """Full split of a DLA: involution, then seeded abelian subalgebra.

    ``h_terms`` should be the Hamiltonian's strings; any of them lying in k
    would have tripped check_hamiltonian_in_m earlier, so only the m-part is
    passed to the greedy scan.
    """
    k, m = involution_split(dla)
    m_set = set(m)
    seeds = [p for p in h_terms if p in m_set]
    h, mtilde = cartan_subalgebra(m, seeds)
    return CartanSplit(dla.n, tuple(k), tuple(h), tuple(mtilde))


@dataclass
class CartanReport:
    """Violating pairs for each of the three Cartan relations.

    Each entry is (P, Q, R) where bb(P, Q) produced a string R outside the
    required subspace.  An empty report certifies the decomposition.
    """

    kk: list[tuple[PauliString, PauliString, PauliString]] = field(default_factory=list)
    km: list[tuple[PauliString, PauliString, PauliString]] = field(default_factory=list)
    mm: list[tuple[PauliString, PauliString, PauliString]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not (self.kk or self.km or self.mm)

    def summary(self) -> str:
        if self.ok:
            return "all Cartan relations hold"
        lines = []
        for name, rows in (("[k,k]⊆k", self.kk), ("[k,m]⊆m", self.km), ("[m,m]⊆k", self.mm)):
            for p, q, r in rows:
                lines.append(f"{name} violated: bb({p}, {q}) = {r}")
        return "\n".join(lines)


def verify_cartan_relations(split: CartanSplit) -> CartanReport:
    """Exhaustive pairwise check of bb(k,k)⊆k, bb(k,m)⊆m, bb(m,m)⊆k."""
    k_set = set(split.k_basis)
    m = split.m_basis
    m_set = set(m)
    report = CartanReport()

    def scan(left: Iterable[PauliString], right: Sequence[PauliString], target: set, sink: list):
        for p in left:
            for q in right:
                hit = bracket_strings(p, q)
                if hit is not None and hit[1] not in target:
                    sink.append((p, q, hit[1]))

    scan(split.k_basis, split.k_basis, k_set, report.kk)
    scan(split.k_basis, m, m_set, report.km)
    scan(m, m, k_set, report.mm)
    return report


def require_valid_split(split: CartanSplit) -> None:
    """Raise StructuralError when any Cartan relation fails."""
    report = verify_cartan_relations(split)
    if not report.ok:
        raise StructuralError(report.summary())
