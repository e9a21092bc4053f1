"""Exact algebra of n-qubit Pauli strings and real-weighted Pauli sums.

Conventions
-----------
A Pauli string on n sites is a pair of n-bit integers ``(x, z)``; bit k of
each word describes site k:

    (x_k, z_k) = (0, 0) -> I,  (1, 0) -> X,  (1, 1) -> Y,  (0, 1) -> Z

Site 0 is the *leftmost* character of a text label and the *least
significant* bit of the words.  Every string factors as

    P = i**y_count(P) * X^x Z^z

with ``y_count`` the number of Y sites, so products reduce to XOR on the
words plus an integer power of i tracked mod 4.  All string-level algebra is
exact; floating point enters only through coefficients.

A Hermitian operator is represented as a real-weighted sum ``E = sum c_P P``
(:class:`AlgebraElement`).  The anti-Hermitian element it stands for is
``i E``, and the bracket used throughout the package is the adapted one

    bb(A, B) = -i [A, B]

which maps real-weighted sums to real-weighted sums, keeping the Lie-algebra
side of the computation in real arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

import numpy as np

from .errors import DimensionError, PauliParseError, ResourceLimitError, StructuralError

#: Hard cap on the qubit count of a single string (bit-vector bookkeeping
#: stays cheap and every dense matrix stays addressable).
MAX_QUBITS = 12

#: Coefficients with magnitude below this are dropped from sums.
PRUNE_THRESHOLD = 1e-14

#: Cap for every dense matrix: ``to_dense``, ``k_dense`` and the dense layer
#: (2^12 x 2^12 is the largest matrix the verification layer is willing to
#: materialize).  Read at call time.
DENSE_QUBIT_CAP = 12

_LETTERS = {(0, 0): "I", (1, 0): "X", (1, 1): "Y", (0, 1): "Z"}
_BITS = {v: k for k, v in _LETTERS.items()}

_I_POWERS = (1 + 0j, 1j, -1 + 0j, -1j)


@dataclass(frozen=True, slots=True)
class PauliString:
    """A single Pauli string in symplectic (x, z) encoding.

    Attributes
    ----------
    n : int
        Number of sites, 1 <= n <= MAX_QUBITS.
    x, z : int
        Bit masks of X-type and Z-type support (bit k = site k).
    """

    n: int
    x: int
    z: int

    def __post_init__(self) -> None:
        if not 1 <= self.n <= MAX_QUBITS:
            raise DimensionError(f"qubit count must be in 1..{MAX_QUBITS}, got {self.n}")
        lim = 1 << self.n
        if not (0 <= self.x < lim and 0 <= self.z < lim):
            raise DimensionError(f"bit masks out of range for n={self.n}: x={self.x} z={self.z}")

    @property
    def label(self) -> str:
        return "".join(_LETTERS[(self.x >> k) & 1, (self.z >> k) & 1] for k in range(self.n))

    @property
    def y_count(self) -> int:
        """Number of sites carrying a Y factor."""
        return (self.x & self.z).bit_count()

    @property
    def weight(self) -> int:
        """Number of non-identity sites."""
        return (self.x | self.z).bit_count()

    def __str__(self) -> str:
        return self.label

    def __repr__(self) -> str:
        return f"PauliString({self.label!r})"


def parse_label(label: str) -> PauliString:
    """Parse a text label like ``"XIYZ"`` (site 0 leftmost).

    Raises
    ------
    PauliParseError
        If the label is empty, too long, or has a non-IXYZ character;
        the message names the offending position.
    """
    if not label:
        raise PauliParseError("empty Pauli label")
    if len(label) > MAX_QUBITS:
        raise PauliParseError(f"label {label!r} longer than {MAX_QUBITS} sites")
    x = z = 0
    for k, ch in enumerate(label):
        try:
            xb, zb = _BITS[ch]
        except KeyError:
            raise PauliParseError(f"invalid character {ch!r} at position {k} in {label!r}") from None
        x |= xb << k
        z |= zb << k
    return PauliString(len(label), x, z)


def canonical_key(p: PauliString) -> tuple[int, int]:
    """Sort key for the package-wide canonical string order.

    Strings sort by (z word, x word) as unsigned integers; this puts plain-X
    strings first and plain-Z strings of high support last, and is the order
    used for DLA bases, subalgebra seeds, and parameter indexing.
    """
    return (p.z, p.x)


def sort_strings(strings: Iterable[PauliString]) -> list[PauliString]:
    return sorted(strings, key=canonical_key)


def _require_same_n(a, b) -> None:
    if a.n != b.n:
        raise DimensionError(f"mixed qubit counts: {a.n} vs {b.n}")


def pauli_mul(p: PauliString, q: PauliString) -> tuple[int, PauliString]:
    """Exact product ``P Q = i**rho * R``.

    Returns ``(rho, R)`` with ``rho`` an integer mod 4.  Follows from
    ``P = i**y(P) X^x Z^z`` and ``Z^z X^x = (-1)^{|z & x|} X^x Z^z``.
    """
    _require_same_n(p, q)
    r = PauliString(p.n, p.x ^ q.x, p.z ^ q.z)
    rho = (p.y_count + q.y_count - r.y_count + 2 * (p.z & q.x).bit_count()) % 4
    return rho, r


def commutes(p: PauliString, q: PauliString) -> bool:
    """True when the two strings commute (symplectic form is even)."""
    return ((p.x & q.z).bit_count() + (p.z & q.x).bit_count()) % 2 == 0


def bracket_strings(p: PauliString, q: PauliString) -> tuple[float, PauliString] | None:
    """Adapted bracket ``bb(P, Q) = -i(PQ - QP)`` of two strings.

    Returns ``None`` for commuting strings, else ``(c, R)`` with
    ``bb(P, Q) = c R`` and c = +/-2.  Anticommuting strings give
    ``PQ = i**rho R`` with rho odd, so ``-i(PQ - QP) = -2 i**(rho+1) R``.
    """
    if commutes(p, q):
        return None
    rho, r = pauli_mul(p, q)
    # rho is odd here; i**(rho+1) is -1 for rho=1 and +1 for rho=3
    return (2.0 if rho == 1 else -2.0), r


class AlgebraElement:
    """Real-weighted sum of Pauli strings on a fixed number of sites.

    Terms with |coefficient| < PRUNE_THRESHOLD are dropped on construction,
    so every arithmetic result is automatically pruned.  Instances should be
    treated as immutable.
    """

    __slots__ = ("n", "_terms")

    def __init__(self, n: int, terms: Mapping[PauliString, float] | None = None):
        if not 1 <= n <= MAX_QUBITS:
            raise DimensionError(f"qubit count must be in 1..{MAX_QUBITS}, got {n}")
        self.n = n
        kept: dict[PauliString, float] = {}
        if terms:
            for p, c in terms.items():
                if p.n != n:
                    raise DimensionError(f"term {p} has {p.n} sites, element has {n}")
                c = float(c)
                if abs(c) >= PRUNE_THRESHOLD:
                    kept[p] = c
        self._terms = kept

    # -- construction helpers -------------------------------------------------

    @classmethod
    def from_label_dict(cls, labels: Mapping[str, float], n: int | None = None) -> "AlgebraElement":
        """Build from ``{"XX": 1.0, "ZI": 0.5, ...}``; labels must agree on length."""
        parsed = {parse_label(lbl): c for lbl, c in labels.items()}
        if n is None:
            if not parsed:
                raise DimensionError("cannot infer qubit count from an empty label dict")
            n = next(iter(parsed)).n
        return cls(n, parsed)

    @classmethod
    def from_string(cls, p: PauliString, coeff: float = 1.0) -> "AlgebraElement":
        return cls(p.n, {p: coeff})

    @classmethod
    def from_records(cls, records: Iterable[Mapping], n: int | None = None) -> "AlgebraElement":
        """Inverse of to_records: a list of {label, coefficient} entries."""
        return cls.from_label_dict({r["label"]: r["coefficient"] for r in records}, n=n)

    def to_records(self) -> list[dict]:
        """Serialized form: one {label, coefficient} record per term, canonical order."""
        return [{"label": p.label, "coefficient": c} for p, c in self.sorted_terms()]

    # -- mapping access -------------------------------------------------------

    def items(self) -> Iterator[tuple[PauliString, float]]:
        return iter(self._terms.items())

    def sorted_terms(self) -> list[tuple[PauliString, float]]:
        """Terms in canonical (z, x) order."""
        return sorted(self._terms.items(), key=lambda it: canonical_key(it[0]))

    def coeff(self, p: PauliString) -> float:
        return self._terms.get(p, 0.0)

    def support(self) -> frozenset[PauliString]:
        return frozenset(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def __len__(self) -> int:
        return len(self._terms)

    def __contains__(self, p: PauliString) -> bool:
        return p in self._terms

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        _require_same_n(self, other)
        acc = dict(self._terms)
        for p, c in other._terms.items():
            acc[p] = acc.get(p, 0.0) + c
        return AlgebraElement(self.n, acc)

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        _require_same_n(self, other)
        acc = dict(self._terms)
        for p, c in other._terms.items():
            acc[p] = acc.get(p, 0.0) - c
        return AlgebraElement(self.n, acc)

    def __neg__(self) -> "AlgebraElement":
        return AlgebraElement(self.n, {p: -c for p, c in self._terms.items()})

    def __mul__(self, scalar: float) -> "AlgebraElement":
        return AlgebraElement(self.n, {p: scalar * c for p, c in self._terms.items()})

    __rmul__ = __mul__

    def restricted(self, keep: Iterable[PauliString]) -> "AlgebraElement":
        """Projection onto the span of the given strings."""
        keep = set(keep)
        return AlgebraElement(self.n, {p: c for p, c in self._terms.items() if p in keep})

    def norm(self) -> float:
        """Normalized Frobenius-type norm sqrt(2^n * sum c_P^2)."""
        return float(np.sqrt(hs_inner(self, self)))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return self.n == other.n and self._terms == other._terms

    def allclose(self, other: "AlgebraElement", tol: float = 1e-12) -> bool:
        _require_same_n(self, other)
        for p in self.support() | other.support():
            if abs(self.coeff(p) - other.coeff(p)) > tol:
                return False
        return True

    def __repr__(self) -> str:
        parts = [f"{c:+g}*{p}" for p, c in self.sorted_terms()[:6]]
        if len(self) > 6:
            parts.append("...")
        body = " ".join(parts) if parts else "0"
        return f"<AlgebraElement n={self.n}: {body}>"


def bracket(a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
    """Adapted bracket ``bb(A, B) = -i[A, B]`` of two real-weighted sums."""
    _require_same_n(a, b)
    acc: dict[PauliString, float] = {}
    for p, cp in a.items():
        for q, cq in b.items():
            hit = bracket_strings(p, q)
            if hit is None:
                continue
            c, r = hit
            acc[r] = acc.get(r, 0.0) + cp * cq * c
    return AlgebraElement(a.n, acc)


def hs_inner(a: AlgebraElement, b: AlgebraElement) -> float:
    """Hilbert-Schmidt inner product ``tr(A B) = 2^n sum_P a_P b_P``."""
    _require_same_n(a, b)
    small, big = (a, b) if len(a) <= len(b) else (b, a)
    s = 0.0
    for p, c in small.items():
        d = big.coeff(p)
        if d:
            s += c * d
    return float(2**a.n * s)


def phased_permutation(p: PauliString) -> tuple[np.ndarray, np.ndarray]:
    """The string as a phased permutation: ``P[rows[b], b] = phase[b]``.

    Dense-index bit n-1-k is site k.  ``P = i**y X^x Z^z`` sends ``|b>`` to
    ``(-1)**|b & z| |b ^ x>`` (Aaronson & Gottesman, PRA 70, 052328), so
    ``rows`` is an involution and every phase is one of 1, i, -1, -i.
    """
    x, z = (int(format(word, f"0{p.n}b")[::-1], 2) for word in (p.x, p.z))
    b = np.arange(1 << p.n)
    odd = b & z
    for shift in (8, 4, 2, 1):  # parity fold; n <= 12 fits in 16 bits
        odd ^= odd >> shift
    return b ^ x, _I_POWERS[p.y_count % 4] * (1 - 2 * (odd & 1))


def string_rotation(p: PauliString) -> tuple[np.ndarray, np.ndarray]:
    """``(rows, g)`` with ``(-iP) M = g[:, None] * M[rows]``; g is real for odd-Y strings."""
    rows, phase = phased_permutation(p)
    g = -1j * phase[rows]
    return rows, (g.real if p.y_count & 1 else g)


def apply_rotation(m: np.ndarray, rotation: tuple[np.ndarray, np.ndarray], angle: float) -> np.ndarray:
    """``exp(-i angle P) M = cos(angle) M + sin(angle) (-iP) M``: one row gather."""
    rows, g = rotation
    out = (np.sin(angle) * g)[:, None] * m[rows]
    out += np.cos(angle) * m
    return out


def string_dense(p: PauliString) -> np.ndarray:
    """Dense 2^n x 2^n matrix of a single string (site 0 = leftmost kron factor)."""
    return to_dense(AlgebraElement.from_string(p))


def to_dense(a: AlgebraElement) -> np.ndarray:
    """Dense Hermitian matrix of a sum; refuses above ``DENSE_QUBIT_CAP`` qubits."""
    if a.n > DENSE_QUBIT_CAP:
        raise ResourceLimitError(f"dense conversion of {a.n} qubits exceeds cap {DENSE_QUBIT_CAP}")
    dim = 2**a.n
    out = np.zeros((dim, dim), dtype=complex)
    cols = np.arange(dim)
    for p, c in a.items():
        rows, phase = phased_permutation(p)
        out[rows, cols] += c * phase
    return out


# ------------------------------------------------------------ symmetry frame
#
# A string is also a word w = z | x << n of GF(2)^{2n}; the symplectic form
# <u, v> = |u.x & v.z| + |u.z & v.x| mod 2 is 0 exactly when the strings commute.


def _word(p: PauliString) -> int:
    return p.z | p.x << p.n


def _string(n: int, w: int) -> PauliString:
    return PauliString(n, w >> n, w & ((1 << n) - 1))


def _symp(n: int, u: int, v: int) -> int:
    swapped = v >> n | (v & ((1 << n) - 1)) << n
    return (u & swapped).bit_count() & 1


def _y_odd(n: int, w: int) -> int:
    return (w >> n & w).bit_count() & 1


def _reduced(words: Iterable[int]) -> dict[int, int]:
    """Reduced row-echelon basis of the span, keyed by leading bit.

    No basis word holds another's leading bit, so a combination of basis
    words leads with the largest key among them.
    """
    pivots: dict[int, int] = {}
    for r in words:
        for b, v in pivots.items():
            if r >> b & 1:
                r ^= v
        if r:
            lead = r.bit_length() - 1
            for b, v in pivots.items():
                if v >> lead & 1:
                    pivots[b] = v ^ r
            pivots[lead] = r
    return pivots


def _kernel(rows: Iterable[int], width: int) -> list[int]:
    """Basis of the t in GF(2)^width with an even |row & t| for every row."""
    pivots = _reduced(rows)
    return [
        (1 << f) | sum(1 << b for b, v in pivots.items() if v >> f & 1) for f in range(width) if f not in pivots
    ]


def _symplectic_pairs(n: int, words: list[int], keep: int) -> tuple[list[tuple[int, int]], list[int]]:
    """Symplectic Gram-Schmidt in list order: ``(pairs, unpaired)``.

    Each word in turn, orthogonalized against the pairs before it, takes the
    first later word it anticommutes with as its partner; a word with none
    lies in the radical of the span.  Zero words are skipped.  Within a pair
    (u, w), w -> w + u, and past the first ``keep`` pairs also u -> u + w,
    trade an odd-Y word for an even-Y one where that is possible: a basis of
    even-Y words keeps every string's Y parity, so real matrices stay real.
    """
    words = list(words)
    pairs, unpaired = [], []
    while words:
        u = words.pop(0)
        if not u:
            continue
        j = next((j for j, w in enumerate(words) if _symp(n, u, w)), None)
        if j is None:
            unpaired.append(u)
            continue
        w = words.pop(j)
        odd_u, odd_w = _y_odd(n, u), _y_odd(n, w)
        if odd_w and not odd_u:
            w ^= u
        elif odd_u and not odd_w and len(pairs) >= keep:
            u ^= w
        pairs.append((u, w))
        # v -> v + <v, w> u + <v, u> w commutes with both u and w
        words = [v ^ (u if _symp(n, v, w) else 0) ^ (w if _symp(n, v, u) else 0) for v in words]
    return pairs, unpaired


@dataclass(frozen=True)
class SymmetryFrame:
    """A Clifford frame that turns commuting Pauli symmetries into single-qubit Z's.

    ``symmetries`` generate a maximal commuting subgroup of the Pauli strings
    that commute with every string the frame was built from.  ``pairs`` is a
    symplectic basis (a_j, b_j) of GF(2)^{2n} whose first ``len(symmetries)``
    a_j span those symmetries; the Clifford U with U A_j U^dag = Z_j and
    U B_j U^dag = X_j sends a string P to ``sign * P'``, where P' has
    x'_j = <P, a_j> and z'_j = <P, b_j> (see :meth:`map`).  A string that
    commutes with every symmetry therefore has no x-bit on the stabilized
    sites 0..r-1, and the dense layer's x-mask cosets find 2^r sectors.

    With no pairs the frame is the identity: the symmetries are Z-type
    already, and the x-masks see them without a change of frame.
    """

    n: int
    symmetries: tuple[PauliString, ...]
    pairs: tuple[tuple[PauliString, PauliString], ...]

    @property
    def stabilized(self) -> int:
        """Mask of the sites whose images carry no x-bit (none in the identity frame)."""
        return (1 << len(self.symmetries)) - 1 if self.pairs else 0

    def map(self, p: PauliString) -> tuple[int, PauliString]:
        """``(sign, P')`` with U P U^dag = sign * P', sign = +-1.

        With alpha_j = z'_j and beta_j = x'_j, :func:`pauli_mul` multiplies
        out prod_j A_j^{alpha_j} B_j^{beta_j} = i^rho P, left to right.  U
        sends that product to prod_j Z_j^{alpha_j} X_j^{beta_j} = i^{y'} P',
        since Z X = iY on a site, so sign = i^{y' - rho}.

        Raises StructuralError for a string that anticommutes with a
        symmetry: it would mix the sectors the frame is built to find.
        """
        if p.n != self.n:
            raise DimensionError(f"string {p} has {p.n} sites, frame has {self.n}")
        w = _word(p)
        broken = [s.label for s in self.symmetries if _symp(self.n, w, _word(s))]
        if broken:
            raise StructuralError(f"{p.label} anticommutes with the symmetries {', '.join(broken)}")
        if not self.pairs:
            return 1, p
        x = z = rho = 0
        acc = PauliString(self.n, 0, 0)
        for j, (a, b) in enumerate(self.pairs):
            alpha, beta = _symp(self.n, w, _word(b)), _symp(self.n, w, _word(a))
            for factor, bit in ((a, alpha), (b, beta)):
                if bit:
                    r, acc = pauli_mul(acc, factor)
                    rho += r
            z |= alpha << j
            x |= beta << j
        image = PauliString(self.n, x, z)
        phase = (image.y_count - rho) % 4
        if acc != p or phase % 2:
            raise StructuralError(f"the symplectic basis does not expand {p.label}")
        return 1 - phase, image

    def map_element(self, e: AlgebraElement) -> AlgebraElement:
        """U E U^dag term by term, in E's term order."""
        terms = {}
        for p, c in e.items():
            sign, image = self.map(p)
            terms[image] = sign * c
        return AlgebraElement(e.n, terms)


def symmetry_frame(strings: Iterable[PauliString]) -> SymmetryFrame:
    """The frame in which the Pauli symmetries of ``strings`` are single-qubit Z's.

    Four steps of GF(2) arithmetic on (x, z) words (Aaronson & Gottesman,
    PRA 70, 052328, 2004):

    1. the commutant C: every string that commutes with all of ``strings``;
    2. a maximal commuting subspace L of C that holds C's Z-type part,
       by a symplectic Gram-Schmidt over C with the Z-type words first;
    3. a symplectic basis (a_j, b_j) of the whole space whose first a_j
       span L, by Gram-Schmidt over L's words and then the unit words;
    4. the map itself, :meth:`SymmetryFrame.map`.

    When C's Z-type part is already maximal, L is that part and the frame
    is the identity.
    """
    strings = list(strings)
    if not strings:
        raise StructuralError("a symmetry frame needs at least one string")
    n = strings[0].n
    for p in strings:
        _require_same_n(p, strings[0])
    # <v, P> = |v & w| for w = P's word with x and z swapped: the commutant is a kernel
    commutant = _kernel({p.x | p.z << n for p in strings}, 2 * n)
    # z sits in the low bits, so a combination is Z-type iff all its leading bits are
    basis = _reduced(commutant)
    z_type = [v for b, v in sorted(basis.items()) if b < n]
    rest = [v for b, v in sorted(basis.items()) if b >= n]
    # Z-type words commute, so each pairs with a later non-Z-type word or none,
    # and stays Z-type as it is orthogonalized: L = the u's and the radical holds them
    pairs, radical = _symplectic_pairs(n, z_type + rest, keep=0)
    commuting = [u for u, _ in pairs] + radical
    if len(commuting) == len(z_type):
        return SymmetryFrame(n, tuple(_string(n, v) for v in z_type), ())
    # the words of L pair only with unit words, and stay in L as they are orthogonalized
    units = [1 << k for k in range(2 * n)]
    full_pairs, _ = _symplectic_pairs(n, commuting + units, keep=len(commuting))
    return SymmetryFrame(
        n,
        tuple(_string(n, u) for u, _ in full_pairs[: len(commuting)]),
        tuple((_string(n, a), _string(n, b)) for a, b in full_pairs),
    )


def y_parity(p: PauliString) -> int:
    """1 for an odd number of Y sites, else 0.

    This is the grading of the involution theta(iP) = -(iP)^T: strings with
    odd Y-count are antisymmetric (theta-fixed, the `k` side), strings with
    even Y-count are symmetric (the `m` side).
    """
    return p.y_count & 1
