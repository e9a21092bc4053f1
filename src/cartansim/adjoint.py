"""Array-compiled adjoint action of an ansatz on a closed string basis.

The conjugation K^dag E K is compiled once per (ansatz, basis).  The engine
only rotates: ``Ansatz.angles`` maps theta to the factor angles phi_t, the
sweeps take phi and return d f / d phi, and ``Ansatz.angle_grad`` chains it
back to d f / d theta.

* the element being conjugated lives as a coefficient vector over a fixed
  string basis (normally the DLA basis, which is closed under every
  rotation the ansatz can apply);
* each factor exp(i phi P) becomes a sparse planar rotation: for every
  basis string Q_a anticommuting with P we have bb(P, Q_a) = 2 s Q_b, and
  conjugation by the factor maps

      v[b] <- cos(2 phi) v[b] + dir * sin(2 phi) * s * v[a],

  with dir = +1 for the K^dag E K orientation (and the a<->b pairing a
  permutation of the anticommuting index set, so the scatter is exact);
* the gradient runs the rotations backwards from the forward sweep's final
  state, undoing each one in turn: with R(phi) = exp(phi A),
  d f / d phi = <A E_t, B_t>, where E_t is the forward state after rotation
  t and B_t the cost vector pulled back through the later rotations.  No
  per-step state is stored, so memory stays O(dim) per point;
* a caller that has just run the forward sweep at theta (``conjugate``)
  passes its result as ``forward=`` and ``cost_and_grad`` runs only the
  backward sweep;
* the backward sweep of one point carries E and B as the two rows of one
  (2, dim) array, so each step is one gather, one rotation and one
  scatter for both, through flat indices precomputed per edge block;
* a batch of L points, theta of shape (L, m), runs both sweeps over lanes:
  the state is (dim, 2L), basis index first, and a step gathers whole rows
  of lanes with ``take``, which returns a C-contiguous (k, 2L) block
  whatever the index.  This is how the polish Hessian gets its differenced
  gradients.  Lanes run in chunks of about _LANE_BYTES of step tables and
  states, so they add little to the heap;
* one point keeps kernels of its own: run as a single lane it pays for 2-D
  gathers and scatters and for the copies its dot needs, about twice the
  time per step, and one-point sweeps are what every BFGS step runs;
* every dot product is BLAS ddot over two contiguous vectors, as a point
  run alone gets it: the lanes copy their transposed rows out first, and
  numpy's stacked matmul of (1, k) by (k, 1) calls ddot per lane.  On
  strided rows ddot adds in another order and changes the last bit of
  most gradient entries.  Edge signs are exactly +-1 and 2^n a power of
  two, so where those multiplies happen is exact; no other product is
  regrouped.

The tests hold all of this to a term-by-term dictionary conjugation and to
dense matrices.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

from .errors import DimensionError, StructuralError
from .pauli import AlgebraElement, PauliString, bracket_strings
from .zassenhaus import Ansatz

#: Lane batches run in chunks of about this many bytes of per-lane arrays
#: (step tables and states), so a Hessian's lanes stay small next to the heap.
_LANE_BYTES = 1 << 16


class _Edges(NamedTuple):
    """The rotation pairs of one generator string P: bb(P, Q_qa) = 2 sgn Q_qb.

    The index sets are views of iab = [qa, qa + dim, qb, qb + dim], the flat
    indices that the one-point backward sweep gathers from its (2, dim)
    state of E and B rows; ib = [qb, qb + dim] is where it scatters back.
    """

    qa: np.ndarray
    qb: np.ndarray
    sgn: np.ndarray
    iab: np.ndarray
    ib: np.ndarray


class CompiledAdjoint:
    """Rotation program for K^dag E K / K E K^dag over one string basis."""

    def __init__(self, ansatz: Ansatz, basis: Sequence[PauliString]):
        self.ansatz = ansatz
        self.basis = tuple(basis)
        self.n = self.basis[0].n if self.basis else ansatz.n
        self.index = {p: i for i, p in enumerate(self.basis)}
        if len(self.index) != len(self.basis):
            raise StructuralError("duplicate strings in adjoint basis")

        # one edge block per distinct factor string; sub_edge is its id per factor
        self._edges = [self._compile_edges(p) for p in ansatz.strings]
        self.sub_edge = ansatz.string_ids

    def _compile_edges(self, p: PauliString) -> _Edges:
        qa, qb, sgn = [], [], []
        for i, q in enumerate(self.basis):
            hit = bracket_strings(p, q)
            if hit is None:
                continue
            c, r = hit
            j = self.index.get(r)
            if j is None:
                raise StructuralError(
                    f"basis is not closed: bb({p}, {q}) = {r} is outside it"
                )
            qa.append(i)
            qb.append(j)
            sgn.append(c / 2.0)
        k, dim = len(qa), len(self.basis)
        iab = np.asarray(qa + [i + dim for i in qa] + qb + [j + dim for j in qb], dtype=np.intp)
        return _Edges(iab[:k], iab[2 * k : 3 * k], np.asarray(sgn, dtype=float), iab, iab[2 * k :])

    # -- vector <-> element -----------------------------------------------

    def vector(self, element: AlgebraElement) -> np.ndarray:
        v = np.zeros(len(self.basis))
        for p, c in element.items():
            i = self.index.get(p)
            if i is None:
                raise StructuralError(f"element term {p} is outside the adjoint basis")
            v[i] = c
        return v

    def element(self, v: np.ndarray) -> AlgebraElement:
        return AlgebraElement(self.n, {p: v[i] for i, p in enumerate(self.basis)})

    # -- evaluation ---------------------------------------------------------

    def _steps(self, theta: np.ndarray, direction: float = 1.0) -> tuple[np.ndarray, np.ndarray]:
        """cos(2 phi_t) and direction * sin(2 phi_t) for every step of one point."""
        phi = self.ansatz.angles(theta)
        return np.cos(2 * phi), direction * np.sin(2 * phi)

    def conjugate(self, theta: np.ndarray, v: np.ndarray, side: str = "kdag_e_k") -> np.ndarray:
        """Apply the full rotation program to a coefficient vector."""
        if side not in ("kdag_e_k", "k_e_kdag"):
            raise StructuralError(f"unknown side {side!r}")
        c2, s2 = self._steps(theta, 1.0 if side == "kdag_e_k" else -1.0)
        return self._forward(v, c2, s2, reverse=side == "k_e_kdag")

    def _forward(self, v: np.ndarray, c2: np.ndarray, s2: np.ndarray, reverse: bool = False) -> np.ndarray:
        out = np.array(v, dtype=float, copy=True)
        order = slice(None, None, -1) if reverse else slice(None)
        for j, c, s in zip(self.sub_edge[order].tolist(), c2[order], s2[order]):
            # v[qb] <- c v[qb] + s (sgn v[qa])
            qa, qb, sgn, _, _ = self._edges[j]
            va, vb = out[qa], out[qb]
            va *= sgn
            va *= s
            vb *= c
            vb += va
            out[qb] = vb
        return out

    def trace(self, e: np.ndarray, h: np.ndarray) -> float:
        """tr(E H) = 2^n <e, h> for two elements given as coefficient vectors."""
        return float(2**self.n * (e @ h))

    def cost(self, theta: np.ndarray, v: np.ndarray, h: np.ndarray) -> float:
        """f = tr((K^dag V K) H) = 2^n <conjugated v, h>."""
        return self.trace(self.conjugate(theta, v, "kdag_e_k"), h)

    def cost_and_grad(
        self, theta: np.ndarray, v: np.ndarray, h: np.ndarray, forward: np.ndarray | None = None
    ) -> tuple[float, np.ndarray]:
        """Cost and its exact gradient in one forward + one backward sweep.

        ``theta`` is one point, shape (m,), or L points, shape (L, m), run as
        lanes of the same sweeps; the cost and gradient then have shapes
        (L,) and (L, m).  ``forward`` may carry ``conjugate(theta, v)`` for
        this same single theta and v; the forward sweep is then skipped.
        Either way each point gets exactly the floats it gets alone.
        """
        theta = np.asarray(theta, dtype=float)
        if theta.ndim != 1 and (theta.ndim != 2 or not len(theta)):
            raise DimensionError(f"theta has shape {theta.shape}, expected (m,) or (L, m), L > 0")
        if forward is not None and theta.ndim != 1:
            raise DimensionError("a reused forward state belongs to a single theta")
        if theta.ndim == 2:
            # equal chunks of about _LANE_BYTES: step tables and states per lane
            per_lane = 8 * (3 * len(self.sub_edge) + 4 * len(self.basis))
            chunks = min(len(theta), -(-len(theta) * per_lane // _LANE_BYTES))
            f, grad = np.empty(len(theta)), np.empty_like(theta)
            for rows in np.array_split(np.arange(len(theta)), chunks):
                f[rows], grad[rows] = self._lanes(theta[rows], v, h)
            return f, grad

        c2, s2 = self._steps(theta)
        e = self._forward(v, c2, s2) if forward is None else np.asarray(forward, dtype=float)
        return self.trace(e, h), self.ansatz.angle_grad(theta, self._backward(e, h, c2, s2))

    def _backward(self, e: np.ndarray, h: np.ndarray, c2: np.ndarray, s2: np.ndarray) -> np.ndarray:
        """d f / d phi_t at one point, undoing every step on E and B together."""
        st = np.concatenate([e, h])  # rows E and B of a (2, dim) array
        gphi = np.empty(len(self.sub_edge))
        steps = zip(range(len(gphi) - 1, -1, -1), self.sub_edge[::-1].tolist(), c2[::-1], s2[::-1])
        for t, j, c, s in steps:
            _, _, sgn, iab, ib = self._edges[j]
            x = st[iab].reshape(4, -1)  # rows sgn E[qa], sgn B[qa], E[qb], B[qb]
            xa, xb = x[:2], x[2:]
            xa *= sgn
            gphi[t] = np.dot(x[0], x[3])
            xb *= c
            xa *= s
            xb -= xa
            st[ib] = xb.reshape(-1)
        # d f / d phi_t = 2^n * 2 * sum sgn * E_t[qa] * B_t[qb]
        gphi *= 2.0 * float(2**self.n)
        return gphi

    def _lanes(self, points: np.ndarray, v: np.ndarray, h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """cost_and_grad of L points as L lanes of one forward and one backward sweep."""
        c2 = np.empty((len(self.sub_edge), len(points)))  # (step, lane)
        s2 = np.empty_like(c2)
        for lane, theta in enumerate(points):
            c2[:, lane], s2[:, lane] = self._steps(theta)
        e = self._forward_lanes(v, c2, s2)
        gphi = self._backward_lanes(e, h, c2, s2)
        grad = np.array([self.ansatz.angle_grad(theta, g) for theta, g in zip(points, gphi.T)])
        return np.array([self.trace(row, h) for row in e.T.copy()]), grad

    def _forward_lanes(self, v: np.ndarray, c2: np.ndarray, s2: np.ndarray) -> np.ndarray:
        """K^dag V K for every lane (column) of c2/s2, as a (dim, L) array."""
        e = np.repeat(np.asarray(v, dtype=float)[:, None], c2.shape[1], axis=1)
        for t in range(len(self.sub_edge)):
            qa, qb, sgn = self._edges[self.sub_edge[t]][:3]
            xa = e.take(qa, axis=0)
            xa *= sgn[:, None]
            xb = e.take(qb, axis=0)
            xb *= c2[t]
            xa *= s2[t]
            xb += xa
            e[qb] = xb
        return e

    def _backward_lanes(self, e: np.ndarray, h: np.ndarray, c2: np.ndarray, s2: np.ndarray) -> np.ndarray:
        """_backward for L points at once: (step, lane) derivatives.

        Columns :L of the state are the points' E, columns L: their B.
        """
        lanes = e.shape[1]
        st = np.concatenate([e, np.repeat(h[:, None], lanes, axis=1)], axis=1)
        gphi = np.empty((len(self.sub_edge), lanes))
        for t in range(len(self.sub_edge) - 1, -1, -1):
            qa, qb, sgn = self._edges[self.sub_edge[t]][:3]
            xa = st.take(qa, axis=0)
            xa *= sgn[:, None]
            xb = st.take(qb, axis=0)
            a, b = xa[:, :lanes].T.copy(), xb[:, lanes:].T.copy()
            gphi[t] = np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]  # one ddot per lane
            # E and B halves as (k, 2, L), so lane l's cos/sin reaches both
            xa, xb = xa.reshape(-1, 2, lanes), xb.reshape(-1, 2, lanes)
            xb *= c2[t]
            xa *= s2[t]
            xb -= xa
            st[qb] = xb.reshape(-1, 2 * lanes)
        gphi *= 2.0 * float(2**self.n)
        return gphi
