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
* one point's sweeps run in chunks: runs of steps whose strings have the
  same edge count k, cut to about _LANE_BYTES.  Per chunk and sweep a
  table holds sgn * sin(2 phi_t) and cos(2 phi_t) as the two (k,) rows of
  each step, so a step is four array operations: gather, multiply by its
  table rows, add (forward) or subtract (backward), scatter.  The forward
  step gathers [v[qa], v[qb]]; the backward step carries E and B in one
  flat (2 dim,) state and gathers [[E, B][qa], [E, B][qb]] into the
  chunk's buffer, whose rows give all of the chunk's dots at once after
  it.  The engine itself holds only per-string index arrays and signs;
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
  run alone gets it: numpy's stacked matmul of (1, k) by (k, 1) calls
  ddot per row, on a chunk's buffer rows or on the lanes' transposed rows,
  which they copy out first.  On strided rows ddot adds in another order
  and changes the last bit of most gradient entries (so does ``einsum``).
  Edge signs are exactly +-1 and 2^n a power of two, so where those
  multiplies happen is exact, and c * v[qb] + s * sgn * v[qa] is one
  rounded add whichever term comes first; no other product is regrouped.

The tests hold all of this to a term-by-term dictionary conjugation and to
dense matrices.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

from .errors import DimensionError, StructuralError
from .pauli import AlgebraElement, PauliString, bracket_strings
from .zassenhaus import Ansatz

#: Lane batches and one point's steps run in chunks of about this many bytes
#: of per-lane or per-step arrays (step tables, states, gather buffers), so
#: a sweep's working arrays stay small next to the heap.
_LANE_BYTES = 1 << 16


class _Edges(NamedTuple):
    """The rotation pairs of one generator string P: bb(P, Q_qa) = 2 sgn Q_qb.

    ab = [qa, qb] is what a forward step gathers, and qa, qb are its rows.
    iab = [[qa, qa + dim], [qb, qb + dim]] is what a backward step gathers
    from its flat state of E then B; ib = iab[1] is where it scatters back.
    sgn is a row of the engine's sign table.
    """

    qa: np.ndarray
    qb: np.ndarray
    sgn: np.ndarray
    ab: np.ndarray
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
        pairs = [self._compile_edges(p) for p in ansatz.strings]
        self._k = np.array([len(qa) for qa, _, _ in pairs], dtype=np.intp)
        # row j holds string j's edge signs, zero-padded to the largest edge count
        self._sgn = np.zeros((len(pairs), int(self._k.max(initial=0))))
        self._edges = []
        for j, (qa, qb, sgn) in enumerate(pairs):
            k = len(qa)
            self._sgn[j, :k] = sgn
            ab = np.array([qa, qb], dtype=np.intp)
            iab = np.stack([ab, ab + len(self.basis)], axis=1)
            self._edges.append(_Edges(ab[0], ab[1], self._sgn[j, :k], ab, iab, iab[1]))
        self.sub_edge = ansatz.string_ids

    def _compile_edges(self, p: PauliString) -> tuple[list[int], list[int], list[float]]:
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
        return qa, qb, sgn

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
        return self._forward(v, c2, s2, self._chunks(), reverse=side == "k_e_kdag")

    def _chunks(self) -> list[tuple[int, int, int]]:
        """(start, stop, k) of the steps: runs with one edge count k, cut so
        that a chunk's tables and buffers take about _LANE_BYTES."""
        ks = self._k[self.sub_edge]
        if not len(ks):
            return []
        cuts = (np.flatnonzero(ks[1:] != ks[:-1]) + 1).tolist()
        chunks = []
        for start, stop in zip([0] + cuts, cuts + [len(ks)]):
            k = int(ks[start])
            size = max(1, _LANE_BYTES // (56 * max(k, 1)))  # 7k floats a step
            chunks += [(t, min(t + size, stop), k) for t in range(start, stop, size)]
        return chunks

    def _table(self, start: int, stop: int, k: int, c2: np.ndarray, s2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """A chunk's edge signs (step, k) and coefficients (step, 2, k): row 0
        sgn * s2, row 1 c2.  sgn is +-1, so sgn * s2 * v is (sgn * v) * s2."""
        sgn = self._sgn[self.sub_edge[start:stop], :k]
        tab = np.empty((stop - start, 2, k))
        np.multiply(sgn, s2[start:stop, None], out=tab[:, 0])
        tab[:, 1] = c2[start:stop, None]
        return sgn, tab

    def _forward(
        self, v: np.ndarray, c2: np.ndarray, s2: np.ndarray, chunks: list, reverse: bool = False
    ) -> np.ndarray:
        out = np.array(v, dtype=float, copy=True)
        edges, sub = self._edges, self.sub_edge.tolist()
        for start, stop, k in reversed(chunks) if reverse else chunks:
            ids, tab = sub[start:stop], self._table(start, stop, k, c2, s2)[1]
            for j, coef in zip(ids[::-1], tab[::-1]) if reverse else zip(ids, tab):
                # v[qb] <- s (sgn v[qa]) + c v[qb]
                e = edges[j]
                x = out[e.ab]
                x *= coef
                out[e.qb] = x[0] + x[1]
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
        chunks = self._chunks()
        e = self._forward(v, c2, s2, chunks) if forward is None else np.asarray(forward, dtype=float)
        return self.trace(e, h), self.ansatz.angle_grad(theta, self._backward(e, h, c2, s2, chunks))

    def _backward(self, e: np.ndarray, h: np.ndarray, c2: np.ndarray, s2: np.ndarray, chunks: list) -> np.ndarray:
        """d f / d phi_t at one point, undoing every step on E and B together."""
        st = np.concatenate([e, h])  # rows E and B of a (2, dim) array
        gphi = np.empty(len(self.sub_edge))
        edges, sub = self._edges, self.sub_edge.tolist()
        for start, stop, k in reversed(chunks):
            sgn, tab = self._table(start, stop, k, c2, s2)
            # a step's gathered [[E[qa], B[qa]], [E[qb], B[qb]]], kept for the dots
            got = np.empty((stop - start, 2, 2, k))
            x = np.empty((2, 2, k))
            xa, xb = x
            for j, coef, g in zip(sub[start:stop][::-1], tab[::-1, :, None], got[::-1]):
                # E, B [qb] <- c (E, B)[qb] - s (sgn (E, B)[qa])
                iab = edges[j].iab
                st.take(iab, out=g, mode="wrap")  # wrap, unlike raise, does not buffer out
                np.multiply(g, coef, x)
                np.subtract(xb, xa, xb)
                st[edges[j].ib] = xb
            # d f / d phi_t = 2^n * 2 * sum sgn * E_t[qa] * B_t[qb], one ddot a step
            ea = got[:, 0, 0] * sgn
            gphi[start:stop] = np.matmul(ea[:, None], got[:, 1, 1, :, None])[:, 0, 0]
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
