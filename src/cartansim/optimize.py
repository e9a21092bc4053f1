"""Trace cost, gradients, BFGS minimizer, and h0 extraction.

The decomposition searches for theta minimizing

    f(theta) = tr(K(theta)^dag v K(theta) H)

where v = sum_i gamma^i h_i is a fixed element of the abelian subalgebra
with decreasing transcendental-ratio coefficients.  At a regular minimum
K H K^dag lands in span(h); the part left outside is reported as a
Frobenius residual, never silently dropped.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

from .adjoint import CompiledAdjoint
from .errors import ConfigError, NumericalError, StagnationError, StructuralError
from .pauli import AlgebraElement, PauliString, sort_strings
from .zassenhaus import Ansatz


@dataclass(frozen=True)
class TargetV:
    """The target element v = sum_i gamma_i h_i with gamma_i = (1/pi)^i."""

    element: AlgebraElement
    h_basis: tuple[PauliString, ...]
    gammas: tuple[float, ...]


def make_target_v(h_basis: Sequence[PauliString]) -> TargetV:
    """Attach coefficients (1/pi)^i, i = 1..|h|, in canonical order.

    Distinct powers of 1/pi have pairwise irrational ratios, which is what
    makes the minimizer of f single out a genuine diagonalization; the
    decreasing magnitudes keep v bounded for large bases.
    """
    if not h_basis:
        raise StructuralError("empty h basis; cannot build the target element")
    ordered = tuple(sort_strings(h_basis))
    gammas = tuple(float(np.pi ** -(i + 1)) for i in range(len(ordered)))
    element = AlgebraElement(ordered[0].n, dict(zip(ordered, gammas)))
    return TargetV(element, ordered, gammas)


@dataclass(frozen=True)
class OptimizerOptions:
    tol_grad_inf: float = 1e-10
    max_iters: int = 5000
    seed: int = 7
    init_scale: float = 0.01
    multi_start: int = 1

    def __post_init__(self) -> None:
        if self.max_iters < 1:
            raise ConfigError("max_iters must be at least 1")
        if self.multi_start < 1:
            raise ConfigError("multi_start must be at least 1")


#: What a minimization did, counted by bfgs_minimize and summed by
#: optimize_theta over the starts that ran.  grad_evals includes the 2m
#: gradients of every polish Hessian; forward_reuses counts the gradients
#: that the grad_fn of make_cost_functions answered from the forward sweep
#: of the cost evaluation just before (a grad_fn without that memo, or one
#: wrapped in a plain function, reports none).  backtracks counts the trial
#: steps the Armijo search rejected.  metric_resets put the inverse Hessian
#: back to the identity.
COUNTERS = (
    "cost_evals",
    "grad_evals",
    "forward_reuses",
    "backtracks",
    "polish_attempts",
    "polish_failures",
    "metric_resets",
)

#: A start has decomposed H when ||K H K^dag - h0|| / ||H|| is at or below
#: this.  Decomposed runs end near 1e-11 or below, stuck ones at 1e-2 or
#: above; the benchmark's own success test uses the same bound.
DECOMPOSED_TOL = 1e-8


@dataclass
class OptimizationResult:
    theta_star: np.ndarray
    cost_trace: list[tuple[int, float, float]]  # (iteration, f, grad inf-norm)
    converged: bool
    counters: dict[str, int] = field(default_factory=lambda: dict.fromkeys(COUNTERS, 0))
    # one summary per start that ran, filled in by optimize_theta
    starts: list[dict] = field(default_factory=list)

    @property
    def iterations(self) -> int:
        return self.cost_trace[-1][0]

    @property
    def final_cost(self) -> float:
        return self.cost_trace[-1][1]

    @property
    def final_grad_inf(self) -> float:
        return self.cost_trace[-1][2]


def initial_theta(parameter_count: int, options: OptimizerOptions) -> np.ndarray:
    """Seeded uniform draw in [-init_scale, init_scale].

    theta = 0 can sit exactly on a stationary point of f, so a small
    deterministic perturbation is used instead of the origin.
    """
    rng = np.random.default_rng(options.seed)
    return rng.uniform(-options.init_scale, options.init_scale, size=parameter_count)


def make_cost_functions(
    ansatz: Ansatz,
    basis: Sequence[PauliString],
    v: TargetV,
    h: AlgebraElement,
) -> tuple[Callable[[np.ndarray], float], Callable[[np.ndarray], np.ndarray], CompiledAdjoint]:
    """Engine-backed cost/grad closures over a fixed closed basis.

    cost_fn keeps the forward sweep of the last point it evaluated, and
    grad_fn at exactly that point (bit for bit) reuses it and runs only the
    backward sweep.  The minimizer asks for the gradient right after the
    cost at every accepted step and polish point.
    """
    engine = CompiledAdjoint(ansatz, basis)
    v_vec = engine.vector(v.element)
    h_vec = engine.vector(h)
    last: list = [None, None]  # the last cost point (a copy) and its forward state

    def cost_fn(theta: np.ndarray) -> float:
        theta = np.asarray(theta, dtype=float)
        e = engine.conjugate(theta, v_vec)
        last[:] = theta.copy(), e
        return engine.trace(e, h_vec)

    return cost_fn, _EngineGradient(engine, v_vec, h_vec, last), engine


class _EngineGradient:
    """The grad_fn of make_cost_functions: the engine's analytic gradient.

    ``last`` is the cost closure's [point, forward state]; a call at exactly
    that point takes the forward state from it and adds one to
    ``forward_reuses``.  ``lanes(points)`` gives the gradients at the rows
    of an (L, m) array from lane sweeps, which the polish Hessian uses.  (A
    class, not a closure: a closure that counted on its own attribute would
    hold itself in a reference cycle, and the engine with it, until the
    cycle collector ran.)
    """

    def __init__(self, engine: CompiledAdjoint, v_vec: np.ndarray, h_vec: np.ndarray, last: list):
        self.engine, self.v_vec, self.h_vec, self.last = engine, v_vec, h_vec, last
        self.forward_reuses = 0

    def __call__(self, theta: np.ndarray) -> np.ndarray:
        theta = np.asarray(theta, dtype=float)
        point, state = self.last
        if point is not None and point.shape == theta.shape and point.tobytes() == theta.tobytes():
            self.forward_reuses += 1
        else:
            state = None  # not the last cost point, bit for bit: sweep forward again
        return self.engine.cost_and_grad(theta, self.v_vec, self.h_vec, state)[1]

    def lanes(self, points: np.ndarray) -> np.ndarray:
        return self.engine.cost_and_grad(points, self.v_vec, self.h_vec)[1]


_ARMIJO_C1 = 1e-4  # sufficient-decrease constant of the line search
_BACKTRACK_RHO = 0.5  # step shrink factor per backtrack
_MAX_BACKTRACKS = 60
_HESSIAN_COLUMNS = 16  # columns of the polish Hessian per lanes call
_STEP_CAP = 2.0  # trial-direction length cap (trust-region-style safeguard)


def _armijo_backtrack(cost_fn, theta, f, g, p, counters) -> tuple[np.ndarray, float] | None:
    """Armijo backtracking; returns (theta_new, f_new) or None.

    The sufficient-decrease test is evaluated on the computed float values,
    so once improvements shrink below the resolution of f the accepted steps
    go flat (f_new == f) rather than failing outright; an accepted step never
    increases f either way.  The caller watches for such below-resolution
    runs and hands the terminal approach over to the gradient-norm polish.
    """
    slope = float(g @ p)
    alpha = 1.0
    for _ in range(_MAX_BACKTRACKS):
        theta_new = theta + alpha * p
        f_new = cost_fn(theta_new)
        if np.isfinite(f_new) and f_new <= f + _ARMIJO_C1 * alpha * slope:
            return theta_new, f_new
        counters["backtracks"] += 1
        alpha *= _BACKTRACK_RHO
    return None


def _fd_hessian(grad_fn, theta, step):
    """Symmetrized central differences of the gradient.

    Columns go in blocks; a block's gradients at theta +- step e_i come from
    one call of ``grad_fn.lanes`` where the closure has it, else from one
    call each, column by column.
    """
    m = theta.size
    lanes = getattr(grad_fn, "lanes", None)
    width = _HESSIAN_COLUMNS if lanes is not None else 1
    h = np.empty((m, m))
    for lo in range(0, m, width):
        cols = np.arange(lo, min(lo + width, m))
        shift = np.zeros((len(cols), m))
        shift[np.arange(len(cols)), cols] = step
        points = np.concatenate([theta + shift, theta - shift])
        if lanes is not None:
            grads = lanes(points)
        else:
            grads = np.array([np.asarray(grad_fn(p), float) for p in points]).reshape(len(points), m)
        h[:, cols] = ((grads[: len(cols)] - grads[len(cols) :]) / (2.0 * step)).T
    return 0.5 * (h + h.T)


def _newton_polish(cost_fn, grad_fn, theta, f, g, counters):
    """One terminal-phase step accepted on gradient-norm decrease.

    Near a stationary point the cost goes flat at double resolution while the
    analytically computed gradient still carries signal, so the last stretch
    down to tol_grad_inf is driven by ||grad|| instead of f.  The step solves
    the stationarity system grad = 0 with a Levenberg-Marquardt direction
    under a differenced Hessian (a descent direction of ||grad||^2 whatever
    the curvature signs), falling back to the plain ||grad||^2 gradient; the
    cost is only allowed to wobble by rounding, never to genuinely rise.
    """
    counters["polish_attempts"] += 1
    hess = _fd_hessian(grad_fn, theta, 1e-6)
    if not np.all(np.isfinite(hess)):
        counters["polish_failures"] += 1
        return None
    lam, vec = np.linalg.eigh(hess)
    mu = (1e-8 * max(1.0, float(np.max(np.abs(lam), initial=0.0)))) ** 2
    d_lm = -(vec @ ((lam / (lam * lam + mu)) * (vec.T @ g)))
    gnorm = float(np.linalg.norm(g))
    f_slack = f + 1e-12 * (1.0 + abs(f))
    for p in (d_lm, -(hess @ g)):
        alpha = 1.0
        for _ in range(30):
            theta_new = theta + alpha * p
            f_new = cost_fn(theta_new)
            if np.isfinite(f_new) and f_new <= f_slack:
                g_new = np.asarray(grad_fn(theta_new), dtype=float)
                if np.all(np.isfinite(g_new)) and float(np.linalg.norm(g_new)) <= 0.99 * gnorm:
                    return theta_new, float(f_new), g_new
            if np.array_equal(theta_new, theta):
                break  # the step rounds away, and every shorter one lands on theta too
            alpha *= _BACKTRACK_RHO
    counters["polish_failures"] += 1
    return None


def _counted(cost_fn, grad_fn, counters):
    """cost_fn and grad_fn as the minimizer calls them, tallied in counters."""

    def cost(theta):
        counters["cost_evals"] += 1
        return cost_fn(theta)

    def grad(theta):
        counters["grad_evals"] += 1
        before = getattr(grad_fn, "forward_reuses", 0)
        g = grad_fn(theta)
        counters["forward_reuses"] += getattr(grad_fn, "forward_reuses", 0) - before
        return g

    lanes = getattr(grad_fn, "lanes", None)
    if lanes is not None:
        def grad_lanes(points):
            counters["grad_evals"] += len(points)
            return lanes(points)

        grad.lanes = grad_lanes
    return cost, grad


def bfgs_minimize(
    cost_fn: Callable[[np.ndarray], float],
    grad_fn: Callable[[np.ndarray], np.ndarray],
    theta0: np.ndarray,
    options: OptimizerOptions | None = None,
) -> OptimizationResult:
    """BFGS with inverse-Hessian updates and backtracking line search.

    Terminates on inf-norm(grad) < tol_grad_inf or max_iters.  The inverse
    Hessian starts at the identity and is rebuilt from the identity whenever
    a direction stops being a descent direction or the line search fails;
    the rank-two update is skipped when the curvature product s.y <= 1e-12.

    When the cost reaches its floating-point floor (no direction yields a
    resolvable decrease) the iteration switches to steps accepted on
    gradient-norm decrease, which is what carries ginf the last few decades
    down to tol_grad_inf.  The recorded trace holds the best cost seen so
    far, so it stays non-increasing through that phase; polish steps can
    move f only within rounding slack of the floor.

    Raises NumericalError on non-finite values (carrying the iteration) and
    StagnationError when neither the cost nor the gradient norm can be
    decreased any further; either error carries the run's counters.
    """
    options = options or OptimizerOptions()
    theta = np.array(theta0, dtype=float, copy=True)
    dim = theta.size
    counters = dict.fromkeys(COUNTERS, 0)
    cost_fn, grad_fn = _counted(cost_fn, grad_fn, counters)

    f = float(cost_fn(theta))
    g = np.asarray(grad_fn(theta), dtype=float)
    if not np.isfinite(f) or not np.all(np.isfinite(g)):
        err = NumericalError("non-finite cost or gradient at iteration 0")
        err.iteration = 0
        err.counters = counters
        raise err
    ginf = float(np.max(np.abs(g))) if dim else 0.0
    f_best = f
    trace: list[tuple[int, float, float]] = [(0, f, ginf)]
    hinv = np.eye(dim)

    it = 0
    tiny_run = 0  # consecutive iterations whose cost decrease was below resolution
    polish_gap = 1  # iterations to wait before re-attempting a failed polish
    polish_failures = 0  # failed polishes since the last genuine decrease
    last_polish = -(10**9)
    while ginf >= options.tol_grad_inf and it < options.max_iters:
        it += 1
        stepped = False

        if tiny_run >= 3 and polish_failures < 5 and it - last_polish >= polish_gap:
            # the cost has flattened out at its floating-point floor; drive
            # the gradient down directly instead of grinding ulp by ulp
            last_polish = it
            polish = _newton_polish(cost_fn, grad_fn, theta, f, g, counters)
            if polish is not None:
                theta_new, f_new, g_new = polish
                polish_gap = 1
                stepped = True
            else:
                # Hessian builds are the expensive part; back off, and give
                # up on this flat stretch after a few misses
                polish_failures += 1
                polish_gap = min(polish_gap * 2, 64)

        if not stepped:
            p = -hinv @ g
            is_sd = False
            if float(g @ p) >= 0.0:  # numerical loss of descent; restart metric
                hinv = np.eye(dim)
                counters["metric_resets"] += 1
                p = -g
                is_sd = True
            pn = float(np.linalg.norm(p))
            if pn > _STEP_CAP:
                # cap the trial direction so no single step can fling the
                # iterate into the steep large-angle basins, whose curvature
                # outgrows what float-resolution theta steps can resolve;
                # backtracking still shortens the step further as needed
                p = p * (_STEP_CAP / pn)

            step = _armijo_backtrack(cost_fn, theta, f, g, p, counters)
            if step is None and not is_sd:
                hinv = np.eye(dim)
                counters["metric_resets"] += 1
                p = -g
                step = _armijo_backtrack(cost_fn, theta, f, g, p, counters)

            if step is not None:
                theta_new, f_new = step
                g_new = np.asarray(grad_fn(theta_new), dtype=float)
                if not np.isfinite(f_new) or not np.all(np.isfinite(g_new)):
                    err = NumericalError(f"non-finite cost or gradient at iteration {it}")
                    err.iteration = it
                    err.counters = counters
                    raise err
            else:
                polish = _newton_polish(cost_fn, grad_fn, theta, f, g, counters)
                if polish is None:
                    err = StagnationError(
                        f"line search failed after {_MAX_BACKTRACKS} backtracks and the "
                        f"gradient norm cannot be decreased either, at iteration {it}"
                    )
                    err.theta = theta
                    err.iteration = it
                    err.trace = trace
                    err.counters = counters
                    raise err
                theta_new, f_new, g_new = polish

        if f - f_new <= 1e-12 * (1.0 + abs(f)):
            tiny_run += 1
        else:
            tiny_run = 0
            polish_gap = 1
            polish_failures = 0

        s = theta_new - theta
        y = g_new - g
        sy = float(s @ y)
        if sy > 1e-12:
            rho = 1.0 / sy
            sh = np.outer(s, y @ hinv)  # s (y^T Hinv)
            hinv = hinv - rho * (sh + sh.T) + rho * rho * float(y @ hinv @ y) * np.outer(s, s) + rho * np.outer(s, s)

        theta, f, g = theta_new, f_new, g_new
        ginf = float(np.max(np.abs(g))) if dim else 0.0
        f_best = min(f_best, f)
        trace.append((it, f_best, ginf))

    return OptimizationResult(
        theta_star=theta,
        cost_trace=trace,
        converged=bool(ginf < options.tol_grad_inf),
        counters=counters,
    )


def optimize_theta(
    cost_fn: Callable[[np.ndarray], float],
    grad_fn: Callable[[np.ndarray], np.ndarray],
    parameter_count: int,
    residual_fn: Callable[[np.ndarray], float],
    options: OptimizerOptions | None = None,
) -> OptimizationResult:
    """Run bfgs_minimize from up to options.multi_start seeded draws.

    Start i draws its initial point with seed options.seed + i, so a single
    start is exactly bfgs_minimize from initial_theta.  Multi-start is a
    retry: after each start, residual_fn(theta*) gives its relative residual
    ||K H K^dag - h0|| / ||H||, and a start at or below DECOMPOSED_TOL wins
    at once, so no later start runs.  If no start decomposes, the winner is
    the one with the lowest (residual, final cost).  A start that stalls out
    is dropped unless every start does, in which case the first error
    propagates.  The winner's counters are the sums over the starts that
    ran, stalled ones included, and its ``starts`` list summarizes each of
    them: seed, iterations, final cost, residual_rel, decomposed, and
    outcome (won, lost or stalled).
    """
    options = options or OptimizerOptions()
    finished: list[tuple[dict, OptimizationResult]] = []  # the starts that did not stall
    starts: list[dict] = []
    first_error: Exception | None = None
    total = dict.fromkeys(COUNTERS, 0)
    for start in range(options.multi_start):
        opts_i = replace(options, seed=options.seed + start)
        theta0 = initial_theta(parameter_count, opts_i)
        summary = {"seed": opts_i.seed, "iterations": 0, "final_cost": None, "residual_rel": None}
        summary.update(decomposed=False, outcome="stalled")
        try:
            result = bfgs_minimize(cost_fn, grad_fn, theta0, opts_i)
        except (NumericalError, StagnationError) as err:
            counters = getattr(err, "counters", {})
            summary["iterations"] = getattr(err, "iteration", 0)
            first_error = first_error or err
        else:
            counters = result.counters
            residual = float(residual_fn(result.theta_star))
            summary.update(iterations=result.iterations, final_cost=result.final_cost, residual_rel=residual)
            summary.update(decomposed=residual <= DECOMPOSED_TOL, outcome="lost")
            finished.append((summary, result))
        starts.append(summary)
        for name in COUNTERS:
            total[name] += counters.get(name, 0)
        if summary["decomposed"]:
            break
    if not finished:
        assert first_error is not None
        raise first_error
    summary, result = min(finished, key=lambda run: (run[0]["residual_rel"], run[0]["final_cost"]))
    summary["outcome"] = "won"
    return replace(result, counters=total, starts=starts)


def extract_h0(
    engine: CompiledAdjoint,
    theta_star: np.ndarray,
    h: AlgebraElement,
    h_basis: Sequence[PauliString],
) -> tuple[AlgebraElement, float]:
    """h0 = projection of K H K^dag onto span(h), plus the leftover norm.

    K is the engine's ansatz at theta_star.  The residual is the Frobenius
    norm of the component outside span(h); by trace orthogonality
    ||E||^2 = ||h0||^2 + residual^2 exactly.
    """
    e = engine.element(engine.conjugate(theta_star, engine.vector(h), side="k_e_kdag"))
    h0 = e.restricted(h_basis)
    residual = (e - h0).norm()
    return h0, float(residual)


def normalized_cost(f: float, v: TargetV, h: AlgebraElement) -> float:
    """f divided by ||v||_fro * ||H||_fro (the scale-free trace overlap)."""
    denom = v.element.norm() * h.norm()
    if denom == 0.0:
        raise StructuralError("cannot normalize cost: zero-norm v or H")
    return f / denom
