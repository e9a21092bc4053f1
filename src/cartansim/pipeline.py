"""Experiment runner: decompose -> optimize -> evaluate, with saved records.

A run is described by a RunConfig, executed stage by stage, and written
out as a RunRecord (JSON) plus CSV/SVG artifacts under
``output_dir/<config-hash>/``.  Records are self-contained: verify()
rebuilds every evaluation quantity from the stored theta* and checks it
against the stored values, so any published number can be re-derived
offline from its record file.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .adjoint import CompiledAdjoint
from .errors import CartanSimError, ConfigError, NumericalError
from .evolution import ErrorCurve, error_curve, trotter_sweep, truncation_slope
from .lie import (
    CartanSplit,
    DlaBasis,
    cartan_split,
    check_hamiltonian_in_m,
    generate_dla,
    require_valid_split,
)
from .models import ModelSpec, build_model, default_benchmark_specs
from .optimize import (
    DECOMPOSED_TOL,
    OptimizationResult,
    OptimizerOptions,
    TargetV,
    extract_h0,
    make_cost_functions,
    make_target_v,
    normalized_cost,
    optimize_theta,
)
from .pauli import AlgebraElement, SymmetryFrame, commutes, symmetry_frame
from .svgplot import line_plot
from .zassenhaus import VARIANTS, Ansatz, build_ansatz, k_dense

FORMATS = ("csv", "json", "svg")
RECORD_VERSION = "1"
VERIFY_TOL = 1e-12


@dataclass(frozen=True)
class RunConfig:
    """Everything a decompose/evaluate run depends on, plus output routing.

    The content hash covers only result-determining fields; output_dir and
    formats route artifacts without changing what is computed, so two runs
    that differ only there share a hash (and a record).
    """

    model: ModelSpec
    order: int = 2
    optimizer: OptimizerOptions = field(default_factory=OptimizerOptions)
    variant: str = "standard"
    t_max: float = 200.0
    t_points: int = 101
    table_t: float = 20.0
    output_dir: str = "runs"
    formats: tuple[str, ...] = ("csv", "json")

    def __post_init__(self) -> None:
        if self.order not in (1, 2, 3, 4):
            raise ConfigError(f"order must be 1..4, got {self.order}")
        if self.variant not in VARIANTS:
            raise ConfigError(f"unknown coefficient variant {self.variant!r}")
        if self.t_max <= 0:
            raise ConfigError("t_max must be positive")
        if self.t_points < 2:
            raise ConfigError("t_points must be at least 2")
        if not 0 <= self.table_t <= self.t_max:
            raise ConfigError(f"table_t must lie in [0, t_max], got {self.table_t}")
        bad = [f for f in self.formats if f not in FORMATS]
        if bad:
            raise ConfigError(f"unknown output formats {bad}; choose from {FORMATS}")
        object.__setattr__(self, "formats", tuple(self.formats))

    def to_dict(self) -> dict:
        return {
            "model": self.model.to_dict(),
            "order": self.order,
            "optimizer": {k: getattr(self.optimizer, k) for k in self.optimizer.__dataclass_fields__},
            "variant": self.variant,
            "t_max": self.t_max,
            "t_points": self.t_points,
            "table_t": self.table_t,
            "output_dir": self.output_dir,
            "formats": list(self.formats),
        }

    @classmethod
    def from_dict(cls, d: Mapping) -> "RunConfig":
        extra = set(d) - set(cls.__dataclass_fields__)
        if extra:
            raise ConfigError(f"unknown config keys: {sorted(extra)}")
        kwargs = dict(d)
        if "model" in kwargs:
            kwargs["model"] = ModelSpec.from_dict(kwargs["model"])
        else:
            raise ConfigError("config needs a 'model' section")
        if "optimizer" in kwargs:
            opt = kwargs["optimizer"]
            unknown = set(opt) - set(OptimizerOptions.__dataclass_fields__)
            if unknown:
                raise ConfigError(f"unknown optimizer keys: {sorted(unknown)}")
            kwargs["optimizer"] = OptimizerOptions(**opt)
        if "formats" in kwargs:
            kwargs["formats"] = tuple(kwargs["formats"])
        return cls(**kwargs)

    def config_hash(self) -> str:
        payload = self.to_dict()
        for routing_only in ("output_dir", "formats"):
            payload.pop(routing_only)
        canon = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode()).hexdigest()

    def run_dir(self) -> Path:
        return Path(self.output_dir) / self.config_hash()[:12]


class CostTrace:
    """A run's (iteration, cost, grad inf-norm) rows, held as one float array.

    Long runs record thousands of rows, which take 24 bytes each here against
    about 160 as lists of Python numbers, and callers may hold many records.
    Rows iterate as (int, float, float); traces compare equal entry by entry.
    """

    def __init__(self, rows) -> None:
        self.array = np.array(rows, dtype=float).reshape(-1, 3)

    def __len__(self) -> int:
        return len(self.array)

    def __iter__(self):
        for it, f, ginf in self.array.tolist():
            yield int(it), f, ginf

    def __eq__(self, other) -> bool:
        return isinstance(other, CostTrace) and np.array_equal(self.array, other.array)

    def __repr__(self) -> str:
        return f"CostTrace({len(self)} rows)"


@dataclass
class RunRecord:
    """Persisted outcome of one decompose/evaluate run.

    ``decomposed`` is the success test: residual_rel at or below
    optimize.DECOMPOSED_TOL, which ``converged`` (a small gradient) alone
    does not imply.  ``starts`` holds one summary per optimizer start that
    ran (see optimize_theta), the winner's outcome reading ``won``.
    """

    config: RunConfig
    config_hash: str
    dla_dim: int
    split_dims: dict
    factor_counts: dict
    parameter_count: int
    theta_star: list
    converged: bool
    iterations: int
    final_cost: float
    final_grad_inf: float
    cost_trace: CostTrace
    h0: list
    residual_fro: float
    residual_rel: float
    decomposed: bool
    curve_ts: list | None = None
    curve_errors: list | None = None
    error_at_table_t: float | None = None
    timings_ms: dict = field(default_factory=dict)
    artifacts: dict = field(default_factory=dict)
    version: str = RECORD_VERSION
    # optimize.COUNTERS summed over the starts that ran
    optimizer_counters: dict = field(kw_only=True)
    starts: list = field(kw_only=True)

    def to_dict(self) -> dict:
        d = {k: getattr(self, k) for k in self.__dataclass_fields__}
        d["config"] = self.config.to_dict()
        d["cost_trace"] = [list(row) for row in self.cost_trace]
        return d

    @classmethod
    def from_dict(cls, d: Mapping) -> "RunRecord":
        kwargs = dict(d)
        kwargs["config"] = RunConfig.from_dict(kwargs["config"])
        kwargs["cost_trace"] = CostTrace(kwargs["cost_trace"])
        return cls(**kwargs)

    def save(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=2) + "\n", encoding="utf-8")

    @classmethod
    def load(cls, path: str | Path) -> "RunRecord":
        return cls.from_dict(json.loads(Path(path).read_text(encoding="utf-8")))

    @property
    def curve(self) -> ErrorCurve | None:
        if self.curve_ts is None:
            return None
        return ErrorCurve(np.asarray(self.curve_ts), np.asarray(self.curve_errors))


class _StageClock:
    """Name the pipeline stage an error came from, and time each stage."""

    def __init__(self, timings_ms: dict[str, float] | None = None) -> None:
        self.timings_ms = {} if timings_ms is None else timings_ms

    def run(self, stage: str, fn, *args, **kwargs):
        t0 = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        except CartanSimError as err:
            if not hasattr(err, "stage"):
                err.stage = stage
            raise
        self.timings_ms[stage] = round((time.perf_counter() - t0) * 1e3, 3)
        return out


@dataclass(frozen=True)
class Problem:
    """The structure of one configuration: model -> DLA -> split -> ansatz -> v.

    ``frame`` is the symmetry frame of H's, the ansatz's and h's strings;
    ``frame_h`` and ``frame_ansatz`` are H and the ansatz mapped into it,
    where the dense layer runs (see :func:`_curve_in_frame`).
    """

    h: AlgebraElement
    dla: DlaBasis
    split: CartanSplit
    ansatz: Ansatz
    v: TargetV
    frame: SymmetryFrame
    frame_h: AlgebraElement
    frame_ansatz: Ansatz
    timings_ms: dict[str, float]


#: the last build of this process, keyed by config hash; holds at most one
LAST_PROBLEM: dict[str, Problem] = {}


def build_problem(config: RunConfig) -> Problem:
    """Run the build stages once per configuration, each under the stage clock.

    Decompose, curve and verify of one configuration share one build; a
    new configuration drops the old build before it is built.
    """
    key = config.config_hash()
    if key not in LAST_PROBLEM:
        LAST_PROBLEM.clear()
        clock = _StageClock()
        h = clock.run("build_model", build_model, config.model)
        terms = [p for p, _ in h.sorted_terms()]
        dla = clock.run("generate_dla", generate_dla, terms)
        clock.run("check_hamiltonian_in_m", check_hamiltonian_in_m, h)
        split = clock.run("cartan_split", cartan_split, dla, terms)
        clock.run("require_valid_split", require_valid_split, split)
        ansatz = clock.run(
            "build_ansatz", build_ansatz, split.k_basis, config.order, variant=config.variant, n=h.n
        )
        v = clock.run("make_target_v", make_target_v, split.h_basis)
        frame = clock.run("symmetry_frame", symmetry_frame, terms + list(ansatz.strings) + list(split.h_basis))
        LAST_PROBLEM[key] = Problem(
            h, dla, split, ansatz, v, frame, frame.map_element(h), ansatz.in_frame(frame), clock.timings_ms
        )
    return LAST_PROBLEM[key]


def _curve_in_frame(
    prob: Problem, theta: np.ndarray, h0: AlgebraElement, t_grid, clock: _StageClock
) -> ErrorCurve:
    """||e^{-iHt} - K^dag e^{-i h0 t} K||_2 over ``t_grid``, run in the problem's frame.

    The frame's Clifford U conjugates all three operators, and the spectral
    norm does not see U; in the frame the dense layer's x-mask cosets are
    the 2^r symmetry sectors.  The curve and ``verify`` both come here, so
    the two compute equal floats.
    """
    h0 = prob.frame.map_element(h0)
    k_c = clock.run("k_dense", k_dense, prob.frame_ansatz, theta)
    return clock.run("error_curve", error_curve, prob.frame_h, k_c, h0, t_grid)


def run_decompose(config: RunConfig) -> RunRecord:
    """Full decompose + optimize pipeline, saved as a RunRecord.

    Stage errors carry a ``.stage`` attribute naming where the pipeline
    stopped; the record is written only on success.  ``timings_ms`` holds
    the build stages of the configuration's one build, then these stages.
    """
    prob = build_problem(config)
    h, dla, split, ansatz, v = prob.h, prob.dla, prob.split, prob.ansatz, prob.v
    clock = _StageClock(dict(prob.timings_ms))
    cost_fn, grad_fn, engine = clock.run(
        "make_cost_functions", make_cost_functions, ansatz, dla.strings, v, h
    )
    h_norm = h.norm()

    def residual_fn(theta):
        return extract_h0(engine, theta, h, split.h_basis)[1] / h_norm

    result: OptimizationResult = clock.run(
        "optimize", optimize_theta, cost_fn, grad_fn, ansatz.parameter_count, residual_fn, config.optimizer
    )
    h0, residual = clock.run("extract_h0", extract_h0, engine, result.theta_star, h, split.h_basis)
    residual_rel = residual / h_norm

    record = RunRecord(
        config=config,
        config_hash=config.config_hash(),
        dla_dim=dla.dim,
        split_dims={
            "k": len(split.k_basis),
            "h": len(split.h_basis),
            "mtilde": len(split.mtilde_basis),
        },
        factor_counts=ansatz.factor_counts(),
        parameter_count=ansatz.parameter_count,
        theta_star=[float(x) for x in result.theta_star],
        converged=result.converged,
        iterations=result.iterations,
        final_cost=result.final_cost,
        final_grad_inf=result.final_grad_inf,
        cost_trace=CostTrace(result.cost_trace),
        h0=h0.to_records(),
        residual_fro=residual,
        residual_rel=residual_rel,
        decomposed=residual_rel <= DECOMPOSED_TOL,
        timings_ms=clock.timings_ms,
        optimizer_counters=dict(result.counters),
        starts=result.starts,
    )
    run_dir = config.run_dir()
    run_dir.mkdir(parents=True, exist_ok=True)
    if "csv" in config.formats:
        lines = ["iteration,cost,normalized_cost,grad_inf_norm"]
        for it, f, ginf in record.cost_trace:
            lines.append(f"{int(it)},{f!r},{normalized_cost(f, v, h)!r},{ginf!r}")
        (run_dir / "cost_trace.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
        record.artifacts["cost_trace_csv"] = "cost_trace.csv"
    record.artifacts["record"] = "record.json"
    record.save(run_dir / "record.json")
    return record


def run_error_curve(config: RunConfig, record: RunRecord | None = None) -> RunRecord:
    """Evaluate ||e^{-iHt} - K^dag e^{-i h0 t} K||_2 over the configured grid.

    Runs the decompose stage first unless a finished record is supplied;
    the curve, its table-time sample, and artifact paths are folded back
    into the record, which is re-saved.
    """
    if record is None:
        record = run_decompose(config)
    elif record.config_hash != config.config_hash():
        raise ConfigError("record was produced by a different configuration")
    prob = build_problem(config)
    clock = _StageClock(record.timings_ms)
    theta = np.asarray(record.theta_star, dtype=float)
    h0 = AlgebraElement.from_records(record.h0, n=config.model.n)
    # one pass over the grid with table_t appended, sliced back apart
    t_grid = np.append(np.linspace(0.0, config.t_max, config.t_points), config.table_t)
    both = _curve_in_frame(prob, theta, h0, t_grid, clock)
    curve = ErrorCurve(both.ts[:-1], both.errors[:-1])
    record.curve_ts = [float(t) for t in curve.ts]
    record.curve_errors = [float(e) for e in curve.errors]
    record.error_at_table_t = float(both.errors[-1])

    run_dir = config.run_dir()
    run_dir.mkdir(parents=True, exist_ok=True)
    if "csv" in config.formats:
        rows = ["t,error"] + [f"{t!r},{e!r}" for t, e in curve.rows()]
        (run_dir / "curve.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")
        record.artifacts["curve_csv"] = "curve.csv"
    if "svg" in config.formats:
        name = f"{config.model.name} n={config.model.n} order {config.order}"
        line_plot(
            [(name, list(curve.ts), list(curve.errors))],
            str(run_dir / "curve.svg"),
            title="Fixed-depth evolution error",
            xlabel="t",
            ylabel="spectral-norm error",
            logy=True,
        )
        record.artifacts["curve_svg"] = "curve.svg"
    record.save(run_dir / "record.json")
    return record


BENCHMARK_COLUMNS = "model,order,n,error_at_t,converged,decomposed,residual,dla_dim,iters,wall_ms"
BENCHMARK_MULTI_START = 2


def benchmark_configs(
    specs: Sequence[ModelSpec] | None = None,
    orders: Sequence[int] = (1, 2, 3, 4),
    optimizer: OptimizerOptions | None = None,
    **overrides,
) -> list[RunConfig]:
    """The {model} x {order} grid with benchmark-grade optimizer settings.

    Benchmark cells default to multi_start=2: the comparison needs every
    cell decomposed, and a second seeded start, which runs only when the
    first does not decompose, covers the occasional start that lands in a
    poor local minimum.
    """
    specs = tuple(specs) if specs is not None else default_benchmark_specs()
    optimizer = optimizer or OptimizerOptions(multi_start=BENCHMARK_MULTI_START)
    return [
        RunConfig(model=spec, order=order, optimizer=optimizer, **overrides)
        for spec in specs
        for order in orders
    ]


def _benchmark_cell(config: RunConfig) -> dict:
    t0 = time.perf_counter()
    row = {"model": config.model.name, "order": config.order, "n": config.model.n}
    try:
        record = run_error_curve(config)
    except CartanSimError as err:
        row.update(
            error_at_t=None, converged=False, decomposed=False, residual=None, dla_dim=None, iters=None
        )
        error = f"{getattr(err, 'stage', 'run')}: {err}"
    else:
        row.update(
            error_at_t=record.error_at_table_t,
            converged=record.converged,
            decomposed=record.decomposed,
            residual=record.residual_fro,
            dla_dim=record.dla_dim,
            iters=record.iterations,
        )
        error = None
    row.update(wall_ms=round((time.perf_counter() - t0) * 1e3, 3), error=error)
    return row


def trend_mark(order: int, error: float | None, baseline: float | None) -> str:
    """A row's error at t against its model's order-1 error ``baseline``.

    Order 1 is the baseline.  Errors within VERIFY_TOL of it are matched
    (both at the double-precision floor, where their ratio is noise);
    otherwise improved below half, matched within twice, regressed above.
    """
    if order == 1:
        return "baseline"
    if error is None or baseline is None:
        return "unavailable"
    if abs(error - baseline) <= VERIFY_TOL or baseline / 2 < error <= 2 * baseline:
        return "matched"
    return "improved" if error <= baseline / 2 else "regressed"


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(value).lower()
    return repr(value) if isinstance(value, float) else str(value)


def run_benchmark(configs: Sequence[RunConfig]) -> dict:
    """Run the model x order table, one cell after another in this process.

    Per-cell failures land in the cell.  Returns {"rows": [...],
    "columns": ...}; each row additionally carries a :func:`trend_mark`
    against its model's order-1 row.
    """
    if not configs:
        raise ConfigError("benchmark needs at least one configuration")
    rows = [_benchmark_cell(c) for c in configs]

    base = {r["model"]: r["error_at_t"] for r in rows if r["order"] == 1}
    for row in rows:
        row["trend"] = trend_mark(row["order"], row["error_at_t"], base.get(row["model"]))

    table = {"columns": BENCHMARK_COLUMNS.split(","), "rows": rows}
    out_dir = Path(configs[0].output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    formats = configs[0].formats
    if "csv" in formats:
        lines = [BENCHMARK_COLUMNS]
        lines += [",".join(_csv_cell(r[c]) for c in table["columns"]) for r in rows]
        (out_dir / "benchmark.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    if "json" in formats:
        (out_dir / "benchmark.json").write_text(json.dumps(table, indent=2) + "\n", encoding="utf-8")
    return table


def run_cost_trace(config: RunConfig, orders: Sequence[int] = (1, 2, 3, 4)) -> dict:
    """Optimizer cost traces across expansion orders for one model.

    Persists one trace CSV per order (in that order's run directory) and
    reports iterations-to-tolerance per order.
    """
    if not orders:
        raise ConfigError("run_cost_trace needs at least one order")
    summary: dict[int, dict] = {}
    series = []
    for order in orders:
        cfg = replace(config, order=order)
        prob = build_problem(cfg)
        record = run_decompose(cfg)
        summary[order] = {
            "iterations": record.iterations,
            "converged": record.converged,
            "final_cost": record.final_cost,
            "final_normalized_cost": normalized_cost(record.final_cost, prob.v, prob.h),
            "record_dir": str(cfg.run_dir()),
        }
        series.append(
            (
                f"order {order}",
                [row[0] for row in record.cost_trace],
                [normalized_cost(row[1], prob.v, prob.h) for row in record.cost_trace],
            )
        )
    if "svg" in config.formats:
        out_dir = Path(config.output_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        path = out_dir / f"cost_trace_{config.model.name}.svg"
        line_plot(
            list(series),
            str(path),
            title=f"Normalized cost, {config.model.name} n={config.model.n}",
            xlabel="iteration",
            ylabel="f / (|v| |H|)",
        )
    return summary


def model_pair(spec: ModelSpec) -> tuple[AlgebraElement, AlgebraElement]:
    """Split a model Hamiltonian H = A + B for product-formula checks.

    A collects the leading greedy set of mutually commuting terms (the
    classic field/coupling split for the chain models); B is the rest.
    A fully commuting Hamiltonian gives an empty B, which downstream
    slope fits report as saturated.
    """
    h = build_model(spec)
    a_terms: list = []
    b_terms: list = []
    for p, c in h.sorted_terms():
        if all(commutes(p, q) for q, _ in a_terms):
            a_terms.append((p, c))
        else:
            b_terms.append((p, c))
    a = AlgebraElement(h.n, dict(a_terms))
    b = AlgebraElement(h.n, dict(b_terms))
    return a, b


def run_scaling_check(
    a: AlgebraElement | None = None,
    b: AlgebraElement | None = None,
    orders: Sequence[int] = (1, 2, 3, 4),
    output_dir: str | None = None,
) -> dict:
    """Truncation slopes per order plus the corrected/uncorrected sweep.

    Defaults to the single-qubit (X, Z) pair, the smallest non-commuting
    probe; saturated fits are labeled rather than forced to a slope.
    """
    if (a is None) != (b is None):
        raise ConfigError("provide both elements of the pair, or neither")
    if a is None:
        a = AlgebraElement.from_label_dict({"X": 1.0})
        b = AlgebraElement.from_label_dict({"Z": 1.0})
    slopes = [truncation_slope(a, b, order) for order in orders]
    sweep = trotter_sweep(a, b)
    out = {
        "slopes": [s.to_record() for s in slopes],
        "trotter": sweep.to_record(),
    }
    if output_dir is not None:
        out_path = Path(output_dir)
        out_path.mkdir(parents=True, exist_ok=True)
        lines = ["series,slope,saturated"]
        for s in slopes:
            lines.append(
                f"order_{s.order},{'' if s.slope is None else repr(s.slope)},{str(s.saturated).lower()}"
            )
        lines.append(f"trotter_uncorrected,{sweep.slope_uncorrected!r},false")
        lines.append(f"trotter_corrected,{sweep.slope_corrected!r},false")
        (out_path / "scaling.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
        (out_path / "scaling.json").write_text(json.dumps(out, indent=2) + "\n", encoding="utf-8")
    return out


def verify(record_path: str | Path) -> RunRecord:
    """Recompute every evaluation quantity of a stored record from theta*.

    Raises NumericalError naming the first quantity that fails to
    reproduce within 1e-12; returns the (trusted) record otherwise.
    """
    try:
        record = RunRecord.load(record_path)
    except (OSError, ValueError, TypeError, KeyError) as err:
        raise ConfigError(f"cannot read record {record_path}: {err}") from err
    config = record.config
    if record.config_hash != config.config_hash():
        raise NumericalError(
            f"stored hash {record.config_hash[:12]} does not match the config "
            f"({config.config_hash()[:12]}); the record was edited"
        )
    prob = build_problem(config)
    for name, built, stored in (
        ("dla_dim", prob.dla.dim, record.dla_dim),
        ("factor_counts", prob.ansatz.factor_counts(), record.factor_counts),
        ("parameter_count", prob.ansatz.parameter_count, record.parameter_count),
    ):
        if built != stored:
            raise NumericalError(f"{name} {built} != stored {stored}")
    theta = np.asarray(record.theta_star, dtype=float)
    engine = CompiledAdjoint(prob.ansatz, prob.dla.strings)
    h0, residual = extract_h0(engine, theta, prob.h, prob.split.h_basis)
    if abs(residual - record.residual_fro) > VERIFY_TOL:
        raise NumericalError(f"residual_fro {residual!r} != stored {record.residual_fro!r}")
    decomposed = residual / prob.h.norm() <= DECOMPOSED_TOL
    if decomposed != record.decomposed:
        raise NumericalError(f"decomposed {decomposed} != stored {record.decomposed}")
    stored_h0 = AlgebraElement.from_records(record.h0, n=config.model.n)
    if not h0.allclose(stored_h0, tol=VERIFY_TOL):
        raise NumericalError("h0 coefficients do not reproduce from theta*")
    if record.curve_ts is not None:
        t_grid = np.append(record.curve_ts, config.table_t)
        fresh = _curve_in_frame(prob, theta, stored_h0, t_grid, _StageClock()).errors
        diff = np.max(np.abs(fresh[:-1] - np.asarray(record.curve_errors)))
        if diff > VERIFY_TOL:
            raise NumericalError(f"error curve drifts by {diff:.3e} > {VERIFY_TOL}")
        if abs(fresh[-1] - record.error_at_table_t) > VERIFY_TOL:
            raise NumericalError("error at table_t does not reproduce")
    return record
