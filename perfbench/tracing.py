"""Outside-in layer tracing for the benchmark.

The tracer wraps public cartansim functions at the module attributes the
pipeline looks them up by (``pipeline.k_dense``, ``CompiledAdjoint.cost``,
...), so no file under ``src/`` changes.  Spans (id, parent, name, start,
end) are kept in memory and written out once, when the run ends.  A wrapped
name that no longer exists is recorded as absent instead of raising, and the
metrics that depend on it are left out, so a later refactor of the program
degrades the traced run to fewer metrics rather than breaking it.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict
from pathlib import Path

ENTRY_POINTS = ("run_decompose", "run_error_curve", "verify")

# stages the pipeline module calls by its own global names
PIPELINE_STAGES = (
    "build_model",
    "generate_dla",
    "check_hamiltonian_in_m",
    "cartan_split",
    "require_valid_split",
    "build_ansatz",
    "make_target_v",
    "make_cost_functions",
    "optimize_theta",
    "extract_h0",
    "k_dense",
    "error_curve",
)

# rotation sweeps of the compiled adjoint engine (cost calls conjugate, so
# a sweep started inside another sweep is not counted twice)
SWEEPS = ("cost", "cost_and_grad", "conjugate")
ENGINE = "CompiledAdjoint"

# per-layer metric -> (unit, wrapped names it needs)
LAYER_METRICS = {
    "adjoint.sweep_s": ("s", [f"{ENGINE}.{s}" for s in SWEEPS]),
    "adjoint.us_per_step": ("us", [f"{ENGINE}.{s}" for s in SWEEPS] + [f"{ENGINE}.sub_edge"]),
    "adjoint.sweeps": ("count", [f"{ENGINE}.{s}" for s in SWEEPS]),
    "adjoint.rotation_steps": ("count", [f"{ENGINE}.{s}" for s in SWEEPS] + [f"{ENGINE}.sub_edge"]),
    "adjoint.compile_s": ("s", [f"{ENGINE}.__init__"]),
    "optimize.optimize_theta_s": ("s", ["pipeline.optimize_theta"]),
    "optimize.self_s": ("s", ["pipeline.optimize_theta"] + [f"{ENGINE}.{s}" for s in SWEEPS]),
    "optimize.iterations": ("count", ["optimize.bfgs_minimize"]),
    "optimize.cost_evals": ("count", ["pipeline.make_cost_functions"]),
    "optimize.grad_evals": ("count", ["pipeline.make_cost_functions"]),
    "optimize.extract_h0_s": ("s", ["pipeline.extract_h0"]),
    "zassenhaus.build_ansatz_s": ("s", ["pipeline.build_ansatz"]),
    "zassenhaus.factors": ("count", ["pipeline.build_ansatz"]),
    "pauli.bracket_strings_calls": ("count", ["pauli.bracket_strings"]),
    "zassenhaus.k_dense_s": ("s", ["pipeline.k_dense"]),
    "evolution.error_curve_s": ("s", ["pipeline.error_curve"]),
    "evolution.points": ("count", ["pipeline.error_curve"]),
    "evolution.s_per_point": ("s", ["pipeline.error_curve"]),
    "pauli.to_dense_s": ("s", ["evolution.to_dense"]),
    "lie.generate_dla_s": ("s", ["pipeline.generate_dla"]),
    "lie.cartan_split_s": ("s", ["pipeline.cartan_split"]),
    "lie.require_valid_split_s": ("s", ["pipeline.require_valid_split"]),
    "lie.dla_dim": ("count", ["pipeline.generate_dla"]),
    "pipeline.self_s": ("s", [f"pipeline.{e}" for e in ENTRY_POINTS]),
}


class Tracer:
    """Span recorder plus monkey-patching with guaranteed restore."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.counts: Counter = Counter()
        self.absent: list[str] = []
        self._stack: list[int] = [-1]
        self._next_id = 0
        self._in_sweep = False
        self._undo: list[tuple[object, str, object]] = []

    def call(self, name: str, fn, *args, **kwargs):
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1]
        self._stack.append(sid)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.spans.append((sid, parent, name, t0, t1))

    def patch(self, owner, label: str, attr: str, make_wrapper) -> None:
        if not hasattr(owner, attr):
            self.absent.append(label)
            return
        original = getattr(owner, attr)
        setattr(owner, attr, make_wrapper(original))
        self._undo.append((owner, attr, original))

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def span(self, name: str, on_result=None):
        def make(original):
            def wrapper(*args, **kwargs):
                out = self.call(name, original, *args, **kwargs)
                if on_result is not None:
                    on_result(out)
                return out

            return wrapper

        return make

    def write(self, path: Path, host: dict) -> None:
        names = sorted({s[2] for s in self.spans})
        code = {n: i for i, n in enumerate(names)}
        doc = {
            "host": host,
            "columns": ["id", "parent", "name", "t0", "t1"],
            "names": names,
            "spans": [[i, p, code[n], a, b] for i, p, n, a, b in self.spans],
            "counts": dict(self.counts),
            "absent": self.absent,
        }
        path.write_text(json.dumps(doc, separators=(",", ":")) + "\n", encoding="utf-8")


def install(tracer: Tracer) -> None:
    """Wrap every traced layer; names that are gone land in tracer.absent."""
    from cartansim import adjoint, evolution, lie, optimize, pauli, pipeline, zassenhaus

    counts = tracer.counts

    def on_ansatz(ansatz):
        counts["zassenhaus.factors"] += len(ansatz.factors)

    def on_dla(dla):
        counts["lie.dla_dim"] = max(counts["lie.dla_dim"], dla.dim)

    def on_curve(curve):
        counts["evolution.points"] += len(curve.ts)

    hooks = {"build_ansatz": on_ansatz, "generate_dla": on_dla, "error_curve": on_curve}
    for name in ENTRY_POINTS + PIPELINE_STAGES:
        if name != "make_cost_functions":
            tracer.patch(pipeline, f"pipeline.{name}", name, tracer.span(name, hooks.get(name)))

    def counted_closures(original):
        def wrapper(*args, **kwargs):
            cost_fn, grad_fn, engine = tracer.call("make_cost_functions", original, *args, **kwargs)

            def cost(theta):
                counts["optimize.cost_evals"] += 1
                return cost_fn(theta)

            def grad(theta):
                counts["optimize.grad_evals"] += 1
                return grad_fn(theta)

            return cost, grad, engine

        return wrapper

    tracer.patch(pipeline, "pipeline.make_cost_functions", "make_cost_functions", counted_closures)

    def counted_bfgs(original):
        def wrapper(*args, **kwargs):
            try:
                result = tracer.call("bfgs_minimize", original, *args, **kwargs)
            except Exception as err:  # a stalled start still spent its iterations
                counts["optimize.iterations"] += int(getattr(err, "iteration", 0))
                raise
            counts["optimize.iterations"] += int(result.iterations)
            return result

        return wrapper

    tracer.patch(optimize, "optimize.bfgs_minimize", "bfgs_minimize", counted_bfgs)

    engine_cls = getattr(adjoint, ENGINE, None)
    if engine_cls is None:
        tracer.absent.extend(f"{ENGINE}.{attr}" for attr in ("__init__",) + SWEEPS)
    else:
        tracer.patch(engine_cls, f"{ENGINE}.__init__", "__init__", tracer.span(f"{ENGINE}.__init__"))
        for sweep in SWEEPS:
            tracer.patch(engine_cls, f"{ENGINE}.{sweep}", sweep, _sweep(tracer, f"{ENGINE}.{sweep}"))

    tracer.patch(evolution, "evolution.to_dense", "to_dense", tracer.span("to_dense"))

    def count_brackets(original):
        def wrapper(p, q):
            counts["pauli.bracket_strings_calls"] += 1
            return original(p, q)

        return wrapper

    tracer.patch(pauli, "pauli.bracket_strings", "bracket_strings", count_brackets)
    for module in (lie, adjoint, zassenhaus):
        if hasattr(module, "bracket_strings"):
            tracer.patch(module, f"{module.__name__}.bracket_strings", "bracket_strings", count_brackets)


def _sweep(tracer: Tracer, name: str):
    counts = tracer.counts

    def make(original):
        def wrapper(engine, *args, **kwargs):
            if tracer._in_sweep:
                return original(engine, *args, **kwargs)
            tracer._in_sweep = True
            try:
                out = tracer.call(name, original, engine, *args, **kwargs)
            finally:
                tracer._in_sweep = False
            counts["adjoint.sweeps"] += 1
            steps = getattr(engine, "sub_edge", None)
            if steps is None:
                if f"{ENGINE}.sub_edge" not in tracer.absent:
                    tracer.absent.append(f"{ENGINE}.sub_edge")
            else:
                counts["adjoint.rotation_steps"] += len(steps)
            return out

        return wrapper

    return make


def layer_metrics(tracer: Tracer, rounds: int, speed: float) -> dict[str, dict]:
    """Per-round layer totals, keyed like LAYER_METRICS, absent ones left out.

    Times are multiplied by ``speed``, the factor from raw to reference seconds.
    """
    total = defaultdict(float)  # name -> summed span duration
    child_time = defaultdict(float)  # span id -> summed direct-child duration
    parent_of: dict[int, int] = {}
    name_of: dict[int, str] = {}
    for sid, parent, name, t0, t1 in tracer.spans:
        total[name] += t1 - t0
        child_time[parent] += t1 - t0
        parent_of[sid] = parent
        name_of[sid] = name

    sweep_names = {f"{ENGINE}.{s}" for s in SWEEPS}
    sweep_s = sum(total[n] for n in sweep_names)
    sweep_in_opt = 0.0
    for sid, parent, name, t0, t1 in tracer.spans:
        if name in sweep_names:
            up = parent
            while up >= 0 and name_of[up] != "optimize_theta":
                up = parent_of[up]
            if up >= 0:
                sweep_in_opt += t1 - t0
    entry_self = sum(
        (t1 - t0) - child_time[sid] for sid, _, name, t0, t1 in tracer.spans if name in ENTRY_POINTS
    )
    c = tracer.counts
    per_round = {
        "adjoint.sweep_s": sweep_s,
        "adjoint.sweeps": c["adjoint.sweeps"],
        "adjoint.rotation_steps": c["adjoint.rotation_steps"],
        "adjoint.compile_s": total[f"{ENGINE}.__init__"],
        "optimize.optimize_theta_s": total["optimize_theta"],
        "optimize.self_s": total["optimize_theta"] - sweep_in_opt,
        "optimize.iterations": c["optimize.iterations"],
        "optimize.cost_evals": c["optimize.cost_evals"],
        "optimize.grad_evals": c["optimize.grad_evals"],
        "optimize.extract_h0_s": total["extract_h0"],
        "zassenhaus.build_ansatz_s": total["build_ansatz"],
        "zassenhaus.factors": c["zassenhaus.factors"],
        "pauli.bracket_strings_calls": c["pauli.bracket_strings_calls"],
        "zassenhaus.k_dense_s": total["k_dense"],
        "evolution.error_curve_s": total["error_curve"],
        "evolution.points": c["evolution.points"],
        "pauli.to_dense_s": total["to_dense"],
        "lie.generate_dla_s": total["generate_dla"],
        "lie.cartan_split_s": total["cartan_split"],
        "lie.require_valid_split_s": total["require_valid_split"],
        "pipeline.self_s": entry_self,
    }
    values = {k: v / rounds for k, v in per_round.items()}
    steps, points = values["adjoint.rotation_steps"], values["evolution.points"]
    values["adjoint.us_per_step"] = 1e6 * sweep_s / rounds / steps if steps else None
    values["evolution.s_per_point"] = values["evolution.error_curve_s"] / points if points else None
    values["lie.dla_dim"] = c["lie.dla_dim"]  # the largest algebra seen
    out = {}
    for name, (unit, needs) in LAYER_METRICS.items():
        value = values[name]
        if value is None or any(n in tracer.absent for n in needs):
            continue
        out[name] = {"value": value * speed if unit in ("s", "us") else value, "unit": unit}
    return out
