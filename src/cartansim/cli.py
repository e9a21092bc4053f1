"""Command-line front end for the decompose -> optimize -> evaluate pipeline.

Subcommands: decompose, benchmark, curve, cost-trace, scaling, verify.
Settings come from defaults, then an optional JSON config file (--config),
then flags, each layer overriding the previous one.  Exit status is zero
only when every requested stage succeeded; failures map to the error
taxonomy (2 config, 3 structural, 4 optimizer, 5 numerical).  ``benchmark``
exits 4 when a cell ran but did not decompose, after its table is written,
and 1 when a cell failed with an error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .errors import CartanSimError, ConfigError, OptimizerError
from .models import MODEL_NAMES, ModelSpec
from .pipeline import (
    FORMATS,
    RunConfig,
    benchmark_configs,
    model_pair,
    run_benchmark,
    run_cost_trace,
    run_decompose,
    run_error_curve,
    run_scaling_check,
    verify,
)

DEFAULT_MODEL = "tfim"

# flag dest -> key of the config's "optimizer" section
_OPTIMIZER_FLAGS = {
    "seed": "seed",
    "tol": "tol_grad_inf",
    "max_iters": "max_iters",
    "multi_start": "multi_start",
}
_TOP_FLAGS = ("order", "t_max", "t_points", "table_t")


def _add_model_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--model", choices=MODEL_NAMES, help="model Hamiltonian")
    p.add_argument("--qubits", type=int, help="number of sites")


def _add_optimizer_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, help="RNG seed for the initial point")
    p.add_argument("--tol", type=float, help="gradient infinity-norm tolerance")
    p.add_argument("--max-iters", type=int, dest="max_iters", help="iteration cap")
    p.add_argument(
        "--multi-start", type=int, dest="multi_start",
        help="number of seeded starts; the first that decomposes wins, else the lowest (residual, cost)",
    )


def _add_eval_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--t-max", type=float, dest="t_max", help="curve endpoint")
    p.add_argument("--t-points", type=int, dest="t_points", help="curve grid size")
    p.add_argument("--table-t", type=float, dest="table_t", help="benchmark sample time")


def _add_output_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--output", help="output directory (default: runs)")
    p.add_argument(
        "--format", action="append", choices=FORMATS,
        help="artifact format; repeat for several (default: csv json)",
    )


def _add_config_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", metavar="PATH", help="JSON config file; flags override it")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cartansim",
        description="Fixed-depth Hamiltonian simulation via Cartan decomposition.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decompose", help="run the decompose + optimize pipeline")
    _add_model_flags(p)
    p.add_argument("--order", type=int, help="expansion order 1..4")
    _add_optimizer_flags(p)
    _add_eval_flags(p)
    _add_output_flags(p)
    _add_config_flag(p)
    p.set_defaults(fn=_cmd_decompose)

    p = sub.add_parser("benchmark", help="model x order error table")
    _add_model_flags(p)
    p.add_argument("--order", type=int, help="restrict to one expansion order")
    _add_optimizer_flags(p)
    _add_eval_flags(p)
    _add_output_flags(p)
    _add_config_flag(p)
    p.set_defaults(fn=_cmd_benchmark)

    p = sub.add_parser("curve", help="error vs t for one configuration")
    _add_model_flags(p)
    p.add_argument("--order", type=int, help="expansion order 1..4")
    _add_optimizer_flags(p)
    _add_eval_flags(p)
    _add_output_flags(p)
    _add_config_flag(p)
    p.set_defaults(fn=_cmd_curve)

    p = sub.add_parser("cost-trace", help="optimizer cost traces across orders")
    _add_model_flags(p)
    p.add_argument(
        "--order", type=int, nargs="+", dest="orders",
        help="expansion orders to trace (default: 1 2 3 4)",
    )
    _add_optimizer_flags(p)
    _add_output_flags(p)
    _add_config_flag(p)
    p.set_defaults(fn=_cmd_cost_trace)

    p = sub.add_parser("scaling", help="truncation slopes and the corrected product formula")
    _add_model_flags(p)
    p.add_argument(
        "--order", type=int, nargs="+", dest="orders",
        help="expansion orders to fit (default: 1 2 3 4)",
    )
    p.add_argument("--output", help="directory for scaling.csv/json")
    p.set_defaults(fn=_cmd_scaling)

    p = sub.add_parser("verify", help="re-derive a stored record from its theta*")
    p.add_argument("record", help="path to a record.json")
    p.set_defaults(fn=_cmd_verify)

    return parser


def _config_doc(args: argparse.Namespace) -> dict:
    """Merge the config file (if any) with explicitly given flags."""
    doc: dict = {}
    path = getattr(args, "config", None)
    if path:
        try:
            doc = json.loads(Path(path).read_text(encoding="utf-8"))
        except OSError as err:
            raise ConfigError(f"cannot read config file {path}: {err}") from err
        except ValueError as err:
            raise ConfigError(f"config file {path} is not valid JSON: {err}") from err
        if not isinstance(doc, dict):
            raise ConfigError(f"config file {path} must hold a JSON object")
    model = dict(doc.get("model") or {})
    if getattr(args, "model", None):
        model["name"] = args.model
    if getattr(args, "qubits", None) is not None:
        model["n"] = args.qubits
    if model:
        doc["model"] = model
    optimizer = dict(doc.get("optimizer") or {})
    for flag, key in _OPTIMIZER_FLAGS.items():
        val = getattr(args, flag, None)
        if val is not None:
            optimizer[key] = val
    if optimizer:
        doc["optimizer"] = optimizer
    for flag in _TOP_FLAGS:
        val = getattr(args, flag, None)
        if val is not None:
            doc[flag] = val
    if getattr(args, "output", None) is not None:
        doc["output_dir"] = args.output
    if getattr(args, "format", None):
        doc["formats"] = list(dict.fromkeys(args.format))
    return doc


def _build_config(doc: dict) -> RunConfig:
    merged = dict(doc)
    model = dict(merged.get("model") or {})
    model.setdefault("name", DEFAULT_MODEL)
    merged["model"] = model
    return RunConfig.from_dict(merged)


def _cmd_decompose(args: argparse.Namespace) -> int:
    config = _build_config(_config_doc(args))
    record = run_decompose(config)
    d = record.split_dims
    print(
        f"{config.model.name} n={config.model.n} order={config.order}: "
        f"dla_dim={record.dla_dim} |k|={d['k']} |h|={d['h']} |m~|={d['mtilde']} "
        f"parameters={record.parameter_count}"
    )
    print(
        f"converged={record.converged} iterations={record.iterations} "
        f"final_cost={record.final_cost:.9g} grad_inf={record.final_grad_inf:.3e}"
    )
    print(
        f"residual_fro={record.residual_fro:.6e} relative={record.residual_rel:.6e} "
        f"decomposed={record.decomposed}"
    )
    print("optimizer: " + " ".join(f"{k}={v}" for k, v in record.optimizer_counters.items()))
    for start in record.starts:
        rel = "-" if start["residual_rel"] is None else f"{start['residual_rel']:.3e}"
        print(f"start seed={start['seed']}: {start['outcome']} iterations={start['iterations']} relative={rel}")
    print(f"record: {config.run_dir() / 'record.json'}")
    return 0


def _cmd_curve(args: argparse.Namespace) -> int:
    config = _build_config(_config_doc(args))
    record = run_error_curve(config)
    curve = record.curve
    print(
        f"{config.model.name} n={config.model.n} order={config.order}: "
        f"max error {curve.max_error:.6e} over [0, {config.t_max:g}] "
        f"({config.t_points} points), error at t={config.table_t:g}: "
        f"{record.error_at_table_t:.6e}"
    )
    run_dir = config.run_dir()
    for key in ("curve_csv", "curve_svg"):
        if key in record.artifacts:
            print(f"{key.rsplit('_', 1)[-1]}: {run_dir / record.artifacts[key]}")
    print(f"record: {run_dir / 'record.json'}")
    return 0


def _cmd_benchmark(args: argparse.Namespace) -> int:
    doc = _config_doc(args)
    base = _build_config(doc)
    model_doc = doc.get("model") or {}
    if model_doc and not model_doc.get("name"):
        raise ConfigError("benchmark needs --model when --qubits is given")
    specs = (base.model,) if model_doc else None
    orders = (base.order,) if "order" in doc else (1, 2, 3, 4)
    optimizer = base.optimizer if "optimizer" in doc else None
    # every other field of the merged config reaches each cell unchanged
    rest = {
        f: getattr(base, f) for f in RunConfig.__dataclass_fields__ if f not in ("model", "order", "optimizer")
    }
    table = run_benchmark(benchmark_configs(specs, orders, optimizer, **rest))
    rows = table["rows"]
    print(f"{'model':>12} {'order':>5} {'n':>2} {'error_at_t':>12} {'conv':>5} {'dec':>5} "
          f"{'residual':>12} {'dla':>4} {'iters':>5} {'trend':>11}")
    failed = 0
    for r in rows:
        if r["error"] is not None:
            failed += 1
            print(f"{r['model']:>12} {r['order']:>5} {r['n']:>2} {'-':>12} {'-':>5} {'-':>5} "
                  f"{'-':>12} {'-':>4} {'-':>5} failed: {r['error']}")
            continue
        print(
            f"{r['model']:>12} {r['order']:>5} {r['n']:>2} {r['error_at_t']:>12.3e} "
            f"{str(r['converged']).lower():>5} {str(r['decomposed']).lower():>5} {r['residual']:>12.3e} "
            f"{r['dla_dim']:>4} {r['iters']:>5} {r['trend']:>11}"
        )
    out = Path(base.output_dir)
    for name in ("benchmark.csv", "benchmark.json"):
        if (out / name).exists():
            print(f"table: {out / name}")
    if failed:
        print(f"{failed} of {len(rows)} cells failed", file=sys.stderr)
    # written and printed first: the table shows what the typed error names
    stuck = [
        f"{r['model']} n={r['n']} order {r['order']}" for r in rows if r["error"] is None and not r["decomposed"]
    ]
    if stuck:
        raise OptimizerError(f"{len(stuck)} of {len(rows)} cells did not decompose: {', '.join(stuck)}")
    return 1 if failed else 0


def _cmd_cost_trace(args: argparse.Namespace) -> int:
    config = _build_config(_config_doc(args))
    orders = tuple(args.orders) if args.orders else (1, 2, 3, 4)
    summary = run_cost_trace(config, orders)
    for order, info in summary.items():
        print(
            f"order {order}: iterations={info['iterations']} "
            f"converged={info['converged']} "
            f"final_normalized_cost={info['final_normalized_cost']:.9g}"
        )
        print(f"  record: {info['record_dir']}/record.json")
    return 0


def _cmd_scaling(args: argparse.Namespace) -> int:
    orders = tuple(args.orders) if args.orders else (1, 2, 3, 4)
    if getattr(args, "qubits", None) is not None and not getattr(args, "model", None):
        raise ConfigError("scaling needs --model when --qubits is given")
    if getattr(args, "model", None):
        spec = ModelSpec(args.model, args.qubits if args.qubits is not None else 4)
        a, b = model_pair(spec)
        print(f"pair: {spec.name} n={spec.n} split into {len(a)} + {len(b)} terms")
    else:
        a = b = None
        print("pair: single-qubit X, Z")
    out = run_scaling_check(a, b, orders, output_dir=getattr(args, "output", None))
    for row in out["slopes"]:
        slope = "saturated" if row["saturated"] else f"{row['slope']:.3f}"
        print(f"order {row['order']}: slope {slope}")
    tr = out["trotter"]
    print(
        f"trotter t={tr['t']}: uncorrected slope {tr['slope_uncorrected']:.3f}, "
        f"corrected slope {tr['slope_corrected']:.3f}"
    )
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    record = verify(args.record)
    config = record.config
    print(
        f"record verifies: {config.model.name} n={config.model.n} order={config.order} "
        f"hash={record.config_hash[:12]}"
    )
    print(f"residual_fro={record.residual_fro:.6e} reproduced within 1e-12")
    if record.curve_ts is not None:
        print(f"error curve ({len(record.curve_ts)} points) reproduced within 1e-12")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exit_:  # argparse exits 2 on usage errors, 0 on --help
        return int(exit_.code or 0)
    try:
        return args.fn(args)
    except CartanSimError as err:
        stage = getattr(err, "stage", None)
        where = f" [{stage}]" if stage else ""
        print(f"error{where}: {err}", file=sys.stderr)
        return err.exit_code


if __name__ == "__main__":
    sys.exit(main())
