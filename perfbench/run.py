"""Benchmark of the cartansim pipeline: decompose -> curve -> verify per cell.

Usage (from the repository root):

    python3 perfbench/run.py --workload grid --seed 1 --seconds 20 --trace 0

Runs one workload in this process (no worker pool), calling the public
entry points run_decompose, run_error_curve and verify directly.  Whole
rounds of the workload's operations run until ``--seconds`` would be
exceeded (at least one round); the reported times are medians over rounds.
Every output is checked after the timed rounds (see checks.py).  With
``--trace 1`` the layers are wrapped from outside and the per-layer metrics
are reported instead of the end-to-end ones.  The last line of standard
output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import os
import sys

# BLAS threads are fixed before numpy loads.  On a 2-vCPU host, medians of
# 1024^2 complex matmul chains agreed within 0.7% across three sets of runs
# on two threads and within 11% on one.
BLAS_THREADS = max(1, min(2, len(os.sched_getaffinity(0))))
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 7
sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.path.insert(0, str(SRC))

E2E_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "decompose_s": "s",
    "curve_s": "s",
    "verify_s": "s",
    "peak_rss_mb": "MB",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("grid", "ladder", "dense"))
    p.add_argument("--seed", type=int, required=True, help="draws table time and cell order")
    p.add_argument("--seconds", type=float, required=True, help="measuring budget; whole rounds")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--opt-seed", type=int, default=7, help="OptimizerOptions.seed of every cell")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def import_program():
    """Import cartansim from this checkout's src/, or exit non-zero."""
    try:
        import cartansim
    except ImportError as err:
        sys.exit(f"perfbench: cannot import cartansim from {SRC}: {err}")
    if Path(cartansim.__file__).resolve().parents[1] != SRC:
        sys.exit(f"perfbench: cartansim was imported from {cartansim.__file__}, not {SRC}")
    return cartansim


def setup_seconds(args) -> float:
    """Median time of fresh processes from spawn to imports + inputs done.

    Each process then times the python speed probe, which scales its sample
    to reference seconds like every other reported time.
    """
    import calibrate

    samples = []
    for _ in range(SETUP_PROBES):
        cmd = [
            sys.executable, str(Path(__file__).resolve()), "--setup-probe",
            "--workload", args.workload, "--seed", str(args.seed), "--seconds", "0",
        ]
        t0 = time.perf_counter()
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        # perf_counter is CLOCK_MONOTONIC, shared by parent and child
        ready, probe_s = map(float, done.stdout.split()[-2:])
        samples.append((ready - t0) * calibrate.REFERENCE["python"] / probe_s)
    return statistics.median(samples)


def run_round(ops, pipeline, meter):
    """One pass over the operations; returns per-op results and round totals.

    Each call runs under the speedometer, which scales its wall and CPU
    time to reference seconds (see calibrate.py).
    """
    from workloads import SCALING

    results = []
    totals = dict.fromkeys(("wall_s", "cpu_s", "decompose_s", "curve_s", "verify_s", "raw_wall_s"), 0.0)
    for op in ops:
        res = {"op": op, "times": {}, "output": None, "error": None}
        if op.name == SCALING:
            calls = [("scaling_s", "run_scaling_check", lambda _: pipeline.run_scaling_check())]
        else:
            path = op.config.run_dir() / "record.json"
            calls = [
                ("decompose_s", "run_decompose", lambda _: pipeline.run_decompose(op.config)),
                ("curve_s", "run_error_curve", lambda rec: pipeline.run_error_curve(op.config, rec)),
                ("verify_s", "verify", lambda _: pipeline.verify(path)),
            ]
        out = None
        for key, name, fn in calls:
            try:
                out, wall, cpu, scale = meter.call(op.probe_kind(name), fn, out)
            except Exception as err:  # a failing cell is counted, not fatal
                # verify raising means a stored number did not reproduce
                kind = "wrong" if name == "verify" else "error"
                res["error"] = (kind, f"{name}: {type(err).__name__}: {err}")
                break
            res["times"][key] = wall * scale
            totals["raw_wall_s"] += wall
            totals["wall_s"] += wall * scale
            totals["cpu_s"] += cpu * scale
            if key in totals:
                totals[key] += wall * scale
        res["output"] = out if res["error"] is None else None
        results.append(res)
    return results, totals


def check(res) -> list[tuple[str, str]]:
    import checks
    from workloads import SCALING

    if res["error"] is not None:
        return [res["error"]]
    try:
        if res["op"].name == SCALING:
            return checks.check_scaling(res["output"])
        return checks.check_cell(res["op"].config, res["output"])
    except Exception as err:  # an output the checks cannot read is a wrong output
        return [("wrong", f"check raised {type(err).__name__}: {err}")]


def host_facts() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    # a terminated run still removes its records (the finally blocks run)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    cartansim = import_program()
    from workloads import make_ops

    if args.setup_probe:
        make_ops(args.workload, args.seed, args.opt_seed, str(OUT))
        ready = time.perf_counter()
        import calibrate

        probe = calibrate.Probe("python")
        print(ready, statistics.median(probe.seconds() for _ in range(9)))
        return 0

    import calibrate

    setup_s = None if args.trace else setup_seconds(args)
    meter = calibrate.Speedometer()
    OUT.mkdir(exist_ok=True)
    records_dir = Path(tempfile.mkdtemp(prefix="records-", dir=OUT))
    ops = make_ops(args.workload, args.seed, args.opt_seed, str(records_dir))

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    rounds: list[tuple[list, dict]] = []
    try:
        start = time.perf_counter()
        while True:
            rounds.append(run_round(ops, cartansim.pipeline, meter))
            elapsed = time.perf_counter() - start
            if elapsed + elapsed / len(rounds) > args.seconds:
                break
        if tracer is not None:
            tracer.restore()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        attempted = failed = 0
        correct = True
        for results, _ in rounds:
            for res in results:
                problems = check(res)
                attempted += 1
                failed += bool(problems)
                correct &= not any(kind == "wrong" for kind, _ in problems)
                times = " ".join(f"{k}={v:.3f}" for k, v in res["times"].items())
                status = "; ".join(f"{kind}: {msg}" for kind, msg in problems) or "ok"
                print(f"{res['op'].name:22s} {times}  {status}", file=sys.stderr)
    finally:
        if tracer is not None:
            tracer.restore()
        shutil.rmtree(records_dir, ignore_errors=True)

    facts = host_facts()
    raw = statistics.median(t["raw_wall_s"] for _, t in rounds)
    print(f"host: {json.dumps(facts)}  rounds: {len(rounds)}  raw wall {raw:.3f} s", file=sys.stderr)
    if tracer is None:
        values = {k: statistics.median(t[k] for _, t in rounds) for k in rounds[0][1]}
        values.update(setup_s=setup_s, peak_rss_mb=peak_rss_mb)
        metrics = {k: {"value": values[k], "unit": unit} for k, unit in E2E_UNITS.items()}
    else:
        import tracing

        # span times are raw; one run-wide speed factor puts them in reference seconds
        speed = sum(t["wall_s"] for _, t in rounds) / sum(t["raw_wall_s"] for _, t in rounds)
        metrics = tracing.layer_metrics(tracer, len(rounds), speed)
        trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.write(trace_path, facts)
        if tracer.absent:
            print(f"absent from the program, spans not traced: {tracer.absent}", file=sys.stderr)
        wall = statistics.median(t["wall_s"] for _, t in rounds)
        print(f"traced wall_s {wall:.3f} s; spans written to {trace_path}", file=sys.stderr)
    print(f"{args.workload}: attempted {attempted}, failed {failed}, correct {correct}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"{name:30s} {m['value']:.6g} {m['unit']}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
