"""Benchmark workloads: the operations each one runs, made from a seed.

One operation is one model x order cell run through run_decompose ->
run_error_curve -> verify (``grid`` adds one truncation-slope and
corrected-Trotter check).  The seed draws the table time.  The cells always
run in the same order, since what a cell costs depends a little on what ran
before it (heap state, BLAS threads).  The seed does not reach the
optimizer, whose start points come from ``opt_seed`` (OptimizerOptions.seed,
default 7): which cells stall depends on it, and every run must attempt and
fail the same operations.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from cartansim import ModelSpec, OptimizerOptions, RunConfig, benchmark_configs
from cartansim.pipeline import BENCHMARK_MULTI_START

WORKLOADS = ("grid", "ladder", "dense")
#: From this many qubits (256 x 256 matrices) the curve and verify calls
#: spend most of their time in BLAS; below it, and in every decompose call,
#: the interpreter dominates.  This picks the speed probe (see calibrate.py).
BLAS_FROM_QUBITS = 8
SCALING = "scaling"


@dataclass(frozen=True)
class Op:
    name: str
    config: RunConfig | None  # None for the scaling check

    def probe_kind(self, call: str) -> str:
        dense = self.config is not None and self.config.model.n >= BLAS_FROM_QUBITS
        return "blas" if dense and call != "run_decompose" else "python"


def _cell(config: RunConfig) -> Op:
    m = config.model
    return Op(f"{m.name}-n{m.n}-o{config.order}", config)


def make_ops(workload: str, seed: int, opt_seed: int, output_dir: str) -> list[Op]:
    rng = random.Random(seed)
    table_t = round(rng.uniform(15.0, 25.0), 3)
    optimizer = OptimizerOptions(multi_start=BENCHMARK_MULTI_START, seed=opt_seed)
    common = dict(optimizer=optimizer, output_dir=output_dir, table_t=table_t)
    if workload == "grid":
        # the paper's comparison table: six models at n=4/5 x orders 1-4
        ops = [_cell(c) for c in benchmark_configs(**common)] + [Op(SCALING, None)]
    elif workload == "ladder":
        # order 1 at n=6/8: long BFGS runs over DLA dims 66-120, short time grid
        ops = [
            _cell(RunConfig(model=ModelSpec(name, n), order=1, t_max=25.0, t_points=5, **common))
            for name in ("tfim", "tfxy")
            for n in (6, 8)
        ]
    elif workload == "dense":
        # dim 512/1024 verification: k_dense and error_curve dominate
        ops = [
            _cell(RunConfig(model=ModelSpec(name, n), order=1, t_max=25.0, t_points=2, **common))
            for name, n in (("xy", 9), ("kitaev_even", 10))
        ]
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    return ops
