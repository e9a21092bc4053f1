"""The model x order comparison table.

Runs the full benchmark grid -- six spin-chain models, expansion orders
1 through 4, up to two optimizer starts per cell (the second runs only when
the first does not decompose) -- and prints the error of the fixed-depth
evolution at t = 20 for every cell, marking how each order compares with
order 1 for its model.

Models whose order-1 ansatz is already exact (xy, both kitaev chains)
stay at the floor across orders.  The others improve or match at order 2.
At orders 3-4 the enlarged product occasionally converges to a poor local
minimum; those cells are reported exactly as found, with decomposed=false.
"""

import time

from cartansim import run_benchmark
from cartansim.pipeline import benchmark_configs

t0 = time.perf_counter()
table = run_benchmark(benchmark_configs(output_dir="runs/benchmark"))
elapsed = time.perf_counter() - t0

print(f"{'model':>12} {'order':>5} {'error at t=20':>14} {'converged':>9} "
      f"{'decomposed':>10} {'residual':>10} {'iters':>5}  trend")
for row in table["rows"]:
    if row["error"] is not None:
        print(f"{row['model']:>12} {row['order']:>5}  failed: {row['error']}")
        continue
    print(f"{row['model']:>12} {row['order']:>5} {row['error_at_t']:>14.3e} "
          f"{str(row['converged']).lower():>9} {str(row['decomposed']).lower():>10} "
          f"{row['residual']:>10.2e} {row['iters']:>5}  {row['trend']}")

print(f"\n24 cells in {elapsed:.1f}s; table saved to "
      f"runs/benchmark/benchmark.csv and benchmark.json")
