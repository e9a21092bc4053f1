"""Fixed-depth time evolution of the transverse-field Ising chain.

One optimization buys the whole time axis: we factor e^{-iHt} as
K^dag e^{-i h0 t} K with K a fixed product of 36 string rotations over
12 free angles and h0 a 4-term commuting element, then sweep t from 0 to
200 and watch the error stay at the numerical floor.  A Trotter circuit at comparable
accuracy would need its depth to grow with t; here depth is constant by
construction and t only enters through the rotation angles in e^{-i h0 t}.
"""

from cartansim import ModelSpec, RunConfig, run_error_curve, verify

config = RunConfig(
    model=ModelSpec("tfim", 4),
    order=2,
    formats=("csv", "json", "svg"),
    output_dir="runs/tfim_demo",
)
record = run_error_curve(config)

print(f"config hash        {record.config_hash[:12]}")
print(f"DLA dimension      {record.dla_dim}")
print(f"rotations in K     {sum(record.factor_counts.values())} "
      f"({record.parameter_count} free angles)")
print(f"converged          {record.converged} after {record.iterations} iterations")
print(f"residual / ||H||   {record.residual_rel:.3e}")

print("\ncommuting generator h0:")
for term in record.h0:
    print(f"  {term['coefficient']:+.12f} * {term['label']}")

print("\n||exact - fixed-depth|| along the curve:")
ts, errs = record.curve_ts, record.curve_errors
for i in range(0, len(ts), len(ts) // 8):
    print(f"  t = {ts[i]:6.1f}   error = {errs[i]:.3e}")
print(f"  max over [0, {config.t_max:g}]: {max(errs):.3e}")

run_dir = config.run_dir()
print(f"\nartifacts in {run_dir}/: record.json, curve.csv, curve.svg, cost_trace.csv")

# every number above can be re-derived offline from the stored record
verify(run_dir / "record.json")
print("verify: record reproduces from stored theta* within 1e-12")
