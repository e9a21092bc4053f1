"""Every committed run record still verifies from its theta*, unregenerated,
and the optimizer still finds exactly that theta*.

verify() rebuilds K, h0, the residual and the whole error curve and holds
each to 1e-12 of the stored value, so this guards that contract across any
change to the dense layer.  Re-decomposing holds the optimizer to its
recorded trajectory bit for bit, so a change to the sweeps or the minimizer
that moves any float shows here.  The committed benchmark table must come
from the same run as the records beside it, and from the table writer.
Every record lives at its configuration's ``run_dir()``, byte for byte in
the one format ``RunRecord.save`` writes.  Tests are named
<group>/<model>-n<n>-o<order>, so a regenerated record keeps its tests'
names.
"""

import json
from dataclasses import replace
from pathlib import Path

import pytest

from cartansim import RunRecord, pipeline, run_benchmark, run_decompose, verify
from cartansim.pipeline import trend_mark

ROOT = Path(__file__).resolve().parents[1]
RUNS = ROOT / "runs"
RECORDS = sorted(RUNS.rglob("record.json"))
# heisenberg orders 3-4 take several seconds each to re-decompose
SLOW = {("heisenberg", 3), ("heisenberg", 4)}


def record_id(path):
    config = RunRecord.load(path).config
    return f"{path.parent.parent.name}/{config.model.name}-n{config.model.n}-o{config.order}"


def test_committed_records_are_found():
    assert len(RECORDS) >= 25
    assert len({record_id(p) for p in RECORDS}) == len(RECORDS)


def test_committed_records_live_at_their_run_dir():
    for path in RECORDS:
        record = RunRecord.load(path)
        assert path.parent.name == record.config_hash[:12]
        assert path.parent == ROOT / record.config.run_dir()


@pytest.mark.parametrize("path", RECORDS, ids=record_id)
def test_committed_record_round_trips(path):
    text = path.read_text(encoding="utf-8")
    assert text == json.dumps(RunRecord.load(path).to_dict(), indent=2) + "\n"


@pytest.mark.parametrize("path", RECORDS, ids=record_id)
def test_committed_record_verifies(path):
    record = verify(path)
    assert record.curve_errors is not None and record.error_at_table_t is not None


def _quick(path):
    config = RunRecord.load(path).config
    return (config.model.name, config.order) not in SLOW


@pytest.mark.parametrize("path", [p for p in RECORDS if _quick(p)], ids=record_id)
def test_committed_record_redecomposes_exactly(path, tmp_path):
    stored = RunRecord.load(path)
    fresh = run_decompose(replace(stored.config, output_dir=str(tmp_path)))
    assert fresh.theta_star == stored.theta_star
    assert fresh.iterations == stored.iterations
    assert fresh.cost_trace == stored.cost_trace


def test_benchmark_table_matches_its_records():
    table = json.loads((RUNS / "benchmark" / "benchmark.json").read_text(encoding="utf-8"))
    records = {}
    for path in (RUNS / "benchmark").glob("*/record.json"):
        record = RunRecord.load(path)
        records[(record.config.model.name, record.config.order)] = record
    assert len(records) == len(table["rows"]) == 24
    base = {r["model"]: r["error_at_t"] for r in table["rows"] if r["order"] == 1}
    for row in table["rows"]:
        record = records[(row["model"], row["order"])]
        assert row["error"] is None and row["n"] == record.config.model.n
        assert row["error_at_t"] == record.error_at_table_t
        assert row["residual"] == record.residual_fro
        assert row["iters"] == record.iterations
        assert row["dla_dim"] == record.dla_dim
        assert row["converged"] == record.converged
        assert row["decomposed"] == record.decomposed
        assert row["trend"] == trend_mark(row["order"], row["error_at_t"], base[row["model"]])


def test_benchmark_writer_reproduces_the_committed_table(tmp_path, monkeypatch):
    committed = RUNS / "benchmark"
    rows = json.loads((committed / "benchmark.json").read_text(encoding="utf-8"))["rows"]
    cells = iter([{k: v for k, v in row.items() if k != "trend"} for row in rows])
    monkeypatch.setattr(pipeline, "_benchmark_cell", lambda config: next(cells))
    configs = [RunRecord.load(p).config for p in committed.glob("*/record.json")]
    run_benchmark([replace(c, output_dir=str(tmp_path)) for c in configs])
    for name in ("benchmark.csv", "benchmark.json"):
        assert (tmp_path / name).read_bytes() == (committed / name).read_bytes()
