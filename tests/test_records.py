"""Every committed run record still verifies from its theta*, unregenerated.

verify() rebuilds K, h0, the residual and the whole error curve and holds
each to 1e-12 of the stored value, so this guards that contract across any
change to the dense layer.
"""

from pathlib import Path

import pytest

from cartansim import verify

RUNS = Path(__file__).resolve().parents[1] / "runs"
RECORDS = sorted(RUNS.rglob("record.json"))


def test_committed_records_are_found():
    assert len(RECORDS) >= 25


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: str(p.parent.relative_to(RUNS)))
def test_committed_record_verifies(path):
    record = verify(path)
    assert record.curve_errors is not None and record.error_at_table_t is not None
