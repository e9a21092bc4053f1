import os
import sys

import pytest

from cartansim import pipeline

sys.path.insert(0, os.path.dirname(__file__))


@pytest.fixture(autouse=True)
def no_build_from_an_earlier_test():
    """Each test starts without the build an earlier test left in the pipeline."""
    pipeline.LAST_PROBLEM.clear()
