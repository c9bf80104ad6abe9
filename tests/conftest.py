import os
import sys
import tracemalloc

import pytest

sys.path.insert(0, os.path.dirname(__file__))

from quadkit.gateway import Gateway, ScriptedProvider

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")

# One float64 grid of the 480 x 480 map the memory guards use, in bytes.
GRID_480 = 480 * 480 * 8


def fixture_text(name: str) -> str:
    with open(os.path.join(FIXTURES, name)) as fh:
        return fh.read()


def make_gateway(entries, log_path=None) -> Gateway:
    """Gateway over an in-memory scripted transcript.

    ``entries`` is a list of (template_id, response) pairs in consumption order.
    """
    records = [{"template_id": t, "response": r} for t, r in entries]
    return Gateway(ScriptedProvider(records), log_path=log_path)


def traced_peak_over_entry(fn):
    """``fn()`` and the most memory it held at once above what it started with."""
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak - entry


@pytest.fixture
def scripted():
    return make_gateway
