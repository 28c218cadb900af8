"""Ingest scaling gate: basket parse + vertical build stay linear in |D|.

Times ``io.load`` followed by ``vertical()`` (best of 3) on a generated
T10.I4.D100K basket file (100K rows) and on that file concatenated ten
times (1M rows).  Linear ingest puts the ratio near 10; the gate allows
15 for the cache effects of ten-times-larger arrays and a noisy host.
"""

import time

import pytest

from repro.datagen.configs import SCATTERED
from repro.datagen.quest import generate
from repro.db import io
from repro.db.vertical import HAVE_NUMPY

pytestmark = pytest.mark.skipif(
    not HAVE_NUMPY, reason="the array basket parse needs NumPy"
)

#: largest accepted (1M-row seconds) / (100K-row seconds)
MAX_RATIO = 15.0


def ingest_seconds(path, repeats=3):
    """Best-of-``repeats`` seconds of load + vertical build, and |D|."""
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        db = io.load(path)
        db.vertical()
        best = min(best, time.perf_counter() - started)
        rows = len(db)
        del db
    return best, rows


def test_ingest_scales_linearly(tmp_path):
    small = tmp_path / "t10i4-100k.dat"
    io.save_basket(generate(SCATTERED["T10.I4.D100K"]), small)
    large = tmp_path / "t10i4-1m.dat"
    data = small.read_bytes()
    with open(large, "wb") as handle:
        for _ in range(10):
            handle.write(data)
    small_s, small_rows = ingest_seconds(small)
    large_s, large_rows = ingest_seconds(large)
    assert large_rows == 10 * small_rows == 1_000_000
    ratio = large_s / small_s
    print(
        "ingest: %d rows %.3f s, %d rows %.3f s, ratio %.1f"
        % (small_rows, small_s, large_rows, large_s, ratio)
    )
    assert ratio <= MAX_RATIO
