"""pytest-benchmark wrapper for Figure 13 (watermark/epoch lagging).

Runs the experiment once at the ``small`` scale (seconds of wall clock) and
records the wall-clock time of the whole figure regeneration.  Run
``python -m repro.bench --figure fig13 --scale paper`` for the full-size sweep.
"""

import pytest

from repro.bench import ALL_EXPERIMENTS
from repro.scales import SCALES


@pytest.mark.benchmark(group="durability")
def test_fig13_lagging(benchmark):
    result = benchmark.pedantic(
        ALL_EXPERIMENTS["fig13"], args=(SCALES["small"],), iterations=1, rounds=1
    )
    assert result  # the experiment returns a non-empty result dictionary
