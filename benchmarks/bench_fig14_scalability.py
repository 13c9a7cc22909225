"""pytest-benchmark wrapper for Figure 14 (scalability).

Runs the experiment once at the ``small`` scale (seconds of wall clock) and
records the wall-clock time of the whole figure regeneration.  Run
``python -m repro.bench --figure fig14 --scale paper`` for the full-size sweep.
"""

import pytest

from repro.bench import ALL_EXPERIMENTS
from repro.scales import SCALES


@pytest.mark.benchmark(group="scalability")
def test_fig14_scalability(benchmark):
    result = benchmark.pedantic(
        ALL_EXPERIMENTS["fig14"], args=(SCALES["small"],), iterations=1, rounds=1
    )
    assert result  # the experiment returns a non-empty result dictionary
