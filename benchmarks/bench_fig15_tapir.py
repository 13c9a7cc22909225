"""pytest-benchmark wrapper for Figure 15 (comparison with TAPIR).

Runs the experiment once at the ``small`` scale (seconds of wall clock) and
records the wall-clock time of the whole figure regeneration.  Run
``python -m repro.bench --figure fig15 --scale paper`` for the full-size sweep.
"""

import pytest

from repro.bench import ALL_EXPERIMENTS
from repro.scales import SCALES


@pytest.mark.benchmark(group="tapir")
def test_fig15_tapir(benchmark):
    result = benchmark.pedantic(
        ALL_EXPERIMENTS["fig15"], args=(SCALES["small"],), iterations=1, rounds=1
    )
    assert result  # the experiment returns a non-empty result dictionary
