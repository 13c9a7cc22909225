"""pytest-benchmark wrapper for Appendix A (analytical model).

Runs the experiment once at the ``small`` scale (seconds of wall clock) and
records the wall-clock time of the whole figure regeneration.  Run
``python -m repro.bench --figure appendix --scale paper`` for the full-size sweep.
"""

import pytest

from repro.bench import ALL_EXPERIMENTS
from repro.scales import SCALES


@pytest.mark.benchmark(group="analysis")
def test_appendix_analysis(benchmark):
    result = benchmark.pedantic(
        ALL_EXPERIMENTS["appendix"], args=(SCALES["small"],), iterations=1, rounds=1
    )
    assert result  # the experiment returns a non-empty result dictionary
