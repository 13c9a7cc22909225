"""Self-tests of the benchmark: its layer map and its ledger.

Run from the repository root with ``python -m pytest perfbench/tests``.
"""

from __future__ import annotations

import json
import signal
import subprocess
import sys
import time
from types import SimpleNamespace
from fnmatch import fnmatchcase
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import rep  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

#: The traced run must charge at least this share of profiled self time to
#: named layers.
MIN_ASSIGNED_SHARE = 0.90


def test_every_repro_module_maps_to_exactly_one_layer():
    modules = layers.source_modules(SRC)
    assert "repro.sim._pykernel" in modules and "repro.sim._ckernel" in modules
    wrong = {m: layers.layers_of(m) for m in modules
             if len(layers.layers_of(m)) != 1}
    assert not wrong


def test_every_layer_pattern_matches_some_module():
    modules = layers.source_modules(SRC)
    unused = [p for patterns in layers.LAYERS.values() for p in patterns
              if not any(fnmatchcase(m, p) for m in modules)]
    assert not unused


def test_builtins_are_charged_to_the_calling_layer():
    storage = (str(SRC / "repro/storage/table.py"), 1, "get")
    kernel = (str(SRC / "repro/sim/_pykernel.py"), 1, "run")
    stdlib = ("/usr/lib/python3/random.py", 1, "choice")
    builtin = ("~", 0, "<built-in method builtins.len>")
    compiled = ("~", 0, "<method 'run' of 'repro.sim._ckernel.Environment' objects>")
    stats = {
        storage: (1, 1, 1.0, 4.0, {}),
        kernel: (1, 1, 2.0, 2.0, {}),
        stdlib: (1, 1, 0.5, 0.5, {storage: (1, 1, 0.5, 0.5)}),
        # len() costs 0.75 s from the storage layer and 0.25 s from stdlib
        # code that the storage layer called.
        builtin: (3, 3, 1.0, 1.0, {storage: (2, 2, 0.75, 0.75),
                                   stdlib: (1, 1, 0.25, 0.25)}),
        compiled: (1, 1, 3.0, 3.0, {("bench.py", 1, "main"): (1, 1, 3.0, 3.0)}),
        ("bench.py", 1, "main"): (1, 1, 0.125, 9.0, {}),
    }
    totals = layers.attribute(stats, SRC)
    assert totals["storage"] == pytest.approx(1.0 + 0.5 + 1.0)
    assert totals["sim.kernel"] == pytest.approx(2.0 + 3.0)
    assert totals[layers.UNASSIGNED] == pytest.approx(0.125)


def test_speed_probe_excludes_its_own_slices_and_cleans_up():
    before = signal.getsignal(signal.SIGALRM)
    value, timing = speed.timed(lambda: time.sleep(0.2) or 42)
    assert value == 42
    # Slices interleave with the phase but are not charged to it.
    assert timing.slices >= 2 + 4
    assert timing.raw_s == pytest.approx(0.2, abs=0.03)
    assert timing.scaled_s > 0
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)

    def fails():
        raise KeyError("phase")

    with pytest.raises(KeyError):
        speed.timed(fails)
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def _result_with(timeline):
    """The parts of a ``RunResult`` that ``rep.recovery_counts`` reads."""
    return SimpleNamespace(
        timeline=timeline,
        degradation_depth=timeline.degradation_depth() if timeline else None,
        time_to_90pct_recovery_us=(timeline.time_to_recovery_us(0.9)
                                   if timeline else None))


def test_a_run_that_never_recovers_reads_slower_than_one_that_does():
    from repro.sim.stats import WindowedRecorder

    def timeline(per_window):
        recorder = WindowedRecorder(window_us=1_000.0)
        for index, commits in enumerate(per_window):
            for _ in range(commits):
                recorder.record(index * 1_000.0 + 500.0)
        return recorder

    recovered = rep.recovery_counts(_result_with(timeline([10, 10, 10, 1, 10, 10])))
    stuck = rep.recovery_counts(_result_with(timeline([10, 10, 10, 1, 2, 3])))
    assert recovered["faults.time_to_90pct_recovery_us"] == 1_000.0
    # Still degraded at the last window: trough to the end, not 0.
    assert stuck["faults.time_to_90pct_recovery_us"] == 3_000.0
    assert stuck["faults.timeline_windows"] == 6
    fault_free = rep.recovery_counts(_result_with(None))
    assert fault_free == {"faults.timeline_windows": 0,
                          "faults.degradation_depth": 0.0,
                          "faults.time_to_90pct_recovery_us": 0.0}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_run_assigns_most_self_time_to_named_layers(workload):
    done = subprocess.run(
        [sys.executable, str(HERE / "rep.py"), "--workload", workload,
         "--seed", "1", "--profile"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    rep = json.loads(done.stdout.strip().splitlines()[-1])
    assert rep["problems"] == []
    profiled = unassigned = 0.0
    for phase in ("setup_layers_s", "run_layers_s"):
        profiled += sum(rep[phase].values())
        unassigned += rep[phase][layers.UNASSIGNED]
    assert profiled > 0
    assert 1.0 - unassigned / profiled >= MIN_ASSIGNED_SHARE
    # The profiled repetition stands in for its own untraced baseline.
    values, _ = run.traced(rep, [dict(rep, run_s=rep["raw_run_s"])])
    assert set(values) == set(run.declared_units()[1])
