"""The repository benchmark: end-to-end and per-layer metrics of one workload.

Run from the repository root::

    python3 perfbench/run.py --workload ycsb_1m --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1

With ``--trace 0`` the run measures the seven end-to-end metrics from
untraced repetitions; with ``--trace 1`` it makes one profiled repetition and
reports the per-layer ledger, also written to ``perfbench/ledger/``.
``--workload all`` runs every workload untraced and then traced.  Each
repetition is a separate ``rep.py`` process, and which repetitions a run
makes is fixed by the workload, ``--seed`` and ``--trace`` alone.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``.  See ``README.md`` for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import json
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import workloads  # noqa: E402

#: Every invocation ends well inside the 180 s a run may take.
TIME_LIMIT_S = 170.0

#: Untraced repetitions that repeat the first derived seed after every seed
#: has run once: each must simulate exactly what the first one did.
REPEATS = 1

#: Untraced repetitions at the traced seed, the baseline of
#: ``trace.overhead`` and ``sim.kernel.host_ns_per_event``.
TRACE_BASELINE = 2

#: A percentile is reported only with at least 10 samples beyond it.
MIN_P99_SAMPLES = 1000

#: Layers whose code runs while every workload is built.  ``core`` builds
#: only for Primo and ``txn`` never does, so their set-up self time would
#: read a constant 0 and is not reported.
SETUP_LAYERS = tuple(layer for layer in layers.LAYERS
                     if layer not in ("core", "txn"))


class RepFailed(RuntimeError):
    """A repetition exited abnormally or printed no result."""


def declared_units() -> tuple[dict, dict]:
    """name -> unit of the end-to-end and the per-layer metrics, as
    ``BENCHMARK.json`` declares them."""
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    return tuple({m["name"]: m["unit"] for m in contract[key]}
                 for key in ("end_to_end", "per_layer"))


def schedule(workload: str, seed: int, trace: bool) -> list[tuple[int, bool]]:
    """The fixed list of ``(simulator seed, profiled)`` repetitions of a run.

    It depends only on the workload, ``--seed`` and ``--trace``, never on
    host speed, so every run of a workload measures the same repetitions.
    """
    seeds = workloads.derived_seeds(workload, seed)
    if trace:
        return [(seeds[0], True)] + [(seeds[0], False)] * TRACE_BASELINE
    return [(s, False) for s in seeds] + [(seeds[0], False)] * REPEATS


def repetition(workload: str, seed: int, deadline: float,
               profile: bool = False) -> dict:
    """Run one ``rep.py`` process to completion and return its result."""
    command = [sys.executable, str(HERE / "rep.py"),
               "--workload", workload, "--seed", str(seed)]
    if profile:
        command.append("--profile")
    timeout = max(1.0, deadline - time.monotonic())
    try:
        done = subprocess.run(command, cwd=ROOT, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise RepFailed(f"{workload} seed {seed}: no result within "
                        f"{timeout:.0f} s") from exc
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RepFailed(f"{workload} seed {seed}: exit {done.returncode}\n"
                        f"{done.stderr[-2000:]}")
    return json.loads(lines[-1])


def fingerprint(rep: dict) -> dict:
    """Everything a repetition simulated: identical at one seed, or a bug."""
    keys = ("committed", "aborted", "crash_aborted", "window_us", "latency_us",
            "counts", "problems")
    return {key: rep[key] for key in keys}


def check(reps: list) -> list[str]:
    """Problems found in ``reps``: failed consistency checks, and simulated
    results that differ between repetitions at one seed."""
    problems = []
    first: dict = {}
    for rep in reps:
        problems.extend(f"seed {rep['seed']}: {p}" for p in rep["problems"])
        seen = fingerprint(first.setdefault(rep["seed"], rep))
        this = fingerprint(rep)
        if this != seen:
            diff = sorted(key for key in this if this[key] != seen[key])
            problems.append(f"seed {rep['seed']}: repetitions differ in {diff}")
    return problems


def attempts(rep: dict) -> tuple[int, int]:
    failed = rep["aborted"] + rep["crash_aborted"]
    return rep["committed"] + failed, failed


def end_to_end(reps: list) -> tuple[dict, list[str]]:
    """The end-to-end metrics of a set of repetitions, plus report lines.

    Host metrics are medians over every repetition; ``setup_s`` and
    ``run_s`` are host seconds scaled to the reference speed (``speed.py``).
    Simulated metrics pool the first repetition of each distinct seed, so
    they repeat exactly.
    """
    from repro.sim.stats import LatencyRecorder

    distinct = list({rep["seed"]: rep for rep in reversed(reps)}.values())
    committed = sum(rep["committed"] for rep in distinct)
    tried = sum(attempts(rep)[0] for rep in distinct)
    failed = sum(attempts(rep)[1] for rep in distinct)
    window_s = sum(rep["window_us"] for rep in distinct) / 1e6
    latency = LatencyRecorder()
    for rep in distinct:
        latency.extend(rep["latency_us"])
    values = {
        "setup_s": statistics.median(rep["setup_s"] for rep in reps),
        "run_s": statistics.median(rep["run_s"] for rep in reps),
        "peak_rss_mb": statistics.median(rep["peak_rss_mb"] for rep in reps),
        "sim_throughput_ktps": committed / window_s / 1000.0,
        "sim_latency_p50_ms": latency.p50 / 1000.0,
        "sim_latency_p99_ms": latency.p99 / 1000.0,
        "abort_rate": failed / tried,
    }
    notes = [f"{key} samples: " + " ".join(f"{rep[key]:.4f}" for rep in reps)
             for key in ("setup_s", "run_s", "raw_setup_s", "raw_run_s")]
    notes += [f"latency_samples: {latency.count}",
              f"commit.unacked_commits: {committed - latency.count}"]
    if latency.count < MIN_P99_SAMPLES:
        del values["sim_latency_p99_ms"]
        notes.append(f"sim_latency_p99_ms withheld: {latency.count} samples "
                     f"< {MIN_P99_SAMPLES}")
    return values, notes


def traced(trace_rep: dict, untraced: list) -> tuple[dict, list[str]]:
    """The per-layer metrics of one profiled repetition, plus report lines."""
    run_layers = trace_rep["run_layers_s"]
    setup_layers = trace_rep["setup_layers_s"]
    values = {f"{layer}.self_s": run_layers[layer] for layer in layers.LAYERS}
    values.update((f"{layer}.setup_self_s", setup_layers[layer])
                  for layer in SETUP_LAYERS)
    profiled = sum(run_layers.values()) + sum(setup_layers.values())
    values["unassigned.share"] = (run_layers[layers.UNASSIGNED]
                                  + setup_layers[layers.UNASSIGNED]) / profiled
    # The profiled repetition runs without the speed probe, so its overhead
    # is taken against raw host seconds.
    raw_run_s = statistics.median(rep["raw_run_s"] for rep in untraced)
    values["trace.overhead"] = trace_rep["raw_run_s"] / raw_run_s
    run_s = statistics.median(rep["run_s"] for rep in untraced)
    counts = dict(trace_rep["counts"])
    values["sim.kernel.host_ns_per_event"] = (
        run_s / counts.pop("sim.kernel.events") * 1e9)
    values["sim.kernel.compiled"] = int(trace_rep["kernel"] == "c")
    values.update(counts)
    notes = []
    if not counts["faults.timeline_windows"]:
        notes.append("faults.*: no timeline (the run has no fault plan)")
    return values, notes


def measure(workload: str, seed: int, trace: bool) -> dict:
    """One benchmark run; returns the result object the last line prints."""
    deadline = time.monotonic() + TIME_LIMIT_S
    end_units, layer_units = declared_units()
    reps: list = []
    problems: list = []
    try:
        for rep_seed, profile in schedule(workload, seed, trace):
            reps.append(repetition(workload, rep_seed, deadline, profile))
    except RepFailed as exc:
        problems.append(str(exc))
    problems.extend(check(reps))
    tried = sum(attempts(rep)[0] for rep in reps)
    failed = sum(attempts(rep)[1] for rep in reps)
    untraced = reps[1:] if trace else reps
    metrics: dict = {}
    notes: list = []
    if untraced and not problems:
        if trace:
            values, notes = traced(reps[0], untraced)
            units = layer_units
        else:
            values, notes = end_to_end(untraced)
            units = end_units
        missing = set(units) - set(values)
        if not trace:
            missing.discard("sim_latency_p99_ms")
        extra = set(values) - set(units)
        if missing or extra:
            problems.append(f"metrics differ from BENCHMARK.json: missing "
                            f"{sorted(missing)}, undeclared {sorted(extra)}")
        metrics = {name: {"value": value, "unit": units[name]}
                   for name, value in values.items() if name in units}
    if problems:
        failed = tried = max(tried, 1)
    kernel = reps[0]["kernel"] if reps else "unknown"
    report(workload, seed, kernel, reps, metrics, notes, problems)
    if trace and metrics:
        write_ledger(workload, seed, kernel, reps[0], metrics, problems)
    return {"correct": not problems, "attempted": tried, "failed": failed,
            "metrics": metrics}


def report(workload, seed, kernel, reps, metrics, notes, problems) -> None:
    seeds = sorted({rep["seed"] for rep in reps})
    print(f"# {workload} --seed {seed}: {len(reps)} repetitions over simulator "
          f"seeds {seeds}, scheduler kernel {kernel}")
    for name, metric in metrics.items():
        print(f"{name:40s} {metric['value']:>16.6g} {metric['unit']}")
    for line in notes:
        print(line)
    for problem in problems:
        print(f"CHECK FAILED: {problem}")


def write_ledger(workload, seed, kernel, trace_rep, metrics, problems) -> None:
    """Keep the traced run's per-layer ledger next to the benchmark."""
    ledger = {
        "workload": workload,
        "seed": seed,
        "simulator_seed": trace_rep["seed"],
        "kernel": kernel,
        "correct": not problems,
        "setup_layers_s": trace_rep["setup_layers_s"],
        "run_layers_s": trace_rep["run_layers_s"],
        "counts": trace_rep["counts"],
        "metrics": {name: m["value"] for name, m in metrics.items()},
    }
    out = HERE / "ledger"
    out.mkdir(exist_ok=True)
    path = out / f"{workload}-seed{seed}-{kernel}.json"
    path.write_text(json.dumps(ledger, indent=2, sort_keys=True) + "\n")
    print(f"ledger: {path.relative_to(ROOT)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    # The schedule is fixed, so --seconds only states the run length it is
    # sized for; see README.md.
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Exit through SystemExit on SIGTERM so a running repetition is killed
    # and waited for rather than orphaned.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no simulator source at {ROOT / 'src' / 'repro'}; run "
              "from a checkout of the repository", file=sys.stderr)
        return 2
    if args.workload == "all":
        runs = [(w, t) for w in workloads.WORKLOADS for t in (False, True)]
    else:
        runs = [(args.workload, bool(args.trace))]
    for workload, trace in runs:
        result = measure(workload, args.seed, trace)
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
