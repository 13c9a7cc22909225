"""One benchmark repetition: build one workload at one simulator seed, run it
once, and print what it measured as one JSON line.

Each repetition is its own process, so ``peak_rss_mb`` is the high-water
mark of one workload built and run once, and every repetition at one seed
starts from the same interpreter state.  ``run.py`` starts these; to run one
by hand from the repository root::

    python3 perfbench/rep.py --workload tpcc_2pc --seed 4200 [--profile]

Host times are reported scaled to a reference host speed (``setup_s``,
``run_s``), which ``speed.py`` measures while each phase runs, and raw
(``raw_setup_s``, ``raw_run_s``).

With ``--profile`` the build and the run are each measured under a
``cProfile`` hook instead, and the line gains per-layer self seconds (see
``layers.py``).  The speed probe would run inside the profile, so it is off:
the repetition's host times are raw and include the profiler's overhead.
"""

from __future__ import annotations

import argparse
import cProfile
import json
import pstats
import resource
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import repro  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from repro.sim.engine import ENGINE_BACKEND  # noqa: E402

#: Tolerance of TPC-C consistency condition 1 (W_YTD = sum of D_YTD).
YTD_TOLERANCE = 1e-6

#: Abort reasons reported one by one (``repro.txn.transaction.AbortReason``
#: values); any other reason is counted as ``other``.
ABORT_REASONS = ("lock_conflict", "validation", "deadlock_prevention",
                 "mode_switch", "user", "crash", "reservation")


def _profiled(fn):
    """Call ``fn`` under a fresh profiler; return its result and the stats."""
    profile = cProfile.Profile()
    profile.enable()
    try:
        value = fn()
    finally:
        profile.disable()
    return value, pstats.Stats(profile).stats


def ytd_violations(cluster) -> list[str]:
    """TPC-C consistency condition 1, per warehouse: W_YTD = sum(D_YTD)."""
    w_ytd: dict = {}
    d_ytd: dict = {}
    for server in cluster.servers.values():
        store = server.store
        for record in store.table("warehouse").records():
            w_ytd[record.value["w_id"]] = record.value["w_ytd"]
        for record in store.table("district").records():
            w_id = record.value["d_w_id"]
            d_ytd[w_id] = d_ytd.get(w_id, 0.0) + record.value["d_ytd"]
    problems = [f"warehouse {w}: w_ytd={w_ytd[w]!r} sum(d_ytd)={d_ytd.get(w)!r}"
                for w in sorted(w_ytd)
                if abs(w_ytd[w] - d_ytd.get(w, 0.0)) > YTD_TOLERANCE]
    if not w_ytd:
        problems.append("no warehouses loaded")
    return problems


def _summed(stats) -> Counter:
    """Key-wise sum of per-partition ``stats`` dicts."""
    total: Counter = Counter()
    for entry in stats:
        total.update(entry)
    return total


def recovery_counts(result) -> dict:
    """The storm's dip and recovery, from the run's windowed timeline.

    A fault-free run records no timeline: it reports 0 windows, and its depth
    and recovery time read 0.  A run that dips and is still below 90% of its
    median window when the windows end reports the time from the trough to
    the last window, the least its recovery could have taken, so that losing
    recovery reads as slower, never faster.
    """
    timeline = result.timeline
    if timeline is None:
        return {"faults.timeline_windows": 0, "faults.degradation_depth": 0.0,
                "faults.time_to_90pct_recovery_us": 0.0}
    recovery = result.time_to_90pct_recovery_us
    if recovery is None:
        counts = timeline.counts()
        while counts and counts[-1] == 0:
            counts.pop()
        recovery = (len(counts) - counts.index(min(counts))) * timeline.window_us
    return {"faults.timeline_windows": timeline.windows,
            "faults.degradation_depth": result.degradation_depth,
            "faults.time_to_90pct_recovery_us": recovery}


def work_counts(cluster, result) -> dict:
    """Deterministic per-layer counts read from the run's public state."""
    metrics = result.metrics
    committed = metrics.committed
    attempts = committed + metrics.aborted + metrics.crash_aborted
    per_txn = 1.0 / committed if committed else 0.0
    servers = cluster.servers.values()
    locks = _summed(server.store.lock_manager.stats for server in servers)
    logs = _summed(server.log.stats for server in servers)
    replication = _summed(server.replication.stats for server in servers)

    # The sequence counter numbers every event the kernel ever scheduled;
    # drawing one more after the run reads its value.
    events = cluster.env._next_seq()
    network = cluster.network.stats
    breakdown = result.breakdown_us
    durability = getattr(cluster.durability, "stats", {})
    counters = metrics.counters
    flushes = logs["flushes"]
    reasons = dict(result.abort_reasons)
    counts = {
        "sim.kernel.events": events,
        "sim.kernel.events_per_txn": events * per_txn,
        "sim.network.msgs_per_txn": network.messages_sent * per_txn,
        "sim.network.rpcs_per_txn": network.rpc_calls * per_txn,
        "sim.network.dropped": network.dropped,
        "sim.stats.latency_samples": metrics.latency.count,
        "storage.lock_grants_per_txn": locks["grants"] * per_txn,
        "storage.lock_waits_per_txn": locks["waits"] * per_txn,
        "storage.lock_aborts": locks["aborts"],
        "protocols.attempts_per_commit": attempts * per_txn,
        "protocols.backoff_us": breakdown.get("backoff", 0.0),
        "protocols.2pc_us": breakdown.get("2pc", 0.0),
        "txn.execute_us": breakdown.get("execute", 0.0),
        "commit.durable_wait_us": breakdown.get("return", 0.0),
        "commit.log_flushes": flushes,
        "commit.records_per_flush": logs["records_flushed"] / flushes if flushes else 0.0,
        "commit.watermarks_published": durability.get("watermarks_published", 0),
        "commit.force_updates": durability.get("force_updates", 0),
        "commit.epochs_committed": durability.get("epochs_committed", 0),
        "commit.barrier_us": durability.get("barrier_time_us", 0.0),
        "commit.unacked_commits": committed - metrics.latency.count,
        "replication.append_rounds": replication["append_rounds"],
        "replication.quorum_stalls": replication["quorum_stalls"],
        "replication.elections": replication["elections"],
        "cluster.recovery_time_us": counters.get("recovery_time_us"),
        "cluster.recovery_rolled_back": counters.get("recovery_rolled_back"),
        "faults.stale_reads": counters.get("stale_reads"),
        **recovery_counts(result),
    }
    for reason in ABORT_REASONS:
        counts[f"protocols.aborts.{reason}"] = reasons.pop(reason, 0)
    counts["protocols.aborts.other"] = sum(reasons.values())
    return counts


def measure(workload: str, seed: int, profile: bool) -> dict:
    spec = workloads.spec(workload, seed)
    out: dict = {"workload": workload, "seed": seed, "kernel": ENGINE_BACKEND}
    if profile:
        start = time.perf_counter()
        cluster, setup_stats = _profiled(lambda: repro.build(spec))
        out["raw_setup_s"] = time.perf_counter() - start
        start = time.perf_counter()
        result, run_stats = _profiled(cluster.run)
        out["raw_run_s"] = time.perf_counter() - start
    else:
        cluster, setup = speed.timed(lambda: repro.build(spec))
        result, run = speed.timed(cluster.run)
        out.update(setup_s=setup.scaled_s, raw_setup_s=setup.raw_s,
                   run_s=run.scaled_s, raw_run_s=run.raw_s)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    metrics = result.metrics
    out["committed"] = metrics.committed
    out["aborted"] = metrics.aborted
    out["crash_aborted"] = metrics.crash_aborted
    out["window_us"] = metrics.duration_us
    out["latency_us"] = metrics.latency.samples
    out["counts"] = work_counts(cluster, result)
    out["problems"] = ytd_violations(cluster) if workload == "tpcc_2pc" else []
    if profile:
        out["setup_layers_s"] = layers.attribute(setup_stats, SRC)
        out["run_layers_s"] = layers.attribute(run_stats, SRC)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--profile", action="store_true")
    args = parser.parse_args(argv)
    print(json.dumps(measure(args.workload, args.seed, args.profile)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
