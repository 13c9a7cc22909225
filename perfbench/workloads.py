"""The benchmark's three workloads, each one ``repro.ScenarioSpec``.

All three are closed loops of 16 clients (4 partitions x 2 workers x 2 in
flight) at the ``small`` scale's sizing.  Why each exists is written next to
it and in ``README.md``.  The seed reaches the program only through
``config_overrides["seed"]``.
"""

from __future__ import annotations

#: Workload name -> how many distinct derived seeds one benchmark run pools
#: its simulated metrics over.  Fixed (never derived from host speed) so the
#: pooled simulated metrics repeat exactly at one ``--seed``, and so every
#: run's host metrics cover the same repetitions.
SEEDS_PER_RUN = {"ycsb_1m": 8, "tpcc_2pc": 8, "ycsb_storm": 10}

WORKLOADS = tuple(SEEDS_PER_RUN)


def spec(workload: str, seed: int):
    """The ``repro.ScenarioSpec`` of ``workload`` at simulator seed ``seed``."""
    # Imported here so run.py, which only needs the names and
    # seeds above, never loads the simulator.
    import repro
    from repro.bench.experiments import storm_duration_us

    small = repro.SCALES["small"]
    if workload == "ycsb_1m":
        # 1M keys in columnar tables: the only workload where loading and
        # table memory dominate set-up, so setup_s and peak_rss_mb measure the
        # storage layer here.  Low contention keeps run time on the storage
        # and core read/write path rather than on retries.
        return repro.ScenarioSpec(
            protocol="primo", durability="wm", workload="ycsb", scale=small,
            workload_overrides={"keys_per_partition": 250_000},
            config_overrides={"seed": seed})
    if workload == "tpcc_2pc":
        # The paper's 2PC baseline (Sundial + COCO epochs) on TPC-C: the most
        # events, lock grants and aborts per commit, on dict-backed tables
        # and without Primo's core — kernel, txn, lock and 2PC costs show here.
        return repro.ScenarioSpec(
            protocol="sundial", durability="coco", workload="tpcc", scale=small,
            config_overrides={"seed": seed})
    if workload == "ycsb_storm":
        # The only workload where replication, membership, recovery and
        # fault injection do real work: the standard storm over the stretched
        # window with the fast failure detector, as in the storm figure.
        duration = storm_duration_us(small)
        return repro.ScenarioSpec(
            protocol="primo", durability="wm", workload="ycsb", scale=small,
            config_overrides={"seed": seed, "duration_us": duration,
                              "heartbeat_interval_us": 500.0,
                              "heartbeat_timeout_us": 2_000.0},
            faults=repro.FaultPlan(events=tuple(
                repro.standard_storm(small.warmup_us, duration))))
    raise ValueError(f"unknown workload {workload!r}; expected one of "
                     f"{', '.join(WORKLOADS)}")


def derived_seeds(workload: str, seed: int) -> list[int]:
    """The simulator seeds one benchmark run at ``--seed seed`` pools."""
    return [seed * 100 + i for i in range(SEEDS_PER_RUN[workload])]
