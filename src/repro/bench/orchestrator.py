"""Parallel figure-sweep orchestrator with a resumable on-disk result cache.

Regenerating the paper's figures decomposes into independent *cells*: one
fixed-seed simulation per (protocol, workload, scale, knobs) point.  This
module turns each cell into a declarative :class:`Cell` spec, executes the
whole set across CPU cores with a :class:`~concurrent.futures.ProcessPoolExecutor`,
and memoizes every cell's :class:`~repro.cluster.results.RunResult` in an
on-disk JSON cache keyed by a stable hash of the cell spec plus the substrate
version.  Interrupted or repeated sweeps therefore resume: only cells whose
spec (or the simulator itself) changed are recomputed.

Determinism contract
--------------------

A cell produces **bit-identical** commit/abort counts whether it runs inline
(``jobs=1``), in a pool worker, or comes back from the cache.  Two properties
make that hold:

* all simulation seeding goes through ``repro.sim.randgen.stable_hash``
  (crc32-based), so a fixed-seed run is reproducible across processes and
  interpreter restarts (see "Determinism ground rules" in ROADMAP.md);
* every result — including one computed inline — is normalized through the
  JSON round-trip (:meth:`RunResult.to_json_dict` /
  :meth:`RunResult.from_json_dict`) before it is handed to a renderer, so the
  three execution paths cannot diverge even in float formatting.

Cache layout
------------

``<cache-dir>/<sha256-prefix>.json`` — one file per cell, containing the
schema version, the substrate version, the cell spec (for human inspection
and integrity checking) and the serialized result.  Files are written
atomically (tmp + rename) so an interrupted sweep never leaves a corrupt
entry; unreadable or mismatched entries are treated as misses.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Optional, Sequence

from .. import __version__ as _REPRO_VERSION
from ..cluster.results import RunResult
from ..scales import BenchScale
from ..scenario import ScenarioSpec
from ..scenario import run as _run_scenario

__all__ = [
    "Cell",
    "CacheGcReport",
    "NullCache",
    "ResultCache",
    "SweepOutcome",
    "SUBSTRATE_VERSION",
    "CACHE_SCHEMA_VERSION",
    "collect_cache_garbage",
    "execute_cell",
    "execute_cell_json",
    "make_cell",
    "run_cached_cell",
    "run_cells",
]

#: Version of the simulation substrate baked into every cache key.  Bump the
#: package version (or wipe the cache) when simulation semantics change; the
#: bench gate (``scripts/bench_gate.py --check``) hard-fails on unintentional
#: semantic drift, so a stale cache and a drifted substrate cannot silently
#: coexist on CI.
SUBSTRATE_VERSION = _REPRO_VERSION

#: Version of the on-disk cache file format itself.  v7: spec JSON lost its
#: two retired scalar fault-knob keys (those faults are ``faults`` events
#: now), so every spec's canonical JSON — and cache key — changed; stale v6
#: caches degrade to misses.  v6: spec JSON can carry
#: a geo ``topology`` (omitted for flat-network specs, whose cache keys are
#: therefore unchanged) and fault-run result documents carry a windowed
#: ``timeline`` (degradation/recovery metrics); stale v5 caches degrade to
#: misses.  v5: result documents
#: from runs past ``repro.sim.stats.SKETCH_THRESHOLD`` samples store a
#: bounded-size ``latency_sketch`` instead of raw ``latency_samples`` (and are
#: streamed to disk incrementally), so entries no longer grow with transaction
#: count; stale v4 caches degrade to misses.  v4: spec JSON can carry
#: an open-loop ``arrival`` process (omitted for closed-loop specs, whose
#: cache keys are therefore unchanged); stale v3 caches degrade to misses.
#: v3: spec JSON grew the declarative ``faults`` plan (and workload mixes),
#: so fault schedules and mix weights are part of every cell's cache
#: identity.  v2: cells carry a ScenarioSpec and cache keys hash its
#: canonical JSON.
CACHE_SCHEMA_VERSION = 7


@dataclass(frozen=True)
class Cell:
    """One independent simulation point of a figure sweep.

    A thin presentation wrapper: ``figure`` and ``key`` identify the cell to
    its renderer, while ``spec`` — a validated
    :class:`~repro.scenario.ScenarioSpec` — is the physics of the run and the
    sole input to its cache key.  Two cells that differ only in
    ``figure``/``key`` share one simulation.
    """

    figure: str
    key: str
    spec: ScenarioSpec

    @property
    def cell_id(self) -> str:
        return f"{self.figure}/{self.key}"

    def cache_key(self) -> str:
        """Stable content hash of the spec's canonical JSON + substrate version."""
        payload = (
            '{"spec":' + self.spec.canonical_json()
            + ',"substrate":' + json.dumps(SUBSTRATE_VERSION) + "}"
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:32]


def make_cell(
    figure: str,
    key: str,
    protocol: str,
    scale: BenchScale,
    workload: str = "ycsb",
    workload_overrides: Optional[dict] = None,
    faults=None,
    arrival=None,
    topology=None,
    durability: Optional[str] = None,
    **config_overrides,
) -> Cell:
    """A :class:`Cell` over a :class:`~repro.scenario.ScenarioSpec` built
    from these keywords; loose ``config_overrides`` are
    :class:`~repro.cluster.config.SystemConfig` knobs.

    Spec validation runs here — a typo'd protocol, workload, override key,
    fault kind or mix component fails while the figure is being *planned*,
    before anything simulates.
    """
    return Cell(
        figure=figure,
        key=key,
        spec=ScenarioSpec(
            protocol=protocol,
            workload=workload,
            durability=durability,
            scale=scale,
            workload_overrides=workload_overrides or {},
            config_overrides=config_overrides,
            faults=faults,
            arrival=arrival,
            topology=topology,
        ),
    )


def execute_cell(cell: Cell, profile_dir: Optional[str] = None) -> RunResult:
    """Run one cell's simulation to completion (in the current process).

    With ``profile_dir`` set, the run executes under :mod:`cProfile` and the
    raw stats are dumped to ``<profile_dir>/<figure>-<key>-<hash>.pstats``
    (loadable with ``pstats.Stats`` or snakeviz) — the ``--profile`` flag of
    ``python -m repro.bench`` plumbs through here for both inline and pooled
    execution.
    """
    if profile_dir is None:
        return _run_scenario(cell.spec)
    import cProfile

    profiler = cProfile.Profile()
    profiler.enable()
    try:
        result = _run_scenario(cell.spec)
    finally:
        profiler.disable()
    profiler.dump_stats(_profile_path(profile_dir, cell))
    return result


def _profile_path(profile_dir: str, cell: Cell) -> str:
    directory = Path(profile_dir)
    directory.mkdir(parents=True, exist_ok=True)
    safe_key = "".join(
        ch if ch.isalnum() or ch in "._-" else "_" for ch in cell.key
    )
    return str(directory / f"{cell.figure}-{safe_key}-{cell.cache_key()[:8]}.pstats")


def execute_cell_json(cell: Cell, profile_dir: Optional[str] = None) -> dict:
    """Run one cell and return its result's lossless JSON dict.

    The pool-worker entry point of :func:`run_cells` and of the campaign
    executor (:mod:`repro.campaign.executor`): the JSON form crosses the
    process boundary, so pooled results are normalized exactly like cached
    ones.
    """
    return execute_cell(cell, profile_dir=profile_dir).to_json_dict()


def run_cached_cell(cell: Cell, cache, profile_dir: Optional[str] = None) -> RunResult:
    """Execute one cell inline, persist it, and return the normalized result.

    The single execute-and-store step shared by the inline path of
    :func:`run_cells` and the campaign executor: the result is written to
    ``cache`` atomically and handed back *through the JSON round trip*, so an
    inline execution is indistinguishable from a cache hit or a pool result.
    """
    result_json = execute_cell(cell, profile_dir=profile_dir).to_json_dict()
    cache.put(cell, result_json)
    return RunResult.from_json_dict(result_json)


class ResultCache:
    """On-disk JSON memo of cell results, keyed by :meth:`Cell.cache_key`."""

    def __init__(self, root) -> None:
        self.root = Path(root)

    def path_for(self, cache_key: str) -> Path:
        return self.root / f"{cache_key}.json"

    def load_entry(self, path) -> Optional[dict]:
        """Parse one on-disk entry; ``None`` for corrupt or version-skewed files.

        The shared validity check behind :meth:`get`, :meth:`contains_key`
        and :func:`collect_cache_garbage`: an entry counts only when it
        parses, carries the current schema and substrate versions, and has a
        result payload.
        """
        try:
            with open(path, "r", encoding="utf-8") as fh:
                entry = json.load(fh)
        except (OSError, ValueError):
            return None
        if not isinstance(entry, dict):
            return None
        if entry.get("schema") != CACHE_SCHEMA_VERSION:
            return None
        if entry.get("substrate_version") != SUBSTRATE_VERSION:
            return None
        if "result" not in entry:
            return None
        return entry

    def get_by_key(self, cache_key: str) -> Optional[RunResult]:
        """The cached result stored under ``cache_key``, or ``None`` on a miss.

        Corrupt, unreadable or schema-mismatched entries count as misses —
        an interrupted or version-skewed cache degrades to recomputation,
        never to a crash or a wrong figure.  Campaign executors address the
        cache by the manifest's precomputed content keys through here.
        """
        entry = self.load_entry(self.path_for(cache_key))
        if entry is None:
            return None
        try:
            return RunResult.from_json_dict(entry["result"])
        except (KeyError, TypeError, ValueError):
            return None

    def contains_key(self, cache_key: str) -> bool:
        """Whether a *valid* entry exists for ``cache_key`` (campaign status)."""
        return self.load_entry(self.path_for(cache_key)) is not None

    def get(self, cell: Cell) -> Optional[RunResult]:
        """Return the cached result for ``cell``, or ``None`` on a miss."""
        return self.get_by_key(cell.cache_key())

    def put(self, cell: Cell, result_json: dict) -> None:
        """Atomically persist one cell's serialized result.

        Large results are streamed, not materialized: ``json.dump`` with
        keyword options takes the chunked ``iterencode`` path, so the
        document is written to the tmp file incrementally instead of being
        built as one in-memory string.  (Result documents are also bounded
        now — past ``SKETCH_THRESHOLD`` samples the metrics serialize a
        fixed-size ``latency_sketch`` rather than every raw sample.)
        """
        self.root.mkdir(parents=True, exist_ok=True)
        entry = {
            "schema": CACHE_SCHEMA_VERSION,
            "substrate_version": SUBSTRATE_VERSION,
            "spec": cell.spec.to_json_dict(),
            "result": result_json,
        }
        fd, tmp_path = tempfile.mkstemp(
            dir=self.root, prefix=".tmp-", suffix=".json"
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump(entry, fh, sort_keys=True)
            os.replace(tmp_path, self.path_for(cell.cache_key()))
        except BaseException:
            try:
                os.unlink(tmp_path)
            except OSError:
                pass
            raise


class NullCache:
    """Cache stand-in that never hits and never stores (``--no-cache``)."""

    def get(self, cell: Cell) -> Optional[RunResult]:
        return None

    def put(self, cell: Cell, result_json: dict) -> None:
        pass


@dataclass
class SweepOutcome:
    """Results of one orchestrated sweep, plus execution accounting."""

    results: dict = field(default_factory=dict)  # Cell -> RunResult
    executed: int = 0       # simulations actually run this sweep
    cache_hits: int = 0     # unique cells served from the on-disk cache
    deduplicated: int = 0   # cells that shared another cell's simulation

    def by_key(self, cells: Iterable[Cell]) -> dict:
        """Results for ``cells`` keyed by ``cell.key`` (a renderer's view)."""
        return {cell.key: self.results[cell] for cell in cells}


def run_cells(
    cells: Sequence[Cell],
    jobs: int = 1,
    cache: Optional[ResultCache] = None,
    progress: Optional[Callable[[str], None]] = None,
    profile_dir: Optional[str] = None,
) -> SweepOutcome:
    """Execute every cell, using the cache and up to ``jobs`` processes.

    Identical specs (same cache key) are simulated once and shared.  With
    ``jobs <= 1`` everything runs inline in this process; either way each
    result is normalized through the JSON round-trip so inline, pooled and
    cached executions are indistinguishable.  ``profile_dir`` turns on
    per-cell :mod:`cProfile` dumps (see :func:`execute_cell`) — cached cells
    produce no profile because nothing simulates.
    """
    cache = cache if cache is not None else NullCache()
    notify = progress or (lambda message: None)

    # Deduplicate by cache key, preserving plan order.
    unique: dict[str, list[Cell]] = {}
    for cell in cells:
        unique.setdefault(cell.cache_key(), []).append(cell)

    outcome = SweepOutcome()
    outcome.deduplicated = len(cells) - len(unique)
    resolved: dict[str, RunResult] = {}

    pending: list[tuple[str, Cell]] = []
    for cache_key, aliases in unique.items():
        cached = cache.get(aliases[0])
        if cached is not None:
            resolved[cache_key] = cached
            outcome.cache_hits += 1
            notify(f"cache hit  {aliases[0].cell_id}")
        else:
            pending.append((cache_key, aliases[0]))

    if pending and jobs <= 1:
        for cache_key, cell in pending:
            notify(f"running    {cell.cell_id}")
            resolved[cache_key] = run_cached_cell(cell, cache,
                                                  profile_dir=profile_dir)
            outcome.executed += 1
    elif pending:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            futures = {
                pool.submit(execute_cell_json, cell, profile_dir): (cache_key, cell)
                for cache_key, cell in pending
            }
            notify(
                f"running    {len(pending)} cells on up to {jobs} worker processes"
            )
            remaining = set(futures)
            while remaining:
                done, remaining = wait(remaining, return_when=FIRST_COMPLETED)
                for future in done:
                    cache_key, cell = futures[future]
                    result_json = future.result()
                    cache.put(cell, result_json)
                    resolved[cache_key] = RunResult.from_json_dict(result_json)
                    outcome.executed += 1
                    notify(f"finished   {cell.cell_id}")

    for cache_key, aliases in unique.items():
        for cell in aliases:
            outcome.results[cell] = resolved[cache_key]
    return outcome


# ---------------------------------------------------------------------------
# Cache garbage collection
# ---------------------------------------------------------------------------

@dataclass
class CacheGcReport:
    """What one :func:`collect_cache_garbage` pass found (and removed)."""

    root: str = ""
    dry_run: bool = False
    kept: int = 0                  # valid entries left in place
    stale_entries: int = 0         # schema/substrate-skewed or corrupt files
    orphaned_tmp: int = 0          # abandoned .tmp-* files past the age cutoff
    bytes_reclaimed: int = 0       # total size of everything removed

    def describe(self) -> str:
        action = "would reclaim" if self.dry_run else "reclaimed"
        return (
            f"{self.root}: kept {self.kept} entries; {action} "
            f"{self.bytes_reclaimed:,} bytes "
            f"({self.stale_entries} stale/corrupt entries, "
            f"{self.orphaned_tmp} orphaned tmp files)"
        )


def collect_cache_garbage(root, tmp_age_s: float = 3600.0,
                          dry_run: bool = False) -> CacheGcReport:
    """Prune version-skewed, corrupt and orphaned files from a result cache.

    Needed hygiene once campaigns share one cache directory across hosts and
    substrate upgrades: every version skew turns the previous entries into
    dead weight that ``get`` already ignores but nothing ever deletes.  Removes

    * entries whose schema or substrate version no longer matches (or that
      do not parse) — exactly the files :meth:`ResultCache.get` treats as
      misses, so removal can never change what a sweep computes;
    * ``.tmp-*`` spill files older than ``tmp_age_s`` seconds — debris of
      executors killed mid-:meth:`ResultCache.put` (younger ones are left
      alone: they may belong to a write in flight right now).

    With ``dry_run`` nothing is deleted; the report counts what would go.
    Concurrent executors are safe: deleting an invalid entry or an abandoned
    tmp file can at worst race another GC's unlink, which is tolerated.
    """
    import time

    cache = ResultCache(root)
    report = CacheGcReport(root=str(cache.root), dry_run=dry_run)
    if not cache.root.is_dir():
        return report
    now = time.time()
    for path in sorted(cache.root.iterdir()):
        if not path.is_file():
            continue
        remove = False
        if path.name.startswith(".tmp-"):
            try:
                if now - path.stat().st_mtime >= tmp_age_s:
                    remove = True
                    report.orphaned_tmp += 1
            except OSError:
                continue
        elif path.suffix == ".json":
            if cache.load_entry(path) is None:
                remove = True
                report.stale_entries += 1
            else:
                report.kept += 1
        else:
            continue
        if not remove:
            continue
        try:
            size = path.stat().st_size
            if not dry_run:
                path.unlink()
            report.bytes_reclaimed += size
        except OSError:
            # Another GC (or the owning writer) got there first; fine.
            pass
    return report
