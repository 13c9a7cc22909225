"""The benchmark's layer map and the profiler-based self-time ledger.

Every module under ``src/repro`` belongs to exactly one layer, named after the
module or package it covers.  :func:`attribute` splits a ``cProfile`` run's
self time across those layers:

* a function defined in a ``repro`` module counts for that module's layer —
  this includes generator bodies, which ``cProfile`` times on every
  resumption, so protocol code driven by the scheduler is charged to the
  protocol and not to the kernel that resumed it;
* a C builtin whose qualified name names a ``repro`` module (a compiled
  kernel method) counts for that module's layer;
* any other function — a C builtin or standard-library Python — counts for
  the layer of the function that called it, split by the per-caller time
  ``cProfile`` records and followed up through callers that are themselves
  outside ``repro``;
* what remains (time reached only from outside ``repro``, such as the
  benchmark's own code) is reported as unassigned.

This module imports nothing from ``repro``, so the layer map can be checked
without running a simulation.
"""

from __future__ import annotations

import re
from fnmatch import fnmatchcase
from pathlib import Path

#: layer name -> module-name patterns (``fnmatch`` syntax).  Each module must
#: match the patterns of exactly one layer; ``tests/test_perfbench.py`` checks
#: it.  ``cluster`` also holds the code that declares, assembles and
#: orchestrates clusters (scenarios, registries, the figure and campaign
#: harness); ``workloads`` also holds the random generators that draw their
#: keys and values, and the open-loop arrival processes.
LAYERS: dict[str, tuple[str, ...]] = {
    "sim.kernel": ("repro.sim", "repro.sim.engine", "repro.sim._pykernel",
                   "repro.sim._ckernel"),
    "sim.network": ("repro.sim.network", "repro.sim.topology"),
    "sim.stats": ("repro.sim.stats", "repro.sim.sketch"),
    "storage": ("repro.storage", "repro.storage.*"),
    "core": ("repro.core", "repro.core.*"),
    "protocols": ("repro.protocols", "repro.protocols.*"),
    "txn": ("repro.txn", "repro.txn.*"),
    "commit": ("repro.commit", "repro.commit.*"),
    "replication": ("repro.replication", "repro.replication.*"),
    "cluster": ("repro.cluster", "repro.cluster.*", "repro", "repro.scenario",
                "repro.registry", "repro.scales", "repro.bench", "repro.bench.*",
                "repro.campaign", "repro.campaign.*"),
    "workloads": ("repro.workloads", "repro.workloads.*", "repro.arrivals",
                  "repro.sim.randgen"),
    "faults": ("repro.faults",),
}

UNASSIGNED = "unassigned"

_REPRO_NAME = re.compile(r"\brepro(?:\.\w+)*")


def layers_of(module: str) -> list[str]:
    """Every layer whose patterns match ``module`` (exactly one when the map
    is sound)."""
    return [layer for layer, patterns in LAYERS.items()
            if any(fnmatchcase(module, p) for p in patterns)]


def layer_of(module: str) -> str | None:
    matches = layers_of(module)
    return matches[0] if len(matches) == 1 else None


def module_name(path: Path, src_root: Path) -> str | None:
    """Dotted module name of a source file under ``src_root``, else ``None``."""
    try:
        rel = path.resolve().relative_to(src_root.resolve())
    except ValueError:
        return None
    parts = list(rel.with_suffix("").parts)
    if parts and parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts) if parts else None


def source_modules(src_root: Path) -> list[str]:
    """Module names of every Python or C source file of the ``repro`` package."""
    files = [p for p in (src_root / "repro").rglob("*")
             if p.suffix in (".py", ".c") and "__pycache__" not in p.parts]
    return sorted({module_name(p, src_root) for p in files})


class _Resolver:
    """Maps ``pstats`` function keys to layers, memoising file lookups."""

    def __init__(self, stats: dict, src_root: Path):
        self.stats = stats
        self.src_root = src_root
        self._file_layer: dict[str, str | None] = {}
        self._shares: dict = {}

    def own_layer(self, func) -> str | None:
        """The layer that defines ``func``, or ``None`` outside ``repro``."""
        filename, _, name = func
        if filename == "~":
            match = _REPRO_NAME.search(name)
            if not match:
                return None
            parts = match.group(0).split(".")
            for end in range(len(parts), 0, -1):
                layer = layer_of(".".join(parts[:end]))
                if layer is not None:
                    return layer
            return None
        if filename not in self._file_layer:
            module = module_name(Path(filename), self.src_root)
            self._file_layer[filename] = layer_of(module) if module else None
        return self._file_layer[filename]

    def shares(self, func, visiting=frozenset()) -> dict[str, float]:
        """How ``func``'s self time splits across layers (fractions sum to 1)."""
        layer = self.own_layer(func)
        if layer is not None:
            return {layer: 1.0}
        if func in self._shares:
            return self._shares[func]
        if func in visiting or func not in self.stats:
            return {UNASSIGNED: 1.0}
        # Split by the self time each caller edge accounts for.
        callers = self.stats[func][4]
        total = sum(edge[2] for edge in callers.values())
        if total <= 0:
            return {UNASSIGNED: 1.0}
        result: dict[str, float] = {}
        inner = visiting | {func}
        for caller, edge in callers.items():
            for name, share in self.shares(caller, inner).items():
                result[name] = result.get(name, 0.0) + share * edge[2] / total
        if not visiting:
            self._shares[func] = result
        return result


def attribute(stats: dict, src_root: Path) -> dict[str, float]:
    """Self seconds per layer (plus :data:`UNASSIGNED`) for one profile.

    ``stats`` is ``pstats.Stats(profile).stats``: function key ->
    ``(primitive calls, calls, self time, cumulative time, callers)``, where
    ``callers`` maps each caller's key to that edge's ``(pcalls, calls, self
    time, cumulative time)``.
    """
    resolver = _Resolver(stats, src_root)
    totals = {layer: 0.0 for layer in LAYERS}
    totals[UNASSIGNED] = 0.0
    for func, entry in stats.items():
        for name, share in resolver.shares(func).items():
            totals[name] += entry[2] * share
    return totals
