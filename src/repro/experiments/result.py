"""The typed result of an experiment run.

One :class:`ExperimentResult` holds everything a run produced: one
:class:`~repro.core.analysis.BandwidthSweep` per grid *cell* (an
(app, topology, node mapping, latency, eager threshold, CPU speed)
combination -- bandwidth varies inside the cell), plus accessors that feed
the existing :mod:`repro.core.reporting` tables directly and tidy exports
(:meth:`to_rows` / :meth:`to_json` / :meth:`to_csv`) for external analysis.
Runs executed with ``full_results`` additionally retain the whole
:class:`~repro.dimemas.results.SimulationResult` objects and can assemble
per-app :class:`~repro.core.study.OverlapStudy` views (:meth:`studies`).
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, TYPE_CHECKING, Union

from repro.core.analysis import ORIGINAL, BandwidthSweep
from repro.errors import AnalysisError

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.study import OverlapStudy
    from repro.dimemas.results import SimulationResult
    from repro.experiments.spec import ExperimentSpec

#: Network counters carried per replay task, in tidy-row column order.
NETWORK_COLUMNS = ("transfers", "bytes_transferred", "mean_queue_time",
                   "mean_transfer_time", "intranode_share",
                   "collective_transfers", "collective_bytes",
                   "collective_share")


@dataclass(frozen=True)
class CellDims:
    """The grid coordinates a cell fixes (everything but bandwidth)."""

    topology: str
    processors_per_node: int
    latency: float
    eager_threshold: int
    cpu_speed: float
    collective_model: str = "analytical"

    def as_dict(self) -> Dict[str, Any]:
        return {
            "topology": self.topology,
            "collective_model": self.collective_model,
            "processors_per_node": self.processors_per_node,
            "latency": self.latency,
            "eager_threshold": self.eager_threshold,
            "cpu_speed": self.cpu_speed,
        }


@dataclass(frozen=True)
class TaskProvenance:
    """Where one replay task's result came from: the cache, or a simulation.

    ``key`` is the task's :class:`~repro.store.keys.CellKey` digest;
    ``cached`` is True for a store hit (no simulation ran for the task).
    Only populated on runs executed with a result store attached.
    """

    index: int
    label: str
    key: str
    cached: bool


@dataclass(frozen=True)
class ExperimentCell:
    """One application's bandwidth sweep at one grid-cell coordinate."""

    app: str
    dims: CellDims
    sweep: BandwidthSweep

    def matches(self, app: Optional[str] = None, **dims: Any) -> bool:
        if app is not None and self.app != app:
            return False
        own = self.dims.as_dict()
        for key, value in dims.items():
            if key not in own:
                raise AnalysisError(
                    f"unknown cell dimension {key!r} (known: {sorted(own)})")
            if value is not None and own[key] != value:
                return False
        return True


@dataclass(frozen=True)
class ExperimentResult:
    """Everything one :func:`~repro.experiments.runner.run_experiment` produced."""

    spec: "ExperimentSpec"
    variants: List[str]
    cells: Tuple[ExperimentCell, ...]
    metadata: Dict[str, Any] = field(default_factory=dict)
    simulation_results: Optional[Tuple["SimulationResult", ...]] = None
    studies_by_app: Optional[Dict[str, "OverlapStudy"]] = None
    provenance: Optional[Tuple[TaskProvenance, ...]] = None

    # -- cell selection ----------------------------------------------------
    def apps(self) -> List[str]:
        """Application labels, in run order."""
        return list(dict.fromkeys(cell.app for cell in self.cells))

    def select(self, app: Optional[str] = None, **dims: Any) -> List[ExperimentCell]:
        """Cells matching the given app and/or cell dimensions."""
        return [cell for cell in self.cells if cell.matches(app=app, **dims)]

    def sweep(self, app: Optional[str] = None, **dims: Any) -> BandwidthSweep:
        """The single cell's sweep matching the filters (error if ambiguous)."""
        matches = self.select(app=app, **dims)
        if not matches:
            raise AnalysisError(
                f"no experiment cell matches app={app!r}, {dims!r}")
        if len(matches) > 1:
            keys = [(cell.app, cell.dims.as_dict()) for cell in matches]
            raise AnalysisError(
                f"ambiguous cell selection ({len(matches)} matches): {keys}")
        return matches[0].sweep

    def by_topology(self, app: Optional[str] = None) -> Dict[str, BandwidthSweep]:
        """``{topology: sweep}`` -- the shape the topology tables consume.

        Requires the (optionally app-filtered) cells to be distinguished by
        topology alone, i.e. no other axis swept.
        """
        cells = self.select(app=app)
        sweeps: Dict[str, BandwidthSweep] = {}
        for cell in cells:
            if cell.dims.topology in sweeps:
                raise AnalysisError(
                    "by_topology() needs one cell per topology; other axes "
                    "are swept too -- use select()/sweep() with filters")
            sweeps[cell.dims.topology] = cell.sweep
        if not sweeps:
            raise AnalysisError(f"no experiment cells match app={app!r}")
        return sweeps

    def by_collective_model(self, app: Optional[str] = None
                            ) -> Dict[str, BandwidthSweep]:
        """``{collective model: sweep}`` -- for backend-comparison tables.

        Requires the (optionally app-filtered) cells to be distinguished by
        collective model alone, i.e. no other axis swept.
        """
        cells = self.select(app=app)
        sweeps: Dict[str, BandwidthSweep] = {}
        for cell in cells:
            if cell.dims.collective_model in sweeps:
                raise AnalysisError(
                    "by_collective_model() needs one cell per collective "
                    "model; other axes are swept too -- use "
                    "select()/sweep() with filters")
            sweeps[cell.dims.collective_model] = cell.sweep
        if not sweeps:
            raise AnalysisError(f"no experiment cells match app={app!r}")
        return sweeps

    def by_app(self) -> Dict[str, BandwidthSweep]:
        """``{app: sweep}`` -- the shape the per-application tables consume."""
        sweeps: Dict[str, BandwidthSweep] = {}
        for cell in self.cells:
            if cell.app in sweeps:
                raise AnalysisError(
                    "by_app() needs one cell per application; a platform "
                    "axis is swept too -- use select()/sweep() with filters")
            sweeps[cell.app] = cell.sweep
        return sweeps

    # -- study view --------------------------------------------------------
    def studies(self) -> Dict[str, "OverlapStudy"]:
        """One :class:`OverlapStudy` per app (full-results, single-point runs)."""
        if self.studies_by_app is None:
            raise AnalysisError(
                "studies are only available for runs executed with "
                "full_results=True on a single-point grid with a single "
                "mechanism")
        return dict(self.studies_by_app)

    # -- cache provenance --------------------------------------------------
    def cache_stats(self) -> Dict[str, Any]:
        """Hit/miss accounting of the run's result-store lookups.

        ``{"enabled": bool, "hits": int, "misses": int}`` (plus the store
        ``location`` when one was attached); an un-cached run reports zero
        hits and one miss per task.
        """
        info = dict(self.metadata.get("cache") or {"enabled": False})
        if self.provenance is not None:
            info.setdefault("hits",
                            sum(1 for entry in self.provenance if entry.cached))
            info.setdefault("misses",
                            sum(1 for entry in self.provenance
                                if not entry.cached))
        else:
            info.setdefault("hits", 0)
            info.setdefault("misses",
                            sum(len(cell.sweep.points) for cell in self.cells)
                            * len(self.variants))
        return info

    def cached_tasks(self) -> List[TaskProvenance]:
        """Provenance entries of the tasks served from the store."""
        return [entry for entry in (self.provenance or ()) if entry.cached]

    # -- tidy exports ------------------------------------------------------
    def to_rows(self) -> List[Dict[str, Any]]:
        """Tidy per-(cell, bandwidth, variant) rows for external analysis."""
        rows: List[Dict[str, Any]] = []
        for cell in self.cells:
            for point in cell.sweep.points:
                for variant in self.variants:
                    row: Dict[str, Any] = {"app": cell.app}
                    row.update(cell.dims.as_dict())
                    row["bandwidth_mbps"] = point.bandwidth_mbps
                    row["variant"] = variant
                    row["time"] = point.time(variant)
                    row["speedup"] = point.speedup(variant)
                    row["task_seconds"] = point.task_seconds.get(variant, 0.0)
                    for column in NETWORK_COLUMNS:
                        row[column] = point.network_stat(variant, column)
                    rows.append(row)
        return rows

    def to_json(self, path: Optional[Union[str, Path]] = None,
                indent: int = 2) -> str:
        """Spec + tidy rows as JSON text (written to ``path`` when given)."""
        payload = {
            "spec": self.spec.to_dict(),
            "variants": list(self.variants),
            # Run-local bookkeeping (wall time, cache hit/miss counts) is
            # excluded so the exported JSON is identical for no-cache, cold
            # and warm executions of the same spec.
            "metadata": {key: value for key, value in self.metadata.items()
                         if key not in ("replay_wall_seconds", "cache")},
            "rows": self.to_rows(),
        }
        text = json.dumps(payload, indent=indent) + "\n"
        if path is not None:
            Path(path).write_text(text, encoding="utf-8")
        return text

    def to_csv(self, path: Optional[Union[str, Path]] = None) -> str:
        """Tidy rows as CSV text (written to ``path`` when given)."""
        rows = self.to_rows()
        columns = list(rows[0]) if rows else ["app", "variant"]
        buffer = io.StringIO()
        writer = csv.DictWriter(buffer, fieldnames=columns, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
        text = buffer.getvalue()
        if path is not None:
            Path(path).write_text(text, encoding="utf-8")
        return text

    # -- reporting ---------------------------------------------------------
    def summary(self) -> str:
        """A short human-readable account of what the experiment measured."""
        described = self.spec.describe()
        lines = [
            f"experiment: {', '.join(self.apps())} | "
            f"{described['grid_points']} grid point(s) x "
            f"{len(self.variants)} variant(s), jobs={self.metadata.get('jobs', 1)}",
        ]
        variant = self._headline_variant()
        for cell in self.cells:
            bandwidth, peak = cell.sweep.peak_speedup(variant)
            dims = cell.dims.as_dict()
            coordinate = ", ".join(
                f"{key}={value}" for key, value in dims.items()
                if len({c.dims.as_dict()[key] for c in self.cells}) > 1)
            where = f" [{coordinate}]" if coordinate else ""
            lines.append(
                f"  {cell.app}{where}: peak {variant}-variant speedup "
                f"{peak:.3f}x at {bandwidth:.1f} MB/s")
        wall = self.metadata.get("replay_wall_seconds")
        if wall is not None:
            replays = sum(len(cell.sweep.points) for cell in self.cells) * \
                len(self.variants)
            lines.append(f"  replayed {replays} task(s) in {wall:.2f} s")
        cache = self.metadata.get("cache") or {}
        if cache.get("enabled"):
            lines.append(
                f"  result cache: {cache.get('hits', 0)} hit(s), "
                f"{cache.get('misses', 0)} simulated "
                f"({cache.get('location', '?')})")
        return "\n".join(lines)

    def _headline_variant(self) -> str:
        for candidate in ("ideal", "real"):
            if candidate in self.variants:
                return candidate
        return next(v for v in self.variants if v != ORIGINAL)
