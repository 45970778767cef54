"""Correctness checks: every cell against the ``event`` oracle, runs against runs.

A *cell* is one (trace variant, platform point) result -- one tidy row of
``ExperimentResult.to_rows()``.  Rows and plan tasks are matched through
:func:`row_key`, the grid coordinates that identify a cell.  Every failure
message names the app, variant and platform of the cell.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Mapping, Tuple

#: Row columns that identify a cell (everything else is a measured value).
KEY_COLUMNS = ("app", "variant", "topology", "collective_model",
               "processors_per_node", "latency", "eager_threshold",
               "cpu_speed", "bandwidth_mbps")
#: Row columns that may differ between two runs of the same cells.
RUN_LOCAL = ("task_seconds",)

RowKey = Tuple[Any, ...]


def row_key(row: Mapping[str, Any]) -> RowKey:
    return tuple(row[column] for column in KEY_COLUMNS)


def describe(key: RowKey) -> str:
    """``app=..., variant=..., platform=...`` for one cell."""
    cell = dict(zip(KEY_COLUMNS, key))
    return (f"app={cell['app']}, variant={cell['variant']}, platform="
            f"{cell['topology']}/{cell['collective_model']}"
            f"/eager={cell['eager_threshold']}/ppn={cell['processors_per_node']}"
            f"/{cell['bandwidth_mbps']}MBps")


def rows_by_key(rows: Iterable[Mapping[str, Any]]) -> Dict[RowKey, Mapping[str, Any]]:
    keyed: Dict[RowKey, Mapping[str, Any]] = {}
    for row in rows:
        key = row_key(row)
        if key in keyed:
            raise AssertionError(f"duplicate cell in results: {describe(key)}")
        keyed[key] = row
    return keyed


def compare_rows(expected: Iterable[Mapping[str, Any]],
                 actual: Iterable[Mapping[str, Any]], what: str) -> List[str]:
    """Differences between two runs' rows, ignoring run-local columns."""
    want, got = rows_by_key(expected), rows_by_key(actual)
    problems = [f"{what}: cell missing: {describe(key)}"
                for key in want if key not in got]
    problems += [f"{what}: unexpected cell: {describe(key)}"
                 for key in got if key not in want]
    for key, row in want.items():
        other = got.get(key)
        if other is None:
            continue
        for column, value in row.items():
            if column not in RUN_LOCAL and other.get(column) != value:
                problems.append(f"{what}: {column} {other.get(column)!r} != "
                                f"{value!r} at {describe(key)}")
    return problems


@dataclass(frozen=True)
class OracleCell:
    """What the oracle pass knows about one cell."""

    key: RowKey
    event_time: float
    claimed_bound: float


@dataclass
class OracleReport:
    """Result of checking every cell against the ``event`` backend."""

    attempted: int = 0
    max_rel_error: float = 0.0
    over_bound: List[str] = field(default_factory=list)
    errors: List[str] = field(default_factory=list)

    @property
    def failed(self) -> int:
        """Cells that raised or are further off than their claimed bound."""
        return len(self.over_bound) + len(self.errors)


def relative_error(time: float, event_time: float) -> float:
    return abs(time - event_time) / event_time


def check_against_oracle(rows: Iterable[Mapping[str, Any]],
                         oracle: Iterable[OracleCell],
                         errors: Iterable[str] = ()) -> OracleReport:
    """Compare each row's simulated time with the oracle's.

    ``errors`` are cells the oracle could not replay; they count as
    attempted and failed.
    """
    report = OracleReport(errors=list(errors))
    report.attempted = len(report.errors)
    keyed = rows_by_key(rows)
    for cell in oracle:
        report.attempted += 1
        row = keyed.get(cell.key)
        if row is None:
            report.errors.append(f"no result for {describe(cell.key)}")
            continue
        error = relative_error(row["time"], cell.event_time)
        report.max_rel_error = max(report.max_rel_error, error)
        if error > cell.claimed_bound:
            report.over_bound.append(
                f"{describe(cell.key)}: {error:.4%} off the event backend, "
                f"claims {cell.claimed_bound:.2%}")
    return report


def event_times(spec, part: int = 0, parts: int = 1) -> List[Any]:
    """``event``-backend total time of every ``parts``-th task of ``spec``.

    Starts at task ``part``; a task whose replay raised gives the
    exception's ``repr`` instead of a time.
    """
    from repro.dimemas.simulator import DimemasSimulator
    from repro.experiments.plan import plan_experiment

    plan = plan_experiment(spec)
    times: List[Any] = []
    for task in plan.tasks[part::parts]:
        try:
            times.append(DimemasSimulator(
                task.platform.with_replay_backend("event"),
                collect_timeline=False).simulate(
                    plan.trace_for(task.trace_key)).total_time)
        except Exception as exc:  # any raise fails this cell, not the run
            times.append(repr(exc))
    return times


def oracle_cells(spec, claims: Mapping[Tuple[str, Any], float], jobs: int = 1
                 ) -> Tuple[List[OracleCell], List[str]]:
    """Replay every cell of ``spec`` on the ``event`` backend.

    ``claims`` maps ``(task label, platform)`` to the error bound the cell's
    adaptive result claimed.  With ``jobs`` > 1 the replays are shared out
    over that many worker processes (task ``i`` goes to worker
    ``i % jobs``).  Returns the replayed cells plus one message per cell
    that has no claim or whose replay raised.
    """
    from repro.experiments.plan import plan_experiment

    plan = plan_experiment(spec)
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            shares = list(pool.map(event_times, [spec] * jobs, range(jobs),
                                   [jobs] * jobs))
    else:
        shares = [event_times(spec)]
    cells: List[OracleCell] = []
    errors: List[str] = []
    for index, task in enumerate(plan.tasks):
        app, _, variant = task.trace_key.rpartition("/")
        dims = plan.cells[(task.point % plan.total_points)
                          // plan.points_per_cell]
        key = row_key({"app": app, "variant": variant,
                       "bandwidth_mbps": task.platform.bandwidth_mbps,
                       **dims.as_dict()})
        claim = claims.get((task.label, task.platform))
        if claim is None:
            errors.append(f"no claimed error bound for {describe(key)}")
            continue
        event_time = shares[index % len(shares)][index // len(shares)]
        if isinstance(event_time, str):
            errors.append(f"event replay raised at {describe(key)}: "
                          f"{event_time}")
            continue
        cells.append(OracleCell(key, event_time, claim))
    return cells, errors
