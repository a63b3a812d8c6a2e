"""Trace analytics, ledger trend reports and the regression gate.

Three read-side tools over the observability data the rest of the
package produces:

* **Trace summarize** (:func:`summarize_trace`) — collapse a JSONL
  trace into per-*span-path* aggregates (``experiment.fig10/stage.
  synth`` style paths, call counts, wall/CPU totals), the flat view
  that diffs well.
* **Trace diff** (:func:`diff_traces`) — align two traces by span
  path and flag wall-time growth beyond a relative threshold and an
  absolute floor; the CLI exits nonzero when regressions are found,
  so two traces of the same warm run gate a perf-sensitive change.
* **Ledger report and check** (:func:`render_report`,
  :func:`check_record`) — the longitudinal dashboard over
  :mod:`repro.observe.ledger` records and the baseline comparison
  behind ``python -m repro check``: every baseline metric must match
  the latest matching run within ``rtol``/``atol``, and optional
  per-stage wall-time budgets must hold.

All three are pure functions over parsed data — nothing here writes.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Union

from repro.observe.export import Trace
from repro.observe.ledger import RunRecord
from repro.observe.render import render_counters

#: Default relative wall-time growth tolerated by ``trace diff``.
DIFF_RTOL = 0.25

#: Default absolute wall-time growth (seconds) below which ``trace
#: diff`` never flags — jitter on sub-50ms spans is not a regression.
DIFF_MIN_SECONDS = 0.05

#: Default relative tolerance of the metrics regression gate.
CHECK_RTOL = 0.05

#: Default absolute tolerance of the metrics regression gate.
CHECK_ATOL = 1e-9


# ----------------------------------------------------------------------
# Span-path aggregation
# ----------------------------------------------------------------------


@dataclass
class PathStats:
    """Aggregate of every span sharing one root-to-name path."""

    path: str
    count: int = 0
    wall: float = 0.0
    cpu: float = 0.0
    unfinished: int = 0

    def add(self, span: Dict[str, Any]) -> None:
        """Fold one span record in; spans without a recorded wall time
        (unfinished) are counted but contribute no seconds."""
        wall = span.get("wall")
        self.count += 1
        if isinstance(wall, (int, float)):
            self.wall += wall
        else:
            self.unfinished += 1
        self.cpu += span.get("cpu") or 0.0


def aggregate_paths(spans: Sequence[Dict[str, Any]]) -> Dict[str, PathStats]:
    """Fold spans into per-path aggregates.

    A span's path is its ancestor chain of names joined with ``/``;
    spans whose parent record is missing (orphans from a killed
    writer) root their own path.  Sibling spans sharing a name merge —
    the flat shape that aligns across runs regardless of worker
    scheduling.
    """
    by_id = {
        span.get("id"): span for span in spans if span.get("id") is not None
    }
    paths: Dict[Any, str] = {}

    def path_of(span: Dict[str, Any]) -> str:
        span_id = span.get("id")
        if span_id in paths:
            return paths[span_id]
        chain: List[str] = []
        cursor = span
        seen = set()
        while cursor is not None and len(chain) < 64:
            cursor_id = cursor.get("id")
            if cursor_id in seen:
                break  # malformed cycle: stop rather than spin
            seen.add(cursor_id)
            chain.append(cursor.get("name", "?"))
            cursor = by_id.get(cursor.get("parent"))
        path = "/".join(reversed(chain))
        if span_id is not None:
            paths[span_id] = path
        return path

    aggregates: Dict[str, PathStats] = {}
    for span in spans:
        path = path_of(span)
        aggregates.setdefault(path, PathStats(path)).add(span)
    return aggregates


def summarize_trace(trace: Trace, top: int = 40) -> str:
    """The flat per-path table of one trace (plus counters).

    Sorted by total wall time; a file holding several interleaved
    trace ids (an appending exporter on a recycled path) is called out
    rather than silently summed.
    """
    lines: List[str] = []
    if len(trace.trace_ids) > 1:
        lines.append(
            f"warning: file holds {len(trace.trace_ids)} interleaved traces "
            "(appending exporter on a recycled path?)"
        )
    aggregates = sorted(
        aggregate_paths(trace.spans).values(), key=lambda s: -s.wall
    )
    total = sum(s.wall for s in aggregates if "/" not in s.path)
    lines.append(
        f"trace: {len(trace.spans)} spans over {len(aggregates)} paths, "
        f"{total:.3f}s at the root"
    )
    lines.append(f"{'path':<56s} {'calls':>6s} {'wall':>10s} {'cpu':>10s}")
    for stats in aggregates[:top]:
        marker = " [unfinished]" if stats.unfinished else ""
        lines.append(
            f"{stats.path + marker:<56s} {stats.count:>6d} "
            f"{stats.wall:9.3f}s {stats.cpu:9.3f}s"
        )
    if len(aggregates) > top:
        lines.append(f"... {len(aggregates) - top} more paths")
    if trace.counters:
        lines.append(render_counters(trace.counters))
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Trace diff
# ----------------------------------------------------------------------


@dataclass
class PathDelta:
    """Wall-time movement of one span path between two traces."""

    path: str
    count_a: int
    count_b: int
    wall_a: float
    wall_b: float

    @property
    def delta(self) -> float:
        return self.wall_b - self.wall_a

    @property
    def ratio(self) -> float:
        """Growth factor; new paths (``wall_a == 0``) read as ``inf``."""
        if self.wall_a <= 0:
            return float("inf") if self.wall_b > 0 else 1.0
        return self.wall_b / self.wall_a


@dataclass
class TraceDiff:
    """All path deltas of one comparison plus the flagged subset."""

    deltas: List[PathDelta] = field(default_factory=list)
    regressions: List[PathDelta] = field(default_factory=list)
    rtol: float = DIFF_RTOL
    min_seconds: float = DIFF_MIN_SECONDS

    def to_text(self, top: int = 25) -> str:
        """Console table: largest movements first, regressions marked."""
        flagged = {id(d) for d in self.regressions}
        ordered = sorted(self.deltas, key=lambda d: -abs(d.delta))
        lines = [
            f"{len(self.deltas)} aligned paths, "
            f"{len(self.regressions)} regressions "
            f"(rtol {self.rtol:g}, floor {self.min_seconds:g}s)",
            f"{'path':<56s} {'wall a':>10s} {'wall b':>10s} {'delta':>10s}",
        ]
        for delta in ordered[:top]:
            marker = "  << regression" if id(delta) in flagged else ""
            lines.append(
                f"{delta.path:<56s} {delta.wall_a:9.3f}s {delta.wall_b:9.3f}s "
                f"{delta.delta:+9.3f}s{marker}"
            )
        if len(ordered) > top:
            lines.append(f"... {len(ordered) - top} more paths")
        return "\n".join(lines)


def diff_traces(
    a: Trace,
    b: Trace,
    rtol: float = DIFF_RTOL,
    min_seconds: float = DIFF_MIN_SECONDS,
) -> TraceDiff:
    """Align two traces by span path and flag wall-time regressions.

    A path regresses when its total wall time in ``b`` exceeds the
    time in ``a`` by both the relative threshold *and* the absolute
    floor — the floor keeps scheduler jitter on fast spans from
    failing a gate.  Paths only in ``b`` regress when they cost more
    than the floor; paths only in ``a`` (work that disappeared) never
    regress.
    """
    paths_a = aggregate_paths(a.spans)
    paths_b = aggregate_paths(b.spans)
    diff = TraceDiff(rtol=rtol, min_seconds=min_seconds)
    for path in sorted(set(paths_a) | set(paths_b)):
        stats_a = paths_a.get(path)
        stats_b = paths_b.get(path)
        delta = PathDelta(
            path=path,
            count_a=stats_a.count if stats_a else 0,
            count_b=stats_b.count if stats_b else 0,
            wall_a=stats_a.wall if stats_a else 0.0,
            wall_b=stats_b.wall if stats_b else 0.0,
        )
        diff.deltas.append(delta)
        grew = delta.delta >= min_seconds
        if grew and (delta.wall_a <= 0 or delta.ratio > 1 + rtol):
            diff.regressions.append(delta)
    return diff


# ----------------------------------------------------------------------
# Ledger report
# ----------------------------------------------------------------------


def _when(timestamp: float) -> str:
    return time.strftime("%Y-%m-%d %H:%M", time.localtime(timestamp))


def render_report(
    records: Sequence[RunRecord],
    last: Optional[int] = None,
    trend_limit: int = 8,
) -> str:
    """The markdown dashboard over ledger records.

    One section per (experiment, scale): a run table (id, when, wall,
    stage seconds, store hit rate) and, when the group holds at least
    two runs, the metric and stage-time movements from the group's
    first to its latest record — largest relative movers first,
    stable metrics summarized in one line.
    """
    if not records:
        return "run ledger: empty (run an experiment first)"
    groups: Dict[tuple, List[RunRecord]] = {}
    for record in records:
        groups.setdefault((record.experiment, record.scale), []).append(record)
    lines = [f"# repro run ledger — {len(records)} records"]
    for (experiment, scale), group in sorted(groups.items()):
        shown = group[-last:] if last else group
        lines.append("")
        lines.append(f"## {experiment} @ {scale} — {len(group)} runs")
        lines.append("")
        lines.append("| run | when | wall | stages | hit rate |")
        lines.append("|---|---|---:|---:|---:|")
        for record in shown:
            rate = record.hit_rate()
            lines.append(
                f"| {record.run_id} | {_when(record.timestamp)} "
                f"| {record.wall:.2f}s | {record.stage_seconds():.2f}s "
                f"| {'-' if rate is None else f'{rate:.0%}'} |"
            )
        if len(shown) < 2:
            continue
        first, latest = shown[0], shown[-1]
        movers: List[tuple] = []
        stable = 0
        for name in sorted(set(first.metrics) & set(latest.metrics)):
            was, now = first.metrics[name], latest.metrics[name]
            scale_ref = max(abs(was), abs(now), 1e-12)
            rel = abs(now - was) / scale_ref
            if rel < 1e-9:
                stable += 1
            else:
                movers.append((rel, name, was, now))
        movers.sort(reverse=True)
        lines.append("")
        lines.append(
            f"metric movement, run {first.run_id} -> {latest.run_id}: "
            f"{stable} unchanged, {len(movers)} moved"
        )
        for rel, name, was, now in movers[:trend_limit]:
            lines.append(f"- `{name}`: {was:g} -> {now:g} ({rel:+.2%})")
        if len(movers) > trend_limit:
            lines.append(f"- ... {len(movers) - trend_limit} more")
        stage_lines = []
        for stage in sorted(set(first.stages) & set(latest.stages)):
            was = float(first.stages[stage].get("seconds", 0.0))
            now = float(latest.stages[stage].get("seconds", 0.0))
            stage_lines.append(f"{stage} {was:.2f}s->{now:.2f}s")
        if stage_lines:
            lines.append("stage seconds: " + ", ".join(stage_lines))
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Baseline gate
# ----------------------------------------------------------------------


def load_baseline(path: Union[str, Path]) -> Dict[str, Any]:
    """Read a committed baseline file (plain JSON)."""
    with open(path, "r", encoding="utf-8") as handle:
        baseline = json.load(handle)
    if not isinstance(baseline, dict) or "metrics" not in baseline:
        raise ValueError(f"not a baseline file (no 'metrics'): {path}")
    return baseline


def baseline_from_record(
    record: RunRecord,
    rtol: float = CHECK_RTOL,
    atol: Optional[float] = None,
    stage_budget_factor: Optional[float] = None,
) -> Dict[str, Any]:
    """A fresh baseline payload from a ledger record.

    This is the refresh path: after an intentional metrics change,
    rewrite the committed baseline from the latest good run.  With
    ``stage_budget_factor`` set, per-stage wall budgets are derived as
    ``factor x`` the record's stage seconds (headroom against host
    noise); without it no time budgets are emitted.
    """
    baseline: Dict[str, Any] = {
        "version": 1,
        "experiment": record.experiment,
        "scale": record.scale,
        "rtol": rtol,
        "metrics": dict(sorted(record.metrics.items())),
    }
    if atol is not None:
        baseline["atol"] = atol
    if stage_budget_factor is not None:
        baseline["stage_budget_seconds"] = {
            stage: round(
                max(1.0, stage_budget_factor * float(agg.get("seconds", 0.0))),
                2,
            )
            for stage, agg in sorted(record.stages.items())
        }
    return baseline


def check_record(
    record: RunRecord,
    baseline: Dict[str, Any],
    rtol: Optional[float] = None,
    atol: Optional[float] = None,
) -> List[str]:
    """Violations of a run against a baseline (empty = gate passes).

    Every baseline metric must exist in the record and match within
    ``rtol``/``atol`` (CLI override > baseline file > defaults); every
    stage named in ``stage_budget_seconds`` must have resolved within
    its wall-time budget.  Metrics the record has but the baseline
    does not are ignored — new columns must not fail old baselines.
    """
    rtol = rtol if rtol is not None else float(baseline.get("rtol", CHECK_RTOL))
    atol = atol if atol is not None else float(baseline.get("atol", CHECK_ATOL))
    violations: List[str] = []
    for name, expected in sorted(baseline.get("metrics", {}).items()):
        expected = float(expected)
        actual = record.metrics.get(name)
        if actual is None:
            violations.append(f"metric missing from run: {name}")
            continue
        if abs(actual - expected) > rtol * abs(expected) + atol:
            violations.append(
                f"metric drift: {name} = {actual:g}, "
                f"baseline {expected:g} (rtol {rtol:g})"
            )
    for stage, budget in sorted(
        baseline.get("stage_budget_seconds", {}).items()
    ):
        budget = float(budget)
        spent = float(record.stages.get(stage, {}).get("seconds", 0.0))
        if spent > budget:
            violations.append(
                f"stage over budget: {stage} took {spent:.2f}s "
                f"(budget {budget:.2f}s)"
            )
    return violations
