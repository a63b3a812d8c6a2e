"""Trace persistence: JSONL round-trips and cross-process merging.

The exporter's claim is that any number of processes can append to one
trace file and the read-back (:func:`~repro.observe.load_trace`)
reconstructs the full span tree and the true counter totals.  The
worker test exercises exactly the production path: process-backend
tasks join the trace through a :class:`~repro.observe.TraceHandle`,
and their counts ride home with their results into the metrics record
the parent's tracer writes when it finishes.
"""

from __future__ import annotations

from repro.observe import (
    JsonlExporter,
    MetricsRegistry,
    Tracer,
    get_metrics,
    install_worker_tracer,
    load_trace,
    merge_records,
    set_tracer,
)
from repro.parallel.backends import ProcessBackend

#: Test-only counter family on the process-wide registry.
ITEMS = get_metrics().counter("test_export_items_total", "Items.")


def _worker_task(index, trace=None):
    """Backend task: join the trace, record one span and one count."""
    tracer = install_worker_tracer(trace)
    try:
        with tracer.span("worker.task", index=index):
            ITEMS.inc()
    finally:
        set_tracer(None)
    return index


def _metrics_record(counts):
    """A trace-file metrics record of unlabeled counter growth."""
    registry = MetricsRegistry()
    for name, value in counts.items():
        registry.counter(name).inc(value)
    return {"type": "metrics", **registry.snapshot().to_payload()}


class TestJsonlRoundTrip:
    """Write records, read the same trace back."""

    def test_spans_and_counters_round_trip(self, tmp_path):
        """Span tree, attributes and counter totals all survive."""
        path = tmp_path / "t.jsonl"
        tracer = Tracer(JsonlExporter(path, truncate=True))
        with tracer.span("root") as root:
            with tracer.span("child", key="abc"):
                pass
            ITEMS.inc(7)
        tracer.finish()
        trace = load_trace(path)
        assert trace.span_names() == ["child", "root"]
        child = next(s for s in trace.spans if s["name"] == "child")
        assert child["parent"] == root.span_id
        assert child["attrs"] == {"key": "abc"}
        assert trace.counters == {"test_export_items_total": 7}
        assert trace.total_wall("root") == root.wall

    def test_truncate_clears_previous_contents(self, tmp_path):
        """``truncate=True`` empties the file eagerly at construction."""
        path = tmp_path / "t.jsonl"
        path.write_text('{"type":"span","stale":true}\n')
        JsonlExporter(path, truncate=True)
        assert path.read_text() == ""

    def test_append_mode_preserves_previous_contents(self, tmp_path):
        """Without ``truncate``, a new exporter appends (worker mode)."""
        path = tmp_path / "t.jsonl"
        first = Tracer(JsonlExporter(path))
        with first.span("one"):
            pass
        second = Tracer(JsonlExporter(path))
        with second.span("two"):
            pass
        assert len(load_trace(path).spans) == 2

    def test_unparseable_lines_are_skipped(self, tmp_path):
        """A torn line (crashed writer) doesn't fail the whole read."""
        path = tmp_path / "t.jsonl"
        tracer = Tracer(JsonlExporter(path))
        with tracer.span("ok"):
            pass
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"type": "span", "torn...\n')
        trace = load_trace(path)
        assert trace.span_names() == ["ok"]

    def test_merge_records_sums_counter_deltas(self):
        """Metrics records are deltas: several records sum."""
        trace = merge_records([
            _metrics_record({"n": 3}),
            _metrics_record({"n": 4, "m": 1}),
        ])
        assert trace.counters == {"n": 7, "m": 1}


class TestWorkerMerge:
    """Spans from pool workers merge into the parent's trace file."""

    def test_worker_spans_nest_under_submitting_span(self, tmp_path):
        """Every worker span links to the span open at submission, and
        the worker counts sum to the true total in the parent's record."""
        path = tmp_path / "t.jsonl"
        tracer = Tracer(JsonlExporter(path, truncate=True))
        n_tasks = 6
        previous = set_tracer(tracer)
        try:
            with tracer.span("fanout") as fanout:
                results = ProcessBackend(2).map_tasks(
                    _worker_task, [(index,) for index in range(n_tasks)]
                )
        finally:
            set_tracer(previous)
        tracer.finish()
        assert results == list(range(n_tasks))
        trace = load_trace(path)
        worker_spans = [s for s in trace.spans if s["name"] == "worker.task"]
        assert len(worker_spans) == n_tasks
        assert all(s["parent"] == fanout.span_id for s in worker_spans)
        assert all(s["trace"] == tracer.trace_id for s in worker_spans)
        assert sorted(s["attrs"]["index"] for s in worker_spans) == list(
            range(n_tasks)
        )
        assert trace.counters["test_export_items_total"] == n_tasks

    def test_install_worker_tracer_drops_foreign_tracer(self):
        """Without a handle, a fork-inherited tracer must not leak:
        the installed tracer always belongs to the current process."""
        tracer = install_worker_tracer(None)
        import os

        assert tracer.pid == os.getpid()
