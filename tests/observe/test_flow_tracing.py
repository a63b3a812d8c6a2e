"""End-to-end tracing of the flow: identical results, honest counters.

Two contracts matter at the flow level:

* tracing is *observation only* — a traced run's results are
  bit-identical to an untraced run's (the tier-1 guarantee the CI smoke
  job also exercises);
* the exported counters tell the truth — the registry's synthesis
  calls (``repro_synth_work_total{quantity="calls"}``) match the
  synthesizer's own call counter, a warm store resolves a run with
  zero store misses (``repro_store_artifact_total{event="miss"}``),
  and a stage's manifest status says whether the store served it.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.flow.experiment import FlowConfig, TuningFlow
from repro.netlist.generators.microcontroller import MicrocontrollerParams
from repro.observe import (
    JsonlExporter,
    MemorySink,
    Tracer,
    get_metrics,
    load_trace,
    set_tracer,
)
from repro.observe.catalog import STORE_ARTIFACT_EVENTS
from repro.synth.synthesizer import (
    reset_synthesis_call_count,
    synthesis_call_count,
)

PERIOD = 4.0
METHOD = "cell_slew_slope"
PARAMETER = 0.03


def _store_events(event: str) -> float:
    """The registry's store lookups of one event, so far."""
    return STORE_ARTIFACT_EVENTS.labels(event=event).value


def _work() -> dict:
    """Registry totals of the synth/STA/characterize work counters."""
    snapshot = get_metrics().snapshot()
    return {
        "synth": snapshot.value("repro_synth_work_total", quantity="calls") or 0,
        "sta": snapshot.value("repro_sta_work_total", quantity="analyze_calls") or 0,
        "cells": snapshot.value("repro_characterize_cells_total") or 0,
    }


def _growth(before: dict) -> dict:
    return {name: total - before[name] for name, total in _work().items()}


def _statlib_statuses(flow: TuningFlow) -> list:
    return [r.status for r in flow.manifest.records if r.stage == "statlib"]


def _mini_config(**overrides) -> FlowConfig:
    """The miniature flow configuration (seconds per synthesis)."""
    return FlowConfig(
        design=MicrocontrollerParams(
            width=12,
            regfile_bits=2,
            mult_width=6,
            n_timers=1,
            timer_width=6,
            control_gates=250,
            status_width=12,
            n_uarts=1,
            gpio_width=4,
        ),
        n_samples=12,
        **overrides,
    )


@pytest.fixture()
def cache_dir(tmp_path, monkeypatch):
    """A fresh, empty artifact store per test."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "store"))
    return tmp_path / "store"


@pytest.fixture(autouse=True)
def _restore_tracer():
    """Never leak an active tracer into other tests."""
    yield
    set_tracer(None)


class TestTracedResultsIdentical:
    """Tracing on vs off must not change a single bit of the results."""

    def test_compare_bit_identical_with_tracing(self, cache_dir):
        """The full baseline-vs-tuned comparison is equal under ``==``
        (dataclass equality over every float) with and without a
        tracer, on cold stores both times."""
        untraced = TuningFlow(_mini_config(cache=False)).compare(
            PERIOD, METHOD, PARAMETER
        )
        set_tracer(None)
        tracer = Tracer(MemorySink())
        traced_flow = TuningFlow(
            dataclasses.replace(_mini_config(cache=False), tracer=tracer)
        )
        traced = traced_flow.compare(PERIOD, METHOD, PARAMETER)
        assert traced == untraced
        assert len(tracer.spans) > 0

    def test_trace_spans_cover_the_stage_chain(self, cache_dir, tmp_path):
        """A traced comparison records the full stage chain, and the
        JSONL file round-trips it."""
        path = tmp_path / "run.jsonl"
        tracer = Tracer(JsonlExporter(path, truncate=True))
        flow = TuningFlow(dataclasses.replace(_mini_config(), tracer=tracer))
        flow.compare(PERIOD, METHOD, PARAMETER)
        tracer.finish()
        trace = load_trace(path)
        names = set(trace.span_names())
        for expected in (
            "stage.catalog",
            "stage.statlib",
            "stage.tuning",
            "stage.synth",
            "stage.paths",
            "stage.stats",
            "characterize.statistical",
            "synth.run",
            "sta.analyze",
        ):
            assert expected in names, f"missing span {expected}"
        # The trace's one metrics record carries the run's counts.
        assert trace.counters['repro_synth_work_total{quantity="calls"}'] == 2
        assert trace.counters["repro_characterize_cells_total"] > 0


class TestCounterTruth:
    """Exported counters agree with the modules' own accounting."""

    def test_synth_calls_counter_matches_call_count(self, cache_dir):
        """The registry's synthesis calls equal the synthesizer's test
        hook: 2 on a cold compare (baseline + tuned), 0 on a warm
        repeat — which also runs no STA pass and characterizes no cell."""
        reset_synthesis_call_count()
        misses = _store_events("miss")
        before = _work()
        flow = TuningFlow(_mini_config())
        flow.compare(PERIOD, METHOD, PARAMETER)
        assert synthesis_call_count() == 2
        cold = _growth(before)
        assert cold["synth"] == 2
        assert cold["sta"] > 0
        assert cold["cells"] > 0
        assert _store_events("miss") > misses

        reset_synthesis_call_count()
        misses, hits = _store_events("miss"), _store_events("hit")
        before = _work()
        TuningFlow(_mini_config()).compare(PERIOD, METHOD, PARAMETER)
        assert synthesis_call_count() == 0
        assert _growth(before) == {"synth": 0, "sta": 0, "cells": 0}
        assert _store_events("miss") == misses
        assert _store_events("hit") > hits

    def test_warm_run_records_hit_spans(self, cache_dir):
        """Warm stage resolutions still appear in the trace, marked
        ``hit``, so the time tree stays complete."""
        TuningFlow(_mini_config()).compare(PERIOD, METHOD, PARAMETER)
        set_tracer(None)
        tracer = Tracer(MemorySink())
        flow = TuningFlow(dataclasses.replace(_mini_config(), tracer=tracer))
        flow.compare(PERIOD, METHOD, PARAMETER)
        hit_spans = [
            s
            for s in tracer.spans
            if s.name.startswith("stage.") and s.attrs.get("status") == "hit"
        ]
        assert len(hit_spans) > 0


class TestStatlibStatus:
    """The ``statlib`` stage reports whether the store served it."""

    def test_corrupt_library_entry_is_a_miss(self, cache_dir):
        """A corrupt ``stat-*.npz`` is healed and rebuilt, and the
        manifest and span say ``miss`` — not ``hit`` because the entry
        existed."""
        from tests.parallel.test_equivalence import assert_libraries_bit_identical

        reference = TuningFlow(_mini_config()).statistical_library
        (entry,) = cache_dir.glob("stat-*.npz")
        entry.write_bytes(b"this is not a zip archive")

        healed = _store_events("healed")
        tracer = Tracer(MemorySink())
        flow = TuningFlow(dataclasses.replace(_mini_config(), tracer=tracer))
        rebuilt = flow.statistical_library
        assert _statlib_statuses(flow) == ["miss"]
        (span,) = [s for s in tracer.spans if s.name == "stage.statlib"]
        assert span.attrs["status"] == "miss"
        assert _store_events("healed") == healed + 1
        assert_libraries_bit_identical(reference, rebuilt)

        warm = TuningFlow(_mini_config())
        assert_libraries_bit_identical(reference, warm.statistical_library)
        assert _statlib_statuses(warm) == ["hit"]


class TestConfigTracer:
    """FlowConfig carries the tracer without breaking its contracts."""

    def test_tracer_excluded_from_equality(self):
        """Two configs differing only in tracer still compare equal
        (the tracer must never leak into cache fingerprints)."""
        config = _mini_config()
        traced = dataclasses.replace(config, tracer=Tracer(MemorySink()))
        assert config == traced

    def test_config_with_tracer_remains_picklable(self, tmp_path):
        """A file-backed tracer doesn't break FlowConfig pickling (the
        sweep fan-out ships configs to worker processes)."""
        import pickle

        tracer = Tracer(JsonlExporter(tmp_path / "t.jsonl"))
        config = dataclasses.replace(_mini_config(), tracer=tracer)
        clone = pickle.loads(pickle.dumps(config))
        assert clone.tracer.trace_id == tracer.trace_id
