"""One benchmark pass, in a fresh interpreter.

``run.py`` starts this script once per pass with a private
``REPRO_CACHE_DIR`` and a JSON spec file::

    python3 perfbench/passes.py SPEC.json

Spec keys: ``kind`` (``cold-eval``, ``warm-fig10``, ``serve-mixed``,
``setup`` or ``populate``), ``workload`` (the workload a ``setup``
probe builds for), ``seed``, ``trace``, ``t_spawn`` (the parent's
``time.time()`` just before the spawn), ``reference`` (the reference
table the results are checked against; ``null`` for the committed one,
which the store population always uses), ``result`` (where to write
the result JSON) and ``spans`` (where a traced pass writes its spans).

The pass times only the workload's own calls; everything it checks —
the reference table, the program's counters, the trace cross-check —
runs after the timed region.  Set-up time runs from the spawn through
``import repro`` and building the flow, service or server, up to the
first timed call.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import grid  # noqa: E402
import hostspeed  # noqa: E402

#: Modules a workload's set-up imports; timing their import in a fresh
#: process is the ``import`` layer.
ENTRY_MODULES = {
    "cold-eval": ("repro.flow.experiment", "repro.experiments.base"),
    "warm-fig10": (
        "repro.flow.experiment",
        "repro.experiments.base",
        "repro.experiments.fig10_method_comparison",
    ),
    "serve-mixed": ("repro.flow.experiment", "repro.serve"),
}
ENTRY_MODULES["populate"] = ENTRY_MODULES["warm-fig10"]

#: Worker processes of the one-off store population (not timed).
POPULATE_JOBS = 2


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far (Linux: KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Checks:
    """Attempted/failed operation tally with the first few reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: list = []

    def record(self, label: str, problems) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.reasons) < 20:
                self.reasons.append(f"{label}: {'; '.join(problems)}")


def tiny_flow(jobs: int = 1):
    """The tuning flow every workload drives: tiny scale, MC seed 0,
    serial backend, one job (the environment pins the same knobs).
    Only the untimed store population fans out over ``jobs`` processes;
    the stored artifacts are bit-identical on every backend."""
    from repro.experiments.base import ExperimentContext
    from repro.flow.experiment import FlowConfig, TuningFlow

    backend = "serial" if jobs == 1 else "process"
    flow = TuningFlow(FlowConfig.from_env(scale="tiny", backend=backend, jobs=jobs))
    return flow, ExperimentContext(flow)


async def start_server():
    """The service every serve pass drives, behind a listening server."""
    from repro.flow.experiment import FlowConfig
    from repro.serve import TuningServer, TuningService

    service = TuningService(
        config=FlowConfig.from_env(scale="tiny", backend="serial", jobs=1),
        max_pending=8,
    )
    return service, await TuningServer(service=service, ledger=False).start()


def check_point(checks: "Checks", reference, point, comparison) -> None:
    """Check one comparison (or tune response) against the reference."""
    checks.record(
        grid.point_label(point),
        grid.mismatches(
            reference.rows.get(point),
            grid.comparison_fields(comparison),
            reference.atol,
        ),
    )


def program_counts() -> dict:
    from repro.characterization.characterize import characterization_call_count
    from repro.synth.synthesizer import synthesis_call_count

    return {
        "synth.calls": synthesis_call_count(),
        "characterization.calls": characterization_call_count(),
    }


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------


def cold_eval(spec, clock, out) -> None:
    """Characterize, search the minimum period, then compare the seeded
    grid sample — all from an empty store."""
    flow, context = tiny_flow()
    sample = grid.cold_sample(spec["seed"])
    ready(out)
    start = time.perf_counter()
    flow.statistical_library
    periods = context.standard_periods()
    results = []
    for point in sample:
        try:
            results.append((point, flow.compare(periods[point[0]], point[1], point[2])))
        except Exception as error:  # noqa: BLE001 - a failed point is a result
            results.append((point, f"{type(error).__name__}: {error}"))
    timed(out, start)
    out["ops"] = len(sample)
    snapshot(clock, out)

    reference = grid.load_reference(spec["reference"])
    checks = Checks()
    counts = program_counts()
    problems = [
        f"{name} period {periods.get(name)!r} != reference {reference.clock(name)!r}"
        for name in grid.PERIOD_NAMES
        if abs(periods.get(name, -1.0) - reference.clock(name)) > reference.atol
    ]
    if counts["synth.calls"] == 0 or counts["characterization.calls"] == 0:
        problems.append(f"a cold run must synthesize and characterize, got {counts}")
    checks.record("characterization + minimum period", problems)
    for point, comparison in results:
        if isinstance(comparison, str):
            checks.record(grid.point_label(point), [comparison])
        else:
            check_point(checks, reference, point, comparison)
    finish(checks, clock, out, counts)


def warm_fig10(spec, clock, out) -> None:
    """The full fig10 experiment against a populated store copy."""
    from repro.experiments import fig10_method_comparison
    from repro.observe.analyze import check_record
    from repro.observe.ledger import capture_run

    flow, context = tiny_flow()
    ready(out)
    start = time.perf_counter()
    result = fig10_method_comparison.run(context)
    timed(out, start)
    out["ops"] = len(grid.grid_points())
    snapshot(clock, out)

    reference = grid.load_reference(spec["reference"])
    checks = Checks()
    counts = program_counts()
    problems = [
        f"a warm fig10 must not run {name}, counted {value}"
        for name, value in counts.items()
        if value != 0
    ]
    # the repo's own fig10 metrics gate, as ``python -m repro check`` runs it
    with open(grid.FIG10_BASELINE_PATH, encoding="utf-8") as handle:
        gate = json.load(handle)
    problems += check_record(capture_run("fig10", result, flow), gate)
    checks.record("fig10 experiment", problems)
    periods = context.standard_periods()
    for point in grid.grid_points():
        # memoized in the flow by fig10 itself: no store reads here
        comparison = flow.compare(periods[point[0]], point[1], point[2])
        check_point(checks, reference, point, comparison)
    finish(checks, clock, out, counts)


def serve_mixed(spec, clock, out) -> None:
    """A live server and a closed loop of two clients sending the
    seeded warm/cold request sequence."""
    import asyncio

    from repro.serve import LoadReport, TuneRequest, TuneResponse, request_async

    reference = grid.load_reference(spec["reference"])
    sequence = grid.serve_requests(spec["seed"])
    requests = [
        TuneRequest(
            method=point[1],
            parameter=point[2],
            clock_period=reference.clock(point[0]),
        )
        for point, _cold in sequence
    ]
    replies = [None] * len(requests)

    async def scenario():
        service, server = await start_server()
        order = iter(range(len(requests)))
        ready(out)

        async def client() -> None:
            for index in order:
                began = time.perf_counter()
                try:
                    status, response = await request_async(
                        requests[index], port=server.port, timeout=120.0
                    )
                except Exception as error:  # noqa: BLE001 - tallied as failed
                    status, response = None, error
                replies[index] = (status, response, time.perf_counter() - began)

        start = time.perf_counter()
        try:
            await asyncio.gather(client(), client())
            timed(out, start)
        finally:
            await server.stop()
        return service

    service = asyncio.run(scenario())
    out["ops"] = len(requests)
    snapshot(clock, out)

    checks = Checks()
    tally: dict = {}
    latency = {"warm": [], "cold": []}
    for (point, cold), (status, response, seconds) in zip(sequence, replies):
        label = ("cold " if cold else "warm ") + grid.point_label(point)
        if status != 200 or not isinstance(response, TuneResponse):
            checks.record(label, [f"refused or failed: status {status!r}, {response!r}"[:300]])
            continue
        tally[response.outcome] = tally.get(response.outcome, 0) + 1
        latency["cold" if cold else "warm"].append(1e3 * seconds)
        expected = ("computed", "coalesced") if cold else ("warm",)
        if response.outcome not in expected:
            checks.record(label, [f"outcome {response.outcome!r}, expected one of {expected}"])
        else:
            check_point(checks, reference, point, response)
    counts = program_counts()
    cold_points = {point for point, cold in sequence if cold}
    problems = []
    if counts["synth.calls"] != len(cold_points):
        problems.append(
            f"{counts['synth.calls']} syntheses for {len(cold_points)} cold points"
        )
    if counts["characterization.calls"] != 0:
        problems.append(f"{counts['characterization.calls']} cells characterized")
    if service.counters != tally:
        problems.append(f"service counters {service.counters} != responses {tally}")
    checks.record("serve counters", problems)
    out["outcomes"] = tally
    # nearest-rank percentiles, as the repo's own serve load bench reports them
    out["latency"] = {}
    for outcome, samples in latency.items():
        report = LoadReport(
            requests=len(samples), wall_s=out["wall_raw_s"], statuses={},
            outcomes={}, latencies_ms=tuple(samples),
        )
        if outcome == "warm":
            out["latency"]["serve.warm_p50_ms"] = report.p50
            out["latency"]["serve.warm_p99_ms"] = report.p99
        else:
            out["latency"]["serve.cold_p50_ms"] = report.p50
        out["latency"][f"serve.{outcome}_n"] = float(len(samples))
    counts.update({f"serve.{name}": value for name, value in service.counters.items()})
    counts["serve.coalescer.started"] = service.coalescer.started
    counts["serve.coalescer.joined"] = service.coalescer.coalesced
    for name in ("serve.warm", "serve.computed", "serve.coalesced", "serve.rejected"):
        counts.setdefault(name, 0)
    finish(checks, clock, out, counts)


def populate(spec, clock, out) -> None:
    """Fill the store the warm workloads copy: one full cold fig10."""
    from repro.experiments import fig10_method_comparison

    flow, context = tiny_flow(jobs=POPULATE_JOBS)
    ready(out)
    fig10_method_comparison.run(context)
    reference = grid.load_reference()
    checks = Checks()
    periods = context.standard_periods()
    for point in grid.grid_points():
        comparison = flow.compare(periods[point[0]], point[1], point[2])
        check_point(checks, reference, point, comparison)
    finish(checks, None, out, {})


def setup_probe(spec, clock, out) -> None:
    """Only the set-up of a workload: import and build, then stop."""
    if spec["workload"] == "serve-mixed":
        import asyncio

        async def scenario() -> None:
            _service, server = await start_server()
            ready(out)
            await server.stop()

        asyncio.run(scenario())
    else:
        tiny_flow()
        ready(out)
    finish(Checks(), None, out, {})


KINDS = {
    "cold-eval": cold_eval,
    "warm-fig10": warm_fig10,
    "serve-mixed": serve_mixed,
    "populate": populate,
    "setup": setup_probe,
}


# ----------------------------------------------------------------------
# Trace bookkeeping
# ----------------------------------------------------------------------


#: Samples the host's speed through the pass (``hostspeed.py``); not
#: on the untimed store population, whose workers it would not reach.
HOST = None


def ready(out) -> None:
    """Mark the end of set-up."""
    out["t_ready"] = time.time()
    out["perf_ready"] = time.perf_counter()


def timed(out, start: float) -> None:
    """Record the timed region from ``start`` to now: its wall seconds
    at the reference host speed (``wall_s``), as measured without the
    calibration bursts (``wall_raw_s``), the host's speed relative to
    the reference, and the peak RSS."""
    out["wall_s"], out["wall_raw_s"], out["host_speed"] = HOST.measure(
        start, time.perf_counter()
    )
    out["peak_rss_mb"] = peak_rss_mb()


def snapshot(clock, out) -> None:
    """Freeze the per-layer totals right after the timed region."""
    if clock is not None:
        out["layers"] = clock.metrics()
        out["layers"]["trace.wrapper_cost_s"] = clock.wrapper_cost_s()


def finish(checks: Checks, clock, out, counts: dict) -> None:
    """Fold the checks in and, on a traced pass, cross-check the
    wrapper counts against the program's own counters."""
    if clock is not None:
        layers = out["layers"]
        checks.record("trace cross-check", [
            f"{name}: wrappers counted {layers[name]:g}, program {value:g}"
            for name, value in sorted(counts.items())
            if name in layers and layers[name] != value
        ])
        out["program_counts"] = counts
    out["attempted"] = checks.attempted
    out["failed"] = checks.failed
    out["reasons"] = checks.reasons


def main() -> int:
    import importlib

    global HOST
    spec = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    workload = spec.get("workload", spec["kind"])
    began = time.perf_counter()
    if spec["kind"] != "populate":
        # one CPU: the interpreter lock lets one thread run at a time
        # anyway, and a lock hand-off between serve's event loop and its
        # worker thread then never waits for another virtual CPU to wake
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
        HOST = hostspeed.HostClock()
    importlib.import_module("repro")
    for module in ENTRY_MODULES[workload]:
        importlib.import_module(module)
    out = {"kind": spec["kind"], "import_s": time.perf_counter() - began}
    clock = None
    if spec.get("trace"):
        import layers

        clock = layers.install(layers.LayerClock())
        clock.record_import(out["import_s"])
    try:
        KINDS[spec["kind"]](spec, clock, out)
    finally:
        if clock is not None and spec.get("spans"):
            clock.write_spans(spec["spans"])
    # set-up time without the bursts, at the host speed sampled from the
    # start of this script (the interpreter's own start-up precedes it)
    out["setup_raw_s"] = out["t_ready"] - spec["t_spawn"]
    out["setup_s"] = out["setup_raw_s"]
    if HOST is not None:
        HOST.stop()
        _scaled, measured, speed = HOST.measure(began, out["perf_ready"])
        out["setup_raw_s"] -= out["perf_ready"] - began - measured
        out["setup_s"] = out["setup_raw_s"] * speed ** hostspeed.SENSITIVITY
    out["python"] = sys.version.split()[0]
    out["numpy"] = sys.modules["numpy"].__version__
    Path(spec["result"]).write_text(json.dumps(out), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
