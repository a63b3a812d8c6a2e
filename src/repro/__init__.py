"""repro — reproduction of "Standard Cell Library Tuning for Variability
Tolerant Designs" (Fabrie, DATE 2014 / TU/e 2013).

The package implements the paper's full flow from scratch:

* a Liberty (.lib) substrate (:mod:`repro.liberty`);
* a 304-cell standard-cell catalog with a SPICE-surrogate
  characterization engine (:mod:`repro.cells`,
  :mod:`repro.characterization`) and Pelgrom-law local variation
  (:mod:`repro.variation`);
* statistical-library construction (:mod:`repro.statlib`);
* the library-tuning contribution — slope/ceiling threshold extraction,
  largest-rectangle LUT restriction, five tuning methods
  (:mod:`repro.core`);
* a gate-level netlist substrate with a ~20k-gate microcontroller
  generator (:mod:`repro.netlist`), an STA engine with statistical path
  analysis (:mod:`repro.sta`) and a timing-driven synthesizer honoring
  per-pin slew/load windows (:mod:`repro.synth`);
* end-to-end flows and every table/figure of the evaluation
  (:mod:`repro.flow`, :mod:`repro.experiments`);
* a batched NumPy kernel layer behind STA, held bit-identical to a
  scalar reference by the test suite (:mod:`repro.kernels`);
* an observability layer — spans, counters, profiling, an append-only
  run ledger with trend reports and a metrics regression gate — over
  all of it (:mod:`repro.observe`);
* live operational telemetry — a process-wide metrics registry
  (counters, gauges, histograms) with Prometheus exposition on the
  serve API's ``/metrics`` and a live console dashboard
  (:mod:`repro.observe.metrics`, ``python -m repro metrics``);
* a static-analysis layer enforcing the determinism, process-safety
  and picklability contracts the execution layer depends on
  (:mod:`repro.lint`, ``python -m repro lint``);
* tuning-as-a-service: an asyncio HTTP API with typed request/response
  schemas, in-flight request coalescing on content fingerprints,
  bounded backpressure and a first-class client
  (:mod:`repro.serve`, ``python -m repro serve``).

The names below are the curated public surface, re-exported lazily
(PEP 562) so ``import repro`` stays fast and dependency-free — nothing
heavier than the standard library loads until an attribute is touched.

Quickstart::

    from repro import Characterizer, FlowConfig, TuningFlow, build_catalog

    specs = build_catalog()
    stat_lib = Characterizer().statistical_library(specs, n_samples=50, seed=0)

    flow = TuningFlow(FlowConfig.tiny())
    comparison = flow.compare(1.5, "cell_strength_slew_slope", 0.03)

Profiling the same run::

    from dataclasses import replace

    from repro import Tracer
    from repro.observe import JsonlExporter, load_trace, render_trace

    tracer = Tracer(JsonlExporter("run.jsonl", truncate=True))
    flow = TuningFlow(replace(FlowConfig.tiny(), tracer=tracer))
    flow.compare(1.5, "cell_strength_slew_slope", 0.03)
    tracer.finish()
    print(render_trace(load_trace("run.jsonl")))
"""

from typing import List

__version__ = "1.1.0"

#: Public name -> defining module, resolved lazily on first access.
_EXPORTS = {
    "ArtifactPipeline": "repro.flow.pipeline",
    "Characterizer": "repro.characterization.characterize",
    "Finding": "repro.lint.findings",
    "FlowConfig": "repro.flow.experiment",
    "LintEngine": "repro.lint.engine",
    "MetricsRegistry": "repro.observe.metrics",
    "MetricsSnapshot": "repro.observe.metrics",
    "RunLedger": "repro.observe.ledger",
    "RunRecord": "repro.observe.ledger",
    "StatusRequest": "repro.serve.schema",
    "SweepRequest": "repro.serve.schema",
    "SynthesisRun": "repro.flow.experiment",
    "Tracer": "repro.observe.tracer",
    "TuneRequest": "repro.serve.schema",
    "TuningClient": "repro.serve.client",
    "TuningFlow": "repro.flow.experiment",
    "TuningServer": "repro.serve.server",
    "TuningService": "repro.serve.handlers",
    "build_catalog": "repro.cells.catalog",
    "get_metrics": "repro.observe.metrics",
    "render_prometheus": "repro.observe.metrics",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    """Resolve a curated re-export on first access (PEP 562).

    Keeps ``import repro`` light: the heavy numerical stack behind the
    flow only loads when one of the public names is actually used.
    """
    module_name = _EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module 'repro' has no attribute {name!r}")
    import importlib

    value = getattr(importlib.import_module(module_name), name)
    globals()[name] = value  # cache: next access skips __getattr__
    return value


def __dir__() -> List[str]:
    """Advertise the lazy exports alongside the module globals."""
    return sorted(set(globals()) | set(_EXPORTS))
