"""Per-layer timing of a traced pass, by wrapping public entry points.

Nothing inside ``src/`` is instrumented for the benchmark.  Instead,
:func:`install` replaces each entry point of :data:`ENTRY_POINTS` with
a timing wrapper *everywhere callers look it up*: on its class for
methods, and for functions in its defining module plus every loaded
``repro`` module that bound it by name (``from x import f``).  A
missed alias would under-count, which the counter cross-check in
``passes.py`` turns into a failed run.

Accounting per layer (the layer names follow the modules):

- ``<layer>.spans`` — wrapped calls entered;
- ``<layer>.busy_s`` — wall time inside the layer, counting only the
  outermost call when the layer nests in itself;
- ``<layer>.self_s`` — busy time minus the time covered by wrapped
  child calls of any layer.

The call stack lives in a :mod:`contextvars` variable, so it follows
asyncio tasks and ``asyncio.to_thread`` workers (serve computes in
worker threads); totals are merged under one lock.  Every call is also
kept as a span (entry point, id, causing span's id, start, duration)
in compact in-memory arrays and written once, at the end of the pass,
by :meth:`LayerClock.write_spans`; the spans of one served request
share the request's ``TuningService.handle`` span as their root.

:meth:`LayerClock.wrapper_cost_s` estimates what the wrappers
themselves cost a pass: its wrapped calls times the cost of one
wrapper, calibrated on a no-op in a short loop.
"""

from __future__ import annotations

import contextvars
import functools
import gzip
import importlib
import inspect
import itertools
import json
import sys
import threading
import time
from array import array
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Layers in report order.  ``import`` is measured by the pass itself
#: (fresh-process import time), not by a wrapper.
LAYERS = (
    "characterization",
    "core",
    "netlist",
    "synth",
    "sta",
    "kernels",
    "parallel",
    "sta.paths",
    "flow",
    "serve",
    "import",
)

#: (layer, defining module, qualified name) of every wrapped entry point.
ENTRY_POINTS: Tuple[Tuple[str, str, str], ...] = (
    ("characterization", "repro.characterization.characterize", "Characterizer.statistical_library"),
    ("characterization", "repro.characterization.characterize", "Characterizer.characterize_cell"),
    ("characterization", "repro.characterization.characterize", "Characterizer.characterize_cell_samples"),
    ("core", "repro.core.tuner", "LibraryTuner.tune"),
    ("netlist", "repro.netlist.generators.microcontroller", "build_microcontroller"),
    ("synth", "repro.synth.synthesizer", "synthesize"),
    ("sta", "repro.sta.engine", "analyze"),
    ("sta", "repro.sta.graph", "TimingGraph.__init__"),
    ("sta", "repro.sta.graph", "TimingGraph.remap"),
    ("sta", "repro.sta.paths", "extract_worst_paths"),
    ("sta", "repro.sta.statistics", "design_statistics"),
    ("kernels", "repro.kernels.sta", "evaluate_table_groups"),
    ("parallel", "repro.parallel.artifacts", "ArtifactStore.load"),
    ("parallel", "repro.parallel.artifacts", "ArtifactStore.store"),
    ("parallel", "repro.parallel.artifacts", "ArtifactStore.has"),
    ("parallel", "repro.parallel.cache", "LibraryCache.has_statistical"),
    ("parallel", "repro.parallel.cache", "LibraryCache.load_statistical"),
    ("parallel", "repro.parallel.cache", "LibraryCache.store_statistical"),
    ("sta.paths", "repro.sta.paths", "TimingPath.from_payload"),
    ("flow", "repro.flow.experiment", "TuningFlow.minimum_period"),
    ("flow", "repro.flow.experiment", "TuningFlow.compare"),
    ("serve", "repro.serve.handlers", "TuningService.handle"),
    ("serve", "repro.serve.coalesce", "RequestCoalescer.run"),
    ("serve", "repro.parallel.backends", "AsyncDispatcher.call"),
    ("serve", "repro.sweep.driver", "point_keys"),
)

#: Aliases bound by name that callers use; :func:`install` fails if
#: any of them was not rewritten.
REQUIRED_ALIASES = (
    "repro.synth.synthesizer.analyze",
    "repro.flow.experiment.synthesize",
    "repro.flow.experiment.extract_worst_paths",
    "repro.flow.experiment.design_statistics",
    "repro.flow.experiment.build_microcontroller",
    "repro.sta.engine.evaluate_table_groups",
    "repro.sta.statistics.evaluate_table_groups",
)

#: Extra counts, in report order (see ``README.md`` for their meaning).
COUNTS = (
    "characterization.calls",
    "synth.calls",
    "sta.analyze.calls",
    "sta.analyze.arcs",
    "kernels.sta.calls",
    "parallel.store.loads",
    "parallel.store.hits",
    "parallel.store.bytes_read",
    "parallel.store.bytes_written",
    "sta.paths.decoded",
    "serve.warm",
    "serve.computed",
    "serve.coalesced",
    "serve.rejected",
    "serve.coalescer.started",
    "serve.coalescer.joined",
)

_STACK: "contextvars.ContextVar[Optional[_Frame]]" = contextvars.ContextVar(
    "perfbench_layer_stack", default=None
)


class _Frame:
    """One active wrapped call: its layer and the child time under it."""

    __slots__ = ("span_id", "layer", "parent", "active", "child")

    def __init__(self, span_id: int, layer: str, parent: Optional["_Frame"]):
        self.span_id = span_id
        self.layer = layer
        self.parent = parent
        self.active = (parent.active if parent else frozenset()) | {layer}
        self.child = 0.0


def _file_size(path: Any) -> int:
    try:
        return path.stat().st_size
    except (AttributeError, OSError):
        return 0


def _count_hook(name: str) -> Callable[..., None]:
    def hook(clock: "LayerClock", args: tuple, kwargs: dict, result: Any) -> None:
        clock.counts[name] += 1

    return hook


def _samples_hook(clock, args, kwargs, result) -> None:
    # the vectorized kernel counts the whole batch at once; the scalar
    # kernel delegates to characterize_cell, which counts itself
    characterizer = args[0]
    if getattr(characterizer, "kernel", "vectorized") == "vectorized":
        indices = kwargs.get("sample_indices", args[3] if len(args) > 3 else ())
        clock.counts["characterization.calls"] += len(indices)


def _analyze_hook(clock, args, kwargs, result) -> None:
    clock.counts["sta.analyze.calls"] += 1
    graph = args[0] if args else kwargs.get("graph")
    clock.counts["sta.analyze.arcs"] += getattr(graph, "n_arcs", 0)


def _artifact_load_hook(clock, args, kwargs, result) -> None:
    clock.counts["parallel.store.loads"] += 1
    if result is not None:
        store, stage, key = args[:3]
        clock.counts["parallel.store.hits"] += 1
        clock.counts["parallel.store.bytes_read"] += _file_size(
            store.path_for(stage, key)
        )


def _library_load_hook(clock, args, kwargs, result) -> None:
    clock.counts["parallel.store.loads"] += 1
    if result is not None:
        cache, characterizer, specs, n_samples, seed, include_global = args[:6]
        clock.counts["parallel.store.hits"] += 1
        clock.counts["parallel.store.bytes_read"] += _file_size(
            cache._path(characterizer, specs, n_samples, seed, include_global, "stat")
        )


def _written_hook(clock, args, kwargs, result) -> None:
    clock.counts["parallel.store.bytes_written"] += _file_size(result)


def _handle_hook(clock, args, kwargs, result) -> None:
    outcome = getattr(result, "outcome", None)
    if outcome in ("warm", "computed", "coalesced"):
        clock.counts[f"serve.{outcome}"] += 1


def _handle_error_hook(clock, error: BaseException) -> None:
    from repro.errors import ServerBusyError

    if isinstance(error, ServerBusyError):
        clock.counts["serve.rejected"] += 1


def _coalesce_hook(clock, args, kwargs, result) -> None:
    _value, joined = result
    clock.counts["serve.coalescer.joined" if joined else "serve.coalescer.started"] += 1


#: Post-call hooks ``(clock, args, kwargs, result)`` by qualified name.
_HOOKS: Dict[str, Callable[..., None]] = {
    "Characterizer.characterize_cell": _count_hook("characterization.calls"),
    "Characterizer.characterize_cell_samples": _samples_hook,
    "synthesize": _count_hook("synth.calls"),
    "analyze": _analyze_hook,
    "evaluate_table_groups": _count_hook("kernels.sta.calls"),
    "ArtifactStore.load": _artifact_load_hook,
    "ArtifactStore.store": _written_hook,
    "LibraryCache.load_statistical": _library_load_hook,
    "LibraryCache.store_statistical": _written_hook,
    "TimingPath.from_payload": _count_hook("sta.paths.decoded"),
    "TuningService.handle": _handle_hook,
    "RequestCoalescer.run": _coalesce_hook,
}
_ERROR_HOOKS: Dict[str, Callable[..., None]] = {
    "TuningService.handle": _handle_error_hook,
}


class LayerClock:
    """Thread-safe per-layer totals, extra counts and span arrays."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._origin = time.perf_counter()
        self.spans: Dict[str, int] = defaultdict(int)
        self.busy: Dict[str, float] = defaultdict(float)
        self.self_time: Dict[str, float] = defaultdict(float)
        #: Busy seconds per entry point (``sta.analyze.ms_per_call``).
        self.entry_busy: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, float] = defaultdict(float)
        self.aliases: List[str] = []
        self._ids = itertools.count()
        self._names: List[str] = []
        self._span_name = array("H")
        self._span_id = array("q")
        self._span_parent = array("q")
        self._span_start = array("d")
        self._span_seconds = array("d")

    # -- accounting ---------------------------------------------------

    def _enter(self, layer: str) -> Tuple[_Frame, contextvars.Token, float]:
        frame = _Frame(next(self._ids), layer, _STACK.get())
        return frame, _STACK.set(frame), time.perf_counter()

    def _exit(self, name_id: int, entry: str, frame: _Frame,
              token: contextvars.Token, start: float) -> None:
        elapsed = time.perf_counter() - start
        _STACK.reset(token)
        parent = frame.parent
        with self._lock:
            layer = frame.layer
            self.spans[layer] += 1
            if parent is None or layer not in parent.active:
                self.busy[layer] += elapsed
            self.self_time[layer] += elapsed - frame.child
            self.entry_busy[entry] += elapsed
            if parent is not None:
                parent.child += elapsed
            self._span_name.append(name_id)
            self._span_id.append(frame.span_id)
            self._span_parent.append(parent.span_id if parent is not None else -1)
            self._span_start.append(start - self._origin)
            self._span_seconds.append(elapsed)

    def _after(self, entry: str, args, kwargs, result) -> None:
        hook = _HOOKS.get(entry)
        if hook is not None:
            with self._lock:
                hook(self, args, kwargs, result)

    def _failed(self, entry: str, error: BaseException) -> None:
        hook = _ERROR_HOOKS.get(entry)
        if hook is not None:
            with self._lock:
                hook(self, error)

    def wrap(self, layer: str, entry: str, fn: Callable) -> Callable:
        """A timing wrapper of ``fn`` accounted to ``layer``."""
        name_id = len(self._names)
        self._names.append(f"{layer}:{entry}")
        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def async_wrapper(*args, **kwargs):
                frame, token, start = self._enter(layer)
                try:
                    result = await fn(*args, **kwargs)
                except BaseException as error:
                    self._failed(entry, error)
                    raise
                finally:
                    self._exit(name_id, entry, frame, token, start)
                self._after(entry, args, kwargs, result)
                return result

            return async_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame, token, start = self._enter(layer)
            try:
                result = fn(*args, **kwargs)
            except BaseException as error:
                self._failed(entry, error)
                raise
            finally:
                self._exit(name_id, entry, frame, token, start)
            self._after(entry, args, kwargs, result)
            return result

        return wrapper

    # -- reporting ----------------------------------------------------

    def metrics(self) -> Dict[str, float]:
        """Per-layer spans/busy/self plus the extra counts."""
        out: Dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.spans"] = float(self.spans.get(layer, 0))
            out[f"{layer}.busy_s"] = self.busy.get(layer, 0.0)
            out[f"{layer}.self_s"] = self.self_time.get(layer, 0.0)
        for name in COUNTS:
            out[name] = float(self.counts.get(name, 0))
        calls = out["sta.analyze.calls"]
        out["sta.analyze.ms_per_call"] = (
            1e3 * self.entry_busy.get("analyze", 0.0) / calls if calls else 0.0
        )
        loads = out["parallel.store.loads"]
        out["parallel.store.hit_ratio"] = (
            out["parallel.store.hits"] / loads if loads else 0.0
        )
        return out

    def wrapper_cost_s(self) -> float:
        """Seconds the wrappers' own bookkeeping added so far: wrapped
        calls times :func:`calibrate_wrapper` (post-call hooks, such as
        the store's file-size reads, are not included)."""
        calls = sum(count for layer, count in self.spans.items() if layer != "import")
        return calls * calibrate_wrapper()

    def record_import(self, seconds: float) -> None:
        """Account the fresh-process import time to the ``import`` layer."""
        with self._lock:
            self.spans["import"] += 1
            self.busy["import"] += seconds
            self.self_time["import"] += seconds

    def write_spans(self, path) -> None:
        """Write every recorded span, columnar, as gzip JSON."""
        document = {
            "names": self._names,
            "aliases": self.aliases,
            "name": self._span_name.tolist(),
            "id": self._span_id.tolist(),
            "parent": self._span_parent.tolist(),
            "start_s": self._span_start.tolist(),
            "seconds": self._span_seconds.tolist(),
        }
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            json.dump(document, handle, separators=(",", ":"))


def calibrate_wrapper(calls: int = 2000, rounds: int = 5) -> float:
    """Seconds one wrapper adds to a call: a wrapped no-op against a
    bare one, the fastest of ``rounds`` loops of ``calls`` each, on a
    clock of its own (the pass's totals are not touched)."""

    def noop() -> None:
        return None

    wrapped = LayerClock().wrap("calibration", "noop", noop)
    fastest = {noop: float("inf"), wrapped: float("inf")}
    for _ in range(rounds):
        for fn in fastest:
            start = time.perf_counter()
            for _ in range(calls):
                fn()
            fastest[fn] = min(fastest[fn], time.perf_counter() - start)
    return max(fastest[wrapped] - fastest[noop], 0.0) / calls


def _resolve(module_name: str, qualname: str) -> Tuple[Any, str, Any]:
    """(owner, attribute, raw attribute value) of an entry point."""
    owner: Any = importlib.import_module(module_name)
    parts = qualname.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    attribute = parts[-1]
    raw = owner.__dict__[attribute] if isinstance(owner, type) else getattr(owner, attribute)
    return owner, attribute, raw


def install(clock: LayerClock) -> LayerClock:
    """Wrap every entry point of :data:`ENTRY_POINTS` and rebind its
    by-name aliases (once per pass process)."""
    functions: Dict[int, Tuple[Any, Any]] = {}
    for layer, module_name, qualname in ENTRY_POINTS:
        owner, attribute, raw = _resolve(module_name, qualname)
        if isinstance(raw, staticmethod):
            setattr(owner, attribute, staticmethod(clock.wrap(layer, qualname, raw.__func__)))
        else:
            wrapped = clock.wrap(layer, qualname, raw)
            setattr(owner, attribute, wrapped)
            if not isinstance(owner, type):
                functions[id(raw)] = (raw, wrapped)
                clock.aliases.append(f"{module_name}.{attribute}")
    # rebind every by-name alias of a wrapped module-level function
    for module_name, module in list(sys.modules.items()):
        if not module_name.startswith("repro") or module is None:
            continue
        for attribute, value in list(vars(module).items()):
            entry = functions.get(id(value))
            if entry is not None and entry[0] is value:
                setattr(module, attribute, entry[1])
                clock.aliases.append(f"{module_name}.{attribute}")
    missing = [alias for alias in REQUIRED_ALIASES if alias not in clock.aliases]
    if missing:
        raise RuntimeError(f"entry-point aliases not wrapped: {missing}")
    return clock
