"""The repo benchmark: cold-eval, warm-fig10 and serve-mixed.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload cold-eval --seed 1 --seconds 10 --trace 0

``--workload all`` runs the three workloads in turn.  Each pass runs in
a fresh interpreter (``passes.py``) with a private store under
``.bench_build/perfbench/``: empty for ``cold-eval``, an identical copy
of the populated store for ``warm-fig10`` and ``serve-mixed``.  The
populated store is built once per source tree, by the code under test,
in the first run in a checkout, whichever workload it is.
``REPRO_LEDGER=off``, ``REPRO_BACKEND=serial`` and ``REPRO_JOBS=1`` are
pinned and ``HOME`` points into the run directory, so no pass reads or
writes ``~/.cache/repro``.

With ``--trace 0`` the passes repeat, each in a fresh process, until
``--seconds`` is spent (``cold-eval`` always runs exactly one pass: its
minimum-period search alone outlasts any budget); see
:func:`untraced_metrics` for how passes become metrics.  With
``--trace 1`` the run alternates untraced and traced passes of the same
inputs (as many pairs as the workload's minimum pass count) and
reports the per-layer metrics (``layers.py``) of the fastest traced
pass.

Results are checked against ``reference.json``; ``--reference PATH``
checks them against another table instead (``selftest.py`` passes a
deliberately perturbed one) and says so in a warning and in its
summary line.

The last line of standard output is the JSON result; the lines above
it print every metric by name with its unit, the failed share, the
reference table and the Python/NumPy versions and CPU count the numbers
were taken with.  Every reported time is scaled to a reference host
speed sampled while the pass runs (``hostspeed.py``); the standard
error lines give each pass's time as measured and the host's speed.
"""

from __future__ import annotations

import argparse
import contextlib
import fcntl
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import grid  # noqa: E402

WORK = ROOT / ".bench_build" / "perfbench"

WORKLOADS = ("cold-eval", "warm-fig10", "serve-mixed")

#: End-to-end metrics and their units (every workload reports all).
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "ops_per_s": "1/s",
}

#: Per-outcome serve latencies and their sample counts: per-layer
#: metrics taken from an untraced pass (0 on the batch workloads).
LATENCIES = (
    "serve.warm_p50_ms",
    "serve.warm_p99_ms",
    "serve.cold_p50_ms",
    "serve.warm_n",
    "serve.cold_n",
)

#: Set-up samples per run: every pass gives one, set-up-only probes
#: top up to this many.
SETUP_SAMPLES = 3
#: Fewest timed passes per untraced run.
MIN_PASSES = {"cold-eval": 1, "warm-fig10": 3, "serve-mixed": 1}
#: A pass that has not finished after this long is a failed run.
PASS_TIMEOUT_S = 170


class BenchError(RuntimeError):
    """The benchmark cannot run here (missing sources, a crashed pass)."""


def source_digest() -> str:
    """Hash of the program's sources: a populated store belongs to one."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def child_env(store: Path, home: Path) -> Dict[str, str]:
    """The isolated environment of one pass."""
    env = {
        key: value
        for key, value in os.environ.items()
        if not key.startswith(("REPRO_", "PYTHON"))
    }
    env.update({
        "PYTHONPATH": str(ROOT / "src"),
        "HOME": str(home),
        "XDG_CACHE_HOME": str(home / ".cache"),
        "REPRO_CACHE_DIR": str(store),
        "REPRO_SCALE": "tiny",
        "REPRO_LEDGER": "off",
        "REPRO_BACKEND": "serial",
        "REPRO_JOBS": "1",
        "OMP_NUM_THREADS": "1",
        "OPENBLAS_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
    })
    return env


def run_pass(run_dir: Path, kind: str, workload: str, seed: int,
             store: Path, trace: bool = False,
             spans: Optional[Path] = None,
             reference: Optional[Path] = None) -> dict:
    """Run one pass in a fresh interpreter and return its result;
    ``reference`` is the table to check against (default: committed)."""
    home = run_dir / "home"
    home.mkdir(parents=True, exist_ok=True)
    index = len(list(run_dir.glob("spec-*.json")))
    spec_path = run_dir / f"spec-{index}.json"
    result_path = run_dir / f"result-{index}.json"
    spec = {
        "kind": kind,
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "reference": str(reference) if reference else None,
        "result": str(result_path),
        "spans": str(spans) if spans else None,
    }
    env = child_env(store, home)
    spec["t_spawn"] = time.time()
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    try:
        completed = subprocess.run(
            [sys.executable, str(HERE / "passes.py"), str(spec_path)],
            cwd=ROOT,
            env=env,
            stdout=sys.stderr,
            timeout=PASS_TIMEOUT_S if kind != "populate" else None,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{kind} pass timed out") from None
    if completed.returncode != 0 or not result_path.is_file():
        raise BenchError(f"{kind} pass exited with code {completed.returncode}")
    return json.loads(result_path.read_text(encoding="utf-8"))


@contextlib.contextmanager
def locked(path: Path):
    """An exclusive lock file (population is once per checkout)."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as handle:
        fcntl.flock(handle, fcntl.LOCK_EX)
        try:
            yield
        finally:
            fcntl.flock(handle, fcntl.LOCK_UN)


def populated_store() -> Path:
    """The store of one full cold fig10 run of this source tree.

    Built once (not timed) into a temporary directory that is renamed
    into place only after its fig10 comparisons matched the committed
    reference, so a crash never leaves a half-populated store behind.
    Each source tree keeps its own store, so runs of two trees can
    alternate in one checkout; removing ``.bench_build`` clears them.
    """
    target = WORK / f"store-{source_digest()}"
    with locked(WORK / "populate.lock"):
        if target.is_dir():
            return target
        building = WORK / "populating"
        shutil.rmtree(building, ignore_errors=True)
        building.mkdir(parents=True)
        run_dir = WORK / "runs" / f"populate-{os.getpid()}"
        shutil.rmtree(run_dir, ignore_errors=True)
        run_dir.mkdir(parents=True)
        try:
            print("perfbench: populating the warm store (one full cold fig10)...",
                  file=sys.stderr, flush=True)
            result = run_pass(run_dir, "populate", "populate", 0, building)
            if result["failed"]:
                raise BenchError(
                    "populating run disagrees with the reference: "
                    + "; ".join(result["reasons"][:3])
                )
            os.replace(building, target)
        finally:
            shutil.rmtree(run_dir, ignore_errors=True)
            shutil.rmtree(building, ignore_errors=True)
    return target


@contextlib.contextmanager
def private_store(run_dir: Path, source: Optional[Path]):
    """A store for one pass: empty, or an identical copy of ``source``;
    removed when the pass is done."""
    store = run_dir / "store"
    shutil.rmtree(store, ignore_errors=True)
    if source is None:
        store.mkdir(parents=True)
    else:
        shutil.copytree(source, store)
    try:
        yield store
    finally:
        shutil.rmtree(store, ignore_errors=True)


def timed_passes(run_dir: Path, workload: str, seed: int, seconds: int,
                 source: Optional[Path], reference: Optional[Path]) -> List[dict]:
    """Untraced passes until the budget is spent (at least the minimum)."""
    passes: List[dict] = []
    began = time.perf_counter()
    last = 0.0
    while len(passes) < MIN_PASSES[workload] or (
        workload != "cold-eval"
        and time.perf_counter() - began + last <= seconds
    ):
        started = time.perf_counter()
        with private_store(run_dir, source) as store:
            passes.append(run_pass(run_dir, workload, workload, seed, store,
                                   reference=reference))
        last = time.perf_counter() - started
    return passes


def setup_samples(run_dir: Path, workload: str, passes: List[dict],
                  source: Optional[Path]) -> List[float]:
    """Set-up seconds of every pass, topped up with set-up-only probes."""
    samples = [result["setup_s"] for result in passes]
    while len(samples) < SETUP_SAMPLES:
        with private_store(run_dir, source) as store:
            samples.append(run_pass(run_dir, "setup", workload, 0, store)["setup_s"])
    return samples


def latencies(result: dict) -> Dict[str, float]:
    """Per-outcome serve latencies of one pass (0 when not a serve pass)."""
    return {name: result.get("latency", {}).get(name, 0.0) for name in LATENCIES}


def describe(reference: Optional[Path]) -> str:
    """Which reference table a run checks against, and its digest."""
    path = reference or grid.REFERENCE_PATH
    digest = hashlib.sha256(path.read_bytes()).hexdigest()[:12]
    label = "committed" if reference is None else f"NOT the committed table: {path}"
    return f"{label} sha256={digest}"


def environment(result: dict) -> str:
    """Python and NumPy versions of a pass and the CPU count."""
    return (
        f"python={result['python']} numpy={result['numpy']} "
        f"nproc={os.cpu_count()}"
    )


def per_layer_units() -> Dict[str, str]:
    """Unit of every per-layer metric, from ``BENCHMARK.json``."""
    document = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {metric["name"]: metric["unit"] for metric in document["per_layer"]}


def untraced_metrics(passes: List[dict], setups: List[float]) -> Dict[str, float]:
    """The end-to-end metrics of a run from its passes.

    Every time is at the reference host speed (``hostspeed.py``).  The
    time of the run is the mean over its passes: what the scaling
    leaves of the host's noise errs both ways, and over ten-run sets of
    three-pass warm-fig10 runs the mean spread less than the fastest
    pass or the median.  Every pass of a workload does the same
    operations.
    """
    wall_s = statistics.mean(p["wall_s"] for p in passes)
    return {
        "setup_s": statistics.median(setups),
        "wall_s": wall_s,
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "ops_per_s": passes[0]["ops"] / wall_s,
    }


def run_workload(workload: str, seed: int, seconds: int, trace: bool,
                 reference: Optional[Path] = None) -> dict:
    """Run one workload, print its metrics, return its result object."""
    # every run ensures the populated store, so the first run in a
    # checkout pays for it whichever workload it is
    populated = populated_store()
    source = None if workload == "cold-eval" else populated
    run_dir = WORK / "runs" / f"{workload}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        if trace:
            # alternate untraced and traced passes and compare the fastest
            # of each, so host noise does not pose as tracing overhead
            untraced, traced = [], []
            for index in range(MIN_PASSES[workload]):
                with private_store(run_dir, source) as store:
                    untraced.append(run_pass(run_dir, workload, workload, seed,
                                             store, reference=reference))
                with private_store(run_dir, source) as store:
                    traced.append(run_pass(
                        run_dir, workload, workload, seed, store, trace=True,
                        spans=run_dir / f"spans-{index}.json.gz",
                        reference=reference,
                    ))
            passes = untraced + traced
            fast_untraced = min(untraced, key=lambda p: p["wall_s"])
            fast_traced = min(traced, key=lambda p: p["wall_s"])
            traces = WORK / "traces"
            traces.mkdir(parents=True, exist_ok=True)
            os.replace(
                run_dir / f"spans-{traced.index(fast_traced)}.json.gz",
                traces / f"{workload}-seed{seed}.json.gz",
            )
            values = dict(fast_traced["layers"])
            values.update(latencies(fast_untraced))
            values["trace.overhead_s"] = fast_traced["wall_s"] - fast_untraced["wall_s"]
            units = per_layer_units()
        else:
            passes = timed_passes(run_dir, workload, seed, seconds, source, reference)
            values = untraced_metrics(
                passes, setup_samples(run_dir, workload, passes, source)
            )
            units = END_TO_END
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}

    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    for result in passes:
        if "wall_s" in result:
            print(f"perfbench: {workload} pass wall {result['wall_s']:.3f} s "
                  f"(measured {result['wall_raw_s']:.3f} s at host speed "
                  f"{result['host_speed']:.3f}) setup {result['setup_s']:.3f} s "
                  f"(measured {result['setup_raw_s']:.3f} s)", file=sys.stderr)
        for reason in result["reasons"]:
            print(f"FAILED {reason}", file=sys.stderr)
    print(f"perfbench {workload} seed={seed} trace={int(trace)} "
          f"passes={len(passes)} {environment(passes[0])} "
          f"reference={describe(reference)}")
    for name, metric in metrics.items():
        print(f"  {name:<30s} {metric['value']:>14.6g} {metric['unit']}")
    if not trace and workload == "serve-mixed":
        fastest = min(passes, key=lambda p: p["wall_s"])
        for name, value in latencies(fastest).items():
            unit = "count" if name.endswith("_n") else "ms"
            print(f"  {name:<30s} {value:>14.6g} {unit}  (fastest pass)")
    print(f"  {'failed_share':<30s} {failed / max(attempted, 1):>14.6g} "
          f"({failed}/{attempted})")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="Run the repo benchmark.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reference", type=Path, default=None,
                        help="check against this table instead of reference.json")
    args = parser.parse_args(argv)

    needed = (ROOT / "src" / "repro" / "__init__.py", grid.FIG10_BASELINE_PATH)
    missing = [str(path.relative_to(ROOT)) for path in needed if not path.is_file()]
    if missing:
        print(f"perfbench: not a repro checkout, missing {missing}", file=sys.stderr)
        return 2

    reference = args.reference.resolve() if args.reference else None
    if reference is not None:
        print(f"perfbench: WARNING checking against {describe(reference)}",
              file=sys.stderr)
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {
            workload: run_workload(workload, args.seed, args.seconds,
                                   bool(args.trace), reference)
            for workload in workloads
        }
    except BenchError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1
    if len(results) == 1:
        (result,) = results.values()
    else:  # --workload all: one line for every workload's metrics
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{workload}/{name}": metric
                for workload, r in results.items()
                for name, metric in r["metrics"].items()
            },
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
