"""Generate ``reference.json``: every comparison the benchmark checks.

Runs the tiny flow (Monte-Carlo seed 0, serial, one job) cold in a
private store and records, for the four Table 1 operating points, all
80 fig10 grid comparisons plus the off-grid points the serve workload
sends cold.  The committed table was generated once from the code the
benchmark was introduced on; regenerate it only when a change is
*meant* to move the science, and say so in the change log.

Usage (from the repository root; takes a few minutes)::

    python3 perfbench/make_reference.py [--output perfbench/reference.json]
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import grid  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", type=Path, default=grid.REFERENCE_PATH)
    args = parser.parse_args()
    with tempfile.TemporaryDirectory(prefix="perfbench-ref-") as store:
        os.environ.update({
            "REPRO_CACHE_DIR": store,
            "REPRO_LEDGER": "off",
            "REPRO_BACKEND": "serial",
            "REPRO_JOBS": "1",
        })
        from repro.core.methods import TUNING_METHODS
        from repro.experiments.base import ExperimentContext
        from repro.experiments.fig10_method_comparison import METHOD_ORDER
        from repro.flow.experiment import FlowConfig, TuningFlow

        if tuple(METHOD_ORDER) != grid.METHODS or any(
            tuple(TUNING_METHODS[m].sweep_values()) != grid.SWEEP_VALUES[m]
            for m in METHOD_ORDER
        ):
            raise SystemExit("perfbench/grid.py no longer mirrors the fig10 grid")
        flow = TuningFlow(FlowConfig.from_env(scale="tiny", backend="serial", jobs=1))
        context = ExperimentContext(flow)
        periods = context.standard_periods()
        points = []
        for period, method, parameter in grid.grid_points() + grid.off_grid_points():
            comparison = flow.compare(periods[period], method, parameter)
            row = {
                "period": period,
                "method": method,
                "parameter": parameter,
                "grid": (method, parameter) in grid.grid_pairs(),
            }
            row.update(grid.comparison_fields(comparison))
            points.append(row)
            print(grid.point_label((period, method, parameter)), row, flush=True)
    document = {
        "scale": "tiny",
        "mc_seed": 0,
        "standard_periods": periods,
        "points": points,
    }
    args.output.write_text(json.dumps(document, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(points)} points to {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
