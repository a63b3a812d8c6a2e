"""Self-test of the benchmark's correctness check.

Shows that a result disagreeing with the reference table is reported
as a failure, not a pass:

1. every reference row matches itself, and each kind of perturbation
   (a sigma or an area share moved by twice the tolerance, a flipped
   ``tuned_met``) is reported as a mismatch;
2. one ``warm-fig10`` run against a perturbed copy of the reference
   (``run.py --reference``) reports ``correct: false`` with one failed
   operation per perturbed point and pass, and the same run against
   the committed reference reports ``correct: true``.

Usage (from the repository root)::

    python3 perfbench/selftest.py

Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import copy
import json
import subprocess
import sys
from pathlib import Path
from typing import Optional

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import grid  # noqa: E402

WORK = HERE.parent / ".bench_build" / "perfbench" / "selftest"


def perturbed(document: dict, atol: float) -> tuple:
    """A copy of the reference with three grid points moved, plus the
    number of points moved."""
    moved = copy.deepcopy(document)
    rows = [row for row in moved["points"] if row["grid"]]
    rows[0]["tuned_sigma"] += 2 * atol
    rows[25]["tuned_met"] = not rows[25]["tuned_met"]
    rows[50]["area_increase"] -= 2 * atol
    return moved, 3


def unit_checks(reference: grid.Reference) -> list:
    problems = []
    for key, row in reference.rows.items():
        if grid.mismatches(row, row, reference.atol):
            problems.append(f"{key} does not match itself")
    moved, count = perturbed(reference.document, reference.atol)
    caught = sum(
        1
        for original, changed in zip(reference.document["points"], moved["points"])
        if grid.mismatches(changed, original, reference.atol)
    )
    if caught != count:
        problems.append(f"{caught} of {count} perturbed rows reported")
    if not grid.mismatches(None, reference.document["points"][0], reference.atol):
        problems.append("a point missing from the reference passed")
    return problems


def run_warm(reference_path: Optional[Path]) -> dict:
    """One warm-fig10 run, against the committed reference if ``None``."""
    command = [sys.executable, str(HERE / "run.py"), "--workload", "warm-fig10",
               "--seed", "0", "--seconds", "1", "--trace", "0"]
    if reference_path is not None:
        command += ["--reference", str(reference_path)]
    completed = subprocess.run(command, capture_output=True, text=True, check=False)
    if completed.returncode != 0:
        raise SystemExit(f"warm-fig10 run failed:\n{completed.stderr}")
    return json.loads(completed.stdout.strip().splitlines()[-1])


def end_to_end_checks(reference: grid.Reference) -> list:
    problems = []
    WORK.mkdir(parents=True, exist_ok=True)
    moved, count = perturbed(reference.document, reference.atol)
    moved_path = WORK / "perturbed-reference.json"
    moved_path.write_text(json.dumps(moved), encoding="utf-8")
    bad = run_warm(moved_path)
    if bad["correct"] or bad["failed"] == 0 or bad["failed"] % count:
        problems.append(f"perturbed reference: {bad['failed']} failed, "
                        f"correct={bad['correct']} (want a multiple of {count})")
    good = run_warm(None)
    if not good["correct"] or good["failed"]:
        problems.append(f"committed reference: {good['failed']} failed")
    return problems


def main() -> int:
    reference = grid.load_reference()
    problems = unit_checks(reference) + end_to_end_checks(reference)
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest:", "FAIL" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
