"""Statistical path/design analysis (paper Sec. V).

Each path step's delay distribution is read from the statistical
library: mean from the (mean) delay tables the STA already used, sigma
from the ``sigma_rise``/``sigma_fall`` tables, both bilinearly
interpolated at the step's (input slew, output load) — eqs. (2)-(4).

Convolution along a path (Sec. V.B):

* mean: ``mu_path = sum(mu_cell)``                      (eq. 5)
* general variance with equal pairwise correlation rho  (eq. 9)::

      sigma_path^2 = sum_i sigma_i^2 + rho * sum_{i != j} sigma_i sigma_j

* the paper argues local variations are uncorrelated (rho = 0),
  reducing to ``sigma_path = sqrt(sum sigma_i^2)``      (eq. 10)

Design roll-up over the worst paths per unique endpoint (eq. 11)::

      mu_design = sum(mu_path),  sigma_design = sqrt(sum sigma_path^2)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.errors import TimingError
from repro.kernels.sta import evaluate_table_groups
from repro.liberty.model import Library, Lut
from repro.sta.paths import PathStep, TimingPath


def _step_sigma_tables(library: Library, step: PathStep) -> Tuple[Lut, ...]:
    """Sigma tables of a step's arc, or raise the standard error."""
    cell = library.cell(step.cell_name)
    arc = cell.pin(step.out_pin).arc_from(step.related_pin)
    tables = arc.sigma_tables()
    if not tables:
        raise TimingError(
            f"cell {step.cell_name} has no sigma tables; statistical analysis "
            "needs the statistical library"
        )
    return tables


def step_sigma(library: Library, step: PathStep) -> float:
    """Delay sigma of one path step (worst of rise/fall tables)."""
    tables = _step_sigma_tables(library, step)
    (values,) = evaluate_table_groups(
        [tables],
        [np.asarray([step.slew], dtype=float)],
        [np.asarray([step.load], dtype=float)],
    )
    return float(values[0])


def _step_sigmas(
    library: Library, steps: Sequence[PathStep]
) -> Tuple[float, ...]:
    """Sigmas of all steps of one path in one whole-path kernel call."""
    groups: List[Tuple[Lut, ...]] = [
        _step_sigma_tables(library, step) for step in steps
    ]
    values = evaluate_table_groups(
        groups,
        [np.asarray([step.slew], dtype=float) for step in steps],
        [np.asarray([step.load], dtype=float) for step in steps],
    )
    return tuple(float(value[0]) for value in values)


@dataclass(frozen=True)
class PathStatistics:
    """Mean/sigma of one path's delay distribution."""

    mean: float
    sigma: float
    depth: int
    #: Per-step sigmas (for Fig. 14-style mean + 3 sigma plots).
    step_sigmas: tuple

    @property
    def three_sigma(self) -> float:
        """mu + 3 sigma — the paper's robustness view of a path."""
        return self.mean + 3.0 * self.sigma

    def to_payload(self) -> dict:
        """JSON-serializable rendering (artifact pipeline)."""
        return {
            "mean": self.mean,
            "sigma": self.sigma,
            "depth": self.depth,
            "step_sigmas": list(self.step_sigmas),
        }

    @staticmethod
    def from_payload(payload: dict) -> "PathStatistics":
        """Rebuild statistics stored with :meth:`to_payload`."""
        return PathStatistics(
            mean=float(payload["mean"]),
            sigma=float(payload["sigma"]),
            depth=int(payload["depth"]),
            step_sigmas=tuple(float(s) for s in payload["step_sigmas"]),
        )


def path_sigma_correlated(step_sigmas: Sequence[float], rho: float) -> float:
    """Eq. (9): path sigma under equal pairwise correlation ``rho``."""
    if not -1.0 <= rho <= 1.0:
        raise TimingError(f"correlation must be in [-1, 1], got {rho}")
    sigmas = np.asarray(step_sigmas, dtype=float)
    variance = float((sigmas**2).sum())
    if rho != 0.0:
        cross = float(sigmas.sum()) ** 2 - float((sigmas**2).sum())
        variance += rho * cross
    if variance < 0:
        raise TimingError("negative path variance (rho too negative)")
    return float(np.sqrt(variance))


def path_statistics(
    path: TimingPath,
    library: Library,
    rho: float = 0.0,
) -> PathStatistics:
    """Mean and sigma of a path (eqs. 5, 9/10)."""
    sigmas = _step_sigmas(library, path.steps)
    mean = float(sum(step.delay for step in path.steps))
    return PathStatistics(
        mean=mean,
        sigma=path_sigma_correlated(sigmas, rho),
        depth=path.depth,
        step_sigmas=sigmas,
    )


@dataclass(frozen=True)
class DesignStatistics:
    """Design-level roll-up over worst paths per endpoint (eq. 11)."""

    mean: float
    sigma: float
    n_paths: int
    path_stats: tuple

    @property
    def worst_three_sigma(self) -> float:
        """Worst per-path mu + 3 sigma across the design (Fig. 14)."""
        return max(p.three_sigma for p in self.path_stats)

    def to_payload(self) -> dict:
        """JSON-serializable rendering (artifact pipeline)."""
        return {
            "mean": self.mean,
            "sigma": self.sigma,
            "n_paths": self.n_paths,
            "path_stats": [p.to_payload() for p in self.path_stats],
        }

    @staticmethod
    def from_payload(payload: dict) -> "DesignStatistics":
        """Rebuild statistics stored with :meth:`to_payload`."""
        return DesignStatistics(
            mean=float(payload["mean"]),
            sigma=float(payload["sigma"]),
            n_paths=int(payload["n_paths"]),
            path_stats=tuple(
                PathStatistics.from_payload(p) for p in payload["path_stats"]
            ),
        )


def design_statistics(
    paths: Sequence[TimingPath],
    library: Library,
    rho: float = 0.0,
) -> DesignStatistics:
    """Eq. (11) over the given worst paths."""
    if not paths:
        raise TimingError("design statistics need at least one path")
    stats = tuple(
        path_statistics(path, library, rho=rho) for path in paths
    )
    mean = float(sum(p.mean for p in stats))
    sigma = float(np.sqrt(sum(p.sigma**2 for p in stats)))
    return DesignStatistics(
        mean=mean, sigma=sigma, n_paths=len(stats), path_stats=stats
    )
