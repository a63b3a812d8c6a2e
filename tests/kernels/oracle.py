"""Scalar reference implementations — the test oracle for the kernels.

Production code runs one kernel: whole (samples x slew x load) tensors
per arc in characterization, whole topological levels per gather-based
interpolation in STA.  The functions here are the honest scalar
counterpart the equivalence tests hold it to: the *same* surrogate
model called once per (sample, grid point) with 0-d inputs, and one
:func:`~repro.liberty.lut.bilinear_interpolate` call per query.

Because NumPy elementwise arithmetic performs the same IEEE-754
operations per element whatever the array shape, every entry of a
scalar-filled tensor — and so every downstream ``mean``/``std``
reduction — must equal the broadcast result bit for bit.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional, Sequence

import numpy as np

from repro.characterization.characterize import Characterizer, GlobalDraws
from repro.characterization.delaymodel import ArcTables
from repro.errors import LibertyError
from repro.liberty.lut import bilinear_interpolate
from repro.liberty.model import Lut


class ScalarCharacterizer(Characterizer):
    """A :class:`Characterizer` that evaluates one grid point at a time.

    Picklable like its parent (module-level class), so the process
    backend ships it to workers unchanged.
    """

    def _grid_tensor(
        self,
        evaluate: Callable[..., Any],
        spec,
        output_pin: str,
        rise: bool,
        slew_axis: np.ndarray,
        load_axis: np.ndarray,
        **variation,
    ) -> Any:
        """One ``evaluate`` call per (sample, slew, load) point.

        Shapes mirror the broadcast path: (n_slew, n_load) with scalar
        variation, (N, n_slew, n_load) with (N,) sample vectors.
        """
        names = list(variation)
        batched = any(np.ndim(value) > 0 for value in variation.values())
        vectors = np.broadcast_arrays(
            *[np.atleast_1d(np.asarray(value, dtype=float))
              for value in variation.values()]
        )
        shape = (vectors[0].shape[0], slew_axis.size, load_axis.size)
        points = np.empty(shape, dtype=object)
        for k, i, j in np.ndindex(shape):
            points[k, i, j] = evaluate(
                spec,
                output_pin,
                rise,
                slews=np.asarray(slew_axis[i]),
                loads=np.asarray(load_axis[j]),
                **{name: float(vector[k]) for name, vector in zip(names, vectors)},
            )

        def stack(field: Callable[[Any], Any]) -> np.ndarray:
            values = np.array(
                [field(point) for point in points.ravel()], dtype=float
            ).reshape(shape)
            return values if batched else values[0]

        if isinstance(points.flat[0], ArcTables):
            return ArcTables(
                delay=stack(lambda point: point.delay),
                transition=stack(lambda point: point.transition),
            )
        return stack(lambda point: point)

    def characterize_cell_samples(
        self,
        spec,
        draws,
        sample_indices: Sequence[int],
        global_draws: Optional[GlobalDraws] = None,
    ) -> List[Any]:
        """The per-sample :meth:`characterize_cell` loop the batched
        production method replaces."""
        return [
            self.characterize_cell(
                spec,
                draws=draws,
                sample_index=k,
                global_draws=(
                    None if global_draws is None else GlobalDraws(
                        dvth=global_draws.dvth[k : k + 1],
                        dbeta=global_draws.dbeta[k : k + 1],
                        dlength_rel=global_draws.dlength_rel[k : k + 1],
                    )
                ),
            )
            for k in sample_indices
        ]


def interpolate_many_scalar(
    lut: Lut, slews: np.ndarray, loads: np.ndarray
) -> np.ndarray:
    """One scalar ``bilinear_interpolate`` call per element.

    Broadcasts ``slews`` against ``loads`` exactly like the vectorized
    :func:`~repro.liberty.lut.bilinear_interpolate_many`, then walks
    the broadcast elementwise.
    """
    s, load = np.broadcast_arrays(
        np.asarray(slews, dtype=float), np.asarray(loads, dtype=float)
    )
    out = np.empty(s.shape)
    flat = out.ravel()
    flat_s = s.ravel()
    flat_l = load.ravel()
    for index in range(flat_s.size):
        flat[index] = bilinear_interpolate(
            lut, float(flat_s[index]), float(flat_l[index])
        )
    return out


def scalar_evaluate_table_groups(
    groups: Sequence[Sequence[Lut]],
    slews_list: Sequence[np.ndarray],
    loads_list: Sequence[np.ndarray],
) -> List[np.ndarray]:
    """Reference :func:`~repro.kernels.sta.evaluate_table_groups`:
    per group, the max over per-table scalar interpolation."""
    results: List[np.ndarray] = []
    for tables, slews, loads in zip(groups, slews_list, loads_list):
        merged: Optional[np.ndarray] = None
        for table in tables:
            values = interpolate_many_scalar(table, slews, loads)
            merged = values if merged is None else np.maximum(merged, values)
        if merged is None:
            raise LibertyError("cannot interpolate an empty table group")
        results.append(merged)
    return results


def use_scalar_sta(monkeypatch) -> None:
    """Route STA and statistical analysis through the scalar oracle."""
    for module in ("repro.sta.engine", "repro.sta.statistics"):
        monkeypatch.setattr(
            f"{module}.evaluate_table_groups", scalar_evaluate_table_groups
        )
