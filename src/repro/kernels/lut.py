"""Batched bilinear LUT interpolation (the STA hot path, vectorized).

:func:`~repro.liberty.lut.bilinear_interpolate_many` evaluates *one*
table at many query points.  The STA engine, however, needs *many
tables* at many points — every arc group of a topological level carries
its own delay/transition LUTs over its own (per-cell) load axis.
:class:`LutBatch` stacks same-shape tables into one (T, n_slew, n_load)
array so a whole level resolves in a single gather-based interpolation.

Bit-identity with one scalar lookup per query is by construction:

* ``searchsorted(axis, v, side="left")`` equals the count of axis
  entries strictly below ``v``, which is what the batched bracket
  computes (``(axes < v[:, None]).sum(axis=1)``);
* clamping, the interpolation fractions and the blend are written as
  the *same* elementwise expressions as
  :func:`~repro.liberty.lut.bilinear_interpolate`, and IEEE-754
  elementwise arithmetic does not depend on array shape.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import LibertyError
from repro.liberty.model import Lut


class LutBatch:
    """A stack of same-shape LUTs addressable by table id.

    Axes may differ between tables (the load grid is per-cell); only
    the *shape* must agree so the stacked arrays are rectangular.
    """

    __slots__ = ("slew_axes", "load_axes", "values")

    def __init__(self, tables: Sequence[Lut]) -> None:
        if not tables:
            raise LibertyError("LutBatch needs at least one table")
        shape = tables[0].values.shape
        for table in tables[1:]:
            if table.values.shape != shape:
                raise LibertyError(
                    f"LutBatch tables must share one grid shape; got "
                    f"{table.values.shape} vs {shape}"
                )
        #: (T, n_slew) input-slew axes, one row per table.
        self.slew_axes = np.stack([table.index_1 for table in tables])
        #: (T, n_load) output-load axes, one row per table.
        self.load_axes = np.stack([table.index_2 for table in tables])
        #: (T, n_slew, n_load) table values.
        self.values = np.stack([table.values for table in tables])

    def __len__(self) -> int:
        return int(self.values.shape[0])


def batch_interpolate(
    batch: LutBatch,
    table_ids: np.ndarray,
    slews: np.ndarray,
    loads: np.ndarray,
) -> np.ndarray:
    """Interpolate ``batch.values[table_ids[q]]`` at each query ``q``.

    ``table_ids``, ``slews`` and ``loads`` are flat, equally long query
    arrays; the result is the per-query interpolated value, bit-identical
    to calling :func:`~repro.liberty.lut.bilinear_interpolate_many` (or
    the scalar lookup) table by table.
    """
    tid = np.asarray(table_ids, dtype=np.intp)
    slews = np.asarray(slews, dtype=float)
    loads = np.asarray(loads, dtype=float)
    s_axes = batch.slew_axes[tid]  # (Q, n_slew)
    l_axes = batch.load_axes[tid]  # (Q, n_load)
    s = np.clip(slews, s_axes[:, 0], s_axes[:, -1])
    load = np.clip(loads, l_axes[:, 0], l_axes[:, -1])

    # row-wise searchsorted(side="left"): entries strictly below s
    si = np.clip(np.sum(s_axes < s[:, None], axis=1), 1, s_axes.shape[1] - 1)
    li = np.clip(np.sum(l_axes < load[:, None], axis=1), 1, l_axes.shape[1] - 1)
    rows = np.arange(tid.shape[0])
    s0, s1 = s_axes[rows, si - 1], s_axes[rows, si]
    l0, l1 = l_axes[rows, li - 1], l_axes[rows, li]
    ts = (s - s0) / (s1 - s0)
    tl = (load - l0) / (l1 - l0)

    v = batch.values
    q00 = v[tid, si - 1, li - 1]
    q01 = v[tid, si - 1, li]
    q10 = v[tid, si, li - 1]
    q11 = v[tid, si, li]
    top = q00 * (1.0 - tl) + q01 * tl
    bot = q10 * (1.0 - tl) + q11 * tl
    return top * (1.0 - ts) + bot * ts

