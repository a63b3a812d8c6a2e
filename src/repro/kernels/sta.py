"""Whole-level STA evaluation: many arc groups, one interpolation.

The STA engine walks the timing graph level by level; each level holds
many arc groups (same cell, same arc), each needing the max over its
delay (or transition, or sigma) tables at its own query points.
:func:`evaluate_table_groups` resolves all groups of a level at once:
it stacks every table of every group into one
:class:`~repro.kernels.lut.LutBatch` and gather-interpolates the
concatenated queries in one shot, max-merging table variants with a
masked second pass.  It falls back to per-group
:func:`~repro.liberty.lut.bilinear_interpolate_many` when table shapes
are heterogeneous (never the case for one characterizer's grids) or
when there is only one group (a batch of one would only add stacking
overhead).

Max-merging is exact and commutative for floats, and every path uses
the same interpolation arithmetic, so results are bit-identical to one
scalar bilinear lookup per query per table — ``tests/kernels`` holds
them to exactly that reference.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.errors import LibertyError
from repro.kernels.lut import LutBatch, batch_interpolate
from repro.liberty.lut import bilinear_interpolate_many
from repro.liberty.model import Lut


def _maxmerge_many(
    tables: Sequence[Lut], slews: np.ndarray, loads: np.ndarray
) -> np.ndarray:
    """Max over per-table vectorized interpolation (one group)."""
    merged: Optional[np.ndarray] = None
    for table in tables:
        values = bilinear_interpolate_many(table, slews, loads)
        merged = values if merged is None else np.maximum(merged, values)
    if merged is None:
        raise LibertyError("cannot interpolate an empty table group")
    return merged


def _evaluate_batched(
    groups: Sequence[Sequence[Lut]],
    slews_list: Sequence[np.ndarray],
    loads_list: Sequence[np.ndarray],
) -> List[np.ndarray]:
    """All groups through one stacked gather-interpolation."""
    broadcasts = [
        np.broadcast_arrays(
            np.asarray(slews, dtype=float), np.asarray(loads, dtype=float)
        )
        for slews, loads in zip(slews_list, loads_list)
    ]
    shapes = [pair[0].shape for pair in broadcasts]
    sizes = np.array([pair[0].size for pair in broadcasts], dtype=np.intp)
    starts = np.concatenate([[0], np.cumsum(sizes)])
    q_slew = np.concatenate([pair[0].ravel() for pair in broadcasts])
    q_load = np.concatenate([pair[1].ravel() for pair in broadcasts])

    batch = LutBatch([table for group in groups for table in group])
    offsets = np.concatenate(
        [[0], np.cumsum([len(group) for group in groups])]
    )
    out = np.empty(q_slew.size)
    max_variants = max(len(group) for group in groups)
    for variant in range(max_variants):
        selected = [
            index for index, group in enumerate(groups) if len(group) > variant
        ]
        tids = np.concatenate([
            np.full(sizes[index], offsets[index] + variant, dtype=np.intp)
            for index in selected
        ])
        query_index = np.concatenate([
            np.arange(starts[index], starts[index] + sizes[index])
            for index in selected
        ])
        values = batch_interpolate(
            batch, tids, q_slew[query_index], q_load[query_index]
        )
        if variant == 0:  # every group has at least one table
            out[query_index] = values
        else:
            out[query_index] = np.maximum(out[query_index], values)
    return [
        out[starts[index]:starts[index] + sizes[index]].reshape(shapes[index])
        for index in range(len(groups))
    ]


def evaluate_table_groups(
    groups: Sequence[Sequence[Lut]],
    slews_list: Sequence[np.ndarray],
    loads_list: Sequence[np.ndarray],
) -> List[np.ndarray]:
    """Per group: elementwise max over its tables at its query points.

    ``groups[g]`` is a non-empty sequence of LUTs (e.g. the rise/fall
    delay tables of one arc); ``slews_list[g]``/``loads_list[g]`` are
    its broadcast-compatible query arrays.  Returns one value array per
    group.
    """
    if len(groups) != len(slews_list) or len(groups) != len(loads_list):
        raise LibertyError("groups and query lists must align")
    for group in groups:
        if not group:
            raise LibertyError("cannot interpolate an empty table group")
    if len(groups) == 1:
        return [_maxmerge_many(groups[0], slews_list[0], loads_list[0])]
    shapes = {table.values.shape for group in groups for table in group}
    if len(shapes) != 1:
        return [
            _maxmerge_many(group, slews, loads)
            for group, slews, loads in zip(groups, slews_list, loads_list)
        ]
    return _evaluate_batched(groups, slews_list, loads_list)
