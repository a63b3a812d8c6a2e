"""Batched numerical kernels behind characterization and STA.

The repo's STA hot loop evaluates whole topological levels at once:
:class:`LutBatch` stacks same-shape LUTs and :func:`batch_interpolate`
gather-interpolates many tables at many points in one call, which
:func:`evaluate_table_groups` uses to resolve every arc group of a
level (max over rise/fall variants) in a single shot.  Results are
bit-identical to one scalar bilinear lookup per query; the scalar
oracle that proves it lives in ``tests/kernels``.  See DESIGN.md §14.
"""

from repro.kernels.lut import LutBatch, batch_interpolate
from repro.kernels.sta import evaluate_table_groups

__all__ = [
    "LutBatch",
    "batch_interpolate",
    "evaluate_table_groups",
]
