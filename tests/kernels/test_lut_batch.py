"""Property tests pinning the batched kernels to the scalar reference.

:func:`~repro.kernels.lut.batch_interpolate` gathers many tables at
once; these properties hold it bit-for-bit to the scalar
:func:`~repro.liberty.lut.bilinear_interpolate` lookup over random
monotone grids and query points well outside the characterized ranges
(the clamping path on both axes), and pin the group-level
:func:`~repro.kernels.sta.evaluate_table_groups` max-merge to its
scalar twin in :mod:`tests.kernels.oracle`.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import LibertyError
from repro.kernels.lut import LutBatch, batch_interpolate
from repro.kernels.sta import evaluate_table_groups
from repro.liberty.lut import bilinear_interpolate, bilinear_interpolate_many
from repro.liberty.model import Lut
from tests.kernels.oracle import interpolate_many_scalar, scalar_evaluate_table_groups
from tests.liberty.test_lut_properties import POINTS, luts


@st.composite
def shaped_luts(draw, min_tables=1, max_tables=4):
    """Several random LUTs sharing one (n_slew, n_load) shape — the
    homogeneous-batch shape one characterizer grid produces."""
    n_slew = draw(st.integers(2, 6))
    n_load = draw(st.integers(2, 6))
    n_tables = draw(st.integers(min_tables, max_tables))
    tables = []
    for _ in range(n_tables):
        slew_start = draw(st.floats(0.001, 0.1))
        load_start = draw(st.floats(0.0001, 0.01))
        slew_steps = draw(
            st.lists(st.floats(0.01, 0.5), min_size=n_slew - 1, max_size=n_slew - 1)
        )
        load_steps = draw(
            st.lists(st.floats(0.001, 0.05), min_size=n_load - 1, max_size=n_load - 1)
        )
        slews = slew_start + np.concatenate([[0.0], np.cumsum(slew_steps)])
        loads = load_start + np.concatenate([[0.0], np.cumsum(load_steps)])
        values = np.array(
            draw(
                st.lists(
                    st.lists(st.floats(0.0, 1.0), min_size=n_load, max_size=n_load),
                    min_size=n_slew,
                    max_size=n_slew,
                )
            )
        )
        tables.append(Lut(slews, loads, values + 0.01))
    return tables


class TestBatchInterpolate:
    @given(
        tables=shaped_luts(),
        points=st.lists(POINTS, min_size=1, max_size=16),
        data=st.data(),
    )
    @settings(max_examples=120, deadline=None)
    def test_matches_scalar_lookup_per_element(self, tables, points, data):
        """Gathered interpolation over mixed table ids equals the
        scalar reference query by query — bit-for-bit, clamping
        included."""
        batch = LutBatch(tables)
        table_ids = data.draw(
            st.lists(
                st.integers(0, len(tables) - 1),
                min_size=len(points),
                max_size=len(points),
            )
        )
        slews = np.array([p[0] for p in points])
        loads = np.array([p[1] for p in points])
        values = batch_interpolate(batch, np.array(table_ids), slews, loads)
        reference = np.array([
            bilinear_interpolate(tables[tid], slew, load)
            for tid, slew, load in zip(table_ids, slews, loads)
        ])
        assert np.array_equal(values, reference)

    @given(tables=shaped_luts())
    @settings(max_examples=60, deadline=None)
    def test_reproduces_every_tables_grid_points(self, tables):
        """On each table's own grid the gather returns the table values
        themselves, exactly."""
        batch = LutBatch(tables)
        for tid, lut in enumerate(tables):
            slews = np.repeat(lut.index_1, lut.index_2.size)
            loads = np.tile(lut.index_2, lut.index_1.size)
            values = batch_interpolate(
                batch, np.full(slews.size, tid), slews, loads
            )
            assert np.array_equal(values, lut.values.ravel())

    def test_len_and_validation(self):
        lut = Lut(np.array([0.01, 0.1]), np.array([0.001, 0.01]),
                  np.array([[1.0, 2.0], [3.0, 4.0]]))
        other = Lut(np.array([0.01, 0.1, 0.5]), np.array([0.001, 0.01]),
                    np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]))
        assert len(LutBatch([lut, lut])) == 2
        with pytest.raises(LibertyError):
            LutBatch([])
        with pytest.raises(LibertyError):
            LutBatch([lut, other])


class TestScalarReference:
    @given(lut=luts(), points=st.lists(POINTS, min_size=1, max_size=12))
    @settings(max_examples=80, deadline=None)
    def test_interpolate_many_scalar_equals_vectorized_lut(self, lut, points):
        """The scalar oracle and the vectorized LUT helper are two
        routes to the same bits."""
        slews = np.array([p[0] for p in points])
        loads = np.array([p[1] for p in points])
        assert np.array_equal(
            interpolate_many_scalar(lut, slews, loads),
            bilinear_interpolate_many(lut, slews, loads),
        )

    @given(lut=luts())
    @settings(max_examples=40, deadline=None)
    def test_broadcasting_preserves_per_element_results(self, lut):
        """An outer-product (column, row) query equals its flattened
        element-by-element evaluation."""
        grid = interpolate_many_scalar(
            lut, lut.index_1[:, None], lut.index_2[None, :]
        )
        assert grid.shape == lut.values.shape
        assert np.array_equal(grid, lut.values)


class TestEvaluateTableGroups:
    @given(
        groups=st.lists(shaped_luts(), min_size=1, max_size=4),
        data=st.data(),
    )
    @settings(max_examples=80, deadline=None)
    def test_vectorized_equals_scalar_per_group(self, groups, data):
        """Whole-level evaluation — homogeneous or heterogeneous table
        shapes, any group sizes — matches the scalar oracle bit-for-bit."""
        queries = [
            data.draw(st.lists(POINTS, min_size=1, max_size=8))
            for _ in groups
        ]
        slews_list = [np.array([p[0] for p in points]) for points in queries]
        loads_list = [np.array([p[1] for p in points]) for points in queries]
        vectorized = evaluate_table_groups(groups, slews_list, loads_list)
        scalar = scalar_evaluate_table_groups(groups, slews_list, loads_list)
        assert len(vectorized) == len(scalar) == len(groups)
        for fast, reference in zip(vectorized, scalar):
            assert np.array_equal(fast, reference)

    @given(tables=shaped_luts(min_tables=2))
    @settings(max_examples=40, deadline=None)
    def test_broadcast_queries_keep_their_shape(self, tables):
        """A broadcast (n, 1) x (1, m) query comes back with the full
        (n, m) shape, equal to the scalar oracle."""
        slews = tables[0].index_1[:, None]
        loads = tables[0].index_2[None, :]
        # two groups force the stacked-gather path
        (fast_a, fast_b) = evaluate_table_groups(
            [tables, tables[:1]], [slews, slews], [loads, loads]
        )
        (ref_a, ref_b) = scalar_evaluate_table_groups(
            [tables, tables[:1]], [slews, slews], [loads, loads]
        )
        expected = (tables[0].index_1.size, tables[0].index_2.size)
        assert fast_a.shape == ref_a.shape == expected
        assert np.array_equal(fast_a, ref_a)
        assert np.array_equal(fast_b, ref_b)

    def test_rejects_empty_group_and_misalignment(self):
        lut = Lut(np.array([0.01, 0.1]), np.array([0.001, 0.01]),
                  np.array([[1.0, 2.0], [3.0, 4.0]]))
        point = np.array([0.05])
        with pytest.raises(LibertyError, match="empty table group"):
            evaluate_table_groups([[lut], []], [point, point], [point, point])
        with pytest.raises(LibertyError, match="must align"):
            evaluate_table_groups([[lut]], [point, point], [point])
