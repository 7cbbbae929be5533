"""Kernel/scalar equivalence: the columnar kernels vs the reference theorems.

The contract (see ``repro.regression.kernels``): grouped ``bincount`` sums
are bit-identical to a sequential left-to-right fold; ``fsum``-based scalar
call sites agree to ulps (pinned here at 1e-9 relative tolerance, far
tighter than any tolerance the library relies on elsewhere).
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import AggregationError
from repro.regression.aggregation import merge_standard, merge_time
from repro.regression.isb import ISB
from repro.regression.kernels import (
    ISBColumns,
    group_fit,
    merge_groups,
    merge_standard_cols,
    merge_time_cols,
    merge_time_grid,
    segment_merge,
)
from repro.regression.linear import RunningRegression

finite = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


def isbs_close(got, ref) -> bool:
    """Kernel-vs-scalar ISB agreement, compared at the interval endpoints.

    ``base`` is the line extrapolated to t=0; for an interval far from the
    origin its absolute noise is the slope noise amplified by the distance,
    so a raw base comparison with a fixed abs_tol measures conditioning,
    not correctness.  The fitted endpoint values carry the same information
    at the data's own magnitude.
    """
    if got.interval != ref.interval:
        return False
    scale = max(
        abs(ref.predict(ref.t_b)), abs(ref.predict(ref.t_e)), 1.0
    )
    return all(
        math.isclose(
            got.predict(t), ref.predict(t), rel_tol=1e-9, abs_tol=1e-9 * scale
        )
        for t in (got.t_b, got.t_e)
    )


@st.composite
def same_interval_batches(draw):
    """1..40 ISBs over one shared interval (zero-usage children included)."""
    t_b = draw(st.integers(min_value=-100, max_value=1000))
    n = draw(st.integers(min_value=1, max_value=60))
    count = draw(st.integers(min_value=1, max_value=40))
    isbs = []
    for _ in range(count):
        if draw(st.booleans()) and draw(st.booleans()):
            isbs.append(ISB(t_b, t_b + n - 1, 0.0, 0.0))  # zero usage
        else:
            isbs.append(ISB(t_b, t_b + n - 1, draw(finite), draw(finite)))
    return isbs


@st.composite
def adjacent_batches(draw):
    """1..12 time-adjacent ISBs (single-tick and zero-usage edge cases)."""
    t = draw(st.integers(min_value=-50, max_value=500))
    count = draw(st.integers(min_value=1, max_value=12))
    isbs = []
    for _ in range(count):
        n = draw(st.integers(min_value=1, max_value=8))
        if draw(st.booleans()) and draw(st.booleans()):
            isbs.append(ISB(t, t + n - 1, 0.0, 0.0))
        else:
            isbs.append(ISB(t, t + n - 1, draw(finite), draw(finite)))
        t += n
    return isbs


class TestMergeStandardCols:
    @given(isbs=same_interval_batches())
    @settings(max_examples=80, deadline=None)
    def test_matches_scalar(self, isbs):
        ref = merge_standard(isbs)
        got = merge_standard_cols(ISBColumns.from_isbs(isbs))
        assert got.interval == ref.interval
        assert isbs_close(got, ref)

    def test_single_child_exact(self):
        isb = ISB(3, 9, 1.25, -0.5)
        got = merge_standard_cols(ISBColumns.from_isbs([isb]))
        assert got == isb

    def test_empty_raises(self):
        with pytest.raises(AggregationError):
            merge_standard_cols(ISBColumns.from_isbs([]))

    def test_interval_mismatch_raises(self):
        cols = ISBColumns.from_isbs([ISB(0, 4, 1.0, 0.0), ISB(0, 5, 1.0, 0.0)])
        with pytest.raises(AggregationError):
            merge_standard_cols(cols)


class TestMergeTimeCols:
    @given(isbs=adjacent_batches(), shuffle_seed=st.integers(0, 1000))
    @settings(max_examples=80, deadline=None)
    def test_matches_scalar(self, isbs, shuffle_seed):
        import random

        shuffled = list(isbs)
        random.Random(shuffle_seed).shuffle(shuffled)
        ref = merge_time(shuffled)
        got = merge_time_cols(ISBColumns.from_isbs(shuffled))
        assert got.interval == ref.interval
        assert isbs_close(got, ref)

    def test_single_child_unchanged(self):
        isb = ISB(7, 7, 2.0, 0.0)
        assert merge_time_cols(ISBColumns.from_isbs([isb])) == isb

    def test_gap_raises(self):
        cols = ISBColumns.from_isbs([ISB(0, 4, 1.0, 0.0), ISB(6, 9, 1.0, 0.0)])
        with pytest.raises(AggregationError):
            merge_time_cols(cols)

    def test_zero_children_merge_to_exact_zero(self):
        cols = ISBColumns.from_isbs([ISB(0, 4, 0.0, 0.0), ISB(5, 9, 0.0, 0.0)])
        got = merge_time_cols(cols)
        assert got.base == 0.0 and got.slope == 0.0


class TestSegmentMerge:
    @given(
        groups=st.lists(same_interval_batches(), min_size=1, max_size=8)
    )
    @settings(max_examples=50, deadline=None)
    def test_matches_scalar_per_group(self, groups):
        flat = [isb for group in groups for isb in group]
        starts, acc = [], 0
        for group in groups:
            starts.append(acc)
            acc += len(group)
        merged = segment_merge(ISBColumns.from_isbs(flat), starts)
        assert len(merged) == len(groups)
        for i, group in enumerate(groups):
            ref = merge_standard(group)
            got = merged.row(i)
            assert got.interval == ref.interval
            assert isbs_close(got, ref)

    @given(groups=st.lists(same_interval_batches(), min_size=1, max_size=6))
    @settings(max_examples=50, deadline=None)
    def test_bit_identical_to_sequential_fold(self, groups):
        """The grouped sums must match a left-to-right fold exactly."""
        flat = [isb for group in groups for isb in group]
        starts, acc = [], 0
        for group in groups:
            starts.append(acc)
            acc += len(group)
        merged = segment_merge(ISBColumns.from_isbs(flat), starts)
        for i, group in enumerate(groups):
            base = 0.0
            slope = 0.0
            for isb in group:
                base += isb.base
                slope += isb.slope
            assert float(merged.base[i]) == base
            assert float(merged.slope[i]) == slope

    def test_mixed_group_intervals_allowed(self):
        """Different groups may cover different windows."""
        flat = [ISB(0, 4, 1.0, 0.1), ISB(0, 4, 2.0, 0.2), ISB(5, 9, 3.0, 0.3)]
        merged = segment_merge(ISBColumns.from_isbs(flat), [0, 2])
        assert merged.row(0).interval == (0, 4)
        assert merged.row(1).interval == (5, 9)

    def test_within_group_mismatch_raises(self):
        flat = [ISB(0, 4, 1.0, 0.1), ISB(0, 5, 2.0, 0.2)]
        with pytest.raises(AggregationError):
            segment_merge(ISBColumns.from_isbs(flat), [0])

    def test_bad_starts_raise(self):
        cols = ISBColumns.from_isbs([ISB(0, 4, 1.0, 0.0)] * 3)
        for starts in ([], [1], [0, 0], [0, 3]):
            with pytest.raises(AggregationError):
                segment_merge(cols, starts)


class TestMergeTimeGrid:
    @given(
        data=st.data(),
        n_groups=st.integers(min_value=1, max_value=10),
        n_children=st.integers(min_value=1, max_value=6),
    )
    @settings(max_examples=50, deadline=None)
    def test_matches_scalar_per_row(self, data, n_groups, n_children):
        t = data.draw(st.integers(min_value=0, max_value=100))
        intervals = []
        for _ in range(n_children):
            n = data.draw(st.integers(min_value=1, max_value=5))
            intervals.append((t, t + n - 1))
            t += n
        rows = [
            [
                ISB(tb, te, data.draw(finite), data.draw(finite))
                for tb, te in intervals
            ]
            for _ in range(n_groups)
        ]
        columns = [
            ISBColumns.from_isbs([rows[g][r] for g in range(n_groups)])
            for r in range(n_children)
        ]
        merged = merge_time_grid(columns)
        for g in range(n_groups):
            ref = merge_time(rows[g])
            got = merged.row(g)
            assert got.interval == ref.interval
            assert isbs_close(got, ref)

    def test_non_adjacent_columns_raise(self):
        cols = [
            ISBColumns.from_isbs([ISB(0, 4, 1.0, 0.0)]),
            ISBColumns.from_isbs([ISB(6, 9, 1.0, 0.0)]),
        ]
        with pytest.raises(AggregationError):
            merge_time_grid(cols)

    def test_row_independence(self):
        """A group's result must not depend on the other groups present."""
        intervals = [(0, 4), (5, 9)]
        row = [ISB(tb, te, 1.5, -0.25) for tb, te in intervals]
        other = [ISB(tb, te, -3.0, 7.5) for tb, te in intervals]
        alone = merge_time_grid(
            [ISBColumns.from_isbs([c]) for c in row]
        ).row(0)
        crowded = merge_time_grid(
            [
                ISBColumns.from_isbs([a, b])
                for a, b in zip(other, row)
            ]
        ).row(1)
        assert alone == crowded  # exact float equality


class TestGroupFit:
    @given(data=st.data(), n_cells=st.integers(min_value=1, max_value=20))
    @settings(max_examples=50, deadline=None)
    def test_bit_identical_to_fit_window(self, data, n_cells):
        lo = data.draw(st.integers(min_value=0, max_value=1000))
        hi = lo + data.draw(st.integers(min_value=0, max_value=20))
        ticks_all, sums_all, starts = [], [], []
        fits = []
        for _ in range(n_cells):
            count = data.draw(
                st.integers(min_value=1, max_value=hi - lo + 1)
            )
            ticks = sorted(
                data.draw(
                    st.sets(
                        st.integers(min_value=lo, max_value=hi),
                        min_size=count,
                        max_size=count,
                    )
                )
            )
            values = [data.draw(finite) for _ in ticks]
            running = RunningRegression()
            for t, z in zip(ticks, values):
                running.add(t, z)
            fits.append(running.fit_window(lo, hi))
            starts.append(len(ticks_all))
            ticks_all.extend(ticks)
            sums_all.extend(values)
        base, slope = group_fit(
            np.asarray(ticks_all, dtype=np.int64),
            np.asarray(sums_all, dtype=np.float64),
            starts,
            lo,
            hi,
        )
        for i, fit in enumerate(fits):
            assert float(base[i]) == fit.base, i
            assert float(slope[i]) == fit.slope, i

    def test_single_tick_cell_is_flat(self):
        base, slope = group_fit(
            np.asarray([7], dtype=np.int64),
            np.asarray([3.5], dtype=np.float64),
            [0],
            5,
            9,
        )
        assert float(base[0]) == 3.5 and float(slope[0]) == 0.0

    def test_out_of_window_ticks_raise(self):
        with pytest.raises(AggregationError):
            group_fit(
                np.asarray([4], dtype=np.int64),
                np.asarray([1.0], dtype=np.float64),
                [0],
                5,
                9,
            )


class TestMergeGroups:
    @given(
        groups=st.lists(same_interval_batches(), min_size=0, max_size=10)
    )
    @settings(max_examples=50, deadline=None)
    def test_matches_scalar_any_group_size_mix(self, groups):
        keyed = {f"k{i}": group for i, group in enumerate(groups)}
        got = merge_groups(keyed, min_rows=4)  # force the kernel path early
        ref = {key: merge_standard(group) for key, group in keyed.items()}
        assert list(got) == list(ref)  # group order preserved
        for key in ref:
            assert got[key].interval == ref[key].interval
            assert isbs_close(got[key], ref[key])

    def test_empty_groups_mapping(self):
        assert merge_groups({}) == {}

    def test_two_child_group_interval_mismatch_raises(self):
        with pytest.raises(AggregationError, match="identical intervals"):
            merge_groups({"k": [ISB(0, 4, 1.0, 0.1), ISB(5, 9, 1.0, 0.1)]})

    def test_small_batch_takes_the_scalar_path_exactly(self):
        group = [ISB(0, 4, 0.1 * i, 0.01 * i) for i in range(1, 4)]
        got = merge_groups({"k": group})  # 3 rows < GROUP_MERGE_MIN_ROWS
        assert got["k"] == merge_standard(group)


class TestColumnsAndGuards:
    def test_columns_must_share_one_length(self):
        with pytest.raises(AggregationError, match="share one length"):
            ISBColumns(
                np.zeros(2, dtype=np.int64),
                np.zeros(2, dtype=np.int64),
                np.zeros(2),
                np.zeros(3),
            )

    def test_columns_round_trip_isbs(self):
        isbs = [ISB(0, 4, 1.5, -0.25), ISB(5, 9, -2.0, 0.5)]
        cols = ISBColumns.from_isbs(isbs)
        assert len(cols) == 2
        assert cols.to_isbs() == isbs
        assert cols.row(1) == isbs[1]

    def test_merge_time_cols_needs_a_child(self):
        with pytest.raises(AggregationError, match="at least one child"):
            merge_time_cols(ISBColumns.from_isbs([]))

    def test_merge_time_grid_needs_a_column(self):
        with pytest.raises(AggregationError, match="at least one child"):
            merge_time_grid([])

    def test_merge_time_grid_columns_must_be_equally_long(self):
        first = ISBColumns.from_isbs([ISB(0, 4, 1.0, 0.0)] * 2)
        second = ISBColumns.from_isbs([ISB(5, 9, 1.0, 0.0)])
        with pytest.raises(AggregationError, match="equally long"):
            merge_time_grid([first, second])

    def test_merge_time_grid_column_must_share_one_interval(self):
        first = ISBColumns.from_isbs([ISB(0, 4, 1.0, 0.0), ISB(0, 3, 1.0, 0.0)])
        second = ISBColumns.from_isbs([ISB(5, 9, 1.0, 0.0)] * 2)
        with pytest.raises(AggregationError, match="one interval per column"):
            merge_time_grid([first, second])

    def test_merge_time_grid_single_column_is_a_copy(self):
        col = ISBColumns.from_isbs([ISB(0, 4, 1.0, 0.5), ISB(0, 4, 2.0, 0.25)])
        out = merge_time_grid([col])
        assert out.to_isbs() == col.to_isbs()
        out.base[0] = 99.0
        assert col.base[0] == 1.0

    def test_group_fit_needs_a_segment(self):
        with pytest.raises(AggregationError, match="at least one segment"):
            group_fit(
                np.asarray([5], dtype=np.int64),
                np.asarray([1.0]),
                [],
                5,
                9,
            )

    @pytest.mark.parametrize("starts", [[1], [0, 0], [0, 2]])
    def test_group_fit_rejects_bad_starts(self, starts):
        with pytest.raises(AggregationError, match="segment starts"):
            group_fit(
                np.asarray([5, 6], dtype=np.int64),
                np.asarray([1.0, 2.0]),
                starts,
                5,
                9,
            )
