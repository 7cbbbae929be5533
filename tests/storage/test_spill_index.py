"""The demotion bookkeeping: :class:`ColdIndex` spans and demotion cutoffs.

The window planner answers "is this slot cold?" from these spans alone, so
a span that grows wrongly (a gap, an off-unit slot) or a state that
round-trips lossily would send reads to the wrong tier.
"""

from __future__ import annotations

import pytest

from repro.errors import StorageError
from repro.storage.spill import ColdIndex, demotion_cutoffs

UNITS = (1, 4, 16)


class TestRecording:
    def test_fresh_index_is_empty(self):
        index = ColdIndex(UNITS)
        assert [index.span(li) for li in range(3)] == [None, None, None]
        assert index.total_slots == 0
        assert not index.has_slot(0, 0)

    def test_slots_start_then_extend_a_span(self):
        index = ColdIndex(UNITS)
        index.record(1, 8, 11)
        index.record(1, 12, 15)
        assert index.span(1) == (8, 16)
        assert index.total_slots == 2

    def test_has_slot_is_unit_aligned_membership(self):
        index = ColdIndex(UNITS)
        index.record(1, 8, 11)
        index.record(1, 12, 15)
        assert index.has_slot(1, 8)
        assert index.has_slot(1, 12)
        assert not index.has_slot(1, 10)  # inside the span, off the grid
        assert not index.has_slot(1, 4)  # before the span
        assert not index.has_slot(1, 16)  # past the span
        assert not index.has_slot(0, 8)  # another level

    def test_total_slots_sums_levels(self):
        index = ColdIndex(UNITS)
        for t in range(5):
            index.record(0, t, t)
        index.record(2, 0, 15)
        assert index.total_slots == 6

    def test_slot_must_span_one_unit(self):
        index = ColdIndex(UNITS)
        with pytest.raises(StorageError, match="does not span one unit"):
            index.record(1, 0, 7)

    def test_demotion_gap_rejected(self):
        index = ColdIndex(UNITS)
        index.record(1, 0, 3)
        with pytest.raises(StorageError, match="demotion gap"):
            index.record(1, 8, 11)
        assert index.span(1) == (0, 4)  # the bad slot left no trace


class TestState:
    @pytest.mark.parametrize("units", [(0, 4), (1, -4)])
    def test_units_must_be_positive(self, units):
        with pytest.raises(StorageError, match="invalid level units"):
            ColdIndex(units)

    def test_span_count_must_match_levels(self):
        with pytest.raises(StorageError, match="2 spans for 3 levels"):
            ColdIndex(UNITS, spans=[None, None])

    @pytest.mark.parametrize("span", [(4, 4), (8, 4), (0, 6)])
    def test_span_must_be_positive_unit_multiple(self, span):
        with pytest.raises(StorageError, match="positive multiple"):
            ColdIndex(UNITS, spans=[None, span, None])

    def test_state_round_trips(self):
        index = ColdIndex(UNITS)
        index.record(0, 3, 3)
        index.record(1, 8, 11)
        state = index.to_state()
        assert state == [[3, 4], [8, 12], None]
        restored = ColdIndex.from_state(UNITS, state)
        assert restored == index
        assert restored.has_slot(1, 8)

    def test_equality_compares_units_and_spans(self):
        assert ColdIndex(UNITS) == ColdIndex(UNITS)
        assert ColdIndex(UNITS) != ColdIndex((1, 4))
        grown = ColdIndex(UNITS)
        grown.record(0, 0, 0)
        assert grown != ColdIndex(UNITS)
        assert ColdIndex(UNITS) != [None, None, None]


class TestDemotionCutoffs:
    def test_hot_horizon_must_be_positive(self):
        with pytest.raises(StorageError, match="at least one tick"):
            demotion_cutoffs(UNITS, (4, 4, 8), 0, 10, 0)

    def test_finer_levels_stop_at_the_coarser_boundary(self):
        # Coarsest level: next_tick - hot; level 1 stops at the last
        # completed 16-tick unit, whose slots are not yet promoted.
        assert demotion_cutoffs(UNITS, (4, 4, 8), 0, 22, 2) == [20, 16, 20]

    def test_boundary_alignment_respects_origin(self):
        assert demotion_cutoffs(UNITS, (4, 4, 8), 3, 22, 2) == [19, 19, 20]

    def test_level_too_small_for_the_horizon_never_spills(self):
        # Four hot 1-tick slots do not fit in capacity - 1 = 3 slots.
        cutoffs = demotion_cutoffs(UNITS, (4, 4, 8), 0, 40, 4)
        assert cutoffs[0] is None
        assert cutoffs[1] is not None and cutoffs[2] is not None
