"""Tests for concept hierarchies."""

from __future__ import annotations

import pytest

from repro.cube.hierarchy import ALL, ExplicitHierarchy, FanoutHierarchy
from repro.errors import HierarchyError


@pytest.fixture
def location() -> ExplicitHierarchy:
    """city > block > address, 2 cities / 4 blocks / 8 addresses."""
    blocks = {f"b{i}": f"city{i // 2}" for i in range(4)}
    addresses = {f"a{i}": f"b{i // 2}" for i in range(8)}
    return ExplicitHierarchy(
        "location",
        ["city", "block", "address"],
        ["city0", "city1"],
        [blocks, addresses],
    )


class TestExplicitHierarchy:
    def test_depth_and_level_names(self, location):
        assert location.depth == 3
        assert location.level_name(0) == ALL
        assert location.level_name(1) == "city"
        assert location.level_name(3) == "address"

    def test_level_index_round_trip(self, location):
        for level in range(4):
            assert location.level_index(location.level_name(level)) == level

    def test_level_index_unknown(self, location):
        with pytest.raises(HierarchyError):
            location.level_index("country")

    def test_level_name_out_of_range(self, location):
        with pytest.raises(HierarchyError):
            location.level_name(4)

    def test_parent_chain(self, location):
        assert location.parent("a5", 3) == "b2"
        assert location.parent("b2", 2) == "city1"
        assert location.parent("city1", 1) == ALL

    def test_parent_unknown_value(self, location):
        with pytest.raises(HierarchyError):
            location.parent("nope", 3)

    @pytest.mark.parametrize("level", [0, 4])
    def test_parent_level_out_of_range(self, location, level):
        with pytest.raises(HierarchyError, match="out of range"):
            location.parent("a0", level)

    def test_parent_unknown_level1_value(self, location):
        with pytest.raises(HierarchyError, match="not a level-1 value"):
            location.parent("city9", 1)

    def test_ancestor_multi_level(self, location):
        assert location.ancestor("a5", 3, 1) == "city1"
        assert location.ancestor("a5", 3, 0) == ALL
        assert location.ancestor("a5", 3, 3) == "a5"

    def test_ancestor_rejects_downward(self, location):
        with pytest.raises(HierarchyError):
            location.ancestor("city0", 1, 2)

    def test_cardinality(self, location):
        assert location.cardinality(0) == 1
        assert location.cardinality(1) == 2
        assert location.cardinality(2) == 4
        assert location.cardinality(3) == 8

    def test_contains(self, location):
        assert location.contains("b3", 2)
        assert not location.contains("b3", 1)
        assert location.contains(ALL, 0)

    def test_values(self, location):
        assert location.values(1) == frozenset({"city0", "city1"})

    def test_validate_value(self, location):
        location.validate_value("a0", 3)
        with pytest.raises(HierarchyError):
            location.validate_value("a0", 2)
        location.validate_value(ALL, 0)
        with pytest.raises(HierarchyError):
            location.validate_value("a0", 0)

    def test_construction_rejects_unknown_parent(self):
        with pytest.raises(HierarchyError):
            ExplicitHierarchy(
                "x", ["l1", "l2"], ["v1"], [{"c1": "missing-parent"}]
            )

    def test_construction_rejects_wrong_map_count(self):
        with pytest.raises(HierarchyError):
            ExplicitHierarchy("x", ["l1", "l2"], ["v1"], [])

    def test_construction_rejects_duplicate_level_names(self):
        with pytest.raises(HierarchyError):
            ExplicitHierarchy("x", ["l1", "l1"], ["v1"], [{"c": "v1"}])

    def test_construction_rejects_empty_level1_values(self):
        with pytest.raises(HierarchyError, match="level 1 has no values"):
            ExplicitHierarchy("x", ["l1"], [])

    def test_construction_rejects_empty_parent_map(self):
        with pytest.raises(HierarchyError, match="level 2 has no values"):
            ExplicitHierarchy("x", ["l1", "l2"], ["v1"], [{}])

    def test_construction_rejects_empty_levels(self):
        with pytest.raises(HierarchyError):
            ExplicitHierarchy("x", [], ["v1"])


class TestFanoutHierarchy:
    def test_cardinalities(self):
        h = FanoutHierarchy("d", depth=3, fanout=10)
        assert [h.cardinality(l) for l in range(4)] == [1, 10, 100, 1000]

    def test_parent(self):
        h = FanoutHierarchy("d", depth=3, fanout=10)
        assert h.parent(537, 3) == 53
        assert h.parent(53, 2) == 5
        assert h.parent(5, 1) == ALL

    def test_ancestor_closed_form(self):
        h = FanoutHierarchy("d", depth=4, fanout=3)
        v = 77  # level-4 value
        step = h.parent(h.parent(v, 4), 3)
        assert h.ancestor(v, 4, 2) == step
        assert h.ancestor(v, 4, 0) == ALL

    def test_contains_range(self):
        h = FanoutHierarchy("d", depth=2, fanout=4)
        assert h.contains(15, 2)
        assert not h.contains(16, 2)
        assert not h.contains(-1, 2)
        assert not h.contains("x", 1)

    def test_level_zero_holds_only_all(self):
        h = FanoutHierarchy("d", depth=2, fanout=4)
        assert h.contains(ALL, 0)
        assert not h.contains(0, 0)

    def test_ancestor_rejects_downward(self):
        h = FanoutHierarchy("d", depth=3, fanout=4)
        with pytest.raises(HierarchyError, match="finer level"):
            h.ancestor(3, 1, 2)

    def test_leaf_for_wraps(self):
        h = FanoutHierarchy("d", depth=2, fanout=4)
        assert h.leaf_for(16) == 0
        assert h.leaf_for(17) == 1

    def test_invalid_member_raises(self):
        h = FanoutHierarchy("d", depth=2, fanout=4)
        with pytest.raises(HierarchyError):
            h.parent(99, 2)

    def test_custom_level_names(self):
        h = FanoutHierarchy("d", 2, 5, level_names=["coarse", "fine"])
        assert h.level_name(1) == "coarse"

    def test_level_name_count_mismatch(self):
        with pytest.raises(HierarchyError):
            FanoutHierarchy("d", 3, 5, level_names=["a", "b"])

    def test_rejects_bad_parameters(self):
        with pytest.raises(HierarchyError):
            FanoutHierarchy("d", 0, 10)
        with pytest.raises(HierarchyError):
            FanoutHierarchy("d", 2, 0)

    def test_consistency_with_generic_walk(self):
        """Closed-form ancestor equals repeated parent application."""
        h = FanoutHierarchy("d", depth=5, fanout=3)
        v = 200
        walked = v
        for level in range(5, 1, -1):
            walked = h.parent(walked, level)
        assert h.ancestor(v, 5, 1) == walked
