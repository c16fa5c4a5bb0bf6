"""Placement cost-function tests."""

from __future__ import annotations

from hypothesis import given, strategies as st

from repro.place import bounding_box, bounding_box_area, wirelength


class TestBoundingBox:
    def test_empty(self):
        assert bounding_box([]) == (0.0, 0.0, 0.0, 0.0)
        assert bounding_box_area([]) == 0.0

    def test_single_point_area_one(self):
        assert bounding_box_area([(2, 3)]) == 1.0

    def test_rectangle(self):
        area = bounding_box_area([(0, 0), (2, 3)])
        assert area == 12.0  # 3 rows x 4 cols

    def test_bounds(self):
        assert bounding_box([(1, 5), (3, 2)]) == (1, 2, 3, 5)


class TestWirelength:
    def test_zero_for_coincident(self):
        assert wirelength([((1, 1), (1, 1))]) == 0.0

    def test_manhattan_sum(self):
        edges = [((0, 0), (1, 2)), ((2, 2), (0, 0))]
        assert wirelength(edges) == 3 + 4


points = st.tuples(
    st.floats(0, 15, allow_nan=False), st.floats(0, 15, allow_nan=False)
)


class TestProperties:
    @given(pts=st.lists(points, min_size=1, max_size=30))
    def test_area_at_least_one_cell(self, pts):
        assert bounding_box_area(pts) >= 1.0

    @given(pts=st.lists(points, min_size=2, max_size=30))
    def test_area_monotone_under_insertion(self, pts):
        assert bounding_box_area(pts) >= bounding_box_area(pts[:-1])

    @given(a=points, b=points)
    def test_wirelength_symmetry(self, a, b):
        assert wirelength([(a, b)]) == wirelength([(b, a)])
