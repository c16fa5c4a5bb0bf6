"""Fabric geometry tests, including Manhattan-metric property tests."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.arch import Fabric
from repro.errors import ArchitectureError
from repro.units import UNIT_WIRE_DELAY_NS


@pytest.fixture
def fabric():
    return Fabric(4, 6)


class TestConstruction:
    def test_dimensions(self, fabric):
        assert fabric.num_pes == 24
        assert not fabric.is_square()
        assert Fabric(8, 8).is_square()

    def test_invalid_dimensions(self):
        with pytest.raises(ArchitectureError):
            Fabric(0, 4)

    def test_row_major_indexing(self, fabric):
        pe = fabric.pe(7)
        assert (pe.row, pe.col) == (1, 1)
        assert fabric.index_at(1, 1) == 7
        assert fabric.pe_at(1, 1) is pe

    def test_out_of_range(self, fabric):
        with pytest.raises(ArchitectureError):
            fabric.pe(24)
        with pytest.raises(ArchitectureError):
            fabric.pe_at(4, 0)

    def test_contains(self, fabric):
        assert (0, 0) in fabric
        assert (3, 5) in fabric
        assert (4, 0) not in fabric
        assert (-1, 0) not in fabric

    def test_iteration_covers_all(self, fabric):
        assert len(list(fabric)) == 24

    def test_coordinate_arrays(self, fabric):
        assert fabric.row_of[7] == 1.0
        assert fabric.col_of[7] == 1.0


class TestGeometry:
    def test_manhattan(self, fabric):
        a = fabric.index_at(0, 0)
        b = fabric.index_at(3, 5)
        assert fabric.manhattan(a, b) == 8

    def test_wire_delay_linear(self, fabric):
        assert fabric.wire_delay(0) == 0.0
        assert fabric.wire_delay(3) == pytest.approx(3 * UNIT_WIRE_DELAY_NS)

    def test_negative_length_rejected(self, fabric):
        with pytest.raises(ArchitectureError):
            fabric.wire_delay(-1)

    def test_neighbors_interior_and_corner(self, fabric):
        corner = fabric.index_at(0, 0)
        assert sorted(fabric.neighbors(corner)) == sorted(
            [fabric.index_at(1, 0), fabric.index_at(0, 1)]
        )
        interior = fabric.index_at(1, 1)
        assert len(fabric.neighbors(interior)) == 4

    def test_indices_by_distance_sorted(self, fabric):
        origin = fabric.index_at(2, 2)
        ordered = fabric.indices_by_distance(origin)
        assert ordered[0] == origin
        distances = [fabric.manhattan(origin, k) for k in ordered]
        assert distances == sorted(distances)
        assert len(ordered) == fabric.num_pes
        # PEs at equal distance come in ascending index order: candidate
        # windows cut this list, so the tie-break decides which PEs they hold.
        keys = list(zip(distances, ordered))
        assert keys == sorted(keys)

    def test_center(self):
        assert Fabric(4, 4).center() == (1.5, 1.5)
        assert Fabric(3, 3).center() == (1.0, 1.0)


class TestPads:
    def test_input_pads_on_west(self, fabric):
        pad = fabric.input_pad(2)
        assert pad.col == -1.0
        assert pad.row == 2.0

    def test_output_pads_on_east(self, fabric):
        pad = fabric.output_pad(0)
        assert pad.col == float(fabric.cols)

    def test_pad_wrapping(self, fabric):
        assert fabric.input_pad(fabric.rows + 1).row == 1.0

    def test_manhattan_points_with_pads(self, fabric):
        pad = fabric.input_pad(0)
        pe = fabric.pe_at(0, 0)
        assert Fabric.manhattan_points(pad.position, pe.position) == 1.0


coords = st.tuples(st.integers(0, 7), st.integers(0, 7))


class TestMetricProperties:
    @given(a=coords, b=coords)
    def test_symmetry(self, a, b):
        fabric = Fabric(8, 8)
        ia, ib = fabric.index_at(*a), fabric.index_at(*b)
        assert fabric.manhattan(ia, ib) == fabric.manhattan(ib, ia)

    @given(a=coords, b=coords, c=coords)
    def test_triangle_inequality(self, a, b, c):
        fabric = Fabric(8, 8)
        ia, ib, ic = (fabric.index_at(*p) for p in (a, b, c))
        assert fabric.manhattan(ia, ic) <= (
            fabric.manhattan(ia, ib) + fabric.manhattan(ib, ic)
        )

    @given(a=coords, b=coords)
    def test_identity_of_indiscernibles(self, a, b):
        fabric = Fabric(8, 8)
        ia, ib = fabric.index_at(*a), fabric.index_at(*b)
        assert (fabric.manhattan(ia, ib) == 0) == (ia == ib)
