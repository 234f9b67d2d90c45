"""Grid regions, band shellings, Aztec shapes, Ehrhart counts."""

import random
from itertools import product

import pytest

from sphereforge import (
    GridBox,
    GridRegion,
    Simplex,
    VertexId,
    aztec_crosspolytope,
    boundary_members,
    certify,
    diagonal_band,
    ehrhart_crosspolytope,
    is_grid_starconvex,
    join_of_paths,
    verify_shelling,
)
from sphereforge.grid import cell_simplex
from sphereforge.errors import (
    DegenerateInput,
    FaceNotFound,
    HypothesisNotSatisfied,
)

from oracles import is_grid_connected, is_grid_unimodal, region_complex, shelling_order_band


def region(dims, cells):
    return GridRegion.of(GridBox(tuple(dims)), cells)


def splitmix(x):
    x = (x + 0x9E3779B97F4A7C15) & (1 << 64) - 1
    z = x
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & (1 << 64) - 1
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & (1 << 64) - 1
    return x, z ^ (z >> 31)


class TestJoinOfPaths:
    def test_two_paths(self):
        j = join_of_paths((3, 3))
        assert j.complex.n_facets == 4 and j.complex.dim == 3
        assert set(j.by_cell) == {(1, 1), (1, 2), (2, 1), (2, 2)}

    def test_single_path(self):
        j = join_of_paths((5,))
        assert j.complex.dim == 1 and j.complex.n_facets == 4

    def test_three_paths(self):
        j = join_of_paths((3, 3, 3))
        assert j.complex.n_facets == 8
        assert all(len(f) == 6 for f in j.complex.facets)
        assert j.complex.dim == 5

    def test_degenerate(self):
        with pytest.raises(DegenerateInput):
            join_of_paths((1, 3))

    def test_a_cell_simplex_is_the_simplex_of_its_vertices(self):
        for cell in product(range(1, 4), (1, 5), range(2, 4)):
            verts = [VertexId.path(axis, i + k) for axis, i in enumerate(cell, 1) for k in (1, 0)]
            s = cell_simplex(cell)
            assert s == Simplex(verts) and tuple(s) == tuple(Simplex(verts))


class TestPredicates:
    def test_connected(self):
        assert is_grid_connected(region((3, 3), [(1, 1), (1, 2), (2, 2)]))
        assert not is_grid_connected(region((3, 3), [(1, 1), (2, 2)]))

    def test_connected_matches_dual_graph(self):
        # oracle: dual-graph connectivity of the corresponding simplices
        from sphereforge.topology import _adjacency, _connected, _indexed_facets, _ridges

        state = 12345
        for trial in range(40):
            cells = []
            for c in product(range(1, 4), repeat=2):
                state, r = splitmix(state)
                if r % 2:
                    cells.append(c)
            if not cells:
                continue
            r = region((3, 3), cells)
            cx = region_complex(r)
            facets = _indexed_facets(cx)
            dual = _connected(_adjacency(len(facets), _ridges(facets)))
            assert dual == is_grid_connected(r)

    def test_starconvex_l_shape(self):
        r = region((3, 3), [(1, 1), (1, 2), (2, 2)])
        assert is_grid_starconvex(r, (1, 2))
        assert not is_grid_starconvex(r, (1, 1))
        with pytest.raises(FaceNotFound):
            is_grid_starconvex(r, (3, 3))

    def test_full_box_starconvex_everywhere(self):
        r = region((3, 4), product(range(1, 4), range(1, 5)))
        for c in r.cells:
            assert is_grid_starconvex(r, c)

    def test_aztec_starconvex_from_center(self):
        for k in (3, 5, 7):
            r = aztec_crosspolytope(2, k)
            assert is_grid_starconvex(r, ((k + 1) // 2, (k + 1) // 2))

    def test_starconvex_survives_subbox_intersection(self):
        k = 5
        r = aztec_crosspolytope(2, k)
        center = (3, 3)
        for lo1, hi1, lo2, hi2 in ((2, 5, 1, 4), (3, 5, 3, 5), (1, 3, 2, 4)):
            cells = [
                c for c in r.cells if lo1 <= c[0] <= hi1 and lo2 <= c[1] <= hi2
            ]
            if center not in cells:
                continue
            sub = region((5, 5), cells)
            assert is_grid_starconvex(sub, center)

    def test_unimodal(self):
        band = diagonal_band(GridBox((4, 4)), 3, 6)
        assert is_grid_unimodal(band)
        assert not is_grid_unimodal(region((3, 3), [(1, 1), (1, 3)]))
        assert is_grid_unimodal(aztec_crosspolytope(2, 5))

    def test_unimodal_implies_ball_dim2(self):
        state = 999
        found = 0
        for trial in range(200):
            cells = []
            for c in product(range(1, 4), repeat=2):
                state, r = splitmix(state)
                if r % 3:
                    cells.append(c)
            reg = region((3, 3), cells)
            if not cells or not is_grid_unimodal(reg):
                continue
            found += 1
            assert certify(region_complex(reg)).is_ball(3)
        assert found > 10


class TestDiagonalBand:
    def test_band_cells_match_triple_loop(self):
        box = GridBox((5, 5, 5))
        band = diagonal_band(box, 3, 6)
        expected = {
            (i, j, k)
            for i in range(1, 6)
            for j in range(1, 6)
            for k in range(1, 6)
            if 3 <= i + j + k <= 6
        }
        assert band.cells == expected

    def test_random_boxes_match_a_filter_of_every_cell(self):
        # the band is enumerated directly; the reference scans the box
        rng = random.Random(23)
        for d in (1, 2, 3, 4):
            for _ in range(6):
                box = GridBox(tuple(rng.randint(1, 6 - d) for _ in range(d)))
                total = sum(box.dims)
                for m1 in range(d, total + 1):
                    for m2 in range(m1, total + 1):
                        cells = [c for c in box.all_cells() if m1 <= sum(c) <= m2]
                        flag = m2 - m1 >= d or m1 == d or m2 == total
                        assert diagonal_band(box, m1, m2) == GridRegion.of(box, cells, flag)

    def test_single_corner_cell(self):
        band = diagonal_band(GridBox((3, 3)), 2, 2)
        assert band.cells == {(1, 1)}

    def test_guarantee_flag(self):
        box = GridBox((4, 4))
        assert diagonal_band(box, 3, 6).shellable_guaranteed
        assert diagonal_band(box, 2, 3).shellable_guaranteed  # m1 = d
        assert diagonal_band(box, 6, 8).shellable_guaranteed  # m2 = max
        assert not diagonal_band(box, 4, 5).shellable_guaranteed

    def test_bounds(self):
        with pytest.raises(DegenerateInput):
            diagonal_band(GridBox((3, 3)), 1, 4)
        with pytest.raises(DegenerateInput):
            diagonal_band(GridBox((3, 3)), 4, 7)


class TestBandShelling:
    def test_trivial_band(self):
        band = diagonal_band(GridBox((3, 3)), 2, 2)
        order = shelling_order_band(band)
        assert len(order) == 1

    def test_hypothesis_required(self):
        band = diagonal_band(GridBox((4, 4)), 4, 5)
        with pytest.raises(HypothesisNotSatisfied):
            shelling_order_band(band)

    def test_exhaustive_small_band_shellings(self):
        boxes = [(2, 2), (3, 3), (4, 4), (5, 3), (2, 5), (2, 2, 2), (3, 3, 2), (3, 3, 3)]
        checked = 0
        for dims in boxes:
            box = GridBox(dims)
            d, total = len(dims), sum(dims)
            for m1 in range(d, total + 1):
                for m2 in range(m1, total + 1):
                    band = diagonal_band(box, m1, m2)
                    if not band.shellable_guaranteed or not band.cells:
                        continue
                    order = shelling_order_band(band)
                    assert verify_shelling(region_complex(band), order), (dims, m1, m2)
                    checked += 1
        assert checked > 60

    def test_randomized_bands(self):
        state = 2024
        done = 0
        while done < 50:
            state, r1 = splitmix(state)
            d = 2 + r1 % 2
            dims = []
            for _ in range(d):
                state, r2 = splitmix(state)
                dims.append(2 + r2 % (5 if d == 2 else 3))
            box = GridBox(tuple(dims))
            total = sum(dims)
            state, r3 = splitmix(state)
            m1 = d + r3 % (total - d + 1)
            state, r4 = splitmix(state)
            m2 = m1 + r4 % (total - m1 + 1)
            band = diagonal_band(box, m1, m2)
            if not band.shellable_guaranteed or not band.cells:
                continue
            order = shelling_order_band(band)
            assert verify_shelling(region_complex(band), order), (dims, m1, m2)
            done += 1


class TestAztec:
    def test_small_diamonds(self):
        assert len(aztec_crosspolytope(2, 3)) == 5
        assert len(aztec_crosspolytope(2, 5)) == 13
        assert len(aztec_crosspolytope(1, 3)) == 3

    def test_even_k_rejected(self):
        with pytest.raises(DegenerateInput):
            aztec_crosspolytope(2, 4)

    def test_counts_match_ehrhart(self):
        for d in (1, 2, 3, 4):
            for k in (3, 5, 7, 9):
                assert len(aztec_crosspolytope(d, k)) == ehrhart_crosspolytope(
                    d, (k - 1) // 2
                )


class TestEhrhart:
    def test_values(self):
        assert ehrhart_crosspolytope(2, 1) == 5
        assert ehrhart_crosspolytope(2, 2) == 13
        assert ehrhart_crosspolytope(3, 1) == 7
        for d in (1, 2, 3, 4, 5):
            assert ehrhart_crosspolytope(d, 0) == 1

    def test_lattice_count_oracle(self):
        # |{x in Z^d : sum |x_i| <= r}| computed by direct enumeration
        for d in (1, 2, 3):
            for r in (0, 1, 2, 3):
                count = sum(
                    1
                    for p in product(range(-r, r + 1), repeat=d)
                    if sum(abs(c) for c in p) <= r
                )
                assert ehrhart_crosspolytope(d, r) == count


class TestBoundaryMembers:
    def test_aztec3_in_grid(self):
        host = join_of_paths((4, 4))
        r = aztec_crosspolytope(2, 3)
        members = boundary_members(r, host)
        assert len(members) == 4  # 2k - 2

    def test_aztec_member_formula(self):
        for d, k in ((2, 3), (2, 5), (2, 7), (3, 3), (3, 5)):
            r = aztec_crosspolytope(d, k)
            expected = ehrhart_crosspolytope(d, (k - 1) // 2) - ehrhart_crosspolytope(
                d, (k - 3) // 2
            )
            assert len(boundary_members(r)) == expected

    def test_single_cell_region(self):
        r = region((3, 3), [(2, 2)])
        assert len(boundary_members(r)) == 1
