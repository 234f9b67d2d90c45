"""Exact lifting, regularity verification, hulls, center raising."""

import random
from fractions import Fraction
from itertools import combinations, product
from math import comb, gcd

import pytest

from sphereforge import VertexId, geometry
from sphereforge.errors import (
    DegenerateCell,
    DegenerateInput,
    DeltaTooLarge,
    EpsSearchExhausted,
    InternalInvariantViolation,
    SymmetryViolation,
)
from sphereforge.geometry import (
    LiftedConfiguration,
    Subdivision,
    aztec_lift,
    build_aztec_lift,
    compose_lift,
    convex_hull,
    convex_hull_brute,
    delta_search,
    detect_bipyramid_facets,
    eps_search,
    hull_with_apex,
    raise_centers,
    raised_center_target,
    standard_coordinates,
    verify_regular,
)
from sphereforge.geometry import _cell_walls, _hyperplane, _int_config, _rank_and_nullvector

from oracles import cyclic_polytope_facets, lower_facets, paths_coordinates, pivot_reference

R = VertexId.raw
F = Fraction


def pt(*xs):
    return tuple(Fraction(x) for x in xs)


class TestCoordinates:
    def test_standard(self):
        coords = standard_coordinates(3, 3)
        assert coords[VertexId.path(1, 1)] == pt(1, 0, 1)
        assert coords[VertexId.path(2, 2)] == pt(0, 2, -1)

    def test_midpoint_on_cut_plane(self):
        coords = standard_coordinates(3, 3)
        a1 = coords[VertexId.path(1, 1)]
        b1 = coords[VertexId.path(2, 1)]
        mid = tuple((x + y) / 2 for x, y in zip(a1, b1))
        assert mid == pt(F(1, 2), F(1, 2), 0)

    def test_recursive_embedding(self):
        coords = paths_coordinates((3, 3, 3))
        assert coords[VertexId.path(1, 1)] == pt(1, 0, -1, 0, -1)
        assert coords[VertexId.path(3, 2)] == pt(0, 0, 0, 2, 1)


def square_points():
    return [
        (R(0), pt(0, 0)),
        (R(1), pt(2, 0)),
        (R(2), pt(0, 2)),
        (R(3), pt(3, 3)),
    ]


def paraboloid(points):
    return {v: sum(c * c for c in p) for v, p in points}


class TestLiftedConfiguration:
    def test_points_are_kept_in_vertex_order(self):
        pts = square_points()
        heights = paraboloid(pts)
        config = LiftedConfiguration(tuple(reversed(pts)), heights)
        assert config.points == tuple(pts)
        assert config == LiftedConfiguration(tuple(pts), dict(reversed(heights.items())))

    def test_heights_must_match_the_points_exactly(self):
        pts = square_points()
        heights = paraboloid(pts)
        cases = (
            (pts + [(R(1), pt(5, 5))], heights, "point r:1 appears twice"),
            (pts, {v: h for v, h in heights.items() if v != R(2)}, "point r:2 has no height"),
            (pts, {**heights, R(9): F(0)}, "height for r:9, which is not a point"),
            (
                pts + [(R(7), pt(2, 0))],
                {**heights, R(7): heights[R(1)]},
                r"points r:1 and r:7 are both at \(2,0\)",
            ),
        )
        for points, hs, message in cases:
            with pytest.raises(DegenerateInput, match=message):
                LiftedConfiguration(tuple(points), hs)


class TestSubdivision:
    def test_a_cell_listed_twice_is_rejected(self):
        with pytest.raises(DegenerateInput, match=r"cell \{r:0,r:1,r:2\} appears twice"):
            Subdivision.of([{R(2), R(1), R(0)}, {R(1), R(2), R(3)}, {R(0), R(1), R(2)}])

    def test_a_cell_that_uses_a_vertex_which_is_not_a_point_is_rejected(self):
        pts = square_points()
        config = LiftedConfiguration(tuple(pts), paraboloid(pts))
        stray = Subdivision.of([{R(0), R(1), R(2)}, {R(1), R(9), R(7), R(2)}])
        with pytest.raises(DegenerateInput, match=r"^cell \{r:1,r:2,r:7,r:9\} uses r:7, which is not a point$"):
            stray.check_points(config)
        sub = Subdivision.of([{R(0), R(1), R(2)}, {R(1), R(2), R(3)}])
        assert sub.check_points(config) is sub


class TestVerifyRegular:
    def test_delaunay_pair_accepted(self):
        pts = square_points()
        heights = paraboloid(pts)
        good = Subdivision.of([{R(0), R(1), R(2)}, {R(1), R(2), R(3)}])
        bad = Subdivision.of([{R(0), R(1), R(3)}, {R(0), R(2), R(3)}])
        assert verify_regular(pts, heights, good)
        assert not verify_regular(pts, heights, bad)

    def test_point_on_plane_must_join_cell(self):
        # four points on one lifted plane form a single quad cell; either
        # triangle alone leaves an on-plane point outside the cell
        pts = [
            (R(0), pt(0, 0)),
            (R(1), pt(1, 0)),
            (R(2), pt(0, 1)),
            (R(3), pt(1, 1)),
        ]
        heights = {R(0): F(0), R(1): F(1), R(2): F(1), R(3): F(2)}
        quad = Subdivision.of([{R(0), R(1), R(2), R(3)}])
        tris = Subdivision.of([{R(0), R(1), R(2)}, {R(1), R(2), R(3)}])
        assert verify_regular(pts, heights, quad)
        assert not verify_regular(pts, heights, tris)

    def test_missing_cell_rejected(self):
        pts = square_points()
        heights = paraboloid(pts)
        assert not verify_regular(pts, heights, Subdivision.of([{R(0), R(1), R(2)}]))

    def test_degenerate_cell(self):
        pts = square_points()
        heights = paraboloid(pts)
        with pytest.raises(DegenerateCell):
            verify_regular(pts, heights, Subdivision.of([{R(0), R(1)}]))

    def test_a_vertical_lifted_plane_is_a_degenerate_cell(self):
        # three collinear points lift onto a vertical plane only
        pts = [(R(0), pt(0, 0)), (R(1), pt(1, 1)), (R(2), pt(2, 2)), (R(3), pt(0, 2))]
        heights = {R(0): F(0), R(1): F(5), R(2): F(1), R(3): F(0)}
        with pytest.raises(DegenerateCell):
            verify_regular(pts, heights, Subdivision.of([{R(0), R(1), R(2)}]))

    def test_one_elimination_per_cell_and_none_for_simplex_walls(self, monkeypatch):
        calls = []
        kernel = geometry._rank_and_nullvector

        def counting(rows, ncols):
            calls.append(len(rows))
            return kernel(rows, ncols)

        lift = build_aztec_lift(3, 3)
        cells = lift.subdivision.cells
        monkeypatch.setattr(geometry, "_rank_and_nullvector", counting)
        assert verify_regular(list(lift.config.points), lift.heights, lift.subdivision)
        # 72 cells, one elimination each; the walls of the 36 simplices are
        # read off, the 36 five-point cells are circuits whose walls one
        # elimination of their affine dependence gives, and each of the 36
        # unmatched walls on the boundary takes one more
        assert (len(cells), sum(len(c) == 4 for c in cells)) == (72, 36)
        assert len(calls) == 72 + 36 + 36 == 144


def reference_cell_walls(cell_rows, dim):
    """The walls of a projected cell by testing every dim-subset."""
    walls = {}
    for subset in combinations(range(len(cell_rows)), dim):
        nu = _hyperplane([cell_rows[i][:dim] for i in subset])
        if nu is None:
            continue
        sides = [dot(nu, row[:dim]) + nu[-1] for row in cell_rows]
        if any(s > 0 for s in sides) and any(s < 0 for s in sides):
            continue
        walls.setdefault(frozenset(i for i, s in enumerate(sides) if s == 0), subset)
    return walls


def reference_verify_regular(pts, heights, sub):
    """verify_regular with two eliminations per cell (projected rank, then
    lifted plane) and walls by subset search for every cell."""
    ids, rows, dim = _int_config(list(pts), heights)
    index = {v: i for i, v in enumerate(ids)}
    if not sub.cells:
        return False
    cell_indices = []
    for cell in sub.cells:
        if not all(v in index for v in cell):
            raise DegenerateInput("cell uses a vertex not in the configuration")
        cell_indices.append(sorted(index[v] for v in cell))
    for idxs in cell_indices:
        if len(idxs) < dim + 1:
            raise DegenerateCell("too few points")
        proj_rank, _ = _rank_and_nullvector([rows[i][:dim] + (1,) for i in idxs], dim + 1)
        if proj_rank < dim + 1:
            raise DegenerateCell("cell does not span full dimension")
        _, nu = _rank_and_nullvector([rows[i] + (1,) for i in idxs], dim + 2)
        if nu is None or nu[dim] == 0:
            return False
        if nu[dim] < 0:
            nu = tuple(-x for x in nu)
        if any(dot(nu, row) + nu[-1] <= 0 for i, row in enumerate(rows) if i not in idxs):
            return False
    counts = {}
    for idxs in cell_indices:
        for onset_local in reference_cell_walls([rows[i] for i in idxs], dim):
            onset = frozenset(idxs[i] for i in onset_local)
            counts[onset] = counts.get(onset, 0) + 1
    for onset, count in counts.items():
        if count == 2:
            continue
        if count > 2:
            return False
        _, nu = _rank_and_nullvector([rows[i][:dim] + (1,) for i in sorted(onset)], dim + 1)
        if nu is None:
            return False
        sides = [dot(nu, row[:dim]) + nu[-1] for row in rows]
        if any(s > 0 for s in sides) and any(s < 0 for s in sides):
            return False
    return True


def outcome(verify, pts, heights, sub):
    try:
        return verify(pts, heights, sub)
    except DegenerateCell:
        return DegenerateCell


def random_lower_hull(rng, dim):
    """Distinct points on a small grid (many collinear and coplanar ones),
    random heights, and the cells of the lower hull of the lift."""
    coords = set()
    while len(coords) < rng.randint(dim + 2, 9):
        coords.add(tuple(F(rng.randint(-2, 2)) for _ in range(dim)))
    pts = [(R(i), p) for i, p in enumerate(sorted(coords))]
    heights = {v: F(rng.randint(0, 6), rng.choice((1, 2))) for v, _ in pts}
    facets = convex_hull([(v, p + (heights[v],)) for v, p in pts])
    return pts, heights, [set(f.vertices) for f in lower_facets(facets)]


def mutations(rng, pts, heights, cells):
    """The lower hull cells, then one cell dropped, two merged, a vertex
    swapped and a height moved by 1 either way."""
    yield heights, cells
    if len(cells) > 1:
        drop = rng.randrange(len(cells))
        yield heights, cells[:drop] + cells[drop + 1:]
        i, j = rng.sample(range(len(cells)), 2)
        yield heights, [c for t, c in enumerate(cells) if t not in (i, j)] + [cells[i] | cells[j]]
    t = rng.randrange(len(cells))
    out = rng.choice(sorted(cells[t]))
    into = rng.choice([v for v, _ in pts if v not in cells[t]] or [out])
    yield heights, cells[:t] + [cells[t] - {out} | {into}] + cells[t + 1:]
    v = rng.choice([v for v, _ in pts])
    yield {**heights, v: heights[v] + rng.choice((1, -1))}, cells


class TestVerifyRegularDifferential:
    """verify_regular against the two-elimination, full-search reference."""

    @pytest.mark.parametrize("dim", [2, 3])
    def test_same_answer_as_the_reference(self, dim):
        rng = random.Random(2000 + dim)
        seen = {True: 0, False: 0, DegenerateCell: 0}
        for _ in range(200):
            try:
                pts, heights, cells = random_lower_hull(rng, dim)
            except DegenerateInput:
                continue  # not full-dimensional
            for hs, claimed in mutations(rng, pts, heights, cells):
                try:
                    sub = Subdivision.of(claimed)
                except DegenerateInput:
                    continue  # a cell listed twice
                expected = outcome(reference_verify_regular, pts, hs, sub)
                assert outcome(verify_regular, pts, hs, sub) == expected, (pts, hs, claimed)
                seen[expected] += 1
        assert min(seen[True], seen[False]) >= 200 and seen[DegenerateCell] >= 5, seen

    def test_simplex_walls_read_off_match_the_subset_search(self):
        rng = random.Random(1968)
        read_off = 0
        for _ in range(300):
            dim = rng.choice((1, 2, 3))
            # a trailing height column, as verify_regular passes its rows
            rows = [tuple(rng.randint(-3, 3) for _ in range(dim + 1)) for _ in range(dim + 1)]
            rank, _ = _rank_and_nullvector([row[:dim] + (1,) for row in rows], dim + 1)
            walls = _cell_walls(rows, dim, rank)
            assert list(walls.items()) == list(reference_cell_walls(rows, dim).items()), rows
            read_off += rank == dim + 1
        assert read_off >= 150

    def test_affinely_dependent_points_are_searched(self):
        # three points on a line: one wall through all of them, not the
        # three pairs that a triangle would have
        rows = [(0, 0), (1, 1), (2, 2)]
        rank, _ = _rank_and_nullvector([row + (1,) for row in rows], 3)
        assert rank == 2
        assert _cell_walls(rows, 2, rank) == reference_cell_walls(rows, 2) == {
            frozenset({0, 1, 2}): (0, 1)
        }


def grid_cell(rng, dim, n, bound):
    """n distinct points of the grid {-bound..bound}^dim that span it, each
    with a trailing height, as verify_regular passes its rows."""
    grid = list(product(range(-bound, bound + 1), repeat=dim))
    while True:
        rows = [p + (rng.randint(-3, 3),) for p in sorted(rng.sample(grid, n))]
        if fraction_rank([row[:dim] + (1,) for row in rows], dim + 1) == dim + 1:
            return rows


def counting_kernel(monkeypatch):
    """Route geometry's kernel through a counter; returns the call list."""
    calls = []
    kernel = geometry._rank_and_nullvector

    def counting(rows, ncols):
        calls.append(len(rows))
        return kernel(rows, ncols)

    monkeypatch.setattr(geometry, "_rank_and_nullvector", counting)
    return calls


class TestCellWallsDifferential:
    """_cell_walls against the plain subset search, reference_cell_walls."""

    @pytest.mark.parametrize("dim", [2, 3])
    def test_circuit_walls_read_off_match_the_subset_search(self, dim, monkeypatch):
        rng = random.Random(2010 + dim)
        cells = [grid_cell(rng, dim, dim + 2, rng.choice((1, 3))) for _ in range(300)]
        # a zero entry in the affine dependence: dim+1 points on a
        # hyperplane (3 on a line, 4 on a square) and one point off it
        flat = {2: [(0, 0), (1, 1), (2, 2), (0, 1)],
                3: [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1)]}[dim]
        cells.append([p + (0,) for p in flat])
        calls = counting_kernel(monkeypatch)
        circuits = []
        for rows in cells:
            del calls[:]
            walls = _cell_walls(rows, dim, dim + 1)
            made = len(calls)
            assert set(walls) == set(reference_cell_walls(rows, dim)), rows
            for onset, span in walls.items():
                nu = _hyperplane([rows[i][:dim] for i in span])
                assert nu is not None and len(span) == dim, rows
                assert {i for i, row in enumerate(rows) if dot(nu, row[:dim]) + nu[-1] == 0} == onset
            circuit = all(
                fraction_rank([rows[i][:dim] + (1,) for i in s], dim + 1) == dim + 1
                for s in combinations(range(dim + 2), dim + 1)
            )
            if circuit:
                assert made == 1 and all(len(onset) == dim for onset in walls), rows
            else:
                assert made > 1, rows
            circuits.append(circuit)
        assert not circuits[-1]  # the cell with a zero entry took the search
        assert circuits.count(True) >= 100 and circuits.count(False) >= 20, circuits.count(True)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_the_search_that_skips_known_planes_matches_the_subset_search(self, dim, monkeypatch):
        rng = random.Random(1970 + dim)
        calls = counting_kernel(monkeypatch)
        subsets = made = 0
        for _ in range(150):
            rows = grid_cell(rng, dim, rng.randint(dim + 3, 9), 1)
            del calls[:]
            walls = _cell_walls(rows, dim, dim + 1)
            subsets += comb(len(rows), dim)
            made += len(calls)
            assert list(walls.items()) == list(reference_cell_walls(rows, dim).items()), rows
        # on a 3^dim grid many subsets lie on a plane found before them
        assert made < subsets * 3 // 4, (made, subsets)


class TestAztecLift:
    def test_k3_frozen_values(self):
        # worked out by hand from the coplanarity conditions with squared
        # ring heights: ring (1,1) -> 2, pentagon planes z = 2y and z = 2x
        lift = aztec_lift(3, [-3, -1, 1, 3], [-3, -1, 1, 3])
        assert lift.omega[(0, 0)] == 0
        assert lift.omega[(1, 1)] == 2
        assert lift.omega[(1, 3)] == 6
        assert lift.omega[(3, 1)] == 6
        assert lift.omega[(3, 3)] == 10
        assert lift.alpha == {1: 0, 3: 4, -1: 0, -3: 4}
        assert lift.beta == {3: 6, 1: 2, -3: 6, -1: 2}

    def test_k3_cell_counts(self):
        lift = aztec_lift(3, [-3, -1, 1, 3], [-3, -1, 1, 3])
        sizes = sorted(len(c) for c in lift.cells)
        assert len(lift.cells) == 8  # 4 rectangles + 4 pentagons
        assert sizes == [4, 4, 4, 4, 5, 5, 5, 5]

    def test_k5_frozen_values(self):
        lift = aztec_lift(5, range(-5, 6, 2), range(-5, 6, 2))
        assert lift.alpha[1] == 0 and lift.alpha[3] == 5
        assert lift.alpha[5] == F(35, 3)
        assert lift.beta[1] == 5 and lift.beta[3] == 10
        assert lift.beta[5] == F(50, 3)

    def test_k5_and_k7_structure(self):
        for k, rects, quads in ((5, 12, 4), (7, 24, 8)):
            lift = aztec_lift(k, range(-k, k + 1, 2), range(-k, k + 1, 2))
            n_cells = len(lift.cells)
            assert n_cells == rects + quads + 4

    def test_symmetry_split_and_center(self):
        lift = aztec_lift(5, range(-5, 6, 2), range(-5, 6, 2))
        assert lift.omega[(0, 0)] == 0
        for i in range(-5, 6, 2):
            for j in range(-5, 6, 2):
                assert lift.omega[(i, j)] == lift.alpha[i] + lift.beta[j]
                assert lift.omega[(i, j)] == lift.omega[(-i, j)] == lift.omega[(i, -j)]

    def test_asymmetric_input_rejected(self):
        with pytest.raises(SymmetryViolation):
            aztec_lift(3, [-3, -1, 1, 4], [-3, -1, 1, 3])
        with pytest.raises(SymmetryViolation):
            aztec_lift(3, [-3, 1, -1, 3], [-3, -1, 1, 3])


class TestComposeAndSearch:
    def test_eps_zero_is_identity(self):
        coarse = {R(0): F(1), R(1): F(2)}
        fine = {R(0): F(5), R(1): F(-3)}
        assert compose_lift(coarse, fine, F(0)) == coarse

    def test_fine_zero_returns_half(self):
        pts = square_points()
        heights = paraboloid(pts)
        zero = {v: F(0) for v, _ in pts}
        target = Subdivision.of([{R(0), R(1), R(2)}, {R(1), R(2), R(3)}])
        assert eps_search(pts, heights, zero, target) == F(1, 2)

    def test_mismatched_target_exhausts(self):
        pts = square_points()
        heights = paraboloid(pts)
        zero = {v: F(0) for v, _ in pts}
        wrong = Subdivision.of([{R(0), R(1), R(3)}, {R(0), R(2), R(3)}])
        with pytest.raises(EpsSearchExhausted):
            eps_search(pts, heights, zero, wrong)


class TestRegularAztecLift:
    def test_single_block(self):
        lift = build_aztec_lift(3, 1)
        assert lift.eps.numerator == 1
        assert verify_regular(list(lift.config.points), lift.heights, lift.subdivision)
        assert len(lift.subdivision) == 4 + 4  # rectangles + bipyramids

    def test_doubling_certified_eps_can_fail(self):
        # the certified value is contractual; scaling it up is not monotone
        lift = build_aztec_lift(3, 3)
        doubled = compose_lift(lift.coarse, lift.fine, 2 * lift.eps)
        assert not verify_regular(
            list(lift.config.points), doubled, lift.subdivision
        )

    def test_certified_eps_composition(self):
        lift = build_aztec_lift(3, 2)
        assert lift.manifest.n_free_cells == 16
        assert len(lift.subdivision) == len(lift.manifest.result.simplex_cells) + 16


def simplex_points_r4():
    return [
        (R(0), pt(0, 0, 0, 0)),
        (R(1), pt(1, 0, 0, 0)),
        (R(2), pt(0, 1, 0, 0)),
        (R(3), pt(0, 0, 1, 0)),
        (R(4), pt(0, 0, 0, 1)),
    ]


class TestHull:
    def test_simplex_hull(self):
        facets = convex_hull_brute(simplex_points_r4())
        assert len(facets) == 5
        assert all(len(f.vertices) == 4 for f in facets)

    def test_moment_curve_matches_gale(self):
        pts = [(R(t), pt(t, t * t, t ** 3, t ** 4)) for t in range(1, 8)]
        facets = convex_hull_brute(pts)
        expected = {
            frozenset(R(v.data[0]) for v in f)
            for f in cyclic_polytope_facets(7, 4).facets
        }
        assert {f.vertices for f in facets} == expected

    def test_degenerate_rejected(self):
        flat = [(R(i), pt(i, i, 0, 0)) for i in range(6)]
        for hull in (convex_hull_brute, convex_hull):
            with pytest.raises(DegenerateInput):
                hull(flat)

    def test_outward_normals(self):
        facets = convex_hull_brute(simplex_points_r4())
        pts = dict(simplex_points_r4())
        for f in facets:
            for v, p in pts.items():
                val = sum(n * c for n, c in zip(f.normal, p))
                assert val <= f.offset


def sheared(pts):
    """Image under the unimodular shear w -> w + x + 2y + 3z, which moves
    the facet in w = 0 to a hyperplane whose normal has four nonzero
    entries."""
    out = [(v, p[:3] + (p[3] + p[0] + 2 * p[1] + 3 * p[2],)) for v, p in pts]
    five = next(f for f in convex_hull_brute(out) if len(f.vertices) == 5)
    assert all(five.normal)
    return out


class TestBipyramidDetection:
    def test_simplex(self):
        facets = convex_hull_brute(simplex_points_r4())
        count, kinds = detect_bipyramid_facets(facets, simplex_points_r4())
        assert count == 0 and set(kinds) == {"simplex"}

    def test_known_bipyramid_cell(self):
        # a bipyramid and a pyramid-over-square embedded as hull facets in
        # the hyperplane w = 0, closed off by one extra vertex above; the
        # sheared copy tilts that facet off every coordinate hyperplane
        bipyr = [
            (R(0), pt(0, 0, -1, 0)),
            (R(1), pt(0, 0, 1, 0)),
            (R(2), pt(1, 0, 0, 0)),
            (R(3), pt(-1, 1, 0, 0)),
            (R(4), pt(-1, -1, 0, 0)),
            (R(5), pt(0, F(1, 3), 0, 1)),
        ]
        for pts in (bipyr, sheared(bipyr)):
            facets = convex_hull_brute(pts)
            count, kinds = detect_bipyramid_facets(facets, pts)
            assert count == 1

    def test_pyramid_over_square_is_other(self):
        pyramid = [
            (R(0), pt(1, 1, 0, 0)),
            (R(1), pt(1, -1, 0, 0)),
            (R(2), pt(-1, 1, 0, 0)),
            (R(3), pt(-1, -1, 0, 0)),
            (R(4), pt(0, 0, 1, 0)),
            (R(5), pt(0, 0, F(1, 3), 1)),
        ]
        for pts in (pyramid, sheared(pyramid)):
            facets = convex_hull_brute(pts)
            count, kinds = detect_bipyramid_facets(facets, pts)
            assert count == 0
            assert "other" in kinds


def fraction_rank(rows, ncols):
    """Reference rank by Gaussian elimination over the rationals."""
    m = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for col in range(ncols):
        src = next((i for i in range(rank, len(m)) if m[i][col]), None)
        if src is None:
            continue
        m[rank], m[src] = m[src], m[rank]
        for i in range(rank + 1, len(m)):
            f = m[i][col] / m[rank][col]
            m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


def random_matrix(rng):
    """Small integer matrix with some zero columns and repeated or scaled
    rows, entries up to 10**6."""
    nrows, ncols = rng.randint(1, 6), rng.randint(2, 6)
    bound = rng.choice((1, 3, 10 ** 6))
    rows = [[rng.randint(-bound, bound) for _ in range(ncols)] for _ in range(nrows)]
    for col in range(ncols):
        if rng.random() < 0.15:
            for row in rows:
                row[col] = 0
    if nrows > 1 and rng.random() < 0.4:
        i, j = rng.sample(range(nrows), 2)
        rows[i] = [rng.choice((-2, 1, 3)) * x for x in rows[j]]
    return [tuple(row) for row in rows], ncols


def dot(u, v):
    return sum(a * b for a, b in zip(u, v))


class TestKernel:
    def test_rank_and_nullvector_match_fraction_reference(self):
        rng = random.Random(1968)
        nullity_one = 0
        for _ in range(400):
            rows, ncols = random_matrix(rng)
            rank, v = _rank_and_nullvector(rows, ncols)
            assert rank == fraction_rank(rows, ncols), rows
            if rank != ncols - 1:
                assert v is None
                continue
            nullity_one += 1
            assert any(v) and all(dot(row, v) == 0 for row in rows), rows
            assert gcd(*v) == 1
        assert nullity_one >= 50

    def test_hyperplane_none_exactly_for_affinely_dependent_points(self):
        rng = random.Random(22)
        for _ in range(300):
            k = rng.randint(1, 4)
            bound = rng.choice((2, 10 ** 6))
            points = [tuple(rng.randint(-bound, bound) for _ in range(k)) for _ in range(k)]
            if k > 1 and rng.random() < 0.2:
                points[0] = points[1]
            homog = [p + (1,) for p in points]
            nu = _hyperplane(points)
            assert (nu is None) == (fraction_rank(homog, k + 1) < k), points
            if nu is not None:
                assert all(dot(nu, h) == 0 for h in homog)


class TestHullOfLift:
    def test_lower_facets_match_subdivision(self):
        lift = build_aztec_lift(3, 1)
        pts = [
            (v, p + (lift.heights[v],)) for v, p in lift.config.points
        ]
        facets, apex_pt = hull_with_apex(pts, VertexId.cone())
        lower = {f.vertices for f in lower_facets(facets)}
        assert lower == set(lift.subdivision.cells)

    def test_bipyramid_count_small(self):
        lift = build_aztec_lift(3, 1)
        pts = [(v, p + (lift.heights[v],)) for v, p in lift.config.points]
        facets, apex_pt = hull_with_apex(pts, VertexId.cone())
        count, _ = detect_bipyramid_facets(facets, pts + [(VertexId.cone(), apex_pt)])
        assert count == 4

    def test_apex_below_an_upper_facet_is_caught(self):
        # the apex height bound mixes column-scaled normals with the raw
        # centroid; here the apex (33/98, 22249/2744) lands beneath the
        # upper facet {r:4, r:5}, which would survive in the returned hull
        pts = [(R(i), pt(*p)) for i, p in enumerate(
            [(5, 5), (2, 4), (F(-3, 2), 0), (-1, 1), (0, 7), (-2, -2), (F(-1, 7), 3)]
        )]
        with pytest.raises(InternalInvariantViolation):
            hull_with_apex(pts, VertexId.cone())


def lifted_points(k, l):
    lift = build_aztec_lift(k, l)
    return [(v, p + (lift.heights[v],)) for v, p in lift.config.points]


def random_rational_points(rng, dim):
    """Up to 14 points with coordinates in {-2..2} / {1, 2}: many coplanar
    points, repeated points and non-simplicial facets."""
    n = rng.randint(dim + 1, 14)
    bound = rng.choice((1, 2))
    return [
        (R(i), tuple(F(rng.randint(-bound, bound), rng.choice((1, 2))) for _ in range(dim)))
        for i in range(n)
    ]


class TestGiftWrap:
    """convex_hull against the brute-force oracle, as whole facet lists."""

    def test_matches_brute_force_on_random_sets(self):
        rng = random.Random(1970)
        compared = {dim: 0 for dim in (1, 2, 3, 4)}
        for _ in range(240):
            dim = rng.choice((1, 2, 3, 4))
            pts = random_rational_points(rng, dim)
            try:
                expected = convex_hull_brute(pts)
            except DegenerateInput:
                with pytest.raises(DegenerateInput):
                    convex_hull(pts)
                continue
            assert convex_hull(pts) == expected, pts
            compared[dim] += 1
        assert min(compared.values()) >= 40

    @pytest.mark.parametrize("k", [3, 5])
    def test_matches_brute_force_on_lifts(self, k):
        pts = lifted_points(k, 1)
        assert convex_hull(pts) == convex_hull_brute(pts)
        facets, apex_pt = hull_with_apex(pts, VertexId.cone())
        assert facets == convex_hull_brute(pts + [(VertexId.cone(), apex_pt)])

    def test_aztec_34_apex_hull(self):
        # counts checked against convex_hull_brute, too slow for a unit test here
        pts = lifted_points(3, 4)
        facets, apex_pt = hull_with_apex(pts, VertexId.cone())
        count, kinds = detect_bipyramid_facets(facets, pts + [(VertexId.cone(), apex_pt)])
        assert (len(facets), count) == (136, 64)
        assert (kinds.count("simplex"), kinds.count("other")) == (68, 4)


class TestPivot:
    """_pivot against the reference loop that computed a new hyperplane for
    every point outside the current one."""

    def test_the_pencil_gives_the_reference_normal(self):
        rng = random.Random(1970)
        compared = {dim: 0 for dim in (2, 3, 4)}
        for _ in range(120):
            dim = rng.choice((2, 3, 4))
            pts = random_rational_points(rng, dim)
            try:
                facets = convex_hull_brute(pts)
            except DegenerateInput:
                continue
            _, rows, _ = _int_config(pts, None)
            for f in facets:
                h1 = f.normal + (-f.offset,)
                onset = [i for i, row in enumerate(rows) if dot(h1, row) + h1[-1] == 0]
                drop = next(a for a, n in enumerate(f.normal) if n)
                chart = [rows[i][:drop] + rows[i][drop + 1:] for i in onset]
                for wall, span in reference_cell_walls(chart, dim - 1).items():
                    basis = [rows[onset[j]] for j in span]
                    ref = next(rows[i] for j, i in enumerate(onset) if j not in wall)
                    expected, _ = pivot_reference(rows, basis, ref, frozenset(onset))
                    nu, last = geometry._pivot(rows, basis, ref, h1)
                    assert nu == expected, (pts, f)
                    # the point returned is on the new facet and off the old one
                    assert dot(nu, rows[last]) + nu[-1] == 0 != dot(h1, rows[last]) + h1[-1]
                    compared[dim] += 1
        assert min(compared.values()) >= 100, compared

    def test_one_elimination_per_ridge_crossed(self, monkeypatch):
        pts = lifted_points(3, 1)
        calls = counting_kernel(monkeypatch)
        pivot = geometry._pivot
        per_ridge = []

        def pivoting(*args):
            before = len(calls)
            out = pivot(*args)
            per_ridge.append(len(calls) - before)
            return out

        monkeypatch.setattr(geometry, "_pivot", pivoting)
        facets, _ = hull_with_apex(pts, VertexId.cone())
        # a 4-polytope has at least twice as many ridges as facets
        assert len(per_ridge) >= 2 * len(facets) and set(per_ridge) == {1}


class TestRaiseCenters:
    def test_k3_vacuous_quad_guarantee(self):
        lift = build_aztec_lift(3, 1)
        delta, _ = delta_search(lift, raised_center_target(lift.manifest))
        heights, degree3 = raise_centers(lift, delta)
        assert degree3 >= 0  # 2k-6 = 0 quadrilaterals, nothing guaranteed
        assert heights[lift.manifest.apex_of_ball[(1, 1)]] > lift.heights[
            lift.manifest.apex_of_ball[(1, 1)]
        ]

    def test_k5_degree3_guarantee(self):
        lift = build_aztec_lift(5, 1)
        delta, _ = delta_search(lift, raised_center_target(lift.manifest))
        _, degree3 = raise_centers(lift, delta)
        assert degree3 >= (2 * 5 - 6) * 1

    @pytest.mark.parametrize("k", [3, 5])
    def test_delta_search_hands_back_the_heights_raise_centers_certifies(self, k):
        lift = build_aztec_lift(k, 1)
        target = raised_center_target(lift.manifest)
        delta, heights = delta_search(lift, target)
        assert heights == raise_centers(lift, delta)[0]
        assert verify_regular(list(lift.config.points), heights, target)

    def test_huge_delta_rejected(self):
        lift = build_aztec_lift(3, 1)
        with pytest.raises(DeltaTooLarge):
            raise_centers(lift, F(10 ** 6))
