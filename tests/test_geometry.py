"""Exact lifting, regularity verification, hulls, center raising."""

import random
import re
from collections import Counter
from fractions import Fraction
from itertools import combinations, product
from math import comb, gcd, lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sphereforge import VertexId, geometry
from sphereforge.errors import DegenerateInput, SphereforgeError
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
        coords = standard_coordinates(3)
        assert coords[VertexId.path(1, 1)] == pt(1, 0, 1)
        assert coords[VertexId.path(2, 2)] == pt(0, 2, -1)

    def test_paths_need_two_vertices(self):
        with pytest.raises(DegenerateInput, match="^paths need at least 2 vertices$"):
            standard_coordinates(1)

    def test_midpoint_on_cut_plane(self):
        coords = standard_coordinates(3)
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


class TestTheKernelsKeepTheConfigurationRules:
    """Called from the library, the kernels refuse what
    ``LiftedConfiguration`` refuses of the ids and heights: no point, a
    point listed twice, and heights that do not name exactly the points."""

    def test_no_point_or_a_repeated_one_is_refused_by_name(self):
        plane = [(R(0), pt(0, 0)), (R(1), pt(1, 0)), (R(2), pt(0, 1)), (R(2), pt(5, 5))]
        heights = {R(0): F(0), R(1): F(0), R(2): F(0)}
        triangle = Subdivision.of([{R(0), R(1), R(2)}])
        space = simplex_points_r4() + [(R(2), pt(1, 1, 1, 1))]
        for call in (
            lambda: verify_regular(plane, heights, triangle),
            lambda: eps_search(plane, heights, dict.fromkeys(heights, F(0)), triangle),
            lambda: convex_hull(plane),
            lambda: convex_hull_brute(plane),
            lambda: hull_with_apex(plane, VertexId.cone()),
            lambda: detect_bipyramid_facets([], space),
        ):
            with pytest.raises(DegenerateInput, match="^point r:2 appears twice$"):
                call()
        for hull in (convex_hull, convex_hull_brute):
            with pytest.raises(DegenerateInput, match="^no points$"):
                hull([])

    def test_points_without_coordinates_are_refused_by_name(self):
        # unchecked, verify_regular charts the one wall of a point with no
        # coordinate and dies with a bare StopIteration
        pts = [(R(0), ()), (R(1), ())]
        heights = {R(0): F(0), R(1): F(0)}
        sub = Subdivision.of([[R(0)]])
        with pytest.raises(DegenerateInput, match="^point r:0 has no coordinates$"):
            verify_regular(pts, heights, sub)
        for hull in (convex_hull, convex_hull_brute):
            with pytest.raises(DegenerateInput, match="^point r:0 has no coordinates$"):
                hull(pts)

    def test_two_labels_at_one_point_are_refused_by_name(self):
        # unchecked, verify_regular reads the cell {r:1,r:3,r:7} as
        # degenerate, and the hulls list both labels on their facets
        plane = square_points() + [(R(7), pt(2, 0))]
        heights = paraboloid(plane)
        sub = Subdivision.of([{R(0), R(1), R(2)}, {R(1), R(2), R(3)}, {R(1), R(3), R(7)}])
        space = simplex_points_r4() + [(R(7), pt(1, 0, 0, 0))]
        for call, at in (
            (lambda: verify_regular(plane, heights, sub), "2,0"),
            (lambda: eps_search(plane, heights, dict.fromkeys(heights, F(0)), sub), "2,0"),
            (lambda: convex_hull(plane), "2,0"),
            (lambda: convex_hull_brute(plane), "2,0"),
            (lambda: detect_bipyramid_facets([], space), "1,0,0,0"),
        ):
            with pytest.raises(DegenerateInput, match=rf"^points r:1 and r:7 are both at \({at}\)$"):
                call()

    def test_heights_must_name_exactly_the_points(self):
        pts = square_points()
        heights = paraboloid(pts)
        sub = Subdivision.of([{R(0), R(1), R(2)}, {R(1), R(2), R(3)}])
        for hs, message in (
            ({v: h for v, h in heights.items() if v != R(3)}, "^point r:3 has no height$"),
            ({**heights, R(9): F(0)}, "^height for r:9, which is not a point$"),
        ):
            with pytest.raises(DegenerateInput, match=message):
                verify_regular(pts, hs, sub)
            with pytest.raises(DegenerateInput, match=message):
                eps_search(pts, hs, dict.fromkeys(hs, F(0)), sub)


COORDINATES = st.fractions(min_value=-2, max_value=2, max_denominator=2)


@st.composite
def small_configurations(draw):
    """Up to 6 points, some ids repeated, with 0 to 3 coordinates each,
    most of one number, drawn from few values so that points coincide;
    a height for each id; and up to 4 cells of up to 5 of the ids r:0 to
    r:6, which need not be points."""
    dim = draw(st.integers(0, 3))
    points = []
    for i in draw(st.lists(st.integers(0, 5), max_size=6)):
        arity = draw(st.sampled_from((dim, dim, dim, 0, 1, 2, 3)))
        points.append((R(i), tuple(draw(st.lists(COORDINATES, min_size=arity, max_size=arity)))))
    heights = {v: F(draw(st.integers(-3, 3))) for v, _ in points}
    cells = draw(st.sets(st.frozensets(st.integers(0, 6), min_size=1, max_size=5), max_size=4))
    return points, heights, Subdivision.of([R(i) for i in c] for c in cells)


@settings(max_examples=300, deadline=None)
@given(small_configurations())
@example(([(R(0), ()), (R(1), ())], {R(0): F(0), R(1): F(0)}, Subdivision.of([[R(0)]])))
def test_the_kernels_answer_or_refuse_every_small_point_set(case):
    """verify_regular and both hulls return an answer or raise a
    SphereforgeError, the hulls agree on which, and a hull's facets
    support the points as given."""
    pts, heights, sub = case
    try:
        verify_regular(pts, heights, sub)
    except SphereforgeError:
        pass
    hulls = []
    for hull in (convex_hull, convex_hull_brute):
        try:
            hulls.append(hull(pts))
        except SphereforgeError as exc:
            hulls.append(str(exc))
    assert hulls[0] == hulls[1]
    if not isinstance(hulls[0], str):
        assert_supporting(hulls[0], pts)


def assert_supporting(facets, pts):
    """Each facet's normal . p <= offset on the points p as given, with
    equality exactly on the facet's vertices."""
    for f in facets:
        values = {v: dot(f.normal, p) for v, p in pts}
        assert max(values.values()) == f.offset, f
        assert tuple(sorted(v for v, x in values.items() if x == f.offset)) == f.vertices, f


class TestSubdivision:
    def test_a_cell_listed_twice_is_rejected(self):
        for twice in (
            [{R(2), R(1), R(0)}, {R(1), R(2), R(3)}, {R(0), R(1), R(2)}],
            [[R(2), R(0), R(1)], (R(1), R(2), R(3)), iter([R(1), R(0), R(2)])],
        ):
            with pytest.raises(DegenerateInput, match=r"^cell \{r:0,r:1,r:2\} appears twice$"):
                Subdivision.of(twice)

    def test_a_cell_that_lists_a_vertex_twice_is_rejected(self):
        # r:1 and r:3 are both listed twice; the least is named
        with pytest.raises(DegenerateInput, match=r"^a cell lists r:1 twice$"):
            Subdivision.of([[R(0), R(1), R(2)], [R(3), R(1), R(2), R(3), R(1)]])

    def test_cells_and_vertices_in_any_order_give_the_same_cells(self):
        rng = random.Random(2014)
        verts = [R(i) for i in range(9)]
        cells = sorted({tuple(sorted(rng.sample(verts, rng.randint(1, 5)))) for _ in range(12)})
        expected = Subdivision.of(cells).cells
        assert expected == tuple(cells)
        assert all(type(c) is tuple for c in expected)
        for _ in range(20):
            shuffled = [rng.sample(c, len(c)) for c in rng.sample(cells, len(cells))]
            assert Subdivision.of(shuffled).cells == expected
            assert Subdivision.of(map(frozenset, shuffled)).cells == expected

    def test_a_cell_that_uses_a_vertex_which_is_not_a_point_is_rejected(self):
        pts = square_points()
        config = LiftedConfiguration(tuple(pts), paraboloid(pts))
        stray = Subdivision.of([{R(0), R(1), R(2)}, {R(1), R(9), R(7), R(2)}])
        with pytest.raises(DegenerateInput, match=r"^cell \{r:1,r:2,r:7,r:9\} uses r:7, which is not a point$"):
            stray.check_points(config.heights)
        sub = Subdivision.of([{R(0), R(1), R(2)}, {R(1), R(2), R(3)}])
        assert sub.check_points(config.heights) is sub


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
        with pytest.raises(DegenerateInput, match="^cell with 2 points in dimension 2$"):
            verify_regular(pts, heights, Subdivision.of([{R(0), R(1)}]))

    def test_a_vertical_lifted_plane_is_a_degenerate_cell(self):
        # three collinear points lift onto a vertical plane only
        pts = [(R(0), pt(0, 0)), (R(1), pt(1, 1)), (R(2), pt(2, 2)), (R(3), pt(0, 2))]
        heights = {R(0): F(0), R(1): F(5), R(2): F(1), R(3): F(0)}
        with pytest.raises(DegenerateInput, match="^cell does not span full dimension$"):
            verify_regular(pts, heights, Subdivision.of([{R(0), R(1), R(2)}]))

    def test_a_fold_is_tested_from_both_of_its_cells(self):
        # the walls {r:1,r:4}, {r:2,r:4} and {r:0,r:1} each have both their
        # cells on one side, and every other check passes: testing only the
        # earlier cell's points against the later cell's plane accepts it
        coords = {0: (-2, 1), 1: (-1, 2), 2: (0, 0), 3: (0, 2), 4: (0, 3)}
        pts = [(R(i), pt(*p)) for i, p in coords.items()]
        heights = {R(i): F(h) for i, h in {0: 10, 1: 4, 2: 11, 3: 1, 4: 12}.items()}
        cells = [{1, 3, 4}, {1, 2, 4}, {0, 2, 4}, {0, 2, 3}, {0, 1, 3}, {0, 1, 2}]
        sub = Subdivision.of([{R(i) for i in c} for c in cells])
        assert not reference_verify_regular(pts, heights, sub)
        assert not verify_regular(pts, heights, sub)

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
        # 72 cells, one elimination each (36 of 4 rows, 36 of 5); the walls
        # of the 36 simplices are read off, the 36 five-point cells are
        # circuits whose walls one elimination of their affine dependence
        # gives (4 rows), and each of the 36 unmatched walls on the
        # boundary takes one more (3 rows).  The degree check tests a
        # point inside the first unmatched wall against the 8 other
        # triangles on its hull facet, and the second edge of each, 2
        # eliminations of 2 rows, puts it outside: 16 more
        assert (len(cells), sum(len(c) == 4 for c in cells)) == (72, 36)
        assert Counter(calls) == {4: 36 + 36, 5: 36, 3: 36, 2: 8 * 2}
        assert len(calls) == 72 + 36 + 36 + 16 == 160


def reference_cell_walls(rows):
    """The walls of a cell, given as homogeneous rows of its points in
    R^dim (dim the row length less 1), by testing every dim-subset."""
    dim = len(rows[0]) - 1
    walls = {}
    for subset in combinations(range(len(rows)), dim):
        nu = _hyperplane([rows[i] for i in subset])
        if nu is None:
            continue
        sides = [dot(nu, row) for row in rows]
        if any(s > 0 for s in sides) and any(s < 0 for s in sides):
            continue
        walls.setdefault(tuple(i for i, s in enumerate(sides) if s == 0), subset)
    return walls


def column_scaled_rows(pts, heights):
    """The ids in sorted order and the points' integer rows (x, h, 1):
    each column of coordinates and of heights scaled by the lcm of its
    denominators, a diagonal map that keeps every hyperplane and side."""
    pts = sorted(pts)
    cols = [[F(p[a]) for _, p in pts] for a in range(len(pts[0][1]))]
    cols.append([F(heights[v]) for v, _ in pts])
    scales = [lcm(*(f.denominator for f in col)) for col in cols]
    rows = [tuple(int(f * s) for f, s in zip(row, scales)) + (1,) for row in zip(*cols)]
    return [v for v, _ in pts], rows, len(cols) - 1


def reference_verify_regular(pts, heights, sub):
    """verify_regular with two eliminations per cell (projected rank, then
    lifted plane) and walls by subset search for every cell, on rows
    scaled by column, not by row as the kernels scale them."""
    ids, rows, dim = column_scaled_rows(pts, heights)
    projected = [row[:dim] + (1,) for row in rows]
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
            raise DegenerateInput("too few points")
        proj_rank, _ = _rank_and_nullvector([projected[i] for i in idxs], dim + 1)
        if proj_rank < dim + 1:
            raise DegenerateInput("cell does not span full dimension")
        _, nu = _rank_and_nullvector([rows[i] for i in idxs], dim + 2)
        if nu is None or nu[dim] == 0:
            return False
        if nu[dim] < 0:
            nu = tuple(-x for x in nu)
        if any(dot(nu, row) <= 0 for i, row in enumerate(rows) if i not in idxs):
            return False
    counts = {}
    for idxs in cell_indices:
        for onset_local in reference_cell_walls([projected[i] for i in idxs]):
            onset = tuple(sorted(idxs[i] for i in onset_local))
            counts[onset] = counts.get(onset, 0) + 1
    for onset, count in counts.items():
        if count == 2:
            continue
        if count > 2:
            return False
        _, nu = _rank_and_nullvector([projected[i] for i in onset], dim + 1)
        if nu is None:
            return False
        sides = [dot(nu, row) for row in projected]
        if any(s > 0 for s in sides) and any(s < 0 for s in sides):
            return False
    return True


# How verify_regular and the reference refuse a cell that does not span
# full dimension.  Any other refusal, such as a cell with a vertex not in
# the configuration, is no outcome to compare.
DEGENERATE_CELL = re.compile(
    r"cell with \d+ points in dimension \d+|too few points|cell does not span full dimension"
)


def outcome(verify, pts, heights, sub):
    try:
        return verify(pts, heights, sub)
    except DegenerateInput as exc:
        if not DEGENERATE_CELL.fullmatch(str(exc)):
            raise
        return "degenerate cell"


def random_lower_hull(rng, dim):
    """Distinct points on a small grid (many collinear and coplanar ones),
    random heights, and the cells of the lower hull of the lift."""
    coords = set()
    while len(coords) < rng.randint(dim + 2, 9):
        coords.add(tuple(F(rng.randint(-2, 2)) for _ in range(dim)))
    pts = [(R(i), p) for i, p in enumerate(sorted(coords))]
    heights = {v: F(rng.randint(0, 6), rng.choice((1, 2))) for v, _ in pts}
    return pts, heights, lower_hull_cells(pts, heights)


def lower_hull_cells(pts, heights):
    facets = convex_hull([(v, p + (heights[v],)) for v, p in pts])
    return [set(f.vertices) for f in lower_facets(facets)]


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
        # a second stream, so the cases drawn from rng stay the same
        shuffle = random.Random(dim)
        seen = {True: 0, False: 0, "degenerate cell": 0}
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
                shuffled = shuffle.sample(pts, len(pts))
                assert outcome(verify_regular, shuffled, hs, sub) == expected, (shuffled, hs, claimed)
                seen[expected] += 1
        assert min(seen[True], seen[False]) >= 200 and seen["degenerate cell"] >= 5, seen

    def test_simplex_walls_read_off_match_the_subset_search(self):
        rng = random.Random(1968)
        read_off = 0
        for _ in range(300):
            dim = rng.choice((1, 2, 3))
            # each point's homogeneous row times a positive factor, as
            # verify_regular passes its rows
            drawn = [
                (tuple(rng.randint(-3, 3) for _ in range(dim)), rng.randint(1, 7))
                for _ in range(dim + 1)
            ]
            rows = [tuple(c * x for x in p) + (c,) for p, c in drawn]
            # _cell_walls is only given cells that span R^dim
            if fraction_rank(rows, dim + 1) == dim + 1:
                walls = _cell_walls(rows)
                assert list(walls.items()) == list(reference_cell_walls(rows).items()), rows
                read_off += 1
        assert read_off >= 150

    def test_affinely_dependent_points_are_searched(self):
        # three points on a line and one off it: one wall through the
        # three, not the three pairs that a triangle would have
        rows = [(0, 0, 1), (1, 1, 1), (4, 4, 2), (0, 1, 1)]
        assert fraction_rank(rows, 3) == 3
        assert _cell_walls(rows) == reference_cell_walls(rows) == {
            (0, 1, 2): (0, 1), (0, 3): (0, 3), (2, 3): (2, 3)
        }


def grid_cell(rng, dim, n, bound):
    """n distinct points of the grid {-bound..bound}^dim that span it, each
    as its homogeneous row times a positive factor, as verify_regular
    passes its rows."""
    grid = list(product(range(-bound, bound + 1), repeat=dim))
    while True:
        rows = []
        for p in sorted(rng.sample(grid, n)):
            c = rng.randint(1, 7)
            rows.append(tuple(c * x for x in p) + (c,))
        if fraction_rank(rows, dim + 1) == dim + 1:
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
        cells.append([p + (1,) for p in flat])
        calls = counting_kernel(monkeypatch)
        circuits = []
        for rows in cells:
            del calls[:]
            walls = _cell_walls(rows)
            made = len(calls)
            assert set(walls) == set(reference_cell_walls(rows)), rows
            for onset, span in walls.items():
                nu = _hyperplane([rows[i] for i in span])
                assert nu is not None and len(span) == dim, rows
                assert tuple(i for i, row in enumerate(rows) if dot(nu, row) == 0) == onset
            circuit = all(
                fraction_rank([rows[i] for i in s], dim + 1) == dim + 1
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
            walls = _cell_walls(rows)
            subsets += comb(len(rows), dim)
            made += len(calls)
            assert list(walls.items()) == list(reference_cell_walls(rows).items()), rows
        # on a 3^dim grid many subsets lie on a plane found before them
        assert made < subsets * 3 // 4, (made, subsets)


def two_sheets(dim):
    """The grid {-2, 0, 2}^dim, heights and two covers of its cube that
    share no wall onset, each folding convexly across every wall: sheet
    one cones the centre over the corners of each facet, sheet two uses
    every point.  Sheet two is the regular subdivision; in the union,
    every facet of the cube is tiled twice by unmatched walls."""
    grid = sorted(product((-2, 0, 2), repeat=dim))
    ids = {p: R(i) for i, p in enumerate(grid)}
    centre = (0,) * dim
    # the centre low enough that each sheet folds convexly at the cube's
    # ridges; in the plane it must stay above the ears' planes
    heights = {ids[p]: F(sum(x * x for x in p) - 4) for p in grid}
    heights[ids[centre]] = F({2: -1, 3: -100}[dim])
    corners = [p for p in grid if 0 not in p]
    one, two = [], set()
    for a, s in product(range(dim), (-2, 2)):
        mid = tuple(s if i == a else 0 for i in range(dim))
        on = [c for c in corners if c[a] == s]
        one.append({ids[centre]} | {ids[c] for c in on})
        for c in on:
            if dim == 2:
                # the centre's cone over the square of facet midpoints, and
                # the ears outside it
                turn = tuple(0 if i == a else x for i, x in enumerate(c))
                two |= {frozenset({centre, mid, turn}), frozenset({mid, c, turn})}
            else:
                # through the midpoints of the facet's ridges at c
                ridge_mids = [tuple(0 if i == b else x for i, x in enumerate(c)) for b in range(dim) if b != a]
                two |= {frozenset({centre, mid, e, c}) for e in ridge_mids}
    if dim == 3:
        # the ridge midpoints lie a little above the facets' paraboloid,
        # so each facet's four squares fold along the diagonals from mid
        for p in grid:
            if p.count(0) == 1:
                heights[ids[p]] += 1
    return [(ids[p], tuple(map(F, p))) for p in grid], heights, one, [{ids[p] for p in c} for c in two]


class TestDegreeCheck:
    """The degree check of verify_regular, _covered_once: folds and
    matching alone accept a cover that tiles the hull twice."""

    @pytest.mark.parametrize("dim", [2, 3])
    def test_the_degree_check_alone_refuses_a_hull_facet_tiled_twice(self, dim, monkeypatch):
        pts, heights, one, two = two_sheets(dim)
        both = Subdivision.of(one + two)
        assert verify_regular(pts, heights, Subdivision.of(two))
        assert not verify_regular(pts, heights, Subdivision.of(one))
        assert not reference_verify_regular(pts, heights, both)
        assert not verify_regular(pts, heights, both)
        monkeypatch.setattr(geometry, "_covered_once", lambda *args: True)
        assert verify_regular(pts, heights, both)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_a_centroid_on_the_boundary_of_another_wall_is_in_its_closure(self, dim):
        pts, _, one, two = two_sheets(dim)
        # integer points: each homogeneous row is (x, 1), and the point
        # _covered_once tests in a wall is its centroid
        ids, rows, _ = _int_config(pts, None)
        nu = (1,) + (0,) * (dim - 1) + (-2,)  # the facet x = 2, outward

        def on_facet(cells):
            return [tuple(i for i, v in enumerate(ids) if v in c and rows[i][0] == 2) for c in cells]

        (square,) = [w for w in on_facet(one) if len(w) == 2 ** (dim - 1)]
        tiles = [w for w in on_facet(two) if len(w) == dim]
        assert len(tiles) == {2: 2, 3: 8}[dim]
        # the square's centroid is the facet's centre, a vertex of every tile
        for tile in tiles:
            assert not geometry._covered_once(rows, nu, square, [tile])
            assert not geometry._covered_once(rows, nu, tile, [square])
            # the tiles of sheet two meet only on their boundaries
            assert geometry._covered_once(rows, nu, tile, [t for t in tiles if t != tile])

    @pytest.mark.parametrize("dim", [2, 3])
    def test_unions_of_two_lower_hulls_get_the_reference_answer(self, dim):
        rng = random.Random(2600 + dim)
        seen = {True: 0, False: 0}
        differ = 0
        for _ in range(150):
            try:
                pts, h1, cells1 = random_lower_hull(rng, dim)
            except DegenerateInput:
                continue  # not full-dimensional
            if rng.random() < 0.5:
                h2 = {v: F(rng.randint(0, 6), rng.choice((1, 2))) for v in h1}
            else:
                h2 = dict(h1)
                for v in rng.sample(sorted(h1), rng.randint(1, 3)):
                    h2[v] += rng.choice((1, 2, 3))
            try:
                cells2 = lower_hull_cells(pts, h2)
            except DegenerateInput:
                continue  # the lifted points lie on one plane
            union = {frozenset(c) for c in cells1} | {frozenset(c) for c in cells2}
            differ += len(union) > len(cells1)
            # lower hull cells are full-dimensional, so no claim raises
            for hs, claimed in ((h1, union), (h2, union), (h2, cells1), (h1, cells2)):
                sub = Subdivision.of(claimed)
                expected = reference_verify_regular(pts, hs, sub)
                assert verify_regular(pts, hs, sub) == expected, (pts, hs, claimed)
                seen[expected] += 1
        assert differ >= 75 and min(seen.values()) >= 100, (seen, differ)


class TestAztecLift:
    @pytest.mark.parametrize("k", [4, 1, -3])
    def test_k_must_be_odd_and_at_least_3(self, k):
        with pytest.raises(DegenerateInput, match="^need odd k >= 3$"):
            aztec_lift(k)

    def test_k3_frozen_values(self):
        # worked out by hand from the coplanarity conditions with squared
        # ring heights: ring (1,1) -> 2, pentagon planes z = 2y and z = 2x
        lift = aztec_lift(3)
        assert lift.omega[(0, 0)] == 0
        assert lift.omega[(1, 1)] == 2
        assert lift.omega[(1, 3)] == 6
        assert lift.omega[(3, 1)] == 6
        assert lift.omega[(3, 3)] == 10
        assert lift.alpha == {1: 0, 3: 4, -1: 0, -3: 4}
        assert lift.beta == {3: 6, 1: 2, -3: 6, -1: 2}

    def test_k3_cell_counts(self):
        lift = aztec_lift(3)
        sizes = sorted(len(c) for c in lift.cells)
        assert len(lift.cells) == 8  # 4 rectangles + 4 pentagons
        assert sizes == [4, 4, 4, 4, 5, 5, 5, 5]

    def test_k5_frozen_values(self):
        lift = aztec_lift(5)
        assert lift.alpha[1] == 0 and lift.alpha[3] == 5
        assert lift.alpha[5] == F(35, 3)
        assert lift.beta[1] == 5 and lift.beta[3] == 10
        assert lift.beta[5] == F(50, 3)

    def test_k5_and_k7_structure(self):
        for k, rects, quads in ((5, 12, 4), (7, 24, 8)):
            lift = aztec_lift(k)
            n_cells = len(lift.cells)
            assert n_cells == rects + quads + 4

    def test_symmetry_split_and_center(self):
        lift = aztec_lift(5)
        assert lift.omega[(0, 0)] == 0
        for i in range(-5, 6, 2):
            for j in range(-5, 6, 2):
                assert lift.omega[(i, j)] == lift.alpha[i] + lift.beta[j]
                assert lift.omega[(i, j)] == lift.omega[(-i, j)] == lift.omega[(i, -j)]


class TestComposeAndSearch:
    def test_eps_zero_is_identity(self):
        coarse = {R(0): F(1), R(1): F(2)}
        fine = {R(0): F(5), R(1): F(-3)}
        assert compose_lift(coarse, fine, F(0)) == coarse

    def test_the_parts_must_share_their_points(self):
        with pytest.raises(DegenerateInput, match="^coarse and fine lifts must share the vertex set$"):
            compose_lift({R(0): F(1), R(1): F(2)}, {R(0): F(5)}, F(1, 2))

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
        with pytest.raises(DegenerateInput, match="^no dyadic perturbation certified the target$"):
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
            tuple(sorted(R(v.data[0]) for v in f))
            for f in cyclic_polytope_facets(7, 4).facets
        }
        assert {f.vertices for f in facets} == expected

    def test_degenerate_rejected(self):
        flat = [(R(i), pt(i, i, 0, 0)) for i in range(6)]
        for hull in (convex_hull_brute, convex_hull):
            with pytest.raises(DegenerateInput):
                hull(flat)

    def test_outward_normals(self):
        assert_supporting(convex_hull_brute(simplex_points_r4()), simplex_points_r4())
        # the apex hulls of lifts with fractional heights, 16 and 80 facets
        for k, l in ((3, 1), (3, 3)):
            pts = lifted_points(k, l)
            facets, apex_pt = hull_with_apex(pts, VertexId.cone())
            assert len(facets) == {1: 16, 3: 80}[l]
            assert_supporting(facets, pts + [(VertexId.cone(), apex_pt)])


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

    def test_a_hull_of_another_dimension_is_refused(self):
        tetrahedron = [(R(i), p) for i, p in enumerate([pt(0, 0, 0), pt(1, 0, 0), pt(0, 1, 0), pt(0, 0, 1)])]
        facets = convex_hull_brute(tetrahedron)
        with pytest.raises(DegenerateInput, match="^facet classification expects a 4-dimensional hull$"):
            detect_bipyramid_facets(facets, tetrahedron)

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

    def test_kinds_do_not_depend_on_point_order_or_scaling(self):
        # an extra point inside the hull, off every facet, at coordinates
        # over 13: its row gets a factor of 13, and each row is its own
        # point times the lcm of that point's denominators
        pts = lifted_points(3, 1)
        facets, apex_pt = hull_with_apex(pts, VertexId.cone())
        pts = pts + [(VertexId.cone(), apex_pt)]
        centroid = [sum(col) / len(pts) for col in zip(*(p for _, p in pts))]
        extra = (R(99), tuple((12 * c + a) / 13 for c, a in zip(centroid, pts[0][1])))
        ids, rows, _ = _int_config(pts + [extra], None)
        at = dict(pts + [extra])
        for v, row in zip(ids, rows):
            factor = lcm(*(x.denominator for x in at[v]))
            assert row == tuple(int(x * factor) for x in at[v]) + (factor,)
            assert (row[-1] % 13 == 0) == (v == R(99))
        count, kinds = detect_bipyramid_facets(facets, pts)
        assert count == 4
        assert detect_bipyramid_facets(facets, pts[::-1]) == (count, kinds)
        assert detect_bipyramid_facets(facets, pts + [extra]) == (count, kinds)

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


def fraction_null_space(rows, ncols):
    """Reference rank and null-space basis by reduced row echelon form
    over the rationals, each basis vector scaled to a primitive integer
    vector."""
    m = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    for col in range(ncols):
        r = len(pivots)
        src = next((i for i in range(r, len(m)) if m[i][col]), None)
        if src is None:
            continue
        m[r], m[src] = m[src], m[r]
        m[r] = [x / m[r][col] for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][col]:
                f = m[i][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(col)
    basis = []
    for free in (c for c in range(ncols) if c not in pivots):
        v = [Fraction(0)] * ncols
        v[free] = Fraction(1)
        for row, col in zip(m, pivots):
            v[col] = -row[free]
        scale = lcm(*(x.denominator for x in v))
        ints = [int(x * scale) for x in v]
        g = gcd(*ints)
        basis.append(tuple(x // g for x in ints))
    return len(pivots), basis


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

    def test_forward_elimination_matches_the_fraction_null_space(self):
        rng = random.Random(1999)
        nullity_one = dependent = 0
        for _ in range(10_000):
            nrows, ncols = rng.randint(1, 5), rng.randint(2, 6)
            bound = rng.choice((1, 3, 10 ** 6))
            rows = [[rng.randint(-bound, bound) for _ in range(ncols)] for _ in range(nrows)]
            for col in range(ncols):
                if rng.random() < 0.15:
                    for row in rows:
                        row[col] = 0
            if nrows > 1 and rng.random() < 0.5:
                # a row made from one or two others
                i, *others = rng.sample(range(nrows), min(nrows, rng.randint(2, 3)))
                rows[i] = [sum(rng.randint(-3, 3) * rows[j][c] for j in others) for c in range(ncols)]
                dependent += 1
            rows = [tuple(row) for row in rows]
            rank, v = _rank_and_nullvector(rows, ncols)
            expected_rank, basis = fraction_null_space(rows, ncols)
            assert rank == expected_rank, rows
            assert (v is None) == (len(basis) != 1), rows
            if v is not None:
                nullity_one += 1
                assert v in (basis[0], tuple(-x for x in basis[0])), rows
        assert nullity_one >= 2000 and dependent >= 3000, (nullity_one, dependent)

    def test_hyperplane_none_exactly_for_affinely_dependent_points(self):
        rng = random.Random(22)
        for _ in range(300):
            k = rng.randint(1, 4)
            bound = rng.choice((2, 10 ** 6))
            points = [tuple(rng.randint(-bound, bound) for _ in range(k)) for _ in range(k)]
            if k > 1 and rng.random() < 0.2:
                points[0] = points[1]
            homog = [p + (1,) for p in points]
            nu = _hyperplane(homog)
            assert (nu is None) == (fraction_rank(homog, k + 1) < k), points
            if nu is not None:
                assert all(dot(nu, h) == 0 for h in homog)
            # a positive factor on a row changes no null vector
            assert _hyperplane([tuple(c * x for x in h) for c, h in zip((3, 1, 5, 2), homog)]) == nu


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

    def test_apex_beyond_the_upper_facets_of_a_fractional_set(self):
        # the columns have different integer factors, and the apex clears
        # the upper facet {r:4, r:5} only with a bound that applies them
        # to the centroid as to the normals
        pts = [(R(i), pt(*p)) for i, p in enumerate(
            [(5, 5), (2, 4), (F(-3, 2), 0), (-1, 1), (0, 7), (-2, -2), (F(-1, 7), 3)]
        )]
        facets, apex_pt = hull_with_apex(pts, VertexId.cone())
        assert facets == convex_hull_brute(pts + [(VertexId.cone(), apex_pt)])
        assert {R(4), R(5)} not in [set(f.vertices) for f in facets]

    def test_apex_hull_is_the_brute_force_hull_on_random_sets(self):
        # coordinates in -6..6 over 1, 2, 3 or 7, so that the columns get
        # different integer factors
        rng = random.Random(3)
        for _ in range(160):
            dim = rng.choice((2, 3, 4))
            pts = [
                (R(i), tuple(F(rng.randint(-6, 6), rng.choice((1, 2, 3, 7))) for _ in range(dim)))
                for i in range(rng.randint(dim + 1, 12))
            ]
            try:
                convex_hull_brute(pts)
            except DegenerateInput:
                continue
            facets, apex_pt = hull_with_apex(pts, VertexId.cone())
            assert facets == convex_hull_brute(pts + [(VertexId.cone(), apex_pt)]), pts

    def test_an_apex_among_the_points_is_refused(self):
        pts = [(R(0), pt(0, 0)), (R(1), pt(1, 0)), (VertexId.cone(), pt(0, 1))]
        with pytest.raises(DegenerateInput, match="apex c is already a point"):
            hull_with_apex(pts, VertexId.cone())


def lifted_points(k, l):
    lift = build_aztec_lift(k, l)
    return [(v, p + (lift.heights[v],)) for v, p in lift.config.points]


def random_rational_points(rng, dim):
    """Up to 14 points with coordinates in {-2..2} / {1, 2}: many coplanar
    points and non-simplicial facets.  A point drawn at the place of an
    earlier one is dropped, as the kernels refuse two points at one place."""
    n = rng.randint(dim + 1, 14)
    bound = rng.choice((1, 2))
    drawn = [
        (R(i), tuple(F(rng.randint(-bound, bound), rng.choice((1, 2))) for _ in range(dim)))
        for i in range(n)
    ]
    at = {}
    for v, p in drawn:
        at.setdefault(p, v)
    return [(v, p) for p, v in at.items()]


class TestGiftWrap:
    """convex_hull against the brute-force oracle, as whole facet lists."""

    def test_matches_brute_force_on_random_sets(self):
        rng = random.Random(1970)
        # a second stream, so the point sets drawn from rng stay the same
        shuffle = random.Random(4)
        compared = {dim: 0 for dim in (1, 2, 3, 4)}
        for _ in range(240):
            dim = rng.choice((1, 2, 3, 4))
            pts = random_rational_points(rng, dim)
            shuffled = shuffle.sample(pts, len(pts))
            try:
                expected = convex_hull_brute(pts)
            except DegenerateInput:
                for hull, points in product((convex_hull, convex_hull_brute), (pts, shuffled)):
                    with pytest.raises(DegenerateInput):
                        hull(points)
                continue
            assert convex_hull(pts) == expected, pts
            assert convex_hull(shuffled) == convex_hull_brute(shuffled) == expected, shuffled
            compared[dim] += 1
        assert min(compared.values()) >= 40

    @pytest.mark.parametrize("k", [3, 5])
    def test_matches_brute_force_on_lifts(self, k):
        pts = lifted_points(k, 1)
        facets = convex_hull(pts)
        assert facets == convex_hull_brute(pts) == convex_hull(pts[::-1])
        assert all(type(f.vertices) is tuple and list(f.vertices) == sorted(set(f.vertices)) for f in facets)
        facets, apex_pt = hull_with_apex(pts, VertexId.cone())
        assert facets == convex_hull_brute(pts + [(VertexId.cone(), apex_pt)])
        assert hull_with_apex(pts[::-1], VertexId.cone()) == (facets, apex_pt)
        # 1 above the highest upper facet over the centroid
        assert apex_pt[-1] == {3: 23, 5: F(161, 3)}[k]

    def test_one_side_pass_per_facet_found(self, monkeypatch):
        passes = []
        sides, first_facet = geometry._sides, geometry._first_facet

        def counting(nu, rows):
            passes.append(nu)
            return sides(nu, rows)

        def first_facet_uncounted(rows, dim):
            # the search for the first facet makes passes of its own
            before = len(passes)
            out = first_facet(rows, dim)
            del passes[before:]
            return out

        monkeypatch.setattr(geometry, "_sides", counting)
        monkeypatch.setattr(geometry, "_first_facet", first_facet_uncounted)
        rng = random.Random(26)
        for pts in [lifted_points(3, 1)] + [random_rational_points(rng, 4) for _ in range(20)]:
            del passes[:]
            try:
                facets = convex_hull(pts)
            except DegenerateInput:
                continue
            # a facet is pushed once per ridge crossed into it, and its side
            # values are computed at its first pop only
            assert sorted(passes) == sorted(f.normal + (-f.offset,) for f in facets), pts

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
                onset = [i for i, row in enumerate(rows) if dot(h1, row) == 0]
                drop = next(a for a, n in enumerate(f.normal) if n)
                chart = [rows[i][:drop] + rows[i][drop + 1:] for i in onset]
                for wall, span in reference_cell_walls(chart).items():
                    basis = [rows[onset[j]] for j in span]
                    ref = next(rows[i] for j, i in enumerate(onset) if j not in wall)
                    expected, _ = pivot_reference(rows, basis, ref, frozenset(onset))
                    sides = [dot(h1, row) for row in rows]
                    nu, last = geometry._pivot(rows, basis, ref, h1, sides)
                    assert nu == expected, (pts, f)
                    # the point returned is on the new facet and off the old one
                    assert dot(nu, rows[last]) == 0 != dot(h1, rows[last])
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
        (hole,) = lift.manifest.holes
        assert hole.key == (1, 1)
        assert heights[hole.apex] > lift.heights[hole.apex]

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
        with pytest.raises(DegenerateInput, match="^raising centers by 1000000 breaks regularity$"):
            raise_centers(lift, F(10 ** 6))

    @pytest.mark.parametrize("delta", [0, F(-1, 2)])
    def test_delta_must_be_positive(self, delta):
        lift = build_aztec_lift(3, 1)
        with pytest.raises(DegenerateInput, match="^delta must be positive$"):
            raise_centers(lift, delta)
