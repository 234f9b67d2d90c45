"""Exact-rational realization: coordinates, lifts, regularity, hulls.

Everything here runs on arbitrary-precision rationals; there is no
floating point anywhere in this module.  Regularity of a subdivision is
always certified a posteriori by exact hyperplane tests, never assumed
from a construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm
from operator import attrgetter, mul

from .carvefill import FillManifest, realize
from .complexes import VertexId
from .constructions import build_aztec
from .errors import DegenerateInput, InternalInvariantViolation

Point = tuple[Fraction, ...]


@dataclass(frozen=True)
class LiftedConfiguration:
    """Exact rational points, at least one, each listed once, all with
    the same positive number of coordinates, at distinct coordinates and
    kept in vertex order, with a height for every point and for nothing
    else."""

    points: tuple[tuple[VertexId, Point], ...]
    heights: dict[VertexId, Fraction]

    def __post_init__(self) -> None:
        points = tuple(sorted(self.points))
        _check_points(points, self.heights)
        object.__setattr__(self, "points", points)


def _check_points(points, heights: dict[VertexId, Fraction] | None) -> None:
    """Refuse sorted points ``(id, coordinates)`` that break a rule of
    ``LiftedConfiguration``: none, an id listed twice, heights, if given,
    for other than exactly these points, a point with no coordinates,
    two numbers of coordinates, or two ids at one point."""
    if not points:
        raise DegenerateInput("no points")
    ids = [v for v, _ in points]
    twice = next((u for u, v in zip(ids, ids[1:]) if u == v), None)
    if twice is not None:
        raise DegenerateInput(f"point {twice.label} appears twice")
    if heights is not None:
        missing = next((v for v in ids if v not in heights), None)
        if missing is not None:
            raise DegenerateInput(f"point {missing.label} has no height")
        if len(heights) != len(ids):
            stray = min(heights.keys() - set(ids))
            raise DegenerateInput(f"height for {stray.label}, which is not a point")
    first, q = points[0]
    at: dict[Point, VertexId] = {}
    for v, p in points:
        if not p:
            raise DegenerateInput(f"point {v.label} has no coordinates")
        if len(p) != len(q):
            raise DegenerateInput(
                f"points {first.label} and {v.label} have {len(q)} and {len(p)} coordinates"
            )
        if at.setdefault(p, v) != v:
            coords = ",".join(str(c) for c in p)
            raise DegenerateInput(f"points {at[p].label} and {v.label} are both at ({coords})")


@dataclass(frozen=True)
class Subdivision:
    """Claimed cells of a subdivision, in sorted order: distinct cells,
    each the strictly sorted tuple of its vertex ids."""

    cells: tuple[tuple[VertexId, ...], ...]

    @classmethod
    def of(cls, cells) -> "Subdivision":
        """The subdivision of cells given as iterables of vertex ids, each
        in any order; DegenerateInput names the least vertex a cell lists
        twice, or a cell listed twice."""
        cells = sorted(tuple(sorted(c)) for c in cells)
        for cell in cells:
            twice = next((u for u, v in zip(cell, cell[1:]) if u == v), None)
            if twice is not None:
                raise DegenerateInput(f"a cell lists {twice.label} twice")
        twice = next((c for c, d in zip(cells, cells[1:]) if c == d), None)
        if twice is not None:
            labels = ",".join(v.label for v in twice)
            raise DegenerateInput(f"cell {{{labels}}} appears twice")
        return cls(tuple(cells))

    @classmethod
    def from_manifest(cls, manifest: FillManifest) -> "Subdivision":
        result = manifest.result
        return cls.of([*result.simplex_cells, *(f + g for f, g in result.free_cells)])

    def __len__(self) -> int:
        return len(self.cells)

    def check_points(self, points) -> "Subdivision":
        """This subdivision, if its cells use only the point ids in points;
        otherwise DegenerateInput names the first cell that does not."""
        for cell in self.cells:
            stray = next((v for v in cell if v not in points), None)
            if stray is not None:
                labels = ",".join(v.label for v in cell)
                raise DegenerateInput(f"cell {{{labels}}} uses {stray.label}, which is not a point")
        return self


# ---------------------------------------------------------------------------
# exact linear algebra helpers


def _primitive(vec) -> tuple[int, ...]:
    """A nonzero integer vector divided by the gcd of its entries."""
    g = gcd(*vec)
    return tuple(v // g for v in vec)


def _rank_and_nullvector(
    rows: list[tuple[int, ...]], ncols: int
) -> tuple[int, tuple[int, ...] | None]:
    """Row rank plus a primitive nullspace vector when the nullity is 1.

    Fraction-free forward elimination over the integers (Bareiss, Math.
    Comp. 22, 1968): each pivot updates only the rows below it and the
    columns right of it, by (p*a - f*b) // prev, which divides exactly
    because every entry is a minor of the rows.  When the nullity is 1,
    back-substitution sets the free entry to the last pivot, which is up
    to sign the determinant of the pivot rows in the pivot columns; by
    Cramer's rule every other entry of that null vector is then a signed
    minor too, an integer, so each division of the back-substitution is
    exact.  The vector is the one Gauss-Jordan elimination gives.
    """
    m = [list(row) for row in rows]
    pivot_cols: list[int] = []
    prev = 1
    rank = 0
    for col in range(ncols):
        for src in range(rank, len(m)):
            if m[src][col]:
                break
        else:
            continue
        m[rank], m[src] = m[src], m[rank]
        right = col + 1
        tail = m[rank][right:]
        p = m[rank][col]
        for row in m[rank + 1:]:
            f = row[col]
            row[right:] = [(p * a - f * b) // prev for a, b in zip(row[right:], tail)]
        prev = p
        pivot_cols.append(col)
        rank += 1
    if rank != ncols - 1:
        return rank, None
    free = next(c for c in range(ncols) if c not in pivot_cols)
    sol = [0] * ncols
    sol[free] = prev
    for row, col in zip(m[rank - 1::-1], pivot_cols[::-1]):
        sol[col] = -sum(map(mul, row[col + 1:], sol[col + 1:])) // row[col]
    return rank, _primitive(sol)


def _hyperplane(rows: list[tuple[int, ...]]) -> tuple[int, ...] | None:
    """Homogeneous normal of the hyperplane through k points in R^k, given
    as homogeneous rows: nu with nu . row = 0 for each row, or None if the
    points are affinely dependent."""
    return _rank_and_nullvector(rows, len(rows) + 1)[1]


def _int_config(
    pts, heights: dict[VertexId, Fraction] | None
) -> tuple[list[VertexId], list[tuple[int, ...]], int]:
    """The ids of the points ``(id, point)`` in sorted order, each point as
    one homogeneous integer row, and the dimension.  A row holds the
    point's coordinates, then its height if heights are given, then 1,
    all multiplied by the least common multiple of the row's own
    denominators.  A positive factor per row changes no null vector and
    no side sign, so every hyperplane through rows is primitive in the
    input's coordinates, (normal, -offset).  Row i is the i-th id's, so
    the indices of a sorted cell come out sorted.  The points and
    heights obey the rules of ``LiftedConfiguration`` (_check_points)."""
    pts = sorted(pts)
    _check_points(pts, heights)
    rows = []
    for v, p in pts:
        row = [Fraction(x) for x in (p if heights is None else (*p, heights[v]))]
        c = lcm(*(f.denominator for f in row))
        rows.append(tuple(f.numerator * (c // f.denominator) for f in row) + (c,))
    return [v for v, _ in pts], rows, len(pts[0][1])


def _chart(rows: list[tuple[int, ...]], normal: tuple[int, ...]) -> list[tuple[int, ...]]:
    """The homogeneous rows of points on a hyperplane with this normal, in
    a chart of it: dropping a coordinate where the normal is nonzero maps
    the hyperplane bijectively and affinely onto a space of one dimension
    less, so the image of its points has their faces."""
    drop = next(a for a, n in enumerate(normal) if n)
    return [row[:drop] + row[drop + 1:] for row in rows]


def _sides(nu: tuple[int, ...], rows: list[tuple[int, ...]]) -> list[int]:
    """The hyperplane nu evaluated on every row: the side of each point."""
    return [sum(map(mul, nu, row)) for row in rows]


# ---------------------------------------------------------------------------
# regularity verification


def _cell_walls(rows: list[tuple[int, ...]]) -> dict[tuple[int, ...], tuple[int, ...]]:
    """Supporting (dim-1)-hyperplanes of a full-dimensional cell in R^dim,
    given as the homogeneous rows of its points (dim is the row length
    less 1; every caller has established that the rows have rank dim+1),
    as onsets (the sorted indices into rows of the points on each), each
    mapped to the first dim affinely independent points, in subset order,
    that span it.

    A simplex (dim+1 rows) has exactly its dim-subsets as walls, each
    spanned by itself.  A circuit (dim+2 rows, any dim+1 of them affinely
    independent) has its walls read off its affine dependence.  Other
    cells are searched by testing every dim-subset of their points that
    does not lie on a plane already computed.
    """
    n = len(rows)
    dim = len(rows[0]) - 1
    if n == dim + 1:
        return {s: s for s in combinations(range(n), dim)}
    walls: dict[tuple[int, ...], tuple[int, ...]] = {}
    if n == dim + 2:
        # The one linear dependence sum(lam_i * row_i) = 0 of the rows.
        # Row i is c_i * (p_i, 1) with c_i > 0, so the affine dependence of
        # the points is lam_i * c_i, with the signs of lam.  If no lam_i is
        # 0, any dim+1 of the points are affinely independent, so a wall
        # holds exactly dim points: all but some i and j.  Applying the
        # plane h through them to the dependence gives
        # h(row_i)*lam_i + h(row_j)*lam_j = 0, and neither h value is 0, or
        # dim+1 points would lie on h.  So p_i and p_j lie on the same
        # side of h, and h is a wall, exactly when lam_i*lam_j < 0.  Each
        # wall is spanned by itself.
        lam = _rank_and_nullvector(list(zip(*rows)), n)[1]
        if all(lam):
            for s in combinations(range(n), dim):
                i, j = (t for t in range(n) if t not in s)
                if (lam[i] < 0) != (lam[j] < 0):
                    walls[s] = s
            return walls
    # the dim-subsets of every plane found to hold more than dim points:
    # such a subset is dependent or spans that plane again
    known: set[tuple[int, ...]] = set()
    for subset in combinations(range(n), dim):
        if subset in known:
            continue
        nu = _hyperplane([rows[i] for i in subset])
        if nu is None:
            continue
        sides = [sum(map(mul, nu, row)) for row in rows]
        onset = tuple(i for i, s in enumerate(sides) if s == 0)
        if len(onset) > dim:
            known.update(combinations(onset, dim))
        if any(s > 0 for s in sides) and any(s < 0 for s in sides):
            continue
        walls[onset] = subset
    return walls


def verify_regular(
    pts: list[tuple[VertexId, Point]],
    heights: dict[VertexId, Fraction],
    sub: Subdivision,
) -> bool:
    """Exact check that the claimed cells are the regular subdivision
    induced by the heights: each cell's lifted points share a
    non-vertical plane, every point outside a cell lies strictly above
    its plane, and each wall is in two cells or supports the hull.

    Checks, from each cell's neighbours only: (1) each cell, in sorted
    order, is eliminated once on its lifted rows (x, h, 1), for its plane
    (refused if not full-dimensional, False if not planar) and walls
    (_cell_walls);
    (2) when a wall onset gets its second cell, each cell's points off
    it lie strictly above the other's plane, a convex fold, and a third
    cell opens the onset again; (3) every unmatched wall supports the
    configuration; (4) some wall is unmatched, and a point inside the
    first lies in the closure of no other unmatched wall on its
    hyperplane (_covered_once); (5) a point in no cell lies strictly
    above every plane.

    Proof.  A fold puts its cells on opposite sides of the wall (else the
    lower plane's cell has points below the other plane), so a third cell
    leaves an onset with cells on both sides, refused by (3), or a fourth
    makes two cells overlap, refused below.  Crossing a wall at a generic
    point trades each cell of a matched onset for its partner, and by (3)
    unmatched walls lie on the boundary, so every generic point of the
    hull is in the same number D of cells; entering near the point of (4)
    meets one cell, so D = 1.  (Folds and matching alone hold on a
    branched double cover, whose cells wind twice around a vertex like a
    pentagram.)  The cells around a face G are linked by walls through G,
    each shared exactly, so they hold the same points of G: the tiling is
    face to face, and the cellwise lift f is continuous and, by (2),
    convex, strictly across each wall.  A point p of another cell is on f
    outside this cell's closure; the segment to p leaves the cell through
    a matched wall beyond which f is strictly above the plane, so p is
    too.  (5) covers the rest, and a regular subdivision passes every
    check.  Only the order of checks differs from testing every point: an
    input with a degenerate cell and an earlier cell that is not regular
    may be refused as degenerate where that answered False, or the
    reverse.
    """
    ids, lifted, dim = _int_config(pts, heights)
    sub.check_points(heights)
    index = {v: i for i, v in enumerate(ids)}
    if not sub.cells:
        return False

    projected = [row[:dim] + row[dim + 1:] for row in lifted]
    planes: list[tuple[int, ...]] = []
    # the cell of each wall onset not yet matched
    unmatched: dict[tuple[int, ...], int] = {}
    covered: set[int] = set()
    for c, cell in enumerate(sub.cells):
        idxs = [index[v] for v in cell]
        if len(idxs) < dim + 1:
            raise DegenerateInput(f"cell with {len(idxs)} points in dimension {dim}")
        # Let A hold the cell's lifted rows (x, h, 1) and P the projected
        # rows (x, 1), which are A without its h column; removing a column
        # lowers the rank by at most 1, so rank P <= rank A <= rank P + 1.
        # rank A < dim+1: then rank P < dim+1, the cell is not
        #   full-dimensional.
        # rank A = dim+2: then rank P = dim+1, and the lifted points are
        #   on no common hyperplane.
        # rank A = dim+1: the null space of A is spanned by nu.  A null
        #   vector v of P gives the null vector (v, 0) of A, a multiple of
        #   nu.  So if nu's h entry is 0, then nu without it is a null
        #   vector of P and rank P < dim+1; otherwise P has no null vector,
        #   rank P = dim+1, and nu is a non-vertical hyperplane.  A
        #   vertical lifted plane therefore always means a degenerate cell.
        rank, nu = _rank_and_nullvector([lifted[i] for i in idxs], dim + 2)
        if rank < dim + 1 or (nu is not None and nu[dim] == 0):
            raise DegenerateInput("cell does not span full dimension")
        if nu is None:
            return False  # lifted points not on a common hyperplane
        if nu[dim] < 0:
            nu = tuple(-x for x in nu)
        planes.append(nu)
        covered.update(idxs)
        # the cell has passed the checks above, so its projected rows
        # have rank dim+1
        for onset_local in _cell_walls([projected[i] for i in idxs]):
            onset = tuple(idxs[i] for i in onset_local)
            other = unmatched.pop(onset, None)
            if other is None:
                unmatched[onset] = c
            elif not (
                _above(planes[other], lifted, idxs, onset)
                and _above(nu, lifted, [index[v] for v in sub.cells[other]], onset)
            ):
                return False  # not a convex fold

    walls = list(unmatched)
    if not walls:
        return False
    # the outward normal of each unmatched wall; walls on one hull facet
    # share it, and its side pass is made once
    normals: list[tuple[int, ...]] = []
    supporting: set[tuple[int, ...]] = set()
    for onset in walls:
        _, nu = _rank_and_nullvector([projected[i] for i in onset], dim + 1)
        if nu is None:
            return False
        flipped = tuple(-x for x in nu)
        if flipped in supporting:
            nu = flipped
        elif nu not in supporting:
            sides = _sides(nu, projected)
            if max(sides) > 0:
                if min(sides) < 0:
                    return False  # an unmatched interior wall
                nu = flipped
            supporting.add(nu)
        normals.append(nu)
    first = normals[0]
    on_first = [w for w, nu in zip(walls[1:], normals[1:]) if nu == first]
    if not _covered_once(projected, first, walls[0], on_first):
        return False
    return all(
        all(sum(map(mul, nu, row)) > 0 for nu in planes)
        for i, row in enumerate(lifted)
        if i not in covered
    )


def _above(nu: tuple[int, ...], lifted, idxs: list[int], wall: tuple[int, ...]) -> bool:
    """Whether the lifted points idxs off the wall lie strictly above the
    plane nu, oriented up."""
    return all(sum(map(mul, nu, lifted[i])) > 0 for i in idxs if i not in wall)


def _covered_once(
    rows: list[tuple[int, ...]],
    nu: tuple[int, ...],
    first: tuple[int, ...],
    others: list[tuple[int, ...]],
) -> bool:
    """Whether a point inside the wall first lies in the closure of none
    of the walls others, all on the hyperplane nu: in its _chart, as
    convex_hull reads it, it must be strictly outside one wall of each.
    The point, the sum of the first wall's homogeneous rows, is a
    positively weighted mean of its points; it is in the closure of
    another wall on the hyperplane only if the two walls overlap."""
    chart = _chart(rows, nu)
    total = [sum(col) for col in zip(*(chart[i] for i in first))]
    for wall in others:
        points = [chart[i] for i in wall]
        for onset, span in _cell_walls(points).items():
            g = _hyperplane([points[j] for j in span])
            side = sum(map(mul, g, total))
            ref = next(p for j, p in enumerate(points) if j not in onset)
            if side and (side > 0) != (sum(map(mul, g, ref)) > 0):
                break  # the point is outside this wall
        else:
            return False
    return True


def compose_lift(
    coarse: dict[VertexId, Fraction],
    fine: dict[VertexId, Fraction],
    eps: Fraction,
) -> dict[VertexId, Fraction]:
    """Pointwise coarse + eps * fine on a shared vertex set."""
    if set(coarse) != set(fine):
        raise DegenerateInput("coarse and fine lifts must share the vertex set")
    eps = Fraction(eps)
    return {v: coarse[v] + eps * fine[v] for v in coarse}


EPS_SEARCH_MAX_EXPONENT = 64


def eps_search(
    pts: list[tuple[VertexId, Point]],
    coarse: dict[VertexId, Fraction],
    fine: dict[VertexId, Fraction],
    target: Subdivision,
) -> Fraction:
    """Largest dyadic eps = 2**-t (t <= 64) whose composition certifies
    the target subdivision."""
    for t in range(1, EPS_SEARCH_MAX_EXPONENT + 1):
        eps = Fraction(1, 2 ** t)
        if verify_regular(pts, compose_lift(coarse, fine, eps), target):
            return eps
    raise DegenerateInput("no dyadic perturbation certified the target")


# ---------------------------------------------------------------------------
# coordinates


def standard_coordinates(n: int) -> dict[VertexId, Point]:
    """Two paths of n vertices each: the first on the line (t, 0, 1), the
    second on (0, t, -1)."""
    if n < 2:
        raise DegenerateInput("paths need at least 2 vertices")
    out: dict[VertexId, Point] = {}
    for i in range(1, n + 1):
        out[VertexId.path(1, i)] = (Fraction(i), Fraction(0), Fraction(1))
        out[VertexId.path(2, i)] = (Fraction(0), Fraction(i), Fraction(-1))
    return out


# ---------------------------------------------------------------------------
# the square-grid hole lift


@dataclass(frozen=True)
class AztecPatchLift:
    """Split lift of one k x k midpoint grid with a central hole.

    omega is defined on grid keys (i, j), i and j odd in [-k, k], plus the
    center key (0, 0); it splits as alpha[i] + beta[j] on the grid and is
    0 at the center.  cells is the induced subdivision, verified regular.
    """

    k: int
    points: dict[tuple[int, int], tuple[Fraction, Fraction]]
    omega: dict[tuple[int, int], Fraction]
    alpha: dict[int, Fraction]
    beta: dict[int, Fraction]
    cells: tuple[tuple[tuple[int, int], ...], ...]


def aztec_lift(k: int) -> AztecPatchLift:
    """Split lifting of the midpoint grid of one hole, at the coordinates
    -k, -k+2, ..., k on both axes.

    Heights on the outer staircase corners are squared distances from the
    center (keeping the central star lifted strictly convex with rational
    arithmetic); the remaining values follow from coplanarity of the hole
    cells, and the result splits as alpha + beta.  The induced subdivision
    (grid rectangles outside the hole, 2k-6 quadrilaterals and 4 pentagons
    joined to the center) is certified by verify_regular.
    """
    if k < 3 or k % 2 == 0:
        raise DegenerateInput("need odd k >= 3")

    # ring: squared distance at the staircase corners (i, k-1-i)
    ring = {i: Fraction(i * i + (k - 1 - i) ** 2) for i in range(1, k - 1, 2)}

    # corner heights omega_{i, k+1-i}: at i = 1 and i = k, those of the
    # pentagons of the top and right arms, whose planes pass through the
    # center and the ring point at distance k-2 along the arm (ring[1] =
    # ring[k-2]); between them, derived
    corner = {1: ring[1] * k / (k - 2), k: ring[k - 2] * k / (k - 2)}
    for i in range(3, k - 1, 2):
        # plane through the origin and the ring points at (i, k-1-i) and
        # (i-2, k+1-i), whose determinant is 2k-2
        a1, b1, h1 = i, k - 1 - i, ring[i]
        a2, b2, h2 = i - 2, k + 1 - i, ring[i - 2]
        det = a1 * b2 - a2 * b1
        ca = (h1 * b2 - h2 * b1) / det
        cb = (a1 * h2 - a2 * h1) / det
        corner[i] = ca * i + cb * (k + 1 - i)

    alpha: dict[int, Fraction] = {1: Fraction(0)}
    beta: dict[int, Fraction] = {k: corner[1]}
    for i in range(3, k + 1, 2):
        alpha[i] = corner[i] - ring[i - 2] + alpha[i - 2]
        beta[k + 1 - i] = ring[i - 2] - corner[i - 2] + beta[k + 3 - i]
    for i in range(1, k + 1, 2):
        alpha[-i] = alpha[i]
        beta[-i] = beta[i]

    omega: dict[tuple[int, int], Fraction] = {(0, 0): Fraction(0)}
    points: dict[tuple[int, int], tuple[Fraction, Fraction]] = {
        (0, 0): (Fraction(0), Fraction(0))
    }
    for i in range(-k, k + 1, 2):
        for j in range(-k, k + 1, 2):
            omega[(i, j)] = alpha[i] + beta[j]
            points[(i, j)] = (Fraction(i), Fraction(j))
    for i in range(1, k - 1, 2):
        if omega[(i, k - 1 - i)] != ring[i]:
            raise InternalInvariantViolation("split lift does not reproduce the ring")

    cells = _aztec_patch_cells(k, points, omega)
    ids = {key: VertexId.raw(t) for t, key in enumerate(sorted(points))}
    pts = [(ids[key], points[key]) for key in sorted(points)]
    heights = {ids[key]: omega[key] for key in sorted(points)}
    sub = Subdivision.of([ids[key] for key in cell] for cell in cells)
    if not verify_regular(pts, heights, sub):
        raise InternalInvariantViolation("lift failed its own regularity check")
    return AztecPatchLift(k=k, points=points, omega=omega, alpha=alpha, beta=beta, cells=cells)


def _aztec_patch_cells(k, points, omega) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Cells of the patch subdivision, each the sorted tuple of its grid
    keys, with on-plane grid points included."""
    center = (0, 0)
    keys, rows, _ = _int_config(points.items(), omega)
    int_row = dict(zip(keys, rows))

    def on_plane_closure(seed: list[tuple[int, int]]) -> tuple[tuple[int, int], ...]:
        # hyperplane through three of the seed points, then collect every
        # configuration point lying on it
        nu = _hyperplane([int_row[p] for p in seed[:3]])
        if nu is None:
            raise InternalInvariantViolation("degenerate hole cell")
        return tuple(p for p in keys if sum(map(mul, nu, int_row[p])) == 0)

    cells: set[tuple[tuple[int, int], ...]] = set()
    n_rect = 0
    for p in range(1, k + 1):
        for q in range(1, k + 1):
            cx, cy = 2 * p - k - 1, 2 * q - k - 1
            if abs(cx) + abs(cy) <= k - 1:
                continue  # inside the hole
            cells.add(((cx - 1, cy - 1), (cx - 1, cy + 1), (cx + 1, cy - 1), (cx + 1, cy + 1)))
            n_rect += 1
    hole_cells: set[tuple[tuple[int, int], ...]] = set()
    for sx in (1, -1):
        for sy in (1, -1):
            for i in range(3, k - 1, 2):
                quad = [
                    center,
                    (sx * i, sy * (k - 1 - i)),
                    (sx * i, sy * (k + 1 - i)),
                    (sx * (i - 2), sy * (k + 1 - i)),
                ]
                hole_cells.add(on_plane_closure([q for q in quad if q != center] + [center]))
    for sy in (1, -1):
        pent = [center, (1, sy * k), (-1, sy * k), (1, sy * (k - 2)), (-1, sy * (k - 2))]
        hole_cells.add(on_plane_closure(pent[1:] + [center]))
        pent = [center, (sy * k, 1), (sy * k, -1), (sy * (k - 2), 1), (sy * (k - 2), -1)]
        hole_cells.add(on_plane_closure(pent[1:] + [center]))
    expected_quads = 2 * k - 6
    n_quads = sum(1 for c in hole_cells if not any(abs(i) == k or abs(j) == k for i, j in c))
    n_pents = len(hole_cells) - n_quads
    if n_rect != (k * k - 1) // 2 or n_quads != expected_quads or n_pents != 4:
        raise InternalInvariantViolation(
            f"unexpected patch structure: {n_rect} rectangles, "
            f"{n_quads} quadrilaterals, {n_pents} pentagons"
        )
    return tuple(sorted(cells | hole_cells))


# ---------------------------------------------------------------------------
# the full lifted configuration for the square-grid construction


@dataclass(frozen=True)
class RegularAztecLift:
    """A certified regular lift of the Aztec-hole subdivision."""

    k: int
    l: int
    config: LiftedConfiguration
    coarse: dict[VertexId, Fraction]
    fine: dict[VertexId, Fraction]
    eps: Fraction
    subdivision: Subdivision
    manifest: FillManifest

    @property
    def heights(self) -> dict[VertexId, Fraction]:
        return self.config.heights


def _coarse_path_height(i: int, k: int, l: int) -> Fraction:
    t0 = (_subgrid_of(i, k, l) - 1) * k + 1
    v0, v1 = Fraction(t0) ** 2, Fraction(t0 + k) ** 2
    return v0 + (v1 - v0) * Fraction(i - t0, k)


def _subgrid_of(i: int, k: int, l: int) -> int:
    return min((i - 2) // k if i >= 2 else 0, l - 1) + 1


def _local_doubled(i: int, k: int, l: int) -> int:
    r = _subgrid_of(i, k, l)
    return 2 * (i - (r - 1) * k) - k - 2


def build_aztec_lift(k: int, l: int) -> RegularAztecLift:
    """Coarse squared-breakpoint lift plus the per-hole split perturbation,
    composed with a certified dyadic scale."""
    report = build_aztec(k, l)
    manifest = report.manifest
    n = k * l + 1
    coords = standard_coordinates(n)
    patch = aztec_lift(k)

    pts: list[tuple[VertexId, Point]] = []
    coarse: dict[VertexId, Fraction] = {}
    fine: dict[VertexId, Fraction] = {}
    for i in range(1, n + 1):
        for axis in (1, 2):
            v = VertexId.path(axis, i)
            pts.append((v, coords[v]))
            coarse[v] = _coarse_path_height(i, k, l)
            table = patch.alpha if axis == 1 else patch.beta
            fine[v] = 2 * table[_local_doubled(i, k, l)]

    # hole centers: each is the centroid of its block's four coarse
    # corners, so lifting it onto the block hyperplane means averaging
    for (r, s), apex, _ in manifest.holes:
        corners = [
            VertexId.path(1, (r - 1) * k + 1),
            VertexId.path(1, r * k + 1),
            VertexId.path(2, (s - 1) * k + 1),
            VertexId.path(2, s * k + 1),
        ]
        centroid = tuple(sum(col, Fraction(0)) / 4 for col in zip(*(coords[v] for v in corners)))
        pts.append((apex, centroid))
        coarse[apex] = sum((coarse[v] for v in corners), Fraction(0)) / 4
        fine[apex] = Fraction(0)

    target = Subdivision.from_manifest(manifest)
    eps = eps_search(pts, coarse, fine, target)
    heights = compose_lift(coarse, fine, eps)
    config = LiftedConfiguration(tuple(pts), heights)
    return RegularAztecLift(
        k=k,
        l=l,
        config=config,
        coarse=coarse,
        fine=fine,
        eps=eps,
        subdivision=target,
        manifest=manifest,
    )


# ---------------------------------------------------------------------------
# convex hulls


@dataclass(frozen=True)
class HullFacet:
    """A hull facet: its sorted vertex ids and outward supporting hyperplane,
    primitive in the input's coordinates: normal . p <= offset for every
    configuration point p, with equality exactly on the facet's
    vertices."""

    vertices: tuple[VertexId, ...]
    normal: tuple[int, ...]
    offset: int


def convex_hull_brute(pts: list[tuple[VertexId, Point]]) -> list[HullFacet]:
    """Exact brute-force convex hull: every supporting hyperplane spanned
    by the points, merged into maximal coplanar facets."""
    ids, rows, dim = _int_config(pts, None)
    rank, _ = _rank_and_nullvector(rows, dim + 1)
    if rank < dim + 1:
        raise DegenerateInput("point set is not full-dimensional")
    found: dict[tuple[int, ...], tuple[tuple[int, ...], int]] = {}
    onsets: list[frozenset[int]] = []
    for subset in combinations(range(len(rows)), dim):
        sset = frozenset(subset)
        if any(sset <= onset for onset in onsets):
            continue
        nu = _hyperplane([rows[i] for i in subset])
        if nu is None:
            continue
        pos = neg = False
        sides = []
        for row in rows:
            s = sum(map(mul, nu, row))
            sides.append(s)
            if s > 0:
                pos = True
            elif s < 0:
                neg = True
            if pos and neg:
                break
        if pos and neg:
            continue
        if pos:  # flip so every point sits on the non-positive side
            nu = tuple(-x for x in nu)
            sides = [-s for s in sides]
        onset = tuple(i for i, s in enumerate(sides) if s == 0)
        if onset not in found:
            found[onset] = (nu[:-1], -nu[-1])
            onsets.append(frozenset(onset))
    facets = [
        HullFacet(tuple(ids[i] for i in onset), normal, offset)
        for onset, (normal, offset) in found.items()
    ]
    facets.sort(key=attrgetter("vertices"))
    return facets


def _pivot(
    rows: list[tuple[int, ...]],
    basis: list[tuple[int, ...]],
    ref: tuple[int, ...],
    h1: tuple[int, ...],
    sides: list[int],
) -> tuple[tuple[int, ...], int]:
    """Turn the supporting hyperplane h1 about the ridge spanned by basis,
    away from ref (a point on h1 off the ridge), until it supports every
    point again.  sides holds h1 on every point, _sides(h1, rows).
    Returns the new hyperplane and a point on it off the ridge.

    The hyperplanes through the ridge that have ref on their negative side
    are h2 + s*h1 for rational s, where h2 is the one through the ridge and
    the first point q0 off h1.  Every point q off h1 has h1(q) < 0 and lies
    on the member with s = h2(q) / -h1(q), and no point on h1 is on the
    positive side of any member.  So one pass for the largest s, compared
    by cross-multiplying, and one elimination give the new hyperplane.
    A positive factor on a row scales h1(q) and h2(q) alike, so s is the
    same for every homogeneous row of q.
    """
    h2: tuple[int, ...] | None = None
    for i, (row, side) in enumerate(zip(rows, sides)):
        if not side:
            continue
        below = -side
        if h2 is None:
            h2 = _hyperplane(basis + [row])
            if sum(map(mul, h2, ref)) > 0:
                h2 = tuple(-x for x in h2)
            top, top_below, last = 0, below, i
            continue
        above = sum(map(mul, h2, row))
        if above * top_below > top * below:
            top, top_below, last = above, below, i
    return _primitive([top_below * a + top * b for a, b in zip(h2, h1)]), last


def _first_facet(
    rows: list[tuple[int, ...]], dim: int
) -> tuple[tuple[int, ...], list[int]]:
    """One facet of the hull of full-dimensional points in R^dim, given as
    homogeneous rows: its primitive outward normal and dim affinely
    independent points on it.

    A facet of the projection to the first dim-1 coordinates spans a
    vertical supporting hyperplane.  It meets the hull in a facet or in a
    ridge, and one pivot about that ridge gives a facet.  In R^1 the
    facet is the point of largest x, read as row[0] / row[1].
    """
    if dim == 1:
        top = max(range(len(rows)), key=lambda i: Fraction(*rows[i]))
        x, w = rows[top]
        return _primitive((w, -x)), [top]
    nu, basis = _first_facet([row[:-2] + row[-1:] for row in rows], dim - 1)
    vertical = nu[:-1] + (0, nu[-1])
    sides = _sides(vertical, rows)
    on = [i for i, side in enumerate(sides) if not side]
    span = [rows[i] for i in basis]
    extra = next((i for i in on if _hyperplane(span + [rows[i]]) is not None), None)
    if extra is not None:
        return vertical, basis + [extra]
    up = span[0][:-2] + (span[0][-2] + 1, span[0][-1])
    nu, extra = _pivot(rows, span, up, vertical, sides)
    return nu, basis + [extra]


def convex_hull(pts: list[tuple[VertexId, Point]]) -> list[HullFacet]:
    """Exact gift-wrapping hull (Chand-Kapur, J. ACM 17, 1970): from one
    facet, pivot about each ridge to the facet on its other side.

    A facet's ridges are the walls of its points in a chart of its
    hyperplane (_cell_walls).  Its side values, its hyperplane on every
    point, are computed once, and with them one pass over the points
    turns the hyperplane about each ridge (_pivot).  The work grows with
    the facets found, not with the C(n, dim) subsets that
    convex_hull_brute scans; the facet list is the same.
    """
    ids, rows, dim = _int_config(pts, None)
    rank, _ = _rank_and_nullvector(rows, dim + 1)
    if rank < dim + 1:
        raise DegenerateInput("point set is not full-dimensional")
    # the onset of each facet found, by its normal: normals are primitive
    # and outward, so a facet reached again across another ridge is
    # skipped before its side pass
    found: dict[tuple[int, ...], tuple[int, ...]] = {}
    ridges: set[tuple[int, ...]] = set()
    todo = [_first_facet(rows, dim)[0]]
    while todo:
        nu = todo.pop()
        if nu in found:
            continue
        sides = _sides(nu, rows)
        onset = tuple(i for i, side in enumerate(sides) if not side)
        found[nu] = onset
        # the ridges are the walls of the facet in its _chart; the facet
        # spans the chart, so its homogeneous rows have rank dim
        chart = _chart([rows[i] for i in onset], nu)
        for wall, span in _cell_walls(chart).items():
            ridge = tuple(onset[j] for j in wall)
            if ridge in ridges:
                continue  # already crossed from the facet on its other side
            ridges.add(ridge)
            ref = next(rows[i] for j, i in enumerate(onset) if j not in wall)
            todo.append(_pivot(rows, [rows[onset[j]] for j in span], ref, nu, sides)[0])
    facets = [
        HullFacet(tuple(ids[i] for i in onset), nu[:-1], -nu[-1])
        for nu, onset in found.items()
    ]
    facets.sort(key=attrgetter("vertices"))
    return facets


def hull_with_apex(
    pts: list[tuple[VertexId, Point]], apex_id: VertexId
) -> tuple[list[HullFacet], Point]:
    """Hull of the configuration plus a far apex above it, both built by
    gift wrapping (convex_hull).  An apex_id among the points is refused
    with DegenerateInput before any hull is built.

    The apex, above the centroid c, must lie strictly beyond every upper
    facet of the configuration's hull and beneath every other one.  It is
    beyond a facet with normal n and offset when its height exceeds
    (offset - sum_a n_a c_a) / n_h, summed over the coordinates a other
    than the height h; it is placed 1 above every such bound and every
    point.  Then the new hull keeps the other facets and replaces the
    upper ones by cones from the apex over the boundary of the upper
    side.  That is checked after the fact: the facets without the apex
    must be exactly the base facets whose normal does not point up, or
    InternalInvariantViolation is raised.  Returns the facets and the
    apex point.
    """
    if any(v == apex_id for v, _ in pts):
        raise DegenerateInput(f"the apex {apex_id.label} is already a point")
    base = convex_hull(pts)
    cols = list(zip(*(p for _, p in pts)))
    centroid = [Fraction(sum(col), len(pts)) for col in cols]
    height = max(cols[-1]) + 1
    for f in base:
        if f.normal[-1] <= 0:
            continue
        rest = sum(map(mul, f.normal[:-1], centroid))
        height = max(height, Fraction(f.offset - rest, f.normal[-1]) + 1)
    apex_pt = (*centroid[:-1], Fraction(height))
    hull = convex_hull(list(pts) + [(apex_id, apex_pt)])
    kept = {f.vertices for f in hull if apex_id not in f.vertices}
    if kept != {f.vertices for f in base if f.normal[-1] <= 0}:
        raise InternalInvariantViolation("the apex is not beyond every upper facet")
    return hull, apex_pt


SIMPLEX = "simplex"
BIPYRAMID = "bipyramid"
OTHER = "other"


def detect_bipyramid_facets(
    facets: list[HullFacet], pts: list[tuple[VertexId, Point]]
) -> tuple[int, list[str]]:
    """Classify facets of a 4-dimensional hull structurally.

    A five-vertex facet counts as a bipyramid exactly when all of its
    2-faces are triangles (the unique simplicial 3-polytope on 5
    vertices); no facet is assumed to be anything from its vertex count
    alone.
    """
    ids, rows, dim = _int_config(pts, None)
    if dim != 4:
        raise DegenerateInput("facet classification expects a 4-dimensional hull")
    index = {v: i for i, v in enumerate(ids)}
    kinds = []
    for f in facets:
        n = len(f.vertices)
        if n == 4:
            kinds.append(SIMPLEX)
        elif n == 5 and _is_bipyramid([rows[index[v]] for v in f.vertices], f.normal):
            kinds.append(BIPYRAMID)
        else:
            kinds.append(OTHER)
    return kinds.count(BIPYRAMID), kinds


def _is_bipyramid(rows: list[tuple[int, ...]], normal: tuple[int, ...]) -> bool:
    """Whether the homogeneous rows of a facet's five points, with the
    facet's normal, have six triangular walls in the facet's _chart, which
    has the facet's faces.  A facet spans its hyperplane, so the chart's
    rows have rank 4."""
    walls = _cell_walls(_chart(rows, normal))
    return len(walls) == 6 and all(len(onset) == 3 for onset in walls)


# ---------------------------------------------------------------------------
# raising hole centers


def raised_center_target(manifest: FillManifest) -> Subdivision:
    """The refinement produced by lifting every hole center: each free
    cell is replaced by the triangulation that inserts its first part."""
    zeros = (0,) * manifest.n_free_cells
    return Subdivision.of(realize(manifest, zeros).facets)


def count_degree3_edges(target: Subdivision) -> int:
    """Edges of the center-raised triangulation, ``raised_center_target``,
    lying in exactly three of its simplices."""
    counts: dict[tuple[VertexId, ...], int] = {}
    for cell in target.cells:
        for e in combinations(cell, 2):
            counts[e] = counts.get(e, 0) + 1
    return sum(1 for c in counts.values() if c == 3)


def raise_centers(
    lift: RegularAztecLift, delta: Fraction
) -> tuple[dict[VertexId, Fraction], int]:
    """Add delta to every hole-center height and certify that the
    subdivision refines as expected: every quadrilateral-type cell splits
    into three simplices around a degree-three edge (pentagons split into
    two).  Returns the new heights and the degree-three edge count."""
    delta = Fraction(delta)
    if delta <= 0:
        raise DegenerateInput("delta must be positive")
    heights = compose_lift(lift.heights, _center_bump(lift, 1), delta)
    target = raised_center_target(lift.manifest)
    if not verify_regular(list(lift.config.points), heights, target):
        raise DegenerateInput(f"raising centers by {delta} breaks regularity")
    return heights, count_degree3_edges(target)


def delta_search(
    lift: RegularAztecLift, target: Subdivision
) -> tuple[Fraction, dict[VertexId, Fraction]]:
    """Certified center-raising amount, found by halving from the lift's
    own perturbation scale, and the raised heights it certified: the
    ones raise_centers(lift, delta) computes.  ``target`` is
    ``raised_center_target(lift.manifest)``."""
    bump = _center_bump(lift, lift.eps)
    t = eps_search(list(lift.config.points), lift.heights, bump, target)
    return lift.eps * t, compose_lift(lift.heights, bump, t)


def _center_bump(lift: RegularAztecLift, size: Fraction) -> dict[VertexId, Fraction]:
    """size at every hole center of the lift, 0 at every other point."""
    apexes = {h.apex for h in lift.manifest.holes}
    return {v: Fraction(size) if v in apexes else Fraction(0) for v in lift.heights}
