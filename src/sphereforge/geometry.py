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
from operator import mul

from .carvefill import FillManifest, realize
from .complexes import VertexId
from .errors import (
    DegenerateCell,
    DegenerateInput,
    DeltaTooLarge,
    EpsSearchExhausted,
    InternalInvariantViolation,
    LiftConstructionFailed,
    SymmetryViolation,
)

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
        if not points:
            raise DegenerateInput("no points")
        ids = [v for v, _ in points]
        twice = [u for u, v in zip(ids, ids[1:]) if u == v]
        if twice:
            raise DegenerateInput(f"point {twice[0].label} appears twice")
        missing = [v for v in ids if v not in self.heights]
        if missing:
            raise DegenerateInput(f"point {missing[0].label} has no height")
        extra = sorted(set(self.heights) - set(ids))
        if extra:
            raise DegenerateInput(f"height for {extra[0].label}, which is not a point")
        at: dict[Point, VertexId] = {}
        for v, p in points:
            if not p:
                raise DegenerateInput(f"point {v.label} has no coordinates")
            if len(p) != len(points[0][1]):
                first, q = points[0]
                raise DegenerateInput(
                    f"points {first.label} and {v.label} have {len(q)} and {len(p)} coordinates"
                )
            if at.setdefault(p, v) != v:
                coords = ",".join(str(c) for c in p)
                raise DegenerateInput(f"points {at[p].label} and {v.label} are both at ({coords})")
        object.__setattr__(self, "points", points)


@dataclass(frozen=True)
class Subdivision:
    """Claimed cells of a subdivision: distinct sets of vertex ids."""

    cells: tuple[frozenset[VertexId], ...]

    def __post_init__(self) -> None:
        seen: set[frozenset[VertexId]] = set()
        for cell in self.cells:
            if cell in seen:
                labels = ",".join(v.label for v in _cell_key(cell))
                raise DegenerateInput(f"cell {{{labels}}} appears twice")
            seen.add(cell)

    @classmethod
    def of(cls, cells) -> "Subdivision":
        return cls(tuple(sorted((frozenset(c) for c in cells), key=_cell_key)))

    @classmethod
    def from_manifest(cls, manifest: FillManifest) -> "Subdivision":
        cells = [frozenset(s) for s in manifest.result.simplex_cells]
        cells.extend(c.vset for c in manifest.result.free_cells)
        return cls.of(cells)

    def __len__(self) -> int:
        return len(self.cells)

    def check_points(self, config: LiftedConfiguration) -> "Subdivision":
        """This subdivision, if its cells use only points of config;
        otherwise DegenerateInput names the first cell that does not."""
        ids = frozenset(config.heights)
        for cell in self.cells:
            if not cell <= ids:
                labels = ",".join(v.label for v in _cell_key(cell))
                stray = min(cell - ids).label
                raise DegenerateInput(f"cell {{{labels}}} uses {stray}, which is not a point")
        return self


def _cell_key(cell: frozenset[VertexId]) -> tuple[VertexId, ...]:
    """Canonical order of vertex sets: by their sorted vertex tuples."""
    return tuple(sorted(cell))


# ---------------------------------------------------------------------------
# exact linear algebra helpers


def _primitive(vec) -> tuple[int, ...]:
    g = 0
    for v in vec:
        g = gcd(g, v)
    if g == 0:
        return tuple(vec)
    return tuple(v // g for v in vec)


def _rank_and_nullvector(
    rows: list[tuple[int, ...]], ncols: int
) -> tuple[int, tuple[int, ...] | None]:
    """Row rank plus a primitive nullspace vector when the nullity is 1.

    Fraction-free Gauss-Jordan over the integers (Bareiss, Math. Comp. 22,
    1968): every update (p*a - f*b) // prev divides exactly, and at the end
    every pivot row holds the last pivot p in its own pivot column and 0 in
    the other pivot columns.
    """
    m = [list(row) for row in rows]
    pivot_cols: list[int] = []
    prev = 1
    for col in range(ncols):
        r = len(pivot_cols)
        src = next((i for i in range(r, len(m)) if m[i][col]), None)
        if src is None:
            continue
        m[r], m[src] = m[src], m[r]
        prow = m[r]
        p = prow[col]
        for i, row in enumerate(m):
            if i != r:
                f = row[col]
                m[i] = [(p * a - f * b) // prev for a, b in zip(row, prow)]
        prev = p
        pivot_cols.append(col)
    rank = len(pivot_cols)
    if rank != ncols - 1:
        return rank, None
    free = next(c for c in range(ncols) if c not in pivot_cols)
    sol = [0] * ncols
    sol[free] = prev
    for row, col in zip(m, pivot_cols):
        sol[col] = -row[free]
    return rank, _primitive(sol)


def _hyperplane(points: list[tuple[int, ...]]) -> tuple[int, ...] | None:
    """Homogeneous normal of the hyperplane through k points in R^k.

    Returns nu of length k+1 with nu . (p, 1) = 0 for each point, or None
    if the points are affinely dependent.
    """
    return _rank_and_nullvector([p + (1,) for p in points], len(points) + 1)[1]


def _integerize(columns: list[list[Fraction]]) -> list[list[int]]:
    """Scale each column independently to integers (a diagonal linear map,
    which preserves hyperplanes and sidedness)."""
    out = []
    for col in columns:
        scale = lcm(*(f.denominator for f in col)) if col else 1
        out.append([int(f * scale) for f in col])
    return out


def _int_config(
    pts: list[tuple[VertexId, Point]], heights: dict[VertexId, Fraction] | None
) -> tuple[list[VertexId], list[tuple[int, ...]], int]:
    ids = [v for v, _ in pts]
    if not ids:
        raise DegenerateInput("empty configuration")
    dim = len(pts[0][1])
    if any(len(p) != dim for _, p in pts):
        raise DegenerateInput("points of mixed dimension")
    cols = [[Fraction(p[a]) for _, p in pts] for a in range(dim)]
    if heights is not None:
        cols.append([Fraction(heights[v]) for v in ids])
    int_cols = _integerize(cols)
    rows = [tuple(int_cols[a][i] for a in range(len(int_cols))) for i in range(len(ids))]
    return ids, rows, dim


def _dot_h(nu: tuple[int, ...], row: tuple[int, ...]) -> int:
    return sum(map(mul, nu, row)) + nu[-1]


# ---------------------------------------------------------------------------
# regularity verification


def _cell_walls(
    cell_rows: list[tuple[int, ...]], dim: int, rank: int
) -> dict[frozenset[int], tuple[int, ...]]:
    """Supporting (dim-1)-hyperplanes of a projected cell, as onsets (the
    indices into cell_rows of the points on each), each mapped to the
    first dim affinely independent points, in subset order, that span it.

    rank is the rank of the rows (p[:dim], 1), which every caller has
    already established.  A full-dimensional simplex (dim+1 rows of rank
    dim+1) has exactly its dim-subsets as walls, each spanned by itself.
    A full-dimensional circuit (dim+2 rows, any dim+1 of them affinely
    independent) has its walls read off its affine dependence.  Other
    cells are searched by testing every dim-subset of their points that
    does not lie on a plane already computed.
    """
    n = len(cell_rows)
    if n == dim + 1 and rank == dim + 1:
        return {frozenset(s): s for s in combinations(range(n), dim)}
    walls: dict[frozenset[int], tuple[int, ...]] = {}
    if n == dim + 2 and rank == dim + 1:
        # The one affine dependence sum(lam_i * (p_i, 1)) = 0.  If no lam_i
        # is 0, any dim+1 of the points are affinely independent, so a
        # wall holds exactly dim points: all but some i and j.  Applying
        # the plane h through them to the dependence gives
        # h(p_i)*lam_i + h(p_j)*lam_j = 0, and neither h value is 0, or
        # dim+1 points would lie on h.  So p_i and p_j lie on the same
        # side of h, and h is a wall, exactly when lam_i*lam_j < 0.  Each
        # wall is spanned by itself.
        transposed = list(zip(*cell_rows))[:dim] + [(1,) * n]
        lam = _rank_and_nullvector(transposed, n)[1]
        if all(lam):
            for s in combinations(range(n), dim):
                i, j = (t for t in range(n) if t not in s)
                if (lam[i] < 0) != (lam[j] < 0):
                    walls[frozenset(s)] = s
            return walls
    hom = [row[:dim] + (1,) for row in cell_rows]
    # the dim-subsets of every plane found to hold more than dim points:
    # such a subset is dependent or spans that plane again
    known: set[tuple[int, ...]] = set()
    for subset in combinations(range(n), dim):
        if subset in known:
            continue
        nu = _rank_and_nullvector([hom[i] for i in subset], dim + 1)[1]
        if nu is None:
            continue
        sides = [sum(map(mul, nu, h)) for h in hom]
        onset = tuple(i for i, s in enumerate(sides) if s == 0)
        if len(onset) > dim:
            known.update(combinations(onset, dim))
        if any(s > 0 for s in sides) and any(s < 0 for s in sides):
            continue
        walls[frozenset(onset)] = subset
    return walls


def verify_regular(
    pts: list[tuple[VertexId, Point]],
    heights: dict[VertexId, Fraction],
    sub: Subdivision,
) -> bool:
    """Exact check that the claimed cells are the regular subdivision
    induced by the heights.

    For each cell: (a) its lifted points share a non-vertical hyperplane,
    (b) every other point lifts strictly above it, and (c) the cells
    cover: every interior wall is shared by exactly two cells and every
    other wall supports the convex hull of the configuration.  One
    elimination of the lifted rows (x, h, 1) settles (a) and the cell's
    full dimension together; the walls of a simplex cell are read off,
    those of a circuit cell take one more elimination, and only other
    cells are searched (see _cell_walls).
    """
    ids, rows, dim = _int_config(list(pts), heights)
    index = {v: i for i, v in enumerate(ids)}
    if not sub.cells:
        return False

    cell_indices: list[list[int]] = []
    for cell in sub.cells:
        if not all(v in index for v in cell):
            raise DegenerateInput("cell uses a vertex not in the configuration")
        cell_indices.append(sorted(index[v] for v in cell))

    lifted = [row + (1,) for row in rows]
    for idxs in cell_indices:
        if len(idxs) < dim + 1:
            raise DegenerateCell(f"cell with {len(idxs)} points in dimension {dim}")
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
            raise DegenerateCell("cell does not span full dimension")
        if nu is None:
            return False  # lifted points not on a common hyperplane
        if nu[dim] < 0:
            nu = tuple(-x for x in nu)
        in_cell = set(idxs)
        for i, row in enumerate(lifted):
            if i in in_cell:
                continue
            if sum(map(mul, nu, row)) <= 0:
                return False  # not strictly above

    # wall matching: every cell has passed the checks above, so its
    # projected rows have rank dim+1
    counts: dict[frozenset[int], int] = {}
    for idxs in cell_indices:
        cell_rows = [rows[i] for i in idxs]
        for onset_local in _cell_walls(cell_rows, dim, dim + 1):
            onset = frozenset(idxs[i] for i in onset_local)
            counts[onset] = counts.get(onset, 0) + 1
    projected = [row[:dim] + (1,) for row in rows]
    for onset, count in counts.items():
        if count == 2:
            continue
        if count > 2:
            return False
        _, nu = _rank_and_nullvector([projected[i] for i in sorted(onset)], dim + 1)
        if nu is None:
            return False
        sides = [sum(map(mul, nu, p)) for p in projected]
        if any(s > 0 for s in sides) and any(s < 0 for s in sides):
            return False  # an unmatched interior wall
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
    raise EpsSearchExhausted("no dyadic perturbation certified the target")


# ---------------------------------------------------------------------------
# coordinates


def standard_coordinates(n: int, m: int) -> dict[VertexId, Point]:
    """First path on the line (t, 0, 1), second on (0, t, -1)."""
    if n < 2 or m < 2:
        raise DegenerateInput("paths need at least 2 vertices")
    out: dict[VertexId, Point] = {}
    for i in range(1, n + 1):
        out[VertexId.path(1, i)] = (Fraction(i), Fraction(0), Fraction(1))
    for j in range(1, m + 1):
        out[VertexId.path(2, j)] = (Fraction(0), Fraction(j), Fraction(-1))
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
    cells: tuple[frozenset[tuple[int, int]], ...]


def _validate_axis(vals: list[Fraction], k: int, name: str) -> dict[int, Fraction]:
    if len(vals) != k + 1:
        raise SymmetryViolation(f"{name} needs {k + 1} values for odd indices")
    for a, b in zip(vals, vals[1:]):
        if not a < b:
            raise SymmetryViolation(f"{name} must be strictly increasing")
    table = {i: vals[(i + k) // 2] for i in range(-k, k + 1, 2)}
    for i in range(1, k + 1, 2):
        if table[-i] != -table[i]:
            raise SymmetryViolation(f"{name} must be antisymmetric")
    return table


def aztec_lift(k: int, xs, ys) -> AztecPatchLift:
    """Split lifting of the midpoint grid of one hole.

    Heights on the outer staircase corners are squared distances from the
    center (keeping the central star lifted strictly convex with rational
    arithmetic); the remaining values follow from coplanarity of the hole
    cells, and the result splits as alpha + beta.  The induced subdivision
    (grid rectangles outside the hole, 2k-6 quadrilaterals and 4 pentagons
    joined to the center) is certified by verify_regular.
    """
    if k < 3 or k % 2 == 0:
        raise DegenerateInput("need odd k >= 3")
    x = _validate_axis([Fraction(v) for v in xs], k, "xs")
    y = _validate_axis([Fraction(v) for v in ys], k, "ys")

    # ring: squared distance at the staircase corners (x_i, y_{k-1-i})
    ring: dict[int, Fraction] = {}
    for i in range(1, k - 1, 2):
        ring[i] = x[i] ** 2 + y[k - 1 - i] ** 2

    # derived corner heights omega_{i, k+1-i}
    corner: dict[int, Fraction] = {}
    for i in range(3, k - 1, 2):
        # plane through the origin and two ring points
        a1, b1, h1 = x[i], y[k - 1 - i], ring[i]
        a2, b2, h2 = x[i - 2], y[k + 1 - i], ring[i - 2]
        det = a1 * b2 - a2 * b1
        if det == 0:
            raise LiftConstructionFailed("degenerate staircase plane")
        ca = (h1 * b2 - h2 * b1) / det
        cb = (a1 * h2 - a2 * h1) / det
        corner[i] = ca * x[i] + cb * y[k + 1 - i]
    top = ring[1] * y[k] / y[k - 2]  # pentagon at the top arm
    right = ring[k - 2] * x[k] / x[k - 2]  # pentagon at the right arm

    def omega_corner(i: int) -> Fraction:
        return top if i == 1 else corner[i]

    alpha: dict[int, Fraction] = {1: Fraction(0)}
    beta: dict[int, Fraction] = {k: top}
    for i in range(3, k + 1, 2):
        upper = right if i == k else corner[i]
        alpha[i] = upper - ring[i - 2] + alpha[i - 2]
        beta[k + 1 - i] = ring[i - 2] - omega_corner(i - 2) + beta[k + 3 - i]
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
            points[(i, j)] = (x[i], y[j])
    for i in range(1, k - 1, 2):
        if omega[(i, k - 1 - i)] != ring[i]:
            raise LiftConstructionFailed("split lift does not reproduce the ring")

    cells = _aztec_patch_cells(k, points, omega)
    ids = {key: VertexId.raw(t) for t, key in enumerate(sorted(points))}
    pts = [(ids[key], points[key]) for key in sorted(points)]
    heights = {ids[key]: omega[key] for key in sorted(points)}
    sub = Subdivision.of([{ids[key] for key in cell} for cell in cells])
    if not verify_regular(pts, heights, sub):
        raise LiftConstructionFailed("lift failed its own regularity check")
    return AztecPatchLift(k=k, points=points, omega=omega, alpha=alpha, beta=beta, cells=cells)


def _aztec_patch_cells(k, points, omega) -> tuple[frozenset, ...]:
    """Cells of the patch subdivision, with on-plane grid points included."""
    center = (0, 0)
    keys, rows, _ = _int_config([(p, points[p]) for p in sorted(points)], omega)
    int_row = dict(zip(keys, rows))

    def on_plane_closure(seed: list[tuple[int, int]]) -> frozenset:
        # hyperplane through three of the seed points, then collect every
        # configuration point lying on it
        nu = _hyperplane([int_row[p] for p in seed[:3]])
        if nu is None:
            raise LiftConstructionFailed("degenerate hole cell")
        return frozenset(p for p in keys if _dot_h(nu, int_row[p]) == 0)

    cells: set[frozenset] = set()
    n_rect = 0
    for p in range(1, k + 1):
        for q in range(1, k + 1):
            cx, cy = 2 * p - k - 1, 2 * q - k - 1
            if abs(cx) + abs(cy) <= k - 1:
                continue  # inside the hole
            cells.add(
                frozenset(
                    {
                        (cx - 1, cy - 1),
                        (cx + 1, cy - 1),
                        (cx - 1, cy + 1),
                        (cx + 1, cy + 1),
                    }
                )
            )
            n_rect += 1
    hole_cells: set[frozenset] = set()
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
        raise LiftConstructionFailed(
            f"unexpected patch structure: {n_rect} rectangles, "
            f"{n_quads} quadrilaterals, {n_pents} pentagons"
        )
    return tuple(sorted(cells | hole_cells, key=lambda c: sorted(c)))


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
    from .constructions import build_aztec

    report = build_aztec(k, l)
    manifest = report.manifest
    n = k * l + 1
    coords = standard_coordinates(n, n)

    patch = aztec_lift(k, list(range(-k, k + 1, 2)), list(range(-k, k + 1, 2)))

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
    for key in manifest.hole_keys:
        r, s = key
        apex = manifest.apex_of_ball[key]
        p_hat = (r - 1) * k + (k + 1) // 2
        q_hat = (s - 1) * k + (k + 1) // 2
        o = (Fraction(2 * p_hat + 1, 4), Fraction(2 * q_hat + 1, 4), Fraction(0))
        corners = [
            VertexId.path(1, (r - 1) * k + 1),
            VertexId.path(1, r * k + 1),
            VertexId.path(2, (s - 1) * k + 1),
            VertexId.path(2, s * k + 1),
        ]
        centroid = tuple(
            sum((coords[v][a] for v in corners), Fraction(0)) / 4 for a in range(3)
        )
        if centroid != o:
            raise InternalInvariantViolation("hole center is not the block centroid")
        pts.append((apex, o))
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
    """A hull facet: its vertex set and outward supporting hyperplane
    (normal . p <= offset for all configuration points, with each
    coordinate of p scaled to integers by its column's common
    denominator)."""

    vertices: frozenset[VertexId]
    normal: tuple[int, ...]
    offset: int


def convex_hull_brute(pts: list[tuple[VertexId, Point]]) -> list[HullFacet]:
    """Exact brute-force convex hull: every supporting hyperplane spanned
    by the points, merged into maximal coplanar facets."""
    ids, rows, dim = _int_config(list(pts), None)
    rank, _ = _rank_and_nullvector([r + (1,) for r in rows], dim + 1)
    if rank < dim + 1:
        raise DegenerateInput("point set is not full-dimensional")
    found: dict[frozenset[int], tuple[tuple[int, ...], int]] = {}
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
            s = _dot_h(nu, row)
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
        onset = frozenset(i for i, s in enumerate(sides) if s == 0)
        if onset not in found:
            found[onset] = (nu[:-1], -nu[-1])
            onsets.append(onset)
    facets = [
        HullFacet(frozenset(ids[i] for i in onset), normal, offset)
        for onset, (normal, offset) in found.items()
    ]
    facets.sort(key=lambda f: _cell_key(f.vertices))
    return facets


def _pivot(
    rows: list[tuple[int, ...]],
    basis: list[tuple[int, ...]],
    ref: tuple[int, ...],
    h1: tuple[int, ...],
) -> tuple[tuple[int, ...], int]:
    """Turn the supporting hyperplane h1 about the ridge spanned by basis,
    away from ref (a point on h1 off the ridge), until it supports every
    point again.  Returns the new hyperplane and a point on it off the
    ridge.

    The hyperplanes through the ridge that have ref on their negative side
    are h2 + s*h1 for rational s, where h2 is the one through the ridge and
    the first point q0 off h1.  Every point q off h1 has h1(q) < 0 and lies
    on the member with s = h2(q) / -h1(q), and no point on h1 is on the
    positive side of any member.  So one pass for the largest s, compared
    by cross-multiplying, and one elimination give the new hyperplane.
    """
    h2: tuple[int, ...] | None = None
    for i, row in enumerate(rows):
        below = -_dot_h(h1, row)
        if not below:
            continue
        if h2 is None:
            h2 = _hyperplane(basis + [row])
            if _dot_h(h2, ref) > 0:
                h2 = tuple(-x for x in h2)
            top, top_below, last = 0, below, i
            continue
        above = _dot_h(h2, row)
        if above * top_below > top * below:
            top, top_below, last = above, below, i
    return _primitive([top_below * a + top * b for a, b in zip(h2, h1)]), last


def _first_facet(
    rows: list[tuple[int, ...]], dim: int
) -> tuple[tuple[int, ...], list[int]]:
    """One facet of the hull of full-dimensional points in R^dim: its
    outward normal and dim affinely independent points on it.

    A facet of the projection to the first dim-1 coordinates spans a
    vertical supporting hyperplane.  It meets the hull in a facet or in a
    ridge, and one pivot about that ridge gives a facet.
    """
    if dim == 1:
        top = max(range(len(rows)), key=lambda i: rows[i][0])
        return (1, -rows[top][0]), [top]
    nu, basis = _first_facet([row[:-1] for row in rows], dim - 1)
    vertical = nu[:-1] + (0, nu[-1])
    on = frozenset(i for i, row in enumerate(rows) if _dot_h(vertical, row) == 0)
    span = [rows[i] for i in basis]
    extra = next(
        (i for i in sorted(on) if _hyperplane(span + [rows[i]]) is not None), None
    )
    if extra is not None:
        return vertical, basis + [extra]
    up = span[0][:-1] + (span[0][-1] + 1,)
    nu, extra = _pivot(rows, span, up, vertical)
    return nu, basis + [extra]


def convex_hull(pts: list[tuple[VertexId, Point]]) -> list[HullFacet]:
    """Exact gift-wrapping hull (Chand-Kapur, J. ACM 17, 1970): from one
    facet, pivot about each ridge to the facet on its other side.

    A facet's ridges are the walls of its points in a chart of its
    hyperplane (_cell_walls), and one pass over the points turns a
    hyperplane about a ridge (_pivot).  The work grows with the facets
    found, not with the C(n, dim) subsets that convex_hull_brute scans;
    the facet list is the same.
    """
    ids, rows, dim = _int_config(list(pts), None)
    rank, _ = _rank_and_nullvector([r + (1,) for r in rows], dim + 1)
    if rank < dim + 1:
        raise DegenerateInput("point set is not full-dimensional")
    found: dict[frozenset[int], tuple[int, ...]] = {}
    ridges: set[frozenset[int]] = set()
    todo = [_first_facet(rows, dim)[0]]
    while todo:
        nu = todo.pop()
        onset = frozenset(i for i, row in enumerate(rows) if _dot_h(nu, row) == 0)
        if onset in found:
            continue
        found[onset] = nu
        # the ridges are the walls of the facet in a chart that drops a
        # coordinate where its normal is nonzero (see _is_bipyramid); the
        # facet spans the chart, so its homogeneous rows have rank dim
        local = sorted(onset)
        drop = next(a for a, n in enumerate(nu[:-1]) if n)
        chart = [rows[i][:drop] + rows[i][drop + 1:] for i in local]
        for wall, span in _cell_walls(chart, dim - 1, dim).items():
            ridge = frozenset(local[j] for j in wall)
            if ridge in ridges:
                continue  # already crossed from the facet on its other side
            ridges.add(ridge)
            ref = next(rows[i] for j, i in enumerate(local) if j not in wall)
            todo.append(_pivot(rows, [rows[local[j]] for j in span], ref, nu)[0])
    facets = [
        HullFacet(frozenset(ids[i] for i in onset), nu[:-1], -nu[-1])
        for onset, nu in found.items()
    ]
    facets.sort(key=lambda f: _cell_key(f.vertices))
    return facets


def hull_with_apex(
    pts: list[tuple[VertexId, Point]], apex_id: VertexId
) -> tuple[list[HullFacet], Point]:
    """Hull of the configuration plus a far apex above it, both built by
    gift wrapping (convex_hull).

    The apex, above the centroid, must lie strictly beyond every upper
    facet of the configuration's hull and beneath every other one.  Then
    the new hull keeps the other facets and replaces the upper ones by
    cones from the apex over the boundary of the upper side.  That is
    checked after the fact: the facets without the apex must be exactly
    the base facets whose normal does not point up, or
    InternalInvariantViolation is raised.  Returns the facets and the apex
    point.
    """
    base = convex_hull(pts)
    dim = len(pts[0][1])
    centroid = tuple(
        sum((p[a] for _, p in pts), Fraction(0)) / len(pts) for a in range(dim)
    )
    height = max(p[-1] for _, p in pts) + 1
    for f in base:
        if f.normal[-1] <= 0:
            continue
        # outward normal . p <= offset; apex must violate it strictly
        rest = sum(n * c for n, c in zip(f.normal[:-1], centroid[:-1]))
        bound = Fraction(f.offset - rest, f.normal[-1])
        if bound + 1 > height:
            height = bound + 1
    apex_pt = centroid[:-1] + (Fraction(height),)
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
    coords = dict(pts)
    if facets and len(next(iter(coords.values()))) != 4:
        raise DegenerateInput("facet classification expects a 4-dimensional hull")
    kinds = []
    for f in facets:
        n = len(f.vertices)
        if n == 4:
            kinds.append(SIMPLEX)
        elif n == 5 and _is_bipyramid([coords[v] for v in sorted(f.vertices)], f.normal):
            kinds.append(BIPYRAMID)
        else:
            kinds.append(OTHER)
    return kinds.count(BIPYRAMID), kinds


def _is_bipyramid(points: list[Point], normal: tuple[int, ...]) -> bool:
    """Dropping a coordinate where the facet normal is nonzero maps the
    facet's hyperplane bijectively and affinely onto R^3, so the image of
    the points has the facet's faces.  The hull's per-column scaling of
    the coordinates keeps the normal's zero entries where they are.  A
    facet spans its hyperplane, so the image's rows (p, 1) have rank 4."""
    drop = next(a for a, n in enumerate(normal) if n)
    cols = [[p[a] for p in points] for a in range(len(normal)) if a != drop]
    walls = _cell_walls(list(zip(*_integerize(cols))), 3, 4)
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
        for e in combinations(sorted(cell), 2):
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
        raise DeltaTooLarge(f"raising centers by {delta} breaks regularity")
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
    apexes = set(lift.manifest.apex_of_ball.values())
    return {v: Fraction(size) if v in apexes else Fraction(0) for v in lift.heights}
