"""Grid regions inside joins of paths.

A join of d paths triangulates a product-of-segments polytope; its
full-dimensional simplices correspond to the cells of a d-dimensional box
of cubes.  This module provides diagonal bands, the Aztec crosspolytope
shapes with their Ehrhart counts and, as test references that no builder
uses, the paper's sufficient conditions for a hole to be a ball: the
starconvexity predicate and the constructive band shelling orders.

Cube indices are 1-based throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import product
from math import comb

from .complexes import Simplex, SimplicialComplex, VertexId
from .errors import DegenerateInput


@dataclass(frozen=True)
class GridBox:
    """A box of cubes: dims[j] cubes along axis j."""

    dims: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.dims or any(n < 1 for n in self.dims):
            raise DegenerateInput("box dimensions must be positive")

    @property
    def d(self) -> int:
        return len(self.dims)

    def __contains__(self, cell: tuple[int, ...]) -> bool:
        return len(cell) == self.d and all(
            1 <= i <= n for i, n in zip(cell, self.dims)
        )

    def all_cells(self):
        return product(*(range(1, n + 1) for n in self.dims))


@dataclass(frozen=True)
class GridRegion:
    """A subset of a box's cubes."""

    box: GridBox
    cells: frozenset[tuple[int, ...]]
    shellable_guaranteed: bool | None = None

    @classmethod
    def of(cls, box: GridBox, cells, shellable_guaranteed=None) -> "GridRegion":
        cs = frozenset(tuple(c) for c in cells)
        for c in cs:
            if c not in box:
                raise DegenerateInput(f"cell {c} outside box {box.dims}")
        return cls(box, cs, shellable_guaranteed)

    def __len__(self) -> int:
        return len(self.cells)


def cell_simplex(cell: tuple[int, ...]) -> Simplex:
    """The (2d-1)-simplex of a cube: both path vertices on every axis,
    which come out sorted, axis by axis."""
    verts = []
    for axis, i in enumerate(cell, start=1):
        verts.append(VertexId.path(axis, i))
        verts.append(VertexId.path(axis, i + 1))
    return Simplex._face(verts)


@dataclass(frozen=True)
class JoinOfPaths:
    """The join of d paths, with the cube-index to facet bijection."""

    lengths: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.lengths or any(n < 2 for n in self.lengths):
            raise DegenerateInput("each path needs at least 2 vertices")

    @property
    def d(self) -> int:
        return len(self.lengths)

    @property
    def box(self) -> GridBox:
        return GridBox(tuple(n - 1 for n in self.lengths))

    @cached_property
    def by_cell(self) -> dict[tuple[int, ...], Simplex]:
        return {c: cell_simplex(c) for c in self.box.all_cells()}

    @cached_property
    def complex(self) -> SimplicialComplex:
        return SimplicialComplex.from_facets(self.by_cell.values())

    def facet_of(self, cell: tuple[int, ...]) -> Simplex:
        try:
            return self.by_cell[tuple(cell)]
        except KeyError as exc:
            raise DegenerateInput(f"cell {cell} outside the grid") from exc


def join_of_paths(path_lengths) -> JoinOfPaths:
    """Join of d paths with the given vertex counts."""
    return JoinOfPaths(tuple(path_lengths))


def _neighbors(cell: tuple[int, ...]):
    for axis in range(len(cell)):
        for step in (-1, 1):
            yield cell[:axis] + (cell[axis] + step,) + cell[axis + 1:]


def is_grid_starconvex(r: GridRegion, center: tuple[int, ...]) -> bool:
    """Box-interval condition from a center cell toward every region cell."""
    center = tuple(center)
    if center not in r.cells:
        raise DegenerateInput(f"center {center} not in the region")
    for target in r.cells:
        ranges = [
            range(min(a, b), max(a, b) + 1) for a, b in zip(center, target)
        ]
        for between in product(*ranges):
            if between not in r.cells:
                return False
    return True


def diagonal_band(box: GridBox, m1: int, m2: int) -> GridRegion:
    """Cells whose index sum lies in [m1, m2].

    The returned region carries a flag recording whether it meets the
    sufficient shellability condition: width at least d, or the band
    touches the minimal or maximal achievable sum.
    """
    d = box.d
    total = sum(box.dims)
    if not (d <= m1 <= m2 <= total):
        raise DegenerateInput(
            f"need {d} <= m1 <= m2 <= {total}, got [{m1}, {m2}]"
        )
    guaranteed = (m2 - m1 >= d) or (m1 == d) or (m2 == total)
    return GridRegion(box, frozenset(_cells_with_sum(box.dims, m1, m2)), guaranteed)


def _cells_with_sum(dims: tuple[int, ...], lo: int, hi: int):
    """The cells of a box whose index sum lies in [lo, hi], enumerated
    directly: each index ranges only over the values that the remaining
    axes can still complete to such a sum."""
    if not dims:
        yield ()
        return
    rest = dims[1:]
    least, most = len(rest), sum(rest)
    for i in range(max(1, lo - most), min(dims[0], hi - least) + 1):
        for tail in _cells_with_sum(rest, lo - i, hi - i):
            yield (i,) + tail


def _band_order(dims: tuple[int, ...], m1: int, m2: int) -> list[tuple[int, ...]]:
    """Facet order for the band [m1, m2] in a box, following the recursive
    bottom-slab / top-slab decomposition."""
    d = len(dims)
    m1 = max(m1, d)
    m2 = min(m2, sum(dims))
    if m1 > m2:
        return []
    if d == 1:
        return [(i,) for i in range(m1, m2 + 1)]
    last = dims[-1]
    rest = dims[:-1]
    if last == 1:
        return [t + (1,) for t in _band_order(rest, m1 - 1, m2 - 1)]
    if m2 < last + (d - 1):
        # no cell reaches the top slab; shrink the box
        return _band_order(rest + (last - 1,), m1, m2)
    body = _band_order(rest + (last - 1,), m1, m2)
    if m1 <= last - 1:
        top = [t + (last,) for t in _band_order(rest, m1 - last, m2 - last)]
        return body + top
    # every top-slab cell of minimal sum is glued last, in any (lex) order
    upper = [t + (last,) for t in _band_order(rest, m1 + 1 - last, m2 - last)]
    low_sum = m1 - last
    ridge = sorted(
        t for t in product(*(range(1, n + 1) for n in rest)) if sum(t) == low_sum
    )
    return body + upper + [t + (last,) for t in ridge]


def band_cell_order(r: GridRegion) -> list[tuple[int, ...]]:
    """The cubes of a diagonal band in a shelling order of their simplices."""
    if not r.shellable_guaranteed:
        raise DegenerateInput(
            "band does not meet the sufficient condition; no order claimed"
        )
    sums = [sum(c) for c in r.cells]
    m1, m2 = min(sums), max(sums)
    order = _band_order(r.box.dims, m1, m2)
    if set(order) != r.cells:
        raise DegenerateInput("region is not a full diagonal band")
    return order


def ehrhart_crosspolytope(d: int, x: int) -> int:
    """Lattice-point count of the dilated standard crosspolytope."""
    if d < 1 or x < 0:
        raise DegenerateInput("need d >= 1 and x >= 0")
    return sum(comb(d, i) * comb(x + i, d) for i in range(d + 1))


def aztec_crosspolytope(d: int, k: int) -> GridRegion:
    """Cubes of a k^d box within L1 distance below k/2 of the central cube."""
    if k < 3 or k % 2 == 0:
        raise DegenerateInput("need odd k >= 3")
    if d < 1:
        raise DegenerateInput("need d >= 1")
    center = (k + 1) // 2
    radius = (k - 1) // 2
    box = GridBox((k,) * d)
    cells = [
        c for c in box.all_cells() if sum(abs(i - center) for i in c) <= radius
    ]
    return GridRegion.of(box, cells)


def boundary_members(r: GridRegion) -> set[Simplex]:
    """Full-dimensional simplices of a region ball with at least two
    codimension-1 faces on its boundary.

    These are the candidates for compatible families.  A cell facet is on
    the boundary exactly when the corresponding neighbor cube is missing
    (outside the region or outside the box).
    """
    out = set()
    for c in r.cells:
        missing = sum(1 for nb in _neighbors(c) if nb not in r.cells)
        if missing >= 2:
            out.add(cell_simplex(c))
    return out
