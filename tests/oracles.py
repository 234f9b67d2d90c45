"""Reference implementations the tests compare the package against and
build fixtures with.

Nothing in ``src/sphereforge`` runs these, so they live with the tests.
What reads a package type takes it as its first argument: the faces of
a ``FreeSumCell``, and the boundary (``poly_boundary``) and the
proper-intersection check of a ``PolyComplex``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Iterator

from sphereforge.carvefill import BallInComplex
from sphereforge.complexes import FreeSumCell, PolyComplex, Simplex, SimplicialComplex, VertexId
from sphereforge.errors import (
    DegenerateInput,
    DisjointnessViolation,
    FaceNotFound,
    InternalInvariantViolation,
    NotPseudomanifold,
)
from sphereforge.geometry import HullFacet, Point
from sphereforge.grid import GridBox, GridRegion, _neighbors, band_cell_order, cell_simplex

# --------------------------------------------------------------------------
# complexes

EMPTY_SIMPLEX = Simplex(())


def empty_complex() -> SimplicialComplex:
    """The join identity: one empty facet."""
    return SimplicialComplex.from_facets([EMPTY_SIMPLEX])


def join(x: SimplicialComplex, y: SimplicialComplex) -> SimplicialComplex:
    """Join of two complexes on disjoint vertex sets."""
    x._require_nonvoid()
    y._require_nonvoid()
    overlap = x.vertex_set & y.vertex_set
    if overlap:
        labels = sorted(v.label for v in overlap)
        raise DisjointnessViolation(f"joined complexes share vertices {labels}")
    return SimplicialComplex.from_facets(
        f.union(g) for f in x.facets for g in y.facets
    )


def link(x: SimplicialComplex, f: Simplex) -> SimplicialComplex:
    """Link of a face: residues of the facets containing it."""
    x._require_nonvoid()
    cofacets = [s for s in x.facets if f.vset <= s.vset]
    if not cofacets:
        raise FaceNotFound(f"{f!r} is not a face")
    return SimplicialComplex.from_facets(
        Simplex(s.vset - f.vset) for s in cofacets
    )


def star(x: SimplicialComplex, f: Simplex) -> SimplicialComplex:
    """Closed star of a face: the subcomplex generated by its cofacets."""
    x._require_nonvoid()
    cofacets = [s for s in x.facets if f.vset <= s.vset]
    if not cofacets:
        raise FaceNotFound(f"{f!r} is not a face")
    return SimplicialComplex.from_facets(cofacets)


def cone(x: SimplicialComplex, apex: VertexId) -> SimplicialComplex:
    """Cone over a complex from a fresh apex."""
    x._require_nonvoid()
    if apex in x.vertex_set:
        raise DisjointnessViolation(f"apex {apex.label} already a vertex")
    return SimplicialComplex.from_facets(f.with_vertex(apex) for f in x.facets)


def boundary_facets(cell: FreeSumCell) -> list[Simplex]:
    """Codimension-1 faces: drop one vertex from each part."""
    out = []
    for u in cell.f_part:
        for w in cell.g_part:
            out.append(Simplex((cell.vset - {u}) - {w}))
    return out


def is_proper_face(cell: FreeSumCell, verts: frozenset[VertexId]) -> bool:
    """True iff the vertex set spans a proper face of the cell."""
    if not verts <= cell.vset:
        return False
    return not (cell.f_part.vset <= verts) and not (cell.g_part.vset <= verts)


def proper_faces(cell: FreeSumCell) -> Iterator[Simplex]:
    """All nonempty proper faces (not the full cell)."""
    f = cell.f_part.verts
    g = cell.g_part.verts
    for kf in range(len(f)):
        for cf in combinations(f, kf):
            for kg in range(len(g)):
                for cg in combinations(g, kg):
                    if cf or cg:
                        yield Simplex(cf + cg)


def validate_proper_intersections(x: PolyComplex) -> None:
    """Check every pair of cells meets in a common face of both.

    Only pairs sharing a vertex are examined; the empty set is a face
    of everything.  Raises InternalInvariantViolation on failure.
    """
    cells: list[tuple[frozenset[VertexId], object]] = []
    for s in x.sorted_simplex_cells:
        cells.append((s.vset, s))
    for c in x.sorted_free_cells:
        cells.append((c.vset, c))
    by_vertex: dict[VertexId, list[int]] = {}
    for i, (vs, _) in enumerate(cells):
        for v in vs:
            by_vertex.setdefault(v, []).append(i)
    pairs = set()
    for idxs in by_vertex.values():
        for i, j in combinations(idxs, 2):
            pairs.add((i, j))
    for i, j in sorted(pairs):
        vi, ci = cells[i]
        vj, cj = cells[j]
        inter = vi & vj
        for vs, cell in ((vi, ci), (vj, cj)):
            if isinstance(cell, FreeSumCell):
                ok = is_proper_face(cell, inter) or (inter == vs and ci is cj)
            else:
                ok = inter != vs or ci is cj
                ok = ok and inter <= vs
            if not ok:
                raise InternalInvariantViolation(
                    f"cells {ci!r} and {cj!r} do not intersect properly"
                )


def poly_boundary(x: PolyComplex) -> SimplicialComplex:
    """Codimension-1 faces lying in exactly one cell."""
    counts: dict[Simplex, int] = {}
    for s in x.simplex_cells:
        for r in s.facets():
            counts[r] = counts.get(r, 0) + 1
    for c in x.free_cells:
        for r in boundary_facets(c):
            counts[r] = counts.get(r, 0) + 1
    bad = [r for r, c in counts.items() if c >= 3]
    if bad:
        raise NotPseudomanifold(f"face {bad[0]!r} lies in {counts[bad[0]]} cells")
    return SimplicialComplex.from_facets(r for r, c in counts.items() if c == 1)


@dataclass(frozen=True)
class FVector:
    """Face counts by dimension, index 0 = vertices."""

    counts: tuple[int, ...]

    @property
    def euler_characteristic(self) -> int:
        return sum(c if i % 2 == 0 else -c for i, c in enumerate(self.counts))


def f_vector(x: "PolyComplex | SimplicialComplex") -> FVector:
    """Count faces of every dimension, deduplicated across cells.

    Free-sum cells contribute their proper faces plus the cell itself.
    """
    if isinstance(x, SimplicialComplex):
        x._require_nonvoid()
        x = PolyComplex.from_simplicial(x)
    faces: set[frozenset[VertexId]] = set()
    for s in x.simplex_cells:
        for k in range(1, len(s.verts) + 1):
            for c in combinations(s.verts, k):
                faces.add(frozenset(c))
    full_cells: set[frozenset[VertexId]] = set()
    for cell in x.free_cells:
        full_cells.add(cell.vset)
        for f in proper_faces(cell):
            faces.add(f.vset)
    counts = [0] * (x.dim + 1)
    for f in faces:
        counts[len(f) - 1] += 1
    # a full free-sum cell is a dim-dimensional face with more vertices
    counts[x.dim] += len(full_cells)
    return FVector(tuple(counts))


def gale_evenness(subset: Iterable[int], n: int) -> bool:
    """Gale's evenness condition for a candidate facet of a cyclic polytope.

    Between any two consecutive non-members the number of members must be
    even; runs touching either end of [1, n] are unconstrained.
    """
    members = set(subset)
    run = 0
    seen_gap = False
    for v in range(1, n + 1):
        if v in members:
            run += 1
        else:
            if seen_gap and run % 2 == 1:
                return False
            seen_gap = True
            run = 0
    return True


def cyclic_polytope_facets(n: int, d: int) -> SimplicialComplex:
    """Boundary complex of the cyclic d-polytope on n vertices.

    Vertices are the raw labels 1..n; facets are the d-subsets passing
    Gale's evenness condition.
    """
    if d < 2:
        raise DegenerateInput("cyclic polytopes need dimension >= 2")
    if n <= d:
        raise DegenerateInput(f"need n > d, got n={n}, d={d}")
    verts = [VertexId.raw(i) for i in range(1, n + 1)]
    facets = []
    for idxs in combinations(range(1, n + 1), d):
        if gale_evenness(idxs, n):
            facets.append(Simplex(verts[i - 1] for i in idxs))
    return SimplicialComplex.from_facets(facets)


# --------------------------------------------------------------------------
# grid


def region_complex(r: GridRegion) -> SimplicialComplex:
    if not r.cells:
        raise DegenerateInput("empty region has no complex")
    return SimplicialComplex.from_facets(cell_simplex(c) for c in r.cells)


def is_grid_connected(r: GridRegion) -> bool:
    """Connectivity of the one-step axis adjacency graph on the cells."""
    if not r.cells:
        return True
    start = min(r.cells)
    seen = {start}
    stack = [start]
    while stack:
        c = stack.pop()
        for nb in _neighbors(c):
            if nb in r.cells and nb not in seen:
                seen.add(nb)
                stack.append(nb)
    return len(seen) == len(r.cells)


def _slice_region(r: GridRegion, axis: int, value: int) -> GridRegion:
    dims = r.box.dims[:axis] + r.box.dims[axis + 1:]
    cells = [
        c[:axis] + c[axis + 1:] for c in r.cells if c[axis] == value
    ]
    return GridRegion.of(GridBox(dims), cells)


def is_grid_unimodal(r: GridRegion) -> bool:
    """Interval condition in 1-d; recursively sliced plus connected above."""
    if not r.cells:
        return True
    if r.box.d == 1:
        vals = sorted(c[0] for c in r.cells)
        return vals == list(range(vals[0], vals[-1] + 1))
    if not is_grid_connected(r):
        return False
    for axis in range(r.box.d):
        for value in range(1, r.box.dims[axis] + 1):
            sub = _slice_region(r, axis, value)
            if sub.cells and not is_grid_unimodal(sub):
                return False
    return True


def shelling_order_band(r: GridRegion) -> tuple[Simplex, ...]:
    """Constructive shelling order for a diagonal band region."""
    return tuple(cell_simplex(c) for c in band_cell_order(r))


# --------------------------------------------------------------------------
# geometry


def paths_coordinates(lengths) -> dict[VertexId, Point]:
    """Recursive embedding of d paths in dimension 2d-1: re-embed the
    first d-1 paths by x -> (x, 0, -1) and place path d on (0,..,0,t,1)."""
    lengths = tuple(lengths)
    if not lengths or any(n < 2 for n in lengths):
        raise DegenerateInput("each path needs at least 2 vertices")
    out: dict[VertexId, Point] = {
        VertexId.path(1, i): (Fraction(i),) for i in range(1, lengths[0] + 1)
    }
    for axis, n in enumerate(lengths[1:], start=2):
        pad = (Fraction(0), Fraction(-1))
        out = {v: p + pad for v, p in out.items()}
        dim = 2 * axis - 1
        for i in range(1, n + 1):
            p = [Fraction(0)] * dim
            p[-2] = Fraction(i)
            p[-1] = Fraction(1)
            out[VertexId.path(axis, i)] = tuple(p)
    return out


def lower_facets(facets: list[HullFacet]) -> list[HullFacet]:
    """Facets whose outward normal points downward in the last coordinate."""
    return [f for f in facets if f.normal[-1] < 0]


# --------------------------------------------------------------------------
# carvefill


def boundary_restriction(b: BallInComplex, sigma: Simplex) -> SimplicialComplex:
    """The pure codimension-1 part of a cell's boundary lying on the
    ball's boundary.  May be void."""
    if sigma not in b.ball_facets:
        raise FaceNotFound(f"{sigma!r} is not a facet of the ball")
    return SimplicialComplex.from_facets(
        t for t in sigma.facets() if t in b.boundary_facet_set
    )
