"""Reference implementations the tests compare the package against and
build fixtures with.

Nothing in ``src/sphereforge`` runs these, so they live with the tests.
What reads a package type takes it as its first argument: the faces of
a ``FreeSumCell``, and the boundary (``poly_boundary``) and the
proper-intersection check of a ``PolyComplex``.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations
from typing import Iterable, Iterator

from sphereforge.carvefill import BallInComplex, FillManifest, key_label
from sphereforge.complexes import FreeSumCell, PolyComplex, Simplex, SimplicialComplex, VertexId
from sphereforge.errors import DegenerateInput, InternalInvariantViolation
from sphereforge.geometry import HullFacet, Point, _hyperplane, _int_config
from sphereforge.grid import GridBox, GridRegion, _neighbors, band_cell_order
from sphereforge.topology import (
    BALL,
    NEITHER,
    SPHERE,
    TopologyCertificate,
    _betti,
    _betti_from_ranks,
    _boundary_rank,
    _faces_by_dim,
    _indexed_facets,
    _ridges,
    _shelling,
    _sphere_pattern,
)

# --------------------------------------------------------------------------
# complexes

EMPTY_SIMPLEX = Simplex(())


def simplex_facets(s: Simplex) -> list[Simplex]:
    """All codimension-1 faces of a simplex; face i omits ``s[i]``."""
    return [Simplex._face(s[:i] + s[i + 1:]) for i in range(len(s))]


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
        raise DegenerateInput(f"joined complexes share vertices {labels}")
    return SimplicialComplex.from_facets(
        Simplex(f + g) for f in x.facets for g in y.facets
    )


def link(x: SimplicialComplex, f: Simplex) -> SimplicialComplex:
    """Link of a face: residues of the facets containing it."""
    x._require_nonvoid()
    cofacets = [s for s in x.facets if frozenset(f) <= frozenset(s)]
    if not cofacets:
        raise DegenerateInput(f"{f!r} is not a face")
    return SimplicialComplex.from_facets(
        Simplex(frozenset(s) - frozenset(f)) for s in cofacets
    )


def star(x: SimplicialComplex, f: Simplex) -> SimplicialComplex:
    """Closed star of a face: the subcomplex generated by its cofacets."""
    x._require_nonvoid()
    cofacets = [s for s in x.facets if frozenset(f) <= frozenset(s)]
    if not cofacets:
        raise DegenerateInput(f"{f!r} is not a face")
    return SimplicialComplex.from_facets(cofacets)


def cone(x: SimplicialComplex, apex: VertexId) -> SimplicialComplex:
    """Cone over a complex from a fresh apex."""
    x._require_nonvoid()
    if apex in x.vertex_set:
        raise DegenerateInput(f"apex {apex.label} already a vertex")
    return SimplicialComplex.from_facets(Simplex((*f, apex)) for f in x.facets)


def boundary_reference(x: SimplicialComplex) -> SimplicialComplex:
    """The boundary as first computed: every ridge of every facet is
    counted as a ``Simplex``, and those in exactly one facet are kept.
    A ridge in three or more facets is refused; the least one is named."""
    x._require_nonvoid()
    counts: dict[Simplex, int] = {}
    for f in x.facets:
        for r in simplex_facets(f):
            counts[r] = counts.get(r, 0) + 1
    bad = [r for r, c in counts.items() if c >= 3]
    if bad:
        r = min(bad)
        raise DegenerateInput(f"face {r!r} lies in {counts[r]} facets")
    return SimplicialComplex.from_facets(r for r, c in counts.items() if c == 1)


def relabelled(x: SimplicialComplex, seed) -> SimplicialComplex:
    """x with its vertices renamed r:0 .. r:n-1 in a seeded random order."""
    names = list(range(len(x.vertices)))
    random.Random(seed).shuffle(names)
    new = dict(zip(x.vertices, map(VertexId.raw, names)))
    return SimplicialComplex.from_facets(Simplex([new[v] for v in f]) for f in x.facets)


def boundary_facets(cell: FreeSumCell) -> list[Simplex]:
    """Codimension-1 faces: drop one vertex from each part."""
    out = []
    for u in cell.f_part:
        for w in cell.g_part:
            out.append(Simplex((frozenset(cell.f_part + cell.g_part) - {u}) - {w}))
    return out


def is_proper_face(cell: FreeSumCell, verts: frozenset[VertexId]) -> bool:
    """True iff the vertex set spans a proper face of the cell."""
    if not verts <= frozenset(cell.f_part + cell.g_part):
        return False
    return not (frozenset(cell.f_part) <= verts) and not (frozenset(cell.g_part) <= verts)


def proper_faces(cell: FreeSumCell) -> Iterator[Simplex]:
    """All nonempty proper faces (not the full cell)."""
    f, g = cell.f_part, cell.g_part
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
        cells.append((frozenset(s), s))
    for c in x.sorted_free_cells:
        cells.append((frozenset(c.f_part + c.g_part), c))
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
        for r in simplex_facets(s):
            counts[r] = counts.get(r, 0) + 1
    for c in x.free_cells:
        for r in boundary_facets(c):
            counts[r] = counts.get(r, 0) + 1
    bad = [r for r, c in counts.items() if c >= 3]
    if bad:
        raise DegenerateInput(f"face {bad[0]!r} lies in {counts[bad[0]]} cells")
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
        for k in range(1, len(s) + 1):
            for c in combinations(s, k):
                faces.add(frozenset(c))
    full_cells: set[frozenset[VertexId]] = set()
    for cell in x.free_cells:
        full_cells.add(frozenset(cell.f_part + cell.g_part))
        for f in proper_faces(cell):
            faces.add(frozenset(f))
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


def _prisms(d: int, edges: Iterable[tuple[int, int]]) -> list[Simplex]:
    """The facets of the boundary of the d-simplex times a graph given by
    its edges (t, u), each prism staircase-triangulated along the vertex
    order of the simplex.  Vertex i of the simplex in layer t is the raw
    label (d+1)t + i."""
    n = d + 1
    out = []
    for t, u in edges:
        for omit in range(n):
            s = [i for i in range(n) if i != omit]
            for j in range(d):
                low = [VertexId.raw(n * t + i) for i in s[: j + 1]]
                out.append(Simplex(low + [VertexId.raw(n * u + i) for i in s[j:]]))
    return out


def circle_times_sphere(d: int) -> SimplicialComplex:
    """S^1 x S^(d-1), a closed d-manifold that is not a sphere, as the
    boundary of the d-simplex times a 3-cycle."""
    return SimplicialComplex.from_facets(_prisms(d, [(0, 1), (1, 2), (2, 0)]))


def suspended_prism(d: int, pinched: bool = False) -> SimplicialComplex:
    """A d-sphere: the boundary of the d-simplex times an edge, each end
    coned to its own apex.  The two apexes have disjoint closed stars;
    ``pinched`` identifies them, which leaves a closed pseudomanifold
    whose apex link is two disjoint (d-1)-spheres."""
    ends = []
    for t in (0, 1):
        apex = VertexId.cone() if pinched or t == 0 else VertexId.raw(2 * d + 2)
        for omit in range(d + 1):
            base = [VertexId.raw((d + 1) * t + i) for i in range(d + 1) if i != omit]
            ends.append(Simplex([apex] + base))
    return SimplicialComplex.from_facets(_prisms(d, [(0, 1)]) + ends)


# --------------------------------------------------------------------------
# grid


def cell_simplex(cell: tuple[int, ...]) -> Simplex:
    """The (2d-1)-simplex of a cube: both path vertices on every axis."""
    return Simplex(VertexId.path(axis, i + step) for axis, i in enumerate(cell, start=1) for step in (0, 1))


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


def aztec_patch_cells_on_plane(k: int, omega: dict[tuple[int, int], Fraction]):
    """The cells of the Aztec patch of size k found from its heights: the
    grid squares outside the hole, and for each quadrilateral and
    pentagon of the hole joined to the center, every key on the plane
    through three of its points.  Each cell is the sorted tuple of its
    keys, the cells sorted, with the number of rectangles,
    quadrilaterals and pentagons."""
    center = (0, 0)
    keys, rows, _ = _int_config([(key, tuple(map(Fraction, key))) for key in omega], omega)
    row = dict(zip(keys, rows))

    def on_plane(seed):
        nu = _hyperplane([row[p] for p in seed[:3]])
        return tuple(p for p in keys if _dot(nu, row[p]) == 0)

    rects = set()
    for cx in range(1 - k, k, 2):
        for cy in range(1 - k, k, 2):
            if abs(cx) + abs(cy) > k - 1:
                rects.add(((cx - 1, cy - 1), (cx - 1, cy + 1), (cx + 1, cy - 1), (cx + 1, cy + 1)))
    hole = set()
    for sx in (1, -1):
        for sy in (1, -1):
            for i in range(3, k - 1, 2):
                hole.add(on_plane([(sx * i, sy * (k - 1 - i)), (sx * i, sy * (k + 1 - i)),
                                   (sx * (i - 2), sy * (k + 1 - i)), center]))
    for s in (1, -1):
        hole.add(on_plane([(1, s * k), (-1, s * k), (1, s * (k - 2)), (-1, s * (k - 2)), center]))
        hole.add(on_plane([(s * k, 1), (s * k, -1), (s * (k - 2), 1), (s * (k - 2), -1), center]))
    quads = sum(1 for c in hole if not any(abs(i) == k or abs(j) == k for i, j in c))
    return tuple(sorted(rects | hole)), (len(rects), quads, len(hole) - quads)


def lower_facets(facets: list[HullFacet]) -> list[HullFacet]:
    """Facets whose outward normal points downward in the last coordinate."""
    return [f for f in facets if f.normal[-1] < 0]


def pivot_reference(
    rows: list[tuple[int, ...]],
    basis: list[tuple[int, ...]],
    ref: tuple[int, ...],
    skip: frozenset[int],
) -> tuple[tuple[int, ...], int]:
    """Turn a hyperplane about the ridge spanned by basis, away from ref,
    until it supports every point; rows, basis and ref are homogeneous
    rows of points.

    Every candidate contains the ridge and has ref strictly on its
    negative side, and a point strictly outside one candidate turns the
    next one further from ref, so the points passed stay inside and one
    pass suffices.  Returns the hyperplane and the last point that set it.
    """
    best, last = None, -1
    for i, row in enumerate(rows):
        if i in skip or (best is not None and _dot(best, row) <= 0):
            continue
        nu = _hyperplane(basis + [row])
        best, last = (nu if _dot(nu, ref) < 0 else tuple(-x for x in nu)), i
    return best, last


def _dot(u, v) -> int:
    return sum(a * b for a, b in zip(u, v))


# --------------------------------------------------------------------------
# carvefill


def boundary_restriction(b: BallInComplex, sigma: Simplex) -> SimplicialComplex:
    """The pure codimension-1 part of a cell's boundary lying on the
    ball's boundary.  May be void."""
    if sigma not in b.ball_facets:
        raise DegenerateInput(f"{sigma!r} is not a facet of the ball")
    return SimplicialComplex.from_facets(
        t for t in simplex_facets(sigma) if t in b.boundary.facets
    )


def missing_face_reference(b: BallInComplex, sigma: Simplex) -> Simplex:
    """The missing face as first defined: the cell minus the common
    intersection of its facets on the ball boundary."""
    contact = boundary_restriction(b, sigma).facets
    if not contact:
        raise DegenerateInput(f"{sigma!r} has no facet on the ball boundary")
    if len(contact) == len(sigma):
        raise DegenerateInput("boundary restriction is the whole cell boundary")
    return Simplex(frozenset(sigma) - frozenset.intersection(*map(frozenset, contact)))


def greedy_compatible_members(b: BallInComplex, members: Iterable[Simplex]) -> list[Simplex]:
    """The greedy compatible subfamily, the reference for the rule by
    which ``build_holes3`` keeps a band's bottom members: in simplex
    order, a member is kept unless its missing face lies on the ball
    boundary or is the missing face of a member kept before it."""
    ridges = [frozenset(r) for r in b.boundary.facets]
    seen, kept = set(), []
    for m in sorted(members):
        f = missing_face_reference(b, m)
        if f in seen or any(frozenset(f) <= r for r in ridges):
            continue
        seen.add(f)
        kept.append(m)
    return kept


def triangulate_cell_reference(c: FreeSumCell, choice: int) -> list[Simplex]:
    """``carvefill.triangulate_cell`` as it was before it built its
    simplices straight from sorted tuples: each simplex is made by
    ``Simplex``, which sorts and checks its vertices, and the list is
    sorted after."""
    if choice not in (0, 1):
        raise DegenerateInput("choice must be 0 or 1")
    if choice == 0:
        return sorted(Simplex(frozenset(c.f_part) | (frozenset(c.g_part) - {w})) for w in c.g_part)
    return sorted(Simplex(frozenset(c.g_part) | (frozenset(c.f_part) - {u})) for u in c.f_part)


# --------------------------------------------------------------------------
# topology


def verify_shelling_reference(x: SimplicialComplex, order) -> bool:
    """``topology.verify_shelling`` as it was before it read restrictions:
    each facet after the first is intersected with every earlier facet
    that shares a vertex with it.  The intersections of d vertices are
    the shared ridges; there must be one and not d + 1 of them, and every
    other intersection must lie in one of them.  A complex with a ridge
    in three or more facets is refused."""
    if len(order) != x.n_facets or set(order) != set(x.facets):
        raise DegenerateInput("order is not a permutation of the facets")
    if len(order) == 1:
        return True
    if max(Counter(frozenset(f) - {v} for f in x.facets for v in f).values()) > 2:
        return False
    d = x.dim
    by_vertex: dict[object, list[int]] = {}
    for j, sigma in enumerate(order):
        if j > 0:
            earlier = sorted({i for v in sigma for i in by_vertex.get(v, ())})
            inters = [frozenset(sigma) & frozenset(order[i]) for i in earlier]
            shared_ridges = {f for f in inters if len(f) == d}
            if not shared_ridges or len(shared_ridges) == d + 1:
                return False
            for inter in inters:
                if not any(inter <= r for r in shared_ridges):
                    return False
        for v in sigma:
            by_vertex.setdefault(v, []).append(j)
    return True


def shells_reference(
    facet: tuple[int, ...], restriction: list[int], at: list[set[int]], closing: bool
) -> bool:
    """``topology._shells`` as it was before it stopped copying sets: the
    intersection of the ``at`` sets of the whole restriction, which
    copies a vertex's set when the restriction has one vertex."""
    if len(restriction) == len(facet):
        return closing
    return bool(restriction) and not set.intersection(*[at[v] for v in restriction])


def canonical_shelling(x: SimplicialComplex) -> tuple[Simplex, ...] | None:
    """The order in which the search of ``certify`` shells a
    pseudomanifold, or None when it gets stuck."""
    facets = _indexed_facets(x)
    ridges = _ridges(facets)
    closed = all(len(owners) == 2 for owners in ridges.values())
    order = _shelling(facets, ridges, closed, len(x.vertices))
    return None if order is None else tuple(x.sorted_facets[i] for i in order)


# The classifier of ``topology.certify`` as it was before spheres and
# balls were certified by a shelling: the GF(2) Betti pattern plus vertex
# links, each built as its own facet list and classified recursively up
# to dimension LINK_DEPTH_MAX_DIM, and dual connectivity by union-find.
# ``certify_reference`` is the certificate it gives.  ``certify`` matches
# it field for field except where the shelling proves more: a lens space
# passes every test here, and a sphere above LINK_DEPTH_MAX_DIM has its
# links unchecked here.  They also differ on a disconnected 1-complex with
# every vertex in at most two edges: ``_kind_low_dim`` here makes it no
# pseudomanifold, not closed, with a connected dual graph, where
# ``certify`` reads its flags off its ridges: a pseudomanifold, closed
# when every component is a cycle, with a disconnected dual graph.

LINK_DEPTH_MAX_DIM = 5


def certify_reference(x: SimplicialComplex) -> TopologyCertificate:
    return TopologyCertificate(*_classify(_indexed_facets(x), (), {}, top=True))


def _betti_of(facets: list[tuple[int, ...]]) -> tuple[int, ...]:
    """Reduced GF(2) Betti numbers of indexed facets, every boundary map
    eliminated."""
    return _betti(facets, _ridges(facets))


def _betti_pm_connected(
    facets: list[tuple[int, ...]],
    ridges: dict[tuple[int, ...], list[int]],
    closed: bool,
    n_vertices: int,
) -> tuple[int, ...]:
    """Reduced GF(2) Betti numbers of a dual-connected pseudomanifold of
    dimension d >= 2, eliminating only d_2 .. d_(d-1).

    Top rank.  A GF(2) d-chain is a set S of facets, and it is a cycle
    iff every ridge lies in an even number of facets of S.  Every ridge
    lies in one or two facets, so a cycle that holds a facet holds its
    neighbours across every ridge shared by two facets, and by dual
    connectivity it holds every facet.  If the complex is closed, the
    sum of all facets is a cycle and is the only nonzero one, so
    rank d_d = f_d - 1.  If some ridge lies in one facet only, the sum
    of all facets is not a cycle either, so no nonzero d-cycle exists
    and rank d_d = f_d.

    Bottom rank.  Every vertex lies in a facet and the facets are
    dual-connected, so the 1-skeleton is connected and
    rank d_1 = f_0 - 1.

    The (d-1)-faces are the keys of ``ridges``, so only the faces of
    dimensions 1 .. d-2 are enumerated.  They are sorted like those:
    in insertion order the elimination fills in more, and certifying
    holes4(81) peaks about 6 MB higher.
    """
    d = len(facets[0]) - 1
    middle = _faces_by_dim(facets, range(1, d - 1)) + [sorted(ridges)]
    ranks = [n_vertices - 1]
    ranks += [_boundary_rank(lower, upper) for lower, upper in zip(middle, middle[1:])]
    ranks.append(len(facets) - 1 if closed else len(facets))
    return _betti_from_ranks([n_vertices, *map(len, middle), len(facets)], ranks)


def _ridge_counts(facets: list[tuple[int, ...]]) -> dict[tuple[int, ...], list[int]]:
    """Map each codimension-1 face to the indices of facets containing it."""
    out: dict[tuple[int, ...], list[int]] = {}
    for i, f in enumerate(facets):
        for j in range(len(f)):
            r = f[:j] + f[j + 1:]
            out.setdefault(r, []).append(i)
    return out


def _dual_connected(n_facets: int, ridges: dict[tuple[int, ...], list[int]]) -> bool:
    if n_facets <= 1:
        return True
    parent = list(range(n_facets))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for owners in ridges.values():
        for b in owners[1:]:
            ra, rb = find(owners[0]), find(b)
            if ra != rb:
                parent[ra] = rb
    root = find(0)
    return all(find(i) == root for i in range(n_facets))


def _kind_low_dim(facets: list[tuple[int, ...]]) -> str:
    """Sphere/ball/neither for dimensions 0 and 1, directly."""
    d = len(facets[0]) - 1
    if d == 0:
        return SPHERE if len(facets) == 2 else BALL if len(facets) == 1 else NEITHER
    degree: dict[int, int] = {}
    for e in facets:
        for v in e:
            degree[v] = degree.get(v, 0) + 1
    if any(c > 2 for c in degree.values()):
        return NEITHER
    if not _dual_connected(len(facets), _ridge_counts(facets)):
        return NEITHER
    ends = sum(1 for c in degree.values() if c == 1)
    if ends == 0:
        return SPHERE
    return BALL if ends == 2 else NEITHER


def _classify(
    facets: list[tuple[int, ...]],
    face: tuple[int, ...],
    memo: dict[tuple[int, ...], tuple],
    top: bool = False,
) -> tuple:
    """The fields of the TopologyCertificate of a complex given by
    indexed facets, in order: kind, dim, betti, pseudomanifold, closed,
    dual_connected, links_verified.  A plain tuple, because links are
    classified by the thousand and a certificate object for each one
    costs a few percent of ``certify``.

    ``face`` is the face whose iterated vertex link the complex is, and
    ``memo`` caches those links by face.  Only the ``top`` complex, the
    one being certified, reports the full evidence: a link or a ball's
    boundary is read for its kind and dim only, stops at its first failed
    test and gets Betti numbers only when it needs them.
    """
    d = len(facets[0]) - 1
    if d <= 1:
        # Only the top complex gets here: a 2-complex is classified by
        # its Euler characteristic below and does not recurse.
        kind = _kind_low_dim(facets)
        return kind, d, _betti_of(facets), kind != NEITHER, kind == SPHERE, True, True

    ridges = _ridge_counts(facets)
    pm = all(len(owners) <= 2 for owners in ridges.values())
    closed = pm and all(len(owners) == 2 for owners in ridges.values())
    connected = (pm or top) and _dual_connected(len(facets), ridges)
    if not pm or not connected:
        # The rank facts of _betti_pm_connected need both flags.
        betti = _betti_of(facets) if top else None
        return NEITHER, d, betti, pm, closed, connected, True
    vertices = sorted({v for f in facets for v in f})
    betti = _betti_pm_connected(facets, ridges, closed, len(vertices)) if top or d > 2 else None
    if d == 2:
        # Split each vertex into one copy per connected component of its
        # link.  Every edge lies in one or two triangles, so each link is
        # a disjoint union of cycles and paths, and the split complex S
        # is a surface, connected because its dual graph is that of this
        # complex.  Splitting adds vertices only, so chi = chi(S) - sum
        # over the vertices of (components - 1).  A closed connected
        # surface has chi <= 2, with equality only for the sphere; one
        # with boundary has chi <= 1, with equality only for the disk.
        # So chi = 2 (closed) or 1 (with boundary) iff S is a sphere or
        # a disk and no vertex was split, which is exactly when the
        # Betti pattern and every vertex link check out.
        chi = len(vertices) - len(ridges) + len(facets)
        if chi == (2 if closed else 1):
            kind = SPHERE if closed else BALL
        else:
            kind = NEITHER
        return kind, d, betti, pm, closed, connected, True
    neither = NEITHER, d, betti, pm, closed, connected, True
    bd_verts: set[int] = set()
    if closed:
        if betti != _sphere_pattern(d):
            return neither
    else:
        if any(b != 0 for b in betti):
            return neither
        boundary = [r for r, owners in ridges.items() if len(owners) == 1]
        if _classify(boundary, (), {})[:2] != (SPHERE, d - 1):
            return neither
        bd_verts = {v for r in boundary for v in r}
    check_links = d <= LINK_DEPTH_MAX_DIM
    if check_links:
        star: dict[int, list[tuple[int, ...]]] = {v: [] for v in vertices}
        for f in facets:
            for v in f:
                star[v].append(f)
        for v in vertices:
            sub_face = tuple(sorted(face + (v,)))
            link = memo.get(sub_face)
            if link is None:
                sub = [tuple(w for w in f if w != v) for f in star[v]]
                link = memo[sub_face] = _classify(sub, sub_face, memo)
            if link[:2] != (BALL if v in bd_verts else SPHERE, d - 1):
                return neither
    return SPHERE if closed else BALL, d, betti, pm, closed, connected, check_links


def lens_space(p: int, q: int) -> SimplicialComplex:
    """The lens space L(p, q), for p odd and q prime to p: the barycentric
    subdivision of C_2p * C_2p, the join of two cycles of length 2p,
    divided by the free Z/p action (i, j) -> (i + 2, j + 2q) on the
    vertices of the two cycles.  A vertex of the subdivision is a face
    of the join, and a facet is a flag of faces of one tetrahedron, so
    the quotient's vertices are the orbits of faces, each named by its
    least image, and its facets are the images of the flags."""
    m = 2 * p

    def name(face: frozenset) -> tuple:
        return min(
            tuple(sorted((c, (i + 2 * k * (q if c else 1)) % m) for c, i in face))
            for k in range(p)
        )

    names: dict[tuple, VertexId] = {}
    facets = set()
    for i in range(m):
        for j in range(m):
            tetrahedron = [(0, i), (0, (i + 1) % m), (1, j), (1, (j + 1) % m)]
            for perm in permutations(tetrahedron):
                flag = []
                for n in range(1, 5):
                    key = name(frozenset(perm[:n]))
                    flag.append(names.setdefault(key, VertexId.raw(len(names))))
                facets.add(Simplex(flag))
    return SimplicialComplex.from_facets(facets)


# --------------------------------------------------------------------------
# io


def _labels(verts) -> list[str]:
    return [v.label for v in verts]


def complex_to_obj(x: "SimplicialComplex | PolyComplex") -> dict:
    """The complex file as plain JSON, built cell by cell: the reference
    for the text ``io.dumps`` writes and the input of the decoder."""
    if isinstance(x, SimplicialComplex):
        cells = [{"t": "s", "v": _labels(f)} for f in x.sorted_facets]
        return {"dim": x.dim, "cells": cells}
    cells = [{"t": "s", "v": _labels(f)} for f in x.sorted_simplex_cells]
    cells.extend(
        {"t": "fs", "f": _labels(c.f_part), "g": _labels(c.g_part)}
        for c in x.sorted_free_cells
    )
    return {"dim": x.dim, "cells": cells}


def manifest_to_obj(m: FillManifest) -> dict:
    """The manifest file as plain JSON, the reference for the text
    ``io.save_manifest`` writes."""
    holes = [
        {
            "key": key_label(key),
            "apex": apex.label,
            "cells": [{"f": _labels(c.f_part), "g": _labels(c.g_part)} for c in cells],
        }
        for key, apex, cells in m.holes
    ]
    return {"dim": m.result.dim, "complex": complex_to_obj(m.result), "holes": holes}
