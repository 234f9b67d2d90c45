"""Certification oracles: GF(2) homology, sphere/ball recognition, shellings.

These are the independent checks the rest of the package is validated
against.  Homology is computed over the 2-element field with bitset
Gaussian elimination, which is exact; sphere and ball certificates
combine the Betti pattern with pseudomanifold flags and recursive vertex
link certification (depth-limited to dimension 5).

Certification counts where counting is exact.  For a dual-connected
pseudomanifold of dimension d, rank d_d is f_d - 1 when it is closed and
f_d when it has a boundary ridge, and rank d_1 is f_0 - 1, so only
d_2 .. d_(d-1) are eliminated.  Such a complex of dimension 2 is a
sphere iff it is closed with Euler characteristic 2 and a disk iff it
has a boundary with Euler characteristic 1, so it needs no Betti numbers
and no links.  ``betti_gf2`` eliminates every boundary map and is the
reference the counted ranks are tested against.

Links are read from the parent's index.  One pass over the ridges of a
complex gives its pseudomanifold flags and dual graph and files under
each vertex v what lk(v) is read from.  The link of a vertex of a
dual-connected 3-dimensional pseudomanifold is never built: it is a
pseudomanifold, closed iff every ridge through v lies in two facets; its
dual graph is the parent's dual graph induced on star(v); and its Euler
characteristic is #edges - #ridges + #facets at v.  A closed complex of
dimension 4 or 5 certifies its links first.  If they all certify as
spheres it is a closed connected GF(2) homology manifold, so
b_k = b_(d-k) and only d_2 .. d_ceil(d/2) are eliminated; if one fails,
its Betti numbers are eliminated as before.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Sequence

from .complexes import Simplex, SimplicialComplex
from .errors import DegenerateInput, InvalidOrder

LINK_RECURSION_MAX_DIM = 5

SPHERE = "sphere"
BALL = "ball"
NEITHER = "neither"


@dataclass(frozen=True)
class TopologyCertificate:
    """Outcome of certification plus the evidence it rests on."""

    kind: str
    dim: int
    betti: tuple[int, ...] | None
    pseudomanifold: bool
    closed: bool
    dual_connected: bool
    links_verified: bool

    def is_sphere(self, d: int | None = None) -> bool:
        return self.kind == SPHERE and (d is None or self.dim == d)

    def is_ball(self, d: int | None = None) -> bool:
        return self.kind == BALL and (d is None or self.dim == d)


def _indexed_facets(x: SimplicialComplex) -> list[tuple[int, ...]]:
    """Facets as sorted tuples of vertex indices.  ``x.vertices`` and
    each ``f.verts`` are sorted, so the indices come out in order."""
    index = {v: i for i, v in enumerate(x.vertices)}
    return [tuple([index[v] for v in f.verts]) for f in x.facets]


def _faces_by_dim(facets: list[tuple[int, ...]], dims: range) -> list[list[tuple[int, ...]]]:
    """The faces of each dimension in ``dims``, sorted."""
    seen: list[set[tuple[int, ...]]] = [set() for _ in dims]
    for f in facets:
        for faces, k in zip(seen, dims):
            faces.update(combinations(f, k + 1))
    return [sorted(s) for s in seen]


def _rank_gf2(columns: list[int]) -> int:
    pivots: dict[int, int] = {}
    rank = 0
    for col in columns:
        while col:
            p = col.bit_length() - 1
            other = pivots.get(p)
            if other is None:
                pivots[p] = col
                rank += 1
                break
            col ^= other
    return rank


def _boundary_rank(lower: list[tuple[int, ...]], upper: list[tuple[int, ...]]) -> int:
    """GF(2) rank of the boundary map from the faces ``upper`` to the
    faces ``lower``, which are one dimension lower."""
    row = {f: i for i, f in enumerate(lower)}
    k = len(lower[0])
    cols = []
    for f in upper:
        mask = 0
        for c in combinations(f, k):
            mask |= 1 << row[c]
        cols.append(mask)
    return _rank_gf2(cols)


def _betti_from_ranks(counts: list[int], ranks: list[int]) -> tuple[int, ...]:
    """Reduced Betti numbers from the face counts f_0 .. f_d and the
    ranks of the boundary maps d_1 .. d_d: b_k = f_k - rank d_k -
    rank d_(k+1), less 1 at k = 0."""
    r = [0, *ranks, 0]
    return tuple(f - r[k] - r[k + 1] - int(k == 0) for k, f in enumerate(counts))


def _betti_from_indexed(facets: list[tuple[int, ...]]) -> tuple[int, ...]:
    """Reduced GF(2) Betti numbers by eliminating every boundary map."""
    faces = _faces_by_dim(facets, range(len(facets[0])))
    ranks = [_boundary_rank(lower, upper) for lower, upper in zip(faces, faces[1:])]
    return _betti_from_ranks([len(f) for f in faces], ranks)


def _betti_pm_connected(
    facets: list[tuple[int, ...]],
    faces: list[list[tuple[int, ...]]],
    ridges: dict[tuple[int, ...], list[int]],
    closed: bool,
    n_vertices: int,
    manifold: bool = False,
) -> tuple[int, ...]:
    """Reduced GF(2) Betti numbers of a dual-connected pseudomanifold of
    dimension d >= 2, given its sorted faces of dimensions 1 .. d-2,
    eliminating at most d_2 .. d_(d-1).

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

    Duality.  A ``manifold`` is closed and its vertex links certify as
    spheres, so it is a closed connected GF(2) homology manifold and
    b_k = b_(d-k).  Only d_2 .. d_ceil(d/2) are eliminated then, and
    rank d_k for k = d-1 down to ceil(d/2)+1 is f_k - rank d_(k+1) -
    b_(d-k), where b_(d-k) already follows from the lower ranks.

    The (d-1)-faces are the keys of ``ridges``.  The faces are sorted:
    in insertion order the elimination fills in more, and certifying
    holes4(81) peaks about 6 MB higher.
    """
    d = len(facets[0]) - 1
    counts = [n_vertices, *map(len, faces), len(ridges), len(facets)]
    last = (d + 1) // 2 if manifold else d - 1
    if last == d - 1 > 1:
        faces = [*faces, sorted(ridges)]
    ranks = [0] * (d + 2)
    ranks[1] = n_vertices - 1
    ranks[d] = len(facets) - 1 if closed else len(facets)
    for k in range(2, last + 1):
        ranks[k] = _boundary_rank(faces[k - 2], faces[k - 1])
    for k in range(d - 1, last, -1):
        j = d - k
        ranks[k] = counts[k] - ranks[k + 1] - (counts[j] - ranks[j] - ranks[j + 1])
    return _betti_from_ranks(counts, ranks[1:d + 1])


def betti_gf2(x: SimplicialComplex) -> tuple[int, ...]:
    """Reduced Betti numbers over GF(2) in dimensions 0..dim."""
    x._require_nonvoid()
    if x.dim < 0:
        raise DegenerateInput("the empty-facet complex has no homology to report")
    return _betti_from_indexed(_indexed_facets(x))


def _ridges(
    facets: list[tuple[int, ...]], star: dict[int, list] | None = None
) -> dict[tuple[int, ...], list[int]]:
    """Map each codimension-1 face to the indices of the facets that
    contain it.

    The ridge of a facet that omits the vertex v is that facet's face in
    lk(v), so with ``star`` the same pass files under each vertex what
    its link is read from: the indices of the facets at it when the
    facets are tetrahedra, whose links are read off the index, and the
    facets of its link otherwise.
    """
    d = len(facets[0]) - 1
    ridges: dict[tuple[int, ...], list[int]] = {}
    if star is None:
        for i, f in enumerate(facets):
            for r in combinations(f, d):
                ridges.setdefault(r, []).append(i)
        return ridges
    by_index = d == 3
    for i, f in enumerate(facets):
        for v, r in zip(reversed(f), combinations(f, d)):
            ridges.setdefault(r, []).append(i)
            star[v].append(i if by_index else r)
    return ridges


def _adjacency(n_facets: int, ridges: dict[tuple[int, ...], list[int]]) -> list[list[int]]:
    """The dual graph: for each facet, the facets it shares a ridge with."""
    adjacency: list[list[int]] = [[] for _ in range(n_facets)]
    for owners in ridges.values():
        a = owners[0]
        for b in owners[1:]:
            adjacency[a].append(b)
            adjacency[b].append(a)
    return adjacency


def _connected(adjacency: list[list[int]], nodes: "range | set[int]") -> bool:
    """Whether the facets ``nodes`` induce a connected subgraph of the
    dual graph."""
    start = next(iter(nodes))
    seen = {start}
    stack = [start]
    while stack:
        for j in adjacency[stack.pop()]:
            if j not in seen and j in nodes:
                seen.add(j)
                stack.append(j)
    return len(seen) == len(nodes)


def _sphere_pattern(d: int) -> tuple[int, ...]:
    return (0,) * d + (1,)


def _kind_low_dim(facets: list[tuple[int, ...]]) -> str:
    """Sphere/ball/neither for dimensions 0 and 1, directly."""
    d = len(facets[0]) - 1
    if d == 0:
        return SPHERE if len(facets) == 2 else BALL if len(facets) == 1 else NEITHER
    ridges = _ridges(facets)
    if any(len(owners) > 2 for owners in ridges.values()):
        return NEITHER
    if not _connected(_adjacency(len(facets), ridges), range(len(facets))):
        return NEITHER
    ends = sum(1 for owners in ridges.values() if len(owners) == 1)
    if ends == 0:
        return SPHERE
    return BALL if ends == 2 else NEITHER


def _surface_links(
    edges: list[tuple[int, ...]],
    ridges: dict[tuple[int, ...], list[int]],
    star: dict[int, list[int]],
    adjacency: list[list[int]],
    bd_verts: set[int],
) -> Callable[[int], tuple]:
    """For a dual-connected pseudomanifold of dimension 3, a function
    giving the classification of the surface lk(v) without building it.
    Each ridge through v lies in one or two facets, so lk(v) is a
    pseudomanifold, closed iff v is not on the boundary.  Its dual graph
    is the dual graph induced on star(v), and its vertices, edges and
    triangles are the edges, ridges and facets at v, which gives chi."""
    chi = {v: len(at) for v, at in star.items()}
    for e in edges:
        for v in e:
            chi[v] += 1
    for r in ridges:
        for v in r:
            chi[v] -= 1

    def link(v: int) -> tuple:
        closed = v not in bd_verts
        connected = _connected(adjacency, set(star[v]))
        kind = NEITHER
        if connected and chi[v] == (2 if closed else 1):
            kind = SPHERE if closed else BALL
        return kind, 2, None, True, closed, connected, True

    return link


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

    The complex is indexed once: one pass over the ridges of its facets
    gives the pseudomanifold flags and the dual graph, and files under
    each vertex what its link is read from.  A closed complex of
    dimension 4 or 5 checks its links first, so that its Betti numbers
    can use Poincare duality.
    """
    d = len(facets[0]) - 1
    if d <= 1:
        # Only the top complex gets here: a 2-complex is classified by
        # its Euler characteristic below and does not recurse.
        kind = _kind_low_dim(facets)
        return kind, d, _betti_from_indexed(facets), kind != NEITHER, kind == SPHERE, True, True

    check_links = 3 <= d <= LINK_RECURSION_MAX_DIM
    star: dict[int, list] = defaultdict(list)
    ridges = _ridges(facets, star if check_links else None)
    sizes = set(map(len, ridges.values()))
    pm = max(sizes) <= 2
    closed = sizes == {2}
    connected = False
    if pm or top:
        adjacency = _adjacency(len(facets), ridges)
        connected = _connected(adjacency, range(len(facets)))
    if not pm or not connected:
        # The rank facts of _betti_pm_connected need both flags.
        betti = _betti_from_indexed(facets) if top else None
        return NEITHER, d, betti, pm, closed, connected, True
    vertices = sorted(star) if check_links else sorted({v for f in facets for v in f})
    faces = _faces_by_dim(facets, range(1, d - 1)) if top or d > 2 else []
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
        betti = _betti_pm_connected(facets, faces, ridges, closed, len(vertices)) if top else None
        chi = len(vertices) - len(ridges) + len(facets)
        if chi == (2 if closed else 1):
            kind = SPHERE if closed else BALL
        else:
            kind = NEITHER
        return kind, d, betti, pm, closed, connected, True

    def links_certify(bd_verts: set[int]) -> bool:
        """Whether every vertex link is a (d-1)-ball on the boundary and
        a (d-1)-sphere elsewhere."""
        if d == 3:
            surface_link = _surface_links(faces[0], ridges, star, adjacency, bd_verts)
        for v in vertices:
            sub_face = tuple(sorted(face + (v,)))
            link = memo.get(sub_face)
            if link is None:
                link = surface_link(v) if d == 3 else _classify(star[v], sub_face, memo)
                memo[sub_face] = link
            if link[:2] != (BALL if v in bd_verts else SPHERE, d - 1):
                return False
        return True

    manifold = closed and d >= 4 and check_links
    if manifold and not links_certify(set()):
        betti = _betti_pm_connected(facets, faces, ridges, closed, len(vertices)) if top else None
        return NEITHER, d, betti, pm, closed, connected, True
    betti = _betti_pm_connected(facets, faces, ridges, closed, len(vertices), manifold)
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
    if check_links and not manifold and not links_certify(bd_verts):
        return neither
    return SPHERE if closed else BALL, d, betti, pm, closed, connected, check_links


def certify(x: SimplicialComplex) -> TopologyCertificate:
    """Certify a pure complex as a sphere, a ball, or neither.

    Sphere(d): closed pseudomanifold, connected dual graph, GF(2) Betti
    pattern of a d-sphere, and all vertex links certify as (d-1)-spheres.
    Ball(d): pseudomanifold with nonempty boundary certifying as a
    (d-1)-sphere, vanishing reduced homology, interior vertex links
    spheres and boundary vertex links balls.  In dimension 2 the Betti
    pattern and the links are read off the Euler characteristic.  Above
    dimension 5 the link recursion is skipped and flagged.
    """
    x._require_nonvoid()
    if x.dim < 0:
        raise DegenerateInput("cannot certify the empty-facet complex")
    return TopologyCertificate(*_classify(_indexed_facets(x), (), {}, top=True))


def verify_shelling(x: SimplicialComplex, order: Sequence[Simplex]) -> bool:
    """Check a facet order is a shelling of a ball.

    Each facet after the first must meet the union of its predecessors in
    a nonempty union of its codimension-1 faces, and never in its whole
    boundary (that would close a sphere inside a ball).
    """
    x._require_nonvoid()
    if len(order) != x.n_facets or set(order) != set(x.facets):
        raise InvalidOrder("order is not a permutation of the facets")
    if len(order) == 1:
        return True
    d = x.dim
    by_vertex: dict[object, list[int]] = {}
    for j, sigma in enumerate(order):
        if j > 0:
            earlier = sorted({i for v in sigma for i in by_vertex.get(v, ())})
            inters = [sigma.vset & order[i].vset for i in earlier]
            shared_ridges = {f for f in inters if len(f) == d}
            if not shared_ridges or len(shared_ridges) == d + 1:
                return False
            for inter in inters:
                if not any(inter <= r for r in shared_ridges):
                    return False
        for v in sigma:
            by_vertex.setdefault(v, []).append(j)
    return True
