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
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

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


def betti_gf2(x: SimplicialComplex) -> tuple[int, ...]:
    """Reduced Betti numbers over GF(2) in dimensions 0..dim."""
    x._require_nonvoid()
    if x.dim < 0:
        raise DegenerateInput("the empty-facet complex has no homology to report")
    return _betti_from_indexed(_indexed_facets(x))


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


def _sphere_pattern(d: int) -> tuple[int, ...]:
    return (0,) * d + (1,)


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
        return kind, d, _betti_from_indexed(facets), kind != NEITHER, kind == SPHERE, True, True

    ridges = _ridge_counts(facets)
    pm = all(len(owners) <= 2 for owners in ridges.values())
    closed = pm and all(len(owners) == 2 for owners in ridges.values())
    connected = (pm or top) and _dual_connected(len(facets), ridges)
    if not pm or not connected:
        # The rank facts of _betti_pm_connected need both flags.
        betti = _betti_from_indexed(facets) if top else None
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
    check_links = d <= LINK_RECURSION_MAX_DIM
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
