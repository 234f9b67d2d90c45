"""Certification oracles: GF(2) homology, sphere/ball recognition, shellings.

These are the independent checks the rest of the package is validated
against.  Homology is computed over the 2-element field with bitset
Gaussian elimination, which is exact.

``certify`` makes one pass over the ridges of a complex, which gives its
pseudomanifold flags and its dual graph.  Then, in every dimension, one
greedy search looks for a canonical shelling, with the facets ranked by
index and, if it gets stuck, once more by vertex degree.  A shellable
pseudomanifold is a PL sphere when it is closed and a PL ball otherwise
(Danaraj-Klee, Duke Math. J. 41, 1974), so no link is examined.  A
search that gets stuck proves nothing: the GF(2) Betti numbers then
tell a homology sphere or a homology ball from neither.  One routine,
``_betti``, computes them and every Betti number ``betti_gf2`` reports.

A facet order is checked by restrictions.  The restriction of a facet s
is R(s) = {v in s : s - v lies in an earlier facet}.  s meets the union
of the earlier facets in a nonempty union of its ridges iff R(s) is
nonempty and no earlier facet contains R(s), and in its whole boundary
iff R(s) = s (Ziegler, Lectures on Polytopes, Lecture 8).
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from itertools import combinations
from typing import Sequence

from .complexes import Simplex, SimplicialComplex, _indexed_facets, _ridges
from .errors import DegenerateInput, InvalidOrder

SPHERE = "sphere"
BALL = "ball"
HOMOLOGY_SPHERE = "homology-sphere"
HOMOLOGY_BALL = "homology-ball"
NEITHER = "neither"


@dataclass(frozen=True)
class TopologyCertificate:
    """Outcome of certification plus the evidence it rests on.

    No link is examined.  ``links_verified`` is true when the kind rests
    on a PL certificate (a shelling, which makes every link a PL sphere
    or ball) and for ``neither``; it is false for the ``homology-*``
    kinds, which rest on GF(2) homology alone."""

    kind: str
    dim: int
    betti: tuple[int, ...]
    pseudomanifold: bool
    closed: bool
    dual_connected: bool
    links_verified: bool

    def is_sphere(self, d: int | None = None) -> bool:
        return self.kind == SPHERE and (d is None or self.dim == d)

    def is_ball(self, d: int | None = None) -> bool:
        return self.kind == BALL and (d is None or self.dim == d)


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


def _betti(
    facets: list[tuple[int, ...]], ridges: dict[tuple[int, ...], list[int]]
) -> tuple[int, ...]:
    """Reduced GF(2) Betti numbers of a pure complex of dimension d, by
    eliminating d_1 .. d_d.  Only the faces of dimensions 0 .. d-2 are
    enumerated: the (d-1)-faces are the keys of ``ridges``, sorted
    because in insertion order the elimination fills in more, and the
    d-faces are ``facets``.  At d = 0 the one ridge is the empty face,
    which the slice drops."""
    d = len(facets[0]) - 1
    faces = [*_faces_by_dim(facets, range(d - 1)), sorted(ridges), facets][-(d + 1):]
    ranks = [_boundary_rank(lower, upper) for lower, upper in zip(faces, faces[1:])]
    return _betti_from_ranks(list(map(len, faces)), ranks)


def betti_gf2(x: SimplicialComplex) -> tuple[int, ...]:
    """Reduced Betti numbers over GF(2) in dimensions 0..dim."""
    x._require_nonvoid()
    if x.dim < 0:
        raise DegenerateInput("the empty-facet complex has no homology to report")
    facets = _indexed_facets(x)
    return _betti(facets, _ridges(facets))


def _adjacency(n_facets: int, ridges: dict[tuple[int, ...], list[int]]) -> list[list[int]]:
    """The dual graph: for each facet, the facets it shares a ridge with."""
    adjacency: list[list[int]] = [[] for _ in range(n_facets)]
    for owners in ridges.values():
        a = owners[0]
        for b in owners[1:]:
            adjacency[a].append(b)
            adjacency[b].append(a)
    return adjacency


def _connected(adjacency: list[list[int]]) -> bool:
    """Whether the dual graph is connected."""
    seen = {0}
    stack = [0]
    while stack:
        for j in adjacency[stack.pop()]:
            if j not in seen:
                seen.add(j)
                stack.append(j)
    return len(seen) == len(adjacency)


def _sphere_pattern(d: int) -> tuple[int, ...]:
    return (0,) * d + (1,)


def _shells(
    facet: tuple[int, ...], restriction: list[int], at: list[set[int]], closing: bool
) -> bool:
    """Whether a facet with this restriction extends a shelling of the
    facets before it: the restriction is nonempty and no earlier facet
    contains it, where ``at`` maps each vertex to the earlier facets at
    it, and it is the whole facet only when the facet is ``closing`` a
    sphere.  No set is copied: a facet at every vertex of the
    restriction is one in the intersection of their ``at`` sets, so it
    suffices that the last set is disjoint from the others' intersection,
    and a one-vertex restriction needs its set empty."""
    n = len(restriction)
    if n == len(facet):
        return closing
    if n == 0:
        return False
    last = at[restriction[-1]]
    if n == 1:
        return not last
    common = at[restriction[0]]
    if n > 2:
        common = common.intersection(*[at[v] for v in restriction[1:-1]])
    return common.isdisjoint(last)


def _by_degree(facets: list[tuple[int, ...]], n_vertices: int) -> list[int]:
    """The facet indices ranked by their vertices, the vertices ranked by
    descending degree (the number of facets at them), ties by index."""
    degree = [0] * n_vertices
    for f in facets:
        for v in f:
            degree[v] += 1
    vrank = [0] * n_vertices
    for r, v in enumerate(sorted(range(n_vertices), key=lambda v: (-degree[v], v))):
        vrank[v] = r
    return sorted(range(len(facets)), key=lambda i: sorted([vrank[v] for v in facets[i]]))


def _greedy(
    facets: list[tuple[int, ...]],
    across: list[list[tuple[int, int]]],
    closed: bool,
    n_vertices: int,
    ranked: Sequence[int],
) -> list[int] | None:
    """The greedy search of ``_shelling`` with the facets in the ranking
    ``ranked``, or None when it gets stuck."""
    n = len(facets)
    rank = [0] * n
    for k, i in enumerate(ranked):
        rank[i] = k
    added = [False] * n
    queued = [False] * n
    at: list[set[int]] = [set() for _ in range(n_vertices)]
    order: list[int] = []
    heap = [0]
    while heap:
        i = ranked[heappop(heap)]
        queued[i] = False
        if order:
            restriction = [v for j, v in across[i] if added[j]]
            if not _shells(facets[i], restriction, at, closed and len(order) == n - 1):
                continue
        order.append(i)
        added[i] = True
        for v in facets[i]:
            at[v].add(i)
        for j, _ in across[i]:
            if not added[j] and not queued[j]:
                queued[j] = True
                heappush(heap, rank[j])
    return order if len(order) == n else None


def _shelling(
    facets: list[tuple[int, ...]],
    ridges: dict[tuple[int, ...], list[int]],
    closed: bool,
    n_vertices: int,
) -> list[int] | None:
    """The canonical shelling order of a pseudomanifold, as facet
    indices, or None when the greedy search gets stuck in both of its
    rankings: the facets by index, then ``_by_degree``.

    The search starts from the first facet of the ranking and then adds,
    at each step, the first facet across a ridge from the added ones
    whose restriction extends the shelling; the last facet of a closed
    complex may close it.  A facet's restriction is read off its added
    ridge neighbours.  It grows only when a neighbour is added, which
    queues the facet again, so a refused facet is dropped until then.
    Adding any facet can invalidate a restriction that has not grown, so
    each candidate is checked when it is popped.

    Ranked by index, the search depends on the vertex labels: it shells
    the builders' spheres in their own labels but gets stuck on many of
    them relabelled at random, and the degree ranking shells most of
    those.
    """
    # across[i]: a pair (j, v) for each facet j that shares a ridge with
    # facet i, v the vertex of i that the ridge omits (the facet's
    # vertex sum less the ridge's)
    sums = list(map(sum, facets))
    across: list[list[tuple[int, int]]] = [[] for _ in facets]
    for r, owners in ridges.items():
        if len(owners) == 2:
            a, b = owners
            s = sum(r)
            across[a].append((b, sums[a] - s))
            across[b].append((a, sums[b] - s))
    order = _greedy(facets, across, closed, n_vertices, range(len(facets)))
    if order is None:
        order = _greedy(facets, across, closed, n_vertices, _by_degree(facets, n_vertices))
    return order


def certify(x: SimplicialComplex) -> TopologyCertificate:
    """Certify a pure complex as a sphere, a ball, a GF(2) homology
    sphere or ball, or neither.

    Every certified complex is a pseudomanifold (each ridge in at most
    two facets) with a connected dual graph; a sphere is closed and a
    ball is not.  In every dimension, ``_shelling`` searches for a
    canonical shelling, and one that is found makes the complex a PL
    sphere or ball (Danaraj-Klee); the Betti numbers reported are then
    those of a sphere or a ball, which is a theorem.  Every 2-sphere is
    extendably shellable (Danaraj-Klee, Ann. Discrete Math. 2, 1978), so
    the search shells every sphere up to dimension 2, whatever its
    labels.  If the search gets stuck in both of its rankings, the GF(2)
    Betti numbers of ``_betti`` decide: a closed complex with the Betti
    numbers of a d-sphere is a ``homology-sphere``, and an acyclic one
    whose boundary has the Betti numbers of a (d-1)-sphere is a
    ``homology-ball``, both with ``links_verified`` false.
    """
    x._require_nonvoid()
    if x.dim < 0:
        raise DegenerateInput("cannot certify the empty-facet complex")
    facets = _indexed_facets(x)
    d = x.dim
    ridges = _ridges(facets)
    sizes = set(map(len, ridges.values()))
    pm = max(sizes) <= 2
    closed = sizes == {2}
    n_vertices = len(x.vertices)
    if pm and _shelling(facets, ridges, closed, n_vertices) is not None:
        # the shelling reaches every facet across ridges, so the dual
        # graph is connected
        kind = SPHERE if closed else BALL
        betti = _sphere_pattern(d) if closed else (0,) * (d + 1)
        return TopologyCertificate(kind, d, betti, pm, closed, True, True)
    connected = _connected(_adjacency(len(facets), ridges))
    betti = _betti(facets, ridges)
    if pm and connected:
        # A point, S^0, a path and a cycle always shell, so d >= 2 here.
        if closed and betti == _sphere_pattern(d):
            return TopologyCertificate(HOMOLOGY_SPHERE, d, betti, pm, closed, connected, False)
        if not closed and not any(betti):
            boundary = sorted(r for r, owners in ridges.items() if len(owners) == 1)
            if _betti(boundary, _ridges(boundary)) == _sphere_pattern(d - 1):
                return TopologyCertificate(HOMOLOGY_BALL, d, betti, pm, closed, connected, False)
    return TopologyCertificate(NEITHER, d, betti, pm, closed, connected, True)


def verify_shelling(x: SimplicialComplex, order: Sequence[Simplex]) -> bool:
    """Check a facet order is a shelling of a ball.

    Each facet after the first must meet the union of its predecessors in
    a nonempty union of its codimension-1 faces, and never in its whole
    boundary (that would close a sphere inside a ball).  The restriction
    of each facet is read off one set of the earlier facets' ridges and
    tested by ``_shells``, as the search of ``certify`` tests it.  A
    ridge in three or more facets, which no ball has, is refused.
    """
    x._require_nonvoid()
    if len(order) != x.n_facets or set(order) != set(x.facets):
        raise InvalidOrder("order is not a permutation of the facets")
    if len(order) == 1:
        return True
    if max(map(len, _ridges(_indexed_facets(x)).values())) > 2:
        return False
    index = {v: i for i, v in enumerate(x.vertices)}
    at: list[set[int]] = [set() for _ in index]
    earlier: set[tuple[int, ...]] = set()
    for j, sigma in enumerate(order):
        f = tuple([index[v] for v in sigma])
        # combinations omits the vertices from the last to the first
        ridges = list(combinations(f, len(f) - 1))
        if j > 0:
            restriction = [v for v, r in zip(reversed(f), ridges) if r in earlier]
            if not _shells(f, restriction, at, False):
                return False
        earlier.update(ridges)
        for v in f:
            at[v].add(j)
    return True
