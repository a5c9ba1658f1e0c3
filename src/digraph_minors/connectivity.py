"""Vertex-disjoint directed paths, minimum-order separations, and k-triples.

All path counting goes through one Edmonds-Karp max flow on the
vertex-split network (each vertex an in-node and an out-node joined by an
arc of capacity 1).  Nothing of that network is stored: each search reads
its arcs off `Digraph.out_mask`, and the flow is one predecessor and one
successor per vertex.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .core import Digraph, _bits, induced_subdigraph, is_semi_complete


@dataclass(frozen=True)
class Separation:
    """An ordered separation (C, D): no edge from C minus D to D minus C."""

    c: frozenset[int]
    d: frozenset[int]
    order: int

    def __post_init__(self):
        object.__setattr__(self, "c", frozenset(self.c))
        object.__setattr__(self, "d", frozenset(self.d))
        if self.order != len(self.c & self.d):
            raise ValueError("order must equal |C ∩ D|")


def is_separation(g: Digraph, sep: Separation) -> bool:
    if sep.c | sep.d != frozenset(range(g.vertex_count)):
        return False
    c_only = sep.c - sep.d
    d_only = sep.d - sep.c
    return not any(t in c_only and h in d_only for t, h in g.edges)


def separates(sep: Separation, a, b) -> bool:
    return frozenset(a) <= sep.c and frozenset(b) <= sep.d


@dataclass(frozen=True)
class KTriple:
    a: tuple[int, ...]
    b: tuple[int, ...]
    c: tuple[int, ...]

    @property
    def k(self) -> int:
        return len(self.a)


def is_k_triple(g: Digraph, t: KTriple) -> bool:
    """Check the stored numbering: disjoint size-k sets, A complete to B,
    B complete to C, and back-edges c_i -> a_i."""
    k = t.k
    if not (len(t.b) == len(t.c) == k and k >= 1):
        return False
    sa, sb, sc = set(t.a), set(t.b), set(t.c)
    if len(sa) != k or len(sb) != k or len(sc) != k:
        return False
    if sa & sb or sa & sc or sb & sc:
        return False
    if any(not g.has_edge(x, y) for x in sa for y in sb):
        return False
    if any(not g.has_edge(x, y) for x in sb for y in sc):
        return False
    return all(g.has_edge(t.c[i], t.a[i]) for i in range(k))


@dataclass(frozen=True)
class PathSystem:
    paths: tuple[tuple[int, ...], ...]

    def __len__(self) -> int:
        return len(self.paths)


def is_valid_path_system(g: Digraph, ps: PathSystem) -> bool:
    seen: set[int] = set()
    for path in ps.paths:
        if not path:
            return False
        if any(v in seen for v in path) or len(set(path)) != len(path):
            return False
        seen.update(path)
        if any(not g.has_edge(u, v) for u, v in zip(path, path[1:])):
            return False
    return True


def _max_flow(
    g: Digraph, a, b, limit: int | None = None
) -> tuple[tuple[tuple[int, ...], ...], tuple[int, int]]:
    """Edmonds-Karp max flow from a to b on the vertex-split network of g.

    Node 2v is v_in and 2v+1 is v_out, joined by a unit arc; an edge t -> h
    other than a loop is an arc t_out -> h_in, a source feeds every a_in and
    every b_out feeds a sink.  The flow is pred[v], the tail feeding v_in, and
    succ[v], the head v_out feeds (-1: the source or the sink; None: v carries
    no flow).  Each search reads residual arcs off g.out_mask: from v_in the
    unused split arc, else pred[v]'s out-node; from v_out the used split arc,
    then the heads in ascending order.  The first b-vertex's out-node ends it.

    Before the first search, each vertex of a ∩ b in ascending order becomes
    a zero-length path (pred and succ -1).  The first |a ∩ b| searches would
    find exactly these paths in this order, and no later search reroutes one:
    its in-node leads only back to the source, and no residual arc enters its
    out-node.

    Returns the flow paths by ascending first vertex, and the reach of the
    last, failed search: masks of the vertices whose in- and out-node it saw.
    With a limit, the flow stops after that many augmentations: it has
    min(limit, kappa) paths, and the reach is a cut only if it has fewer.
    When the shared vertices alone meet the limit, no search runs and the
    reach is empty.
    """
    n = g.vertex_count
    outs = [mask & ~(1 << v) for v, mask in enumerate(g.out_mask)]
    starts = sorted(set(a))
    sources = sum(1 << v for v in starts)
    sinks = sum(1 << v for v in set(b))
    pred: list[int | None] = [None] * n
    succ: list[int | None] = [None] * n
    seen_in = seen_out = augmented = 0
    for v in starts:
        if augmented == limit:
            break
        if sinks >> v & 1:
            pred[v] = succ[v] = -1
            augmented += 1
    while augmented != limit:
        parent = [-1] * (2 * n)
        queue = [2 * v for v in starts]
        seen_in, seen_out = sources, 0
        for node in queue:
            v = node >> 1
            if not node & 1:
                p = v if pred[v] is None else pred[v]
                if p >= 0 and not seen_out >> p & 1:
                    seen_out |= 1 << p
                    parent[2 * p + 1] = node
                    queue.append(2 * p + 1)
                continue
            if sinks >> v & 1:
                break
            if succ[v] is not None and not seen_in >> v & 1:
                seen_in |= 1 << v
                parent[node - 1] = node
                queue.append(node - 1)
            heads = outs[v] & ~seen_in
            seen_in |= heads
            while heads:
                low = heads & -heads
                heads ^= low
                h_in = 2 * low.bit_length() - 2
                parent[h_in] = node
                queue.append(h_in)
        else:
            break
        augmented += 1
        succ[v] = -1
        node = 2 * v + 1
        while node >= 0:
            prev = parent[node]
            v, u = node >> 1, prev >> 1
            if prev < 0:
                pred[v] = -1
            elif u != v and node & 1:  # back along the edge v -> u
                if pred[u] == v:
                    pred[u] = None
                if succ[v] == u:
                    succ[v] = None
            elif u != v:
                succ[u], pred[v] = v, u
            node = prev
    paths = []
    for v in starts:
        if pred[v] == -1:
            path = [v]
            while succ[path[-1]] != -1:
                path.append(succ[path[-1]])
            paths.append(tuple(path))
    return tuple(paths), (seen_in, seen_out)


def max_disjoint_paths(g: Digraph, a, b) -> PathSystem:
    """A maximum system of vertex-disjoint directed paths from a to b.

    Paths are disjoint including endpoints; a vertex of a ∩ b yields a
    zero-length path.  The cardinality equals the minimum separation order
    (Menger).
    """
    return PathSystem(_max_flow(g, a, b)[0])


def min_separation(g: Digraph, a, b) -> Separation:
    """Minimum-order separation (C, D) with a ⊆ C and b ⊆ D.

    Deterministic tie-break: C is the in-node reachable set of the residual
    graph of a maximum flow (the canonical source-side minimum vertex cut).
    """
    a = frozenset(a)
    b = frozenset(b)
    n = g.vertex_count
    everything = frozenset(range(n))
    if not b:
        return Separation(everything, frozenset(), 0)
    _, (seen_in, seen_out) = _max_flow(g, a, b)
    c = frozenset(v for v in range(n) if seen_in >> v & 1)
    cut = frozenset(v for v in c if not seen_out >> v & 1)
    d = (everything - c) | cut
    return Separation(c, d, len(cut))


def minimal_union_paths(g: Digraph, a, b, s: int) -> PathSystem:
    """s vertex-disjoint directed a->b paths, each induced, each meeting a
    only at its first vertex and b only at its last.

    Starts from a maximum flow system and shrinks: trim each path to its last
    a-vertex and first b-vertex after it, then jump from each vertex to its
    furthest later out-neighbour on the path.  A jump leaves no forward chord
    at or before its tail, so one forward pass leaves none at all.
    """
    if not is_semi_complete(g):
        raise ValueError("minimal_union_paths requires a semi-complete digraph")
    if s == 0:
        return PathSystem(())
    a = frozenset(a)
    b = frozenset(b)
    system = max_disjoint_paths(g, a, b)
    if len(system) < s:
        raise ValueError(f"only {len(system)} disjoint paths exist, {s} requested")
    out = []
    for path in system.paths[:s]:
        path = list(path)
        last_a = max(i for i, v in enumerate(path) if v in a)
        path = path[last_a:]
        first_b = min(i for i, v in enumerate(path) if v in b)
        path = path[: first_b + 1]
        i = 0
        while i < len(path) - 2:
            j = next((j for j in range(len(path) - 1, i + 1, -1)
                      if g.has_edge(path[i], path[j])), i + 1)
            del path[i + 1:j]
            i += 1
        out.append(tuple(path))
    return PathSystem(tuple(out))


def find_k_triple(g: Digraph, k: int) -> KTriple | None:
    """Exhaustive search for a k-triple; None is a certificate of absence.

    Backtracks over A then B then C (candidate sets pruned by common
    out-neighbourhoods), with the back-edge numbering found by bipartite
    matching from C to A.
    """
    if k < 1:
        raise ValueError("k must be positive")
    n = g.vertex_count
    if 3 * k > n:
        return None
    outs = g.out_mask
    full = (1 << n) - 1

    def match(c_list, a_list):
        # Kuhn's algorithm: match every c_i to a distinct a with edge c->a
        match_to: dict[int, int] = {}

        def try_augment(ci, seen):
            for aj, av in enumerate(a_list):
                if aj in seen or not g.has_edge(c_list[ci], av):
                    continue
                seen.add(aj)
                if aj not in match_to or try_augment(match_to[aj], seen):
                    match_to[aj] = ci
                    return True
            return False

        for ci in range(len(c_list)):
            if not try_augment(ci, set()):
                return None
        return {ci: a_list[aj] for aj, ci in match_to.items()}

    for a_set in combinations(range(n), k):
        a_mask = 0
        for v in a_set:
            a_mask |= 1 << v
        b_cand = full & ~a_mask
        for v in a_set:
            b_cand &= outs[v]
        if b_cand.bit_count() < k:
            continue
        for b_set in combinations(_bits(b_cand), k):
            b_mask = 0
            for v in b_set:
                b_mask |= 1 << v
            c_cand = full & ~a_mask & ~b_mask
            for v in b_set:
                c_cand &= outs[v]
            if c_cand.bit_count() < k:
                continue
            for c_set in combinations(_bits(c_cand), k):
                assignment = match(list(c_set), list(a_set))
                if assignment is None:
                    continue
                c_ordered = tuple(c_set)
                a_ordered = tuple(assignment[ci] for ci in range(k))
                triple = KTriple(a_ordered, tuple(b_set), c_ordered)
                assert is_k_triple(g, triple)
                return triple
    return None


def local_connectivity(g: Digraph, u: int, v: int) -> int:
    """Maximum number of internally vertex-disjoint directed u->v paths.

    u and v are shared by all paths; parallel u->v edges each count as a path
    of their own.
    """
    if u == v:
        raise ValueError("endpoints must differ")
    # Menger: the u->v paths with inner vertices are as many as the disjoint
    # paths from u's out-neighbours to v's in-neighbours in g - {u, v}.
    rest, old_ids, _ = induced_subdigraph(g, set(range(g.vertex_count)) - {u, v})
    new_id = {x: i for i, x in enumerate(old_ids)}
    ends = ~(1 << u | 1 << v)
    a = [new_id[x] for x in _bits(g.out_mask[u] & ends)]
    b = [new_id[x] for x in _bits(g.in_mask[v] & ends)]
    return g.multiplicity.get((u, v), 0) + len(max_disjoint_paths(rest, a, b))


def pairwise_k_connected_set(g: Digraph, k: int) -> frozenset[int] | None:
    """A set of k vertices every ordered pair of which is joined by k
    internally disjoint paths, or None after exhaustive search."""
    if k < 1:
        raise ValueError("k must be positive")
    n = g.vertex_count
    if k > n:
        return None
    if k == 1:
        return frozenset({0}) if n else None
    good = [[False] * n for _ in range(n)]
    for u in range(n):
        for v in range(n):
            if u != v:
                good[u][v] = local_connectivity(g, u, v) >= k
    mutual = [
        [good[u][v] and good[v][u] for v in range(n)] for u in range(n)
    ]
    for cand in combinations(range(n), k):
        if all(mutual[x][y] for x, y in combinations(cand, 2)):
            return frozenset(cand)
    return None
