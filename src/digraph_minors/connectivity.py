"""Vertex-disjoint directed paths, minimum-order separations, and k-triples.

All path counting goes through one unit-vertex-capacity max-flow network
(each vertex split into an in-node and an out-node).  Capacities are only
ever 0/1 on the split arcs, so plain Edmonds-Karp is more than enough at the
sizes this library targets.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import combinations

from .core import Digraph, is_semi_complete

_INF = 1 << 30


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

    def vertices(self) -> frozenset[int]:
        return frozenset(v for p in self.paths for v in p)


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


class _SplitFlow:
    """Max flow on the vertex-split network of g.

    Node 2v is v_in, 2v+1 is v_out, then source and sink.  Arc (v_in, v_out)
    has capacity 1 unless v is uncapacitated.
    """

    def __init__(self, g: Digraph, sources, sinks, uncapacitated=(),
                 direct_cap: dict[tuple[int, int], int] | None = None):
        self.g = g
        n = g.vertex_count
        self.source = 2 * n
        self.sink = 2 * n + 1
        self.adj: list[list[int]] = [[] for _ in range(2 * n + 2)]
        self.to: list[int] = []
        self.cap: list[int] = []
        free = set(uncapacitated)
        for v in range(n):
            self._arc(2 * v, 2 * v + 1, _INF if v in free else 1)
        for t, h in sorted(set(g.edges)):
            if t == h:
                continue
            cap = _INF
            if direct_cap is not None and (t, h) in direct_cap:
                cap = direct_cap[(t, h)]
            self._arc(2 * t + 1, 2 * h, cap)
        for a in sorted(set(sources)):
            self._arc(self.source, 2 * a, _INF)
        for b in sorted(set(sinks)):
            self._arc(2 * b + 1, self.sink, _INF)

    def _arc(self, u: int, v: int, cap: int):
        self.adj[u].append(len(self.to))
        self.to.append(v)
        self.cap.append(cap)
        self.adj[v].append(len(self.to))
        self.to.append(u)
        self.cap.append(0)

    def max_flow(self) -> int:
        total = 0
        while True:
            parent_arc = [-1] * len(self.adj)
            parent_arc[self.source] = -2
            queue = deque([self.source])
            while queue:
                u = queue.popleft()
                if u == self.sink:
                    break
                for ai in self.adj[u]:
                    v = self.to[ai]
                    if self.cap[ai] > 0 and parent_arc[v] == -1:
                        parent_arc[v] = ai
                        queue.append(v)
            if parent_arc[self.sink] == -1:
                return total
            # trace back, find bottleneck, push one augmenting unit
            bottleneck = _INF
            v = self.sink
            while v != self.source:
                ai = parent_arc[v]
                bottleneck = min(bottleneck, self.cap[ai])
                v = self.to[ai ^ 1]
            v = self.sink
            while v != self.source:
                ai = parent_arc[v]
                self.cap[ai] -= bottleneck
                self.cap[ai ^ 1] += bottleneck
                v = self.to[ai ^ 1]
            total += bottleneck

    def residual_reachable(self) -> set[int]:
        seen = {self.source}
        todo = [self.source]
        while todo:
            u = todo.pop()
            for ai in self.adj[u]:
                v = self.to[ai]
                if self.cap[ai] > 0 and v not in seen:
                    seen.add(v)
                    todo.append(v)
        return seen

    def flow_on(self, ai: int) -> int:
        return self.cap[ai ^ 1]  # reverse residual = pushed flow


def max_disjoint_paths(g: Digraph, a, b) -> PathSystem:
    """A maximum system of vertex-disjoint directed paths from a to b.

    Paths are disjoint including endpoints; a vertex of a ∩ b yields a
    zero-length path.  The cardinality equals the minimum separation order
    (Menger).
    """
    a = frozenset(a)
    b = frozenset(b)
    if not a or not b:
        return PathSystem(())
    net = _SplitFlow(g, a, b)
    net.max_flow()
    # Unit vertex capacities make the flow a disjoint union of simple paths:
    # every in-node forwards at most one unit, so we can just walk each unit
    # from its source arc to the sink, consuming flow as we go.
    paths = []
    for ai in net.adj[net.source]:
        if ai & 1 or net.flow_on(ai) == 0:
            continue
        net.cap[ai ^ 1] -= 1
        node = net.to[ai]
        path = []
        while node != net.sink:
            if node % 2 == 0:
                path.append(node // 2)
            for aj in net.adj[node]:
                if not (aj & 1) and net.flow_on(aj) > 0:
                    net.cap[aj ^ 1] -= 1
                    node = net.to[aj]
                    break
            else:
                raise AssertionError("flow decomposition lost a unit")
        paths.append(tuple(path))
    return PathSystem(tuple(paths))


def min_separation(g: Digraph, a, b) -> Separation:
    """Minimum-order separation (C, D) with a ⊆ C and b ⊆ D.

    Deterministic tie-break: C is the in-node reachable set of the residual
    graph of a maximum flow (the canonical source-side minimum vertex cut).
    """
    a = frozenset(a)
    b = frozenset(b)
    n = g.vertex_count
    everything = frozenset(range(n))
    if not a:
        return Separation(frozenset(), everything, 0)
    if not b:
        return Separation(everything, frozenset(), 0)
    net = _SplitFlow(g, a, b)
    net.max_flow()
    reach = net.residual_reachable()
    c = frozenset(v for v in range(n) if 2 * v in reach)
    cut = frozenset(v for v in c if 2 * v + 1 not in reach)
    d = (everything - c) | cut
    return Separation(c, d, len(cut))


def minimal_union_paths(g: Digraph, a, b, s: int) -> PathSystem:
    """s vertex-disjoint directed a->b paths, each induced, each meeting a
    only at its first vertex and b only at its last.

    Starts from a maximum flow system and shrinks: trim each path to its last
    a-vertex and first b-vertex after it, then splice out forward chords until
    none remain.  The union strictly shrinks, so this terminates.
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
        changed = True
        while changed:
            changed = False
            for i in range(len(path)):
                for j in range(len(path) - 1, i + 1, -1):
                    if g.has_edge(path[i], path[j]):
                        path = path[: i + 1] + path[j:]
                        changed = True
                        break
                if changed:
                    break
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

    def bits(mask):
        while mask:
            low = mask & -mask
            yield low.bit_length() - 1
            mask &= mask - 1

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
        for b_set in combinations(sorted(bits(b_cand)), k):
            b_mask = 0
            for v in b_set:
                b_mask |= 1 << v
            c_cand = full & ~a_mask & ~b_mask
            for v in b_set:
                c_cand &= outs[v]
            if c_cand.bit_count() < k:
                continue
            for c_set in combinations(sorted(bits(c_cand)), k):
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
    direct = {(u, v): g.multiplicity.get((u, v), 0)}
    net = _SplitFlow(g, {u}, {v}, uncapacitated={u, v}, direct_cap=direct)
    return net.max_flow()


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
