"""Multi-digraph representation, structural predicates, contraction, generators.

Vertices are dense integers 0..n-1.  Edges are an ordered list of (tail, head)
pairs; duplicates encode parallel edges and tail == head encodes a loop.  All
values are immutable after construction, so they hash, compare and can be
shared freely between threads.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations


class ParseError(ValueError):
    """Raised on malformed digraph text, with a 1-based line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


@dataclass(frozen=True)
class Digraph:
    vertex_count: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.vertex_count < 0:
            raise ValueError("vertex_count must be non-negative")
        object.__setattr__(self, "edges", tuple((int(t), int(h)) for t, h in self.edges))
        for t, h in self.edges:
            if not (0 <= t < self.vertex_count and 0 <= h < self.vertex_count):
                raise ValueError(f"edge ({t},{h}) out of range for n={self.vertex_count}")

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @cached_property
    def out_sets(self) -> tuple[frozenset[int], ...]:
        """out_sets[v] = set of heads of edges with tail v (ignoring multiplicity)."""
        outs = [set() for _ in range(self.vertex_count)]
        for t, h in self.edges:
            outs[t].add(h)
        return tuple(frozenset(s) for s in outs)

    @cached_property
    def in_sets(self) -> tuple[frozenset[int], ...]:
        ins = [set() for _ in range(self.vertex_count)]
        for t, h in self.edges:
            ins[h].add(t)
        return tuple(frozenset(s) for s in ins)

    @cached_property
    def out_mask(self) -> tuple[int, ...]:
        """Bit h of out_mask[v] is set iff some edge runs v -> h (loops included)."""
        masks = [0] * self.vertex_count
        for t, h in self.edges:
            masks[t] |= 1 << h
        return tuple(masks)

    @cached_property
    def in_mask(self) -> tuple[int, ...]:
        """Bit t of in_mask[v] is set iff some edge runs t -> v (loops included)."""
        masks = [0] * self.vertex_count
        for t, h in self.edges:
            masks[h] |= 1 << t
        return tuple(masks)

    @cached_property
    def multiplicity(self) -> dict[tuple[int, int], int]:
        mult: dict[tuple[int, int], int] = {}
        for e in self.edges:
            mult[e] = mult.get(e, 0) + 1
        return mult

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.out_sets[u]

    def to_text(self) -> str:
        """Canonical text form: `n m` header, then sorted `tail head` lines."""
        lines = [f"{self.vertex_count} {len(self.edges)}"]
        lines.extend(f"{t} {h}" for t, h in sorted(self.edges))
        return "\n".join(lines) + "\n"

    def canonical_edges(self) -> tuple[tuple[int, int], ...]:
        return tuple(sorted(self.edges))


def parse_digraph(text: str) -> Digraph:
    """Parse the digraph text format (`#` starts a comment line)."""
    header: tuple[int, int] | None = None
    edges: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(f"expected two integers, got {line!r}", lineno)
        try:
            a, b = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(f"expected two integers, got {line!r}", lineno) from None
        if header is None:
            if a < 0 or b < 0:
                raise ParseError("header counts must be non-negative", lineno)
            header = (a, b)
        else:
            if not (0 <= a < header[0] and 0 <= b < header[0]):
                raise ParseError(f"edge ({a},{b}) out of range for n={header[0]}", lineno)
            edges.append((a, b))
    if header is None:
        raise ParseError("missing `n m` header", 1)
    if len(edges) != header[1]:
        raise ParseError(f"header announced {header[1]} edges, found {len(edges)}", 1)
    return Digraph(header[0], tuple(edges))


@dataclass(frozen=True)
class Subdigraph:
    """A subdigraph of `host`: a vertex set plus indices into host.edges."""

    host: Digraph
    vertices: frozenset[int]
    edge_indices: frozenset[int]

    def __post_init__(self):
        object.__setattr__(self, "vertices", frozenset(self.vertices))
        object.__setattr__(self, "edge_indices", frozenset(self.edge_indices))
        for v in self.vertices:
            if not 0 <= v < self.host.vertex_count:
                raise ValueError(f"vertex {v} outside host")
        for i in self.edge_indices:
            if not 0 <= i < len(self.host.edges):
                raise ValueError(f"edge index {i} outside host")
            t, h = self.host.edges[i]
            if t not in self.vertices or h not in self.vertices:
                raise ValueError(f"edge {i} = ({t},{h}) has an endpoint outside the vertex set")

    @classmethod
    def induced(cls, host: Digraph, vertices) -> "Subdigraph":
        vs = frozenset(vertices)
        idx = frozenset(i for i, (t, h) in enumerate(host.edges) if t in vs and h in vs)
        return cls(host, vs, idx)


@dataclass(frozen=True)
class DigraphClass:
    simple: bool
    semi_complete: bool
    tournament: bool
    acyclic: bool
    stability_number: int


def scc_decompose(g: Digraph) -> tuple[frozenset[int], ...]:
    """Strongly connected components in topological order of the condensation.

    Every edge between two distinct components goes from an earlier component
    to a later one.  Iterative Tarjan, so deep graphs cannot blow the stack.
    """
    n = g.vertex_count
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    comps: list[frozenset[int]] = []
    counter = 0
    outs = [sorted(s) for s in g.out_sets]

    for root in range(n):
        if index[root] != -1:
            continue
        work: list[tuple[int, int]] = [(root, 0)]
        while work:
            v, pi = work[-1]
            if pi == 0:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            advanced = False
            while pi < len(outs[v]):
                w = outs[v][pi]
                pi += 1
                if index[w] == -1:
                    work[-1] = (v, pi)
                    work.append((w, 0))
                    advanced = True
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if low[v] == index[v]:
                comp = set()
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp.add(w)
                    if w == v:
                        break
                comps.append(frozenset(comp))
            if work:
                u, _ = work[-1]
                low[u] = min(low[u], low[v])
    comps.reverse()  # Tarjan emits sinks first
    return tuple(comps)


def _reaches_all(adj: tuple[int, ...], mask: int) -> bool:
    """True iff every vertex of the non-empty bitmask `mask` is reachable from
    its lowest vertex along the adjacency masks `adj` without leaving `mask`."""
    seen = todo = mask & -mask
    while todo:
        v = (todo & -todo).bit_length() - 1
        todo &= todo - 1
        fresh = adj[v] & mask & ~seen
        seen |= fresh
        todo |= fresh
    return seen == mask


def _strongly_connected(g: Digraph, mask: int) -> bool:
    return bool(mask) and _reaches_all(g.out_mask, mask) and _reaches_all(g.in_mask, mask)


def is_strongly_connected(g: Digraph, sub: Subdigraph) -> bool:
    """True iff `sub` is non-null and mutually reachable inside its own edges."""
    if sub.host is not g and sub.host != g:
        raise ValueError("subdigraph belongs to a different host")
    own = Digraph(g.vertex_count, tuple(g.edges[i] for i in sub.edge_indices))
    return _strongly_connected(own, sum(1 << v for v in sub.vertices))


def induced_strongly_connected(g: Digraph, vertices) -> bool:
    """True iff `vertices` is non-empty and induces a strongly connected subdigraph."""
    mask = 0
    for v in vertices:
        if not 0 <= v < g.vertex_count:
            raise ValueError(f"vertex {v} outside host")
        mask |= 1 << v
    return _strongly_connected(g, mask)


def contract(g: Digraph, h: Subdigraph) -> tuple[Digraph, int]:
    """Contract a strongly-connected subdigraph to a single vertex w.

    Edges with both endpoints in h's vertex set disappear (no loop at w);
    edges with exactly one endpoint there keep their multiplicity with that
    endpoint replaced by w.  Remaining vertices keep their relative order and
    w gets the last id.  Returns (contracted digraph, id of w).
    """
    if not is_strongly_connected(g, h):
        raise ValueError("contraction requires a strongly-connected subdigraph")
    inside = h.vertices
    keep = [v for v in range(g.vertex_count) if v not in inside]
    remap = {v: i for i, v in enumerate(keep)}
    w = len(keep)
    edges = []
    for t, hd in g.edges:
        tin, hin = t in inside, hd in inside
        if tin and hin:
            continue
        edges.append((w if tin else remap[t], w if hin else remap[hd]))
    return Digraph(w + 1, tuple(edges)), w


def delete_vertex(g: Digraph, v: int) -> Digraph:
    """Delete vertex v; ids above v shift down by one."""
    if not 0 <= v < g.vertex_count:
        raise ValueError(f"vertex {v} out of range")
    edges = tuple(
        (t - (t > v), h - (h > v)) for t, h in g.edges if t != v and h != v
    )
    return Digraph(g.vertex_count - 1, edges)


def delete_edge(g: Digraph, index: int) -> Digraph:
    if not 0 <= index < len(g.edges):
        raise ValueError(f"edge index {index} out of range")
    return Digraph(g.vertex_count, g.edges[:index] + g.edges[index + 1 :])


def induced_subdigraph(g: Digraph, vertices) -> tuple[Digraph, tuple[int, ...], tuple[int, ...]]:
    """Induced subdigraph on `vertices`, renumbered by ascending original id.

    Returns (subgraph, old ids by new id, old edge indices by new edge index).
    """
    order = tuple(sorted(set(vertices)))
    remap = {v: i for i, v in enumerate(order)}
    edges = []
    edge_idx = []
    for i, (t, h) in enumerate(g.edges):
        if t in remap and h in remap:
            edges.append((remap[t], remap[h]))
            edge_idx.append(i)
    return Digraph(len(order), tuple(edges)), order, tuple(edge_idx)


def is_simple(g: Digraph) -> bool:
    seen = set()
    for t, h in g.edges:
        if t == h or (t, h) in seen:
            return False
        seen.add((t, h))
    return True


def is_semi_complete(g: Digraph) -> bool:
    if not is_simple(g):
        return False
    outs = g.out_sets
    return all(
        v in outs[u] or u in outs[v]
        for u, v in combinations(range(g.vertex_count), 2)
    )


def is_acyclic(g: Digraph) -> bool:
    if any(t == h for t, h in g.edges):
        return False
    return all(len(c) == 1 for c in scc_decompose(g))


def _max_clique_size(n: int, adj: list[int]) -> int:
    """Branch-and-bound maximum clique on an undirected graph given as bitmasks."""
    best = 0

    def greedy_bound(cand: int) -> int:
        # greedy colouring: number of colour classes bounds the clique size
        colors = 0
        while cand:
            colors += 1
            avail = cand
            while avail:
                v = (avail & -avail).bit_length() - 1
                avail &= ~adj[v] & ~(1 << v)
                cand &= ~(1 << v)
        return colors

    def expand(size: int, cand: int):
        nonlocal best
        if not cand:
            best = max(best, size)
            return
        if size + greedy_bound(cand) <= best:
            return
        while cand:
            if size + bin(cand).count("1") <= best:
                return
            v = (cand & -cand).bit_length() - 1
            cand &= ~(1 << v)
            expand(size + 1, cand & adj[v])

    expand(0, (1 << n) - 1)
    return best


def stability_number(g: Digraph) -> int:
    """Maximum independent set of the underlying undirected graph, by exact
    branch-and-bound on the complement clique (loops ignored)."""
    n = g.vertex_count
    if n == 0:
        return 0
    full = (1 << n) - 1
    complement = [full & ~(g.out_mask[v] | g.in_mask[v] | 1 << v) for v in range(n)]
    return _max_clique_size(n, complement)


def classify(g: Digraph) -> DigraphClass:
    simple = is_simple(g)
    semi = is_semi_complete(g)
    tournament = semi and all(
        not (g.has_edge(u, v) and g.has_edge(v, u))
        for u, v in combinations(range(g.vertex_count), 2)
    )
    return DigraphClass(
        simple=simple,
        semi_complete=semi,
        tournament=tournament,
        acyclic=is_acyclic(g),
        stability_number=stability_number(g),
    )


def is_induced_path(g: Digraph, vs) -> bool:
    """True iff vs traces a directed path with no forward chord v_i -> v_j, j-i >= 2.

    Defined for semi-complete hosts only (backward edges are then forced).
    """
    if not is_semi_complete(g):
        raise ValueError("induced paths are defined for semi-complete digraphs")
    seq = list(vs)
    if not seq or len(set(seq)) != len(seq):
        return False
    for a, b in zip(seq, seq[1:]):
        if not g.has_edge(a, b):
            return False
    for i in range(len(seq)):
        for j in range(i + 2, len(seq)):
            if g.has_edge(seq[i], seq[j]):
                return False
    return True


# ---------------------------------------------------------------------------
# generators


def gen_transitive(n: int) -> Digraph:
    if n < 0:
        raise ValueError("size must be non-negative")
    return Digraph(n, tuple((i, j) for i in range(n) for j in range(i + 1, n)))


def gen_cycle(n: int) -> Digraph:
    if n < 1:
        raise ValueError("cycle needs at least one vertex")
    return Digraph(n, tuple((i, (i + 1) % n) for i in range(n)))


def gen_super_tournament(i: int) -> Digraph:
    """Transitive tournament on i vertices with the ring of edges
    v1v2, v2v3, ..., v(i-1)vi, v1vi doubled.  Needs i >= 3."""
    if i < 3:
        raise ValueError("super_tournament needs size >= 3")
    base = list(gen_transitive(i).edges)
    doubled = [(j, j + 1) for j in range(i - 1)] + [(0, i - 1)]
    return Digraph(i, tuple(base + doubled))


def gen_stability_two(i: int) -> Digraph:
    """Stability-number-two family on 6 + 2i vertices.

    Vertices: a1 a2 a3 = 0..2, b1 b2 b3 = 3..5, c_1..c_i = 6..5+i,
    d_1..d_i = 6+i..5+2i.  A and B carry directed triangles, C and D
    transitive tournaments, A is complete to C, D complete to B, b1->a1 is
    the single A-B edge, and the C->D edges trace one alternating cycle of
    length 2i (c_j -> d_j and c_{j+1} -> d_j).  Needs i >= 2.
    """
    if i < 2:
        raise ValueError("stability_two needs size >= 2")
    a = [0, 1, 2]
    b = [3, 4, 5]
    c = [6 + j for j in range(i)]
    d = [6 + i + j for j in range(i)]
    edges: list[tuple[int, int]] = []
    edges += [(a[0], a[1]), (a[1], a[2]), (a[2], a[0])]
    edges += [(b[0], b[1]), (b[1], b[2]), (b[2], b[0])]
    edges += [(c[x], c[y]) for x in range(i) for y in range(x + 1, i)]
    edges += [(d[x], d[y]) for x in range(i) for y in range(x + 1, i)]
    edges += [(av, cv) for av in a for cv in c]
    edges += [(dv, bv) for dv in d for bv in b]
    edges.append((b[0], a[0]))
    for j in range(i):
        edges.append((c[j], d[j]))
        edges.append((c[(j + 1) % i], d[j]))
    return Digraph(6 + 2 * i, tuple(edges))


def gen_random_tournament(n: int, seed: int) -> Digraph:
    """Seeded random tournament: pairs (u,v), u<v, in lexicographic order are
    oriented u->v when random.Random(seed).random() < 0.5, else v->u."""
    if n < 0:
        raise ValueError("size must be non-negative")
    rng = random.Random(seed)
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            edges.append((u, v) if rng.random() < 0.5 else (v, u))
    return Digraph(n, tuple(edges))


def gen_random_digraph(n: int, seed: int, p: float = 0.5) -> Digraph:
    """Seeded random simple digraph: each ordered pair (u,v), u != v, scanned
    in lexicographic order, gets an edge independently with probability p."""
    if n < 0:
        raise ValueError("size must be non-negative")
    rng = random.Random(seed)
    edges = []
    for u in range(n):
        for v in range(n):
            if u != v and rng.random() < p:
                edges.append((u, v))
    return Digraph(n, tuple(edges))


FAMILIES = {
    "transitive": gen_transitive,
    "cycle": gen_cycle,
    "super_tournament": gen_super_tournament,
    "stability_two": gen_stability_two,
    "random_tournament": gen_random_tournament,
    "random_digraph": gen_random_digraph,
}


def gen_family(name: str, size: int, seed: int | None = None) -> Digraph:
    if name not in FAMILIES:
        raise ValueError(f"unknown family {name!r}; choose from {sorted(FAMILIES)}")
    if name in ("random_tournament", "random_digraph"):
        return FAMILIES[name](size, 0 if seed is None else seed)
    return FAMILIES[name](size)
