"""Multi-digraph representation, structural predicates, contraction, generators.

Vertices are dense integers 0..n-1.  Edges are an ordered list of (tail, head)
pairs; duplicates encode parallel edges and tail == head encodes a loop.  All
values are immutable after construction, so they hash, compare and can be
shared freely between threads.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from types import MappingProxyType


class ParseError(ValueError):
    """Raised on malformed digraph text, with a 1-based line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


@dataclass(frozen=True)
class Digraph:
    """A multi-digraph on vertices 0..n-1 with its one adjacency view, built
    at construction: bit h of `out_mask[v]` (bit t of `in_mask[v]`) is set
    iff some edge runs v -> h (t -> v), loops included, and `multiplicity`,
    a read-only mapping, maps each (tail, head) pair to its number of edges."""

    vertex_count: int
    edges: tuple[tuple[int, int], ...]
    out_mask: tuple[int, ...] = field(init=False, repr=False, compare=False)
    in_mask: tuple[int, ...] = field(init=False, repr=False, compare=False)
    multiplicity: MappingProxyType = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = self.vertex_count
        if n < 0:
            raise ValueError("vertex_count must be non-negative")
        edges = []
        out = [0] * n
        inn = [0] * n
        mult: dict[tuple[int, int], int] = {}
        for t, h in self.edges:
            if type(t) is not int or type(h) is not int:
                raise ValueError(f"edge ({t!r},{h!r}) has a vertex id that is not an integer")
            if not (0 <= t < n and 0 <= h < n):
                raise ValueError(f"edge ({t},{h}) out of range for n={n}")
            out[t] |= 1 << h
            inn[h] |= 1 << t
            e = (t, h)
            edges.append(e)
            mult[e] = mult.get(e, 0) + 1
        object.__setattr__(self, "edges", tuple(edges))
        object.__setattr__(self, "out_mask", tuple(out))
        object.__setattr__(self, "in_mask", tuple(inn))
        object.__setattr__(self, "multiplicity", MappingProxyType(mult))

    def has_edge(self, u: int, v: int) -> bool:
        """False unless u and v are both vertex ids 0..n-1; ids that are not
        ints raise ValueError."""
        _require_ids((u, v))
        n = self.vertex_count
        return 0 <= u < n and 0 <= v < n and bool(self.out_mask[u] >> v & 1)

    def to_text(self) -> str:
        """Canonical text form: `n m` header, then sorted `tail head` lines."""
        lines = [f"{self.vertex_count} {len(self.edges)}"]
        lines.extend(f"{t} {h}" for t, h in sorted(self.edges))
        return "\n".join(lines) + "\n"


# The largest vertex count a digraph text may announce.  `Digraph` allocates
# per-vertex lists as soon as it is built, so a 10-byte header could
# otherwise ask for gigabytes; every exact search here is exponential and
# stops far below this, while the polynomial layers are tested at a few
# thousand vertices.
MAX_PARSED_VERTICES = 100_000


def parse_digraph(text: str) -> Digraph:
    """Parse the digraph text format (`#` starts a comment line).  A header
    announcing more than `MAX_PARSED_VERTICES` vertices raises ParseError on
    its line, before anything is allocated for them."""
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
            if a > MAX_PARSED_VERTICES:
                raise ParseError(
                    f"header announces {a} vertices, more than the limit of "
                    f"{MAX_PARSED_VERTICES}", lineno)
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
            if type(v) is not int:
                raise ValueError(f"vertex {v!r} is not an integer id")
            if not 0 <= v < self.host.vertex_count:
                raise ValueError(f"vertex {v} outside host")
        for i in self.edge_indices:
            if type(i) is not int:
                raise ValueError(f"edge index {i!r} is not an integer")
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
    to a later one.  Components are ordered by descending forward reach in g,
    then by lowest vertex: a component that reaches another reaches strictly
    more vertices.  One iterative Tarjan pass, with roots and out-neighbours
    taken in ascending order, emits the components sinks first, so each
    component's forward reach is its own mask OR its successors' reaches.
    """
    out = g.out_mask
    n = g.vertex_count
    index = [-1] * n  # discovery number; -1 until discovered
    low = [0] * n
    comp_of = [-1] * n  # -1 until the vertex's component is emitted
    stack: list[int] = []
    reaches: list[int] = []  # forward reach of each emitted component
    keyed = []
    count = 0
    for root in range(n):
        if index[root] >= 0:
            continue
        index[root] = low[root] = count
        count += 1
        stack.append(root)
        work = [(root, iter(_bits(out[root])))]
        while work:
            v, succ = work[-1]
            for w in succ:
                if index[w] < 0:
                    index[w] = low[w] = count
                    count += 1
                    stack.append(w)
                    work.append((w, iter(_bits(out[w]))))
                    break
                if comp_of[w] < 0 and index[w] < low[v]:
                    low[v] = index[w]
            else:
                work.pop()
                if work and low[v] < low[work[-1][0]]:
                    low[work[-1][0]] = low[v]
                if low[v] == index[v]:
                    c = len(reaches)
                    comp = heads = 0
                    while True:
                        w = stack.pop()
                        comp_of[w] = c
                        comp |= 1 << w
                        heads |= out[w]
                        if w == v:
                            break
                    reach = comp
                    rest = heads & ~reach
                    while rest:
                        reach |= reaches[comp_of[(rest & -rest).bit_length() - 1]]
                        rest &= ~reach
                    reaches.append(reach)
                    keyed.append((-reach.bit_count(), comp & -comp, comp))
    keyed.sort()
    return tuple(frozenset(_bits(comp)) for _, _, comp in keyed)


def _bits(mask: int) -> list[int]:
    """The vertices of the bitmask `mask`, ascending."""
    vs = []
    while mask:
        low = mask & -mask
        vs.append(low.bit_length() - 1)
        mask ^= low
    return vs


def _reach(adj, start: int, mask: int) -> int:
    """Bitmask of the vertices reachable from the vertex bitmask `start`, a
    subset of `mask`, along the adjacency masks `adj` without leaving `mask`."""
    seen = todo = start
    while todo:
        v = (todo & -todo).bit_length() - 1
        todo &= todo - 1
        fresh = adj[v] & mask & ~seen
        seen |= fresh
        todo |= fresh
    return seen


def _strongly_connected(out, inn, mask: int) -> bool:
    low = mask & -mask
    if mask == low:  # no vertex or one: no reach to search
        return mask != 0
    return _reach(out, low, mask) == mask and _reach(inn, low, mask) == mask


def _edges_strongly_connected(edges, mask: int) -> bool:
    """True iff the bitmask `mask` is non-empty and strongly connected along
    `edges` alone, (tail, head) pairs with both ends in `mask`."""
    if not mask & (mask - 1):  # no vertex or one: strong iff one, whatever its loops
        return mask != 0
    out = [0] * mask.bit_length()
    inn = out.copy()
    for t, h in edges:
        out[t] |= 1 << h
        inn[h] |= 1 << t
    return _strongly_connected(out, inn, mask)


def is_strongly_connected(g: Digraph, sub: Subdigraph) -> bool:
    """True iff `sub` is non-null and mutually reachable inside its own edges."""
    if sub.host is not g and sub.host != g:
        raise ValueError("subdigraph belongs to a different host")
    mask = sum(1 << v for v in sub.vertices)
    return _edges_strongly_connected((g.edges[i] for i in sub.edge_indices), mask)


def _require_ids(vs) -> None:
    """Raise ValueError for the first of vs that is not an int (bools and
    integral floats included)."""
    for v in vs:
        if type(v) is not int:
            raise ValueError(f"vertex {v!r} is not an integer id")


def induced_strongly_connected(g: Digraph, vertices) -> bool:
    """True iff `vertices` is non-empty and induces a strongly connected
    subdigraph; ids that are not ints or lie outside g raise ValueError."""
    vertices = tuple(vertices)
    _require_ids(vertices)
    mask = 0
    for v in vertices:
        if not 0 <= v < g.vertex_count:
            raise ValueError(f"vertex {v} outside host")
        mask |= 1 << v
    return _strongly_connected(g.out_mask, g.in_mask, mask)


def contract(g: Digraph, h: Subdigraph) -> tuple[Digraph, int]:
    """Contract a strongly-connected subdigraph to a single vertex w.

    Edges with both endpoints in h's vertex set disappear (no loop at w);
    edges with exactly one endpoint there keep their multiplicity with that
    endpoint replaced by w.  Remaining vertices keep their relative order and
    w gets the last id.  Returns (contracted digraph, id of w).
    """
    if not is_strongly_connected(g, h):
        raise ValueError("contraction requires a strongly-connected subdigraph")
    mask = sum(1 << v for v in h.vertices)
    new = _contracted_ids(g.vertex_count, mask)
    w = g.vertex_count - len(h.vertices)
    edges = tuple((new[t], new[hd]) for t, hd in g.edges
                  if not (mask >> t & 1 and mask >> hd & 1))
    return Digraph(w + 1, edges), w


def _contracted_ids(n: int, mask: int) -> list[int]:
    """The new id of each vertex 0..n-1 when the vertex bitmask `mask` is
    contracted: the other vertices keep their order and are numbered from
    0, and every vertex of `mask` gets the next id, the merged vertex's."""
    ids = [n - mask.bit_count()] * n
    kept = 0
    for v in range(n):
        if not mask >> v & 1:
            ids[v] = kept
            kept += 1
    return ids


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
    return all(k == 1 and t != h for (t, h), k in g.multiplicity.items())


def is_semi_complete(g: Digraph) -> bool:
    if not is_simple(g):
        return False
    full = (1 << g.vertex_count) - 1
    return all(o | i | 1 << v == full for v, (o, i) in enumerate(zip(g.out_mask, g.in_mask)))


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
    # semi-complete digraphs are loopless, so out & in marks a 2-cycle
    tournament = semi and not any(o & i for o, i in zip(g.out_mask, g.in_mask))
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
    Ids that are not ints raise ValueError; ids outside g give False.
    """
    if not is_semi_complete(g):
        raise ValueError("induced paths are defined for semi-complete digraphs")
    seq = list(vs)
    _require_ids(seq)
    if not seq or len(set(seq)) != len(seq) or not all(0 <= v < g.vertex_count for v in seq):
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
