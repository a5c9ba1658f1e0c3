"""Minor mappings on digraphs: verification, exact search, composition, and
an independent contraction-closure oracle.

A minor mapping assigns each pattern vertex a non-null strongly-connected
branch subdigraph of the host, pairwise vertex-disjoint, and each pattern
edge a distinct host witness edge running between the right branch sets and
belonging to no branch edge set.  One backtracking search, `_place`, finds
them: `find_minor` feeds it the host's strongly connected vertex masks that
leave a vertex for every other pattern vertex, and
`find_subdigraph_embedding` the host's single vertices, since a subdigraph
embedding is a minor mapping whose branch sets are single vertices.  For
loopless patterns, containment can equivalently be decided by deleting and
contracting, which `closure_oracle` does; the two routes are cross-checked
in the test suite.

The closure search and canonical forms run on a compact encoding, (n, edges)
with `edges` a sorted tuple of (tail, head) pairs, and `_canonical_edges`, the
one canonical-form function, keeps a process-wide cache keyed on it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, combinations, permutations, product

from .core import (
    Digraph,
    Subdigraph,
    _bits,
    _edges_strongly_connected,
    _reach,
    is_semi_complete,
    is_strongly_connected,
)
from .connectivity import KTriple, is_k_triple


class BudgetExceededError(RuntimeError):
    """The minor search hit its node budget before finishing."""


@dataclass(frozen=True)
class MinorMapping:
    """assignment: pattern vertex -> branch Subdigraph of the host;
    edge_witness: pattern edge index -> host edge index."""

    assignment: tuple[Subdigraph, ...]
    edge_witness: tuple[int, ...]

    def branch(self, v: int) -> Subdigraph:
        return self.assignment[v]

    def to_json(self) -> str:
        return json.dumps(
            {
                "schema": "minor-mapping/1",
                "branch_sets": {
                    str(v): {
                        "vertices": sorted(sub.vertices),
                        "edges": sorted(sub.edge_indices),
                    }
                    for v, sub in enumerate(self.assignment)
                },
                "witnesses": {str(i): w for i, w in enumerate(self.edge_witness)},
            }
        )

    @classmethod
    def from_json(cls, text: str, host: Digraph) -> "MinorMapping":
        data = json.loads(text)
        branches = data["branch_sets"]
        assignment = tuple(
            Subdigraph(
                host,
                frozenset(branches[str(v)]["vertices"]),
                frozenset(branches[str(v)]["edges"]),
            )
            for v in range(len(branches))
        )
        witnesses = data["witnesses"]
        witness = tuple(witnesses[str(i)] for i in range(len(witnesses)))
        return cls(assignment, witness)


@dataclass(frozen=True)
class MappingReport:
    ok: bool
    failures: tuple[str, ...]


def verify_mapping(h: Digraph, g: Digraph, m: MinorMapping) -> MappingReport:
    """Check every minor-mapping clause; failures name the clause and witness."""
    failures: list[str] = []
    if len(m.assignment) != h.vertex_count:
        failures.append(
            f"assignment covers {len(m.assignment)} pattern vertices, "
            f"expected {h.vertex_count}"
        )
        return MappingReport(False, tuple(failures))
    branch_edge_sets: set[int] = set()
    for v, sub in enumerate(m.assignment):
        if sub.host != g:
            failures.append(f"branch set of {v} lives in a different host")
            continue
        if not sub.vertices:
            failures.append(f"branch set of {v} is null")
            continue
        if not is_strongly_connected(g, sub):
            failures.append(f"branch set of {v} is not strongly connected")
        branch_edge_sets.update(sub.edge_indices)
    for u, v in combinations(range(h.vertex_count), 2):
        if m.assignment[u].vertices & m.assignment[v].vertices:
            failures.append(f"branch sets of {u} and {v} share vertices")
    if len(m.edge_witness) != len(h.edges):
        failures.append(
            f"{len(m.edge_witness)} witnesses for {len(h.edges)} pattern edges"
        )
        return MappingReport(False, tuple(failures))
    if len(set(m.edge_witness)) != len(m.edge_witness):
        failures.append("witness edges are not pairwise distinct")
    for i, (u, v) in enumerate(h.edges):
        w = m.edge_witness[i]
        if not 0 <= w < len(g.edges):
            failures.append(f"witness {w} for pattern edge {i} out of range")
            continue
        t, hd = g.edges[w]
        if t not in m.assignment[u].vertices:
            failures.append(
                f"witness {w} for pattern edge {i}: tail {t} outside branch of {u}"
            )
        if hd not in m.assignment[v].vertices:
            failures.append(
                f"witness {w} for pattern edge {i}: head {hd} outside branch of {v}"
            )
        if w in branch_edge_sets:
            failures.append(f"witness {w} for pattern edge {i} lies inside a branch set")
    return MappingReport(not failures, tuple(failures))


def _strongly_connected_masks(n: int, out, inn, max_size: int | None = None) -> list[int]:
    """Vertex bitmasks of all strongly connected induced subdigraphs of the
    digraph on 0..n-1 with adjacency masks `out` and `inn`, in ascending
    (size, sorted ids) order; the n singletons come first.  With `max_size`
    (at least 1), only the subsets of at most that many vertices are tested,
    and the list is the uncapped one cut after its last set of that size."""
    bits = [1 << v for v in range(n)]
    masks = list(bits)
    top = n if max_size is None else min(n, max_size)
    for size in range(2, top + 1):
        for m in map(sum, combinations(bits, size)):
            low = m & -m
            if _reach(out, low, m) == m and _reach(inn, low, m) == m:
                masks.append(m)
    return masks


def _neighbour_union(adj: tuple[int, ...], mask: int) -> int:
    """OR of adj[v] over the vertices v of mask."""
    union = 0
    for v in range(mask.bit_length()):
        if mask >> v & 1:
            union |= adj[v]
    return union


def _connecting_edges(g: Digraph, mask: int) -> tuple[int, ...]:
    """First smallest set of induced edges, in (size, edge ids) order, that
    keeps the vertex bitmask `mask` strongly connected; empty for a single
    vertex."""
    if not mask & (mask - 1):
        return ()
    internal = [i for i, (t, h) in enumerate(g.edges) if mask >> t & 1 and mask >> h & 1]
    for size in range(mask.bit_count(), len(internal) + 1):
        for combo in combinations(internal, size):
            if _edges_strongly_connected((g.edges[i] for i in combo), mask):
                return combo
    raise ValueError("vertex set is not strongly connected")


def assign_witnesses(h: Digraph, g: Digraph, branch_sets: list[Subdigraph]) -> tuple[int, ...]:
    """Witness per pattern edge (u, v): the next host edge, in id order, from
    the branch set of u to that of v and in no branch edge set."""
    where = {x: v for v, sub in enumerate(branch_sets) for x in sub.vertices}
    inside = frozenset().union(*(sub.edge_indices for sub in branch_sets))
    buckets: dict[tuple[int, int], list[int]] = {}
    for i, (t, hd) in enumerate(g.edges):
        if t in where and hd in where and i not in inside:
            buckets.setdefault((where[t], where[hd]), []).append(i)
    witness = []
    for u, v in h.edges:
        pool = buckets.get((u, v))
        if not pool:
            raise RuntimeError(f"no free witness for pattern edge ({u},{v})")
        witness.append(pool.pop(0))
    return tuple(witness)


def _build_mapping(h: Digraph, g: Digraph, classes: list[int]) -> MinorMapping:
    """Materialize a mapping from disjoint strongly-connected vertex masks
    that satisfy the per-pair edge counts.  A class keeps all its induced
    edges unless it is one vertex or its pattern vertex has loops; then it
    keeps only its first smallest connecting edge set."""
    branch_sets = []
    for v, cls in enumerate(classes):
        if h.multiplicity.get((v, v)) or cls.bit_count() == 1:
            edge_set = frozenset(_connecting_edges(g, cls))
        else:
            edge_set = frozenset(i for i, (t, hd) in enumerate(g.edges)
                                 if cls >> t & 1 and cls >> hd & 1)
        branch_sets.append(Subdigraph(g, frozenset(_bits(cls)), edge_set))
    return MinorMapping(tuple(branch_sets), assign_witnesses(h, g, branch_sets))


def _place(h: Digraph, g: Digraph, candidates, budget: int | None = None) -> list[int] | None:
    """The one backtracking search behind `find_minor` and
    `find_subdigraph_embedding`: a branch set for each vertex of h from
    `candidates`, (mask, size, out-neighbour union, in-neighbour union)
    tuples in ascending size, pairwise disjoint and with enough host edges
    for every pattern edge and loop.  Returns the chosen masks by pattern
    vertex, or None after exhaustive search; order and budget are as
    `find_minor` documents."""
    mult = h.multiplicity
    loops = [mult.get((v, v), 0) for v in range(h.vertex_count)]
    degree = [0] * h.vertex_count
    for t, hd in h.edges:
        degree[t] += 1
        degree[hd] += 1
    order = sorted(range(h.vertex_count), key=lambda v: (-degree[v], v))
    # per position: the earlier pattern vertices sharing edges with this
    # one, and the edge counts to and from each
    joins = [[(qv, mult.get((pv, qv), 0), mult.get((qv, pv), 0))
              for qv in order[:pos] if (pv, qv) in mult or (qv, pv) in mult]
             for pos, pv in enumerate(order)]

    spare_cache: dict[int, int] = {}

    def loop_capacity(cls: int) -> int:
        if cls not in spare_cache:
            spare_cache[cls] = cross_count(cls, cls) - len(_connecting_edges(g, cls))
        return spare_cache[cls]

    def cross_count(src: int, dst: int) -> int:
        return sum(k for (t, hd), k in g.multiplicity.items() if src >> t & 1 and dst >> hd & 1)

    nodes = 0
    chosen = [0] * h.vertex_count

    def backtrack(pos: int, used: int) -> bool:
        nonlocal nodes
        if pos == len(order):
            return True
        pv = order[pos]
        room = g.vertex_count - used.bit_count() - (len(order) - pos - 1)
        for cls, size, out_union, in_union in candidates:
            if size > room:
                break
            if cls & used:
                continue
            nodes += 1
            if budget is not None and nodes > budget:
                raise BudgetExceededError(f"budget of {budget} placements exhausted")
            if loops[pv] and loop_capacity(cls) < loops[pv]:
                continue
            for qv, to_q, from_q in joins[pos]:
                q = chosen[qv]
                if to_q and not out_union & q or from_q and not in_union & q:
                    break
                if (to_q > 1 and cross_count(cls, q) < to_q
                        or from_q > 1 and cross_count(q, cls) < from_q):
                    break
            else:
                chosen[pv] = cls
                if backtrack(pos + 1, used | cls):
                    return True
        return False

    return chosen if backtrack(0, 0) else None


def find_minor(
    h: Digraph, g: Digraph, budget: int | None = None
) -> MinorMapping | None:
    """Exhaustive search for a minor mapping of h into g.

    None is a certificate of absence.  `budget` caps the number of branch-set
    placements tried; exceeding it raises BudgetExceededError, and a negative
    budget raises ValueError.  Pattern vertices are processed by descending
    degree and branch-set candidates in ascending (size, ids) order, so the
    first mapping found is deterministic.
    The candidates are the host's strongly connected vertex masks of at most
    |V(g)| - |V(h)| + 1 vertices, the most one branch set can take; they are
    enumerated before the budget counter starts.
    """
    if budget is not None and budget < 0:
        raise ValueError(f"budget must be non-negative, got {budget}")
    if h.vertex_count == 0:
        if h.edges:
            raise AssertionError("edges without vertices")
        return MinorMapping((), ())
    if h.vertex_count > g.vertex_count or len(h.edges) > len(g.edges):
        return None
    # (mask, size, out-neighbour union, in-neighbour union); size ascends.
    # k disjoint non-null branch sets leave at most n - k + 1 host vertices
    # to any one of them, which is `_place`'s room at its first position
    cap = g.vertex_count - h.vertex_count + 1
    candidates = [(m, m.bit_count(), _neighbour_union(g.out_mask, m),
                   _neighbour_union(g.in_mask, m))
                  for m in _strongly_connected_masks(g.vertex_count, g.out_mask,
                                                     g.in_mask, cap)]
    chosen = _place(h, g, candidates, budget)
    if chosen is None:
        return None
    mapping = _build_mapping(h, g, chosen)
    report = verify_mapping(h, g, mapping)
    assert report.ok, report.failures
    return mapping


def minor_of_triple(h: Digraph, g: Digraph, t: KTriple) -> MinorMapping:
    """Minor mapping of a semi-complete h on k vertices into g, realized on a
    k-triple: vertex i gets the directed triangle a_i -> b_i -> c_i -> a_i."""
    if not is_semi_complete(h):
        raise ValueError("pattern must be semi-complete")
    if h.vertex_count != t.k:
        raise ValueError(f"pattern has {h.vertex_count} vertices, triple has k={t.k}")
    if not is_k_triple(g, t):
        raise ValueError("not a valid k-triple of the host")

    edge_index: dict[tuple[int, int], int] = {}
    for i, e in enumerate(g.edges):
        edge_index.setdefault(e, i)

    branch_sets = []
    for i in range(t.k):
        verts = frozenset({t.a[i], t.b[i], t.c[i]})
        cycle = frozenset(
            {
                edge_index[(t.a[i], t.b[i])],
                edge_index[(t.b[i], t.c[i])],
                edge_index[(t.c[i], t.a[i])],
            }
        )
        branch_sets.append(Subdigraph(g, verts, cycle))
    # A is complete to B, so a_u -> b_v always exists and crosses branches;
    # h is simple, so no two pattern edges share a witness
    witness = tuple(edge_index[(t.a[u], t.b[v])] for u, v in h.edges)
    mapping = MinorMapping(tuple(branch_sets), witness)
    report = verify_mapping(h, g, mapping)
    assert report.ok, report.failures
    return mapping


def compose(
    h: Digraph, g: Digraph, f: Digraph, m1: MinorMapping, m2: MinorMapping
) -> MinorMapping:
    """Compose m1 (h into g) with m2 (g into f) into a mapping of h into f."""
    r1 = verify_mapping(h, g, m1)
    if not r1.ok:
        raise ValueError(f"first mapping invalid: {r1.failures}")
    r2 = verify_mapping(g, f, m2)
    if not r2.ok:
        raise ValueError(f"second mapping invalid: {r2.failures}")
    branch_sets = []
    for v in range(h.vertex_count):
        verts: set[int] = set()
        edges: set[int] = set()
        for u in m1.branch(v).vertices:
            verts |= m2.branch(u).vertices
            edges |= m2.branch(u).edge_indices
        for e in m1.branch(v).edge_indices:
            edges.add(m2.edge_witness[e])
            t, hd = f.edges[m2.edge_witness[e]]
            verts.add(t)
            verts.add(hd)
        branch_sets.append(Subdigraph(f, frozenset(verts), frozenset(edges)))
    witness = tuple(m2.edge_witness[m1.edge_witness[i]] for i in range(len(h.edges)))
    mapping = MinorMapping(tuple(branch_sets), witness)
    report = verify_mapping(h, f, mapping)
    assert report.ok, report.failures
    return mapping


def identity_mapping(g: Digraph) -> MinorMapping:
    branch_sets = tuple(
        Subdigraph(g, frozenset({v}), frozenset()) for v in range(g.vertex_count)
    )
    return MinorMapping(branch_sets, tuple(range(len(g.edges))))


# ---------------------------------------------------------------------------
# canonical forms and the contraction-closure oracle


@lru_cache(maxsize=65536)
def _canonical_edges(
    n: int, edges: tuple[tuple[int, int], ...]
) -> tuple[tuple[int, int], ...]:
    """Canonical sorted edge tuple of the multi-digraph on 0..n-1 whose sorted
    edge tuple is `edges`: isomorphic multi-digraphs get equal tuples.

    Colour refinement starts from (out-degree, in-degree, loops) and splits
    classes by the sorted (colour, multiplicity) lists of out- and
    in-neighbours until the class count stops growing or reaches n; classes
    are ordered by their signatures, so the order is label-invariant.  The
    lexicographically least relabelled edge tuple is then taken over products
    of within-class permutations, which is exact.  The process-wide cache is
    keyed on the encoding, so every caller in the process shares it.
    """
    if n <= 1:
        return edges
    outs: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    ins: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    degree = [[0, 0, 0] for _ in range(n)]
    i, m = 0, len(edges)
    while i < m:
        # parallel edges are adjacent in the sorted tuple
        e = edges[i]
        j = i + 1
        while j < m and edges[j] == e:
            j += 1
        t, h = e
        k = j - i
        outs[t].append((h, k))
        ins[h].append((t, k))
        degree[t][0] += k
        degree[h][1] += k
        if t == h:
            degree[t][2] = k
        i = j
    base = [tuple(d) for d in degree]
    lookup = {s: c for c, s in enumerate(sorted(set(base)))}
    color = [lookup[s] for s in base]
    count = len(lookup)
    while count < n:
        sigs = [
            (
                color[v],
                tuple(sorted((color[w], k) for w, k in outs[v])),
                tuple(sorted((color[w], k) for w, k in ins[v])),
            )
            for v in range(n)
        ]
        distinct = sorted(set(sigs))
        # each signature starts with the old colour, so an equal count means
        # an unchanged partition in an unchanged order
        if len(distinct) == count:
            break
        lookup = {s: c for c, s in enumerate(distinct)}
        color = [lookup[s] for s in sigs]
        count = len(distinct)
    classes: list[list[int]] = [[] for _ in range(count)]
    for v in range(n):
        classes[color[v]].append(v)
    best = None
    relabel = [0] * n
    for perm_combo in product(*(permutations(cls) for cls in classes)):
        for new, v in enumerate(chain.from_iterable(perm_combo)):
            relabel[v] = new
        relabelled = tuple(sorted((relabel[t], relabel[h]) for t, h in edges))
        if best is None or relabelled < best:
            best = relabelled
    return best


def canonical_form(g: Digraph) -> Digraph:
    """Canonically relabelled copy, a fresh value on every call: isomorphic
    multi-digraphs map to equal values (see `_canonical_edges`)."""
    n = g.vertex_count
    return Digraph(n, _canonical_edges(n, tuple(sorted(g.edges))))


def _closure_children(
    n: int, edges: tuple[tuple[int, int], ...]
) -> set[tuple[int, tuple[tuple[int, int], ...]]]:
    """The (vertex count, sorted edges) encodings of every digraph one
    operation away from the digraph on 0..n-1 with sorted edges `edges`:
    delete an edge, delete a vertex, or contract a strongly connected induced
    subdigraph on >= 2 vertices, relabelled as `core.delete_vertex` and
    `core.contract` do."""
    children = set()
    for i in range(len(edges)):
        # deleting either of two parallel copies gives the same child
        if i and edges[i] == edges[i - 1]:
            continue
        children.add((n, edges[:i] + edges[i + 1:]))
    for v in range(n):
        # shifting the ids above v down keeps the surviving edges sorted
        children.add((n - 1, tuple((t - (t > v), h - (h > v))
                                   for t, h in edges if t != v and h != v)))
    out = [0] * n
    inn = [0] * n
    for t, h in edges:
        out[t] |= 1 << h
        inn[h] |= 1 << t
    for mask in _strongly_connected_masks(n, out, inn)[n:]:
        # kept vertices in order, the contracted vertex w last
        w = n - mask.bit_count()
        remap = [w] * n
        kept = 0
        for v in range(n):
            if not mask >> v & 1:
                remap[v] = kept
                kept += 1
        children.add((w + 1, tuple(sorted((remap[t], remap[h]) for t, h in edges
                                          if not (mask >> t & 1 and mask >> h & 1)))))
    return children


# On a 2-vCPU VM a random 6-vertex tournament's closure (13,056 minors) takes
# about 6 s, and a random 7-vertex one did not finish within 90 s.
CLOSURE_MAX_VERTICES = 6


def closure_oracle(g: Digraph) -> frozenset[Digraph]:
    """All minors of g, as canonical forms, by breadth-first search over
    single operations: delete an edge, delete a vertex, or contract a
    strongly-connected induced subdigraph on >= 2 vertices.

    The search runs on (vertex count, canonical sorted edges) tuples
    (`_closure_children`, `_canonical_edges`); `Digraph` values are built
    only for the returned set.  Every operation lowers |V| + |E|, so the
    search ends on its own.  Hosts with more than `CLOSURE_MAX_VERTICES`
    vertices raise ValueError.
    """
    if g.vertex_count > CLOSURE_MAX_VERTICES:
        raise ValueError(
            f"closure_oracle is guarded to hosts with at most {CLOSURE_MAX_VERTICES} vertices"
        )
    n = g.vertex_count
    start = (n, _canonical_edges(n, tuple(sorted(g.edges))))
    seen = {start}
    frontier = [start]
    while frontier:
        fresh = []
        for state in frontier:
            for k, edges in _closure_children(*state):
                canon = (k, _canonical_edges(k, edges))
                if canon not in seen:
                    seen.add(canon)
                    fresh.append(canon)
        frontier = fresh
    return frozenset(Digraph(k, edges) for k, edges in seen)


def find_subdigraph_embedding(h: Digraph, g: Digraph) -> tuple[int, ...] | None:
    """Injective vertex map sending h onto a subdigraph of g (respecting edge
    multiplicities), or None after exhaustive search: `find_minor`'s
    placement search with single-vertex branch sets."""
    singles = [(1 << v, 1, g.out_mask[v], g.in_mask[v]) for v in range(g.vertex_count)]
    chosen = _place(h, g, singles)
    return None if chosen is None else tuple(m.bit_length() - 1 for m in chosen)
