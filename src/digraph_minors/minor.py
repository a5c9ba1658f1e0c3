"""Minor mappings on digraphs: verification, exact search, composition, and
an independent contraction-closure oracle.

A minor mapping assigns each pattern vertex a non-null strongly-connected
branch subdigraph of the host, pairwise vertex-disjoint, and each pattern
edge a distinct host witness edge running between the right branch sets and
belonging to no branch edge set.  Containment can equivalently be decided by
deleting and contracting, which `closure_oracle` does; the two routes are
cross-checked in the test suite.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, permutations, product

from .core import (
    Digraph,
    Subdigraph,
    contract,
    delete_edge,
    delete_vertex,
    induced_strongly_connected,
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


def _strongly_connected_subsets(g: Digraph) -> list[frozenset[int]]:
    """All vertex subsets whose induced subdigraph is strongly connected,
    in ascending (size, sorted-ids) order."""
    n = g.vertex_count
    subsets = []
    for size in range(1, n + 1):
        for combo in combinations(range(n), size):
            if size == 1 or induced_strongly_connected(g, combo):
                subsets.append(frozenset(combo))
    return subsets


def _connecting_edges(g: Digraph, vertices: frozenset[int]) -> tuple[int, ...]:
    """First smallest set of induced edges, in (size, edge ids) order, that
    keeps `vertices` strongly connected; empty for a single vertex."""
    if len(vertices) == 1:
        return ()
    internal = [i for i, (t, h) in enumerate(g.edges)
                if t in vertices and h in vertices]
    for size in range(len(vertices), len(internal) + 1):
        for combo in combinations(internal, size):
            own = Digraph(g.vertex_count, tuple(g.edges[i] for i in combo))
            if induced_strongly_connected(own, vertices):
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


def _build_mapping(h: Digraph, g: Digraph, classes: list[frozenset[int]]) -> MinorMapping:
    """Materialize a mapping from disjoint strongly-connected vertex classes
    that satisfy the per-pair edge counts.  A class keeps all its induced
    edges unless it is one vertex or its pattern vertex has loops; then it
    keeps only its first smallest connecting edge set."""
    branch_sets = []
    for v, cls in enumerate(classes):
        if h.multiplicity.get((v, v)) or len(cls) == 1:
            edge_set = frozenset(_connecting_edges(g, cls))
        else:
            edge_set = frozenset(i for i, (t, hd) in enumerate(g.edges)
                                 if t in cls and hd in cls)
        branch_sets.append(Subdigraph(g, cls, edge_set))
    return MinorMapping(tuple(branch_sets), assign_witnesses(h, g, branch_sets))


def find_minor(
    h: Digraph, g: Digraph, budget: int | None = None
) -> MinorMapping | None:
    """Exhaustive search for a minor mapping of h into g.

    None is a certificate of absence.  `budget` caps the number of branch-set
    placements tried; exceeding it raises BudgetExceededError.  Pattern
    vertices are processed by descending degree and branch-set candidates in
    ascending (size, ids) order, so the first mapping found is deterministic.
    """
    if h.vertex_count == 0:
        if h.edges:
            raise AssertionError("edges without vertices")
        return MinorMapping((), ())
    if h.vertex_count > g.vertex_count or len(h.edges) > len(g.edges):
        return None

    loops = [h.multiplicity.get((v, v), 0) for v in range(h.vertex_count)]
    degree = [0] * h.vertex_count
    for t, hd in h.edges:
        degree[t] += 1
        degree[hd] += 1
    order = sorted(range(h.vertex_count), key=lambda v: (-degree[v], v))
    candidates = _strongly_connected_subsets(g)

    spare_cache: dict[frozenset[int], int] = {}

    def loop_capacity(cls: frozenset[int]) -> int:
        if cls not in spare_cache:
            spare_cache[cls] = cross_count(cls, cls) - len(_connecting_edges(g, cls))
        return spare_cache[cls]

    def cross_count(src: frozenset[int], dst: frozenset[int]) -> int:
        return sum(
            mult for (t, hd), mult in g.multiplicity.items()
            if t in src and hd in dst
        )

    nodes = 0
    assigned: dict[int, frozenset[int]] = {}

    def backtrack(pos: int) -> list[frozenset[int]] | None:
        nonlocal nodes
        if pos == len(order):
            return [assigned[v] for v in range(h.vertex_count)]
        pv = order[pos]
        used = frozenset().union(*assigned.values()) if assigned else frozenset()
        remaining_needed = len(order) - pos
        for cls in candidates:
            if cls & used:
                continue
            if g.vertex_count - len(used) - len(cls) < remaining_needed - 1:
                continue
            nodes += 1
            if budget is not None and nodes > budget:
                raise BudgetExceededError(f"budget of {budget} placements exhausted")
            if loops[pv] and loop_capacity(cls) < loops[pv]:
                continue
            ok = True
            for qv, qcls in assigned.items():
                if h.multiplicity.get((pv, qv), 0) > cross_count(cls, qcls):
                    ok = False
                    break
                if h.multiplicity.get((qv, pv), 0) > cross_count(qcls, cls):
                    ok = False
                    break
            if not ok:
                continue
            assigned[pv] = cls
            result = backtrack(pos + 1)
            if result is not None:
                return result
            del assigned[pv]
        return None

    classes = backtrack(0)
    if classes is None:
        return None
    mapping = _build_mapping(h, g, classes)
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


def _refine_colors(g: Digraph) -> list[list[int]]:
    """Iterative colour refinement; returns vertex classes in a
    label-invariant order (classes ordered by their signature)."""
    n = g.vertex_count
    mult = g.multiplicity
    outs = [[(h, mult[(v, h)]) for h in sorted(g.out_sets[v])] for v in range(n)]
    ins = [[(t, mult[(t, v)]) for t in sorted(g.in_sets[v])] for v in range(n)]
    color = [0] * n
    sig0 = sorted(
        {
            (
                sum(m for _, m in outs[v]),
                sum(m for _, m in ins[v]),
                mult.get((v, v), 0),
            )
            for v in range(n)
        }
    )
    lookup = {s: i for i, s in enumerate(sig0)}
    for v in range(n):
        color[v] = lookup[
            (
                sum(m for _, m in outs[v]),
                sum(m for _, m in ins[v]),
                mult.get((v, v), 0),
            )
        ]
    while True:
        sigs = [
            (
                color[v],
                tuple(sorted((color[w], m) for w, m in outs[v])),
                tuple(sorted((color[w], m) for w, m in ins[v])),
            )
            for v in range(n)
        ]
        distinct = sorted(set(sigs))
        lookup = {s: i for i, s in enumerate(distinct)}
        new_color = [lookup[sigs[v]] for v in range(n)]
        if new_color == color:
            break
        color = new_color
    classes: dict[int, list[int]] = {}
    for v in range(n):
        classes.setdefault(color[v], []).append(v)
    return [classes[c] for c in sorted(classes)]


@lru_cache(maxsize=65536)
def canonical_form(g: Digraph) -> Digraph:
    """Canonically relabelled copy: isomorphic multi-digraphs map to equal
    values.  Colour refinement narrows the permutations; the lexicographically
    least relabelled edge list is then taken over products of within-class
    permutations, which is exact."""
    n = g.vertex_count
    if n <= 1:
        return Digraph(n, tuple(sorted(g.edges)))
    classes = _refine_colors(g)
    offsets = []
    base = 0
    for cls in classes:
        offsets.append(base)
        base += len(cls)
    best: tuple[tuple[int, int], ...] | None = None
    for perm_combo in product(*(permutations(cls) for cls in classes)):
        relabel = [0] * n
        for cls_perm, off in zip(perm_combo, offsets):
            for i, v in enumerate(cls_perm):
                relabel[v] = off + i
        edges = tuple(sorted((relabel[t], relabel[h]) for t, h in g.edges))
        if best is None or edges < best:
            best = edges
    return Digraph(n, best if best is not None else ())


def closure_oracle(g: Digraph) -> frozenset[Digraph]:
    """All minors of g, as canonical forms, by breadth-first search over
    single operations: delete an edge, delete a vertex, or contract a
    strongly-connected induced subdigraph on >= 2 vertices.

    Every operation lowers |V| + |E|, so the search ends on its own.
    Guarded to hosts with at most 7 vertices.
    """
    if g.vertex_count > 7:
        raise ValueError("closure_oracle is guarded to hosts with at most 7 vertices")
    start = canonical_form(g)
    seen = {start}
    frontier = [start]
    while frontier:
        fresh = []
        for q in frontier:
            results = []
            for i in range(len(q.edges)):
                results.append(delete_edge(q, i))
            for v in range(q.vertex_count):
                results.append(delete_vertex(q, v))
            for size in range(2, q.vertex_count + 1):
                for combo in combinations(range(q.vertex_count), size):
                    if induced_strongly_connected(q, combo):
                        contracted, _ = contract(q, Subdigraph.induced(q, combo))
                        results.append(contracted)
            for res in results:
                canon = canonical_form(res)
                if canon not in seen:
                    seen.add(canon)
                    fresh.append(canon)
        frontier = fresh
    return frozenset(seen)


def find_subdigraph_embedding(h: Digraph, g: Digraph) -> tuple[int, ...] | None:
    """Injective vertex map sending h onto a subdigraph of g (respecting edge
    multiplicities), or None after exhaustive backtracking."""
    if h.vertex_count > g.vertex_count:
        return None
    h_mult = h.multiplicity
    g_mult = g.multiplicity
    h_out = [0] * h.vertex_count
    h_in = [0] * h.vertex_count
    for t, hd in h.edges:
        h_out[t] += 1
        h_in[hd] += 1
    g_out = [0] * g.vertex_count
    g_in = [0] * g.vertex_count
    for t, hd in g.edges:
        g_out[t] += 1
        g_in[hd] += 1
    order = sorted(range(h.vertex_count), key=lambda v: (-(h_out[v] + h_in[v]), v))
    image = [-1] * h.vertex_count
    used = [False] * g.vertex_count

    def compatible(pv: int, gv: int) -> bool:
        if g_out[gv] < h_out[pv] or g_in[gv] < h_in[pv]:
            return False
        if h_mult.get((pv, pv), 0) > g_mult.get((gv, gv), 0):
            return False
        for qv in order:
            if image[qv] == -1 or qv == pv:
                continue
            if h_mult.get((pv, qv), 0) > g_mult.get((gv, image[qv]), 0):
                return False
            if h_mult.get((qv, pv), 0) > g_mult.get((image[qv], gv), 0):
                return False
        return True

    def backtrack(pos: int) -> bool:
        if pos == len(order):
            return True
        pv = order[pos]
        for gv in range(g.vertex_count):
            if used[gv] or not compatible(pv, gv):
                continue
            image[pv] = gv
            used[gv] = True
            if backtrack(pos + 1):
                return True
            image[pv] = -1
            used[gv] = False
        return False

    return tuple(image) if backtrack(0) else None
