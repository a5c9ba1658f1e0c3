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

The closure search and canonical forms run on one flat tuple per digraph, its
state `(n, *ids)`: the vertex count, then the sorted edge ids t * n + h.
`_canonical`, the one canonical-form function, keeps a process-wide cache
keyed on states, and `_canonical_children` a second one of each canonical
state's canonical children, so a minor that several hosts share is expanded
once per process.  `closure_oracle` returns a `MinorClosure`, a read-only
set over the canonical states it reached, which builds a `Digraph` only
when it is iterated.
"""

from __future__ import annotations

import json
from collections.abc import Set
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, combinations, permutations, product
from math import comb

from .core import (
    Digraph,
    Subdigraph,
    _bits,
    _edges_strongly_connected,
    _strongly_connected,
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
        """Read `to_json`'s output back onto `host`.  Malformed input raises
        ValueError: not a JSON object, a missing `branch_sets` or
        `witnesses`, keys other than "0".."k-1", ids that are not integers,
        or a branch set that does not fit the host."""
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ValueError("minor mapping JSON must be an object")
        assignment = []
        for v, branch in enumerate(_numbered(data, "branch_sets")):
            if not isinstance(branch, dict) or not all(
                isinstance(branch.get(key), list) and all(type(i) is int for i in branch[key])
                for key in ("vertices", "edges")
            ):
                raise ValueError(
                    f"branch set {v} needs 'vertices' and 'edges': lists of integer ids")
            assignment.append(Subdigraph(host, frozenset(branch["vertices"]),
                                         frozenset(branch["edges"])))
        witness = _numbered(data, "witnesses")
        if not all(type(w) is int for w in witness):
            raise ValueError("witnesses must be integer edge ids")
        return cls(tuple(assignment), tuple(witness))


def _numbered(data: dict, key: str) -> list:
    """The values of the object `data[key]`, whose keys must be "0".."k-1"."""
    entries = data.get(key)
    if not isinstance(entries, dict):
        raise ValueError(f"minor mapping JSON needs {key!r}: an object")
    if set(entries) != {str(i) for i in range(len(entries))}:
        raise ValueError(f"{key!r} keys must be the numbers 0..{len(entries) - 1}")
    return [entries[str(i)] for i in range(len(entries))]


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


def _strong_level(n: int, out, inn, size: int) -> list[int]:
    """Vertex bitmasks of the strongly connected induced subdigraphs on
    exactly `size` of the vertices 0..n-1 of the digraph with adjacency masks
    `out` and `inn`, in ascending sorted-ids order: the library's one
    strong-set enumeration."""
    return [m for m in map(sum, combinations([1 << v for v in range(n)], size))
            if _strongly_connected(out, inn, m)]


def _neighbour_union(adj: tuple[int, ...], mask: int) -> int:
    """OR of adj[v] over the vertices v of mask."""
    union = 0
    for v in range(mask.bit_length()):
        if mask >> v & 1:
            union |= adj[v]
    return union


def _connecting_edges(g: Digraph, mask: int, charge=None) -> tuple[int, ...]:
    """First smallest set of induced edges, in (size, edge ids) order, that
    keeps the vertex bitmask `mask` strongly connected; empty for a single
    vertex.  `charge`, if given, is called with 1 before each combination
    is tested."""
    if not mask & (mask - 1):
        return ()
    internal = [i for i, (t, h) in enumerate(g.edges) if mask >> t & 1 and mask >> h & 1]
    for size in range(mask.bit_count(), len(internal) + 1):
        for combo in combinations(internal, size):
            if charge is not None:
                charge(1)
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


def _place(h: Digraph, g: Digraph, level, budget: int | None = None) -> list[int] | None:
    """The one backtracking search behind `find_minor` and
    `find_subdigraph_embedding`: a branch set for each vertex of h from the
    candidates `level(size)`, the vertex masks of `size` host vertices,
    pairwise disjoint and with enough host edges for every pattern edge and
    loop.  `level` is called once per size, when the search first reaches
    that size, which it does only while the host vertices left over leave
    room for it; each mask's neighbour unions are taken then.  Look-ahead:
    a pattern vertex with d distinct out-neighbours placed after it needs d
    disjoint branch sets, each holding a vertex of its mask's out-neighbour
    union, so a mask whose union holds fewer than d vertices outside the
    masks chosen so far is dropped; likewise for in-neighbours.  Returns the
    chosen masks by pattern vertex, or None after exhaustive search; order
    and budget are as `find_minor` documents."""
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
    # per position: the distinct out- and in-neighbours placed after it
    at = {v: pos for pos, v in enumerate(order)}
    later_out = [0] * h.vertex_count
    later_in = [0] * h.vertex_count
    for t, hd in mult:
        if at[t] < at[hd]:
            later_out[at[t]] += 1
        elif at[hd] < at[t]:
            later_in[at[hd]] += 1

    nodes = 0

    def charge(work: int) -> None:
        nonlocal nodes
        nodes += work
        if nodes > budget:
            raise BudgetExceededError(f"budget of {budget} placements exhausted")

    spare_cache: dict[int, int] = {}

    def loop_capacity(cls: int) -> int:
        if cls not in spare_cache:
            connecting = _connecting_edges(g, cls, None if budget is None else charge)
            spare_cache[cls] = cross_count(cls, cls) - len(connecting)
        return spare_cache[cls]

    def cross_count(src: int, dst: int) -> int:
        return sum(k for (t, hd), k in g.multiplicity.items() if src >> t & 1 and dst >> hd & 1)

    chosen = [0] * h.vertex_count
    # built[size]: level(size) as (mask, out-neighbour union, in-neighbour union)
    built: list[list[tuple[int, int, int]]] = [[]]

    def backtrack(pos: int, used: int) -> bool:
        if pos == len(order):
            return True
        pv = order[pos]
        loop, join = loops[pv], joins[pos]
        need_out, need_in = later_out[pos], later_in[pos]
        room = g.vertex_count - used.bit_count() - (len(order) - pos - 1)
        for size in range(1, room + 1):
            if size == len(built):
                if budget is not None:
                    charge(comb(g.vertex_count, size))
                built.append([(m, _neighbour_union(g.out_mask, m), _neighbour_union(g.in_mask, m))
                              for m in level(size)])
            for cls, out_union, in_union in built[size]:
                if cls & used:
                    continue
                if budget is not None:
                    charge(1)
                if loop and loop_capacity(cls) < loop:
                    continue
                for qv, to_q, from_q in join:
                    q = chosen[qv]
                    if to_q and not out_union & q or from_q and not in_union & q:
                        break
                    if (to_q > 1 and cross_count(cls, q) < to_q
                            or from_q > 1 and cross_count(q, cls) < from_q):
                        break
                else:
                    free = ~(used | cls)
                    if ((out_union & free).bit_count() < need_out
                            or (in_union & free).bit_count() < need_in):
                        continue
                    chosen[pv] = cls
                    if backtrack(pos + 1, used | cls):
                        return True
        return False

    return chosen if backtrack(0, 0) else None


def find_minor(
    h: Digraph, g: Digraph, budget: int | None = None
) -> MinorMapping | None:
    """Exhaustive search for a minor mapping of h into g.

    None is a certificate of absence.  Pattern vertices are processed by
    descending degree and branch-set candidates in ascending (size, ids)
    order, so the first mapping found is deterministic.
    The candidates are the host's strongly connected vertex masks, built one
    size at a time when the search first reaches that size: a size that
    leaves no vertex for a later pattern vertex is never built.  A candidate
    for a pattern vertex with d distinct out-neighbours (in-neighbours)
    still to be placed is dropped when fewer than d host vertices outside
    the branch sets chosen so far receive an edge from it (send one to it):
    each of those neighbours needs its own disjoint branch set reached by
    such an edge.  So the filter drops only candidates that lead to no
    mapping, and never changes the first mapping found.
    `budget` caps the work: each branch-set placement tried counts 1, and
    building the candidates of a size counts C(n, size), the subsets it
    tests, before it starts; for a pattern vertex with loops, finding a
    candidate's spare edges counts 1 for each edge combination tested.
    Exceeding it raises BudgetExceededError, and a negative budget raises
    ValueError.
    """
    if budget is not None and budget < 0:
        raise ValueError(f"budget must be non-negative, got {budget}")
    if h.vertex_count == 0:
        if h.edges:
            raise AssertionError("edges without vertices")
        return MinorMapping((), ())
    if h.vertex_count > g.vertex_count or len(h.edges) > len(g.edges):
        return None
    chosen = _place(h, g, lambda size: _strong_level(g.vertex_count, g.out_mask, g.in_mask, size),
                    budget)
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
def _canonical(*state: int) -> tuple[int, ...]:
    """Canonical state of the multi-digraph whose state is `state`:
    isomorphic multi-digraphs get equal states.  Called unpacked,
    `_canonical(*state)`, so that the cache keys on the caller's state
    tuple itself rather than on a 1-tuple around it.

    A state is one flat tuple `(n, *ids)`: the vertex count, then the sorted
    edge ids t * n + h of the multi-digraph on 0..n-1 (a parallel edge
    repeats its id).  For a fixed n the ids sort exactly as the (tail, head)
    pairs do.  Colour refinement (McKay & Piperno, "Practical graph
    isomorphism, II", 2014) starts from (out-degree, in-degree, loops) and
    splits classes by the sorted (colour, multiplicity) lists of out- and
    in-neighbours until the class count stops growing or reaches n; classes
    are ordered by their signatures, so the order is label-invariant.  The
    least relabelled id tuple is then taken over products of within-class
    permutations, which is exact; with n classes there is one product, the
    colouring itself.  The process-wide cache is keyed on the state, so
    every caller in the process shares it.  A result other than the input
    is looked up once more, so that every state of a class shares the one
    tuple cached for the class.

    One pass turns the ids into (tail, head, multiplicity) runs and takes
    the degrees from them.  With scale = m + 1 for m edges, the degree
    triple (o, i, l) is held as the int (o * scale + i) * scale + l and a
    (colour, multiplicity) pair as colour * scale + multiplicity: every
    count is below scale, so the ints order exactly as the tuples do, and
    the colours are those the tuples would give.
    """
    n = state[0]
    if n <= 1:
        return state
    ids = state[1:]
    scale = len(ids) + 1
    runs: list[list[int]] = []
    prev = -1
    for e in ids:
        # parallel edges are adjacent in the sorted ids
        if e == prev:
            runs[-1][2] += 1
        else:
            prev = e
            runs.append([*divmod(e, n), 1])
    outs: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    ins: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    base = [0] * n
    for t, h, k in runs:
        outs[t].append((h, k))
        ins[h].append((t, k))
        base[t] += k * scale * scale
        base[h] += k * scale
        if t == h:
            base[t] += k
    lookup = {s: c for c, s in enumerate(sorted(set(base)))}
    color = [lookup[s] for s in base]
    count = len(lookup)
    while count < n:
        sigs = [(c, tuple(sorted([color[w] * scale + k for w, k in out])),
                 tuple(sorted([color[w] * scale + k for w, k in inn])))
                for c, out, inn in zip(color, outs, ins)]
        distinct = sorted(set(sigs))
        # each signature starts with the old colour, so an equal count means
        # an unchanged partition in an unchanged order
        if len(distinct) == count:
            break
        lookup = {s: c for c, s in enumerate(distinct)}
        color = [lookup[s] for s in sigs]
        count = len(distinct)
    if count == n:
        best = (n, *sorted([color[e // n] * n + color[e % n] for e in ids]))
        return state if best == state else _canonical(*best)
    classes: list[list[int]] = [[] for _ in range(count)]
    for v in range(n):
        classes[color[v]].append(v)
    pairs = [divmod(e, n) for e in ids]
    best = None
    relabel = [0] * n
    for perm_combo in product(*(permutations(cls) for cls in classes)):
        for new, v in enumerate(chain.from_iterable(perm_combo)):
            relabel[v] = new
        relabelled = sorted([relabel[t] * n + relabel[h] for t, h in pairs])
        if best is None or relabelled < best:
            best = relabelled
    best = (n, *best)
    return state if best == state else _canonical(*best)


def _encode(g: Digraph) -> tuple[int, ...]:
    n = g.vertex_count
    return (n, *sorted(t * n + h for t, h in g.edges))


def _decode(state: tuple[int, ...]) -> Digraph:
    n = state[0]
    return Digraph(n, tuple(divmod(e, n) for e in state[1:]))


def canonical_form(g: Digraph) -> Digraph:
    """Canonically relabelled copy: isomorphic multi-digraphs map to equal
    values (see `_canonical`).  The cache holds states, not `Digraph`
    values, so every call returns a fresh value."""
    return _decode(_canonical(*_encode(g)))


def _closure_children(state: tuple[int, ...]) -> set[tuple[int, ...]]:
    """The states (see `_canonical`) of every digraph one operation away from
    the digraph whose state is `state`: delete an edge, delete a vertex, or
    contract a strongly connected induced subdigraph on >= 2 vertices,
    relabelled as `core.delete_vertex` and `core.contract` do."""
    n = state[0]
    children = set()
    for i in range(1, len(state)):
        # deleting either of two parallel copies gives the same child
        if i > 1 and state[i] == state[i - 1]:
            continue
        children.add(state[:i] + state[i + 1:])
    pairs = [divmod(e, n) for e in state[1:]]
    k = n - 1
    for v in range(n):
        # shifting the ids above v down keeps the surviving edges sorted
        children.add((k, *[(t - (t > v)) * k + h - (h > v)
                           for t, h in pairs if t != v and h != v]))
    out = [0] * n
    inn = [0] * n
    for t, h in pairs:
        out[t] |= 1 << h
        inn[h] |= 1 << t
    for size in range(2, n + 1):
        for mask in _strong_level(n, out, inn, size):
            # kept vertices in order, the contracted vertex w last
            w = n - size
            remap = [w] * n
            kept = 0
            for v in range(n):
                if not mask >> v & 1:
                    remap[v] = kept
                    kept += 1
            k = w + 1
            children.add((k, *sorted([remap[t] * k + remap[h] for t, h in pairs
                                      if not (mask >> t & 1 and mask >> h & 1)])))
    return children


@lru_cache(maxsize=65536)
def _canonical_children(*state: int) -> tuple[tuple[int, ...], ...]:
    """The distinct canonical states of the children of the canonical state
    `state` (`_closure_children`, `_canonical`), called unpacked as
    `_canonical` is.  The process-wide cache means that a minor shared by
    several hosts is expanded once, and its entries are the canonical
    cache's own tuples."""
    return tuple({_canonical(*child) for child in _closure_children(state)})


# On a 2-vCPU VM a random 6-vertex tournament's closure (seed 0, 13,056
# minors) takes about 2.7 s with cold caches, and a random 7-vertex one did not
# finish within 90 s.  A second 6-vertex tournament right after it (seed 1,
# 11,200 minors) takes about 0.85 s, since the two share most small minors.
# Digons make six vertices far costlier: seed 0's tournament with the reverses
# of its first two edges added has 67,489 minors and closed in 31.8 s, and
# with four added it did not finish within 100 s.  So the search also stops
# past CLOSURE_MAX_MINORS canonical minors, above every 6-vertex tournament
# class (at most 14,626), the complete symmetric 5-vertex digraph (16,820,
# 3.9 s) and the complete symmetric 4-vertex one with every edge doubled
# (24,833, 4.1 s).  The four-digon host and the complete symmetric 6-vertex
# digraph reach the cap after 10.6 s and 13.5 s.
CLOSURE_MAX_VERTICES = 6
CLOSURE_MAX_MINORS = 50_000


class MinorClosure(Set):
    """The read-only set of canonical minors that `closure_oracle` returns,
    held as canonical states; a `Digraph` is built only when iterated.

    It answers as the frozenset of decoded members would: a member is a
    `Digraph` (not a subclass) whose edges are in sorted order and whose
    state is held, `len` counts the states, and `==`, `<=` and the other
    comparisons work against any set of `Digraph` values.  Set operators
    return a frozenset.  It is not hashable."""

    __slots__ = ("_states",)

    def __init__(self, states: set[tuple[int, ...]]):
        self._states = states

    def __len__(self) -> int:
        return len(self._states)

    def __iter__(self):
        return map(_decode, self._states)

    def __contains__(self, g) -> bool:
        if type(g) is not Digraph:
            return False
        n = g.vertex_count
        ids = [t * n + h for t, h in g.edges]
        return ids == sorted(ids) and (n, *ids) in self._states

    @classmethod
    def _from_iterable(cls, values) -> frozenset:
        return frozenset(values)


def closure_oracle(g: Digraph) -> MinorClosure:
    """All minors of g, as canonical forms, by breadth-first search over
    single operations: delete an edge, delete a vertex, or contract a
    strongly-connected induced subdigraph on >= 2 vertices.

    The search runs on canonical states (`_canonical`) and expands each one
    through `_canonical_children`, whose cache a later host shares.  It
    returns a `MinorClosure` over the canonical states it reached, so
    membership tests build no `Digraph`; iterating it builds one per member.
    Every operation lowers |V| + |E|, so the search ends on its own.  Hosts
    with more than `CLOSURE_MAX_VERTICES` vertices raise ValueError, and so
    does a search the moment it holds more than `CLOSURE_MAX_MINORS`
    canonical minors.
    """
    if g.vertex_count > CLOSURE_MAX_VERTICES:
        raise ValueError(
            f"closure_oracle is guarded to hosts with at most {CLOSURE_MAX_VERTICES} vertices"
        )
    start = _canonical(*_encode(g))
    seen = {start}
    frontier = [start]
    while frontier:
        fresh = []
        for state in frontier:
            for child in _canonical_children(*state):
                if child not in seen:
                    seen.add(child)
                    if len(seen) > CLOSURE_MAX_MINORS:
                        raise ValueError(f"closure_oracle is guarded to at most "
                                         f"{CLOSURE_MAX_MINORS} minors")
                    fresh.append(child)
        frontier = fresh
    return MinorClosure(seen)


def find_subdigraph_embedding(h: Digraph, g: Digraph) -> tuple[int, ...] | None:
    """Injective vertex map sending h onto a subdigraph of g (respecting edge
    multiplicities), or None after exhaustive search: `find_minor`'s
    placement search with single-vertex branch sets."""
    singles = [1 << v for v in range(g.vertex_count)]
    chosen = _place(h, g, lambda size: singles if size == 1 else [])
    return None if chosen is None else tuple(m.bit_length() - 1 for m in chosen)
