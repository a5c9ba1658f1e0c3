"""The minor search as it stood before strong sets were read off the host's
structure, kept verbatim as the reference for byte-identical outcomes:
`_strong_level` tested every C(n, size) subset, `_place` scanned every
single vertex, and the certificate was built with dictionaries.  Only the
names differ from that version."""

from __future__ import annotations

from itertools import combinations
from math import comb

from digraph_minors.core import Digraph, Subdigraph, _bits, _strongly_connected
from digraph_minors.minor import (
    BudgetExceededError,
    MinorMapping,
    _connecting_edges,
    _neighbour_union,
)


def parent_strong_level(n: int, out, inn, size: int) -> list[int]:
    """Vertex bitmasks of the strongly connected induced subdigraphs on
    exactly `size` of the vertices 0..n-1 of the digraph with adjacency masks
    `out` and `inn`, in ascending sorted-ids order: the library's one
    strong-set enumeration."""
    return [m for m in map(sum, combinations([1 << v for v in range(n)], size))
            if _strongly_connected(out, inn, m)]


def parent_assign_witnesses(h: Digraph, g: Digraph, branch_sets: list[Subdigraph]) -> tuple[int, ...]:
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


def parent_build_mapping(h: Digraph, g: Digraph, classes: list[int]) -> MinorMapping:
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
    return MinorMapping(tuple(branch_sets), parent_assign_witnesses(h, g, branch_sets))


def parent_place(h: Digraph, g: Digraph, level, budget: int | None = None) -> list[int] | None:
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


def parent_find_minor(h, g, budget=None):
    """`find_minor` as it was, without the final `verify_mapping`."""
    if budget is not None and budget < 0:
        raise ValueError(f"budget must be non-negative, got {budget}")
    if h.vertex_count > g.vertex_count or len(h.edges) > len(g.edges):
        return None
    n = g.vertex_count
    chosen = parent_place(h, g, lambda size: parent_strong_level(n, g.out_mask, g.in_mask, size),
                          budget)
    return None if chosen is None else parent_build_mapping(h, g, chosen)


def parent_embedding_place(h, g, budget=None):
    """`find_subdigraph_embedding`'s search as it was, with a budget."""
    singles = [1 << v for v in range(g.vertex_count)]
    return parent_place(h, g, lambda size: singles if size == 1 else [], budget)
