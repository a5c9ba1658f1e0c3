"""Path-decompositions of digraphs.

A path-decomposition is a sequence of bags W_1..W_r covering V(G) such that
each vertex occupies a contiguous run of bags (betweenness) and every edge
u -> v admits indices i <= j with the head v in W_i and the tail u in W_j
(cut condition).  Width is the maximum bag size minus one.

This module provides the verifier, normalization to single-vertex steps,
an exact path-width solver, the decomposition transforms under vertex/edge
deletion and contraction, and the construction of a linked decomposition
between prescribed end bags.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .core import (
    Digraph,
    Subdigraph,
    is_semi_complete,
    is_strongly_connected,
)
from .connectivity import (
    Separation,
    max_disjoint_paths,
    min_separation,
    minimal_union_paths,
)


@dataclass(frozen=True)
class PathDecomposition:
    bags: tuple[frozenset[int], ...]

    def __post_init__(self):
        if not self.bags:
            raise ValueError("a path-decomposition needs at least one bag")
        object.__setattr__(self, "bags", tuple(frozenset(b) for b in self.bags))

    @property
    def r(self) -> int:
        return len(self.bags)

    @property
    def first(self) -> frozenset[int]:
        return self.bags[0]

    @property
    def last(self) -> frozenset[int]:
        return self.bags[-1]

    @property
    def min_bag(self) -> int:
        return min(len(b) for b in self.bags)

    @property
    def max_bag(self) -> int:
        return max(len(b) for b in self.bags)

    @property
    def width(self) -> int:
        return self.max_bag - 1

    def to_json(self) -> str:
        return json.dumps({"schema": "decomposition/1", "bags": [sorted(b) for b in self.bags]})

    @classmethod
    def from_json(cls, text: str) -> "PathDecomposition":
        data = json.loads(text)
        bags = data.get("bags") if isinstance(data, dict) else None
        if not isinstance(bags, list) or not all(
            isinstance(b, list) and all(type(v) is int for v in b) for b in bags
        ):
            raise ValueError("decomposition JSON needs 'bags': a list of lists of vertex ids")
        return cls(tuple(frozenset(b) for b in bags))


@dataclass(frozen=True)
class LinkedFlags:
    increment_ok: bool
    cardinality_ok: bool
    linked_ok: bool
    witness: tuple[int, int, int, Separation] | None = None


@dataclass(frozen=True)
class LexMeasure:
    """Bag-size histogram (n_0, ..., n_k); larger in lex order = more small bags."""

    counts: tuple[int, ...]

    @classmethod
    def of(cls, p: PathDecomposition, k: int) -> "LexMeasure":
        counts = [0] * (k + 1)
        for bag in p.bags:
            counts[len(bag)] += 1
        return cls(tuple(counts))


@dataclass(frozen=True)
class DecompReport:
    coverage_ok: bool
    betweenness_ok: bool
    cut_ok: bool
    valid: bool
    min_bag: int | None = None
    max_bag: int | None = None
    pathwidth: int | None = None
    missing_vertices: frozenset[int] = frozenset()
    betweenness_violation: tuple[int, int, int, int] | None = None
    cut_violation: int | None = None
    linked: LinkedFlags | None = None

    def to_json(self) -> str:
        data = {
            "schema": "verify-report/1",
            "coverage_ok": self.coverage_ok,
            "betweenness_ok": self.betweenness_ok,
            "cut_ok": self.cut_ok,
            "valid": self.valid,
            "min_bag": self.min_bag,
            "max_bag": self.max_bag,
            "pathwidth": self.pathwidth,
            "missing_vertices": sorted(self.missing_vertices),
            "betweenness_violation": self.betweenness_violation,
            "cut_violation": self.cut_violation,
        }
        if self.linked is not None:
            witness = None
            if self.linked.witness is not None:
                h, j, t, sep = self.linked.witness
                witness = {"h": h, "j": j, "t": t,
                           "c": sorted(sep.c), "d": sorted(sep.d), "order": sep.order}
            data["linked"] = {
                "increment_ok": self.linked.increment_ok,
                "cardinality_ok": self.linked.cardinality_ok,
                "linked_ok": self.linked.linked_ok,
                "witness": witness,
            }
        return json.dumps(data)


def _vertex_intervals(p: PathDecomposition):
    first: dict[int, int] = {}
    last: dict[int, int] = {}
    for i, bag in enumerate(p.bags):
        for v in bag:
            first.setdefault(v, i)
            last[v] = i
    return first, last


def _linked_violation(g: Digraph, bags) -> tuple[int, int, int] | None:
    """First (smallest h, then smallest j) window [h, j] whose minimum bag
    size t is not certified by t vertex-disjoint W_h -> W_j paths."""
    r = len(bags)
    for h in range(r):
        t = len(bags[h])
        for j in range(h + 1, r):
            t = min(t, len(bags[j]))
            if t == 0:
                break
            if len(max_disjoint_paths(g, bags[h], bags[j])) < t:
                return h, j, t
    return None


def verify(g: Digraph, p: PathDecomposition, check_linked: bool = False) -> DecompReport:
    """Check every decomposition condition independently; optionally also the
    increment, cardinality and linked conditions."""
    for bag in p.bags:
        for v in bag:
            if not 0 <= v < g.vertex_count:
                raise ValueError(f"bag vertex {v} out of range")

    covered = frozenset().union(*p.bags)
    missing = frozenset(range(g.vertex_count)) - covered
    coverage_ok = not missing

    first, last = _vertex_intervals(p)
    betw_violation = None
    for v in covered:
        for i in range(first[v] + 1, last[v]):
            if v not in p.bags[i]:
                betw_violation = (first[v], i, last[v], v)
                break
        if betw_violation:
            break
    betweenness_ok = betw_violation is None

    cut_violation = None
    for idx, (tail, head) in enumerate(g.edges):
        if tail not in first or head not in first or first[head] > last[tail]:
            cut_violation = idx
            break
    cut_ok = cut_violation is None

    valid = coverage_ok and betweenness_ok and cut_ok
    min_bag = p.min_bag if valid else None
    max_bag = p.max_bag if valid else None
    linked = None
    if check_linked:
        increments_ok = all(
            len(p.bags[i] ^ p.bags[i + 1]) == 1 for i in range(p.r - 1)
        )
        cardinality_ok = len(p.first) == p.min_bag == len(p.last)
        witness = None
        linked_ok = True
        if valid:
            violation = _linked_violation(g, p.bags)
            if violation is not None:
                h, j, t = violation
                sep = min_separation(g, p.bags[h], p.bags[j])
                witness = (h, j, t, sep)
                linked_ok = False
        linked = LinkedFlags(increments_ok, cardinality_ok, linked_ok, witness)
    return DecompReport(
        coverage_ok=coverage_ok,
        betweenness_ok=betweenness_ok,
        cut_ok=cut_ok,
        valid=valid,
        min_bag=min_bag,
        max_bag=max_bag,
        pathwidth=max_bag - 1 if valid else None,
        missing_vertices=missing,
        betweenness_violation=betw_violation,
        cut_violation=cut_violation,
        linked=linked,
    )


def _steps_between(x: frozenset, y: frozenset):
    """Single-vertex steps from bag x to bag y: drop departures in descending
    id order down to the intersection, then add arrivals in ascending order."""
    steps = []
    cur = set(x)
    for v in sorted(x - y, reverse=True):
        cur.discard(v)
        steps.append(frozenset(cur))
    for v in sorted(y - x):
        cur.add(v)
        steps.append(frozenset(cur))
    return steps


def normalize(g: Digraph, p: PathDecomposition) -> PathDecomposition:
    """Equivalent decomposition satisfying the increment condition.

    First and last bags are unchanged and the maximum bag size cannot grow.
    """
    if not verify(g, p).valid:
        raise ValueError("cannot normalize an invalid decomposition")
    bags = [p.bags[0]]
    for nxt in p.bags[1:]:
        if nxt == bags[-1]:
            continue
        bags.extend(_steps_between(bags[-1], nxt))
    return PathDecomposition(tuple(bags))


def exact_pathwidth(g: Digraph) -> tuple[int, PathDecomposition]:
    """Exact path-width with a witnessing decomposition.

    Dynamic programming over introduction sets: with B(T) = set of vertices in
    T that still have an out-neighbour outside T, the cheapest order obeys
    g(T) = min over v in T of max(g(T - v), |B(T - v)|), since a vertex can be
    forgotten as soon as all its out-neighbours have been introduced.  The
    null digraph gets the single empty bag and width -1.
    """
    if any(t == h for t, h in g.edges):
        raise ValueError("path-width is undefined for digraphs with loops")
    n = g.vertex_count
    if n == 0:
        return -1, PathDecomposition((frozenset(),))
    out_mask = g.out_mask
    full = (1 << n) - 1
    boundary_size = [0] * (full + 1)
    for mask in range(1, full + 1):
        size = 0
        rest = mask
        while rest:
            v = (rest & -rest).bit_length() - 1
            rest &= rest - 1
            if out_mask[v] & ~mask:
                size += 1
        boundary_size[mask] = size

    best = [0] * (full + 1)
    choice = [-1] * (full + 1)
    for mask in range(1, full + 1):
        cost = None
        pick = -1
        rest = mask
        while rest:
            v = (rest & -rest).bit_length() - 1
            rest &= rest - 1
            prev = mask & ~(1 << v)
            c = max(best[prev], boundary_size[prev])
            if cost is None or c < cost:
                cost = c
                pick = v
        best[mask] = cost
        choice[mask] = pick

    order = []
    mask = full
    while mask:
        v = choice[mask]
        order.append(v)
        mask &= ~(1 << v)
    order.reverse()

    bags: list[frozenset[int]] = []
    introduced = 0
    bag: set[int] = set()
    for v in order:
        bag.add(v)
        introduced |= 1 << v
        bags.append(frozenset(bag))
        for u in sorted(bag, reverse=True):
            if not (out_mask[u] & ~introduced):
                bag.discard(u)
                bags.append(frozenset(bag))
    decomposition = PathDecomposition(tuple(bags))
    assert decomposition.width == best[full]
    return best[full], decomposition


def transform_delete_vertex(g: Digraph, p: PathDecomposition, v: int) -> PathDecomposition:
    """Decomposition for delete_vertex(g, v): drop v from every bag (empty
    bags retained) and shift ids above v down by one."""
    if not 0 <= v < g.vertex_count:
        raise ValueError(f"vertex {v} out of range")
    if not verify(g, p).valid:
        raise ValueError("input decomposition is invalid")
    return PathDecomposition(
        tuple(frozenset(x - (x > v) for x in bag if x != v) for bag in p.bags)
    )


def transform_delete_edge(g: Digraph, p: PathDecomposition, index: int) -> PathDecomposition:
    """Edge deletion never disturbs a decomposition; returned unchanged."""
    if not 0 <= index < len(g.edges):
        raise ValueError(f"edge index {index} out of range")
    if not verify(g, p).valid:
        raise ValueError("input decomposition is invalid")
    return p


def transform_under_contraction(
    g: Digraph, p: PathDecomposition, h: Subdigraph
) -> PathDecomposition:
    """Decomposition of contract(g, h) obtained by replacing the contracted
    vertices with w inside the interval of bags they touch."""
    if not is_strongly_connected(g, h):
        raise ValueError("contraction requires a strongly-connected subdigraph")
    if not verify(g, p).valid:
        raise ValueError("input decomposition is invalid")
    touched = [i for i, bag in enumerate(p.bags) if bag & h.vertices]
    if touched != list(range(touched[0], touched[-1] + 1)):
        raise RuntimeError("bags meeting the contracted set do not form an interval")
    inside = h.vertices
    keep = [v for v in range(g.vertex_count) if v not in inside]
    remap = {v: i for i, v in enumerate(keep)}
    w = len(keep)
    lo, hi = touched[0], touched[-1]
    bags = []
    for i, bag in enumerate(p.bags):
        newbag = {remap[v] for v in bag if v not in inside}
        if lo <= i <= hi:
            newbag.add(w)
        bags.append(frozenset(newbag))
    return PathDecomposition(tuple(bags))


def build_linked(g: Digraph, p: PathDecomposition, a, b) -> PathDecomposition:
    """Linked path-decomposition with first bag a, last bag b and no larger
    maximum bag than p's.

    Repeatedly: find the first window [h, j] whose minimum bag size t lacks t
    disjoint paths, take a minimum separation (C, D) of order s < t between
    the prefix and suffix unions, reroute the window through s disjoint paths
    with minimal union pinched at the cut, and renormalize.  Every repair
    strictly increases the bag-size histogram (n_0, ..., n_k) in lex order,
    so the loop terminates.
    """
    if not is_semi_complete(g):
        raise ValueError("build_linked requires a semi-complete digraph")
    a = frozenset(a)
    b = frozenset(b)
    if len(a) != len(b):
        raise ValueError("end bags must have equal size")
    bags = list(p.bags)
    if a == frozenset() and bags[0] != a:
        bags.insert(0, frozenset())
    if b == frozenset() and bags[-1] != b:
        bags.append(frozenset())
    p = PathDecomposition(tuple(bags))
    if p.first != a or p.last != b:
        raise ValueError("decomposition end bags do not match the requested a, b")
    if not verify(g, p).valid:
        raise ValueError("input decomposition is invalid")
    m = len(a)
    if m and len(max_disjoint_paths(g, a, b)) < m:
        raise ValueError(f"fewer than {m} vertex-disjoint paths from a to b")

    k = p.max_bag
    p = normalize(g, p)
    measure = LexMeasure.of(p, k)
    rounds = 0
    while True:
        violation = _linked_violation(g, p.bags)
        if violation is None:
            break
        rounds += 1
        if rounds > 4 * (2 * g.vertex_count + 2) ** (k + 1):
            raise AssertionError("linked construction failed to make progress")
        h, j, t = violation
        prefix = frozenset().union(*p.bags[: h + 1])
        suffix = frozenset().union(*p.bags[j:])
        sep = min_separation(g, prefix, suffix)
        s = sep.order
        assert s < t, "separation is no smaller than the certified window"
        paths = minimal_union_paths(g, prefix, suffix, s)
        cut = sep.c & sep.d
        # disjointness forces exactly one cut vertex per path
        pinch = []
        for path in paths.paths:
            hits = [v for v in path if v in cut]
            assert len(hits) == 1
            pinch.append(hits[0])
        d_side = [frozenset(path) & sep.d for path in paths.paths]
        c_side = [frozenset(path) & sep.c for path in paths.paths]

        new_bags = []
        for i in range(0, j + 1):
            bag = p.bags[i] & sep.c
            extra = {pl for pl, dp in zip(pinch, d_side) if p.bags[i] & dp}
            new_bags.append(frozenset(bag | extra))
        for i in range(h, p.r):
            bag = p.bags[i] & sep.d
            extra = {pl for pl, cp in zip(pinch, c_side) if p.bags[i] & cp}
            new_bags.append(frozenset(bag | extra))
        candidate = PathDecomposition(tuple(new_bags))
        report = verify(g, candidate)
        assert report.valid, "window repair produced an invalid decomposition"
        assert candidate.max_bag <= k
        p = normalize(g, candidate)
        new_measure = LexMeasure.of(p, k)
        assert new_measure.counts > measure.counts, "lex measure failed to increase"
        measure = new_measure

    final = verify(g, p, check_linked=True)
    assert final.valid and final.linked is not None
    assert final.linked.increment_ok and final.linked.cardinality_ok and final.linked.linked_ok
    return p
