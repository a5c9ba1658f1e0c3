"""Labeled digraphs with linked decompositions and rooted path systems.

A (Q, m, k)-digraph bundles a semi-complete digraph, a linked
path-decomposition with minimum bag size m and maximum at most k, a system of
m vertex-disjoint induced directed paths from the first bag to the last, and
a vertex labelling from a finite quasi-order Q.  This module implements the
split at an interior minimum bag, the factorization into links, the lift of a
non-decomposable instance to (m+1, k), the peel of a non-contractible
instance to (m-1, k-1) over an extended label order, the gluing of mappings
across a split, and the subsequence orders used to compare link sequences.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property

from .core import (
    Digraph,
    Subdigraph,
    induced_strongly_connected,
    induced_subdigraph,
    is_induced_path,
    is_semi_complete,
    is_strongly_connected,
    parse_digraph,
)
from .connectivity import minimal_union_paths
from .pathdecomp import PathDecomposition, build_linked, verify
from .minor import MinorMapping, assign_witnesses, verify_mapping


@dataclass(frozen=True)
class QuasiOrder:
    """Finite extensional quasi-order: elements plus the full <= relation."""

    elements: frozenset
    pairs: frozenset

    def __post_init__(self):
        object.__setattr__(self, "elements", frozenset(self.elements))
        object.__setattr__(self, "pairs", frozenset(tuple(p) for p in self.pairs))
        below: dict = {}
        for a, b in self.pairs:
            if a not in self.elements or b not in self.elements:
                raise ValueError("relation mentions unknown elements")
            below.setdefault(a, set()).add(b)
        for e in self.elements:
            if (e, e) not in self.pairs:
                raise ValueError(f"relation is not reflexive at {e!r}")
        for a, b in self.pairs:
            for c in below.get(b, ()):
                if (a, c) not in self.pairs:
                    raise ValueError(f"relation is not transitive through {(a, b, c)!r}")

    def leq(self, a, b) -> bool:
        return (a, b) in self.pairs


def trivial_order() -> QuasiOrder:
    return QuasiOrder(frozenset({0}), frozenset({(0, 0)}))


def chain_order(tokens) -> QuasiOrder:
    """Total order: tokens[i] <= tokens[j] for i <= j."""
    toks = list(tokens)
    pairs = {(toks[i], toks[j]) for i in range(len(toks)) for j in range(i, len(toks))}
    return QuasiOrder(frozenset(toks), frozenset(pairs))


def flag_extension(q: QuasiOrder) -> QuasiOrder:
    """Order on E(Q) x {0,1,2} x {0,1,2}: (t,x,y) <= (t',x',y') iff t <= t'
    and the flags agree.  Used to retain the edge pattern around a removed
    vertex pair."""
    elements = frozenset(
        (t, x, y) for t in q.elements for x in range(3) for y in range(3)
    )
    pairs = frozenset(
        ((a, x, y), (b, x, y))
        for a, b in q.pairs
        for x in range(3)
        for y in range(3)
    )
    return QuasiOrder(elements, pairs)


@dataclass(frozen=True)
class QmkDigraph:
    g: Digraph
    p: PathDecomposition
    r_paths: tuple[tuple[int, ...], ...]
    labels: tuple
    q: QuasiOrder
    m: int
    k: int

    @cached_property
    def source_roots(self) -> tuple[int, ...]:
        first = self.p.first
        return tuple(next(v for v in path if v in first) for path in self.r_paths)

    @cached_property
    def terminal_roots(self) -> tuple[int, ...]:
        last = self.p.last
        return tuple(next(v for v in path if v in last) for path in self.r_paths)

    def to_json(self) -> str:
        return json.dumps(
            {
                "schema": "qmk-digraph/1",
                "digraph": self.g.to_text(),
                "decomposition": {"bags": [sorted(b) for b in self.p.bags]},
                "paths": [list(p) for p in self.r_paths],
                "labels": [_token_to_json(t) for t in self.labels],
                "order": {
                    "elements": sorted(map(_token_to_json, self.q.elements)),
                    "pairs": sorted(
                        [_token_to_json(a), _token_to_json(b)] for a, b in self.q.pairs
                    ),
                },
                "m": self.m,
                "k": self.k,
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "QmkDigraph":
        data = json.loads(text)
        q = QuasiOrder(
            frozenset(_token_from_json(e) for e in data["order"]["elements"]),
            frozenset(
                (_token_from_json(a), _token_from_json(b))
                for a, b in data["order"]["pairs"]
            ),
        )
        d, _ = make_qmk(
            parse_digraph(data["digraph"]),
            PathDecomposition(tuple(frozenset(b) for b in data["decomposition"]["bags"])),
            tuple(tuple(p) for p in data["paths"]),
            tuple(_token_from_json(t) for t in data["labels"]),
            q,
            data["k"],
        )
        return d


def _token_to_json(token):
    if isinstance(token, tuple):
        return [_token_to_json(t) for t in token]
    return token


def _token_from_json(value):
    if isinstance(value, list):
        return tuple(_token_from_json(v) for v in value)
    return value


@dataclass(frozen=True)
class DClass:
    trivial: bool
    contractible: bool
    decomposable: bool
    non_decomposable_member: bool
    non_contractible_member: bool
    link: bool


def _validate_qmk(d: QmkDigraph) -> None:
    g, p = d.g, d.p
    if not is_semi_complete(g):
        raise ValueError("digraph is not semi-complete")
    if len(d.labels) != g.vertex_count:
        raise ValueError("labelling does not cover every vertex")
    for t in d.labels:
        if t not in d.q.elements:
            raise ValueError(f"label {t!r} outside the quasi-order")
    report = verify(g, p, check_linked=True)
    if not report.valid:
        raise ValueError("decomposition is invalid")
    flags = report.linked
    if not (flags.increment_ok and flags.cardinality_ok and flags.linked_ok):
        raise ValueError("decomposition is not linked")
    if d.m != len(d.r_paths):
        raise ValueError("m must equal the number of rooted paths")
    if p.min_bag != d.m:
        raise ValueError(f"minimum bag size {p.min_bag} does not match m={d.m}")
    if p.max_bag > d.k:
        raise ValueError(f"maximum bag size {p.max_bag} exceeds k={d.k}")
    if d.k < d.m:
        raise ValueError("k must be at least m")
    seen: set[int] = set()
    first, last = p.first, p.last
    for path in d.r_paths:
        if not path:
            raise ValueError("empty rooted path")
        if seen & set(path):
            raise ValueError("rooted paths are not vertex-disjoint")
        seen.update(path)
        if not is_induced_path(g, path):
            raise ValueError(f"rooted path {path} is not an induced directed path")
        if path[0] not in first or path[-1] not in last:
            raise ValueError(f"rooted path {path} does not run first bag -> last bag")
        if len(first & set(path)) != 1 or len(last & set(path)) != 1:
            raise ValueError(f"rooted path {path} meets an end bag more than once")


def classify_qmk(d: QmkDigraph, link_check: bool = True) -> DClass:
    bags = d.p.bags
    r = len(bags)
    trivial = r == 1
    decomposable = any(len(bags[s]) == d.m for s in range(1, r - 1))
    contractible = all(
        induced_strongly_connected(d.g, set(path)) for path in d.r_paths
    )
    nd = (not trivial) and (not decomposable)
    nc = not contractible
    link = False
    if link_check and contractible and not trivial:
        if nd:
            link = True
        else:
            for s in range(1, r - 1):
                if len(bags[s]) != d.m:
                    continue
                head = restrict_window(d, 0, s, validate=False)
                tail = restrict_window(d, s, r - 1, validate=False)
                head_cls = classify_qmk(head, link_check=False)
                tail_cls = classify_qmk(tail, link_check=False)
                if head_cls.non_contractible_member and tail_cls.non_decomposable_member:
                    link = True
                    break
    return DClass(
        trivial=trivial,
        contractible=contractible,
        decomposable=decomposable,
        non_decomposable_member=nd,
        non_contractible_member=nc,
        link=link,
    )


def make_qmk(
    g: Digraph,
    p: PathDecomposition,
    r_paths,
    labels,
    q: QuasiOrder,
    k: int | None = None,
) -> tuple[QmkDigraph, DClass]:
    """Validate every invariant and classify.  k defaults to the maximum bag."""
    r_paths = tuple(tuple(path) for path in r_paths)
    if k is None:
        k = p.max_bag
    d = QmkDigraph(g, p, r_paths, tuple(labels), q, len(r_paths), k)
    _validate_qmk(d)
    return d, classify_qmk(d)


def window_vertices(d: QmkDigraph, lo: int, hi: int) -> tuple[int, ...]:
    """Host vertices covered by bags lo..hi, ascending: the renumbering used
    by restrict_window (new id i = old id window_vertices[i])."""
    return tuple(sorted(frozenset().union(*d.p.bags[lo : hi + 1])))


def restrict_window(d: QmkDigraph, lo: int, hi: int, validate: bool = True) -> QmkDigraph:
    """The (Q, m, k)-digraph induced by bags lo..hi (0-based, inclusive).

    Interior endpoints must be minimum-size bags.  Vertices are renumbered by
    ascending original id.
    """
    r = d.p.r
    if not (0 <= lo <= hi <= r - 1):
        raise ValueError("window out of range")
    if lo > 0 and len(d.p.bags[lo]) != d.m:
        raise ValueError(f"bag {lo} has size {len(d.p.bags[lo])}, expected {d.m}")
    if hi < r - 1 and len(d.p.bags[hi]) != d.m:
        raise ValueError(f"bag {hi} has size {len(d.p.bags[hi])}, expected {d.m}")
    order = window_vertices(d, lo, hi)
    remap = {v: i for i, v in enumerate(order)}
    keep = frozenset(order)
    sub_g, _, _ = induced_subdigraph(d.g, order)
    bags = tuple(
        frozenset(remap[v] for v in bag) for bag in d.p.bags[lo : hi + 1]
    )
    paths = []
    for path in d.r_paths:
        positions = [i for i, v in enumerate(path) if v in keep]
        if positions != list(range(positions[0], positions[-1] + 1)):
            raise RuntimeError("rooted path does not meet the window contiguously")
        paths.append(tuple(remap[path[i]] for i in positions))
    labels = tuple(d.labels[v] for v in order)
    out = QmkDigraph(sub_g, PathDecomposition(bags), tuple(paths), labels, d.q, d.m, d.k)
    if validate:
        _validate_qmk(out)
    return out


def split_at(d: QmkDigraph, s: int) -> tuple[QmkDigraph, QmkDigraph]:
    """Split at an interior bag of size m (0-based index s)."""
    r = d.p.r
    if not 0 < s < r - 1:
        raise ValueError("split index must be interior")
    if len(d.p.bags[s]) != d.m:
        raise ValueError(f"bag {s} has size {len(d.p.bags[s])}, expected {d.m}")
    return restrict_window(d, 0, s), restrict_window(d, s, r - 1)


def _window_contractible(d: QmkDigraph, lo: int, hi: int) -> bool:
    keep = frozenset().union(*d.p.bags[lo : hi + 1])
    for path in d.r_paths:
        seg = [v for v in path if v in keep]
        if not induced_strongly_connected(d.g, seg):
            return False
    return True


def decompose_windows(d: QmkDigraph) -> list[tuple[int, int]]:
    """Bag windows of the link factorization, in d's own bag indices."""
    cls = classify_qmk(d, link_check=False)
    if cls.trivial:
        raise ValueError("cannot decompose a trivial instance")
    r = d.p.r
    windows: list[tuple[int, int]] = []
    cur = 0
    while True:
        if not _window_contractible(d, cur, r - 1):
            windows.append((cur, r - 1))
            return windows
        cuts = [i for i in range(cur + 1, r) if len(d.p.bags[i]) == d.m]
        nj = next(i for i in cuts if _window_contractible(d, cur, i))
        windows.append((cur, nj))
        if nj == r - 1:
            return windows
        cur = nj


def decompose_links(d: QmkDigraph) -> list[QmkDigraph]:
    """Factor a non-trivial instance as D_1 (+) ... (+) D_t where D_1..D_{t-1}
    are links and D_t is a link or non-contractible."""
    return [
        restrict_window(d, lo, hi) for lo, hi in decompose_windows(d)
    ]


def lift_nondecomposable(d: QmkDigraph) -> QmkDigraph:
    """Strip the two outer bags of a non-decomposable instance: the interior
    is a linked decomposition with minimum bag m+1, re-rooted along a fresh
    system of m+1 disjoint induced paths.  Root indices may permute."""
    cls = classify_qmk(d, link_check=False)
    if not cls.non_decomposable_member:
        raise ValueError("lift requires a non-decomposable instance")
    if d.k <= d.m:
        raise ValueError("lift needs k > m")
    bags = d.p.bags[1:-1]
    p2 = PathDecomposition(bags)
    paths = minimal_union_paths(d.g, bags[0], bags[-1], d.m + 1)
    out = QmkDigraph(d.g, p2, paths.paths, d.labels, d.q, d.m + 1, d.k)
    _validate_qmk(out)
    return out


def noncontractible_pair(d: QmkDigraph) -> tuple[int, int, int]:
    """(index j, source root u, terminal root v) of the first rooted path
    whose vertex set does not induce a strongly-connected subdigraph."""
    for j, path in enumerate(d.r_paths):
        if not induced_strongly_connected(d.g, set(path)):
            if len(path) != 2:
                raise RuntimeError("non-strongly-connected rooted path is not one edge")
            return j, path[0], path[1]
    raise ValueError("every rooted path is strongly connected")


def peel_noncontractible(d: QmkDigraph) -> QmkDigraph:
    """Remove the one-edge rooted path u -> v of a non-contractible instance.

    The remaining digraph keeps a linked decomposition with parameters
    (m-1, k-1); the deleted pair survives in the labels, which gain two flags
    recording the edge pattern each vertex had towards u and towards v.
    """
    j, u, v = noncontractible_pair(d)
    assert all(u in bag or v in bag for bag in d.p.bags)
    assert not d.g.has_edge(v, u)
    order = [w for w in range(d.g.vertex_count) if w not in (u, v)]
    remap = {w: i for i, w in enumerate(order)}
    g2, _, _ = induced_subdigraph(d.g, order)
    stripped = PathDecomposition(
        tuple(frozenset(remap[w] for w in bag if w not in (u, v)) for bag in d.p.bags)
    )
    f2 = frozenset(remap[w] for w in d.p.first if w != u)
    l2 = frozenset(remap[w] for w in d.p.last if w != v)
    p2 = build_linked(g2, stripped, f2, l2)
    paths = tuple(
        tuple(remap[w] for w in path) for i, path in enumerate(d.r_paths) if i != j
    )

    def flag(w: int, anchor: int) -> int:
        to_anchor = d.g.has_edge(w, anchor)
        from_anchor = d.g.has_edge(anchor, w)
        if to_anchor and not from_anchor:
            return 0
        if from_anchor and not to_anchor:
            return 1
        if to_anchor and from_anchor:
            return 2
        raise AssertionError("semi-complete digraph lost an adjacency")

    labels = tuple((d.labels[w], flag(w, u), flag(w, v)) for w in order)
    out = QmkDigraph(g2, p2, paths, labels, flag_extension(d.q), d.m - 1, d.k - 1)
    _validate_qmk(out)
    return out


@dataclass(frozen=True)
class LabeledMappingReport:
    ok: bool
    failures: tuple[str, ...]


def verify_labeled_minor(
    d1: QmkDigraph, d2: QmkDigraph, mapping: MinorMapping
) -> LabeledMappingReport:
    """Minor-mapping validity plus the root and label clauses."""
    if (d1.m, d1.k) != (d2.m, d2.k):
        raise ValueError("parameter mismatch: (m, k) differ")
    if d1.q != d2.q:
        raise ValueError("parameter mismatch: quasi-orders differ")
    base = verify_mapping(d1.g, d2.g, mapping)
    failures = list(base.failures)
    if base.ok:
        for i in range(d1.m):
            if d2.source_roots[i] not in mapping.branch(d1.source_roots[i]).vertices:
                failures.append(f"source root {i} not carried by its branch set")
            if d2.terminal_roots[i] not in mapping.branch(d1.terminal_roots[i]).vertices:
                failures.append(f"terminal root {i} not carried by its branch set")
        for w in range(d1.g.vertex_count):
            if not any(
                d1.q.leq(d1.labels[w], d2.labels[x])
                for x in mapping.branch(w).vertices
            ):
                failures.append(f"label of vertex {w} dominated nowhere in its branch set")
    return LabeledMappingReport(not failures, tuple(failures))


def glue_mappings(
    d_pattern: QmkDigraph,
    s_pattern: int,
    d_host: QmkDigraph,
    s_host: int,
    m_a: MinorMapping,
    m_b: MinorMapping,
) -> MinorMapping:
    """Glue mappings across matching splits: m_a maps the head of
    split_at(d_pattern, s_pattern) into the head of split_at(d_host, s_host),
    m_b the tails.  Branch sets of overlap vertices are unioned; witnesses
    are reassigned per ordered branch pair, which always succeeds for valid
    root-respecting inputs."""
    pat_a, pat_b = split_at(d_pattern, s_pattern)
    host_a, host_b = split_at(d_host, s_host)
    ra = verify_labeled_minor(pat_a, host_a, m_a)
    if not ra.ok:
        raise ValueError(f"head mapping invalid: {ra.failures}")
    rb = verify_labeled_minor(pat_b, host_b, m_b)
    if not rb.ok:
        raise ValueError(f"tail mapping invalid: {rb.failures}")

    pat_averts = window_vertices(d_pattern, 0, s_pattern)
    pat_bverts = window_vertices(d_pattern, s_pattern, d_pattern.p.r - 1)
    host_averts = window_vertices(d_host, 0, s_host)
    host_bverts = window_vertices(d_host, s_host, d_host.p.r - 1)
    _, _, host_a_edges = induced_subdigraph(d_host.g, host_averts)
    _, _, host_b_edges = induced_subdigraph(d_host.g, host_bverts)

    def lifted(mapping, pat_verts, host_verts, host_edge_ids):
        out = {}
        for local_v, sub in enumerate(mapping.assignment):
            out[pat_verts[local_v]] = (
                frozenset(host_verts[x] for x in sub.vertices),
                frozenset(host_edge_ids[e] for e in sub.edge_indices),
            )
        return out

    phi_a = lifted(m_a, pat_averts, host_averts, host_a_edges)
    phi_b = lifted(m_b, pat_bverts, host_bverts, host_b_edges)

    branch_sets = []
    for w in range(d_pattern.g.vertex_count):
        in_a = w in phi_a
        in_b = w in phi_b
        if in_a and in_b:
            verts = phi_a[w][0] | phi_b[w][0]
            edges = phi_a[w][1] | phi_b[w][1]
            sub = Subdigraph(d_host.g, verts, edges)
            if not is_strongly_connected(d_host.g, sub):
                raise RuntimeError(f"union branch set of overlap vertex {w} not strongly connected")
            branch_sets.append(sub)
        elif in_a:
            branch_sets.append(Subdigraph(d_host.g, *phi_a[w]))
        elif in_b:
            branch_sets.append(Subdigraph(d_host.g, *phi_b[w]))
        else:
            raise RuntimeError(f"pattern vertex {w} missing from both halves")

    glued = MinorMapping(tuple(branch_sets), assign_witnesses(d_pattern.g, d_host.g, branch_sets))
    report = verify_labeled_minor(d_pattern, d_host, glued)
    if not report.ok:
        raise RuntimeError(f"glued mapping failed verification: {report.failures}")
    return glued


# ---------------------------------------------------------------------------
# subsequence orders


def higman_leq(p, q, base: QuasiOrder, pinned: bool = False) -> bool:
    """Subsequence embedding of p into q under `base`.

    Unpinned: some strictly increasing index map alpha with
    p[i] <= q[alpha(i)]; greedy leftmost matching decides this.  Pinned:
    additionally alpha must send the first position to the first and the last
    to the last (both sequences need length >= 2).
    """
    p = list(p)
    q = list(q)
    if pinned:
        if len(p) < 2 or len(q) < 2:
            raise ValueError("pinned comparison needs sequences of length >= 2")
        if len(p) > len(q):
            return False
        return (
            base.leq(p[0], q[0])
            and base.leq(p[-1], q[-1])
            and higman_leq(p[1:-1], q[1:-1], base)
        )
    if len(p) > len(q):
        return False
    pos = 0
    for token in p:
        while pos < len(q) and not base.leq(token, q[pos]):
            pos += 1
        if pos == len(q):
            return False
        pos += 1
    return True
