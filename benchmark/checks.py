"""Output checks computed apart from the program.

Each checker returns a list of problems; an empty list means the output
passed.  Nothing here imports the program: minor mappings, decompositions and
their linkedness are checked from their definitions, with this file's own
strong-connectivity test and max flow.
"""

from __future__ import annotations

import json
from itertools import combinations

from inputs import quotient, strongly_connected


def parse_text(text: str):
    """Read the `n m` / `tail head` digraph format into (n, edges)."""
    rows = [line.split() for line in text.splitlines() if line.strip()]
    n, m = map(int, rows[0])
    edges = tuple((int(t), int(h)) for t, h in rows[1:])
    if len(edges) != m:
        raise ValueError(f"header announced {m} edges, found {len(edges)}")
    return n, edges


# ---------------------------------------------------------------------------
# minor mappings


def check_mapping(pattern, host, mapping_json: str) -> list[str]:
    """Check a `minor-mapping/1` certificate of `pattern` in `host`: one
    non-empty strongly connected branch per pattern vertex, branches pairwise
    disjoint, and one distinct witness edge per pattern edge, running from the
    tail's branch to the head's branch and lying inside no branch."""
    k, p_edges = pattern
    n, h_edges = host
    data = json.loads(mapping_json)
    branches = data["branch_sets"]
    witnesses = data["witnesses"]
    problems = []
    if sorted(branches) != sorted(str(v) for v in range(k)):
        return [f"branch sets for {sorted(branches)}, expected {k} pattern vertices"]
    if sorted(witnesses) != sorted(str(i) for i in range(len(p_edges))):
        return [f"witnesses for {sorted(witnesses)}, expected {len(p_edges)} pattern edges"]
    verts = [frozenset(branches[str(v)]["vertices"]) for v in range(k)]
    inner = [frozenset(branches[str(v)]["edges"]) for v in range(k)]
    branch_edges = frozenset().union(*inner)
    for v in range(k):
        if not verts[v] or not verts[v] <= frozenset(range(n)):
            problems.append(f"branch {v} is empty or leaves the host")
            continue
        if any(not 0 <= i < len(h_edges) for i in inner[v]):
            problems.append(f"branch {v} names an edge outside the host")
            continue
        own = [h_edges[i] for i in inner[v]]
        if any(t not in verts[v] or h not in verts[v] for t, h in own):
            problems.append(f"branch {v} holds an edge with an end outside it")
        elif not strongly_connected(verts[v], own):
            problems.append(f"branch {v} is not strongly connected")
    for u, v in combinations(range(k), 2):
        if verts[u] & verts[v]:
            problems.append(f"branches {u} and {v} share vertices")
    chosen = [witnesses[str(i)] for i in range(len(p_edges))]
    if len(set(chosen)) != len(chosen):
        problems.append("two pattern edges share a witness")
    for i, (a, b) in enumerate(p_edges):
        w = chosen[i]
        if not 0 <= w < len(h_edges):
            problems.append(f"witness {w} of pattern edge {i} is not a host edge")
            continue
        t, h = h_edges[w]
        if t not in verts[a] or h not in verts[b]:
            problems.append(f"witness {w} of pattern edge {i} does not run from "
                            f"branch {a} to branch {b}")
        if w in branch_edges:
            problems.append(f"witness {w} of pattern edge {i} lies inside a branch")
    return problems


def _spanning_embedding(pattern, target) -> bool:
    """Is there a bijection of pattern onto target's vertices under which
    every pattern edge is a target edge?  Both have the same vertex count."""
    k, p_edges = pattern
    t_out = [0] * k
    for t, h in set(target[1]):
        t_out[t] |= 1 << h
    p_out = [0] * k
    p_in = [0] * k
    for t, h in p_edges:
        p_out[t] |= 1 << h
        p_in[h] |= 1 << t
    outdeg = [bin(x).count("1") for x in t_out]
    indeg = [sum(t_out[u] >> v & 1 for u in range(k)) for v in range(k)]
    order = sorted(range(k), key=lambda v: -bin(p_out[v] | p_in[v]).count("1"))
    image = [-1] * k

    def place(pos: int, used: int) -> bool:
        if pos == k:
            return True
        a = order[pos]
        need_out = bin(p_out[a]).count("1")
        need_in = bin(p_in[a]).count("1")
        for x in range(k):
            if used >> x & 1 or outdeg[x] < need_out or indeg[x] < need_in:
                continue
            if all(
                (not p_out[a] >> b & 1 or t_out[x] >> image[b] & 1)
                and (not p_in[a] >> b & 1 or t_out[image[b]] >> x & 1)
                for b in order[:pos]
            ):
                image[a] = x
                if place(pos + 1, used | 1 << x):
                    return True
        image[a] = -1
        return False

    return place(0, 0)


def tournament_minor(pattern, host) -> bool:
    """Minor containment of a tournament in a tournament with at most two
    more vertices, without a minor search.

    A tournament has no 2-cycle, so no branch set has two vertices; with at
    most two spare vertices the branch sets are singletons, or one directed
    triangle when there are exactly two spare.  So the pattern is a minor iff
    it is a spanning subdigraph, up to isomorphism, of the host minus the
    spare vertices or of the host with one directed triangle contracted.
    """
    k = pattern[0]
    n, edges = host
    spare = n - k
    if spare < 0:
        return False
    if spare > 2:
        raise ValueError("decided only for hosts with at most two spare vertices")
    reduced = []
    for gone in combinations(range(n), spare):
        reduced.append([[v] for v in range(n) if v not in gone])
    if spare == 2:
        for tri in combinations(range(n), 3):
            if strongly_connected(tri, edges):
                reduced.append([[v] for v in range(n) if v not in tri] + [list(tri)])
    return any(_spanning_embedding(pattern, quotient(host, groups)) for groups in reduced)


# ---------------------------------------------------------------------------
# path-decompositions


def check_decomposition(g, bags) -> list[str]:
    """Coverage, betweenness and the cut condition: every edge u -> v has
    bags W_i holding v and W_j holding u with i <= j."""
    n, edges = g
    problems = []
    if not bags:
        return ["no bags"]
    first = {}
    last = {}
    for i, bag in enumerate(bags):
        for v in bag:
            if not 0 <= v < n:
                return [f"bag {i} holds vertex {v} outside the digraph"]
            first.setdefault(v, i)
            last[v] = i
    missing = sorted(set(range(n)) - set(first))
    if missing:
        problems.append(f"vertices {missing} are in no bag")
    for v in first:
        gap = [i for i in range(first[v], last[v] + 1) if v not in bags[i]]
        if gap:
            problems.append(f"vertex {v} leaves bag {gap[0]} between two bags holding it")
    for t, h in edges:
        if t in first and h in first and first[h] > last[t]:
            problems.append(f"edge {t}->{h} breaks the cut condition")
    return problems


def disjoint_paths_at_least(out_adj, sources, sinks, want: int) -> bool:
    """Are there `want` vertex-disjoint directed paths from `sources` to
    `sinks` (a vertex in both counts as a path of its own)?

    Augmenting paths on the vertex-split network: node 2v is v's entry, 2v+1
    its exit.  The flow starts with the one-vertex paths of sources ∩ sinks,
    which any augmentation may reroute, so the result is exact.
    """
    n = len(out_adj)
    src, snk = 2 * n, 2 * n + 1
    cap = {}
    adj = [[] for _ in range(2 * n + 2)]

    def arc(u, v):
        cap[(u, v)] = 1
        cap.setdefault((v, u), 0)
        adj[u].append(v)
        adj[v].append(u)

    for v in range(n):
        arc(2 * v, 2 * v + 1)
        for w in out_adj[v]:
            arc(2 * v + 1, 2 * w)
    for a in sources:
        arc(src, 2 * a)
    for b in sinks:
        arc(2 * b + 1, snk)
    flow = 0
    for v in set(sources) & set(sinks):
        for u, w in ((src, 2 * v), (2 * v, 2 * v + 1), (2 * v + 1, snk)):
            cap[(u, w)] -= 1
            cap[(w, u)] += 1
        flow += 1
    while flow < want:
        parent = {src: None}
        todo = [src]
        while todo and snk not in parent:
            nxt = []
            for u in todo:
                for w in adj[u]:
                    if w not in parent and cap[(u, w)] > 0:
                        parent[w] = u
                        nxt.append(w)
            todo = nxt
        if snk not in parent:
            return False
        w = snk
        while parent[w] is not None:
            u = parent[w]
            cap[(u, w)] -= 1
            cap[(w, u)] += 1
            w = u
        flow += 1
    return True


def check_linked(g, bags, first_bag=(), last_bag=()) -> list[str]:
    """The linked conditions on a decomposition: the requested end bags,
    one vertex of change between neighbouring bags, end bags of minimum
    size, and for every window [h, j] whose smallest bag has t vertices,
    t vertex-disjoint paths from W_h to W_j."""
    n, edges = g
    problems = []
    if set(bags[0]) != set(first_bag) or set(bags[-1]) != set(last_bag):
        problems.append("end bags differ from the requested ones")
    for i in range(len(bags) - 1):
        if len(set(bags[i]) ^ set(bags[i + 1])) != 1:
            problems.append(f"bags {i} and {i + 1} differ in other than one vertex")
            break
    smallest = min(len(b) for b in bags)
    if not len(bags[0]) == smallest == len(bags[-1]):
        problems.append("an end bag is larger than the smallest bag")
    out_adj = [set() for _ in range(n)]
    for t, h in edges:
        if t != h:
            out_adj[t].add(h)
    for h in range(len(bags)):
        t = len(bags[h])
        for j in range(h + 1, len(bags)):
            t = min(t, len(bags[j]))
            if t == 0:
                break
            if not disjoint_paths_at_least(out_adj, bags[h], bags[j], t):
                problems.append(f"window [{h}, {j}] has fewer than {t} disjoint paths")
                return problems
    return problems
