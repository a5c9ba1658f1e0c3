"""Seeded inputs for the three workloads.

Everything here is the benchmark's own code on the standard library: the
program under test receives only the digraph text this module writes.  The
same (workload, seed) always gives byte-identical text, because every draw
comes from one `random.Random` seeded with a string (string seeds hash with
SHA-512, independent of PYTHONHASHSEED).

A digraph is a pair (n, edges) with edges a tuple of (tail, head) pairs;
repeated pairs are parallel edges.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from itertools import combinations

# Isomorphism classes of tournaments on 3, 4 and 5 vertices, one
# representative each.  Bit i of a code orients the i-th pair (u, v), u < v,
# in lexicographic order as u -> v when set and v -> u when clear.
# `test_checks.py` re-derives this table by brute force.
TOURNAMENT_CLASSES = {
    3: (0, 2),
    4: (0, 2, 4, 5),
    5: (0, 2, 4, 5, 8, 9, 10, 11, 12, 40, 41, 76),
}

# minor-pairs: (kind, pattern size k, host size n, queries).  "random" pairs
# are two seeded tournaments, mostly absent; checks.tournament_minor decides
# each by isomorphism tests, which needs n <= k + 2.  "derived" patterns are
# a tournament minor of their host, relabelled, so they are found by
# construction.  Pairs with two or more spare host vertices make find_minor
# search deep, and its cost then varies tenfold from pair to pair (absent
# 8-into-10 pairs took 0.5 s or 1.5 s on the VM of README.md), so a
# handful of them would set a round's time.  Those appear only as derived
# 6-into-8, 5-into-8 and 5-into-9 pairs; the absent side has one spare vertex
# at most.  Counts put the median query among the 8-into-8 absent and
# 8-into-9 derived pairs, and the tail among the 8-into-9 absent and 4-into-10
# derived pairs, away from a class boundary.
MINOR_PAIR_SLOTS = (
    ("random", 6, 7, 9), ("random", 7, 7, 9), ("random", 7, 8, 21),
    ("random", 8, 8, 36), ("random", 8, 9, 39),
    ("derived", 4, 8, 9), ("derived", 4, 10, 30), ("derived", 7, 8, 21),
    ("derived", 8, 9, 45), ("derived", 6, 8, 9), ("derived", 5, 8, 6),
    ("derived", 5, 9, 6),
)

# oracle-cross-check hosts besides the 18 tournament classes, which come
# first: (family, n, edges or 2-cycles, queries).  Fixed edge and 2-cycle
# counts keep the closure sizes, and so the work per seed, close together.
# On the VM of README.md the 30 seeded 4- and 5-vertex hosts took 30-60 ms
# each and hold the median; the 12 classes of 5-vertex tournaments took
# 100-250 ms and hold the tail.
ORACLE_HOST_SLOTS = (
    ("digraph", 5, 7, 15),
    ("semi_complete", 4, 3, 15),
    ("semi_complete", 5, 1, 2),
)
# candidates per host, by host size
ORACLE_CANDIDATES = {3: 12, 4: 24, 5: 40}

# decomp-linked: (n, 2-cycles, queries); tournaments and semi-complete
# digraphs alternate within each size.  The median falls among the n = 13
# inputs and the tail among the n = 14 ones.  Each digraph also comes with the
# decomposition of a seeded random introduction order, drawn from a second
# generator so that the digraphs do not depend on it.  exact_pathwidth's
# decompositions are nearly always linked already, so build_linked repairs
# nothing on them; about a quarter of the random-order ones are not, so
# those drive its repair loop.
DECOMP_SLOTS = (
    (12, 0, 4), (12, 6, 4), (13, 0, 8), (13, 6, 8),
    (14, 0, 6), (14, 7, 6), (15, 0, 2), (15, 7, 2),
)


def rng_for(workload: str, seed: int) -> random.Random:
    return random.Random(f"digraph-minors-benchmark/{workload}/{seed}")


def to_text(g) -> str:
    """The program's digraph file format: `n m`, then sorted `tail head` lines."""
    n, edges = g
    lines = [f"{n} {len(edges)}"]
    lines.extend(f"{t} {h}" for t, h in sorted(edges))
    return "\n".join(lines) + "\n"


def tournament_from_code(n: int, code: int):
    pairs = combinations(range(n), 2)
    return n, tuple((u, v) if code >> i & 1 else (v, u) for i, (u, v) in enumerate(pairs))


def random_tournament(n: int, rng: random.Random):
    return n, tuple((u, v) if rng.random() < 0.5 else (v, u)
                    for u, v in combinations(range(n), 2))


def random_semi_complete(n: int, two_cycles: int, rng: random.Random):
    """A random tournament with `two_cycles` of its pairs joined both ways."""
    pairs = list(combinations(range(n), 2))
    doubled = set(rng.sample(range(len(pairs)), two_cycles))
    edges = []
    for i, (u, v) in enumerate(pairs):
        if i in doubled:
            edges += [(u, v), (v, u)]
        else:
            edges.append((u, v) if rng.random() < 0.5 else (v, u))
    return n, tuple(edges)


def random_digraph(n: int, m: int, rng: random.Random):
    """A random simple loopless digraph with exactly m edges."""
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    return n, tuple(rng.sample(pairs, m))


def relabel(g, rng: random.Random):
    n, edges = g
    perm = list(range(n))
    rng.shuffle(perm)
    return n, tuple((perm[t], perm[h]) for t, h in edges)


def strongly_connected(vertices, edges) -> bool:
    """True iff `vertices` is non-empty and mutually reachable along `edges`
    that have both ends in it."""
    verts = set(vertices)
    if not verts:
        return False
    fwd = {v: [] for v in verts}
    bwd = {v: [] for v in verts}
    for t, h in edges:
        if t in verts and h in verts:
            fwd[t].append(h)
            bwd[h].append(t)
    start = min(verts)
    for adj in (fwd, bwd):
        seen = {start}
        todo = [start]
        while todo:
            for w in adj[todo.pop()]:
                if w not in seen:
                    seen.add(w)
                    todo.append(w)
        if len(seen) != len(verts):
            return False
    return True


def quotient(g, groups):
    """Contract each group (a list of vertices) to one vertex, numbered by its
    position in `groups`; vertices in no group are deleted.  Edges inside a
    group disappear, the others keep their multiplicity."""
    where = {v: i for i, grp in enumerate(groups) for v in grp}
    edges = tuple(
        (where[t], where[h]) for t, h in g[1]
        if t in where and h in where and where[t] != where[h]
    )
    return len(groups), edges


def derived_tournament_minor(host, k: int, rng: random.Random):
    """A tournament on k vertices that is a minor of the tournament `host`:
    with two or more vertices to lose, half the time a strongly connected set
    of 3 or more vertices is contracted; the other surplus vertices are
    deleted, then one edge of each pair is kept and the result relabelled."""
    n, edges = host
    surplus = n - k
    groups = [[v] for v in range(n)]
    if surplus >= 2 and rng.random() < 0.5:
        size = rng.randint(3, surplus + 1)
        for _ in range(200):
            chosen = rng.sample(range(n), size)
            if strongly_connected(chosen, edges):
                groups = [[v] for v in range(n) if v not in chosen] + [sorted(chosen)]
                surplus -= size - 1
                break
    singles = [i for i, grp in enumerate(groups) if len(grp) == 1]
    dropped = set(rng.sample(singles, surplus))
    groups = [grp for i, grp in enumerate(groups) if i not in dropped]
    rng.shuffle(groups)
    _, multi = quotient(host, groups)
    present = set(multi)
    kept = []
    for u, v in combinations(range(k), 2):
        options = [e for e in ((u, v), (v, u)) if e in present]
        kept.append(rng.choice(options))
    return relabel((k, tuple(kept)), rng)


def random_minor(g, max_n: int, rng: random.Random):
    """A minor of g with at most max_n (and at least one) vertices, by random
    edge deletions, vertex deletions and contractions of strongly connected
    sets, stopping at random once it is small enough."""
    n, edges = g
    while True:
        small = n <= max_n
        if small and rng.random() < 0.35:
            break
        moves = []
        if edges:
            moves.append("edge")
        if n > 1:
            moves += ["vertex", "contract"]
        if not moves:
            break
        move = rng.choice(moves)
        if move == "edge":
            i = rng.randrange(len(edges))
            edges = edges[:i] + edges[i + 1:]
        elif move == "vertex":
            v = rng.randrange(n)
            n, edges = quotient((n, edges), [[u] for u in range(n) if u != v])
        else:
            size = rng.randint(2, n)
            chosen = rng.sample(range(n), size)
            if strongly_connected(chosen, edges):
                rest = [[u] for u in range(n) if u not in chosen]
                n, edges = quotient((n, edges), rest + [sorted(chosen)])
    return relabel((n, edges), rng)


@dataclass(frozen=True)
class DecompInput:
    graph: str
    ordered: str  # decomposition/1 JSON of a random introduction order


@dataclass(frozen=True)
class MinorPair:
    kind: str  # "random" or "derived"
    pattern: str
    host: str


@dataclass(frozen=True)
class OracleHost:
    host: str
    candidates: tuple[str, ...]
    own: tuple[bool, ...]  # candidate i was drawn from this host's own closure


def minor_pairs(seed: int) -> list[MinorPair]:
    rng = rng_for("minor-pairs", seed)
    out = []
    for kind, k, n, count in MINOR_PAIR_SLOTS:
        for _ in range(count):
            host = random_tournament(n, rng)
            if kind == "random":
                pattern = random_tournament(k, rng)
            else:
                pattern = derived_tournament_minor(host, k, rng)
            out.append(MinorPair(kind, to_text(pattern), to_text(host)))
    return out


def oracle_hosts(seed: int) -> list[OracleHost]:
    rng = rng_for("oracle-cross-check", seed)
    hosts = []
    for n, codes in TOURNAMENT_CLASSES.items():
        hosts += [relabel(tournament_from_code(n, c), rng) for c in codes]
    for family, n, size, count in ORACLE_HOST_SLOTS:
        for _ in range(count):
            if family == "digraph":
                hosts.append(random_digraph(n, size, rng))
            else:
                hosts.append(random_semi_complete(n, size, rng))
    out = []
    for i, host in enumerate(hosts):
        candidates = []
        own = []
        for _ in range(ORACLE_CANDIDATES[host[0]]):
            # this host's closure a third of the time, else any host's
            j = i if rng.random() < 1 / 3 else rng.randrange(len(hosts))
            candidates.append(to_text(random_minor(hosts[j], host[0], rng)))
            own.append(j == i)
        out.append(OracleHost(to_text(host), tuple(candidates), tuple(own)))
    return out


def order_decomposition(g, order) -> list[tuple[int, ...]]:
    """The bags of an introduction order: introduce the vertices in `order`,
    forget each as soon as all its out-neighbours are in, and start and end
    with an empty bag.  Neighbouring bags differ in one vertex, and every
    edge u -> v has v introduced before u is forgotten, so the cut condition
    holds."""
    n, edges = g
    out = [set() for _ in range(n)]
    for t, h in edges:
        out[t].add(h)
    introduced = set()
    bag = set()
    bags = [()]
    for v in order:
        bag.add(v)
        introduced.add(v)
        bags.append(tuple(sorted(bag)))
        for u in sorted(bag, reverse=True):
            if out[u] <= introduced:
                bag.discard(u)
                bags.append(tuple(sorted(bag)))
    return bags


def decomp_inputs(seed: int) -> list[DecompInput]:
    rng = rng_for("decomp-linked", seed)
    order_rng = rng_for("decomp-linked/order", seed)
    out = []
    for n, two_cycles, count in DECOMP_SLOTS:
        for _ in range(count):
            g = random_semi_complete(n, two_cycles, rng)
            order = list(range(n))
            order_rng.shuffle(order)
            bags = order_decomposition(g, order)
            ordered = json.dumps({"schema": "decomposition/1", "bags": [list(b) for b in bags]})
            out.append(DecompInput(to_text(g), ordered))
    return out


GENERATORS = {
    "minor-pairs": minor_pairs,
    "oracle-cross-check": oracle_hosts,
    "decomp-linked": decomp_inputs,
}
