import itertools
import random

import pytest

from digraph_minors.core import (
    Digraph,
    gen_cycle,
    gen_family,
    gen_random_tournament,
    gen_transitive,
    is_induced_path,
)
from digraph_minors import connectivity
from digraph_minors.connectivity import (
    KTriple,
    PathSystem,
    Separation,
    find_k_triple,
    is_k_triple,
    is_separation,
    local_connectivity,
    max_disjoint_paths,
    min_separation,
    minimal_union_paths,
    pairwise_k_connected_set,
    separates,
)
from test_pathdecomp import random_semi_complete


def brute_force_min_cut(g, a, b):
    """Smallest vertex set X such that no a -> b path survives in g - X
    (paths of length zero included)."""
    n = g.vertex_count
    best = None
    for r in range(n + 1):
        for x in itertools.combinations(range(n), r):
            xs = set(x)
            live_a = a - xs
            live_b = b - xs
            seen = set(live_a)
            todo = list(live_a)
            while todo:
                v = todo.pop()
                for w in range(n):
                    if g.out_mask[v] >> w & 1 and w not in xs and w not in seen:
                        seen.add(w)
                        todo.append(w)
            if not (seen & live_b):
                return r
        if best is not None:
            break
    return n


def brute_force_internal_connectivity(g, u, v):
    """Maximum set of pairwise internally disjoint u -> v paths by explicit
    enumeration (edges distinguished by index for parallel edges)."""

    def simple_paths():
        out_by_tail = {}
        for i, (t, h) in enumerate(g.edges):
            out_by_tail.setdefault(t, []).append((i, h))
        stack = [((u,), (), frozenset({u}))]
        found = []
        while stack:
            verts, eidx, used = stack.pop()
            tail = verts[-1]
            for i, h in out_by_tail.get(tail, ()):
                if h == v:
                    found.append((verts + (v,), eidx + (i,)))
                elif h not in used and h != u:
                    stack.append((verts + (h,), eidx + (i,), used | {h}))
        return found

    paths = simple_paths()

    best = 0

    def extend(chosen, start):
        nonlocal best
        best = max(best, len(chosen))
        for i in range(start, len(paths)):
            verts, eidx = paths[i]
            interior = set(verts[1:-1])
            ok = True
            for cverts, ceidx in chosen:
                if interior & set(cverts[1:-1]):
                    ok = False
                    break
                if set(eidx) & set(ceidx):
                    ok = False
                    break
                if len(verts) == 2 and len(cverts) == 2 and eidx == ceidx:
                    ok = False
                    break
            if ok:
                extend(chosen + [(verts, eidx)], i + 1)

    extend([], 0)
    return best


class TestMaxDisjointPaths:
    def test_zero_length_path(self):
        g = gen_cycle(3)
        ps = max_disjoint_paths(g, {1}, {1})
        assert ps.paths == ((1,),)

    def test_transitive_t4_two_paths(self):
        ps = max_disjoint_paths(gen_transitive(4), {0, 1}, {2, 3})
        assert len(ps) == 2

    def test_second_augmentation_cancels_an_edge(self):
        # the first augmenting path is 0 -> 3 -> 5; the second enters 3 from 1
        # and pushes 0 back onto 0 -> 2 -> 6 -> 4, cancelling the edge 0 -> 3
        g = Digraph(7, ((0, 3), (3, 5), (0, 2), (2, 6), (6, 4), (1, 3)))
        assert max_disjoint_paths(g, {0, 1}, {4, 5}).paths == ((0, 2, 6, 4), (1, 3, 5))
        assert min_separation(g, {0, 1}, {4, 5}).order == 2

    def test_empty_sides(self):
        g = gen_cycle(3)
        assert max_disjoint_paths(g, set(), {0}).paths == ()
        assert max_disjoint_paths(g, {0}, set()).paths == ()

    def test_paths_are_valid_and_disjoint(self):
        rng = random.Random(7)
        for _ in range(40):
            n = rng.randrange(1, 8)
            g = gen_family("random_digraph", n, seed=rng.randrange(10**9))
            a = frozenset(v for v in range(n) if rng.random() < 0.4)
            b = frozenset(v for v in range(n) if rng.random() < 0.4)
            ps = max_disjoint_paths(g, a, b)
            seen = set()
            for path in ps.paths:
                assert path[0] in a and path[-1] in b
                assert not (set(path) & seen)
                seen.update(path)
                for x, y in zip(path, path[1:]):
                    assert g.has_edge(x, y)

    def test_menger_duality_brute_force(self):
        rng = random.Random(99)
        for trial in range(60):
            n = rng.randrange(1, 7)
            if trial % 5 == 0 and n >= 3:
                g = gen_family("super_tournament", n)  # parallel edges
            else:
                g = gen_family("random_digraph", n, seed=rng.randrange(10**9))
            a = frozenset(v for v in range(n) if rng.random() < 0.5)
            b = frozenset(v for v in range(n) if rng.random() < 0.5)
            flow = len(max_disjoint_paths(g, a, b))
            sep = min_separation(g, a, b)
            if not a or not b:
                assert flow == 0 and sep.order == 0
                continue
            cut = brute_force_min_cut(g, a, b)
            assert flow == cut
            assert sep.order == cut
            assert is_separation(g, sep)
            assert separates(sep, a, b)


def test_flow_matches_networkx_vertex_connectivity():
    """Against networkx on a super-source over a and a super-sink under b:
    its local node connectivity is the number of disjoint a -> b paths."""
    nx = pytest.importorskip("networkx")
    from networkx.algorithms.connectivity import local_node_connectivity

    rng = random.Random(2024)
    for _ in range(300):
        n = rng.randrange(1, 10)
        edges = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randrange(3 * n))]
        g = Digraph(n, tuple(edges))
        a = {v for v in range(n) if rng.random() < 0.4}
        b = {v for v in range(n) if rng.random() < 0.4}
        h = nx.DiGraph()
        h.add_nodes_from(["s", "t", *range(n)])
        h.add_edges_from((t, x) for t, x in edges if t != x)
        h.add_edges_from(("s", x) for x in a)
        h.add_edges_from((x, "t") for x in b)
        expected = local_node_connectivity(h, "s", "t")
        assert len(max_disjoint_paths(g, a, b)) == expected
        assert min_separation(g, a, b).order == expected


class TestMinSeparation:
    def test_empty_sides(self):
        g = gen_cycle(3)
        everything = frozenset(range(3))
        assert min_separation(g, set(), {0}) == Separation(frozenset(), everything, 0)
        assert min_separation(g, {0}, set()) == Separation(everything, frozenset(), 0)

    def test_no_path_zero_order(self):
        g = Digraph(4, ((2, 3),))
        sep = min_separation(g, {0}, {1})
        assert sep.order == 0
        assert is_separation(g, sep) and separates(sep, {0}, {1})

    def test_cycle_singletons(self):
        sep = min_separation(gen_cycle(3), {0}, {2})
        assert sep.order == 1

    def test_shared_vertex_in_cut(self):
        g = Digraph(3, ((0, 1), (1, 2)))
        sep = min_separation(g, {0, 1}, {1, 2})
        assert 1 in (sep.c & sep.d)
        assert sep.order == 1


def restart_loop_union_paths(g, a, b, paths):
    """The trim and chord splice of `minimal_union_paths` on the given flow
    paths, with the splice as a loop that restarts from the first vertex
    after every splice: the reference for its single forward pass."""
    out = []
    for path in paths:
        path = list(path)
        last_a = max(i for i, v in enumerate(path) if v in a)
        path = path[last_a:]
        first_b = min(i for i, v in enumerate(path) if v in b)
        path = path[: first_b + 1]
        changed = True
        while changed:
            changed = False
            for i in range(len(path)):
                for j in range(len(path) - 1, i + 1, -1):
                    if g.has_edge(path[i], path[j]):
                        path = path[: i + 1] + path[j:]
                        changed = True
                        break
                if changed:
                    break
        out.append(tuple(path))
    return tuple(out)


def random_walks(g, rng):
    """Disjoint directed paths, each grown from a random start by random
    steps to unused out-neighbours, so long paths with many chords."""
    free = set(range(g.vertex_count))
    walks = []
    while free and len(walks) < 3:
        walk = [rng.choice(sorted(free))]
        free.discard(walk[-1])
        while steps := [v for v in sorted(free) if g.has_edge(walk[-1], v)]:
            walk.append(rng.choice(steps))
            free.discard(walk[-1])
        walks.append(tuple(walk))
    return walks


class TestMinimalUnionPaths:
    def test_single_pass_matches_restart_loop(self):
        rng = random.Random(16)
        queries = 0
        for _ in range(400):
            n = rng.randrange(1, 13)
            g = random_semi_complete(n, rng)
            a = frozenset(rng.sample(range(n), rng.randrange(1, n + 1)))
            b = frozenset(rng.sample(range(n), rng.randrange(1, n + 1)))
            system = max_disjoint_paths(g, a, b)
            for s in range(1, len(system) + 1):
                assert minimal_union_paths(g, a, b, s).paths == \
                    restart_loop_union_paths(g, a, b, system.paths[:s]), (g, a, b, s)
                queries += 1
        assert queries > 1000

    def test_single_pass_matches_restart_loop_on_chorded_paths(self, monkeypatch):
        """Flow paths seldom have chords, so here the flow is replaced by
        random walks from a vertex of a to a vertex of b."""
        rng = random.Random(17)
        spliced = 0
        for _ in range(400):
            n = rng.randrange(1, 13)
            g = random_semi_complete(n, rng)
            walks = random_walks(g, rng)
            a = frozenset(w[0] for w in walks) | {rng.randrange(n)}
            b = frozenset(w[-1] for w in walks)
            system = PathSystem(tuple(walks))
            monkeypatch.setattr(connectivity, "max_disjoint_paths", lambda *_: system)
            for s in range(1, len(walks) + 1):
                got = minimal_union_paths(g, a, b, s).paths
                assert got == restart_loop_union_paths(g, a, b, walks[:s]), (g, walks, s)
                spliced += any(p != w[w.index(p[0]):w.index(p[0]) + len(p)]
                               for p, w in zip(got, walks))
        assert spliced > 200

    def test_empty_request(self):
        assert minimal_union_paths(gen_transitive(3), {0}, {2}, 0).paths == ()

    def test_chord_forces_shortcut(self):
        ps = minimal_union_paths(gen_transitive(3), {0}, {2}, 1)
        assert ps.paths == ((0, 2),)

    def test_requires_semi_complete(self):
        with pytest.raises(ValueError):
            minimal_union_paths(Digraph(3, ((0, 1),)), {0}, {1}, 1)

    def test_too_many_requested(self):
        with pytest.raises(ValueError):
            minimal_union_paths(gen_transitive(3), {0}, {2}, 2)

    def test_structural_minimality(self):
        rng = random.Random(5)
        for _ in range(30):
            n = rng.randrange(2, 9)
            g = gen_random_tournament(n, seed=rng.randrange(10**9))
            a = frozenset(rng.sample(range(n), rng.randrange(1, n)))
            b = frozenset(rng.sample(range(n), rng.randrange(1, n)))
            s = len(max_disjoint_paths(g, a, b))
            if s == 0:
                continue
            ps = minimal_union_paths(g, a, b, s)
            assert len(ps) == s
            seen = set()
            for path in ps.paths:
                assert is_induced_path(g, path)
                assert path[0] in a and path[-1] in b
                assert len(set(path) & a) == 1 or (path[0] in a and all(
                    v not in a for v in path[1:]))
                assert all(v not in a for v in path[1:])
                assert all(v not in b for v in path[:-1])
                assert not (set(path) & seen)
                seen.update(path)


def triple_brute_force(g, k):
    n = g.vertex_count
    for a_set in itertools.combinations(range(n), k):
        rest1 = [v for v in range(n) if v not in a_set]
        for b_set in itertools.combinations(rest1, k):
            rest2 = [v for v in rest1 if v not in b_set]
            for c_set in itertools.combinations(rest2, k):
                if not all(g.has_edge(a, b) for a in a_set for b in b_set):
                    continue
                if not all(g.has_edge(b, c) for b in b_set for c in c_set):
                    continue
                for perm in itertools.permutations(c_set):
                    if all(g.has_edge(perm[i], a_set[i]) for i in range(k)):
                        return KTriple(tuple(a_set), tuple(b_set), tuple(perm))
    return None


class TestKTriple:
    def test_transitive_has_no_1_triple(self):
        assert find_k_triple(gen_transitive(6), 1) is None

    def test_cycle_has_1_triple(self):
        t = find_k_triple(gen_cycle(3), 1)
        assert t is not None and is_k_triple(gen_cycle(3), t)

    def test_explicit_2_triple_host(self):
        edges = []
        for a in (0, 1):
            for b in (2, 3):
                edges.append((a, b))
        for b in (2, 3):
            for c in (4, 5):
                edges.append((b, c))
        edges += [(4, 0), (5, 1)]
        g = Digraph(6, tuple(edges))
        t = find_k_triple(g, 2)
        assert t is not None and is_k_triple(g, t)

    def test_agrees_with_brute_force(self):
        for seed in range(12):
            g = gen_random_tournament(7, seed=seed)
            for k in (1, 2):
                mine = find_k_triple(g, k)
                brute = triple_brute_force(g, k)
                assert (mine is None) == (brute is None)
                if mine is not None:
                    assert is_k_triple(g, mine)

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            find_k_triple(gen_cycle(3), 0)


class TestPairwiseKConnected:
    def test_k1_any_vertex(self):
        assert pairwise_k_connected_set(gen_transitive(4), 1) == frozenset({0})

    def test_transitive_has_no_2_set(self):
        assert pairwise_k_connected_set(gen_transitive(6), 2) is None

    def test_cycle_has_no_2_set(self):
        assert pairwise_k_connected_set(gen_cycle(3), 2) is None

    def test_digon_clique(self):
        g = Digraph(2, ((0, 1), (1, 0)))
        assert pairwise_k_connected_set(g, 1) == frozenset({0})
        assert pairwise_k_connected_set(g, 2) is None  # only one path each way

    def test_local_connectivity_brute_force(self):
        rng = random.Random(17)
        for trial in range(50):
            n = rng.randrange(2, 6)
            if trial < 25:
                g = gen_family("random_digraph", n, seed=rng.randrange(10**9))
            else:  # multi-digraphs with loops and parallel edges
                edges = [(rng.randrange(n), rng.randrange(n)) for _ in range(3 * n)]
                g = Digraph(n, tuple(edges))
            u, v = rng.sample(range(n), 2)
            assert local_connectivity(g, u, v) == brute_force_internal_connectivity(g, u, v)

    def test_parallel_direct_edges_count(self):
        g = Digraph(2, ((0, 1), (0, 1)))
        assert local_connectivity(g, 0, 1) == 2

    def test_found_set_is_sound(self):
        # 2 disjoint digon pairs wired into a 4-clique of digons
        edges = tuple(
            (u, v) for u in range(4) for v in range(4) if u != v
        )
        g = Digraph(4, edges)
        s = pairwise_k_connected_set(g, 3)
        assert s is not None
        for u, v in itertools.permutations(s, 2):
            assert local_connectivity(g, u, v) >= 3
