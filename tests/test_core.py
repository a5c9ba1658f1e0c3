import itertools
import random

import pytest
from hypothesis import given, strategies as st

from digraph_minors.core import (
    Digraph,
    ParseError,
    Subdigraph,
    classify,
    contract,
    delete_vertex,
    gen_cycle,
    gen_family,
    gen_random_tournament,
    gen_stability_two,
    gen_super_tournament,
    gen_transitive,
    induced_strongly_connected,
    induced_subdigraph,
    is_induced_path,
    is_semi_complete,
    is_strongly_connected,
    parse_digraph,
    scc_decompose,
)


def small_digraphs(max_n=6, loops=False):
    def build(draw):
        n = draw(st.integers(min_value=0, max_value=max_n))
        if n == 0:
            return Digraph(0, ())
        pairs = st.tuples(
            st.integers(0, n - 1), st.integers(0, n - 1)
        )
        edges = draw(st.lists(pairs, max_size=2 * n * n))
        if not loops:
            edges = [(t, h) for t, h in edges if t != h]
        return Digraph(n, tuple(edges))

    return st.composite(lambda draw: build(draw))()


def reachable(g, start):
    seen = {start}
    todo = [start]
    while todo:
        v = todo.pop()
        for w in g.out_sets[v]:
            if w not in seen:
                seen.add(w)
                todo.append(w)
    return seen


class TestDigraph:
    def test_rejects_out_of_range_edges(self):
        with pytest.raises(ValueError):
            Digraph(2, ((0, 2),))

    def test_parallel_edges_and_loops_survive_round_trip(self):
        g = Digraph(3, ((0, 1), (0, 1), (1, 1), (2, 0)))
        again = parse_digraph(g.to_text())
        assert again.vertex_count == 3
        assert sorted(again.edges) == sorted(g.edges)

    def test_parse_comments_and_errors(self):
        g = parse_digraph("# a comment\n2 1\n\n0 1\n")
        assert g.edges == ((0, 1),)
        with pytest.raises(ParseError) as err:
            parse_digraph("2 1\n0 5\n")
        assert "line 2" in str(err.value)
        with pytest.raises(ParseError):
            parse_digraph("2 2\n0 1\n")

    @given(small_digraphs(loops=True))
    def test_round_trip_identity(self, g):
        assert parse_digraph(g.to_text()) == Digraph(g.vertex_count, g.canonical_edges())


class TestScc:
    def test_three_cycle_single_component(self):
        assert scc_decompose(gen_cycle(3)) == (frozenset({0, 1, 2}),)

    def test_transitive_tournament_topological_singletons(self):
        assert scc_decompose(gen_transitive(3)) == (
            frozenset({0}),
            frozenset({1}),
            frozenset({2}),
        )

    def test_stability_two_family_is_strongly_connected(self):
        g = gen_stability_two(2)
        comps = scc_decompose(g)
        assert comps == (frozenset(range(10)),)
        # independent reachability check
        for v in range(10):
            assert reachable(g, v) == set(range(10))

    @given(small_digraphs())
    def test_partition_and_component_structure(self, g):
        comps = scc_decompose(g)
        flat = [v for c in comps for v in c]
        assert sorted(flat) == list(range(g.vertex_count))
        for c in comps:
            assert induced_strongly_connected(g, c)
        # edges between distinct components respect the order
        pos = {}
        for i, c in enumerate(comps):
            for v in c:
                pos[v] = i
        for t, h in g.edges:
            assert pos[t] <= pos[h]
        # merging two components never yields a strongly connected set
        for a, b in itertools.combinations(range(len(comps)), 2):
            assert not induced_strongly_connected(g, comps[a] | comps[b])


class TestMasks:
    def test_loops_and_parallel_edges(self):
        g = Digraph(3, ((0, 1), (0, 1), (1, 1), (2, 0), (1, 1), (1, 2)))
        assert g.out_mask == (0b010, 0b110, 0b001)
        assert g.in_mask == (0b100, 0b011, 0b010)

    def test_agree_with_neighbour_sets(self):
        g = gen_random_tournament(6, seed=2)
        for v in range(6):
            assert g.out_mask[v] == sum(1 << w for w in g.out_sets[v])
            assert g.in_mask[v] == sum(1 << w for w in g.in_sets[v])


class TestStrongConnectivity:
    def test_single_vertex_true(self):
        g = Digraph(1, ())
        assert is_strongly_connected(g, Subdigraph.induced(g, {0}))

    def test_one_edge_path_false(self):
        g = Digraph(2, ((0, 1),))
        assert not is_strongly_connected(g, Subdigraph.induced(g, {0, 1}))

    def test_three_cycle_true(self):
        g = gen_cycle(3)
        assert is_strongly_connected(g, Subdigraph.induced(g, {0, 1, 2}))

    def test_null_subdigraph_false(self):
        g = gen_cycle(3)
        assert not is_strongly_connected(g, Subdigraph(g, frozenset(), frozenset()))

    def test_induced_agrees_with_scc_decompose(self):
        rng = random.Random(5)
        for _ in range(40):
            n = rng.randint(1, 7)
            edges = tuple(
                (rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 3 * n))
            )
            g = Digraph(n, edges)
            for size in range(1, n + 1):
                for s in itertools.combinations(range(n), size):
                    sub, _, _ = induced_subdigraph(g, s)
                    assert induced_strongly_connected(g, s) == (len(scc_decompose(sub)) == 1)

    def test_induced_empty_false_and_out_of_range_rejected(self):
        g = gen_cycle(3)
        assert not induced_strongly_connected(g, ())
        for bad in ({0, 3}, {-1}):
            with pytest.raises(ValueError):
                induced_strongly_connected(g, bad)

    def test_malformed_subdigraph_rejected(self):
        g = Digraph(2, ((0, 1),))
        with pytest.raises(ValueError):
            Subdigraph(g, frozenset({0}), frozenset({0}))


class TestContract:
    def test_single_vertex_contraction_is_isomorphic(self):
        g = gen_random_tournament(5, seed=3)
        out, w = contract(g, Subdigraph.induced(g, {2}))
        assert out.vertex_count == 5 and w == 4
        assert len(out.edges) == len(g.edges)

    def test_cycle_with_dominating_vertex_gives_parallel_edges(self):
        # 3-cycle on 0,1,2 plus vertex 3 beating all of them
        g = Digraph(4, ((0, 1), (1, 2), (2, 0), (3, 0), (3, 1), (3, 2)))
        out, w = contract(g, Subdigraph.induced(g, {0, 1, 2}))
        assert out.vertex_count == 2
        assert sorted(out.edges) == [(0, 1), (0, 1), (0, 1)]
        assert w == 1

    def test_contract_whole_cycle(self):
        g = gen_cycle(4)
        out, w = contract(g, Subdigraph.induced(g, range(4)))
        assert out.vertex_count == 1 and out.edges == ()

    def test_requires_strong_connectivity(self):
        g = gen_transitive(3)
        with pytest.raises(ValueError):
            contract(g, Subdigraph.induced(g, {0, 1}))

    @given(small_digraphs())
    def test_edge_count_arithmetic(self, g):
        comps = [c for c in scc_decompose(g) if len(c) >= 1]
        for c in comps[:3]:
            internal = sum(1 for t, h in g.edges if t in c and h in c)
            out, _ = contract(g, Subdigraph.induced(g, c))
            assert len(out.edges) == len(g.edges) - internal


class TestClassify:
    def test_transitive_t5(self):
        c = classify(gen_transitive(5))
        assert (c.tournament, c.acyclic, c.stability_number) == (True, True, 1)

    def test_super_tournament_flags(self):
        c = classify(gen_super_tournament(3))
        assert not c.simple
        assert not c.semi_complete
        assert c.stability_number == 1

    def test_stability_two_family(self):
        assert classify(gen_stability_two(2)).stability_number == 2
        assert classify(gen_stability_two(4)).stability_number == 2

    def test_null_graph(self):
        c = classify(Digraph(0, ()))
        assert c.stability_number == 0
        assert c.simple and c.semi_complete and c.tournament

    def test_implications(self):
        for seed in range(10):
            g = gen_random_tournament(5, seed=seed)
            c = classify(g)
            assert c.tournament and c.semi_complete and c.simple
            assert c.stability_number == 1

    def test_digon_semi_complete_not_tournament(self):
        c = classify(Digraph(2, ((0, 1), (1, 0))))
        assert c.semi_complete and not c.tournament

    def test_stability_matches_brute_force(self):
        for seed in range(8):
            g = gen_family("random_digraph", 6, seed=seed)
            adjacent = {(t, h) for t, h in g.edges} | {(h, t) for t, h in g.edges}
            best = max(
                len(s)
                for r in range(7)
                for s in itertools.combinations(range(6), r)
                if not any((u, v) in adjacent for u, v in itertools.combinations(s, 2))
            )
            assert classify(g).stability_number == best


class TestGenerators:
    def test_transitive(self):
        g = gen_transitive(4)
        assert g.vertex_count == 4 and len(g.edges) == 6
        assert classify(g).acyclic

    def test_super_tournament_edge_count(self):
        g = gen_super_tournament(3)
        assert g.vertex_count == 3 and len(g.edges) == 6
        for i in (3, 4, 5):
            gi = gen_super_tournament(i)
            assert len(gi.edges) == i * (i - 1) // 2 + i

    def test_stability_two_structure(self):
        for i in (2, 3, 4):
            g = gen_stability_two(i)
            assert g.vertex_count == 6 + 2 * i
            a = range(0, 3)
            b = range(3, 6)
            between = [
                (t, h)
                for t, h in g.edges
                if (t in a and h in b) or (t in b and h in a)
            ]
            assert between == [(3, 0)]  # b1 -> a1 only
            # C -> D edges form one alternating cycle of length 2i
            c = set(range(6, 6 + i))
            d = set(range(6 + i, 6 + 2 * i))
            cd = [(t, h) for t, h in g.edges if t in c and h in d]
            assert not any((t, h) for t, h in g.edges if t in d and h in c)
            assert len(cd) == 2 * i
            adj = {}
            for t, h in cd:
                adj.setdefault(t, set()).add(h)
                adj.setdefault(h, set()).add(t)
            assert all(len(v) == 2 for v in adj.values())
            start = next(iter(adj))
            prev, cur = None, start
            length = 0
            while True:
                nxt = next(x for x in adj[cur] if x != prev)
                prev, cur = cur, nxt
                length += 1
                if cur == start:
                    break
            assert length == 2 * i

    def test_size_range_errors(self):
        with pytest.raises(ValueError):
            gen_super_tournament(2)
        with pytest.raises(ValueError):
            gen_stability_two(1)

    def test_determinism(self):
        a = gen_family("random_tournament", 9, seed=123)
        b = gen_family("random_tournament", 9, seed=123)
        assert a.to_text() == b.to_text()
        assert gen_family("random_tournament", 9, seed=124) != a

    def test_random_tournament_is_tournament(self):
        for seed in range(5):
            assert classify(gen_random_tournament(7, seed=seed)).tournament


class TestInducedPath:
    def test_single_vertex(self):
        assert is_induced_path(gen_cycle(3), [0])

    def test_path_in_cycle_true(self):
        assert is_induced_path(gen_cycle(3), [0, 1, 2])

    def test_chord_fails(self):
        assert not is_induced_path(gen_transitive(3), [0, 1, 2])

    def test_requires_semi_complete(self):
        with pytest.raises(ValueError):
            is_induced_path(Digraph(3, ((0, 1),)), [0, 1])

    def test_duplicates_and_missing_edges(self):
        g = gen_cycle(3)
        assert not is_induced_path(g, [0, 0])
        assert not is_induced_path(g, [0, 2])

    def test_induced_paths_are_strongly_connected_unless_one_edge(self):
        for seed in range(6):
            g = gen_random_tournament(7, seed=seed)

            def extend(path):
                yield tuple(path)
                for v in range(7):
                    if v in path:
                        continue
                    if is_induced_path(g, path + [v]):
                        yield from extend(path + [v])

            for start in range(7):
                for path in extend([start]):
                    if len(path) == 2:
                        continue
                    assert induced_strongly_connected(g, path)


def test_is_semi_complete_examples():
    assert is_semi_complete(gen_transitive(4))
    assert is_semi_complete(Digraph(2, ((0, 1), (1, 0))))
    assert not is_semi_complete(Digraph(2, ((0, 1), (0, 1))))
    assert not is_semi_complete(gen_stability_two(2))


def test_delete_vertex_renumbers():
    g = Digraph(3, ((0, 1), (1, 2), (2, 0)))
    out = delete_vertex(g, 1)
    assert out.vertex_count == 2
    assert out.edges == ((1, 0),)
