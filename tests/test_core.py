import itertools
import random
import tracemalloc

import pytest
from hypothesis import given, strategies as st

from digraph_minors.core import (
    MAX_PARSED_VERTICES,
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
        for w in range(g.vertex_count):
            if g.out_mask[v] >> w & 1 and w not in seen:
                seen.add(w)
                todo.append(w)
    return seen


class TestDigraph:
    def test_rejects_out_of_range_edges(self):
        with pytest.raises(ValueError):
            Digraph(2, ((0, 2),))

    @pytest.mark.parametrize("bad", [0.5, "1", True, None])
    def test_rejects_ids_that_are_not_integers(self, bad):
        g = Digraph(2, ((0, 1),))
        for make in (lambda: Digraph(2, ((bad, 1),)), lambda: Digraph(2, ((0, bad),)),
                     lambda: Subdigraph(g, [bad], []), lambda: Subdigraph(g, [0, 1], [bad])):
            with pytest.raises(ValueError, match=f"{bad!r}.* not an integer"):
                make()

    @pytest.mark.parametrize("bad", [True, 1.0, "1", None])
    def test_queries_refuse_ids_that_are_not_integers(self, bad):
        g = gen_cycle(3)
        for query in (lambda: g.has_edge(bad, 1), lambda: g.has_edge(0, bad),
                      lambda: induced_strongly_connected(g, [bad, 2]),
                      lambda: is_induced_path(g, [0, bad]), lambda: is_induced_path(g, [bad])):
            with pytest.raises(ValueError, match=f"{bad!r} is not an integer id"):
                query()

    def test_parsed_ids_are_integers(self):
        g = parse_digraph("2 3\n0 1\n+1 00\n 1  1 \n")
        assert g.edges == ((0, 1), (1, 0), (1, 1))
        assert all(type(x) is int for e in g.edges for x in e)

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

    def test_header_above_the_vertex_limit(self):
        tracemalloc.start()
        try:
            with pytest.raises(ParseError, match=f"line 1: .*{MAX_PARSED_VERTICES}"):
                parse_digraph("1000000000 0\n")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100_000
        with pytest.raises(ParseError, match="line 2: "):
            parse_digraph(f"# big\n{MAX_PARSED_VERTICES + 1} 0\n")
        assert parse_digraph(f"{MAX_PARSED_VERTICES} 0\n").vertex_count == MAX_PARSED_VERTICES

    @given(small_digraphs(loops=True))
    def test_round_trip_identity(self, g):
        assert parse_digraph(g.to_text()) == Digraph(g.vertex_count, tuple(sorted(g.edges)))


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

    def test_tie_between_two_cycles_goes_to_lowest_vertex(self):
        # equal forward reach, so the component holding vertex 0 comes first
        g = Digraph(4, ((0, 2), (2, 0), (1, 3), (3, 1)))
        assert scc_decompose(g) == (frozenset({0, 2}), frozenset({1, 3}))

    def test_two_sinks_after_their_sources(self):
        # forward reaches 4, 3, 1, 1: descending reach, then lowest vertex
        g = Digraph(4, ((2, 1), (1, 0), (1, 3)))
        assert scc_decompose(g) == (
            frozenset({2}),
            frozenset({1}),
            frozenset({0}),
            frozenset({3}),
        )

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

    def test_matches_the_reach_reference(self):
        rng = random.Random(41)
        for i in range(3000):
            n = rng.randrange(13)
            p = rng.choice((0.05, 0.1, 0.2, 0.4))
            edges = [(u, v) for u in range(n) for v in range(n) if rng.random() < p]
            if i % 3 == 0:
                edges += [rng.choice(edges) for _ in range(len(edges) // 4)]
            g = Digraph(n, tuple(edges))
            assert scc_decompose(g) == reach_scc_decompose(g)

    def test_long_path_singletons_in_order(self):
        # the reach reference takes seconds here: two reaches per component
        n = 3000
        g = Digraph(n, tuple((v, v + 1) for v in range(n - 1)))
        assert scc_decompose(g) == tuple(frozenset({v}) for v in range(n))


def reach_scc_decompose(g):
    """Reference for scc_decompose, quadratic on sparse digraphs: the
    component of the lowest vertex left is its forward reach intersected
    with its backward reach inside the vertices left, and components sort
    by descending forward reach in g, then by lowest vertex."""

    def reach(adj, start, mask):
        seen = todo = start
        while todo:
            v = (todo & -todo).bit_length() - 1
            todo &= todo - 1
            fresh = adj[v] & mask & ~seen
            seen |= fresh
            todo |= fresh
        return seen

    full = left = (1 << g.vertex_count) - 1
    keyed = []
    while left:
        low = left & -left
        forward = reach(g.out_mask, low, full)
        comp = forward & reach(g.in_mask, low, left)
        left &= ~comp
        keyed.append((-forward.bit_count(), low, comp))
    keyed.sort()
    return tuple(
        frozenset(v for v in range(g.vertex_count) if comp >> v & 1) for _, _, comp in keyed
    )


class TestMasks:
    def test_loops_and_parallel_edges(self):
        g = Digraph(3, ((0, 1), (0, 1), (1, 1), (2, 0), (1, 1), (1, 2)))
        assert g.out_mask == (0b010, 0b110, 0b001)
        assert g.in_mask == (0b100, 0b011, 0b010)

    def test_agree_with_a_recount_of_the_edges(self):
        rng = random.Random(11)
        loops = parallel = 0
        for _ in range(200):
            n = rng.randint(1, 8)
            g = Digraph(n, tuple(
                (rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 3 * n))
            ))
            loops += any(t == h for t, h in g.edges)
            parallel += len(set(g.edges)) < len(g.edges)
            out, inn, mult = [0] * n, [0] * n, {}
            for t, h in g.edges:
                out[t] |= 1 << h
                inn[h] |= 1 << t
                mult[(t, h)] = mult.get((t, h), 0) + 1
            assert g.out_mask == tuple(out)
            assert g.in_mask == tuple(inn)
            assert g.multiplicity == mult
            assert sum(mult.values()) == len(g.edges)
            for u in range(n):
                for v in range(n):
                    assert g.has_edge(u, v) == ((u, v) in mult)
        assert loops and parallel

    def test_views_take_no_part_in_equality(self):
        g = Digraph(3, ((0, 1), (1, 1)))
        assert repr(g) == "Digraph(vertex_count=3, edges=((0, 1), (1, 1)))"
        assert g == Digraph(3, [(0, 1), (1, 1)]) and hash(g) == hash(Digraph(3, ((0, 1), (1, 1))))
        with pytest.raises(AttributeError):
            g.out_mask = (0, 0, 0)


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

    def test_edge_subsets_agree_with_scc_decompose(self):
        rng = random.Random(7)
        outcomes = set()
        for _ in range(400):
            n = rng.randint(1, 7)
            g = Digraph(n, tuple(
                (rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 4 * n))
            ))
            vs = frozenset(v for v in range(n) if rng.random() < 0.7) or frozenset({0})
            inside = [i for i, (t, h) in enumerate(g.edges) if t in vs and h in vs]
            kept = frozenset(i for i in inside if rng.random() < 0.6)
            order = sorted(vs)
            own = Digraph(len(order), tuple(
                (order.index(g.edges[i][0]), order.index(g.edges[i][1])) for i in kept
            ))
            expected = len(scc_decompose(own)) == 1
            assert is_strongly_connected(g, Subdigraph(g, vs, kept)) == expected
            outcomes.add((expected, kept != frozenset(inside)))
        assert outcomes == {(False, False), (False, True), (True, False), (True, True)}

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

    @pytest.mark.parametrize("u, v, edge", [
        (0, 1, True), (1, 0, False), (-3, 1, False), (1, -1, False),
        (3, 0, False), (0, 3, False), (-1, -1, False),
    ])
    def test_ids_outside_the_digraph(self, u, v, edge):
        g = gen_transitive(3)
        assert g.has_edge(u, v) is edge
        assert is_induced_path(g, [u, v]) is edge
        assert is_induced_path(g, [u]) is (0 <= u < 3)

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
