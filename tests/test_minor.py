import functools
import itertools
import json
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from digraph_minors.core import (
    Digraph,
    Subdigraph,
    contract,
    delete_edge,
    delete_vertex,
    gen_cycle,
    gen_family,
    gen_random_digraph,
    gen_random_tournament,
    gen_super_tournament,
    gen_transitive,
    induced_strongly_connected,
    scc_decompose,
)
from digraph_minors import minor
from digraph_minors.connectivity import find_k_triple
from digraph_minors.minor import (
    BudgetExceededError,
    MinorMapping,
    _build_mapping,
    _place,
    _neighbour_union,
    _strong_levels,
    canonical_form,
    closure_oracle,
    compose,
    find_minor,
    find_subdigraph_embedding,
    identity_mapping,
    minor_of_triple,
    verify_mapping,
)
from digraph_minors.experiments import all_semi_complete, all_tournaments
from parent_search import parent_embedding_place, parent_find_minor


class TestVerifyMapping:
    def test_single_vertex_onto_scc(self):
        h = Digraph(1, ())
        g = gen_cycle(3)
        m = MinorMapping((Subdigraph.induced(g, {0, 1, 2}),), ())
        assert verify_mapping(h, g, m).ok

    def test_multiplicity_clause(self):
        h = Digraph(2, ((0, 1), (0, 1)))
        g = Digraph(2, ((0, 1),))
        assert find_minor(h, g) is None
        m = MinorMapping(
            (
                Subdigraph(g, frozenset({0}), frozenset()),
                Subdigraph(g, frozenset({1}), frozenset()),
            ),
            (0, 0),
        )
        report = verify_mapping(h, g, m)
        assert not report.ok
        assert any("distinct" in f for f in report.failures)

    def test_witness_inside_branch_set_rejected(self):
        h = Digraph(2, ((0, 1),))
        g = Digraph(3, ((0, 1), (1, 0), (0, 2)))
        branch = Subdigraph(g, frozenset({0, 1}), frozenset({0, 1}))
        m = MinorMapping(
            (branch, Subdigraph(g, frozenset({2}), frozenset())),
            (0,),
        )
        report = verify_mapping(h, g, m)
        assert not report.ok
        assert any("inside a branch set" in f for f in report.failures)

    def test_overlapping_branch_sets_rejected(self):
        h = Digraph(2, ())
        g = Digraph(2, ((0, 1), (1, 0)))
        m = MinorMapping(
            (
                Subdigraph.induced(g, {0, 1}),
                Subdigraph(g, frozenset({1}), frozenset()),
            ),
            (),
        )
        report = verify_mapping(h, g, m)
        assert not report.ok


class TestFindMinor:
    def test_reflexive(self):
        for seed in range(5):
            g = gen_random_tournament(5, seed=seed)
            m = find_minor(g, g)
            assert m is not None and verify_mapping(g, g, m).ok

    def test_null_pattern(self):
        empty = Digraph(0, ())
        for g in (gen_cycle(3), empty):
            for budget in (None, 0):
                m = find_minor(empty, g, budget=budget)
                assert m == MinorMapping((), ()) and verify_mapping(empty, g, m).ok

    def test_cycle_not_in_acyclic_host(self):
        assert find_minor(gen_cycle(3), gen_transitive(10)) is None

    def test_small_cycle_not_minor_of_big_cycle(self):
        assert find_minor(gen_cycle(3), gen_cycle(5)) is None

    def test_super_tournament_family(self):
        g3, g4 = gen_super_tournament(3), gen_super_tournament(4)
        assert find_minor(g3, g4) is None
        found = find_minor(g3, g3)
        assert found is not None and verify_mapping(g3, g3, found).ok

    def test_budget(self):
        g = gen_random_tournament(6, seed=0)
        with pytest.raises(BudgetExceededError):
            find_minor(g, g, budget=1)

    def test_negative_budget_refused(self):
        g = gen_random_tournament(3, seed=0)
        for h in (Digraph(0, ()), g):
            with pytest.raises(ValueError, match="budget must be non-negative, got -1"):
                find_minor(h, g, budget=-1)

    # (pattern, host, smallest budget that completes, found): the exact
    # count the CLI `minor --budget` relies on, placements tried plus the
    # C(n, size) subsets charged for each size of strong set built, plus,
    # for a pattern loop, each edge combination `loop_capacity` tests
    PINNED_BUDGETS = [
        (gen_random_tournament(5, seed=1), gen_random_tournament(7, seed=2), 301, False),
        (gen_random_tournament(4, seed=3), gen_random_tournament(6, seed=4), 17, True),
        (gen_random_tournament(6, seed=5), gen_random_tournament(7, seed=6), 35, False),
        # 40 placements and subsets, and 20 edge combinations tested on 9
        # branch sets for the loop's spare edge
        (Digraph(2, ((0, 0), (0, 1), (0, 1), (1, 0))),
         gen_random_digraph(5, seed=8, p=0.6), 60, True),
        # 99 placements and subsets, and 130 combinations on 6 branch sets
        (Digraph(3, ((0, 0), (0, 1), (0, 1), (1, 2), (2, 0))),
         Digraph(6, ((0, 1), (1, 0), (0, 1), (1, 1), (1, 2), (2, 3), (3, 1), (2, 2),
                     (3, 4), (4, 5), (5, 3), (4, 0), (5, 2), (0, 5))), 229, True),
        # the look-ahead cuts this absent pair from 12,960 placements to
        # 3,739, plus 255 subsets charged for sizes 1-4
        (gen_random_tournament(6, seed=7), gen_random_tournament(9, seed=8), 3994, False),
        # 10 placements, none with a spare edge for the loop, and all
        # 2^10 - 1 subsets charged, since every size above 1 is built and
        # found empty
        (Digraph(1, ((0, 0),)), gen_transitive(10), 1033, False),
    ]

    @pytest.mark.parametrize("h, g, budget, found", PINNED_BUDGETS)
    def test_budget_counts_placements(self, h, g, budget, found):
        assert (find_minor(h, g, budget=budget) is not None) == found
        with pytest.raises(BudgetExceededError, match=f"budget of {budget - 1} placements"):
            find_minor(h, g, budget=budget - 1)

    def test_budget_charges_the_spare_edge_search(self):
        # twenty loops need a branch set with twenty spare edges; finding a
        # set's connecting edges tries many edge combinations, each counted
        # against the budget, so the query stops long before the seconds
        # the whole search takes
        h = Digraph(1, ((0, 0),) * 20)
        g = gen_random_tournament(8, seed=4)
        started = time.perf_counter()
        with pytest.raises(BudgetExceededError, match="budget of 1000 placements"):
            find_minor(h, g, budget=1000)
        assert time.perf_counter() - started < 0.1

    def test_loop_pattern(self):
        h = Digraph(1, ((0, 0),))
        g_with_loop = Digraph(2, ((0, 0), (0, 1)))
        m = find_minor(h, g_with_loop)
        assert m is not None and verify_mapping(h, g_with_loop, m).ok
        assert find_minor(h, gen_transitive(3)) is None
        # a loop is also realized by a contracted digon holding a spare edge
        digon_extra = Digraph(2, ((0, 1), (1, 0), (0, 1)))
        m2 = find_minor(h, digon_extra)
        assert m2 is not None and verify_mapping(h, digon_extra, m2).ok


def _random_multidigraph(rng, n, m):
    """m edges with uniform random ends: loops and parallel edges included."""
    return Digraph(n, tuple((rng.randrange(n), rng.randrange(n)) for _ in range(m)))


class TestMultiDigraphsAgainstClosure:
    """find_minor on multi-digraphs, whose pair checks count parallel edges
    and whose loops need spare edges in a branch set, against closure_oracle.

    Contraction drops every edge inside the contracted set, so the closure
    never gains a loop, while a mapping may witness a pattern loop by a spare
    edge inside its branch set.  Containment is therefore equivalent only for
    loopless patterns; with loops the closure is a lower bound."""

    def test_seeded_pairs(self):
        rng = random.Random("multi-digraph-minors")
        for _ in range(40):
            g = _random_multidigraph(rng, rng.randint(3, 5), rng.randint(4, 7))
            closure = closure_oracle(g)
            pool = sorted(closure, key=lambda d: (d.vertex_count, d.edges))
            for _ in range(6):
                if rng.random() < 0.5:
                    h = rng.choice(pool)
                else:
                    h = _random_multidigraph(rng, rng.randint(1, 4), rng.randint(1, 5))
                m = find_minor(h, g)
                member = canonical_form(h) in closure
                assert m is None or verify_mapping(h, g, m).ok
                if any(t == hd for t, hd in h.edges):
                    assert m is not None or not member, (h, g)
                else:
                    assert (m is not None) == member, (h, g)


def _contract_to(rng, g, k):
    """g with random strongly connected sets contracted until at most k
    vertices remain (or none can be): a minor of g, found by construction."""
    while g.vertex_count > k:
        sets = [m for level in _strong_levels(g.vertex_count, g.out_mask, g.in_mask)
                for m, _, _ in level if m & (m - 1)]
        if not sets:
            break
        mask = rng.choice(sets)
        g, _ = contract(g, Subdigraph.induced(g, [v for v in range(g.vertex_count) if mask >> v & 1]))
    return g


def _uncapped_find_minor(h, g, budget=None):
    """Reference for the cap: `find_minor` with every strongly connected
    mask of the host, of any size, built before `_place` starts."""
    if h.vertex_count > g.vertex_count or len(h.edges) > len(g.edges):
        return None
    levels = list(_strong_levels(g.vertex_count, g.out_mask, g.in_mask))
    chosen = _place(h, g, iter(levels), budget)
    return None if chosen is None else _build_mapping(h, g, chosen)


def _random_semi_complete(rng, n, digons):
    """A semi-complete multi-digraph on n vertices: each pair joined one way,
    the other, or (with probability `digons`) both, then some parallel
    copies and loops, in shuffled edge order."""
    edges = []
    for u, v in itertools.combinations(range(n), 2):
        if rng.random() < digons:
            edges += [(u, v), (v, u)]
        else:
            edges.append((u, v) if rng.random() < 0.5 else (v, u))
    edges += rng.choices(edges, k=rng.randint(0, n)) if edges else []
    edges += [(v, v) for v in range(n) if rng.random() < 0.2]
    rng.shuffle(edges)
    return Digraph(n, tuple(edges))


class TestStrongLevel:
    """`_strong_levels` against an independent reference: the subsets of each
    size, in `itertools.combinations` order, whose induced subdigraph is one
    component under `scc_decompose` (Tarjan).  The reference decides each
    distinct induced subdigraph once: it is keyed on the subset and the
    out-neighbours of its vertices inside it, which fix the subdigraph up to
    parallel edges."""

    def setup_method(self):
        self.strong = {}

    @staticmethod
    @functools.lru_cache(maxsize=None)
    def subsets(n, size):
        return [(combo, sum(1 << v for v in combo))
                for combo in itertools.combinations(range(n), size)]

    def reference(self, g, size):
        masks = []
        for combo, mask in self.subsets(g.vertex_count, size):
            key = (mask, *[g.out_mask[v] & mask for v in combo])
            if key not in self.strong:
                idx = {v: i for i, v in enumerate(combo)}
                sub = Digraph(size, tuple((idx[t], idx[hd]) for t, hd in g.edges
                                          if t in idx and hd in idx))
                self.strong[key] = len(scc_decompose(sub)) == 1
            if self.strong[key]:
                masks.append(mask)
        return masks

    def check(self, g):
        n = g.vertex_count
        levels = list(_strong_levels(n, g.out_mask, g.in_mask))
        assert len(levels) == n
        # past the last level, size n + 1, there is nothing to yield
        for size, level in enumerate(levels + [[]], 1):
            # each mask with the unions of its vertices' neighbours
            assert level == [(m, _neighbour_union(g.out_mask, m), _neighbour_union(g.in_mask, m))
                             for m in self.reference(g, size)], (g, size)

    def test_every_digraph_on_at_most_three_vertices(self):
        for n in range(4):
            pairs = list(itertools.product(range(n), repeat=2))
            for bits in range(1 << len(pairs)):
                self.check(Digraph(n, tuple(p for i, p in enumerate(pairs) if bits >> i & 1)))

    def test_seeded_multidigraphs(self):
        rng = random.Random("strong-level-reference")
        for _ in range(150):
            n = rng.randint(1, 8)
            self.check(_random_multidigraph(rng, n, rng.randint(0, 3 * n)))

    def test_every_semi_complete_digraph_on_at_most_five_vertices(self):
        # 59,810 labelled digraphs: size 3 holds exactly the directed
        # triangles and sizes 4 and 5 are grown, so a growth step that
        # misses a set, or one that adds a set which is not strong, shows
        for n in range(6):
            for g in all_semi_complete(n):
                self.check(g)

    def test_seeded_semi_complete_multidigraphs(self):
        # up to 12 vertices, tournaments included, with 2-cycles, parallel
        # edges and loops, which the semi-complete test must allow
        rng = random.Random("strong-level-semi-complete")
        for i in range(48):
            self.check(_random_semi_complete(rng, 4 + i % 9, rng.choice([0, 0.1, 0.3, 0.6])))

    def test_seeded_nearly_semi_complete_digraphs(self):
        # one pair left unjoined makes a host that is not semi-complete, on
        # which growth would miss sets (a directed 4-cycle has no strong
        # 3-subset), so the sizes past 3 must be tested subset by subset
        rng = random.Random("strong-level-nearly-semi-complete")
        for _ in range(40):
            g = _random_semi_complete(rng, rng.randint(4, 9), rng.choice([0, 0.2]))
            u, v = rng.sample(range(g.vertex_count), 2)
            self.check(Digraph(g.vertex_count, tuple(e for e in g.edges if {*e} != {u, v})))
        self.check(gen_cycle(4))
        assert [len(level) for level in _strong_levels(4, gen_cycle(4).out_mask,
                                                       gen_cycle(4).in_mask)] == [4, 0, 0, 1]


class TestCandidateCap:
    """`find_minor` builds only the sizes of strongly connected masks that
    `_place` reaches, never more than |V(g)| - |V(h)| + 1 vertices, so
    outputs and budget counts match the search over every mask."""

    @staticmethod
    def outcome(search, h, g, budget):
        try:
            m = search(h, g, budget)
        except BudgetExceededError as exc:
            return "budget", str(exc)
        return ("absent", None) if m is None else ("found", m.to_json())

    def pairs(self):
        rng = random.Random("candidate-cap-pairs")
        for i in range(240):
            n = rng.randint(1, 7)
            k = rng.randint(1, n)
            if i % 2:
                g = gen_random_tournament(n, seed=rng.randrange(10**6))
                h = (gen_random_tournament(k, seed=rng.randrange(10**6)) if rng.random() < 0.5
                     else _contract_to(rng, g, k))
            else:
                g = _random_multidigraph(rng, n, rng.randint(n, 3 * n))
                h = (_random_multidigraph(rng, k, rng.randint(0, 2 * k)) if rng.random() < 0.5
                     else _contract_to(rng, g, k))
            yield h, g, rng.choice([None, 0, 1, 5, 40])

    def test_find_minor_matches_the_uncapped_search(self):
        outcomes = set()
        for h, g, budget in self.pairs():
            for b in {None, budget}:
                got = self.outcome(find_minor, h, g, b)
                assert got == self.outcome(_uncapped_find_minor, h, g, b), (h, g, b)
                outcomes.add(got[0])
        assert outcomes == {"absent", "budget", "found"}


class TestLazyLevels:
    """`find_minor` builds the strong sets of one size only when `_place`
    first reaches that size."""

    @pytest.fixture
    def built(self, monkeypatch):
        sizes = []
        real = minor._strong_levels

        def counting(n, out, inn):
            for size, level in enumerate(real(n, out, inn), 1):
                sizes.append(size)
                yield level

        monkeypatch.setattr(minor, "_strong_levels", counting)
        return sizes

    def test_found_query_builds_only_singletons(self, built):
        g = gen_transitive(18)
        m = find_minor(gen_transitive(3), g)
        assert m is not None and verify_mapping(gen_transitive(3), g, m).ok
        assert built == [1]

    def test_budget_stops_before_larger_levels(self, built):
        # the 16 singletons are charged, then 10 placements spend the rest
        h = gen_random_tournament(5, seed=1)
        with pytest.raises(BudgetExceededError):
            find_minor(h, gen_random_tournament(16, seed=2), budget=26)
        assert built == [1]
        built.clear()
        with pytest.raises(BudgetExceededError):
            find_minor(h, gen_random_tournament(16, seed=2), budget=10)
        assert built == []

    @pytest.mark.parametrize("host", [gen_transitive(18), gen_random_tournament(16, seed=0)])
    def test_budget_counts_the_subsets_of_each_level(self, built, host):
        # the singletons are charged first, so the budget runs out among
        # their placements, none of which holds the loop; the levels above 1
        # are never enumerated
        with pytest.raises(BudgetExceededError, match="budget of 20 placements"):
            find_minor(Digraph(1, ((0, 0),)), host, budget=20)
        assert built == [1]

    def test_level_is_charged_before_it_is_built(self, built):
        # 18 + 18 fit in 40; the 153 pairs of level 2 do not
        with pytest.raises(BudgetExceededError, match="budget of 40 placements"):
            find_minor(Digraph(1, ((0, 0),)), gen_transitive(18), budget=40)
        assert built == [1]


class TestParentSearch:
    """`find_minor` and the embedding search give the outcomes of the search
    that tested every subset and scanned every single vertex
    (`parent_search`, kept verbatim): the same mapping, byte for byte, the
    same absence, and `BudgetExceededError` at the same budgets."""

    BUDGETS = (None, 0, 1, 5, 40)

    @staticmethod
    def outcome(search, *args):
        try:
            got = search(*args)
        except BudgetExceededError as exc:
            return "budget", str(exc)
        if got is None:
            return "absent", None
        return "found", got.to_json() if isinstance(got, MinorMapping) else got

    def pairs(self):
        """600 seeded (pattern, host) pairs, a third of each kind."""
        rng = random.Random("parent-search-pairs")
        for i in range(600):
            if i % 3 == 0:
                # random tournaments of 6-10 vertices
                g = gen_random_tournament(rng.randint(6, 10), seed=rng.randrange(10**6))
                h = gen_random_tournament(rng.randint(3, g.vertex_count - 1),
                                          seed=rng.randrange(10**6))
            elif i % 3 == 1:
                # contractions of the host, found by construction
                g = (gen_random_tournament(rng.randint(6, 10), seed=rng.randrange(10**6))
                     if rng.random() < 0.5 else _random_semi_complete(rng, rng.randint(5, 8), 0.2))
                h = _contract_to(rng, g, rng.randint(2, g.vertex_count - 1))
            else:
                # multi-digraphs with loops and parallel edges
                n = rng.randint(3, 7)
                g = _random_multidigraph(rng, n, rng.randint(n, 3 * n))
                k = rng.randint(1, n)
                h = _random_multidigraph(rng, k, rng.randint(0, 2 * k))
            yield h, g

    def test_find_minor_matches_the_parent_search(self):
        outcomes = set()
        for h, g in self.pairs():
            for budget in self.BUDGETS:
                got = self.outcome(find_minor, h, g, budget)
                assert got == self.outcome(parent_find_minor, h, g, budget), (h, g, budget)
                outcomes.add(got[0])
        assert outcomes == {"absent", "budget", "found"}

    def test_embedding_search_matches_the_parent_search(self):
        outcomes = set()
        for h, g in self.pairs():
            for budget in self.BUDGETS:
                singles = itertools.islice(_strong_levels(g.vertex_count, g.out_mask, g.in_mask), 1)
                got = self.outcome(_place, h, g, singles, budget)
                assert got == self.outcome(parent_embedding_place, h, g, budget), (h, g, budget)
                outcomes.add(got[0])
            found = find_subdigraph_embedding(h, g)
            assert self.outcome(parent_embedding_place, h, g) == (
                ("absent", None) if found is None
                else ("found", [1 << v for v in found])), (h, g)
        assert outcomes == {"absent", "budget", "found"}


class TestBranchEdgeRule:
    """Which host edges a branch set of a `find_minor` certificate keeps."""

    @staticmethod
    def branches(h, g):
        m = find_minor(h, g)
        assert m is not None and verify_mapping(h, g, m).ok
        return [sorted(sub.edge_indices) for sub in m.assignment], list(m.edge_witness)

    def test_singleton_keeps_no_edges_despite_host_loops(self):
        g = Digraph(1, ((0, 0), (0, 0)))
        assert self.branches(Digraph(1, ()), g) == ([[]], [])
        assert self.branches(Digraph(1, ((0, 0),)), g) == ([[]], [0])

    def test_loopless_class_keeps_all_induced_edges(self):
        # only the digon {0, 1} sends two edges to 2; its loop (edge 2) stays in
        h = Digraph(2, ((0, 1), (0, 1)))
        g = Digraph(3, ((0, 1), (1, 0), (0, 0), (0, 2), (1, 2)))
        assert self.branches(h, g) == ([[0, 1, 2], []], [3, 4])

    def test_looped_class_keeps_first_smallest_connecting_set(self):
        # triangles 0->1->2->0 = {1, 2, 3} and 0->2->1->0 = {0, 4, 5}; the
        # latter comes first in (size, edge ids) order
        h = Digraph(1, ((0, 0),))
        g = Digraph(3, ((0, 2), (0, 1), (1, 2), (2, 0), (2, 1), (1, 0)))
        assert self.branches(h, g) == ([[0, 4, 5]], [1])


class TestMinorOfTriple:
    def test_k1_triangle_branch(self):
        g = gen_cycle(3)
        t = find_k_triple(g, 1)
        h = Digraph(1, ())
        m = minor_of_triple(h, g, t)
        assert verify_mapping(h, g, m).ok
        assert m.branch(0).vertices == {0, 1, 2}

    def test_k2_digon(self):
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
        digon = Digraph(2, ((0, 1), (1, 0)))
        m = minor_of_triple(digon, g, t)
        assert verify_mapping(digon, g, m).ok

    def test_k3_exhaustive_semi_complete_patterns(self):
        k = 3
        edges = []
        for a in range(k):
            for b in range(k, 2 * k):
                edges.append((a, b))
        for b in range(k, 2 * k):
            for c in range(2 * k, 3 * k):
                edges.append((b, c))
        edges += [(2 * k + i, i) for i in range(k)]
        g = Digraph(3 * k, tuple(edges))
        t = find_k_triple(g, k)
        assert t is not None
        count = 0
        for h in all_semi_complete(k):
            m = minor_of_triple(h, g, t)
            assert verify_mapping(h, g, m).ok
            count += 1
        assert count == 3 ** (k * (k - 1) // 2)

    def test_rejects_wrong_size(self):
        g = gen_cycle(3)
        t = find_k_triple(g, 1)
        with pytest.raises(ValueError):
            minor_of_triple(gen_transitive(2), g, t)

    def test_rejects_non_semi_complete(self):
        g = gen_cycle(3)
        t = find_k_triple(g, 1)
        with pytest.raises(ValueError):
            minor_of_triple(Digraph(1, ((0, 0),)), g, t)


class TestCompose:
    def test_identity_cases(self):
        g = gen_random_tournament(4, seed=9)
        ident = identity_mapping(g)
        m = compose(g, g, g, ident, ident)
        assert verify_mapping(g, g, m).ok

    def test_identity_on_either_side_preserves_mapping(self):
        g = gen_random_tournament(5, seed=4)
        h = delete_vertex(g, 2)
        m1 = find_minor(h, g)
        assert m1 is not None
        left = compose(h, g, g, m1, identity_mapping(g))
        assert verify_mapping(h, g, left).ok
        assert [b.vertices for b in left.assignment] == [
            b.vertices for b in m1.assignment
        ]
        right = compose(h, h, g, identity_mapping(h), m1)
        assert verify_mapping(h, g, right).ok
        assert right.edge_witness == m1.edge_witness

    def test_chain_through_contraction(self):
        rng = random.Random(13)
        for _ in range(10):
            f = gen_random_tournament(6, seed=rng.randrange(10**9))
            # g: contract a random strongly-connected pair-or-more in f
            subsets = [
                s
                for r in range(2, 4)
                for s in itertools.combinations(range(6), r)
                if induced_strongly_connected(f, s)
            ]
            if not subsets:
                continue
            s = subsets[rng.randrange(len(subsets))]
            g, _ = contract(f, Subdigraph.induced(f, s))
            h = delete_vertex(g, rng.randrange(g.vertex_count))
            m1 = find_minor(h, g)
            m2 = find_minor(g, f)
            assert m1 is not None and m2 is not None
            m = compose(h, g, f, m1, m2)
            assert verify_mapping(h, f, m).ok

    def test_invalid_input_rejected(self):
        g = gen_random_tournament(3, seed=0)
        bad = MinorMapping(
            tuple(Subdigraph(g, frozenset({0}), frozenset()) for _ in range(3)),
            tuple(range(3)),
        )
        with pytest.raises(ValueError):
            compose(g, g, g, bad, identity_mapping(g))


class TestCanonicalForm:
    def test_invariant_under_relabeling(self):
        rng = random.Random(5)
        for _ in range(30):
            n = rng.randrange(1, 7)
            g = gen_family("random_digraph", n, seed=rng.randrange(10**9))
            perm = list(range(n))
            rng.shuffle(perm)
            relabeled = Digraph(
                n, tuple((perm[t], perm[h]) for t, h in g.edges)
            )
            assert canonical_form(g) == canonical_form(relabeled)

    def test_invariant_under_relabeling_past_byte_sized_ids(self):
        # a 20-vertex state's edge ids run up to 19 * 20 + 18 = 398
        rng = random.Random(20)
        for seed in range(5):
            g = gen_random_tournament(20, seed=seed)
            perm = list(range(20))
            rng.shuffle(perm)
            relabeled = Digraph(20, tuple((perm[t], perm[h]) for t, h in g.edges))
            form = canonical_form(g)
            assert form == canonical_form(relabeled)
            assert max(t * 20 + h for t, h in form.edges) > 255

    def test_distinguishes_orientations(self):
        path2 = Digraph(3, ((0, 1), (1, 2)))
        fork = Digraph(3, ((0, 1), (0, 2)))
        assert canonical_form(path2) != canonical_form(fork)

    def test_multiplicity_preserved(self):
        g = Digraph(2, ((0, 1), (0, 1)))
        c = canonical_form(g)
        assert len(c.edges) == 2 and len(set(c.edges)) == 1
        assert canonical_form(Digraph(2, ((1, 0), (1, 0)))) == c
        assert canonical_form(Digraph(2, ((0, 1),))) != c

    def test_regular_digraph_refinement_fallback(self):
        # directed cycles are vertex-transitive: refinement cannot split them
        assert canonical_form(gen_cycle(5)).vertex_count == 5
        relabeled = Digraph(5, tuple(((t + 2) % 5, (h + 2) % 5) for t, h in gen_cycle(5).edges))
        assert canonical_form(gen_cycle(5)) == canonical_form(relabeled)

    def test_returns_a_fresh_value(self):
        # the cache holds edge tuples and multiplicity is read-only, so no
        # caller can change what the next caller gets
        g = Digraph(3, ((0, 1), (0, 1), (1, 2)))
        first = canonical_form(g)
        with pytest.raises(TypeError):
            first.multiplicity[first.edges[0]] = 7
        with pytest.raises(TypeError):
            first.multiplicity[(2, 2)] = 1
        again = canonical_form(g)
        assert again == first and again is not first
        assert again.multiplicity == Digraph(3, again.edges).multiplicity
        assert sorted(again.multiplicity.values()) == [1, 2]

    def test_equal_canonical_form_iff_isomorphic(self):
        # same form must mean isomorphic; different forms with identical
        # size/degree data must mean no isomorphism exists
        def isomorphic(a, b):
            if a.vertex_count != b.vertex_count or len(a.edges) != len(b.edges):
                return False
            emb = find_subdigraph_embedding(a, b)
            return emb is not None

        rng = random.Random(71)
        graphs = [
            gen_family("random_digraph", rng.randrange(2, 6), seed=rng.randrange(10**9))
            for _ in range(60)
        ]
        by_form = {}
        for g in graphs:
            by_form.setdefault(canonical_form(g), []).append(g)
        for form, members in by_form.items():
            for g in members:
                assert isomorphic(g, form) and isomorphic(form, g)
        forms = list(by_form)
        for a, b in itertools.combinations(forms, 2):
            if a.vertex_count == b.vertex_count and len(a.edges) == len(b.edges):
                assert not (isomorphic(a, b) and isomorphic(b, a))

    def test_relabelling_cap(self):
        # refinement cannot split a cycle or an edgeless digraph, so each
        # needs n! relabellings: 9! is the cap, and past it the refusal
        # comes before any relabelling is tried
        for g in (gen_cycle(10), Digraph(12, ())):
            start = time.perf_counter()
            with pytest.raises(ValueError, match="at most 362880 relabellings"):
                canonical_form(g)
            assert time.perf_counter() - start < 0.5
        assert canonical_form(gen_cycle(9)).vertex_count == 9

    def test_relabelling_cap_is_read_per_call(self, monkeypatch):
        monkeypatch.setattr(minor, "CANONICAL_MAX_RELABELLINGS", 5)
        minor._canonical.cache_clear()
        with pytest.raises(ValueError, match="at most 5 relabellings"):
            canonical_form(gen_cycle(4))


class TestClosureOracle:
    def test_single_vertex(self):
        got = closure_oracle(Digraph(1, ()))
        assert got == frozenset({Digraph(1, ()), Digraph(0, ())})

    def test_cycle_contains_contraction_and_subpaths(self):
        got = closure_oracle(gen_cycle(3))
        assert Digraph(1, ()) in got
        assert canonical_form(Digraph(2, ((0, 1),))) in got
        assert canonical_form(gen_cycle(3)) in got
        assert canonical_form(Digraph(2, ((0, 1), (1, 0)))) not in got

    def test_guard(self):
        with pytest.raises(ValueError):
            closure_oracle(gen_transitive(8))

    def test_guard_refuses_seven_vertices(self):
        with pytest.raises(ValueError, match="at most 6 vertices"):
            closure_oracle(gen_random_tournament(7, seed=0))

    def test_guard_refuses_too_many_minors(self, monkeypatch):
        g = gen_random_tournament(4, seed=6)
        size = len(closure_oracle(g))
        monkeypatch.setattr(minor, "CLOSURE_MAX_MINORS", size)
        assert len(closure_oracle(g)) == size
        monkeypatch.setattr(minor, "CLOSURE_MAX_MINORS", size - 1)
        with pytest.raises(ValueError, match=f"at most {size - 1} minors"):
            closure_oracle(g)

    def test_keystone_equivalence_tournaments_n3(self):
        for g in all_tournaments(3):
            clos = closure_oracle(g)
            pool = sorted(clos, key=lambda d: (d.vertex_count, len(d.edges), d.edges))
            for h in pool:
                assert find_minor(h, g) is not None
            # a non-member: the digon is a minor of no tournament on 3 vertices
            digon = canonical_form(Digraph(2, ((0, 1), (1, 0))))
            assert (digon in clos) == (find_minor(digon, g) is not None)

    def test_closure_reflects_minor_of_relation(self):
        g = gen_random_tournament(4, seed=6)
        clos = closure_oracle(g)
        # every member's own closure is contained in the host closure
        member = sorted(clos, key=lambda d: (d.vertex_count, len(d.edges)))[-1]
        assert closure_oracle(member) <= clos


@functools.lru_cache(maxsize=65536)
def _reference_canonical_form(g):
    """The Digraph-valued canonical form that the state-keyed `_canonical`
    replaced:
    refinement until the colouring stops changing, then the least relabelled
    edge tuple over products of within-class permutations."""
    n = g.vertex_count
    if n <= 1:
        return Digraph(n, tuple(sorted(g.edges)))
    mult = g.multiplicity
    outs = [[(h, mult[(v, h)]) for h in range(n) if g.out_mask[v] >> h & 1] for v in range(n)]
    ins = [[(t, mult[(t, v)]) for t in range(n) if g.in_mask[v] >> t & 1] for v in range(n)]
    base = [
        (sum(m for _, m in outs[v]), sum(m for _, m in ins[v]), mult.get((v, v), 0))
        for v in range(n)
    ]
    lookup = {s: i for i, s in enumerate(sorted(set(base)))}
    color = [lookup[s] for s in base]
    while True:
        sigs = [
            (
                color[v],
                tuple(sorted((color[w], m) for w, m in outs[v])),
                tuple(sorted((color[w], m) for w, m in ins[v])),
            )
            for v in range(n)
        ]
        lookup = {s: i for i, s in enumerate(sorted(set(sigs)))}
        new_color = [lookup[sigs[v]] for v in range(n)]
        if new_color == color:
            break
        color = new_color
    classes = {}
    for v in range(n):
        classes.setdefault(color[v], []).append(v)
    classes = [classes[c] for c in sorted(classes)]
    offsets = list(itertools.accumulate([0] + [len(c) for c in classes[:-1]]))
    best = None
    for perm_combo in itertools.product(*(itertools.permutations(c) for c in classes)):
        relabel = [0] * n
        for cls_perm, off in zip(perm_combo, offsets):
            for i, v in enumerate(cls_perm):
                relabel[v] = off + i
        edges = tuple(sorted((relabel[t], relabel[h]) for t, h in g.edges))
        if best is None or edges < best:
            best = edges
    return Digraph(n, best)


def _reference_closure(g):
    """The Digraph-valued breadth-first search that the encoded closure
    replaced, built from `core.delete_edge`, `delete_vertex` and `contract`."""
    start = _reference_canonical_form(g)
    seen = {start}
    frontier = [start]
    while frontier:
        fresh = []
        for q in frontier:
            n = q.vertex_count
            results = [delete_edge(q, i) for i in range(len(q.edges))]
            results += [delete_vertex(q, v) for v in range(n)]
            for size in range(2, n + 1):
                for vs in itertools.combinations(range(n), size):
                    if induced_strongly_connected(q, vs):
                        results.append(contract(q, Subdigraph.induced(q, vs))[0])
            for res in results:
                canon = _reference_canonical_form(res)
                if canon not in seen:
                    seen.add(canon)
                    fresh.append(canon)
        frontier = fresh
    return frozenset(seen)


class TestEncodedClosure:
    """closure_oracle and canonical_form, which run on flat states
    `(n, *sorted edge ids)` with id t * n + h, against copies of the
    Digraph-valued code they replaced."""

    def test_every_semi_complete_digraph_up_to_4_vertices(self):
        # all_semi_complete includes every tournament.  Both searches start
        # from the canonical form, which is compared on every labelling, so
        # the closures are compared once per isomorphism class.
        closures = {}
        for n in range(1, 5):
            for g in all_semi_complete(n):
                form = canonical_form(g)
                assert form.edges == _reference_canonical_form(g).edges, g
                if form not in closures:
                    closures[form] = closure_oracle(g)
                    assert closures[form] == _reference_closure(g), g
        assert len(closures) == 1 + 2 + 7 + 42

    def test_seeded_multi_digraphs(self):
        rng = random.Random("encoded-closure")
        loops = parallel = 0
        for _ in range(60):
            g = _random_multidigraph(rng, rng.randint(1, 5), rng.randint(0, 8))
            loops += any(t == h for t, h in g.edges)
            parallel += len(set(g.edges)) < len(g.edges)
            assert closure_oracle(g) == _reference_closure(g), g
        assert loops and parallel

    def test_canonical_form_of_seeded_multi_digraphs(self):
        rng = random.Random("encoded-canonical-form")
        for _ in range(600):
            g = _random_multidigraph(rng, rng.randint(1, 6), rng.randint(0, 12))
            assert canonical_form(g).edges == _reference_canonical_form(g).edges, g

    def test_canonical_on_every_small_state(self):
        # every state on at most 3 vertices with at most 4 edge ids, loops
        # and parallel edges included, and every loopless simple digraph on
        # 4 vertices: refinement that ends with n classes and refinement
        # that needs the permutation products
        canonical = minor._canonical.__wrapped__
        states = [(n, *ids) for n in range(4) for m in range(5)
                  for ids in itertools.combinations_with_replacement(range(n * n), m)]
        pairs = [(t, h) for t in range(4) for h in range(4) if t != h]
        states += [minor._encode(Digraph(4, tuple(p for i, p in enumerate(pairs) if bits >> i & 1)))
                   for bits in range(1 << len(pairs))]
        assert len(states) == 1 + 5 + 70 + 715 + 4096
        for state in states:
            n, ids = state[0], state[1:]
            g = Digraph(n, tuple(divmod(e, n) for e in ids))
            assert canonical(*state) == minor._encode(_reference_canonical_form(g)), state


class TestMinorClosure:
    """closure_oracle returns a read-only set over canonical states that
    answers as the frozenset of decoded `Digraph` values did."""

    HOSTS = [Digraph(0, ()), Digraph(1, ((0, 0), (0, 0))), gen_cycle(3),
             gen_random_tournament(4, seed=6),
             Digraph(4, ((0, 1), (1, 0), (1, 2), (2, 3), (3, 1), (3, 3), (0, 1)))]

    @pytest.mark.parametrize("g", HOSTS)
    def test_answers_as_the_frozenset_of_members(self, g):
        closure = closure_oracle(g)
        reference = _reference_closure(g)
        assert len(closure) == len(reference)
        assert closure == reference and reference == closure
        assert closure <= reference and reference <= closure
        assert closure >= reference and reference >= closure
        assert not closure < reference and not reference < closure
        assert frozenset(closure) == reference
        for member in closure:
            assert type(member) is Digraph and member == canonical_form(member)
            assert member in closure and member in reference

    def test_strict_subsets_and_operators(self):
        big = closure_oracle(gen_random_tournament(4, seed=6))
        small = closure_oracle(gen_cycle(3))
        assert small < big and big > small and small != big
        assert _reference_closure(gen_cycle(3)) < big
        assert small | big == big and small & big == small
        assert type(small & big) is frozenset and type(big - small) is frozenset

    def test_membership_is_that_of_the_decoded_members(self):
        closure = closure_oracle(gen_cycle(3))
        path = canonical_form(Digraph(2, ((0, 1),)))
        assert path in closure and len(path.edges) == 1
        cycle = canonical_form(gen_cycle(3))
        assert cycle in closure
        # the same edges in another order make a Digraph the old frozenset
        # did not hold, since Digraph equality compares the edge tuples
        unsorted = Digraph(3, tuple(reversed(cycle.edges)))
        assert unsorted.edges != cycle.edges and unsorted not in closure
        assert unsorted not in frozenset(closure)
        assert None not in closure and (3, 1, 5, 6) not in closure
        assert minor._encode(cycle) not in closure

        class Labelled(Digraph):
            pass

        assert Labelled(cycle.vertex_count, cycle.edges) not in closure

    def test_is_read_only_and_not_hashable(self):
        closure = closure_oracle(gen_cycle(3))
        assert not hasattr(closure, "add") and not hasattr(closure, "__dict__")
        with pytest.raises(TypeError):
            hash(closure)


def _clear_closure_caches():
    minor._canonical.cache_clear()
    minor._canonical_children.cache_clear()


class TestClosureMemo:
    """closure_oracle expands each canonical state through
    `_canonical_children`, whose process-wide cache later hosts share, so a
    closure must not depend on which closures ran before it."""

    def test_every_tournament_labelling_with_cold_and_warm_caches(self):
        # each class's closure with both caches empty, then every labelling
        # of every class after the closures of all the others
        cold = {}
        for n in (5, 4, 3):
            for g in all_tournaments(n):
                form = canonical_form(g)
                if form not in cold:
                    _clear_closure_caches()
                    cold[form] = closure_oracle(g)
        assert len(cold) == 12 + 4 + 2
        for n in (3, 4, 5):
            for g in all_tournaments(n):
                assert closure_oracle(g) == cold[canonical_form(g)], g

    def test_seeded_multi_digraphs_with_cold_and_warm_caches(self):
        rng = random.Random("closure-memo")
        hosts = [_random_multidigraph(rng, rng.randint(1, 5), rng.randint(0, 8))
                 for _ in range(60)]
        assert any(t == h for g in hosts for t, h in g.edges)
        assert any(len(set(g.edges)) < len(g.edges) for g in hosts)
        cold = []
        for g in hosts:
            _clear_closure_caches()
            cold.append(closure_oracle(g))
        for g, closure in zip(reversed(hosts), reversed(cold)):
            assert closure_oracle(g) == closure, g

    @pytest.mark.parametrize("g, size", [
        (Digraph(0, ()), 1),
        (Digraph(1, ((0, 0), (0, 0), (0, 0))), 5),
        (Digraph(6, gen_cycle(6).edges + ((0, 3), (0, 1), (2, 2))), 506),
    ])
    def test_boundary_hosts(self, g, size):
        _clear_closure_caches()
        cold = closure_oracle(g)
        closure_oracle(gen_random_tournament(5, seed=1))
        assert closure_oracle(g) == cold == _reference_closure(g)
        assert len(cold) == size

    def test_memo_keys_are_canonical_states(self, monkeypatch):
        keys = []
        expand = minor._canonical_children

        def recording(*state):
            keys.append(state)
            return expand(*state)

        _clear_closure_caches()
        monkeypatch.setattr(minor, "_canonical_children", recording)
        rng = random.Random("memo-keys")
        for _ in range(20):
            closure_oracle(_random_multidigraph(rng, rng.randint(2, 5), rng.randint(1, 8)))
        assert all(minor._canonical(*key) == key for key in keys)
        info = expand.cache_info()
        assert info.hits and info.currsize == len(set(keys))


class TestMinorMonotonicity:
    def test_pathwidth_never_grows_under_closure_minors(self):
        from digraph_minors.pathdecomp import exact_pathwidth

        # dense closures explode beyond n=5; larger hosts are covered by the
        # op-walk variant below
        rng = random.Random(19)
        for _ in range(6):
            g = gen_random_tournament(rng.randrange(4, 6), seed=rng.randrange(10**9))
            host_pw, _ = exact_pathwidth(g)
            members = sorted(
                closure_oracle(g), key=lambda d: (d.vertex_count, len(d.edges), d.edges)
            )
            for h in rng.sample(members, min(25, len(members))):
                minor_pw, _ = exact_pathwidth(h)
                assert minor_pw <= host_pw

    def test_pathwidth_never_grows_under_random_op_walks(self):
        from digraph_minors.pathdecomp import exact_pathwidth

        rng = random.Random(23)
        for _ in range(20):
            g = gen_random_tournament(8, seed=rng.randrange(10**9))
            host_pw, _ = exact_pathwidth(g)
            cur = g
            for _ in range(rng.randrange(1, 6)):
                ops = []
                if cur.edges:
                    ops.append("edge")
                if cur.vertex_count:
                    ops.append("vertex")
                sc = [
                    s
                    for r in range(2, cur.vertex_count + 1)
                    for s in itertools.combinations(range(cur.vertex_count), r)
                    if induced_strongly_connected(cur, s)
                ]
                if sc:
                    ops.append("contract")
                if not ops:
                    break
                op = ops[rng.randrange(len(ops))]
                if op == "edge":
                    cur = delete_edge(cur, rng.randrange(len(cur.edges)))
                elif op == "vertex":
                    cur = delete_vertex(cur, rng.randrange(cur.vertex_count))
                else:
                    cur, _ = contract(
                        cur, Subdigraph.induced(cur, sc[rng.randrange(len(sc))])
                    )
            minor_pw, _ = exact_pathwidth(cur)
            assert minor_pw <= host_pw


class TestSubdigraphEmbedding:
    def test_positive(self):
        assert find_subdigraph_embedding(gen_transitive(3), gen_transitive(5)) is not None

    def test_negative(self):
        assert find_subdigraph_embedding(gen_cycle(3), gen_transitive(6)) is None

    def test_respects_multiplicity(self):
        doubled = Digraph(2, ((0, 1), (0, 1)))
        assert find_subdigraph_embedding(doubled, Digraph(2, ((0, 1),))) is None
        host = Digraph(3, ((0, 1), (0, 1), (1, 2)))
        emb = find_subdigraph_embedding(doubled, host)
        assert emb == (0, 1)

    def test_agrees_with_brute_force_on_multi_digraphs(self):
        def multi(rng, n, m):
            return Digraph(n, tuple((rng.randrange(n), rng.randrange(n)) for _ in range(m if n else 0)))

        def respects(h, g, image):
            return all(g.multiplicity.get((image[t], image[hd]), 0) >= k
                       for (t, hd), k in h.multiplicity.items())

        rng = random.Random(1206)
        outcomes = set()
        for _ in range(500):
            g = multi(rng, rng.randrange(0, 6), rng.randrange(0, 12))
            h = multi(rng, rng.randrange(0, 5), rng.randrange(0, 6))
            brute = any(respects(h, g, image)
                        for image in itertools.permutations(range(g.vertex_count), h.vertex_count))
            emb = find_subdigraph_embedding(h, g)
            assert (emb is not None) == brute
            if emb is not None:
                assert len(emb) == h.vertex_count == len(set(emb))
                assert all(0 <= x < g.vertex_count for x in emb)
                assert respects(h, g, emb)
            outcomes.add(brute)
        assert outcomes == {True, False}


def test_mapping_json_round_trip():
    g = gen_random_tournament(4, seed=9)
    m = find_minor(delete_vertex(g, 0), g)
    text = m.to_json()
    again = MinorMapping.from_json(text, g)
    assert again == m


_JSON_HOST = gen_random_tournament(4, seed=9)
_VALID = json.loads(find_minor(delete_vertex(_JSON_HOST, 0), _JSON_HOST).to_json())


_REMOVE = object()


def _with(path, value):
    """The valid mapping document with the node at `path` replaced by
    `value`, or removed when `value` is `_REMOVE`."""
    doc = json.loads(json.dumps(_VALID))
    node = doc
    for key in path[:-1]:
        node = node[key]
    if value is _REMOVE:
        del node[path[-1]]
    else:
        node[path[-1]] = value
    return json.dumps(doc)


_MALFORMED_MAPPINGS = {
    "array": "[]",
    "number": "5",
    "null": "null",
    "string": '"branch_sets"',
    "not-json": "{",
    "no-branch-sets": _with(["branch_sets"], _REMOVE),
    "no-witnesses": _with(["witnesses"], _REMOVE),
    "branch-sets-array": _with(["branch_sets"], [[0]]),
    "witnesses-array": _with(["witnesses"], [0]),
    "vertex-keys-from-1": _with(["branch_sets", "0"], _REMOVE),
    "vertex-keys-gap": _with(["branch_sets", "4"], {"vertices": [0], "edges": []}),
    "edge-keys-from-1": _with(["witnesses", "0"], _REMOVE),
    "edge-key-00": _with(["witnesses", "00"], 1),
    "branch-array": _with(["branch_sets", "0"], [0]),
    "branch-without-edges": _with(["branch_sets", "0", "edges"], _REMOVE),
    "vertices-string": _with(["branch_sets", "0", "vertices"], "0"),
    "vertex-float": _with(["branch_sets", "0", "vertices"], [0.0]),
    "vertex-bool": _with(["branch_sets", "0", "vertices"], [True]),
    "vertex-list": _with(["branch_sets", "0", "vertices"], [[0]]),
    "edge-null": _with(["branch_sets", "0", "edges"], [None]),
    "vertex-outside-host": _with(["branch_sets", "0", "vertices"], [7]),
    "witness-string": _with(["witnesses", "0"], "1"),
    "witness-float": _with(["witnesses", "0"], 1.5),
    "witness-object": _with(["witnesses", "0"], {}),
}


@pytest.mark.parametrize("text", _MALFORMED_MAPPINGS.values(), ids=_MALFORMED_MAPPINGS)
def test_mapping_from_json_rejects_malformed_input(text):
    with pytest.raises(ValueError):
        MinorMapping.from_json(text, _JSON_HOST)


def _paths(node, prefix=()):
    yield prefix
    if isinstance(node, dict):
        for key, child in node.items():
            yield from _paths(child, prefix + (key,))


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-1, 6) | st.floats(allow_nan=False) | st.text(max_size=2),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(
        st.sampled_from(["0", "1", "3", "vertices", "edges", "x"]), inner, max_size=3),
    max_leaves=6)


@settings(max_examples=200)
@given(st.sampled_from(list(_paths(_VALID))[1:]), st.one_of(st.just(_REMOVE), _JSON_VALUES))
def test_fuzz_mapping_from_json(path, value):
    """One node of a valid document replaced or removed: either a mapping
    that round-trips or ValueError, never another exception."""
    try:
        mapping = MinorMapping.from_json(_with(list(path), value), _JSON_HOST)
    except ValueError:
        return
    assert MinorMapping.from_json(mapping.to_json(), _JSON_HOST) == mapping
