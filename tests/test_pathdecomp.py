import hashlib
import itertools
import random

import pytest

from digraph_minors.core import (
    Digraph,
    Subdigraph,
    contract,
    delete_edge,
    delete_vertex,
    gen_cycle,
    gen_random_digraph,
    gen_random_tournament,
    gen_transitive,
    induced_strongly_connected,
    is_acyclic,
    is_semi_complete,
)
from digraph_minors.connectivity import (
    PathSystem,
    Separation,
    _max_flow,
    is_valid_path_system,
    max_disjoint_paths,
    min_separation,
)
from digraph_minors import pathdecomp
from digraph_minors.pathdecomp import (
    LexMeasure,
    PathDecomposition,
    _linked_violation,
    build_linked,
    exact_pathwidth,
    normalize,
    transform_delete_edge,
    transform_delete_vertex,
    transform_under_contraction,
    verify,
)
from digraph_minors.minor import _strong_levels
from digraph_minors.experiments import (
    all_semi_complete,
    all_tournaments,
    pathwidth_brute_force,
)


def bags(*sets):
    return PathDecomposition(tuple(frozenset(s) for s in sets))


def random_order_decomposition(g, rng):
    """Introduce the vertices in a random order and forget each one as soon
    as all its out-neighbours are in."""
    n = g.vertex_count
    order = list(range(n))
    rng.shuffle(order)
    introduced, bag, out_bags = 0, set(), []
    for v in order:
        bag.add(v)
        introduced |= 1 << v
        out_bags.append(frozenset(bag))
        for u in sorted(bag, reverse=True):
            if not g.out_mask[u] & ~introduced:
                bag.discard(u)
                out_bags.append(frozenset(bag))
    return PathDecomposition(tuple(out_bags))


def random_semi_complete(n, rng):
    """Each pair of vertices gets one of its two orientations, or both."""
    edges = []
    for u, v in itertools.combinations(range(n), 2):
        kind = rng.randrange(3)
        if kind != 1:
            edges.append((u, v))
        if kind != 0:
            edges.append((v, u))
    return Digraph(n, tuple(edges))


class TestVerify:
    def test_reversed_singletons_valid_for_one_edge(self):
        g = Digraph(2, ((0, 1),))
        report = verify(g, bags({1}, {0}))
        assert report.valid and report.pathwidth == 0

    def test_forward_singletons_fail_cut(self):
        g = Digraph(2, ((0, 1),))
        report = verify(g, bags({0}, {1}))
        assert not report.cut_ok and report.cut_violation == 0
        assert report.coverage_ok and report.betweenness_ok

    def test_betweenness_violation(self):
        report = verify(gen_cycle(3), bags({0, 1}, {1, 2}, {2, 0}))
        assert not report.betweenness_ok
        assert report.betweenness_violation is not None

    def test_coverage_violation(self):
        report = verify(gen_cycle(3), bags({0, 1}))
        assert not report.coverage_ok and report.missing_vertices == {2}

    def test_out_of_range_bag(self):
        with pytest.raises(ValueError):
            verify(gen_cycle(3), bags({0, 5}))

    def test_witness_separation_small(self):
        # two bags forced to share nothing: linked condition fails
        g = Digraph(4, ((1, 0), (3, 2)))
        p = bags({0, 1}, {1, 2}, {2, 3})
        report = verify(g, p, check_linked=True)
        assert report.valid
        assert report.linked is not None and not report.linked.linked_ok
        h, j, t, sep = report.linked.witness
        assert sep.order < t

    def test_report_json_fields(self):
        g = Digraph(2, ((0, 1),))
        import json

        data = json.loads(
            verify(
                g,
                bags(frozenset(), {1}, frozenset(), {0}, frozenset()),
                True,
            ).to_json()
        )
        assert data["schema"] == "verify-report/1"
        assert data["valid"] is True
        assert data["linked"]["increment_ok"] is True
        assert data["linked"]["cardinality_ok"] is True


class TestNormalize:
    def test_noop_on_normalized(self):
        g = Digraph(2, ((0, 1),))
        p = bags({1}, {0})
        q = normalize(g, p)
        # single-step bags differ by one vertex... {1}->{0} differs by 2, so
        # normalize inserts the intersection
        assert q.bags == (frozenset({1}), frozenset(), frozenset({0}))
        assert normalize(g, q) == q

    def test_duplicate_removal(self):
        g = Digraph(2, ((1, 0), (0, 1)))
        p = bags({0, 1}, {0, 1})
        assert normalize(g, p).bags == (frozenset({0, 1}),)

    def test_down_then_up_shape(self):
        g = Digraph(4, ())
        p = bags({0, 1}, {2, 3})
        q = normalize(g, p)
        assert [len(b) for b in q.bags] == [2, 1, 0, 1, 2]
        assert q.bags[1] == frozenset({0})  # departures leave in descending order
        assert q.bags[3] == frozenset({2})  # arrivals join in ascending order
        assert q.first == p.first and q.last == p.last

    def test_preserves_validity_and_width(self):
        rng = random.Random(3)
        for _ in range(25):
            n = rng.randrange(1, 7)
            g = gen_random_tournament(n, seed=rng.randrange(10**9))
            _, p = exact_pathwidth(g)
            # coarsen by unioning adjacent bags, then renormalize
            merged = [p.bags[0]]
            for b in p.bags[1:]:
                if rng.random() < 0.5:
                    merged[-1] = merged[-1] | b
                else:
                    merged.append(b)
            coarse = PathDecomposition(tuple(merged))
            assert verify(g, coarse).valid
            q = normalize(g, coarse)
            report = verify(g, q, check_linked=True)
            assert report.valid and report.linked.increment_ok
            assert q.max_bag <= coarse.max_bag

    def test_rejects_invalid(self):
        with pytest.raises(ValueError):
            normalize(Digraph(2, ((0, 1),)), bags({0}, {1}))


class TestExactPathwidth:
    def test_transitive_zero(self):
        for n in range(1, 11):
            pw, p = exact_pathwidth(gen_transitive(n))
            assert pw == 0
            assert verify(gen_transitive(n), p).valid

    def test_cycle_is_one(self):
        pw, _ = exact_pathwidth(gen_cycle(3))
        assert pw == 1
        assert pathwidth_brute_force(gen_cycle(3)) == 1

    def test_null_digraph(self):
        pw, p = exact_pathwidth(Digraph(0, ()))
        assert pw == -1 and p.bags == (frozenset(),)

    def test_loops_rejected(self):
        with pytest.raises(ValueError):
            exact_pathwidth(Digraph(1, ((0, 0),)))

    def test_matches_brute_force_on_tournaments(self):
        for seed in range(15):
            g = gen_random_tournament(7, seed=seed)
            pw, p = exact_pathwidth(g)
            assert pw == pathwidth_brute_force(g)
            assert verify(g, p).valid and p.width == pw

    def test_zero_iff_acyclic_exhaustive_small(self):
        for n in range(1, 5):
            pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
            for bits in range(1 << len(pairs)):
                edges = tuple(p for i, p in enumerate(pairs) if bits >> i & 1)
                g = Digraph(n, edges)
                pw, _ = exact_pathwidth(g)
                assert (pw == 0) == is_acyclic(g)

    def test_zero_iff_acyclic_random_tournaments(self):
        for seed in range(10):
            g = gen_random_tournament(8, seed=seed)
            pw, _ = exact_pathwidth(g)
            assert (pw == 0) == is_acyclic(g)


class TestTransforms:
    def test_delete_isolated_vertex(self):
        g = Digraph(3, ((0, 1),))
        p = bags({1, 2}, {0, 2})
        q = transform_delete_vertex(g, p, 2)
        assert verify(delete_vertex(g, 2), q).valid
        assert q.bags == (frozenset({1}), frozenset({0}))

    def test_delete_edge_keeps_decomposition(self):
        g = gen_cycle(3)
        _, p = exact_pathwidth(g)
        q = transform_delete_edge(g, p, 0)
        assert q == p
        assert verify(delete_edge(g, 0), q).valid

    def test_delete_ubiquitous_vertex_drops_width(self):
        g = gen_cycle(3)
        p = bags({0, 1, 2}, {0, 1, 2})
        assert verify(g, p).valid
        q = transform_delete_vertex(g, p, 2)
        assert q.width == p.width - 1

    def test_random_vertex_deletions(self):
        rng = random.Random(11)
        for _ in range(20):
            n = rng.randrange(2, 8)
            g = gen_random_tournament(n, seed=rng.randrange(10**9))
            _, p = exact_pathwidth(g)
            v = rng.randrange(n)
            q = transform_delete_vertex(g, p, v)
            assert verify(delete_vertex(g, v), q).valid
            assert q.width <= p.width

    def test_contraction_single_vertex(self):
        g = gen_random_tournament(5, seed=2)
        _, p = exact_pathwidth(g)
        q = transform_under_contraction(g, p, Subdigraph.induced(g, {3}))
        g2, _ = contract(g, Subdigraph.induced(g, {3}))
        assert verify(g2, q).valid and q.width <= p.width

    def test_contract_whole_cycle(self):
        g = gen_cycle(3)
        p = bags({0, 1}, {1, 2})
        q = transform_under_contraction(g, p, Subdigraph.induced(g, {0, 1, 2}))
        g2, w = contract(g, Subdigraph.induced(g, {0, 1, 2}))
        assert g2.vertex_count == 1
        assert q.bags == (frozenset({0}), frozenset({0}))
        assert verify(g2, q).valid and q.width == 0

    def test_contraction_random_property(self):
        rng = random.Random(21)
        done = 0
        while done < 20:
            n = rng.randrange(3, 8)
            g = gen_random_tournament(n, seed=rng.randrange(10**9))
            subsets = [
                s
                for r in range(2, n + 1)
                for s in itertools.combinations(range(n), r)
                if induced_strongly_connected(g, s)
            ]
            if not subsets:
                continue
            s = subsets[rng.randrange(len(subsets))]
            _, p = exact_pathwidth(g)
            h = Subdigraph.induced(g, s)
            q = transform_under_contraction(g, p, h)
            g2, _ = contract(g, h)
            assert verify(g2, q).valid
            assert q.width <= p.width
            done += 1

    def test_contraction_requires_strong_connectivity(self):
        g = gen_transitive(3)
        _, p = exact_pathwidth(g)
        with pytest.raises(ValueError):
            transform_under_contraction(g, p, Subdigraph.induced(g, {0, 1}))


def _contract_reference(g, h):
    """The reference for `core.contract`: the same contraction, with its own
    copy of the numbering."""
    inside = h.vertices
    keep = [v for v in range(g.vertex_count) if v not in inside]
    remap = {v: i for i, v in enumerate(keep)}
    w = len(keep)
    edges = []
    for t, hd in g.edges:
        tin, hin = t in inside, hd in inside
        if tin and hin:
            continue
        edges.append((w if tin else remap[t], w if hin else remap[hd]))
    return Digraph(w + 1, tuple(edges)), w


def _transform_reference(g, p, h):
    """The reference for `transform_under_contraction`: w added by hand to
    the interval of bags that meet the contracted set."""
    touched = [i for i, bag in enumerate(p.bags) if bag & h.vertices]
    inside = h.vertices
    keep = [v for v in range(g.vertex_count) if v not in inside]
    remap = {v: i for i, v in enumerate(keep)}
    w = len(keep)
    lo, hi = touched[0], touched[-1]
    out = []
    for i, bag in enumerate(p.bags):
        newbag = {remap[v] for v in bag if v not in inside}
        if lo <= i <= hi:
            newbag.add(w)
        out.append(frozenset(newbag))
    return PathDecomposition(tuple(out))


def _edge_subsets(n, loops):
    pairs = [(t, h) for t in range(n) for h in range(n) if loops or t != h]
    for bits in range(1 << len(pairs)):
        yield [e for i, e in enumerate(pairs) if bits >> i & 1]


def test_contraction_numbering_matches_the_reference_exhaustively():
    # every digraph on at most 3 vertices, loops included, and every
    # loopless one on 4, contracted at each strong vertex set that the
    # closure contracts (and at each single vertex)
    graphs = [Digraph(n, tuple(edges))
              for n in range(4) for edges in _edge_subsets(n, loops=True)]
    graphs += [Digraph(4, tuple(edges)) for edges in _edge_subsets(4, loops=False)]
    contracted = 0
    for g in graphs:
        n = g.vertex_count
        loopless = all(t != hd for t, hd in g.edges)
        p = exact_pathwidth(g)[1] if loopless else None
        for level in _strong_levels(n, g.out_mask, g.in_mask):
            for mask, _, _ in level:
                h = Subdigraph.induced(g, [v for v in range(n) if mask >> v & 1])
                assert contract(g, h) == _contract_reference(g, h), (g, mask)
                if p is not None:
                    assert (transform_under_contraction(g, p, h)
                            == _transform_reference(g, p, h)), (g, mask)
                contracted += 1
    assert contracted == 30_844


class TestBuildLinked:
    def test_already_linked_unchanged_up_to_normalization(self):
        g = gen_random_tournament(5, seed=8)
        _, p = exact_pathwidth(g)
        lp = build_linked(g, p, frozenset(), frozenset())
        again = build_linked(g, lp, frozenset(), frozenset())
        assert again == lp

    def test_cycle_with_empty_ends(self):
        g = gen_cycle(3)
        p = normalize(g, PathDecomposition(
            (frozenset(), frozenset({0, 1}), frozenset({1, 2}), frozenset())
        ))
        lp = build_linked(g, p, frozenset(), frozenset())
        report = verify(g, lp, check_linked=True)
        assert report.valid and report.linked.linked_ok
        assert lp.max_bag <= 2

    def test_preserves_ends_and_width(self):
        rng = random.Random(31)
        for _ in range(25):
            n = rng.randrange(1, 11)
            g = gen_random_tournament(n, seed=rng.randrange(10**9))
            _, p = exact_pathwidth(g)
            lp = build_linked(g, p, frozenset(), frozenset())
            report = verify(g, lp, check_linked=True)
            assert report.valid
            assert report.linked.increment_ok
            assert report.linked.cardinality_ok
            assert report.linked.linked_ok
            assert lp.first == frozenset() and lp.last == frozenset()
            assert lp.max_bag <= max(p.max_bag, 1)
            assert lp.r - 1 == 2 * (n - lp.min_bag)

    def test_nonempty_endpoints(self):
        g = gen_random_tournament(6, seed=77)
        u, v = 0, 5
        p = PathDecomposition(
            (frozenset({u}), frozenset(range(6)), frozenset({v}))
        )
        lp = build_linked(g, p, frozenset({u}), frozenset({v}))
        report = verify(g, lp, check_linked=True)
        assert report.valid and report.linked.linked_ok
        assert lp.first == frozenset({u}) and lp.last == frozenset({v})
        assert lp.min_bag == 1

    def test_repairs_badly_ordered_decompositions(self):
        # decompositions from random introduction orders are reliably
        # unlinked, forcing the window-repair loop to run
        rng = random.Random(7)
        for _ in range(40):
            n = rng.randrange(4, 11)
            g = gen_random_tournament(n, seed=rng.randrange(10**9))
            p = random_order_decomposition(g, rng)
            lp = build_linked(g, p, frozenset(), frozenset())
            report = verify(g, lp, check_linked=True)
            assert report.valid and report.linked.linked_ok
            assert lp.max_bag <= p.max_bag
            assert lp.r - 1 == 2 * (n - lp.min_bag)

    def test_invalid_repair_fails_loudly(self, monkeypatch):
        # with the sides of its separation swapped, the window repair builds
        # an invalid decomposition, which the repair loop must refuse
        def swapped(g, a, b):
            sep = min_separation(g, a, b)
            return Separation(sep.d, sep.c, sep.order)

        monkeypatch.setattr(pathdecomp, "min_separation", swapped)
        g = gen_random_tournament(7, seed=0)
        p = random_order_decomposition(g, random.Random(0))
        with pytest.raises(AssertionError, match="window repair produced an invalid"):
            build_linked(g, p, frozenset(), frozenset())

    def test_mismatched_ends_rejected(self):
        g = gen_random_tournament(4, seed=1)
        _, p = exact_pathwidth(g)
        with pytest.raises(ValueError):
            build_linked(g, p, frozenset({0}), frozenset({1}))

    def test_requires_semi_complete(self):
        g = Digraph(3, ((0, 1),))
        with pytest.raises(ValueError):
            build_linked(g, bags({1}, {0}, {2}), frozenset(), frozenset())


def test_lex_measure_counts_sum_to_r():
    g = gen_random_tournament(6, seed=4)
    _, p = exact_pathwidth(g)
    lm = LexMeasure.of(p, p.max_bag)
    assert sum(lm.counts) == p.r


def test_decomposition_json_round_trip():
    p = bags({0, 1}, {1}, {1, 2})
    q = PathDecomposition.from_json(p.to_json())
    assert q == p


def full_scan_linked_violation(g, bags):
    """Reference for _linked_violation: one uncapped flow for every window."""
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


def widened(p, rng):
    """p with each vertex's interval of bags stretched by a random amount at
    either end: still a valid decomposition of the same digraph."""
    first, last = {}, {}
    for i, bag in enumerate(p.bags):
        for v in bag:
            first.setdefault(v, i)
            last[v] = i
    r = p.r
    seq = [set() for _ in range(r)]
    for v in first:
        lo = max(0, first[v] - rng.randrange(3))
        hi = min(r - 1, last[v] + rng.randrange(3))
        for i in range(lo, hi + 1):
            seq[i].add(v)
    return PathDecomposition(tuple(frozenset(b) for b in seq))


def linked_check_cases(count, seed):
    """Valid decompositions of semi-complete and sparser general digraphs:
    random introduction orders, their linked repairs where build_linked
    applies, and both with randomly widened vertex intervals."""
    rng = random.Random(seed)
    for i in range(count):
        n = rng.randrange(1, 10)
        if i % 2:
            g = random_semi_complete(n, rng)
        else:
            g = gen_random_digraph(n, rng.randrange(1 << 30), rng.choice((0.2, 0.4)))
        p = random_order_decomposition(g, rng)
        if rng.random() < 0.5:
            p = normalize(g, p)
        yield g, p
        if i % 2:
            p = build_linked(g, p, frozenset(), frozenset())
            yield g, p
        yield g, widened(p, rng)


class TestLinkedViolation:
    def test_matches_the_full_scan(self):
        rng = random.Random(5)
        outcomes = set()
        for _ in range(120):
            n = rng.randrange(1, 11)
            g = random_semi_complete(n, rng)
            p = random_order_decomposition(g, rng)
            if rng.random() < 0.5:
                p = normalize(g, p)
            seq = list(p.bags)
            for _ in range(rng.randrange(3)):
                i = rng.randrange(len(seq))
                seq.insert(i, seq[i])
            if rng.random() < 0.5:
                seq = [frozenset(), *seq, frozenset()]
            p = PathDecomposition(tuple(seq))
            assert verify(g, p).valid
            for q in (p, build_linked(g, p, frozenset(), frozenset())):
                expected = full_scan_linked_violation(g, q.bags)
                assert _linked_violation(g, q.bags) == expected
                outcomes.add(expected is None)
        assert outcomes == {True, False}

    def test_matches_the_full_scan_on_general_digraphs(self):
        # (semi-complete, linked) -> number of decompositions
        outcomes = dict.fromkeys(itertools.product((True, False), repeat=2), 0)
        for g, p in linked_check_cases(600, seed=23):
            assert verify(g, p).valid
            expected = full_scan_linked_violation(g, p.bags)
            assert _linked_violation(g, p.bags) == expected
            outcomes[is_semi_complete(g), expected is None] += 1
        assert min(outcomes.values()) >= 100

    def test_first_window_from_a_later_smaller_bag(self):
        # the check at bag 1 (t = 3) fails first in bag order, with L = 1, but
        # the first failing window [0, 3] comes from bag 3's check (t = 1, L = 0)
        g = Digraph(4, ((0, 1), (1, 0), (0, 2), (3, 0), (1, 2), (3, 1), (3, 2)))
        p = bags({0, 1}, {0, 1, 2}, {0, 1, 3}, {3})
        assert is_semi_complete(g) and verify(g, p).valid
        assert _linked_violation(g, p.bags) == full_scan_linked_violation(g, p.bags) == (0, 3, 1)

    def test_at_most_one_flow_per_widest_window_on_linked_decompositions(self, flow_limits):
        passes = 0
        for g, p in linked_check_cases(80, seed=29):
            flow_limits.clear()
            if _linked_violation(g, p.bags) is None:
                passes += 1
                assert len(flow_limits) <= len(widest_windows(p.bags)) <= p.r
                assert all(limit is not None for limit in flow_limits)
        assert passes >= 40

    def test_one_window_search_on_failing_decompositions(self, flow_limits):
        # at most r checks, then for one h a flow per run of equal window
        # minimum and a binary search.  The staircase of prefix bags before an
        # empty one passes its checks without a flow, while a search of every
        # h before the failing window {10} -> {11} would pay a flow per run.
        steps = [*range(1, 11), *range(9, 0, -1)]
        staircase = bags(*(range(s) for s in steps), (), {10}, {11})
        edgeless = Digraph(12, ())
        assert full_scan_linked_violation(edgeless, staircase.bags) == (20, 21, 1)
        failures = 0
        for g, p in [(edgeless, staircase), *linked_check_cases(80, seed=29)]:
            flow_limits.clear()
            if _linked_violation(g, p.bags) is not None:
                failures += 1
                assert len(flow_limits) <= 2 * p.r + p.r.bit_length()
        assert failures >= 40


def widest_windows(bags):
    """The distinct windows [L_i, R_i] over the nonempty bags i: the widest
    window around i whose bags all hold at least |W_i| vertices."""
    sizes = [len(bag) for bag in bags]
    windows = set()
    for i, t in enumerate(sizes):
        if t:
            lo = max((j + 1 for j in range(i) if sizes[j] < t), default=0)
            hi = min((j for j in range(i, len(sizes)) if sizes[j] < t), default=len(sizes))
            windows.add((lo, hi - 1))
    return windows


@pytest.fixture
def flow_limits(monkeypatch):
    """The limit of every _max_flow call pathdecomp makes."""
    limits = []

    def counted(*args, **kwargs):
        limits.append(kwargs.get("limit"))
        return _max_flow(*args, **kwargs)

    monkeypatch.setattr(pathdecomp, "_max_flow", counted)
    return limits


def flow_cases():
    rng = random.Random(9)
    for i in range(200):
        n = rng.randrange(1, 9)
        if i % 2:
            g = random_semi_complete(n, rng)
        else:
            g = gen_random_digraph(n, rng.randrange(1 << 30), 0.3)
        a = frozenset(rng.sample(range(n), rng.randrange(n + 1)))
        b = frozenset(rng.sample(range(n), rng.randrange(n + 1)))
        yield g, a, b


def search_only_max_flow(g, a, b, limit=None):
    """Reference for _max_flow: the same flow before the vertices of a ∩ b
    were taken as zero-length paths ahead of the first search."""
    n = g.vertex_count
    outs = [mask & ~(1 << v) for v, mask in enumerate(g.out_mask)]
    starts = sorted(set(a))
    sources = sum(1 << v for v in starts)
    sinks = sum(1 << v for v in set(b))
    pred = [None] * n
    succ = [None] * n
    seen_in = seen_out = augmented = 0
    while augmented != limit:
        parent = [-1] * (2 * n)
        queue = [2 * v for v in starts]
        seen_in, seen_out = sources, 0
        for node in queue:
            v = node >> 1
            if not node & 1:
                p = v if pred[v] is None else pred[v]
                if p >= 0 and not seen_out >> p & 1:
                    seen_out |= 1 << p
                    parent[2 * p + 1] = node
                    queue.append(2 * p + 1)
                continue
            if sinks >> v & 1:
                break
            if succ[v] is not None and not seen_in >> v & 1:
                seen_in |= 1 << v
                parent[node - 1] = node
                queue.append(node - 1)
            heads = outs[v] & ~seen_in
            seen_in |= heads
            while heads:
                low = heads & -heads
                heads ^= low
                h_in = 2 * low.bit_length() - 2
                parent[h_in] = node
                queue.append(h_in)
        else:
            break
        augmented += 1
        succ[v] = -1
        node = 2 * v + 1
        while node >= 0:
            prev = parent[node]
            v, u = node >> 1, prev >> 1
            if prev < 0:
                pred[v] = -1
            elif u != v and node & 1:
                if pred[u] == v:
                    pred[u] = None
                if succ[v] == u:
                    succ[v] = None
            elif u != v:
                succ[u], pred[v] = v, u
            node = prev
    paths = []
    for v in starts:
        if pred[v] == -1:
            path = [v]
            while succ[path[-1]] != -1:
                path.append(succ[path[-1]])
            paths.append(tuple(path))
    return tuple(paths), (seen_in, seen_out)


class TestCappedFlow:
    def test_shared_vertices_keep_the_search_only_paths(self):
        # the paths match at every limit; the reach does too, except that no
        # search runs, and the reach is empty, when a ∩ b alone meets the limit
        met_by_shared = 0
        for g, a, b in flow_cases():
            kappa = len(_max_flow(g, a, b)[0])
            for limit in (None, *range(kappa + 2)):
                paths, reach = _max_flow(g, a, b, limit=limit)
                expected, expected_reach = search_only_max_flow(g, a, b, limit=limit)
                assert paths == expected
                if limit is not None and len(a & b) >= limit:
                    met_by_shared += limit > 0
                    assert reach == (0, 0)
                else:
                    assert reach == expected_reach
        assert met_by_shared >= 50

    def test_limit_caps_the_path_count(self):
        for g, a, b in flow_cases():
            paths, _ = _max_flow(g, a, b)
            kappa = len(paths)
            for t in range(kappa + 2):
                capped, _ = _max_flow(g, a, b, limit=t)
                assert len(capped) == min(t, kappa)
                assert is_valid_path_system(g, PathSystem(capped))
                assert all(path[0] in a and path[-1] in b for path in capped)
                if t >= kappa:
                    assert capped == paths

    def test_no_limit_keeps_the_paths(self):
        # sha256 of the path systems max_disjoint_paths gave on these cases
        # before _max_flow took a limit
        paths = [_max_flow(g, a, b, limit=None)[0] for g, a, b in flow_cases()]
        assert [max_disjoint_paths(g, a, b).paths for g, a, b in flow_cases()] == paths
        digest = hashlib.sha256(repr(paths).encode()).hexdigest()
        assert digest == "105ed8fe289dba00c8b403596b8cc8071b40f65decf678595487a684855634bf"


def three_table_pathwidth(g):
    """Reference for exact_pathwidth: the DP with boundary, best and choice
    tables, whose tie-break (lowest vertex attaining the minimum) and
    decomposition the two-table DP must reproduce."""
    n = g.vertex_count
    if n == 0:
        return -1, PathDecomposition((frozenset(),))
    out_mask = g.out_mask
    full = (1 << n) - 1
    boundary_size = [0] * (full + 1)
    for mask in range(1, full + 1):
        boundary_size[mask] = sum(
            1 for v in range(n) if mask >> v & 1 and out_mask[v] & ~mask
        )
    best = [0] * (full + 1)
    choice = [-1] * (full + 1)
    for mask in range(1, full + 1):
        cost = None
        for v in range(n):
            if mask >> v & 1:
                prev = mask & ~(1 << v)
                c = max(best[prev], boundary_size[prev])
                if cost is None or c < cost:
                    cost, choice[mask] = c, v
        best[mask] = cost
    order = []
    mask = full
    while mask:
        order.append(choice[mask])
        mask &= ~(1 << choice[mask])
    order.reverse()
    out_bags, introduced, bag = [], 0, set()
    for v in order:
        bag.add(v)
        introduced |= 1 << v
        out_bags.append(frozenset(bag))
        for u in sorted(bag, reverse=True):
            if not (out_mask[u] & ~introduced):
                bag.discard(u)
                out_bags.append(frozenset(bag))
    return best[full], PathDecomposition(tuple(out_bags))


def assert_same_dp(g):
    width, p = exact_pathwidth(g)
    ref_width, ref = three_table_pathwidth(g)
    assert width == ref_width and p.to_json() == ref.to_json()
    return width


class TestDPTieBreak:
    def test_small_exhaustive(self):
        for n in range(6):
            for g in all_tournaments(n):
                assert_same_dp(g)
        for n in range(1, 5):
            for g in all_semi_complete(n):
                assert_same_dp(g)

    def test_seeded_digraphs(self):
        rng = random.Random(17)
        for i in range(300):
            n = rng.randrange(1, 11)
            if i % 2:
                g = random_semi_complete(n, rng)
            else:
                g = gen_random_digraph(n, rng.randrange(1 << 30), rng.choice((0.2, 0.5)))
            width = assert_same_dp(g)
            if n <= 6 and i % 3 == 0:
                assert width == pathwidth_brute_force(g)

    @pytest.mark.parametrize("p", [0.15, 0.6])
    def test_seeded_multi_digraphs(self, p):
        # parallel copies of a random third of the edges, up to 12 vertices
        rng = random.Random(23 if p < 0.5 else 29)
        for i in range(40):
            n = 12 if i < 6 else rng.randrange(1, 12)
            g = gen_random_digraph(n, rng.randrange(1 << 30), p)
            g = Digraph(n, g.edges + tuple(e for e in g.edges if rng.random() < 1 / 3))
            assert_same_dp(g)

    @pytest.mark.parametrize("shape, expected", [
        ("complete_symmetric", 19),
        ("transitive", 0),
        ("edgeless", 0),
        ("cycle", 1),
    ])
    def test_shapes_at_the_cap(self, shape, expected):
        n = pathdecomp.PATHWIDTH_MAX_VERTICES
        g = {
            "complete_symmetric": lambda: Digraph(
                n, tuple((u, v) for u in range(n) for v in range(n) if u != v)),
            "transitive": lambda: gen_transitive(n),
            "edgeless": lambda: Digraph(n, ()),
            "cycle": lambda: gen_cycle(n),
        }[shape]()
        width, p = exact_pathwidth(g)
        assert width == expected == p.max_bag - 1
        assert verify(g, p).valid
