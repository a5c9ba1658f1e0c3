"""Tests of the benchmark's own checkers and input generation.

    python3 -m pytest benchmark/test_checks.py -q
"""

from __future__ import annotations

import json
import random
import sys
from itertools import combinations, permutations
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import inputs  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent

# A directed triangle 0 -> 1 -> 2 -> 0 with a fourth vertex on a 2-cycle with
# it: edges 0..2 are the triangle, 3 is 2 -> 3 and 4 is 3 -> 0.
HOST = (4, ((0, 1), (1, 2), (2, 0), (2, 3), (3, 0)))
PATTERN = (2, ((0, 1), (1, 0)))


def mapping(branches, witnesses):
    return json.dumps({
        "schema": "minor-mapping/1",
        "branch_sets": {str(v): {"vertices": sorted(vs), "edges": sorted(es)}
                        for v, (vs, es) in enumerate(branches)},
        "witnesses": {str(i): w for i, w in enumerate(witnesses)},
    })


def test_mapping_checker_accepts_a_valid_certificate():
    good = mapping([({0, 1, 2}, {0, 1, 2}), ({3}, set())], [3, 4])
    assert checks.check_mapping(PATTERN, HOST, good) == []


def test_mapping_checker_rejects_broken_certificates():
    broken = {
        "not strongly connected": mapping([({0, 1, 2}, {0, 1}), ({3}, set())], [3, 4]),
        "share a witness": mapping([({0, 1, 2}, {0, 1, 2}), ({3}, set())], [3, 3]),
        "inside a branch": mapping([({0, 1, 2}, {0, 1, 2}), ({3}, set())], [3, 0]),
        "share vertices": mapping([({0, 1, 2}, {0, 1, 2}), ({2, 3}, set())], [3, 4]),
        "does not run from": mapping([({0, 1, 2}, {0, 1, 2}), ({3}, set())], [4, 3]),
    }
    for expected, text in broken.items():
        problems = checks.check_mapping(PATTERN, HOST, text)
        assert any(expected in p for p in problems), (expected, problems)


def brute_force_minor(pattern, host) -> bool:
    """Tournament pattern into any host, straight from the definition."""
    k, p_edges = pattern
    n, h_edges = host
    branch_sets = [frozenset(c) for size in range(1, n + 1)
                   for c in combinations(range(n), size)
                   if inputs.strongly_connected(c, h_edges)]

    def joined(a, b):
        return any(t in a and h in b for t, h in h_edges)

    def place(assigned, used):
        i = len(assigned)
        if i == k:
            return True
        for s in branch_sets:
            if s & used:
                continue
            if all(joined(assigned[a], s) for a, b in p_edges if b == i and a < i) and \
                    all(joined(s, assigned[b]) for a, b in p_edges if a == i and b < i):
                if place(assigned + [s], used | s):
                    return True
        return False

    return place([], frozenset())


def test_tournament_minor_agrees_with_the_definition():
    rng = random.Random(11)
    outcomes = set()
    for _ in range(150):
        k = rng.choice((3, 4))
        n = k + rng.choice((0, 1, 2))
        host = inputs.random_tournament(n, rng)
        if rng.random() < 0.5:
            pattern = inputs.derived_tournament_minor(host, k, rng)
        else:
            pattern = inputs.random_tournament(k, rng)
        expected = brute_force_minor(pattern, host)
        assert checks.tournament_minor(pattern, host) == expected, (pattern, host)
        outcomes.add(expected)
    assert outcomes == {True, False}


def test_derived_patterns_are_minors():
    rng = random.Random(5)
    for _ in range(40):
        host = inputs.random_tournament(6, rng)
        assert brute_force_minor(inputs.derived_tournament_minor(host, 4, rng), host)


def test_decomposition_checker_rejects_broken_decompositions():
    g = (3, ((0, 1), (1, 2)))
    assert checks.check_decomposition(g, [(1, 2), (0, 1)]) == []
    cut = checks.check_decomposition(g, [(0,), (1,), (1, 2)])
    assert any("cut condition" in p for p in cut), cut
    gap = checks.check_decomposition(g, [(1, 2), (0, 1), (0,), (0, 1)])
    assert any("leaves bag" in p for p in gap), gap
    missing = checks.check_decomposition(g, [(1, 2), (1,)])
    assert any("in no bag" in p for p in missing), missing


def test_disjoint_paths_counts_exactly():
    # 0 and 1 reach 3 and 4 only through 2
    out_adj = [{2}, {2}, {3, 4}, set(), set()]
    assert checks.disjoint_paths_at_least(out_adj, {0, 1}, {3, 4}, 1)
    assert not checks.disjoint_paths_at_least(out_adj, {0, 1}, {3, 4}, 2)
    # a vertex in both ends is a path of its own
    out_adj = [{2}, {3}, {3}, set()]
    assert checks.disjoint_paths_at_least(out_adj, {0, 1}, {1, 3}, 2)
    assert not checks.disjoint_paths_at_least(out_adj, {0, 1}, {1, 3}, 3)


def brute_force_disjoint_paths(out_adj, sources, sinks) -> int:
    """Largest set of vertex-disjoint paths that start in `sources`, end in
    `sinks` and meet neither elsewhere, by trying every packing."""
    paths = []

    def extend(path):
        v = path[-1]
        if v in sinks:
            paths.append(frozenset(path))
            return
        for w in out_adj[v]:
            if w not in path and w not in sources:
                extend(path + [w])

    for a in sources:
        extend([a])

    def pack(rest, used):
        best = 0
        for i, p in enumerate(rest):
            if not p & used:
                best = max(best, 1 + pack(rest[i + 1:], used | p))
        return best

    return pack(paths, frozenset())


def test_disjoint_paths_agree_with_brute_force():
    rng = random.Random(3)
    for _ in range(200):
        n = 7
        out_adj = [{w for w in range(n) if w != v and rng.random() < 0.3} for v in range(n)]
        sources = set(rng.sample(range(n), rng.randint(1, 3)))
        sinks = set(rng.sample(range(n), rng.randint(1, 3)))
        best = brute_force_disjoint_paths(out_adj, sources, sinks)
        assert checks.disjoint_paths_at_least(out_adj, sources, sinks, best)
        assert not checks.disjoint_paths_at_least(out_adj, sources, sinks, best + 1)


def test_linked_checker_accepts_a_linked_decomposition():
    g = (3, ((0, 1), (1, 0), (1, 2), (2, 1)))
    bags = [(), (0,), (0, 1), (1,), (1, 2), (2,), ()]
    assert checks.check_decomposition(g, bags) == []
    assert checks.check_linked(g, bags) == []


def test_linked_checker_rejects_a_window_short_of_paths():
    g = (5, ((0, 2), (1, 2), (2, 3), (2, 4)))
    bags = [(0, 1), (0, 1, 2), (0, 2), (0, 2, 3), (2, 3), (2, 3, 4), (3, 4)]
    problems = checks.check_linked(g, bags, (0, 1), (3, 4))
    assert any("disjoint paths" in p for p in problems), problems


def test_linked_checker_rejects_other_conditions():
    g = (2, ((0, 1), (1, 0)))
    assert any("end bags" in p for p in checks.check_linked(g, [(), (0,), (0, 1), (1,)]))
    assert any("one vertex" in p for p in checks.check_linked(g, [(), (0, 1), ()]))


def test_order_decompositions_are_valid():
    rng = random.Random(3)
    for _ in range(30):
        n = rng.randint(1, 9)
        g = inputs.random_semi_complete(n, rng.randint(0, n // 2), rng)
        order = list(range(n))
        rng.shuffle(order)
        bags = inputs.order_decomposition(g, order)
        assert checks.check_decomposition(g, bags) == []
        assert bags[0] == bags[-1] == ()
        assert all(len(set(a) ^ set(b)) == 1 for a, b in zip(bags, bags[1:]))


def test_same_seed_gives_byte_identical_inputs():
    for name, generate in inputs.GENERATORS.items():
        first, again, other = generate(7), generate(7), generate(8)
        assert repr(first).encode() == repr(again).encode(), name
        assert first != other, name


def test_tournament_class_table_is_complete():
    for n, codes in inputs.TOURNAMENT_CLASSES.items():
        pairs = list(combinations(range(n), 2))

        def canonical(code):
            edges = inputs.tournament_from_code(n, code)[1]
            return min(
                sum(1 << pairs.index((p[t], p[h])) for t, h in edges if p[t] < p[h])
                for p in permutations(range(n)))

        classes = {canonical(c) for c in range(1 << len(pairs))}
        assert sorted(codes) == sorted(classes), n


def test_benchmark_json_names_the_runner_metrics():
    sys.path.insert(0, str(ROOT / "benchmark"))
    import run
    import spans
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(spans.PER_LAYER)
