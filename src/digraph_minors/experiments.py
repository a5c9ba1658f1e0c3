"""Experiment harness and the independent oracles it leans on.

The oracles here deliberately avoid the production algorithms: path-width is
re-derived by exhaustive search over normalized bag sequences, and minor
containment is cross-checked against the operational closure.  Each
experiment returns a JSON-ready report dict, deterministic for a fixed seed.
"""

from __future__ import annotations

import inspect
import random
import time

from .core import (
    Digraph,
    Subdigraph,
    _bits,
    contract,
    gen_random_digraph,
    gen_random_tournament,
    gen_stability_two,
    gen_super_tournament,
)
from .minor import (
    BudgetExceededError,
    _strong_level,
    canonical_form,
    closure_oracle,
    find_minor,
    find_subdigraph_embedding,
)
from .pathdecomp import PATHWIDTH_MAX_VERTICES, exact_pathwidth, verify


def pathwidth_brute_force(g: Digraph) -> int:
    """Path-width by exhaustive search over all normalized bag sequences.

    A normalized decomposition is an interleaving of one introduction and one
    forgetting per vertex; forgetting u is legal once every out-neighbour of
    u has been introduced (otherwise some edge loses its cut indices).  For
    each width bound w we search the (introduced, bag) state space and accept
    once everything is introduced.  Independent of the production solver: no
    greedy forgetting, every forget schedule is explored.
    """
    if any(t == h for t, h in g.edges):
        raise ValueError("path-width is undefined for digraphs with loops")
    n = g.vertex_count
    if n == 0:
        return -1
    out_mask = [0] * n
    for t, h in g.edges:
        out_mask[t] |= 1 << h
    full = (1 << n) - 1

    def feasible(width: int) -> bool:
        limit = width + 1
        start = (0, 0)
        seen = {start}
        stack = [start]
        while stack:
            introduced, bag = stack.pop()
            if introduced == full:
                return True
            rest = bag
            while rest:
                u = (rest & -rest).bit_length() - 1
                rest &= rest - 1
                if not (out_mask[u] & ~introduced):
                    state = (introduced, bag & ~(1 << u))
                    if state not in seen:
                        seen.add(state)
                        stack.append(state)
            if bin(bag).count("1") < limit:
                avail = full & ~introduced
                while avail:
                    v = (avail & -avail).bit_length() - 1
                    avail &= avail - 1
                    state = (introduced | (1 << v), bag | (1 << v))
                    if state not in seen:
                        seen.add(state)
                        stack.append(state)
        return False

    for width in range(n):
        if feasible(width):
            return width
    return n - 1


def has_two_disjoint_cycles(g: Digraph) -> bool:
    """Exhaustive: some vertex subset and its complement both induce a cycle."""
    n = g.vertex_count
    if n == 0:
        return False
    out_mask = [0] * n
    loops = 0
    for t, h in g.edges:
        if t == h:
            loops |= 1 << t
        else:
            out_mask[t] |= 1 << h
    full = (1 << n) - 1

    def cyclic(mask: int) -> bool:
        if mask & loops:
            return True
        live = mask
        while live:
            removable = 0
            rest = live
            while rest:
                v = (rest & -rest).bit_length() - 1
                rest &= rest - 1
                if not (out_mask[v] & live):
                    removable |= 1 << v
            if not removable:
                return True
            live &= ~removable
        return False

    cyc = [cyclic(mask) for mask in range(full + 1)]
    return any(cyc[mask] and cyc[full & ~mask] for mask in range(1, full + 1))


def all_tournaments(n: int):
    """Every labeled tournament on n vertices."""
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    for bits in range(1 << len(pairs)):
        edges = tuple(
            (u, v) if bits >> i & 1 else (v, u) for i, (u, v) in enumerate(pairs)
        )
        yield Digraph(n, edges)


def all_semi_complete(n: int):
    """Every labeled semi-complete digraph on n vertices (each pair gets one
    of the two single orientations or both)."""
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    choices = [0] * len(pairs)
    while True:
        edges = []
        for c, (u, v) in zip(choices, pairs):
            if c == 0:
                edges.append((u, v))
            elif c == 1:
                edges.append((v, u))
            else:
                edges.append((u, v))
                edges.append((v, u))
        yield Digraph(n, tuple(edges))
        i = 0
        while i < len(pairs) and choices[i] == 2:
            choices[i] = 0
            i += 1
        if i == len(pairs):
            return
        choices[i] += 1


def _check_bounds(name: str, value: int, low: int, high: int | None = None) -> None:
    """Refuse a parameter below `low` or, when `high` is given, above it."""
    if value < low:
        bound = "non-negative" if low == 0 else f"at least {low}"
        raise ValueError(f"{name} must be {bound}, got {value}")
    if high is not None and value > high:
        raise ValueError(f"{name} must be at most {high}, got {value}")


def _report(name: str, params: dict, instances: list, aggregate: dict) -> dict:
    return {
        "schema": "experiment-report/1",
        "name": name,
        "params": params,
        "instances": instances,
        "aggregate": aggregate,
    }


def counterexample_super(max_i: int = 5, budget: int = 2_000_000) -> dict:
    """Pairwise minor checks in the doubled-ring super-tournament family:
    expected absent for i < j and found for i = j; a pair that exhausts the
    budget reads "budget" and fails."""
    _check_bounds("max_i", max_i, 3)
    _check_bounds("budget", budget, 0)
    instances = []
    ok = True
    for i in range(3, max_i + 1):
        for j in range(i, max_i + 1):
            t0 = time.perf_counter()
            try:
                mapping = find_minor(
                    gen_super_tournament(i), gen_super_tournament(j), budget=budget
                )
                got = "absent" if mapping is None else "found"
            except BudgetExceededError:
                got = "budget"
            expected = "found" if i == j else "absent"
            instances.append(
                {
                    "pattern": i,
                    "host": j,
                    "expected": expected,
                    "result": got,
                    "pass": got == expected,
                    "wall_clock_s": round(time.perf_counter() - t0, 6),
                }
            )
            ok = ok and got == expected
    return _report(
        "counterexample-super",
        {"max_i": max_i, "budget": budget},
        instances,
        {"all_pass": ok, "pairs": len(instances)},
    )


def counterexample_stability(j: int = 3) -> dict:
    """Structural route for the stability-two family: the smaller member is
    no subdigraph of the larger, and contracting any nontrivial
    strongly-connected subdigraph kills every pair of disjoint cycles.
    `j` runs from 2 to 5: the subdigraph search grows about tenfold a step,
    and j = 6 takes about 30 s."""
    _check_bounds("j", j, 2, 5)
    small = gen_stability_two(2)
    big = gen_stability_two(j)
    t0 = time.perf_counter()
    embedding = find_subdigraph_embedding(small, big)
    sub_time = round(time.perf_counter() - t0, 6)
    instances = [
        {
            "check": "subdigraph",
            "result": "absent" if embedding is None else "found",
            "pass": embedding is None,
            "wall_clock_s": sub_time,
        }
    ]
    n = big.vertex_count
    t0 = time.perf_counter()
    masks = [m for size in range(2, n + 1)
             for m in _strong_level(n, big.out_mask, big.in_mask, size)]
    bad = sum(has_two_disjoint_cycles(contract(big, Subdigraph.induced(big, _bits(mask)))[0])
              for mask in masks)
    instances.append(
        {
            "check": "contractions-kill-disjoint-cycles",
            "nontrivial_sc_subdigraphs": len(masks),
            "violations": bad,
            "pass": bad == 0,
            "wall_clock_s": round(time.perf_counter() - t0, 6),
        }
    )
    ok = all(inst["pass"] for inst in instances)
    return _report(
        "counterexample-stability",
        {"j": j},
        instances,
        {"all_pass": ok},
    )


def oracle_equivalence(n: int = 4, samples: int = 10, seed: int = 0) -> dict:
    """Cross-check the two minor definitions: the closure of each host must
    equal the set of candidates accepted by the mapping search.

    Hosts: every tournament up to `n` <= 4 vertices (deduplicated by
    canonical form) plus `samples` seeded random digraphs on 1..5 vertices.
    The candidate pool is the union of all the hosts' closures.
    """
    _check_bounds("n", n, 1, 4)
    _check_bounds("samples", samples, 0)
    hosts: list[Digraph] = []
    seen: set[Digraph] = set()
    for nn in range(1, n + 1):
        for t in all_tournaments(nn):
            c = canonical_form(t)
            if c not in seen:
                seen.add(c)
                hosts.append(c)
    rng = random.Random(seed)
    for _ in range(samples):
        size = rng.randrange(1, 6)
        g = canonical_form(gen_random_digraph(size, rng.randrange(1 << 30)))
        if g not in seen:
            seen.add(g)
            hosts.append(g)

    closures = {}
    for host in hosts:
        closures[host] = closure_oracle(host)
    pool = sorted(
        set().union(*closures.values()),
        key=lambda d: (d.vertex_count, len(d.edges), d.edges),
    )
    instances = []
    ok = True
    for host in hosts:
        t0 = time.perf_counter()
        mismatches = 0
        checked = 0
        for candidate in pool:
            if candidate.vertex_count > host.vertex_count:
                continue
            checked += 1
            in_closure = candidate in closures[host]
            found = find_minor(candidate, host) is not None
            if in_closure != found:
                mismatches += 1
        instances.append(
            {
                "host_n": host.vertex_count,
                "host_m": len(host.edges),
                "candidates": checked,
                "closure_size": len(closures[host]),
                "mismatches": mismatches,
                "pass": mismatches == 0,
                "wall_clock_s": round(time.perf_counter() - t0, 6),
            }
        )
        ok = ok and mismatches == 0
    return _report(
        "oracle-equivalence",
        {"n": n, "samples": samples, "seed": seed},
        instances,
        {"all_pass": ok, "hosts": len(hosts), "pool": len(pool)},
    )


def pathwidth_oracle_experiment(n: int = 6, samples: int = 25, seed: int = 0) -> dict:
    """Production path-width solver against the normalized-sequence search."""
    _check_bounds("n", n, 1, PATHWIDTH_MAX_VERTICES)
    _check_bounds("samples", samples, 0)
    rng = random.Random(seed)
    instances = []
    ok = True
    for idx in range(samples):
        size = rng.randrange(1, n + 1)
        if idx % 2 == 0:
            g = gen_random_tournament(size, rng.randrange(1 << 30))
            kind = "tournament"
        else:
            g = gen_random_digraph(size, rng.randrange(1 << 30))
            kind = "digraph"
        t0 = time.perf_counter()
        pw, decomposition = exact_pathwidth(g)
        brute = pathwidth_brute_force(g)
        valid = verify(g, decomposition).valid
        instances.append(
            {
                "kind": kind,
                "n": size,
                "dp": pw,
                "brute_force": brute,
                "decomposition_valid": valid,
                "pass": pw == brute and valid,
                "wall_clock_s": round(time.perf_counter() - t0, 6),
            }
        )
        ok = ok and pw == brute and valid
    return _report(
        "pathwidth-oracle",
        {"n": n, "samples": samples, "seed": seed},
        instances,
        {"all_pass": ok},
    )


def wqo_sample(count: int = 10, n_max: int = 6, seed: int = 0,
               budget: int = 500_000) -> dict:
    """Pairwise comparability statistics over a seeded tournament sequence."""
    _check_bounds("count", count, 0)
    _check_bounds("n_max", n_max, 1)
    _check_bounds("budget", budget, 0)
    rng = random.Random(seed)
    graphs = [
        gen_random_tournament(rng.randrange(1, n_max + 1), rng.randrange(1 << 30))
        for _ in range(count)
    ]
    instances = []
    comparable = 0
    budget_hits = 0
    for i in range(count):
        for j in range(i + 1, count):
            t0 = time.perf_counter()
            try:
                mapping = find_minor(graphs[i], graphs[j], budget=budget)
                result = "found" if mapping is not None else "absent"
            except BudgetExceededError:
                result = "budget"
                budget_hits += 1
            if result == "found":
                comparable += 1
            instances.append(
                {
                    "i": i,
                    "j": j,
                    "n_i": graphs[i].vertex_count,
                    "n_j": graphs[j].vertex_count,
                    "result": result,
                    "wall_clock_s": round(time.perf_counter() - t0, 6),
                }
            )
    pairs = count * (count - 1) // 2
    return _report(
        "wqo-sample",
        {"count": count, "n_max": n_max, "seed": seed, "budget": budget},
        instances,
        {
            "pairs": pairs,
            "comparable": comparable,
            "budget_exceeded": budget_hits,
            "comparable_fraction": round(comparable / pairs, 4) if pairs else None,
        },
    )


EXPERIMENTS = {
    "counterexample-super": counterexample_super,
    "counterexample-stability": counterexample_stability,
    "oracle-equivalence": oracle_equivalence,
    "pathwidth-oracle": pathwidth_oracle_experiment,
    "wqo-sample": wqo_sample,
}


def run_experiment(name: str, **params) -> dict:
    """Run a named experiment with the parameters its function names, each
    value converted by `int`."""
    if name not in EXPERIMENTS:
        raise ValueError(f"unknown experiment {name!r}; choose from {sorted(EXPERIMENTS)}")
    fn = EXPERIMENTS[name]
    accepted = inspect.signature(fn).parameters
    for key, value in params.items():
        if key not in accepted:
            raise ValueError(f"experiment {name!r} takes no parameter {key!r}")
        try:
            params[key] = int(value)
        except ValueError:
            raise ValueError(f"parameter {key!r} must be an integer, got {value!r}") from None
    return fn(**params)
