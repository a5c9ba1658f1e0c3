"""Seeded (Q, m, k)-digraph instance generators shared by the test modules."""

import random

from digraph_minors.core import gen_random_tournament
from digraph_minors.pathdecomp import PathDecomposition, build_linked, exact_pathwidth
from digraph_minors.labeled import (
    classify_qmk,
    chain_order,
    decompose_links,
    lift_nondecomposable,
    make_qmk,
    trivial_order,
)

THREE_CHAIN = chain_order([0, 1, 2])


def base_instance(n, seed, order=None, label_seed=None):
    """(Q, 0, M)-digraph on a seeded random tournament with an optimum-width
    linked decomposition padded to empty end bags."""
    order = order or trivial_order()
    g = gen_random_tournament(n, seed=seed)
    _, p = exact_pathwidth(g)
    lp = build_linked(g, p, frozenset(), frozenset())
    if label_seed is None:
        labels = tuple(sorted(order.elements)[0] for _ in range(n))
    else:
        rng = random.Random(label_seed)
        pool = sorted(order.elements)
        labels = tuple(pool[rng.randrange(len(pool))] for _ in range(n))
    return make_qmk(g, lp, (), labels, order)


def lifted_instances(d, depth):
    """Instances obtained by repeatedly factoring into links and lifting the
    non-decomposable factors, raising m by one per level."""
    if depth == 0:
        return [d]
    out = []
    cls = classify_qmk(d)
    if cls.trivial:
        return out
    for factor in decompose_links(d):
        fc = classify_qmk(factor)
        if fc.non_decomposable_member and factor.k > factor.m:
            lifted = lift_nondecomposable(factor)
            out.append(lifted)
            out.extend(lifted_instances(lifted, depth - 1))
    return out


def instance_pool(count, max_n, seed, max_m=2, max_k=None, order=None,
                  require=None):
    """Deterministic pool of validated instances with m <= max_m (and
    optionally M <= max_k), filtered by `require(d, dclass)`."""
    rng = random.Random(seed)
    pool = []
    attempts = 0
    while len(pool) < count and attempts < 60 * count:
        attempts += 1
        n = rng.randrange(3, max_n + 1)
        try:
            d, cls = base_instance(
                n, rng.randrange(10**9), order=order,
                label_seed=rng.randrange(10**9) if order else None,
            )
        except ValueError:
            continue
        candidates = [d] + lifted_instances(d, max_m)
        for cand in candidates:
            if len(pool) >= count:
                break
            if cand.m > max_m:
                continue
            if max_k is not None and cand.k > max_k:
                continue
            ccls = classify_qmk(cand)
            if require is not None and not require(cand, ccls):
                continue
            pool.append((cand, ccls))
    return pool


def noncontractible_instance(n, seed, order=None, label_seed=0):
    """(Q, 1, n)-digraph on a tournament whose single rooted path is one edge
    u -> v, hence non-contractible."""
    order = order or THREE_CHAIN
    g = gen_random_tournament(n, seed=seed)
    u, v = None, None
    for uu in range(n):
        for vv in range(n):
            if uu != vv and g.has_edge(uu, vv) and not g.has_edge(vv, uu):
                u, v = uu, vv
                break
        if u is not None:
            break
    assert u is not None, "a tournament always has an edge"
    wide = PathDecomposition(
        (frozenset({u}), frozenset(range(n)), frozenset({v}))
    )
    lp = build_linked(g, wide, frozenset({u}), frozenset({v}))
    rng = random.Random(label_seed)
    pool = sorted(order.elements)
    labels = tuple(pool[rng.randrange(len(pool))] for _ in range(n))
    d, cls = make_qmk(g, lp, ((u, v),), labels, order)
    assert cls.non_contractible_member
    return d, (u, v)
