import itertools
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from digraph_minors.core import Digraph, gen_random_tournament, induced_strongly_connected
from digraph_minors.pathdecomp import PathDecomposition
from digraph_minors import labeled
from digraph_minors.minor import MinorMapping, identity_mapping
from digraph_minors.labeled import (
    QmkDigraph,
    QuasiOrder,
    chain_order,
    classify_qmk,
    decompose_links,
    decompose_windows,
    flag_extension,
    glue_mappings,
    higman_leq,
    lift_nondecomposable,
    make_qmk,
    noncontractible_pair,
    peel_noncontractible,
    restrict_window,
    split_at,
    trivial_order,
    verify_labeled_minor,
    window_vertices,
)

from qmk_instances import (
    THREE_CHAIN,
    base_instance,
    instance_pool,
    noncontractible_instance,
)


class TestQuasiOrder:
    def test_trivial(self):
        q = trivial_order()
        assert q.leq(0, 0)

    def test_rejects_irreflexive(self):
        with pytest.raises(ValueError):
            QuasiOrder(frozenset({0, 1}), frozenset({(0, 0)}))

    def test_rejects_intransitive(self):
        with pytest.raises(ValueError):
            QuasiOrder(
                frozenset({0, 1, 2}),
                frozenset({(0, 0), (1, 1), (2, 2), (0, 1), (1, 2)}),
            )

    def test_chain(self):
        q = chain_order([0, 1, 2])
        assert q.leq(0, 2) and not q.leq(2, 0)

    def test_quasi_not_antisymmetric_allowed(self):
        q = QuasiOrder(
            frozenset({"a", "b"}),
            frozenset({("a", "a"), ("b", "b"), ("a", "b"), ("b", "a")}),
        )
        assert q.leq("a", "b") and q.leq("b", "a")

    def test_flag_extension(self):
        q = flag_extension(chain_order([0, 1]))
        assert len(q.elements) == 18
        assert q.leq((0, 1, 2), (1, 1, 2))
        assert not q.leq((0, 1, 2), (1, 2, 2))


class TestMakeQmk:
    def test_trivial_instance(self):
        g = Digraph(2, ((0, 1), (1, 0)))
        p = PathDecomposition((frozenset({0, 1}),))
        d, cls = make_qmk(g, p, ((0,), (1,)), (0, 0), trivial_order())
        assert cls.trivial
        assert d.m == 2 and d.g.vertex_count == 2

    def test_non_contractible_instance(self):
        d, (u, v) = noncontractible_instance(5, seed=3)
        cls = classify_qmk(d)
        assert cls.non_contractible_member and not cls.contractible
        assert noncontractible_pair(d) == (0, u, v)

    def test_rejects_bad_label(self):
        g = Digraph(1, ())
        p = PathDecomposition((frozenset({0}),))
        with pytest.raises(ValueError):
            make_qmk(g, p, ((0,),), (7,), trivial_order())

    def test_rejects_unlinked_decomposition(self):
        g = Digraph(2, ((0, 1), (1, 0)))
        p = PathDecomposition((frozenset({0}), frozenset({0, 1}), frozenset({1})))
        # valid decomposition, but cardinality m(P)=1 needs one rooted path;
        # passing none must fail
        with pytest.raises(ValueError):
            make_qmk(g, p, (), (0, 0), trivial_order())

    def test_rejects_non_semi_complete(self):
        g = Digraph(2, ())
        p = PathDecomposition((frozenset({0, 1}),))
        with pytest.raises(ValueError):
            make_qmk(g, p, ((0,), (1,)), (0, 0), trivial_order())

    def test_m0_tournament_instance(self):
        d, cls = base_instance(6, seed=11)
        assert d.m == 0 and not cls.trivial
        assert cls.contractible  # no rooted paths to break


class TestSplit:
    def _decomposable(self):
        pool = instance_pool(
            4, 8, seed=5, require=lambda d, c: c.decomposable and d.m >= 1
        )
        assert pool
        return pool

    def test_split_then_refold(self):
        for d, _ in self._decomposable():
            r = d.p.r
            s = next(i for i in range(1, r - 1) if len(d.p.bags[i]) == d.m)
            head, tail = split_at(d, s)
            va = window_vertices(d, 0, s)
            vb = window_vertices(d, s, r - 1)
            refolded = [frozenset(va[x] for x in bag) for bag in head.p.bags]
            refolded += [frozenset(vb[x] for x in bag) for bag in tail.p.bags][1:]
            assert tuple(refolded) == d.p.bags

    def test_halves_validate(self):
        for d, _ in self._decomposable():
            r = d.p.r
            for s in range(1, r - 1):
                if len(d.p.bags[s]) != d.m:
                    continue
                head, tail = split_at(d, s)  # make_qmk-level validation inside
                assert head.m == d.m and tail.m == d.m
                assert head.p.r + tail.p.r - 1 == d.p.r

    def test_boundary_index_rejected(self):
        d, _ = base_instance(5, seed=2)
        with pytest.raises(ValueError):
            split_at(d, 0)

    def test_wrong_bag_size_rejected(self):
        d, _ = base_instance(5, seed=2)
        big = next(i for i in range(1, d.p.r - 1) if len(d.p.bags[i]) != d.m)
        with pytest.raises(ValueError):
            split_at(d, big)


def recursive_link(d):
    """The link definition read literally: a contractible, non-trivial
    instance that is non-decomposable, or that splits at some interior
    minimum bag into a non-contractible head and a non-decomposable tail."""

    def contractible(x):
        return all(induced_strongly_connected(x.g, set(path)) for path in x.r_paths)

    def non_decomposable(x):
        return x.p.r > 1 and all(len(bag) != x.m for bag in x.p.bags[1:-1])

    r = d.p.r
    if r == 1 or not contractible(d):
        return False
    if non_decomposable(d):
        return True
    return any(
        not contractible(restrict_window(d, 0, s))
        and non_decomposable(restrict_window(d, s, r - 1))
        for s in range(1, r - 1)
        if len(d.p.bags[s]) == d.m
    )


class TestLinkFlag:
    def test_matches_recursive_definition(self):
        pools = instance_pool(60, 9, seed=5) + instance_pool(
            60, 9, seed=909, max_m=2, max_k=4, order=THREE_CHAIN
        )
        seen = set()
        for d, cls in pools:
            # d, its link factors, and its windows between minimum bags
            instances = [d]
            if not cls.trivial:
                instances += decompose_links(d)
            r = d.p.r
            ends = [0] + [s for s in range(1, r - 1) if len(d.p.bags[s]) == d.m] + [r - 1]
            instances += [restrict_window(d, lo, hi)
                          for i, lo in enumerate(ends) for hi in ends[i + 1:]]
            for x in instances:
                xcls = classify_qmk(x)
                assert xcls.link == recursive_link(x)
                if xcls.decomposable:
                    seen.add(xcls.link)
        assert seen == {True, False}


class TestDecomposeLinks:
    def test_nd_base_case_is_single_link(self):
        d, cls = base_instance(6, seed=11)
        assert cls.non_decomposable_member
        factors = decompose_links(d)
        assert len(factors) == 1
        assert classify_qmk(factors[0]).link

    def test_non_contractible_returns_itself(self):
        d, _ = noncontractible_instance(5, seed=3)
        factors = decompose_links(d)
        assert len(factors) == 1
        assert classify_qmk(factors[0]).non_contractible_member

    def test_trivial_rejected(self):
        g = Digraph(1, ())
        d, _ = make_qmk(
            g, PathDecomposition((frozenset({0}),)), ((0,),), (0,), trivial_order()
        )
        with pytest.raises(ValueError):
            decompose_links(d)

    def test_factor_contract_and_refold(self):
        pool = instance_pool(6, 9, seed=17, require=lambda d, c: not c.trivial)
        for d, _ in pool:
            windows = decompose_windows(d)
            factors = decompose_links(d)
            assert len(windows) == len(factors)
            # classification contract
            for f in factors[:-1]:
                assert classify_qmk(f).link
            last = classify_qmk(factors[-1])
            assert last.link or last.non_contractible_member
            # refold
            rebuilt = []
            for (lo, hi), f in zip(windows, factors):
                names = window_vertices(d, lo, hi)
                fb = [frozenset(names[x] for x in bag) for bag in f.p.bags]
                rebuilt.extend(fb if not rebuilt else fb[1:])
            assert tuple(rebuilt) == d.p.bags


class TestLift:
    def test_r3_gives_trivial(self):
        g = Digraph(2, ((0, 1), (1, 0)))
        p = PathDecomposition((frozenset({0}), frozenset({0, 1}), frozenset({1})))
        d, cls = make_qmk(g, p, ((0, 1),), (0, 0), trivial_order())
        assert cls.non_decomposable_member
        lifted = lift_nondecomposable(d)
        assert lifted.m == 2 and lifted.p.r == 1
        assert classify_qmk(lifted).trivial

    def test_roots_grow(self):
        d, cls = base_instance(7, seed=23)
        assert cls.non_decomposable_member
        lifted = lift_nondecomposable(d)
        assert lifted.m == d.m + 1 and lifted.k == d.k
        assert lifted.p.first >= d.p.first
        assert lifted.p.last >= d.p.last

    def test_random_nd_instances_validate(self):
        pool = instance_pool(
            6, 10, seed=29, require=lambda d, c: c.non_decomposable_member and d.k > d.m
        )
        for d, _ in pool:
            lifted = lift_nondecomposable(d)  # validates internally
            assert lifted.m == d.m + 1

    def test_rejects_decomposable(self):
        pool = instance_pool(1, 8, seed=31, require=lambda d, c: c.decomposable)
        d, _ = pool[0]
        with pytest.raises(ValueError):
            lift_nondecomposable(d)


class TestRefusalsWithoutClassifying:
    """decompose_windows and lift_nondecomposable read the shape of the
    decomposition and never classify the instance."""

    @staticmethod
    def forbid_classify(monkeypatch):
        def refuse(d):
            raise AssertionError("classify_qmk called")

        monkeypatch.setattr(labeled, "classify_qmk", refuse)

    @staticmethod
    def trivial():
        g = Digraph(1, ())
        return QmkDigraph(
            g, PathDecomposition((frozenset({0}),)), ((0,),), (0,), trivial_order(), 1, 1
        )

    def test_decompose_refuses_a_trivial_instance(self, monkeypatch):
        d = self.trivial()
        self.forbid_classify(monkeypatch)
        with pytest.raises(ValueError, match="cannot decompose a trivial instance"):
            decompose_windows(d)

    def test_lift_refuses_trivial_and_decomposable_instances(self, monkeypatch):
        pool = instance_pool(3, 8, seed=31, require=lambda d, c: c.decomposable)
        self.forbid_classify(monkeypatch)
        for d in [self.trivial(), *(d for d, _ in pool)]:
            with pytest.raises(ValueError, match="lift requires a non-decomposable instance"):
                lift_nondecomposable(d)

    def test_accepts_non_decomposable_instances(self, monkeypatch):
        pool = instance_pool(
            4, 9, seed=29, require=lambda d, c: c.non_decomposable_member and d.k > d.m
        )
        self.forbid_classify(monkeypatch)
        for d, cls in pool:
            assert lift_nondecomposable(d).m == d.m + 1
            if cls.contractible:
                assert decompose_windows(d) == [(0, d.p.r - 1)]


class TestPeel:
    def test_minimal_case_yields_null(self):
        g = Digraph(2, ((0, 1),))
        p = PathDecomposition(
            (frozenset({0}), frozenset({0, 1}), frozenset({1}))
        )
        d, cls = make_qmk(g, p, ((0, 1),), (0, 0), trivial_order())
        assert cls.non_contractible_member
        peeled = peel_noncontractible(d)
        assert peeled.g.vertex_count == 0
        assert peeled.m == 0 and peeled.k == d.k - 1
        assert peeled.p.bags == (frozenset(),)

    def test_parameters_and_labels(self):
        d, (u, v) = noncontractible_instance(6, seed=7)
        peeled = peel_noncontractible(d)
        assert (peeled.m, peeled.k) == (d.m - 1, d.k - 1)
        assert peeled.g.vertex_count == d.g.vertex_count - 2
        assert peeled.q == flag_extension(d.q)

    def test_label_reconstruction(self):
        for seed in range(5):
            d, (u, v) = noncontractible_instance(6, seed=seed)
            peeled = peel_noncontractible(d)
            order = [w for w in range(d.g.vertex_count) if w not in (u, v)]
            rebuilt = set()
            for new_id, old in enumerate(order):
                base, x, y = peeled.labels[new_id]
                assert base == d.labels[old]
                if x in (0, 2):
                    rebuilt.add((old, u))
                if x in (1, 2):
                    rebuilt.add((u, old))
                if y in (0, 2):
                    rebuilt.add((old, v))
                if y in (1, 2):
                    rebuilt.add((v, old))
            incident = {
                e
                for e in d.g.edges
                if (e[0] in (u, v)) != (e[1] in (u, v))
            }
            assert rebuilt == incident

    def test_rejects_contractible(self):
        d, _ = base_instance(5, seed=2)
        with pytest.raises(ValueError):
            peel_noncontractible(d)


class TestGlue:
    def _split_instance(self):
        pool = instance_pool(
            3, 8, seed=41, require=lambda d, c: c.decomposable and d.m >= 1
        )
        assert pool
        return pool

    def test_identity_glue(self):
        for d, _ in self._split_instance():
            s = next(
                i for i in range(1, d.p.r - 1) if len(d.p.bags[i]) == d.m
            )
            head, tail = split_at(d, s)
            glued = glue_mappings(
                d, s, d, s, identity_mapping(head.g), identity_mapping(tail.g)
            )
            report = verify_labeled_minor(d, d, glued)
            assert report.ok, report.failures

    def test_root_mismatch_rejected(self):
        d, _ = self._split_instance()[0]
        s = next(i for i in range(1, d.p.r - 1) if len(d.p.bags[i]) == d.m)
        head, tail = split_at(d, s)
        # a mapping ignoring the roots: swap two branch sets if possible
        bad = MinorMapping(
            tuple(reversed(identity_mapping(head.g).assignment)),
            identity_mapping(head.g).edge_witness,
        )
        with pytest.raises(ValueError):
            glue_mappings(d, s, d, s, bad, identity_mapping(tail.g))


class TestVerifyLabeledMinor:
    def test_identity_valid(self):
        d, _ = base_instance(5, seed=13, order=THREE_CHAIN, label_seed=1)
        report = verify_labeled_minor(d, d, identity_mapping(d.g))
        assert report.ok

    def test_label_clause_detected(self):
        order = THREE_CHAIN
        g = gen_random_tournament(4, seed=3)
        d, _ = base_instance(4, seed=3, order=order, label_seed=5)
        high = tuple(2 for _ in range(4))
        low = tuple(0 for _ in range(4))
        d_high, _ = make_qmk(d.g, d.p, d.r_paths, high, order)
        d_low, _ = make_qmk(d.g, d.p, d.r_paths, low, order)
        ok = verify_labeled_minor(d_low, d_high, identity_mapping(d.g))
        assert ok.ok
        bad = verify_labeled_minor(d_high, d_low, identity_mapping(d.g))
        assert not bad.ok
        assert any("label" in f for f in bad.failures)

    def test_root_clause_detected(self):
        d, _ = noncontractible_instance(5, seed=9)
        # identity is fine
        assert verify_labeled_minor(d, d, identity_mapping(d.g)).ok
        # swap two branch sets: roots no longer carried
        ident = identity_mapping(d.g)
        perm = list(range(d.g.vertex_count))
        u = d.source_roots[0]
        other = next(x for x in range(d.g.vertex_count) if x != u and x not in d.terminal_roots)
        perm[u], perm[other] = perm[other], perm[u]
        twisted = MinorMapping(
            tuple(ident.assignment[perm[i]] for i in range(len(perm))),
            ident.edge_witness,
        )
        report = verify_labeled_minor(d, d, twisted)
        assert not report.ok

    def test_parameter_mismatch(self):
        d0, _ = base_instance(5, seed=2)
        d1, _ = noncontractible_instance(5, seed=2)
        with pytest.raises(ValueError):
            verify_labeled_minor(d0, d1, identity_mapping(d0.g))


class TestPipeline:
    def test_decompose_lift_peel_chain(self):
        # run the whole reduction machinery end to end: factor into links,
        # lift every eligible non-decomposable factor, and peel whatever
        # comes out non-contractible
        lifted_count = peeled_count = 0
        for seed in (2, 5, 9, 14, 21, 33):
            d, cls = base_instance(7, seed=seed, order=THREE_CHAIN, label_seed=seed)
            if cls.trivial:
                continue
            stack = [d]
            depth = 0
            while stack and depth < 3:
                depth += 1
                nxt = []
                for cur in stack:
                    for factor in decompose_links(cur):
                        fcls = classify_qmk(factor)
                        if fcls.non_contractible_member:
                            peeled = peel_noncontractible(factor)
                            assert (peeled.m, peeled.k) == (factor.m - 1, factor.k - 1)
                            peeled_count += 1
                        if fcls.non_decomposable_member and factor.k > factor.m:
                            lifted = lift_nondecomposable(factor)
                            assert lifted.m == factor.m + 1
                            lifted_count += 1
                            if not classify_qmk(lifted).trivial:
                                nxt.append(lifted)
                stack = nxt
        assert lifted_count >= 5 and peeled_count >= 1


def brute_force_higman(p, q, base, pinned=False):
    a, b = len(p), len(q)
    if a > b:
        return False
    for alpha in itertools.combinations(range(b), a):
        if pinned and (alpha[0] != 0 or alpha[-1] != b - 1):
            continue
        if all(base.leq(p[i], q[alpha[i]]) for i in range(a)):
            return True
    return False


class TestHigman:
    def test_empty_embeds_everywhere(self):
        assert higman_leq((), (0, 1), THREE_CHAIN)
        assert higman_leq((), (), THREE_CHAIN)

    def test_interleaved_match(self):
        assert higman_leq((2, 0), (1, 2, 0), THREE_CHAIN)
        assert not higman_leq((2, 0), (0, 2), THREE_CHAIN)

    def test_pinned_needs_length_two(self):
        with pytest.raises(ValueError):
            higman_leq((0,), (0, 1), THREE_CHAIN, pinned=True)

    def test_pinned_endpoints(self):
        assert higman_leq((0, 0), (0, 1, 0), THREE_CHAIN, pinned=True)
        # first element must land on the first position
        assert not higman_leq((1, 0), (0, 1, 1, 0), THREE_CHAIN, pinned=True)
        assert higman_leq((1, 0), (0, 1, 1, 0), THREE_CHAIN, pinned=False)

    def test_agrees_with_brute_force(self):
        rng = random.Random(53)
        # incomparable pair included: 1 and 2 under 0<=1, 0<=2
        fork = QuasiOrder(
            frozenset({0, 1, 2}),
            frozenset({(0, 0), (1, 1), (2, 2), (0, 1), (0, 2)}),
        )
        for base in (THREE_CHAIN, fork):
            for _ in range(300):
                a = rng.randrange(0, 6)
                b = rng.randrange(0, 6)
                p = tuple(rng.randrange(3) for _ in range(a))
                q = tuple(rng.randrange(3) for _ in range(b))
                assert higman_leq(p, q, base) == brute_force_higman(p, q, base)
                if a >= 2 and b >= 2:
                    assert higman_leq(p, q, base, pinned=True) == brute_force_higman(
                        p, q, base, pinned=True
                    )

    def test_reflexive_transitive_exhaustive(self):
        base = chain_order([0, 1])
        seqs = [
            tuple(s)
            for length in range(6)
            for s in itertools.product((0, 1), repeat=length)
        ]
        for s in seqs:
            assert higman_leq(s, s, base)
        below = {
            x: [y for y in seqs if higman_leq(x, y, base)] for x in seqs
        }
        for x in seqs:
            for y in below[x]:
                for z in below[y]:
                    assert higman_leq(x, z, base)


def test_qmk_json_round_trip():
    d, _ = base_instance(5, seed=13, order=THREE_CHAIN, label_seed=1)
    again = QmkDigraph.from_json(d.to_json())
    assert sorted(again.g.edges) == sorted(d.g.edges)
    assert again.p == d.p
    assert again.r_paths == d.r_paths
    assert again.labels == d.labels
    assert again.q == d.q
    # tuple labels survive too
    d2, _ = noncontractible_instance(5, seed=4)
    peeled = peel_noncontractible(d2)
    again2 = QmkDigraph.from_json(peeled.to_json())
    assert again2.labels == peeled.labels and again2.q == peeled.q


_QMK = noncontractible_instance(5, seed=4)[0]
_REMOVE = object()


def _qmk_with(path, value):
    """The JSON of _QMK with the node at `path` replaced by `value`, or
    removed when `value` is `_REMOVE`."""
    doc = json.loads(_QMK.to_json())
    node = doc
    for key in path[:-1]:
        node = node[key]
    if value is _REMOVE:
        del node[path[-1]]
    else:
        node[path[-1]] = value
    return json.dumps(doc)


_MALFORMED_QMK = {
    "array": "[]",
    "number": "5",
    "null": "null",
    "not-json": "{",
    "empty-object": "{}",
    "order-only": '{"order": 5}',
    **{f"no-{key}": _qmk_with([key], _REMOVE)
       for key in ("digraph", "decomposition", "paths", "labels", "order", "k")},
    "digraph-number": _qmk_with(["digraph"], 5),
    "digraph-malformed": _qmk_with(["digraph"], "2 1\n0 5\n"),
    "decomposition-array": _qmk_with(["decomposition"], [[0]]),
    "no-bags": _qmk_with(["decomposition", "bags"], _REMOVE),
    "bags-object": _qmk_with(["decomposition", "bags"], {"0": [0]}),
    "bag-number": _qmk_with(["decomposition", "bags", 0], 0),
    "bag-string": _qmk_with(["decomposition", "bags", 0], "0"),
    "bag-vertex-float": _qmk_with(["decomposition", "bags", 0], [0.0]),
    "bag-vertex-outside": _qmk_with(["decomposition", "bags", 0], [0, 9]),
    "no-bags-at-all": _qmk_with(["decomposition", "bags"], []),
    "path-number": _qmk_with(["paths", 0], 0),
    "path-vertex-bool": _qmk_with(["paths", 0], [True, 1]),
    "path-vertex-outside": _qmk_with(["paths", 0], [0, 7]),
    "path-vertex-negative": _qmk_with(["paths", 0], [-5, 1]),
    "labels-object": _qmk_with(["labels"], {}),
    "label-object": _qmk_with(["labels", 0], {}),
    "label-outside-order": _qmk_with(["labels", 0], 9),
    "too-few-labels": _qmk_with(["labels"], [1]),
    "order-array": _qmk_with(["order"], []),
    "no-elements": _qmk_with(["order", "elements"], _REMOVE),
    "element-object": _qmk_with(["order", "elements", 0], {"a": 1}),
    "pairs-object": _qmk_with(["order", "pairs"], {}),
    "pair-number": _qmk_with(["order", "pairs", 0], 0),
    "pair-triple": _qmk_with(["order", "pairs", 0], [0, 0, 0]),
    "pair-object": _qmk_with(["order", "pairs", 0], [{}, 0]),
    "k-string": _qmk_with(["k"], "5"),
    "k-bool": _qmk_with(["k"], True),
    "k-float": _qmk_with(["k"], 5.0),
    "k-below-bags": _qmk_with(["k"], 2),
}


@pytest.mark.parametrize("text", _MALFORMED_QMK.values(), ids=_MALFORMED_QMK)
def test_qmk_from_json_rejects_malformed_input(text):
    with pytest.raises(ValueError):
        QmkDigraph.from_json(text)


def _json_paths(node, prefix=()):
    yield prefix
    children = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, child in children:
        yield from _json_paths(child, prefix + (key,))


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-1, 6) | st.floats(allow_nan=False) | st.text(max_size=2),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=2), inner, max_size=3),
    max_leaves=6)


@settings(max_examples=200)
@given(st.sampled_from(list(_json_paths(json.loads(_QMK.to_json())))[1:]),
       st.one_of(st.just(_REMOVE), _JSON_VALUES))
def test_fuzz_qmk_from_json(path, value):
    """One node of a valid document replaced or removed: either an instance
    that round-trips or ValueError, never another exception."""
    try:
        d = QmkDigraph.from_json(_qmk_with(list(path), value))
    except ValueError:
        return
    assert QmkDigraph.from_json(d.to_json()) == d
