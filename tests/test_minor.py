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
    gen_family,
    gen_random_tournament,
    gen_super_tournament,
    gen_transitive,
    induced_strongly_connected,
)
from digraph_minors.connectivity import find_k_triple
from digraph_minors.minor import (
    BudgetExceededError,
    MinorMapping,
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
        m = find_minor(Digraph(0, ()), gen_cycle(3))
        assert m is not None and verify_mapping(Digraph(0, ()), gen_cycle(3), m).ok

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


def test_mapping_json_round_trip():
    g = gen_random_tournament(4, seed=9)
    m = find_minor(delete_vertex(g, 0), g)
    text = m.to_json()
    again = MinorMapping.from_json(text, g)
    assert again == m
