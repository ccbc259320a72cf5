"""Tests for the C(s)-closure decomposition (Step 2)."""

import importlib

import numpy as np
import pytest

from repro.core.decompose import decompose
from repro.dag.builders import chain, complete_bipartite, fork_join
from repro.dag.graph import Dag
from repro.dag.transitive import remove_shortcuts
from repro.theory.families import w_dag


def check_invariants(dag, dec):
    """Structural invariants every decomposition must satisfy."""
    scheduled = [u for comp in dec.components for u in comp.nonsinks]
    # Every non-sink is scheduled exactly once; sinks never are.
    assert sorted(scheduled) == dag.non_sinks()
    assert all(dec.comp_of[u] == -1 for u in dag.sinks())
    for comp in dec.components:
        for u in comp.nonsinks:
            assert dec.comp_of[u] == comp.index
        # Component sinks really have no children inside the component.
        members = set(comp.nodes)
        for u in comp.shared_sinks + comp.global_sinks:
            assert not any(c in members for c in dag.children(u))
        for u in comp.nonsinks:
            assert any(c in members for c in dag.children(u))
        # Global sinks are sinks of the dag; shared sinks are not.
        assert all(dag.is_sink(u) for u in comp.global_sinks)
        assert all(not dag.is_sink(u) for u in comp.shared_sinks)
        # Bipartite flag consistent with the induced subgraph.
        sub, _ = dag.induced_subgraph(comp.nodes)
        if comp.is_bipartite and comp.nonsinks:
            assert sub.is_bipartite_two_level()
    # Superdag acyclic and compatible with detachment order.
    for i, kids in enumerate(dec.super_children):
        for j in kids:
            assert i < j
    # Superdag covers every cross-component dependency.
    for u, v in dag.arcs():
        ci, cj = dec.comp_of[u], dec.comp_of[v]
        if ci != -1 and cj != -1 and ci != cj:
            assert cj in dec.super_children[ci]


class TestSimpleShapes:
    def test_chain_decomposes_into_pair_blocks(self):
        d = chain(4)
        dec = decompose(d)
        check_invariants(d, dec)
        assert dec.n_components == 3
        assert all(c.is_bipartite for c in dec.components)

    def test_fig3(self, fig3_dag):
        dec = decompose(fig3_dag)
        check_invariants(fig3_dag, dec)
        assert dec.n_components == 2
        sizes = sorted(c.size for c in dec.components)
        assert sizes == [2, 3]
        # Independent blocks: no superdag arcs.
        assert all(not kids for kids in dec.super_children)

    def test_single_node(self):
        d = Dag(1, [])
        dec = decompose(d)
        assert dec.n_components == 1
        assert dec.components[0].global_sinks == (0,)
        assert dec.components[0].nonsinks == ()

    def test_empty(self):
        dec = decompose(Dag(0, []))
        assert dec.n_components == 0

    def test_bipartite_block_detached_whole(self):
        d = complete_bipartite(3, 2)
        dec = decompose(d)
        check_invariants(d, dec)
        assert dec.n_components == 1
        assert dec.components[0].is_bipartite

    def test_fork_join_chains_superdag(self):
        d = fork_join(3)
        dec = decompose(d)
        check_invariants(d, dec)
        assert dec.n_components == 2
        assert dec.super_children[0] == [1]

    def test_w_dag_single_block(self):
        d = w_dag(4, 2).dag
        dec = decompose(d)
        check_invariants(d, dec)
        assert dec.n_components == 1


class TestSharedSinks:
    def test_shared_sink_links_components(self):
        # 0 -> 1 -> 2: middle node is sink of block {0,1}, source of {1,2}.
        d = chain(3)
        dec = decompose(d)
        first, second = dec.components
        assert first.shared_sinks == (1,)
        assert 1 in second.nonsinks
        assert dec.super_children[0] == [1]

    def test_node_in_two_components(self):
        d = chain(3)
        dec = decompose(d)
        # Node 1 appears in both components but is scheduled only in one.
        appears = [c.index for c in dec.components if 1 in c.nodes]
        assert len(appears) == 2
        assert dec.comp_of[1] == dec.components[1].index


class TestNonBipartite:
    def test_crossed_forks_form_one_component(self):
        # a->p->t, b->t, b->q->u, a->u (the non-peelable entanglement).
        d = Dag(6, [(0, 2), (2, 4), (1, 4), (1, 3), (3, 5), (0, 5)])
        dec = decompose(d)
        check_invariants(d, dec)
        assert dec.n_components == 1
        assert not dec.components[0].is_bipartite
        assert dec.components[0].size == 6

    def test_unequal_depth_join_peels_bipartite(self):
        # q->p, p->t, s->t: C(q) = {q,p} is bipartite and peels first;
        # then {p, s, t} forms a bipartite block.
        d = Dag(4, [(0, 1), (1, 3), (2, 3)])
        dec = decompose(d)
        check_invariants(d, dec)
        assert dec.n_components == 2
        assert all(c.is_bipartite for c in dec.components)

    def test_cross_component_arcs_in_superdag_for_interior_nodes(self):
        # Interior node of a non-bipartite component with a child outside.
        d = Dag(
            8,
            [
                (0, 2), (2, 4), (1, 4), (1, 3), (3, 5), (0, 5),
                # interior node 2 also feeds 6, which leads to sink 7
                (2, 6), (6, 7),
            ],
        )
        dec = decompose(d)
        check_invariants(d, dec)


class TestRandomized:
    @pytest.mark.parametrize("seed", range(8))
    def test_invariants_on_random_dags(self, seed):
        rng = np.random.default_rng(seed)
        from tests.conftest import random_small_dag

        for _ in range(10):
            d = random_small_dag(rng, max_n=12)
            reduced, _ = remove_shortcuts(d)
            dec = decompose(reduced)
            check_invariants(reduced, dec)

    def test_layered_random(self, rng):
        from repro.dag.builders import layered_random

        d = layered_random([4, 6, 5, 3], 0.3, rng)
        reduced, _ = remove_shortcuts(d)
        dec = decompose(reduced)
        check_invariants(reduced, dec)


def _all_closures_reference(sources, children_of, parents_of, alive, apc):
    """The minimality search as first written: build every C(s) and keep
    the smallest, ties to the lowest s.  Test-only oracle for the
    linear-time search in ``decompose._minimal_closure``."""

    def closure(s):
        S, T = {s}, set()
        src_stack, t_stack = [s], []
        while src_stack or t_stack:
            if src_stack:
                for c in children_of(src_stack.pop()):
                    if c not in T and c not in S:
                        T.add(c)
                        t_stack.append(c)
            else:
                for p in parents_of(t_stack.pop()):
                    if not alive[p] or p in S or p in T:
                        continue
                    if apc[p] == 0:
                        S.add(p)
                        src_stack.append(p)
                    else:
                        T.add(p)
                        t_stack.append(p)
        return S, T

    candidates = [closure(s) + (s,) for s in sources]
    S, T, _ = min(candidates, key=lambda e: (len(e[0]) + len(e[1]), e[2]))
    return S, T


def _assert_same_as_reference(dag, monkeypatch):
    """Decompose *dag* with both searches; return the general-block count."""
    # ``repro.core.decompose`` the attribute is the function; fetch the module.
    module = importlib.import_module("repro.core.decompose")
    fast = decompose(dag)
    with monkeypatch.context() as m:
        m.setattr(module, "_minimal_closure", _all_closures_reference)
        ref = decompose(dag)
    assert fast.components == ref.components
    assert fast.comp_of == ref.comp_of
    assert fast.super_children == ref.super_children
    assert fast.super_parents == ref.super_parents
    return sum(1 for c in fast.components if not c.is_bipartite)


class TestMinimalClosureSearch:
    """The SCC-based search picks the same closure as the all-closures one."""

    def test_random_dags(self, monkeypatch):
        from repro.dag.builders import layered_random, random_dag

        rng = np.random.default_rng(2006)
        general = 0
        for i in range(300):
            if i % 2:
                d = random_dag(
                    int(rng.integers(2, 40)), float(rng.uniform(0.05, 0.4)), rng
                )
            else:
                widths = [int(rng.integers(1, 8)) for _ in range(rng.integers(2, 6))]
                d = layered_random(widths, float(rng.uniform(0.2, 0.7)), rng)
            reduced, _ = remove_shortcuts(d)
            general += _assert_same_as_reference(reduced, monkeypatch)
        assert general > 0  # the general path ran

    def test_equal_closures_tie_to_lowest_source(self, monkeypatch):
        # Two disjoint crossed-fork blocks (see TestNonBipartite) of equal
        # size with interleaved source ids: {0, 3} and {1, 2}.  The block
        # holding the lowest source, 0, is detached first.
        arcs = []
        for a, b, p, q, t, u in ((0, 3, 4, 5, 8, 9), (1, 2, 6, 7, 10, 11)):
            arcs += [(a, p), (p, t), (b, t), (b, q), (q, u), (a, u)]
        d = Dag(12, arcs)
        assert _assert_same_as_reference(d, monkeypatch) == 2
        assert decompose(d).components[0].nonsinks == (0, 3, 4, 5)

    def test_full_inspiral(self, monkeypatch):
        from repro.workloads.registry import get_workload

        reduced, _ = remove_shortcuts(get_workload("inspiral"))
        assert _assert_same_as_reference(reduced, monkeypatch) > 0

    def test_incremental_remnant_views(self, monkeypatch):
        # Capture the _RemnantView objects the live scheduler hands to
        # decompose along a PRIO execution order of inspiral-small.
        from repro.core.prio import prio_schedule
        from repro.live import incremental
        from repro.workloads.registry import get_workload

        dag = get_workload("inspiral-small")
        views = []

        def capture(view):
            views.append(view)
            return decompose(view)

        scheduler = incremental.IncrementalScheduler(dag)
        order = prio_schedule(dag).schedule
        with monkeypatch.context() as m:
            m.setattr(incremental, "decompose", capture)
            for k in range(0, dag.n, 4):
                scheduler.priorities(set(order[:k]))
        assert views and all(
            isinstance(v, incremental._RemnantView) for v in views
        )
        general = sum(_assert_same_as_reference(v, monkeypatch) for v in views)
        assert general > 0
