"""Graph helpers: incremental min-fill order, its elimination cliques and the
join tree read off them, against the naive full-rescan versions; pinned
min-fill orders on small graphs, plus the fixtures' clique reports."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from csibn import fixtures
from csibn.graphs import elimination_cliques, min_fill_order
from csibn.transform import clique_report, decompose_network

from conftest import moral_adjacency, windowed_net


def copy_adjacency(adj):
    return {v: set(ns) for v, ns in adj.items()}


def oracle_min_fill_order(adj):
    """Rescan every remaining node's neighbor pairs at every step and take
    the first strictly smaller fill in sorted name order."""
    work = copy_adjacency(adj)
    order = []
    while work:
        best = None
        best_fill = None
        for v in sorted(work):
            ns_list = sorted(work[v])
            fill = 0
            for i, a in enumerate(ns_list):
                for b in ns_list[i + 1 :]:
                    if b not in work[a]:
                        fill += 1
            if best_fill is None or fill < best_fill:
                best, best_fill = v, fill
        order.append(best)
        ns_list = sorted(work[best])
        for i, a in enumerate(ns_list):
            for b in ns_list[i + 1 :]:
                work[a].add(b)
                work[b].add(a)
        for n in ns_list:
            work[n].discard(best)
        del work[best]
    return order


def oracle_elimination_steps(adj, order):
    """Replay the elimination along ``order`` on sets: each node's clique is
    itself and its neighbors when it is eliminated."""
    work = copy_adjacency(adj)
    steps = []
    for v in order:
        steps.append(frozenset(work[v] | {v}))
        ns_list = sorted(work[v])
        for i, a in enumerate(ns_list):
            for b in ns_list[i + 1 :]:
                work[a].add(b)
                work[b].add(a)
        for n in ns_list:
            work[n].discard(v)
        del work[v]
    return steps


def oracle_elimination_cliques(adj, order):
    """Every elimination clique, then drop those strictly inside any other
    and repeats."""
    raw = oracle_elimination_steps(adj, order)
    cliques = []
    for c in raw:
        if not any(c < other for other in raw):
            if c not in cliques:
                cliques.append(c)
    return cliques


def components(adj):
    seen, count = set(), 0
    for v in adj:
        if v not in seen:
            count += 1
            stack = [v]
            seen.add(v)
            while stack:
                for n in adj[stack.pop()] - seen:
                    seen.add(n)
                    stack.append(n)
    return count


@st.composite
def undirected_graphs(draw):
    """0-25 nodes with short shuffled names (so fill ties are common), any
    edge density, split into up to four parts with no edges between them."""
    n = draw(st.integers(0, 25))
    names = draw(
        st.lists(
            st.text(alphabet="abcz", min_size=1, max_size=3),
            min_size=n,
            max_size=n,
            unique=True,
        )
    )
    rnd = draw(st.randoms(use_true_random=False))
    rnd.shuffle(names)
    density = draw(st.floats(0.0, 1.0))
    parts = draw(st.integers(1, 4))
    part = {v: rnd.randrange(parts) for v in names}
    adj = {v: set() for v in names}
    for i, a in enumerate(names):
        for b in names[i + 1 :]:
            if part[a] == part[b] and rnd.random() < density:
                adj[a].add(b)
                adj[b].add(a)
    return adj, rnd


@settings(max_examples=200, deadline=None)
@given(undirected_graphs())
def test_min_fill_order_matches_full_rescan(graph):
    adj, _ = graph
    before = copy_adjacency(adj)
    order, steps = min_fill_order(adj)
    assert adj == before
    assert sorted(order) == sorted(adj)
    assert order == oracle_min_fill_order(adj)
    assert steps == oracle_elimination_steps(adj, order)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_min_fill_order_matches_full_rescan_on_scattered_names(seed):
    # a 300-variable windowed network's moral graph, renamed by a random
    # permutation, so that sorted-name rank and structure disagree
    rng = np.random.default_rng(seed)
    moral = moral_adjacency(windowed_net(rng, 300))
    rename = dict(zip(sorted(moral), map(str, rng.permutation(sorted(moral)))))
    adj = {rename[v]: {rename[n] for n in ns} for v, ns in moral.items()}
    order, steps = min_fill_order(adj)
    assert order == oracle_min_fill_order(adj)
    assert steps == oracle_elimination_steps(adj, order)


def _graph(edges, isolated=()):
    adj = {v: set() for v in isolated}
    for a, b in edges:
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    return adj


# ties go to the lexicographically smallest name: "V10" before "V2"
PINNED_ORDERS = {
    "empty": ({}, []),
    "isolated": (_graph([], ["b", "V10", "a", "V2"]), ["V10", "V2", "a", "b"]),
    "star": (_graph([("V1", "V2"), ("V1", "V10")]), ["V10", "V1", "V2"]),
    "four-cycle": (
        _graph([("V2", "V10"), ("V10", "V3"), ("V3", "V20"), ("V20", "V2")]),
        ["V10", "V2", "V20", "V3"],
    ),
    "disconnected": (
        _graph([("a", "b"), ("b", "c"), ("a", "c"), ("x", "y"), ("y", "z")], ["m"]),
        ["a", "b", "c", "m", "x", "y", "z"],
    ),
}


@pytest.mark.parametrize("case", sorted(PINNED_ORDERS))
def test_min_fill_order_pinned(case):
    adj, expected = PINNED_ORDERS[case]
    assert min_fill_order(adj)[0] == expected
    assert oracle_min_fill_order(adj) == expected


@settings(max_examples=200, deadline=None)
@given(undirected_graphs())
def test_elimination_cliques_match_all_pairs_filter(graph):
    adj, rnd = graph
    before = copy_adjacency(adj)
    arbitrary = sorted(adj)
    rnd.shuffle(arbitrary)
    for order in (min_fill_order(adj)[0], arbitrary):
        cliques, _, _ = elimination_cliques(order, oracle_elimination_steps(adj, order))
        assert cliques == oracle_elimination_cliques(adj, order)
    assert adj == before


@settings(max_examples=200, deadline=None)
@given(undirected_graphs())
def test_elimination_cliques_form_a_join_tree(graph):
    adj, rnd = graph
    arbitrary = sorted(adj)
    rnd.shuffle(arbitrary)
    for order in (min_fill_order(adj)[0], arbitrary):
        steps = oracle_elimination_steps(adj, order)
        cliques, home, up = elimination_cliques(order, steps)
        assert len(up) == len(cliques)
        # each variable's home holds its elimination clique
        for v, step in zip(order, steps):
            assert step <= cliques[home[v]]
        # each link's separator, the elimination clique of the clique's
        # last-eliminated member less that member, lies in both its cliques
        # and is all they share
        for a, b in enumerate(up):
            top = max((v for v in order if home[v] == a), key=order.index)
            sep = steps[order.index(top)] - {top}
            assert (b >= 0) == bool(sep)
            if b >= 0:
                assert sep <= cliques[a] and sep <= cliques[b]
                assert cliques[a] & cliques[b] == sep
        # the links form a forest with one tree per connected component
        for a in range(len(up)):
            for _ in range(len(up)):
                if a < 0:
                    break
                a = up[a]
            assert a < 0
        assert up.count(-1) == components(adj)
        # the cliques that hold any one variable form a connected subtree
        for v in order:
            holding = {a for a, clique in enumerate(cliques) if v in clique}
            links = sum(up[a] in holding for a in holding)
            assert len(holding) - links == 1


# clique reports of the fixtures before and after decompose_network, pinned
PINNED = {
    ("fig1", "before"): (
        ["S", "U", "V", "W", "X", "Z"],
        [["S", "U", "V", "W"], ["U", "V", "W", "X"], ["W", "X", "Z"]],
    ),
    ("fig1", "after"): (
        ["X@U=t", "Z", "V", "S", "U", "W", "X", "X@U=f"],
        [
            ["U", "X", "X@U=f", "X@U=t"],
            ["W", "X", "Z"],
            ["S", "V", "W", "X@U=f"],
            ["S", "U", "W", "X@U=f"],
            ["U", "W", "X", "X@U=f"],
        ],
    ),
    ("fig2", "before"): (
        ["A", "B", "C", "D", "X"],
        [["A", "B", "C", "D", "X"]],
    ),
    ("fig2", "after"): (
        [
            "A", "B", "C", "X", "X@A=f,B=f,C=t", "X@A=f,B=t", "D", "X@A=f",
            "X@A=f,B=f", "X@A=f,B=f,C=f", "X@A=t",
        ],
        [
            ["A", "X", "X@A=f", "X@A=t"],
            ["B", "X@A=f", "X@A=f,B=f", "X@A=f,B=t"],
            ["C", "X@A=f,B=f", "X@A=f,B=f,C=f", "X@A=f,B=f,C=t"],
            ["D", "X@A=f,B=f,C=f", "X@A=t"],
            ["X@A=f", "X@A=f,B=f", "X@A=t"],
            ["X@A=f,B=f", "X@A=f,B=f,C=f", "X@A=t"],
        ],
    ),
    ("fig3", "before"): (
        ["A", "B1", "B2", "B3", "B4", "X"],
        [["A", "B1", "B2", "B3", "B4", "X"]],
    ),
    ("fig3", "after"): (
        ["A", "B1", "B2", "B3", "B4", "X", "X@A=f", "X@A=t"],
        [["A", "X", "X@A=f", "X@A=t"], ["B1", "B2", "X@A=t"], ["B3", "B4", "X@A=f"]],
    ),
}


@pytest.mark.parametrize("fig, stage", sorted(PINNED))
def test_fixture_clique_reports_pinned(fig, stage):
    net = fixtures.load(fig)
    if stage == "after":
        net, _ = decompose_network(net)
    report = clique_report(net)
    order, cliques = PINNED[fig, stage]
    assert list(report.elimination_order) == order
    assert [sorted(c) for c in report.cliques] == cliques
