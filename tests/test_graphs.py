"""Graph helpers: incremental min-fill order and elimination cliques against
the naive full-rescan versions, pinned min-fill orders on small graphs, plus
the fixtures' clique reports."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from csibn import fixtures
from csibn.graphs import copy_adjacency, elimination_cliques, elimination_steps, min_fill_order
from csibn.transform import clique_report, decompose_network


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


def oracle_elimination_cliques(adj, order):
    """Every elimination clique, then drop those strictly inside any other
    and repeats."""
    work = copy_adjacency(adj)
    raw = []
    for v in order:
        raw.append(frozenset(work[v] | {v}))
        ns_list = sorted(work[v])
        for i, a in enumerate(ns_list):
            for b in ns_list[i + 1 :]:
                work[a].add(b)
                work[b].add(a)
        for n in ns_list:
            work[n].discard(v)
        del work[v]
    cliques = []
    for c in raw:
        if not any(c < other for other in raw):
            if c not in cliques:
                cliques.append(c)
    return cliques


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
    order = min_fill_order(adj)
    assert adj == before
    assert sorted(order) == sorted(adj)
    assert order == oracle_min_fill_order(adj)



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
    assert min_fill_order(adj) == expected
    assert oracle_min_fill_order(adj) == expected


@settings(max_examples=200, deadline=None)
@given(undirected_graphs())
def test_elimination_cliques_match_all_pairs_filter(graph):
    adj, rnd = graph
    before = copy_adjacency(adj)
    arbitrary = sorted(adj)
    rnd.shuffle(arbitrary)
    for order in (min_fill_order(adj), arbitrary):
        steps = elimination_steps(adj, order)
        assert elimination_cliques(order, steps) == oracle_elimination_cliques(adj, order)
    assert adj == before


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
