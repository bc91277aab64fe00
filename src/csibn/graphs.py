"""Small undirected-graph helpers shared by the transform, cutset and
inference modules.

Adjacency maps are ``dict[node, set[node]]`` over names or integer labels;
all procedures are deterministic, breaking ties in sorted node order.  A
network's moral graph is eliminated once, by :func:`min_fill_order`, which
records each step's clique; :func:`elimination_cliques` reads the maximal
cliques and the join tree off those steps without eliminating again.
Min-fill ranks nodes in sorted order; each holds the set of its neighbors'
ranks and its count of edges among them, and an elimination updates those
counts exactly where they change, so no node's fill is ever recounted from
scratch.
"""

from __future__ import annotations

import heapq
from typing import Sequence


def two_core(adj: dict[str, set[str]]) -> set[str]:
    """Nodes surviving iterated removal of degree-<=1 nodes.

    Empty exactly when the graph is a forest.
    """
    work = {v: set(ns) for v, ns in adj.items()}
    pending = sorted(v for v, ns in work.items() if len(ns) <= 1)
    while pending:
        v = pending.pop()
        if v not in work:
            continue
        for n in work[v]:
            work[n].discard(v)
            if len(work[n]) <= 1:
                pending.append(n)
        del work[v]
    return set(work)


def _missing(ns: set, tri: int) -> int:
    """Missing edges among the neighbors ``ns`` that have ``tri`` edges among them."""
    d = len(ns)
    return d * (d - 1) // 2 - tri


def min_fill_order(adj: dict) -> tuple[list, list[frozenset]]:
    """Elimination order greedily minimizing fill-in edges, and each step's
    clique in that order: the node and its neighbors when it is eliminated.

    Each step eliminates the node of least ``(fill, node)``: the fewest
    missing edges among its neighbors, ties broken toward the smallest node
    (the lexicographically smallest name), which keeps the order and all
    derived from it reproducible.  Nodes are ranked in sorted order, so the
    heap can key on ``(fill, rank)``; stale entries are skipped lazily.
    Each node holds the set of its neighbors' ranks and ``tri``, the number
    of edges among them, so its fill is ``deg (deg - 1) / 2 - tri``.
    Eliminating ``v`` takes from each neighbor's ``tri`` the edges it had to
    ``v``'s other neighbors; each fill edge ``(a, b)`` adds their common
    neighbors to ``tri[a]`` and ``tri[b]``, and one to each common
    neighbor's.  These are exact counts, so the order in which a set yields
    its members changes nothing.
    """
    names = sorted(adj)
    rank = {v: i for i, v in enumerate(names)}
    nb = [{rank[n] for n in adj[v]} for v in names]
    tri = [sum(len(nb[n] & ns) for n in ns) // 2 for ns in nb]
    fill: list = [_missing(ns, t) for ns, t in zip(nb, tri)]
    heap = [(f, v) for v, f in enumerate(fill)]
    heapq.heapify(heap)
    order: list = []
    steps: list[frozenset] = []
    while heap:
        f, v = heapq.heappop(heap)
        if fill[v] != f:
            continue
        order.append(names[v])
        fill[v] = None
        ns = nb[v]
        touched = set(ns)
        steps.append(frozenset([names[v]] + [names[n] for n in ns]))
        for n in ns:
            nb[n].discard(v)
            tri[n] -= len(nb[n] & ns)
        for a in ns if f else ():  # no fill edge when the neighbors form a clique
            for b in ns - nb[a]:
                if b > a:
                    common = nb[a] & nb[b]
                    tri[a] += len(common)
                    tri[b] += len(common)
                    for c in common:
                        tri[c] += 1
                    touched |= common
                    nb[a].add(b)
                    nb[b].add(a)
        for u in touched:
            new = _missing(nb[u], tri[u])
            if new != fill[u]:  # else its heap entry is still current
                fill[u] = new
                heapq.heappush(heap, (new, u))
    return order, steps


def elimination_cliques(order: Sequence, steps: Sequence[frozenset]) -> tuple[list, dict, list]:
    """The join tree of a graph triangulated along ``order``, read off each
    node's elimination clique in ``steps`` (the node and its neighbors when
    it is eliminated, as :func:`min_fill_order` returns them): the maximal
    cliques in elimination order, each node's home (the index of the clique
    that holds its elimination clique) and each clique's link toward its
    root, -1 at a root.

    A node's parent is its first later-eliminated neighbor.  A node's clique
    is not maximal exactly when it is one smaller than the clique of one of
    its children, and it then joins the first such child's home.  Every
    other child's home links to the node's home, so each connected
    component is one tree, rooted at its last-eliminated node's home (Blair
    & Peyton, "An introduction to chordal graphs and clique trees", 1993).
    """
    rank = {v: k for k, v in enumerate(order)}
    below: dict = {}  # node -> (home, clique size) of each of its children
    cliques, home, up = [], {}, []
    for v, clique in zip(order, steps):
        children = below.pop(v, ())
        home[v] = a = next((c for c, size in children if size == len(clique) + 1), len(cliques))
        if a == len(cliques):
            cliques.append(clique)
            up.append(-1)
        for c, _ in children:
            if c != a:
                up[c] = a
        if len(clique) > 1:
            parent = min(clique - {v}, key=rank.__getitem__)
            below.setdefault(parent, []).append((a, len(clique)))
    return cliques, home, up
