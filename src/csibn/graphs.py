"""Small undirected-graph helpers shared by the transform, cutset and
inference modules.

Adjacency maps are ``dict[str, set[str]]``; all procedures are deterministic,
breaking ties in lexicographic node order.  Node elimination (connect the
node's neighbors, drop the node) is one helper that both the min-fill order
and the elimination cliques use.  The min-fill order is incremental: each
node's fill count is computed once, and after an elimination only the
eliminated node's neighbors are recounted, while each other common neighbor
of a fill edge's two ends loses one per such edge.
"""

from __future__ import annotations

import heapq
from typing import Iterable


def copy_adjacency(adj: dict[str, set[str]]) -> dict[str, set[str]]:
    return {v: set(ns) for v, ns in adj.items()}


def two_core(adj: dict[str, set[str]]) -> set[str]:
    """Nodes surviving iterated removal of degree-<=1 nodes.

    Empty exactly when the graph is a forest.
    """
    work = copy_adjacency(adj)
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


def _fill(adj: dict[str, set[str]], v: str) -> int:
    """Number of missing edges among ``v``'s neighbors."""
    ns = adj[v]
    present = sum(len(ns & adj[a]) for a in ns) // 2
    return len(ns) * (len(ns) - 1) // 2 - present


def _eliminate(
    adj: dict[str, set[str]], v: str
) -> tuple[set[str], list[tuple[str, str]]]:
    """Connect ``v``'s neighbors pairwise and drop ``v`` from ``adj``.

    Returns ``v``'s neighbor set and the fill edges that were added.
    """
    ns = adj.pop(v)
    for n in ns:
        adj[n].discard(v)
    added: list[tuple[str, str]] = []
    ns_list = list(ns)
    for i, a in enumerate(ns_list):
        for b in ns_list[i + 1 :]:
            if b not in adj[a]:
                adj[a].add(b)
                adj[b].add(a)
                added.append((a, b))
    return ns, added


def min_fill_order(adj: dict[str, set[str]]) -> list[str]:
    """Elimination order greedily minimizing fill-in edges.

    Each step eliminates the node of least ``(fill, name)``: the fewest
    missing edges among its neighbors, ties broken toward the
    lexicographically smallest name, which keeps the order (and everything
    derived from it) reproducible.  Fill counts are computed once and kept
    current incrementally in a heap with lazily skipped stale entries: after
    eliminating ``v`` only ``v``'s neighbors are recounted, and every other
    common neighbor of a fill edge's two ends loses one per such edge; no
    other node's fill can change.
    """
    work = copy_adjacency(adj)
    fill = {v: _fill(work, v) for v in work}
    heap = [(f, v) for v, f in fill.items()]
    heapq.heapify(heap)
    order: list[str] = []
    while heap:
        f, v = heapq.heappop(heap)
        if fill.get(v) != f:
            continue
        order.append(v)
        del fill[v]
        ns, added = _eliminate(work, v)
        for n in ns:
            fill[n] = _fill(work, n)
        touched = set(ns)
        for a, b in added:
            for u in (work[a] & work[b]) - ns:
                fill[u] -= 1
                touched.add(u)
        for u in touched:
            heapq.heappush(heap, (fill[u], u))
    return order


def elimination_cliques(
    adj: dict[str, set[str]], order: Iterable[str]
) -> list[frozenset[str]]:
    """Maximal cliques of the graph triangulated along ``order``.

    Each elimination step induces the clique {node} + current neighbors;
    cliques subsumed by an earlier, larger one are dropped.  Only the
    clique of an earlier node that had ``v`` as a neighbor can hold
    ``v``'s clique, so only those are tested.
    """
    work = copy_adjacency(adj)
    containing: dict[str, list[frozenset[str]]] = {v: [] for v in work}
    cliques: list[frozenset[str]] = []
    for v in order:
        clique = frozenset(work[v] | {v})
        if not any(clique < other for other in containing[v]):
            cliques.append(clique)
        for n in work[v]:
            containing[n].append(clique)
        _eliminate(work, v)
    return cliques
