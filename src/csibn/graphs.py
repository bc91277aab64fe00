"""Small undirected-graph helpers shared by the transform and cutset modules.

Adjacency maps are ``dict[str, set[str]]``; all procedures are deterministic,
breaking ties in lexicographic node order.
"""

from __future__ import annotations

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


def min_fill_order(adj: dict[str, set[str]]) -> list[str]:
    """Elimination order greedily minimizing fill-in edges.

    Ties break toward the lexicographically smallest node name, which keeps
    the order (and everything derived from it) reproducible.
    """
    work = copy_adjacency(adj)
    order: list[str] = []
    while work:
        best = None
        best_fill = None
        for v in sorted(work):
            ns = work[v]
            fill = 0
            ns_list = sorted(ns)
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


def elimination_cliques(
    adj: dict[str, set[str]], order: Iterable[str]
) -> list[frozenset[str]]:
    """Maximal cliques of the graph triangulated along ``order``.

    Each elimination step induces the clique {node} + current neighbors;
    cliques subsumed by an earlier, larger one are dropped.
    """
    work = copy_adjacency(adj)
    raw: list[frozenset[str]] = []
    for v in order:
        clique = frozenset(work[v] | {v})
        raw.append(clique)
        ns_list = sorted(work[v])
        for i, a in enumerate(ns_list):
            for b in ns_list[i + 1 :]:
                work[a].add(b)
                work[b].add(a)
        for n in ns_list:
            work[n].discard(v)
        del work[v]
    cliques: list[frozenset[str]] = []
    for c in raw:
        if not any(c < other for other in raw):
            if c not in cliques:
                cliques.append(c)
    return cliques
