"""Small undirected-graph helpers shared by the transform, cutset and
inference modules.

Adjacency maps are ``dict[str, set[str]]``; all procedures are deterministic,
breaking ties in lexicographic node order.  Node elimination (connect the
node's neighbors, drop the node) is one helper that the elimination steps
use.  The min-fill order runs on integer bitsets instead: nodes are ranked by
sorted name, each holds its neighbors as an ``int`` mask and its count of
edges among them, and an elimination updates those counts exactly where they
change, so no node's fill is ever recounted from scratch.
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


def _bits(mask: int) -> list[int]:
    """The positions of ``mask``'s set bits, lowest first."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _missing(ns: int, tri: int) -> int:
    """Missing edges among the neighbors ``ns`` that have ``tri`` edges among them."""
    d = ns.bit_count()
    return d * (d - 1) // 2 - tri


def _eliminate(adj: dict[str, set[str]], v: str) -> None:
    """Connect ``v``'s neighbors pairwise and drop ``v`` from ``adj``."""
    ns = adj.pop(v)
    for n in ns:
        adj[n] |= ns
        adj[n] -= {n, v}


def min_fill_order(adj: dict[str, set[str]]) -> list[str]:
    """Elimination order greedily minimizing fill-in edges.

    Each step eliminates the node of least ``(fill, name)``: the fewest
    missing edges among its neighbors, ties broken toward the
    lexicographically smallest name, which keeps the order (and everything
    derived from it) reproducible.  Nodes are ranked by sorted name, so the
    heap can key on ``(fill, rank)``; stale entries are skipped lazily.  Each
    node holds its neighbors as a bitset and ``tri``, the number of edges
    among them, so its fill is ``deg (deg - 1) / 2 - tri``.  Eliminating
    ``v`` takes from each neighbor's ``tri`` the edges it had to ``v``'s other
    neighbors; each fill edge ``(a, b)`` adds their common neighbors to
    ``tri[a]`` and ``tri[b]``, and one to each common neighbor's.
    """
    names = sorted(adj)
    rank = {v: i for i, v in enumerate(names)}
    near = [[rank[n] for n in adj[v]] for v in names]
    nb = [sum(1 << n for n in ns) for ns in near]
    tri = [sum((nb[n] & mask).bit_count() for n in ns) // 2 for ns, mask in zip(near, nb)]
    fill: list = [_missing(mask, t) for mask, t in zip(nb, tri)]
    heap = [(f, v) for v, f in enumerate(fill)]
    heapq.heapify(heap)
    order: list[str] = []
    while heap:
        f, v = heapq.heappop(heap)
        if fill[v] != f:
            continue
        order.append(names[v])
        fill[v] = None
        ns = touched = nb[v]
        for n in _bits(ns):
            nb[n] ^= 1 << v
            tri[n] -= (nb[n] & ns).bit_count()
        for a in _bits(ns):
            for b in _bits(ns & ~nb[a] & -(2 << a)):  # non-neighbors above a
                common = nb[a] & nb[b]
                tri[a] += common.bit_count()
                tri[b] += common.bit_count()
                for c in _bits(common):
                    tri[c] += 1
                touched |= common
                nb[a] |= 1 << b
                nb[b] |= 1 << a
        for u in _bits(touched):
            new = _missing(nb[u], tri[u])
            if new != fill[u]:  # else its heap entry is still current
                fill[u] = new
                heapq.heappush(heap, (new, u))
    return order


def elimination_steps(adj: dict[str, set[str]], order: Iterable[str]) -> list[frozenset[str]]:
    """Each node's clique in the graph triangulated along ``order``, in that
    order: the node and its neighbors when it is eliminated."""
    work = copy_adjacency(adj)
    steps = []
    for v in order:
        steps.append(frozenset(work[v] | {v}))
        _eliminate(work, v)
    return steps


def elimination_cliques(order: Iterable, steps: Iterable[frozenset]) -> list[frozenset]:
    """Maximal cliques of a triangulated graph, from its elimination
    ``order`` and each node's :func:`elimination_steps` clique.

    A step's clique subsumed by an earlier, larger one is dropped.  Only the
    clique of an earlier node that had ``v`` as a neighbor can hold ``v``'s
    clique, so only those are tested.
    """
    containing: dict = {}
    cliques: list[frozenset] = []
    for v, clique in zip(order, steps):
        if not any(clique < other for other in containing.get(v, ())):
            cliques.append(clique)
        for n in clique - {v}:
            containing.setdefault(n, []).append(clique)
    return cliques
