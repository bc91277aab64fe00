"""Structural decomposition of tree CPTs and join-tree size reporting.

A node whose CPT-tree branches asymmetrically can be split: each subtree
under the root test becomes its own *conditional node* carrying only the
parents that subtree actually mentions, and the original node becomes a
deterministic *multiplexer* that copies the conditional node selected by
the root-test variable's value.  The transformed network defines the same
joint distribution over the original variables once the auxiliary nodes
are summed out, but its families are smaller, which shrinks the cliques a
join-tree method would have to build.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

from .model import (
    CptTable,
    CptTree,
    Distribution,
    Leaf,
    Network,
    Node,
    NodeSpec,
    Variable,
)
from . import graphs


def is_full_tree(tree: CptTree) -> bool:
    """True when every root-to-leaf path tests the same variables in the
    same order: the tree is an exhaustive table in disguise (a bare leaf
    counts, as the table over zero parents)."""
    return _shape(tree)[1] is not None


def _shape(tree: CptTree) -> tuple[int, tuple[str, ...] | None, frozenset[str]]:
    """The tree's leaf count, the variables each of its root-to-leaf paths
    tests, in order, or None when two paths differ, and the variables it
    tests, all from one walk."""
    if isinstance(tree, Leaf):
        return 1, (), frozenset()
    shapes = [_shape(sub) for _, sub in tree.branches]
    sigs = {sig for _, sig, _ in shapes}
    sig = (tree.test,) + sigs.pop() if len(sigs) == 1 and None not in sigs else None
    tested = frozenset([tree.test]).union(*[t for _, _, t in shapes])
    return sum(size for size, _, _ in shapes), sig, tested


@dataclass(frozen=True)
class DecompositionReport:
    """Accounting for one decomposition step.

    ``table_entries_before`` is the row count of the equivalent flat table
    (the product of parent arities); ``tree_entries_before`` counts the
    tree's leaves.  ``entries_after`` sums the conditional nodes' leaves
    plus the multiplexer's rows.
    """

    node: str
    table_entries_before: int
    tree_entries_before: int
    conditional_nodes: tuple[tuple[str, tuple[str, ...], int], ...]
    multiplexer: tuple[str, int]
    entries_after: int


def _conditional_name(base: str, test: str, value: str) -> str:
    sep = "," if "@" in base else "@"
    return f"{base}{sep}{test}={value}"


class _Parts:
    """A network under decomposition: the variable order, the variables and
    node specs by name, and each split node's conditional nodes, which each
    split changes in place.  One :class:`Network` is built at the end."""

    def __init__(self, net: Network):
        self.order = list(net.var_names)
        self.variables = {v.name: v for v in net.variables}
        self.specs = {s.var: s for s in net.nodes}
        self.conditionals: dict[str, list[str]] = {}

    def network(self) -> Network:
        """Each node declared right after its conditional nodes."""
        order, specs, pending, stack = [], self.specs, dict(self.conditionals), self.order[::-1]
        while stack:
            if stack[-1] in pending:
                stack += reversed(pending.pop(stack[-1]))
            else:
                order.append(stack.pop())
        return Network([self.variables[v] for v in order], [specs[v] for v in order if v in specs])

    def split(self, x: str) -> tuple[DecompositionReport, list[str]]:
        """Replace ``x`` by its conditional nodes, declared just before it,
        and a multiplexer over them; with the report, the conditional nodes
        whose trees are not full, in declared order."""
        variables, specs, spec = self.variables, self.specs, self.specs[x]
        tree = spec.cpt
        if not isinstance(tree, Node):
            raise ValueError(f"node {x!r} has no root test to split on")

        x_values, selector = variables[x].values, tree.test
        cond_summary: list[tuple[str, tuple[str, ...], int]] = []
        unfinished: list[str] = []
        for value, subtree in tree.branches:
            name = _conditional_name(x, selector, value)
            if name in variables:
                raise ValueError(f"decomposition name collision: {name!r} already declared")
            # validate forbids a path that tests the selector twice, so the
            # branch is the tree reduced by selector=value, and its tested
            # parents are the ones the conditional node keeps
            size, sig, tested = _shape(subtree)
            parents = tuple(p for p in spec.parents if p in tested)
            variables[name] = Variable(name, x_values)
            specs[name] = NodeSpec(name, parents, subtree)
            cond_summary.append((name, parents, size))
            if sig is None:
                unfinished.append(name)

        # The multiplexer copies the conditional node picked by the selector.
        mux = _multiplexer(len(variables[selector].values), len(x_values))
        names = [name for name, _, _ in cond_summary]
        specs[x] = NodeSpec(x, (selector, *names), mux, deterministic=True)
        self.conditionals[x] = names
        # the subtrees' leaves are the tree's: validate forbids a repeated test on a path
        tree_entries = sum(s for _, _, s in cond_summary)
        return DecompositionReport(
            node=x,
            table_entries_before=math.prod(len(variables[p].values) for p in spec.parents),
            tree_entries_before=tree_entries,
            conditional_nodes=tuple(cond_summary),
            multiplexer=(x, len(mux.rows)),
            entries_after=tree_entries + len(mux.rows),
        ), unfinished


@functools.cache
def _multiplexer(selector_arity: int, arity: int) -> CptTable:
    """The multiplexer CPT over a selector with ``selector_arity`` values and
    as many conditional nodes of ``arity`` values: row ``(s, c_1..c_k)``, in
    row-major order, is one-hot at ``c_{s+1}``.  It depends on the two
    arities alone, so each shape's one immutable table serves every split."""
    one_hot = [Distribution(tuple(float(i == c) for i in range(arity))) for c in range(arity)]
    combos = itertools.product(range(selector_arity), *[range(arity)] * selector_arity)
    return CptTable(tuple(one_hot[chosen[s]] for s, *chosen in combos))


def decompose_network(net: Network) -> tuple[Network, list[DecompositionReport]]:
    """Split every asymmetric tree CPT until only full trees remain.

    Original nodes are visited in topological order; conditional nodes
    introduced along the way are split recursively, depth first.
    Multiplexers (and tabular CPTs generally) are left alone.  Running the
    transform on its own output is the identity.
    """
    reports: list[DecompositionReport] = []
    parts = _Parts(net)
    agenda = [  # a stack of the nodes to split
        spec.var
        for spec in map(parts.specs.get, reversed(net.topological_order()))
        if spec and not (isinstance(spec.cpt, CptTable) or spec.deterministic)
        and not is_full_tree(spec.cpt)
    ]
    while agenda:
        report, unfinished = parts.split(agenda.pop())
        reports.append(report)
        agenda += reversed(unfinished)
    return (parts.network() if reports else net), reports


# -- join-tree size metrics --------------------------------------------------


@dataclass(frozen=True)
class CliqueReport:
    """Clique structure of the moralized, min-fill-triangulated network.

    ``max_clique_weight`` is max over cliques of the summed log2 arities
    (the log-size of the largest clique table); ``total_table_weight`` sums
    every clique's state count.
    """

    elimination_order: tuple[str, ...]
    cliques: tuple[frozenset[str], ...]
    max_clique_weight: float
    total_table_weight: float


def moral_graph(net: Network) -> tuple[dict[int, set[int]], list[int]]:
    """The network's moral graph on integer labels, and each label's index
    into ``net.var_names``.  A variable's label is its position in
    sorted-name order, so min-fill breaks its ties between labels as it
    would between the names."""
    names = net.var_names
    index = sorted(range(len(names)), key=names.__getitem__)
    label = {names[i]: k for k, i in enumerate(index)}
    adj: dict[int, set[int]] = {k: set() for k in range(len(index))}
    for spec in net.nodes:
        family = [label[v] for v in (spec.var, *spec.parents)]
        for v in family:
            adj[v].update(family)
    for k, ns in adj.items():
        ns.discard(k)
    return adj, index


def triangulation(net: Network) -> tuple:
    """The network's min-fill triangulation of its moral graph and its join
    tree, in indices into ``net.var_names``: the elimination order, each
    variable's position in it, the maximal cliques in elimination order,
    each variable's home clique and each clique's link toward its root, -1
    at a root (:func:`graphs.elimination_cliques`).  It depends on the
    network alone, so it is computed on the first call and kept on the
    network."""
    if net._triangulation is None:
        adj, index = moral_graph(net)
        order, steps = graphs.min_fill_order(adj)
        cliques, home, up = graphs.elimination_cliques(order, steps)
        rank, where = [0] * len(index), [0] * len(index)
        for k, v in enumerate(order):
            rank[index[v]], where[index[v]] = k, home[v]
        net._triangulation = (
            tuple(index[v] for v in order),
            tuple(rank),
            tuple(frozenset(index[u] for u in clique) for clique in cliques),
            tuple(where),
            tuple(up),
        )
    return net._triangulation


def clique_report(net: Network) -> CliqueReport:
    order, _, cliques = triangulation(net)[:3]
    names = net.var_names
    arity = [len(v.values) for v in net.variables]
    bits = [math.log2(a) for a in arity]
    return CliqueReport(
        elimination_order=tuple(names[v] for v in order),
        cliques=tuple(frozenset(names[u] for u in clique) for clique in cliques),
        # fsum: correctly rounded whatever order a clique's members iterate in
        max_clique_weight=max((math.fsum(bits[u] for u in c) for c in cliques), default=0.0),
        total_table_weight=float(sum(float(math.prod(arity[u] for u in c)) for c in cliques)),
    )
