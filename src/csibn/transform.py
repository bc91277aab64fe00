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
    parent_assignments,
    table_to_tree,
    tree_size,
)
from . import graphs
from .csi import instantiate_family


def is_full_tree(tree: CptTree) -> bool:
    """True when every root-to-leaf path tests the same variables in the
    same order: the tree is an exhaustive table in disguise (a bare leaf
    counts, as the table over zero parents)."""
    return _test_signature(tree) is not None


def _test_signature(tree: CptTree) -> tuple[str, ...] | None:
    if isinstance(tree, Leaf):
        return ()
    sigs = {_test_signature(sub) for _, sub in tree.branches}
    if len(sigs) != 1 or None in sigs:
        return None
    (child_sig,) = sigs
    return (tree.test,) + child_sig


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


def decompose_node(net: Network, x: str) -> Network:
    net.node(x)  # an unknown name raises the network's KeyError
    parts = _Parts(net)
    parts.split(x)
    return parts.network()


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

    def split(self, x: str) -> DecompositionReport:
        """Replace ``x`` by its conditional nodes, declared just before it,
        and a multiplexer over them."""
        variables, specs, spec = self.variables, self.specs, self.specs[x]
        tree = spec.cpt
        if isinstance(tree, CptTable):
            tree = table_to_tree(tree, [variables[p] for p in spec.parents])
        if not isinstance(tree, Node):
            raise ValueError(f"node {x!r} has no root test to split on")

        x_values, selector = variables[x].values, tree.test
        conditional_vars: list[Variable] = []
        cond_summary: list[tuple[str, tuple[str, ...], int]] = []
        for value, _ in tree.branches:
            name = _conditional_name(x, selector, value)
            if name in variables:
                raise ValueError(f"decomposition name collision: {name!r} already declared")
            subtree, parents = instantiate_family(tree, spec.parents, {selector: value})
            conditional_vars.append(Variable(name, x_values))
            specs[name] = NodeSpec(name, parents, subtree)
            cond_summary.append((name, parents, tree_size(subtree)))

        # The multiplexer copies the conditional node picked by the selector.
        selector_values, rows = variables[selector].values, []
        for assignment in parent_assignments([variables[selector]] + conditional_vars):
            chosen = conditional_vars[selector_values.index(assignment[selector])].name
            rows.append(Distribution(tuple(float(v == assignment[chosen]) for v in x_values)))
        mux_parents = (selector,) + tuple(v.name for v in conditional_vars)
        specs[x] = NodeSpec(x, mux_parents, CptTable(tuple(rows)), deterministic=True)
        variables.update((v.name, v) for v in conditional_vars)
        self.conditionals[x] = [v.name for v in conditional_vars]
        return DecompositionReport(
            node=x,
            table_entries_before=math.prod(len(variables[p].values) for p in spec.parents),
            tree_entries_before=tree_size(tree),
            conditional_nodes=tuple(cond_summary),
            multiplexer=(x, len(rows)),
            entries_after=sum(s for _, _, s in cond_summary) + len(rows),
        )


def decompose_network(net: Network) -> tuple[Network, list[DecompositionReport]]:
    """Split every asymmetric tree CPT until only full trees remain.

    Original nodes are visited in topological order; conditional nodes
    introduced along the way are split recursively, depth first.
    Multiplexers (and tabular CPTs generally) are left alone.  Running the
    transform on its own output is the identity.
    """
    reports: list[DecompositionReport] = []
    parts = _Parts(net)
    agenda = [v for v in reversed(net.topological_order()) if v in parts.specs]  # a stack
    while agenda:
        spec = parts.specs[agenda.pop()]
        if isinstance(spec.cpt, CptTable) or spec.deterministic or is_full_tree(spec.cpt):
            continue
        reports.append(parts.split(spec.var))
        agenda += reversed([name for name, _, _ in reports[-1].conditional_nodes])
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


def moral_adjacency(net: Network) -> dict[str, set[str]]:
    adj = net.skeleton()
    for spec in net.nodes:
        ps = sorted(spec.parents)
        for i, a in enumerate(ps):
            for b in ps[i + 1 :]:
                adj[a].add(b)
                adj[b].add(a)
    return adj


def triangulation(net: Network) -> tuple:
    """The network's min-fill triangulation of its moral graph and its join
    tree, in indices into ``net.var_names``: the elimination order, each
    variable's position in it, the maximal cliques in elimination order,
    each variable's home clique and each clique's link toward its root, -1
    at a root (:func:`graphs.elimination_cliques`).  It depends on the
    network alone, so it is computed on the first call and kept on the
    network."""
    if net._triangulation is None:
        order, steps = graphs.min_fill_order(moral_adjacency(net))
        cliques, home, up = graphs.elimination_cliques(order, steps)
        names = net.var_names
        index = {v: i for i, v in enumerate(names)}
        rank = {v: k for k, v in enumerate(order)}
        net._triangulation = (
            tuple(index[v] for v in order),
            tuple(rank[v] for v in names),
            tuple(frozenset(index[u] for u in clique) for clique in cliques),
            tuple(home[v] for v in names),
            tuple(up),
        )
    return net._triangulation


def clique_report(net: Network) -> CliqueReport:
    order, _, cliques = triangulation(net)[:3]
    names = net.var_names
    cliques = [frozenset(names[u] for u in clique) for clique in cliques]
    # fsum: correctly rounded whatever order a clique's names iterate in
    weights = [math.fsum(math.log2(len(net.values(v))) for v in clique) for clique in cliques]
    sizes = [float(math.prod(len(net.values(v)) for v in clique)) for clique in cliques]
    return CliqueReport(
        elimination_order=tuple(names[v] for v in order),
        cliques=tuple(cliques),
        max_clique_weight=max(weights) if weights else 0.0,
        total_table_weight=float(sum(sizes)),
    )
