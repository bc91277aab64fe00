"""Context-specific structure: vacuous arcs, tree reduction, separation tests.

A parent arc Y -> X is *vacuous* in context c when no root-to-leaf path of
X's CPT-tree that is consistent with c tests Y: whatever value Y takes, the
same leaf is reached, so the arc carries no information once c holds.
Deleting vacuous arcs yields the context network, and ordinary d-separation
on that thinner graph (conditioning additionally on the context variables)
gives a sound, purely structural independence test.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from .model import (
    Context,
    CptTree,
    Leaf,
    Network,
    Node,
    NodeSpec,
    as_tree,
    tree_tested_vars,
)


def occurs_consistent(tree: CptTree, y: str, context: Mapping[str, str]) -> bool:
    """Does some root-to-leaf path consistent with ``context`` test ``y``?

    Querying a variable that the context already binds is an error: the
    question is only meaningful for unbound parents.
    """
    if y in context:
        raise ValueError(f"variable {y!r} is bound by the context")
    return _occurs(tree, y, context)


def _occurs(tree: CptTree, y: str, context: Mapping[str, str]) -> bool:
    if isinstance(tree, Leaf):
        return False
    if tree.test == y:
        return True
    if tree.test in context:
        return _occurs(tree.branch(context[tree.test]), y, context)
    return any(_occurs(sub, y, context) for _, sub in tree.branches)


def vacuous_parents(net: Network, x: str, context: Mapping[str, str]) -> frozenset[str]:
    """Parents of ``x`` whose arcs are structurally vacuous in ``context``.

    Parents bound by the context are excluded from consideration.  Table
    CPTs expand to full trees on the fly, so they never report vacuity.
    """
    net.check_context(context)
    tree = as_tree(net, x)
    return frozenset(
        p
        for p in net.parents(x)
        if p not in context and not occurs_consistent(tree, p, context)
    )


def reduce_tree(tree: CptTree, context: Mapping[str, str]) -> CptTree:
    """The tree specialized to ``context``.

    Nodes testing a bound variable are replaced by the selected branch's
    reduction; other nodes keep all branches, reduced recursively.  The
    result tests a variable iff it is unbound and occurs on some path of
    ``tree`` consistent with ``context``.
    """
    if isinstance(tree, Leaf):
        return tree
    if tree.test in context:
        return reduce_tree(tree.branch(context[tree.test]), context)
    return Node(
        tree.test,
        tuple((val, reduce_tree(sub, context)) for val, sub in tree.branches),
    )


def reduce_network(net: Network, assignment: Mapping[str, str]) -> Network:
    """Instantiate ``assignment`` throughout the network.

    Every CPT is reduced by the assignment restricted to its parents, and
    each node's parent list shrinks to the variables its reduced tree still
    tests.  Instantiated variables stay in the network as nodes (their own
    CPTs reduced likewise); only their outgoing arcs disappear, which is the
    form the singly-connected solver consumes.
    """
    replacements: dict[str, NodeSpec] = {}
    for spec in net.nodes:
        relevant = {p: assignment[p] for p in spec.parents if p in assignment}
        tree = as_tree(net, spec.var)
        if relevant:
            tree = reduce_tree(tree, relevant)
        remaining = tree_tested_vars(tree)
        new_parents = tuple(p for p in spec.parents if p in remaining)
        replacements[spec.var] = NodeSpec(spec.var, new_parents, tree, spec.deterministic)
    return net.with_nodes(replacements)


# -- separation --------------------------------------------------------------


def d_separated(
    net: Network, x: Iterable[str], y: Iterable[str], z: Iterable[str]
) -> bool:
    """Classical d-separation of node sets X and Y given Z.

    Implemented as a reachability sweep over (node, arrival direction)
    states: a path is active unless blocked by a non-collider in Z or by a
    collider with no descendant in Z.
    """
    xs, ys, zs = set(x), set(y), set(z)
    for name in xs | ys | zs:
        net.variable(name)
    if xs & ys or xs & zs or ys & zs:
        raise ValueError("X, Y and Z must be pairwise disjoint")

    in_z_closure = set(zs)
    frontier = list(zs)
    while frontier:  # ancestors of Z, for collider openness
        cur = frontier.pop()
        for p in net.parents(cur):
            if p not in in_z_closure:
                in_z_closure.add(p)
                frontier.append(p)

    # states: (node, "down") = reached along an arc into the node,
    #         (node, "up")   = reached along an arc out of the node
    visited: set[tuple[str, str]] = set()
    queue: list[tuple[str, str]] = [(s, "up") for s in xs]
    while queue:
        node, direction = queue.pop()
        if (node, direction) in visited:
            continue
        visited.add((node, direction))
        if node in ys:
            return False
        if direction == "up":
            if node in zs:
                continue
            for p in net.parents(node):
                queue.append((p, "up"))
            for c in net.children(node):
                queue.append((c, "down"))
        else:
            if node not in zs:
                for c in net.children(node):
                    queue.append((c, "down"))
            if node in in_z_closure:
                for p in net.parents(node):
                    queue.append((p, "up"))
    return True


@dataclass(frozen=True)
class ContextNetwork:
    """A network specialized to a context by deleting its vacuous arcs.

    ``network`` is the derived network: vacuous parents dropped from parent
    lists and every CPT reduced by the context's restriction to its parents.
    Context-bound parents remain parents; separation queries condition on
    them explicitly.
    """

    base: Network
    context: Context
    deleted_edges: frozenset[tuple[str, str]]
    network: Network


def context_network(net: Network, context: Mapping[str, str]) -> ContextNetwork:
    """Instantiate ``context`` with :func:`reduce_network`, then put the
    context-bound parents back: the arcs reduction dropped from unbound
    parents are exactly the vacuous ones."""
    net.check_context(context)
    ctx = Context(context)
    reduced = reduce_network(net, ctx)
    deleted: set[tuple[str, str]] = set()
    replacements: dict[str, NodeSpec] = {}
    for spec in net.nodes:
        kept = reduced.node(spec.var)
        deleted.update(
            (p, spec.var) for p in spec.parents if p not in ctx and p not in kept.parents
        )
        new_parents = tuple(p for p in spec.parents if p in ctx or p in kept.parents)
        replacements[spec.var] = NodeSpec(spec.var, new_parents, kept.cpt, spec.deterministic)
    return ContextNetwork(net, ctx, frozenset(deleted), net.with_nodes(replacements))


def csi_separated(
    net: Network,
    x: Iterable[str],
    y: Iterable[str],
    z: Iterable[str],
    context: Mapping[str, str],
) -> bool:
    """CSI-separation: d-separation in the context network given Z plus the
    context variables.  Sound (never claims a dependence away) but not
    complete for every parameterization.
    """
    xs, ys, zs = set(x), set(y), set(z)
    cvars = set(context)
    for a, b in ((xs, ys), (xs, zs), (ys, zs), (xs, cvars), (ys, cvars), (zs, cvars)):
        if a & b:
            raise ValueError("X, Y, Z and the context variables must be pairwise disjoint")
    cn = context_network(net, context)
    return d_separated(cn.network, xs, ys, zs | cvars)
