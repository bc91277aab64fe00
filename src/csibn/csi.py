"""Context-specific structure: vacuous arcs, tree reduction, separation tests.

A parent arc Y -> X is *vacuous* in context c when no root-to-leaf path of
X's CPT-tree that is consistent with c tests Y: whatever value Y takes, the
same leaf is reached, so the arc carries no information once c holds.
Deleting vacuous arcs yields the context network, and ordinary d-separation
on that thinner graph (conditioning additionally on the context variables)
gives a sound, purely structural independence test.  Every consumer of
that fact, the cutset builder and walk included, gets it from one family
step, :func:`instantiate_family`.
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


def instantiate_family(
    tree: CptTree, parents: tuple[str, ...], context: Mapping[str, str]
) -> tuple[CptTree, tuple[str, ...]]:
    """A family's CPT ``tree`` reduced by ``context`` restricted to its
    ``parents``, and the parents the reduced tree still tests, in declared
    order: never a bound one, nor one the tree never tested, whose arc is
    vacuous in every context.  An unbound family keeps its tree object."""
    relevant = {p: context[p] for p in parents if p in context}
    if relevant:
        tree = reduce_tree(tree, relevant)
    tested = tree_tested_vars(tree)
    return tree, tuple(p for p in parents if p in tested)


def vacuous_parents(net: Network, x: str, context: Mapping[str, str]) -> frozenset[str]:
    """Parents of ``x`` whose arcs are structurally vacuous in ``context``.

    Parents bound by the context are excluded from consideration.  Table
    CPTs expand to full trees on the fly, so they never report vacuity.
    """
    net.check_context(context)
    parents = net.parents(x)
    _, kept = instantiate_family(as_tree(net, x), parents, context)
    return frozenset(p for p in parents if p not in context and p not in kept)


def reduce_network(net: Network, assignment: Mapping[str, str]) -> Network:
    """Instantiate ``assignment`` throughout the network.

    Every family is instantiated as in :func:`context_network`, its parent
    list shrinking to the kept parents: the bound ones drop too.
    Instantiated variables stay in the network as nodes (their own CPTs
    reduced likewise); only their outgoing arcs disappear.  No engine calls
    it: the engines instantiate families in place on their compiled form, by
    the same per-family step.
    """
    return net.with_nodes({
        s.var: NodeSpec(s.var, tuple(p for p in ps if p not in assignment), tree, s.deterministic)
        for s, tree, ps in _context_families(net, assignment)
    })


# -- separation --------------------------------------------------------------


def d_separated(
    net: Network, x: Iterable[str], y: Iterable[str], z: Iterable[str]
) -> bool:
    """Classical d-separation of node sets X and Y given Z."""
    xs, ys, zs = set(x), set(y), set(z)
    for name in xs | ys | zs:
        net.variable(name)
    if xs & ys or xs & zs or ys & zs:
        raise ValueError("X, Y and Z must be pairwise disjoint")
    return _d_separated({spec.var: spec.parents for spec in net.nodes}, xs, ys, zs)


def _d_separated(parents: Mapping[str, tuple[str, ...]], xs, ys, zs) -> bool:
    """d-separation on the graph with the parent lists ``parents``, by a
    reachability sweep over (node, arrival direction) states: a path is active
    unless blocked by a non-collider in Z or by a collider with no descendant
    in Z."""
    children: dict[str, list[str]] = {v: [] for v in parents}
    for v, family in parents.items():
        for p in family:
            children[p].append(v)
    in_z_closure = set(zs)
    frontier = list(zs)
    while frontier:  # ancestors of Z, for collider openness
        cur = frontier.pop()
        for p in parents[cur]:
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
            for p in parents[node]:
                queue.append((p, "up"))
            for c in children[node]:
                queue.append((c, "down"))
        else:
            if node not in zs:
                for c in children[node]:
                    queue.append((c, "down"))
            if node in in_z_closure:
                for p in parents[node]:
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


def _context_families(net: Network, context: Mapping[str, str]):
    """Each node's spec, its tree reduced by ``context``, and its parents
    less the vacuous ones: the kept parents and the bound ones."""
    for spec in net.nodes:
        tree, kept = instantiate_family(as_tree(net, spec.var), spec.parents, context)
        yield spec, tree, tuple(p for p in spec.parents if p in context or p in kept)


def context_network(net: Network, context: Mapping[str, str]) -> ContextNetwork:
    """Instantiate ``context`` family by family, keeping the context-bound
    parents: the arcs that drop from unbound parents are the vacuous ones."""
    net.check_context(context)
    ctx = Context(context)
    families = list(_context_families(net, ctx))
    deleted = frozenset((p, s.var) for s, _, ps in families for p in s.parents if p not in ps)
    nodes = {s.var: NodeSpec(s.var, ps, tree, s.deterministic) for s, tree, ps in families}
    return ContextNetwork(net, ctx, deleted, net.with_nodes(nodes))


def csi_separated(
    net: Network,
    x: Iterable[str],
    y: Iterable[str],
    z: Iterable[str],
    context: Mapping[str, str],
) -> bool:
    """CSI-separation: d-separation in the context network given Z plus the
    context variables.  Sound (never claims a dependence away) but not
    complete for every parameterization.  Runs on the context network's
    parent lists alone and builds no network; only the families with a
    context-bound declared parent are instantiated, the rest keep their
    cached empty-context parents.
    """
    xs, ys, zs = set(x), set(y), set(z)
    cvars = set(context)
    for a, b in ((xs, ys), (xs, zs), (ys, zs), (xs, cvars), (ys, cvars), (zs, cvars)):
        if a & b:
            raise ValueError("X, Y, Z and the context variables must be pairwise disjoint")
    net.check_context(context)
    for name in xs | ys | zs:
        net.variable(name)
    parents = dict(_kept_parents(net))
    for spec in net.nodes:
        if not cvars.isdisjoint(spec.parents):
            _, kept = instantiate_family(as_tree(net, spec.var), spec.parents, context)
            parents[spec.var] = tuple(p for p in spec.parents if p in context or p in kept)
    return _d_separated(parents, xs, ys, zs | cvars)


def _kept_parents(net: Network) -> dict[str, tuple[str, ...]]:
    """Each family's kept parents in the empty context: the declared parents
    its tree tests.  A family none of whose declared parents a context binds
    keeps these in it, so they are computed on the first call and kept on
    the network."""
    if net._kept_parents is None:
        net._kept_parents = {
            spec.var: instantiate_family(as_tree(net, spec.var), spec.parents, {})[1]
            for spec in net.nodes
        }
    return net._kept_parents
