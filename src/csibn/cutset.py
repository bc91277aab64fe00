"""Conditional cutsets: value-specific conditioning sets for loopy networks.

A flat loop cutset instantiates the same variables on every branch.  A
conditional cutset is a tree: which variable gets instantiated next may
depend on the values chosen so far, because instantiating a variable can
render whole arcs vacuous and break loops early.  Branches therefore vary
in length, and the total number of network evaluations -- one per
root-to-leaf value combination -- can undercut the flat cutset's product
of domain sizes.

Variables are picked greedily by ``weight / arc_deletion_score``: cheap to
enumerate, effective at deleting arcs.  Ties break lexicographically so a
given network always yields the same cutset tree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import graphs
from .csi import instantiate_family, reduce_tree
# nothing here calls reduce_network, but benches/tracing.py wraps this module's name
from .csi import reduce_network  # noqa: F401
from .model import Context, CptTree, Leaf, Network, Variable, as_tree, tree_size


class EmptyLeaf:
    """Terminal of a cutset tree: the remaining network is singly connected."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "EMPTY"


EMPTY = EmptyLeaf()


@dataclass(frozen=True)
class CutsetNode:
    """Instantiate ``test`` next; one arc per group of equivalent values.

    Each arc carries the subset of values it covers (a tuple, in declared
    value order) and the subtree to apply under any of them.  Arcs
    partition the tested variable's domain.
    """

    test: str
    arcs: tuple[tuple[tuple[str, ...], "CutsetTree"], ...]


CutsetTree = EmptyLeaf | CutsetNode


def _distinct_nodes(tree: CutsetTree) -> list[CutsetTree]:
    """Each distinct node of ``tree`` once, by ``id``, children before their
    parents, found without recursion, so no depth is too deep."""
    out, seen, stack = [], set(), [(tree, False)]
    while stack:
        node, done = stack.pop()
        if done:
            out.append(node)
        elif id(node) not in seen:
            seen.add(id(node))
            stack.append((node, True))
            if isinstance(node, CutsetNode):
                stack += [(child, False) for _, child in reversed(node.arcs)]
    return out


def cutset_variables(tree: CutsetTree) -> set[str]:
    return {node.test for node in _distinct_nodes(tree) if isinstance(node, CutsetNode)}


def branch_contexts(tree: CutsetTree) -> list[Context]:
    """Every root-to-leaf value combination, in canonical depth-first order.

    Arcs are visited in declared order and each value of a grouped arc
    produces its own context: grouping shares subtree *structure*, not
    evaluations.
    """
    if isinstance(tree, EmptyLeaf):
        return [Context()]
    out: list[Context] = []
    for values, child in tree.arcs:
        subs = branch_contexts(child)
        for value in values:
            for sub in subs:
                out.append(sub.union({tree.test: value}))
    return out


def count_branches(tree: CutsetTree) -> int:
    """``len(branch_contexts(tree))``, counted once per distinct node."""
    counts = {id(EMPTY): 1}
    for node in _distinct_nodes(tree):
        if node is not EMPTY:
            counts[id(node)] = sum(len(values) * counts[id(child)] for values, child in node.arcs)
    return counts[id(tree)]


def weight(var: Variable) -> float:
    """Cost of conditioning on ``var``: log2 of its domain size."""
    return math.log2(len(var.values))


def expected_parents(net: Network, v: str, x: str, value: str) -> float:
    """How many of ``v``'s parents stay relevant once ``x`` is bound to
    ``value``, estimated from the reduced CPT's leaf count.

    With ``t`` leaves left and parents A besides ``x``, each contributes
    ``log_{|val(A)|} t`` expected relevance; the average over those parents
    is the estimate.  A node whose only parent is ``x`` scores 0.
    """
    parents = net.parents(v)
    if x not in parents:
        raise ValueError(f"{x!r} is not a parent of {v!r}")
    net.variable(x).index(value)
    arity = {a: len(net.values(a)) for a in parents}
    return _expected_parents(as_tree(net, v), parents, x, value, arity)


def _expected_parents(tree: CptTree, parents: tuple, x: str, value: str, arity: dict) -> float:
    """The estimate for a family's CPT ``tree`` over ``parents``, given each
    parent's domain size in ``arity``."""
    others = [p for p in parents if p != x]
    if not others:
        return 0.0
    t = tree_size(reduce_tree(tree, {x: value}))
    return sum(math.log(t, arity[a]) for a in others) / len(others)


def arc_deletion_score(net: Network, x: str) -> float:
    """Expected number of arcs deleted by instantiating ``x``, averaged
    over its values: :meth:`_Builder.score` over all of ``x``'s children."""
    families = _families(net, net.children(x))
    return _Builder(net).score(families, x, families, families)


def _families(net: Network, names) -> Families:
    """The declared family map of ``names``: each one's CPT tree and parents."""
    return {v: (as_tree(net, v), net.parents(v)) for v in names}


def _ratio(weight: float, deletion: float) -> float:
    """The greedy pick's key: ``weight / deletion``, inf when nothing would
    be deleted."""
    return weight / deletion if deletion > 0 else math.inf


@dataclass(frozen=True)
class HeuristicScore:
    variable: str
    weight: float
    arc_deletion: float
    ratio: float  # weight / arc_deletion, inf when nothing would be deleted


def rank_variables(net: Network) -> tuple[HeuristicScore, ...]:
    """``weight / arc_deletion_score`` for every variable with children, on
    the whole declared network: not the builder's scores, which count only
    arcs among the 2-core's candidates (:func:`build_conditional_cutset`)."""
    builder, families, out = _Builder(net), _families(net, net.var_names), []
    for name in sorted(net.var_names):
        if not net.children(name):
            continue
        w = weight(net.variable(name))
        d = builder.score(families, name, net.children(name), families)
        out.append(HeuristicScore(name, w, d, _ratio(w, d)))
    return tuple(out)


def best_cut_variable(net: Network) -> str:
    """The variable of least ``(ratio, name)`` in :func:`rank_variables`.
    Not always the root of :func:`build_conditional_cutset`'s tree, which
    picks by the builder's own scores."""
    ranked = rank_variables(net)
    if not ranked:
        raise ValueError("network has no variable with children")
    return min(ranked, key=lambda s: (s.ratio, s.variable)).variable


# -- building ----------------------------------------------------------------


def _tree_shape(tree) -> object:
    if isinstance(tree, Leaf):
        return "leaf"
    return (tree.test, tuple((v, _tree_shape(sub)) for v, sub in tree.branches))


def build_conditional_cutset(net: Network) -> CutsetTree:
    """Greedy conditional cutset for ``net``, built blind to any evidence.

    Stops as soon as the residual skeleton's 2-core is empty (the network
    left after dropping instantiated variables' outgoing arcs is then
    singly connected on every branch).  Candidates are 2-core variables
    with at least one child still in the core; the deletion score counts
    only arcs into fellow candidates, which keeps pure sinks from inflating
    a variable's apparent usefulness.

    The residual is a family map, ``{var: (CPT tree, parents)}`` over its
    2-core in declared order; no network is built.  One rule makes every
    level's map: a family is instantiated (:func:`~csibn.csi.instantiate_family`)
    and keeps only the parents its tree still tests.  The root map
    instantiates every family in the empty context, so an arc no path of the
    child's tree tests is dropped before the first pick, and each value of a
    pick instantiates the pick's children in a copy, restricted to the
    child's core.  The result is a DAG: a subtree depends only on that
    core's families, each with its parents and CPT tree shape, so it is
    built once per such key (:meth:`_Builder.key`), and nodes are interned
    on their test and arcs.  A pick's values with one key share one arc, so
    values whose residuals differ only outside the core print as ``={t,f}``.
    """
    families = {v: instantiate_family(as_tree(net, v), net.parents(v), {}) for v in net.var_names}
    core = graphs.two_core(_core_skeleton(families))
    return _Builder(net).node({v: family for v, family in families.items() if v in core})


Families = dict[str, tuple[CptTree, tuple[str, ...]]]  # var -> (CPT tree, parents)


def _core_skeleton(families: Families) -> dict[str, set[str]]:
    """The skeleton of the arcs among ``families``' variables."""
    adj: dict[str, set[str]] = {v: set() for v in families}
    for v, (_, parents) in families.items():
        for p in parents:
            if p in adj:
                adj[v].add(p)
                adj[p].add(v)
    return adj


class _Builder:
    """The memos of one greedy build: subtrees by residual-core key
    (:meth:`key`), nodes by test and arcs, and each CPT tree's shape, by
    identity (a family the binding leaves alone keeps its tree object).

    A node reads only its family map, which covers its core.  Binding a
    value removes arcs, so the child's core lies inside the parent's and is
    the 2-core of the map's own skeleton: the key fixes the whole subtree."""

    def __init__(self, net: Network):
        self.variables = {v.name: v for v in net.variables}
        self.arity = {name: len(v.values) for name, v in self.variables.items()}
        self.built: dict[tuple, CutsetTree] = {}
        self.interned: dict[tuple, CutsetNode] = {}
        self.shapes: dict[int, tuple] = {}  # id -> (tree, shape), which keeps the id
        self.deletions: dict[tuple, tuple] = {}  # (id, parents, x) -> (tree, terms)

    def key(self, families: Families) -> tuple:
        """The residual core's structure, blind to leaf probabilities: each
        family with its parents and CPT tree shape, in name order."""
        shapes, out = self.shapes, []
        for v in sorted(families):
            tree, parents = families[v]
            hit = shapes.get(id(tree))
            if hit is None:
                hit = shapes[id(tree)] = (tree, _tree_shape(tree))
            out.append((v, parents, hit[1]))
        return tuple(out)

    def score(self, families: Families, x: str, children: list[str], pool) -> float:
        """The expected number of arcs into ``pool`` deleted by instantiating
        ``x``, averaged over its values: each of its ``children`` in ``pool``
        counts its parents less :func:`expected_parents` per value.  A
        child's terms are memoized on its tree, parents and ``x``."""
        memo, values, arity, total = self.deletions, self.variables[x].values, self.arity, 0.0
        for c in children:
            if c not in pool:
                continue
            tree, parents = families[c]
            hit = memo.get((id(tree), parents, x))
            if hit is None:
                terms = [
                    len(parents) - _expected_parents(tree, parents, x, v, arity) for v in values
                ]
                hit = memo[id(tree), parents, x] = (tree, terms)
            for term in hit[1]:
                total += term
        return total / len(values)

    def node(self, families: Families) -> CutsetTree:
        """The subtree for the residual ``families``, which cover its core
        and are instantiated: a pick's value instantiates only its children."""
        if not families:
            return EMPTY
        children: dict[str, list[str]] = {v: [] for v in families}
        for c, (_, parents) in families.items():
            for p in parents:
                if p in children:
                    children[p].append(c)
        # never empty: a non-empty 2-core has an arc, whose parent is a candidate
        candidates = sorted(v for v, cs in children.items() if cs)

        cand_set = set(candidates)
        scored = [(v, self.score(families, v, children[v], cand_set)) for v in candidates]
        if all(d <= 0 for _, d in scored):
            # every candidate's candidate-directed score degenerated to zero
            # (colliders only); count arcs into the whole core instead
            scored = [(v, self.score(families, v, children[v], families)) for v in candidates]
        pick = min(scored, key=lambda vd: (_ratio(weight(self.variables[vd[0]]), vd[1]), vd[0]))[0]

        groups: dict[tuple, tuple[list[str], Families]] = {}  # by key
        for value in self.variables[pick].values:
            reduced = dict(families)
            for c in children[pick]:
                reduced[c] = instantiate_family(*families[c], {pick: value})
            sub = graphs.two_core(_core_skeleton(reduced))
            reduced = {v: family for v, family in reduced.items() if v in sub}
            groups.setdefault(self.key(reduced), ([], reduced))[0].append(value)
        for key, (_, rep) in groups.items():
            if key not in self.built:  # one subtree per residual core
                self.built[key] = self.node(rep)
        arcs = tuple((tuple(values), self.built[key]) for key, (values, _) in groups.items())
        key = (pick, tuple((values, id(child)) for values, child in arcs))
        node = self.interned.get(key)
        if node is None:
            node = self.interned[key] = CutsetNode(pick, arcs)
        return node


def flat_cutset(net: Network, names) -> CutsetTree:
    """A conventional cutset over ``names``: every value its own branch,
    same variables on every path.  Exists for comparison."""
    names = list(names)
    for n in names:
        net.variable(n)
    if len(set(names)) != len(names):
        raise ValueError("duplicate cutset variable")
    tree: CutsetTree = EMPTY
    for name in reversed(names):
        tree = CutsetNode(
            name, tuple(((v,), tree) for v in net.values(name))
        )
    return tree


# -- rendering ---------------------------------------------------------------


def format_cutset_tree(tree: CutsetTree, indent: int = 0) -> str:
    pad = "  " * indent
    if isinstance(tree, EmptyLeaf):
        return f"{pad}(singly connected)\n"
    out = [f"{pad}{tree.test}\n"]
    for values, child in tree.arcs:
        out.append(f"{pad}  ={{{','.join(values)}}}:\n")
        out.append(format_cutset_tree(child, indent + 2))
    return "".join(out)


def cutset_tree_to_obj(tree: CutsetTree):
    if isinstance(tree, EmptyLeaf):
        return None
    return {
        "test": tree.test,
        "arcs": [
            {"values": list(values), "child": cutset_tree_to_obj(child)}
            for values, child in tree.arcs
        ],
    }
