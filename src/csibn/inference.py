"""Exact inference: enumeration, variable elimination, polytree solving,
and conditional-cutset conditioning.

Every engine answers the same question -- a posterior over one target
variable given evidence -- and reports the unnormalized evidence
probability alongside.  ``query_enumerate`` is the ground truth the other
engines are tested against.  All engines are deterministic: identical
inputs produce bit-identical results because every summation runs in a
fixed order.  Each result also carries the natural log of the evidence
probability, which variable elimination and the forest solver keep finite
where the probability itself underflows, by rescaling with powers of two.

The numeric engines share one integer-indexed compiled form of a network:
variable indices, parent and child index tuples, one read-only CPT array per
family, the moral adjacency, each family's CPT as a tree, and a memo of
instantiated families.  A network builds it on its first query and keeps
it.  Variable elimination is bucket elimination over it: the evidence
indexes the family arrays, the min-fill order comes from the cached moral
graph, and each bucket is multiplied and summed out by one einsum.  The
polytree and cutset engines share one forest solver, run by one private walk
object on its own copies of the cached compiled lists.  The evidence and
each cutset branch are contexts, and the walk instantiates both in place by
one per-family step, whose result -- kept parents and table -- depends only
on the values bound on the family's declared parents and is memoized on the
network.  The walk keeps the connected components up to date as it binds,
solves each component once per binding of the cutset variables it depends
on, by an iterative collect pass, and multiplies in a component that no
binding below a cutset-tree node can change once, at that node.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from . import cutset as cutset_mod
# nothing here calls reduce_network, but benches/tracing.py wraps this module's name
from .csi import reduce_network, reduce_tree  # noqa: F401
from .model import (
    Context,
    CptTable,
    Distribution,
    Network,
    as_tree,
    cpt_array,
    parent_assignments,
    row_index,
    tree_lookup,
    tree_tested_vars,
)
from . import graphs
from .transform import moral_adjacency


class ImpossibleEvidenceError(ValueError):
    """The evidence has probability zero under the network."""


class NotSinglyConnectedError(ValueError):
    """The network's undirected skeleton contains a cycle."""


@dataclass(frozen=True)
class Query:
    """A posterior request: one target variable, evidence not binding it."""

    target: str
    evidence: Context

    def __post_init__(self):
        if self.target in self.evidence:
            raise ValueError(f"target {self.target!r} is bound by the evidence")


@dataclass(frozen=True)
class InferenceResult:
    posterior: Distribution
    evidence_probability: float
    evaluations: int
    log_evidence_probability: float
    messages_computed: int = 0


def joint_probability(net: Network, assignment: Mapping[str, str]) -> float:
    """P(assignment) for a full assignment to every network variable."""
    missing = [v for v in net.var_names if v not in assignment]
    if missing:
        raise ValueError(f"assignment does not bind {missing[0]!r}")
    net.check_context(assignment)
    prob = 1.0
    for spec in net.nodes:
        var = net.variable(spec.var)
        if isinstance(spec.cpt, CptTable):
            parent_vars = [net.variable(p) for p in spec.parents]
            dist = spec.cpt.rows[row_index(parent_vars, assignment)]
        else:
            dist = tree_lookup(spec.cpt, assignment)
        prob *= dist.probs[var.index(assignment[spec.var])]
    return prob


def query_enumerate(net: Network, query: Query) -> InferenceResult:
    """Posterior by brute-force summation over all full assignments."""
    net.check_context(query.evidence)
    target_var = net.variable(query.target)
    weights = [0.0] * len(target_var.values)
    for assignment in parent_assignments(net.variables):
        if not query.evidence.consistent_with(assignment):
            continue
        weights[target_var.index(assignment[query.target])] += joint_probability(
            net, assignment
        )
    return _finish(weights, evaluations=1)


def _finish(weights, evaluations: int, exponent: int = 0, messages: int = 0) -> InferenceResult:
    """Normalize ``weights``, which hold the unnormalized posterior times
    ``2 ** -exponent``."""
    total = float(sum(weights))
    if total <= 0.0:
        raise ImpossibleEvidenceError("evidence has probability zero")
    return InferenceResult(
        posterior=Distribution(tuple(w / total for w in weights)),
        evidence_probability=math.ldexp(total, exponent),
        evaluations=evaluations,
        log_evidence_probability=math.log(total) + exponent * math.log(2.0),
        messages_computed=messages,
    )


def contextually_independent(
    net: Network,
    x,
    y,
    z,
    context: Mapping[str, str],
    tol: float = 1e-9,
) -> bool:
    """Numeric contextual independence of X from Y given Z in ``context``.

    True when P(x | z, c, y) = P(x | z, c) within ``tol`` for every value
    combination whose conditioning event has probability above ``tol``.
    Computed by full enumeration, so it is ground truth, not a shortcut.
    """
    xs, ys, zs = tuple(x), tuple(y), tuple(z)
    net.check_context(context)
    groups = [set(xs), set(ys), set(zs), set(context)]
    for i, a in enumerate(groups):
        for b in groups[i + 1 :]:
            if a & b:
                raise ValueError("X, Y, Z and context variables must be pairwise disjoint")

    p_xyz: dict[tuple, float] = {}
    for assignment in parent_assignments(net.variables):
        if not all(assignment[v] == val for v, val in context.items()):
            continue
        key = tuple(tuple(assignment[v] for v in vs) for vs in (xs, ys, zs))
        p_xyz[key] = p_xyz.get(key, 0.0) + joint_probability(net, assignment)

    p_yz: dict[tuple, float] = {}
    p_xz: dict[tuple, float] = {}
    p_z: dict[tuple, float] = {}
    for (kx, ky, kz), p in sorted(p_xyz.items()):
        p_yz[(ky, kz)] = p_yz.get((ky, kz), 0.0) + p
        p_xz[(kx, kz)] = p_xz.get((kx, kz), 0.0) + p
        p_z[kz] = p_z.get(kz, 0.0) + p

    for (kx, ky, kz), p in sorted(p_xyz.items()):
        if p_yz[(ky, kz)] <= tol:
            continue
        lhs = p / p_yz[(ky, kz)]
        rhs = p_xz[(kx, kz)] / p_z[kz]
        if abs(lhs - rhs) > tol:
            return False
    return True


# -- compiled form -----------------------------------------------------------


def _compile(net: Network) -> tuple:
    """The integer-indexed form both numeric engines run on: each variable's
    index in declared order, its parents' and children's index tuples, its
    family's :func:`cpt_array` (parent axes in declared order, then its own
    axis; not writeable), the moral adjacency, each family's CPT in tree form,
    and the cutset walk's memo of instantiated families (see
    :meth:`_Walk.instantiate`).  It depends on the network alone, so it is
    built on the first call and kept on the network, which it does not refer
    to."""
    if net._compiled is None:
        index = {v: i for i, v in enumerate(net.var_names)}
        parents = tuple(tuple(index[p] for p in net.parents(v)) for v in index)
        children = tuple(tuple(index[c] for c in net.children(v)) for v in index)
        tables = tuple(cpt_array(net, v) for v in index)
        for table in tables:
            table.flags.writeable = False
        trees = tuple(as_tree(net, v) for v in index)
        net._compiled = index, parents, children, tables, moral_adjacency(net), trees, {}
    return net._compiled


def _scaled(array: np.ndarray) -> tuple[np.ndarray, int]:
    """``array`` divided by the power of two that brings its largest entry
    into [0.5, 1), and that power's exponent.  Exact in binary floating
    point, so it changes no quotient of normal numbers."""
    peak = float(array.max())
    if peak <= 0.0:
        return array, 0
    _, exponent = math.frexp(peak)
    return np.ldexp(array, -exponent), exponent


# -- variable elimination ----------------------------------------------------

# np.einsum takes at most 31 operands under numpy 1.x
_MAX_OPERANDS = 31


def _product(factors: list, drop: int | None = None) -> tuple[np.ndarray, tuple[int, ...]]:
    """The product of ``(table, scope)`` factors, summed over the variable
    ``drop`` if it is in scope, by one einsum; returns the table and its
    scope, variables in order of first appearance.  Labels are renumbered
    from 0 because einsum's sublist labels must be below 52."""
    labels: dict[int, int] = {}
    operands: list = []
    for table, scope in factors:
        operands += [table, [labels.setdefault(v, len(labels)) for v in scope]]
    scope = tuple(v for v in labels if v != drop)
    return np.einsum(*operands, [labels[v] for v in scope]), scope


def variable_elimination(net: Network, query: Query) -> InferenceResult:
    """Posterior by bucket elimination in min-fill order (lexicographic
    tie-break), which makes the computation reproducible bit for bit.

    The family arrays and the moral adjacency come from the network's
    compiled form, built on its first query and kept; the query pays only
    for the min-fill order of the moral graph without the target and the
    evidence, and for the elimination itself.  Each family's CPT array is
    indexed at the evidence values, and each factor goes once into the
    bucket of its first-eliminated variable.  A bucket is multiplied and its
    variable summed out by one einsum over integer axes, and the result goes
    into the bucket of its own first eliminated variable; what is left
    ranges over the target alone.  Every bucket result and every step of the
    final product is rescaled by a power of two whose exponent is carried,
    so evidence of tiny but non-zero probability does not underflow to an
    impossible-evidence error.
    """
    net.check_context(query.evidence)
    index, parents, _, tables, moral = _compile(net)[:5]
    evidence = {index[v]: net.values(v).index(x) for v, x in query.evidence.items()}
    factors = []
    for v, table in enumerate(tables):
        scope = parents[v] + (v,)
        at = tuple(evidence.get(u, slice(None)) for u in scope)
        factors.append((table[at], tuple(u for u in scope if u not in evidence)))

    # the factor scopes are the families without the evidence, so their
    # interaction graph is the moral graph without the target and evidence
    kept = set(index) - {query.target} - set(query.evidence)
    adj = {v: ns & kept for v, ns in moral.items() if v in kept}
    order = [index[v] for v in graphs.min_fill_order(adj)]
    position = {v: k for k, v in enumerate(order)}
    buckets: list[list] = [[] for _ in range(len(order) + 1)]  # the last: target only
    for factor in factors:
        buckets[min((position[u] for u in factor[1] if u in position), default=-1)].append(factor)

    exponent = 0
    for k, v in enumerate(order):
        bucket = buckets[k]
        while len(bucket) > _MAX_OPERANDS:
            table, scope = _product(bucket[:_MAX_OPERANDS])
            table, shift = _scaled(table)
            exponent += shift
            bucket = [(table, scope)] + bucket[_MAX_OPERANDS:]
        table, scope = _product(bucket, drop=v)
        table, shift = _scaled(table)
        exponent += shift
        buckets[min((position[u] for u in scope if u in position), default=-1)].append(
            (table, scope)
        )

    # the target's own family factor keeps it in scope, so the product
    # ranges over the target alone
    result = np.array(1.0)
    for table, _ in buckets[-1]:
        result, shift = _scaled(result * table)
        exponent += shift
    return _finish([float(w) for w in result], evaluations=1, exponent=exponent)


# -- forest solver and cutset conditioning -----------------------------------


def _solve_component(root: int, parents, children, tables, ind, bound):
    """Unnormalized belief vector at ``root`` over its singly connected
    component, times ``2 ** -exponent``; returns it, the exponent and the
    number of messages computed.

    One collect pass toward ``root``: a breadth-first order, then each node's
    π/λ message to its neighbor on the root side, in reverse order, each
    rescaled by a power of two.  A λ message out of a subtree holding no
    observed node (one whose ``bound`` entry is not 0) is all ones, so
    neither it nor any message feeding only it is computed.
    """
    up, order = {root: None}, [root]
    for v in order:
        for w in parents[v] + children[v]:
            if w not in up:
                up[w] = v
                order.append(w)
    informed = set()  # nodes whose subtree away from the root is observed
    for v in reversed(order):
        if bound[v] or v in informed:
            informed.update((v, up[v]))
    needed = {root}
    for v in order[1:]:
        if up[v] in needed and (v in informed or up[v] in children[v]):
            needed.add(v)
    msg, exponent = {}, 0
    for v in reversed(order):
        if v not in needed:
            continue
        u, own = up[v], len(parents[v])
        lam = ind[v]
        for c in children[v]:
            if c != u and c in msg:
                lam = lam * msg[c]
        if not own:
            vec = lam * tables[v]
        else:
            operands = [tables[v], list(range(own + 1)), lam, [own]]
            for i, p in enumerate(parents[v]):
                if p != u:
                    operands += [msg[p], [i]]
            out = parents[v].index(u) if u in parents[v] else own
            vec = np.einsum(*operands, [out])
        msg[v], shift = _scaled(vec)
        exponent += shift
    return msg[root], exponent, len(needed) - 1


def solve_singly_connected(net: Network, query: Query) -> InferenceResult:
    """Exact posterior for networks that are singly connected once the
    evidence is instantiated: :func:`cutset_infer` with the empty cutset.
    Evidence that makes arcs vacuous can thus break the loops they closed.
    Raises :class:`NotSinglyConnectedError` when a cycle is left.
    """
    return cutset_infer(net, query, cutset_mod.EMPTY)


class _Walk:
    """One cutset-conditioning query: the network's cached compiled form,
    instantiated in place by the evidence and then along a depth-first walk
    of the cutset tree, both by one per-family step, :meth:`instantiate`.

    It holds its own copies of the compiled lists that step changes, which
    the walk restores from the undo record, the connected components with
    ``excess`` (arcs minus nodes plus components: each component has at
    least its size minus one arcs, so this is 0 exactly when every component
    is a tree), each cutset-tree node's below-set (the cutset variables its
    subtree tests), the component-weight cache, and the running branch
    total.  Instantiated families are memoized on the network, since they
    depend only on the values bound on the family's declared parents.  The
    walk passes down a list of components still to weigh and a prefix
    product of those already weighed: a node settles each pending component
    its below-set misses, and a leaf the rest.
    """

    def __init__(self, net: Network, query: Query, ct: "cutset_mod.CutsetTree"):
        index, parents, children, tables, _, self.trees, self.families = _compile(net)
        self.declared, self.compiled_tables = parents, tables
        # instantiate changes these three in place, so the walk holds its own lists
        self.parents, self.children, self.tables = list(parents), list(children), list(tables)
        self.names = names = net.var_names
        self.index = index
        self.values = values = [net.values(v) for v in names]
        self.eyes = {n: np.eye(n) for n in {len(vs) for vs in values}}
        self.ind = [np.ones(len(vs)) for vs in values]
        self.bound = [0] * len(names)  # 1 + bound value index, or 0
        self.target = index[query.target]
        # components still to weigh: the target's, then the evidence's
        self.pending = [self.target] + [index[v] for v in sorted(query.evidence)]
        for x in self.pending[1:]:
            self.observe(x, values[x].index(query.evidence[names[x]]))
        # every family, evidence-free ones too: a declared parent its tree
        # never tests drops here
        self.excess = sum(map(len, parents)) - len(names)
        self.instantiate(range(len(names)), [])
        self.reduced_children = tuple(self.children)
        self.below: dict[int, frozenset] = {}
        self.cut = sorted(self.below_set(ct))
        self.component = [frozenset()] * len(names)
        self.split(range(len(names)))
        self.cache: dict[tuple[frozenset, tuple], tuple] = {}
        self.sees: dict[frozenset, tuple] = {}  # cutset variables a component depends on
        self.messages = 0
        self.total, self.total_exponent = None, 0

    def below_set(self, tree: "cutset_mod.CutsetTree") -> frozenset:
        """The indices of the variables ``tree`` tests, recorded in
        ``below`` for each internal node by ``id``."""
        if isinstance(tree, cutset_mod.EmptyLeaf):
            return frozenset()
        out = frozenset([self.index[tree.test]]).union(
            *(self.below_set(child) for _, child in tree.arcs)
        )
        self.below[id(tree)] = out
        return out

    def split(self, nodes) -> None:
        """Recompute the connected components of ``nodes`` under the current
        arcs, counting each new component in ``excess``."""
        parents, children, component = self.parents, self.children, self.component
        left = set(nodes)
        while left:
            part = [left.pop()]
            for v in part:
                for w in parents[v] + children[v]:
                    if w in left:
                        left.remove(w)
                        part.append(w)
            part = frozenset(part)
            self.excess += 1
            for v in part:
                component[v] = part

    def observe(self, x: int, k: int) -> list:
        """Set ``x``'s indicator and bound value to its ``k``-th value;
        returns the undo record."""
        ind, bound = self.ind, self.bound
        saved = [(ind, x, ind[x]), (bound, x, bound[x])]
        ind[x], bound[x] = self.eyes[len(self.values[x])][k], k + 1
        return saved

    def instantiate(self, families, saved: list) -> None:
        """Give each family the parents and table it has under the values
        bound on its declared parents, and drop every parent it no longer
        tests, recording the undo in ``saved``.

        The pair depends on those values alone, so it is memoized on the
        network.  A miss reduces the family's tree by the whole bound context
        and indexes its compiled table once: at the bound value's index on a
        bound parent's axis, and at 0 on a dropped unbound one, along which
        the table is constant."""
        bound, parents, children, tables = self.bound, self.parents, self.children, self.tables
        declared, memo = self.declared, self.families
        for c in families:
            at = tuple([bound[p] for p in declared[c]])
            hit = memo.get((c, at))
            if hit is None:
                hit = memo[c, at] = self.reduce(c, at)
            kept, table = hit
            family = parents[c]
            saved += [(tables, c, tables[c]), (parents, c, family)]
            for p in family:
                if p not in kept:
                    saved.append((children, p, children[p]))
                    children[p] = tuple(q for q in children[p] if q != c)
            tables[c], parents[c] = table, kept
            self.excess -= len(family) - len(kept)

    def reduce(self, c: int, at: tuple) -> tuple:
        """Family ``c``'s kept parents and read-only table when its declared
        parents have the bound values ``at`` (1 + value index, or 0)."""
        names, values, family = self.names, self.values, self.declared[c]
        context = {names[p]: values[p][b - 1] for p, b in zip(family, at) if b}
        tree = reduce_tree(self.trees[c], context) if context else self.trees[c]
        tested = tree_tested_vars(tree)  # no bound parent
        kept = tuple(p for p in family if names[p] in tested)
        table = self.compiled_tables[c][
            tuple(b - 1 if b else slice(None) if p in kept else 0 for p, b in zip(family, at))
        ]
        return kept, table

    def bind(self, x: int, k: int) -> list:
        """Instantiate ``x`` to its ``k``-th value; returns the undo record
        (``excess`` is the caller's to restore).  Each child of ``x`` loses
        the arc from ``x`` and every other arc its reduced tree no longer
        needs.  Every dropped arc lies in ``x``'s component, which is then
        split again."""
        saved = self.observe(x, k)
        if not self.children[x]:
            return saved
        self.excess -= 1
        self.instantiate(self.children[x], saved)
        old = self.component[x]
        saved.append((self.component, slice(None), self.component[:]))  # all at once
        self.split(old)
        return saved

    def weight(self, part: frozenset) -> tuple:
        """``part``'s belief vector at the target if it holds the target,
        else its total weight, with its power-of-two exponent."""
        sees = self.sees.get(part)
        if sees is None:
            reach = self.reduced_children
            sees = self.sees[part] = tuple(
                x for x in self.cut if x in part or not part.isdisjoint(reach[x])
            )
        bound = self.bound
        key = (part, tuple([bound[x] for x in sees]))
        cache = self.cache
        hit = cache.get(key)
        if hit is None:
            target = self.target
            root = target if target in part else min(part)
            vec, exponent, count = _solve_component(
                root, self.parents, self.children, self.tables, self.ind, self.bound
            )
            self.messages += count
            if root != target:
                mantissa, shift = math.frexp(float(vec.sum()))
                vec, exponent = mantissa, exponent + shift
            hit = cache[key] = (vec, exponent)
        return hit

    def settle(self, pending: list, prefix: tuple, below: frozenset) -> tuple:
        """Multiply into ``prefix`` -- the target's vector (None until it is
        settled), a scale and an exponent -- the weight of each pending
        component disjoint from ``below``, which no binding beneath can
        change; returns the components still pending and the new prefix.
        While a cycle is left, a component that is not a tree stays pending,
        for the leaf's cycle check."""
        component, target, parents = self.component, self.target, self.parents
        vec, scale, exponent = prefix
        left, done = [], set()
        for i in pending:
            part = component[i]
            if part in done:
                continue
            if not part.isdisjoint(below) or (
                self.excess and sum(len(parents[v]) for v in part) != len(part) - 1
            ):
                left.append(i)
                continue
            done.add(part)
            weight, shift = self.weight(part)
            if target in part:
                vec, exponent = weight, exponent + shift
            else:
                scale, rescale = math.frexp(scale * weight)
                exponent += shift + rescale
        return left, (vec, scale, exponent)

    def leaf(self, pending: list, prefix: tuple) -> None:
        """Add the current branch's weight to the running total."""
        if self.excess:
            raise NotSinglyConnectedError("network skeleton contains an undirected cycle")
        _, (vec, scale, exponent) = self.settle(pending, prefix, frozenset())
        vec = vec * scale
        if not vec.any():  # a zero weight has no exponent to align
            return
        total, total_exponent = self.total, self.total_exponent
        if total is None:
            self.total, self.total_exponent = vec, exponent
            return
        if exponent > total_exponent:
            total, self.total_exponent = np.ldexp(total, total_exponent - exponent), exponent
        elif exponent < total_exponent:
            vec = np.ldexp(vec, exponent - total_exponent)
        self.total = total + vec

    def visit(self, tree: "cutset_mod.CutsetTree", pending: list | None, prefix=None) -> int:
        """Visit ``tree``'s branches depth first and return its leaf count.
        Only live branches, which agree with the evidence, are solved; a dead
        one has ``pending`` None.  A live node first settles the pending
        components its subtree cannot change."""
        if isinstance(tree, cutset_mod.EmptyLeaf):
            if pending is not None:
                self.leaf(pending, prefix)
            return 1
        x, leaves = self.index[tree.test], 0
        if pending is not None:
            pending, prefix = self.settle(pending, prefix, self.below[id(tree)])
        for arc_values, child in tree.arcs:
            for value in arc_values:
                k = self.values[x].index(value)
                # a dead branch, or one the evidence binds x against
                if pending is None or self.bound[x] not in (0, k + 1):
                    leaves += self.visit(child, None)
                    continue
                excess, saved = self.excess, self.bind(x, k)
                leaves += self.visit(child, pending + [x], prefix)
                self.excess = excess
                for store, i, old in reversed(saved):
                    store[i] = old
        return leaves


def cutset_infer(net: Network, query: Query, ct: "cutset_mod.CutsetTree") -> InferenceResult:
    """Posterior by conditioning on the branches of a conditional cutset.

    One private ``_Walk`` object copies the network's cached compiled form
    (integer-indexed parents, CPT arrays) and instantiates the evidence in
    place, by the same per-family step that instantiates cutset branches;
    then it finds the connected components.  That step's kept parents and
    table for a family depend only on the values bound on its declared
    parents, so they are memoized on the network and a binding met before,
    in this query or an earlier one, reduces no tree.  A depth-first walk of
    the cutset tree instantiates each arc value in place and undoes it on
    the way back.  Binding ``X`` removes arcs only inside ``X``'s component,
    so only that component is split again; a count of the arcs beyond a
    spanning forest tells a leaf whether a cycle is left.

    A leaf's weight is the target component's belief vector times the total
    weight of every other component holding an evidence or bound variable
    (one without sums to 1).  A component that holds none of the variables
    a cutset subtree can still bind keeps its weight throughout that
    subtree, so it is multiplied into a running prefix product once, at the
    subtree's root, and a leaf multiplies only the components still pending;
    this is the decomposition of recursive conditioning.  A component that
    is not a tree stays pending, for the leaf's cycle check.  Each component
    weight is solved once per query for each binding it can see -- the
    values bound on its nodes and on their parents once the evidence is
    instantiated -- and reused by every later branch with that binding; this
    is the context caching of recursive conditioning.  Weights carry
    power-of-two exponents, so tiny evidence probabilities do not underflow.
    Branch weights are added in canonical branch order.  A branch
    contradicting evidence on a cutset variable weighs 0 unsolved.
    ``evaluations`` counts every branch and ``messages_computed`` the
    messages actually solved.  Raises :class:`NotSinglyConnectedError` when
    a branch leaves a cycle.
    """
    net.check_context(query.evidence)
    walk = _Walk(net, query, ct)
    evaluations = walk.visit(ct, walk.pending, (None, 1.0, 0))
    total = np.zeros(len(walk.values[walk.target])) if walk.total is None else walk.total
    return _finish([float(w) for w in total], evaluations, walk.total_exponent, walk.messages)
