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

The polytree and cutset engines share one forest solver, run on the network
reduced by the evidence and compiled for the query, which a cutset walk
instantiates in place branch by branch.  The walk keeps the connected
components up to date as it binds, and solves each component once per
binding of the cutset variables it depends on, by an iterative collect pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from . import cutset as cutset_mod
from .csi import reduce_network, reduce_tree
from .model import (
    Context,
    CptTable,
    Distribution,
    Network,
    cpt_array,
    parent_assignments,
    row_index,
    tree_lookup,
    tree_tested_vars,
)
from . import graphs


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


def _finish(
    weights, evaluations: int, exponent: int = 0, messages: int = 0
) -> InferenceResult:
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
        key_x = tuple(assignment[v] for v in xs)
        key_y = tuple(assignment[v] for v in ys)
        key_z = tuple(assignment[v] for v in zs)
        p_xyz[(key_x, key_y, key_z)] = p_xyz.get(
            (key_x, key_y, key_z), 0.0
        ) + joint_probability(net, assignment)

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


# -- variable elimination ----------------------------------------------------


@dataclass(frozen=True)
class _Factor:
    vars: tuple[str, ...]
    table: np.ndarray  # axis i indexes vars[i] in declared value order


def _family_factor(net: Network, name: str) -> _Factor:
    return _Factor(net.parents(name) + (name,), cpt_array(net, name))


def _restrict(factor: _Factor, var: str, index: int) -> _Factor:
    axis = factor.vars.index(var)
    return _Factor(
        factor.vars[:axis] + factor.vars[axis + 1 :],
        np.take(factor.table, index, axis=axis),
    )


def _multiply(a: _Factor, b: _Factor) -> _Factor:
    out_vars = a.vars + tuple(v for v in b.vars if v not in a.vars)
    a_tab = a.table.reshape(
        tuple(a.table.shape[a.vars.index(v)] if v in a.vars else 1 for v in out_vars)
    )
    perm = [b.vars.index(v) for v in out_vars if v in b.vars]
    b_moved = np.transpose(b.table, perm)
    b_tab = b_moved.reshape(
        tuple(b_moved.shape[[v for v in out_vars if v in b.vars].index(v)]
              if v in b.vars else 1 for v in out_vars)
    )
    return _Factor(out_vars, a_tab * b_tab)


def _sum_out(factor: _Factor, var: str) -> _Factor:
    axis = factor.vars.index(var)
    return _Factor(
        factor.vars[:axis] + factor.vars[axis + 1 :],
        factor.table.sum(axis=axis),
    )


def _scaled(array: np.ndarray) -> tuple[np.ndarray, int]:
    """``array`` divided by the power of two that brings its largest entry
    into [0.5, 1), and that power's exponent.  Exact in binary floating
    point, so it changes no quotient of normal numbers."""
    peak = float(array.max())
    if peak <= 0.0:
        return array, 0
    _, exponent = math.frexp(peak)
    return np.ldexp(array, -exponent), exponent


def _rescaled(factor: _Factor) -> tuple[_Factor, int]:
    table, exponent = _scaled(factor.table)
    return _Factor(factor.vars, table), exponent


def variable_elimination(net: Network, query: Query) -> InferenceResult:
    """Posterior via factor elimination in min-fill order (lexicographic
    tie-break), which makes the computation reproducible bit for bit.

    Every sum-out result and every step of the final product is rescaled
    by a power of two whose exponent is carried, so evidence of tiny but
    non-zero probability does not underflow to an impossible-evidence error.
    """
    net.check_context(query.evidence)
    factors = [_family_factor(net, spec.var) for spec in net.nodes]
    for var in sorted(query.evidence):
        idx = net.variable(var).index(query.evidence[var])
        factors = [
            _restrict(f, var, idx) if var in f.vars else f for f in factors
        ]

    elim = [
        v
        for v in net.var_names
        if v != query.target and v not in query.evidence
    ]
    adj: dict[str, set[str]] = {v: set() for v in elim}
    for f in factors:
        scope = [v for v in f.vars if v in adj]
        for i, a in enumerate(scope):
            for b in scope[i + 1 :]:
                adj[a].add(b)
                adj[b].add(a)
    exponent = 0
    for var in graphs.min_fill_order(adj):
        touching = [f for f in factors if var in f.vars]
        rest = [f for f in factors if var not in f.vars]
        if not touching:
            continue
        combined = touching[0]
        for f in touching[1:]:
            combined = _multiply(combined, f)
        summed, shift = _rescaled(_sum_out(combined, var))
        exponent += shift
        factors = rest + [summed]

    # the target's own family factor keeps it in scope, so the product
    # ranges over the target alone
    result = _Factor((), np.array(1.0))
    for f in factors:
        result, shift = _rescaled(_multiply(result, f))
        exponent += shift
    return _finish([float(w) for w in result.table], evaluations=1, exponent=exponent)


# -- forest solver and cutset conditioning -----------------------------------


def _solve_component(root: int, parents, children, tables, ind, observed):
    """Unnormalized belief vector at ``root`` over its singly connected
    component, times ``2 ** -exponent``; returns it, the exponent and the
    number of messages computed.

    One collect pass toward ``root``: a breadth-first order, then each node's
    π/λ message to its neighbor on the root side, in reverse order, each
    rescaled by a power of two.  A λ message out of a subtree holding no
    observed node is all ones, so neither it nor any message feeding only it
    is computed.
    """
    up, order = {root: None}, [root]
    for v in order:
        for w in parents[v] + children[v]:
            if w not in up:
                up[w] = v
                order.append(w)
    informed = set()  # nodes whose subtree away from the root is observed
    for v in reversed(order):
        if observed[v] or v in informed:
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


def cutset_infer(
    net: Network, query: Query, ct: "cutset_mod.CutsetTree"
) -> InferenceResult:
    """Posterior by conditioning on the branches of a conditional cutset.

    The network is reduced by the evidence and compiled once (integer-indexed
    parents, CPT arrays, indicator vectors), and its connected components are
    found.  A depth-first walk of the cutset tree instantiates each arc value
    in place and undoes it on the way back.  Binding ``X`` removes arcs only
    inside ``X``'s component, so only that component is split again; a count
    of the arcs beyond a spanning forest tells a leaf whether a cycle is left.

    A leaf's weight is the target component's belief vector times the total
    weight of every other component holding an evidence or bound variable
    (one without sums to 1).  Each component weight is solved once per query
    for each binding it can see -- the values bound on its nodes and on their
    parents in the evidence-reduced network -- and reused by every later
    branch with that binding; this is the context caching of recursive
    conditioning.  Weights carry power-of-two exponents, so tiny evidence
    probabilities do not underflow.  Branch weights are added in canonical
    branch order.  A branch contradicting evidence on a cutset variable
    weighs 0 unsolved.  ``evaluations`` counts every branch and
    ``messages_computed`` the messages actually solved.  Raises
    :class:`NotSinglyConnectedError` when a branch leaves a cycle.
    """
    net.check_context(query.evidence)
    reduced = reduce_network(net, query.evidence)
    names = net.var_names
    index = {v: i for i, v in enumerate(names)}
    values = [net.values(v) for v in names]
    trees = [reduced.cpt(v) for v in names]
    parents = [tuple(index[p] for p in reduced.parents(v)) for v in names]
    children = [tuple(index[c] for c in reduced.children(v)) for v in names]
    reduced_children = list(children)
    tables = [cpt_array(reduced, v) for v in names]
    eyes = {n: np.eye(n) for n in {len(vals) for vals in values}}
    ones = {n: np.ones(n) for n in eyes}
    ind = [
        eyes[len(vs)][vs.index(query.evidence[v])] if v in query.evidence else ones[len(vs)]
        for v, vs in zip(names, values)
    ]
    observed = [v in query.evidence for v in names]
    watched = [index[v] for v in sorted(query.evidence)]  # evidence, then bindings
    bound = np.zeros(len(names), dtype=np.int64)  # 1 + bound value index, or 0
    cut = sorted(index[v] for v in cutset_mod.cutset_variables(ct))
    target = index[query.target]

    def split(nodes) -> list[frozenset]:
        """The connected components of ``nodes`` under the current arcs."""
        left, parts = set(nodes), []
        while left:
            part = [left.pop()]
            for v in part:
                for w in parents[v] + children[v]:
                    if w in left:
                        left.remove(w)
                        part.append(w)
            parts.append(frozenset(part))
        return parts

    # arcs minus (nodes minus components): each component has at least its
    # size minus one arcs, so this is 0 exactly when every component is a tree
    component = [frozenset()] * len(names)
    excess = [sum(map(len, parents)) - len(names)]
    for part in split(range(len(names))):
        excess[0] += 1
        for v in part:
            component[v] = part

    def bind(x: int, k: int) -> list:
        """Instantiate ``x`` to its ``k``-th value; returns the undo record.
        Each child of ``x`` drops every parent its reduced tree no longer
        tests: its table takes index ``k`` on the axis of ``x`` and 0 on the
        other dropped axes, along which it is constant.  Every dropped arc
        lies in ``x``'s component, which is then split again."""
        saved = [(ind, x, ind[x]), (observed, x, observed[x]), (bound, x, bound[x])]
        ind[x], observed[x], bound[x] = eyes[len(values[x])][k], True, k + 1
        if not children[x]:
            return saved
        old = component[x]
        saved.append((excess, 0, excess[0]))
        excess[0] -= 1
        for c in children[x]:
            tree = reduce_tree(trees[c], {names[x]: values[x][k]})
            tested = tree_tested_vars(tree)  # never names[x]
            at = tuple(k if p == x else slice(None) if names[p] in tested else 0 for p in parents[c])
            saved += [(trees, c, trees[c]), (tables, c, tables[c]), (parents, c, parents[c])]
            for p in parents[c]:
                if names[p] not in tested:
                    saved.append((children, p, children[p]))
                    children[p] = tuple(q for q in children[p] if q != c)
            trees[c], tables[c] = tree, tables[c][at]
            kept = tuple(p for p in parents[c] if names[p] in tested)
            excess[0] -= len(parents[c]) - len(kept)
            parents[c] = kept
        saved.append((component, slice(None), component[:]))  # all at once
        for part in split(old):
            excess[0] += 1
            for v in part:
                component[v] = part
        return saved

    cache: dict[tuple[frozenset, bytes], tuple] = {}
    sees: dict[frozenset, np.ndarray] = {}  # cutset variables a component depends on
    messages = 0

    def weight(part: frozenset) -> tuple:
        """``part``'s belief vector at the target if it holds the target,
        else its total weight, with its power-of-two exponent."""
        nonlocal messages
        if part not in sees:
            sees[part] = np.array(
                [x for x in cut if x in part or not part.isdisjoint(reduced_children[x])],
                dtype=np.intp,
            )
        key = (part, bound[sees[part]].tobytes())
        if key not in cache:
            root = target if target in part else min(part)
            vec, exponent, count = _solve_component(
                root, parents, children, tables, ind, observed
            )
            messages += count
            if root != target:
                mantissa, shift = math.frexp(float(vec.sum()))
                vec, exponent = mantissa, exponent + shift
            cache[key] = (vec, exponent)
        return cache[key]

    total, total_exponent = None, 0

    def leaf() -> None:
        nonlocal total, total_exponent
        if excess[0]:
            raise NotSinglyConnectedError("network skeleton contains an undirected cycle")
        vec, exponent = weight(component[target])
        scale, done = 1.0, {component[target]}
        for i in watched:
            if component[i] not in done:
                done.add(component[i])
                mantissa, shift = weight(component[i])
                scale, rescale = math.frexp(scale * mantissa)
                exponent += shift + rescale
        vec = vec * scale
        if not vec.any():  # a zero weight has no exponent to align
            return
        if total is None:
            total, total_exponent = vec, exponent
            return
        if exponent > total_exponent:
            total, total_exponent = np.ldexp(total, total_exponent - exponent), exponent
        if exponent < total_exponent:
            vec = np.ldexp(vec, exponent - total_exponent)
        total = total + vec

    def walk(tree: "cutset_mod.CutsetTree", live: bool) -> int:
        if isinstance(tree, cutset_mod.EmptyLeaf):
            if live:
                leaf()
            return 1
        x, leaves = index[tree.test], 0
        for arc_values, child in tree.arcs:
            for value in arc_values:
                if not (live and query.evidence.get(tree.test, value) == value):
                    leaves += walk(child, False)
                    continue
                saved = bind(x, values[x].index(value))
                watched.append(x)
                leaves += walk(child, True)
                watched.pop()
                for store, i, old in reversed(saved):
                    store[i] = old
        return leaves

    try:
        evaluations = walk(ct, True)
    finally:
        # the recursive closure refers to itself, a cycle that would keep
        # the query's state and cache alive until the cyclic GC ran
        del walk
    weights = [0.0] * len(values[target]) if total is None else [float(w) for w in total]
    return _finish(weights, evaluations, total_exponent, messages)
