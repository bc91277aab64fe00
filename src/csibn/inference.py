"""Exact inference: enumeration, variable elimination, polytree solving,
and conditional-cutset conditioning.

Every engine answers the same question -- a posterior over one target
variable given evidence -- and reports the unnormalized evidence
probability alongside.  ``query_enumerate`` is the ground truth the other
engines are tested against.  All engines are deterministic: identical
inputs produce bit-identical results because every summation runs in a
fixed order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from . import cutset as cutset_mod
from .csi import reduce_network
from .model import (
    Context,
    CptTable,
    Distribution,
    Network,
    cpt_array,
    parent_assignments,
    row_index,
    tree_lookup,
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


def _finish(weights, evaluations: int) -> InferenceResult:
    total = float(sum(weights))
    if total <= 0.0:
        raise ImpossibleEvidenceError("evidence has probability zero")
    return InferenceResult(
        posterior=Distribution(tuple(w / total for w in weights)),
        evidence_probability=total,
        evaluations=evaluations,
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


def variable_elimination(net: Network, query: Query) -> InferenceResult:
    """Posterior via factor elimination in min-fill order (lexicographic
    tie-break), which makes the computation reproducible bit for bit."""
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
    for var in graphs.min_fill_order(adj):
        touching = [f for f in factors if var in f.vars]
        rest = [f for f in factors if var not in f.vars]
        if not touching:
            continue
        combined = touching[0]
        for f in touching[1:]:
            combined = _multiply(combined, f)
        factors = rest + [_sum_out(combined, var)]

    # the target's own family factor keeps it in scope, so the product
    # ranges over the target alone
    result = _Factor((), np.array(1.0))
    for f in factors:
        result = _multiply(result, f)
    return _finish([float(w) for w in result.table], evaluations=1)


# -- singly connected solver -------------------------------------------------


def solve_singly_connected(net: Network, query: Query) -> InferenceResult:
    """Exact posterior for networks whose undirected skeleton is a forest.

    Message passing with two message kinds per skeleton edge; work is
    linear in total CPT size.  Raises :class:`NotSinglyConnectedError` on
    loopy input.
    """
    net.check_context(query.evidence)
    weights = _forest_weights(net, query.target, query.evidence)
    return _finish([float(w) for w in weights], evaluations=1)


def _forest_weights(net: Network, target: str, evidence: Mapping[str, str]) -> np.ndarray:
    """Unnormalized vector P(target = x, evidence); zero vector allowed."""
    skeleton = net.skeleton()
    if graphs.two_core(skeleton):
        raise NotSinglyConnectedError("network skeleton contains an undirected cycle")

    tables = {spec.var: cpt_array(net, spec.var) for spec in net.nodes}

    def ev_vector(v: str) -> np.ndarray:
        values = net.values(v)
        if v in evidence:
            vec = np.zeros(len(values))
            vec[net.variable(v).index(evidence[v])] = 1.0
            return vec
        return np.ones(len(values))

    memo: dict[tuple[str, str, str], np.ndarray] = {}

    def pi_msg(u: str, c: str) -> np.ndarray:
        key = ("pi", u, c)
        if key not in memo:
            vec = ev_vector(u) * pi_value(u)
            for other in net.children(u):
                if other != c:
                    vec = vec * lambda_msg(other, u)
            memo[key] = vec
        return memo[key]

    def lambda_msg(c: str, u: str) -> np.ndarray:
        key = ("lambda", c, u)
        if key not in memo:
            lam = ev_vector(c)
            for child in net.children(c):
                lam = lam * lambda_msg(child, c)
            parents = net.parents(c)
            own = len(parents)
            operands = [tables[c], list(range(own + 1)), lam, [own]]
            for i, p in enumerate(parents):
                if p != u:
                    operands += [pi_msg(p, c), [i]]
            memo[key] = np.einsum(*operands, [parents.index(u)])
        return memo[key]

    def pi_value(v: str) -> np.ndarray:
        key = ("pival", v, "")
        if key not in memo:
            parents = net.parents(v)
            own = len(parents)
            operands = [tables[v], list(range(own + 1))]
            for i, p in enumerate(parents):
                operands += [pi_msg(p, v), [i]]
            memo[key] = np.einsum(*operands, [own]) if parents else tables[v]
        return memo[key]

    def belief(v: str) -> np.ndarray:
        vec = ev_vector(v) * pi_value(v)
        for child in net.children(v):
            vec = vec * lambda_msg(child, v)
        return vec

    components = graphs.connected_components(skeleton)
    weights = np.ones(len(net.values(target)))
    for comp in components:
        if target in comp:
            weights = weights * belief(target)
        else:
            anchor = min(comp)
            weights = weights * float(belief(anchor).sum())
    return weights


# -- cutset conditioning -----------------------------------------------------


def cutset_infer(
    net: Network, query: Query, ct: "cutset_mod.CutsetTree"
) -> InferenceResult:
    """Posterior by conditioning on the branches of a conditional cutset.

    Each branch context, joined with the evidence, instantiates enough
    variables (and deletes enough vacuous arcs) to leave a singly connected
    network, which the forest solver evaluates for the branch's
    unnormalized weight.  Weights accumulate in the canonical depth-first
    branch order; branches whose weight is zero still count as
    evaluations.
    """
    net.check_context(query.evidence)
    ct_vars = cutset_mod.cutset_variables(ct)
    overlap = ct_vars & set(query.evidence)
    if overlap:
        raise ValueError(
            f"evidence binds cutset variable {sorted(overlap)[0]!r}; "
            "cutsets are built evidence-blind, pick disjoint evidence"
        )
    contexts = cutset_mod.branch_contexts(ct)
    target_var = net.variable(query.target)
    weights = np.zeros(len(target_var.values))
    for branch in contexts:
        full = query.evidence.union(branch)
        reduced = reduce_network(net, full)
        branch_weights = _forest_weights(reduced, query.target, full)
        if query.target in full:
            mask = np.zeros(len(target_var.values))
            mask[target_var.index(full[query.target])] = 1.0
            branch_weights = branch_weights * mask
        weights = weights + branch_weights
    result = _finish([float(w) for w in weights], evaluations=len(contexts))
    return result
