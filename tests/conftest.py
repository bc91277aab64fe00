"""Shared fixtures: independent oracles and seeded random network factories.

The oracles here deliberately reimplement graph reasoning with different
algorithms than the package (a Bayes-ball sweep over arrival directions
beside the package's moral ancestral graph, DFS instead of core peeling) so
agreement is evidence, not tautology.
"""

import itertools
import re

import numpy as np
import pytest

from typing import Mapping

from csibn import fixtures, transform
from csibn.inference import joint_probability
from csibn.model import (
    Context,
    CptTree,
    Distribution,
    Leaf,
    Network,
    Node,
    NodeSpec,
    Variable,
    as_tree,
    parent_assignments,
    tree_lookup,
)


@pytest.fixture(scope="session")
def fig1():
    return fixtures.load("fig1")


@pytest.fixture(scope="session")
def fig2():
    return fixtures.load("fig2")


@pytest.fixture(scope="session")
def fig3():
    return fixtures.load("fig3")


# -- independent graph oracles ----------------------------------------------


def oracle_has_undirected_cycle(adj: dict) -> bool:
    """Cycle check by edge counting per component, independent of the
    package's core-peeling test.  A connected simple graph is a tree iff
    it has exactly |nodes| - 1 edges."""
    seen = set()
    for start in adj:
        if start in seen:
            continue
        comp = {start}
        frontier = [start]
        while frontier:
            node = frontier.pop()
            for nb in adj[node]:
                if nb not in comp:
                    comp.add(nb)
                    frontier.append(nb)
        seen |= comp
        edges = sum(len(adj[v] & comp) for v in comp) // 2
        if edges >= len(comp):
            return True
    return False


def skeleton(net: Network) -> dict[str, set[str]]:
    """Undirected adjacency of the parent relation."""
    adj: dict[str, set[str]] = {v.name: set() for v in net.variables}
    for p, c in net.edges():
        if p in adj and c in adj:
            adj[p].add(c)
            adj[c].add(p)
    return adj


def restrict(ctx: Mapping[str, str], variables) -> Context:
    """The bindings of ``ctx`` to ``variables``."""
    keep = set(variables)
    return Context({v: x for v, x in ctx.items() if v in keep})


def tree_leaves(tree: CptTree):
    """The tree's leaves, left to right."""
    if isinstance(tree, Leaf):
        yield tree
    else:
        for _, sub in tree.branches:
            yield from tree_leaves(sub)


def decompose_node(net: Network, x: str) -> Network:
    """``net`` with the one node ``x`` split, by the step that
    ``decompose_network`` repeats."""
    net.node(x)  # an unknown name raises the network's KeyError
    parts = transform._Parts(net)
    parts.split(x)
    return parts.network()


def moral_adjacency(net: Network) -> dict[str, set[str]]:
    """The moral graph on variable names: the skeleton, plus an edge between
    every two parents of one node."""
    adj = skeleton(net)
    for spec in net.nodes:
        for a, b in itertools.combinations(spec.parents, 2):
            adj[a].add(b)
            adj[b].add(a)
    return adj


def oracle_d_separated(net: Network, xs, ys, zs) -> bool:
    """d-separation via the moralized ancestral graph construction."""
    xs, ys, zs = set(xs), set(ys), set(zs)
    relevant = set(xs | ys | zs)
    changed = True
    while changed:
        changed = False
        for spec in net.nodes:
            if spec.var in relevant:
                for p in spec.parents:
                    if p not in relevant:
                        relevant.add(p)
                        changed = True
    adj = {v: set() for v in relevant}
    for spec in net.nodes:
        if spec.var not in relevant:
            continue
        ps = [p for p in spec.parents if p in relevant]
        for p in ps:
            adj[p].add(spec.var)
            adj[spec.var].add(p)
        for a, b in itertools.combinations(ps, 2):
            adj[a].add(b)
            adj[b].add(a)
    # connectivity from X to Y avoiding Z
    frontier = list(xs)
    seen = set(xs)
    while frontier:
        node = frontier.pop()
        if node in ys:
            return False
        for nb in adj.get(node, ()):
            if nb not in seen and nb not in zs:
                seen.add(nb)
                frontier.append(nb)
    return True


def oracle_bayes_ball(net: Network, xs, ys, zs) -> bool:
    """d-separation by a reachability sweep over (node, arrival direction)
    states: a path is active unless blocked by a non-collider in Z or by a
    collider with no descendant in Z."""
    xs, ys, zs = set(xs), set(ys), set(zs)
    parents = {spec.var: spec.parents for spec in net.nodes}
    children: dict[str, list[str]] = {v: [] for v in parents}
    for v, family in parents.items():
        for p in family:
            children[p].append(v)
    z_ancestors = set(zs)  # a collider in here has a descendant in Z
    frontier = list(zs)
    while frontier:
        for p in parents[frontier.pop()]:
            if p not in z_ancestors:
                z_ancestors.add(p)
                frontier.append(p)
    # (node, "down"): reached along an arc into the node;
    # (node, "up"): reached along an arc out of the node
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
            queue += [(p, "up") for p in parents[node]]
            queue += [(c, "down") for c in children[node]]
        else:
            if node not in zs:
                queue += [(c, "down") for c in children[node]]
            if node in z_ancestors:
                queue += [(p, "up") for p in parents[node]]
    return True


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


def full_joint_tensor(net: Network) -> np.ndarray:
    """The joint distribution as an ndarray, axes in variable order."""
    names = list(net.var_names)
    axis = {v: names.index(v) for v in names}
    total = np.ones([len(net.values(v)) for v in names])
    for spec in net.nodes:
        scope = list(spec.parents) + [spec.var]
        shape = [len(net.values(v)) for v in scope]
        fam = np.empty(shape)
        parent_vars = [net.variable(p) for p in spec.parents]
        tree = as_tree(net, spec.var)
        for idxs in itertools.product(*(range(len(v.values)) for v in parent_vars)):
            assignment = {v.name: v.values[i] for v, i in zip(parent_vars, idxs)}
            fam[idxs] = tree_lookup(tree, assignment).probs
        expanded_shape = [1] * len(names)
        perm_scope = sorted(scope, key=lambda v: axis[v])
        fam = np.transpose(fam, [scope.index(v) for v in perm_scope])
        for v in perm_scope:
            expanded_shape[axis[v]] = len(net.values(v))
        total = total * fam.reshape(expanded_shape)
    return total


def all_assignments(net: Network):
    names = list(net.var_names)
    for combo in itertools.product(*(net.values(v) for v in names)):
        yield dict(zip(names, combo))


# -- random network factories ------------------------------------------------


def _random_dist(rng) -> Distribution:
    p = float(rng.uniform(0.05, 0.95))
    return Distribution((p, 1.0 - p))


def _random_tree(rng, candidates, depth=0):
    if not candidates or (depth > 0 and rng.random() < 0.45):
        return Leaf(_random_dist(rng))
    test = candidates[int(rng.integers(len(candidates)))]
    rest = [c for c in candidates if c != test]
    return Node(
        test,
        tuple((v, _random_tree(rng, rest, depth + 1)) for v in ("t", "f")),
    )


def random_tree_net(rng, max_vars=6) -> Network:
    """Random binary-variable network with tree CPTs, leaf params in
    (0.05, 0.95).  Parents of a node are exactly the variables its tree
    tests."""
    n = int(rng.integers(3, max_vars + 1))
    names = [f"V{i}" for i in range(n)]
    variables = tuple(Variable(v, ("t", "f")) for v in names)
    nodes = []
    for i, name in enumerate(names):
        pool = [p for p in names[:i] if rng.random() < 0.5][:3]
        tree = _random_tree(rng, pool)
        tested = _tested(tree)
        parents = tuple(p for p in names[:i] if p in tested)
        nodes.append(NodeSpec(name, parents, tree))
    return Network(variables, tuple(nodes))


def random_dag_net(rng, max_vars=12) -> Network:
    """Random binary-variable DAG of 2 to ``max_vars`` nodes and random arc
    density; each CPT is a random tree over a random subset of the node's
    parents, so some declared arcs are never tested."""
    n = int(rng.integers(2, max_vars + 1))
    density = float(rng.uniform(0.1, 0.6))
    names = [f"V{i}" for i in range(n)]
    variables = tuple(Variable(v, ("t", "f")) for v in names)
    nodes = []
    for i, name in enumerate(names):
        parents = tuple(p for p in names[:i] if rng.random() < density)
        pool = [p for p in parents if rng.random() < 0.7][:3]
        nodes.append(NodeSpec(name, parents, _random_tree(rng, pool)))
    return Network(variables, tuple(nodes))


def _tested(tree) -> set:
    if isinstance(tree, Leaf):
        return set()
    out = {tree.test}
    for _, sub in tree.branches:
        out |= _tested(sub)
    return out


def random_loopy_net(rng, max_vars=8) -> Network:
    """Like random_tree_net but resampled until the skeleton has a cycle."""
    for _ in range(200):
        n = int(rng.integers(4, max_vars + 1))
        names = [f"V{i}" for i in range(n)]
        variables = tuple(Variable(v, ("t", "f")) for v in names)
        nodes = []
        for i, name in enumerate(names):
            pool = [p for p in names[:i] if rng.random() < 0.6][:4]
            tree = _random_tree(rng, pool)
            # force every pooled parent to appear: retry a few times
            for _ in range(10):
                if _tested(tree) == set(pool):
                    break
                tree = _random_tree(rng, pool)
            tested = _tested(tree)
            parents = tuple(p for p in names[:i] if p in tested)
            nodes.append(NodeSpec(name, parents, tree))
        net = Network(variables, tuple(nodes))
        if oracle_has_undirected_cycle(skeleton(net)):
            return net
    raise AssertionError("could not sample a loopy network")


def random_polytree_net(rng, max_vars=7) -> Network:
    """Random network whose skeleton is a tree (before any pruning by
    untested parents, which can only sparsify it further)."""
    n = int(rng.integers(3, max_vars + 1))
    names = [f"V{i}" for i in range(n)]
    variables = tuple(Variable(v, ("t", "f")) for v in names)
    parent_lists = {v: [] for v in names}
    for i in range(1, n):
        j = int(rng.integers(i))
        if rng.random() < 0.5:
            parent_lists[names[i]].append(names[j])
        else:
            parent_lists[names[j]].append(names[i])
    nodes = []
    for name in names:
        pool = parent_lists[name]
        tree = _random_tree(rng, pool)
        for _ in range(10):
            if _tested(tree) == set(pool):
                break
            tree = _random_tree(rng, pool)
        parents = tuple(p for p in pool if p in _tested(tree))
        nodes.append(NodeSpec(name, parents, tree))
    return Network(variables, tuple(nodes))


def windowed_net(rng, n: int) -> Network:
    """Binary ``V0 .. V{n-1}``: each draws parents among the previous six
    variables (each with probability 0.3, at most 3) and a random
    CPT tree over them whose subtrees stop early with probability 0.45,
    keeping as parents the variables its tree tests: the windowed loopy
    networks of the benchmark's generator."""

    def draw(pool, depth):
        if not pool or (depth and rng.random() < 0.45):
            p = float(rng.uniform(0.05, 0.95))
            return Leaf(Distribution((p, 1.0 - p)))
        test = pool[int(rng.integers(len(pool)))]
        rest = [v for v in pool if v != test]
        return Node(test, tuple((v, draw(rest, depth + 1)) for v in ("t", "f")))

    names = [f"V{i}" for i in range(n)]
    nodes = []
    for i, name in enumerate(names):
        window = names[max(0, i - 6) : i]
        pool = [p for p in window if rng.random() < 0.3][:3]
        tree = draw(pool, 0)
        tested = _tested(tree)
        nodes.append(NodeSpec(name, tuple(p for p in window if p in tested), tree))
    return Network(tuple(Variable(v, ("t", "f")) for v in names), tuple(nodes))


def chain_net() -> Network:
    """A -> B -> C with distinct rows; the doc-example workhorse."""
    variables = tuple(Variable(v, ("t", "f")) for v in "ABC")
    leaf = lambda p: Leaf(Distribution((p, 1.0 - p)))
    nodes = (
        NodeSpec("A", (), leaf(0.3)),
        NodeSpec("B", ("A",), Node("A", (("t", leaf(0.8)), ("f", leaf(0.4))))),
        NodeSpec("C", ("B",), Node("B", (("t", leaf(0.1)), ("f", leaf(0.7))))),
    )
    return Network(variables, nodes)


def diamond_net() -> Network:
    """A -> B -> D, A -> C -> D: the minimal loopy skeleton."""
    variables = tuple(Variable(v, ("t", "f")) for v in "ABCD")
    leaf = lambda p: Leaf(Distribution((p, 1.0 - p)))
    branch = lambda test, pt, pf: Node(test, (("t", leaf(pt)), ("f", leaf(pf))))
    d_tree = Node(
        "B",
        (
            ("t", branch("C", 0.9, 0.5)),
            ("f", branch("C", 0.3, 0.2)),
        ),
    )
    nodes = (
        NodeSpec("A", (), leaf(0.6)),
        NodeSpec("B", ("A",), branch("A", 0.7, 0.2)),
        NodeSpec("C", ("A",), branch("A", 0.25, 0.85)),
        NodeSpec("D", ("B", "C"), d_tree),
    )
    return Network(variables, nodes)


def disjoint_diamonds(n: int) -> Network:
    """``n`` unconnected copies of :func:`diamond_net`, ``A{i}`` to ``D{i}``:
    an easy network whose cutset tree is ``n`` levels deep."""
    leaf = lambda p: Leaf(Distribution((p, 1.0 - p)))
    branch = lambda test, pt, pf: Node(test, (("t", leaf(pt)), ("f", leaf(pf))))
    variables, nodes = [], []
    for i in range(n):
        a, b, c, d = (f"{v}{i}" for v in "ABCD")
        variables += [Variable(v, ("t", "f")) for v in (a, b, c, d)]
        nodes += [
            NodeSpec(a, (), leaf(0.6)),
            NodeSpec(b, (a,), branch(a, 0.7, 0.2)),
            NodeSpec(c, (a,), branch(a, 0.25, 0.85)),
            NodeSpec(d, (b, c), Node(b, (("t", branch(c, 0.9, 0.5)), ("f", branch(c, 0.3, 0.2))))),
        ]
    return Network(tuple(variables), tuple(nodes))


def deterministic_diamond_net() -> Network:
    """Diamond where B and C copy A exactly; evidence B != C is impossible."""
    variables = tuple(Variable(v, ("t", "f")) for v in "ABCD")
    leaf = lambda p: Leaf(Distribution((p, 1.0 - p)))
    copy_a = Node("A", (("t", leaf(1.0)), ("f", leaf(0.0))))
    d_tree = Node(
        "B",
        (
            ("t", Node("C", (("t", leaf(0.9)), ("f", leaf(0.5))))),
            ("f", Node("C", (("t", leaf(0.3)), ("f", leaf(0.2))))),
        ),
    )
    nodes = (
        NodeSpec("A", (), leaf(0.5)),
        NodeSpec("B", ("A",), copy_a, deterministic=True),
        NodeSpec("C", ("A",), copy_a, deterministic=True),
        NodeSpec("D", ("B", "C"), d_tree),
    )
    return Network(variables, nodes)


# -- acceptance summary ------------------------------------------------------


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One PASS/FAIL line per acceptance criterion at the end of the run."""
    results = {}
    for bucket in terminalreporter.stats.values():
        for rep in bucket:
            if not hasattr(rep, "passed"):
                continue
            nodeid = getattr(rep, "nodeid", "")
            m = re.search(r"test_acceptance\.py::test_criterion_(\d+)", nodeid)
            if not m:
                continue
            num = int(m.group(1))
            if getattr(rep, "when", "call") == "call":
                results[num] = "PASS" if rep.passed else "FAIL"
            elif not rep.passed:
                results.setdefault(num, "FAIL")
    if results:
        terminalreporter.write_line("")
        terminalreporter.write_line("acceptance criteria:")
        for num in sorted(results):
            terminalreporter.write_line(f"  [criterion {num:02d}] {results[num]}")
