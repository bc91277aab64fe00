"""Acceptance gate: one test per shipped guarantee.

Every test asserts a fixed numeric tolerance and a wall-clock budget.  The
terminal summary hook in conftest.py turns each into a
``[criterion NN] PASS``/``FAIL`` line, so this file doubles as the release
checklist.
"""

import itertools
import time

import numpy as np
import pytest

from csibn.csi import csi_separated, reduce_tree, vacuous_parents
from csibn.cutset import (
    arc_deletion_score,
    best_cut_variable,
    build_conditional_cutset,
    cutset_variables,
    flat_cutset,
    rank_variables,
)
from csibn.inference import (
    Query,
    cutset_infer,
    query_enumerate,
    variable_elimination,
)
from csibn.model import Context, as_tree, tree_tested_vars, validate
from csibn.transform import clique_report, decompose_network

from conftest import (
    contextually_independent,
    full_joint_tensor,
    occurs_consistent,
    random_loopy_net,
    random_tree_net,
)


def _marginal(net, keep):
    """Joint tensor marginalized onto ``keep``, axes in ``keep`` order."""
    tensor = full_joint_tensor(net)
    names = [v.name for v in net.variables]
    drop = tuple(i for i, n in enumerate(names) if n not in keep)
    marg = tensor.sum(axis=drop) if drop else tensor
    remaining = [n for n in names if n in keep]
    return marg.transpose([remaining.index(n) for n in keep])


def test_criterion_01(fig3):
    """A five-parent tabular node splits into two four-entry conditionals
    plus a multiplexer, shrinking 32 entries to 16."""
    t0 = time.perf_counter()
    decomposed, reports = decompose_network(fig3)
    assert len(reports) == 1
    rep = reports[0]
    assert rep.node == "X"
    assert rep.table_entries_before == 32
    assert rep.conditional_nodes == (
        ("X@A=t", ("B1", "B2"), 4),
        ("X@A=f", ("B3", "B4"), 4),
    )
    assert rep.multiplexer == ("X", 8)
    assert rep.entries_after == 16
    assert validate(decomposed) == []
    assert time.perf_counter() - t0 < 1.0


def test_criterion_02(fig2):
    """Recursive decomposition of a nested tree CPT yields exactly the
    expected conditional nodes with exactly the expected parent sets."""
    t0 = time.perf_counter()
    decomposed, reports = decompose_network(fig2)
    assert [r.node for r in reports] == ["X", "X@A=f", "X@A=f,B=f"]
    expected_parents = {
        "X@A=t": ("D",),
        "X@A=f,B=t": (),
        "X@A=f,B=f,C=t": (),
        "X@A=f,B=f,C=f": ("D",),
    }
    for name, parents in expected_parents.items():
        assert decomposed.node(name).parents == parents
    assert validate(decomposed) == []
    assert time.perf_counter() - t0 < 1.0


def test_criterion_03(fig1):
    """The heuristic cutset tree needs 5 network evaluations where the flat
    cutset over the same variables needs 8, with identical answers."""
    t0 = time.perf_counter()
    auto = build_conditional_cutset(fig1)
    assert cutset_variables(auto) == {"U", "V", "W"}
    flat = flat_cutset(fig1, ["U", "V", "W"])
    q = Query("Z", Context({}))
    r_auto = cutset_infer(fig1, q, auto)
    r_flat = cutset_infer(fig1, q, flat)
    r_ref = query_enumerate(fig1, q)
    assert r_auto.evaluations == 5
    assert r_flat.evaluations == 8
    np.testing.assert_allclose(r_auto.posterior.probs, r_ref.posterior.probs, atol=1e-9)
    np.testing.assert_allclose(r_flat.posterior.probs, r_ref.posterior.probs, atol=1e-9)
    assert r_auto.evidence_probability == pytest.approx(1.0, abs=1e-9)
    assert time.perf_counter() - t0 < 1.0


def test_criterion_04(fig1, fig2):
    """Vacuous-parent detection returns exactly the advertised sets."""
    assert vacuous_parents(fig1, "X", {"U": "t"}) == frozenset({"V", "W"})
    assert vacuous_parents(fig2, "X", {"A": "t"}) == frozenset({"B", "C"})
    assert vacuous_parents(fig2, "X", {"A": "f", "B": "t"}) == frozenset({"C", "D"})


def test_criterion_05():
    """Structural contextual-independence claims are sound: on 100 random
    tree-CPT networks, every positive claim survives exact numeric checking
    at 1e-9.  No counterexamples, and the sweep actually produces claims."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260825)
    claims = 0
    counterexamples = []
    for _ in range(100):
        net = random_tree_net(rng)
        names = list(net.var_names)
        for _ in range(8):
            picks = list(rng.permutation(names))
            x, y, rest = picks[0], picks[1], picks[2:]
            context = {}
            z = []
            for name in rest:
                roll = rng.random()
                if roll < 0.35:
                    values = net.variable(name).values
                    context[name] = values[rng.integers(len(values))]
                elif roll < 0.6:
                    z.append(name)
            if not csi_separated(net, [x], [y], z, context):
                continue
            claims += 1
            if not contextually_independent(net, [x], [y], z, context, tol=1e-9):
                counterexamples.append((net, x, y, z, context))
    assert claims > 0
    assert counterexamples == []
    assert time.perf_counter() - t0 < 60.0


def test_criterion_06(fig1, fig2, fig3):
    """Reduced trees test a variable iff it occurs on some context-consistent
    path, exhaustively over every partial parent context of every fixture
    node with at most four parents."""
    t0 = time.perf_counter()
    checked = 0
    for net in (fig1, fig2, fig3):
        for name in net.var_names:
            parents = net.node(name).parents
            if len(parents) > 4:
                continue
            tree = as_tree(net, name)
            for r in range(len(parents) + 1):
                for subset in itertools.combinations(parents, r):
                    domains = [net.variable(p).values for p in subset]
                    for combo in itertools.product(*domains):
                        context = dict(zip(subset, combo))
                        tested = tree_tested_vars(reduce_tree(tree, context))
                        expected = {
                            p
                            for p in parents
                            if p not in context and occurs_consistent(tree, p, context)
                        }
                        assert tested == expected, (name, context)
                        checked += 1
    assert checked > 100
    assert time.perf_counter() - t0 < 10.0


def test_criterion_07(fig1, fig2, fig3):
    """Enumeration, variable elimination and cutset conditioning agree to
    1e-9 on the fixtures and on 20 random multiply-connected networks."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260826)
    nets = [fig1, fig2, fig3] + [random_loopy_net(rng) for _ in range(20)]
    compared = 0
    for net in nets:
        tree = build_conditional_cutset(net)
        cut = cutset_variables(tree)
        names = list(net.var_names)
        for _ in range(3):
            target = names[rng.integers(len(names))]
            evidence = {}
            for name in names:
                if name == target or name in cut:
                    continue
                if rng.random() < 0.4:
                    values = net.variable(name).values
                    evidence[name] = values[rng.integers(len(values))]
            q = Query(target, Context(evidence))
            r_enum = query_enumerate(net, q)
            r_ve = variable_elimination(net, q)
            r_cut = cutset_infer(net, q, tree)
            for r in (r_ve, r_cut):
                np.testing.assert_allclose(
                    r.posterior.probs, r_enum.posterior.probs, atol=1e-9
                )
                assert r.evidence_probability == pytest.approx(
                    r_enum.evidence_probability, abs=1e-9
                )
            compared += 1
    assert compared == 23 * 3
    assert time.perf_counter() - t0 < 60.0


def test_criterion_08(fig2, fig3):
    """Decomposition preserves the joint distribution over the original
    variables to 1e-9, checked exhaustively."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260827)
    nets = [fig2, fig3] + [random_tree_net(rng) for _ in range(10)]
    for net in nets:
        decomposed, _ = decompose_network(net)
        keep = [v.name for v in net.variables]
        np.testing.assert_allclose(
            _marginal(decomposed, keep), full_joint_tensor(net), atol=1e-9
        )
    assert time.perf_counter() - t0 < 30.0


def test_criterion_09(fig2):
    """The arc-deletion heuristic reproduces the worked numbers: score 2.5
    for the root variable, which wins the weight-to-score ratio."""
    assert arc_deletion_score(fig2, "A") == pytest.approx(2.5, abs=1e-9)
    scores = {s.variable: s for s in rank_variables(fig2)}
    assert scores["A"].ratio == pytest.approx(0.4, abs=1e-9)
    assert best_cut_variable(fig2) == "A"


def test_criterion_10(fig2):
    """Decomposing the nested-tree fixture strictly lowers the max clique
    weight of the moralized graph; the improved value is pinned as a
    regression baseline."""
    t0 = time.perf_counter()
    before = clique_report(fig2)
    decomposed, _ = decompose_network(fig2)
    after = clique_report(decomposed)
    assert before.max_clique_weight == pytest.approx(5.0, abs=1e-9)
    assert after.max_clique_weight < before.max_clique_weight
    assert after.max_clique_weight == pytest.approx(4.0, abs=1e-9)
    assert time.perf_counter() - t0 < 1.0
