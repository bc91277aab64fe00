"""Inference engines: oracle, elimination, forest solver, cutset loop."""

import gc

import numpy as np
import pytest

import csibn as cb
from csibn import fixtures, inference, model
from csibn.cutset import (
    EMPTY,
    CutsetNode,
    build_conditional_cutset,
    cutset_variables,
    flat_cutset,
)
from csibn.inference import (
    ImpossibleEvidenceError,
    NotSinglyConnectedError,
    Query,
    contextually_independent,
    cutset_infer,
    joint_probability,
    query_enumerate,
    solve_singly_connected,
    _compile,
    variable_elimination,
)
from csibn.csi import vacuous_parents
from csibn.model import (
    Context,
    CptTable,
    Distribution,
    Leaf,
    Network,
    Node,
    NodeSpec,
    Variable,
    parse_network,
    serialize_network,
)
from csibn.transform import decompose_network

from conftest import (
    all_assignments,
    chain_net,
    deterministic_diamond_net,
    diamond_net,
    random_loopy_net,
    random_polytree_net,
    random_tree_net,
)


def binary_chain(n, stay, leave) -> Network:
    """V0 -> V1 -> ... with P(V0=t) = 0.5, P(t | t) = ``stay`` and
    P(t | f) = ``leave``."""
    names = [f"V{i}" for i in range(n)]
    leaf = lambda p: Leaf(Distribution((p, 1.0 - p)))
    nodes = [NodeSpec("V0", (), leaf(0.5))] + [
        NodeSpec(v, (u,), Node(u, (("t", leaf(stay)), ("f", leaf(leave)))))
        for u, v in zip(names, names[1:])
    ]
    return Network(tuple(Variable(v, ("t", "f")) for v in names), tuple(nodes))


def posteriors_close(a, b, tol=1e-9):
    np.testing.assert_allclose(a.posterior.probs, b.posterior.probs, atol=tol)
    np.testing.assert_allclose(
        a.evidence_probability, b.evidence_probability, atol=tol
    )


class TestJointProbability:
    def test_single_node(self):
        net = Network(
            (Variable("A", ("t", "f")),),
            (NodeSpec("A", (), Leaf(Distribution((0.3, 0.7)))),),
        )
        assert joint_probability(net, {"A": "t"}) == 0.3

    def test_sums_to_one(self, fig1, fig2, fig3):
        for net in (fig1, fig2, fig3):
            total = sum(joint_probability(net, a) for a in all_assignments(net))
            assert total == pytest.approx(1.0, abs=1e-9)

    def test_unbound_variable_rejected(self, fig2):
        with pytest.raises(ValueError):
            joint_probability(fig2, {"A": "t"})


class TestQueryType:
    def test_target_bound_by_evidence_rejected(self):
        with pytest.raises(ValueError):
            Query("A", Context({"A": "t"}))


class TestEnumerate:
    def test_prior_of_root(self, fig2):
        result = query_enumerate(fig2, Query("A", Context()))
        assert result.posterior.probs == pytest.approx((0.6, 0.4))
        assert result.evidence_probability == pytest.approx(1.0)
        assert result.evaluations == 1

    def test_impossible_evidence_raises(self):
        net = deterministic_diamond_net()
        with pytest.raises(ImpossibleEvidenceError):
            query_enumerate(net, Query("D", Context({"B": "t", "C": "f"})))


class TestVariableElimination:
    def test_chain_textbook(self):
        net = chain_net()
        # P(A | B=t) by hand: 0.3*0.8 / (0.3*0.8 + 0.7*0.4)
        result = variable_elimination(net, Query("A", Context({"B": "t"})))
        assert result.posterior.probs[0] == pytest.approx(0.24 / 0.52)
        assert result.evaluations == 1

    def test_matches_oracle_random(self):
        rng = np.random.default_rng(101)
        for _ in range(25):
            net = random_tree_net(rng)
            names = list(net.var_names)
            target = names[int(rng.integers(len(names)))]
            ev = {}
            for v in names:
                if v != target and rng.random() < 0.3:
                    ev[v] = "t" if rng.random() < 0.5 else "f"
            q = Query(target, Context(ev))
            try:
                want = query_enumerate(net, q)
            except ImpossibleEvidenceError:
                with pytest.raises(ImpossibleEvidenceError):
                    variable_elimination(net, q)
                continue
            posteriors_close(variable_elimination(net, q), want)

    def test_impossible_evidence(self):
        net = deterministic_diamond_net()
        with pytest.raises(ImpossibleEvidenceError):
            variable_elimination(net, Query("D", Context({"B": "t", "C": "f"})))

    def test_tiny_evidence_does_not_underflow(self):
        # V0 -> V1 -> ... -> V199 with P(t | t) = 0.01: evidence t on
        # V0..V198 has probability 0.5 * 0.01**198, about 1e-396
        net = binary_chain(200, stay=0.01, leave=0.6)
        names = net.var_names
        q = Query(names[-1], Context({v: "t" for v in names[:-1]}))
        want = np.log(0.5) + 198 * np.log(0.01)
        # conditioning on the target gives two branches whose weights need
        # different power-of-two exponents
        for result in (
            variable_elimination(net, q),
            solve_singly_connected(net, q),
            cutset_infer(net, q, flat_cutset(net, [names[-1]])),
        ):
            assert result.posterior.probs == pytest.approx((0.01, 0.99), rel=1e-12)
            assert result.log_evidence_probability == pytest.approx(want, rel=1e-9)

    def test_many_factors_in_one_bucket(self):
        # C -> F0..F199: eliminating C multiplies 201 factors, more than one
        # einsum takes; 199 are observed at P(t | C) of 0.01 or 0.02, whose
        # product (below 1e-337) underflows unless it is rescaled part by part
        n = 200
        leaf = lambda p: Leaf(Distribution((p, 1.0 - p)))
        names = ["C"] + [f"F{i}" for i in range(n)]
        nodes = [NodeSpec("C", (), leaf(0.3))] + [
            NodeSpec(f, ("C",), Node("C", (("t", leaf(0.01)), ("f", leaf(0.02)))))
            for f in names[1:]
        ]
        net = Network(tuple(Variable(v, ("t", "f")) for v in names), tuple(nodes))
        q = Query("F0", Context({f: "t" for f in names[2:]}))
        got, want = variable_elimination(net, q), solve_singly_connected(net, q)
        np.testing.assert_allclose(got.posterior.probs, want.posterior.probs, rtol=1e-12)
        assert got.log_evidence_probability == pytest.approx(
            want.log_evidence_probability, rel=1e-12
        )

    def test_log_evidence_probability_every_engine(self, fig1):
        q = Query("Z", Context({"S": "s2"}))
        results = [
            query_enumerate(fig1, q),
            variable_elimination(fig1, q),
            cutset_infer(fig1, q, build_conditional_cutset(fig1)),
        ]
        for r in results:
            assert r.log_evidence_probability == pytest.approx(
                np.log(r.evidence_probability), rel=1e-12
            )


class TestSinglyConnected:
    def test_chain_matches_oracle(self):
        net = chain_net()
        for target in "ABC":
            for ev in ({}, {"B": "t"} if target != "B" else {"A": "f"}):
                q = Query(target, Context(ev))
                posteriors_close(
                    solve_singly_connected(net, q), query_enumerate(net, q)
                )

    def test_collider_with_evidence(self):
        variables = tuple(Variable(v, ("t", "f")) for v in "ABC")
        leaf = lambda p: Leaf(Distribution((p, 1.0 - p)))
        c_tree = Node(
            "A",
            (
                ("t", Node("B", (("t", leaf(0.9)), ("f", leaf(0.4))))),
                ("f", Node("B", (("t", leaf(0.5)), ("f", leaf(0.05))))),
            ),
        )
        net = Network(
            variables,
            (
                NodeSpec("A", (), leaf(0.35)),
                NodeSpec("B", (), leaf(0.8)),
                NodeSpec("C", ("A", "B"), c_tree),
            ),
        )
        q = Query("A", Context({"C": "t"}))
        posteriors_close(solve_singly_connected(net, q), query_enumerate(net, q))

    def test_loopy_rejected(self):
        with pytest.raises(NotSinglyConnectedError):
            solve_singly_connected(diamond_net(), Query("D", Context()))

    def test_evidence_reduces_first(self, fig1):
        # U=t makes V and W vacuous for X, which breaks fig1's only loop
        q = Query("Z", Context({"U": "t"}))
        got = solve_singly_connected(fig1, q)
        posteriors_close(got, query_enumerate(fig1, q))
        assert got.posterior.probs[0] == pytest.approx(0.583297, abs=1e-6)
        assert got.evidence_probability == pytest.approx(0.61)
        # under U=f the skeleton keeps the cycle through S, V, W, X, Z
        with pytest.raises(NotSinglyConnectedError):
            solve_singly_connected(fig1, Query("Z", Context({"U": "f"})))

    def test_matches_oracle_random_polytrees(self):
        rng = np.random.default_rng(202)
        for _ in range(30):
            net = random_polytree_net(rng)
            names = list(net.var_names)
            target = names[int(rng.integers(len(names)))]
            ev = {
                v: ("t" if rng.random() < 0.5 else "f")
                for v in names
                if v != target and rng.random() < 0.35
            }
            q = Query(target, Context(ev))
            posteriors_close(solve_singly_connected(net, q), query_enumerate(net, q))

    def test_deep_chain(self):
        # one π message per arc, scheduled without recursion; the evidence
        # on V0 deletes the arc V0 -> V1
        net = binary_chain(5000, stay=0.7, leave=0.2)
        q = Query("V4999", Context({"V0": "t"}))
        got = solve_singly_connected(net, q)
        posteriors_close(got, variable_elimination(net, q))
        assert got.messages_computed == 4998

    def test_disconnected_components_multiply(self):
        variables = (Variable("A", ("t", "f")), Variable("B", ("t", "f")))
        leaf = lambda p: Leaf(Distribution((p, 1.0 - p)))
        net = Network(
            variables, (NodeSpec("A", (), leaf(0.3)), NodeSpec("B", (), leaf(0.9)))
        )
        result = solve_singly_connected(net, Query("A", Context({"B": "f"})))
        assert result.evidence_probability == pytest.approx(0.1)
        assert result.posterior.probs == pytest.approx((0.3, 0.7))


class TestCutsetInfer:
    def test_fig1_counts_and_agreement(self, fig1):
        auto = build_conditional_cutset(fig1)
        flat = flat_cutset(fig1, ["U", "V", "W"])
        q = Query("Z", Context())
        got_auto = cutset_infer(fig1, q, auto)
        got_flat = cutset_infer(fig1, q, flat)
        want = query_enumerate(fig1, q)
        posteriors_close(got_auto, want)
        posteriors_close(got_flat, want)
        assert got_auto.evaluations == 5
        assert got_flat.evaluations == 8

    def test_target_inside_cutset(self, fig1):
        auto = build_conditional_cutset(fig1)
        q = Query("U", Context({"Z": "t"}))
        posteriors_close(cutset_infer(fig1, q, auto), query_enumerate(fig1, q))

    def test_empty_cutset_on_polytree(self):
        net = chain_net()
        q = Query("C", Context({"A": "t"}))
        result = cutset_infer(net, q, EMPTY)
        posteriors_close(result, query_enumerate(net, q))
        assert result.evaluations == 1

    def test_evidence_on_cutset_variables_matches_oracle(self, fig1):
        auto = build_conditional_cutset(fig1)
        branches = len(cb.branch_contexts(auto))
        for var in sorted(cutset_variables(auto)):
            for value in fig1.values(var):
                for target in fig1.var_names:
                    if target == var:
                        continue
                    q = Query(target, Context({var: value}))
                    got = cutset_infer(fig1, q, auto)
                    posteriors_close(got, query_enumerate(fig1, q))
                    assert got.evaluations == branches
        rng = np.random.default_rng(404)
        checked = 0
        while checked < 20:
            net = random_loopy_net(rng, max_vars=8)
            tree = build_conditional_cutset(net)
            names = list(net.var_names)
            target = names[int(rng.integers(len(names)))]
            ev = {
                v: ("t" if rng.random() < 0.5 else "f")
                for v in sorted(cutset_variables(tree) - {target})
                if rng.random() < 0.7
            }
            ev.update(
                (v, "t" if rng.random() < 0.5 else "f")
                for v in names
                if v != target and v not in ev and rng.random() < 0.2
            )
            if not set(ev) & cutset_variables(tree):
                continue
            q = Query(target, Context(ev))
            try:
                want = query_enumerate(net, q)
            except ImpossibleEvidenceError:
                continue
            posteriors_close(cutset_infer(net, q, tree), want)
            checked += 1

    def test_bindings_compose_along_a_branch(self):
        # C's arc from Q is vacuous only under X=t and Y=t together; the loop
        # Q-C-D breaks on that branch only if binding Y reduces the tree
        # that binding X already reduced
        leaf = lambda p: Leaf(Distribution((p, 1.0 - p)))
        d_on = lambda a, b: Node("D", (("t", leaf(a)), ("f", leaf(b))))
        q_then_d = Node("Q", (("t", d_on(0.9, 0.2)), ("f", d_on(0.6, 0.35))))
        c_tree = Node(
            "X",
            (
                ("t", Node("Y", (("t", d_on(0.7, 0.1)), ("f", q_then_d)))),
                ("f", Node("Q", (("t", d_on(0.15, 0.8)), ("f", d_on(0.5, 0.45))))),
            ),
        )
        net = Network(
            tuple(Variable(v, ("t", "f")) for v in "XYQDC"),
            (
                NodeSpec("X", (), leaf(0.3)),
                NodeSpec("Y", (), leaf(0.6)),
                NodeSpec("Q", (), leaf(0.45)),
                NodeSpec("D", ("Q",), Node("Q", (("t", leaf(0.8)), ("f", leaf(0.25))))),
                NodeSpec("C", ("X", "Y", "Q", "D"), c_tree),
            ),
        )
        cut_q = CutsetNode("Q", ((("t", "f"), EMPTY),))
        tree = CutsetNode(
            "X",
            (
                (("t",), CutsetNode("Y", ((("t",), EMPTY), (("f",), cut_q)))),
                (("f",), cut_q),
            ),
        )
        for ev in ({}, {"D": "t"}, {"Y": "t", "D": "f"}):
            q = Query("C", Context(ev))
            got = cutset_infer(net, q, tree)
            posteriors_close(got, query_enumerate(net, q))
            assert got.evaluations == 5

    def test_branch_left_loopy_rejected(self, fig1):
        # U=t makes V and W vacuous for X; U=f leaves the loop through them
        with pytest.raises(NotSinglyConnectedError):
            cutset_infer(fig1, Query("Z", Context()), flat_cutset(fig1, ["U"]))

    def test_cycle_in_a_component_no_binding_reaches_rejected(self):
        # the diamond's cycle lies beside X -> Y, so no binding of the cutset
        # changes its component: it is never weighed above a leaf, and the
        # leaf's cycle check rejects every branch
        diamond = diamond_net()
        leaf = lambda p: Leaf(Distribution((p, 1.0 - p)))
        net = Network(
            diamond.variables + (Variable("X", ("t", "f")), Variable("Y", ("t", "f"))),
            diamond.nodes
            + (
                NodeSpec("X", (), leaf(0.3)),
                NodeSpec("Y", ("X",), Node("X", (("t", leaf(0.8)), ("f", leaf(0.1))))),
            ),
        )
        tree = flat_cutset(net, ["X"])
        for target, evidence in (("D", {"Y": "t"}), ("Y", {"D": "t"}), ("Y", {"D": "t", "X": "t"})):
            with pytest.raises(NotSinglyConnectedError):
                cutset_infer(net, Query(target, Context(evidence)), tree)

    def test_all_branches_zero_is_impossible_evidence(self):
        net = deterministic_diamond_net()
        tree = build_conditional_cutset(net)
        assert cutset_variables(tree) == {"A"}
        with pytest.raises(ImpossibleEvidenceError):
            cutset_infer(net, Query("D", Context({"B": "t", "C": "f"})), tree)

    def test_zero_weight_branch_still_counted(self):
        net = deterministic_diamond_net()
        tree = build_conditional_cutset(net)
        # B=t forces A=t, so the A=f branch contributes zero weight
        q = Query("D", Context({"B": "t", "C": "t"}))
        result = cutset_infer(net, q, tree)
        assert result.evaluations == len(cb.branch_contexts(tree))
        posteriors_close(result, query_enumerate(net, q))

    def test_matches_oracle_random_loopy(self):
        rng = np.random.default_rng(303)
        for _ in range(20):
            net = random_loopy_net(rng, max_vars=8)
            tree = build_conditional_cutset(net)
            cut_vars = cutset_variables(tree)
            names = [v for v in net.var_names if v not in cut_vars]
            target = names[int(rng.integers(len(names)))]
            ev = {
                v: ("t" if rng.random() < 0.5 else "f")
                for v in names
                if v != target and rng.random() < 0.3
            }
            q = Query(target, Context(ev))
            try:
                want = query_enumerate(net, q)
            except ImpossibleEvidenceError:
                continue
            posteriors_close(cutset_infer(net, q, tree), want)


    def test_cut_off_parent_selects_the_table(self):
        # binding X deletes X -> A and X -> C, so {A, C} is a component
        # without X whose tables still depend on X's value: its cached
        # weight must be keyed on X's binding too
        leaf = lambda p: Leaf(Distribution((p, 1.0 - p)))
        a_given_x = Node("X", (("t", leaf(0.9)), ("f", leaf(0.2))))
        c_given = lambda a, b: Node("A", (("t", leaf(a)), ("f", leaf(b))))
        net = Network(
            tuple(Variable(v, ("t", "f")) for v in "XAC"),
            (
                NodeSpec("X", (), leaf(0.4)),
                NodeSpec("A", ("X",), a_given_x),
                NodeSpec(
                    "C",
                    ("X", "A"),
                    Node("X", (("t", c_given(0.8, 0.3)), ("f", c_given(0.1, 0.65)))),
                ),
            ),
        )
        tree = flat_cutset(net, ["X"])
        for target, ev in (("C", {}), ("A", {"C": "t"}), ("X", {"C": "f"})):
            q = Query(target, Context(ev))
            posteriors_close(cutset_infer(net, q, tree), query_enumerate(net, q))

    def test_loop_closed_by_an_untested_parent(self):
        # C declares A and B but tests only B, and B depends on A: the
        # declared arc A -> C closes the only loop, which the empty context
        # already deletes, so the network is singly connected as it stands
        leaf = lambda p: Leaf(Distribution((p, 1.0 - p)))
        net = Network(
            tuple(Variable(v, ("t", "f")) for v in "ABC"),
            (
                NodeSpec("A", (), leaf(0.35)),
                NodeSpec("B", ("A",), Node("A", (("t", leaf(0.8)), ("f", leaf(0.15))))),
                NodeSpec("C", ("A", "B"), Node("B", (("t", leaf(0.6)), ("f", leaf(0.05))))),
            ),
        )
        tree = build_conditional_cutset(net)
        for target in "ABC":
            contexts = [{}] + [{v: x} for v in "ABC" if v != target for x in ("t", "f")]
            for ev in contexts:
                q = Query(target, Context(ev))
                want = query_enumerate(net, q)
                posteriors_close(solve_singly_connected(net, q), want)
                posteriors_close(cutset_infer(net, q, tree), want)

    def test_component_solved_once_per_binding_it_sees(self):
        # two disjoint loops Xi -> Ai, Bi -> Ci, each broken by binding Xi,
        # which leaves the components {Xi} and the path Ai - Ci - Bi
        leaf = lambda p: Leaf(Distribution((p, 1.0 - p)))
        on = lambda var, a, b: Node(var, (("t", leaf(a)), ("f", leaf(b))))
        variables, nodes = [], []
        for i, (px, pc) in enumerate(((0.3, 0.85), (0.55, 0.2)), start=1):
            x, a, b, c = (f"{v}{i}" for v in "XABC")
            variables += [Variable(v, ("t", "f")) for v in (x, a, b, c)]
            nodes += [
                NodeSpec(x, (), leaf(px)),
                NodeSpec(a, (x,), on(x, 0.7, 0.25)),
                NodeSpec(b, (x,), on(x, 0.4, 0.9)),
                NodeSpec(c, (a, b), Node(a, (("t", on(b, pc, 0.5)), ("f", on(b, 0.35, 0.6))))),
            ]
        net = Network(tuple(variables), tuple(nodes))
        q = Query("A1", Context({"C1": "t", "C2": "f"}))
        got = cutset_infer(net, q, flat_cutset(net, ["X1", "X2"]))
        posteriors_close(got, query_enumerate(net, q))
        assert got.evaluations == 4
        # each path is solved for the 2 values of its own Xi, by 2 messages
        # (solving it at each of the 4 leaves would take 16); {Xi} takes none
        assert got.messages_computed == 2 * 2 * 2

    def test_evidence_sweep_over_cutset_variables(self, fig1, fig2, fig3):
        # criterion 07's networks, with evidence that may bind cutset variables
        nets_rng = np.random.default_rng(20260826)
        nets = [fig1, fig2, fig3] + [random_loopy_net(nets_rng) for _ in range(20)]
        rng = np.random.default_rng(707)
        bound_cutset = 0
        for net in nets:
            tree = build_conditional_cutset(net)
            names = list(net.var_names)
            for _ in range(3):
                target = names[rng.integers(len(names))]
                ev = {}
                for name in names:
                    if name != target and rng.random() < 0.4:
                        values = net.variable(name).values
                        ev[name] = values[rng.integers(len(values))]
                bound_cutset += bool(set(ev) & cutset_variables(tree))
                q = Query(target, Context(ev))
                try:
                    want = query_enumerate(net, q)
                except ImpossibleEvidenceError:
                    with pytest.raises(ImpossibleEvidenceError):
                        cutset_infer(net, q, tree)
                    continue
                posteriors_close(cutset_infer(net, q, tree), want)
        assert bound_cutset >= 20

    def test_engines_without_messages_count_none(self, fig1):
        q = Query("Z", Context({"S": "s2"}))
        assert query_enumerate(fig1, q).messages_computed == 0
        assert variable_elimination(fig1, q).messages_computed == 0
        assert cutset_infer(fig1, q, build_conditional_cutset(fig1)).messages_computed > 0


class TestContextualIndependence:
    def test_fig1_claims(self, fig1):
        assert contextually_independent(fig1, ["X"], ["V", "W"], [], {"U": "t"})
        assert not contextually_independent(fig1, ["X"], ["V", "W"], [], {"U": "f"})

    def test_constant_cpt_is_independent(self):
        variables = (Variable("A", ("t", "f")), Variable("Z", ("t", "f")))
        leaf = lambda p: Leaf(Distribution((p, 1.0 - p)))
        z_tree = Node("A", (("t", leaf(0.4)), ("f", leaf(0.4))))
        net = Network(
            variables,
            (NodeSpec("A", (), leaf(0.7)), NodeSpec("Z", ("A",), z_tree)),
        )
        assert contextually_independent(net, ["Z"], ["A"], [], {})

    def test_disjointness_enforced(self, fig1):
        with pytest.raises(ValueError):
            contextually_independent(fig1, ["X"], ["X"], [], {})
        with pytest.raises(ValueError):
            contextually_independent(fig1, ["X"], ["V"], [], {"X": "x1"})


class TestDeterminism:
    def test_identical_runs_identical_bits(self, fig1):
        q = Query("Z", Context({"S": "s3"}))
        tree = build_conditional_cutset(fig1)
        first = cutset_infer(fig1, q, tree)
        second = cutset_infer(fig1, q, tree)
        assert first.posterior.probs == second.posterior.probs
        assert first.evidence_probability == second.evidence_probability
        third = variable_elimination(fig1, q)
        fourth = variable_elimination(fig1, q)
        assert third.posterior.probs == fourth.posterior.probs


def _outcome(engine, net, query):
    """The engine's result, or the name of the inference error it raised."""
    try:
        return engine(net, query)
    except (ImpossibleEvidenceError, NotSinglyConnectedError) as exc:
        return type(exc).__name__


class TestCompiledForm:
    """Each network compiles once, and no query changes what it compiled."""

    def test_cpt_arrays_built_once_per_family(self, monkeypatch):
        # every numeric engine, with and without evidence, reads the one
        # compiled form: no query after the first builds an array or a
        # moral graph
        built = []
        real_array, real_moral = inference.cpt_array, inference.moral_adjacency
        monkeypatch.setattr(
            inference, "cpt_array", lambda n, name: built.append(name) or real_array(n, name)
        )
        monkeypatch.setattr(
            inference, "moral_adjacency", lambda n: built.append(None) or real_moral(n)
        )
        for fig in ("fig1", "fig2", "fig3"):
            net = parse_network(serialize_network(fixtures.load(fig)))
            tree = build_conditional_cutset(net)
            engines = [
                variable_elimination,
                lambda n, q: cutset_infer(n, q, tree),
                solve_singly_connected,
            ]
            built.clear()
            names = net.var_names
            for i, target in enumerate(names):
                other = names[i - 1]
                for evidence in (Context(), Context({other: net.values(other)[0]})):
                    for engine in engines:
                        _outcome(engine, net, Query(target, evidence))
            assert built.count(None) == 1, fig
            assert sorted(v for v in built if v) == sorted(names), fig

    def test_table_trees_expanded_once_per_network(self, fig1, monkeypatch):
        # a decomposed network's multiplexers are tables; the walk reads their
        # tree form from the compiled form, built on the first query
        net, _ = decompose_network(fig1)
        tables = sum(isinstance(spec.cpt, CptTable) for spec in net.nodes)
        assert tables == 3
        tree = build_conditional_cutset(net)
        expanded = []
        real = model.table_to_tree
        monkeypatch.setattr(
            model, "table_to_tree", lambda tab, order: expanded.append(tab) or real(tab, order)
        )
        infer, names = lambda n, q: cutset_infer(n, q, tree), net.var_names
        for i in range(10):
            _outcome(infer, net, Query(names[i % len(names)], Context()))
            assert len(expanded) == tables, i

    def test_repeated_cutset_query_reduces_no_tree(self, fig1, monkeypatch):
        # instantiated families are memoized on the network, so a query it
        # has served before finds every family it instantiates there
        reduced = []
        real = inference.reduce_tree
        monkeypatch.setattr(
            inference, "reduce_tree", lambda tree, ctx: reduced.append(ctx) or real(tree, ctx)
        )
        decomposed, _ = decompose_network(fig1)
        cases = [(decomposed, [Query(v, Context()) for v in fig1.var_names])]
        for fig in ("fig1", "fig2", "fig3"):
            net = parse_network(serialize_network(fixtures.load(fig)))
            names = net.var_names
            cases.append(
                (net, [Query(v, Context({u: net.values(u)[0]})) for u, v in zip(names, names[1:])])
            )
        for net, queries in cases:
            tree = build_conditional_cutset(net)
            infer = lambda n, q: cutset_infer(n, q, tree)
            for query in queries:
                _outcome(infer, net, query)
            assert reduced
            reduced.clear()
            for query in queries:
                _outcome(infer, net, query)
            assert not reduced

    def test_cached_arrays_are_read_only(self, fig1):
        net = parse_network(serialize_network(fig1))
        variable_elimination(net, Query("Z", Context()))
        tables = _compile(net)[3]
        assert len(tables) == len(net.var_names)
        assert not any(table.flags.writeable for table in tables)
        with pytest.raises(ValueError):
            tables[0][...] = 0.0

    @pytest.mark.parametrize("fig", ["fig1", "fig2", "fig3"])
    def test_interleaved_engines_match_a_fresh_copy(self, fig):
        text = serialize_network(fixtures.load(fig))
        net = parse_network(text)
        tree = build_conditional_cutset(net)
        engines = [
            lambda n, q: cutset_infer(n, q, tree),
            solve_singly_connected,
            variable_elimination,
        ]
        names = net.var_names
        for i, target in enumerate(names):
            other = names[i - 1]
            for evidence in (Context(), Context({other: net.values(other)[-1]})):
                query = Query(target, evidence)
                for engine in engines:
                    fresh = parse_network(text)
                    assert _outcome(engine, net, query) == _outcome(engine, fresh, query)
        cached, rebuilt = _compile(net), _compile(parse_network(text))
        assert cached[:3] == rebuilt[:3] and cached[4] == rebuilt[4]
        for table, expected in zip(cached[3], rebuilt[3]):
            assert table.tobytes() == expected.tobytes()


def test_no_reference_cycles(fig1, fig2, fig3):
    """Parsing, vacuity, cutset building and every engine free their objects
    by reference counting alone, a network holding its compiled form too: the
    cyclic collector finds nothing."""
    nets = [fig1, fig2, fig3]
    # json's pure-Python encoder behind indent=2 makes cycles of its own
    texts = [serialize_network(net) for net in nets]
    queries = [
        Query(net.var_names[-1], Context({net.var_names[0]: net.values(net.var_names[0])[0]}))
        for net in nets
    ]
    polytree = []
    for net, q in zip(nets, queries):
        try:
            solve_singly_connected(net, q)
            polytree.append(True)
        except NotSinglyConnectedError:
            polytree.append(False)
    assert polytree == [False, True, True]
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        for net, text, q, singly in zip(nets, texts, queries, polytree):
            variable_elimination(parse_network(text), q)
            for name in net.var_names:
                vacuous_parents(net, name, Context())
            tree = build_conditional_cutset(net)
            query_enumerate(net, q)
            variable_elimination(net, q)
            cutset_infer(net, q, tree)
            if singly:
                solve_singly_connected(net, q)
        gc.collect()
        garbage = [type(obj).__name__ for obj in gc.garbage]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    assert garbage == []
