"""Inference engines: oracle, elimination, forest solver, cutset loop."""

import dataclasses
import gc
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import csibn as cb
from csibn import csi, fixtures, graphs, inference, model, transform
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
from csibn.transform import clique_report, decompose_network, triangulation

from conftest import (
    all_assignments,
    chain_net,
    contextually_independent,
    deterministic_diamond_net,
    diamond_net,
    random_loopy_net,
    random_polytree_net,
    random_tree_net,
    windowed_net,
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


def two_loops_net() -> Network:
    """Two disjoint loops Xi -> Ai, Bi -> Ci, each broken by binding Xi,
    which leaves the components {Xi} and the path Ai - Ci - Bi."""
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
    return Network(tuple(variables), tuple(nodes))


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
        ve = variable_elimination(net, q)
        for result in (
            ve,
            solve_singly_connected(net, q),
            cutset_infer(net, q, flat_cutset(net, [names[-1]])),
        ):
            assert result.posterior.probs == pytest.approx((0.01, 0.99), rel=1e-12)
            assert result.log_evidence_probability == pytest.approx(want, rel=1e-9)
        # the unscaled pass underflows, and the pass is sent again rescaled
        assert ve.stats["rescaled_passes"] == 1

    def test_many_factors_in_one_bucket(self):
        # C -> F0..F199: the clique tree is a star of {F_i, C} cliques, and
        # the one C joins receives 199 messages, more than one einsum takes;
        # 199 are observed at P(t | C) of 0.01 or 0.02, whose product (below
        # 1e-337) underflows unless it is rescaled part by part
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
        steps = max(net._clique_tree.plans.values(), key=len)
        assert len(steps) == 7 and all(n <= inference._MAX_OPERANDS for _, n in steps)
        assert got.stats["rescaled_passes"] == 1

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

    def test_repeated_query_computes_no_evidence_free_message_twice(self, monkeypatch):
        # an evidence-free message is sent without evidence; each is kept,
        # so no edge sends one twice, and a query asked again computes only
        # the messages the evidence reaches
        net = windowed_net(np.random.default_rng(3), 60)
        names = net.var_names
        rng = np.random.default_rng(4)
        queries = []
        for _ in range(12):
            target = names[int(rng.integers(len(names)))]
            ev = {v: "t" for v in names if v != target and rng.random() < 0.1}
            queries.append(Query(target, Context(ev)))
        sent = []
        real = inference._CliqueTree.send

        def send(tree, a, skip, out, evidence, incoming):
            sent.append((a, skip, not evidence))
            return real(tree, a, skip, out, evidence, incoming)

        monkeypatch.setattr(inference._CliqueTree, "send", send)
        first = [variable_elimination(net, q) for q in queries]
        counters = [(r.stats["computed_messages"], r.stats["cached_messages"]) for r in first]
        assert counters == [
            (37, 6), (32, 12), (33, 13), (30, 11), (24, 9), (32, 12),
            (28, 8), (23, 9), (25, 9), (29, 13), (23, 10), (23, 11),
        ]
        kept = [(a, skip) for a, skip, evidence_free in sent if evidence_free]
        assert kept and len(kept) == len(set(kept))
        for q, before in zip(queries, first):
            sent.clear()
            again = variable_elimination(net, q)
            assert again == before
            assert not any(evidence_free for _, _, evidence_free in sent)
            edges = sum(skip >= 0 for _, skip, _ in sent)
            assert again.stats["computed_messages"] == edges
            assert again.stats["cached_messages"] >= before.stats["cached_messages"]

    def test_nearby_evidence_computes_only_its_path(self, monkeypatch):
        # once the target's messages are kept, evidence two variables away
        # costs the messages on the tree path from its home to the clique of
        # the target's family, whatever the network's size
        net = windowed_net(np.random.default_rng(8), 200)
        for target, observed in (("V100", "V102"), ("V150", "V149"), ("V10", "V12")):
            variable_elimination(net, Query(target, Context()))
            tree = net._clique_tree
            index = {v: i for i, v in enumerate(net.var_names)}
            a, b = tree.home[index[observed]], tree.owner[index[target]]
            path = tree.region(b, [a])
            sent = []
            real = inference._CliqueTree.send
            monkeypatch.setattr(
                inference._CliqueTree,
                "send",
                lambda t, node, skip, *args: sent.append(node) or real(t, node, skip, *args),
            )
            q = Query(target, Context({observed: "f"}))
            result = variable_elimination(net, q)
            monkeypatch.undo()
            assert sorted(sent) == sorted(path)
            assert result.stats["computed_messages"] == len(path) - 1 < 10
            fresh = variable_elimination(parse_network(serialize_network(net)), q)
            assert result == fresh

    def test_target_eliminated_first_by_min_fill_stays_inside_a_clique(self):
        # V0 -> V1 -> V2 -> V3: min-fill eliminates V0 first.  Eliminating
        # V1, V2 in that order and keeping V0 for last would multiply
        # P(V1 | V0) and P(V2 | V1) over {V0, V1, V2}, 8 entries; the clique
        # tree's messages stay inside the triangulation's 2-variable cliques
        net = binary_chain(4, stay=0.8, leave=0.3)
        assert clique_report(net).elimination_order == ("V0", "V1", "V2", "V3")
        q = Query("V0", Context({"V3": "t"}))
        result = variable_elimination(net, q)
        posteriors_close(result, query_enumerate(net, q))
        assert result.stats["largest_factor"] == 4
        assert result.stats["induced_width"] == 1

    def test_largest_factor_bounded_by_the_cached_cliques(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            net = random_loopy_net(rng)
            cap = max(
                math.prod(len(net.values(v)) for v in clique)
                for clique in clique_report(net).cliques
            )
            names = list(net.var_names)
            for target in names:
                ev = {v: str(rng.choice(("t", "f"))) for v in names if rng.random() < 0.3}
                ev.pop(target, None)
                q = Query(target, Context(ev))
                try:
                    result = variable_elimination(net, q)
                except ImpossibleEvidenceError:
                    continue
                posteriors_close(result, query_enumerate(net, q))
                assert result.stats["largest_factor"] <= cap, (names, q)

    def test_plans_kept_once_per_directed_edge_and_root(self):
        # the subscripts are keyed on the edge, or a root's on its node, and
        # the evidence is deleted from them at call time; plans keyed on
        # which variables are observed would grow with every fresh pattern
        net = windowed_net(np.random.default_rng(5), 80)
        names = net.var_names
        rng = np.random.default_rng(6)

        def ask(k):
            for i in range(k):
                target = names[i % len(names)]
                ev = {v: str(rng.choice(("t", "f"))) for v in names if rng.random() < 0.15}
                ev.pop(target, None)
                variable_elimination(net, Query(target, Context(ev)))

        ask(200)
        tree = net._clique_tree
        plans = len(tree.plans)
        # seps holds each edge once per direction
        assert plans <= len(tree.seps) + len(tree.cliques)
        ask(200)
        assert len(tree.plans) == plans

    def test_every_clique_variable_held_by_a_family_there_or_two_neighbors(self, fig1, fig3):
        # so a message's operands hold every variable it sums over or onto,
        # whichever neighbor it goes to, and no all-ones operand is needed
        rng = np.random.default_rng(23)
        nets = [fig1, fig3, decompose_network(fig1)[0], windowed_net(rng, 300)]
        nets += [random_loopy_net(rng) for _ in range(40)]
        for net in nets:
            variable_elimination(net, Query(net.var_names[0], Context()))
            tree = net._clique_tree
            for a, clique in enumerate(tree.cliques):
                for v in clique:
                    holders = sum(v in tree.seps[a, c] for c in tree.near[a])
                    assert holders >= 2 or any(v in f for f in tree.families[a])

    @staticmethod
    def _small_net():
        net = windowed_net(np.random.default_rng(2), 12)
        variable_elimination(net, Query(net.var_names[0], Context()))
        index = {v: i for i, v in enumerate(net.var_names)}
        return net, net._clique_tree, index

    def test_family_sliced_to_a_scalar(self):
        # every variable of the target's clique but the target is observed,
        # so a family there that leaves the target out slices to a 0-d operand
        net, tree, index = self._small_net()
        names, asked = net.var_names, 0
        for target in names:
            root = tree.owner[index[target]]
            if all(index[target] in vs for vs in tree.families[root]):
                continue
            for bits in range(4):
                ev = {
                    names[v]: ("t", "f")[(bits >> k) & 1]
                    for k, v in enumerate(v for v in tree.cliques[root] if names[v] != target)
                }
                q = Query(target, Context(ev))
                posteriors_close(variable_elimination(net, q), query_enumerate(net, q))
                asked += 1
        assert asked

    def test_evidence_only_in_another_component(self):
        # the second loop's evidence is collected to its own root onto no
        # variable at all; the first loop's messages take none
        net = two_loops_net()
        for target in ("X1", "A1", "C1"):
            for ev in ({"C2": "t"}, {"X2": "f", "A2": "t", "B2": "t", "C2": "f"}):
                q = Query(target, Context(ev))
                posteriors_close(variable_elimination(net, q), query_enumerate(net, q))
        tree = net._clique_tree
        index = {v: i for i, v in enumerate(net.var_names)}
        assert tree.root[tree.home[index["C2"]]] != tree.root[tree.owner[index["X1"]]]

    def test_evidence_whose_family_sits_away_from_its_home(self):
        net, tree, index = self._small_net()
        names = net.var_names
        away = [v for v in names if tree.owner[index[v]] != tree.home[index[v]]]
        assert away
        for observed in away:
            for target in (names[0], names[6], names[-1]):
                if target != observed:
                    for value in ("t", "f"):
                        q = Query(target, Context({observed: value}))
                        posteriors_close(variable_elimination(net, q), query_enumerate(net, q))

    def test_path_above_the_target_sends_down(self, fig1, monkeypatch):
        # evidence homed above the target's clique on its path to the tree's
        # root: that path sends top-down, from the evidence's home to the
        # target's clique, each node taking the message from its ``up``
        net = windowed_net(np.random.default_rng(8), 40)
        variable_elimination(net, Query("V0", Context()))
        tree = net._clique_tree
        index = {v: i for i, v in enumerate(net.var_names)}

        def depth_above(target, observed):
            a, steps = tree.owner[index[target]], 0
            while a != tree.home[index[observed]]:
                if a < 0:
                    return -1
                a, steps = tree.up[a], steps + 1
            return steps

        pairs = [(t, o) for t in net.var_names for o in net.var_names if t != o]
        target, observed = max(pairs, key=lambda pair: depth_above(*pair))
        assert depth_above(target, observed) >= 3
        sent = []
        real = inference._CliqueTree.send
        monkeypatch.setattr(
            inference._CliqueTree,
            "send",
            lambda t, a, skip, *args: sent.append((a, skip)) or real(t, a, skip, *args),
        )
        cases = [(net, target, observed, value) for value in ("t", "f")]
        # fig1's tree is SUVW -> UVWX -> WXZ, the last its root
        cases += [(fig1, t, e, fig1.values(e)[0]) for t, e in (("S", "Z"), ("U", "X"), ("W", "Z"))]
        for net, target, observed, value in cases:
            sent.clear()
            q = Query(target, Context({observed: value}))
            got = variable_elimination(net, q)
            if net is fig1:
                want, down = query_enumerate(net, q), 1
            else:
                want, down = cutset_infer(net, q, build_conditional_cutset(net)), 3
            assert np.abs(np.subtract(got.posterior.probs, want.posterior.probs)).max() <= 1e-12
            assert got.evidence_probability == pytest.approx(want.evidence_probability, rel=1e-12)
            tree = net._clique_tree
            assert sum(skip >= 0 and tree.up[skip] == a for a, skip in sent) >= down

    def test_clique_over_the_budget_refused_before_any_einsum(self, fig1, monkeypatch):
        sizes = inference._CliqueTree(fig1).sizes
        assert sorted(sizes) == [16, 32, 40]
        einsums = []
        real = np.einsum
        monkeypatch.setattr(np, "einsum", lambda *args: einsums.append(args) or real(*args))
        q = Query("Z", Context({"S": fig1.values("S")[0]}))
        monkeypatch.setattr(inference, "_MAX_CLIQUE_ENTRIES", 15)
        net = fixtures.load("fig1")
        with pytest.raises(cb.FactorTooLargeError, match="entries exceeds the budget of 15$"):
            variable_elimination(net, q)
        assert einsums == [] and net._clique_tree.messages == {}
        # the largest clique on the query's paths is 40 entries
        monkeypatch.setattr(inference, "_MAX_CLIQUE_ENTRIES", 39)
        with pytest.raises(cb.FactorTooLargeError, match="a clique of 40 entries"):
            variable_elimination(net, q)
        monkeypatch.setattr(inference, "_MAX_CLIQUE_ENTRIES", 40)
        assert variable_elimination(net, q) == variable_elimination(fixtures.load("fig1"), q)

    def test_clique_over_the_budget_refused_before_the_first_send(self, fig1, monkeypatch):
        # fig1's tree is SUVW (40 entries) -> UVWX (32) -> WXZ (16), WXZ its
        # root.  Given Z, P(S) sends WXZ, then UVWX, then SUVW's root product;
        # P(Z) sends only WXZ's, but keeps the messages out of UVWX and SUVW
        einsums = []
        real = np.einsum
        monkeypatch.setattr(np, "einsum", lambda *args: einsums.append(args) or real(*args))
        monkeypatch.setattr(inference, "_MAX_CLIQUE_ENTRIES", 39)
        for target, evidence in (("S", {"Z": fig1.values("Z")[0]}), ("Z", {})):
            net = fixtures.load("fig1")
            with pytest.raises(cb.FactorTooLargeError, match="a clique of 40 entries"):
                variable_elimination(net, Query(target, Context(evidence)))
            assert einsums == [] and net._clique_tree.messages == {}
        monkeypatch.setattr(inference, "_MAX_CLIQUE_ENTRIES", 40)
        sent = []
        real_send = inference._CliqueTree.send
        monkeypatch.setattr(
            inference._CliqueTree,
            "send",
            lambda t, a, skip, *args: sent.append(t.sizes[a]) or real_send(t, a, skip, *args),
        )
        variable_elimination(net, Query("S", Context({"Z": fig1.values("Z")[0]})))
        assert sent == [16, 32, 40]

    @staticmethod
    def _near_floor(evidence: int, unlikely: float | None) -> tuple:
        # V0 -> ... -> V159 with P(t | t) = 0.01: evidence t on V6..V(5 +
        # evidence) asked about V5, whose ancestors send kept messages; with
        # ``unlikely``, V5 has an observed child Y, P(Y=t | V5=f) = unlikely
        net = binary_chain(160, stay=0.01, leave=0.6)
        observed = {v: "t" for v in net.var_names[6 : 6 + evidence]}
        if unlikely is not None:
            leaf = lambda p: Leaf(Distribution((p, 1.0 - p)))
            y = NodeSpec("Y", ("V5",), Node("V5", (("t", leaf(0.5)), ("f", leaf(unlikely)))))
            net = Network(net.variables + (Variable("Y", ("t", "f")),), net.nodes + (y,))
            observed["Y"] = "t"
        return net, Query("V5", Context(observed))

    @pytest.mark.parametrize(
        "evidence, unlikely, log2_joints, rescaled",
        [
            (135, None, (-898.36, -891.68), 0),  # every joint above 2**-900
            (136, None, (-905.00, -898.32), 1),  # P(e) above, P(V5=t, e) below
            (137, None, (-911.65, -904.96), 1),  # P(e) below
            # P(e) far above, but P(V5=f, e) below the least normal float
            (130, 1e-70, (-866.14, -1090.99), 1),
        ],
    )
    def test_evidence_probability_near_the_floor(
        self, evidence, unlikely, log2_joints, rescaled, monkeypatch
    ):
        net, q = self._near_floor(evidence, unlikely)
        got = variable_elimination(net, q)
        log2 = got.log_evidence_probability / math.log(2.0)
        joints = [log2 + math.log2(p) for p in got.posterior.probs]
        assert joints == pytest.approx(log2_joints, abs=0.01)
        assert got.stats["rescaled_passes"] == rescaled
        assert all(shift <= 0 for _, shift in net._clique_tree.messages.values())
        checks = [cutset_infer(net, q, build_conditional_cutset(net))]
        monkeypatch.setattr(inference, "_UNSCALED_FLOOR", math.inf)
        always = variable_elimination(self._near_floor(evidence, unlikely)[0], q)
        assert always.stats["rescaled_passes"] == 1
        for want in [always, *checks]:
            # relative, so a joint that flushed to 0 or a subnormal fails
            np.testing.assert_allclose(got.posterior.probs, want.posterior.probs, rtol=1e-12)
            assert got.evidence_probability == pytest.approx(want.evidence_probability, rel=1e-12)

    def test_kept_messages_never_scaled_down(self):
        # a kept message whose largest entry is 1 or more keeps its exponent
        # at most 0, so no value the unscaled pass computes is below its true
        # value times the pass's power of two
        net = windowed_net(np.random.default_rng(0), 60)
        for target in net.var_names:
            result = variable_elimination(net, Query(target, Context()))
            assert result.stats["rescaled_passes"] == 0
        kept = net._clique_tree.messages.values()
        assert all(shift <= 0 for _, shift in kept)
        assert any(vec.max() > 1.0 for vec, _ in kept)


# VE's counters for each target, given the first value of the last variable
# (none when it is the target): the largest clique on the paths from the
# evidence to the clique of the target's family, and its variables less one.
# fig1's clique tree is SUVW - UVWX - WXZ, and S, U, V and W have their
# families in SUVW; fig2 and fig3 are one clique each
PINNED_STATS = {
    "fig1": {"S": (40, 3), "U": (40, 3), "V": (40, 3), "W": (40, 3), "X": (32, 3), "Z": (16, 2)},
    "fig2": dict.fromkeys(("A", "B", "C", "D", "X"), (32, 4)),
    "fig3": dict.fromkeys(("A", "B1", "B2", "B3", "B4", "X"), (64, 5)),
}


# VE's counters (largest_factor, induced_width, computed_messages,
# cached_messages) for each target given one other variable at its first
# value, each query on a freshly loaded network.  In fig1's tree SUVW ->
# UVWX -> WXZ (WXZ the root), evidence homed at WXZ (W, X, Z) on a target
# whose family is in SUVW (S, U, V, W) sends down the whole path
PINNED_PAIRS = {
    "fig1": {
        "S": {
            "U": (40, 3, 1, 1), "V": (40, 3, 1, 1), "W": (40, 3, 2, 0),
            "X": (40, 3, 2, 0), "Z": (40, 3, 2, 0),
        },
        "U": {
            "S": (40, 3, 0, 1), "V": (40, 3, 1, 1), "W": (40, 3, 2, 0),
            "X": (40, 3, 2, 0), "Z": (40, 3, 2, 0),
        },
        "V": {
            "S": (40, 3, 0, 1), "U": (40, 3, 1, 1), "W": (40, 3, 2, 0),
            "X": (40, 3, 2, 0), "Z": (40, 3, 2, 0),
        },
        "W": {
            "S": (40, 3, 0, 1), "U": (40, 3, 1, 1), "V": (40, 3, 1, 1),
            "X": (40, 3, 2, 0), "Z": (40, 3, 2, 0),
        },
        "X": {
            "S": (40, 3, 1, 1), "U": (32, 3, 1, 1), "V": (32, 3, 1, 1),
            "W": (32, 3, 2, 0), "Z": (32, 3, 2, 0),
        },
        "Z": {
            "S": (40, 3, 2, 0), "U": (32, 3, 2, 0), "V": (32, 3, 2, 0),
            "W": (16, 2, 2, 0), "X": (16, 2, 2, 0),
        },
    },
    "fig2": {t: {e: (32, 4, 0, 0) for e in "ABCDX" if e != t} for t in "ABCDX"},
    "fig3": {
        t: {e: (64, 5, 0, 0) for e in ("A", "B1", "B2", "B3", "B4", "X") if e != t}
        for t in ("A", "B1", "B2", "B3", "B4", "X")
    },
}
VE_COUNTERS = ("largest_factor", "induced_width", "computed_messages", "cached_messages")


# the cutset walk's counters (subtree_sums, component_weights, partitions,
# visits) for the same queries; fig2 and fig3 get the empty
# cutset.  fig1's tree is U -> {t}: leaf, {f}: V={t,f} -> W={t,f} -> leaf:
# one batch each for V's and W's values makes 5 visits (9 unbatched)
PINNED_WALK = {
    "fig1": dict.fromkeys(("S", "U", "V", "W", "X", "Z"), (4, 9, 5, 5)),
    "fig2": dict.fromkeys(("A", "B", "C", "D", "X"), (0, 1, 1, 1)),
    "fig3": dict.fromkeys(("A", "B1", "B2", "B3", "B4", "X"), (0, 1, 1, 1)),
}
WALK_COUNTERS = ("subtree_sums", "component_weights", "partitions", "visits")


class TestStats:
    @pytest.mark.parametrize("fig", sorted(PINNED_WALK))
    def test_walk_counters_pinned(self, fig):
        net = fixtures.load(fig)
        tree = build_conditional_cutset(net)
        last = net.var_names[-1]
        got = {}
        for target in net.var_names:
            q = Query(target, Context({last: net.values(last)[0]} if target != last else {}))
            stats = cutset_infer(net, q, tree).stats
            got[target] = tuple(stats[k] for k in WALK_COUNTERS)
            if tree is EMPTY:
                assert solve_singly_connected(net, q).stats == stats
        assert got == PINNED_WALK[fig]

    def test_one_component_search_per_batch_bound(self):
        # one search for the evidence, then one per batch bound on a variable
        # with children; the messages and memo sizes pin the batching too
        net = windowed_net(np.random.default_rng(1), 30)
        tree = build_conditional_cutset(net)
        pinned = [
            ({"V0": "t"}, 302, (187, 116, 87, 87)),
            ({"V0": "t", "V12": "f"}, 174, (139, 89, 55, 61)),
            ({"V9": "t"}, 166, (165, 87, 79, 85)),
        ]
        for evidence, messages, counters in pinned:
            q = Query("V29", Context(evidence))
            result = cutset_infer(net, q, tree)
            posteriors_close(result, variable_elimination(net, q))
            assert result.evaluations == 288
            assert result.messages_computed == messages
            assert tuple(result.stats[k] for k in WALK_COUNTERS) == counters

    @pytest.mark.parametrize("fig", sorted(PINNED_STATS))
    def test_elimination_counters_pinned(self, fig):
        net = fixtures.load(fig)
        last = net.var_names[-1]
        got = {}
        for target in net.var_names:
            evidence = Context({last: net.values(last)[0]} if target != last else {})
            stats = variable_elimination(net, Query(target, evidence)).stats
            got[target] = (stats["largest_factor"], stats["induced_width"])
        assert got == PINNED_STATS[fig]

    @pytest.mark.parametrize("fig", sorted(PINNED_PAIRS))
    def test_elimination_counters_pinned_for_each_evidence_variable(self, fig):
        names = fixtures.load(fig).var_names
        got = {}
        for target in names:
            for observed in names:
                if observed != target:
                    net = fixtures.load(fig)
                    q = Query(target, Context({observed: net.values(observed)[0]}))
                    stats = variable_elimination(net, q).stats
                    got.setdefault(target, {})[observed] = tuple(stats[k] for k in VE_COUNTERS)
                    assert stats["rescaled_passes"] == 0
        assert got == PINNED_PAIRS[fig]

    def test_read_only_empty_elsewhere_and_not_compared(self, fig1):
        q = Query("Z", Context({"S": "s2"}))
        ve = variable_elimination(fig1, q)
        with pytest.raises(TypeError):
            ve.stats["largest_factor"] = 0
        cutset = cutset_infer(fig1, q, build_conditional_cutset(fig1))
        assert dict(query_enumerate(fig1, q).stats) == {}
        assert sorted(cutset.stats) == sorted(WALK_COUNTERS)
        with pytest.raises(TypeError):
            cutset.stats["partitions"] = 0
        assert dataclasses.replace(ve, stats={}) == ve
        assert dataclasses.replace(cutset, stats={}) == cutset


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

    @pytest.mark.parametrize("arcs", ["missing", "duplicate", "tested-twice", "unknown-test"])
    def test_malformed_tree_rejected(self, fig1, arcs):
        # without the root's ={f} arc the walk returned (0.5833, 0.4167)
        # with P(e) = 0.61; with it twice, P(e) = 1.61.  With V tested again
        # under V={t,f}, one batch held both values of V and it returned
        # (0.5570, 0.4430) with P(e) = 0.9795.  A test of a variable the
        # network lacks raised a bare KeyError
        auto = build_conditional_cutset(fig1)
        (t_arc, f_arc) = auto.arcs
        if arcs == "unknown-test":
            broken = CutsetNode("Q", ((("t", "f"), EMPTY),))
            message = "'Q' tests no variable of the network"
        elif arcs == "tested-twice":
            (v_values, w_node), = f_arc[1].arcs
            again = CutsetNode("V", ((("t",), w_node), (("f",), w_node)))
            v_node = CutsetNode("V", ((v_values, again),))
            broken = CutsetNode(auto.test, (t_arc, (f_arc[0], v_node)))
            message = "tested again"
        else:
            broken = CutsetNode(auto.test, (t_arc,) if arcs == "missing" else (t_arc, f_arc, f_arc))
            message = "not for each of"
        with pytest.raises(ValueError, match=message):
            cutset_infer(fig1, Query("Z", Context()), broken)

    def test_tree_parts_kept_for_the_last_tree_only(self, fig1):
        # the network keeps a tree's below-sets, arc check and branch count
        # for the last tree queried: each other tree is checked and counted
        # afresh, and a rejected one leaves the kept parts as they were
        auto = build_conditional_cutset(fig1)
        flat = flat_cutset(fig1, ["U", "V", "W"])
        broken = CutsetNode(auto.test, auto.arcs[:1])
        q = Query("Z", Context())
        for tree, evaluations in ((auto, 5), (flat, 8), (auto, 5)):
            assert cutset_infer(fig1, q, tree).evaluations == evaluations
            with pytest.raises(ValueError, match="not for each of"):
                cutset_infer(fig1, q, broken)
            assert fig1._cutset_walk[0] is tree

    def test_equal_subtrees_answer_alike_shared_or_not(self):
        # V0, V1 -> V2 -> V3 over the flat cutset V2, V3, asked about V2: when
        # V2's arcs share their V3 node, V2's values reach it as one batch and
        # V2's component is solved once, stacked for both, which rounds unlike
        # two solves of one member each; two equal V3 nodes batch the same
        leaf = lambda p: Leaf(Distribution((p, round(1.0 - p, 1))))
        v2_given_v0 = Node("V0", (("t", leaf(0.5)), ("f", leaf(0.1))))
        nodes = (
            NodeSpec("V0", (), leaf(0.3)),
            NodeSpec("V1", (), leaf(0.4)),
            NodeSpec("V2", ("V0", "V1"), Node("V1", (("t", leaf(0.6)), ("f", v2_given_v0)))),
            NodeSpec("V3", ("V2",), Node("V2", (("t", leaf(0.1)), ("f", leaf(0.8))))),
        )
        names = ("V0", "V1", "V2", "V3")
        net = Network(tuple(Variable(v, ("t", "f")) for v in names), nodes)
        v3 = lambda: CutsetNode("V3", ((("t",), EMPTY), (("f",), EMPTY)))
        shared = v3()
        trees = [CutsetNode("V2", ((("t",), shared), (("f",), shared)))]
        trees.append(CutsetNode("V2", ((("t",), v3()), (("f",), v3()))))
        assert trees[0] == flat_cutset(net, ["V2", "V3"])
        q = Query("V2", Context())
        got = [cutset_infer(parse_network(serialize_network(net)), q, t) for t in trees]
        assert got[0] == got[1]
        assert dict(got[0].stats) == dict(got[1].stats)
        posteriors_close(got[0], query_enumerate(net, q), tol=1e-15)

    def test_reused_subtree_sum_replays_the_one_recomputed(self):
        # two triangles A -> B, A, B -> C and X -> Y, X, Y -> Z over the flat
        # cutset A, X: C keeps B only when A is t, so A's values are two
        # batches, each reaching an X node with the same pending state.  One
        # shared X node reuses the first batch's sum; two equal X nodes
        # compute it again, in the same order, so the answers are bit for bit
        leaf = lambda p: Leaf(Distribution((p, round(1.0 - p, 2))))
        on = lambda v, a, b: Node(v, (("t", leaf(a)), ("f", leaf(b))))
        z_tree = Node("X", (("t", on("Y", 0.25, 0.5)), ("f", on("Y", 0.15, 0.65))))
        nodes = (
            NodeSpec("A", (), leaf(0.3)),
            NodeSpec("B", ("A",), on("A", 0.6, 0.2)),
            NodeSpec("C", ("A", "B"), Node("A", (("t", on("B", 0.7, 0.4)), ("f", leaf(0.9))))),
            NodeSpec("X", (), leaf(0.55)),
            NodeSpec("Y", ("X",), on("X", 0.35, 0.8)),
            NodeSpec("Z", ("X", "Y"), z_tree),
        )
        net = Network(tuple(Variable(v, ("t", "f")) for v in "ABCXYZ"), nodes)
        x = lambda: CutsetNode("X", ((("t",), EMPTY), (("f",), EMPTY)))
        trees = [flat_cutset(net, ["A", "X"]), CutsetNode("A", ((("t",), x()), (("f",), x())))]
        assert trees[0] == trees[1] and trees[1].arcs[0][1] is not trees[1].arcs[1][1]
        q = Query("Z", Context({"C": "t"}))
        got = [cutset_infer(parse_network(serialize_network(net)), q, t) for t in trees]
        assert got[0] == got[1]
        assert got[0].log_evidence_probability == got[1].log_evidence_probability
        counts = [(r.stats["subtree_sums"], r.stats["visits"]) for r in got]
        assert counts == [(2, 4), (3, 5)]
        posteriors_close(got[0], query_enumerate(net, q))

    def test_built_and_flat_trees_accepted(self, fig1):
        rng = np.random.default_rng(7)
        nets = [fig1] + [random_loopy_net(rng, max_vars=7) for _ in range(10)]
        for net in nets:
            q = Query(net.var_names[-1], Context())
            want = query_enumerate(net, q)
            built = build_conditional_cutset(net)
            flat = flat_cutset(net, sorted(cutset_variables(built)))
            for tree in (built, flat):
                posteriors_close(cutset_infer(net, q, tree), want)

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

    def test_component_solved_once_per_binding_it_sees(self, monkeypatch):
        net = two_loops_net()
        solves = []
        solve = inference._solve_component
        monkeypatch.setattr(
            inference,
            "_solve_component",
            lambda *args: solves.append(solve(*args)) or solves[-1],
        )
        q = Query("A1", Context({"C1": "t", "C2": "f"}))
        got = cutset_infer(net, q, flat_cutset(net, ["X1", "X2"]))
        posteriors_close(got, query_enumerate(net, q))
        assert got.evaluations == 4
        # each path is solved for the 2 values of its own Xi, by 2 messages
        # (solving it at each of the 4 leaves would take 16); {Xi} takes none
        assert got.messages_computed == 2 * 2 * 2
        # and both values of Xi are one batch, so each path is solved by one
        # call, with a row per value ({Xi}, without arcs, by one call of no
        # message)
        calls = sorted((len(vec), count) for vec, _, count in solves)
        assert calls == [(2, 0), (2, 0), (2, 2), (2, 2)]

    def test_subtree_sum_reused_across_branches(self, monkeypatch):
        # binding X1 leaves the X2 loop as it was, so both of X1's values
        # see one state at the X2 node: one of them descends, and X2 is bound
        # once, for its two values together
        net = two_loops_net()
        batches = []
        visit = inference._Walk.visit

        def spy(walk, tree, pending, rows):
            batches.append((getattr(tree, "test", None), len(rows)))
            return visit(walk, tree, pending, rows)

        monkeypatch.setattr(inference._Walk, "visit", spy)
        q = Query("A1", Context({"C1": "t", "C2": "f"}))
        got = cutset_infer(net, q, flat_cutset(net, ["X1", "X2"]))
        posteriors_close(got, query_enumerate(net, q))
        # unbatched: X1=t, X2=t, X2=f, X1=f, and X2 twice more without the reuse
        assert batches == [("X1", 1), ("X2", 2), (None, 2)]
        assert got.stats["visits"] == 3  # the X1 node, the X2 node and the leaf
        assert got.messages_computed == 2 * 2 * 2

    def test_batch_splits_where_kept_parents_differ(self):
        # C tests Y first, then X only under Y=t, and A unless X=t and Y=t:
        # both values of X keep C's parents (Y, A), so they are one batch at
        # the Y node, where (X=t, Y=t) drops A and the other three keep it,
        # and with it the loop A -> C, A -> D, C -> D that binding A breaks:
        # the batch splits in two, each of which visits the A node and a leaf
        leaf = lambda p: Leaf(Distribution((p, 1.0 - p)))
        on = lambda var, a, b: Node(var, (("t", leaf(a)), ("f", leaf(b))))
        c_tree = Node(
            "Y",
            (
                ("t", Node("X", (("t", leaf(0.85)), ("f", on("A", 0.3, 0.6))))),
                ("f", on("A", 0.45, 0.1)),
            ),
        )
        net = Network(
            tuple(Variable(v, ("t", "f")) for v in "XYACD"),
            (
                NodeSpec("X", (), leaf(0.35)),
                NodeSpec("Y", (), leaf(0.6)),
                NodeSpec("A", (), leaf(0.25)),
                NodeSpec("C", ("X", "Y", "A"), c_tree),
                NodeSpec(
                    "D", ("A", "C"), Node("A", (("t", on("C", 0.9, 0.2)), ("f", on("C", 0.4, 0.7))))
                ),
            ),
        )
        tree = flat_cutset(net, ["X", "Y", "A"])
        for target in "XYACD":
            for ev in ({}, {"D": "t"}, {"C": "f", "D": "t"}, {"A": "f"}):
                if target in ev:
                    continue
                q = Query(target, Context(ev))
                got = cutset_infer(net, q, tree)
                posteriors_close(got, query_enumerate(net, q))
                if not ev:
                    assert got.stats["visits"] == 6  # 4 without the split

    def test_members_stay_few_on_a_long_chain(self, monkeypatch):
        # a flat cutset over every variable of a chain has 2**300 branches;
        # each node sees only the value above it, so a batch keeps at most
        # two members, which bind the next variable to each of its values,
        # and each node is visited once.  The spy adds one frame to each of
        # the walk's 301
        net = binary_chain(300, stay=0.7, leave=0.2)
        names = net.var_names
        tree = flat_cutset(net, names)
        visit = inference._Walk.visit

        def bounded(walk, tree, pending, rows):
            assert len(rows) <= 4
            return visit(walk, tree, pending, rows)

        monkeypatch.setattr(inference._Walk, "visit", bounded)
        for q in (Query("V299", Context({"V0": "t"})), Query("V150", Context({"V299": "f"}))):
            got = cutset_infer(net, q, tree)
            want = variable_elimination(net, q)
            assert got.evaluations == 2**300
            np.testing.assert_allclose(got.posterior.probs, want.posterior.probs, atol=1e-9)
            assert got.log_evidence_probability == pytest.approx(
                want.log_evidence_probability, rel=1e-9
            )
            assert got.stats["visits"] == len(names) + 1

    def test_each_member_keeps_its_own_exponent(self):
        # two evidence chains hang off X: hidden chains A0 -> A1 -> ... and
        # B0 -> B1 -> ..., each link also a child of X, each with an
        # observed child.  Chain A's hidden variables are almost surely f
        # under X=f, where each observation is about 2**-18 as likely as
        # under X=t, and chain B the other way, so in the batch of X's two
        # values each chain's weights lie about 2**1100 apart, in opposite
        # directions.  One exponent for both members would flush one member
        # of each chain to 0, and the product of every member to 0.
        # Variable elimination shares one exponent per message over X, so the
        # reference conditions it on each value of X in turn
        leaf = lambda p: Leaf(Distribution((p, 1.0 - p)))
        n, tiny = 60, 2.0**-20
        variables, nodes = [Variable("X", ("t", "f"))], [NodeSpec("X", (), leaf(0.5))]
        for chain, likely in (("A", "t"), ("B", "f")):
            for i in range(n):
                name, above = f"{chain}{i}", f"{chain}{i - 1}"
                on = {likely: (0.95, 0.9), ("f" if likely == "t" else "t"): (2 * tiny, tiny)}
                step = {
                    x: Node(above, (("t", leaf(a)), ("f", leaf(b)))) if i else leaf(a)
                    for x, (a, b) in on.items()
                }
                variables += [Variable(name, ("t", "f")), Variable(name + "e", ("t", "f"))]
                nodes += [
                    NodeSpec(
                        name,
                        ("X", above) if i else ("X",),
                        Node("X", (("t", step["t"]), ("f", step["f"]))),
                    ),
                    NodeSpec(
                        name + "e", (name,), Node(name, (("t", leaf(0.9)), ("f", leaf(tiny))))
                    ),
                ]
        net = Network(tuple(variables), tuple(nodes))
        evidence = {spec.var: "t" for spec in nodes if spec.var.endswith("e")}
        got = cutset_infer(net, Query("X", Context(evidence)), flat_cutset(net, ["X"]))
        joint = [
            variable_elimination(net, Query("A0", Context({**evidence, "X": x})))
            .log_evidence_probability
            for x in ("t", "f")
        ]
        top = max(joint)
        total = top + math.log(sum(math.exp(j - top) for j in joint))
        want = tuple(math.exp(j - total) for j in joint)
        np.testing.assert_allclose(got.posterior.probs, want, atol=1e-9)
        assert got.log_evidence_probability == pytest.approx(total, rel=1e-9)
        assert total < -1100 * math.log(2)

    @pytest.mark.parametrize("x1_values", [("t", "f"), ("f", "t")])
    def test_reused_subtree_sum_never_hides_a_cycle(self, x1_values):
        # D tests X1 first, then B under X1=t and B and C under X1=f, so only
        # X1=t breaks the loop A -> B, A -> C, {B, C} -> D; beside it, X2
        # breaks a loop of its own.  The X2 node sees the same components
        # under both values of X1, so only the count of cycles left keeps
        # its sum under X1=t from standing in for the cyclic X1=f branch,
        # whichever of X1's values is declared first.
        leaf = lambda p: Leaf(Distribution((p, 1.0 - p)))
        on = lambda var, a, b: Node(var, (("t", leaf(a)), ("f", leaf(b))))
        d_given_x1 = {
            "t": on("B", 0.9, 0.3),
            "f": Node("B", (("t", on("C", 0.5, 0.1)), ("f", on("C", 0.75, 0.25)))),
        }
        loops = two_loops_net()
        second = [spec for spec in loops.nodes if spec.var.endswith("2")]
        net = Network(
            tuple(Variable(v, ("t", "f")) for v in "ABCD")
            + (Variable("X1", x1_values),)
            + tuple(v for v in loops.variables if v.name.endswith("2")),
            (
                NodeSpec("A", (), leaf(0.45)),
                NodeSpec("B", ("A",), on("A", 0.7, 0.2)),
                NodeSpec("C", ("A",), on("A", 0.35, 0.8)),
                NodeSpec("X1", (), Leaf(Distribution((0.6, 0.4)))),
                NodeSpec(
                    "D",
                    ("B", "C", "X1"),
                    Node("X1", tuple((v, d_given_x1[v]) for v in x1_values)),
                ),
            )
            + tuple(second),
        )
        with pytest.raises(NotSinglyConnectedError):
            cutset_infer(net, Query("A2", Context()), flat_cutset(net, ["X1", "X2"]))

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


def _worth(term) -> list:
    """A scaled term's entries, exactly, one for a scalar; None is [0]."""
    if term is None:
        return [Fraction(0)]
    value, exponent = term
    return [Fraction(v) * Fraction(2) ** exponent for v in _listed(value)]


def _listed(value) -> list:
    return value if isinstance(value, list) else [value]


# values 2^-60 to 2^60, or 0, at exponents far beyond the float range
_VALUES = st.one_of(st.just(0.0), st.floats(2.0**-60, 2.0**60))
_EXPONENTS = st.integers(-3000, 3000)
_SCALARS = st.one_of(st.none(), st.tuples(_VALUES, _EXPONENTS))
_VECTORS = st.one_of(st.none(), st.tuples(st.lists(_VALUES, min_size=3, max_size=3), _EXPONENTS))


class TestScaledTerms:
    """The cutset walk's scaled-term product and sum against exact
    arithmetic: one rounding per entry, and for a sum the flush of a term
    more than 1,074 binary places below the other."""

    @settings(max_examples=300, deadline=None)
    @given(_SCALARS, st.one_of(_SCALARS, _VECTORS))
    @example((0.5, 3), ([0.5, 0.0, 0.75], -2))  # a list times a scalar
    @example((0.0, 7), ([0.5, 0.25, 1.0], 4))  # a zero value is zero
    @example((0.75, 1), ([0.0, 0.0, 0.0], 9))
    @example(None, ([0.5, 0.25, 1.0], 4))
    def test_product_is_exact_to_one_rounding(self, a, b):
        got = inference._times(a, b)
        assert got == inference._times(b, a)
        (scale,), want = _worth(a), _worth(b)
        want = [scale * w for w in want]
        if not any(want):
            assert got is None
            return
        value, exponent = got
        assert isinstance(value, list) == (b is not None and isinstance(b[0], list))
        assert 0.5 <= max(_listed(value)) < 1.0
        for entry, exact in zip(_listed(value), want):
            error = abs(Fraction(entry) * Fraction(2) ** exponent - exact)
            assert error <= exact * Fraction(2) ** -53

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(st.tuples(_SCALARS, _SCALARS), st.tuples(_VECTORS, _VECTORS)))
    @example(((0.5, 0), (0.75, -1100)))  # a gap beyond 1,074: the smaller term is 0
    @example((([0.5, 0.25, 0.0], 10), ([1.0, 0.5, 0.75], -1070)))
    @example(((0.0, 5), (0.75, -2000)))
    @example((None, None))
    def test_sum_is_exact_to_one_rounding_and_the_flush(self, pair):
        a, b = pair
        got = inference._plus(a, b)
        assert got == inference._plus(b, a)
        if a is None or b is None:
            assert got == (b if a is None else a)
            return
        value, exponent = got
        assert exponent == max(a[1], b[1])
        unit = Fraction(2) ** exponent
        for entry, x, y in zip(_listed(value), _worth(a), _worth(b)):
            # one rounding of the sum, and the smaller term's, at worst half
            # the least subnormal, 2^-1074, at the larger term's exponent
            error = abs(Fraction(entry) * unit - (x + y))
            assert error <= (x + y) * Fraction(2) ** -52 + unit * Fraction(2) ** -1074

    def test_gap_beyond_the_float_range_flushes_the_smaller_term(self):
        assert inference._plus((0.5, 0), (0.75, -1100)) == (0.5, 0)
        assert inference._plus((0.75, -1100), (0.5, 0)) == (0.5, 0)
        got = inference._plus(([0.5, 0.25], 10), ([1.0, 0.5], 10 - 1076))
        assert got == ([0.5, 0.25], 10)
        # within the range the smaller term survives as a subnormal
        assert inference._plus((0.0, 0), (0.5, -1070)) == (math.ldexp(0.5, -1070), 0)


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
        real_array, real_moral = inference.cpt_array, transform.moral_graph
        monkeypatch.setattr(
            inference, "cpt_array", lambda n, name: built.append(name) or real_array(n, name)
        )
        monkeypatch.setattr(
            transform, "moral_graph", lambda n: built.append(None) or real_moral(n)
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

    def test_triangulated_once_per_network(self, monkeypatch):
        # the elimination order comes from one min-fill run over the whole
        # moral graph, whatever the target and the evidence
        ordered = []
        real = graphs.min_fill_order
        monkeypatch.setattr(graphs, "min_fill_order", lambda adj: ordered.append(1) or real(adj))
        rng = np.random.default_rng(23)
        nets = [fixtures.load(fig) for fig in ("fig1", "fig2", "fig3")]
        nets += [random_loopy_net(rng) for _ in range(3)]
        for net in nets:
            net = parse_network(serialize_network(net))
            names = list(net.var_names)
            for _ in range(12):
                target = names[int(rng.integers(len(names)))]
                ev = {v: net.values(v)[0] for v in names if v != target and rng.random() < 0.4}
                _outcome(variable_elimination, net, Query(target, Context(ev)))
            assert len(ordered) == 1
            ordered.clear()

    def test_cached_triangulation_matches_a_fresh_network(self):
        # neither the cutset walk nor a query changes the cached order, and
        # the walk does not compute it
        for fig in ("fig1", "fig2", "fig3"):
            text = serialize_network(fixtures.load(fig))
            net = parse_network(text)
            tree = build_conditional_cutset(net)
            names = net.var_names
            for i, target in enumerate(names):
                other = names[i - 1]
                query = Query(target, Context({other: net.values(other)[-1]}))
                _outcome(lambda n, q: cutset_infer(n, q, tree), net, query)
                if i == 0:
                    assert net._triangulation is None
                    report = clique_report(net)
                _outcome(variable_elimination, net, query)
            fresh = parse_network(text)
            assert triangulation(net) == triangulation(fresh)
            assert clique_report(net) == clique_report(fresh) == report

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
        real = csi.reduce_tree
        monkeypatch.setattr(
            csi, "reduce_tree", lambda tree, ctx: reduced.append(ctx) or real(tree, ctx)
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

    def test_clique_tree_arrays_span_their_families_in_elimination_order(self, fig1, fig2, fig3):
        # so every einsum operand spells its letters in ascending order
        rng = np.random.default_rng(29)
        nets = [fig1, fig2, fig3, windowed_net(rng, 60)]
        nets += [random_loopy_net(rng) for _ in range(10)]
        for net in nets:
            _, parents, _, compiled = _compile(net)[:4]
            rank = triangulation(net)[1]
            tree = inference._CliqueTree(net)
            spans = [span for families in tree.families for span in families]
            assert sorted(sorted(span) for span in spans) == sorted(
                sorted(family + (v,)) for v, family in enumerate(parents)
            )
            for families, arrays in zip(tree.families, tree.tables):
                assert len(families) == len(arrays)
                for span, array in zip(families, arrays):
                    assert list(span) == sorted(span, key=rank.__getitem__)
                    assert array.flags.c_contiguous and not array.flags.writeable
                    v = next(v for v in span if set(span) == {v, *parents[v]})
                    declared = parents[v] + (v,)
                    expected = compiled[v].transpose([declared.index(u) for u in span])
                    assert array.shape == expected.shape and np.array_equal(array, expected)

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
    """Serializing, parsing, vacuity, cutset building and every engine free
    their objects by reference counting alone, a network holding its compiled
    form and clique tree too: the cyclic collector finds nothing."""
    nets = [fig1, fig2, fig3]
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
        for net, q, singly in zip(nets, queries, polytree):
            variable_elimination(parse_network(serialize_network(net)), q)
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
