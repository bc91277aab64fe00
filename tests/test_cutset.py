"""Cutset heuristics, tree construction, branch enumeration."""

import math

import numpy as np
import pytest

import csibn as cb
from csibn import cutset, graphs
from csibn.csi import reduce_network
from csibn.cutset import (
    EMPTY,
    CutsetNode,
    arc_deletion_score,
    best_cut_variable,
    branch_contexts,
    build_conditional_cutset,
    count_branches,
    cutset_tree_to_obj,
    cutset_variables,
    expected_parents,
    flat_cutset,
    format_cutset_tree,
    rank_variables,
    weight,
)
from csibn.inference import Query, cutset_infer, query_enumerate
from csibn.model import (
    Context,
    CptTable,
    Distribution,
    Leaf,
    Network,
    Node,
    NodeSpec,
    Variable,
    as_tree,
)
from csibn.transform import decompose_network

from conftest import (
    all_assignments,
    chain_net,
    diamond_net,
    oracle_has_undirected_cycle,
    random_loopy_net,
    random_polytree_net,
    skeleton,
    windowed_net,
)


class TestScores:
    def test_weight(self, fig1):
        assert weight(Variable("b", ("t", "f"))) == 1.0
        assert weight(fig1.variable("X")) == 2.0
        assert weight(Variable("tri", ("a", "b", "c"))) == pytest.approx(math.log2(3))

    def test_expected_parents_fig2(self, fig2):
        assert expected_parents(fig2, "X", "A", "t") == pytest.approx(1.0)
        assert expected_parents(fig2, "X", "A", "f") == pytest.approx(2.0)

    def test_expected_parents_requires_parenthood(self, fig2):
        with pytest.raises(ValueError):
            expected_parents(fig2, "A", "X", "t")

    def test_single_parent_guard(self):
        net = chain_net()
        assert expected_parents(net, "B", "A", "t") == 0.0

    def test_arc_deletion_fig2(self, fig2):
        assert arc_deletion_score(fig2, "A") == pytest.approx(2.5)
        assert arc_deletion_score(fig2, "B") == pytest.approx(
            ((4 - math.log2(3)) + (4 - math.log2(5))) / 2
        )
        assert arc_deletion_score(fig2, "X") == 0.0  # childless

    def test_rank_and_argmin_fig2(self, fig2):
        ranked = {s.variable: s for s in rank_variables(fig2)}
        assert ranked["A"].ratio == pytest.approx(1.0 / 2.5)
        assert best_cut_variable(fig2) == "A"
        assert min(s.ratio for s in ranked.values()) == ranked["A"].ratio

    def test_best_cut_variable_is_not_the_builders_first_pick(self):
        # rank_variables scores the whole network; the builder scores 2-core
        # candidates by their arcs into fellow candidates
        net = windowed_net(np.random.default_rng(1), 14)
        assert best_cut_variable(net) == "V5"
        assert build_conditional_cutset(net).test == "V4"

    def test_rank_covers_exactly_parents(self):
        net = chain_net()
        scores = {s.variable: s for s in rank_variables(net)}
        assert set(scores) == {"A", "B"}  # C is childless
        for s in scores.values():
            assert s.ratio == pytest.approx(s.weight / s.arc_deletion)


class TestBuild:
    def test_fig1_shape(self, fig1):
        tree = build_conditional_cutset(fig1)
        assert isinstance(tree, CutsetNode)
        assert tree.test == "U"
        by_values = dict(tree.arcs)
        assert by_values[("t",)] is EMPTY
        inner = by_values[("f",)]
        assert inner.test == "V"
        ((v_values, w_node),) = inner.arcs
        assert v_values == ("t", "f")  # structurally merged
        assert w_node.test == "W"
        ((w_values, leaf),) = w_node.arcs
        assert w_values == ("t", "f")
        assert leaf is EMPTY

    def test_fig1_branch_contexts(self, fig1):
        tree = build_conditional_cutset(fig1)
        got = [cb.format_context(c) for c in branch_contexts(tree)]
        assert got == [
            "U=t",
            "U=f,V=t,W=t",
            "U=f,V=t,W=f",
            "U=f,V=f,W=t",
            "U=f,V=f,W=f",
        ]

    def test_polytree_gives_empty(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            net = random_polytree_net(rng)
            assert build_conditional_cutset(net) is EMPTY
        assert build_conditional_cutset(chain_net()) is EMPTY

    def test_diamond(self):
        tree = build_conditional_cutset(diamond_net())
        assert isinstance(tree, CutsetNode)
        assert tree.test == "A"

    def test_dead_arc_closes_no_loop(self):
        # D declares the parent C, but its tree never tests C: the arc C -> D
        # is vacuous in every context, so the diamond holds no loop to cut
        net = _dead_arc_diamond()
        tree = build_conditional_cutset(net)
        assert tree is EMPTY
        assert count_branches(tree) == 1
        for q in (Query("D", Context({"C": "t"})), Query("A", Context({"D": "f"}))):
            result = cutset_infer(net, q, tree)
            assert result.evaluations == 1
            assert result.posterior.probs == pytest.approx(
                query_enumerate(net, q).posterior.probs, abs=1e-12
            )

    def test_branch_validity_on_random_loopy(self):
        # removing each branch context's variables plus arcs it makes
        # vacuous must leave an acyclic skeleton (independent oracle)
        rng = np.random.default_rng(33)
        for _ in range(25):
            net = random_loopy_net(rng, max_vars=8)
            tree = build_conditional_cutset(net)
            assert tree is not EMPTY
            for ctx in branch_contexts(tree):
                residual = reduce_network(net, ctx)
                adj = skeleton(residual)
                for name in ctx:
                    for nb in adj.pop(name):
                        adj[nb].discard(name)
                assert not oracle_has_undirected_cycle(adj), ctx

    def test_exclusive_and_exhaustive(self, fig1):
        tree = build_conditional_cutset(fig1)
        contexts = branch_contexts(tree)
        for assignment in all_assignments(fig1):
            matching = [c for c in contexts if c.consistent_with(assignment)]
            assert len(matching) == 1

    def test_merged_values_share_structure(self, fig1):
        # V's two values were merged: check the merge-soundness contract,
        # that both values leave residual loopy cores with one key
        from csibn.cutset import _Builder

        level = reduce_network(fig1, {"U": "f"})
        builder, keys = _Builder(fig1), {}
        for v in fig1.values("V"):
            reduced = reduce_network(level, {"V": v})
            core = graphs.two_core(skeleton(reduced))
            families = {c: (as_tree(reduced, c), reduced.parents(c)) for c in sorted(core)}
            keys[v] = builder.key(families)
        assert keys["t"][0]  # the core is not empty
        assert keys["t"] == keys["f"]

    def test_values_differing_off_the_core_share_one_arc(self):
        # P hangs off the root pick A and tests A on one branch of its tree,
        # so A's two values reduce P to different shapes; P lies outside the
        # loopy core, so both values share one arc
        tree = build_conditional_cutset(_pendant_net())
        assert format_cutset_tree(tree) == (
            "A\n"
            "  ={t,f}:\n"
            "    D\n"
            "      ={t,f}:\n"
            "        (singly connected)\n"
        )
        q = Query("G", Context({"P": "t"}))
        result = cutset_infer(_pendant_net(), q, tree)
        assert result.evaluations == 4
        assert result.posterior.probs == pytest.approx(
            query_enumerate(_pendant_net(), q).posterior.probs, abs=1e-12
        )

    def test_builds_one_node_per_distinct_residual_core(self, monkeypatch):
        # keyed on the whole network's signature, the builder made 155 node
        # calls for this network; every far-away reduction forced a miss
        calls = []
        real = cutset._Builder.node
        monkeypatch.setattr(
            cutset._Builder, "node", lambda self, *args: calls.append(1) or real(self, *args)
        )
        net = windowed_net(np.random.default_rng(1), 40)
        tree = build_conditional_cutset(net)
        assert len(calls) <= 60
        assert count_branches(tree) == 2304

    def test_builds_no_network(self, fig1, monkeypatch):
        # the residual is a family map over the loopy core, never a network
        windowed = windowed_net(np.random.default_rng(1), 40)
        built = []
        real = cb.Network.__init__
        monkeypatch.setattr(
            cb.Network, "__init__", lambda self, *args: built.append(1) or real(self, *args)
        )
        assert count_branches(build_conditional_cutset(fig1)) == 5
        assert count_branches(build_conditional_cutset(windowed)) == 2304
        assert built == []

    def test_never_worse_than_flat_over_same_variables(self, fig1):
        rng = np.random.default_rng(99)
        nets = [fig1] + [random_loopy_net(rng, max_vars=7) for _ in range(10)]
        for net in nets:
            tree = build_conditional_cutset(net)
            used = cutset_variables(tree)
            flat_count = 1
            for v in used:
                flat_count *= len(net.values(v))
            assert len(branch_contexts(tree)) <= flat_count


def _pendant_net() -> Network:
    """Two diamonds, A -> B, C -> D and D -> E, F -> G, and P, a child of A
    and of the root Q, whose tree tests Q under A=t only."""
    leaf = lambda p: Leaf(Distribution((p, 1.0 - p)))
    branch = lambda test, pt, pf: Node(test, (("t", leaf(pt)), ("f", leaf(pf))))
    collider = lambda a, b: Node(a, (("t", branch(b, 0.9, 0.5)), ("f", branch(b, 0.3, 0.2))))
    nodes = (
        NodeSpec("A", (), leaf(0.6)),
        NodeSpec("B", ("A",), branch("A", 0.7, 0.2)),
        NodeSpec("C", ("A",), branch("A", 0.25, 0.85)),
        NodeSpec("D", ("B", "C"), collider("B", "C")),
        NodeSpec("E", ("D",), branch("D", 0.4, 0.1)),
        NodeSpec("F", ("D",), branch("D", 0.8, 0.35)),
        NodeSpec("G", ("E", "F"), collider("E", "F")),
        NodeSpec("Q", (), leaf(0.3)),
        NodeSpec("P", ("A", "Q"), Node("A", (("t", branch("Q", 0.6, 0.15)), ("f", leaf(0.5))))),
    )
    return Network(tuple(Variable(spec.var, ("t", "f")) for spec in nodes), nodes)


def _dead_arc_diamond() -> Network:
    """A -> B, A -> C, B, C -> D, where D's tree tests B alone."""
    leaf = lambda p: Leaf(Distribution((p, 1.0 - p)))
    branch = lambda test, pt, pf: Node(test, (("t", leaf(pt)), ("f", leaf(pf))))
    nodes = (
        NodeSpec("A", (), leaf(0.6)),
        NodeSpec("B", ("A",), branch("A", 0.7, 0.2)),
        NodeSpec("C", ("A",), branch("A", 0.25, 0.85)),
        NodeSpec("D", ("B", "C"), branch("B", 0.9, 0.3)),
    )
    return Network(tuple(Variable(spec.var, ("t", "f")) for spec in nodes), nodes)


def _occurrences(tree) -> list:
    """Every node of ``tree`` once per path that reaches it."""
    out = [tree]
    if isinstance(tree, CutsetNode):
        for _, child in tree.arcs:
            out += _occurrences(child)
    return out


class TestSharing:
    def test_one_object_per_distinct_subtree(self, fig1):
        rng = np.random.default_rng(33)
        nets = [fig1] + [random_loopy_net(rng, max_vars=8) for _ in range(25)]
        shared = 0
        for net in nets:
            nodes = _occurrences(build_conditional_cutset(net))
            distinct = {id(node) for node in nodes}
            assert len(distinct) == len(set(nodes))  # equal subtrees are one object
            shared += len(distinct) < len(nodes)
        assert shared >= 20

    def test_rendering_of_the_fixtures(self, fig1, fig2, fig3):
        tree = build_conditional_cutset(fig1)
        assert format_cutset_tree(tree) == (
            "U\n"
            "  ={t}:\n"
            "    (singly connected)\n"
            "  ={f}:\n"
            "    V\n"
            "      ={t,f}:\n"
            "        W\n"
            "          ={t,f}:\n"
            "            (singly connected)\n"
        )
        assert cutset_tree_to_obj(tree) == {
            "test": "U",
            "arcs": [
                {"values": ["t"], "child": None},
                {
                    "values": ["f"],
                    "child": {
                        "test": "V",
                        "arcs": [
                            {
                                "values": ["t", "f"],
                                "child": {
                                    "test": "W",
                                    "arcs": [{"values": ["t", "f"], "child": None}],
                                },
                            }
                        ],
                    },
                },
            ],
        }
        for net in (fig2, fig3):
            tree = build_conditional_cutset(net)
            assert format_cutset_tree(tree) == "(singly connected)\n"
            assert cutset_tree_to_obj(tree) is None


    def test_rendering_of_the_decomposed_fixtures(self, fig1, fig2, fig3):
        # a multiplexer's CPT is a table, expanded to a tree at the root
        expected = {
            "fig1": "S\n  ={s1,s2,s3,s4,s5}:\n    W\n      ={t,f}:\n        (singly connected)\n",
            "fig2": "D\n  ={t,f}:\n    (singly connected)\n",
            "fig3": "(singly connected)\n",
        }
        for name, net in (("fig1", fig1), ("fig2", fig2), ("fig3", fig3)):
            decomposed, _ = decompose_network(net)
            assert any(isinstance(spec.cpt, CptTable) for spec in decomposed.nodes)
            assert format_cutset_tree(build_conditional_cutset(decomposed)) == expected[name]


class TestFlatCutset:
    def test_full_product(self, fig1):
        tree = flat_cutset(fig1, ["U", "V", "W"])
        assert len(branch_contexts(tree)) == 8
        assert cutset_variables(tree) == {"U", "V", "W"}

    def test_empty_list(self, fig1):
        assert flat_cutset(fig1, []) is EMPTY

    def test_duplicate_rejected(self, fig1):
        with pytest.raises(ValueError):
            flat_cutset(fig1, ["U", "U"])

    def test_unknown_variable_rejected(self, fig1):
        with pytest.raises(KeyError):
            flat_cutset(fig1, ["Q"])


class TestBranchContexts:
    def test_empty_leaf(self):
        assert branch_contexts(EMPTY) == [cb.Context()]
        assert count_branches(EMPTY) == 1

    def test_count_matches_the_listed_contexts(self, fig1):
        rng = np.random.default_rng(33)
        nets = [fig1] + [random_loopy_net(rng, max_vars=8) for _ in range(25)]
        trees = [flat_cutset(fig1, ["U", "V", "W"])] + [build_conditional_cutset(n) for n in nets]
        for tree in trees:
            assert count_branches(tree) == len(branch_contexts(tree))

    def test_order_is_depth_first_in_value_order(self, fig1):
        tree = flat_cutset(fig1, ["U", "V"])
        got = [cb.format_context(c) for c in branch_contexts(tree)]
        assert got == ["U=t,V=t", "U=t,V=f", "U=f,V=t", "U=f,V=f"]


class TestRendering:
    def test_format_contains_all_tests(self, fig1):
        text = format_cutset_tree(build_conditional_cutset(fig1))
        for name in ("U", "V", "W"):
            assert name in text
        assert "(singly connected)" in text

    def test_json_obj_shape(self, fig1):
        obj = cb.cutset.cutset_tree_to_obj(build_conditional_cutset(fig1))
        assert obj["test"] == "U"
        assert [a["values"] for a in obj["arcs"]] == [["t"], ["f"]]
        assert obj["arcs"][0]["child"] is None
