"""Decomposition through multiplexers and join-tree clique metrics."""

import itertools

import numpy as np
import pytest

import csibn as cb
from csibn.graphs import elimination_cliques, min_fill_order
from csibn.model import (
    CptTable,
    Distribution,
    Leaf,
    Network,
    Node,
    NodeSpec,
    Variable,
    as_tree,
    parent_assignments,
    tree_size,
)
from csibn.transform import (
    clique_report,
    decompose_network,
    is_full_tree,
    moral_graph,
    triangulation,
)

from conftest import (
    chain_net,
    decompose_node,
    full_joint_tensor,
    moral_adjacency,
    random_tree_net,
    windowed_net,
)


def marginal_onto(net: Network, names) -> np.ndarray:
    """Joint tensor of ``net`` summed down to the ``names`` axes."""
    tensor = full_joint_tensor(net)
    order = list(net.var_names)
    keep = [order.index(n) for n in names]
    drop = tuple(i for i in range(len(order)) if i not in keep)
    reduced = tensor.sum(axis=drop) if drop else tensor
    # axes currently in net order restricted to keep; align to names order
    kept_in_net_order = [n for n in order if n in set(names)]
    perm = [kept_in_net_order.index(n) for n in names]
    return np.transpose(reduced, perm)


class TestFullTree:
    def test_leaf_is_full(self):
        from csibn.model import Distribution

        assert is_full_tree(Leaf(Distribution((0.5, 0.5))))

    def test_fig3_subtrees_full_but_root_not(self, fig3):
        tree = as_tree(fig3, "X")
        assert not is_full_tree(tree)
        for _, sub in tree.branches:
            assert is_full_tree(sub)

    def test_fig2_not_full(self, fig2):
        assert not is_full_tree(as_tree(fig2, "X"))

    def test_table_counts_as_full(self, fig1):
        assert is_full_tree(as_tree(fig1, "U"))


class TestDecomposeNode:
    def test_fig3_shape(self, fig3):
        out = decompose_node(fig3, "X")
        assert set(out.var_names) - set(fig3.var_names) == {"X@A=t", "X@A=f"}
        assert out.parents("X@A=t") == ("B1", "B2")
        assert out.parents("X@A=f") == ("B3", "B4")
        assert out.parents("X") == ("A", "X@A=t", "X@A=f")
        assert out.node("X").deterministic
        assert isinstance(out.cpt("X"), CptTable)
        assert cb.validate(out) == []

    def test_multiplexer_rows_are_indicators(self, fig3):
        out = decompose_node(fig3, "X")
        for row in out.cpt("X").rows:
            assert sorted(row.probs) == [0.0, 1.0]

    def test_conditional_values_mirror_original(self, fig3):
        out = decompose_node(fig3, "X")
        assert out.values("X@A=t") == fig3.values("X")

    def test_name_collision_rejected(self, fig3):
        taken = Variable("X@A=t", ("t", "f"))
        from csibn.model import Distribution

        clash = Network(
            fig3.variables + (taken,),
            fig3.nodes + (NodeSpec("X@A=t", (), Leaf(Distribution((0.5, 0.5)))),),
        )
        with pytest.raises(ValueError):
            decompose_node(clash, "X")

    def test_root_leaf_rejected(self, fig3):
        with pytest.raises(ValueError):
            decompose_node(fig3, "A")


class TestDecomposeNetwork:
    def test_fig2_chain_of_reports(self, fig2):
        out, reports = decompose_network(fig2)
        assert [r.node for r in reports] == ["X", "X@A=f", "X@A=f,B=f"]
        leaf_conditionals = {
            "X@A=t": ("D",),
            "X@A=f,B=t": (),
            "X@A=f,B=f,C=t": (),
            "X@A=f,B=f,C=f": ("D",),
        }
        for name, parents in leaf_conditionals.items():
            assert out.parents(name) == parents
        assert cb.validate(out) == []

    def test_all_residual_trees_full(self, fig2):
        out, _ = decompose_network(fig2)
        for spec in out.nodes:
            if not spec.deterministic:
                assert is_full_tree(as_tree(out, spec.var))

    def test_idempotent(self, fig2):
        out, _ = decompose_network(fig2)
        again, reports = decompose_network(out)
        assert again == out
        assert reports == []

    def test_joint_preserved_fixtures(self, fig2, fig3):
        for net in (fig2, fig3):
            out, _ = decompose_network(net)
            got = marginal_onto(out, list(net.var_names))
            want = full_joint_tensor(net)
            np.testing.assert_allclose(got, want, atol=1e-12)

    def test_joint_preserved_random(self):
        rng = np.random.default_rng(7)
        done = 0
        while done < 15:
            net = random_tree_net(rng)
            out, reports = decompose_network(net)
            if not reports:
                continue
            got = marginal_onto(out, list(net.var_names))
            np.testing.assert_allclose(got, full_joint_tensor(net), atol=1e-12)
            assert cb.validate(out) == []
            done += 1

    def test_report_entry_counts_fig3(self, fig3):
        _, reports = decompose_network(fig3)
        (report,) = reports
        assert report.table_entries_before == 32
        assert report.tree_entries_before == 8
        assert [e for _, _, e in report.conditional_nodes] == [4, 4]
        assert report.multiplexer == ("X", 8)


class TestCliqueReport:
    def test_chain_max_weight(self):
        report = clique_report(chain_net())
        assert report.max_clique_weight == pytest.approx(2.0)
        assert all(len(c) == 2 for c in report.cliques)

    def test_fig2_before_and_after(self, fig2):
        before = clique_report(fig2)
        assert before.max_clique_weight == pytest.approx(5.0)
        decomposed, _ = decompose_network(fig2)
        after = clique_report(decomposed)
        assert after.max_clique_weight < before.max_clique_weight

    def test_family_coverage(self, fig1, fig2):
        for net in (fig1, fig2, decompose_network(fig2)[0]):
            report = clique_report(net)
            for spec in net.nodes:
                family = frozenset((spec.var,) + spec.parents)
                assert any(family <= c for c in report.cliques), spec.var

    def test_moral_adjacency_marries_parents(self, fig2):
        adj, index = moral_graph(fig2)
        names = fig2.var_names
        assert [names[i] for i in index] == sorted(names)  # labels rank names
        named = {names[index[a]]: {names[index[b]] for b in ns} for a, ns in adj.items()}
        assert named == moral_adjacency(fig2)
        assert "B" in named["A"]  # co-parents of X
        assert "D" in named["C"]

    def test_elimination_order_is_deterministic(self, fig1):
        first = clique_report(fig1)
        second = clique_report(fig1)
        assert first.elimination_order == second.elimination_order
        assert first.cliques == second.cliques


# -- shared multiplexer tables ------------------------------------------------


def oracle_multiplexer(selector: Variable, conditionals, values) -> CptTable:
    """The multiplexer built row by row from named parent assignments: each
    row copies the conditional node the selector's value picks."""
    rows = []
    for assignment in parent_assignments([selector, *conditionals]):
        chosen = conditionals[selector.values.index(assignment[selector.name])].name
        rows.append(Distribution(tuple(float(v == assignment[chosen]) for v in values)))
    return CptTable(tuple(rows))


def uniform(arity: int) -> Leaf:
    return Leaf(Distribution((1.0 / arity,) * arity))


def shaped_net(shapes) -> Network:
    """One node ``X{i}`` per ``(selector arity, node arity)``: its tree tests
    ``S{i}`` and, under the selector's first value only, the binary
    ``B{i}``, so one split leaves full trees."""
    variables, nodes = [], []
    for i, (k, arity) in enumerate(shapes):
        s, b, x = f"S{i}", f"B{i}", f"X{i}"
        variables += [
            Variable(s, tuple(f"s{j}" for j in range(k))),
            Variable(b, ("t", "f")),
            Variable(x, tuple(f"x{j}" for j in range(arity))),
        ]
        tested = Node(b, (("t", uniform(arity)), ("f", uniform(arity))))
        branches = [(f"s{j}", tested if j == 0 else uniform(arity)) for j in range(k)]
        nodes += [
            NodeSpec(s, (), uniform(k)),
            NodeSpec(b, (), uniform(2)),
            NodeSpec(x, (s, b), Node(s, tuple(branches))),
        ]
    return Network(variables, nodes)


SHAPES = [(2, 2), (2, 3), (3, 2), (3, 4)]


class TestSharedMultiplexer:
    """Each (selector arity, node arity) has one multiplexer table, equal to
    the row-by-row construction, and the reports count it as before."""

    def test_tables_equal_the_row_by_row_oracle(self, fig1, fig2, fig3):
        for net in (shaped_net(SHAPES), fig1, fig2, fig3):
            out, reports = decompose_network(net)
            sizes = {}  # each conditional node's leaves, as its parent's split recorded
            for report in reports:
                x = report.node
                selector, *conditionals = out.parents(x)
                want = oracle_multiplexer(
                    out.variable(selector), [out.variable(c) for c in conditionals], out.values(x)
                )
                assert out.cpt(x) == want
                assert report.multiplexer == (x, len(want.rows))
                leaves = sum(e for _, _, e in report.conditional_nodes)
                assert report.entries_after == leaves + len(want.rows)
                before = tree_size(as_tree(net, x)) if x in net.var_names else sizes[x]
                assert report.tree_entries_before == leaves == before
                sizes.update((name, e) for name, _, e in report.conditional_nodes)
        out, reports = decompose_network(shaped_net(SHAPES))
        assert [r.multiplexer[1] for r in reports] == [k * a**k for k, a in SHAPES]

    def test_fixture_reports_unchanged(self, fig1, fig2, fig3):
        # fig1's X has four values under a binary selector
        counts = {
            fig: [(r.multiplexer, r.tree_entries_before, r.entries_after) for r in reports]
            for fig, reports in (
                ("fig1", decompose_network(fig1)[1]),
                ("fig2", decompose_network(fig2)[1]),
                ("fig3", decompose_network(fig3)[1]),
            )
        }
        assert counts == {
            "fig1": [(("X", 32), 5, 37)],
            "fig2": [(("X", 8), 6, 14), (("X@A=f", 8), 4, 12), (("X@A=f,B=f", 8), 3, 11)],
            "fig3": [(("X", 8), 8, 16)],
        }

    def test_one_table_per_shape(self, fig2):
        out, reports = decompose_network(shaped_net(SHAPES + SHAPES))
        first, second = reports[: len(SHAPES)], reports[len(SHAPES) :]
        for a, b in zip(first, second):
            assert out.cpt(a.node) is out.cpt(b.node)
        assert len({id(out.cpt(r.node)) for r in first}) == len(SHAPES)
        # fig2's three binary splits, in another network, share the same table
        fig2_out, _ = decompose_network(fig2)
        tables = [fig2_out.cpt(x) for x in ("X", "X@A=f", "X@A=f,B=f")]
        assert all(t is out.cpt(first[0].node) for t in tables)
        assert isinstance(tables[0].rows, tuple)


# -- triangulation on sorted-name labels ----------------------------------------


def oracle_triangulation(net: Network) -> tuple:
    """:func:`triangulation` computed on variable names: min-fill over the
    named moral graph and the join tree read off its steps, mapped to
    indices into ``net.var_names`` at the end."""
    order, steps = min_fill_order(moral_adjacency(net))
    cliques, home, up = elimination_cliques(order, steps)
    names = net.var_names
    index = {v: i for i, v in enumerate(names)}
    rank = {v: k for k, v in enumerate(order)}
    return (
        tuple(index[v] for v in order),
        tuple(rank[v] for v in names),
        tuple(frozenset(index[u] for u in clique) for clique in cliques),
        tuple(home[v] for v in names),
        tuple(up),
    )


def scattered_net() -> Network:
    """``V2 .. V10`` declared in numeric order, which sorted-name order puts
    after ``V10``, with 2, 3 and 4 values; each node's tree tests its
    previous variable and, under that one's first value only, the variable
    three back, so the moral graph has loops and the trees split."""
    names = [f"V{i}" for i in range(2, 11)]
    variables = [
        Variable(v, tuple(f"x{j}" for j in range(2 + k % 3))) for k, v in enumerate(names)
    ]
    nodes = []
    for k, var in enumerate(variables):
        arity = len(var.values)
        tree = uniform(arity)
        if k >= 3:
            far = variables[k - 3]
            tree = Node(far.name, tuple((v, uniform(arity)) for v in far.values))
        if k >= 1:
            near = variables[k - 1]
            branches = [(v, tree if j == 0 else uniform(arity)) for j, v in enumerate(near.values)]
            tree = Node(near.name, tuple(branches))
        parents = tuple(names[j] for j in (k - 3, k - 1) if j >= 0)
        nodes.append(NodeSpec(var.name, parents, tree))
    return Network(variables, nodes)


class TestLabelledTriangulation:
    """Min-fill on sorted-name labels orders, cliques and links the join tree
    exactly as min-fill on the names does."""

    def check(self, net):
        want = oracle_triangulation(net)
        assert triangulation(net) == want
        assert triangulation(Network(net.variables, net.nodes)) == want  # uncached

    def test_fixtures_and_decomposed(self, fig1, fig2, fig3):
        for net in (fig1, fig2, fig3):
            self.check(net)
            self.check(decompose_network(net)[0])

    def test_structure_documents(self):
        # windowed_net draws the structure workload's documents from these seeds
        for i in range(24):
            net = windowed_net(np.random.default_rng([1, 3, i]), 120)
            decomposed, reports = decompose_network(net)
            assert reports
            self.check(net)
            self.check(decomposed)

    def test_declared_order_differs_from_sorted_names(self):
        net = scattered_net()
        assert cb.validate(net) == []
        assert list(net.var_names) != sorted(net.var_names)
        decomposed, reports = decompose_network(net)
        assert reports
        for each in (net, decomposed):
            self.check(each)
            report = clique_report(each)
            assert sorted(report.elimination_order) == sorted(each.var_names)
