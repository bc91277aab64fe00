"""Context-specific independence: vacuity, reduction, separation tests."""

import itertools

import numpy as np
import pytest

import csibn as cb
from csibn import csi, fixtures
from csibn.csi import (
    context_network,
    csi_separated,
    d_separated,
    reduce_network,
    reduce_tree,
    vacuous_parents,
)
from csibn.model import Context, Leaf, as_tree, tree_tested_vars

from conftest import (
    all_assignments,
    chain_net,
    contextually_independent,
    diamond_net,
    occurs_consistent,
    oracle_d_separated,
    random_tree_net,
)


class TestOccursConsistent:
    def test_basic(self, fig2):
        tree = as_tree(fig2, "X")
        assert occurs_consistent(tree, "B", {})
        assert not occurs_consistent(tree, "B", {"A": "t"})
        assert occurs_consistent(tree, "D", {"A": "t"})
        assert not occurs_consistent(tree, "D", {"A": "f", "B": "t"})

    def test_bound_query_is_error(self, fig2):
        with pytest.raises(ValueError):
            occurs_consistent(as_tree(fig2, "X"), "A", {"A": "t"})


class TestVacuousParents:
    def test_fig1_claims(self, fig1):
        assert vacuous_parents(fig1, "X", {"U": "t"}) == {"V", "W"}
        assert vacuous_parents(fig1, "X", {"U": "f"}) == frozenset()

    def test_fig2_claims(self, fig2):
        assert vacuous_parents(fig2, "X", {"A": "t"}) == {"B", "C"}
        assert vacuous_parents(fig2, "X", {"A": "f", "B": "t"}) == {"C", "D"}
        assert vacuous_parents(fig2, "X", {}) == frozenset()

    def test_bound_parents_not_reported(self, fig2):
        assert "A" not in vacuous_parents(fig2, "X", {"A": "t"})

    def test_table_cpts_never_vacuous(self, fig1):
        assert vacuous_parents(fig1, "U", {}) == frozenset()
        assert vacuous_parents(fig1, "Z", {"X": "x2"}) == frozenset()


class TestReduceTree:
    def test_fig2_reduction_shapes(self, fig2):
        tree = as_tree(fig2, "X")
        assert tree_tested_vars(reduce_tree(tree, {"A": "t"})) == {"D"}
        assert tree_tested_vars(reduce_tree(tree, {"A": "f", "B": "t"})) == set()
        assert tree_tested_vars(reduce_tree(tree, {"B": "f"})) == {"A", "C", "D"}

    def test_reduction_preserves_lookups(self, fig2):
        from csibn.model import tree_lookup

        tree = as_tree(fig2, "X")
        reduced = reduce_tree(tree, {"A": "f"})
        assert cb.tree_size(reduced) < cb.tree_size(tree)
        for combo in itertools.product("tf", repeat=3):
            full = dict(zip("BCD", combo))
            assert tree_lookup(reduced, full) == tree_lookup(tree, {"A": "f", **full})

    def test_membership_matches_occurrence(self, fig1, fig2):
        # the tested-variable set of a reduced tree is exactly the unbound
        # variables occurring on context-consistent paths
        for net, name in ((fig1, "X"), (fig1, "Z"), (fig2, "X")):
            tree = as_tree(net, name)
            parents = net.parents(name)
            options = [(None,) + net.values(p) for p in parents]
            for combo in itertools.product(*options):
                ctx = {p: v for p, v in zip(parents, combo) if v is not None}
                tested = tree_tested_vars(reduce_tree(tree, ctx))
                for y in parents:
                    if y in ctx:
                        assert y not in tested
                    else:
                        assert (y in tested) == occurs_consistent(tree, y, ctx)


class TestReduceNetwork:
    def test_joint_preserved_on_consistent_assignments(self, fig1):
        instantiation = {"U": "f", "V": "t"}
        reduced = reduce_network(fig1, instantiation)
        for assignment in all_assignments(fig1):
            if all(assignment[k] == v for k, v in instantiation.items()):
                assert cb.joint_probability(reduced, assignment) == pytest.approx(
                    cb.joint_probability(fig1, assignment), abs=1e-12
                )

    def test_outgoing_arcs_dropped(self, fig1):
        reduced = reduce_network(fig1, {"U": "t"})
        assert "U" not in reduced.parents("X")
        # instantiating U makes V and W vacuous for X as well
        assert reduced.parents("X") == ()
        assert reduced.parents("U") == ("S",)  # incoming arcs stay

    def test_instantiated_nodes_remain(self, fig1):
        reduced = reduce_network(fig1, {"W": "f"})
        assert set(reduced.var_names) == set(fig1.var_names)
        assert reduced.parents("Z") == ("X",)


class TestDSeparation:
    def test_chain(self):
        net = chain_net()
        assert not d_separated(net, ["A"], ["C"], [])
        assert d_separated(net, ["A"], ["C"], ["B"])

    def test_collider(self):
        net = diamond_net()
        assert d_separated(net, ["B"], ["C"], ["A"])
        assert not d_separated(net, ["B"], ["C"], ["A", "D"])

    def test_disjointness_enforced(self, fig1):
        with pytest.raises(ValueError):
            d_separated(fig1, ["U"], ["U"], [])

    def test_matches_moralization_oracle(self):
        rng = np.random.default_rng(20260825)
        checked = 0
        for _ in range(60):
            net = random_tree_net(rng)
            names = list(net.var_names)
            for x, y in itertools.combinations(names, 2):
                others = [v for v in names if v not in (x, y)]
                for r in range(min(3, len(others)) + 1):
                    for zs in itertools.combinations(others, r):
                        got = d_separated(net, [x], [y], zs)
                        want = oracle_d_separated(net, [x], [y], zs)
                        assert got == want, (names, x, y, zs)
                        checked += 1
        assert checked > 1000


class TestContextNetwork:
    def test_deleted_edges_fig2(self, fig2):
        cn = context_network(fig2, {"A": "t"})
        assert cn.deleted_edges == {("B", "X"), ("C", "X")}
        assert cn.network.parents("X") == ("A", "D")

    def test_reduces_cpts(self, fig2):
        cn = context_network(fig2, {"A": "f", "B": "t"})
        tree = cn.network.cpt("X")
        assert isinstance(tree, Leaf)

    def test_empty_context_deletes_nothing(self, fig1):
        cn = context_network(fig1, {})
        assert cn.deleted_edges == frozenset()
        assert cn.network == fig1 or cn.network.edges() == fig1.edges()

    def test_deleted_edges_are_the_vacuous_arcs(self, fig1, fig2, fig3):
        for net in (fig1, fig2, fig3):
            for size in (0, 1, 2):
                for names in itertools.combinations(net.var_names, size):
                    for vals in itertools.product(*(net.values(n) for n in names)):
                        ctx = dict(zip(names, vals))
                        want = {
                            (p, x)
                            for x in net.var_names
                            for p in vacuous_parents(net, x, ctx)
                        }
                        assert context_network(net, ctx).deleted_edges == want, ctx


class TestCsiSeparated:
    def test_fig2_context_claims(self, fig2):
        assert csi_separated(fig2, ["X"], ["B"], [], {"A": "t"})
        assert csi_separated(fig2, ["X"], ["C"], [], {"A": "t"})
        assert csi_separated(fig2, ["X"], ["C"], [], {"A": "f", "B": "t"})
        assert not csi_separated(fig2, ["X"], ["D"], [], {"A": "t"})

    def test_fig1_short_circuit(self, fig1):
        assert csi_separated(fig1, ["X"], ["V", "W"], [], {"U": "t"})
        assert not csi_separated(fig1, ["X"], ["V"], [], {"U": "f"})

    def test_classical_case_degenerates_to_dsep(self, fig1):
        for zs in ([], ["S"]):
            assert csi_separated(fig1, ["U"], ["V"], zs, {}) == d_separated(
                fig1, ["U"], ["V"], zs
            )

    def test_disjointness_with_context(self, fig2):
        with pytest.raises(ValueError):
            csi_separated(fig2, ["X"], ["A"], [], {"A": "t"})

    def test_positive_claims_numerically_sound(self, fig1, fig2):
        cases = [
            (fig1, ["X"], ["V"], [], {"U": "t"}),
            (fig1, ["X"], ["W"], ["V"], {"U": "t"}),
            (fig2, ["X"], ["B"], ["D"], {"A": "t"}),
            (fig2, ["X"], ["D"], [], {"A": "f", "B": "t"}),
        ]
        for net, xs, ys, zs, ctx in cases:
            sep = csi_separated(net, xs, ys, zs, ctx)
            assert sep, (xs, ys, zs, ctx)
            assert contextually_independent(net, xs, ys, zs, ctx)

    def test_never_tested_parent_is_vacuous_in_every_context(self):
        # B declares A as a parent but its CPT is a single leaf: the arc is
        # vacuous even when the context binds none of B's parents
        variables = tuple(cb.Variable(v, ("t", "f")) for v in "ABC")
        leaf = Leaf(cb.Distribution((0.4, 0.6)))
        parents = {"A": (), "B": ("A",), "C": ()}
        net = cb.Network(variables, tuple(cb.NodeSpec(v, ps, leaf) for v, ps in parents.items()))
        assert cb.validate(net) == []
        assert csi_separated(net, ["A"], ["B"], [], {"C": "t"})
        assert csi_separated(net, ["A"], ["B"], [], {})
        assert not d_separated(net, ["A"], ["B"], [])
        assert ("A", "B") in context_network(net, {"C": "t"}).deleted_edges

    def test_builds_no_network(self, fig1, fig2, monkeypatch):
        built = []
        real = cb.Network.__init__
        monkeypatch.setattr(
            cb.Network, "__init__", lambda self, *args: built.append(1) or real(self, *args)
        )
        assert csi_separated(fig1, ["X"], ["V", "W"], [], {"U": "t"})
        assert not csi_separated(fig2, ["X"], ["D"], [], {"A": "t"})
        assert built == []

    @pytest.mark.parametrize("fig", ["fig1", "fig2", "fig3"])
    def test_repeated_test_instantiates_only_bound_families(self, fig, monkeypatch):
        # each network keeps its families' empty-context kept parents, so a
        # test after the first instantiates only the families whose declared
        # parents the context binds
        net = fixtures.load(fig)
        calls = []
        real = csi.instantiate_family
        monkeypatch.setattr(
            csi, "instantiate_family", lambda *args: calls.append(args[0]) or real(*args)
        )
        names = net.var_names
        for i, bound in enumerate(names):
            context = {bound: net.values(bound)[0]}
            x, y = [v for v in names if v != bound][:2]
            bound_families = sum(bound in spec.parents for spec in net.nodes)
            for repeat in range(3):
                calls.clear()
                first = csi_separated(net, [x], [y], [], context)
                if repeat:
                    assert first == answer
                answer = first
                extra = len(net.nodes) if i == 0 and repeat == 0 else 0
                assert len(calls) == bound_families + extra, (bound, repeat)
