"""Model layer: parsing, validation, contexts, tree and table plumbing."""

import gc
import json
import tracemalloc

import numpy as np
import pytest

import csibn as cb
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
    cpt_array,
    parent_assignments,
    row_index,
    table_to_tree,
    tree_lookup,
    tree_size,
    tree_tested_vars,
)

from conftest import chain_net, restrict, skeleton, tree_leaves, windowed_net


def mini_doc():
    return {
        "variables": [
            {"name": "A", "values": ["t", "f"]},
            {"name": "B", "values": ["t", "f"]},
        ],
        "nodes": [
            {"var": "A", "parents": [], "cpt": {"kind": "tree", "root": {"leaf": [0.3, 0.7]}}},
            {
                "var": "B",
                "parents": ["A"],
                "cpt": {
                    "kind": "tree",
                    "root": {
                        "test": "A",
                        "branches": {"t": {"leaf": [0.9, 0.1]}, "f": {"leaf": [0.2, 0.8]}},
                    },
                },
            },
        ],
    }


class TestParsing:
    def test_minimal_roundtrip(self):
        net = cb.parse_network(json.dumps(mini_doc()))
        assert net.var_names == ("A", "B")
        assert net.parents("B") == ("A",)
        text = cb.serialize_network(net)
        assert cb.parse_network(text) == net

    def test_fixtures_roundtrip(self, fig1, fig2, fig3):
        for net in (fig1, fig2, fig3):
            assert cb.parse_network(cb.serialize_network(net)) == net

    def test_syntax_error_reports_position(self):
        with pytest.raises(cb.NetworkFormatError) as err:
            cb.parse_network("{not json")
        assert "line 1" in str(err.value)

    def test_table_cpt_parses(self):
        doc = mini_doc()
        doc["nodes"][1]["cpt"] = {"kind": "table", "rows": [[0.9, 0.1], [0.2, 0.8]]}
        net = cb.parse_network(json.dumps(doc))
        assert isinstance(net.cpt("B"), CptTable)

    def test_branches_must_cover_values(self):
        doc = mini_doc()
        del doc["nodes"][1]["cpt"]["root"]["branches"]["f"]
        with pytest.raises(cb.NetworkSemanticsError):
            cb.parse_network(json.dumps(doc))

    def test_branches_are_read_in_declared_order(self):
        # the reader, not the writer's key order, fixes the branch order
        doc = mini_doc()
        branches = doc["nodes"][1]["cpt"]["root"]["branches"]
        doc["nodes"][1]["cpt"]["root"]["branches"] = {"f": branches["f"], "t": branches["t"]}
        net = cb.parse_network(json.dumps(doc))
        assert [val for val, _ in net.cpt("B").branches] == ["t", "f"]
        assert net == cb.parse_network(json.dumps(mini_doc()))
        assert cb.parse_network(cb.serialize_network(net)) == net

    def test_numpy_floats_are_numbers_and_booleans_are_not(self):
        # the reader checks a number array's item types in one pass and falls
        # back to a per-item check, which admits float subclasses
        doc = mini_doc()
        doc["nodes"][0]["cpt"]["root"]["leaf"] = [np.float64(0.3), np.float64(0.7)]
        doc["nodes"][1]["cpt"] = {"kind": "table", "rows": [[np.float64(0.9), 0.1], [0.2, 0.8]]}
        net = cb.network_from_json(doc)
        assert cb.validate(net) == []
        assert net.cpt("A").dist.probs == (0.3, 0.7)
        assert [row.probs for row in net.cpt("B").rows] == [(0.9, 0.1), (0.2, 0.8)]
        assert all(type(p) is float for p in net.cpt("A").dist.probs + net.cpt("B").rows[0].probs)
        for leaf in ([True, False], [np.float64(0.3), True], [1, 0.0, False]):
            doc["nodes"][0]["cpt"]["root"]["leaf"] = leaf
            with pytest.raises(cb.NetworkSemanticsError, match="must be an array of numbers"):
                cb.network_from_json(doc)

    @pytest.mark.parametrize(
        "text, error",
        [
            (json.dumps(mini_doc()), None),
            ("{not json", cb.NetworkFormatError),
            ("[]", cb.NetworkSemanticsError),  # the reader's decoding fault
            (json.dumps({**mini_doc(), "variables": []}), cb.NetworkSemanticsError),  # validate's
        ],
        ids=["valid", "syntax", "shape", "semantics"],
    )
    def test_parse_restores_the_collector(self, text, error):
        # parsing pauses the process-wide cyclic collector and restores it
        assert gc.isenabled()
        try:
            if error is None:
                cb.parse_network(text)
            else:
                with pytest.raises(error):
                    cb.parse_network(text)
            assert gc.isenabled()
            gc.disable()  # a caller's choice is kept, and the parse still answers
            if error is None:
                assert cb.parse_network(text) == cb.network_from_json(json.loads(text))
            else:
                with pytest.raises(error):
                    cb.parse_network(text)
            assert not gc.isenabled()
        finally:
            gc.enable()

    def test_writer_builds_no_document(self):
        # the text is written from the network's objects, not from a JSON
        # document built first, so the writer's peak memory stays a small
        # multiple of its output (about 6.4x with the document)
        net = windowed_net(np.random.default_rng(1), 2000)
        tracemalloc.start()
        try:
            text = cb.serialize_network(net)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 4 * len(text)


class TestValidation:
    def check(self, doc, fragment):
        with pytest.raises(cb.NetworkSemanticsError) as err:
            cb.parse_network(json.dumps(doc))
        assert any(fragment in v for v in err.value.violations), err.value.violations

    def test_duplicate_variable(self):
        doc = mini_doc()
        doc["variables"].append({"name": "A", "values": ["t", "f"]})
        self.check(doc, "duplicate variable")

    def test_duplicate_node(self):
        # a second entry for A would otherwise replace the first silently
        doc = mini_doc()
        doc["nodes"].append(
            {"var": "A", "parents": [], "cpt": {"kind": "tree", "root": {"leaf": [0.9, 0.1]}}}
        )
        with pytest.raises(cb.NetworkSemanticsError) as err:
            cb.parse_network(json.dumps(doc))
        assert err.value.violations == ["duplicate node: A"]

    def test_degenerate_variable(self):
        doc = mini_doc()
        doc["variables"].append({"name": "C", "values": ["only"]})
        doc["nodes"].append(
            {"var": "C", "parents": [], "cpt": {"kind": "tree", "root": {"leaf": [1.0]}}}
        )
        self.check(doc, "degenerate")

    def test_missing_node(self):
        doc = mini_doc()
        doc["nodes"].pop()
        self.check(doc, "missing node")

    def test_unknown_parent(self):
        doc = mini_doc()
        doc["nodes"][1]["parents"] = ["Q", "A"]
        with pytest.raises(cb.NetworkSemanticsError):
            cb.parse_network(json.dumps(doc))

    def test_unknown_parent_is_not_a_cycle(self):
        doc = mini_doc()
        doc["nodes"][0]["parents"] = ["Q"]
        assert cb.validate(cb.network_from_json(doc)) == ["unknown parent: Q in node A"]

    @pytest.mark.parametrize(
        "path, bad, fragment",
        [
            (("variables", 0, "values"), ["t", 1], "must be an array of"),
            (("nodes", 1, "parents"), "A", "must be an array of"),
            (("nodes", 0, "cpt", "root", "leaf"), [True, False], "must be an array of"),
            (("nodes", 0, "cpt"), {"kind": "table", "rows": [[0.3, "0.7"]]}, "must be an array of"),
            (("nodes", 0, "cpt"), {"kind": "table", "rows": [0.3]}, "must be an array of"),
            (("variables", 0, "name"), 7, "must be a string"),
            (("nodes", 0, "var"), 7, "must be a string"),
            (("nodes", 1, "cpt", "root", "test"), 7, "must be a string"),
            (("nodes", 0, "deterministic"), "no", "must be a boolean"),
        ],
        ids=[
            "values-number", "parents-string", "leaf-booleans", "row-with-string", "row-not-array",
            "name-number", "var-number", "test-number", "deterministic-string",
        ],
    )
    def test_mistyped_fields_rejected(self, path, bad, fragment):
        doc = mini_doc()
        target = doc
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = bad
        self.check(doc, fragment)

    def test_cycle_detected(self):
        doc = mini_doc()
        doc["nodes"][0] = {
            "var": "A",
            "parents": ["B"],
            "cpt": {
                "kind": "tree",
                "root": {
                    "test": "B",
                    "branches": {"t": {"leaf": [0.5, 0.5]}, "f": {"leaf": [0.5, 0.5]}},
                },
            },
        }
        self.check(doc, "cycle")

    def test_unnormalized_leaf(self):
        doc = mini_doc()
        doc["nodes"][0]["cpt"]["root"]["leaf"] = [0.5, 0.6]
        self.check(doc, "unnormalized")

    def test_test_not_a_parent(self):
        doc = mini_doc()
        doc["nodes"][1]["parents"] = []
        self.check(doc, "not a parent")

    def test_repeated_test_on_path(self):
        doc = mini_doc()
        doc["nodes"][1]["cpt"]["root"]["branches"]["t"] = {
            "test": "A",
            "branches": {"t": {"leaf": [0.5, 0.5]}, "f": {"leaf": [0.5, 0.5]}},
        }
        self.check(doc, "repeated test")

    def test_wrong_table_row_count(self):
        doc = mini_doc()
        doc["nodes"][1]["cpt"] = {"kind": "table", "rows": [[0.9, 0.1]]}
        self.check(doc, "malformed CPT")

    @pytest.mark.parametrize(
        "flaw, violation",
        [
            ("duplicate-value", "duplicate value in variable: B"),
            ("duplicate-parent", "duplicate parent in node B"),
            ("unnormalized-row", "unnormalized row: node B row 1"),
            (
                "branch-coverage",
                "malformed CPT: node B branches on A do not cover its values exactly",
            ),
        ],
    )
    def test_violations_of_a_network_built_in_code(self, flaw, violation):
        leaf = lambda p: Leaf(Distribution((p, 1.0 - p)))
        a, b = Variable("A", ("t", "f")), Variable("B", ("t", "f"))
        parents, cpt = ("A",), Node("A", (("t", leaf(0.9)), ("f", leaf(0.2))))
        if flaw == "duplicate-value":
            b = Variable("B", ("t", "t"))
        elif flaw == "duplicate-parent":
            parents, cpt = ("A", "A"), CptTable(tuple(leaf(0.5).dist for _ in range(4)))
        elif flaw == "unnormalized-row":
            cpt = CptTable((leaf(0.9).dist, Distribution((0.5, 0.6))))
        else:
            cpt = Node("A", (("f", leaf(0.2)), ("t", leaf(0.9))))
        net = Network((a, b), (NodeSpec("A", (), leaf(0.3)), NodeSpec("B", parents, cpt)))
        assert cb.validate(net) == [violation]

    def test_a_node_for_an_undeclared_variable_is_a_violation(self):
        # its arc from A is no arc of the network, so A keeps no child
        leaf = Leaf(Distribution((0.5, 0.5)))
        on_a = Node("A", (("t", leaf), ("f", leaf)))
        nodes = (NodeSpec("A", (), leaf), NodeSpec("Q", ("A",), on_a))
        net = Network((Variable("A", ("t", "f")),), nodes)
        assert cb.validate(net) == ["unknown variable: node Q"]
        assert net.children("A") == ()

    def test_a_second_spec_for_a_variable_is_a_violation(self):
        # the later spec of B is kept, and with it B's parents and A's children
        leaf = Leaf(Distribution((0.5, 0.5)))
        on_a = Node("A", (("t", leaf), ("f", leaf)))
        nodes = (NodeSpec("A", (), leaf), NodeSpec("B", ("A",), on_a), NodeSpec("B", (), leaf))
        net = Network((Variable("A", ("t", "f")), Variable("B", ("t", "f"))), nodes)
        assert cb.validate(net) == ["duplicate node: B"]
        assert net.children("A") == net.parents("B") == ()

    @pytest.mark.parametrize(
        "flaw, violation",
        [
            ("undeclared-node", "unknown variable: node Q"),
            ("undeclared-test", "unknown variable: test Z in node B"),
            ("duplicate-node", "duplicate node: B"),
            (
                "uncovered-branch",
                "malformed CPT: node B branches on A do not cover its values exactly",
            ),
        ],
    )
    def test_a_fault_reads_the_same_from_json_and_from_code(self, flaw, violation):
        leaf = lambda p: Leaf(Distribution((p, 1.0 - p)))
        doc = mini_doc()
        root = doc["nodes"][1]["cpt"]["root"]
        a = NodeSpec("A", (), leaf(0.3))
        b = NodeSpec("B", ("A",), Node("A", (("t", leaf(0.9)), ("f", leaf(0.2)))))
        specs = [a, b]
        if flaw == "undeclared-node":
            doc["nodes"].append({"var": "Q", "parents": [], "cpt": doc["nodes"][0]["cpt"]})
            specs.append(NodeSpec("Q", (), a.cpt))
        elif flaw == "undeclared-test":
            root["test"] = "Z"
            specs[1] = NodeSpec("B", ("A",), Node("Z", b.cpt.branches))
        elif flaw == "duplicate-node":
            doc["nodes"].append(doc["nodes"][1])
            specs.append(b)
        else:
            del root["branches"]["f"]
            specs[1] = NodeSpec("B", ("A",), Node("A", b.cpt.branches[:1]))
        net = Network((Variable("A", ("t", "f")), Variable("B", ("t", "f"))), specs)
        with pytest.raises(cb.NetworkSemanticsError) as err:
            cb.parse_network(json.dumps(doc))
        assert err.value.violations == cb.validate(net) == [violation]

    def test_valid_network_has_no_violations(self, fig1):
        assert cb.validate(fig1) == []

    def test_validation_scans_no_name_tuple_per_tree_node(self, monkeypatch):
        # a test variable is looked up by name, not searched for in the
        # declared names, so validating stays linear in the network's size
        reads = []
        real = Network.var_names
        monkeypatch.setattr(
            Network, "var_names", property(lambda net: reads.append(1) or real.fget(net))
        )
        counts = []
        for n in (50, 400):
            net = windowed_net(np.random.default_rng(5), n)
            reads.clear()
            assert cb.validate(net) == []
            counts.append(len(reads))
        assert counts[0] == counts[1]


class TestContext:
    def test_union_and_restrict(self):
        c = Context({"A": "t"})
        d = c.union({"B": "f"})
        assert dict(d) == {"A": "t", "B": "f"}
        assert dict(c) == {"A": "t"}  # immutable
        assert dict(restrict(d, ["B"])) == {"B": "f"}

    def test_union_conflict_raises(self):
        with pytest.raises(ValueError):
            Context({"A": "t"}).union({"A": "f"})

    def test_consistency(self):
        c = Context({"A": "t"})
        assert c.consistent_with({"A": "t", "B": "f"})
        assert not c.consistent_with({"A": "f"})

    def test_hashable(self):
        assert Context({"A": "t"}) in {Context({"A": "t"})}

    def test_parse_simple(self, fig2):
        ctx = cb.parse_context(fig2, "A=t,B=f")
        assert dict(ctx) == {"A": "t", "B": "f"}
        assert cb.parse_context(fig2, "") == Context()

    def test_parse_names_containing_separators(self, fig2):
        decomposed, _ = cb.decompose_network(fig2)
        ctx = cb.parse_context(decomposed, "X@A=f,B=t=t,A=f")
        assert dict(ctx) == {"X@A=f,B=t": "t", "A": "f"}

    def test_parse_rejects_garbage(self, fig2):
        with pytest.raises(ValueError):
            cb.parse_context(fig2, "Q=t")
        with pytest.raises(ValueError):
            cb.parse_context(fig2, "A=zzz")

    def test_format_sorted(self):
        assert cb.format_context({"B": "f", "A": "t"}) == "A=t,B=f"


class TestTrees:
    def test_lookup_and_metrics(self, fig2):
        tree = as_tree(fig2, "X")
        assert tree_size(tree) == 6
        assert len(list(tree_leaves(tree))) == 6
        assert tree_tested_vars(tree) == {"A", "B", "C", "D"}
        dist = tree_lookup(tree, {"A": "t", "D": "f"})
        assert dist.probs == (0.7, 0.3)

    def test_lookup_unbound_test_raises(self, fig2):
        with pytest.raises(KeyError):
            tree_lookup(as_tree(fig2, "X"), {"A": "t"})

    def test_table_to_tree_matches_rows(self, fig1):
        spec = fig1.node("U")
        parent_vars = [fig1.variable(p) for p in spec.parents]
        tree = table_to_tree(spec.cpt, parent_vars)
        for assignment in parent_assignments(parent_vars):
            row = spec.cpt.rows[row_index(parent_vars, assignment)]
            assert tree_lookup(tree, assignment) == row

    def test_as_tree_passthrough(self, fig2):
        assert as_tree(fig2, "X") is fig2.cpt("X")

    def test_cpt_array_matches_lookup_and_rows(self, fig1, fig2, fig3):
        # fig1 mixes tables and trees; the decomposed fig1 adds multiplexer tables
        nets = (fig1, fig2, fig3, cb.decompose_network(fig1)[0])
        for net in nets:
            for spec in net.nodes:
                parent_vars = [net.variable(p) for p in spec.parents]
                array = cpt_array(net, spec.var)
                assert array.shape == tuple(len(v.values) for v in parent_vars) + (
                    len(net.values(spec.var)),
                )
                tree = as_tree(net, spec.var)
                for assignment in parent_assignments(parent_vars):
                    got = tuple(array[tuple(v.index(assignment[v.name]) for v in parent_vars)])
                    assert got == tree_lookup(tree, assignment).probs
                    if isinstance(spec.cpt, CptTable):
                        assert got == spec.cpt.rows[row_index(parent_vars, assignment)].probs


class TestNetwork:
    def test_accessors(self, fig1):
        assert fig1.children("S") == ("U", "V", "W")
        assert fig1.parents("Z") == ("X", "W")
        assert ("S", "U") in fig1.edges()
        assert skeleton(fig1)["X"] == {"U", "V", "W", "Z"}

    def test_topological_order(self, fig1):
        order = fig1.topological_order()
        pos = {v: i for i, v in enumerate(order)}
        for p, c in fig1.edges():
            assert pos[p] < pos[c]

    def test_unknown_names_raise(self, fig1):
        with pytest.raises(KeyError):
            fig1.variable("nope")
        with pytest.raises(KeyError):
            fig1.node("nope")

    def test_check_context_rejects_bad_values(self, fig1):
        with pytest.raises(ValueError):
            fig1.check_context({"U": "x9"})

    def test_with_nodes_replaces(self):
        net = chain_net()
        new_b = NodeSpec("B", (), Leaf(Distribution((0.5, 0.5))))
        out = net.with_nodes({"B": new_b})
        assert out.parents("B") == ()
        assert net.parents("B") == ("A",)  # original untouched

    def test_equality_is_structural(self):
        assert chain_net() == chain_net()
        assert chain_net() != diamondish()

    def test_equality_counts_duplicate_specs_but_not_spec_order(self):
        # the kept specs agree, but only one network has the violation
        leaf = Leaf(Distribution((0.5, 0.5)))
        a, b = NodeSpec("A", (), leaf), NodeSpec("B", (), leaf)
        on_a = NodeSpec("B", ("A",), Node("A", (("t", leaf), ("f", leaf))))
        variables = (Variable("A", ("t", "f")), Variable("B", ("t", "f")))
        assert Network(variables, (a, on_a, b)) != Network(variables, (a, b))
        assert Network(variables, (a, on_a, b)) == Network(variables, (on_a, a, b))
        assert Network(variables, (b, a)) == Network(variables, (a, b))


def diamondish():
    variables = tuple(Variable(v, ("t", "f")) for v in "ABC")
    leaf = lambda p: Leaf(Distribution((p, 1.0 - p)))
    nodes = (
        NodeSpec("A", (), leaf(0.3)),
        NodeSpec("B", (), leaf(0.8)),
        NodeSpec(
            "C",
            ("A", "B"),
            Node(
                "A",
                (
                    ("t", Node("B", (("t", leaf(0.1)), ("f", leaf(0.6))))),
                    ("f", leaf(0.7)),
                ),
            ),
        ),
    )
    return Network(variables, nodes)


class TestDistribution:
    def test_normalization_check(self):
        assert Distribution((0.25, 0.75)).is_normalized()
        assert not Distribution((0.5, 0.6)).is_normalized()

    def test_variable_index(self):
        v = Variable("A", ("t", "f"))
        assert v.index("f") == 1
        with pytest.raises(ValueError):
            v.index("q")


def test_every_exported_name_resolves():
    missing = [name for name in cb.__all__ if not hasattr(cb, name)]
    assert missing == []
