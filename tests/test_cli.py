"""Command-line surface: golden outputs, JSON schemas, exit codes."""

import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from csibn import cutset, fixtures, inference
from csibn.cli import run
from csibn.cutset import build_conditional_cutset
from csibn.inference import Query, cutset_infer
from csibn.model import (
    Context,
    Distribution,
    Leaf,
    Network,
    Node,
    NodeSpec,
    Variable,
    parse_network,
    serialize_network,
)

from conftest import deterministic_diamond_net, disjoint_diamonds

FIG1 = str(fixtures.path("fig1"))
FIG2 = str(fixtures.path("fig2"))
FIG3 = str(fixtures.path("fig3"))
SRC = Path(__file__).resolve().parent.parent / "src"

ERROR_LINE = re.compile(r"^error\[[a-z-]+\]: \S")


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestValidate:
    def test_valid_fixture(self, capsys):
        code, out, err = invoke(capsys, "validate", FIG2)
        assert (code, out, err) == (0, "valid\n", "")

    def test_syntax_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        code, out, err = invoke(capsys, "validate", str(bad))
        assert code == 1
        assert err.startswith("error[format]: syntax error at line 1")

    def test_semantic_errors_listed(self, capsys, tmp_path):
        doc = {
            "variables": [{"name": "A", "values": ["t", "f"]}],
            "nodes": [
                {"var": "A", "parents": [], "cpt": {"kind": "tree", "root": {"leaf": [0.5, 0.6]}}}
            ],
        }
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code, out, err = invoke(capsys, "validate", str(bad))
        assert code == 1
        for line in err.strip().splitlines():
            assert line.startswith("error[semantics]: ")

    @pytest.mark.parametrize(
        "values, cpt",
        [
            (["t", "f"], {"kind": "tree", "root": {"leaf": ["x", 1]}}),
            (["t", "f"], {"kind": "tree", "root": {"leaf": 5}}),
            ("tf", {"kind": "tree", "root": {"leaf": [0.5, 0.5]}}),
            # integers too large for a float raised OverflowError in every command
            (["t", "f"], {"kind": "tree", "root": {"leaf": [10**400, 0.5]}}),
            (["t", "f"], {"kind": "table", "rows": [[0.5, -(10**400)]]}),
        ],
        ids=[
            "leaf-with-string", "leaf-not-array", "values-string", "leaf-huge-int", "row-huge-int"
        ],
    )
    def test_mistyped_fields_are_semantic_errors(self, capsys, tmp_path, values, cpt):
        doc = {
            "variables": [{"name": "A", "values": values}],
            "nodes": [{"var": "A", "parents": [], "cpt": cpt}],
        }
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        for argv in (["validate"], ["infer", "-q", "A"]):
            code, out, err = invoke(capsys, argv[0], str(bad), *argv[1:])
            assert (code, out) == (1, "")
            assert err.startswith("error[semantics]: malformed ")
            assert len(err.splitlines()) == 1
        code, out, err = invoke(capsys, "validate", str(bad), "--json")
        assert (code, json.loads(out)["valid"]) == (1, False)

    @pytest.mark.parametrize(
        "path, bad",
        [
            (("variables", 0, "name"), 7),
            (("nodes", 0, "var"), 7),
            (("nodes", 4, "cpt", "root", "test"), 7),
            (("nodes", 0, "deterministic"), "no"),
        ],
        ids=["name-number", "var-number", "test-number", "deterministic-string"],
    )
    def test_coerced_scalars_are_semantic_errors(self, capsys, tmp_path, path, bad):
        with open(FIG2, encoding="utf-8") as handle:
            doc = json.load(handle)
        target = doc
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = bad
        path_out = tmp_path / "bad.json"
        path_out.write_text(json.dumps(doc))
        code, out, err = invoke(capsys, "validate", str(path_out))
        assert (code, out) == (1, "")
        assert err.startswith("error[semantics]: malformed ")
        assert len(err.splitlines()) == 1

    def test_line_breaks_in_names_are_escaped(self, capsys, tmp_path):
        # a parent named "\r" must not split its error line in two
        with open(FIG1, encoding="utf-8") as handle:
            doc = json.load(handle)
        doc["nodes"][2]["parents"][0] = "\r"
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        for command in ("validate", "cutset"):
            code, out, err = invoke(capsys, command, str(bad))
            assert code == 1
            assert err.splitlines() == ["error[semantics]: unknown parent: \\r in node V"]

    def test_duplicate_node_is_a_semantic_error(self, capsys, tmp_path):
        with open(FIG2, encoding="utf-8") as handle:
            doc = json.load(handle)
        doc["nodes"].append(dict(doc["nodes"][0]))
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code, out, err = invoke(capsys, "validate", str(bad))
        assert (code, out) == (1, "")
        assert err.splitlines() == [f"error[semantics]: duplicate node: {doc['nodes'][0]['var']}"]

    def test_every_violation_is_listed(self, capsys, tmp_path):
        # a node for an undeclared variable and an unnormalized leaf: the
        # reader leaves both to validation, which finds them both
        with open(FIG2, encoding="utf-8") as handle:
            doc = json.load(handle)
        doc["nodes"].append({**doc["nodes"][0], "var": "Q"})
        doc["nodes"][0]["cpt"] = {"kind": "tree", "root": {"leaf": [0.5, 0.6]}}
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        unnormalized = f"error[semantics]: unnormalized leaf: node {doc['nodes'][0]['var']}"
        code, out, err = invoke(capsys, "validate", str(bad))
        assert (code, out) == (1, "")
        assert err.splitlines() == ["error[semantics]: unknown variable: node Q", unnormalized]
        code, out, err = invoke(capsys, "infer", str(bad), "-q", "X")
        assert (code, out) == (1, "")
        assert err.splitlines() == ["error[semantics]: unknown variable: node Q (and 1 more)"]

    def test_json_mode(self, capsys, tmp_path):
        code, out, err = invoke(capsys, "validate", FIG1, "--json")
        doc = json.loads(out)
        assert (code, doc["schema_version"], doc["valid"]) == (0, 1, True)
        assert doc["violations"] == []

    def test_missing_file(self, capsys):
        code, out, err = invoke(capsys, "validate", "/nonexistent/x.json")
        assert code == 1
        assert err.startswith("error[io]: ")

    def test_file_that_is_not_utf8_is_a_format_error(self, capsys, tmp_path):
        # a UTF-16 byte-order mark; the decoder's message, not its codec name
        bad = tmp_path / "bad.json"
        bad.write_bytes(b"\xff\xfe{\x00}\x00")
        for argv in (["validate", str(bad)], ["infer", str(bad), "-q", "Z"]):
            code, out, err = invoke(capsys, *argv)
            assert (code, out) == (1, "")
            assert err.splitlines() == [
                "error[format]: 'utf-8' codec can't decode byte 0xff in position 0: "
                "invalid start byte"
            ]

    def test_file_that_is_not_utf8_is_invalid_under_json(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b"\xff\xfe{\x00}\x00")
        code, out, err = invoke(capsys, "validate", str(bad), "--json")
        assert (code, err) == (1, "")
        assert json.loads(out) == {
            "schema_version": 1,
            "valid": False,
            "violations": [
                "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"
            ],
        }


class TestQuery:
    def test_golden(self, capsys):
        code, out, err = invoke(capsys, "query", FIG2, "-q", "X", "-e", "A=t")
        assert code == 0
        assert out == (
            "X=t: 0.790000\n"
            "X=f: 0.210000\n"
            "evidence probability: 0.600000\n"
        )

    def test_json_round_trip(self, capsys):
        code, out, err = invoke(capsys, "query", FIG2, "-q", "X", "-e", "A=t", "--json")
        doc = json.loads(out)
        assert doc["schema_version"] == 1
        assert doc["method"] == "enum"
        assert doc["posterior"]["t"] == pytest.approx(0.79)
        assert doc["evidence_probability"] == pytest.approx(0.6)
        assert doc["log_evidence_probability"] == pytest.approx(math.log(0.6))
        assert doc["evaluations"] == 1
        assert doc["messages_computed"] == 0

    def test_unknown_target(self, capsys):
        code, out, err = invoke(capsys, "query", FIG2, "-q", "NOPE")
        assert code == 1
        assert err.startswith("error[domain]: ")

    def test_bad_context_value_is_usage_error(self, capsys):
        code, out, err = invoke(capsys, "query", FIG2, "-q", "X", "-e", "A=zzz")
        assert code == 2
        assert err.startswith("error[context]: ")

    def test_variable_bound_twice_is_usage_error(self, capsys):
        code, out, err = invoke(capsys, "query", FIG2, "-q", "X", "-e", "A=t,A=f")
        assert (code, out) == (2, "")
        assert err.splitlines() == ["error[context]: variable 'A' bound twice"]


class TestInfer:
    def test_methods_agree(self, capsys):
        outputs = []
        for method in ("enum", "ve", "cutset"):
            code, out, err = invoke(
                capsys, "infer", FIG1, "-q", "Z", "-e", "S=s2", "--method", method
            )
            assert code == 0
            outputs.append(out)
        assert outputs[0] == outputs[1] == outputs[2]

    def test_cutset_eval_count(self, capsys):
        code, out, err = invoke(
            capsys,
            "infer", FIG1, "-q", "Z", "-e", "S=s2",
            "--method", "cutset", "--count-evals",
        )
        assert code == 0
        assert out.endswith("evaluations: 5\n")

    def test_cutset_json_counts_messages(self, capsys):
        code, out, err = invoke(
            capsys, "infer", FIG1, "-q", "Z", "-e", "S=s2", "--method", "cutset", "--json"
        )
        assert (code, err) == (0, "")
        doc = json.loads(out)
        with open(FIG1) as f:
            net = parse_network(f.read())
        want = cutset_infer(
            net, Query("Z", Context({"S": "s2"})), build_conditional_cutset(net)
        )
        assert doc["evaluations"] == 5
        assert doc["messages_computed"] == want.messages_computed > 0

    def test_polytree_method_rejects_loopy(self, capsys):
        code, out, err = invoke(
            capsys, "infer", FIG1, "-q", "Z", "--method", "polytree"
        )
        assert code == 1
        assert err.startswith("error[not-singly-connected]: ")

    def test_evidence_on_cutset_variable(self, capsys):
        outputs = []
        for method in ("enum", "cutset", "polytree"):
            code, out, err = invoke(
                capsys, "infer", FIG1, "-q", "Z", "-e", "U=t", "--method", method
            )
            assert (code, err) == (0, "")
            assert out.startswith("Z=t: 0.583297\n")
            outputs.append(out)
        assert outputs[0] == outputs[1] == outputs[2]

    def test_polytree_rejects_evidence_that_keeps_the_loop(self, capsys):
        code, out, err = invoke(
            capsys, "infer", FIG1, "-q", "Z", "-e", "U=f", "--method", "polytree"
        )
        assert (code, out) == (1, "")
        assert err.startswith("error[not-singly-connected]: ")

    def test_impossible_evidence(self, capsys, tmp_path):
        path = tmp_path / "det.json"
        path.write_text(serialize_network(deterministic_diamond_net()))
        code, out, err = invoke(
            capsys, "infer", str(path), "-q", "D", "-e", "B=t,C=f", "--method", "ve"
        )
        assert code == 1
        assert err.startswith("error[impossible-evidence]: ")

    def test_clique_over_the_budget_is_one_error_line(self, capsys, monkeypatch):
        # fig1's cliques have 40, 32 and 16 entries
        monkeypatch.setattr(inference, "_MAX_CLIQUE_ENTRIES", 32)
        for argv in (["-e", "S=s2"], ["-e", "S=s2", "--json"], []):
            code, out, err = invoke(capsys, "infer", FIG1, "-q", "Z", "--method", "ve", *argv)
            assert (code, out) == (1, "")
            assert err == "error[too-large]: a clique of 40 entries exceeds the budget of 32\n"
        code, _, err = invoke(capsys, "infer", FIG1, "-q", "Z", "-e", "S=s2", "--method", "cutset")
        assert (code, err) == (0, "")


class TestVacuous:
    def test_spec_examples(self, capsys):
        code, out, err = invoke(capsys, "vacuous", FIG2, "-x", "X", "-c", "A=t")
        assert (code, out) == (0, "B C\n")
        code, out, err = invoke(capsys, "vacuous", FIG2, "-x", "X", "-c", "A=f,B=t")
        assert (code, out) == (0, "C D\n")

    def test_none(self, capsys):
        code, out, err = invoke(capsys, "vacuous", FIG2, "-x", "X", "-c", "")
        assert (code, out) == (0, "(none)\n")

    def test_json(self, capsys):
        code, out, err = invoke(
            capsys, "vacuous", FIG2, "-x", "X", "-c", "A=t", "--json"
        )
        doc = json.loads(out)
        assert doc["vacuous"] == ["B", "C"]
        assert doc["context"] == {"A": "t"}


class TestReduce:
    def test_leaf_golden(self, capsys):
        code, out, err = invoke(capsys, "reduce", FIG2, "-x", "X", "-c", "A=f,B=t")
        assert (code, out) == (0, "[0.300000, 0.700000]\n")

    def test_interior_golden(self, capsys):
        code, out, err = invoke(capsys, "reduce", FIG2, "-x", "X", "-c", "A=t")
        assert code == 0
        assert out == (
            "D?\n"
            "  =t:\n"
            "    [0.900000, 0.100000]\n"
            "  =f:\n"
            "    [0.700000, 0.300000]\n"
        )

    def test_json_tree_shape(self, capsys):
        code, out, err = invoke(
            capsys, "reduce", FIG2, "-x", "X", "-c", "A=t", "--json"
        )
        doc = json.loads(out)
        assert doc["tree"]["test"] == "D"
        assert set(doc["tree"]["branches"]) == {"t", "f"}

    @pytest.mark.parametrize("command", ["reduce", "vacuous"])
    def test_unknown_node_is_domain_error_before_the_context(self, capsys, command):
        # the message infer and dsep give, whatever the context says
        for context in ("A=t", "bogus"):
            code, out, err = invoke(capsys, command, FIG2, "-x", "Q", "-c", context)
            assert (code, out, err) == (1, "", "error[domain]: unknown variable 'Q'\n")


class TestSeparation:
    def test_dsep(self, capsys):
        code, out, err = invoke(capsys, "dsep", FIG1, "-X", "U", "-Y", "V", "-Z", "S")
        assert (code, out) == (0, "d-separated: yes\n")
        code, out, err = invoke(capsys, "dsep", FIG1, "-X", "U", "-Y", "V")
        assert (code, out) == (0, "d-separated: no\n")

    def test_csisep(self, capsys):
        code, out, err = invoke(
            capsys, "csisep", FIG2, "-X", "X", "-Y", "B,C", "-c", "A=t"
        )
        assert (code, out) == (0, "csi-separated: yes\n")

    def test_json(self, capsys):
        code, out, err = invoke(
            capsys, "dsep", FIG1, "-X", "U", "-Y", "V", "-Z", "S", "--json"
        )
        doc = json.loads(out)
        assert doc["separated"] is True
        assert doc["z"] == ["S"]

    def test_csisep_json(self, capsys):
        code, out, err = invoke(
            capsys, "csisep", FIG2, "-X", "X", "-Y", "B,C", "-c", "A=t", "--json"
        )
        assert code == 0
        assert json.loads(out) == {
            "schema_version": 1,
            "x": ["X"],
            "y": ["B", "C"],
            "z": [],
            "context": {"A": "t"},
            "separated": True,
        }

    def test_unknown_variable(self, capsys):
        code, out, err = invoke(capsys, "dsep", FIG1, "-X", "Q", "-Y", "V")
        assert code == 1
        assert err.startswith("error[domain]: ")

    @pytest.mark.parametrize("command", ["dsep", "csisep"])
    def test_empty_x_or_y_is_usage_error(self, capsys, command):
        # both once answered "yes" about the empty set
        for flag, x, y in (("-X", ",", "Z"), ("-Y", "U", " "), ("-X", "", "")):
            code, out, err = invoke(capsys, command, FIG1, "-X", x, "-Y", y)
            assert (code, out) == (2, "")
            assert err.splitlines() == [f"error[usage]: {flag} names no variable"]
        code, out, err = invoke(capsys, command, FIG1, "-X", "U", "-Y", "V", "-Z", ",")
        assert code == 0


class TestDecompose:
    def test_human_report(self, capsys):
        code, out, err = invoke(capsys, "decompose", FIG3)
        assert code == 0
        assert out.startswith(
            "X: 32 tabular entries (8 tree leaves) -> 16 after decomposition\n"
            "  X@A=t <- B1, B2 (entries: 4)\n"
            "  X@A=f <- B3, B4 (entries: 4)\n"
            "  multiplexer X: 8 rows\n"
        )

    def test_output_file_parses(self, capsys, tmp_path):
        target = tmp_path / "out.json"
        code, out, err = invoke(capsys, "decompose", FIG2, "-o", str(target))
        assert code == 0
        assert f"wrote {target}" in out
        net = parse_network(target.read_text())
        assert "X@A=f,B=f,C=f" in net.var_names

    def test_json_document(self, capsys):
        code, out, err = invoke(capsys, "decompose", FIG2, "--json")
        doc = json.loads(out)
        assert doc["schema_version"] == 1
        assert [r["node"] for r in doc["reports"]] == ["X", "X@A=f", "X@A=f,B=f"]
        assert {n["var"] for n in doc["network"]["nodes"]} >= {"X", "X@A=t"}

    def test_nothing_to_decompose(self, capsys, tmp_path):
        # every CPT of a decomposed network is a table or a full tree
        once = tmp_path / "once.json"
        assert invoke(capsys, "decompose", FIG3, "-o", str(once))[0] == 0
        code, out, err = invoke(capsys, "decompose", str(once))
        assert code == 0
        assert out == "nothing to decompose\n---\n" + once.read_text()

    def test_unwritable_output_is_io_error(self, capsys, tmp_path):
        code, out, err = invoke(capsys, "decompose", FIG2, "-o", str(tmp_path))
        assert code == 1
        assert err.startswith("error[io]: ")

    @pytest.mark.parametrize("command", ["decompose", "cliques"])
    def test_name_collision_is_domain_error(self, capsys, tmp_path, command):
        # splitting X on its root test A would name a conditional node X@A=t,
        # which the network already declares
        leaf = {"leaf": [0.5, 0.5]}
        doc = {
            "variables": [{"name": v, "values": ["t", "f"]} for v in ("A", "B", "X", "X@A=t")],
            "nodes": [
                {"var": "A", "cpt": {"kind": "tree", "root": leaf}},
                {"var": "B", "cpt": {"kind": "tree", "root": leaf}},
                {"var": "X@A=t", "cpt": {"kind": "tree", "root": leaf}},
                {
                    "var": "X",
                    "parents": ["A", "B"],
                    "cpt": {
                        "kind": "tree",
                        "root": {
                            "test": "A",
                            "branches": {
                                "t": leaf,
                                "f": {"test": "B", "branches": {"t": leaf, "f": leaf}},
                            },
                        },
                    },
                },
            ],
        }
        path = tmp_path / "collide.json"
        path.write_text(json.dumps(doc))
        assert invoke(capsys, "validate", str(path)) == (0, "valid\n", "")
        code, out, err = invoke(capsys, command, str(path))
        assert code == 1
        assert out == ""
        assert err == "error[domain]: decomposition name collision: 'X@A=t' already declared\n"


class TestCliques:
    def test_human(self, capsys):
        code, out, err = invoke(capsys, "cliques", FIG2)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "before: max clique weight 5.000000, total table weight 32.000000"
        assert lines[2].startswith("after: max clique weight 4.000000")

    def test_json(self, capsys):
        code, out, err = invoke(capsys, "cliques", FIG2, "--json")
        doc = json.loads(out)
        assert doc["before"]["max_clique_weight"] == pytest.approx(5.0)
        assert doc["after"]["max_clique_weight"] == pytest.approx(4.0)

    def test_json_does_not_depend_on_the_hash_seed(self, tmp_path):
        # one clique whose log2 arities round differently when summed in
        # different orders, while a clique's names iterate in hash order
        arity = {"A": 3, "B": 5, "C": 7, "D": 11, "E": 13, "F": 6}
        leaf = lambda k: Leaf(Distribution((1.0 / k,) * k))
        variables = [Variable(v, tuple(f"{v}{i}" for i in range(k))) for v, k in arity.items()]
        nodes = [NodeSpec(v, (), leaf(k)) for v, k in arity.items() if v != "F"]
        nodes.append(NodeSpec("F", tuple("ABCDE"), leaf(6)))
        path = tmp_path / "wide.json"
        path.write_text(serialize_network(Network(variables, nodes)))
        outs = set()
        for seed in ("1", "2"):
            proc = subprocess.run(
                [sys.executable, "-m", "csibn.cli", "cliques", str(path), "--json"],
                env=dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=str(SRC)),
                capture_output=True,
                text=True,
                timeout=60,
            )
            assert proc.returncode == 0, proc.stderr
            outs.add(proc.stdout)
        assert len(outs) == 1
        weight = json.loads(outs.pop())["before"]["max_clique_weight"]
        assert weight == math.fsum(math.log2(k) for k in arity.values())


class TestCutset:
    def test_human(self, capsys):
        code, out, err = invoke(capsys, "cutset", FIG1)
        assert code == 0
        assert out.startswith("U\n")
        assert out.endswith("branches: 5\n")

    def test_json(self, capsys):
        code, out, err = invoke(capsys, "cutset", FIG1, "--json")
        doc = json.loads(out)
        assert doc["branches"] == 5
        assert doc["tree"]["test"] == "U"

    def test_counts_branches_without_listing_them(self, capsys, monkeypatch):
        def listed(tree):
            raise AssertionError("branch_contexts called")

        monkeypatch.setattr(cutset, "branch_contexts", listed)
        assert invoke(capsys, "cutset", FIG1)[1].endswith("branches: 5\n")
        assert json.loads(invoke(capsys, "cutset", FIG1, "--json")[1])["branches"] == 5

    def test_too_deep_a_tree_is_one_error_line(self, capsys, monkeypatch, tmp_path):
        # a flat cutset over a 1,200-variable chain nests 1,200 levels: deeper
        # than the recursion limit lets a recursive walk or json's encoder go
        names = [f"V{i}" for i in range(1200)]
        leaf = lambda p: Leaf(Distribution((p, 1.0 - p)))
        nodes = [NodeSpec("V0", (), leaf(0.5))] + [
            NodeSpec(v, (u,), Node(u, (("t", leaf(0.8)), ("f", leaf(0.3)))))
            for u, v in zip(names, names[1:])
        ]
        net = Network(tuple(Variable(v, ("t", "f")) for v in names), tuple(nodes))
        flat = cutset.flat_cutset(net, names)
        assert cutset.count_branches(flat) == 2**1200
        assert cutset.cutset_variables(flat) == set(names)
        path = tmp_path / "chain.json"
        path.write_text(serialize_network(net))
        monkeypatch.setattr(
            cutset, "build_conditional_cutset", lambda net: cutset.flat_cutset(net, net.var_names)
        )
        infer = ["infer", "-q", "V1199", "--method", "cutset"]
        for argv in (["cutset"], ["cutset", "--json"], infer):
            code, out, err = invoke(capsys, argv[0], str(path), *argv[1:])
            assert (code, out) == (1, "")
            assert err.startswith("error[too-deep]: ") and err.count("\n") == 1, err


    def test_deep_tree_of_disjoint_diamonds_answers(self, capsys, tmp_path):
        # each diamond adds a level to the cutset tree: 520 of them made the
        # walk, at two frames per level, exit 1 with error[too-deep]
        path = tmp_path / "diamonds.json"
        path.write_text(serialize_network(disjoint_diamonds(520)))
        docs = {}
        for method in ("cutset", "ve"):
            argv = ["infer", str(path), "-q", "D0", "--method", method, "--json"]
            code, out, err = invoke(capsys, *argv)
            assert (code, err) == (0, "")
            docs[method] = json.loads(out)
        for key in ("t", "f"):
            assert math.isclose(
                docs["cutset"]["posterior"][key], docs["ve"]["posterior"][key], abs_tol=1e-9
            )
        assert math.isclose(
            docs["cutset"]["evidence_probability"], docs["ve"]["evidence_probability"], abs_tol=1e-9
        )


class TestContract:
    def test_usage_errors_exit_2(self, capsys):
        code, out, err = invoke(capsys, "bogus-subcommand")
        assert code == 2
        assert ERROR_LINE.match(err.splitlines()[0])
        code, out, err = invoke(capsys, "query", FIG2)  # missing -q
        assert code == 2

    def test_error_lines_have_stable_prefix(self, capsys):
        cases = [
            ("validate", "/nonexistent/x.json"),
            ("query", FIG2, "-q", "NOPE"),
            ("query", FIG2, "-q", "X", "-e", "Q=t"),
        ]
        for argv in cases:
            code, out, err = invoke(capsys, *argv)
            assert code in (1, 2)
            assert ERROR_LINE.match(err.splitlines()[0]), err

    def test_byte_identical_reruns(self, capsys):
        first = invoke(capsys, "cutset", FIG1, "--json")
        second = invoke(capsys, "cutset", FIG1, "--json")
        assert first == second
