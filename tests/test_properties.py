"""Property tests on generated networks: the JSON round trip, and agreement
of variable elimination and cutset conditioning with enumeration, before and
after decomposition; answers that do not depend on a network's history; and
the CLI contract on mutated network documents."""

import contextlib
import copy
import io
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from csibn import fixtures
from csibn.cli import run
from csibn.cutset import (
    CutsetNode,
    EmptyLeaf,
    build_conditional_cutset,
    cutset_variables,
    flat_cutset,
)
from csibn.inference import (
    ImpossibleEvidenceError,
    NotSinglyConnectedError,
    Query,
    cutset_infer,
    query_enumerate,
    variable_elimination,
)
from csibn.model import (
    Context,
    CptTable,
    Distribution,
    Leaf,
    Network,
    Node,
    NodeSpec,
    Variable,
    network_to_json,
    parent_assignments,
    parse_network,
    serialize_network,
    tree_lookup,
    tree_tested_vars,
)
from csibn.transform import decompose_network


@st.composite
def distributions(draw, width: int) -> Distribution:
    """Integer weights 0-9, zeros included, so some evidence is impossible."""
    weights = draw(
        st.lists(st.integers(0, 9), min_size=width, max_size=width).filter(any)
    )
    return Distribution(tuple(w / sum(weights) for w in weights))


@st.composite
def cpt_trees(draw, pool: list[Variable], width: int, root: bool = True):
    """A tree testing variables of ``pool``, each at most once per path;
    below the root a branch may stop early, so trees are often not full."""
    if not pool or (not root and draw(st.booleans())):
        return Leaf(draw(distributions(width)))
    test = draw(st.sampled_from(pool))
    rest = [v for v in pool if v is not test]
    return Node(
        test.name,
        tuple((val, draw(cpt_trees(rest, width, root=False))) for val in test.values),
    )


@st.composite
def networks(draw, any_names: bool = False, max_vars: int = 5) -> Network:
    """2 to ``max_vars`` variables of 2-3 values in topological order; each
    node's parents are the earlier variables its tree tests, and some nodes
    carry the equivalent table instead of the tree.  With ``any_names``,
    variable and value names are arbitrary strings and some nodes are marked
    deterministic; otherwise names are plain and no node is."""
    n = draw(st.integers(2, max_vars))
    text = st.text(min_size=1, max_size=4)
    if any_names:
        names = draw(st.lists(text, min_size=n, max_size=n, unique=True))
    else:
        names = [f"V{i}" for i in range(n)]
    variables = []
    for name in names:
        if any_names:
            values = draw(st.lists(text, min_size=2, max_size=3, unique=True))
        else:
            values = [f"v{k}" for k in range(draw(st.integers(2, 3)))]
        variables.append(Variable(name, tuple(values)))
    nodes = []
    for i, var in enumerate(variables):
        pool = draw(st.lists(st.sampled_from(variables[:i]), unique=True, max_size=3)) if i else []
        tree = draw(cpt_trees(pool, len(var.values)))
        tested = tree_tested_vars(tree)
        parents = [v for v in variables[:i] if v.name in tested]
        cpt = tree
        if parents and draw(st.booleans()):
            cpt = CptTable(tuple(tree_lookup(tree, a) for a in parent_assignments(parents)))
        deterministic = any_names and draw(st.booleans())
        nodes.append(NodeSpec(var.name, tuple(p.name for p in parents), cpt, deterministic))
    return Network(tuple(variables), tuple(nodes))


@settings(max_examples=100, deadline=None)
@given(networks(any_names=True))
def test_serialize_then_parse_is_identity(net):
    text = serialize_network(net)
    parsed = parse_network(text)
    assert parsed == net
    assert serialize_network(parsed) == text


# a non-ASCII variable name, a quote and a backslash in value names, a
# non-ASCII test and an integer probability
_ESCAPED = Network(
    (Variable("Ä\u2028", ('"q', "é\\")), Variable("Z", ("t", "f"))),
    (
        NodeSpec("Ä\u2028", (), Leaf(Distribution((1, 0)))),
        NodeSpec(
            "Z",
            ("Ä\u2028",),
            Node(
                "Ä\u2028",
                (
                    ('"q', Leaf(Distribution((0.25, 0.75)))),
                    ("é\\", Leaf(Distribution((1e-300, 1.0)))),
                ),
            ),
        ),
    ),
)


# empty arrays and objects, which json writes as "[]" and "{}" on one line
_A = Variable("A", ("t", "f"))
_EMPTY = Network((), ())
_ZERO_ROWS = Network((_A,), (NodeSpec("A", (), CptTable(())),))
_NO_BRANCHES = Network((_A,), (NodeSpec("A", ("A",), Node("A", ())),))


@settings(max_examples=100, deadline=None)
@given(networks(any_names=True))
@example(_ESCAPED)
@example(_EMPTY)
@example(_ZERO_ROWS)
@example(_NO_BRANCHES)
def test_serialized_text_is_json_dumps_indent_2(net):
    """``serialize_network`` writes what json's indenting encoder writes for
    ``network_to_json``, byte for byte."""
    assert serialize_network(net) == json.dumps(network_to_json(net), indent=2) + "\n"


def _states(net: Network) -> int:
    return math.prod(len(v.values) for v in net.variables)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_engines_agree_with_enumeration(data):
    """``ve`` and ``cutset`` (over the greedy conditional cutset, and over a
    flat cutset on its variables and the target, which binds the target on
    every branch) give the enumeration answer to 1e-9, on the network and on
    its decomposed form, which keeps the joint over the original variables;
    impossible evidence raises in every engine."""
    net = data.draw(networks())
    names = list(net.var_names)
    target = data.draw(st.sampled_from(names))
    evidence = {}
    for name in data.draw(st.lists(st.sampled_from(names), unique=True)):
        if name != target:
            evidence[name] = data.draw(st.sampled_from(net.values(name)))
    query = Query(target, Context(evidence))
    decomposed, _ = decompose_network(net)
    # enumeration on the decomposed form only where it stays cheap
    forms = [(net, True), (decomposed, _states(decomposed) <= 4096)]
    try:
        want = query_enumerate(net, query)
    except ImpossibleEvidenceError:
        want = None
    for form, enumerate_it in forms:
        greedy = build_conditional_cutset(form)
        bound = flat_cutset(form, sorted(cutset_variables(greedy) | {target}))
        engines = [
            lambda: variable_elimination(form, query),
            lambda: cutset_infer(form, query, greedy),
            lambda: cutset_infer(form, query, bound),
        ]
        if enumerate_it:
            engines.append(lambda: query_enumerate(form, query))
        for engine in engines:
            if want is None:
                with pytest.raises(ImpossibleEvidenceError):
                    engine()
                continue
            got = engine()
            np.testing.assert_allclose(got.posterior.probs, want.posterior.probs, atol=1e-9)
            assert got.evidence_probability == pytest.approx(want.evidence_probability, abs=1e-9)


def _cutset_answer(net: Network, query: Query, tree):
    """The cutset result's fields, or the name of the inference error raised."""
    try:
        got = cutset_infer(net, query, tree)
    except (ImpossibleEvidenceError, NotSinglyConnectedError) as exc:
        return type(exc).__name__
    return got.posterior, got.evidence_probability, got.evaluations, got.messages_computed


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_cutset_answer_does_not_depend_on_history(data):
    """A cutset query on a network that has served other queries, with
    evidence that may bind cutset variables, is answered bit for bit as on a
    freshly parsed copy: what the network keeps between queries depends on
    nothing but the network."""
    net = data.draw(networks())
    names = list(net.var_names)
    tree = build_conditional_cutset(net)

    def query() -> Query:
        target = data.draw(st.sampled_from(names))
        bound = data.draw(st.lists(st.sampled_from(names), unique=True))
        return Query(
            target,
            Context({v: data.draw(st.sampled_from(net.values(v))) for v in bound if v != target}),
        )

    for _ in range(data.draw(st.integers(1, 4))):
        _cutset_answer(net, query(), tree)
    asked = query()
    fresh = parse_network(serialize_network(net))
    assert _cutset_answer(net, asked, tree) == _cutset_answer(fresh, asked, tree)


def _ve_answer(net: Network, query: Query):
    """The VE result, or the name of the inference error raised."""
    try:
        return variable_elimination(net, query)
    except ImpossibleEvidenceError as exc:
        return type(exc).__name__


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_ve_answer_does_not_depend_on_history(data):
    """A VE query on a network that has served other queries, which left
    messages out of evidence-free subtrees kept on it, is answered bit for
    bit as on a freshly parsed copy, before and after decomposition."""
    net = data.draw(networks(max_vars=7))
    if data.draw(st.booleans()):
        net, _ = decompose_network(net)
    names = list(net.var_names)

    def query() -> Query:
        target = data.draw(st.sampled_from(names))
        bound = data.draw(st.lists(st.sampled_from(names), unique=True))
        return Query(
            target,
            Context({v: data.draw(st.sampled_from(net.values(v))) for v in bound if v != target}),
        )

    for _ in range(data.draw(st.integers(1, 6))):
        _ve_answer(net, query())
    asked = query()
    fresh = parse_network(serialize_network(net))
    got, want = _ve_answer(net, asked), _ve_answer(fresh, asked)
    assert got == want
    if not isinstance(got, str):
        assert got.posterior.probs == want.posterior.probs
        assert got.log_evidence_probability == want.log_evidence_probability


def _unshared(tree):
    """A copy of a cutset tree with every node rebuilt, so no two arcs share
    a subtree object."""
    if isinstance(tree, EmptyLeaf):
        return tree
    return CutsetNode(tree.test, tuple((values, _unshared(child)) for values, child in tree.arcs))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_shared_subtrees_answer_as_unshared_ones(data):
    """A cutset answer over the builder's tree, whose equal subtrees are one
    object, is bit for bit the answer over a copy with every node rebuilt,
    with the same counters, and so is one over a flat cutset, whose arcs
    all share their subtree: a reused subtree sum replays a sum computed in
    the same order, so any difference means its key misses some state."""
    net = data.draw(networks(max_vars=7))
    names = list(net.var_names)
    target = data.draw(st.sampled_from(names))
    bound = data.draw(st.lists(st.sampled_from(names), unique=True))
    query = Query(
        target,
        Context({v: data.draw(st.sampled_from(net.values(v))) for v in bound if v != target}),
    )
    fresh = parse_network(serialize_network(net))
    flat = flat_cutset(net, data.draw(st.lists(st.sampled_from(names), unique=True, max_size=4)))
    for tree in (build_conditional_cutset(net), flat):
        assert _cutset_answer(net, query, tree) == _cutset_answer(fresh, query, _unshared(tree))


FIG1_DOC = json.loads(fixtures.path("fig1").read_text())

JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 10**6),
    st.floats(),
    st.text(max_size=6),
    st.lists(st.integers(-1, 3), max_size=3),
    st.dictionaries(st.text(max_size=3), st.integers(0, 2), max_size=2),
)


def _locations(doc, at=()) -> list[tuple]:
    """The key path of every value nested in ``doc``'s lists and dicts."""
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        return []
    out = []
    for key, value in items:
        out.append(at + (key,))
        out += _locations(value, at + (key,))
    return out


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_mutated_documents_keep_the_cli_contract(data):
    """fig1's document with one or two fields deleted or replaced by junk:
    every command exits 0, 1 or 2 without raising, and every stderr line is
    an ``error[...]`` line, never a traceback."""
    doc = copy.deepcopy(FIG1_DOC)
    for _ in range(data.draw(st.integers(1, 2))):
        *path, key = data.draw(st.sampled_from(_locations(doc)))
        holder = doc
        for step in path:
            holder = holder[step]
        if data.draw(st.booleans()):
            del holder[key]
        else:
            holder[key] = data.draw(JUNK)
    with tempfile.TemporaryDirectory() as tmp:
        file = str(Path(tmp) / "net.json")
        Path(file).write_text(json.dumps(doc))
        for argv in (
            ["validate", file],
            ["infer", file, "-q", "Z", "-e", "U=t"],
            ["cutset", file],
            ["cliques", file],
            ["decompose", file],
        ):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = run(argv)
            assert code in (0, 1, 2), argv
            assert "Traceback" not in err.getvalue()
            assert all(line.startswith("error[") for line in err.getvalue().splitlines()), argv
