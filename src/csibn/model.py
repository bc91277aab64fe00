"""Core model: discrete variables, tabular and tree-structured CPTs, JSON I/O.

A network file is a single JSON document::

    {
      "variables": [{"name": "A", "values": ["t", "f"]}, ...],
      "nodes": [
        {"var": "X",
         "parents": ["A", "B"],
         "deterministic": false,
         "cpt": {"kind": "tree", "root": <tree-node>}},
        ...
      ]
    }

where ``<tree-node>`` is either an interior test
``{"test": "A", "branches": {"t": <tree-node>, "f": <tree-node>}}``
or a leaf distribution ``{"leaf": [0.9, 0.1]}``.  A tabular CPT is
``{"kind": "table", "rows": [[...], ...]}`` whose rows run in row-major
order of the declared parent order (first parent varies slowest) and of
each parent's declared value order.  Leaf and row vectors align with the
node variable's declared value order.

:func:`network_from_json` only decodes: it raises on a document of the
wrong shape or types.  :func:`validate` alone judges the model rules
(declared names, one node per variable, parents, branch coverage,
normalization, acyclicity) and lists every violation, for a network read
from JSON or built in code alike.  :func:`parse_network` runs both on a
text, with the process-wide cyclic garbage collector paused meanwhile.
:func:`serialize_network` writes the text straight from the model objects;
:func:`network_to_json` builds the same document as Python objects, for
callers that embed it in a larger one.

Operations return new model objects and never change their inputs.  The
one exception is a ``Network``'s caches, each derived from the network
alone and filled on first use: its compiled numeric form with the cutset
walk's memo of instantiated families, its min-fill triangulation, its clique
tree with the evidence-free messages kept there, and each family's parents
kept in the empty context.  No answer depends on what they hold: an answer
is bit-identical on a fresh network and after any other queries, which the
tests check for every engine that reads them.
"""

from __future__ import annotations

import gc
import itertools
import json
import math
from collections import Counter
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as _quoted
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

NORMALIZATION_TOL = 1e-9


class NetworkFormatError(ValueError):
    """Raised when network JSON cannot be read at all (syntax level)."""


class NetworkSemanticsError(ValueError):
    """Raised when network JSON parses but violates a model invariant."""

    def __init__(self, violations: Sequence[str]):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


@dataclass(frozen=True)
class Variable:
    """A named discrete variable with an ordered, duplicate-free value list."""

    name: str
    values: tuple[str, ...]

    def index(self, value: str) -> int:
        try:
            return self.values.index(value)
        except ValueError:
            raise ValueError(f"{value!r} is not a value of variable {self.name!r}") from None


class Context(Mapping[str, str]):
    """An immutable partial assignment of values to variables.

    Used both for contexts in independence queries and for evidence.
    """

    __slots__ = ("_bindings",)

    def __init__(self, bindings: Mapping[str, str] | Iterable[tuple[str, str]] = ()):
        self._bindings = dict(bindings)

    def __getitem__(self, var: str) -> str:
        return self._bindings[var]

    def __iter__(self) -> Iterator[str]:
        return iter(self._bindings)

    def __len__(self) -> int:
        return len(self._bindings)

    def __repr__(self) -> str:
        inner = ", ".join(f"{v}={x}" for v, x in sorted(self._bindings.items()))
        return f"Context({inner})"

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Mapping):
            return dict(self._bindings) == dict(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(frozenset(self._bindings.items()))

    def union(self, other: Mapping[str, str]) -> "Context":
        """Combined context; rebinding a variable to a different value is an error."""
        merged = dict(self._bindings)
        for var, val in other.items():
            if var in merged and merged[var] != val:
                raise ValueError(f"variable {var!r} bound twice ({merged[var]!r} vs {val!r})")
            merged[var] = val
        return Context(merged)

    def consistent_with(self, assignment: Mapping[str, str]) -> bool:
        return all(assignment.get(v, x) == x for v, x in self._bindings.items())


@dataclass(frozen=True)
class Distribution:
    """A probability vector aligned with a variable's declared value order."""

    probs: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "probs", tuple(map(float, self.probs)))

    def is_normalized(self, tol: float = NORMALIZATION_TOL) -> bool:
        return all(p >= 0.0 for p in self.probs) and abs(sum(self.probs) - 1.0) <= tol


@dataclass(frozen=True)
class Leaf:
    dist: Distribution


@dataclass(frozen=True)
class Node:
    """Interior node of a CPT-tree: tests one parent, one branch per value.

    Branches are stored as ``(value, subtree)`` pairs in the test variable's
    declared value order.
    """

    test: str
    branches: tuple[tuple[str, "CptTree"], ...]

    def branch(self, value: str) -> "CptTree":
        for val, sub in self.branches:
            if val == value:
                return sub
        raise KeyError(f"node testing {self.test!r} has no branch for {value!r}")


CptTree = Leaf | Node


@dataclass(frozen=True)
class CptTable:
    """Flat CPT: one row per full parent assignment, row-major in parent order."""

    rows: tuple[Distribution, ...]


Cpt = CptTree | CptTable


@dataclass(frozen=True)
class NodeSpec:
    """CPT attachment for one variable: parents plus the distribution object."""

    var: str
    parents: tuple[str, ...]
    cpt: Cpt
    deterministic: bool = False


class Network:
    """A directed network over discrete variables with one CPT per variable.

    Construction performs no validation beyond name indexing; use
    :func:`validate` to obtain the list of invariant violations.  Of two
    specs for one variable the later is kept, and only kept specs make arcs.
    """

    def __init__(self, variables: Sequence[Variable], nodes: Sequence[NodeSpec]):
        self._variables: tuple[Variable, ...] = tuple(variables)
        self._by_name: dict[str, Variable] = {v.name: v for v in self._variables}
        self._spec_vars = tuple(n.var for n in nodes)  # one per spec given, for validate
        self._nodes: dict[str, NodeSpec] = {n.var: n for n in nodes}
        children: dict[str, list[str]] = {v.name: [] for v in self._variables}
        for spec in self._nodes.values():
            for p in spec.parents:
                if p in children and spec.var in children:  # an undeclared node is no child
                    children[p].append(spec.var)
        self._children: dict[str, tuple[str, ...]] = {
            v: tuple(cs) for v, cs in children.items()
        }
        self._var_names = tuple(v.name for v in self._variables)
        self._node_specs = tuple(self._nodes[v] for v in self._var_names if v in self._nodes)
        # derived forms, each built on its first use and kept
        self._compiled = None  # inference._compile
        self._triangulation = None  # transform.triangulation
        self._clique_tree = None  # inference.variable_elimination
        self._cutset_walk = None  # inference._Walk, for the last cutset tree
        self._kept_parents = None  # csi._kept_parents

    # -- structure accessors -------------------------------------------------

    @property
    def variables(self) -> tuple[Variable, ...]:
        return self._variables

    @property
    def var_names(self) -> tuple[str, ...]:
        return self._var_names

    @property
    def nodes(self) -> tuple[NodeSpec, ...]:
        return self._node_specs

    def variable(self, name: str) -> Variable:
        try:
            return self._by_name[name]
        except KeyError:
            raise KeyError(f"unknown variable {name!r}") from None

    def values(self, name: str) -> tuple[str, ...]:
        return self.variable(name).values

    def node(self, name: str) -> NodeSpec:
        try:
            return self._nodes[name]
        except KeyError:
            raise KeyError(f"no node for variable {name!r}") from None

    def parents(self, name: str) -> tuple[str, ...]:
        return self.node(name).parents

    def children(self, name: str) -> tuple[str, ...]:
        self.variable(name)
        return self._children.get(name, ())

    def cpt(self, name: str) -> Cpt:
        return self.node(name).cpt

    def edges(self) -> list[tuple[str, str]]:
        return [(p, n.var) for n in self.nodes for p in n.parents]

    def topological_order(self) -> list[str]:
        """Parent-before-child order, stable w.r.t. declared variable order."""
        indeg = {v.name: 0 for v in self._variables}
        for p, c in self.edges():
            if p in indeg and c in indeg:
                indeg[c] += 1
        order = [v for v in self.var_names if indeg[v] == 0]
        for cur in order:  # a queue: children join its end as they become ready
            for child in self.children(cur):
                indeg[child] -= 1
                if indeg[child] == 0:
                    order.append(child)
        if len(order) != len(self._variables):
            raise ValueError("parent relation contains a cycle")
        return order

    def is_acyclic(self) -> bool:
        try:
            self.topological_order()
        except ValueError:
            return False
        return True

    def with_nodes(self, replacements: Mapping[str, NodeSpec]) -> "Network":
        new_nodes = [replacements.get(n.var, n) for n in self.nodes]
        return Network(self._variables, new_nodes)

    def check_context(self, ctx: Mapping[str, str]) -> None:
        """Raise unless every binding names a known variable and value."""
        for var, val in ctx.items():
            self.variable(var).index(val)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Network):
            return NotImplemented
        return (
            self._variables == other._variables
            and self._nodes == other._nodes
            and sorted(self._spec_vars) == sorted(other._spec_vars)  # a duplicate spec counts
        )

    def __repr__(self) -> str:
        return f"Network({len(self._variables)} variables, {len(self.edges())} edges)"


# -- tree operations ---------------------------------------------------------


def tree_size(cpt: Cpt) -> int:
    """Number of entries: leaves of a tree, rows of a table."""
    if isinstance(cpt, CptTable):
        return len(cpt.rows)
    if isinstance(cpt, Leaf):
        return 1
    return sum(tree_size(sub) for _, sub in cpt.branches)


def tree_tested_vars(tree: CptTree) -> set[str]:
    """Variables labelling at least one interior node."""
    if isinstance(tree, Leaf):
        return set()
    out = {tree.test}
    for _, sub in tree.branches:
        out |= tree_tested_vars(sub)
    return out


def tree_lookup(tree: CptTree, assignment: Mapping[str, str]) -> Distribution:
    """Walk the tree under ``assignment``; every tested variable must be bound."""
    while isinstance(tree, Node):
        if tree.test not in assignment:
            raise KeyError(f"assignment does not bind tested variable {tree.test!r}")
        tree = tree.branch(assignment[tree.test])
    return tree.dist


def parent_assignments(parent_vars: Sequence[Variable]) -> Iterator[dict[str, str]]:
    """Full assignments to ``parent_vars`` in row-major order."""
    names = [v.name for v in parent_vars]
    for combo in itertools.product(*(v.values for v in parent_vars)):
        yield dict(zip(names, combo))


def row_index(parent_vars: Sequence[Variable], assignment: Mapping[str, str]) -> int:
    idx = 0
    for var in parent_vars:
        idx = idx * len(var.values) + var.index(assignment[var.name])
    return idx


def table_to_tree(tab: CptTable, parent_order: Sequence[Variable]) -> CptTree:
    """Expand a table into the equivalent full tree in declared parent order."""
    expected = math.prod(len(v.values) for v in parent_order)
    if len(tab.rows) != expected:
        raise ValueError(
            f"table has {len(tab.rows)} rows, expected {expected} for the given parents"
        )
    return _table_subtree(tab.rows, parent_order, 0, 0)


def _table_subtree(
    rows: Sequence[Distribution], parent_order: Sequence[Variable], depth: int, offset: int
) -> CptTree:
    """The full tree over ``parent_order[depth:]`` for the rows from ``offset``."""
    if depth == len(parent_order):
        return Leaf(rows[offset])
    var = parent_order[depth]
    stride = math.prod(len(v.values) for v in parent_order[depth + 1 :])
    branches = tuple(
        (val, _table_subtree(rows, parent_order, depth + 1, offset + i * stride))
        for i, val in enumerate(var.values)
    )
    return Node(var.name, branches)


def as_tree(net: Network, name: str) -> CptTree:
    """The node's CPT in tree form, expanding tables on the fly."""
    spec = net.node(name)
    if isinstance(spec.cpt, CptTable):
        return table_to_tree(spec.cpt, [net.variable(p) for p in spec.parents])
    return spec.cpt


def cpt_array(net: Network, name: str) -> np.ndarray:
    """The node's CPT as a dense array: one axis per parent in declared
    order, then the node's own axis, each in declared value order.

    A tree is walked once, each leaf filling the slice its path selects;
    parents the path does not test span their whole axis.  Branches are
    taken to be in declared value order, as :func:`validate` requires.
    """
    spec = net.node(name)
    cpt, parents = spec.cpt, spec.parents
    shape = tuple(len(net.values(p)) for p in parents) + (len(net.values(name)),)
    if isinstance(cpt, CptTable):
        return np.array([row.probs for row in cpt.rows]).reshape(shape)
    out = np.empty(shape)
    _fill(out, cpt, parents, [slice(None)] * len(parents))
    return out


def _fill(out: np.ndarray, tree: CptTree, parents: tuple[str, ...], index: list) -> None:
    """Assign each leaf of ``tree`` to the slice of ``out`` its path selects;
    ``index`` holds the path so far, one entry per parent."""
    if isinstance(tree, Leaf):
        out[tuple(index)] = tree.dist.probs
        return
    i = parents.index(tree.test)
    for k, (_, sub) in enumerate(tree.branches):
        index[i] = k
        _fill(out, sub, parents, index)
    index[i] = slice(None)


# -- validation --------------------------------------------------------------


def validate(net: Network) -> list[str]:
    """All invariant violations, as stable human-readable strings."""
    violations: list[str] = []
    seen_names: set[str] = set()
    for var in net.variables:
        if var.name in seen_names:
            violations.append(f"duplicate variable: {var.name}")
        seen_names.add(var.name)
        if len(var.values) < 2:
            violations.append(f"degenerate variable: {var.name} has fewer than 2 values")
        if len(set(var.values)) != len(var.values):
            violations.append(f"duplicate value in variable: {var.name}")

    node_vars = net._nodes.keys()  # undeclared ones too, which net.nodes leaves out
    for var in net.variables:
        if var.name not in node_vars:
            violations.append(f"missing node: {var.name}")
    violations += [f"unknown variable: node {v}" for v in node_vars if v not in seen_names]
    violations += [f"duplicate node: {v}" for v, k in Counter(net._spec_vars).items() if k > 1]

    for spec in net.nodes:
        if len(set(spec.parents)) != len(spec.parents):
            violations.append(f"duplicate parent in node {spec.var}")
        unknown = [p for p in spec.parents if p not in seen_names]
        for p in unknown:
            violations.append(f"unknown parent: {p} in node {spec.var}")
        if unknown:
            continue
        violations.extend(_check_cpt(net, spec))

    if not net.is_acyclic():
        violations.append("cycle: parent relation is not acyclic")
    return violations


def _check_cpt(net: Network, spec: NodeSpec) -> list[str]:
    out: list[str] = []
    width = len(net.values(spec.var))
    if isinstance(spec.cpt, CptTable):
        expected = math.prod(len(net.values(p)) for p in spec.parents)
        if len(spec.cpt.rows) != expected:
            out.append(
                f"malformed CPT: node {spec.var} has {len(spec.cpt.rows)} rows, expected {expected}"
            )
        for i, row in enumerate(spec.cpt.rows):
            if len(row.probs) != width:
                out.append(f"malformed CPT: node {spec.var} row {i} has wrong width")
            elif not row.is_normalized():
                out.append(f"unnormalized row: node {spec.var} row {i}")
        return out

    _check_tree(net, spec, width, spec.cpt, (), out)
    return out


def _check_tree(
    net: Network, spec: NodeSpec, width: int, tree: CptTree, path: tuple[str, ...], out: list[str]
) -> None:
    """Append to ``out`` the violations in ``tree``, a subtree of
    ``spec``'s CPT reached by testing the variables in ``path``."""
    if isinstance(tree, Leaf):
        if len(tree.dist.probs) != width:
            out.append(f"malformed CPT: leaf of node {spec.var} has wrong width")
        elif not tree.dist.is_normalized():
            out.append(f"unnormalized leaf: node {spec.var}")
        return
    declared = net._by_name.get(tree.test)
    if declared is None:
        out.append(f"unknown variable: test {tree.test} in node {spec.var}")
    elif tree.test not in spec.parents:
        out.append(f"test not a parent: {tree.test} in node {spec.var}")
    if tree.test in path:
        out.append(f"repeated test on a path: {tree.test} in node {spec.var}")
    if declared and tuple(val for val, _ in tree.branches) != declared.values:
        out.append(
            f"malformed CPT: node {spec.var} branches on {tree.test} "
            f"do not cover its values exactly"
        )
    for _, sub in tree.branches:
        _check_tree(net, spec, width, sub, path + (tree.test,), out)


# -- JSON I/O ----------------------------------------------------------------


def parse_network(text: str) -> Network:
    """Parse and fully validate a network.  Raises :class:`NetworkFormatError`
    on bad JSON syntax, and :class:`NetworkSemanticsError` with the reader's
    one decoding fault or else every violation :func:`validate` finds.

    The cyclic garbage collector, which is process-global, is paused while
    the document is decoded and validated: the parse makes many objects and
    no reference cycles, so each collection would only walk them again.
    Its prior state is restored on return or raise; a caller that has
    disabled it keeps it disabled."""
    if enabled := gc.isenabled():
        gc.disable()
    try:
        net = network_from_json(json.loads(text))
        violations = validate(net)
    except json.JSONDecodeError as exc:
        raise NetworkFormatError(
            f"syntax error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None
    finally:
        if enabled:
            gc.enable()
    if violations:
        raise NetworkSemanticsError(violations)
    return net


def network_from_json(doc: object) -> Network:
    """Decode a parsed JSON document; raises only on a wrong shape or type.
    Branches that cover the test's values are put in declared order, others
    kept as written; :func:`validate` judges every model rule."""
    if not isinstance(doc, dict):
        raise NetworkSemanticsError(["top level must be an object"])
    raw_vars = doc.get("variables")
    raw_nodes = doc.get("nodes")
    if not isinstance(raw_vars, list) or not isinstance(raw_nodes, list):
        raise NetworkSemanticsError(['"variables" and "nodes" must be arrays'])

    variables = []
    for rv in raw_vars:
        if not isinstance(rv, dict) or "name" not in rv or "values" not in rv:
            raise NetworkSemanticsError(["variable entries need name and values"])
        name = _string(rv["name"], "variable: name")
        values = _array_of(rv["values"], str, f"variable: values of {name}")
        variables.append(Variable(name, values))
    values_of = {v.name: v.values for v in variables}

    nodes = []
    for rn in raw_nodes:
        if not isinstance(rn, dict) or "var" not in rn or "cpt" not in rn:
            raise NetworkSemanticsError(["node entries need var and cpt"])
        var = _string(rn["var"], "node: var")
        parents = _array_of(rn.get("parents", []), str, f"node: parents of {var}")
        cpt = _cpt_from_json(rn["cpt"], var, values_of)
        deterministic = rn.get("deterministic", False)
        if not isinstance(deterministic, bool):
            raise NetworkSemanticsError([f"malformed node: deterministic of {var} must be a boolean"])
        nodes.append(NodeSpec(var, parents, cpt, deterministic))
    return Network(variables, nodes)


_NUMBER = (int, float)


def _array_of(raw: object, kind: type | tuple[type, ...], what: str) -> tuple:
    """``raw`` as a tuple, numbers as floats; raises unless it is a JSON array
    of ``kind`` items (booleans are not numbers) that a float can hold."""
    exact = {str} if kind is str else {int, float}
    if isinstance(raw, list) and (
        {*map(type, raw)} <= exact  # one pass in C; the loop admits subclasses such as numpy.float64
        or all(isinstance(x, kind) and not isinstance(x, bool) for x in raw)
    ):
        try:
            return tuple(raw) if kind is str else tuple(map(float, raw))
        except OverflowError:  # an integer literal beyond the float range
            raise NetworkSemanticsError([f"malformed {what} holds a number too large for a float"])
    noun = "strings" if kind is str else "numbers"
    raise NetworkSemanticsError([f"malformed {what} must be an array of {noun}"])


def _string(raw: object, what: str) -> str:
    if isinstance(raw, str):
        return raw
    raise NetworkSemanticsError([f"malformed {what} must be a string"])


def _cpt_from_json(raw: object, var: str, values_of: dict[str, tuple[str, ...]]) -> Cpt:
    if not isinstance(raw, dict) or "kind" not in raw:
        raise NetworkSemanticsError([f"malformed CPT: node {var} needs a kind"])
    kind = raw["kind"]
    if kind == "table":
        rows = raw.get("rows")
        if not isinstance(rows, list):
            raise NetworkSemanticsError([f"malformed CPT: node {var} table needs rows"])
        return CptTable(
            tuple(
                Distribution(_array_of(row, _NUMBER, f"CPT: node {var} row {i}"))
                for i, row in enumerate(rows)
            )
        )
    if kind == "tree":
        return _tree_from_json(raw.get("root"), var, values_of)
    raise NetworkSemanticsError([f"malformed CPT: node {var} has unknown kind {kind!r}"])


def _tree_from_json(raw: object, var: str, values_of: dict[str, tuple[str, ...]]) -> CptTree:
    if not isinstance(raw, dict):
        raise NetworkSemanticsError([f"malformed CPT: node {var} tree entry must be an object"])
    if "leaf" in raw:
        return Leaf(Distribution(_array_of(raw["leaf"], _NUMBER, f"CPT: node {var} leaf")))
    if "test" not in raw or "branches" not in raw:
        raise NetworkSemanticsError([f"malformed CPT: node {var} tree entry needs test/branches"])
    test = _string(raw["test"], f"CPT: node {var} test")
    raw_branches = raw["branches"]
    if not isinstance(raw_branches, dict):
        raise NetworkSemanticsError([f"malformed CPT: node {var} branches must be an object"])
    declared = values_of.get(test, ())
    order = declared if raw_branches.keys() == set(declared) else raw_branches
    branches = tuple((val, _tree_from_json(raw_branches[val], var, values_of)) for val in order)
    return Node(test, branches)


def network_to_json(net: Network) -> dict:
    """The network as the JSON document :func:`parse_network` reads, for
    callers that embed it in a larger document (``decompose --json``);
    :func:`serialize_network` writes the same document's text without it."""
    return {
        "variables": [
            {"name": v.name, "values": list(v.values)} for v in net.variables
        ],
        "nodes": [_node_to_json(spec) for spec in net.nodes],
    }


def _node_to_json(spec: NodeSpec) -> dict:
    out: dict = {"var": spec.var, "parents": list(spec.parents)}
    if spec.deterministic:
        out["deterministic"] = True
    if isinstance(spec.cpt, CptTable):
        out["cpt"] = {"kind": "table", "rows": [list(r.probs) for r in spec.cpt.rows]}
    else:
        out["cpt"] = {"kind": "tree", "root": _tree_to_json(spec.cpt)}
    return out


def _tree_to_json(tree: CptTree) -> dict:
    if isinstance(tree, Leaf):
        return {"leaf": list(tree.dist.probs)}
    return {
        "test": tree.test,
        "branches": {val: _tree_to_json(sub) for val, sub in tree.branches},
    }


def serialize_network(net: Network) -> str:
    """Stable, round-trippable rendering: parse(serialize(n)) == n.  It is
    ``json.dumps(network_to_json(net), indent=2)`` and a newline, written
    straight from the variables, specs and trees, one string per entry,
    without building that document."""
    entries = [
        "{\n      \"name\": " + _quoted(v.name) + ",\n      \"values\": "
        + _array(v.values, _quoted, "\n      ") + "\n    }"
        for v in net.variables
    ]
    nodes = [_node_text(spec) for spec in net.nodes]
    return "".join(
        ('{\n  "variables": ', _array(entries, str, "\n  "),
         ',\n  "nodes": ', _array(nodes, str, "\n  "), "\n}\n")
    )


def _array(items: Sequence, spell, newline: str) -> str:
    """``items``, each spelled by ``spell``, as json.dumps spells an array
    with ``indent=2`` after a line that ends in ``newline``."""
    if not items:
        return "[]"
    inner = newline + "  "
    return "[" + inner + ("," + inner).join(map(spell, items)) + newline + "]"


def _numbers(probs: tuple[float, ...], newline: str) -> str:
    text = _array(probs, float.__repr__, newline)  # json's spelling but for nan and inf
    return text.replace("nan", "NaN").replace("inf", "Infinity") if "n" in text else text


def _node_text(spec: NodeSpec) -> str:
    """One entry of ``"nodes"``, as :func:`serialize_network` writes it."""
    n6, n8 = "\n      ", "\n        "
    parts = ["{" + n6 + '"var": ' + _quoted(spec.var) + "," + n6 + '"parents": '
             + _array(spec.parents, _quoted, n6)]
    if spec.deterministic:
        parts.append("," + n6 + '"deterministic": true')
    if isinstance(spec.cpt, CptTable):
        parts.append("," + n6 + '"cpt": {' + n8 + '"kind": "table",' + n8 + '"rows": '
                     + _array(spec.cpt.rows, lambda r: _numbers(r.probs, n8 + "  "), n8))
    else:
        parts.append("," + n6 + '"cpt": {' + n8 + '"kind": "tree",' + n8 + '"root": ')
        _tree_text(spec.cpt, n8, parts)
    parts.append(n6 + "}\n    }")
    return "".join(parts)


def _tree_text(tree: CptTree, newline: str, parts: list[str]) -> None:
    """Append ``tree`` to ``parts`` as json.dumps spells ``_tree_to_json(tree)``
    with ``indent=2`` after a line that ends in ``newline``."""
    inner = newline + "  "
    if isinstance(tree, Leaf):
        parts.append("{" + inner + '"leaf": ' + _numbers(tree.dist.probs, inner) + newline + "}")
        return
    branches = dict(tree.branches)  # a repeated value keeps its last subtree, as in a dict
    parts.append("{" + inner + '"test": ' + _quoted(tree.test) + "," + inner + '"branches": ')
    deeper = inner + "  "
    lead = "{" + deeper
    for val, sub in branches.items():
        parts.append(lead + _quoted(val) + ": ")
        lead = "," + deeper
        _tree_text(sub, deeper, parts)
    parts.append((inner + "}" if branches else "{}") + newline + "}")


# -- context syntax ----------------------------------------------------------


def parse_context(net: Network, text: str) -> Context:
    """Parse ``"Var=value,Var2=value2"`` against the network's declarations.

    Variable names may themselves contain ``=`` or ``,`` (decomposition
    introduces names like ``X@A=f,B=t``), so bindings are recognized by
    longest-prefix match against declared names rather than naive splitting.
    """
    bindings: dict[str, str] = {}
    text = text.strip()
    if not text:
        return Context()
    names = sorted(net.var_names, key=len, reverse=True)
    i = 0
    while i < len(text):
        if text[i] == ",":
            i += 1
            continue
        var = next((n for n in names if text.startswith(n + "=", i)), None)
        if var is None:
            raise ValueError(
                f"cannot parse binding at {text[i:]!r}: no known variable matches"
            )
        i += len(var) + 1
        j = text.find(",", i)
        val = text[i:] if j < 0 else text[i:j]
        i = len(text) if j < 0 else j
        net.variable(var).index(val)
        if var in bindings and bindings[var] != val:
            raise ValueError(f"variable {var!r} bound twice")
        bindings[var] = val
    return Context(bindings)


def format_context(ctx: Mapping[str, str]) -> str:
    return ",".join(f"{v}={x}" for v, x in sorted(ctx.items()))
