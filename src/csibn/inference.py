"""Exact inference: enumeration, variable elimination, polytree solving,
and conditional-cutset conditioning.

Every engine answers the same question -- a posterior over one target
variable given evidence -- and reports the unnormalized evidence
probability alongside.  ``query_enumerate`` is the ground truth the other
engines are tested against.  All engines are deterministic: identical
inputs produce bit-identical results because every summation runs in a
fixed order.  Each result also carries the natural log of the evidence
probability, which variable elimination and the forest solver keep finite
where the probability itself underflows, by rescaling with powers of two.

The numeric engines share one integer-indexed compiled form of a network:
variable indices, parent and child index tuples, one read-only CPT array per
family, each family's CPT as a tree, and a memo of instantiated families.  A
network builds it on its first query and keeps it.  Variable elimination is
one collect pass toward the target on a clique tree of the maximal cliques
of the network's min-fill triangulation (:func:`~csibn.transform.triangulation`),
both built once and kept: each message is one einsum whose subscripts
depend on its directed edge alone, the evidence is sliced out of the
operands on its paths to the target instead of multiplied in, and a message
out of a subtree without evidence is kept on the network for every later
query and sliced where it enters those paths.  The
polytree and cutset engines share one forest solver, run by one private walk
object on its own copies of the cached compiled lists.  The evidence and
each cutset branch are contexts, instantiated in place by one per-family
step whose result -- kept parents and table -- depends only on the values
bound on the family's variables and is memoized on the network.  The
walk moves a batch of branches at once, one frame per cutset-tree level: the
values of a tested variable that reach one child node and leave its children
the same kept parents share one visit, its arcs and components, and one
solve per component, the members' tables stacked on a leading axis.  Before
a batch descends into a subtree its members are deduplicated on what the
subtree can see, and each member keeps its own power-of-two exponent.  A
component that no binding below a cutset-tree node can change is weighed
once, at that node, and each subtree sum is computed once per query for each
state of the components it can see, so equal subtrees, which the cutset
builder shares, share it.
"""

from __future__ import annotations

import math
from operator import itemgetter
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping

import numpy as np

from . import cutset as cutset_mod
# nothing here calls reduce_network, but benches/tracing.py wraps this module's name
from .csi import instantiate_family, reduce_network  # noqa: F401
from .model import (
    Context,
    CptTable,
    Distribution,
    Network,
    as_tree,
    cpt_array,
    parent_assignments,
    row_index,
    tree_lookup,
)
from .transform import triangulation


class ImpossibleEvidenceError(ValueError):
    """The evidence has probability zero under the network."""


class NotSinglyConnectedError(ValueError):
    """The network's undirected skeleton contains a cycle."""


@dataclass(frozen=True)
class Query:
    """A posterior request: one target variable, evidence not binding it."""

    target: str
    evidence: Context

    def __post_init__(self):
        if self.target in self.evidence:
            raise ValueError(f"target {self.target!r} is bound by the evidence")


_NO_STATS: Mapping[str, int] = MappingProxyType({})


@dataclass(frozen=True)
class InferenceResult:
    """A posterior and the evidence probability, with counters of the work
    done.  ``stats`` is a read-only mapping of engine-specific counters
    (empty for an engine that keeps none); it takes no part in equality."""

    posterior: Distribution
    evidence_probability: float
    evaluations: int
    log_evidence_probability: float
    messages_computed: int = 0
    stats: Mapping[str, int] = field(default_factory=lambda: _NO_STATS, compare=False)


def joint_probability(net: Network, assignment: Mapping[str, str]) -> float:
    """P(assignment) for a full assignment to every network variable."""
    missing = [v for v in net.var_names if v not in assignment]
    if missing:
        raise ValueError(f"assignment does not bind {missing[0]!r}")
    net.check_context(assignment)
    prob = 1.0
    for spec in net.nodes:
        var = net.variable(spec.var)
        if isinstance(spec.cpt, CptTable):
            parent_vars = [net.variable(p) for p in spec.parents]
            dist = spec.cpt.rows[row_index(parent_vars, assignment)]
        else:
            dist = tree_lookup(spec.cpt, assignment)
        prob *= dist.probs[var.index(assignment[spec.var])]
    return prob


def query_enumerate(net: Network, query: Query) -> InferenceResult:
    """Posterior by brute-force summation over all full assignments."""
    net.check_context(query.evidence)
    target_var = net.variable(query.target)
    weights = [0.0] * len(target_var.values)
    for assignment in parent_assignments(net.variables):
        if not query.evidence.consistent_with(assignment):
            continue
        weights[target_var.index(assignment[query.target])] += joint_probability(
            net, assignment
        )
    return _finish(weights, evaluations=1)


def _finish(
    weights, evaluations: int, exponent: int = 0, messages: int = 0, stats: Mapping = _NO_STATS
) -> InferenceResult:
    """Normalize ``weights``, which hold the unnormalized posterior times
    ``2 ** -exponent``."""
    total = float(sum(weights))
    if total <= 0.0:
        raise ImpossibleEvidenceError("evidence has probability zero")
    return InferenceResult(
        posterior=Distribution(tuple(w / total for w in weights)),
        evidence_probability=math.ldexp(total, exponent),
        evaluations=evaluations,
        log_evidence_probability=math.log(total) + exponent * math.log(2.0),
        messages_computed=messages,
        stats=stats,
    )


# -- compiled form -----------------------------------------------------------


def _compile(net: Network) -> tuple:
    """The integer-indexed form both numeric engines run on: each variable's
    index in declared order, its parents' and children's index tuples, its
    family's :func:`cpt_array` (parent axes in declared order, then its own
    axis; not writeable), each family's CPT in tree form, and the cutset
    walk's memo of instantiated families (see :meth:`_Walk.family`).  It
    depends on the network alone, so it is built on the first call and kept
    on the network, which it does not refer to."""
    if net._compiled is None:
        index = {v: i for i, v in enumerate(net.var_names)}
        parents = tuple(tuple(index[p] for p in net.parents(v)) for v in index)
        children = tuple(tuple(index[c] for c in net.children(v)) for v in index)
        tables = tuple(cpt_array(net, v) for v in index)
        for table in tables:
            table.flags.writeable = False
        trees = tuple(as_tree(net, v) for v in index)
        net._compiled = index, parents, children, tables, trees, {}
    return net._compiled


def _scaled(array: np.ndarray) -> tuple[np.ndarray, int]:
    """``array`` divided by the power of two that brings its largest entry
    into [0.5, 1), and that power's exponent.  Exact in binary floating
    point, so it changes no quotient of normal numbers."""
    peak = float(array.max())
    if peak <= 0.0:
        return array, 0
    _, exponent = math.frexp(peak)
    return (np.ldexp(array, -exponent) if exponent else array), exponent


# -- variable elimination on a clique tree ------------------------------------

# np.einsum takes at most 31 operands under numpy 1.x
_MAX_OPERANDS = 31
# einsum subscript letters; a clique of more variables would need 2**52 entries
_LETTERS = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
# the index of an unobserved variable's axis
_ALL = slice(None)


class _CliqueTree:
    """The network's clique tree, and the messages that depend on it alone.

    Its nodes, each variable's ``home`` and each node's link toward its
    root (``up``) are the join tree of the network's min-fill triangulation
    (:func:`~csibn.transform.triangulation`), one tree per connected
    component; this class keeps only the numeric parts on top of it.

    Each family's array goes to the home of its first-eliminated member (the
    family's ``owner``).  Every edge of the triangulation lies in a family
    or in an eliminated node's clique, so each variable of a clique is held
    by a family there or by two of its neighbors: no message sums over or
    onto a variable that none of its operands holds.  The einsum subscripts
    of a message depend on its directed edge alone, and those of a root's
    product on its node, whatever the evidence: they are built on first use
    and kept in ``plans``, and :meth:`send` deletes the observed letters at
    call time.  A message out of a subtree that holds no evidence depends
    on the network alone, so ``messages`` keeps it, with its power-of-two
    exponent, once computed; one pass, :meth:`collect`, computes every
    message a query needs.  Each node's clique is kept in elimination
    order, and ``root`` maps each node to its tree's root.  ``excess``
    counts, for the subtree below each node, the families there less the
    variables whose home is there; see :meth:`barren`.
    """

    def __init__(self, net: Network):
        _, parents, _, tables = _compile(net)[:4]
        _, rank, cliques, home, up = triangulation(net)
        cliques = tuple(tuple(sorted(clique, key=rank.__getitem__)) for clique in cliques)
        near: list[list] = [[] for _ in cliques]
        self.seps: dict[tuple, tuple] = {}
        for a, b in enumerate(up):
            if b >= 0:
                near[a].append(b)
                near[b].append(a)
                self.seps[a, b] = self.seps[b, a] = tuple(v for v in cliques[a] if v in cliques[b])
        self.near = tuple(tuple(sorted(ns)) for ns in near)
        first = rank.__getitem__
        self.owner = tuple(home[min(family + (v,), key=first)] for v, family in enumerate(parents))
        owned = [[] for _ in cliques]
        for v, a in enumerate(self.owner):
            owned[a].append(v)
        self.home, self.up, self.cliques = home, up, cliques
        homed = [sum(home[v] == a for v in c) for a, c in enumerate(cliques)]
        self.root = root = list(range(len(cliques)))
        downward = [a for a, b in enumerate(up) if b < 0]
        for a in downward:
            for c in self.near[a]:
                if c != up[a]:
                    root[c] = root[a]
                    downward.append(c)
        self.excess = excess = [len(fs) - n for fs, n in zip(owned, homed)]
        for a in reversed(downward):
            if up[a] >= 0:
                excess[up[a]] += excess[a]
        self.arity = arity = [table.shape[-1] for table in tables]
        self.families = tuple(tuple(parents[v] + (v,) for v in vs) for vs in owned)
        self.tables = tuple(tuple(tables[v] for v in vs) for vs in owned)
        self.sizes = tuple(math.prod(arity[v] for v in clique) for clique in cliques)
        self.plans: dict[tuple, tuple] = {}
        self.messages: dict[tuple, tuple] = {}

    def region(self, root: int, sources) -> set:
        """The nodes on the tree paths from each of ``sources`` to ``root``,
        all in ``root``'s tree: each source climbs ``up`` until it meets a
        node climbed before or ``root``'s own path to its tree's root, and the
        region is the climbed nodes and that path up to its highest meeting."""
        up, path = self.up, [root]
        while up[path[-1]] >= 0:
            path.append(up[path[-1]])
        on_path, region, top = {a: i for i, a in enumerate(path)}, set(), 0
        for a in sources:
            while a not in region and a not in on_path:
                region.add(a)
                a = up[a]
            top = max(top, on_path.get(a, 0))
        return region.union(path[: top + 1])

    def plan(self, a: int, skip: int) -> tuple:
        """The einsum steps of node ``a``'s product, taking in the messages
        from every neighbor but ``skip``: each step's subscripts and operand
        count.  The last sums onto the separator with ``skip``; a root's
        (``skip`` -1) leaves its output to :meth:`send`.  No step takes more
        than ``_MAX_OPERANDS``; each but the last multiplies the leading
        operands into one."""
        letter = dict(zip(self.cliques[a], _LETTERS))
        spell = lambda vs: "".join([letter[v] for v in vs])
        terms = [spell(vs) for vs in self.families[a]]
        terms += [spell(self.seps[a, c]) for c in self.near[a] if c != skip]
        steps = []
        while len(terms) > _MAX_OPERANDS:
            keep = "".join(dict.fromkeys("".join(terms[:_MAX_OPERANDS])))
            steps.append((",".join(terms[:_MAX_OPERANDS]) + "->" + keep, _MAX_OPERANDS))
            terms[:_MAX_OPERANDS] = [keep]
        out = spell(self.seps[a, skip]) if skip >= 0 else ""
        steps.append((",".join(terms) + "->" + out, len(terms)))
        return tuple(steps)

    def send(self, a: int, skip: int, out: tuple, evidence: Mapping, incoming: list) -> tuple:
        """Node ``a``'s product, summed onto ``out``, of its family arrays and
        the ``incoming`` messages (from every neighbor but ``skip``, -1 for
        none, in neighbor order) given ``evidence``, a value index by
        variable, rescaled by a power of two; returns it and its exponent,
        theirs included.  The evidence is sliced out: each family array that
        holds an observed variable is indexed at its value and the
        variable's letter is deleted from the subscripts, so the product
        never spans it; the messages come in without those axes.  The plan
        is keyed on the edge, or on ``a`` for a root, whose ``out`` letters
        are appended here."""
        steps = self.plans.get((a, skip))
        if steps is None:
            steps = self.plans[a, skip] = self.plan(a, skip)
        operands = [*self.tables[a]]
        exponent = 0
        for vec, shift in incoming:
            operands.append(vec)
            exponent += shift
        seen = evidence.keys() & self.cliques[a] if evidence else None
        if seen:
            for i, vs in enumerate(self.families[a]):
                if not seen.isdisjoint(vs):
                    operands[i] = operands[i][tuple([evidence.get(v, _ALL) for v in vs])]
            for v in seen:
                letter = _LETTERS[self.cliques[a].index(v)]
                steps = [(subscripts.replace(letter, ""), count) for subscripts, count in steps]
        if skip < 0:
            letters = "".join([_LETTERS[self.cliques[a].index(v)] for v in out])
            steps = [*steps[:-1], (steps[-1][0] + letters, steps[-1][1])]
        for subscripts, count in steps[:-1]:
            table, shift = _scaled(np.einsum(subscripts, *operands[:count]))
            operands[:count] = [table]
            exponent += shift
        table, shift = _scaled(np.einsum(steps[-1][0], *operands))
        return table, exponent + shift

    def enter(self, c: int, a: int, evidence: Mapping) -> tuple:
        """The kept message from ``c`` to ``a`` and its exponent, indexed at
        the ``evidence`` on their separator."""
        vec, shift = self.messages[c, a]
        if evidence.keys().isdisjoint(self.seps[c, a]):
            return vec, shift
        return vec[tuple([evidence.get(v, _ALL) for v in self.seps[c, a]])], shift

    def barren(self, c: int, a: int) -> bool:
        """Whether the message from ``c`` to ``a`` is all ones when no
        evidence lies on ``c``'s side: that side's families are exactly those
        of the variables it sums out, which are then closed under children
        and sum out to 1 (Shachter, Oper. Res. 34, 1986).  It holds at least
        those families, and a tree holds as many families as homes."""
        if self.up[c] == a:
            return not self.excess[c]
        return self.excess[a] == len(self.seps[a, c])

    def collect(self, root: int, sources, out: tuple, evidence: Mapping, stats: dict) -> tuple:
        """``root``'s product over ``out`` given ``evidence`` (a value index
        by variable), with its exponent, by one post-order pass over the
        directed edges toward ``root``, without recursion.  A message out of
        a node on the paths from ``sources`` (the homes of the evidence in
        ``root``'s tree) to ``root`` has the evidence sliced out and serves
        this query alone; a kept message is sliced where it enters those
        paths.  Any other comes out of a subtree without evidence: it is
        taken from ``messages``, or kept there as a read-only view of 1.0 if
        barren, or computed once over its whole separator and kept.  Adds to
        ``stats`` the messages computed and those taken or kept into the
        paths, and widens its largest clique and width to the paths'
        cliques, counted whole."""
        near, seps, messages = self.near, self.seps, self.messages
        region = self.region(root, sources)
        sent: dict[tuple, tuple] = {}
        computed = cached = 0
        stack = [(root, -1, False)]
        while stack:
            a, b, ready = stack.pop()
            inside = a in region
            if ready:
                if inside:
                    take = lambda c: sent[c, a] if c in region else self.enter(c, a, evidence)
                    incoming = [take(c) for c in near[a] if c != b]
                    sent[a, b] = self.send(a, b, seps[a, b] if b >= 0 else out, evidence, incoming)
                else:
                    incoming = [messages[c, a] for c in near[a] if c != b]
                    messages[a, b] = self.send(a, b, seps[a, b], {}, incoming)
                computed += b >= 0
                continue
            stack.append((a, b, True))
            for c in near[a]:
                if c == b:
                    continue
                if c in region or not ((c, a) in messages or self.barren(c, a)):
                    stack.append((c, a, False))
                    continue
                if (c, a) not in messages:
                    shape = tuple(self.arity[v] for v in seps[c, a])
                    messages[c, a] = np.broadcast_to(1.0, shape), 0
                cached += inside
        stats["computed_messages"] += computed
        stats["cached_messages"] += cached
        largest = max(self.sizes[a] for a in region)
        widest = max(len(self.cliques[a]) for a in region) - 1
        stats["largest_factor"] = max(stats["largest_factor"], largest)
        stats["induced_width"] = max(stats["induced_width"], widest)
        return sent[root, -1]


def variable_elimination(net: Network, query: Query) -> InferenceResult:
    """Posterior by one collect pass toward the target on the network's
    clique tree (Lauritzen & Spiegelhalter, JRSS B 50, 1988; Shafer &
    Shenoy, Ann. Math. AI 2, 1990), reproducible bit for bit.

    The tree (:class:`_CliqueTree`) is built once per network from its
    min-fill triangulation and kept beside the compiled form, and the root
    is the node that holds the target's own family.  One post-order pass
    over the directed edges toward the root computes every message the
    query needs, each by one einsum over its node's family arrays and
    incoming messages.  Those on the tree paths from each evidence
    variable's home to the root serve this query alone, and the evidence
    enters them by slicing: every operand there that holds an observed
    variable is indexed at its value, so no product spans an observed
    variable's axis.  Every other message into those paths comes out of a
    subtree without evidence; it depends on the network alone, so it is
    computed the first time a query needs it and kept, unless it sums out
    to 1, and it is sliced where it enters the paths.  Each other connected
    component that holds evidence is collected to its own root, and the
    probability of its evidence multiplies into the answer.  Every
    message, every root's product and every partial product of a node with
    more than ``_MAX_OPERANDS`` operands is rescaled by a power of two whose
    exponent is carried, so evidence of tiny but non-zero probability does
    not underflow to an impossible-evidence error.  ``stats`` holds
    ``largest_factor``, the entries of the largest clique on those paths,
    counted over all of its variables, and ``induced_width``, its variables
    less one, which the kept messages do not change; and the messages the
    query computed (``computed_messages``) and took from those kept
    (``cached_messages``).
    """
    net.check_context(query.evidence)
    index = _compile(net)[0]
    if net._clique_tree is None:
        net._clique_tree = _CliqueTree(net)
    tree = net._clique_tree
    evidence, sources = {}, {}
    for name, value in query.evidence.items():
        v = index[name]
        evidence[v] = net.values(name).index(value)
        sources.setdefault(tree.root[tree.home[v]], []).append(tree.home[v])
    target = index[query.target]
    root = tree.owner[target]
    counters = ("largest_factor", "induced_width", "computed_messages", "cached_messages")
    stats = dict.fromkeys(counters, 0)
    homes = sources.pop(tree.root[root], ())
    weights, exponent = tree.collect(root, homes, (target,), evidence, stats)
    for other in sorted(sources):
        scale, shift = tree.collect(other, sources[other], (), evidence, stats)
        weights, rescale = _scaled(weights * scale)
        exponent += shift + rescale
    return _finish([float(w) for w in weights], 1, exponent, stats=MappingProxyType(stats))


# -- forest solver and cutset conditioning -----------------------------------


def _scaled_rows(array: np.ndarray) -> tuple:
    """:func:`_scaled` for each row of a 2-D ``array``, one per member of a
    batch, with a vector of exponents; a 1-D ``array`` is one row."""
    if array.ndim == 1:
        return _scaled(array)
    _, exponent = np.frexp(array.max(axis=1))
    return np.ldexp(array, -exponent[:, None]), exponent


def _stacked(arrays: list) -> np.ndarray:
    """``arrays`` on a leading member axis, or the one array they all are."""
    return arrays[0] if all(a is arrays[0] for a in arrays) else np.array(arrays)


def _picker(indices):
    """A function of a row that returns its entries at ``indices``, hashable."""
    return itemgetter(*indices) if indices else lambda row: ()


def _solve_component(root: int, parents, children, table, bound):
    """Unnormalized belief vector at ``root`` over its singly connected
    component, times ``2 ** -exponent``; returns it, the exponent and the
    number of messages computed.

    One collect pass toward ``root``: a breadth-first order, then each node's
    π/λ message to its neighbor on the root side, in reverse order, each
    rescaled by a power of two; the belief at ``root`` is left to the
    caller, which multiplies it further, to rescale.  A λ message out of a
    subtree holding no observed node (one whose ``bound`` entry is not 0,
    its own axis sliced to its value) is all ones, so neither it nor any
    message feeding only it is computed.  ``table(v)`` is node ``v``'s table,
    read only for the nodes the pass computes at.  Tables may carry a leading
    member axis, one row per member of a batch; the messages then carry it
    too, and each row its own exponent.
    """
    up, order = {root: None}, [root]
    for v in order:
        for w in parents[v] + children[v]:
            if w not in up:
                up[w] = v
                order.append(w)
    informed = set()  # nodes whose subtree away from the root is observed
    for v in reversed(order):
        if bound[v] or v in informed:
            informed.update((v, up[v]))
    needed = {root}
    for v in order[1:]:
        if up[v] in needed and (v in informed or up[v] in children[v]):
            needed.add(v)
    msg, exponent = {}, 0
    for v in reversed(order):
        if v not in needed:
            continue
        u, own = up[v], len(parents[v])
        operands = [table(v), [..., *range(own + 1)]]
        lams = [msg[c] for c in children[v] if c != u and c in msg]
        if lams:  # multiplied first, so no einsum takes more operands than numpy allows
            operands += [math.prod(lams[1:], start=lams[0]), [..., own]]
        for i, p in enumerate(parents[v]):
            if p != u:
                operands += [msg[p], [..., i]]
        out = parents[v].index(u) if u in parents[v] else own
        vec = np.einsum(*operands, [..., out])
        if u is None:  # the root's belief, which the caller rescales
            return vec, exponent, len(needed) - 1
        msg[v], shift = _scaled_rows(vec)
        exponent = exponent + shift


def solve_singly_connected(net: Network, query: Query) -> InferenceResult:
    """Exact posterior for networks that are singly connected once the
    evidence is instantiated: :func:`cutset_infer` with the empty cutset.
    Evidence that makes arcs vacuous can thus break the loops they closed.
    Its ``stats`` are :func:`cutset_infer`'s.  Raises
    :class:`NotSinglyConnectedError` when a cycle is left.
    """
    return cutset_infer(net, query, cutset_mod.EMPTY)


class _Walk:
    """One cutset-conditioning query: the network's cached compiled form,
    instantiated in place by the evidence and then along a depth-first walk
    of the cutset tree, both by one per-family step, :meth:`family`.

    It moves a *batch* of branches at once, one :meth:`visit` frame per
    cutset-tree level.  A batch's ``rows`` hold each member's bound values by
    variable (1 + value index, or 0), and its members bind the same variables
    and leave every family the same kept parents, so the arcs, the connected
    components and ``excess`` (arcs minus nodes plus components, 0 exactly
    when every component is a tree) are the batch's.  :meth:`family` is the
    one source of an instantiated family: the kept parents the evidence and
    each binding leave, and the tables a component is solved with, per
    member (:meth:`weight`).  It holds its own copies of the compiled parents
    and children, restored from the undo record; the network keeps the
    below-sets (the cutset variables each distinct node's subtree tests) and
    the branch count of the last tree queried.  Two per-query
    memos are keyed, member by member, on a component and the values bound
    on the cutset variables it sees (:meth:`seen`), which fix the arcs and
    tables inside it: its weight and, with a cutset-tree node and ``excess``,
    the node's subtree sum.
    """

    def __init__(self, net: Network, query: Query, ct: "cutset_mod.CutsetTree"):
        index, parents, children, tables, self.trees, self.families = _compile(net)
        self.declared, self.compiled_tables = parents, tables
        # instantiate changes these two in place, so the walk holds its own lists
        self.parents, self.children = list(parents), list(children)
        self.names = names = net.var_names
        self.index = index
        self.values = values = [net.values(v) for v in names]
        self.evidence = [0] * len(names)  # the one member before any binding
        self.target = index[query.target]
        # components still to weigh: the target's, then the evidence's
        self.pending = [self.target] + [index[v] for v in sorted(query.evidence)]
        for x in self.pending[1:]:
            self.evidence[x] = values[x].index(query.evidence[names[x]]) + 1
        # every family, evidence-free ones too: a declared parent its tree
        # never tests drops here
        self.excess = sum(map(len, parents)) - len(names)
        self.pickers = [_picker(family + (c,)) for c, family in enumerate(parents)]
        kept = [self.family(c, self.evidence)[0] for c in range(len(names))]
        self.instantiate(range(len(names)), kept, [])
        self.reduced_parents = tuple(self.parents)  # under the evidence alone
        # kept on the network for the last tree queried: below-sets and the
        # branch count
        if net._cutset_walk is None or net._cutset_walk[0] is not ct:
            self.below: dict[int, frozenset] = {}
            self.index_tree(ct)
            net._cutset_walk = ct, self.below, cutset_mod.count_branches(ct)
        _, self.below, self.evaluations = net._cutset_walk
        self.cutset = self.below[id(ct)]
        self.component = [frozenset()] * len(names)
        self.interned: dict[frozenset, frozenset] = {}
        self.partitions = 0  # component searches run
        self.partition(range(len(names)))
        self.sees: dict[frozenset, tuple] = {}
        self.weights: dict[tuple, tuple] = {}
        self.sums: dict[tuple, tuple] = {}
        self.messages = self.visits = 0

    def index_tree(self, tree: "cutset_mod.CutsetTree") -> None:
        """Record in ``below``, by ``id``, the indices of the variables each
        distinct node of ``tree`` tests.  Raises ``ValueError`` unless each
        node tests a variable of the network, its arcs cover that variable's
        values, each once, and its test is not tested again beneath it, where
        a batch would hold both its values."""
        below = self.below
        for node in cutset_mod._distinct_nodes(tree):
            if isinstance(node, cutset_mod.EmptyLeaf):
                below[id(node)] = frozenset()
                continue
            if node.test not in self.index:
                raise ValueError(f"cutset node {node.test!r} tests no variable of the network")
            x = self.index[node.test]
            covered = [value for values, _ in node.arcs for value in values]
            if sorted(covered) != sorted(self.values[x]):
                raise ValueError(
                    f"cutset node {node.test!r} has arcs for {covered}, "
                    f"not for each of {list(self.values[x])} once"
                )
            beneath = frozenset().union(*(below[id(child)] for _, child in node.arcs))
            if x in beneath:
                raise ValueError(f"cutset node {node.test!r} is tested again beneath itself")
            below[id(node)] = beneath | {x}

    def partition(self, nodes) -> None:
        """Make each connected component of ``nodes`` under the current arcs
        its nodes' component, one object per query however often it recurs,
        counting each in ``excess``."""
        parents, children, component = self.parents, self.children, self.component
        self.partitions += 1
        left = set(nodes)
        while left:
            part = [left.pop()]
            for v in part:
                for w in parents[v] + children[v]:
                    if w in left:
                        left.remove(w)
                        part.append(w)
            part = frozenset(part)
            part = self.interned.setdefault(part, part)
            self.excess += 1
            for v in part:
                component[v] = part

    def seen(self, part: frozenset) -> tuple:
        """The cutset variables ``part`` depends on -- those in it, and the
        parents its nodes keep once the evidence is instantiated -- and a
        :func:`_picker` of a member's values on them, which fix the arcs and
        tables inside ``part``."""
        hit = self.sees.get(part)
        if hit is None:
            reach = part.union(*(self.reduced_parents[v] for v in part))
            sees = tuple(sorted(self.cutset.intersection(reach)))
            hit = self.sees[part] = sees, _picker(sees)
        return hit

    def family(self, c: int, row: list) -> tuple:
        """Family ``c``'s kept parents and read-only table under the values
        ``row`` binds on its declared parents and on ``c`` itself.

        The pair depends on those values alone, so it is memoized on the
        network.  A miss takes the kept parents from the family step every CSI
        consumer shares, :func:`~csibn.csi.instantiate_family`, and indexes the
        compiled table once: at a bound parent's value, at 0 on a dropped
        unbound one, along which it is constant, and at ``k:k+1`` on its own
        axis if ``c`` is bound to value ``k``, which keeps a batch's shapes equal."""
        hit = self.families.get((c, self.pickers[c](row)))
        if hit is None:
            names, values, family = self.names, self.values, self.declared[c]
            at = [row[p] for p in family]
            context = {names[p]: values[p][b - 1] for p, b in zip(family, at) if b}
            _, tested = instantiate_family(self.trees[c], tuple(names[p] for p in family), context)
            kept = tuple(p for p in family if names[p] in tested)
            cut = [b - 1 if b else slice(None) if p in kept else 0 for p, b in zip(family, at)]
            cut.append(slice(row[c] - 1, row[c]) if row[c] else slice(None))
            # contiguous, so a solve rounds alike whether or not it stacks it
            table = np.ascontiguousarray(self.compiled_tables[c][tuple(cut)])
            table.flags.writeable = False
            hit = self.families[c, self.pickers[c](row)] = kept, table
        return hit

    def instantiate(self, families, kept_parents, saved: list) -> None:
        """Give each family its kept parents, dropping every parent it no
        longer tests, and record the undo in ``saved``."""
        parents, children = self.parents, self.children
        for c, kept in zip(families, kept_parents):
            family = parents[c]
            if len(kept) == len(family):  # kept parents only ever shrink
                continue
            saved.append((parents, c, family))
            for p in family:
                if p not in kept:
                    saved.append((children, p, children[p]))
                    children[p] = tuple([q for q in children[p] if q != c])
            parents[c] = kept
            self.excess -= len(family) - len(kept)

    def bind(self, x: int, kept: tuple) -> list:
        """Instantiate ``x``, which every member binds, its children keeping
        ``kept``; returns the undo record (``excess`` is the caller's to
        restore).  Each child of ``x`` loses the arc from ``x`` and every
        other arc its reduced tree no longer needs.  Every dropped arc lies
        in ``x``'s component, which is then split again."""
        saved: list = []
        if not self.children[x]:
            return saved
        self.excess -= 1
        self.instantiate(self.children[x], kept, saved)
        saved.append((self.component, slice(None), self.component[:]))  # all at once
        self.partition(self.component[x])
        return saved

    def weight(self, part: frozenset, rows: list) -> list:
        """For each member of ``rows``, ``part``'s belief vector at the
        target, a list, if it holds the target, else its total weight, with
        its power-of-two exponent.  The members whose keys miss the memo are
        solved together, one per key, each table the solve reads taken per
        member from :meth:`family` and stacked on a leading member axis
        (:func:`_stacked`); a bound target's belief, of length 1, goes back at
        its value in a vector of zeros."""
        memo, (_, pick) = self.weights, self.seen(part)
        keys = [(part, pick(row)) for row in rows]
        todo = {key: row for key, row in zip(keys, rows) if key not in memo}
        if not todo:
            return [memo[key] for key in keys]
        rows = list(todo.values())
        table = lambda v: _stacked([self.family(v, row)[1] for row in rows])
        root = self.target if self.target in part else min(part)
        vec, shifts, n = _solve_component(root, self.parents, self.children, table, rows[0])
        self.messages += n * len(rows)
        # a result without a member axis is every member's
        vecs = vec.tolist() if vec.ndim > 1 else [vec.tolist()] * len(rows)
        exps = shifts.tolist() if isinstance(shifts, np.ndarray) else [shifts] * len(rows)
        for (key, row), vec, exponent in zip(todo.items(), vecs, exps):
            if root != self.target:
                vec, shift = math.frexp(sum(vec))
                exponent += shift
            elif row[root]:
                vec, (value,) = [0.0] * len(self.values[root]), vec
                vec[row[root] - 1] = value
            memo[key] = vec, exponent
        return [memo[key] for key in keys]

    def settle(self, pending: list, below: frozenset, rows: list) -> tuple:
        """Weigh each component of ``pending`` disjoint from ``below``, which
        no binding beneath can change; returns the indices whose components
        are still pending, and, for each member of ``rows``, the product of
        the weights: the target's vector (None unless weighed), a scale and an
        exponent.  While a cycle is left, a component that is not a tree
        stays pending."""
        component, target, parents = self.component, self.target, self.parents
        factors = [(None, 1.0, 0)] * len(rows)
        left, done = [], set()
        for i in pending:
            part = component[i]
            if part in done:
                continue
            if not part.isdisjoint(below) or (
                self.excess and sum(len(parents[v]) for v in part) != len(part) - 1
            ):
                left.append(i)  # every index: a binding beneath may split part
                continue
            done.add(part)
            out = []
            for (vec, scale, exponent), (weight, shift) in zip(factors, self.weight(part, rows)):
                if target in part:
                    vec, exponent = weight, exponent + shift
                else:
                    scale, rescale = math.frexp(scale * weight)
                    exponent += shift + rescale
                out.append((vec, scale, exponent))
            factors = out
        return left, factors

    def visit(self, tree: "cutset_mod.CutsetTree", pending: list, rows: list) -> list:
        """For each member of the batch ``rows``, the sum over ``tree``'s live
        branches, those that agree with the evidence, of the product of the
        weights of ``pending``'s components, as ``(value, exponent)``, or None
        for zero; the value is a list over the target's values if the target's
        component is pending, else a scalar.

        A leaf weighs every component.  A node weighs the components its
        subtree cannot change once, then adds up its branches, each binding its
        value of the tested variable ``x``, in canonical branch order; the
        branches that reach one child node and leave ``x``'s children the same
        kept parents are one batch, bound and visited once.  A node's sum
        depends only on the node, ``excess`` (so a hit skips no leaf that would
        find a cycle) and the components that are pending or hold a variable
        its subtree tests, each with the values the member binds on what it
        sees; it is memoized on those, the components ordered by id, and one
        member per key that misses descends."""
        self.visits += 1
        component, below, sums = self.component, self.below[id(tree)], self.sums
        pending, factors = self.settle(pending, below, rows)
        if isinstance(tree, cutset_mod.EmptyLeaf):
            if self.excess:
                raise NotSinglyConnectedError("network skeleton contains an undirected cycle")
            totals = [(1.0, 0)] * len(rows)
        else:
            parts = {component[i] for i in pending}.union(component[x] for x in below)
            head = (id(tree), self.excess, *sorted(parts, key=id))
            pick = _picker([x for part in head[2:] for x in self.seen(part)[0]])
            keys = [(head, pick(row)) for row in rows]
            todo = {key: row for key, row in zip(keys, rows) if key not in sums}
            if todo:
                x, members, groups = self.index[tree.test], [], {}
                children = self.children[x]
                for arc_values, child in tree.arcs:
                    for value in arc_values:
                        k = self.values[x].index(value)
                        if self.evidence[x] not in (0, k + 1):  # the evidence binds x otherwise
                            continue
                        for row in todo.values():
                            row = row[:]
                            row[x] = k + 1
                            kept = tuple([self.family(c, row)[0] for c in children])
                            group = groups.setdefault((id(child), kept), (child, []))
                            group[1].append(len(members))
                            members.append(row)
                terms = [None] * len(members)
                for (_, kept), (child, batch) in groups.items():
                    excess, saved = self.excess, self.bind(x, kept)
                    batch_rows = [members[i] for i in batch]
                    for i, term in zip(batch, self.visit(child, pending + [x], batch_rows)):
                        terms[i] = term
                    self.excess = excess
                    for store, i, old in reversed(saved):
                        store[i] = old
                for m, key in enumerate(todo):
                    total = None
                    for term in terms[m :: len(todo)]:  # the member's branches in order
                        if term is None or total is None:
                            total = total or term
                            continue
                        # align the smaller exponent's value to the larger
                        (a, a_exp), (b, b_exp) = total, term
                        if a_exp < b_exp:
                            (a, a_exp), (b, b_exp) = term, total
                        if isinstance(b, list):
                            total = [p + math.ldexp(q, b_exp - a_exp) for p, q in zip(a, b)], a_exp
                        else:
                            total = a + math.ldexp(b, b_exp - a_exp), a_exp
                    sums[key] = total
            totals = [sums[key] for key in keys]
        out = []
        for (vec, scale, exponent), total in zip(factors, totals):
            if total is not None:
                value, shift = total
                if vec is not None:  # the target's vector, weighed here
                    value, scale = vec, value * scale
                vector = isinstance(value, list)
                # scaling by a positive number keeps the largest entry largest
                peak, rescale = math.frexp((max(value) if vector else value) * scale)
                value = [math.ldexp(v * scale, -rescale) for v in value] if vector else peak
                total = (value, exponent + shift + rescale) if peak else None
            out.append(total)
        return out


def cutset_infer(net: Network, query: Query, ct: "cutset_mod.CutsetTree") -> InferenceResult:
    """Posterior by conditioning on the branches of a conditional cutset.

    One private ``_Walk`` object copies the network's cached compiled form
    and instantiates the evidence in place, by the per-family step that
    instantiates cutset branches too: a family's kept parents and table
    depend only on the values bound on its declared parents and on itself,
    so they are memoized on the network.  A depth-first walk of the cutset
    tree, one frame per level, binds each arc value in place and undoes it on
    the way back.  Binding ``X`` removes arcs only inside ``X``'s component, so only
    that component is split again; a count of the arcs beyond a spanning
    forest tells a leaf whether a cycle is left.

    The walk moves branches in batches.  The values of a tested variable
    that lead to one child node (a grouped arc such as ``={t,f}``, or a flat
    cutset's shared child) and leave its children the same kept parents are
    bound together and walk that child once; a value whose kept parents
    differ forms its own batch, so a batch of one is the plain walk.  A
    batch shares its arcs and components, and each component is solved once
    for all the members that need it, their tables stacked on a leading
    member axis.  Two rules keep this exact and bounded: before a batch
    descends into a subtree, its members are deduplicated on the values that
    subtree can see, so it never holds more members than the unbatched walk
    would visit there; and every member carries its own power-of-two
    exponent.

    A branch's weight is the target component's belief vector times the
    total weight of every other component holding an evidence or bound
    variable; this is recursive conditioning (Darwiche, AIJ 126, 2001).  A
    component that holds none of the variables a subtree can still bind is
    weighed once, at the subtree's root; one that is not a tree stays
    pending, for the leaf's cycle check.  Each component weight is solved
    once per query for each binding it can see -- the values bound on its
    nodes and on their parents once the evidence is instantiated -- and each
    subtree sum once per distinct node, cycle count and state of the
    components it can see or change, so equal subtrees, which the builder
    shares, share their sums.  Sums and weights carry power-of-two
    exponents, so tiny evidence probabilities do not underflow, and each
    member adds its branches in canonical branch order.  A branch
    contradicting evidence on a cutset variable weighs 0 and is skipped.
    ``evaluations`` counts every branch and ``messages_computed`` the
    messages solved, one per member of a batched solve.  ``stats`` holds the
    sizes of the per-query memos (``subtree_sums`` and
    ``component_weights``), ``partitions``, the component searches run (one
    for the instantiated evidence, then one per batch bound on a variable
    with children), and ``visits``, the cutset-tree nodes and leaves visited,
    once per batch.  Raises :class:`NotSinglyConnectedError` when a branch
    leaves a cycle, and ``ValueError`` for a malformed ``ct``.
    """
    net.check_context(query.evidence)
    walk = _Walk(net, query, ct)
    total = walk.visit(ct, walk.pending, [walk.evidence])[0]
    weights, exponent = (np.zeros(len(walk.values[walk.target])), 0) if total is None else total
    stats = MappingProxyType({
        "subtree_sums": len(walk.sums),
        "component_weights": len(walk.weights),
        "partitions": walk.partitions,
        "visits": walk.visits,
    })
    return _finish([float(w) for w in weights], walk.evaluations, exponent, walk.messages, stats)
