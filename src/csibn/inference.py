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
depend on its directed edge alone, with every operand in elimination order
and sent in one post-order fixed with the tree, the evidence is sliced out
of the operands on its paths to the target instead of multiplied in, and a
message out of a subtree without evidence is kept on the network for every
later query and sliced where it enters those paths.  A clique over
``_MAX_CLIQUE_ENTRIES`` is refused up front; messages are rescaled only if an
answer nears underflow.  The polytree and cutset engines share one forest
solver, run by one private walk object on its own copies of the cached
compiled lists.  The evidence and each cutset branch are contexts,
instantiated in place by one per-family step whose result -- kept parents and
table -- depends only on the values bound on the family's variables and is
memoized on the network.  The walk moves a batch of branches at once, one
frame per cutset-tree level: the values of a tested variable that reach one
child node, or equal ones, and leave its children the same kept parents share
one visit, its arcs and components, and one solve per component, the members'
tables stacked on a leading axis.  Before a batch descends into a subtree its
members are deduplicated on what the subtree can see, and each member keeps
its own power-of-two exponent.  A component that no binding below a
cutset-tree node can change is weighed once, at that node, and each subtree
sum is computed once per query for each state of the components it can see, so
equal subtrees, which the cutset builder shares, share it.
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


class FactorTooLargeError(ValueError):
    """Variable elimination would multiply over a clique of more than
    ``_MAX_CLIQUE_ENTRIES`` entries."""


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
    into [0.5, 1), or by 1 if that entry is 1 or more, and that power's
    exponent, at most 0.  Exact in binary floating point."""
    exponent = min(math.frexp(float(np.maximum.reduce(array, axis=None)))[1], 0)
    return (np.ldexp(array, -exponent) if exponent else array), exponent


# -- variable elimination on a clique tree ------------------------------------

# np.einsum takes at most 31 operands under numpy 1.x
_MAX_OPERANDS = 31
# the clique budget: entries of the largest clique a message or root product
# spans, 2 GiB of float64, which bounds every array a product allocates
_MAX_CLIQUE_ENTRIES = 2**28
# the least joint probability of a target value and the evidence sent unscaled
_UNSCALED_FLOOR = 2.0**-900
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
    exponent (never positive), once computed; :meth:`collect` computes every
    message a query needs, in the post-order ``order`` fixed here.  Each
    node's clique and ``families`` are kept in elimination order, each array
    in ``tables`` transposed to match (C-contiguous, read-only), so numpy
    can merge the axes of every einsum.  ``root`` maps each node to its
    tree's root.  ``excess`` counts, for the subtree below each node, the
    families there less the variables whose home is there; see :meth:`barren`.
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
        spans = [tuple(sorted(ps + (v,), key=rank.__getitem__)) for v, ps in enumerate(parents)]
        axes = [[(ps + (v,)).index(u) for u in spans[v]] for v, ps in enumerate(parents)]
        arrays = [np.ascontiguousarray(table.transpose(axes[v])) for v, table in enumerate(tables)]
        for array in arrays:
            array.flags.writeable = False
        self.owner = tuple(home[span[0]] for span in spans)
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
        self.order = {a: i for i, a in enumerate(reversed(downward))}
        self.excess = excess = [len(fs) - n for fs, n in zip(owned, homed)]
        for a in reversed(downward):
            if up[a] >= 0:
                excess[up[a]] += excess[a]
        self.arity = arity = [table.shape[-1] for table in tables]
        self.families = tuple(tuple(spans[v] for v in vs) for vs in owned)
        self.tables = tuple(tuple(arrays[v] for v in vs) for vs in owned)
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
        operands into one over their letters, in order."""
        letter = dict(zip(self.cliques[a], _LETTERS))
        spell = lambda vs: "".join([letter[v] for v in vs])
        terms = [spell(vs) for vs in self.families[a]]
        terms += [spell(self.seps[a, c]) for c in self.near[a] if c != skip]
        steps = []
        while len(terms) > _MAX_OPERANDS:
            keep = "".join(sorted(set("".join(terms[:_MAX_OPERANDS])), key=_LETTERS.index))
            steps.append((",".join(terms[:_MAX_OPERANDS]) + "->" + keep, _MAX_OPERANDS))
            terms[:_MAX_OPERANDS] = [keep]
        out = spell(self.seps[a, skip]) if skip >= 0 else ""
        steps.append((",".join(terms) + "->" + out, len(terms)))
        return tuple(steps)

    def send(self, a: int, skip: int, out: tuple, evidence: Mapping, incoming: list) -> tuple:
        """Node ``a``'s product, summed onto ``out``, of its family arrays and
        the ``incoming`` messages (from every neighbor but ``skip``, -1 for
        none, in neighbor order) given ``evidence``, a value index by
        variable; returns it unscaled, and the exponents of the messages and
        of its partial products, each :func:`_scaled`, summed.  The evidence
        is sliced out: each family array that holds an observed variable is
        indexed at its value and the variable's letter is deleted from the
        subscripts, so the product never spans it; the messages come in
        without those axes.  The plan is keyed on the edge, or on ``a`` for a
        root, whose ``out`` letters are appended here."""
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
        return np.einsum(steps[-1][0], *operands), exponent

    def barren(self, c: int, a: int) -> bool:
        """Whether the message from ``c`` to ``a`` is all ones when no
        evidence lies on ``c``'s side: that side's families are exactly those
        of the variables it sums out, which are then closed under children
        and sum out to 1 (Shachter, Oper. Res. 34, 1986).  It holds at least
        those families, and a tree holds as many families as homes."""
        if self.up[c] == a:
            return not self.excess[c]
        return self.excess[a] == len(self.seps[a, c])

    def unkept(self, edges: list) -> list:
        """The messages that keeping those of ``edges``, out of subtrees
        without evidence, takes and ``messages`` lacks: each an edge and
        whether it is barren (then it takes none), after those it takes."""
        stack, edges = list(edges), []
        while stack:
            c, a = stack.pop()
            if (c, a) not in self.messages:
                edges.append((c, a, self.barren(c, a)))
                stack += [] if edges[-1][2] else [(d, c) for d in self.near[c] if d != a]
        return edges[::-1]

    def keep(self, edges: list) -> None:
        """Keep each of ``edges`` (see :meth:`unkept`) in ``messages``, in order:
        a read-only 1.0 if barren, else sent without evidence, :func:`_scaled`."""
        for c, a, barren in edges:
            if barren:
                table, exponent = np.broadcast_to(1.0, [self.arity[v] for v in self.seps[c, a]]), 0
            else:
                incoming = [self.messages[d, c] for d in self.near[c] if d != a]
                table, exponent = self.send(c, a, self.seps[c, a], {}, incoming)
            table, shift = _scaled(table)
            self.messages[c, a] = table, exponent + shift

    def collect(self, root: int, sources, out: tuple, evidence: Mapping, stats: dict) -> tuple:
        """``root``'s product over ``out`` given ``evidence`` (a value index
        by variable), :func:`_scaled`, and its exponent, on a static schedule.
        The region, the nodes on the paths from ``sources`` (the homes of the
        evidence in ``root``'s tree) to ``root``, sends in the tree's
        post-order (``order``): each region node off ``root``'s path to its
        tree's root sends to ``up``, then that path sends down from its
        highest region node to ``root``.  These messages have the evidence
        sliced out and serve this query alone, unscaled.  Every other message
        into the region comes out of a subtree without evidence: it is taken
        from ``messages``, or kept there first (:meth:`keep`), and sliced at
        the evidence on its separator.  A clique over ``_MAX_CLIQUE_ENTRIES``
        in the region, or sending a message to keep, raises
        :class:`FactorTooLargeError` before any einsum.  Adds to ``stats`` the
        messages computed and those taken or kept into the region, and widens
        its largest clique and width to the region's cliques, counted whole.

        Unless the root product is finite and its smallest entry times two to
        its exponent, the least joint probability of an ``out`` value and the
        evidence, is at least ``_UNSCALED_FLOOR``, the schedule is sent again
        with each message :func:`_scaled` (``rescaled_passes``).  No array of
        the unscaled pass is scaled down, so each value is at least its true
        value times one power of two: one that flushes to 0 or a subnormal is
        below 2**-1022 in true terms, negligible next to each root entry.
        Powers of two scale exactly, so above the floor both passes agree."""
        up, near, seps, messages = self.up, self.near, self.seps, self.messages
        region = self.region(root, sources)
        path = [root]
        while up[path[-1]] in region:
            path.append(up[path[-1]])
        schedule = [(a, up[a]) for a in sorted(region.difference(path), key=self.order.__getitem__)]
        schedule += [(path[i], path[i - 1] if i else -1) for i in reversed(range(len(path)))]
        entries = [(c, a) for a, b in schedule for c in near[a] if c != b and c not in region]
        unkept = self.unkept(entries)
        fresh = {(c, a) for c, a, barren in unkept if not barren}
        largest = max(self.sizes[a] for a in [*region, *(c for c, _ in fresh)])
        if largest > _MAX_CLIQUE_ENTRIES:
            budget = f"the budget of {_MAX_CLIQUE_ENTRIES:,}"
            raise FactorTooLargeError(f"a clique of {largest:,} entries exceeds {budget}")
        self.keep(unkept)
        sent: dict[tuple, tuple] = {}
        for rescaled in (False, True):
            for a, b in schedule:
                incoming = []
                for c in near[a]:
                    if c == b:
                        continue
                    if c in region:
                        incoming.append(sent[c, a])
                        continue
                    vec, shift = messages[c, a]
                    if not evidence.keys().isdisjoint(seps[c, a]):
                        vec = vec[tuple([evidence.get(v, _ALL) for v in seps[c, a]])]
                    incoming.append((vec, shift))
                table, exponent = self.send(a, b, seps[a, b] if b >= 0 else out, evidence, incoming)
                if rescaled or b < 0:
                    table, shift = _scaled(table)
                    exponent += shift
                sent[a, b] = table, exponent
            least = math.ldexp(float(table.min()), exponent)
            if rescaled or _UNSCALED_FLOOR <= least and math.isfinite(table.sum()):
                break
            stats["rescaled_passes"] += 1
        stats["computed_messages"] += len(schedule) - 1 + len(fresh)
        stats["cached_messages"] += sum(edge not in fresh for edge in entries)
        stats["largest_factor"] = max(stats["largest_factor"], *(self.sizes[a] for a in region))
        width = max(len(self.cliques[a]) for a in region) - 1
        stats["induced_width"] = max(stats["induced_width"], width)
        return table, exponent


def variable_elimination(net: Network, query: Query) -> InferenceResult:
    """Posterior by one collect pass toward the target on the network's
    clique tree (Lauritzen & Spiegelhalter, JRSS B 50, 1988; Shafer &
    Shenoy, Ann. Math. AI 2, 1990), reproducible bit for bit.

    The tree (:class:`_CliqueTree`) is built once per network from its
    min-fill triangulation and kept beside the compiled form, and the root
    is the node that holds the target's own family.  One pass over the
    directed edges toward the root, in one post-order of the tree fixed
    when it is built, computes every message the query needs, each by one
    einsum over its node's family arrays and incoming messages, all in
    elimination order.  Those on the tree paths from each evidence
    variable's home to the root serve this query alone, and the evidence
    enters them by slicing: every operand there that holds an observed
    variable is indexed at its value, so no product spans an observed
    variable's axis.  Every other message into those paths comes out of a
    subtree without evidence; it depends on the network alone, so it is
    computed the first time a query needs it and kept, unless it sums out
    to 1, and it is sliced where it enters the paths.  Each other connected
    component that holds evidence is collected to its own root, and the
    probability of its evidence multiplies into the answer.  Messages are
    sent unscaled, and a pass that underflows, or in which a target value's
    joint probability with the evidence is below ``_UNSCALED_FLOOR``
    (2**-900), is sent again with each rescaled by a power of two whose
    exponent is carried, so evidence of tiny but non-zero probability does
    not underflow to an impossible-evidence error.  A clique of more than
    ``_MAX_CLIQUE_ENTRIES`` (2**28) entries raises :class:`FactorTooLargeError`
    before the first message.  ``stats`` holds ``largest_factor``, the
    entries of the largest clique on those paths, counted over all of its
    variables, and ``induced_width``, its variables less one, which the kept
    messages do not change; the messages the query computed
    (``computed_messages``) and took from those kept (``cached_messages``);
    and the passes sent again (``rescaled_passes``).
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
    stats = dict.fromkeys(counters + ("rescaled_passes",), 0)
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
    exponent = np.minimum(np.frexp(array.max(axis=1))[1], 0)
    return np.ldexp(array, -exponent[:, None]), exponent


def _stacked(arrays: list) -> np.ndarray:
    """``arrays`` on a leading member axis, or the one array they all are."""
    return arrays[0] if all(a is arrays[0] for a in arrays) else np.array(arrays)


def _picker(indices):
    """A function of a row that returns its entries at ``indices``, hashable."""
    return itemgetter(*indices) if indices else lambda row: ()


def _times(a, b):
    """The product of the scaled terms ``a`` and ``b``, at most one of whose
    values is a list, its largest entry brought into [0.5, 1).  A scaled term
    is ``(value, exponent)``, worth ``value * 2 ** exponent``, its value a
    float or a list of floats over the target's values; None is zero."""
    if a is None or b is None:
        return None
    (x, x_exp), (y, y_exp) = a, b
    if isinstance(y, list):
        x, y = y, x
    vector = isinstance(x, list)
    # scaling by a positive number keeps the largest entry largest
    peak, shift = math.frexp((max(x) if vector else x) * y)
    value = [math.ldexp(v * y, -shift) for v in x] if vector else peak
    return (value, x_exp + y_exp + shift) if peak else None


def _plus(a, b):
    """The sum of the scaled terms ``a`` and ``b`` (see :func:`_times`) at
    the larger exponent, the other value scaled down to it: to 0 if the
    exponents lie further apart than floats reach."""
    if a is None or b is None:
        return b if a is None else a
    (x, x_exp), (y, y_exp) = a, b
    if x_exp < y_exp:
        (x, x_exp), (y, y_exp) = b, a
    if isinstance(x, list):
        return [p + math.ldexp(q, y_exp - x_exp) for p, q in zip(x, y)], x_exp
    return x + math.ldexp(y, y_exp - x_exp), x_exp


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
        # kept on the network for the last tree queried: below-sets, the
        # equal-node map and the branch count
        if net._cutset_walk is None or net._cutset_walk[0] is not ct:
            self.index_tree(ct)
            net._cutset_walk = ct, self.below, self.same, cutset_mod.count_branches(ct)
        _, self.below, self.same, self.evaluations = net._cutset_walk
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
        distinct node of ``tree`` tests, and in ``same`` the first equal
        node's ``id``.  Raises ``ValueError`` unless each node tests a variable
        of the network, its arcs cover that variable's values, each once, and
        its test is not tested again beneath it, where a batch would hold both."""
        self.below, self.same = below, same = {}, {}
        first: dict[tuple, int] = {}
        for node in cutset_mod._distinct_nodes(tree):
            if isinstance(node, cutset_mod.EmptyLeaf):  # one object
                below[id(node)] = frozenset()
                same[id(node)] = id(node)
                continue
            key = (node.test, *[(values, same[id(child)]) for values, child in node.arcs])
            same[id(node)] = first.setdefault(key, id(node))
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
        target, a list, if it holds the target, else its total weight, as a
        scaled term (:func:`_times`).  The members whose keys miss the memo are
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
                vec = sum(vec)
            elif row[root]:
                vec, (value,) = [0.0] * len(self.values[root]), vec
                vec[row[root] - 1] = value
            memo[key] = vec, exponent
        return [memo[key] for key in keys]

    def settle(self, pending: list, below: frozenset, rows: list) -> tuple:
        """Weigh each component of ``pending`` disjoint from ``below``, which
        no binding beneath can change; returns the indices whose components
        are still pending, and, for each member of ``rows``, the product of
        the weights as a scaled term (:func:`_times`), a lone weight as
        :meth:`weight` gives it.  While a cycle is left, a component that is
        not a tree stays pending."""
        factors = [(1.0, 0)] * len(rows)
        left, done = [], set()
        for i in pending:
            part = self.component[i]
            if part in done:
                continue
            if not part.isdisjoint(below) or (
                self.excess and sum(len(self.parents[v]) for v in part) != len(part) - 1
            ):
                left.append(i)  # every index: a binding beneath may split part
                continue
            weights = self.weight(part, rows)
            factors = [_times(f, w) for f, w in zip(factors, weights)] if done else weights
            done.add(part)
        return left, factors

    def visit(self, tree: "cutset_mod.CutsetTree", pending: list, rows: list) -> list:
        """For each member of the batch ``rows``, the sum over ``tree``'s live
        branches, those that agree with the evidence, of the product of the
        weights of ``pending``'s components, as a scaled term (:func:`_times`),
        its value a list if the target's component is pending.

        A leaf weighs every component.  A node weighs the components its
        subtree cannot change once, then adds up its branches, each binding its
        value of the tested variable ``x``; the branches that reach one child
        node, or equal ones (``same``), and leave ``x``'s children the same
        kept parents are one batch, bound and visited once.  Each member adds
        its branches as their batch returns, in batch order, fixed by the tree
        and the evidence: batches by first appearance over arcs, values and
        members.  A node's sum depends only on the node, ``excess`` (so a hit
        skips no leaf that would find a cycle) and the components that are
        pending or hold a variable its subtree tests, each with the values the
        member binds on what it sees; it is memoized on those, the components
        ordered by id, and one member per key that misses descends."""
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
                x, groups = self.index[tree.test], {}
                children = self.children[x]
                for arc_values, child in tree.arcs:
                    for value in arc_values:
                        k = self.values[x].index(value)
                        if self.evidence[x] not in (0, k + 1):  # the evidence binds x otherwise
                            continue
                        for key, row in todo.items():
                            row = row[:]
                            row[x] = k + 1
                            kept = tuple([self.family(c, row)[0] for c in children])
                            group = groups.setdefault((self.same[id(child)], kept), (child, []))
                            group[1].append((key, row))
                total = dict.fromkeys(todo)
                for (_, kept), (child, batch) in groups.items():
                    excess, saved = self.excess, self.bind(x, kept)
                    terms = self.visit(child, pending + [x], [row for _, row in batch])
                    for (key, _), term in zip(batch, terms):
                        total[key] = _plus(total[key], term)
                    self.excess = excess
                    for store, i, old in reversed(saved):
                        store[i] = old
                sums.update(total)
            totals = [sums[key] for key in keys]
        return [_times(factor, total) for factor, total in zip(factors, totals)]


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
    that lead to one child node, or to equal ones (a grouped arc such as
    ``={t,f}``, or a flat cutset's shared child), and leave its children the
    same kept parents are bound together and walk that child once; a value whose kept parents
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
    shares, share their sums.  Sums and weights carry power-of-two exponents,
    so tiny evidence probabilities do not underflow, and each member adds its
    branches in batch order, fixed by the tree and the evidence.  A branch
    contradicting evidence on a cutset variable weighs 0 and is skipped.
    ``evaluations`` counts every branch and ``messages_computed`` the messages
    solved, one per member of a batched solve.  ``stats`` holds the sizes of
    the per-query memos (``subtree_sums`` and ``component_weights``),
    ``partitions``, the component searches run (one for the instantiated
    evidence, then one per batch bound on a variable with children), and
    ``visits``, the cutset-tree nodes and leaves visited, once per batch.
    Raises :class:`NotSinglyConnectedError` when a branch leaves a cycle, and
    ``ValueError`` for a malformed ``ct``.
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
