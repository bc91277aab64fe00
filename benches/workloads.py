"""The benchmark's three workloads.

A workload has a set-up (timed as ``setup_s``), an endless stream of
operation inputs drawn from the run seed outside the timed interval, the
timed operation itself, and a check of every answer, also untimed.  The
library is always called through module attributes (``inference.cutset_infer``
rather than an imported name) so that the tracer's wrappers see the calls.

``cycle`` is the round-robin period of the operation stream: a timed run ends
on a cycle boundary, so every network gets the same share of the queries.
``trace_ops`` is the fixed number of operations of a traced run, which keeps
its counts identical from run to run.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from csibn import csi, cutset, inference, model, transform
from csibn.model import Context
from csibn.inference import Query

from generator import generate, redraw_leaves

TOL = 1e-9


def _close(a, b) -> bool:
    """Posteriors within TOL absolutely, evidence probabilities relatively."""
    return all(abs(x - y) <= TOL for x, y in zip(a.posterior.probs, b.posterior.probs)) and (
        abs(a.evidence_probability - b.evidence_probability)
        <= TOL * max(a.evidence_probability, b.evidence_probability)
    )


def _pick(rng, items, k):
    """``k`` distinct items of ``items`` in draw order."""
    return [items[int(i)] for i in rng.choice(len(items), size=k, replace=False)]


def _evidence(rng, names, k) -> dict[str, str]:
    return {v: str(rng.choice(("t", "f"))) for v in _pick(rng, names, k)}


def _count_branches(tree) -> int:
    if isinstance(tree, cutset.EmptyLeaf):
        return 1
    return sum(len(values) * _count_branches(child) for values, child in tree.arcs)


# -- cutset_loopy --------------------------------------------------------------


@dataclass(frozen=True)
class _Cutset:
    net: model.Network
    tree: cutset.CutsetTree
    variables: frozenset
    branches: int


class CutsetLoopy:
    name = "cutset_loopy"
    why = (
        "the paper's headline engine: cutset_infer with random targets and 20% "
        "evidence on ten CSI-rich loopy networks of 28-32 variables and 8-960 cutset branches"
    )
    # (variables, structure seed) of generator.generate.  Structures are fixed
    # because the branch count of random structures of one size varies by a
    # factor of 2-3 from seed to seed, which would make the latencies a property
    # of the draw; the run seed redraws every CPT leaf and the query stream.
    # Branch counts 8, 10, 48 | 144 x4 | 288 | 960 x2: the four 144-branch
    # networks take the middle 40% of the queries, so p50 falls well inside
    # that class, and the two 960-branch networks take the top 20%, so p90
    # falls inside it.  (30, 1) is the ROADMAP baseline network.
    SUITE = (
        (28, 51), (30, 31), (29, 29),
        (30, 58), (31, 42), (30, 24), (32, 0),
        (30, 1), (30, 8), (31, 12),
    )
    cycle = len(SUITE)
    trace_ops = 20
    EVIDENCE_SHARE = 0.2

    def setup(self, seed):
        rng = np.random.default_rng([seed, 0])
        entries = []
        for n, structure_seed in self.SUITE:
            net = redraw_leaves(generate(structure_seed, n), rng)
            parsed = model.parse_network(model.serialize_network(net))
            tree = cutset.build_conditional_cutset(parsed)
            entries.append(
                _Cutset(parsed, tree, frozenset(cutset.cutset_variables(tree)), _count_branches(tree))
            )
        return entries

    def ops(self, entries, seed):
        rng = np.random.default_rng([seed, 1])
        i = 0
        while True:
            entry = entries[i % len(entries)]
            names = list(entry.net.var_names)
            target = names[int(rng.integers(len(names)))]
            free = [v for v in names if v != target and v not in entry.variables]
            k = min(len(free), round(self.EVIDENCE_SHARE * len(names)))
            yield entry, Query(target, Context(_evidence(rng, free, k)))
            i += 1

    def run(self, entries, op):
        entry, query = op
        return inference.cutset_infer(entry.net, query, entry.tree)

    def check(self, entries, op, answer):
        entry, query = op
        reference = inference.variable_elimination(entry.net, query)
        return [] if _close(answer, reference) else ["mismatch:cutset_vs_ve"]

    def quality(self, op, answer):
        entry, _ = op
        return {
            "cutset.branches_per_query": entry.branches,
            "cutset.cutset_variables": len(entry.variables),
            "inference.evaluations": answer.evaluations,
        }


# -- ve_large ------------------------------------------------------------------


class VeLarge:
    name = "ve_large"
    why = (
        "repeated variable_elimination queries, round robin over ten loopy "
        "200-variable networks: work shared across queries on one network shows here"
    )
    # (structure seed, parent window, max parents, parent probability) of
    # generator.generate at 200 variables.  Structures are fixed for the reason
    # CutsetLoopy.SUITE is: elimination cost differs by up to 2x between random
    # structures of one kind.  Denser parent sets make four cost classes (about
    # 35, 70, 95 and 115 ms per query on a 2-vCPU x86 VM) that take 30%, 40%,
    # 10% and 20% of the queries, so p50 and p90 fall inside a class instead of
    # on the machine's noise.  The run seed redraws every leaf and the queries.
    SUITE = (
        (1, 6, 3, 0.3), (2, 6, 3, 0.3), (3, 6, 3, 0.3),
        (0, 8, 4, 0.4), (1, 8, 4, 0.4), (2, 8, 4, 0.4), (3, 8, 4, 0.4),
        (0, 10, 4, 0.4),
        (0, 12, 4, 0.35), (1, 12, 4, 0.35),
    )
    cycle = len(SUITE)
    trace_ops = 40
    VARIABLES = 200
    EVIDENCE = 20

    def setup(self, seed):
        rng = np.random.default_rng([seed, 0])
        nets = []
        for structure_seed, window, max_parents, p_parent in self.SUITE:
            net = generate(structure_seed, self.VARIABLES, window, max_parents, p_parent)
            nets.append(model.parse_network(model.serialize_network(redraw_leaves(net, rng))))
        return nets

    def ops(self, nets, seed):
        rng = np.random.default_rng([seed, 2])
        i = 0
        while True:
            net = nets[i % len(nets)]
            names = list(net.var_names)
            target, witness = _pick(rng, names, 2)
            rest = [v for v in names if v not in (target, witness)]
            evidence = _evidence(rng, rest, self.EVIDENCE)
            value = str(rng.choice(net.values(target)))
            yield net, Query(target, Context(evidence)), witness, value
            i += 1

    def run(self, nets, op):
        net, query, _, _ = op
        return inference.variable_elimination(net, query)

    def check(self, nets, op, answer):
        # chain rule: P(T=x, e) = P(T=x | e) P(e), the left side from a second
        # query that adds T=x to the evidence and asks about another variable
        net, query, witness, value = op
        joint = inference.variable_elimination(
            net, Query(witness, query.evidence.union({query.target: value}))
        ).evidence_probability
        expected = answer.posterior.probs[net.variable(query.target).index(value)] * (
            answer.evidence_probability
        )
        return [] if abs(joint - expected) <= TOL * max(joint, expected) else ["mismatch:chain_rule"]

    def quality(self, op, answer):
        return {"inference.evaluations": answer.evaluations}


# -- structure -----------------------------------------------------------------


@dataclass(frozen=True)
class _Document:
    net: model.Network
    text: str


class Structure:
    name = "structure"
    why = (
        "write-side analysis of a fresh 120-variable document per operation: parse, "
        "10 csi_separated tests, decompose_network, clique_report before and after"
    )
    cycle = 1
    trace_ops = 10
    VARIABLES = 120
    CSI_QUERIES = 10
    BATCH = 10  # documents made in set-up; later ones are made between operations

    def _document(self, seed, i):
        net = generate([seed, 3, i], self.VARIABLES)
        return _Document(net, model.serialize_network(net))

    def setup(self, seed):
        return [self._document(seed, i) for i in range(self.BATCH)]

    def ops(self, batch, seed):
        rng = np.random.default_rng([seed, 4])
        i = 0
        while True:
            doc = batch[i] if i < len(batch) else self._document(seed, i)
            names = list(doc.net.var_names)
            tests = []
            for _ in range(self.CSI_QUERIES):
                n_z, n_c = int(rng.integers(0, 3)), int(rng.integers(1, 4))
                picked = _pick(rng, names, 2 + n_z + n_c)
                context = {v: str(rng.choice(("t", "f"))) for v in picked[2 + n_z :]}
                tests.append(([picked[0]], [picked[1]], picked[2 : 2 + n_z], context))
            target, *bound = _pick(rng, names, 4)
            yield doc, tests, Query(target, Context({v: str(rng.choice(("t", "f"))) for v in bound}))
            i += 1

    def run(self, batch, op):
        doc, tests, _ = op
        net = model.parse_network(doc.text)
        separated = [csi.csi_separated(net, x, y, z, c) for x, y, z, c in tests]
        before = transform.clique_report(net)
        decomposed, reports = transform.decompose_network(net)
        after = transform.clique_report(decomposed)
        return net, separated, before, decomposed, reports, after

    def check(self, batch, op, answer):
        doc, tests, query = op
        net, separated, _, decomposed, _, _ = answer
        kinds = []
        if net != doc.net or model.parse_network(model.serialize_network(net)) != net:
            kinds.append("mismatch:round_trip")
        # deleting vacuous arcs only removes paths, so plain d-separation given
        # Z and the context variables implies CSI-separation
        for (x, y, z, c), sep in zip(tests, separated):
            if not sep and csi.d_separated(net, x, y, list(z) + list(c)):
                kinds.append("mismatch:csi_weaker_than_d_separation")
                break
        if not _close(
            inference.variable_elimination(decomposed, query),
            inference.variable_elimination(net, query),
        ):
            kinds.append("mismatch:decomposed_ve")
        return kinds

    def quality(self, op, answer):
        _, _, before, _, reports, after = answer
        return {
            "transform.nodes_split": len(reports),
            "transform.max_clique_weight_before": before.max_clique_weight,
            "transform.max_clique_weight_after": after.max_clique_weight,
        }


WORKLOADS = {w.name: w for w in (CutsetLoopy(), VeLarge(), Structure())}

# per-layer values averaged over a traced run's operations; the rest are summed
MEAN_QUALITY = frozenset(
    {
        "cutset.branches_per_query",
        "cutset.cutset_variables",
        "transform.max_clique_weight_before",
        "transform.max_clique_weight_after",
    }
)
