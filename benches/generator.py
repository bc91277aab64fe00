"""Seeded generator of CSI-rich loopy networks with tree CPTs.

Every variable is binary.  Variable ``V{i}`` draws each of the previous
``window`` variables as a candidate parent with probability ``p_parent``,
keeps at most ``max_parents`` of them, and gets a random CPT tree over them:
below the root, each subtree stops at a leaf with probability ``leaf_stop``,
so a higher value gives more asymmetric trees and more context-specific
independence.  A node's parents are exactly the variables its tree tests.
Leaf probabilities are uniform in (0.05, 0.95).

With the defaults, ``generate(1, 30)`` and ``generate(1, 40)`` are the
networks of the baseline table in ``ROADMAP.md``: their conditional cutsets
have 288 and 2304 branches.
"""

from __future__ import annotations

import numpy as np

from csibn.model import (
    Distribution,
    Leaf,
    Network,
    Node,
    NodeSpec,
    Variable,
    tree_tested_vars,
)

VALUES = ("t", "f")


def _leaf(rng) -> Leaf:
    p = float(rng.uniform(0.05, 0.95))
    return Leaf(Distribution((p, 1.0 - p)))


def _tree(rng, candidates, leaf_stop, depth=0):
    if not candidates or (depth > 0 and rng.random() < leaf_stop):
        return _leaf(rng)
    test = candidates[int(rng.integers(len(candidates)))]
    rest = [c for c in candidates if c != test]
    return Node(test, tuple((v, _tree(rng, rest, leaf_stop, depth + 1)) for v in VALUES))


def generate(
    seed,
    n: int,
    window: int = 6,
    max_parents: int = 3,
    p_parent: float = 0.3,
    leaf_stop: float = 0.45,
) -> Network:
    """The network drawn from ``numpy.random.default_rng(seed)``.

    ``seed`` is anything ``default_rng`` accepts, such as an int or a list
    of ints.
    """
    rng = np.random.default_rng(seed)
    names = [f"V{i}" for i in range(n)]
    nodes = []
    for i, name in enumerate(names):
        window_vars = names[max(0, i - window) : i]
        pool = [p for p in window_vars if rng.random() < p_parent][:max_parents]
        tree = _tree(rng, pool, leaf_stop)
        tested = tree_tested_vars(tree)
        nodes.append(NodeSpec(name, tuple(p for p in names[:i] if p in tested), tree))
    return Network(tuple(Variable(v, VALUES) for v in names), tuple(nodes))


def redraw_leaves(net: Network, rng) -> Network:
    """The same structure with every leaf distribution drawn afresh."""

    def walk(tree):
        if isinstance(tree, Leaf):
            return _leaf(rng)
        return Node(tree.test, tuple((v, walk(sub)) for v, sub in tree.branches))

    return Network(
        net.variables,
        tuple(NodeSpec(s.var, s.parents, walk(s.cpt), s.deterministic) for s in net.nodes),
    )
