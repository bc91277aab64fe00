"""In-memory spans around the library's public module-level functions.

The tracer replaces module attributes of ``csibn`` with wrappers while it is
installed; no file of the library changes.  Library code calls these
functions through module globals (``graphs.two_core``, ``validate``,
``reduce_network``), so the wrappers see calls made inside the library as
well as the benchmark's own calls.  Each wrapped call records a span
``(name, start, end, parent, op, self)``: ``parent`` is the index of the
enclosing span or -1, ``op`` is the operation id (``"setup"`` or an int), and
``self`` is the duration minus the time covered by direct child spans.
Count-only targets bump a counter and record no span.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import Counter, defaultdict

# (module, attribute, span name, count only)
TARGETS = (
    ("csibn.model", "parse_network", "model.parse_network", False),
    ("csibn.model", "validate", "model.validate", False),
    ("csibn.model", "serialize_network", "model.serialize_network", False),
    ("csibn.inference", "tree_lookup", "model.tree_lookup", True),
    ("csibn.csi", "csi_separated", "csi.csi_separated", False),
    ("csibn.csi", "context_network", "csi.context_network", False),
    ("csibn.csi", "d_separated", "csi.d_separated", False),
    ("csibn.inference", "reduce_network", "csi.reduce_network", False),
    ("csibn.cutset", "reduce_network", "csi.reduce_network", False),
    ("csibn.cutset", "build_conditional_cutset", "cutset.build_conditional_cutset", False),
    ("csibn.inference", "cutset_infer", "inference.cutset_infer", False),
    ("csibn.inference", "variable_elimination", "inference.variable_elimination", False),
    ("csibn.graphs", "min_fill_order", "graphs.min_fill_order", False),
    ("csibn.graphs", "two_core", "graphs.two_core", False),
    ("csibn.graphs", "elimination_cliques", "graphs.elimination_cliques", False),
    ("csibn.transform", "decompose_network", "transform.decompose_network", False),
    ("csibn.transform", "clique_report", "transform.clique_report", False),
)

SPAN_NAMES = tuple(dict.fromkeys(name for _, _, name, _ in TARGETS))


class Tracer:
    """Records spans and counts while installed and ``active``.

    Correctness checks run with ``active`` false, so they add nothing.
    """

    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.op: object = "setup"
        self.active = False
        self._open: list[list] = []  # [span index, child time] per open span
        self._saved: list = []

    def _wrap(self, name, fn, count_only):
        if count_only:

            def counted(*args, **kwargs):
                if self.active:
                    self.counts[name] += 1
                return fn(*args, **kwargs)

            return counted

        def spanned(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            self.counts[name] += 1
            parent = self._open[-1][0] if self._open else -1
            frame = [len(self.spans), 0.0]
            self.spans.append(None)
            self._open.append(frame)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._open.pop()
                if self._open:
                    self._open[-1][1] += end - start
                self.spans[frame[0]] = (name, start, end, parent, self.op, end - start - frame[1])

        return spanned

    def __enter__(self):
        for module_name, attr, name, count_only in TARGETS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(name, fn, count_only))
        return self

    def __exit__(self, *exc):
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)
        self.active = False
        return False

    def layers(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total and self milliseconds, split into the
        set-up phase and the timed operations."""
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "ms": 0.0, "self_ms": 0.0, "setup_ms": 0.0, "op_ms": 0.0}
        )
        for name in SPAN_NAMES:
            out[name]["calls"] = self.counts.get(name, 0)
        for name, start, end, _parent, op, self_s in self.spans:
            row = out[name]
            row["ms"] += (end - start) * 1e3
            row["self_ms"] += self_s * 1e3
            row["setup_ms" if op == "setup" else "op_ms"] += (end - start) * 1e3
        return dict(out)

    def write(self, path) -> None:
        """Write every span as one JSON line."""
        with open(path, "w") as fh:
            for name, start, end, parent, op, self_s in self.spans:
                fh.write(
                    json.dumps(
                        {"name": name, "start": start, "end": end, "parent": parent,
                         "op": op, "self": self_s}
                    )
                    + "\n"
                )
