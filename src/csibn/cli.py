"""Command-line surface for the library.

One subcommand per capability: validation, posterior queries with three
interchangeable engines, vacuous-arc and tree-reduction inspection,
separation tests, decomposition, clique metrics, and cutset construction.

Output contract: human output is line-oriented with probabilities at six
decimals; ``--json`` swaps in a machine-readable document carrying
``"schema_version": 1``.  Exit codes: 0 success, 1 domain error (invalid
network, impossible evidence, unknown variable, ``too-deep``: a structure
nested past Python's recursion limit, such as a cutset tree a thousand
levels deep, or ``too-large``: a variable elimination clique over its
budget of entries), 2 usage error.  Every error goes to stderr as one line,
``error[code]: message``.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import cutset as cutset_mod
from . import transform
from .csi import csi_separated, d_separated, reduce_tree, vacuous_parents
from .inference import (
    FactorTooLargeError,
    ImpossibleEvidenceError,
    NotSinglyConnectedError,
    Query,
    cutset_infer,
    query_enumerate,
    solve_singly_connected,
    variable_elimination,
)
from .model import (
    Context,
    Leaf,
    NetworkFormatError,
    NetworkSemanticsError,
    _tree_to_json,
    as_tree,
    network_to_json,
    parse_context,
    parse_network,
    serialize_network,
)

SCHEMA_VERSION = 1


class _Exit(Exception):
    def __init__(self, code: int):
        self.code = code


def _error(code: str, message: object) -> None:
    # what str.splitlines splits on is escaped, so that an error stays one line
    breaks = {ord(c): repr(c)[1:-1] for c in "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"}
    print(f"error[{code}]: {str(message).translate(breaks)}", file=sys.stderr)


def _fail(code: str, message: str, exit_code: int = 1):
    _error(code, message)
    raise _Exit(exit_code)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        _error("usage", message)
        raise _Exit(2)


def _parse(path: str):
    """The network in the file at ``path``; a file that is not UTF-8 raises
    :class:`NetworkFormatError`, as a JSON syntax error does."""
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        _fail("io", str(exc))
    except UnicodeDecodeError as exc:
        raise NetworkFormatError(str(exc)) from None
    return parse_network(text)


def _load(path: str):
    try:
        return _parse(path)
    except NetworkFormatError as exc:
        _fail("format", str(exc))
    except NetworkSemanticsError as exc:
        first = exc.violations[0]
        extra = len(exc.violations) - 1
        _fail("semantics", first + (f" (and {extra} more)" if extra else ""))


def _context(net, text: str) -> Context:
    try:
        return parse_context(net, text)
    except ValueError as exc:
        _fail("context", str(exc), 2)


def _names(net, text: str, flag: str | None = None) -> list[str]:
    """The variables named in a comma-separated list; with ``flag``, an
    empty list is a usage error."""
    names = [n for n in (s.strip() for s in text.split(",")) if n]
    if flag and not names:
        _fail("usage", f"{flag} names no variable", 2)
    for n in names:
        net.variable(n)  # an unknown name is a domain error
    return names


def _emit_json(**fields):
    """Print one ``--json`` document, stamped with the schema version."""
    print(json.dumps({"schema_version": SCHEMA_VERSION, **fields}, indent=2))


def _format_tree(tree, indent: int = 0) -> str:
    pad = "  " * indent
    if isinstance(tree, Leaf):
        probs = ", ".join(f"{p:.6f}" for p in tree.dist.probs)
        return f"{pad}[{probs}]\n"
    out = [f"{pad}{tree.test}?\n"]
    for value, sub in tree.branches:
        out.append(f"{pad}  ={value}:\n")
        out.append(_format_tree(sub, indent + 2))
    return "".join(out)


# -- subcommands -------------------------------------------------------------


def _cmd_validate(args) -> int:
    violations: list[str] = []
    try:
        _parse(args.network)
    except NetworkFormatError as exc:
        if args.json:
            _emit_json(valid=False, violations=[str(exc)])
        else:
            _error("format", exc)
        return 1
    except NetworkSemanticsError as exc:
        violations = list(exc.violations)
    if args.json:
        _emit_json(valid=not violations, violations=violations)
        return 1 if violations else 0
    if violations:
        for v in violations:
            _error("semantics", v)
        return 1
    print("valid")
    return 0


def _run_query(net, args):
    query = Query(args.target, _context(net, args.evidence))
    try:
        if args.method == "enum":
            return query_enumerate(net, query)
        if args.method == "ve":
            return variable_elimination(net, query)
        if args.method == "polytree":
            return solve_singly_connected(net, query)
        tree = cutset_mod.build_conditional_cutset(net)
        return cutset_infer(net, query, tree)
    except ImpossibleEvidenceError as exc:
        _fail("impossible-evidence", str(exc))
    except NotSinglyConnectedError as exc:
        _fail("not-singly-connected", str(exc))
    except FactorTooLargeError as exc:
        _fail("too-large", str(exc))


def _render_result(net, args, result) -> int:
    values = net.values(args.target)
    if args.json:
        _emit_json(
            method=args.method,
            target=args.target,
            evidence=dict(sorted(_context(net, args.evidence).items())),
            posterior={v: result.posterior.probs[i] for i, v in enumerate(values)},
            evidence_probability=result.evidence_probability,
            log_evidence_probability=result.log_evidence_probability,
            evaluations=result.evaluations,
            messages_computed=result.messages_computed,
        )
        return 0
    for i, v in enumerate(values):
        print(f"{args.target}={v}: {result.posterior.probs[i]:.6f}")
    print(f"evidence probability: {result.evidence_probability:.6f}")
    if args.count_evals:
        print(f"evaluations: {result.evaluations}")
    return 0


def _cmd_infer(args) -> int:
    net = _load(args.network)
    net.variable(args.target)  # an unknown target fails before the evidence is read
    result = _run_query(net, args)
    return _render_result(net, args, result)


def _cmd_vacuous(args) -> int:
    net = _load(args.network)
    net.variable(args.node)  # an unknown node fails before the context is read
    ctx = _context(net, args.context)
    vac = sorted(vacuous_parents(net, args.node, ctx))
    if args.json:
        _emit_json(node=args.node, context=dict(sorted(ctx.items())), vacuous=vac)
        return 0
    print(" ".join(vac) if vac else "(none)")
    return 0


def _cmd_reduce(args) -> int:
    net = _load(args.network)
    net.variable(args.node)  # an unknown node fails before the context is read
    ctx = _context(net, args.context)
    tree = reduce_tree(as_tree(net, args.node), ctx)
    if args.json:
        _emit_json(node=args.node, context=dict(sorted(ctx.items())), tree=_tree_to_json(tree))
        return 0
    sys.stdout.write(_format_tree(tree))
    return 0


def _cmd_dsep(args) -> int:
    net = _load(args.network)
    xs, ys = _names(net, args.x, "-X"), _names(net, args.y, "-Y")
    zs = _names(net, args.z)
    sep = d_separated(net, xs, ys, zs)
    if args.json:
        _emit_json(x=xs, y=ys, z=zs, separated=sep)
        return 0
    print(f"d-separated: {'yes' if sep else 'no'}")
    return 0


def _cmd_csisep(args) -> int:
    net = _load(args.network)
    xs, ys = _names(net, args.x, "-X"), _names(net, args.y, "-Y")
    zs = _names(net, args.z)
    ctx = _context(net, args.context)
    sep = csi_separated(net, xs, ys, zs, ctx)
    if args.json:
        _emit_json(x=xs, y=ys, z=zs, context=dict(sorted(ctx.items())), separated=sep)
        return 0
    print(f"csi-separated: {'yes' if sep else 'no'}")
    return 0


def _report_to_obj(report) -> dict:
    return {
        "node": report.node,
        "table_entries_before": report.table_entries_before,
        "tree_entries_before": report.tree_entries_before,
        "conditionals": [
            {"name": name, "parents": list(parents), "entries": entries}
            for name, parents, entries in report.conditional_nodes
        ],
        "multiplexer": {"name": report.multiplexer[0], "rows": report.multiplexer[1]},
        "entries_after": report.entries_after,
    }


def _cmd_decompose(args) -> int:
    net = _load(args.network)
    decomposed, reports = transform.decompose_network(net)
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as handle:
                handle.write(serialize_network(decomposed))
        except OSError as exc:
            _fail("io", str(exc))
    if args.json:
        _emit_json(
            reports=[_report_to_obj(r) for r in reports],
            network=network_to_json(decomposed),
        )
        return 0
    if not reports:
        print("nothing to decompose")
    for r in reports:
        print(
            f"{r.node}: {r.table_entries_before} tabular entries "
            f"({r.tree_entries_before} tree leaves) -> {r.entries_after} after decomposition"
        )
        for name, parents, entries in r.conditional_nodes:
            src = ", ".join(parents) if parents else "(no parents)"
            print(f"  {name} <- {src} (entries: {entries})")
        print(f"  multiplexer {r.multiplexer[0]}: {r.multiplexer[1]} rows")
    if args.output:
        print(f"wrote {args.output}")
    else:
        print("---")
        sys.stdout.write(serialize_network(decomposed))
    return 0


def _clique_obj(report) -> dict:
    return {
        "elimination_order": list(report.elimination_order),
        "cliques": [sorted(c) for c in report.cliques],
        "max_clique_weight": report.max_clique_weight,
        "total_table_weight": report.total_table_weight,
    }


def _render_cliques(label: str, report):
    print(
        f"{label}: max clique weight {report.max_clique_weight:.6f}, "
        f"total table weight {report.total_table_weight:.6f}"
    )
    # members joined by spaces: decomposition names already contain commas
    rendered = " ".join("{" + " ".join(sorted(c)) + "}" for c in report.cliques)
    print(f"  cliques: {rendered}")


def _cmd_cliques(args) -> int:
    net = _load(args.network)
    before = transform.clique_report(net)
    decomposed, _ = transform.decompose_network(net)
    after = transform.clique_report(decomposed)
    if args.json:
        _emit_json(before=_clique_obj(before), after=_clique_obj(after))
        return 0
    _render_cliques("before", before)
    _render_cliques("after", after)
    return 0


def _cmd_cutset(args) -> int:
    net = _load(args.network)
    tree = cutset_mod.build_conditional_cutset(net)
    branches = cutset_mod.count_branches(tree)
    if args.json:
        _emit_json(tree=cutset_mod.cutset_tree_to_obj(tree), branches=branches)
        return 0
    sys.stdout.write(cutset_mod.format_cutset_tree(tree))
    print(f"branches: {branches}")
    return 0


# -- wiring ------------------------------------------------------------------


def _build_parser() -> _Parser:
    parser = _Parser(prog="csibn", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("network", help="path to a network JSON file")
        p.add_argument("--json", action="store_true", help="machine-readable output")
        p.set_defaults(func=func)
        return p

    add("validate", _cmd_validate, "check a network file and report violations")

    p = add("query", _cmd_infer, "posterior for one variable by enumeration")
    p.set_defaults(method="enum")
    p.add_argument("-q", "--target", required=True)
    p.add_argument("-e", "--evidence", default="", help='e.g. "A=t,B=f"')
    p.add_argument("--count-evals", action="store_true")

    p = add("infer", _cmd_infer, "posterior with a selectable engine")
    p.add_argument("-q", "--target", required=True)
    p.add_argument("-e", "--evidence", default="")
    p.add_argument(
        "--method",
        choices=("enum", "ve", "polytree", "cutset"),
        default="ve",
    )
    p.add_argument("--count-evals", action="store_true")

    p = add("vacuous", _cmd_vacuous, "parents made vacuous by a context")
    p.add_argument("-x", "--node", required=True)
    p.add_argument("-c", "--context", default="")

    p = add("reduce", _cmd_reduce, "CPT tree specialized to a context")
    p.add_argument("-x", "--node", required=True)
    p.add_argument("-c", "--context", default="")

    p = add("dsep", _cmd_dsep, "classical d-separation test")
    p.add_argument("-X", dest="x", required=True, help="comma-separated variables")
    p.add_argument("-Y", dest="y", required=True)
    p.add_argument("-Z", dest="z", default="")

    p = add("csisep", _cmd_csisep, "context-specific separation test")
    p.add_argument("-X", dest="x", required=True)
    p.add_argument("-Y", dest="y", required=True)
    p.add_argument("-Z", dest="z", default="")
    p.add_argument("-c", "--context", default="")

    p = add("decompose", _cmd_decompose, "split non-full tree CPTs via multiplexers")
    p.add_argument("-o", "--output", help="write the transformed network here")

    add("cliques", _cmd_cliques, "clique metrics before and after decomposition")
    add("cutset", _cmd_cutset, "build and print the conditional cutset")

    return parser


def run(argv) -> int:
    """Dispatch one invocation; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _Exit as exc:
        return exc.code
    except (KeyError, ValueError) as exc:  # unknown names, impossible requests
        _error("domain", exc.args[0] if exc.args else exc)
        return 1
    except RecursionError:  # a recursive walk, or json's encoder, on a deep cutset tree
        _error("too-deep", f"nesting exceeds the recursion limit ({sys.getrecursionlimit()})")
        return 1
    except SystemExit as exc:  # argparse help/version paths
        return int(exc.code or 0)


def main() -> int:
    return run(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
