"""Command-line interface.

Subcommands: compute, delta, gen, classify, enumerate, verify. All graph
input/output is line-oriented graph6; `-` or no file argument means stdin.
Exit code 0 on success (and verification pass), 1 on failure or bad input.
"""

from __future__ import annotations

import argparse
import fileinput
import json
import os
import sys
from typing import Iterator

from .clustering import decimal_str, edge_add_delta, graph_cc, local_cc
from .enumeration import DegreeConstraint, count, enumerate_graphs
from .generators import (
    caveman,
    caveman_rewired,
    family_b,
    g_kl,
    skeleton_from_dict,
)
from .graphs import (
    CapabilityError,
    Graph,
    Graph6ParseError,
    parse_graph6,
    to_graph6,
)
from .harness import (
    verify_caveman_rewire,
    verify_theorem1,
    verify_theorem23,
    verify_theorem4,
)
from .structure import _structure, s_set


def _read_graphs(path: str | None) -> Iterator[Graph]:
    # FileInput reads sys.stdin for "-" and leaves it open
    with fileinput.FileInput(("-" if path is None else path,), encoding="utf-8") as stream:
        for lineno, line in enumerate(stream, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                g = parse_graph6(line)
            except Graph6ParseError as exc:
                raise Graph6ParseError(f"line {lineno}: {exc}") from exc
            yield g


def _fmt(q) -> str:
    return f"{q.numerator}/{q.denominator} {decimal_str(q)}"


def _cmd_compute(args) -> int:
    for g in _read_graphs(args.file):
        print(f"{to_graph6(g)} {_fmt(graph_cc(g))}")
        if args.per_vertex:
            for u in range(g.n):
                print(f"  {u} {_fmt(local_cc(g, u))}")
    return 0


def _cmd_delta(args) -> int:
    for g in _read_graphs(args.file):
        print(f"{to_graph6(g)} {_fmt(edge_add_delta(g, args.u, args.v))}")
    return 0


def _cmd_gen(args) -> int:
    if args.family == "family-b":
        with open(args.skeleton, encoding="utf-8") as fh:
            g = family_b(skeleton_from_dict(json.load(fh)))
    else:
        g = args.make(args.k, args.l)
    print(to_graph6(g))
    return 0


def _cmd_classify(args) -> int:
    failed = False
    for g in _read_graphs(args.file):
        g6 = to_graph6(g)
        try:
            st = _structure(g)
        except ValueError as exc:
            print(json.dumps({"graph6": g6, "error": str(exc)}))
            failed = True
            continue
        s = s_set(g)
        obj = {
            "graph6": g6,
            "n": g.n,
            "blocks": [list(b) for b in st.dec.blocks],
            "block_kinds": [kind.value for kind in st.kinds],
            "cut_vertices": sorted(st.dec.cut_vertices),
            "type": list(st.type),
            "blocks_legal": st.type.blocks_legal,
            "s_set": sorted(s),
            "in_b0": st.in_b0,
            "in_b": st.in_b(s),
            "in_b_literal": st.in_b_literal,
        }
        print(json.dumps(obj))
    return 1 if failed else 0


def _cmd_enumerate(args) -> int:
    if args.regular is not None:
        c = DegreeConstraint.regular(args.regular, connected=args.connected)
    elif args.max_deg is not None:
        c = DegreeConstraint.max_degree(args.max_deg, connected=args.connected)
    else:
        c = DegreeConstraint.any_degree(connected=args.connected)
    if args.count_only:
        print(count(args.n, c, workers=args.workers))
    else:
        for g in enumerate_graphs(args.n, c, workers=args.workers):
            print(to_graph6(g))
    return 0


def _cmd_verify(args) -> int:
    report = args.verify(args)
    if args.json:
        print(report.to_json())
    else:
        for line in report.summary_lines():
            print(line)
    return 0 if report.passed else 1


def _build_parser() -> argparse.ArgumentParser:
    workers_help = "processes for a large enumeration, capped at the CPUs this process may use"
    parser = argparse.ArgumentParser(
        prog="cc",
        description="Exact clustering coefficients, extremal families, and "
        "exhaustive verification of their maximality bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", help="clustering coefficient of graph6 input")
    p.add_argument("file", nargs="?", help="graph6 file, or - for stdin")
    p.add_argument("--per-vertex", action="store_true", help="also list local values")
    p.set_defaults(func=_cmd_compute)

    p = sub.add_parser("delta", help="C(G+uv) - C(G) for graph6 input")
    p.add_argument("-u", type=int, required=True)
    p.add_argument("-v", type=int, required=True)
    p.add_argument("file", nargs="?", help="graph6 file, or - for stdin")
    p.set_defaults(func=_cmd_delta)

    p = sub.add_parser("gen", help="generate a named family member")
    gsub = p.add_subparsers(dest="family", required=True)
    for fam, make in (("gkl", g_kl), ("caveman", caveman), ("caveman-rewired", caveman_rewired)):
        q = gsub.add_parser(fam)
        q.add_argument("-k", type=int, required=True)
        q.add_argument("-l", type=int, required=True)
        q.set_defaults(func=_cmd_gen, make=make)
    q = gsub.add_parser("family-b")
    q.add_argument(
        "--skeleton",
        required=True,
        help="JSON file with keys edges, leaf_marks, inner_marks",
    )
    q.set_defaults(func=_cmd_gen)

    p = sub.add_parser("classify", help="block structure as JSON lines")
    p.add_argument("file", nargs="?", help="graph6 file, or - for stdin")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("enumerate", help="isomorph-free exhaustive generation")
    p.add_argument("-n", type=int, required=True)
    grp = p.add_mutually_exclusive_group()
    grp.add_argument("--max-deg", type=int, help="maximum degree")
    grp.add_argument("--regular", type=int, help="exact degree")
    p.add_argument("--connected", action="store_true")
    p.add_argument("--count-only", action="store_true")
    p.add_argument("--workers", type=int, default=1, help=workers_help)
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("verify", help="run one exhaustive verification")
    vsub = p.add_subparsers(dest="theorem", required=True)
    q = vsub.add_parser("t1", help="k-regular bound")
    q.add_argument("-k", type=int, required=True)
    q.add_argument("-n", type=int, required=True)
    q.set_defaults(verify=lambda a: verify_theorem1(a.k, a.n, workers=a.workers))
    q = vsub.add_parser("t23", help="subcubic bound and characterization")
    q.add_argument("-n", type=int, required=True)
    q.set_defaults(verify=lambda a: verify_theorem23(a.n, workers=a.workers))
    q = vsub.add_parser("t4", help="single-edge increase bound")
    q.add_argument("-n", type=int, required=True)
    q.set_defaults(verify=lambda a: verify_theorem4(a.n, workers=a.workers))
    for q in vsub.choices.values():  # the enumerating checks; caveman has no workers
        q.add_argument("--workers", type=int, default=1, help=workers_help)
    q = vsub.add_parser("caveman", help="rewiring strictly increases C")
    q.add_argument("-k", type=int, required=True)
    q.add_argument("-l", type=int, required=True)
    q.set_defaults(verify=lambda a: verify_caveman_rewire(a.k, a.l))
    for q in vsub.choices.values():
        q.add_argument("--json", action="store_true")
        q.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # the reader closed the pipe (`cc enumerate ... | head -1`): no error
        # message, and stdout goes to devnull so the interpreter's last flush
        # of the buffered output raises nothing at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (Graph6ParseError, CapabilityError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
