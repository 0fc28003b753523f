"""Command-line interface.

Subcommands: compute, delta, gen, classify, enumerate, verify. All graph
input/output is line-oriented graph6; `-` or no file argument means stdin.
Exit code 0 on success (and verification pass), 1 on failure or bad input.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Iterator, TextIO

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
from .structure import (
    blocks,
    classify_block_in,
    graph_type,
    is_in_b,
    is_in_b0,
    is_in_b_literal,
    s_set,
)


def _open_input(path: str | None) -> TextIO:
    if path is None or path == "-":
        return sys.stdin
    return open(path, encoding="utf-8")


def _read_graphs(path: str | None) -> Iterator[Graph]:
    stream = _open_input(path)
    try:
        for lineno, line in enumerate(stream, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                g = parse_graph6(line)
            except Graph6ParseError as exc:
                raise Graph6ParseError(f"line {lineno}: {exc}") from exc
            yield g
    finally:
        if stream is not sys.stdin:
            stream.close()


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
    if args.family == "gkl":
        g = g_kl(args.k, args.l)
    elif args.family == "caveman":
        g = caveman(args.k, args.l)
    elif args.family == "caveman-rewired":
        g = caveman_rewired(args.k, args.l)
    else:
        with open(args.skeleton, encoding="utf-8") as fh:
            g = family_b(skeleton_from_dict(json.load(fh)))
    print(to_graph6(g))
    return 0


def _cmd_classify(args) -> int:
    failed = False
    for g in _read_graphs(args.file):
        s = to_graph6(g)
        try:
            dec = blocks(g)
        except ValueError as exc:
            print(json.dumps({"graph6": s, "error": str(exc)}))
            failed = True
            continue
        t = graph_type(g)
        obj = {
            "graph6": s,
            "n": g.n,
            "blocks": [list(b) for b in dec.blocks],
            "block_kinds": [classify_block_in(g, dec, b).value for b in dec.blocks],
            "cut_vertices": sorted(dec.cut_vertices),
            "type": [t.d, t.i2, t.i3],
            "blocks_legal": t.blocks_legal,
            "s_set": sorted(s_set(g)),
            "in_b0": is_in_b0(g) if g.n >= 6 else None,
            "in_b": is_in_b(g) if g.n >= 6 else None,
            "in_b_literal": is_in_b_literal(g) if g.n >= 6 else None,
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
    if args.theorem == "t1":
        report = verify_theorem1(args.k, args.n, workers=args.workers)
    elif args.theorem == "t23":
        report = verify_theorem23(args.n, workers=args.workers)
    elif args.theorem == "t4":
        report = verify_theorem4(args.n, workers=args.workers)
    else:
        report = verify_caveman_rewire(args.k, args.l)
    if args.json:
        print(report.to_json())
    else:
        for line in report.summary_lines():
            print(line)
    return 0 if report.passed else 1


def _build_parser() -> argparse.ArgumentParser:
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
    for fam in ("gkl", "caveman", "caveman-rewired"):
        q = gsub.add_parser(fam)
        q.add_argument("-k", type=int, required=True)
        q.add_argument("-l", type=int, required=True)
        q.set_defaults(func=_cmd_gen)
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
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("verify", help="run one exhaustive verification")
    vsub = p.add_subparsers(dest="theorem", required=True)
    q = vsub.add_parser("t1", help="k-regular bound")
    q.add_argument("-k", type=int, required=True)
    q.add_argument("-n", type=int, required=True)
    q = vsub.add_parser("t23", help="subcubic bound and characterization")
    q.add_argument("-n", type=int, required=True)
    q = vsub.add_parser("t4", help="single-edge increase bound")
    q.add_argument("-n", type=int, required=True)
    q = vsub.add_parser("caveman", help="rewiring strictly increases C")
    q.add_argument("-k", type=int, required=True)
    q.add_argument("-l", type=int, required=True)
    for q in vsub.choices.values():
        q.add_argument("--json", action="store_true")
        q.add_argument("--workers", type=int, default=1)
        q.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (Graph6ParseError, CapabilityError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
