"""Command-line interface.

Subcommands: gen, classify, pathwidth, verify-decomp, linked, minor, triple,
experiment.  Any file argument accepts `-` for standard input.  All JSON
output carries a top-level "schema" field.  Exit codes: 0 success; 1 negative
result (invalid decomposition, absent minor/triple, failed experiment);
2 usage, parse, or parameter errors -- except `minor`, where 2 means the
search budget ran out and usage, input and parameter errors exit 3.  A closed
standard output keeps the command's exit code.  Each command returns its exit
code and output text; only `main` parses, writes and maps errors to codes.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys

from .core import FAMILIES, classify, gen_family, parse_digraph
from .connectivity import find_k_triple
from .pathdecomp import PathDecomposition, build_linked, exact_pathwidth, verify
from .minor import BudgetExceededError, find_minor
from .experiments import EXPERIMENTS, run_experiment


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _load_digraph(path: str):
    return parse_digraph(_read(path))


def _load_decomposition(path: str) -> PathDecomposition:
    return PathDecomposition.from_json(_read(path))


def _parse_vertex_set(text: str) -> frozenset[int]:
    text = text.strip()
    if not text:
        return frozenset()
    return frozenset(int(x) for x in text.split(","))


def _cmd_gen(args) -> tuple[int, str]:
    return 0, gen_family(args.family, args.size, args.seed).to_text()


def _cmd_classify(args) -> tuple[int, str]:
    c = classify(_load_digraph(args.graph))
    return 0, json.dumps({"schema": "digraph-class/1", **dataclasses.asdict(c)}) + "\n"


def _cmd_pathwidth(args) -> tuple[int, str]:
    g = _load_digraph(args.graph)
    width, decomposition = exact_pathwidth(g)
    if args.decomp:
        with open(args.decomp, "w", encoding="utf-8") as fh:
            fh.write(decomposition.to_json() + "\n")
    return 0, f"{width}\n"


def _cmd_verify_decomp(args) -> tuple[int, str]:
    g = _load_digraph(args.graph)
    p = _load_decomposition(args.decomp)
    report = verify(g, p, check_linked=args.linked)
    ok = report.valid
    if args.linked and report.linked is not None:
        ok = ok and (
            report.linked.increment_ok
            and report.linked.cardinality_ok
            and report.linked.linked_ok
        )
    return (0 if ok else 1), report.to_json() + "\n"


def _cmd_linked(args) -> tuple[int, str]:
    g = _load_digraph(args.graph)
    p = _load_decomposition(args.decomp)
    a = _parse_vertex_set(args.first)
    b = _parse_vertex_set(args.last)
    return 0, build_linked(g, p, a, b).to_json() + "\n"


def _cmd_minor(args) -> tuple[int, str]:
    pattern = _load_digraph(args.pattern)
    host = _load_digraph(args.host)
    try:
        mapping = find_minor(pattern, host, budget=args.budget)
    except BudgetExceededError:
        return 2, "budget\n"
    if mapping is None:
        return 1, "absent\n"
    return 0, mapping.to_json() + "\n"


def _cmd_triple(args) -> tuple[int, str]:
    g = _load_digraph(args.graph)
    triple = find_k_triple(g, args.k)
    if triple is None:
        return 1, "absent\n"
    return 0, json.dumps(
        {
            "schema": "ktriple/1",
            "a": list(triple.a),
            "b": list(triple.b),
            "c": list(triple.c),
        }
    ) + "\n"


def _cmd_experiment(args) -> tuple[int, str]:
    params = {}
    for item in args.param or []:
        if "=" not in item:
            raise ValueError(f"--param expects key=value, got {item!r}")
        key, value = item.split("=", 1)
        params[key] = value
    report = run_experiment(args.name, **params)
    ok = report["aggregate"].get("all_pass", True)
    return (0 if ok else 1), json.dumps(report, indent=2) + "\n"


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on the first call and shared after it."""
    parser = argparse.ArgumentParser(
        prog="digraph-minors",
        description="Directed minors, path-decompositions, and the machinery around them.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a digraph family member")
    p.add_argument("family", choices=sorted(FAMILIES))
    p.add_argument("size", type=int)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(fn=_cmd_gen)

    p = sub.add_parser("classify", help="structural flags and stability number")
    p.add_argument("graph")
    p.set_defaults(fn=_cmd_classify)

    p = sub.add_parser("pathwidth", help="exact path-width")
    p.add_argument("graph")
    p.add_argument("--decomp", help="write the witnessing decomposition JSON here")
    p.set_defaults(fn=_cmd_pathwidth)

    p = sub.add_parser("verify-decomp", help="verify a path-decomposition")
    p.add_argument("graph")
    p.add_argument("decomp")
    p.add_argument("--linked", action="store_true")
    p.set_defaults(fn=_cmd_verify_decomp)

    p = sub.add_parser("linked", help="build a linked decomposition")
    p.add_argument("graph")
    p.add_argument("decomp")
    p.add_argument("--first", default="", help="comma-separated first bag (default empty)")
    p.add_argument("--last", default="", help="comma-separated last bag (default empty)")
    p.set_defaults(fn=_cmd_linked)

    p = sub.add_parser("minor", help="exact minor containment search")
    p.add_argument("pattern")
    p.add_argument("host")
    p.add_argument("--budget", type=int, default=None)
    p.set_defaults(fn=_cmd_minor)

    p = sub.add_parser("triple", help="find a k-triple")
    p.add_argument("graph")
    p.add_argument("k", type=int)
    p.set_defaults(fn=_cmd_triple)

    p = sub.add_parser("experiment", help="run a named experiment")
    p.add_argument("name", choices=sorted(EXPERIMENTS))
    p.add_argument("--param", action="append", metavar="KEY=VALUE")
    p.set_defaults(fn=_cmd_experiment)

    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    error_code = 3 if "minor" in argv[:1] else 2
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        if exc.code != 2:
            raise
        return error_code
    try:
        code, text = args.fn(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return error_code
    try:
        print(text, end="", flush=True)
    except BrokenPipeError:
        # The reader has gone; the exit code stands.  The rest of the buffer
        # goes to the null device, so the flush at exit cannot fail again.
        stdout = sys.stdout.fileno()
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, stdout)
        os.close(devnull)
    return code


if __name__ == "__main__":
    sys.exit(main())
