"""Command-line front door: solve, check, search, and gen subcommands.

Exit codes are uniform across subcommands.  Exits 0, 1 and 5 print one
JSON report to stdout and nothing to stderr; exits 2, 3 and 6 print one
`error:` line to stderr and no report (an option the parser rejects also
gets its usage lines first); exit 141 prints nothing:

    0  verdict holds / solution found / document written
    1  verdict fails / no solution exists
    2  invalid input (syntax, schema, invariants, bad parameters)
    3  the equilibrium solver found no exactly certified equilibrium
    4  retired: the CEEI-disc bundle walk counts its nodes, so it exits 5
    5  a walk entered node --limit-nodes and left the question undecided
    6  internal error: an unexpected exception, reported by its type
  141  stdout was closed before the report was written, as in `| head -1`
       (128 + SIGPIPE, the status a shell shows for a writer that signal ended)

A report holds, in this order, "command"; "instance" (digest, agents,
objects); "config", the options the handler read; "result"; and "timings".
`main` hands each handler an empty report.  The handler writes the first
three through `_head` once it has parsed its documents and before it calls
an engine, then writes the result and returns its exit code; `main` adds
the timings.  A walk that stops undecided raises InconclusiveSearch, which
`main` alone turns into exit 5 and the one {"status": "inconclusive",
"nodes_explored": ..., "best_welfare": ...} result of every `check` and
`search` command; `search … mnw` instead answers "truncated" with the best
assignment found.  The existence targets of `search` share one {"status":
"none"} result and one {"status": "found", "owner": ...} result, to which
ceei-disc adds "prices".  On identical nonzero rows both targets run the
counted equal-split race of `search.find_ceei_disc_identical`.

Exact rationals are reported as {"exact": "19/20", "decimal": 0.95} pairs,
with a null decimal for values beyond float range.

Every command parses and reports through `errors`, `model` and `instances`,
which is all `gen` loads.  Each other handler imports its own engine when it
runs: `solve` loads `equilibrium`, `check` loads `fairness` and `search`
loads `search`, so a one-shot command compiles no module it never calls.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from decimal import Decimal

from .errors import (
    DEFAULT_BUNDLE_LIMIT,
    DEFAULT_ENUM_LIMIT,
    CeeiError,
    InconclusiveSearch,
    NonConvergence,
    SchemaError,
    _check_limit,
)
from .instances import (
    PartitionInput,
    ThreePartitionInput,
    from_partition,
    from_three_partition,
    gen_random,
    instance_digest,
    parse_assignment,
    parse_instance,
    serialize_instance,
)
from .model import (
    DominatingAssignment,
    EnvyPair,
    KktViolation,
    PriceSupport,
    ViolatingBundle,
)

EXIT_HOLDS = 0
EXIT_FAILS = 1
EXIT_INVALID = 2
EXIT_NO_CONVERGENCE = 3
EXIT_INCONCLUSIVE = 5
EXIT_INTERNAL = 6
EXIT_CLOSED_PIPE = 141

# The exit code of each error a handler may raise, first match wins; any
# other exception is a bug and exits EXIT_INTERNAL, because an uncaught one
# would exit 1 like a failed verdict.
_ERROR_EXITS = (
    (NonConvergence, EXIT_NO_CONVERGENCE),
    (OSError, EXIT_INVALID),
    (ValueError, EXIT_INVALID),
    (CeeiError, EXIT_INVALID),
)


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    started = time.monotonic()
    report = {}
    try:
        code = args.handler(args, report)
    except InconclusiveSearch as exc:
        welfare = exc.best_welfare  # None when no welfare search ran
        report["result"] = {
            "status": "inconclusive",
            "nodes_explored": exc.nodes_explored,
            "best_welfare": None if welfare is None else _number(welfare),
        }
        code = EXIT_INCONCLUSIVE
    except Exception as exc:
        code = next((code for kind, code in _ERROR_EXITS if isinstance(exc, kind)), EXIT_INTERNAL)
        message = f"internal error: {exc!r}" if code == EXIT_INTERNAL else exc
        print(f"error: {message}", file=sys.stderr)
        return code
    report["timings"] = {"total_seconds": time.monotonic() - started}
    try:
        print(json.dumps(report, indent=2))
        sys.stdout.flush()
    except BrokenPipeError:
        # Nobody reads the report.  Point stdout at devnull, as Python's
        # signal docs advise for SIGPIPE, so the interpreter's final flush
        # does not fail again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_CLOSED_PIPE
    return code


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="ceei",
        description="Equilibrium solver and fairness verifiers for indivisible-object assignment.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="compute the fractional equilibrium")
    solve.add_argument("instance", help="path to an instance document")
    solve.set_defaults(handler=_cmd_solve)

    check = sub.add_parser("check", help="verify a fairness notion for a discrete assignment")
    check.add_argument("instance")
    check.add_argument("assignment", help="path to an {\"owner\": [...]} document")
    check.add_argument("notion", choices=["ef", "po", "ceei-frac", "ceei-disc"])
    check.add_argument(
        "--limit-nodes",
        type=_limit,
        default=None,
        help="at least 1, the most nodes a walk may visit; each walk counts its nodes and"
        f" exits 5 at the limit: po over owner vectors (default {DEFAULT_ENUM_LIMIT}), ceei-disc over"
        f" bundles when neither envy nor the ceei-frac prices decide (default {DEFAULT_BUNDLE_LIMIT});"
        " ignored by ef and ceei-frac",
    )
    check.set_defaults(handler=_cmd_check)

    searchp = sub.add_parser("search", help="search for discrete assignments")
    searchp.add_argument("instance")
    searchp.add_argument(
        "target",
        choices=["mnw", "ceei-frac", "ceei-disc"],
    )
    searchp.add_argument(
        "--limit-nodes",
        type=_limit,
        default=None,
        help=f"at least 1, the most nodes a walk may visit (default {DEFAULT_ENUM_LIMIT}): the mnw and"
        " ceei-frac branch and bound and the ceei-disc walk over envy-free owner vectors"
        " count their nodes (exit 5 at the limit; branch and bound ignores it on 0/1 rows);"
        " on identical nonzero rows, 0/1 ones too, both ceei targets count the steps of an"
        " equal-split race instead (exit 5); ceei-disc checks each envy-free owner vector"
        f" that is not ceei-frac by a bundle walk of at most {DEFAULT_BUNDLE_LIMIT} nodes (exit 5 past it)",
    )
    searchp.set_defaults(handler=_cmd_search)

    gen = sub.add_parser("gen", help="generate an instance document")
    gen.add_argument("kind", choices=["random", "partition", "3partition"])
    gen.add_argument("--out", required=True, help="output path for the instance document")
    gen.add_argument("-n", "--agents", type=int, default=2)
    gen.add_argument("-m", "--objects", type=int, default=4)
    gen.add_argument("--max-util", type=int, default=100, help="1 gives 0/1 utilities")
    gen.add_argument("--seed", type=int, default=None)
    gen.add_argument("--set", dest="integers", default=None, help="comma-separated integers (partition)")
    gen.add_argument("--weights", default=None, help="comma-separated weights (3partition)")
    gen.add_argument("--bound", type=int, default=None, help="target sum W (3partition)")
    gen.set_defaults(handler=_cmd_gen)

    return parser


def _limit(text):
    """The type of --limit-nodes: an int that passes `_check_limit`, for every
    command that takes it, whether or not its target uses it."""
    try:
        value = int(text)
        _check_limit(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be an int of at least 1, not {text!r}") from None
    return value


def _cmd_solve(args, report):
    from .equilibrium import solve_eg

    inst = parse_instance(_read(args.instance))
    _head(report, "solve", inst, {})
    solution = solve_eg(inst)
    report["result"] = {
        "u_star": [_number(u) for u in solution.u_star],
        "p_star": [_number(p) for p in solution.p_star],
        "x": [[_number(v) for v in row] for row in solution.x.rows],
        "iterations": solution.iterations,
        "certified_exact": solution.certified,
    }
    return EXIT_HOLDS


def _cmd_check(args, report):
    from .fairness import is_envy_free, is_pareto_optimal_discrete, verify_ceei_disc, verify_ceei_frac

    inst = parse_instance(_read(args.instance))
    y = parse_assignment(_read(args.assignment), inst)
    _head(report, "check", inst, {"notion": args.notion, "limit_nodes": args.limit_nodes})
    if args.notion == "ef":
        verdict = is_envy_free(inst, y)
    elif args.notion == "po":
        verdict = is_pareto_optimal_discrete(inst, y, args.limit_nodes)
    elif args.notion == "ceei-frac":
        verdict = verify_ceei_frac(inst, y)
    else:
        verdict = verify_ceei_disc(inst, y, args.limit_nodes)
    report["result"] = {
        "owner": list(y.owner),
        "holds": verdict.holds,
        "certificate": _certificate(verdict.certificate),
    }
    return EXIT_HOLDS if verdict.holds else EXIT_FAILS


def _cmd_search(args, report):
    from . import search

    inst = parse_instance(_read(args.instance))
    limit = args.limit_nodes
    _head(report, "search", inst, {"target": args.target, "limit_nodes": limit})

    if args.target == "mnw":
        result = search.max_nash_discrete(inst, limit=limit)
        report["result"] = {
            "status": "optimal" if result.optimal else "truncated",
            "owner": list(result.best.owner),
            "welfare": _number(result.welfare),
            "nodes_explored": result.nodes_explored,
        }
        return EXIT_HOLDS if result.optimal else EXIT_INCONCLUSIVE

    # the existence targets share one report; `extra` is what only ceei-disc adds
    extra = {}
    if args.target == "ceei-frac":
        found = search.exists_ceei_frac_discrete(inst, limit=limit)
    else:
        found, prices = search.exists_ceei_disc_bruteforce(inst, limit=limit) or (None, ())
        extra = {"prices": [_number(p) for p in prices]}
    if found is None:
        report["result"] = {"status": "none"}
        return EXIT_FAILS
    report["result"] = {"status": "found", "owner": list(found.owner), **extra}
    return EXIT_HOLDS


def _cmd_gen(args, report):
    if args.kind == "random":
        inst = gen_random(args.agents, args.objects, args.max_util, seed=args.seed)
        params = {"agents": args.agents, "objects": args.objects, "max_util": args.max_util, "seed": args.seed}
    elif args.kind == "partition":
        if args.integers is None:
            raise SchemaError("set", "partition generation needs --set")
        inst = from_partition(PartitionInput(_parse_ints(args.integers, "set")))
        params = {"set": args.integers}
    else:
        if args.weights is None or args.bound is None:
            raise SchemaError("weights", "3partition generation needs --weights and --bound")
        inst = from_three_partition(
            ThreePartitionInput(_parse_ints(args.weights, "weights"), args.bound)
        )
        params = {"weights": args.weights, "bound": args.bound}

    _head(report, "gen", inst, {"kind": args.kind, **params})
    document = serialize_instance(inst)
    with open(args.out, "w", encoding="utf-8") as handle:
        handle.write(document + "\n")
    report["result"] = {"written": args.out}
    return EXIT_HOLDS


def _parse_ints(text, field):
    try:
        return [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError as exc:
        raise SchemaError(field, "expected comma-separated integers") from exc


def _read(path):
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _head(report, command, inst, config):
    report["command"] = command
    report["instance"] = {"digest": instance_digest(inst), "agents": inst.n, "objects": inst.m}
    report["config"] = config


def _number(value):
    try:
        decimal = float(value)
    except OverflowError:
        decimal = None
    # Decimal writes ints past sys.get_int_max_str_digits(), which str()
    # obeys; the limit stays in force for parsing input
    num, den = str(Decimal(value.numerator)), str(Decimal(value.denominator))
    return {"exact": num if den == "1" else f"{num}/{den}", "decimal": decimal}


def _certificate(cert):
    if cert is None:
        return None
    if isinstance(cert, EnvyPair):
        return {"type": "envy_pair", "envious": cert.envious, "envied": cert.envied}
    if isinstance(cert, DominatingAssignment):
        return {"type": "dominating_assignment", "owner": list(cert.assignment.owner)}
    if isinstance(cert, PriceSupport):
        return {"type": "price_support", "prices": [_number(p) for p in cert.prices]}
    if isinstance(cert, ViolatingBundle):
        return {"type": "violating_bundle", "agent": cert.agent, "objects": list(cert.objects)}
    if isinstance(cert, KktViolation):
        return {
            "type": "ratio_gap",
            "agent": cert.agent,
            "object": cert.object,
            "gap": _number(cert.ratio_gap),
        }
    raise TypeError(f"unknown certificate {cert!r}")
