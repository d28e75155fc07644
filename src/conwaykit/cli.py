"""Command line front end.

Subcommands compute invariants of a PD-coded diagram (conway, a2, lk),
evaluate the torus-link closed form and the knot-family product (torus,
kn), or run the full verification harness (verify).  Results go to
stdout, diagnostics to stderr.  Exit codes: 0 success / all checks
passed, 1 failed verification, exhausted node budget or a broken engine
invariant, 2 usage or input errors.
"""

from __future__ import annotations

import argparse
import json
import sys

from .diagram import components, linking_number, parse_pd, pd_text
from .poly import MAX_EXPONENT, format_poly
from .skein import (
    NodeBudgetExceeded,
    SkeinContext,
    SkeinInvariantError,
    a2,
    conway,
    conway_Kn,
    conway_torus2,
)


def _positive_int(text: str) -> int:
    """argparse type of the index bounds and the node budget."""
    try:
        if int(text) >= 1:
            return int(text)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")


# the bounds `verify` takes; one left unset keeps the harness's default
_VERIFY_BOUNDS = ("max_n", "max_l", "max_r")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="conwaykit",
        description="Conway polynomials of oriented link diagrams, exactly.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, **defaults):
        # after the command's own options; main calls the command's run(args)
        p.add_argument(
            "--format", choices=("text", "json"), default="text", help="output format"
        )
        p.add_argument(
            "--verbose", action="store_true", help="engine statistics on stderr"
        )
        p.set_defaults(**defaults)

    def add_diagram_command(name: str, summary: str, compute) -> None:
        p = sub.add_parser(name, help=summary)
        src = p.add_mutually_exclusive_group(required=True)
        src.add_argument("--pd", help="PD code, e.g. 'X(1,4,2,5);X(3,6,4,1);X(5,2,6,3)'")
        src.add_argument("--file", help="file containing a PD code")
        p.add_argument(
            "--budget", type=_positive_int, help="node budget for the skein search"
        )
        add_common(p, run=_run_diagram_command, compute=compute)

    add_diagram_command(
        "conway", "Conway polynomial of a diagram",
        lambda d, ctx: format_poly(conway(d, ctx)),
    )
    add_diagram_command("a2", "z^2 coefficient of a knot diagram", a2)
    add_diagram_command(
        "lk", "pairwise linking numbers of a link diagram", _linking_numbers
    )

    p = sub.add_parser("torus", help="Conway polynomial of the (2, m) torus link")
    p.add_argument("--m", type=int, required=True)
    add_common(p, run=_run_torus)

    p = sub.add_parser("kn", help="Conway polynomial of the n-th twisted knot product")
    p.add_argument("--n", type=int, required=True)
    add_common(p, run=_run_kn)

    p = sub.add_parser("verify", help="run every verification check")
    for bound in _VERIFY_BOUNDS:
        p.add_argument("--" + bound.replace("_", "-"), type=_positive_int)
    add_common(p, run=_run_verify)

    return parser


def _emit(args: argparse.Namespace, input_text: str, result) -> None:
    if args.format == "json":
        print(json.dumps({"command": args.command, "input": input_text, "result": result}))
    elif isinstance(result, dict):
        for key, value in result.items():
            print(f"{key} = {value}")
    else:
        print(result)


def _run_diagram_command(args: argparse.Namespace) -> None:
    """A diagram command: read and parse the diagram, print compute(d, ctx)."""
    text = args.pd
    if text is None:
        try:
            with open(args.file, encoding="utf-8") as fh:
                text = fh.read().strip()
        except (OSError, UnicodeDecodeError) as exc:
            raise ValueError(f"cannot read {args.file}: {exc}") from exc
    d = parse_pd(text)
    ctx = SkeinContext()
    if args.budget is not None:
        ctx.node_budget = args.budget
    _emit(args, pd_text(d), args.compute(d, ctx))
    if args.verbose:
        print(
            f"nodes expanded: {ctx.nodes_expanded}, cache hits: {ctx.cache_hits}",
            file=sys.stderr,
        )


def _refuse_degree(degree: int) -> None:
    """Refuse, before computing, a result that parse_poly could not read back."""
    if degree > MAX_EXPONENT:
        raise ValueError(
            f"the result has degree {degree}, above the largest exponent "
            f"conwaykit reads back, {MAX_EXPONENT}"
        )


def _run_torus(args: argparse.Namespace) -> None:
    _refuse_degree(args.m - 1)
    _emit(args, str(args.m), format_poly(conway_torus2(args.m)))


def _run_kn(args: argparse.Namespace) -> None:
    n = args.n
    _refuse_degree(4 * n + 2)
    # Pythons before 3.10.7 print every int; 0 is no limit
    limit = getattr(sys, "get_int_max_str_digits", int)()
    if n >= 1 and limit:
        # conway_Kn(n) has 2n + 2 nonzero coefficients, all positive, and its
        # value at z = 1 is F(2n+3)F(2n+1) (conway_torus2(m) there is the
        # Fibonacci number F(m)); a sum of at least (2n + 2)10^limit has a
        # term of over limit digits.  F(k), F(k+1) by fast doubling:
        f, g = 0, 1
        for bit in bin(2 * n + 1)[2:]:
            f, g = f * (2 * g - f), f * f + g * g
            if bit == "1":
                f, g = g, f + g
        if f * (f + g) >= (2 * n + 2) * 10**limit:
            msg = f"cannot print the result: a coefficient has over {limit} digits"
            raise ValueError(msg)
    _emit(args, str(n), format_poly(conway_Kn(n)))


def _linking_numbers(d, ctx: SkeinContext) -> dict[str, int]:
    n = len(components(d))
    result = {
        f"lk({i},{j})": linking_number(d, i, j) for i in range(n) for j in range(i + 1, n)
    }
    if not result:
        print("diagram has a single component; no pairs", file=sys.stderr)
    return result


def _run_verify(args: argparse.Namespace) -> int:
    # only this command needs the harness; the others never load it
    from .verify import VerifyConfig, run_all

    given = {b: getattr(args, b) for b in _VERIFY_BOUNDS if getattr(args, b) is not None}
    reports = run_all(VerifyConfig(**given))
    failed = [r for r in reports if not r.passed]
    if args.format == "json":
        for r in reports:
            print(json.dumps(r._asdict()))
    else:
        for r in reports:
            if r.passed:
                print(f"PASS {r.check_name}: {r.computed}")
            else:
                print(
                    f"FAIL {r.check_name}: expected {r.expected}; computed {r.computed}"
                )
        if failed:
            print(f"{len(failed)} OF {len(reports)} CHECKS FAILED")
        else:
            print("ALL CHECKS PASSED")
    if args.verbose:
        print(f"{len(reports)} checks, {len(failed)} failed", file=sys.stderr)
    return 1 if failed else 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help, 2 for usage errors
        return int(exc.code or 0)

    try:
        return args.run(args) or 0  # None from a handler is success
    except (NodeBudgetExceeded, SkeinInvariantError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        # PD and polynomial syntax errors, bad table files (TableError is a
        # ValueError), bad indices
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
