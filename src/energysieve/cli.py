"""Command-line surface: set generation, energy, sieve checks, sweeps.

Outputs are CSV by default (JSON mirrors under --format json) and are
byte-deterministic for a fixed seed, except for the seconds column of sweep
rows.  Exit codes: 0 success, 2 usage or parse failure, 3 internal invariant
violation, 4 resource cap exceeded or memory exhausted.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields

from . import correlation, energy, sets, sieve
from .arith import EpsilonSpec
from .errors import InvariantViolationError, ResourceLimitError, SetFileError
from .limits import exact_fraction, exact_int, max_sweep_n

USAGE_EXIT = 2
INVARIANT_EXIT = 3
RESOURCE_EXIT = 4


def _parse_eps(text: str) -> EpsilonSpec:
    """A constant like `0.5` or `1/2`; any other text, a key-value config file."""
    try:
        return EpsilonSpec.constant(exact_fraction(text))
    except (ValueError, ZeroDivisionError):
        if os.path.exists(text):
            return EpsilonSpec.from_file(text)
        raise ValueError(f"bad epsilon {text!r}: not a number and not a file") from None


def _parse_grid(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        value = exact_int(part, "grid value")
        if value < 2:
            raise ValueError("grid values must be at least 2: rows divide by log N")
        out.append(value)
    if not out:
        raise ValueError("empty sweep grid")
    return sorted(set(out))


def _cell(value) -> str:
    """One CSV cell; None only ever stands for an inconclusive bound."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if value is None:
        return "inconclusive"
    return str(value)


def _emit(args, columns, rows, payload=None, footer=None) -> None:
    """Write rows as CSV, or the payload (default: the rows) as JSON."""
    if args.format == "json":
        data = rows if payload is None else payload
        text = json.dumps(data, indent=2, sort_keys=True, default=str) + "\n"
    else:
        lines = [",".join(columns)]
        lines += [",".join(_cell(row[c]) for c in columns) for row in rows]
        if footer is not None:
            lines.append(footer)
        text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _records(columns, objs) -> list[dict]:
    """Row dicts from dataclasses whose fields are in column order."""
    return [dict(zip(columns, (getattr(o, f.name) for f in fields(o)))) for o in objs]


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _random_avoiding(args) -> sets.IntegerSet:
    if args.seed is not None and args.strategy != "uniform":
        args.parser.error("--seed is read only under --strategy uniform")
    return sets.residue_avoiding_random(args.N, _parse_eps(args.eps), args.P, args.seed or 0,
                                        strategy=args.strategy)


def _cmd_gen(args) -> int:
    result = args.make(args)
    sets.write_set(result, args.out)
    print(f"wrote {len(result)} elements (N={result.cap}) to {args.out}", file=sys.stderr)
    return 0


def _load_pair(args):
    A = sets.read_set(args.set_a)
    return A, sets.squares_up_to(A.cap) if args.squares else sets.read_set(args.set_b)


def _cmd_energy(args) -> int:
    A, B = _load_pair(args)
    runners = {
        "sum": lambda: energy.energy_sum_path(A, B),
        "diff": lambda: energy.energy_diff_path(A, B),
        "brute": lambda: energy.energy_bruteforce(A, B),
    }
    if args.method == "all":
        reports = [runners[m]() for m in ("sum", "diff", "brute")]
        values = {r.value for r in reports}
        if len(values) != 1:
            raise InvariantViolationError(
                "energy paths disagree: "
                + ", ".join(f"{r.method}={r.value}" for r in reports)
            )
    else:
        reports = [runners[args.method]()]
    columns = ("method", "value", "lower_trivial", "upper_trivial")
    _emit(args, columns, [{c: getattr(r, c) for c in columns} for r in reports])
    return 0


def _cmd_sieve(args) -> int:
    if args.eps is not None and args.check_v is None:
        args.parser.error("--eps is read only under --check-v")
    A = sets.read_set(args.set_a)
    if args.check_v is not None:
        eps = _parse_eps("0" if args.eps is None else args.eps)
        res = sieve.composite_moduli_check(A, args.check_v, eps)
        columns = ("v", "card", "delta", "lhs", "rhs", "hypothesis_ok", "holds")
        (row,) = _records(columns, [res])
        _emit(args, columns, [row], row)
    elif args.gallagher is not None:
        bound = sieve.gallagher_bound(A, args.gallagher)
        row = {"Q": args.gallagher, "N": A.cap, "card": len(A), "bound": bound}
        _emit(args, list(row), [row], row)
    else:
        # the partition's refusals first; then the direct route, whose lookup
        # peaks on a heap that does not yet hold the partition's rows
        sieve._partition_admitted(A, A.cap)
        direct = sieve.divisor_sum_direct(A, A.cap)
        trace = sieve.divisor_sum_partition(A, A.cap)
        if direct != trace.total:
            raise InvariantViolationError(
                f"divisor-sum paths disagree: direct={direct} window={trace.total}"
            )
        print(f"total={trace.total} direct={direct} equal=true", file=sys.stderr)
        columns = ("v", "J_v", "window_count", "partition_lower_bound")
        rows = _records(columns, trace.rows)
        _emit(args, columns, rows, {"rows": rows, "total": trace.total, "direct": direct})
    return 0


def _theorem_row(args, n: int) -> correlation.ExperimentRow:
    if args.set == "squares":
        A = sets.squares_up_to(n)
    else:
        A = sets.read_set(args.set)
        if A.cap > n:
            raise ValueError(f"set cap {A.cap} exceeds sweep point N={n}")
    return correlation.correlation_row(A, n)


def _cmd_sweep(args) -> int:
    grid = _parse_grid(args.grid)
    cap = max_sweep_n()
    truncated_at = next((n for n in grid if n > cap), None)
    columns = ("N", "card_A", "card_S", "energy", "lower_bound", "ratio_AS", "ratio_log",
               "seconds")
    rows = _records(columns, [args.row(args, n) for n in grid if n <= cap])
    if truncated_at is not None:
        _emit(args, columns, rows, {"rows": rows, "truncated_at": truncated_at},
              f"# truncated: N={truncated_at} exceeds cap {cap}")
        print(f"sweep truncated at N={truncated_at} (cap {cap})", file=sys.stderr)
        return RESOURCE_EXIT
    _emit(args, columns, rows, {"rows": rows})
    return 0


# ---------------------------------------------------------------------------
# Parser and dispatch
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="energysieve",
        description="Additive energy and sieve diagnostics for integer sets.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    made = argparse.ArgumentParser(add_help=False)  # every generated set's options
    made.add_argument("--N", type=int, required=True, help="ambient cap [1, N]")
    made.add_argument("--out", required=True)
    gen = sub.add_parser("gen", help="generate a set file").add_subparsers(
        dest="kind", required=True)
    gen.add_parser("squares", parents=[made]).set_defaults(
        make=lambda a: sets.squares_up_to(a.N))
    sidon = gen.add_parser("sidon", parents=[made])
    sidon.add_argument("--p", type=int, required=True, help="prime for the Sidon construction")
    sidon.set_defaults(make=lambda a: sets.sidon_set(a.p, a.N))
    quadratic = gen.add_parser("quadratic", parents=[made])
    for flag, default in (("--a", 1), ("--b", 0), ("--c", 0)):
        quadratic.add_argument(flag, type=int, default=default)
    quadratic.set_defaults(make=lambda a: sets.quadratic_image(a.a, a.b, a.c, a.N))
    avoiding = gen.add_parser("random-avoiding", parents=[made])
    avoiding.add_argument("--P", type=int, default=13, help="sieve primes up to P")
    avoiding.add_argument("--eps", default="1/2", help="epsilon constant or config file")
    avoiding.add_argument("--seed", type=int, help="read under --strategy uniform (default 0)")
    avoiding.add_argument("--strategy", choices=["qr", "uniform"], default="qr")
    avoiding.set_defaults(make=_random_avoiding)

    emitted = argparse.ArgumentParser(add_help=False)  # every table's options
    emitted.add_argument("--format", choices=["csv", "json"], default="csv")
    emitted.add_argument("--out")

    en = sub.add_parser("energy", parents=[emitted], help="energy between two set files")
    en.add_argument("set_a")
    second = en.add_mutually_exclusive_group(required=True)
    second.add_argument("set_b", nargs="?")
    second.add_argument("--squares", action="store_true", help="use squares up to A's cap as B")
    en.add_argument("--method", choices=["sum", "diff", "brute", "all"], default="all")

    sv = sub.add_parser("sieve", parents=[emitted],
                        help="modulus checks, larger-sieve bound, divisor sums")
    sv.add_argument("set_a")
    group = sv.add_mutually_exclusive_group(required=True)
    group.add_argument("--check-v", type=int, dest="check_v")
    group.add_argument("--gallagher", type=int, metavar="Q")
    group.add_argument("--divisor-sum", action="store_true", dest="divisor_sum")
    sv.add_argument("--eps", help="read under --check-v (default 0)")

    rows = argparse.ArgumentParser(add_help=False, parents=[emitted])  # every sweep's options
    rows.add_argument("--grid", required=True, help="comma-separated N values, e.g. 1e3,1e4")
    sweep = sub.add_parser("sweep", help="experiment rows over a grid of N").add_subparsers(
        dest="experiment", required=True)
    theorem = sweep.add_parser("theorem", parents=[rows])
    theorem.add_argument("--set", default="squares", help="set file, or the squares up to each N")
    theorem.set_defaults(row=_theorem_row)
    sweep.add_parser("ramanujan", parents=[rows]).set_defaults(
        row=lambda a, n: correlation.ramanujan_row(n))
    sweep.add_parser("sidon", parents=[rows]).set_defaults(
        row=lambda a, n: correlation.sidon_row(n))

    # each command's own parser reports its usage errors, so that they name the command
    for commands in (sub, gen, sweep):
        for parser in commands.choices.values():
            parser.set_defaults(parser=parser)
    return top


COMMANDS = {"gen": _cmd_gen, "energy": _cmd_energy, "sieve": _cmd_sieve, "sweep": _cmd_sweep}


def main(argv=None) -> int:
    try:
        args, unread = build_parser().parse_known_args(argv)
        if unread:
            args.parser.error("unrecognized arguments: " + " ".join(unread))
        return COMMANDS[args.command](args)
    except SystemExit as exc:  # a usage error, or --help
        return int(exc.code or 0)
    except InvariantViolationError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return INVARIANT_EXIT
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return RESOURCE_EXIT
    except MemoryError as exc:  # an allocation that no cap check foresaw
        print("resource limit:", str(exc) or "out of memory", file=sys.stderr)
        return RESOURCE_EXIT
    except (SetFileError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_EXIT


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
