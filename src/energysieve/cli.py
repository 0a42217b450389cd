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

def _cmd_gen(args) -> int:
    if args.kind == "squares":
        result = sets.squares_up_to(args.N)
    elif args.kind == "sidon":
        if args.p is None:
            raise ValueError("gen sidon requires --p")
        result = sets.sidon_set(args.p, args.N)
    elif args.kind == "quadratic":
        result = sets.quadratic_image(args.a, args.b, args.c, args.N)
    else:  # random-avoiding
        result = sets.residue_avoiding_random(
            args.N, _parse_eps(args.eps), args.P, args.seed, strategy=args.strategy
        )
    sets.write_set(result, args.out)
    print(f"wrote {len(result)} elements (N={result.cap}) to {args.out}", file=sys.stderr)
    return 0


def _load_pair(args):
    A = sets.read_set(args.set_a)
    if args.squares:
        B = sets.squares_up_to(A.cap)
    elif args.set_b:
        B = sets.read_set(args.set_b)
    else:
        raise ValueError("need a second set file or --squares")
    return A, B


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
    A = sets.read_set(args.set_a)
    eps = _parse_eps(args.eps)
    if args.check_v is not None:
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


def _sweep_row(kind: str, n: int, set_source: str) -> correlation.ExperimentRow:
    if kind == "ramanujan":
        return correlation.ramanujan_row(n)
    if kind == "sidon":
        return correlation.sidon_row(n)
    if set_source == "squares":
        A = sets.squares_up_to(n)
    else:
        A = sets.read_set(set_source)
        if A.cap > n:
            raise ValueError(f"set cap {A.cap} exceeds sweep point N={n}")
    return correlation.correlation_row(A, n)


def _cmd_sweep(args) -> int:
    grid = _parse_grid(args.grid)
    cap = max_sweep_n()
    truncated_at = None
    todo = []
    for n in grid:
        if n > cap:
            truncated_at = n
            break
        todo.append(n)
    # a pool starts all its workers at once: no more than rows or CPUs
    workers = min(args.jobs, len(todo), os.cpu_count() or 1)
    if workers > 1:
        # imported here: it pulls in multiprocessing, which start-up need not pay for
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool

        try:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                results = list(pool.map(_sweep_row, [args.experiment] * len(todo), todo,
                                        [args.set] * len(todo)))
        except BrokenProcessPool as exc:  # a worker ended abruptly, as by the OOM killer
            raise ResourceLimitError(f"a sweep worker died: {exc}") from None
    else:
        results = [_sweep_row(args.experiment, n, args.set) for n in todo]

    columns = ("N", "card_A", "card_S", "energy", "lower_bound", "ratio_AS", "ratio_log",
               "seconds")
    rows = _records(columns, results)
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

    gen = sub.add_parser("gen", help="generate a set file")
    gen.add_argument("kind", choices=["squares", "sidon", "quadratic", "random-avoiding"])
    gen.add_argument("--N", type=int, required=True, help="ambient cap [1, N]")
    gen.add_argument("--p", type=int, help="prime for the Sidon construction")
    gen.add_argument("--a", type=int, default=1)
    gen.add_argument("--b", type=int, default=0)
    gen.add_argument("--c", type=int, default=0)
    gen.add_argument("--P", type=int, default=13, help="sieve primes up to P")
    gen.add_argument("--eps", default="1/2", help="epsilon constant or config file")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--strategy", choices=["qr", "uniform"], default="qr")
    gen.add_argument("--out", required=True)

    en = sub.add_parser("energy", help="energy between two set files")
    en.add_argument("set_a")
    en.add_argument("set_b", nargs="?")
    en.add_argument("--squares", action="store_true", help="use squares up to A's cap as B")
    en.add_argument("--method", choices=["sum", "diff", "brute", "all"], default="all")
    en.add_argument("--format", choices=["csv", "json"], default="csv")
    en.add_argument("--out")

    sv = sub.add_parser("sieve", help="modulus checks, larger-sieve bound, divisor sums")
    sv.add_argument("set_a")
    group = sv.add_mutually_exclusive_group(required=True)
    group.add_argument("--check-v", type=int, dest="check_v")
    group.add_argument("--gallagher", type=int, metavar="Q")
    group.add_argument("--divisor-sum", action="store_true", dest="divisor_sum")
    sv.add_argument("--eps", default="0")
    sv.add_argument("--format", choices=["csv", "json"], default="csv")
    sv.add_argument("--out")

    sw = sub.add_parser("sweep", help="experiment rows over a grid of N")
    sw.add_argument("experiment", choices=["theorem", "ramanujan", "sidon"])
    sw.add_argument("--grid", required=True, help="comma-separated N values, e.g. 1e3,1e4")
    sw.add_argument("--set", default="squares", help="set file for the theorem sweep")
    sw.add_argument("--jobs", type=int, default=1)
    sw.add_argument("--format", choices=["csv", "json"], default="csv")
    sw.add_argument("--out")
    return top


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.command == "gen":
            return _cmd_gen(args)
        if args.command == "energy":
            return _cmd_energy(args)
        if args.command == "sieve":
            return _cmd_sieve(args)
        return _cmd_sweep(args)
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
