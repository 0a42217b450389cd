"""Library driver for the one benchmark job the CLI has no command for:
`series_table(xs, EPS_HALF)`, written one field per line with floats as their
`repr`, so that the output is compared exactly.

Usage: python bench/series_driver.py OUT X [X ...]
"""

from __future__ import annotations

import sys

FIELDS = ("xs", "m_values", "t_values", "t_all_values", "trunc_prime", "singular")


def write_table(out: str, xs: tuple[int, ...]) -> None:
    # looked up at call time, so that a traced run sees its wrapped functions
    from energysieve import arith

    table = arith.series_table(list(xs), arith.EPS_HALF)
    with open(out, "w", encoding="utf-8") as fh:
        for name in FIELDS:
            fh.write(f"{name}={getattr(table, name)!r}\n")


if __name__ == "__main__":
    if len(sys.argv) < 3:
        sys.exit(__doc__)
    write_table(sys.argv[1], tuple(int(x) for x in sys.argv[2:]))
