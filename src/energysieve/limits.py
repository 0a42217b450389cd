"""Resource caps, overridable through environment variables."""

import math
import os
from fractions import Fraction

from .errors import ResourceLimitError

# Bytes allowed for any single table allocation (masks, count arrays).
MEMORY_CAP_ENV = "ENERGYSIEVE_MEMORY_CAP"
DEFAULT_MEMORY_CAP = 2**31

# Largest N a sweep row may request.
MAX_N_ENV = "ENERGYSIEVE_MAX_N"
DEFAULT_MAX_N = 10**8

# Prime sieve refuses limits above this.
SIEVE_LIMIT_CAP = 2**31


def _exact_decimal(text: str, what: str) -> Fraction:
    """The number that `text` writes in float syntax ("4e9", "1.2e-7"), read exactly."""
    try:
        approx = float(text)  # float's syntax: "6/2" stays an error
    except ValueError:
        raise ValueError(f"{what} {text!r} is not a number") from None
    if not math.isfinite(approx):
        raise ValueError(f"{what} {text!r} is not finite")
    # Fraction computes 10**exp: a finite nonzero float bounds exp by the digits
    # written, and a float 0 (a zero or an underflow) is decided by its mantissa
    value = Fraction(text if approx else text.lower().partition("e")[0])
    if value and not approx:
        raise ValueError(f"{what} {text!r} is not within the float range")
    return value


def exact_int(text: str, what: str) -> int:
    """The integer that `text` writes in float syntax ("4e9", "1.2e7"), read exactly."""
    value = _exact_decimal(text, what)
    if value.denominator != 1:
        raise ValueError(f"{what} {text!r} is not an integer")
    return int(value)


def exact_fraction(text: str) -> Fraction:
    """A rational "a/b" as Fraction reads it, or a decimal as `_exact_decimal`
    does; Fraction raises ValueError or ZeroDivisionError for other text."""
    return Fraction(text) if "/" in text else _exact_decimal(text, "number")


def memory_cap() -> int:
    return exact_int(os.environ.get(MEMORY_CAP_ENV, str(DEFAULT_MEMORY_CAP)), MEMORY_CAP_ENV)


def max_sweep_n() -> int:
    return exact_int(os.environ.get(MAX_N_ENV, str(DEFAULT_MAX_N)), MAX_N_ENV)


def check_allocation(nbytes: int, what: str) -> None:
    cap = memory_cap()
    if nbytes > cap:
        raise ResourceLimitError(
            f"{what} needs {nbytes} bytes, over the {cap}-byte cap "
            f"(raise {MEMORY_CAP_ENV} to override)"
        )
