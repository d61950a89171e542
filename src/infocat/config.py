"""Global logarithm-base switch.

All entropy-flavoured measures report in bits by default.  Switching to
natural logarithms rescales every reported value by 1/ln(2) but never
changes which quantities are equal, so audits are base-independent.
The capacity solver always works in bits; its contract pins base 2.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from contextvars import ContextVar

BITS = "2"
NATS = "e"

_log_base: ContextVar[str] = ContextVar("infocat_log_base", default=BITS)


def get_log_base() -> str:
    return _log_base.get()


def set_log_base(base: str | float) -> None:
    """Select the reporting base: "2"/2 for bits, "e"/math.e for nats."""
    _log_base.set(normalize(base))


def normalize(base) -> str:
    """The canonical name of a log base: "2" for bits, "e" for nats."""
    if base in (BITS, 2, 2.0, "bits"):
        return BITS
    if base in (NATS, math.e, "nats"):
        return NATS
    raise ValueError(f"unsupported log base: {base!r}")


@contextmanager
def log_base(base: str | float):
    """Temporarily switch the reporting base (used by the audit runner)."""
    token = _log_base.set(normalize(base))
    try:
        yield
    finally:
        _log_base.reset(token)


def log(x: float) -> float:
    # math.log2 is exactly rounded for powers of two; never emulate it
    # via math.log(x)/math.log(2).
    if _log_base.get() == BITS:
        return math.log2(x)
    return math.log(x)
