"""Exact arithmetic for log-valued quantities.

Entropy-style measures on finite structures are always finite sums
q_1*log(n_1) + ... + q_k*log(n_k) with rational weights q_i and positive
integer arguments n_i.  Writing each argument as a product of primes
turns such a sum into a vector of rational prime-exponents, and unique
factorization makes two sums equal exactly when the vectors coincide.
LogVal stores that vector, so audits can test equality of measure values
without any floating-point tolerance.  Plain rationals embed as the
coefficient of log(2) scaled by log2(2)=1, i.e. LogVal.from_rational.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .config import BITS, get_log_base


@lru_cache(maxsize=65536)
def _factor(n: int) -> tuple[tuple[int, int], ...]:
    """Prime factorization of n >= 1 as ((prime, exponent), ...)."""
    if n < 1:
        raise ValueError(f"cannot factor {n}: need n >= 1")
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1 if d == 2 else 2
    if n > 1:
        out.append((n, 1))
    return tuple(out)


class LogVal:
    """Exact number of the form sum(q_p * log2(p)) over primes p."""

    __slots__ = ("coeffs", "_hash")

    def __init__(self, coeffs: dict[int, Fraction] | None = None):
        self.coeffs = coeffs or {}
        self._hash: int | None = None

    @classmethod
    def zero(cls) -> "LogVal":
        return cls()

    @classmethod
    def from_rational(cls, q) -> "LogVal":
        # q = q * log2(2)
        q = Fraction(q)
        return cls({} if q == 0 else {2: q})

    @classmethod
    def log_of(cls, arg, coeff=1) -> "LogVal":
        """coeff * log2(arg) for a positive int or Fraction argument."""
        coeff = Fraction(coeff)
        arg = Fraction(arg)
        if arg <= 0:
            raise ValueError("logarithm argument must be positive")
        if coeff == 0 or arg == 1:
            return cls()
        coeffs: dict[int, Fraction] = {}
        for p, e in _factor(arg.numerator):
            coeffs[p] = coeffs.get(p, Fraction(0)) + coeff * e
        for p, e in _factor(arg.denominator):
            coeffs[p] = coeffs.get(p, Fraction(0)) - coeff * e
        return cls({p: c for p, c in coeffs.items() if c != 0})

    @classmethod
    def from_weighted_logs(cls, terms, denominator: int = 1) -> "LogVal":
        """(1/denominator) * sum(w * log2(k) for w, k in terms), for integer
        weights w and positive integer arguments k.

        One pass over prime exponents with integer accumulators: no
        intermediate LogVal, and one Fraction per surviving prime."""
        acc: dict[int, int] = {}
        for w, k in terms:
            if k < 1:
                raise ValueError("logarithm argument must be positive")
            if w == 0 or k == 1:
                continue
            for p, e in _factor(k):
                acc[p] = acc.get(p, 0) + w * e
        return cls({p: Fraction(c, denominator) for p, c in acc.items() if c != 0})

    def __add__(self, other: "LogVal") -> "LogVal":
        coeffs = dict(self.coeffs)
        for p, c in other.coeffs.items():
            s = coeffs.get(p, Fraction(0)) + c
            if s == 0:
                coeffs.pop(p, None)
            else:
                coeffs[p] = s
        return LogVal(coeffs)

    def __sub__(self, other: "LogVal") -> "LogVal":
        return self + other.scaled(-1)

    def scaled(self, q) -> "LogVal":
        q = Fraction(q)
        if q == 0:
            return LogVal()
        return LogVal({p: c * q for p, c in self.coeffs.items()})

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other) -> bool:
        if not isinstance(other, LogVal):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        # Fraction hashing is slow enough to matter when audits key caches
        # on exact values, so hash lazily and keep it.
        if self._hash is None:
            self._hash = hash(frozenset(self.coeffs.items()))
        return self._hash

    def __float__(self) -> float:
        bits = math.fsum(float(c) * math.log2(p) for p, c in sorted(self.coeffs.items()))
        if get_log_base() == BITS:
            return bits
        return bits * math.log(2.0)

    def __repr__(self):
        if not self.coeffs:
            return "LogVal(0)"
        parts = " + ".join(f"({c})*log2({p})" for p, c in sorted(self.coeffs.items()))
        return f"LogVal({parts})"
