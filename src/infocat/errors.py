"""Exception types shared across the package.

Everything raised on purpose derives from InfoCatError so callers can
catch library failures without swallowing genuine bugs.
"""


class InfoCatError(Exception):
    """Base class for all errors raised by this package."""


class InvalidObject(InfoCatError, ValueError):
    """An object descriptor violates its invariants (bad size, weights, ...)."""


class InvalidMorphism(InfoCatError, ValueError):
    """A morphism's payload does not fit its declared endpoints."""


class CategoryMismatch(InfoCatError, TypeError):
    """Two morphisms from different categories (or fields) were combined."""


class ObjectMismatch(InfoCatError, ValueError):
    """Endpoint objects disagree where they are required to coincide."""


class DomainMismatch(ObjectMismatch):
    """An internal product was requested for morphisms with different sources."""


class EmptyDomain(InfoCatError, ValueError):
    """An entropy was requested for a morphism with an empty source."""


class NegativeCoefficient(InfoCatError, ValueError):
    """A measure combination was built with a negative coefficient."""


class UnknownMeasure(InfoCatError, KeyError):
    """A measure name is not registered for the requested category."""

    def __str__(self) -> str:
        # KeyError's str() is the repr of the message; show the message.
        return Exception.__str__(self)


class InvalidChannel(InfoCatError, ValueError):
    """A channel matrix is not row-stochastic within tolerance."""


class ZeroMassFiber(InfoCatError, ValueError):
    """A conditional distribution was requested over a mass-zero input cell."""


class SearchBudgetExceeded(InfoCatError, RuntimeError):
    """A brute-force search was abandoned after exceeding its node budget."""


class EnumerationBudgetExceeded(InfoCatError, RuntimeError):
    """An exhaustive corpus would exceed the configured enumeration budget."""


class ReplayMismatch(InfoCatError, RuntimeError):
    """Replaying a recorded violation did not reproduce it bit for bit."""


class IndexOutOfRange(InfoCatError, IndexError):
    """A replay index does not point at a recorded violation."""
