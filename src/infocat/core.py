"""Category interface: composition, products, terminals, isomorphism.

A category here is a model of communication systems: objects describe
message spaces and morphisms are the systems that carry one space to
another.  Every concrete category registers an implementation of
Category; the module-level helpers dispatch on a morphism's category tag
and refuse cross-category mixes.

Two product notions matter downstream.  The external product pairs two
arbitrary morphisms into one morphism between product objects; the
internal product pairs two morphisms sharing a source into one morphism
out of that source.  Either may be undefined in a given category, and
"undefined" is a value (UNDEFINED), not an exception: audits must be
able to count these outcomes rather than crash on them.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Any, Iterator

from .errors import CategoryMismatch, InvalidMorphism, InvalidObject


class CategoryId(str, Enum):
    FINSET = "finset"
    NOISY_FINSET = "noisy_finset"
    FINPROB = "finprob"
    NOISY_FINPROB = "noisy_finprob"
    FINVECT = "finvect"
    FINSET_DUAL = "finset_dual"
    FINVECT_DUAL = "finvect_dual"


class UndefinedType:
    """Singleton marker for partial operations; compare with `is UNDEFINED`."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "Undefined"


UNDEFINED = UndefinedType()


def is_undefined(x) -> bool:
    return x is UNDEFINED


def int_from_json(value, what: str, error: type = InvalidObject) -> int:
    """A decoded JSON integer field.  bool is an int subclass, but `true`
    is malformed, not 1; floats and strings are rejected, never truncated
    or parsed."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise error(f"{what} must be an integer, not {value!r}")
    return value


def dict_from_json(value, what: str, error: type = InvalidMorphism) -> dict:
    """A decoded JSON object field; a list or scalar in its place is
    malformed."""
    if not isinstance(value, dict):
        raise error(f"{what} must be a JSON object, not {type(value).__name__}")
    return value


def ints_from_json(values, what: str, error: type = InvalidMorphism) -> tuple[int, ...]:
    """A decoded JSON list of integers, as a tuple."""
    if not isinstance(values, (list, tuple)):
        raise error(f"{what} must be a list of integers, not {values!r}")
    return tuple(int_from_json(v, f"{what} entry", error) for v in values)


# What str(Fraction) writes ("-3", "3/8"), plus plain decimals.  No
# exponent: Fraction("1e999999999") would build a billion-digit integer.
_RATIONAL = re.compile(r"[+-]?[0-9]+(?:/[0-9]+|\.[0-9]+)?")


def rational_from_json(value, what: str, error: type = InvalidObject) -> Fraction:
    """A decoded JSON rational: an integer, or a string such as "3/8".
    As with integers, `true` and floats are malformed, not coerced."""
    if isinstance(value, str) and _RATIONAL.fullmatch(value):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError):
            pass  # a zero denominator, or past the int digit limit
    elif isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    raise error(f"{what} must be an integer or a string like \"3/8\", not {value!r}")


def rationals_from_json(values, what: str, error: type = InvalidObject) -> tuple[Fraction, ...]:
    """A decoded JSON list of rationals, as a tuple."""
    if not isinstance(values, (list, tuple)):
        raise error(f"{what} must be a list of rationals, not {values!r}")
    return tuple(rational_from_json(v, f"{what} entry", error) for v in values)


def float_from_json(value, what: str, error: type = InvalidObject) -> float:
    """A decoded JSON number, as a float.  As with integers, `true` and
    strings are malformed, not coerced."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise error(f"{what} must be a number, not {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise error(f"{what} is out of float range") from None


def floats_from_json(values, what: str, error: type = InvalidObject) -> tuple[float, ...]:
    """A decoded JSON list of numbers, as a tuple of floats."""
    if not isinstance(values, (list, tuple)):
        raise error(f"{what} must be a list of numbers, not {values!r}")
    return tuple(float_from_json(v, f"{what} entry", error) for v in values)


@dataclass(frozen=True)
class IsoWitness:
    """An invertible morphism together with its inverse.

    backward composed after forward is the identity on forward's source,
    and forward after backward is the identity on its target.
    """

    forward: Any
    backward: Any


@dataclass(frozen=True)
class ArrowIso:
    """A commuting square of isomorphisms exhibiting f ~ g.

    alpha relabels sources, beta relabels targets, and
    g . alpha.forward == beta.forward . f.
    """

    alpha: IsoWitness
    beta: IsoWitness


@dataclass(frozen=True)
class Limits:
    """Corpus bounds handed to generators.

    max_size bounds object sizes (set sizes, |M|, dimensions).  field
    selects the scalar field for linear categories.  measure_compatible
    restricts noisy generation to equal-fiber carrier maps.
    """

    max_size: int
    field: Any = None
    measure_compatible: bool = False


class Category:
    """Interface each concrete category implements.

    Morphism values are frozen dataclasses with .category, .domain and
    .codomain attributes; objects are frozen dataclasses compared by
    value.  All operations validate their inputs and raise InfoCatError
    subclasses on misuse.
    """

    id: CategoryId

    # Categories that cannot decide arrow/coslice isomorphism set this
    # False so audits skip the structural checks instead of crashing.
    structural_isos = True

    # -- structure ----------------------------------------------------
    def compose(self, g, f):
        raise NotImplementedError

    def identity(self, obj):
        raise NotImplementedError

    def external_product(self, f, g):
        raise NotImplementedError

    def internal_product(self, f, g):
        raise NotImplementedError

    def product_object(self, a, b):
        """Canonical product data (object, projection1, projection2)."""
        raise NotImplementedError

    def terminal_object(self):
        raise NotImplementedError

    def terminal_for(self, limits: Limits):
        """The terminal object of the corpus that limits describe."""
        return self.terminal_object()

    def unique_to_terminal(self, obj):
        raise NotImplementedError

    # -- isomorphism --------------------------------------------------
    def iso_invariant(self, f):
        """Complete invariant for arrow isomorphism, or None if the
        category decides isomorphism by search instead."""
        return None

    def arrow_iso(self, f, g, budget: int = 100_000):
        """An ArrowIso witness if f ~ g in the arrow category, else None."""
        raise NotImplementedError

    def coslice_iso(self, p, q, budget: int = 100_000) -> bool:
        """Whether p and q (same source) differ by an isomorphism of
        their targets commuting with the maps."""
        raise NotImplementedError

    def random_iso_out(self, rng, obj) -> IsoWitness:
        """A random isomorphism out of obj, used for conjugation audits."""
        raise NotImplementedError

    # -- sections -----------------------------------------------------
    def section_exists(self, f, g) -> bool:
        """Whether some s with s . g . f == f exists (f: A->B, g: B->C)."""
        raise NotImplementedError

    # -- corpus generation ---------------------------------------------
    def exhaustive_objects(self, limits: Limits) -> Iterator:
        raise NotImplementedError

    def exhaustive_morphisms(self, limits: Limits) -> Iterator:
        """All morphisms within limits, in a fixed lexicographic order."""
        raise NotImplementedError

    def exhaustive_morphisms_from(self, obj, limits: Limits) -> Iterator:
        raise NotImplementedError

    def random_object(self, rng, limits: Limits):
        raise NotImplementedError

    def random_morphism(self, rng, limits: Limits):
        raise NotImplementedError

    def random_morphism_from(self, rng, obj, limits: Limits):
        raise NotImplementedError

    # -- serialization --------------------------------------------------
    def object_to_json(self, obj) -> dict:
        raise NotImplementedError

    def object_from_json(self, data: dict):
        raise NotImplementedError

    def payload_to_json(self, m) -> dict:
        raise NotImplementedError

    def morphism_from_json(self, domain, codomain, payload: dict):
        raise NotImplementedError


_REGISTRY: dict[CategoryId, Category] = {}


def register(cat: Category) -> Category:
    _REGISTRY[cat.id] = cat
    return cat


def category(cat_id: CategoryId | str) -> Category:
    return _REGISTRY[CategoryId(cat_id)]


def _ops_for(f) -> Category:
    return _REGISTRY[f.category]


def _require_same_category(f, g) -> Category:
    if f.category is not g.category:
        raise CategoryMismatch(f"cannot mix {f.category.value} with {g.category.value}")
    return _ops_for(f)


# Module-level conveniences mirroring the Category interface.

def compose(g, f):
    """g after f."""
    return _require_same_category(g, f).compose(g, f)


def identity(cat_id: CategoryId | str, obj):
    return category(cat_id).identity(obj)


def external_product(f, g):
    return _require_same_category(f, g).external_product(f, g)


def internal_product(f, g):
    return _require_same_category(f, g).internal_product(f, g)


def terminal_object(cat_id: CategoryId | str):
    return category(cat_id).terminal_object()


def unique_to_terminal(cat_id: CategoryId | str, obj):
    return category(cat_id).unique_to_terminal(obj)
