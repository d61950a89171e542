"""Finite sets and maps, with the entropy measures defined on them.

Objects are {0, ..., n-1}; a morphism stores its image list.  The
undecorated point-map category: composition, the row-major products,
sections and random generation are infocat.pointmap's, and this module
adds the fiber-based invariants, the isomorphism search and the
measures.

The measures: hartley is log of the image size, shannon is the entropy
of the fiber-size distribution of the map (source points weighted
uniformly), and any combination a*shannon + b*hartley with a, b >= 0
can be registered as a measure of its own.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterator

from . import config, pointmap
from .core import ArrowIso, CategoryId, IsoWitness, Limits, int_from_json, register
from .errors import (
    DomainMismatch,
    EmptyDomain,
    InvalidMorphism,
    InvalidObject,
    NegativeCoefficient,
)
from .exact import LogVal
from .measures import InfoMeasure, register_factory, register_measure
from .pointmap import PointMapCategory


@dataclass(frozen=True, slots=True)
class FinSetObject:
    size: int

    def __post_init__(self):
        if self.size < 0:
            raise InvalidObject(f"negative set size: {self.size}")


@dataclass(frozen=True)
class FinSetMorphism:
    domain: FinSetObject
    codomain: FinSetObject
    mapping: tuple[int, ...]

    def __post_init__(self):
        if len(self.mapping) != self.domain.size:
            raise InvalidMorphism(
                f"mapping length {len(self.mapping)} != domain size {self.domain.size}"
            )
        for v in self.mapping:
            if not 0 <= v < self.codomain.size:
                raise InvalidMorphism(f"image point {v} outside codomain of size {self.codomain.size}")

    @property
    def category(self) -> CategoryId:
        return CategoryId.FINSET


def _morphism_hash(self) -> int:
    # Exhaustive audits hash the same morphism millions of times as a dict
    # and lru_cache key; compute once and stash on the (frozen) instance.
    try:
        return self._hash_value
    except AttributeError:
        h = hash((self.domain, self.codomain, self.mapping))
        object.__setattr__(self, "_hash_value", h)
        return h


FinSetMorphism.__hash__ = _morphism_hash  # type: ignore[method-assign]


def finset_morphism(mapping, codomain_size: int) -> FinSetMorphism:
    """Convenience constructor from a plain image list."""
    return FinSetMorphism(FinSetObject(len(mapping)), FinSetObject(codomain_size), tuple(mapping))


@lru_cache(maxsize=65536)
def fiber_sizes(m: FinSetMorphism) -> tuple[int, ...]:
    """Sizes of the nonempty fibers, ascending."""
    return tuple(sorted(Counter(m.mapping).values()))


def image_size(m: FinSetMorphism) -> int:
    return len(fiber_sizes(m))


# Entropy depends only on the fiber multiset; exhaustive audits evaluate
# the same few hundred multisets millions of times, so cache by value.
@lru_cache(maxsize=16384)
def _shannon_of(fibers: tuple[int, ...], n: int, base: str) -> float:
    return -sum((k / n) * config.log(k / n) for k in fibers)


@lru_cache(maxsize=16384)
def _shannon_exact_of(fibers: tuple[int, ...], n: int) -> LogVal:
    # -sum (k/n) log(k/n) = log n - (1/n) sum k log k
    val = LogVal.log_of(n)
    for k in fibers:
        val = val + LogVal.log_of(k, -Fraction(k, n))
    return val


@lru_cache(maxsize=1024)
def _hartley_exact_of(image: int) -> LogVal:
    return LogVal.log_of(image)


@lru_cache(maxsize=16384)
def _afn_exact_of(lam: Fraction, mu: Fraction, fibers: tuple[int, ...], n: int) -> LogVal:
    return _shannon_exact_of(fibers, n).scaled(lam) + _hartley_exact_of(len(fibers)).scaled(mu)


def hartley(m: FinSetMorphism) -> float:
    """log |image|; the count-based information of the map."""
    if m.domain.size == 0:
        raise EmptyDomain("hartley information needs a nonempty source")
    return config.log(image_size(m))


def shannon(m: FinSetMorphism) -> float:
    """Entropy of the fiber distribution under the uniform source."""
    n = m.domain.size
    if n == 0:
        raise EmptyDomain("shannon information needs a nonempty source")
    return _shannon_of(fiber_sizes(m), n, config.get_log_base())


def hartley_exact(m: FinSetMorphism) -> LogVal:
    if m.domain.size == 0:
        raise EmptyDomain("hartley information needs a nonempty source")
    return _hartley_exact_of(image_size(m))


def shannon_exact(m: FinSetMorphism) -> LogVal:
    n = m.domain.size
    if n == 0:
        raise EmptyDomain("shannon information needs a nonempty source")
    return _shannon_exact_of(fiber_sizes(m), n)


def _kernel_signature(mapping: tuple[int, ...]) -> tuple[int, ...]:
    # First-occurrence renumbering; equal signatures == equal fiber partitions.
    relabel: dict[int, int] = {}
    out = []
    for v in mapping:
        out.append(relabel.setdefault(v, len(relabel)))
    return tuple(out)


class FinSetCategory(PointMapCategory):
    id = CategoryId.FINSET
    morphism = FinSetMorphism

    @staticmethod
    def points(obj: FinSetObject) -> int:
        return obj.size

    def product_space(self, a: FinSetObject, b: FinSetObject) -> FinSetObject:
        return FinSetObject(a.size * b.size)

    def relabeled(self, rng, obj: FinSetObject, perm) -> FinSetObject:
        return obj

    def terminal_object(self) -> FinSetObject:
        return FinSetObject(1)

    # -- isomorphism --------------------------------------------------
    def iso_invariant(self, f: FinSetMorphism):
        return (f.domain.size, f.codomain.size, fiber_sizes(f))

    def arrow_iso(self, f: FinSetMorphism, g: FinSetMorphism, budget: int = 100_000):
        if self.iso_invariant(f) != self.iso_invariant(g):
            return None
        # Match fibers of equal size in a fixed order, then extend the
        # codomain bijection over the non-image points.
        fibers_f = self._grouped(f)
        fibers_g = self._grouped(g)
        alpha = [0] * f.domain.size
        beta = [-1] * f.codomain.size
        for (bf, elems_f), (bg, elems_g) in zip(fibers_f, fibers_g):
            beta[bf] = bg
            for x, y in zip(elems_f, elems_g):
                alpha[x] = y
        spare = iter(sorted(set(range(g.codomain.size)) - set(v for v in beta if v >= 0)))
        for i, v in enumerate(beta):
            if v < 0:
                beta[i] = next(spare)
        alpha, beta = tuple(alpha), tuple(beta)
        if pointmap.compose(g.mapping, alpha) != pointmap.compose(beta, f.mapping):
            raise AssertionError("arrow_iso built a square that does not commute")
        return ArrowIso(
            IsoWitness(
                FinSetMorphism(f.domain, g.domain, alpha),
                FinSetMorphism(g.domain, f.domain, pointmap.invert(alpha)),
            ),
            IsoWitness(
                FinSetMorphism(f.codomain, g.codomain, beta),
                FinSetMorphism(g.codomain, f.codomain, pointmap.invert(beta)),
            ),
        )

    @staticmethod
    def _grouped(f: FinSetMorphism):
        groups: dict[int, list[int]] = {}
        for i, v in enumerate(f.mapping):
            groups.setdefault(v, []).append(i)
        return sorted(groups.items(), key=lambda kv: (len(kv[1]), kv[0]))

    def coslice_iso(self, p: FinSetMorphism, q: FinSetMorphism, budget: int = 100_000) -> bool:
        if p.domain != q.domain:
            raise DomainMismatch("coslice comparison needs a shared source")
        return (
            p.codomain == q.codomain
            and _kernel_signature(p.mapping) == _kernel_signature(q.mapping)
        )

    # -- corpus -------------------------------------------------------
    def exhaustive_objects(self, limits: Limits) -> Iterator[FinSetObject]:
        for n in range(1, limits.max_size + 1):
            yield FinSetObject(n)

    def exhaustive_morphisms(self, limits: Limits) -> Iterator[FinSetMorphism]:
        for a in range(1, limits.max_size + 1):
            yield from self.exhaustive_morphisms_from(FinSetObject(a), limits)

    def exhaustive_morphisms_from(self, obj: FinSetObject, limits: Limits) -> Iterator[FinSetMorphism]:
        for b in range(1, limits.max_size + 1):
            yield from self.maps_between(obj, FinSetObject(b))

    def maps_between(self, dom: FinSetObject, cod: FinSetObject) -> Iterator[FinSetMorphism]:
        """Every map dom -> cod, in lexicographic order of its image list."""
        for mapping in pointmap.maps(dom.size, cod.size):
            yield FinSetMorphism(dom, cod, mapping)

    def random_object(self, rng, limits: Limits) -> FinSetObject:
        return FinSetObject(rng.randint(1, limits.max_size))

    def random_morphism_from(self, rng, obj: FinSetObject, limits: Limits) -> FinSetMorphism:
        b = rng.randint(1, limits.max_size)
        return FinSetMorphism(obj, FinSetObject(b), pointmap.random_map(rng, obj.size, b))

    # -- serialization --------------------------------------------------
    def object_to_json(self, obj: FinSetObject) -> dict:
        return {"size": obj.size}

    def object_from_json(self, data: dict) -> FinSetObject:
        return FinSetObject(int_from_json(data["size"], "size"))


FINSET = register(FinSetCategory())


def _coefficient_name(q: Fraction) -> str:
    return str(q)


def afn_combination(lam, mu) -> InfoMeasure:
    """Measure lam*shannon + mu*hartley, registered under a canonical name.

    Coefficients must be nonnegative; they are held as exact rationals so
    the combined measure still supports exact equality decisions.
    """
    lam, mu = Fraction(lam), Fraction(mu)
    if lam < 0 or mu < 0:
        raise NegativeCoefficient(f"combination weights must be >= 0, got ({lam}, {mu})")
    name = f"afn({_coefficient_name(lam)},{_coefficient_name(mu)})"
    lam_f, mu_f = float(lam), float(mu)

    def value(m: FinSetMorphism) -> float:
        return lam_f * shannon(m) + mu_f * hartley(m)

    def exact(m: FinSetMorphism) -> LogVal:
        if m.domain.size == 0:
            raise EmptyDomain("combined information needs a nonempty source")
        return _afn_exact_of(lam, mu, fiber_sizes(m), m.domain.size)

    return register_measure(InfoMeasure(name, CategoryId.FINSET, value, exact))


def _afn_factory(args: str) -> InfoMeasure:
    parts = [p.strip() for p in args.split(",")]
    if len(parts) != 2:
        raise ValueError(f"afn takes two coefficients, got {args!r}")
    return afn_combination(Fraction(parts[0]), Fraction(parts[1]))


register_measure(InfoMeasure("shannon", CategoryId.FINSET, shannon, shannon_exact))
register_measure(InfoMeasure("hartley", CategoryId.FINSET, hartley, hartley_exact))
register_factory(CategoryId.FINSET, "afn", _afn_factory)

# Deliberately wrong measures, kept so the audit harness can prove it
# still catches violations (see the harness self-test).
register_measure(
    InfoMeasure(
        "broken_source_size",
        CategoryId.FINSET,
        lambda m: float(m.domain.size),
        lambda m: LogVal.from_rational(m.domain.size),
    )
)
register_measure(
    InfoMeasure(
        "broken_constant",
        CategoryId.FINSET,
        lambda m: 1.0,
        lambda m: LogVal.from_rational(1),
    )
)
