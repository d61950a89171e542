"""Finite sets and maps, with the entropy measures defined on them.

Objects are {0, ..., n-1}; a morphism stores its image list.  Product
objects use row-major pairing, (i, j) -> i*|B| + j, which keeps products
with a one-point object literally equal to the original morphism.

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
from itertools import product as iter_product
from typing import Iterator

from . import config
from .core import ArrowIso, CategoryId, Category, IsoWitness, Limits, register
from .errors import (
    DomainMismatch,
    EmptyDomain,
    InvalidMorphism,
    InvalidObject,
    NegativeCoefficient,
    ObjectMismatch,
    SearchBudgetExceeded,
)
from .exact import LogVal
from .measures import InfoMeasure, register_factory, register_measure


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


def section_exists(f: FinSetMorphism, g: FinSetMorphism) -> bool:
    """Whether some s: C -> B satisfies s . g . f == f.

    Such a section exists exactly when g is injective on the image of f;
    any merge of two distinct image points is unrecoverable.
    """
    if f.codomain != g.domain:
        raise ObjectMismatch("section test needs composable f then g")
    seen: dict[int, int] = {}
    for b in set(f.mapping):
        c = g.mapping[b]
        if seen.setdefault(c, b) != b:
            return False
    return True


def section_search(f: FinSetMorphism, g: FinSetMorphism, budget: int = 1_000_000) -> bool:
    """Exhaustive search over all candidate sections (oracle cross-check)."""
    if f.codomain != g.domain:
        raise ObjectMismatch("section test needs composable f then g")
    b, c = g.domain.size, g.codomain.size
    if b ** c > budget:
        raise SearchBudgetExceeded(f"{b}^{c} candidate sections exceed budget {budget}")
    gf = tuple(g.mapping[v] for v in f.mapping)
    for s in iter_product(range(b), repeat=c):
        if all(s[w] == v for w, v in zip(gf, f.mapping)):
            return True
    return False


def _kernel_signature(mapping: tuple[int, ...]) -> tuple[int, ...]:
    # First-occurrence renumbering; equal signatures == equal fiber partitions.
    relabel: dict[int, int] = {}
    out = []
    for v in mapping:
        out.append(relabel.setdefault(v, len(relabel)))
    return tuple(out)


def _all_mappings(dom: int, cod: int) -> Iterator[tuple[int, ...]]:
    if dom == 0:
        yield ()
        return
    if cod == 0:
        return
    yield from iter_product(range(cod), repeat=dom)


class FinSetCategory(Category):
    id = CategoryId.FINSET

    # -- structure ----------------------------------------------------
    def compose(self, g: FinSetMorphism, f: FinSetMorphism) -> FinSetMorphism:
        if f.codomain != g.domain:
            raise ObjectMismatch(
                f"cannot compose: middle objects {f.codomain} != {g.domain}"
            )
        return FinSetMorphism(f.domain, g.codomain, tuple(g.mapping[v] for v in f.mapping))

    def identity(self, obj: FinSetObject) -> FinSetMorphism:
        return FinSetMorphism(obj, obj, tuple(range(obj.size)))

    def product_object(self, a: FinSetObject, b: FinSetObject):
        prod = FinSetObject(a.size * b.size)
        p1 = FinSetMorphism(prod, a, tuple(i // b.size for i in range(prod.size)))
        p2 = FinSetMorphism(prod, b, tuple(i % b.size for i in range(prod.size)))
        return prod, p1, p2

    def external_product(self, f: FinSetMorphism, g: FinSetMorphism) -> FinSetMorphism:
        a1, a2 = f.domain.size, g.domain.size
        b2 = g.codomain.size
        mapping = tuple(
            f.mapping[i] * b2 + g.mapping[j] for i in range(a1) for j in range(a2)
        )
        return FinSetMorphism(
            FinSetObject(a1 * a2),
            FinSetObject(f.codomain.size * b2),
            mapping,
        )

    def internal_product(self, f: FinSetMorphism, g: FinSetMorphism) -> FinSetMorphism:
        if f.domain != g.domain:
            raise DomainMismatch("internal product needs a shared source")
        b2 = g.codomain.size
        return FinSetMorphism(
            f.domain,
            FinSetObject(f.codomain.size * b2),
            tuple(fv * b2 + gv for fv, gv in zip(f.mapping, g.mapping)),
        )

    def terminal_object(self) -> FinSetObject:
        return FinSetObject(1)

    def unique_to_terminal(self, obj: FinSetObject) -> FinSetMorphism:
        return FinSetMorphism(obj, FinSetObject(1), (0,) * obj.size)

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
        alpha_m = FinSetMorphism(f.domain, g.domain, tuple(alpha))
        beta_m = FinSetMorphism(f.codomain, g.codomain, tuple(beta))
        if self.compose(g, alpha_m).mapping != self.compose(beta_m, f).mapping:
            raise AssertionError("arrow_iso built a square that does not commute")
        return ArrowIso(
            IsoWitness(alpha_m, self._invert(alpha_m)),
            IsoWitness(beta_m, self._invert(beta_m)),
        )

    @staticmethod
    def _grouped(f: FinSetMorphism):
        groups: dict[int, list[int]] = {}
        for i, v in enumerate(f.mapping):
            groups.setdefault(v, []).append(i)
        return sorted(groups.items(), key=lambda kv: (len(kv[1]), kv[0]))

    @staticmethod
    def _invert(m: FinSetMorphism) -> FinSetMorphism:
        inv = [0] * m.codomain.size
        for i, v in enumerate(m.mapping):
            inv[v] = i
        return FinSetMorphism(m.codomain, m.domain, tuple(inv))

    def coslice_iso(self, p: FinSetMorphism, q: FinSetMorphism, budget: int = 100_000) -> bool:
        if p.domain != q.domain:
            raise DomainMismatch("coslice comparison needs a shared source")
        return (
            p.codomain == q.codomain
            and _kernel_signature(p.mapping) == _kernel_signature(q.mapping)
        )

    def random_iso_out(self, rng, obj: FinSetObject) -> IsoWitness:
        perm = list(range(obj.size))
        rng.shuffle(perm)
        fwd = FinSetMorphism(obj, obj, tuple(perm))
        return IsoWitness(fwd, self._invert(fwd))

    # -- sections -----------------------------------------------------
    def section_exists(self, f, g) -> bool:
        return section_exists(f, g)

    def section_search(self, f, g, budget: int = 1_000_000) -> bool:
        return section_search(f, g, budget)

    # -- corpus -------------------------------------------------------
    def exhaustive_objects(self, limits: Limits) -> Iterator[FinSetObject]:
        for n in range(1, limits.max_size + 1):
            yield FinSetObject(n)

    def exhaustive_morphisms(self, limits: Limits) -> Iterator[FinSetMorphism]:
        for a in range(1, limits.max_size + 1):
            for b in range(1, limits.max_size + 1):
                dom, cod = FinSetObject(a), FinSetObject(b)
                for mapping in _all_mappings(a, b):
                    yield FinSetMorphism(dom, cod, mapping)

    def exhaustive_morphisms_from(self, obj: FinSetObject, limits: Limits) -> Iterator[FinSetMorphism]:
        for b in range(1, limits.max_size + 1):
            cod = FinSetObject(b)
            for mapping in _all_mappings(obj.size, b):
                yield FinSetMorphism(obj, cod, mapping)

    def random_object(self, rng, limits: Limits) -> FinSetObject:
        return FinSetObject(rng.randint(1, limits.max_size))

    def random_morphism(self, rng, limits: Limits) -> FinSetMorphism:
        return self.random_morphism_from(rng, self.random_object(rng, limits), limits)

    def random_morphism_from(self, rng, obj: FinSetObject, limits: Limits) -> FinSetMorphism:
        b = rng.randint(1, limits.max_size)
        return FinSetMorphism(obj, FinSetObject(b), tuple(rng.randbelow(b) for _ in range(obj.size)))

    # -- serialization --------------------------------------------------
    def object_to_json(self, obj: FinSetObject) -> dict:
        return {"size": obj.size}

    def object_from_json(self, data: dict) -> FinSetObject:
        return FinSetObject(int(data["size"]))

    def payload_to_json(self, m: FinSetMorphism) -> dict:
        return {"map": list(m.mapping)}

    def morphism_from_json(self, domain, codomain, payload: dict) -> FinSetMorphism:
        return FinSetMorphism(domain, codomain, tuple(int(v) for v in payload["map"]))


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
