"""Formal opposites of the set and linear categories.

A morphism A -> B here is just a base morphism B -> A worn backwards,
so composition, isomorphisms, the corpus and serialization delegate to
the base category and (f*)* = f holds by construction.

The vect dual is finvect read through the transpose: transposing the
inner matrix is an isomorphism of categories onto finvect (the standard
bases identify each space with its dual).  So its
products (direct sums), terminal object (the zero space), coslice and
section tests are finvect's, carried across the transpose; a
column-space test on inner maps is finvect's row-space test.  The set
dual has no such isomorphism and keeps its own coproduct arithmetic:
products are disjoint unions with offset indexing, and the terminal
object is the empty set.

The information measures are the raw image cardinality of the inner set
map and the image dimension of the inner linear map; both are exact
integers, no logarithm involved.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Union

from . import pointmap
from .core import ArrowIso, Category, CategoryId, IsoWitness, Limits, dict_from_json, register
from .errors import CategoryMismatch, DomainMismatch, ObjectMismatch
from .exact import LogVal
from .finset import FINSET, FinSetMorphism, FinSetObject
from .finvect import (
    FINVECT,
    GF2,
    LinearMorphism,
    VectObject,
    case_split,
    random_map,
    rank,
    rank_exact,
    transpose,
)
from .measures import InfoMeasure, register_measure


@dataclass(frozen=True, slots=True)
class DualMorphism:
    """A base morphism presented in the opposite direction."""

    inner: Union[FinSetMorphism, LinearMorphism]

    @property
    def domain(self):
        return self.inner.codomain

    @property
    def codomain(self):
        return self.inner.domain

    @property
    def category(self) -> CategoryId:
        if isinstance(self.inner, FinSetMorphism):
            return CategoryId.FINSET_DUAL
        return CategoryId.FINVECT_DUAL


def image_cardinality_info(f: DualMorphism) -> int:
    """Number of distinct values the inner set map takes."""
    return len(set(f.inner.mapping))


def image_dimension_info(f: DualMorphism) -> int:
    """Rank of the inner linear map."""
    return rank(f.inner)


class _DualCategory(Category):
    """Shared delegation logic; subclasses supply the products, the
    terminal object and the coslice and section tests."""

    base: Category

    def _wrap_witness(self, witness: IsoWitness) -> IsoWitness:
        return IsoWitness(DualMorphism(witness.backward), DualMorphism(witness.forward))

    # -- structure ----------------------------------------------------
    def compose(self, g: DualMorphism, f: DualMorphism) -> DualMorphism:
        if f.codomain != g.domain:
            raise ObjectMismatch("cannot compose: middle objects differ")
        return DualMorphism(self.base.compose(f.inner, g.inner))

    def identity(self, obj) -> DualMorphism:
        return DualMorphism(self.base.identity(obj))

    def internal_product(self, f: DualMorphism, g: DualMorphism) -> DualMorphism:
        if f.domain != g.domain:
            raise DomainMismatch("internal product needs a shared source")
        return DualMorphism(self._case_split(f.inner, g.inner))

    # -- isomorphism --------------------------------------------------
    def iso_invariant(self, f: DualMorphism):
        return self.base.iso_invariant(f.inner)

    def arrow_iso(self, f: DualMorphism, g: DualMorphism, budget: int = 100_000):
        found = self.base.arrow_iso(f.inner, g.inner, budget)
        if found is None:
            return None
        # The inner witnesses run backwards: the base codomain pair
        # carries the dual domains and vice versa.
        return ArrowIso(self._wrap_witness(found.beta), self._wrap_witness(found.alpha))

    def random_iso_out(self, rng, obj) -> IsoWitness:
        return self._wrap_witness(self.base.random_iso_out(rng, obj))

    # -- corpus -------------------------------------------------------
    def exhaustive_morphisms(self, limits: Limits) -> Iterator[DualMorphism]:
        for obj in self.exhaustive_objects(limits):
            yield from self.exhaustive_morphisms_from(obj, limits)

    def exhaustive_morphisms_from(self, obj, limits: Limits) -> Iterator[DualMorphism]:
        for cod in self.exhaustive_objects(limits):
            for inner in self.base.maps_between(cod, obj):
                yield DualMorphism(inner)

    def random_morphism(self, rng, limits: Limits) -> DualMorphism:
        return self.random_morphism_from(rng, self.random_object(rng, limits), limits)

    # -- serialization --------------------------------------------------
    def object_to_json(self, obj) -> dict:
        return self.base.object_to_json(obj)

    def object_from_json(self, data: dict):
        return self.base.object_from_json(data)

    def payload_to_json(self, m: DualMorphism) -> dict:
        return {"dual": True, "inner": self.base.payload_to_json(m.inner)}

    def morphism_from_json(self, domain, codomain, payload: dict) -> DualMorphism:
        inner = dict_from_json(payload["inner"], "inner")
        return DualMorphism(self.base.morphism_from_json(codomain, domain, inner))


class FinSetDualCategory(_DualCategory):
    id = CategoryId.FINSET_DUAL
    base = FINSET

    # -- coproducts of the base ----------------------------------------
    def product_object(self, x: FinSetObject, y: FinSetObject):
        prod = FinSetObject(x.size + y.size)
        p1 = DualMorphism(
            FinSetMorphism(x, prod, tuple(range(x.size)))
        )
        p2 = DualMorphism(
            FinSetMorphism(y, prod, tuple(x.size + i for i in range(y.size)))
        )
        return prod, p1, p2

    def external_product(self, f: DualMorphism, g: DualMorphism) -> DualMorphism:
        if not isinstance(g.inner, FinSetMorphism):
            raise CategoryMismatch("cannot pair duals from different base categories")
        fi, gi = f.inner, g.inner
        dom = FinSetObject(fi.domain.size + gi.domain.size)
        cod = FinSetObject(fi.codomain.size + gi.codomain.size)
        offset = fi.codomain.size
        mapping = fi.mapping + tuple(v + offset for v in gi.mapping)
        return DualMorphism(FinSetMorphism(dom, cod, mapping))

    def _case_split(self, fi: FinSetMorphism, gi: FinSetMorphism) -> FinSetMorphism:
        dom = FinSetObject(fi.domain.size + gi.domain.size)
        return FinSetMorphism(dom, fi.codomain, fi.mapping + gi.mapping)

    def terminal_object(self) -> FinSetObject:
        return FinSetObject(0)

    def unique_to_terminal(self, obj: FinSetObject) -> DualMorphism:
        return DualMorphism(FinSetMorphism(FinSetObject(0), obj, ()))

    def coslice_iso(self, p: DualMorphism, q: DualMorphism, budget: int = 100_000) -> bool:
        if p.domain != q.domain:
            raise DomainMismatch("coslice comparison needs a shared source")
        if p.codomain.size != q.codomain.size:
            return False
        counts_p = [0] * p.domain.size
        for v in p.inner.mapping:
            counts_p[v] += 1
        counts_q = [0] * q.domain.size
        for v in q.inner.mapping:
            counts_q[v] += 1
        # A bijection over A exists iff every point of A is hit equally
        # often by the two inner maps.
        return counts_p == counts_q

    def section_exists(self, f: DualMorphism, g: DualMorphism) -> bool:
        if f.codomain != g.domain:
            raise ObjectMismatch("section test needs composable f then g")
        fg = self.base.compose(f.inner, g.inner)
        return set(f.inner.mapping) <= set(fg.mapping)

    def exhaustive_objects(self, limits: Limits) -> Iterator[FinSetObject]:
        # Size 0 is the terminal object here, so the corpus includes it.
        for n in range(0, limits.max_size + 1):
            yield FinSetObject(n)

    def random_object(self, rng, limits: Limits) -> FinSetObject:
        return FinSetObject(rng.randint(0, limits.max_size))

    def random_morphism_from(self, rng, obj: FinSetObject, limits: Limits) -> DualMorphism:
        if obj.size == 0:
            return DualMorphism(FinSetMorphism(FinSetObject(0), obj, ()))
        cod = FinSetObject(rng.randint(0, limits.max_size))
        return DualMorphism(FinSetMorphism(cod, obj, pointmap.random_map(rng, cod.size, obj.size)))


class FinVectDualCategory(_DualCategory):
    """finvect read through the transpose: f* -> transpose(f*.inner) is a
    bijection on each hom-set that turns the reversed composite into the
    ordinary one, so the structure below is finvect's, carried across."""

    id = CategoryId.FINVECT_DUAL
    base = FINVECT

    def product_object(self, x: VectObject, y: VectObject):
        prod, p1, p2 = self.base.product_object(x, y)
        return prod, DualMorphism(transpose(p1)), DualMorphism(transpose(p2))

    def external_product(self, f: DualMorphism, g: DualMorphism) -> DualMorphism:
        if not isinstance(g.inner, LinearMorphism):
            raise CategoryMismatch("cannot pair duals from different base categories")
        return DualMorphism(self.base.external_product(f.inner, g.inner))

    def _case_split(self, fi: LinearMorphism, gi: LinearMorphism) -> LinearMorphism:
        return case_split(fi, gi)

    def terminal_object(self, field=GF2) -> VectObject:
        return self.base.terminal_object(field)

    def terminal_for(self, limits: Limits) -> VectObject:
        return self.base.terminal_for(limits)

    def unique_to_terminal(self, obj: VectObject) -> DualMorphism:
        return DualMorphism(transpose(self.base.unique_to_terminal(obj)))

    def coslice_iso(self, p: DualMorphism, q: DualMorphism, budget: int = 100_000) -> bool:
        return self.base.coslice_iso(transpose(p.inner), transpose(q.inner), budget)

    def section_exists(self, f: DualMorphism, g: DualMorphism) -> bool:
        return self.base.section_exists(transpose(f.inner), transpose(g.inner))

    def exhaustive_objects(self, limits: Limits) -> Iterator[VectObject]:
        return self.base.exhaustive_objects(limits)

    def random_object(self, rng, limits: Limits) -> VectObject:
        return self.base.random_object(rng, limits)

    def random_morphism_from(self, rng, obj: VectObject, limits: Limits) -> DualMorphism:
        cod = VectObject(rng.randint(0, limits.max_size), obj.field)
        return DualMorphism(random_map(rng, cod, obj))


FINSET_DUAL = register(FinSetDualCategory())
FINVECT_DUAL = register(FinVectDualCategory())

register_measure(
    InfoMeasure(
        "image_cardinality",
        CategoryId.FINSET_DUAL,
        lambda f: float(image_cardinality_info(f)),
        lambda f: LogVal.from_rational(image_cardinality_info(f)),
    )
)
register_measure(
    InfoMeasure(
        "image_dimension",
        CategoryId.FINVECT_DUAL,
        lambda f: float(image_dimension_info(f)),
        lambda f: rank_exact(f.inner),
    )
)
