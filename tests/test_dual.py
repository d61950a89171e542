"""Opposite categories: reversed composition, coproduct products, and
the image-size measures."""

import pytest

from infocat import CategoryId, category
from infocat.core import Limits
from infocat.dual import DualMorphism, image_cardinality_info, image_dimension_info
from infocat.errors import ObjectMismatch
from infocat.finset import FinSetObject, finset_morphism
from infocat.finvect import GF2, VectObject, linear_morphism, rank
from infocat.measures import get_measure, value_of

SDUAL = category(CategoryId.FINSET_DUAL)
VDUAL = category(CategoryId.FINVECT_DUAL)


def dual_of(mapping, codomain_size):
    return DualMorphism(finset_morphism(mapping, codomain_size))


def section_search(ops, f, g):
    """Brute-force reference for section_exists: a section s*: C -> B is
    an inner map s: B -> C with f.inner . g.inner . s == f.inner."""
    fg = ops.base.compose(f.inner, g.inner)
    return any(
        ops.base.compose(fg, s) == f.inner
        for s in ops.base.maps_between(f.inner.domain, g.inner.domain)
    )


class TestWrapping:
    def test_endpoints_swap(self):
        inner = finset_morphism((0, 1, 0), 2)
        f = DualMorphism(inner)
        assert f.domain == inner.codomain
        assert f.codomain == inner.domain
        assert f.category is CategoryId.FINSET_DUAL

    def test_composition_reverses(self):
        # f*: 2 <- 3 wraps f: 3 -> 2; g*: 3 <- 2 wraps g: 2 -> 3.
        f = dual_of((0, 1, 0), 2)  # dual arrow FinSet(2) -> FinSet(3)
        g = dual_of((2, 0), 3)  # dual arrow FinSet(3) -> FinSet(2)
        gf = SDUAL.compose(g, f)
        # Inner composite runs the other way: first g.inner, then f.inner.
        assert gf.inner.mapping == tuple(
            finset_morphism((0, 1, 0), 2).mapping[v] for v in (2, 0)
        )
        assert gf.domain == f.domain

    def test_identity_is_base_identity(self):
        ident = SDUAL.identity(FinSetObject(3))
        assert ident.inner.mapping == (0, 1, 2)


class TestCoproductStructure:
    def test_set_product_is_disjoint_union(self):
        prod, p1, p2 = SDUAL.product_object(FinSetObject(2), FinSetObject(3))
        assert prod.size == 5
        # Inner arrows are the two injections with disjoint images.
        assert set(p1.inner.mapping) & set(p2.inner.mapping) == set()
        assert set(p1.inner.mapping) | set(p2.inner.mapping) == set(range(5))

    def test_vect_product_is_direct_sum(self):
        prod, p1, p2 = VDUAL.product_object(VectObject(1, GF2), VectObject(2, GF2))
        assert prod.dim == 3
        assert rank(p1.inner) == 1 and rank(p2.inner) == 2

    def test_terminal_objects_are_initial_in_the_base(self):
        assert SDUAL.terminal_object() == FinSetObject(0)
        assert VDUAL.terminal_object(GF2) == VectObject(0, GF2)
        bang = SDUAL.unique_to_terminal(FinSetObject(4))
        assert bang.inner.domain.size == 0

    def test_external_product_concatenates(self):
        f = dual_of((0, 0), 1)
        g = dual_of((0, 1, 1), 2)
        p = SDUAL.external_product(f, g)
        assert p.inner.domain.size == 5
        assert image_cardinality_info(p) == image_cardinality_info(f) + image_cardinality_info(g)

    def test_internal_product_case_splits(self):
        a = FinSetObject(2)
        f = DualMorphism(finset_morphism((0, 1, 1), 2))  # dual source 2
        g = DualMorphism(finset_morphism((0,), 2))  # dual source 2
        p = SDUAL.internal_product(f, g)
        assert p.inner.mapping == (0, 1, 1, 0)
        assert p.domain == a


class TestMeasures:
    def test_image_cardinality(self):
        f = dual_of((0, 0, 2), 3)
        assert image_cardinality_info(f) == 2
        m = get_measure(CategoryId.FINSET_DUAL, "image_cardinality")
        assert value_of(m, f) == 2.0

    def test_image_dimension_equals_inner_rank(self):
        inner = linear_morphism(GF2, [[1, 0], [1, 0]])
        f = DualMorphism(inner)
        assert image_dimension_info(f) == rank(inner) == 1
        m = get_measure(CategoryId.FINVECT_DUAL, "image_dimension")
        assert value_of(m, f) == 1.0

    def test_rank_agrees_in_both_directions(self):
        """Transposing swaps row and column ranks; they coincide, so the
        dual measure of the transposed wrapper matches the original."""
        corpus = list(
            category(CategoryId.FINVECT).exhaustive_morphisms(Limits(2, field=GF2))
        )
        for f in corpus:
            transposed = linear_morphism(
                GF2,
                [
                    [f.entries[i][j] for i in range(f.codomain.dim)]
                    for j in range(f.domain.dim)
                ],
            )
            assert rank(transposed) == rank(f)
            assert image_dimension_info(DualMorphism(f)) == rank(transposed)


class TestSections:
    def test_set_oracle_matches_search(self):
        corpus = list(SDUAL.exhaustive_morphisms(Limits(3)))
        by_dom = {}
        for m in corpus:
            by_dom.setdefault(m.domain, []).append(m)
        checked = 0
        for f in corpus:
            for g in by_dom.get(f.codomain, []):
                assert SDUAL.section_exists(f, g) == section_search(SDUAL, f, g)
                checked += 1
        assert checked > 500

    def test_vect_oracle_matches_search(self):
        corpus = list(VDUAL.exhaustive_morphisms(Limits(2, field=GF2)))
        by_dom = {}
        for m in corpus:
            by_dom.setdefault(m.domain, []).append(m)
        checked = 0
        for f in corpus:
            for g in by_dom.get(f.codomain, []):
                assert VDUAL.section_exists(f, g) == section_search(VDUAL, f, g)
                checked += 1
        assert checked > 50

    def test_mismatched_endpoints_rejected(self):
        f = dual_of((0,), 1)
        g = dual_of((0, 0, 0), 1)
        with pytest.raises(ObjectMismatch):
            SDUAL.section_exists(g, f)


class TestCorpus:
    def test_objects_include_the_empty_carrier(self):
        objs = list(SDUAL.exhaustive_objects(Limits(2)))
        assert FinSetObject(0) in objs
        vobjs = list(VDUAL.exhaustive_objects(Limits(2, field=GF2)))
        assert VectObject(0, GF2) in vobjs

    def test_double_dual_reads_back(self):
        # Wrapping twice is the identity on the underlying data.
        inner = finset_morphism((1, 0), 2)
        assert DualMorphism(inner).inner == inner

    def test_iso_conjugation_preserves_measures(self):
        from infocat.prng import trial_rng

        rng = trial_rng(11, "iso-d", 0)
        for i in range(40):
            f = SDUAL.random_morphism(trial_rng(11, "gen:d", i), Limits(4))
            a = SDUAL.random_iso_out(rng, f.domain)
            b = SDUAL.random_iso_out(rng, f.codomain)
            other = SDUAL.compose(b.forward, SDUAL.compose(f, a.backward))
            assert image_cardinality_info(other) == image_cardinality_info(f)
