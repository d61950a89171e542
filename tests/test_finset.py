"""Finite set maps: fiber structure, entropy measures, sections, corpus."""

import math
import random
from fractions import Fraction
from itertools import product

import pytest

from infocat import CategoryId, category, compose, internal_product
from infocat.errors import (
    EmptyDomain,
    InvalidMorphism,
    InvalidObject,
    NegativeCoefficient,
)
from infocat.exact import LogVal
from infocat.finset import (
    FinSetObject,
    FinSetMorphism,
    afn_combination,
    fiber_sizes,
    finset_morphism,
    hartley,
    hartley_exact,
    image_size,
    shannon,
    shannon_exact,
)
from infocat.measures import get_measure, value_of

OPS = category(CategoryId.FINSET)


def section_search(f, g):
    """Brute-force reference for section_exists: try every s: C -> B."""
    gf = tuple(g.mapping[v] for v in f.mapping)
    for s in product(range(g.domain.size), repeat=g.codomain.size):
        if all(s[w] == v for w, v in zip(gf, f.mapping)):
            return True
    return False


def entropy_oracle(mapping, n):
    """Direct -sum p log2 p over fiber masses, written independently of
    the library's grouped-fraction formula."""
    counts = {}
    for v in mapping:
        counts[v] = counts.get(v, 0) + 1
    return -sum((c / n) * math.log2(c / n) for c in counts.values())


class TestValidation:
    def test_negative_object_size(self):
        with pytest.raises(InvalidObject):
            FinSetObject(-1)

    def test_mapping_out_of_range(self):
        with pytest.raises(InvalidMorphism):
            finset_morphism((0, 2), 2)

    def test_empty_domain_is_legal_but_unmeasurable(self):
        f = finset_morphism((), 3)
        assert f.domain.size == 0
        with pytest.raises(EmptyDomain):
            shannon(f)
        with pytest.raises(EmptyDomain):
            hartley(f)


class TestFibersAndMeasures:
    def test_fiber_sizes_sorted_by_target(self):
        f = finset_morphism((1, 0, 1, 1), 2)
        assert fiber_sizes(f) == (1, 3)
        assert image_size(f) == 2

    def test_shannon_quarter_three_quarters(self):
        f = finset_morphism((1, 0, 1, 1), 2)
        # H(1/4, 3/4) = 2 - (3/4) log2 3
        assert shannon(f) == pytest.approx(0.8112781244591328, abs=1e-15)
        assert shannon(f) == pytest.approx(entropy_oracle(f.mapping, 4), abs=1e-12)

    def test_shannon_random_against_oracle(self):
        rnd = random.Random(31)
        for _ in range(300):
            n = rnd.randint(1, 9)
            cod = rnd.randint(1, 9)
            mapping = tuple(rnd.randrange(cod) for _ in range(n))
            f = finset_morphism(mapping, cod)
            assert shannon(f) == pytest.approx(
                entropy_oracle(mapping, n), abs=1e-12
            )

    def test_hartley_counts_image(self):
        f = finset_morphism((0, 3, 3, 0), 4)
        assert hartley(f) == 1.0
        assert hartley(finset_morphism((0,), 1)) == 0.0

    def test_exact_values_match_floats(self):
        rnd = random.Random(99)
        for _ in range(100):
            n = rnd.randint(1, 8)
            cod = rnd.randint(1, 8)
            f = finset_morphism(tuple(rnd.randrange(cod) for _ in range(n)), cod)
            assert float(shannon_exact(f)) == pytest.approx(shannon(f), abs=1e-12)
            assert float(hartley_exact(f)) == pytest.approx(hartley(f), abs=1e-12)

    def test_exact_shannon_identity(self):
        # H of a bijection on n points is exactly log2 n.
        f = finset_morphism((2, 0, 1), 3)
        assert shannon_exact(f) == LogVal.log_of(3)

    def test_combination_measure(self):
        m = afn_combination(1, 1)
        f = finset_morphism((0, 0, 1), 2)
        # shannon = log2 3 - 2/3, hartley = 1
        assert value_of(m, f) == pytest.approx(1.9182958340544896, abs=1e-12)
        assert m.name == "afn(1,1)"

    def test_combination_fractional_name(self):
        m = afn_combination(2, Fraction(1, 2))
        assert m.name == "afn(2,1/2)"
        assert get_measure(CategoryId.FINSET, "afn(2, 1/2)").name == m.name

    def test_negative_coefficients_rejected(self):
        with pytest.raises(NegativeCoefficient):
            afn_combination(-1, 0)


class TestSections:
    def brute(self, f, g):
        return section_search(f, g)

    def test_oracle_agrees_with_search_everywhere(self):
        """Every composable pair with sizes <= 3."""
        maps = []
        for dom in range(1, 4):
            for cod in range(1, 4):
                for mapping in product(range(cod), repeat=dom):
                    maps.append(finset_morphism(mapping, cod))
        by_dom = {}
        for m in maps:
            by_dom.setdefault(m.domain.size, []).append(m)
        checked = 0
        for f in maps:
            for g in by_dom.get(f.codomain.size, []):
                if g.domain != f.codomain:
                    continue
                assert OPS.section_exists(f, g) == self.brute(f, g)
                checked += 1
        assert checked > 1000

    def test_section_recovers_composite(self):
        f = finset_morphism((0, 1, 2), 3)
        g = finset_morphism((1, 0, 2), 3)  # injective on the image: section exists
        assert OPS.section_exists(f, g)
        merge = finset_morphism((0, 0, 1), 2)  # merges two image points
        assert not OPS.section_exists(f, merge)


class TestProductsAndTerminal:
    def test_internal_product_refines_both(self):
        f = finset_morphism((0, 0, 1, 1), 2)
        g = finset_morphism((0, 1, 0, 1), 2)
        p = internal_product(f, g)
        assert fiber_sizes(p) == (1, 1, 1, 1)

    def test_external_product_adds_entropy(self):
        f = finset_morphism((0, 0, 1), 2)
        g = finset_morphism((0, 1), 2)
        p = OPS.external_product(f, g)
        assert p.domain.size == 6
        assert shannon_exact(p) == shannon_exact(f) + shannon_exact(g)

    def test_terminal_is_singleton(self):
        assert OPS.terminal_object() == FinSetObject(1)
        bang = OPS.unique_to_terminal(FinSetObject(3))
        assert shannon(bang) == 0.0


class TestHartleyBoundary:
    def test_strong_subadditivity_first_fails_at_five_points(self):
        """Hartley obeys strong subadditivity on all triples with source
        size <= 4 (the quotient sweep in the acceptance suite shows this)
        but not at 5: a triple where the pairwise meets stay coarse while
        the full meet separates everything gives 5*2 > 3*3 on image
        counts.  Shannon still satisfies the inequality on the same
        triple, with exact equality."""
        g = finset_morphism((0, 0, 0, 0, 1), 2)
        f = finset_morphism((0, 0, 1, 1, 0), 2)
        h = finset_morphism((0, 1, 0, 1, 0), 2)
        fg = internal_product(f, g)
        gh = internal_product(g, h)
        fgh = internal_product(fg, h)
        assert image_size(fg) == 3 and image_size(gh) == 3
        assert image_size(g) == 2 and image_size(fgh) == 5
        lhs = hartley(fgh)
        bound = hartley(fg) + hartley(gh) - hartley(g)
        assert lhs > bound + 1e-9  # log2 5 > log2 4.5

        s_lhs = shannon_exact(fgh)
        s_bound = shannon_exact(fg) + shannon_exact(gh) - shannon_exact(g)
        assert s_lhs == s_bound


class TestCorpus:
    def count_maps(self, max_size):
        return sum(
            cod**dom for dom in range(1, max_size + 1) for cod in range(1, max_size + 1)
        )

    def test_exhaustive_corpus_sizes(self):
        from infocat.core import Limits

        for bound, expect in ((2, 8), (3, 56), (4, 494)):
            got = list(OPS.exhaustive_morphisms(Limits(bound)))
            assert len(got) == expect == self.count_maps(bound)
            assert len(set(got)) == expect

    def test_random_morphisms_are_reproducible(self):
        from infocat.core import Limits
        from infocat.prng import trial_rng

        lim = Limits(5)
        a = [OPS.random_morphism(trial_rng(3, "gen:x", i), lim) for i in range(50)]
        b = [OPS.random_morphism(trial_rng(3, "gen:x", i), lim) for i in range(50)]
        assert a == b
        assert len(set(a)) > 20  # actually varied


class TestIsos:
    def test_coslice_iso_tracks_kernel(self):
        f = finset_morphism((0, 0, 1), 2)
        g = finset_morphism((1, 1, 0), 2)  # same partition, renamed targets
        assert OPS.coslice_iso(f, g)
        h = finset_morphism((0, 1, 1), 2)  # different partition
        assert not OPS.coslice_iso(f, h)

    def test_random_iso_out_is_invertible(self):
        from infocat.prng import trial_rng

        rng = trial_rng(0, "iso", 0)
        for size in (1, 2, 5):
            w = OPS.random_iso_out(rng, FinSetObject(size))
            assert compose(w.backward, w.forward) == OPS.identity(FinSetObject(size))


class TestBrokenMeasuresExist:
    def test_registered_for_selftest(self):
        names = {"broken_source_size", "broken_constant"}
        from infocat.measures import measure_names

        assert names <= set(measure_names(CategoryId.FINSET))
