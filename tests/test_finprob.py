"""Probability spaces with exact rational weights: measure-preserving
maps, the partial internal product, and the uniform embedding."""

import random
from fractions import Fraction

import pytest

from infocat import CategoryId, UNDEFINED, category, is_undefined
from infocat.core import Limits
from infocat.errors import (
    EnumerationBudgetExceeded,
    InvalidMorphism,
    InvalidObject,
)
from infocat.finprob import (
    FinProbMorphism,
    FinProbObject,
    NoisyProbMorphism,
    NoisyProbObject,
    check_bmp,
    continuous_noisy_information,
    continuous_noisy_information_exact,
    from_noisy_finset,
    pushforward,
)
from infocat.noisy import NoisyMorphism, NoisyObject, noisy_capacity, noisy_information
from infocat.prng import trial_rng
from test_noisy_reference import continuous_capacity

PROB = category(CategoryId.FINPROB)
NPROB = category(CategoryId.NOISY_FINPROB)

HALF = Fraction(1, 2)
QUARTER = Fraction(1, 4)


def uniform(n):
    return FinProbObject(n, tuple(Fraction(1, n) for _ in range(n)))


class TestObjects:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(InvalidObject):
            FinProbObject(2, (HALF, HALF + QUARTER))

    def test_weights_must_be_nonnegative(self):
        with pytest.raises(InvalidObject):
            FinProbObject(2, (Fraction(3, 2), Fraction(-1, 2)))

    def test_zero_mass_points_allowed(self):
        obj = FinProbObject(2, (Fraction(1), Fraction(0)))
        assert obj.weights[1] == 0


class TestMorphisms:
    def test_backwards_measure_preservation_enforced(self):
        x = uniform(4)
        y = FinProbObject(2, (QUARTER, 3 * QUARTER))
        f = FinProbMorphism(x, y, (0, 1, 1, 1))
        assert f.mapping == (0, 1, 1, 1)
        with pytest.raises(InvalidMorphism):
            FinProbMorphism(x, y, (0, 0, 1, 1))  # pushes (1/2, 1/2)

    def test_check_bmp_oracle(self):
        mu = (HALF, QUARTER, QUARTER)
        assert check_bmp((0, 1, 1), mu, (HALF, HALF))
        assert not check_bmp((0, 0, 1), mu, (HALF, HALF))

    def test_pushforward_always_valid(self):
        rnd = random.Random(8)
        for _ in range(100):
            n = rnd.randint(1, 6)
            denom = rnd.randint(n, 12)
            cuts = sorted(rnd.sample(range(1, denom), n - 1)) + [denom]
            prev = 0
            weights = []
            for c in cuts:
                weights.append(Fraction(c - prev, denom))
                prev = c
            x = FinProbObject(n, tuple(weights))
            size = rnd.randint(1, 4)
            mapping = tuple(rnd.randrange(size) for _ in range(n))
            y = pushforward(x, mapping, size)
            f = FinProbMorphism(x, y, mapping)  # must not raise
            assert sum(y.weights) == 1
            assert f.codomain == y


class TestInternalProduct:
    def test_defined_for_independent_legs(self):
        x = uniform(4)
        two = uniform(2)
        first = FinProbMorphism(x, two, (0, 0, 1, 1))
        second = FinProbMorphism(x, two, (0, 1, 0, 1))
        p = PROB.internal_product(first, second)
        assert not is_undefined(p)
        assert p.codomain.size == 4

    def test_undefined_for_dependent_legs(self):
        x = uniform(4)
        two = uniform(2)
        first = FinProbMorphism(x, two, (0, 0, 1, 1))
        assert PROB.internal_product(first, first) is UNDEFINED

    def test_existence_rate_is_properly_partial(self):
        lim = Limits(5)
        defined = undefined = 0
        for i in range(400):
            f = PROB.random_morphism(trial_rng(1, "gen:p", i), lim)
            g = PROB.random_morphism_from(trial_rng(2, "gen:p", i), f.domain, lim)
            if is_undefined(PROB.internal_product(f, g)):
                undefined += 1
            else:
                defined += 1
        assert defined > 0 and undefined > 0


class TestNoisyProb:
    def test_top_map_validation(self):
        noise = uniform(4)
        msg = uniform(2)
        x = NoisyProbObject(noise, msg, (0, 0, 1, 1))
        assert x.pi == (0, 0, 1, 1)
        # A mass-zero message can satisfy measure preservation while pi
        # still misses it; the object constructor must reject that.
        padded = FinProbObject(2, (Fraction(1), Fraction(0)))
        with pytest.raises(InvalidObject):
            NoisyProbObject(noise, padded, (0, 0, 0, 0))
        # And an assignment that breaks measure preservation outright.
        with pytest.raises(InvalidMorphism):
            NoisyProbObject(noise, msg, (0, 0, 0, 0))

    def test_embedding_matches_discrete_information(self):
        rnd = random.Random(17)
        for _ in range(150):
            m = rnd.randint(1, 9)
            a = rnd.randint(1, m)
            pi = list(range(a)) + [rnd.randrange(a) for _ in range(m - a)]
            rnd.shuffle(pi)
            dom = NoisyObject(m, a, tuple(pi))
            m2 = rnd.randint(1, 9)
            a2 = rnd.randint(1, m2)
            pi2 = list(range(a2)) + [rnd.randrange(a2) for _ in range(m2 - a2)]
            rnd.shuffle(pi2)
            cod = NoisyObject(m2, a2, tuple(pi2))
            f = NoisyMorphism(dom, cod, tuple(rnd.randrange(m2) for _ in range(m)))
            lifted = from_noisy_finset(f)
            assert continuous_noisy_information(lifted) == pytest.approx(
                noisy_information(f), abs=1e-9
            )

    def test_exact_embedding_equality(self):
        from infocat.noisy import noisy_information_exact

        x = NoisyObject(6, 3, (0, 0, 1, 1, 2, 2))
        y = NoisyObject(3, 3, (0, 1, 2))
        f = NoisyMorphism(x, y, (0, 1, 1, 2, 2, 0))
        lifted = from_noisy_finset(f)
        assert continuous_noisy_information_exact(lifted) == noisy_information_exact(f)

    def test_capacity_through_embedding(self):
        x = NoisyObject(4, 2, (0, 0, 1, 1))
        y = NoisyObject(2, 2, (0, 1))
        f = NoisyMorphism(x, y, (0, 1, 1, 1))
        lifted = from_noisy_finset(f)
        assert continuous_capacity(lifted) == pytest.approx(
            noisy_capacity(f), abs=1e-7
        )

    def test_nonuniform_information_uses_the_weights(self):
        # Same top map under a skewed versus a uniform noise law: the
        # skew correlates the two bits, the uniform law leaves them
        # independent, so the values must differ.
        top = (0, 1, 0, 1)
        skew_noise = FinProbObject(
            4, (HALF, Fraction(1, 6), Fraction(1, 6), Fraction(1, 6))
        )
        skew_x = NoisyProbObject(
            skew_noise, pushforward(skew_noise, (0, 0, 1, 1), 2), (0, 0, 1, 1)
        )
        skew_y_noise = pushforward(skew_noise, top, 2)
        skew_y = NoisyProbObject(skew_y_noise, skew_y_noise, (0, 1))
        skew = continuous_noisy_information(NoisyProbMorphism(skew_x, skew_y, top))

        flat_x = NoisyProbObject(uniform(4), uniform(2), (0, 0, 1, 1))
        flat_y = NoisyProbObject(uniform(2), uniform(2), (0, 1))
        flat = continuous_noisy_information(NoisyProbMorphism(flat_x, flat_y, top))

        assert not is_undefined(skew) and not is_undefined(flat)
        assert flat == pytest.approx(0.0, abs=1e-12)
        assert skew > 0.01


class TestCorpusPolicy:
    def test_no_finite_enumeration(self):
        with pytest.raises(EnumerationBudgetExceeded):
            list(PROB.exhaustive_morphisms(Limits(2)))
        with pytest.raises(EnumerationBudgetExceeded):
            list(NPROB.exhaustive_morphisms(Limits(2)))

    def test_random_generation_is_reproducible(self):
        lim = Limits(4)
        a = [PROB.random_morphism(trial_rng(0, "gen:r", i), lim) for i in range(30)]
        b = [PROB.random_morphism(trial_rng(0, "gen:r", i), lim) for i in range(30)]
        assert a == b
