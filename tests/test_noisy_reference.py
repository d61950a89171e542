"""The noisy-channel fast paths against the formulas they replace.

noisy_information, noisy_information_exact, closed_form_ni and
channel_of read the integer joint count table directly; the references
below are the earlier Fraction formulas, kept here only as oracles.  The
float values must agree bit for bit and the exact value as a LogVal.
Also covered: the capacity cache, the UNDEFINED value of a solve that
did not converge, and the object-only product builders.  The capacity
of a weighted noisy_finprob system (continuous_capacity) is no audit
measure and lives here only as a reference.
"""

import dataclasses
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from infocat import AuditConfig, CategoryId, audit_all, category
from infocat import noisy as noisy_mod
from infocat.capacity import blahut_arimoto
from infocat.config import log, log_base
from infocat.core import UNDEFINED, Limits, is_undefined
from infocat.exact import LogVal
from infocat.errors import ZeroMassFiber
from infocat.finprob import _joint_masses, from_noisy_finset
from infocat.measures import get_measure, value_of
from infocat.noisy import (
    NoisyMorphism,
    NoisyObject,
    _joint_counts,
    channel_of,
    closed_form_ni,
    noisy_capacity,
    noisy_information,
    noisy_information_exact,
)
from infocat.prng import trial_rng

NOISY = category(CategoryId.NOISY_FINSET)
FINPROB = category(CategoryId.FINPROB)
NOISY_FINPROB = category(CategoryId.NOISY_FINPROB)

PROPERTY = settings(max_examples=150, deadline=None, database=None, derandomize=True)


# -- references: the Fraction formulas --------------------------------
def _marginals(c, a_size):
    return [sum(r) for r in c], [sum(r[b] for r in c) for b in range(a_size)]


def ref_information(f):
    c = _joint_counts(f)
    m = f.domain.m_size
    row, col = _marginals(c, f.codomain.a_size)
    total = 0.0
    for a, r in enumerate(c):
        for b, n_ab in enumerate(r):
            if n_ab:
                total += (n_ab / m) * log(Fraction(n_ab * m, row[a] * col[b]))
    return max(total, 0.0)


def ref_information_exact(f):
    c = _joint_counts(f)
    m = f.domain.m_size
    row, col = _marginals(c, f.codomain.a_size)
    total = LogVal.zero()
    for a, r in enumerate(c):
        for b, n_ab in enumerate(r):
            if n_ab:
                total = total + LogVal.log_of(
                    Fraction(n_ab * m, row[a] * col[b]), Fraction(n_ab, m)
                )
    return total


def ref_closed_form(f):
    c = _joint_counts(f)
    m = f.domain.m_size
    _, col = _marginals(c, f.codomain.a_size)
    acc = 0.0
    for r in c:
        for b, n_ab in enumerate(r):
            if n_ab:
                acc += n_ab * log(Fraction(n_ab, col[b]))
    a_size = f.domain.a_size
    return acc / m - 2.0 * a_size * log(a_size)


def continuous_capacity(f, solve=blahut_arimoto):
    """Capacity of a noisy_finprob system's conditional law
    P(b | a) = rho(a, b) / alpha(a), or UNDEFINED when the solver stopped
    at its iteration cap.  No measure registry holds it; it is the
    reference that the capacity of an embedded noisy_finset system is
    checked against.  The solver renormalizes raw rows but not a Channel,
    so this path keeps raw rows."""
    rho = _joint_masses(f)
    alpha = f.domain.message.weights
    rows = []
    for a, row in enumerate(rho):
        if alpha[a] == 0:
            raise ZeroMassFiber(f"message {a} has zero mass")
        rows.append([float(mass / alpha[a]) for mass in row])
    result = solve(rows)
    return result.capacity if result.converged else UNDEFINED


def ref_channel_rows(f):
    return tuple(
        tuple(float(Fraction(n_ab, sum(r))) for n_ab in r) for r in _joint_counts(f)
    )


# -- strategies -------------------------------------------------------
@st.composite
def systems(draw, max_m):
    m = draw(st.integers(1, max_m))
    a = draw(st.integers(1, m))
    extra = draw(st.lists(st.integers(0, a - 1), min_size=m - a, max_size=m - a))
    pi = draw(st.permutations(list(range(a)) + extra))
    return NoisyObject(m, a, tuple(pi))


@st.composite
def morphisms_from(draw, dom, max_m):
    cod = draw(systems(max_m))
    mapping = draw(st.lists(st.integers(0, cod.m_size - 1), min_size=dom.m_size, max_size=dom.m_size))
    return NoisyMorphism(dom, cod, tuple(mapping))


@st.composite
def morphisms(draw, max_m=10):
    return draw(morphisms_from(draw(systems(max_m)), max_m))


@st.composite
def external_products(draw):
    return NOISY.external_product(draw(morphisms(4)), draw(morphisms(4)))


@st.composite
def internal_products(draw):
    f = draw(morphisms(8))
    return NOISY.internal_product(f, draw(morphisms_from(f.domain, 6)))


def assert_matches_reference(f):
    assert noisy_information(f) == ref_information(f)
    assert noisy_information_exact(f) == ref_information_exact(f)
    assert closed_form_ni(f) == ref_closed_form(f)
    assert channel_of(f).matrix == ref_channel_rows(f)


BASES = pytest.mark.parametrize("base", ["2", "e"])


class TestAgainstFractionFormulas:
    @BASES
    @PROPERTY
    @given(f=morphisms())
    def test_random_morphisms(self, base, f):
        with log_base(base):
            assert_matches_reference(f)

    @BASES
    @PROPERTY
    @given(f=external_products())
    def test_external_products(self, base, f):
        with log_base(base):
            assert_matches_reference(f)

    @BASES
    @PROPERTY
    @given(f=internal_products())
    def test_internal_products(self, base, f):
        with log_base(base):
            assert_matches_reference(f)

    @BASES
    def test_zero_columns(self, base):
        # Received messages 1 and 2 are never hit: their column sums are 0.
        dom = NoisyObject(4, 2, (0, 1, 0, 1))
        cod = NoisyObject(5, 3, (0, 1, 2, 0, 0))
        f = NoisyMorphism(dom, cod, (0, 3, 4, 0))
        assert _marginals(_joint_counts(f), 3)[1] == [4, 0, 0]
        with log_base(base):
            assert_matches_reference(f)
            assert noisy_information(f) == 0.0
            assert noisy_information_exact(f).is_zero()

    def test_measure_compatible_corpus(self):
        lim = Limits(8, measure_compatible=True)
        for i in range(300):
            f = NOISY.random_morphism(trial_rng(11, "ref", i), lim)
            g = NOISY.random_morphism_from(trial_rng(12, "ref", i), f.domain, lim)
            for h in (f, NOISY.internal_product(f, g)):
                assert_matches_reference(h)


class TestWeightedLogs:
    @PROPERTY
    @given(
        terms=st.lists(st.tuples(st.integers(-50, 50), st.integers(1, 400)), max_size=12),
        denominator=st.integers(1, 60),
    )
    def test_matches_a_sum_of_log_of(self, terms, denominator):
        want = LogVal.zero()
        for w, k in terms:
            want = want + LogVal.log_of(k, Fraction(w, denominator))
        assert LogVal.from_weighted_logs(terms, denominator) == want

    def test_argument_must_be_positive(self):
        with pytest.raises(ValueError):
            LogVal.from_weighted_logs([(1, 0)])


@pytest.fixture
def cold_capacity_cache():
    # A test that patches the solver must not leave its results behind.
    noisy_mod._solve.cache_clear()
    yield noisy_mod._solve
    noisy_mod._solve.cache_clear()


def z_channel_system():
    """Rows (1, 0) and (1/2, 1/2): the optimal input law is not uniform,
    so the solver needs more than one iteration."""
    dom = NoisyObject(3, 2, (0, 1, 1))
    return NoisyMorphism(dom, NoisyObject(2, 2, (0, 1)), (0, 0, 1))


class TestCapacityCache:
    @settings(max_examples=60, deadline=None, database=None, derandomize=True)
    @given(f=morphisms(6))
    def test_cached_equals_a_fresh_solve(self, f):
        want = blahut_arimoto(channel_of(f)).capacity
        assert noisy_capacity(f) == want
        assert noisy_capacity(f) == want  # now from the cache

    def test_one_solve_per_distinct_channel(self, cold_capacity_cache, monkeypatch):
        calls = []

        def counting(channel, eps):
            calls.append(channel)
            return blahut_arimoto(channel, eps=eps)

        monkeypatch.setattr(noisy_mod, "blahut_arimoto", counting)
        f = z_channel_system()
        # A relabelled noise space: another morphism, the same channel.
        dom = NoisyObject(3, 2, (1, 0, 1))
        g = NoisyMorphism(dom, f.codomain, (1, 0, 0))
        assert f != g and channel_of(f) == channel_of(g)
        assert noisy_capacity(f) == noisy_capacity(g) == noisy_capacity(f)
        assert calls == [channel_of(f)]
        noisy_capacity(f, eps=1e-6)
        assert len(calls) == 2  # eps is part of the key


def _stop_after_one_iteration(channel, eps=1e-9):
    return blahut_arimoto(channel, eps=eps, max_iters=1)


def _never_converged(channel, eps=1e-9):
    return dataclasses.replace(blahut_arimoto(channel, eps=eps), converged=False)


class TestNonConvergence:
    def test_capacity_is_undefined(self, cold_capacity_cache, monkeypatch):
        monkeypatch.setattr(noisy_mod, "blahut_arimoto", _stop_after_one_iteration)
        f = z_channel_system()
        assert not _stop_after_one_iteration(channel_of(f)).converged
        assert is_undefined(noisy_capacity(f))
        assert cold_capacity_cache.cache_info().currsize == 1
        # The cached result still says it did not converge.
        assert is_undefined(noisy_capacity(f))
        assert is_undefined(value_of(get_measure(CategoryId.NOISY_FINSET, "capacity"), f))
        # A channel the first iteration already solves stays defined.
        ident = NOISY.identity(NoisyObject(2, 2, (0, 1)))
        assert noisy_capacity(ident) == pytest.approx(1.0, abs=1e-9)

    def test_continuous_capacity_is_undefined(self):
        f = from_noisy_finset(z_channel_system())
        assert continuous_capacity(f) == pytest.approx(noisy_capacity(z_channel_system()))
        assert is_undefined(continuous_capacity(f, solve=_stop_after_one_iteration))

    def test_audit_skips_instead_of_comparing(self, cold_capacity_cache, monkeypatch):
        config = AuditConfig(
            category="noisy_finset", measures=("capacity",), mode="random",
            max_size=3, trials=15, seed=4,
        )
        honest = audit_all(config)
        noisy_mod._solve.cache_clear()
        monkeypatch.setattr(noisy_mod, "blahut_arimoto", _never_converged)
        report = audit_all(config)
        assert report.violations == []
        # Every evaluation that read a capacity value became a skip.
        for check, run in honest.checks_run.items():
            total = run + honest.skipped_undefined.get(check, 0)
            assert report.checks_run[check] + report.skipped_undefined.get(check, 0) == total
        assert sum(report.skipped_undefined.values()) > sum(honest.skipped_undefined.values())
        assert sum(report.checks_run.values()) < sum(honest.checks_run.values())


class TestObjectOnlyProducts:
    """external_product and internal_product build their objects without
    projections; the objects must be those of product_object."""

    @PROPERTY
    @given(f=morphisms(4), g=morphisms(4))
    def test_noisy_finset(self, f, g):
        p = NOISY.external_product(f, g)
        assert p.domain == NOISY.product_object(f.domain, g.domain)[0]
        assert p.codomain == NOISY.product_object(f.codomain, g.codomain)[0]

    @pytest.mark.parametrize("ops", [FINPROB, NOISY_FINPROB], ids=["finprob", "noisy_finprob"])
    def test_weighted(self, ops):
        lim = Limits(3)
        defined = 0
        for i in range(150):
            f = ops.random_morphism(trial_rng(21, "prod", i), lim)
            g = ops.random_morphism(trial_rng(22, "prod", i), lim)
            p = ops.external_product(f, g)
            assert p.domain == ops.product_object(f.domain, g.domain)[0]
            assert p.codomain == ops.product_object(f.codomain, g.codomain)[0]
            h = ops.random_morphism_from(trial_rng(23, "prod", i), f.domain, lim)
            q = ops.internal_product(f, h)
            if not is_undefined(q):
                defined += 1
                assert q.codomain == ops.product_object(f.codomain, h.codomain)[0]
        assert defined > 0

    def test_projections_still_built(self):
        x = NoisyObject(2, 2, (0, 1))
        y = NoisyObject(3, 2, (0, 1, 1))
        prod, p1, p2 = NOISY.product_object(x, y)
        assert (p1.domain, p1.codomain, p2.domain, p2.codomain) == (prod, x, prod, y)
        assert p1.mapping == (0, 0, 0, 1, 1, 1)
        assert p2.mapping == (0, 1, 2, 0, 1, 2)
