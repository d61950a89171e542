"""The harness must catch measures that are wrong on purpose.

Two deliberately broken measures ship with the package so the audit can be
tested end to end: one returns a constant, the other returns the domain
size. Both violate the additivity and matching laws in predictable places,
and every recorded violation has to replay bit for bit.  The test-only
mutants of conftest.py break the laws those two leave alone.
"""

from collections import Counter

import pytest

from infocat import AuditConfig, CategoryId, audit_all, replay


def count_by_check(report):
    return Counter(v.check for v in report.violations)


class TestBrokenConstant:
    # I(f) = 1 everywhere. Additivity wants 1 = 1 + 1 on every external
    # pair (8 * 8 of them at size 2). Equality I(gf) = I(f) always holds,
    # so the section law fires exactly where no section exists: g must
    # collapse a two-point image, which takes 2 surjective f's times 3
    # non-injective g's. The terminal identity scores 1 instead of 0 for
    # both objects.
    @pytest.fixture(scope="class")
    def report(self):
        config = AuditConfig(
            category=CategoryId.FINSET,
            measures=("broken_constant",),
            mode="exhaustive",
            max_size=2,
        )
        return audit_all(config)

    def test_exact_violation_census(self, report):
        assert not report.ok
        assert count_by_check(report) == {
            "external_additivity": 64,
            "section_iff": 6,
            "zero_at_terminal": 2,
        }
        assert len(report.violations) == 72

    def test_every_violation_replays(self, report):
        for index in range(len(report.violations)):
            assert replay(report, index) == report.violations[index]

    def test_lawful_checks_stay_clean(self, report):
        fired = set(count_by_check(report))
        for name in ("invariance", "data_processing", "internal_monotonicity",
                     "source_matching", "destination_matching"):
            assert name not in fired


class TestBrokenSourceSize:
    @pytest.fixture(scope="class")
    def report(self):
        config = AuditConfig(
            category=CategoryId.FINSET,
            measures=("broken_source_size",),
            mode="random",
            max_size=5,
            trials=100,
            seed=7,
        )
        return audit_all(config)

    def test_pinned_census(self, report):
        # Regression pin: any change to the generators or the measure
        # shifts these numbers.
        assert count_by_check(report) == {
            "zero_at_terminal": 100,
            "external_additivity": 93,
            "projection_irrelevance": 75,
            "destination_matching": 38,
            "section_iff": 33,
        }
        assert len(report.violations) == 339

    def test_domain_size_is_iso_invariant(self, report):
        # The measure is wrong but still invariant, so conjugation and
        # data processing never fire.
        fired = set(count_by_check(report))
        assert "invariance" not in fired
        assert "data_processing" not in fired
        assert "source_matching" not in fired

    def test_random_violations_replay(self, report):
        for index in range(0, len(report.violations), 11):
            assert replay(report, index) == report.violations[index]


def replay_all(report):
    for index in range(len(report.violations)):
        assert replay(report, index) == report.violations[index]


class TestMutantCensus:
    """Each law check fires on some measure that breaks it.

    The mutants live in conftest.py.  unit_product_identity is absent on
    purpose: on finset, f x id_1 and <f, !> are the map f itself, so no
    measure can make that check fire there.
    """

    CENSUS = {
        "point0": {
            "data_processing": 11,
            "destination_matching": 5,
            "external_additivity": 41,
            "internal_idempotence": 3,
            "internal_monotonicity": 2,
            "internal_strong_subadditivity": 52,
            "invariance": 4,
            "iso_well_defined": 40,
            "projection_irrelevance": 8,
            "section_iff": 16,
            "source_matching": 5,
            "zero_at_terminal": 2,
        },
        "partial_label": {
            "external_additivity": 8,
            "invariance": 3,
            "iso_well_defined": 33,
        },
        "cod_size": {
            "data_processing": 4,
            "external_additivity": 28,
            "internal_idempotence": 6,
            "internal_strong_subadditivity": 92,
            "section_iff": 12,
            "source_matching": 2,
            "zero_at_terminal": 2,
        },
    }

    @pytest.mark.parametrize("name", sorted(CENSUS))
    def test_exhaustive_census(self, mutants, name):
        report = audit_all(
            AuditConfig(category=CategoryId.FINSET, measures=(name,), max_size=2)
        )
        assert count_by_check(report) == self.CENSUS[name]
        replay_all(report)

    def test_one_sided_values_fail_the_equalities(self, mutants):
        # Where only one side of an equality is defined, lhs and rhs record
        # which side was (1.0) and which was not (0.0).
        report = audit_all(
            AuditConfig(category=CategoryId.FINSET, measures=("partial_label",), max_size=2)
        )
        one_sided = Counter(
            v.check
            for v in report.violations
            if {v.lhs, v.rhs} == {0.0, 1.0} and v.delta == 1.0
        )
        assert one_sided == {"invariance": 3, "iso_well_defined": 33}

    def test_image_squared_breaks_internal_subadditivity(self, image_squared):
        report = audit_all(
            AuditConfig(
                category=CategoryId.FINSET,
                measures=(image_squared,),
                max_size=3,
                checks=("internal_subadditivity",),
            )
        )
        assert count_by_check(report) == {"internal_subadditivity": 384}
        replay_all(report)
