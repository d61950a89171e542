"""Audit engine behaviour: configuration guards, exhaustive tuple
accounting, reproducibility, replay, and findings.

The tuple counts asserted here are derived inside the tests from a direct
enumeration of small function spaces, so the engine is checked against an
independent computation rather than against itself.
"""

import dataclasses
import itertools

import pytest

from infocat import (
    AuditConfig,
    AuditReport,
    CategoryId,
    audit_all,
    audit_axioms,
    audit_propositions,
    generate,
    replay,
)
from infocat.audit import _CHECKS, _Engine
from infocat.core import category
from infocat.errors import (
    EnumerationBudgetExceeded,
    IndexOutOfRange,
    InvalidObject,
    ReplayMismatch,
)
from infocat.finset import FINSET, Limits
from infocat.finvect import parse_field
from infocat.jsonio import dumps


def finset_config(**kw):
    base = dict(category=CategoryId.FINSET, measures=("shannon",), mode="exhaustive", max_size=2)
    base.update(kw)
    return AuditConfig(**base)


class TestConfigValidation:
    def test_unknown_mode(self):
        with pytest.raises(InvalidObject, match="unknown audit mode"):
            finset_config(mode="fuzz")

    def test_measure_compatible_only_for_noisy(self):
        with pytest.raises(InvalidObject, match="noisy_finset"):
            finset_config(mode="measure_compatible")
        AuditConfig(
            category=CategoryId.NOISY_FINSET,
            measures=("noisy_information",),
            mode="measure_compatible",
        )

    def test_size_trials_tolerance_budget_bounds(self):
        with pytest.raises(InvalidObject, match="max_size"):
            finset_config(max_size=0)
        with pytest.raises(InvalidObject, match="trials"):
            finset_config(trials=0)
        with pytest.raises(InvalidObject, match="tolerance"):
            finset_config(tolerance=0.0)
        with pytest.raises(InvalidObject, match="budget"):
            finset_config(budget=0)

    def test_category_accepts_string(self):
        assert finset_config(category="finset").category is CategoryId.FINSET

    def test_unknown_check_names(self):
        with pytest.raises(InvalidObject, match="unknown checks.*transitivity"):
            audit_all(finset_config(checks=("invariance", "transitivity")))

    def test_budget_stops_enumeration(self):
        with pytest.raises(EnumerationBudgetExceeded, match="corpus exceeds budget"):
            audit_all(finset_config(max_size=3, budget=10))

    def test_budget_holds_after_a_larger_budget_built_the_corpus(self):
        audit_all(finset_config(max_size=3, checks=("invariance",)))
        with pytest.raises(EnumerationBudgetExceeded, match="corpus exceeds budget of 10 morphisms"):
            audit_all(finset_config(max_size=3, budget=10))
        assert list(generate(finset_config(max_size=3))) == list(
            FINSET.exhaustive_morphisms(Limits(3))
        )

    def test_object_checks_never_meet_the_morphism_budget(self):
        report = audit_all(finset_config(max_size=3, budget=10, checks=("zero_at_terminal",)))
        assert report.checks_run == {"zero_at_terminal": 3}

    def test_budget_counts_tuples_not_just_morphisms(self):
        # 56 morphisms fit, but the 56*56 additivity pairs do not.
        with pytest.raises(EnumerationBudgetExceeded, match="exceed budget"):
            audit_all(finset_config(measures=("hartley",), max_size=3, budget=100))


def maps_between(a, b):
    return list(itertools.product(range(b), repeat=a))


def finset_tuple_counts(max_size):
    """Tuple counts per check kind, computed from scratch."""
    sizes = range(1, max_size + 1)
    out_of = {a: sum(len(maps_between(a, b)) for b in sizes) for a in sizes}
    into = {b: sum(len(maps_between(a, b)) for a in sizes) for b in sizes}
    total = sum(out_of.values())
    return {
        "unary": total,
        "pair": total * total,
        "composable": sum(into[m] * out_of[m] for m in sizes),
        "common_domain": sum(
            len(maps_between(a, b)) * out_of[a] for a in sizes for b in sizes
        ),
        "triple": sum(
            len(maps_between(a, b)) * out_of[a] ** 2 for a in sizes for b in sizes
        ),
        "object": len(sizes),
        "object_pair": len(sizes) ** 2,
        "morphism_object": total * len(sizes),
    }


CHECK_KINDS = {
    "invariance": "unary",
    "external_additivity": "pair",
    "internal_strong_subadditivity": "triple",
    "data_processing": "composable",
    "section_iff": "composable",
    "destination_matching": "unary",
    "iso_well_defined": "pair",
    "source_matching": "unary",
    "internal_monotonicity": "common_domain",
    "internal_idempotence": "unary",
    "internal_subadditivity": "common_domain",
    "unit_product_identity": "unary",
    "zero_at_terminal": "object",
    "projection_irrelevance": "morphism_object",
    "terminal_structure": "unary",
    "projection_via_terminal": "object_pair",
}

STRUCTURAL = {"terminal_structure", "projection_via_terminal"}


class TestExhaustiveAccounting:
    def test_counts_match_independent_enumeration(self):
        counts = finset_tuple_counts(2)
        # Spot-check the oracle itself before trusting it.
        assert counts["unary"] == 8
        assert counts["composable"] == 36
        assert counts["common_domain"] == 34
        assert counts["triple"] == 152
        report = audit_all(finset_config())
        assert set(report.checks_run) == set(CHECK_KINDS)
        for name, kind in CHECK_KINDS.items():
            assert report.checks_run[name] == counts[kind], name
            assert report.skipped_undefined[name] == 0, name
        assert report.ok
        assert not report.violations

    def test_second_measure_scales_measure_checks_only(self):
        counts = finset_tuple_counts(2)
        report = audit_all(finset_config(measures=("shannon", "hartley")))
        assert report.checks_run["invariance"] == 2 * counts["unary"]
        assert report.checks_run["external_additivity"] == 2 * counts["pair"]
        # Structural checks do not iterate over measures.
        assert report.checks_run["terminal_structure"] == counts["unary"]
        assert report.checks_run["projection_via_terminal"] == counts["object_pair"]

    def test_existence_check_absent_outside_probability(self):
        report = audit_all(finset_config())
        assert "internal_product_existence" not in report.checks_run

    def test_run_plus_skip_equals_trials(self):
        config = AuditConfig(
            category=CategoryId.NOISY_FINPROB,
            measures=("continuous_noisy_information",),
            mode="random",
            max_size=4,
            trials=60,
            seed=3,
        )
        report = audit_all(config)
        for name in ("internal_strong_subadditivity", "internal_monotonicity"):
            assert report.checks_run[name] + report.skipped_undefined[name] == 60
        # The weighted categories must actually exercise the skip path.
        assert report.skipped_undefined["internal_strong_subadditivity"] > 0


class TestCheckSelection:
    def test_axioms_and_propositions_split(self):
        ax = audit_axioms(finset_config())
        prop = audit_propositions(finset_config())
        assert "invariance" in ax.checks_run
        assert "internal_monotonicity" not in ax.checks_run
        assert "internal_monotonicity" in prop.checks_run
        assert "invariance" not in prop.checks_run
        both = audit_all(finset_config())
        assert set(both.checks_run) == set(ax.checks_run) | set(prop.checks_run)

    def test_explicit_check_subset(self):
        report = audit_all(finset_config(checks=("invariance", "zero_at_terminal")))
        assert set(report.checks_run) == {"invariance", "zero_at_terminal"}

    def test_subset_filtered_by_scope(self):
        # A proposition name passed to the axiom runner selects nothing.
        report = audit_axioms(finset_config(checks=("zero_at_terminal",)))
        assert report.checks_run == {}


class TestDeterminism:
    def test_exhaustive_reports_byte_identical(self):
        a = audit_all(finset_config(measures=("shannon", "broken_constant")))
        b = audit_all(finset_config(measures=("shannon", "broken_constant")))
        assert dumps(a.to_json()) == dumps(b.to_json())

    def test_random_reports_byte_identical(self):
        config = AuditConfig(
            category=CategoryId.FINSET,
            measures=("shannon", "broken_source_size"),
            mode="random",
            max_size=4,
            trials=40,
            seed=11,
        )
        assert dumps(audit_all(config).to_json()) == dumps(audit_all(config).to_json())

    def test_seed_changes_random_corpus(self):
        base = dict(category=CategoryId.FINSET, measures=(), mode="random", max_size=4, trials=25)
        a = list(generate(AuditConfig(seed=0, **base)))
        b = list(generate(AuditConfig(seed=1, **base)))
        assert len(a) == len(b) == 25
        assert a != b
        assert a == list(generate(AuditConfig(seed=0, **base)))

    def test_generate_exhaustive_is_the_corpus(self):
        streamed = list(generate(finset_config(measures=())))
        direct = list(FINSET.exhaustive_morphisms(Limits(2)))
        assert streamed == direct


class TestReplay:
    def broken_report(self):
        return audit_all(finset_config(measures=("broken_constant",)))

    def test_exhaustive_violations_reproduce(self):
        report = self.broken_report()
        assert not report.ok
        for index in range(0, len(report.violations), 7):
            fresh = replay(report, index)
            assert fresh == report.violations[index]

    def test_random_violations_reproduce(self):
        config = AuditConfig(
            category=CategoryId.FINSET,
            measures=("broken_source_size",),
            mode="random",
            max_size=5,
            trials=30,
            seed=2,
        )
        report = audit_all(config)
        assert report.violations
        for index in range(len(report.violations)):
            assert replay(report, index) == report.violations[index]

    def test_round_tripped_report_still_replays(self):
        report = self.broken_report()
        back = AuditReport.from_json(report.to_json())
        assert replay(back, 0) == report.violations[0]

    def test_index_bounds(self):
        report = self.broken_report()
        with pytest.raises(IndexOutOfRange):
            replay(report, len(report.violations))
        with pytest.raises(IndexOutOfRange):
            replay(report, -1)

    def tampered(self, report, **changes):
        v = dataclasses.replace(report.violations[0], **changes)
        return dataclasses.replace(report, violations=[v] + list(report.violations[1:]))

    def test_tampered_seed_detected(self):
        report = self.broken_report()
        with pytest.raises(ReplayMismatch, match="carries seed"):
            replay(self.tampered(report, seed=99), 0)

    def test_tampered_value_detected(self):
        report = self.broken_report()
        with pytest.raises(ReplayMismatch, match="different values"):
            replay(self.tampered(report, lhs=report.violations[0].lhs + 0.5), 0)

    def test_tampered_check_name_detected(self):
        report = self.broken_report()
        with pytest.raises(ReplayMismatch, match="not active"):
            replay(self.tampered(report, check="internal_product_existence"), 0)

    def test_honest_trial_shows_no_violation(self):
        # Point a recorded violation at a trial that passes.
        report = self.broken_report()
        v = report.violations[0]
        good = audit_all(finset_config(measures=("shannon",)))
        assert good.ok
        swapped = dataclasses.replace(
            good, violations=(dataclasses.replace(v, measure="shannon"),)
        )
        with pytest.raises(ReplayMismatch, match="no violation on replay"):
            replay(swapped, 0)


def reference_stream(ops, limits, kind):
    """Exhaustive tuples of one kind as nested loops, straight from the
    category's generators: the order recorded trial indices refer to."""
    corpus = list(ops.exhaustive_morphisms(limits))
    objs = list(ops.exhaustive_objects(limits))
    by_dom = {}
    for m in corpus:
        by_dom.setdefault(m.domain, []).append(m)
    if kind == "unary":
        return [(f,) for f in corpus]
    if kind == "pair":
        return [(f, g) for f in corpus for g in corpus]
    if kind == "object":
        return [(a,) for a in objs]
    if kind == "object_pair":
        return [(a, b) for a in objs for b in objs]
    if kind == "morphism_object":
        return [(f, a) for f in corpus for a in objs]
    if kind == "composable":
        return [(f, g) for f in corpus for g in by_dom.get(f.codomain, ())]
    if kind == "common_domain":
        return [(f, g) for f in corpus for g in by_dom.get(f.domain, ())]
    assert kind == "triple"
    return [
        (f, g, h)
        for f in corpus
        for g in by_dom.get(f.domain, ())
        for h in by_dom.get(f.domain, ())
    ]


EXHAUSTIVE_LIMITS = {
    "finset-3": dict(category="finset", max_size=3),
    "finvect-gf2-2": dict(category="finvect", max_size=2, field="gf2"),
    "finvect-gf3-1": dict(category="finvect", max_size=1, field="gf3"),
    "finset_dual-2": dict(category="finset_dual", max_size=2),
    "finvect_dual-gf2-2": dict(category="finvect_dual", max_size=2, field="gf2"),
    "noisy_finset-2": dict(category="noisy_finset", max_size=2),
}

ONE_CHECK_PER_KIND = {kind: name for name, kind in CHECK_KINDS.items()}


class TestUnranking:
    @pytest.mark.parametrize("limits", EXHAUSTIVE_LIMITS.values(), ids=EXHAUSTIVE_LIMITS)
    def test_every_index_unranks_to_the_streamed_tuple(self, limits):
        engine = _Engine(AuditConfig(**limits), ())
        ops = category(limits["category"])
        field = limits.get("field")
        lim = Limits(limits["max_size"], field=parse_field(field) if field else None)
        for kind, name in sorted(ONE_CHECK_PER_KIND.items()):
            check = _CHECKS[name]
            stream = list(engine._exhaustive_stream(kind))
            assert stream == reference_stream(ops, lim, kind), kind
            assert len(stream) == engine._exhaustive_count(kind), kind
            assert stream, kind
            assert [engine._parts_at(check, i) for i in range(len(stream))] == stream, kind
            for outside in (-1, len(stream)):
                with pytest.raises(ReplayMismatch, match="outside"):
                    engine._parts_at(check, outside)


class TestFindings:
    def test_closed_form_gap_reported(self):
        config = AuditConfig(
            category=CategoryId.NOISY_FINSET,
            measures=("noisy_information",),
            mode="random",
            max_size=5,
            trials=25,
            seed=0,
        )
        report = audit_all(config)
        by_kind = {f["kind"]: f for f in report.findings}
        gap = by_kind["closed_form_ni_delta"]
        assert set(gap) == {"kind", "cases", "max_abs_delta", "example"}
        assert gap["cases"] == 25
        assert gap["max_abs_delta"] > 1.0
        assert set(gap["example"]) == {"morphism", "definitional", "closed_form", "delta"}

    def test_existence_rate_reported(self):
        config = AuditConfig(
            category=CategoryId.FINPROB,
            measures=(),
            mode="random",
            max_size=4,
            trials=200,
            seed=0,
        )
        report = audit_all(config)
        (finding,) = [f for f in report.findings if f["kind"] == "internal_product_existence"]
        assert finding["defined"] == report.checks_run["internal_product_existence"]
        assert finding["undefined"] == report.skipped_undefined["internal_product_existence"]
        assert finding["defined"] + finding["undefined"] == 200
        assert finding["rate"] == pytest.approx(finding["defined"] / 200)

    def test_no_closed_form_finding_outside_noisy(self):
        report = audit_all(finset_config())
        assert all(f["kind"] != "closed_form_ni_delta" for f in report.findings)
