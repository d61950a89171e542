"""Audit engine behaviour: configuration guards, exhaustive tuple
accounting, reproducibility, replay, and findings.

The tuple counts asserted here are derived inside the tests from a direct
enumeration of small function spaces, so the engine is checked against an
independent computation rather than against itself.
"""

import dataclasses
import importlib.util
import itertools
import sys
from pathlib import Path

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
from infocat.audit import (
    _CHECKS,
    ALL_CHECKS,
    AXIOM_CHECKS,
    EXTRA_CHECKS,
    PROPOSITION_CHECKS,
    Violation,
    _Engine,
)
from infocat.config import log_base
from infocat.core import UNDEFINED, category, is_undefined
from infocat.errors import (
    EnumerationBudgetExceeded,
    IndexOutOfRange,
    InvalidObject,
    ReplayMismatch,
)
from infocat.finset import FINSET, Limits, finset_morphism
from infocat.finvect import parse_field
from infocat.jsonio import dumps, morphism_to_json
from infocat.measures import get_measure, value_of

BENCH_RUN = Path(__file__).resolve().parents[1] / "bench" / "run.py"


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

    def test_check_lists_are_pinned(self):
        # ALL_CHECKS is the order of violations in a report.
        assert AXIOM_CHECKS == (
            "invariance",
            "external_additivity",
            "internal_strong_subadditivity",
            "data_processing",
            "section_iff",
            "destination_matching",
        )
        assert PROPOSITION_CHECKS == (
            "iso_well_defined",
            "source_matching",
            "internal_monotonicity",
            "internal_idempotence",
            "internal_subadditivity",
            "unit_product_identity",
            "zero_at_terminal",
            "projection_irrelevance",
            "terminal_structure",
            "projection_via_terminal",
        )
        assert EXTRA_CHECKS == ("internal_product_existence",)
        assert ALL_CHECKS == AXIOM_CHECKS + PROPOSITION_CHECKS + EXTRA_CHECKS
        assert tuple(_CHECKS) == ALL_CHECKS

    def test_benchmark_spells_out_the_same_checks(self, monkeypatch):
        # The benchmark's driver never imports infocat, so it repeats the
        # list; load it by path, with its sys.path entry and helper modules
        # dropped again afterwards.
        monkeypatch.setattr(sys, "path", list(sys.path))
        before = set(sys.modules)
        spec = importlib.util.spec_from_file_location("bench_run", BENCH_RUN)
        module = importlib.util.module_from_spec(spec)
        try:
            spec.loader.exec_module(module)
        finally:
            for name in set(sys.modules) - before:
                del sys.modules[name]
        assert module.CHECKS == ALL_CHECKS


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


class TestMeasureIndependence:
    """A measure's verdicts do not depend on the other measures audited
    beside it: an audit of several measures is the one-measure audits
    merged, its violations in check order, then trial order, then the
    config's measure order."""

    @staticmethod
    def assert_merged(config):
        report = audit_all(config)
        singles = [audit_all(dataclasses.replace(config, measures=(m,))) for m in config.measures]
        check_rank = {name: i for i, name in enumerate(ALL_CHECKS)}
        measure_rank = {name: i for i, name in enumerate(config.measures)}
        merged = sorted(
            (v for single in singles for v in single.violations if v.measure is not None),
            key=lambda v: (check_rank[v.check], v.trial_index, measure_rank[v.measure]),
        )
        assert [v for v in report.violations if v.measure is not None] == merged
        for name in report.checks_run:
            if _CHECKS[name].needs_measure:
                for counts, alone in (
                    (report.checks_run, [s.checks_run for s in singles]),
                    (report.skipped_undefined, [s.skipped_undefined for s in singles]),
                ):
                    assert counts[name] == sum(c[name] for c in alone), name
        return report

    def test_exhaustive(self, mutants):
        report = self.assert_merged(
            finset_config(measures=(*mutants, "shannon", "broken_constant"))
        )
        assert len(report.violations) == 451

    def test_random(self, mutants):
        config = AuditConfig(
            category=CategoryId.FINSET,
            measures=("shannon", "point0", "broken_source_size"),
            mode="random",
            max_size=4,
            trials=40,
            seed=3,
        )
        assert len(self.assert_merged(config).violations) == 448


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


ISS = "internal_strong_subadditivity"


def naive_strong_subadditivity(config):
    """(checks_run, skipped, violations) of strong subadditivity as nested
    loops over the corpus that rebuild every product and recompute every
    value for every (triple, measure), from the category ops and value_of."""
    ops = category(config.category)
    field = parse_field(config.field) if config.field else None
    corpus = list(ops.exhaustive_morphisms(Limits(config.max_size, field=field)))
    by_dom = {}
    for m in corpus:
        by_dom.setdefault(m.domain, []).append(m)
    measures = [get_measure(config.category, name) for name in config.measures]
    triples = [(f, g, h) for f in corpus for g in by_dom[f.domain] for h in by_dom[f.domain]]
    ran = skipped = 0
    violations = []
    with log_base(config.log_base):
        for trial_index, (f, g, h) in enumerate(triples):
            for measure in measures:
                fg, gh = ops.internal_product(f, g), ops.internal_product(g, h)
                fgh = UNDEFINED if is_undefined(fg) else ops.internal_product(fg, h)
                if any(is_undefined(m) for m in (fg, gh, fgh)):
                    skipped += 1
                    continue
                vfgh, vfg, vgh, vg = (value_of(measure, m) for m in (fgh, fg, gh, g))
                if any(is_undefined(v) for v in (vfgh, vfg, vgh, vg)):
                    skipped += 1
                    continue
                ran += 1
                bound = vfg + vgh - vg
                if vfgh > bound + config.tolerance + measure.slack:
                    violations.append(
                        Violation(
                            check=ISS,
                            measure=measure.name,
                            morphisms=tuple(morphism_to_json(m) for m in (f, g, h)),
                            lhs=vfgh,
                            rhs=bound,
                            delta=vfgh - bound,
                            seed=config.seed,
                            trial_index=trial_index,
                        )
                    )
    return ran, skipped, violations


class TestStrongSubadditivityMemo:
    """Exhaustive strong subadditivity builds each pair product once per
    check; its results must equal the naive per-triple recomputation."""

    def audit_against_reference(self, **kw):
        config = AuditConfig(mode="exhaustive", checks=(ISS,), **kw)
        report = audit_all(config)
        ran, skipped, violations = naive_strong_subadditivity(config)
        assert report.checks_run == {ISS: ran}
        assert report.skipped_undefined == {ISS: skipped}
        assert report.violations == violations
        for i, v in enumerate(report.violations):
            assert replay(report, i) == v
        return report

    def test_finset_matches_naive_recomputation(self, image_squared):
        report = self.audit_against_reference(
            category="finset", measures=(image_squared, "shannon"), max_size=3
        )
        assert report.checks_run[ISS] == 2 * 49_616
        assert report.violations
        assert {v.measure for v in report.violations} == {image_squared}
        f = finset_morphism((0, 1, 1), 2)
        g = finset_morphism((0, 0, 0), 1)
        h = finset_morphism((0, 0, 1), 2)
        witness = tuple(morphism_to_json(m) for m in (f, g, h))
        (found,) = [v for v in report.violations if v.morphisms == witness]
        assert (found.lhs, found.rhs, found.delta) == (9.0, 7.0, 2.0)

    def test_finvect_gf2_matches_naive_recomputation(self):
        report = self.audit_against_reference(
            category="finvect", measures=("rank",), max_size=2, field="gf2"
        )
        assert report.checks_run[ISS] > 0

    def test_each_pair_product_is_built_once(self, monkeypatch):
        # Sum over sources d of |G_d|^2, G_d the maps out of d, on finset
        # size <= 3: 6^2 + 14^2 + 36^2 distinct pairs against 49,616 triples.
        calls = []
        build = FINSET.internal_product
        monkeypatch.setattr(FINSET, "internal_product", lambda f, g: calls.append(1) or build(f, g))
        engine = _Engine(finset_config(max_size=3, measures=("shannon", "hartley")), (ISS,))
        engine.run()
        assert len(calls) == 49_616 + 1_528
        assert engine._pairs is None


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
