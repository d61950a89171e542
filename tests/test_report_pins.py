"""Golden reports: the sha256 of the report bytes of small audits.

A refactor of the engine, a category or a measure must leave every
report byte-identical: the same tuples in the same order, the same
verdicts, the same lhs, rhs and delta down to the last bit.  These pins
cover every category, exhaustive and random generation, the shipped
broken measures and the test-only mutants of conftest.py.  The
rank_squared mutant is the only source of finvect violations, so its
reports pin how finvect witnesses are written.

Capacity values come from a numpy Blahut-Arimoto solve whose run-time
kernel choice can change the last bits between machines, so capacity
audits are pinned by their census only.
"""

import hashlib
import json
from collections import Counter

import pytest

from infocat import AuditConfig, audit_all
from infocat.audit import AuditReport, replay
from infocat.jsonio import dumps

SHA256 = {
    "finset-2-laws": (
        dict(category="finset", measures=("shannon", "hartley", "afn(2,0.5)"), max_size=2),
        "418cf7c60f9b76c0b722c482205c5fa7abd9d52566404d8d388997a2f85c15da",
    ),
    "finset-2-broken": (
        dict(category="finset", measures=("broken_constant", "broken_source_size"), max_size=2),
        "2672a902337ab1c9b8db75e224c1e9ef1eb5642ee4760f922369ff1bad977047",
    ),
    "finset-2-mutants": (
        dict(category="finset", measures=("point0", "partial_label", "cod_size"), max_size=2),
        "565ea0dca7830e301355e4040ec12da7bc3d55e557160c508a3efa219f41571d",
    ),
    "finset-3-image-squared": (
        dict(
            category="finset",
            measures=("image_squared",),
            max_size=3,
            checks=("internal_monotonicity", "internal_subadditivity"),
        ),
        "b65d48f499309ec6e333c26e25880baabba560d3b25060846384d40c0c72026d",
    ),
    # The conjugation checks on finset <= 3, under measures that fail with
    # labels, one-sided values and exact forms (4,249 violations).
    "finset-3-mutants-conjugation": (
        dict(
            category="finset",
            measures=("point0", "partial_label", "cod_size"),
            max_size=3,
            checks=("invariance", "iso_well_defined"),
        ),
        "7f9af78f74d0a8de03c410e0258c29a78e201bb6987bb23e9009bc63a782aedf",
    ),
    # Strong subadditivity over the pair memo, one failing measure beside
    # one that holds (2,304 violations).
    "finset-3-strong-subadditivity": (
        dict(
            category="finset",
            measures=("image_squared", "shannon"),
            max_size=3,
            checks=("internal_strong_subadditivity",),
        ),
        "4aed406fba5a83803236f15b32908935142af0f8a71492d5463dcd1f45d1b70a",
    ),
    "finset-random": (
        dict(
            category="finset",
            measures=("shannon", "broken_source_size", "point0"),
            mode="random",
            max_size=4,
            trials=25,
            seed=5,
        ),
        "b070615e75218e370dd50f5a2ca6939c4fa5a36f93ca52a1218c1e4dfcedd77f",
    ),
    "noisy_finset-2": (
        dict(category="noisy_finset", measures=("noisy_information",), max_size=2),
        "1ff18eae9c3ad7c68ecc572ee85a370e2e6a3c3b654fcb197890842a6e2057ad",
    ),
    "noisy_finset-compatible": (
        dict(
            category="noisy_finset",
            measures=("noisy_information",),
            mode="measure_compatible",
            max_size=3,
        ),
        "90b85e97c5ce1d1941e35a759d7930af4313402c028a370b9103d2b1c4fa94e1",
    ),
    "noisy_finset-random": (
        dict(
            category="noisy_finset",
            measures=("noisy_information",),
            mode="random",
            max_size=3,
            trials=25,
        ),
        "c60ccd9ecb04ad5d6cf1f300cedebb3ed45e6b855d2a2a7ca37228d63381df82",
    ),
    "finprob-random": (
        dict(category="finprob", mode="random", max_size=3, trials=25),
        "49e1844bfaad9be921fc52029ea178d9ca898c0ab6d1118bb67424eaf21017bd",
    ),
    "noisy_finprob-random": (
        dict(
            category="noisy_finprob",
            measures=("continuous_noisy_information",),
            mode="random",
            max_size=3,
            trials=20,
            seed=5,
        ),
        "0f92007cfb45586524e37bb0c6b879e387c081a6752ebd077506e13782817d71",
    ),
    "finvect-gf2-1": (
        dict(category="finvect", measures=("rank",), field="gf2", max_size=1),
        "619236c52c1f9e7343f0bc1ce449c8f5bf0e18b0f61b861f9bd4d8acdece5b7b",
    ),
    "finvect-gf3-random": (
        dict(
            category="finvect",
            measures=("rank",),
            field="gf3",
            mode="random",
            max_size=3,
            trials=25,
        ),
        "1ae5cca6f7f3cf13c84b95a0549efefe03f065fcc1175fa571ddc121ab37ba2a",
    ),
    "finset_dual-2": (
        dict(category="finset_dual", measures=("image_cardinality",), max_size=2),
        "d667e25dcc87acbb6125d9a660bba2b8d2cbe2b4df52418c4808fecd5a319e14",
    ),
    "finvect_dual-gf2-1": (
        dict(category="finvect_dual", measures=("image_dimension",), field="gf2", max_size=1),
        "c05cf19c29a1a83309dba911e15cbe08c3db72b97b83932841524e592b2acb73",
    ),
    "finvect_dual-random": (
        dict(
            category="finvect_dual",
            measures=("image_dimension",),
            field="rational",
            mode="random",
            max_size=2,
            trials=25,
            seed=5,
        ),
        "57a2553f50e82837e229b0194330232d84d95028cefca01a8ffb2195bf9d9d92",
    ),
    # finvect witnesses: 12, 4 and 16 violations.
    "finvect-gf2-random-rank-squared": (
        dict(
            category="finvect",
            measures=("rank_squared",),
            field="gf2",
            mode="random",
            max_size=4,
            trials=25,
        ),
        "e80edb4c21067e344d832075eac1eeeae42d5586686a9f85ba084a6fe2ecf887",
    ),
    "finvect-gf3-1-rank-squared": (
        dict(category="finvect", measures=("rank_squared",), field="gf3", max_size=1),
        "3140e5fc8932ea5544953254429cd6dce5180116e00765fa24a745fbbecfeeea",
    ),
    "finvect_dual-gf2-random-rank-squared": (
        dict(
            category="finvect_dual",
            measures=("rank_squared",),
            field="gf2",
            mode="random",
            max_size=4,
            trials=25,
            seed=5,
        ),
        "40abd2fc95d8e423f6f0b152712de1ccdbc3b4c7b37b5414e834b80f482b7ba1",
    ),
}
WITNESS_PINS = sorted(name for name in SHA256 if name.endswith("rank-squared"))

# (config, violations per check/measure, evaluations, skips)
CENSUS = {
    "noisy_finset-capacity": (
        dict(category="noisy_finset", measures=("capacity",), max_size=2),
        {"data_processing/capacity": 16, "section_iff/capacity": 102},
        13_906,
        0,
    ),
    "noisy_finset-capacity-random": (
        dict(
            category="noisy_finset",
            measures=("capacity",),
            mode="random",
            max_size=3,
            trials=20,
        ),
        {"data_processing/capacity": 1, "section_iff/capacity": 2},
        320,
        0,
    ),
}


@pytest.mark.parametrize("name", sorted(SHA256))
def test_report_bytes(mutants, image_squared, rank_squared, name):
    config, digest = SHA256[name]
    report = audit_all(AuditConfig(**config))
    assert hashlib.sha256(dumps(report.to_json()).encode()).hexdigest() == digest


@pytest.mark.parametrize("name", WITNESS_PINS)
def test_finvect_witnesses_replay(rank_squared, name):
    report = audit_all(AuditConfig(**SHA256[name][0]))
    parsed = AuditReport.from_json(json.loads(dumps(report.to_json())))
    assert report.violations
    for index, violation in enumerate(report.violations):
        assert replay(report, index) == violation
        assert replay(parsed, index) == violation


@pytest.mark.parametrize("name", sorted(CENSUS))
def test_capacity_census(name):
    config, census, evaluated, skipped = CENSUS[name]
    report = audit_all(AuditConfig(**config))
    assert Counter(f"{v.check}/{v.measure}" for v in report.violations) == census
    assert sum(report.checks_run.values()) == evaluated
    assert sum(report.skipped_undefined.values()) == skipped
