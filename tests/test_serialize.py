"""JSON envelopes: round trips for every category, canonical dumps, and
the report schema guard."""

import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from infocat import AuditConfig, AuditReport, CategoryId, Channel, audit_all
from infocat.dual import DualMorphism
from infocat.errors import ReplayMismatch
from infocat.finprob import FinProbMorphism, FinProbObject
from infocat.finset import finset_morphism
from infocat.finvect import GF3, RATIONAL, linear_morphism
from infocat.jsonio import (
    channel_from_json,
    dumps,
    morphism_from_json,
    morphism_to_json,
)
from infocat.noisy import NoisyMorphism, NoisyObject


def round_trip(m):
    data = morphism_to_json(m)
    # Everything must survive a real serialize/parse cycle, not just a
    # dict copy.
    return morphism_from_json(json.loads(json.dumps(data)))


class TestMorphismEnvelopes:
    def test_envelope_keys(self):
        data = morphism_to_json(finset_morphism((0, 1), 2))
        assert set(data) == {"category", "domain", "codomain", "payload"}
        assert data["category"] == "finset"

    def test_finset(self):
        f = finset_morphism((0, 2, 2, 1), 3)
        assert round_trip(f) == f

    def test_finvect_prime_field(self):
        f = linear_morphism(GF3, [[1, 2], [0, 1]])
        assert round_trip(f) == f

    def test_finvect_rational(self):
        f = linear_morphism(RATIONAL, [[Fraction(1, 2), Fraction(-3, 4)]])
        assert round_trip(f) == f

    def test_noisy(self):
        dom = NoisyObject(4, 2, (0, 1, 0, 1))
        cod = NoisyObject(2, 2, (0, 1))
        f = NoisyMorphism(dom, cod, (1, 0, 0, 1))
        assert round_trip(f) == f

    def test_finprob_exact_weights(self):
        x = FinProbObject(3, (Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)))
        y = FinProbObject(2, (Fraction(1, 2), Fraction(1, 2)))
        f = FinProbMorphism(x, y, (0, 1, 1))
        back = round_trip(f)
        assert back == f
        assert isinstance(back.domain.weights[0], Fraction)

    def test_duals_both_kinds(self):
        sf = DualMorphism(finset_morphism((0, 0, 1), 2))
        vf = DualMorphism(linear_morphism(GF3, [[2, 1]]))
        assert round_trip(sf) == sf
        assert round_trip(vf) == vf

    def test_unknown_category_rejected(self):
        data = morphism_to_json(finset_morphism((0,), 1))
        data["category"] = "groupoid"
        with pytest.raises(ValueError):
            morphism_from_json(data)


class TestChannel:
    def test_round_trip(self):
        ch = Channel(((0.25, 0.75), (0.5, 0.5)))
        data = {"matrix": [list(row) for row in ch.matrix]}
        assert channel_from_json(json.loads(json.dumps(data))) == ch

    def test_invalid_matrix_still_validated(self):
        from infocat.errors import InvalidChannel

        with pytest.raises(InvalidChannel):
            channel_from_json({"matrix": [[0.5, 0.6]]})


def reference_dumps(payload):
    return json.dumps(payload, sort_keys=True, indent=2)


# Control characters and non-ASCII text in both keys and values.
TEXT = st.text(st.characters(max_codepoint=0x7FF)) | st.text()
SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**200), max_value=2**200)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.sampled_from([-0.0, 0.0, float("nan"), float("inf"), float("-inf")])
    | TEXT
)
TREES = st.recursive(
    SCALARS,
    lambda children: (
        st.lists(children, max_size=4)
        | st.lists(children, max_size=4).map(tuple)
        | st.dictionaries(TEXT, children, max_size=4)
    ),
    max_leaves=30,
)
CONTAINERS = st.one_of(
    st.lists(TREES, min_size=1, max_size=3),
    st.dictionaries(TEXT, TREES, min_size=1, max_size=3),
)


def with_shared_subtree(tree, shared):
    # Keys are written in sorted order: three meetings at depth 2, so its
    # text is kept and then reused, then one at depth 1, where that text
    # has the wrong indentation.
    return {"a": tree, "b": [shared, shared, shared], "c": shared}


PROPERTY = settings(max_examples=200, deadline=None, database=None, derandomize=True)


class TestDumps:
    @PROPERTY
    @given(TREES)
    def test_same_bytes_as_json(self, payload):
        assert dumps(payload) == reference_dumps(payload)

    @PROPERTY
    @given(TREES, CONTAINERS)
    def test_shared_subtrees_match_json(self, tree, shared):
        payload = with_shared_subtree(tree, shared)
        assert dumps(payload) == reference_dumps(payload)

    def test_numpy_float_is_written_as_a_float(self):
        payload = {"x": np.float64(0.1), "y": [np.float64("nan")]}
        assert dumps(payload) == reference_dumps(payload)
        assert '"x": 0.1' in dumps(payload)

    @pytest.mark.parametrize(
        "payload", [object(), np.int64(1), {"a": [np.int64(1)]}], ids=["object", "int64", "nested"]
    )
    def test_unsupported_type_is_type_error(self, payload):
        with pytest.raises(TypeError, match="not JSON serializable"):
            dumps(payload)

    @pytest.mark.parametrize("key", [1, None, ("a",)])
    def test_non_str_key_is_type_error(self, key):
        with pytest.raises(TypeError, match="keys must be str"):
            dumps({"a": {key: 1}})

    def test_key_order_is_canonical(self):
        a = dumps({"b": 1, "a": [3, 2]})
        b = dumps({"a": [3, 2], "b": 1})
        assert a == b
        assert a.index('"a"') < a.index('"b"')

    def test_stable_formatting(self):
        # Two-space indentation, no trailing whitespace.
        text = dumps({"x": {"y": 1}})
        assert '\n  "x"' in text
        assert not any(line != line.rstrip() for line in text.splitlines())


class TestReportRoundTrip:
    def make_report(self):
        config = AuditConfig(
            category=CategoryId.FINSET,
            measures=("shannon", "broken_constant"),
            mode="exhaustive",
            max_size=2,
        )
        return audit_all(config)

    def test_full_cycle_preserves_bytes(self):
        report = self.make_report()
        text = dumps(report.to_json())
        back = AuditReport.from_json(json.loads(text))
        assert dumps(back.to_json()) == text
        assert back.config == report.config
        assert back.violations == report.violations

    def test_schema_guard(self):
        report = self.make_report()
        data = report.to_json()
        data["schema"] = "infocat-report/9"
        with pytest.raises(ReplayMismatch):
            AuditReport.from_json(data)

    def test_violations_serialize_morphisms(self):
        report = self.make_report()
        assert report.violations  # broken_constant guarantees some
        v = report.violations[0].to_json()
        assert {"check", "measure", "morphisms", "lhs", "rhs", "delta", "seed", "trial_index"} == set(v)
        for part in v["morphisms"]:
            assert "category" in part
