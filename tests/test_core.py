"""Category registry, dispatch helpers, and the UNDEFINED sentinel."""

import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import infocat
from infocat import CategoryId, UNDEFINED, category, is_undefined, log_base
from infocat.core import UndefinedType
from infocat.errors import CategoryMismatch, ObjectMismatch, UnknownMeasure
from infocat.finset import FinSetObject, finset_morphism
from infocat.finvect import GF2, linear_morphism
from infocat.measures import get_measure, measure_names, value_of


class TestRegistry:
    def test_every_category_id_is_registered(self):
        for cid in CategoryId:
            ops = category(cid)
            assert ops.id is cid

    def test_lookup_by_string(self):
        assert category("finset") is category(CategoryId.FINSET)

    def test_unknown_category_string(self):
        with pytest.raises(ValueError):
            category("posets")


class TestUndefined:
    def test_singleton(self):
        assert UndefinedType() is UNDEFINED
        assert is_undefined(UNDEFINED)
        assert not is_undefined(0.0)
        assert repr(UNDEFINED) == "Undefined"


class TestDispatch:
    def test_compose_and_identity(self):
        f = finset_morphism((0, 1, 1), 2)
        g = finset_morphism((1, 0), 2)
        gf = infocat.compose(g, f)
        assert gf.mapping == (1, 0, 0)
        ident = infocat.identity("finset", FinSetObject(3))
        assert infocat.compose(f, ident) == f

    def test_compose_rejects_mismatched_objects(self):
        f = finset_morphism((0, 1), 3)
        g = finset_morphism((0, 0), 1)  # domain size 2, not 3
        with pytest.raises(ObjectMismatch):
            infocat.compose(g, f)

    def test_cross_category_compose_rejected(self):
        f = finset_morphism((0, 1), 2)
        g = linear_morphism(GF2, [[1, 0], [0, 1]])
        with pytest.raises(CategoryMismatch):
            infocat.compose(g, f)

    def test_terminal_and_unique_arrow(self):
        term = infocat.terminal_object("finset")
        assert term == FinSetObject(1)
        bang = infocat.unique_to_terminal("finset", FinSetObject(4))
        assert bang.codomain == term
        assert set(bang.mapping) == {0}

    def test_terminal_for_limits(self):
        from infocat.finvect import GF3, VectObject

        for cid in CategoryId:
            ops = category(cid)
            assert ops.terminal_for(infocat.Limits(2)) == ops.terminal_object()
        for cid in (CategoryId.FINVECT, CategoryId.FINVECT_DUAL):
            term = category(cid).terminal_for(infocat.Limits(2, field=GF3))
            assert term == VectObject(0, GF3)

    def test_products_round_trip_through_projections(self):
        ops = category("finset")
        a, b = FinSetObject(2), FinSetObject(3)
        prod, p1, p2 = ops.product_object(a, b)
        assert prod.size == 6
        # Projections jointly separate points.
        pairs = {(p1.mapping[i], p2.mapping[i]) for i in range(6)}
        assert len(pairs) == 6

    def test_internal_product_needs_common_source(self):
        f = finset_morphism((0, 1), 2)
        g = finset_morphism((0, 1, 2), 3)
        with pytest.raises(ObjectMismatch):
            infocat.internal_product(f, g)


def is_arrow_isomorphic(f, g):
    """Reference decision of f ~ g in the arrow category: the complete
    invariant where the category has one, else the witness search."""
    ops = category(f.category)
    inv = ops.iso_invariant(f)
    if inv is not None:
        return inv == ops.iso_invariant(g)
    return ops.arrow_iso(f, g) is not None


class TestArrowIso:
    def test_conjugate_maps_are_isomorphic(self):
        f = finset_morphism((0, 0, 1), 2)
        # Relabel both ends: same fiber structure, different raw mapping.
        g = finset_morphism((1, 0, 0), 2)
        w = infocat.category("finset").arrow_iso(f, g)
        assert w is not None
        assert is_arrow_isomorphic(f, g)

    def test_different_fiber_shape_is_not_isomorphic(self):
        f = finset_morphism((0, 0, 1), 2)
        g = finset_morphism((0, 1, 1), 3)
        assert not is_arrow_isomorphic(f, g)

    def test_witness_components_invert(self):
        ops = category("finset")
        f = finset_morphism((0, 1, 0, 2), 3)
        g = finset_morphism((2, 1, 2, 0), 3)
        w = ops.arrow_iso(f, g)
        assert w is not None
        assert ops.compose(w.alpha.backward, w.alpha.forward) == ops.identity(f.domain)
        # The square commutes: g . alpha = beta . f.
        left = ops.compose(g, w.alpha.forward)
        right = ops.compose(w.beta.forward, f)
        assert left == right


class TestMeasuresRegistry:
    def test_names_include_builtins(self):
        names = measure_names(CategoryId.FINSET)
        assert "shannon" in names and "hartley" in names

    def test_unknown_measure(self):
        with pytest.raises(UnknownMeasure):
            get_measure(CategoryId.FINSET, "does_not_exist")

    def test_undefined_value_on_empty_source(self):
        m = get_measure(CategoryId.FINSET, "shannon")
        empty = finset_morphism((), 1)
        assert is_undefined(value_of(m, empty))

    def test_factory_parses_arguments(self):
        m = get_measure(CategoryId.FINSET, "afn(2,1/2)")
        f = finset_morphism((0, 1, 1, 0), 2)
        assert value_of(m, f) == pytest.approx(2 * 1.0 + 0.5 * 1.0)


class TestLogBase:
    def test_nats_scale_everything(self):
        f = finset_morphism((0, 1), 2)
        m = get_measure(CategoryId.FINSET, "shannon")
        in_bits = value_of(m, f)
        with log_base("e"):
            in_nats = value_of(m, f)
        assert in_nats == pytest.approx(in_bits * math.log(2.0))

    def test_bad_base_rejected(self):
        with pytest.raises(ValueError):
            infocat.set_log_base("10")


class TestRuntimeChecks:
    def test_argument_checks_survive_optimize(self):
        # `python -O` strips assert statements; these checks must stay.
        code = (
            "from infocat.exact import _factor\n"
            "from infocat.prng import SplitMix64\n"
            "for call in (lambda: SplitMix64(0).randbelow(0), lambda: _factor(0)):\n"
            "    try:\n"
            "        call()\n"
            "    except ValueError:\n"
            "        print('raised')\n"
        )
        src = str(Path(infocat.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run(
            [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert out.stdout.split() == ["raised", "raised"]
