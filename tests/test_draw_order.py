"""Draw order and algebra of the four point-map categories.

finset, noisy_finset, finprob and noisy_finprob all build their systems
from the shared carrier-point arithmetic in infocat.pointmap.  Seeded
audits and the replay contract depend on every generator making the same
PRNG draws in the same order, so the first half of this file pins the
sha256 of the JSON of what the generators produce at two seeds, and of
the exhaustive enumeration orders.  The second half states the algebra
as hypothesis properties over seeded random morphisms.
"""

import hashlib
import json

import pytest
from hypothesis import given, settings, strategies as st

from infocat import CategoryId, category, is_undefined
from infocat.core import Limits
from infocat.jsonio import morphism_from_json, morphism_to_json
from infocat.prng import SplitMix64

POINT_MAP = (
    CategoryId.FINSET,
    CategoryId.NOISY_FINSET,
    CategoryId.FINPROB,
    CategoryId.NOISY_FINPROB,
)
LIMITS = Limits(4)
DRAWS = 50


def digest(payload) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def generated(cat_id, seed):
    """random_object, random_morphism and random_morphism_from, DRAWS
    times over one stream."""
    ops = category(cat_id)
    rng = SplitMix64(seed)
    out = []
    for _ in range(DRAWS):
        obj = ops.random_object(rng, LIMITS)
        f = ops.random_morphism(rng, LIMITS)
        g = ops.random_morphism_from(rng, f.codomain, LIMITS)
        out.append([ops.object_to_json(obj), morphism_to_json(f), morphism_to_json(g)])
    return out


def isos(cat_id, seed):
    """DRAWS random_iso_out witnesses, each out of a freshly drawn object."""
    ops = category(cat_id)
    rng = SplitMix64(seed)
    out = []
    for _ in range(DRAWS):
        w = ops.random_iso_out(rng, ops.random_object(rng, LIMITS))
        out.append([morphism_to_json(w.forward), morphism_to_json(w.backward)])
    return out


def measure_compatible(seed):
    ops = category(CategoryId.NOISY_FINSET)
    limits = Limits(4, measure_compatible=True)
    rng = SplitMix64(seed)
    out = []
    for _ in range(DRAWS):
        f = ops.random_morphism(rng, limits)
        out.append([morphism_to_json(f), morphism_to_json(ops.random_morphism_from(rng, f.codomain, limits))])
    return out


def enumerated(cat_id, limits):
    ops = category(cat_id)
    return [ops.object_to_json(o) for o in ops.exhaustive_objects(limits)] + [
        morphism_to_json(m) for m in ops.exhaustive_morphisms(limits)
    ]


# sha256 of the JSON above, recorded before the categories were moved
# onto the shared point-map kernel.
PINS = {
    ("generated", "finset", 0):
        "4a246983ea21b41c0ee2ba4788270dace967ca24960c0aebbb575d4c82e00a86",
    ("generated", "finset", 5):
        "9f711d53567741f603d8ac49edaf777cebee243b8bff6b6bbb52d8e11ad31943",
    ("generated", "noisy_finset", 0):
        "d7629929ceef7a8a840e8ad854f540ac3abadef16f982417b96ceacae20d9164",
    ("generated", "noisy_finset", 5):
        "77e3f7239b8052197ce97dfc1bacefd542ba53b0840e7315a42266fedfc84193",
    ("generated", "finprob", 0):
        "13f5ffcd69fdadec1e7f95786ccd1368899e12cd18dbb03d7ab273dd9eda498e",
    ("generated", "finprob", 5):
        "ce2bbfa47aba206e49c64e6dc0ea82788ee7074ebed457f3bf40f767a312d0b5",
    ("generated", "noisy_finprob", 0):
        "052efd63eaa5027be7a351b46c4d007b1a2479cffd42c8d923bb34cf10f9d49d",
    ("generated", "noisy_finprob", 5):
        "e916ea8292cff32937a2d7b46a533c6a00a0b90b915c247a04c1f2e1d8b1daf0",
    ("isos", "finset", 0):
        "5ca45118bd6232d28df2d3c167b9cb30456cc41ddd24954e866ebf6eb862188c",
    ("isos", "finset", 5):
        "fa13688ce95f61bdf2e870bfad82513adba0ad80c56fa5f699646b6f21deb3c7",
    ("isos", "noisy_finset", 0):
        "063b79552c608c2b4a6f08c4d54c44325a72089bece78bc9941cc58a4dc0b381",
    ("isos", "noisy_finset", 5):
        "60c44e5df251aa17473d41c80a25d3f2653fce240de3f807a6be2854dacfc76f",
    ("isos", "finprob", 0):
        "1bc6f56ea123e51087558c7ba5738a2cd3ba383891eb77cf63212f6b1e293623",
    ("isos", "finprob", 5):
        "2828d30874d8eb3ea0f6fc00d2a4ac24c53d40378100b9cf8ab6810dbd579d98",
    ("isos", "noisy_finprob", 0):
        "2408dc3acaa8953166dd620105cf16321a535bb866d42a34af03019092d8366c",
    ("isos", "noisy_finprob", 5):
        "d9d224e40dbcf6637d99239b26436e37f5a4bfb04336f2c0df6ad6c4bba437b1",
    ("measure_compatible", "noisy_finset", 0):
        "ffc4e7add96b2e3d68076c79d6c0f913c38b17321c683e8379b3218ca1505b2e",
    ("measure_compatible", "noisy_finset", 5):
        "bb0deda6188be0de91e4f9e06caf7c779e8936ebeda47c615b5b55f6262c54a0",
}
ENUMERATION_PINS = {
    ("finset", 3, False):
        "497266ccfa89a3716e6e05defb9ddc623fb01d983eba79c3e9dc5747e12e6460",
    ("noisy_finset", 2, False):
        "4ca4d9c6bbdac7fd0d708cc37bd135645e0d274995e84eb3681e1d9c75d86acd",
    ("noisy_finset", 3, True):
        "e6881039edb886cf5842648c73418f265dbaae97d8ee75c913704cc64141afdc",
}


def current_digest(kind, cat, seed):
    if kind == "generated":
        return digest(generated(CategoryId(cat), seed))
    if kind == "isos":
        return digest(isos(CategoryId(cat), seed))
    return digest(measure_compatible(seed))


class TestDrawOrderPins:
    @pytest.mark.parametrize("key", sorted(PINS), ids=lambda k: "-".join(map(str, k)))
    def test_seeded_draws(self, key):
        assert current_digest(*key) == PINS[key]

    @pytest.mark.parametrize(
        "key", sorted(ENUMERATION_PINS), ids=lambda k: "-".join(map(str, k))
    )
    def test_enumeration_order(self, key):
        cat, size, compatible = key
        limits = Limits(size, measure_compatible=compatible)
        assert digest(enumerated(CategoryId(cat), limits)) == ENUMERATION_PINS[key]


# -- algebra ----------------------------------------------------------
PROPERTY = settings(max_examples=60, deadline=None, database=None, derandomize=True)
SEEDS = st.integers(0, 2**64 - 1)
CATEGORIES = pytest.mark.parametrize("cat_id", POINT_MAP, ids=lambda c: c.value)


class TestAlgebra:
    @CATEGORIES
    @PROPERTY
    @given(seed=SEEDS)
    def test_json_round_trip(self, cat_id, seed):
        f = category(cat_id).random_morphism(SplitMix64(seed), LIMITS)
        assert morphism_from_json(json.loads(json.dumps(morphism_to_json(f)))) == f

    @CATEGORIES
    @PROPERTY
    @given(seed=SEEDS)
    def test_identity_is_neutral(self, cat_id, seed):
        ops = category(cat_id)
        f = ops.random_morphism(SplitMix64(seed), LIMITS)
        assert ops.compose(f, ops.identity(f.domain)) == f
        assert ops.compose(ops.identity(f.codomain), f) == f

    @CATEGORIES
    @PROPERTY
    @given(seed=SEEDS)
    def test_random_iso_out_inverts(self, cat_id, seed):
        ops = category(cat_id)
        rng = SplitMix64(seed)
        obj = ops.random_object(rng, LIMITS)
        w = ops.random_iso_out(rng, obj)
        assert ops.compose(w.backward, w.forward) == ops.identity(obj)
        assert ops.compose(w.forward, w.backward) == ops.identity(w.forward.codomain)

    @CATEGORIES
    @PROPERTY
    @given(seed=SEEDS)
    def test_projections_recover_internal_product_legs(self, cat_id, seed):
        ops = category(cat_id)
        rng = SplitMix64(seed)
        f = ops.random_morphism(rng, LIMITS)
        # The pairing with the map to the terminal object always exists.
        for g in (ops.random_morphism_from(rng, f.domain, LIMITS), ops.unique_to_terminal(f.domain)):
            pair = ops.internal_product(f, g)
            if is_undefined(pair):
                continue
            prod, p1, p2 = ops.product_object(f.codomain, g.codomain)
            assert pair.codomain == prod
            assert ops.compose(p1, pair) == f
            assert ops.compose(p2, pair) == g
