"""Draw order of the categories, and algebra of the four point-map ones.

finset, noisy_finset, finprob and noisy_finprob all build their systems
from the shared carrier-point arithmetic in infocat.pointmap; finvect and
the two duals draw their matrices and maps through finvect's and
finset's generators.  Seeded audits and the replay contract depend on
every generator making the same PRNG draws in the same order, so the
first half of this file pins the sha256 of the JSON of what the
generators produce at two seeds, and of the exhaustive enumeration
orders.  The second half states the algebra of the point-map categories
as hypothesis properties over seeded random morphisms.
"""

import hashlib
import json

import pytest
from hypothesis import given, settings, strategies as st

from infocat import CategoryId, category, is_undefined
from infocat.core import Limits
from infocat.finvect import parse_field
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


def stream(name, size=4, compatible=False):
    """(category, limits) of a pinned stream: a category id, or for the
    linear categories "<id>-<field>"."""
    cat, _, field = name.partition("-")
    return CategoryId(cat), Limits(
        size, field=parse_field(field) if field else None, measure_compatible=compatible
    )


def generated(name, seed):
    """random_object, random_morphism and random_morphism_from, DRAWS
    times over one stream."""
    cat_id, limits = stream(name)
    ops = category(cat_id)
    rng = SplitMix64(seed)
    out = []
    for _ in range(DRAWS):
        obj = ops.random_object(rng, limits)
        f = ops.random_morphism(rng, limits)
        g = ops.random_morphism_from(rng, f.codomain, limits)
        out.append([ops.object_to_json(obj), morphism_to_json(f), morphism_to_json(g)])
    return out


def isos(name, seed):
    """DRAWS random_iso_out witnesses, each out of a freshly drawn object."""
    cat_id, limits = stream(name)
    ops = category(cat_id)
    rng = SplitMix64(seed)
    out = []
    for _ in range(DRAWS):
        w = ops.random_iso_out(rng, ops.random_object(rng, limits))
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


def enumerated(name, size, compatible):
    cat_id, limits = stream(name, size, compatible)
    ops = category(cat_id)
    return [ops.object_to_json(o) for o in ops.exhaustive_objects(limits)] + [
        morphism_to_json(m) for m in ops.exhaustive_morphisms(limits)
    ]


# sha256 of the JSON above, recorded before the point-map categories were
# moved onto the shared point-map kernel, and before finvect's linear
# algebra was merged and finvect_dual derived from it.
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
    ("generated", "finvect-gf2", 0):
        "367412aaef6a777e09dbc8333e310098d48e6a3183307b8d1bbe6f5c33319267",
    ("generated", "finvect-gf2", 5):
        "2f36329cfe47f543e93eb849d26e218741dd35e6c5a0ce9a967d6f0068c51fea",
    ("generated", "finvect-gf3", 0):
        "e7b91c4706c356b1f906fc00891088a5c93a18eb9d3492f3b1bd2ac4ef0bb925",
    ("generated", "finvect-gf3", 5):
        "a1018b42907aa2f7c243bc9e19ef3728e4a32f4890a297a93f4168d7586fcc18",
    ("generated", "finvect-rational", 0):
        "a8c8d7724bc3fa38661f16c1207785da0e82c01b9c3374d11a8ac56db809090f",
    ("generated", "finvect-rational", 5):
        "58ade66046e792c33129f742636f789470ce6c75501e4f34abbe80df762d59a1",
    ("generated", "finvect_dual-gf2", 0):
        "ee008771a147a66825efeae508ed207787b1bf910ccb88abcbf2edcfd372bd23",
    ("generated", "finvect_dual-gf2", 5):
        "9d3ef5de9a45fa0c4ca9096bde04a7512e97fa63f3ddc25549e86f719c098546",
    ("generated", "finvect_dual-gf3", 0):
        "1df0e036fc00c9e9a1db31e7b8f1c19dabe16605f0e462ce2a8a40610e864b66",
    ("generated", "finvect_dual-gf3", 5):
        "1e9c93073495917929343b79e111826030523c55dfa741d76af0d81825bf58a8",
    ("generated", "finvect_dual-rational", 0):
        "75cab12838793e2a6122f3fea2e6ee0d67714b934c4b660b083a61a516b8f7ba",
    ("generated", "finvect_dual-rational", 5):
        "924935f4502670e88f9056c371029e0900cc24b005befcbbc5469b7754c4ea96",
    ("generated", "finset_dual", 0):
        "6e79a6fa55470f04d49ed3057dd0c0ece231c263e42555c27b340758a9385bcf",
    ("generated", "finset_dual", 5):
        "8511a317833b1bb6744a29217ce974bb12f176aca573cf7c79ff3fbf6dc94a67",
    ("isos", "finvect-gf2", 0):
        "0ad55be28b6d2102a27c71fbe66988f98247137fe689217359c9ac3c763c5631",
    ("isos", "finvect-gf2", 5):
        "a714b94ef35a618cc54f5ee8c72e38e87b7411399b351d488033e5fbcbc61775",
    ("isos", "finvect-gf3", 0):
        "badb49009a43eb25dd369044854e93b1a3872ffb7a1fe7fd3ba7cd6aa320a687",
    ("isos", "finvect-gf3", 5):
        "5c059e3b52cd35f400f12bf65a39137f887fe0217eb3e604353160c8b0e760a2",
    ("isos", "finvect-rational", 0):
        "a6e6bc05763ba70a6e0a563ecf06918955d6c8e1dfa23751968d41d10ac23c45",
    ("isos", "finvect-rational", 5):
        "ac3f04daa45914c0a2a4b99de3cdb6aa84a233d552fd8aae91a82fffca715b1c",
    ("isos", "finvect_dual-gf2", 0):
        "c7254006a0740ceaa0c5042229038f8c2bd83679eec6adf9c8cf819c590bb751",
    ("isos", "finvect_dual-gf2", 5):
        "0600cb60fda93ab349d101bcf7e68109573607b504f919d9fd5d974ad9b9190e",
    ("isos", "finvect_dual-gf3", 0):
        "7acc89d91907157cd86aae6daa4f598c3eb3dc25ed5ab8dfcb71288ebac0504e",
    ("isos", "finvect_dual-gf3", 5):
        "8ec0a9076bb6af195f5fcf4c21372cff7b48433f6af93bd44b2e6e65f0f882b0",
    ("isos", "finvect_dual-rational", 0):
        "c3c9f3759752ac7cd0d043f41cfb04977351a7dfca253ed01686e53bad783342",
    ("isos", "finvect_dual-rational", 5):
        "68249ee0f6762ffd46b8c8b95e0888b1badb5278941966480930cc41b12a7fa3",
    ("isos", "finset_dual", 0):
        "e7d38940e2d29fb1b9637c17804321af6aed608067e2258fac4e9aab0c534012",
    ("isos", "finset_dual", 5):
        "430bc9aebf30e7800eca6570b038db3633d05ce61c03a6fc6a2e8db52c89622e",
}
ENUMERATION_PINS = {
    ("finset", 3, False):
        "497266ccfa89a3716e6e05defb9ddc623fb01d983eba79c3e9dc5747e12e6460",
    ("noisy_finset", 2, False):
        "4ca4d9c6bbdac7fd0d708cc37bd135645e0d274995e84eb3681e1d9c75d86acd",
    ("noisy_finset", 3, True):
        "e6881039edb886cf5842648c73418f265dbaae97d8ee75c913704cc64141afdc",
    ("finvect-gf2", 2, False):
        "760ae82ba6b83229277cbaaeb9a68a92c8598cd045e21230b7a831376df4b7a0",
    ("finvect-gf3", 1, False):
        "3671ec930c94ced8c33d5ee302716a458128907bbcbfd25ae2d511eeb0536a96",
    ("finvect_dual-gf2", 2, False):
        "cddfcff0d9a4b05f5821512a57d98e52f5e73277a2f9d937f80462f63a551ee4",
    ("finset_dual", 2, False):
        "86baa40dfdf89c1e4912831bab28f7fbf9f95d2c627db347712014c3995e278f",
}


def current_digest(kind, name, seed):
    if kind == "generated":
        return digest(generated(name, seed))
    if kind == "isos":
        return digest(isos(name, seed))
    return digest(measure_compatible(seed))


class TestDrawOrderPins:
    @pytest.mark.parametrize("key", sorted(PINS), ids=lambda k: "-".join(map(str, k)))
    def test_seeded_draws(self, key):
        assert current_digest(*key) == PINS[key]

    @pytest.mark.parametrize(
        "key", sorted(ENUMERATION_PINS), ids=lambda k: "-".join(map(str, k))
    )
    def test_enumeration_order(self, key):
        assert digest(enumerated(*key)) == ENUMERATION_PINS[key]


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
