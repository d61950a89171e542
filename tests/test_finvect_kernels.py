"""finvect's two row forms against entry-by-entry references.

GF(2) matrices are stored as one bitmask int per row and every other
field as tuple rows; both must give, on every matrix up to 4 x 4 and
through zero-dimensional spaces, what the definitions give on the
entries.  The references compute on entries with FieldSpec's scalar
methods, and the elimination references come from
test_finvect_reference.py.  A morphism built by an operation must also
equal, and hash like, the morphism decoded from its own JSON and the one
rebuilt from its entries.
"""

import json

from hypothesis import given, settings, strategies as st

from infocat import CategoryId, category
from infocat.dual import DualMorphism
from infocat.finvect import (
    GF2,
    LinearMorphism,
    VectObject,
    case_split,
    rank,
    section_exists_linear,
    transpose,
)
from infocat.jsonio import morphism_from_json, morphism_to_json
from test_finvect_reference import FIELDS, ref_dual_section_exists, ref_inverse, ref_rank, scalars

OPS = category(CategoryId.FINVECT)
VDUAL = category(CategoryId.FINVECT_DUAL)
PROPERTY = settings(max_examples=300, deadline=None, database=None, derandomize=True)
DIMS = st.integers(0, 4)


# -- references, entry by entry ------------------------------------------
def ref_matmul(field, a, b, n_cols):
    return tuple(
        tuple(
            _sum(field, (field.mul(a[i][k], b[k][j]) for k in range(len(b))))
            for j in range(n_cols)
        )
        for i in range(len(a))
    )


def _sum(field, terms):
    acc = field.zero()
    for t in terms:
        acc = field.add(acc, t)
    return acc


def ref_block_diagonal(field, f, g):
    zero = field.zero()
    fc, gc = f.domain.dim, g.domain.dim
    return tuple(row + (zero,) * gc for row in f.entries) + tuple(
        (zero,) * fc + row for row in g.entries
    )


def ref_transpose(m):
    return tuple(tuple(m.entries[i][j] for i in range(m.codomain.dim)) for j in range(m.domain.dim))


def ref_coslice_iso(p, q):
    if p.codomain != q.codomain:
        return False
    rp = ref_rank(p.field, [list(r) for r in p.entries])
    rq = ref_rank(q.field, [list(r) for r in q.entries])
    stacked = ref_rank(p.field, [list(r) for r in p.entries + q.entries])
    return rp == rq == stacked


# -- strategies -----------------------------------------------------------
def entries(draw, field, n_rows, n_cols):
    return tuple(
        tuple(draw(st.lists(scalars(field), min_size=n_cols, max_size=n_cols)))
        for _ in range(n_rows)
    )


@st.composite
def chains(draw, length):
    """length morphisms over one field, each composable after the one
    before: a chain of spaces d_0 -> d_1 -> ... -> d_length."""
    field = draw(st.sampled_from(FIELDS))
    spaces = [VectObject(draw(DIMS), field) for _ in range(length + 1)]
    return [
        LinearMorphism(dom, cod, entries(draw, field, cod.dim, dom.dim))
        for dom, cod in zip(spaces, spaces[1:])
    ]


@st.composite
def pairs(draw, shared):
    """Two morphisms over one field sharing their source (shared="domain")
    or their target (shared="codomain"), or unrelated (shared=None)."""
    field = draw(st.sampled_from(FIELDS))
    spaces = [VectObject(draw(DIMS), field) for _ in range(4)]
    if shared == "domain":
        spaces[2] = spaces[0]
    elif shared == "codomain":
        spaces[3] = spaces[1]
    return tuple(
        LinearMorphism(dom, cod, entries(draw, field, cod.dim, dom.dim))
        for dom, cod in (spaces[:2], spaces[2:])
    )


@st.composite
def squares(draw):
    field = draw(st.sampled_from(FIELDS))
    space = VectObject(draw(DIMS), field)
    rows = entries(draw, field, space.dim, space.dim)
    # Invertible matrices are rare at random over small fields; a unit
    # triangular one is invertible by construction.
    if draw(st.booleans()):
        rows = tuple(
            tuple(field.one() if i == j else (v if j > i else field.zero()) for j, v in enumerate(row))
            for i, row in enumerate(rows)
        )
    return LinearMorphism(space, space, rows)


def assert_round_trips(m):
    """m equals, and hashes like, its JSON decoding and its rebuild from
    entries."""
    decoded = morphism_from_json(json.loads(json.dumps(morphism_to_json(m))))
    rebuilt = LinearMorphism(m.domain, m.codomain, m.entries)
    for other in (decoded, rebuilt):
        assert other == m
        assert hash(other) == hash(m)
        assert other.entries == m.entries


# -- properties -------------------------------------------------------------
class TestOperationsAgainstReferences:
    @PROPERTY
    @given(chain=chains(2))
    def test_compose(self, chain):
        f, g = chain
        gf = OPS.compose(g, f)
        assert (gf.domain, gf.codomain) == (f.domain, g.codomain)
        assert gf.entries == ref_matmul(f.field, g.entries, f.entries, f.domain.dim)
        assert_round_trips(gf)

    @PROPERTY
    @given(pair=pairs(None))
    def test_external_product(self, pair):
        f, g = pair
        p = OPS.external_product(f, g)
        assert p.entries == ref_block_diagonal(f.field, f, g)
        assert (p.domain.dim, p.codomain.dim) == (
            f.domain.dim + g.domain.dim,
            f.codomain.dim + g.codomain.dim,
        )
        assert_round_trips(p)

    @PROPERTY
    @given(pair=pairs("domain"))
    def test_internal_product(self, pair):
        f, g = pair
        p = OPS.internal_product(f, g)
        assert p.domain == f.domain
        assert p.entries == f.entries + g.entries
        assert_round_trips(p)

    @PROPERTY
    @given(pair=pairs("codomain"))
    def test_case_split(self, pair):
        f, g = pair
        for split in (case_split(f, g), VDUAL.internal_product(DualMorphism(f), DualMorphism(g)).inner):
            assert split.codomain == f.codomain
            assert split.domain.dim == f.domain.dim + g.domain.dim
            assert split.entries == tuple(a + b for a, b in zip(f.entries, g.entries))
            assert_round_trips(split)

    @PROPERTY
    @given(chain=chains(1))
    def test_transpose_and_rank(self, chain):
        (m,) = chain
        t = transpose(m)
        assert (t.domain, t.codomain) == (m.codomain, m.domain)
        assert t.entries == ref_transpose(m)
        assert rank(m) == rank(t) == ref_rank(m.field, [list(r) for r in m.entries])
        assert_round_trips(t)

    @PROPERTY
    @given(m=squares())
    def test_inverse(self, m):
        expected = ref_inverse(m.field, m.entries)
        inverse = m.field.kernel.inverse(m.rows)
        if expected is None:
            assert inverse is None
            return
        back = LinearMorphism(m.codomain, m.domain, expected)
        assert inverse == back.rows
        assert OPS.compose(back, m) == OPS.identity(m.domain)

    @PROPERTY
    @given(chain=chains(2))
    def test_section_exists(self, chain):
        f, g = chain
        field = f.field
        gf = ref_matmul(field, g.entries, f.entries, f.domain.dim)
        expected = ref_rank(field, [list(r) for r in gf]) == ref_rank(
            field, [list(r) for r in f.entries]
        )
        assert section_exists_linear(f, g) == expected
        assert OPS.section_exists(f, g) == expected
        # The dual reads a composable pair the other way round.
        dual_f, dual_g = DualMorphism(g), DualMorphism(f)
        assert VDUAL.section_exists(dual_f, dual_g) == ref_dual_section_exists(dual_f, dual_g)

    @PROPERTY
    @given(pair=pairs("domain"))
    def test_coslice_iso(self, pair):
        p, q = pair
        assert OPS.coslice_iso(p, q) == ref_coslice_iso(p, q)
        assert OPS.coslice_iso(p, p)


class TestBuiltMorphisms:
    @PROPERTY
    @given(pair=pairs(None))
    def test_identities_and_projections(self, pair):
        f, g = pair
        a, b = f.domain, g.domain
        prod, p1, p2 = OPS.product_object(a, b)
        one, zero = a.field.one(), a.field.zero()
        unit = lambda n, c: tuple(one if j == c else zero for j in range(n))  # noqa: E731
        assert p1.entries == tuple(unit(prod.dim, c) for c in range(a.dim))
        assert p2.entries == tuple(unit(prod.dim, c) for c in range(a.dim, prod.dim))
        assert OPS.identity(a).entries == tuple(unit(a.dim, c) for c in range(a.dim))
        for m in (p1, p2, OPS.identity(a), OPS.unique_to_terminal(a), transpose(p1)):
            assert_round_trips(m)

    def test_gf2_rows_are_bitmasks_with_column_j_at_bit_j(self):
        m = LinearMorphism(VectObject(3, GF2), VectObject(2, GF2), ((1, 1, 0), (0, 0, 1)))
        assert m.rows == (0b011, 0b100)
        assert m.entries == ((1, 1, 0), (0, 0, 1))
        assert transpose(m).rows == (0b01, 0b01, 0b10)
