"""finvect's shared linear algebra against the routines it replaced.

finvect once ran Gauss-Jordan elimination three times over (rank,
inverse and the row phase of the Smith-like form), and finvect_dual kept
its own column-space tests and coproduct injections.  Those routines are
kept here, as they were, as references: the merged elimination must give
the same rank, inverse and S, T on every matrix, and the dual's tests,
now finvect's read through the transpose, must give the same answers on
every pair of small exhaustive corpora.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from infocat import CategoryId, category
from infocat.audit import AuditConfig, audit_all
from infocat.core import Limits
from infocat.dual import DualMorphism
from infocat.errors import EnumerationBudgetExceeded
from infocat.finvect import (
    GF2,
    GF3,
    RATIONAL,
    LinearMorphism,
    VectObject,
    _inverse,
    _matmul,
    _rank,
    _smith_like,
    gf,
    rank,
    transpose,
)

VDUAL = category(CategoryId.FINVECT_DUAL)


# -- references ---------------------------------------------------------
def ref_identity_rows(field, n):
    one, zero = field.one(), field.zero()
    return tuple(tuple(one if i == j else zero for j in range(n)) for i in range(n))


def ref_rank(field, rows):
    rank = 0
    n_rows = len(rows)
    n_cols = len(rows[0]) if rows else 0
    for col in range(n_cols):
        pivot = next((i for i in range(rank, n_rows) if rows[i][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = field.div(field.one(), rows[rank][col])
        rows[rank] = [field.mul(inv, v) for v in rows[rank]]
        for i in range(n_rows):
            if i != rank and rows[i][col] != 0:
                factor = rows[i][col]
                rows[i] = [field.sub(v, field.mul(factor, w)) for v, w in zip(rows[i], rows[rank])]
        rank += 1
        if rank == n_rows:
            break
    return rank


def ref_inverse(field, rows):
    n = len(rows)
    work = [list(r) + list(ident) for r, ident in zip(rows, ref_identity_rows(field, n))]
    r = 0
    for col in range(n):
        pivot = next((i for i in range(r, n) if work[i][col] != 0), None)
        if pivot is None:
            return None
        work[r], work[pivot] = work[pivot], work[r]
        inv = field.div(field.one(), work[r][col])
        work[r] = [field.mul(inv, v) for v in work[r]]
        for i in range(n):
            if i != r and work[i][col] != 0:
                factor = work[i][col]
                work[i] = [field.sub(v, field.mul(factor, w)) for v, w in zip(work[i], work[r])]
        r += 1
    return tuple(tuple(row[n:]) for row in work)


def ref_smith_like(field, m):
    n_rows, n_cols = m.codomain.dim, m.domain.dim
    a = [list(r) for r in m.entries]
    s = [list(r) for r in ref_identity_rows(field, n_rows)]
    t = [list(r) for r in ref_identity_rows(field, n_cols)]
    r = 0
    for col in range(n_cols):
        pivot = next((i for i in range(r, n_rows) if a[i][col] != 0), None)
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        s[r], s[pivot] = s[pivot], s[r]
        inv = field.div(field.one(), a[r][col])
        a[r] = [field.mul(inv, v) for v in a[r]]
        s[r] = [field.mul(inv, v) for v in s[r]]
        for i in range(n_rows):
            if i != r and a[i][col] != 0:
                factor = a[i][col]
                a[i] = [field.sub(v, field.mul(factor, w)) for v, w in zip(a[i], a[r])]
                s[i] = [field.sub(v, field.mul(factor, w)) for v, w in zip(s[i], s[r])]
        r += 1
    pivot_cols = []
    for i in range(r):
        pivot_cols.append(next(j for j in range(n_cols) if a[i][j] != 0))
    for i, pc in enumerate(pivot_cols):
        for j in range(n_cols):
            if j != pc and a[i][j] != 0:
                factor = a[i][j]
                for k in range(n_rows):
                    a[k][j] = field.sub(a[k][j], field.mul(factor, a[k][pc]))
                for k in range(n_cols):
                    t[k][j] = field.sub(t[k][j], field.mul(factor, t[k][pc]))
    order = pivot_cols + [j for j in range(n_cols) if j not in pivot_cols]
    t = [[row[j] for j in order] for row in t]
    return tuple(tuple(row) for row in s), tuple(tuple(row) for row in t)


def ref_dual_product_object(x, y):
    field = x.field
    prod = VectObject(x.dim + y.dim, field)
    zero, one = field.zero(), field.one()
    inj1 = LinearMorphism(
        x, prod,
        tuple(tuple(one if j == i else zero for j in range(x.dim)) for i in range(prod.dim)),
    )
    inj2 = LinearMorphism(
        y, prod,
        tuple(tuple(one if j == i - x.dim else zero for j in range(y.dim)) for i in range(prod.dim)),
    )
    return prod, DualMorphism(inj1), DualMorphism(inj2)


def ref_dual_coslice_iso(p, q):
    if p.codomain.dim != q.codomain.dim:
        return False
    rp = rank(p.inner)
    if rank(q.inner) != rp:
        return False
    concat = tuple(row_p + row_q for row_p, row_q in zip(p.inner.entries, q.inner.entries))
    return ref_rank(p.inner.field, [list(r) for r in concat]) == rp


def ref_dual_section_exists(f, g):
    fg = VDUAL.base.compose(f.inner, g.inner)
    concat = tuple(row_c + row_f for row_c, row_f in zip(fg.entries, f.inner.entries))
    return ref_rank(fg.field, [list(r) for r in concat]) == rank(fg)


# -- hypothesis-drawn matrices -------------------------------------------
FIELDS = (GF2, GF3, gf(5), RATIONAL)
PROPERTY = settings(max_examples=300, deadline=None, database=None, derandomize=True)


def scalars(field):
    if field.char:
        return st.integers(0, field.char - 1)
    # Small numerators with many zeros, so singular matrices come up often.
    return st.builds(Fraction, st.integers(-2, 2), st.integers(1, 3))


@st.composite
def matrices(draw, square=False):
    field = draw(st.sampled_from(FIELDS))
    n_rows = draw(st.integers(0, 4))
    n_cols = n_rows if square else draw(st.integers(0, 4))
    rows = draw(
        st.lists(
            st.lists(scalars(field), min_size=n_cols, max_size=n_cols),
            min_size=n_rows, max_size=n_rows,
        )
    )
    entries = tuple(tuple(r) for r in rows)
    return LinearMorphism(VectObject(n_cols, field), VectObject(n_rows, field), entries)


class TestEliminationAgainstReferences:
    @PROPERTY
    @given(m=matrices())
    def test_rank(self, m):
        expected = ref_rank(m.field, [list(r) for r in m.entries])
        assert _rank(m.field, [list(r) for r in m.entries]) == expected
        assert rank(m) == expected

    @PROPERTY
    @given(m=matrices(square=True))
    def test_inverse(self, m):
        expected = ref_inverse(m.field, m.entries)
        assert _inverse(m.field, m.entries) == expected
        if expected is not None:
            assert _matmul(m.field, m.entries, expected, m.domain.dim) == ref_identity_rows(
                m.field, m.domain.dim
            )

    @PROPERTY
    @given(m=matrices())
    def test_smith_like(self, m):
        assert _smith_like(m.field, m) == ref_smith_like(m.field, m)

    @PROPERTY
    @given(m=matrices())
    def test_transpose_is_an_involution(self, m):
        t = transpose(m)
        assert (t.domain, t.codomain) == (m.codomain, m.domain)
        assert rank(t) == rank(m)
        assert transpose(t) == m

    def test_zero_sized_shapes(self):
        for n in range(3):
            wide = LinearMorphism(VectObject(n, GF3), VectObject(0, GF3), ())
            tall = transpose(wide)
            assert tall.entries == ((),) * n
            for m in (wide, tall):
                assert _rank(GF3, [list(r) for r in m.entries]) == 0
                assert _smith_like(GF3, m) == ref_smith_like(GF3, m)
        assert _inverse(GF3, ()) == ref_inverse(GF3, ()) == ()


# -- the dual through the transpose --------------------------------------
@pytest.mark.parametrize("field, size", [(GF2, 2), (GF3, 1)], ids=["gf2-2", "gf3-1"])
class TestDualAgainstReferences:
    def test_coslice_iso_and_section_exists(self, field, size):
        corpus = list(VDUAL.exhaustive_morphisms(Limits(size, field=field)))
        coslice = sections = 0
        for p in corpus:
            for q in corpus:
                if p.domain == q.domain:
                    assert VDUAL.coslice_iso(p, q) == ref_dual_coslice_iso(p, q)
                    coslice += 1
                if p.codomain == q.domain:
                    assert VDUAL.section_exists(p, q) == ref_dual_section_exists(p, q)
                    sections += 1
        assert coslice and sections

    def test_product_object_and_terminal(self, field, size):
        objects = list(VDUAL.exhaustive_objects(Limits(size, field=field)))
        for x in objects:
            for y in objects:
                assert VDUAL.product_object(x, y) == ref_dual_product_object(x, y)
            bang = VDUAL.unique_to_terminal(x)
            assert bang == DualMorphism(LinearMorphism(VectObject(0, field), x, ((),) * x.dim))
        assert VDUAL.terminal_for(Limits(size, field=field)) == VectObject(0, field)


class TestRationalEnumeration:
    @pytest.mark.parametrize("cat_id", [CategoryId.FINVECT, CategoryId.FINVECT_DUAL])
    def test_enumeration_budget_exceeded(self, cat_id):
        limits = Limits(1, field=RATIONAL)
        with pytest.raises(EnumerationBudgetExceeded, match="rational matrices cannot be enumerated"):
            list(category(cat_id).exhaustive_morphisms(limits))
        config = AuditConfig(
            category=cat_id, mode="exhaustive", max_size=1, field="rational",
            measures=("rank" if cat_id is CategoryId.FINVECT else "image_dimension",),
        )
        with pytest.raises(EnumerationBudgetExceeded):
            audit_all(config)
