"""Finite-dimensional vector spaces over GF(p) or the rationals.

Morphisms are matrices acting on column vectors (rows = target dim,
cols = source dim), with exact arithmetic throughout: integers mod p or
Fraction.  Products are direct sums; the external product is the block
diagonal and the internal product stacks the two matrices over the
shared source.  The information measure is the rank of the map.

A matrix is stored as its rows, in one of two forms, and each field
picks its form once, when the FieldSpec is made (FieldSpec.kernel):

* GF(2) packs a row into one int, bit j holding column j (_BitRows).
  Composition XORs the rows of f that a row of g selects, rank inserts
  the rows into an XOR basis, and products, transposes and inverses are
  shifts, ORs and XORs of whole rows;
* GF(p) for p > 2 and the rationals keep a row as a tuple of scalars
  (_TupleRows), with the arithmetic written inline: % p on ints, or
  Fraction.  One Gauss-Jordan elimination (_gauss) gives the rank,
  the inverse and the row half of the Smith-like normal form.

The category operations read and build rows through the kernel only
and skip the public constructor's validation, since row arithmetic on
valid matrices yields valid matrices.  LinearMorphism.entries, the
tuple-of-tuples view of either form, is what JSON writes and what the
tuple-row helpers (_matmul, _rank, _inverse, _smith_like) take; the
arrow isomorphism of any field is built from it.  Every rank goes
through the _rank_of cache, keyed on the modulus and the stored rows.
finvect_dual is this category read through transpose (see infocat.dual).
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from fractions import Fraction
from functools import lru_cache
from itertools import product as iter_product
from typing import Iterator

from .core import (
    ArrowIso,
    Category,
    CategoryId,
    IsoWitness,
    Limits,
    int_from_json,
    rationals_from_json,
    register,
)
from .errors import (
    CategoryMismatch,
    DomainMismatch,
    EnumerationBudgetExceeded,
    InvalidMorphism,
    InvalidObject,
    ObjectMismatch,
)
from .exact import LogVal
from .measures import InfoMeasure, register_measure


@dataclass(frozen=True, slots=True)
class FieldSpec:
    """Scalar field: GF(p) for prime p, or the rationals (char None).

    kernel is the row form and arithmetic of the field's matrices,
    chosen from char when the spec is made.  The scalar methods are the
    entry-by-entry definitions; the kernels inline them."""

    name: str
    char: int | None
    kernel: _BitRows | _TupleRows = dataclass_field(init=False, repr=False, compare=False)

    def __post_init__(self):
        kernel = _BitRows() if self.char == 2 else _TupleRows(self.char)
        object.__setattr__(self, "kernel", kernel)

    def zero(self):
        return 0 if self.char else Fraction(0)

    def one(self):
        return 1 if self.char else Fraction(1)

    def add(self, a, b):
        return (a + b) % self.char if self.char else a + b

    def sub(self, a, b):
        return (a - b) % self.char if self.char else a - b

    def mul(self, a, b):
        return (a * b) % self.char if self.char else a * b

    def div(self, a, b):
        if self.char:
            return (a * pow(b, self.char - 2, self.char)) % self.char
        return a / b

    def element(self, raw):
        """Normalize and validate one scalar."""
        if self.char:
            if isinstance(raw, bool) or not isinstance(raw, int):
                raise InvalidMorphism(f"{self.name} entries must be ints, got {raw!r}")
            return raw % self.char
        return Fraction(raw)


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def gf(p: int) -> FieldSpec:
    if not _is_prime(p):
        raise InvalidObject(f"GF({p}) needs a prime modulus")
    return FieldSpec(f"gf{p}", p)


# The largest GF(p) modulus a field name may ask for.
MAX_MODULUS = 2**31


def parse_field(name: str) -> FieldSpec:
    if not isinstance(name, str):
        raise InvalidObject(f"a field name is a string, not {name!r}")
    if name == "rational":
        return RATIONAL
    digits = name[2:]
    if name.startswith("gf") and digits.isascii() and digits.isdecimal():
        # gf() tests primality by trial division up to sqrt(p); the bound
        # keeps that to at most 46,341 steps.
        if len(digits) > len(str(MAX_MODULUS)) or int(digits) > MAX_MODULUS:
            raise InvalidObject(f"GF(p) needs a modulus p <= 2**31, not {digits}")
        return gf(int(digits))
    raise InvalidObject(f"unknown field {name!r}")


@dataclass(frozen=True, slots=True)
class VectObject:
    dim: int
    field: FieldSpec

    def __post_init__(self):
        if self.dim < 0:
            raise InvalidObject(f"negative dimension: {self.dim}")


class LinearMorphism:
    """A matrix from domain to codomain, kept as rows in its field's form.

    The constructor takes entries, one tuple of scalars per row, checks
    their shape and packs them.  A morphism is immutable: its hash comes
    from (domain, codomain, rows) and is computed once, on first use.
    """

    __slots__ = ("domain", "codomain", "rows", "_hash")

    def __init__(self, domain: VectObject, codomain: VectObject, entries):
        field = domain.field
        if field != codomain.field:
            raise CategoryMismatch("endpoints live over different fields")
        if len(entries) != codomain.dim:
            raise InvalidMorphism(f"{len(entries)} rows for a target of dimension {codomain.dim}")
        for row in entries:
            if len(row) != domain.dim:
                raise InvalidMorphism(f"row width {len(row)} != source dimension {domain.dim}")
        self.domain = domain
        self.codomain = codomain
        self.rows = field.kernel.pack(tuple(tuple(field.element(v) for v in row) for row in entries))
        self._hash = None

    @property
    def category(self) -> CategoryId:
        return CategoryId.FINVECT

    @property
    def field(self) -> FieldSpec:
        return self.domain.field

    @property
    def entries(self) -> tuple[tuple, ...]:
        """The matrix as one tuple of scalars per row."""
        return self.domain.field.kernel.unpack(self.rows, self.domain.dim)

    def __eq__(self, other):
        if other.__class__ is not LinearMorphism:
            return NotImplemented
        return (
            self.rows == other.rows
            and self.domain == other.domain
            and self.codomain == other.codomain
        )

    def __hash__(self):
        h = self._hash
        if h is None:
            h = self._hash = hash((self.domain, self.codomain, self.rows))
        return h

    def __repr__(self):
        return f"LinearMorphism(domain={self.domain!r}, codomain={self.codomain!r}, entries={self.entries!r})"


def _build(domain: VectObject, codomain: VectObject, rows) -> LinearMorphism:
    """A morphism from rows already in the field's form, unchecked."""
    m = object.__new__(LinearMorphism)
    m.domain = domain
    m.codomain = codomain
    m.rows = rows
    m._hash = None
    return m


def linear_morphism(field: FieldSpec, entries) -> LinearMorphism:
    """Build a morphism from nested lists, normalizing scalars."""
    rows = tuple(tuple(row) for row in entries)
    cols = len(rows[0]) if rows else 0
    return LinearMorphism(VectObject(cols, field), VectObject(len(rows), field), rows)


# -- GF(2): a row is an int ---------------------------------------------
def _bit_rank(rows) -> int:
    """Rank by insertion into an XOR basis keyed on leading bits."""
    basis: dict[int, int] = {}
    for x in rows:
        while x:
            top = x.bit_length()
            b = basis.get(top)
            if b is None:
                basis[top] = x
                break
            x ^= b
    return len(basis)


@lru_cache(maxsize=16384)
def _bit_inverse(rows):
    """Inverse of a square GF(2) matrix of packed rows; None if singular.
    Gauss-Jordan on [A | I], with I in the bits past column n."""
    n = len(rows)
    work = [r | (1 << (n + i)) for i, r in enumerate(rows)]
    for col in range(n):
        bit = 1 << col
        pivot = next((i for i in range(col, n) if work[i] & bit), None)
        if pivot is None:
            return None
        work[col], work[pivot] = work[pivot], work[col]
        pr = work[col]
        for i in range(n):
            if i != col and work[i] & bit:
                work[i] ^= pr
    return tuple(r >> n for r in work)


class _BitRows:
    """GF(2) rows as ints: bit j of row i is the entry in column j."""

    @staticmethod
    def pack(entries) -> tuple[int, ...]:
        return tuple(sum(v << j for j, v in enumerate(row)) for row in entries)

    @staticmethod
    def unpack(rows, n_cols: int) -> tuple[tuple, ...]:
        return tuple(tuple((r >> j) & 1 for j in range(n_cols)) for r in rows)

    @staticmethod
    def unit_rows(n_cols: int, cols) -> tuple[int, ...]:
        return tuple(1 << c for c in cols)

    @staticmethod
    def compose(g_rows, f_rows, n_cols: int) -> tuple[int, ...]:
        # Row i of g.f: the XOR of the rows of f that row i of g selects.
        out = []
        for r in g_rows:
            acc = j = 0
            while r:
                if r & 1:
                    acc ^= f_rows[j]
                r >>= 1
                j += 1
            out.append(acc)
        return tuple(out)

    @staticmethod
    def block_diagonal(f_rows, f_cols: int, g_rows, g_cols: int) -> tuple[int, ...]:
        return f_rows + tuple(r << f_cols for r in g_rows)

    @staticmethod
    def side_by_side(f_rows, f_cols: int, g_rows) -> tuple[int, ...]:
        return tuple(a | (b << f_cols) for a, b in zip(f_rows, g_rows))

    @staticmethod
    def transpose(rows, n_cols: int) -> tuple[int, ...]:
        return tuple(
            sum(((r >> j) & 1) << i for i, r in enumerate(rows)) for j in range(n_cols)
        )

    @staticmethod
    def inverse(rows):
        return _bit_inverse(rows)

    @staticmethod
    def random_rows(rng, n_rows: int, n_cols: int) -> tuple[int, ...]:
        # The draws of _TupleRows.random_rows over GF(2), in its order.
        draw = rng.randbelow
        return tuple(sum(draw(2) << j for j in range(n_cols)) for _ in range(n_rows))

    @staticmethod
    def all_rows(n_cols: int) -> list[int]:
        # In lexicographic order of the entries, column 0 the most
        # significant: the bit-reversed counting order.
        return [sum(v << j for j, v in enumerate(bits)) for bits in iter_product((0, 1), repeat=n_cols)]


# -- GF(p > 2) and the rationals: a row is a tuple -----------------------
def _gauss(p: int | None, rows: list[list], n_cols: int) -> list[int]:
    """Gauss-Jordan elimination of rows over GF(p), or over the rationals
    when p is None, in place, over their first n_cols columns; columns
    past n_cols take the same row operations.  Returns the pivot columns:
    row i of the result is 1 at the i-th pivot and 0 in every other pivot
    column, and the rows after the pivots are 0 in the first n_cols
    columns."""
    pivots: list[int] = []
    n_rows = len(rows)
    for col in range(n_cols):
        r = len(pivots)
        if r == n_rows:
            break
        pivot = next((i for i in range(r, n_rows) if rows[i][col] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        lead = rows[r][col]
        inv = pow(lead, p - 2, p) if p else Fraction(1) / lead
        pr = rows[r] = [v * inv % p for v in rows[r]] if p else [v * inv for v in rows[r]]
        for i in range(n_rows):
            factor = rows[i][col]
            if i != r and factor != 0:
                if p:
                    rows[i] = [(v - factor * w) % p for v, w in zip(rows[i], pr)]
                else:
                    rows[i] = [v - factor * w for v, w in zip(rows[i], pr)]
        pivots.append(col)
    return pivots


def _eliminate(field: FieldSpec, rows: list[list], n_cols: int) -> list[int]:
    """_gauss over field."""
    return _gauss(field.char, rows, n_cols)


def _rank(field: FieldSpec, rows: list[list]) -> int:
    return len(_gauss(field.char, rows, len(rows[0]) if rows else 0))


@lru_cache(maxsize=65536)
def _rank_of(modulus: int | None, rows) -> int:
    if modulus == 2:
        return _bit_rank(rows)
    return len(_gauss(modulus, [list(r) for r in rows], len(rows[0]) if rows else 0))


def rank(m: LinearMorphism) -> int:
    # Audits recompute ranks of freshly built block matrices; stored rows
    # hash cheaply, so memoize by value.
    return _rank_of(m.domain.field.char, m.rows)


def rank_info(m: LinearMorphism) -> float:
    """Dimension of the image, as a float for measure uniformity."""
    return float(rank(m))


@lru_cache(maxsize=1024)
def _rank_logval(r: int) -> LogVal:
    return LogVal.from_rational(r)


def rank_exact(m: LinearMorphism) -> LogVal:
    """Dimension of the image as an exact value.  Each rank has one shared
    LogVal, so exact comparisons of ranks meet identical values."""
    return _rank_logval(rank(m))


def _mat_product(p: int | None, a, b, n: int) -> tuple[tuple, ...]:
    """a @ b over GF(p), or over the rationals when p is None; n is the
    width of b."""
    zero = 0 if p else Fraction(0)
    out = []
    for row in a:
        acc = [zero] * n
        for aij, brow in zip(row, b):
            if aij != 0:
                for j, bj in enumerate(brow):
                    if bj != 0:
                        acc[j] += aij * bj
        out.append(tuple(v % p for v in acc) if p else tuple(acc))
    return tuple(out)


def _matmul(field: FieldSpec, a, b, n_cols: int | None = None):
    # a: m x k rows, b: k x n rows -> m x n.  When k == 0 the width of
    # the (zero) result cannot be read off b, so callers composing
    # through a zero-dimensional space must pass n_cols.
    return _mat_product(field.char, a, b, n_cols if n_cols is not None else (len(b[0]) if b else 0))


def _units(p: int | None, n_cols: int, cols) -> tuple[tuple, ...]:
    """One row per c in cols: the unit vector e_c of width n_cols."""
    one, zero = (1, 0) if p else (Fraction(1), Fraction(0))
    return tuple((zero,) * c + (one,) + (zero,) * (n_cols - c - 1) for c in cols)


def _with_identity(p: int | None, rows) -> list[list]:
    """[A | I] as mutable rows, for elimination that records its row
    operations."""
    n = len(rows)
    return [list(r) + list(e) for r, e in zip(rows, _units(p, n, range(n)))]


# random_iso_out draws matrices until one is invertible, and small fields
# have few matrices of each size, so the same ones recur throughout an audit.
@lru_cache(maxsize=16384)
def _inverse_mod(p: int | None, rows):
    n = len(rows)
    work = _with_identity(p, rows)
    if len(_gauss(p, work, n)) < n:
        return None
    return tuple(tuple(row[n:]) for row in work)


def _inverse(field: FieldSpec, rows):
    """Inverse of a square matrix given as tuple rows; None if singular."""
    return _inverse_mod(field.char, rows)


def _smith_like(field: FieldSpec, m: LinearMorphism):
    """Invertible S (rows) and T (cols) with S @ M @ T = [[I_r, 0], [0, 0]],
    as tuple rows."""
    p, n_cols = field.char, m.domain.dim
    work = _with_identity(p, m.entries)
    pivots = _gauss(p, work, n_cols)
    # S is the record of the row operations.  Each pivot column of the
    # reduced matrix holds a single 1, so clearing entry j of pivot row i
    # with a column operation puts -work[i][j] at (pivot, j) of T = I;
    # then the pivot columns move to the front.
    t = [list(r) for r in _units(p, n_cols, range(n_cols))]
    for i, pc in enumerate(pivots):
        for j in range(n_cols):
            if j != pc and work[i][j] != 0:
                t[pc][j] = -work[i][j] % p if p else -work[i][j]
    order = pivots + [j for j in range(n_cols) if j not in pivots]
    s = tuple(tuple(row[n_cols:]) for row in work)
    return s, tuple(tuple(row[j] for j in order) for row in t)


class _TupleRows:
    """GF(p) rows for p > 2 (ints in [0, p)) or rational rows (Fractions),
    each a tuple of scalars."""

    def __init__(self, modulus: int | None):
        self.modulus = modulus

    @staticmethod
    def pack(entries) -> tuple[tuple, ...]:
        return entries

    @staticmethod
    def unpack(rows, n_cols: int) -> tuple[tuple, ...]:
        return rows

    def unit_rows(self, n_cols: int, cols) -> tuple[tuple, ...]:
        return _units(self.modulus, n_cols, cols)

    def compose(self, g_rows, f_rows, n_cols: int) -> tuple[tuple, ...]:
        return _mat_product(self.modulus, g_rows, f_rows, n_cols)

    def block_diagonal(self, f_rows, f_cols: int, g_rows, g_cols: int) -> tuple[tuple, ...]:
        zero = 0 if self.modulus else Fraction(0)
        zero_left, zero_right = (zero,) * f_cols, (zero,) * g_cols
        return tuple(row + zero_right for row in f_rows) + tuple(zero_left + row for row in g_rows)

    @staticmethod
    def side_by_side(f_rows, f_cols: int, g_rows) -> tuple[tuple, ...]:
        return tuple(a + b for a, b in zip(f_rows, g_rows))

    @staticmethod
    def transpose(rows, n_cols: int) -> tuple[tuple, ...]:
        return tuple(tuple(row[j] for row in rows) for j in range(n_cols))

    def inverse(self, rows):
        return _inverse_mod(self.modulus, rows)

    def random_rows(self, rng, n_rows: int, n_cols: int) -> tuple[tuple, ...]:
        """An n_rows x n_cols matrix of random scalars, drawn row by row."""
        p = self.modulus
        if p:
            return tuple(tuple(rng.randbelow(p) for _ in range(n_cols)) for _ in range(n_rows))
        return tuple(
            tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 4)) for _ in range(n_cols))
            for _ in range(n_rows)
        )

    def all_rows(self, n_cols: int) -> list[tuple]:
        return list(iter_product(range(self.modulus), repeat=n_cols))


RATIONAL = FieldSpec("rational", None)
GF2 = gf(2)
GF3 = gf(3)


# -- operations shared with finvect_dual ---------------------------------
def random_map(rng, dom: VectObject, cod: VectObject) -> LinearMorphism:
    """A random matrix dom -> cod, drawn row by row."""
    return _build(dom, cod, dom.field.kernel.random_rows(rng, cod.dim, dom.dim))


def transpose(m: LinearMorphism) -> LinearMorphism:
    """The transposed matrix, a map codomain -> domain."""
    return _build(m.codomain, m.domain, m.domain.field.kernel.transpose(m.rows, m.domain.dim))


def case_split(f: LinearMorphism, g: LinearMorphism) -> LinearMorphism:
    """(w, u) -> f(w) + g(u): f and g side by side, a map out of the
    direct sum of their sources into their shared target."""
    field = f.domain.field
    dom = VectObject(f.domain.dim + g.domain.dim, field)
    return _build(dom, f.codomain, field.kernel.side_by_side(f.rows, f.domain.dim, g.rows))


def section_exists_linear(f: LinearMorphism, g: LinearMorphism) -> bool:
    """Whether some linear s satisfies s . g . f == f.

    Equivalent to g keeping the image of f intact: rank(g.f) == rank(f).
    """
    if f.codomain != g.domain:
        raise ObjectMismatch("section test needs composable f then g")
    field = f.domain.field
    gf_rows = field.kernel.compose(g.rows, f.rows, f.domain.dim)
    return _rank_of(field.char, gf_rows) == rank(f)


class FinVectCategory(Category):
    id = CategoryId.FINVECT

    # -- structure ----------------------------------------------------
    def compose(self, g: LinearMorphism, f: LinearMorphism) -> LinearMorphism:
        if f.codomain != g.domain:
            if f.field != g.field:
                raise CategoryMismatch("cannot compose maps over different fields")
            raise ObjectMismatch(f"cannot compose: middle objects {f.codomain} != {g.domain}")
        dom = f.domain
        return _build(dom, g.codomain, dom.field.kernel.compose(g.rows, f.rows, dom.dim))

    def identity(self, obj: VectObject) -> LinearMorphism:
        return _build(obj, obj, obj.field.kernel.unit_rows(obj.dim, range(obj.dim)))

    def product_object(self, a: VectObject, b: VectObject):
        if a.field != b.field:
            raise CategoryMismatch("cannot pair spaces over different fields")
        kernel = a.field.kernel
        prod = VectObject(a.dim + b.dim, a.field)
        p1 = _build(prod, a, kernel.unit_rows(prod.dim, range(a.dim)))
        p2 = _build(prod, b, kernel.unit_rows(prod.dim, range(a.dim, prod.dim)))
        return prod, p1, p2

    def external_product(self, f: LinearMorphism, g: LinearMorphism) -> LinearMorphism:
        field = f.domain.field
        if g.domain.field is not field and g.field != field:
            raise CategoryMismatch("cannot pair maps over different fields")
        fd, gd = f.domain.dim, g.domain.dim
        return _build(
            VectObject(fd + gd, field),
            VectObject(f.codomain.dim + g.codomain.dim, field),
            field.kernel.block_diagonal(f.rows, fd, g.rows, gd),
        )

    def internal_product(self, f: LinearMorphism, g: LinearMorphism) -> LinearMorphism:
        if f.domain != g.domain:
            if f.field != g.field:
                raise CategoryMismatch("cannot pair maps over different fields")
            raise DomainMismatch("internal product needs a shared source")
        return _build(
            f.domain,
            VectObject(f.codomain.dim + g.codomain.dim, f.domain.field),
            f.rows + g.rows,
        )

    def terminal_object(self, field: FieldSpec = GF2) -> VectObject:
        return VectObject(0, field)

    def terminal_for(self, limits: Limits) -> VectObject:
        return self.terminal_object(self.limit_field(limits))

    def unique_to_terminal(self, obj: VectObject) -> LinearMorphism:
        return _build(obj, VectObject(0, obj.field), ())

    # -- isomorphism --------------------------------------------------
    def iso_invariant(self, f: LinearMorphism):
        return (f.field, f.domain.dim, f.codomain.dim, rank(f))

    def arrow_iso(self, f: LinearMorphism, g: LinearMorphism, budget: int = 100_000):
        if self.iso_invariant(f) != self.iso_invariant(g):
            return None
        # Built on the tuple rows of every field, then packed.
        field = f.field
        s_f, t_f = _smith_like(field, f)
        s_g, t_g = _smith_like(field, g)
        # S_f f T_f = D = S_g g T_g, so alpha = T_g T_f^-1, beta = S_g^-1 S_f
        # give g . alpha == beta . f.
        alpha_rows = _matmul(field, t_g, _inverse(field, t_f))
        beta_rows = _matmul(field, _inverse(field, s_g), s_f)
        pack = field.kernel.pack
        alpha = _build(f.domain, g.domain, pack(alpha_rows))
        beta = _build(f.codomain, g.codomain, pack(beta_rows))
        if self.compose(g, alpha) != self.compose(beta, f):
            raise AssertionError("arrow_iso built a square that does not commute")
        return ArrowIso(
            IsoWitness(alpha, _build(g.domain, f.domain, pack(_inverse(field, alpha_rows)))),
            IsoWitness(beta, _build(g.codomain, f.codomain, pack(_inverse(field, beta_rows)))),
        )

    def coslice_iso(self, p: LinearMorphism, q: LinearMorphism, budget: int = 100_000) -> bool:
        if p.domain != q.domain:
            raise DomainMismatch("coslice comparison needs a shared source")
        if p.codomain != q.codomain:
            return False
        rp = rank(p)
        if rank(q) != rp:
            return False
        # Equal kernels: stacking q under p adds nothing to the row space.
        return _rank_of(p.domain.field.char, p.rows + q.rows) == rp

    def random_iso_out(self, rng, obj: VectObject) -> IsoWitness:
        kernel, n = obj.field.kernel, obj.dim
        while True:
            rows = kernel.random_rows(rng, n, n)
            inv = kernel.inverse(rows)
            if inv is not None:
                return IsoWitness(_build(obj, obj, rows), _build(obj, obj, inv))

    # -- sections -----------------------------------------------------
    def section_exists(self, f, g) -> bool:
        return section_exists_linear(f, g)

    # -- corpus -------------------------------------------------------
    @staticmethod
    def limit_field(limits: Limits) -> FieldSpec:
        return limits.field if limits.field is not None else GF2

    def exhaustive_objects(self, limits: Limits) -> Iterator[VectObject]:
        field = self.limit_field(limits)
        for n in range(0, limits.max_size + 1):
            yield VectObject(n, field)

    def exhaustive_morphisms(self, limits: Limits) -> Iterator[LinearMorphism]:
        for obj in self.exhaustive_objects(limits):
            yield from self.exhaustive_morphisms_from(obj, limits)

    def exhaustive_morphisms_from(self, obj: VectObject, limits: Limits) -> Iterator[LinearMorphism]:
        for n in range(0, limits.max_size + 1):
            yield from self.maps_between(obj, VectObject(n, obj.field))

    def maps_between(self, dom: VectObject, cod: VectObject) -> Iterator[LinearMorphism]:
        """Every matrix dom -> cod, in lexicographic order of its entries
        read row by row."""
        if not dom.field.char:
            raise EnumerationBudgetExceeded("rational matrices cannot be enumerated")
        row_values = dom.field.kernel.all_rows(dom.dim) if cod.dim else ()
        for rows in iter_product(row_values, repeat=cod.dim):
            yield _build(dom, cod, rows)

    def random_object(self, rng, limits: Limits) -> VectObject:
        return VectObject(rng.randint(0, limits.max_size), self.limit_field(limits))

    def random_morphism(self, rng, limits: Limits) -> LinearMorphism:
        return self.random_morphism_from(rng, self.random_object(rng, limits), limits)

    def random_morphism_from(self, rng, obj: VectObject, limits: Limits) -> LinearMorphism:
        rows_n = rng.randint(0, limits.max_size)
        return random_map(rng, obj, VectObject(rows_n, obj.field))

    # -- serialization --------------------------------------------------
    def object_to_json(self, obj: VectObject) -> dict:
        return {"dim": obj.dim, "field": obj.field.name}

    def object_from_json(self, data: dict) -> VectObject:
        return VectObject(int_from_json(data["dim"], "dim"), parse_field(data["field"]))

    def payload_to_json(self, m: LinearMorphism) -> dict:
        field = m.field
        entries = [list(row) for row in m.entries]
        if not field.char:  # a rational travels as str(Fraction): "-3", "3/8"
            entries = [[str(v) for v in row] for row in entries]
        return {
            "field": field.name,
            "rows": m.codomain.dim,
            "cols": m.domain.dim,
            "entries": entries,
        }

    def morphism_from_json(self, domain, codomain, payload: dict) -> LinearMorphism:
        field = parse_field(payload["field"])
        if field != domain.field:
            raise InvalidMorphism(
                f"payload field {field.name} != source field {domain.field.name}"
            )
        shape = (int_from_json(payload["rows"], "rows", InvalidMorphism),
                 int_from_json(payload["cols"], "cols", InvalidMorphism))
        if shape != (codomain.dim, domain.dim):
            raise InvalidMorphism(
                f"payload of {shape[0]} rows and {shape[1]} cols for a map from"
                f" dimension {domain.dim} to dimension {codomain.dim}"
            )
        rows = payload["entries"]
        if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
            raise InvalidMorphism(f"entries must be a list of rows, not {rows!r}")
        if not field.char:
            rows = [rationals_from_json(row, "entries", InvalidMorphism) for row in rows]
        return LinearMorphism(domain, codomain, rows)


FINVECT = register(FinVectCategory())

register_measure(
    InfoMeasure(
        "rank",
        CategoryId.FINVECT,
        rank_info,
        rank_exact,
    )
)
