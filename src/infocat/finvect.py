"""Finite-dimensional vector spaces over GF(p) or the rationals.

Morphisms are matrices acting on column vectors (rows = target dim,
cols = source dim), with exact arithmetic throughout: integers mod p or
Fraction.  Products are direct sums; the external product is the block
diagonal and the internal product stacks the two matrices over the
shared source.  The information measure is the rank of the map.

The linear algebra is written once: one Gauss-Jordan elimination
(_eliminate) gives the rank, the inverse and the row half of the
Smith-like normal form; one builder gives the unit rows of identities
and projections; maps_between enumerates the matrices between two
spaces and random_rows draws them.  finvect_dual is this category read
through transpose (see infocat.dual).
"""

from __future__ import annotations

from dataclasses import dataclass
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
    """Scalar field: GF(p) for prime p, or the rationals (char None)."""

    name: str
    char: int | None

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


RATIONAL = FieldSpec("rational", None)
GF2 = gf(2)
GF3 = gf(3)


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


@dataclass(frozen=True, slots=True)
class LinearMorphism:
    domain: VectObject
    codomain: VectObject
    entries: tuple[tuple, ...]

    def __post_init__(self):
        if self.domain.field != self.codomain.field:
            raise CategoryMismatch("endpoints live over different fields")
        if len(self.entries) != self.codomain.dim:
            raise InvalidMorphism(
                f"{len(self.entries)} rows for a target of dimension {self.codomain.dim}"
            )
        for row in self.entries:
            if len(row) != self.domain.dim:
                raise InvalidMorphism(
                    f"row width {len(row)} != source dimension {self.domain.dim}"
                )

    @property
    def category(self) -> CategoryId:
        return CategoryId.FINVECT

    @property
    def field(self) -> FieldSpec:
        return self.domain.field


def linear_morphism(field: FieldSpec, entries) -> LinearMorphism:
    """Build a morphism from nested lists, normalizing scalars."""
    rows = tuple(tuple(field.element(v) for v in row) for row in entries)
    cols = len(rows[0]) if rows else 0
    return LinearMorphism(VectObject(cols, field), VectObject(len(rows), field), rows)


def _eliminate(field: FieldSpec, rows: list[list], n_cols: int) -> list[int]:
    """Gauss-Jordan elimination of rows, in place, over their first n_cols
    columns; columns past n_cols take the same row operations.  Returns
    the pivot columns: row i of the result is 1 at the i-th pivot and 0
    in every other pivot column, and the rows after the pivots are 0 in
    the first n_cols columns."""
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
        inv = field.div(field.one(), rows[r][col])
        rows[r] = [field.mul(inv, v) for v in rows[r]]
        for i in range(n_rows):
            if i != r and rows[i][col] != 0:
                factor = rows[i][col]
                rows[i] = [field.sub(v, field.mul(factor, w)) for v, w in zip(rows[i], rows[r])]
        pivots.append(col)
    return pivots


def _rank(field: FieldSpec, rows: list[list]) -> int:
    return len(_eliminate(field, rows, len(rows[0]) if rows else 0))


@lru_cache(maxsize=65536)
def _rank_of(field_name: str, entries) -> int:
    return _rank(parse_field(field_name), [list(r) for r in entries])


def rank(m: LinearMorphism) -> int:
    # Audits recompute ranks of freshly built block matrices; entry
    # tuples hash cheaply, so memoize by value.
    return _rank_of(m.field.name, m.entries)


def rank_info(m: LinearMorphism) -> float:
    """Dimension of the image, as a float for measure uniformity."""
    return float(rank(m))


def _matmul(field: FieldSpec, a, b, n_cols: int | None = None):
    # a: m x k rows, b: k x n rows -> m x n.  When k == 0 the width of
    # the (zero) result cannot be read off b, so callers composing
    # through a zero-dimensional space must pass n_cols.
    n = n_cols if n_cols is not None else (len(b[0]) if b else 0)
    out = []
    for row in a:
        acc = [field.zero()] * n
        for aij, brow in zip(row, b):
            if aij != 0:
                for j in range(n):
                    if brow[j] != 0:
                        acc[j] = field.add(acc[j], field.mul(aij, brow[j]))
        out.append(tuple(acc))
    return tuple(out)


def _unit_rows(field: FieldSpec, n_cols: int, cols) -> tuple[tuple, ...]:
    """One row per c in cols: the unit vector e_c of width n_cols."""
    one, zero = field.one(), field.zero()
    return tuple(tuple(one if j == c else zero for j in range(n_cols)) for c in cols)


def _with_identity(field: FieldSpec, rows) -> list[list]:
    """[A | I] as mutable rows, for elimination that records its row
    operations."""
    n = len(rows)
    return [list(r) + list(e) for r, e in zip(rows, _unit_rows(field, n, range(n)))]


def _inverse(field: FieldSpec, rows):
    """Inverse of a square matrix given as tuple rows; None if singular."""
    n = len(rows)
    work = _with_identity(field, rows)
    if len(_eliminate(field, work, n)) < n:
        return None
    return tuple(tuple(row[n:]) for row in work)


def _smith_like(field: FieldSpec, m: LinearMorphism):
    """Invertible S (rows) and T (cols) with S @ M @ T = [[I_r, 0], [0, 0]]."""
    n_cols = m.domain.dim
    work = _with_identity(field, m.entries)
    pivots = _eliminate(field, work, n_cols)
    # S is the record of the row operations.  Each pivot column of the
    # reduced matrix holds a single 1, so clearing entry j of pivot row i
    # with a column operation puts -work[i][j] at (pivot, j) of T = I;
    # then the pivot columns move to the front.
    t = [list(r) for r in _unit_rows(field, n_cols, range(n_cols))]
    for i, pc in enumerate(pivots):
        for j in range(n_cols):
            if j != pc and work[i][j] != 0:
                t[pc][j] = field.sub(field.zero(), work[i][j])
    order = pivots + [j for j in range(n_cols) if j not in pivots]
    s = tuple(tuple(row[n_cols:]) for row in work)
    return s, tuple(tuple(row[j] for j in order) for row in t)


def _random_scalar(rng, field: FieldSpec):
    if field.char:
        return rng.randbelow(field.char)
    return Fraction(rng.randint(-4, 4), rng.randint(1, 4))


def random_rows(rng, field: FieldSpec, n_rows: int, n_cols: int) -> tuple[tuple, ...]:
    """An n_rows x n_cols matrix of random scalars, drawn row by row."""
    return tuple(tuple(_random_scalar(rng, field) for _ in range(n_cols)) for _ in range(n_rows))


def transpose(m: LinearMorphism) -> LinearMorphism:
    """The transposed matrix, a map codomain -> domain."""
    entries = tuple(tuple(row[j] for row in m.entries) for j in range(m.domain.dim))
    return LinearMorphism(m.codomain, m.domain, entries)


def section_exists_linear(f: LinearMorphism, g: LinearMorphism) -> bool:
    """Whether some linear s satisfies s . g . f == f.

    Equivalent to g keeping the image of f intact: rank(g.f) == rank(f).
    """
    if f.codomain != g.domain:
        raise ObjectMismatch("section test needs composable f then g")
    field = f.field
    gf_rows = _matmul(field, g.entries, f.entries, f.domain.dim)
    return _rank(field, [list(r) for r in gf_rows]) == rank(f)


class FinVectCategory(Category):
    id = CategoryId.FINVECT

    # -- structure ----------------------------------------------------
    def compose(self, g: LinearMorphism, f: LinearMorphism) -> LinearMorphism:
        if f.field != g.field:
            raise CategoryMismatch("cannot compose maps over different fields")
        if f.codomain != g.domain:
            raise ObjectMismatch(f"cannot compose: middle objects {f.codomain} != {g.domain}")
        return LinearMorphism(
            f.domain, g.codomain, _matmul(f.field, g.entries, f.entries, f.domain.dim)
        )

    def identity(self, obj: VectObject) -> LinearMorphism:
        return LinearMorphism(obj, obj, _unit_rows(obj.field, obj.dim, range(obj.dim)))

    def product_object(self, a: VectObject, b: VectObject):
        if a.field != b.field:
            raise CategoryMismatch("cannot pair spaces over different fields")
        prod = VectObject(a.dim + b.dim, a.field)
        p1 = LinearMorphism(prod, a, _unit_rows(a.field, prod.dim, range(a.dim)))
        p2 = LinearMorphism(prod, b, _unit_rows(a.field, prod.dim, range(a.dim, prod.dim)))
        return prod, p1, p2

    def external_product(self, f: LinearMorphism, g: LinearMorphism) -> LinearMorphism:
        if f.field != g.field:
            raise CategoryMismatch("cannot pair maps over different fields")
        field = f.field
        zero_left = (field.zero(),) * f.domain.dim
        zero_right = (field.zero(),) * g.domain.dim
        rows = [row + zero_right for row in f.entries]
        rows += [zero_left + row for row in g.entries]
        return LinearMorphism(
            VectObject(f.domain.dim + g.domain.dim, field),
            VectObject(f.codomain.dim + g.codomain.dim, field),
            tuple(rows),
        )

    def internal_product(self, f: LinearMorphism, g: LinearMorphism) -> LinearMorphism:
        if f.field != g.field:
            raise CategoryMismatch("cannot pair maps over different fields")
        if f.domain != g.domain:
            raise DomainMismatch("internal product needs a shared source")
        return LinearMorphism(
            f.domain,
            VectObject(f.codomain.dim + g.codomain.dim, f.field),
            f.entries + g.entries,
        )

    def terminal_object(self, field: FieldSpec = GF2) -> VectObject:
        return VectObject(0, field)

    def terminal_for(self, limits: Limits) -> VectObject:
        return self.terminal_object(self.limit_field(limits))

    def unique_to_terminal(self, obj: VectObject) -> LinearMorphism:
        return LinearMorphism(obj, VectObject(0, obj.field), ())

    # -- isomorphism --------------------------------------------------
    def iso_invariant(self, f: LinearMorphism):
        return (f.field, f.domain.dim, f.codomain.dim, rank(f))

    def arrow_iso(self, f: LinearMorphism, g: LinearMorphism, budget: int = 100_000):
        if self.iso_invariant(f) != self.iso_invariant(g):
            return None
        field = f.field
        s_f, t_f = _smith_like(field, f)
        s_g, t_g = _smith_like(field, g)
        # S_f f T_f = D = S_g g T_g, so alpha = T_g T_f^-1, beta = S_g^-1 S_f
        # give g . alpha == beta . f.
        alpha_rows = _matmul(field, t_g, _inverse(field, t_f))
        beta_rows = _matmul(field, _inverse(field, s_g), s_f)
        alpha = LinearMorphism(f.domain, g.domain, alpha_rows)
        beta = LinearMorphism(f.codomain, g.codomain, beta_rows)
        if self.compose(g, alpha).entries != self.compose(beta, f).entries:
            raise AssertionError("arrow_iso built a square that does not commute")
        return ArrowIso(
            IsoWitness(alpha, LinearMorphism(g.domain, f.domain, _inverse(field, alpha_rows))),
            IsoWitness(beta, LinearMorphism(g.codomain, f.codomain, _inverse(field, beta_rows))),
        )

    def coslice_iso(self, p: LinearMorphism, q: LinearMorphism, budget: int = 100_000) -> bool:
        if p.domain != q.domain:
            raise DomainMismatch("coslice comparison needs a shared source")
        if p.codomain != q.codomain:
            return False
        rp = rank(p)
        if rank(q) != rp:
            return False
        stacked = _rank(p.field, [list(r) for r in p.entries + q.entries])
        return stacked == rp  # equal kernels

    def random_iso_out(self, rng, obj: VectObject) -> IsoWitness:
        field, n = obj.field, obj.dim
        while True:
            rows = random_rows(rng, field, n, n)
            inv = _inverse(field, rows)
            if inv is not None:
                fwd = LinearMorphism(obj, obj, rows)
                return IsoWitness(fwd, LinearMorphism(obj, obj, inv))

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
        """Every matrix dom -> cod, in lexicographic order of its rows."""
        field = dom.field
        if not field.char:
            raise EnumerationBudgetExceeded("rational matrices cannot be enumerated")
        cols = dom.dim
        for flat in iter_product(range(field.char), repeat=cod.dim * cols):
            yield LinearMorphism(dom, cod, tuple(flat[i * cols:(i + 1) * cols] for i in range(cod.dim)))

    def random_object(self, rng, limits: Limits) -> VectObject:
        return VectObject(rng.randint(0, limits.max_size), self.limit_field(limits))

    def random_morphism(self, rng, limits: Limits) -> LinearMorphism:
        return self.random_morphism_from(rng, self.random_object(rng, limits), limits)

    def random_morphism_from(self, rng, obj: VectObject, limits: Limits) -> LinearMorphism:
        rows_n = rng.randint(0, limits.max_size)
        return LinearMorphism(obj, VectObject(rows_n, obj.field), random_rows(rng, obj.field, rows_n, obj.dim))

    # -- serialization --------------------------------------------------
    def object_to_json(self, obj: VectObject) -> dict:
        return {"dim": obj.dim, "field": obj.field.name}

    def object_from_json(self, data: dict) -> VectObject:
        return VectObject(int_from_json(data["dim"], "dim"), parse_field(data["field"]))

    @staticmethod
    def _scalar_to_json(field: FieldSpec, v):
        return v if field.char else str(Fraction(v))

    def payload_to_json(self, m: LinearMorphism) -> dict:
        field = m.field
        return {
            "field": field.name,
            "rows": m.codomain.dim,
            "cols": m.domain.dim,
            "entries": [[self._scalar_to_json(field, v) for v in row] for row in m.entries],
        }

    def morphism_from_json(self, domain, codomain, payload: dict) -> LinearMorphism:
        field = parse_field(payload["field"])
        rows = payload["entries"]
        if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
            raise InvalidMorphism(f"entries must be a list of rows, not {rows!r}")
        if field.char:
            entries = tuple(tuple(field.element(v) for v in row) for row in rows)
        else:
            entries = tuple(rationals_from_json(row, "entries", InvalidMorphism) for row in rows)
        return LinearMorphism(domain, codomain, entries)


FINVECT = register(FinVectCategory())

register_measure(
    InfoMeasure(
        "rank",
        CategoryId.FINVECT,
        rank_info,
        lambda m: LogVal.from_rational(rank(m)),
    )
)
