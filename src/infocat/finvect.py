"""Finite-dimensional vector spaces over GF(p) or the rationals.

Morphisms are matrices acting on column vectors (rows = target dim,
cols = source dim), with exact arithmetic throughout: integers mod p or
Fraction.  Products are direct sums; the external product is the block
diagonal and the internal product stacks the two matrices over the
shared source.  The information measure is the rank of the map.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product as iter_product
from typing import Iterator

from .core import ArrowIso, CategoryId, Category, IsoWitness, Limits, register
from .errors import (
    CategoryMismatch,
    DomainMismatch,
    EnumerationBudgetExceeded,
    InvalidMorphism,
    InvalidObject,
    ObjectMismatch,
    SearchBudgetExceeded,
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

    def neg(self, a):
        return (-a) % self.char if self.char else -a

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


def parse_field(name: str) -> FieldSpec:
    if name == "rational":
        return RATIONAL
    if name.startswith("gf"):
        return gf(int(name[2:]))
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


def _rank(field: FieldSpec, rows: list[list]) -> int:
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


def _identity_rows(field: FieldSpec, n: int):
    one, zero = field.one(), field.zero()
    return tuple(tuple(one if i == j else zero for j in range(n)) for i in range(n))


def _inverse(field: FieldSpec, rows):
    """Inverse of a square matrix given as tuple rows; None if singular."""
    n = len(rows)
    work = [list(r) + list(ident) for r, ident in zip(rows, _identity_rows(field, n))]
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


def _smith_like(field: FieldSpec, m: LinearMorphism):
    """Invertible S (rows) and T (cols) with S @ M @ T = [[I_r, 0], [0, 0]]."""
    n_rows, n_cols = m.codomain.dim, m.domain.dim
    a = [list(r) for r in m.entries]
    s = [list(r) for r in _identity_rows(field, n_rows)]
    t = [list(r) for r in _identity_rows(field, n_cols)]
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
    # Columns of the reduced matrix: pivots hold a single 1; clear the rest
    # with column operations, then permute pivot columns to the front.
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
    a = [[row[j] for j in order] for row in a]
    t = [[row[j] for j in order] for row in t]
    return tuple(tuple(row) for row in s), tuple(tuple(row) for row in t)


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
        return LinearMorphism(obj, obj, _identity_rows(obj.field, obj.dim))

    def product_object(self, a: VectObject, b: VectObject):
        if a.field != b.field:
            raise CategoryMismatch("cannot pair spaces over different fields")
        field = a.field
        prod = VectObject(a.dim + b.dim, field)
        zero, one = field.zero(), field.one()
        p1 = LinearMorphism(
            prod, a,
            tuple(tuple(one if j == i else zero for j in range(prod.dim)) for i in range(a.dim)),
        )
        p2 = LinearMorphism(
            prod, b,
            tuple(
                tuple(one if j == a.dim + i else zero for j in range(prod.dim))
                for i in range(b.dim)
            ),
        )
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
            rows = tuple(tuple(self._random_scalar(rng, field) for _ in range(n)) for _ in range(n))
            inv = _inverse(field, rows)
            if inv is not None:
                fwd = LinearMorphism(obj, obj, rows)
                return IsoWitness(fwd, LinearMorphism(obj, obj, inv))

    # -- sections -----------------------------------------------------
    def section_exists(self, f, g) -> bool:
        return section_exists_linear(f, g)

    def section_search(self, f, g, budget: int = 1_000_000) -> bool:
        field = f.field
        if not field.char:
            raise SearchBudgetExceeded("rational section space is infinite")
        b, c = g.domain.dim, g.codomain.dim
        count = field.char ** (b * c)
        if count > budget:
            raise SearchBudgetExceeded(f"{count} candidate sections exceed budget {budget}")
        gf_rows = _matmul(field, g.entries, f.entries, f.domain.dim)
        for flat in iter_product(range(field.char), repeat=b * c):
            rows = tuple(flat[i * c:(i + 1) * c] for i in range(b))
            if _matmul(field, rows, gf_rows, f.domain.dim) == f.entries:
                return True
        return False

    # -- corpus -------------------------------------------------------
    @staticmethod
    def _limit_field(limits: Limits) -> FieldSpec:
        return limits.field if limits.field is not None else GF2

    def exhaustive_objects(self, limits: Limits) -> Iterator[VectObject]:
        field = self._limit_field(limits)
        for n in range(0, limits.max_size + 1):
            yield VectObject(n, field)

    def exhaustive_morphisms(self, limits: Limits) -> Iterator[LinearMorphism]:
        field = self._limit_field(limits)
        if not field.char:
            raise EnumerationBudgetExceeded("rational matrices cannot be enumerated")
        for cols in range(0, limits.max_size + 1):
            for rows_n in range(0, limits.max_size + 1):
                dom, cod = VectObject(cols, field), VectObject(rows_n, field)
                for flat in iter_product(range(field.char), repeat=rows_n * cols):
                    entries = tuple(flat[i * cols:(i + 1) * cols] for i in range(rows_n))
                    yield LinearMorphism(dom, cod, entries)

    def exhaustive_morphisms_from(self, obj: VectObject, limits: Limits) -> Iterator[LinearMorphism]:
        field = obj.field
        if not field.char:
            raise EnumerationBudgetExceeded("rational matrices cannot be enumerated")
        cols = obj.dim
        for rows_n in range(0, limits.max_size + 1):
            cod = VectObject(rows_n, field)
            for flat in iter_product(range(field.char), repeat=rows_n * cols):
                entries = tuple(flat[i * cols:(i + 1) * cols] for i in range(rows_n))
                yield LinearMorphism(obj, cod, entries)

    @staticmethod
    def _random_scalar(rng, field: FieldSpec):
        if field.char:
            return rng.randbelow(field.char)
        return Fraction(rng.randint(-4, 4), rng.randint(1, 4))

    def random_object(self, rng, limits: Limits) -> VectObject:
        return VectObject(rng.randint(0, limits.max_size), self._limit_field(limits))

    def random_morphism(self, rng, limits: Limits) -> LinearMorphism:
        return self.random_morphism_from(rng, self.random_object(rng, limits), limits)

    def random_morphism_from(self, rng, obj: VectObject, limits: Limits) -> LinearMorphism:
        field = obj.field
        rows_n = rng.randint(0, limits.max_size)
        entries = tuple(
            tuple(self._random_scalar(rng, field) for _ in range(obj.dim)) for _ in range(rows_n)
        )
        return LinearMorphism(obj, VectObject(rows_n, field), entries)

    # -- serialization --------------------------------------------------
    def object_to_json(self, obj: VectObject) -> dict:
        return {"dim": obj.dim, "field": obj.field.name}

    def object_from_json(self, data: dict) -> VectObject:
        return VectObject(int(data["dim"]), parse_field(data["field"]))

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
        entries = tuple(
            tuple(field.element(v if field.char else Fraction(v)) for v in row)
            for row in payload["entries"]
        )
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
