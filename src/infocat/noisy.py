"""Noisy discrete communication systems.

An object bundles a noise space M with a message set A via a surjective
assignment pi; a morphism is any map of the top (noise) spaces, with no
compatibility demanded between the two message assignments.  Under the
uniform distribution on M the morphism induces a joint law on message
pairs (sent, received); its mutual information is the measure of record
here, and the induced conditional law P(received | sent) feeds the
capacity solver.

A separately published closed form for that mutual information is also
evaluated (closed_form_ni); it disagrees with the definition on easy
examples, so it is reported for discrepancy tracking and never used in
place of the definitional value.

Every measure here reads only the integer joint count table
(_joint_counts): the float values divide integers directly, and the
exact value is one pass over prime exponents.  The one cache is _solve,
a bounded lru_cache of Blahut-Arimoto results keyed on (channel, eps):
many morphisms share a channel, and a solve depends on nothing else.
It keeps the solver's result, not just its value, so a solve that
stopped at max_iters reads as UNDEFINED on every call, cached or not.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations, product as iter_product
from typing import Iterator

from .capacity import CapacityResult, Channel, blahut_arimoto
from .config import log
from .core import (
    UNDEFINED,
    ArrowIso,
    Category,
    CategoryId,
    IsoWitness,
    Limits,
    int_from_json,
    ints_from_json,
    register,
)
from .errors import (
    DomainMismatch,
    InvalidMorphism,
    InvalidObject,
    ObjectMismatch,
    SearchBudgetExceeded,
)
from .exact import LogVal
from .measures import InfoMeasure, register_measure


@dataclass(frozen=True, slots=True)
class NoisyObject:
    """Noise space of size m_size over a_size messages, linked by pi."""

    m_size: int
    a_size: int
    pi: tuple[int, ...]

    def __post_init__(self):
        if not 1 <= self.a_size <= self.m_size:
            raise InvalidObject(
                f"need m_size >= a_size >= 1, got ({self.m_size}, {self.a_size})"
            )
        if len(self.pi) != self.m_size:
            raise InvalidObject(f"pi has length {len(self.pi)}, expected {self.m_size}")
        hit = set()
        for v in self.pi:
            if not 0 <= v < self.a_size:
                raise InvalidObject(f"pi value {v} outside 0..{self.a_size - 1}")
            hit.add(v)
        if len(hit) != self.a_size:
            raise InvalidObject("pi must reach every message")

    def fiber_sizes(self) -> tuple[int, ...]:
        counts = Counter(self.pi)
        return tuple(counts[a] for a in range(self.a_size))


@dataclass(frozen=True, slots=True)
class NoisyMorphism:
    domain: NoisyObject
    codomain: NoisyObject
    mapping: tuple[int, ...]

    def __post_init__(self):
        if len(self.mapping) != self.domain.m_size:
            raise InvalidMorphism(
                f"mapping length {len(self.mapping)} != source size {self.domain.m_size}"
            )
        for v in self.mapping:
            if not 0 <= v < self.codomain.m_size:
                raise InvalidMorphism(f"mapping value {v} outside target noise space")

    @property
    def category(self) -> CategoryId:
        return CategoryId.NOISY_FINSET


def _joint_counts(f: NoisyMorphism) -> list[list[int]]:
    """c[a][b] = number of noise points sent as a and received as b."""
    dom, cod = f.domain, f.codomain
    c = [[0] * cod.a_size for _ in range(dom.a_size)]
    for m in range(dom.m_size):
        c[dom.pi[m]][cod.pi[f.mapping[m]]] += 1
    return c


def _marginals(c: list[list[int]]) -> tuple[list[int], list[int]]:
    """Row sums (sent) and column sums (received) of a joint count table."""
    return [sum(r) for r in c], [sum(col) for col in zip(*c)]


def noisy_information(f: NoisyMorphism) -> float:
    """Mutual information between sent and received message, in bits
    (or nats under the global base), with M uniform.

    Each ratio is an int/int true division, which CPython rounds
    correctly, so it is the same float that float(Fraction(...)) gives."""
    c = _joint_counts(f)
    m = f.domain.m_size
    row, col = _marginals(c)
    total = 0.0
    for a, r in enumerate(c):
        for b, n_ab in enumerate(r):
            if n_ab:
                total += (n_ab / m) * log(n_ab * m / (row[a] * col[b]))
    return max(total, 0.0)


def noisy_information_exact(f: NoisyMorphism) -> LogVal:
    """The same value exactly, from the identity
    I = (1/m) (sum n log n + m log m - sum r log r - sum c log c)
    over the cells n, the row sums r and the nonzero column sums c."""
    c = _joint_counts(f)
    m = f.domain.m_size
    row, col = _marginals(c)
    terms = [(n, n) for r in c for n in r if n]
    terms.append((m, m))
    terms.extend((-k, k) for k in row)
    terms.extend((-k, k) for k in col if k)
    return LogVal.from_weighted_logs(terms, m)


def closed_form_ni(f: NoisyMorphism) -> float:
    """A published closed form for the noisy information, reproduced
    exactly as displayed: (1/|M|) sum |M_a ∩ M_b| log(|M_a ∩ M_b| / |M_b|)
    minus 2|A| log|A|.

    The subtracted term is dimensionally inconsistent with a mutual
    information (it scales with |A| rather than a probability), and the
    value disagrees with noisy_information on noiseless systems.  Kept
    verbatim for discrepancy reporting; never substituted for the
    definitional value.
    """
    c = _joint_counts(f)
    m = f.domain.m_size
    _, col = _marginals(c)
    acc = 0.0
    for r in c:
        for b, n_ab in enumerate(r):
            if n_ab:
                acc += n_ab * log(n_ab / col[b])
    a_size = f.domain.a_size
    return acc / m - 2.0 * a_size * log(a_size)


def channel_of(f: NoisyMorphism) -> Channel:
    """Conditional law P(received b | sent a).  Each entry is the correctly
    rounded int/int quotient n_ab / |fiber of a|, so every row is the
    float image of an exactly stochastic rational row."""
    rows = []
    for r in _joint_counts(f):
        fiber = sum(r)
        rows.append(tuple(n_ab / fiber for n_ab in r))
    return Channel(tuple(rows))


@lru_cache(maxsize=4096)
def _solve(channel: Channel, eps: float) -> CapacityResult:
    # Audits and replays meet few distinct channels many times over: the
    # random-noisy benchmark's capacity audit (100 trials, size <= 4) and
    # its replays at seed 0 ask for 5,450 solves of 455 channels.
    return blahut_arimoto(channel, eps=eps)


def noisy_capacity(f: NoisyMorphism, eps: float = 1e-9):
    """Capacity of channel_of(f) in bits, or UNDEFINED when the solver
    stopped at its iteration cap: the 2e-9 slack only covers a gap the
    solver closed."""
    result = _solve(channel_of(f), eps)
    return result.capacity if result.converged else UNDEFINED


def equal_fibers(mapping: tuple[int, ...], target_size: int) -> bool:
    """Whether the map hits every target point the same number of times,
    so the uniform law pushes forward to uniform."""
    if len(mapping) % target_size:
        return False
    want = len(mapping) // target_size
    counts = Counter(mapping)
    return all(counts[n] == want for n in range(target_size))


def _pi_compatible_bijections(x: NoisyObject, y: NoisyObject, budget: int):
    """Yield (sigma_m, sigma_a) bijection pairs with pi_y(sigma_m(m)) =
    sigma_a(pi_x(m)); raises when the candidate count passes the budget."""
    if (x.m_size, x.a_size) != (y.m_size, y.a_size):
        return
    fibers_x = [[m for m in range(x.m_size) if x.pi[m] == a] for a in range(x.a_size)]
    fibers_y = [[m for m in range(y.m_size) if y.pi[m] == a] for a in range(y.a_size)]
    seen = 0
    for sigma_a in permutations(range(x.a_size)):
        if any(len(fibers_x[a]) != len(fibers_y[sigma_a[a]]) for a in range(x.a_size)):
            continue
        pools = [permutations(fibers_y[sigma_a[a]]) for a in range(x.a_size)]
        for combo in iter_product(*pools):
            seen += 1
            if seen > budget:
                raise SearchBudgetExceeded(
                    f"structured bijection search passed {budget} candidates"
                )
            sigma_m = [0] * x.m_size
            for a in range(x.a_size):
                for src, dst in zip(fibers_x[a], combo[a]):
                    sigma_m[src] = dst
            yield tuple(sigma_m), sigma_a


class NoisyFinSetCategory(Category):
    """Isomorphisms here are taken to be structure-preserving pairs of
    bijections (one on the noise space, one on the messages, commuting
    with pi).  Bare bijections of noise spaces would identify systems
    with unrelated message assignments, making every measure that reads
    pi ill-defined on the resulting classes."""

    id = CategoryId.NOISY_FINSET

    # -- structure ----------------------------------------------------
    def compose(self, g: NoisyMorphism, f: NoisyMorphism) -> NoisyMorphism:
        if f.codomain != g.domain:
            raise ObjectMismatch("cannot compose: middle systems differ")
        return NoisyMorphism(f.domain, g.codomain, tuple(g.mapping[v] for v in f.mapping))

    def identity(self, obj: NoisyObject) -> NoisyMorphism:
        return NoisyMorphism(obj, obj, tuple(range(obj.m_size)))

    @staticmethod
    def _product_space(x: NoisyObject, y: NoisyObject) -> NoisyObject:
        """The product object alone; the products of morphisms need no
        projections."""
        pi = tuple(
            x.pi[i] * y.a_size + y.pi[j] for i in range(x.m_size) for j in range(y.m_size)
        )
        return NoisyObject(x.m_size * y.m_size, x.a_size * y.a_size, pi)

    def product_object(self, x: NoisyObject, y: NoisyObject):
        prod = self._product_space(x, y)
        m = prod.m_size
        p1 = NoisyMorphism(prod, x, tuple(i // y.m_size for i in range(m)))
        p2 = NoisyMorphism(prod, y, tuple(i % y.m_size for i in range(m)))
        return prod, p1, p2

    def external_product(self, f: NoisyMorphism, g: NoisyMorphism) -> NoisyMorphism:
        dom = self._product_space(f.domain, g.domain)
        cod = self._product_space(f.codomain, g.codomain)
        n2 = g.codomain.m_size
        mapping = tuple(
            f.mapping[i] * n2 + g.mapping[j]
            for i in range(f.domain.m_size)
            for j in range(g.domain.m_size)
        )
        return NoisyMorphism(dom, cod, mapping)

    def internal_product(self, f: NoisyMorphism, g: NoisyMorphism) -> NoisyMorphism:
        if f.domain != g.domain:
            raise DomainMismatch("internal product needs a shared source")
        cod = self._product_space(f.codomain, g.codomain)
        n2 = g.codomain.m_size
        mapping = tuple(
            f.mapping[m] * n2 + g.mapping[m] for m in range(f.domain.m_size)
        )
        return NoisyMorphism(f.domain, cod, mapping)

    def terminal_object(self) -> NoisyObject:
        return NoisyObject(1, 1, (0,))

    def unique_to_terminal(self, obj: NoisyObject) -> NoisyMorphism:
        return NoisyMorphism(obj, self.terminal_object(), (0,) * obj.m_size)

    # -- isomorphism --------------------------------------------------
    @staticmethod
    def _object_class(obj: NoisyObject):
        return (obj.m_size, obj.a_size, tuple(sorted(obj.fiber_sizes())))

    def iso_invariant(self, f: NoisyMorphism):
        joint = _joint_counts(f)
        canon = tuple(sorted(tuple(sorted(row)) for row in joint))
        return (
            self._object_class(f.domain),
            self._object_class(f.codomain),
            tuple(sorted(Counter(f.mapping).values())),
            canon,
        )

    def arrow_iso(self, f: NoisyMorphism, g: NoisyMorphism, budget: int = 100_000):
        if self.iso_invariant(f) != self.iso_invariant(g):
            return None
        if f == g:
            ident_d = self.identity(f.domain)
            ident_c = self.identity(f.codomain)
            return ArrowIso(IsoWitness(ident_d, ident_d), IsoWitness(ident_c, ident_c))
        for sig_m, _ in _pi_compatible_bijections(f.domain, g.domain, budget):
            # sigma on the target is pinned on the image of f; any
            # pi-compatible completion works, so search those too.
            want = {}
            ok = True
            for m in range(f.domain.m_size):
                n_f, n_g = f.mapping[m], g.mapping[sig_m[m]]
                if want.setdefault(n_f, n_g) != n_g:
                    ok = False
                    break
            if not ok or len(set(want.values())) != len(want):
                continue
            for tau_m, _ in _pi_compatible_bijections(f.codomain, g.codomain, budget):
                if all(tau_m[n] == want[n] for n in want):
                    alpha = NoisyMorphism(f.domain, g.domain, tuple(sig_m))
                    beta = NoisyMorphism(f.codomain, g.codomain, tuple(tau_m))
                    inv_a = [0] * len(sig_m)
                    for i, v in enumerate(sig_m):
                        inv_a[v] = i
                    inv_b = [0] * len(tau_m)
                    for i, v in enumerate(tau_m):
                        inv_b[v] = i
                    return ArrowIso(
                        IsoWitness(alpha, NoisyMorphism(g.domain, f.domain, tuple(inv_a))),
                        IsoWitness(beta, NoisyMorphism(g.codomain, f.codomain, tuple(inv_b))),
                    )
        return None

    def coslice_iso(self, p: NoisyMorphism, q: NoisyMorphism, budget: int = 100_000) -> bool:
        if p.domain != q.domain:
            raise DomainMismatch("coslice comparison needs a shared source")
        if p == q:
            return True
        # Need a structured bijection of the targets carrying p to q;
        # it is pinned on the image of p, free elsewhere.
        for tau_m, _ in _pi_compatible_bijections(p.codomain, q.codomain, budget):
            if all(tau_m[p.mapping[m]] == q.mapping[m] for m in range(p.domain.m_size)):
                return True
        return False

    def random_iso_out(self, rng, obj: NoisyObject) -> IsoWitness:
        sigma_m = list(range(obj.m_size))
        rng.shuffle(sigma_m)
        sigma_a = list(range(obj.a_size))
        rng.shuffle(sigma_a)
        pi_new = [0] * obj.m_size
        for m in range(obj.m_size):
            pi_new[sigma_m[m]] = sigma_a[obj.pi[m]]
        target = NoisyObject(obj.m_size, obj.a_size, tuple(pi_new))
        inv = [0] * obj.m_size
        for i, v in enumerate(sigma_m):
            inv[v] = i
        return IsoWitness(
            NoisyMorphism(obj, target, tuple(sigma_m)),
            NoisyMorphism(target, obj, tuple(inv)),
        )

    # -- sections -----------------------------------------------------
    def section_exists(self, f: NoisyMorphism, g: NoisyMorphism) -> bool:
        if f.codomain != g.domain:
            raise ObjectMismatch("section test needs composable f then g")
        # Sections are unconstrained top maps, so the criterion is the
        # plain one: g must not merge any two points of the image of f.
        seen: dict[int, int] = {}
        for v in f.mapping:
            if seen.setdefault(g.mapping[v], v) != v:
                return False
        return True

    def section_search(self, f: NoisyMorphism, g: NoisyMorphism, budget: int = 1_000_000) -> bool:
        if f.codomain != g.domain:
            raise ObjectMismatch("section test needs composable f then g")
        b, c = g.domain.m_size, g.codomain.m_size
        if b ** c > budget:
            raise SearchBudgetExceeded(f"{b ** c} candidate sections exceed budget {budget}")
        gf = tuple(g.mapping[v] for v in f.mapping)
        for s in iter_product(range(b), repeat=c):
            if all(s[gf[m]] == f.mapping[m] for m in range(len(gf))):
                return True
        return False

    # -- corpus -------------------------------------------------------
    def exhaustive_objects(self, limits: Limits) -> Iterator[NoisyObject]:
        for m in range(1, limits.max_size + 1):
            for a in range(1, m + 1):
                for pi in iter_product(range(a), repeat=m):
                    if len(set(pi)) == a:
                        yield NoisyObject(m, a, pi)

    def exhaustive_morphisms(self, limits: Limits) -> Iterator[NoisyMorphism]:
        objects = list(self.exhaustive_objects(limits))
        for dom in objects:
            for cod in objects:
                for mapping in iter_product(range(cod.m_size), repeat=dom.m_size):
                    if limits.measure_compatible and not equal_fibers(mapping, cod.m_size):
                        continue
                    yield NoisyMorphism(dom, cod, mapping)

    def exhaustive_morphisms_from(self, obj: NoisyObject, limits: Limits) -> Iterator[NoisyMorphism]:
        for cod in self.exhaustive_objects(limits):
            for mapping in iter_product(range(cod.m_size), repeat=obj.m_size):
                if limits.measure_compatible and not equal_fibers(mapping, cod.m_size):
                    continue
                yield NoisyMorphism(obj, cod, mapping)

    def random_object(self, rng, limits: Limits) -> NoisyObject:
        m = rng.randint(1, limits.max_size)
        a = rng.randint(1, m)
        slots = list(range(m))
        rng.shuffle(slots)
        pi = [0] * m
        for msg in range(a):
            pi[slots[msg]] = msg
        for extra in slots[a:]:
            pi[extra] = rng.randbelow(a)
        return NoisyObject(m, a, tuple(pi))

    def random_morphism(self, rng, limits: Limits) -> NoisyMorphism:
        return self.random_morphism_from(rng, self.random_object(rng, limits), limits)

    def random_morphism_from(self, rng, obj: NoisyObject, limits: Limits) -> NoisyMorphism:
        if limits.measure_compatible:
            divisors = [n for n in range(1, obj.m_size + 1) if obj.m_size % n == 0]
            n = divisors[rng.randbelow(len(divisors))]
            cod = self._random_object_of_size(rng, n)
            block = obj.m_size // n
            slots = list(range(obj.m_size))
            rng.shuffle(slots)
            mapping = [0] * obj.m_size
            for i, slot in enumerate(slots):
                mapping[slot] = i // block
            return NoisyMorphism(obj, cod, tuple(mapping))
        cod = self.random_object(rng, limits)
        mapping = tuple(rng.randbelow(cod.m_size) for _ in range(obj.m_size))
        return NoisyMorphism(obj, cod, mapping)

    def _random_object_of_size(self, rng, m: int) -> NoisyObject:
        a = rng.randint(1, m)
        slots = list(range(m))
        rng.shuffle(slots)
        pi = [0] * m
        for msg in range(a):
            pi[slots[msg]] = msg
        for extra in slots[a:]:
            pi[extra] = rng.randbelow(a)
        return NoisyObject(m, a, tuple(pi))

    # -- serialization --------------------------------------------------
    def object_to_json(self, obj: NoisyObject) -> dict:
        return {"m": obj.m_size, "a": obj.a_size, "pi": list(obj.pi)}

    def object_from_json(self, data: dict) -> NoisyObject:
        return NoisyObject(
            int_from_json(data["m"], "m"),
            int_from_json(data["a"], "a"),
            ints_from_json(data["pi"], "pi", InvalidObject),
        )

    def payload_to_json(self, m: NoisyMorphism) -> dict:
        return {"map": list(m.mapping)}

    def morphism_from_json(self, domain, codomain, payload: dict) -> NoisyMorphism:
        return NoisyMorphism(domain, codomain, ints_from_json(payload["map"], "map"))


NOISY_FINSET = register(NoisyFinSetCategory())

register_measure(
    InfoMeasure(
        "noisy_information",
        CategoryId.NOISY_FINSET,
        noisy_information,
        noisy_information_exact,
    )
)
# Capacity carries solver error up to eps on each side of a comparison.
register_measure(
    InfoMeasure("capacity", CategoryId.NOISY_FINSET, noisy_capacity, None, slack=2e-9)
)
