"""Noisy discrete communication systems.

An object bundles a noise space M with a message set A via a surjective
assignment pi; a morphism is any map of the top (noise) spaces, with no
compatibility demanded between the two message assignments.  Under the
uniform distribution on M the morphism induces a joint law on message
pairs (sent, received); its mutual information is the measure of record
here, and the induced conditional law P(received | sent) feeds the
capacity solver.  The point arithmetic on noise spaces (composition,
the row-major products, sections, random maps and the random surjective
pi) is infocat.pointmap's; this module adds the objects, the
pi-compatible isomorphism search and the measures.

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

from . import pointmap
from .capacity import CapacityResult, Channel, blahut_arimoto
from .config import log
from .core import (
    UNDEFINED,
    ArrowIso,
    CategoryId,
    IsoWitness,
    Limits,
    int_from_json,
    ints_from_json,
    register,
)
from .errors import DomainMismatch, InvalidMorphism, InvalidObject, SearchBudgetExceeded
from .exact import LogVal
from .measures import InfoMeasure, register_measure
from .pointmap import PointMapCategory


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


class NoisyFinSetCategory(PointMapCategory):
    """Isomorphisms here are taken to be structure-preserving pairs of
    bijections (one on the noise space, one on the messages, commuting
    with pi).  Bare bijections of noise spaces would identify systems
    with unrelated message assignments, making every measure that reads
    pi ill-defined on the resulting classes.  Sections are unconstrained
    top maps, so the plain point-map criterion decides them."""

    id = CategoryId.NOISY_FINSET
    morphism = NoisyMorphism

    @staticmethod
    def points(obj: NoisyObject) -> int:
        return obj.m_size

    def product_space(self, x: NoisyObject, y: NoisyObject) -> NoisyObject:
        return NoisyObject(
            x.m_size * y.m_size, x.a_size * y.a_size, pointmap.external(x.pi, y.pi, y.a_size)
        )

    def relabeled(self, rng, obj: NoisyObject, perm) -> NoisyObject:
        # Messages are relabelled too: pi moves to sigma_a . pi . perm^-1.
        sigma_a = pointmap.random_permutation(rng, obj.a_size)
        pi = pointmap.compose(sigma_a, pointmap.compose(obj.pi, pointmap.invert(perm)))
        return NoisyObject(obj.m_size, obj.a_size, pi)

    def terminal_object(self) -> NoisyObject:
        return NoisyObject(1, 1, (0,))

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
                    return ArrowIso(
                        IsoWitness(
                            NoisyMorphism(f.domain, g.domain, sig_m),
                            NoisyMorphism(g.domain, f.domain, pointmap.invert(sig_m)),
                        ),
                        IsoWitness(
                            NoisyMorphism(f.codomain, g.codomain, tau_m),
                            NoisyMorphism(g.codomain, f.codomain, pointmap.invert(tau_m)),
                        ),
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

    # -- corpus -------------------------------------------------------
    def exhaustive_objects(self, limits: Limits) -> Iterator[NoisyObject]:
        for m in range(1, limits.max_size + 1):
            for a in range(1, m + 1):
                for pi in pointmap.maps(m, a):
                    if len(set(pi)) == a:
                        yield NoisyObject(m, a, pi)

    def exhaustive_morphisms(self, limits: Limits) -> Iterator[NoisyMorphism]:
        objects = list(self.exhaustive_objects(limits))
        for dom in objects:
            for cod in objects:
                for mapping in pointmap.maps(dom.m_size, cod.m_size):
                    if limits.measure_compatible and not equal_fibers(mapping, cod.m_size):
                        continue
                    yield NoisyMorphism(dom, cod, mapping)

    def exhaustive_morphisms_from(self, obj: NoisyObject, limits: Limits) -> Iterator[NoisyMorphism]:
        for cod in self.exhaustive_objects(limits):
            for mapping in pointmap.maps(obj.m_size, cod.m_size):
                if limits.measure_compatible and not equal_fibers(mapping, cod.m_size):
                    continue
                yield NoisyMorphism(obj, cod, mapping)

    def random_object(self, rng, limits: Limits) -> NoisyObject:
        return self._random_object_of_size(rng, rng.randint(1, limits.max_size))

    def random_morphism_from(self, rng, obj: NoisyObject, limits: Limits) -> NoisyMorphism:
        if limits.measure_compatible:
            divisors = [n for n in range(1, obj.m_size + 1) if obj.m_size % n == 0]
            n = divisors[rng.randbelow(len(divisors))]
            cod = self._random_object_of_size(rng, n)
            block = obj.m_size // n
            slots = pointmap.random_permutation(rng, obj.m_size)
            mapping = [0] * obj.m_size
            for i, slot in enumerate(slots):
                mapping[slot] = i // block
            return NoisyMorphism(obj, cod, tuple(mapping))
        cod = self.random_object(rng, limits)
        return NoisyMorphism(obj, cod, pointmap.random_map(rng, obj.m_size, cod.m_size))

    @staticmethod
    def _random_object_of_size(rng, m: int) -> NoisyObject:
        a, pi = pointmap.random_pi(rng, m)
        return NoisyObject(m, a, pi)

    # -- serialization --------------------------------------------------
    def object_to_json(self, obj: NoisyObject) -> dict:
        return {"m": obj.m_size, "a": obj.a_size, "pi": list(obj.pi)}

    def object_from_json(self, data: dict) -> NoisyObject:
        return NoisyObject(
            int_from_json(data["m"], "m"),
            int_from_json(data["a"], "a"),
            ints_from_json(data["pi"], "pi", InvalidObject),
        )


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
