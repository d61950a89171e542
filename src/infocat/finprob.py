"""Finite probability spaces with exact rational weights.

Morphisms are point maps that push the source measure forward onto the
target measure exactly ("backwards measure preserving": the preimage of
every event carries the event's mass).  The plain category has no
information measure of its own; it exists to host the noisy variant,
where a system is a triangle of such maps and the measure is the mutual
information between sent and received messages computed from exact
joint masses.  Internal products here are not guaranteed to exist: the
canonical pairing is a valid morphism only when the two legs push
forward independently, and callers receive UNDEFINED otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations, product as iter_product
from typing import Iterator, Sequence

from .capacity import blahut_arimoto
from .config import log
from .core import (
    UNDEFINED,
    ArrowIso,
    Category,
    CategoryId,
    IsoWitness,
    Limits,
    dict_from_json,
    int_from_json,
    ints_from_json,
    rationals_from_json,
    register,
)
from .errors import (
    DomainMismatch,
    EnumerationBudgetExceeded,
    InvalidMorphism,
    InvalidObject,
    ObjectMismatch,
    SearchBudgetExceeded,
    ZeroMassFiber,
)
from .exact import LogVal
from .measures import InfoMeasure, register_measure
from .noisy import NoisyMorphism


@dataclass(frozen=True, slots=True)
class FinProbObject:
    size: int
    weights: tuple[Fraction, ...]

    def __post_init__(self):
        if self.size < 1:
            raise InvalidObject("probability space needs at least one point")
        if len(self.weights) != self.size:
            raise InvalidObject(
                f"{len(self.weights)} weights for {self.size} points"
            )
        if any(w < 0 for w in self.weights):
            raise InvalidObject("weights must be nonnegative")
        if sum(self.weights) != 1:
            raise InvalidObject(f"weights sum to {sum(self.weights)}, not 1")


def check_bmp(mapping: Sequence[int], mu: Sequence[Fraction], nu: Sequence[Fraction]) -> bool:
    """Exact test that the map pushes mu forward onto nu."""
    fiber_mass = [Fraction(0)] * len(nu)
    for x, y in enumerate(mapping):
        fiber_mass[y] += mu[x]
    return fiber_mass == list(nu)


@dataclass(frozen=True, slots=True)
class FinProbMorphism:
    domain: FinProbObject
    codomain: FinProbObject
    mapping: tuple[int, ...]

    def __post_init__(self):
        if len(self.mapping) != self.domain.size:
            raise InvalidMorphism(
                f"mapping length {len(self.mapping)} != domain size {self.domain.size}"
            )
        if any(not 0 <= v < self.codomain.size for v in self.mapping):
            raise InvalidMorphism("mapping value outside codomain")
        if not check_bmp(self.mapping, self.domain.weights, self.codomain.weights):
            raise InvalidMorphism("map does not push the measure onto the target")

    @property
    def category(self) -> CategoryId:
        return CategoryId.FINPROB


def pushforward(domain: FinProbObject, mapping: Sequence[int], size: int) -> FinProbObject:
    """Target space induced by a point map; always yields a valid morphism."""
    weights = [Fraction(0)] * size
    for x, y in enumerate(mapping):
        weights[y] += domain.weights[x]
    return FinProbObject(size, tuple(weights))


@dataclass(frozen=True, slots=True)
class NoisyProbObject:
    """Triangle (noise space, message space, assignment pi)."""

    noise: FinProbObject
    message: FinProbObject
    pi: tuple[int, ...]

    def __post_init__(self):
        probe = FinProbMorphism(self.noise, self.message, self.pi)
        if len(set(probe.mapping)) != self.message.size:
            raise InvalidObject("pi must reach every message")


@dataclass(frozen=True, slots=True)
class NoisyProbMorphism:
    domain: NoisyProbObject
    codomain: NoisyProbObject
    mapping: tuple[int, ...]

    def __post_init__(self):
        # Validates length, range, and the measure-pushforward condition.
        FinProbMorphism(self.domain.noise, self.codomain.noise, self.mapping)

    @property
    def category(self) -> CategoryId:
        return CategoryId.NOISY_FINPROB

    def top(self) -> FinProbMorphism:
        return FinProbMorphism(self.domain.noise, self.codomain.noise, self.mapping)


def _joint_masses(f: NoisyProbMorphism) -> list[list[Fraction]]:
    """rho[a][b] = mass of noise points sent as a and received as b."""
    src, tgt = f.domain, f.codomain
    rho = [[Fraction(0)] * tgt.message.size for _ in range(src.message.size)]
    for m in range(src.noise.size):
        rho[src.pi[m]][tgt.pi[f.mapping[m]]] += src.noise.weights[m]
    return rho


def continuous_noisy_information(f: NoisyProbMorphism):
    """Mutual information between sent and received message under the
    source measure; UNDEFINED when the joint mass is not absolutely
    continuous against the product of the marginals (impossible for
    valid morphisms, where the marginals are exactly the message
    weights, but kept as a guard)."""
    rho = _joint_masses(f)
    alpha = f.domain.message.weights
    beta = f.codomain.message.weights
    total = 0.0
    for a, row in enumerate(rho):
        for b, mass in enumerate(row):
            if mass:
                if alpha[a] == 0 or beta[b] == 0:
                    return UNDEFINED
                total += float(mass) * log(mass / (alpha[a] * beta[b]))
    return max(total, 0.0)


def continuous_noisy_information_exact(f: NoisyProbMorphism):
    rho = _joint_masses(f)
    alpha = f.domain.message.weights
    beta = f.codomain.message.weights
    total = LogVal.zero()
    for a, row in enumerate(rho):
        for b, mass in enumerate(row):
            if mass:
                if alpha[a] == 0 or beta[b] == 0:
                    return None
                total = total + LogVal.log_of(mass / (alpha[a] * beta[b]), mass)
    return total


def continuous_capacity(f: NoisyProbMorphism, eps: float = 1e-9):
    """Capacity of the induced conditional law P(b | a) = rho(a,b)/alpha(a),
    or UNDEFINED when the solver stopped at its iteration cap.  The solver
    renormalizes raw rows but not a Channel, so this path keeps raw rows
    and does not share noisy_capacity's cache."""
    rho = _joint_masses(f)
    alpha = f.domain.message.weights
    rows = []
    for a, row in enumerate(rho):
        if alpha[a] == 0:
            raise ZeroMassFiber(f"message {a} has zero mass")
        rows.append([float(mass / alpha[a]) for mass in row])
    result = blahut_arimoto(rows, eps=eps)
    return result.capacity if result.converged else UNDEFINED


def from_noisy_finset(f: NoisyMorphism) -> NoisyProbMorphism:
    """Embed a counting-measure system: uniform mass on the noise space,
    all other weights pushed forward."""
    dom, cod = f.domain, f.codomain
    mu = FinProbObject(dom.m_size, (Fraction(1, dom.m_size),) * dom.m_size)
    source = NoisyProbObject(mu, pushforward(mu, dom.pi, dom.a_size), dom.pi)
    nu = pushforward(mu, f.mapping, cod.m_size)
    target = NoisyProbObject(nu, pushforward(nu, cod.pi, cod.a_size), cod.pi)
    return NoisyProbMorphism(source, target, f.mapping)


class FinProbCategory(Category):
    id = CategoryId.FINPROB

    # -- structure ----------------------------------------------------
    def compose(self, g: FinProbMorphism, f: FinProbMorphism) -> FinProbMorphism:
        if f.codomain != g.domain:
            raise ObjectMismatch("cannot compose: middle spaces differ")
        return FinProbMorphism(
            f.domain, g.codomain, tuple(g.mapping[v] for v in f.mapping)
        )

    def identity(self, obj: FinProbObject) -> FinProbMorphism:
        return FinProbMorphism(obj, obj, tuple(range(obj.size)))

    @staticmethod
    def _product_space(x: FinProbObject, y: FinProbObject) -> FinProbObject:
        """The product object alone; the products of morphisms need no
        projections."""
        weights = tuple(
            x.weights[i] * y.weights[j] for i in range(x.size) for j in range(y.size)
        )
        return FinProbObject(x.size * y.size, weights)

    def product_object(self, x: FinProbObject, y: FinProbObject):
        prod = self._product_space(x, y)
        size = prod.size
        p1 = FinProbMorphism(prod, x, tuple(i // y.size for i in range(size)))
        p2 = FinProbMorphism(prod, y, tuple(i % y.size for i in range(size)))
        return prod, p1, p2

    def external_product(self, f: FinProbMorphism, g: FinProbMorphism) -> FinProbMorphism:
        dom = self._product_space(f.domain, g.domain)
        cod = self._product_space(f.codomain, g.codomain)
        n2 = g.codomain.size
        mapping = tuple(
            f.mapping[i] * n2 + g.mapping[j]
            for i in range(f.domain.size)
            for j in range(g.domain.size)
        )
        return FinProbMorphism(dom, cod, mapping)

    def internal_product(self, f: FinProbMorphism, g: FinProbMorphism):
        if f.domain != g.domain:
            raise DomainMismatch("internal product needs a shared source")
        cod = self._product_space(f.codomain, g.codomain)
        n2 = g.codomain.size
        mapping = tuple(
            f.mapping[m] * n2 + g.mapping[m] for m in range(f.domain.size)
        )
        # The pairing is a morphism only when the legs push forward
        # independently; otherwise the product does not exist here.
        if not check_bmp(mapping, f.domain.weights, cod.weights):
            return UNDEFINED
        return FinProbMorphism(f.domain, cod, mapping)

    def terminal_object(self) -> FinProbObject:
        return FinProbObject(1, (Fraction(1),))

    def unique_to_terminal(self, obj: FinProbObject) -> FinProbMorphism:
        return FinProbMorphism(obj, self.terminal_object(), (0,) * obj.size)

    # -- isomorphism --------------------------------------------------
    def iso_invariant(self, f: FinProbMorphism):
        fibers = [[] for _ in range(f.codomain.size)]
        for x, y in enumerate(f.mapping):
            fibers[y].append(f.domain.weights[x])
        profile = tuple(
            sorted((f.codomain.weights[y], tuple(sorted(fibers[y]))) for y in range(f.codomain.size))
        )
        return (tuple(sorted(f.domain.weights)), profile)

    def _weight_bijections(self, x: FinProbObject, y: FinProbObject, budget: int):
        if x.size != y.size or sorted(x.weights) != sorted(y.weights):
            return
        seen = 0
        for sigma in permutations(range(x.size)):
            seen += 1
            if seen > budget:
                raise SearchBudgetExceeded(f"bijection search passed {budget} candidates")
            if all(y.weights[sigma[i]] == x.weights[i] for i in range(x.size)):
                yield sigma

    def arrow_iso(self, f: FinProbMorphism, g: FinProbMorphism, budget: int = 100_000):
        if self.iso_invariant(f) != self.iso_invariant(g):
            return None
        for sigma in self._weight_bijections(f.domain, g.domain, budget):
            for tau in self._weight_bijections(f.codomain, g.codomain, budget):
                if all(
                    tau[f.mapping[i]] == g.mapping[sigma[i]] for i in range(f.domain.size)
                ):
                    inv_s = [0] * len(sigma)
                    for i, v in enumerate(sigma):
                        inv_s[v] = i
                    inv_t = [0] * len(tau)
                    for i, v in enumerate(tau):
                        inv_t[v] = i
                    return ArrowIso(
                        IsoWitness(
                            FinProbMorphism(f.domain, g.domain, tuple(sigma)),
                            FinProbMorphism(g.domain, f.domain, tuple(inv_s)),
                        ),
                        IsoWitness(
                            FinProbMorphism(f.codomain, g.codomain, tuple(tau)),
                            FinProbMorphism(g.codomain, f.codomain, tuple(inv_t)),
                        ),
                    )
        return None

    def coslice_iso(self, p: FinProbMorphism, q: FinProbMorphism, budget: int = 100_000) -> bool:
        if p.domain != q.domain:
            raise DomainMismatch("coslice comparison needs a shared source")
        if p == q:
            return True
        for tau in self._weight_bijections(p.codomain, q.codomain, budget):
            if all(tau[p.mapping[i]] == q.mapping[i] for i in range(p.domain.size)):
                return True
        return False

    def random_iso_out(self, rng, obj: FinProbObject) -> IsoWitness:
        sigma = list(range(obj.size))
        rng.shuffle(sigma)
        target = pushforward(obj, sigma, obj.size)
        inv = [0] * obj.size
        for i, v in enumerate(sigma):
            inv[v] = i
        return IsoWitness(
            FinProbMorphism(obj, target, tuple(sigma)),
            FinProbMorphism(target, obj, tuple(inv)),
        )

    # -- sections -----------------------------------------------------
    def section_exists(self, f: FinProbMorphism, g: FinProbMorphism) -> bool:
        return self.section_search(f, g)

    def section_search(self, f: FinProbMorphism, g: FinProbMorphism, budget: int = 1_000_000) -> bool:
        if f.codomain != g.domain:
            raise ObjectMismatch("section test needs composable f then g")
        b, c = g.domain.size, g.codomain.size
        if b ** c > budget:
            raise SearchBudgetExceeded(f"{b ** c} candidate sections exceed budget {budget}")
        gf = tuple(g.mapping[v] for v in f.mapping)
        for s in iter_product(range(b), repeat=c):
            if not check_bmp(s, g.codomain.weights, g.domain.weights):
                continue
            if all(s[gf[m]] == f.mapping[m] for m in range(len(gf))):
                return True
        return False

    # -- corpus -------------------------------------------------------
    def exhaustive_objects(self, limits: Limits) -> Iterator[FinProbObject]:
        raise EnumerationBudgetExceeded("rational weights have no finite enumeration")

    def exhaustive_morphisms(self, limits: Limits) -> Iterator[FinProbMorphism]:
        raise EnumerationBudgetExceeded("rational weights have no finite enumeration")

    def exhaustive_morphisms_from(self, obj, limits: Limits) -> Iterator[FinProbMorphism]:
        raise EnumerationBudgetExceeded("rational weights have no finite enumeration")

    def random_object(self, rng, limits: Limits) -> FinProbObject:
        size = rng.randint(1, limits.max_size)
        raw = [rng.randint(1, 8) for _ in range(size)]
        total = sum(raw)
        return FinProbObject(size, tuple(Fraction(k, total) for k in raw))

    def random_morphism(self, rng, limits: Limits) -> FinProbMorphism:
        return self.random_morphism_from(rng, self.random_object(rng, limits), limits)

    def random_morphism_from(self, rng, obj: FinProbObject, limits: Limits) -> FinProbMorphism:
        size = rng.randint(1, limits.max_size)
        mapping = tuple(rng.randbelow(size) for _ in range(obj.size))
        return FinProbMorphism(obj, pushforward(obj, mapping, size), mapping)

    # -- serialization --------------------------------------------------
    def object_to_json(self, obj: FinProbObject) -> dict:
        return {"size": obj.size, "weights": [str(w) for w in obj.weights]}

    def object_from_json(self, data: dict) -> FinProbObject:
        return FinProbObject(
            int_from_json(data["size"], "size"), rationals_from_json(data["weights"], "weights")
        )

    def payload_to_json(self, m: FinProbMorphism) -> dict:
        return {"map": list(m.mapping)}

    def morphism_from_json(self, domain, codomain, payload: dict) -> FinProbMorphism:
        return FinProbMorphism(domain, codomain, ints_from_json(payload["map"], "map"))


class NoisyFinProbCategory(Category):
    id = CategoryId.NOISY_FINPROB

    # Deciding isomorphism of weighted noisy systems needs a search this
    # class does not provide; audits skip the structural iso checks.
    structural_isos = False

    def __init__(self):
        self._base = FinProbCategory()

    # -- structure ----------------------------------------------------
    def compose(self, g: NoisyProbMorphism, f: NoisyProbMorphism) -> NoisyProbMorphism:
        if f.codomain != g.domain:
            raise ObjectMismatch("cannot compose: middle systems differ")
        return NoisyProbMorphism(
            f.domain, g.codomain, tuple(g.mapping[v] for v in f.mapping)
        )

    def identity(self, obj: NoisyProbObject) -> NoisyProbMorphism:
        return NoisyProbMorphism(obj, obj, tuple(range(obj.noise.size)))

    def _product_space(self, x: NoisyProbObject, y: NoisyProbObject) -> NoisyProbObject:
        """The product object alone; the products of morphisms need no
        projections."""
        pi = tuple(
            x.pi[i] * y.message.size + y.pi[j]
            for i in range(x.noise.size)
            for j in range(y.noise.size)
        )
        return NoisyProbObject(
            self._base._product_space(x.noise, y.noise),
            self._base._product_space(x.message, y.message),
            pi,
        )

    def product_object(self, x: NoisyProbObject, y: NoisyProbObject):
        prod = self._product_space(x, y)
        size = prod.noise.size
        p1 = NoisyProbMorphism(prod, x, tuple(i // y.noise.size for i in range(size)))
        p2 = NoisyProbMorphism(prod, y, tuple(i % y.noise.size for i in range(size)))
        return prod, p1, p2

    def external_product(self, f: NoisyProbMorphism, g: NoisyProbMorphism) -> NoisyProbMorphism:
        dom = self._product_space(f.domain, g.domain)
        cod = self._product_space(f.codomain, g.codomain)
        n2 = g.codomain.noise.size
        mapping = tuple(
            f.mapping[i] * n2 + g.mapping[j]
            for i in range(f.domain.noise.size)
            for j in range(g.domain.noise.size)
        )
        return NoisyProbMorphism(dom, cod, mapping)

    def internal_product(self, f: NoisyProbMorphism, g: NoisyProbMorphism):
        if f.domain != g.domain:
            raise DomainMismatch("internal product needs a shared source")
        cod = self._product_space(f.codomain, g.codomain)
        n2 = g.codomain.noise.size
        mapping = tuple(
            f.mapping[m] * n2 + g.mapping[m] for m in range(f.domain.noise.size)
        )
        if not check_bmp(mapping, f.domain.noise.weights, cod.noise.weights):
            return UNDEFINED
        return NoisyProbMorphism(f.domain, cod, mapping)

    def terminal_object(self) -> NoisyProbObject:
        point = FinProbObject(1, (Fraction(1),))
        return NoisyProbObject(point, point, (0,))

    def unique_to_terminal(self, obj: NoisyProbObject) -> NoisyProbMorphism:
        return NoisyProbMorphism(obj, self.terminal_object(), (0,) * obj.noise.size)

    # -- isomorphism --------------------------------------------------
    def iso_invariant(self, f: NoisyProbMorphism):
        rho = _joint_masses(f)
        canon = tuple(sorted(tuple(sorted(row)) for row in rho))
        return (
            tuple(sorted(f.domain.noise.weights)),
            tuple(sorted(f.codomain.noise.weights)),
            canon,
        )

    def random_iso_out(self, rng, obj: NoisyProbObject) -> IsoWitness:
        sigma_m = list(range(obj.noise.size))
        rng.shuffle(sigma_m)
        sigma_a = list(range(obj.message.size))
        rng.shuffle(sigma_a)
        noise = pushforward(obj.noise, sigma_m, obj.noise.size)
        message = pushforward(obj.message, sigma_a, obj.message.size)
        pi_new = [0] * obj.noise.size
        for m in range(obj.noise.size):
            pi_new[sigma_m[m]] = sigma_a[obj.pi[m]]
        target = NoisyProbObject(noise, message, tuple(pi_new))
        inv = [0] * obj.noise.size
        for i, v in enumerate(sigma_m):
            inv[v] = i
        return IsoWitness(
            NoisyProbMorphism(obj, target, tuple(sigma_m)),
            NoisyProbMorphism(target, obj, tuple(inv)),
        )

    # -- sections -----------------------------------------------------
    def section_exists(self, f: NoisyProbMorphism, g: NoisyProbMorphism) -> bool:
        return self.section_search(f, g)

    def section_search(self, f: NoisyProbMorphism, g: NoisyProbMorphism, budget: int = 1_000_000) -> bool:
        if f.codomain != g.domain:
            raise ObjectMismatch("section test needs composable f then g")
        b, c = g.domain.noise.size, g.codomain.noise.size
        if b ** c > budget:
            raise SearchBudgetExceeded(f"{b ** c} candidate sections exceed budget {budget}")
        gf = tuple(g.mapping[v] for v in f.mapping)
        for s in iter_product(range(b), repeat=c):
            if not check_bmp(s, g.codomain.noise.weights, g.domain.noise.weights):
                continue
            if all(s[gf[m]] == f.mapping[m] for m in range(len(gf))):
                return True
        return False

    # -- corpus -------------------------------------------------------
    def exhaustive_objects(self, limits: Limits):
        raise EnumerationBudgetExceeded("rational weights have no finite enumeration")

    def exhaustive_morphisms(self, limits: Limits):
        raise EnumerationBudgetExceeded("rational weights have no finite enumeration")

    def exhaustive_morphisms_from(self, obj, limits: Limits):
        raise EnumerationBudgetExceeded("rational weights have no finite enumeration")

    def random_object(self, rng, limits: Limits) -> NoisyProbObject:
        noise = self._base.random_object(rng, limits)
        a = rng.randint(1, noise.size)
        slots = list(range(noise.size))
        rng.shuffle(slots)
        pi = [0] * noise.size
        for msg in range(a):
            pi[slots[msg]] = msg
        for extra in slots[a:]:
            pi[extra] = rng.randbelow(a)
        return NoisyProbObject(noise, pushforward(noise, pi, a), tuple(pi))

    def random_morphism(self, rng, limits: Limits) -> NoisyProbMorphism:
        return self.random_morphism_from(rng, self.random_object(rng, limits), limits)

    def random_morphism_from(self, rng, obj: NoisyProbObject, limits: Limits) -> NoisyProbMorphism:
        n = rng.randint(1, limits.max_size)
        mapping = tuple(rng.randbelow(n) for _ in range(obj.noise.size))
        noise = pushforward(obj.noise, mapping, n)
        b = rng.randint(1, n)
        slots = list(range(n))
        rng.shuffle(slots)
        pi = [0] * n
        for msg in range(b):
            pi[slots[msg]] = msg
        for extra in slots[b:]:
            pi[extra] = rng.randbelow(b)
        target = NoisyProbObject(noise, pushforward(noise, pi, b), tuple(pi))
        return NoisyProbMorphism(obj, target, mapping)

    # -- serialization --------------------------------------------------
    def object_to_json(self, obj: NoisyProbObject) -> dict:
        return {
            "m": self._base.object_to_json(obj.noise),
            "a": self._base.object_to_json(obj.message),
            "pi": list(obj.pi),
        }

    def object_from_json(self, data: dict) -> NoisyProbObject:
        return NoisyProbObject(
            self._base.object_from_json(dict_from_json(data["m"], "m", InvalidObject)),
            self._base.object_from_json(dict_from_json(data["a"], "a", InvalidObject)),
            ints_from_json(data["pi"], "pi", InvalidObject),
        )

    def payload_to_json(self, m: NoisyProbMorphism) -> dict:
        return {"map": list(m.mapping)}

    def morphism_from_json(self, domain, codomain, payload: dict) -> NoisyProbMorphism:
        return NoisyProbMorphism(domain, codomain, ints_from_json(payload["map"], "map"))


FINPROB = register(FinProbCategory())
NOISY_FINPROB = register(NoisyFinProbCategory())

register_measure(
    InfoMeasure(
        "continuous_noisy_information",
        CategoryId.NOISY_FINPROB,
        continuous_noisy_information,
        continuous_noisy_information_exact,
    )
)
