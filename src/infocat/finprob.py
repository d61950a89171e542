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

Both categories are point maps decorated with weights (and, for the
noisy variant, a message assignment pi): the carrier arithmetic is
infocat.pointmap's, and this module adds the weights, the
measure-preservation test that decides pairings and sections, the
weight-matching isomorphism search and the measure.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations
from typing import Sequence

from . import pointmap
from .config import log
from .core import (
    UNDEFINED,
    ArrowIso,
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
)
from .exact import LogVal
from .measures import InfoMeasure, register_measure
from .noisy import NoisyMorphism
from .pointmap import PointMapCategory


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


def from_noisy_finset(f: NoisyMorphism) -> NoisyProbMorphism:
    """Embed a counting-measure system: uniform mass on the noise space,
    all other weights pushed forward."""
    dom, cod = f.domain, f.codomain
    mu = FinProbObject(dom.m_size, (Fraction(1, dom.m_size),) * dom.m_size)
    source = NoisyProbObject(mu, pushforward(mu, dom.pi, dom.a_size), dom.pi)
    nu = pushforward(mu, f.mapping, cod.m_size)
    target = NoisyProbObject(nu, pushforward(nu, cod.pi, cod.a_size), cod.pi)
    return NoisyProbMorphism(source, target, f.mapping)


def _random_space(rng, limits: Limits) -> FinProbObject:
    size = rng.randint(1, limits.max_size)
    raw = [rng.randint(1, 8) for _ in range(size)]
    total = sum(raw)
    return FinProbObject(size, tuple(Fraction(k, total) for k in raw))


class _WeightedPointMaps(PointMapCategory):
    """What finprob and noisy_finprob add to the point arithmetic: a map
    must push the source weights onto the target weights, so a pairing
    or a section is a morphism only where it does, and rational weights
    have no finite enumeration."""

    @staticmethod
    def weights(obj) -> tuple[Fraction, ...]:
        """Weights of the carrier points of obj."""
        raise NotImplementedError

    def pairing(self, domain, codomain, mapping):
        # The pairing is a morphism only when the legs push forward
        # independently; otherwise the product does not exist here.
        if not check_bmp(mapping, self.weights(domain), self.weights(codomain)):
            return UNDEFINED
        return self.morphism(domain, codomain, mapping)

    def section_exists(self, f, g) -> bool:
        if f.codomain != g.domain:
            raise ObjectMismatch("section test needs composable f then g")
        mu, nu = self.weights(g.codomain), self.weights(g.domain)
        return pointmap.find_section(
            f.mapping, g.mapping, len(nu), len(mu), lambda s: check_bmp(s, mu, nu)
        )

    def _no_enumeration(self, *args):
        raise EnumerationBudgetExceeded("rational weights have no finite enumeration")

    exhaustive_objects = exhaustive_morphisms = exhaustive_morphisms_from = _no_enumeration


class FinProbCategory(_WeightedPointMaps):
    id = CategoryId.FINPROB
    morphism = FinProbMorphism

    @staticmethod
    def points(obj: FinProbObject) -> int:
        return obj.size

    @staticmethod
    def weights(obj: FinProbObject) -> tuple[Fraction, ...]:
        return obj.weights

    @staticmethod
    def product_space(x: FinProbObject, y: FinProbObject) -> FinProbObject:
        return FinProbObject(x.size * y.size, tuple(a * b for a in x.weights for b in y.weights))

    def relabeled(self, rng, obj: FinProbObject, perm) -> FinProbObject:
        return pushforward(obj, perm, obj.size)

    def terminal_object(self) -> FinProbObject:
        return FinProbObject(1, (Fraction(1),))

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
                    return ArrowIso(
                        IsoWitness(
                            FinProbMorphism(f.domain, g.domain, sigma),
                            FinProbMorphism(g.domain, f.domain, pointmap.invert(sigma)),
                        ),
                        IsoWitness(
                            FinProbMorphism(f.codomain, g.codomain, tau),
                            FinProbMorphism(g.codomain, f.codomain, pointmap.invert(tau)),
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

    # -- corpus -------------------------------------------------------
    def random_object(self, rng, limits: Limits) -> FinProbObject:
        return _random_space(rng, limits)

    def random_morphism_from(self, rng, obj: FinProbObject, limits: Limits) -> FinProbMorphism:
        size = rng.randint(1, limits.max_size)
        mapping = pointmap.random_map(rng, obj.size, size)
        return FinProbMorphism(obj, pushforward(obj, mapping, size), mapping)

    # -- serialization --------------------------------------------------
    @staticmethod
    def object_to_json(obj: FinProbObject) -> dict:
        return {"size": obj.size, "weights": [str(w) for w in obj.weights]}

    @staticmethod
    def object_from_json(data: dict) -> FinProbObject:
        return FinProbObject(
            int_from_json(data["size"], "size"), rationals_from_json(data["weights"], "weights")
        )


class NoisyFinProbCategory(_WeightedPointMaps):
    id = CategoryId.NOISY_FINPROB
    morphism = NoisyProbMorphism

    # Deciding isomorphism of weighted noisy systems needs a search this
    # class does not provide; audits skip the structural iso checks.
    structural_isos = False

    @staticmethod
    def points(obj: NoisyProbObject) -> int:
        return obj.noise.size

    @staticmethod
    def weights(obj: NoisyProbObject) -> tuple[Fraction, ...]:
        return obj.noise.weights

    def product_space(self, x: NoisyProbObject, y: NoisyProbObject) -> NoisyProbObject:
        return NoisyProbObject(
            FinProbCategory.product_space(x.noise, y.noise),
            FinProbCategory.product_space(x.message, y.message),
            pointmap.external(x.pi, y.pi, y.message.size),
        )

    def relabeled(self, rng, obj: NoisyProbObject, perm) -> NoisyProbObject:
        # Messages are relabelled too: pi moves to sigma_a . pi . perm^-1.
        sigma_a = pointmap.random_permutation(rng, obj.message.size)
        return NoisyProbObject(
            pushforward(obj.noise, perm, obj.noise.size),
            pushforward(obj.message, sigma_a, obj.message.size),
            pointmap.compose(sigma_a, pointmap.compose(obj.pi, pointmap.invert(perm))),
        )

    def terminal_object(self) -> NoisyProbObject:
        point = FinProbObject(1, (Fraction(1),))
        return NoisyProbObject(point, point, (0,))

    # -- isomorphism --------------------------------------------------
    def iso_invariant(self, f: NoisyProbMorphism):
        rho = _joint_masses(f)
        canon = tuple(sorted(tuple(sorted(row)) for row in rho))
        return (
            tuple(sorted(f.domain.noise.weights)),
            tuple(sorted(f.codomain.noise.weights)),
            canon,
        )

    # -- corpus -------------------------------------------------------
    def random_object(self, rng, limits: Limits) -> NoisyProbObject:
        noise = _random_space(rng, limits)
        a, pi = pointmap.random_pi(rng, noise.size)
        return NoisyProbObject(noise, pushforward(noise, pi, a), pi)

    def random_morphism_from(self, rng, obj: NoisyProbObject, limits: Limits) -> NoisyProbMorphism:
        n = rng.randint(1, limits.max_size)
        mapping = pointmap.random_map(rng, obj.noise.size, n)
        noise = pushforward(obj.noise, mapping, n)
        b, pi = pointmap.random_pi(rng, n)
        return NoisyProbMorphism(obj, NoisyProbObject(noise, pushforward(noise, pi, b), pi), mapping)

    # -- serialization --------------------------------------------------
    def object_to_json(self, obj: NoisyProbObject) -> dict:
        return {
            "m": FinProbCategory.object_to_json(obj.noise),
            "a": FinProbCategory.object_to_json(obj.message),
            "pi": list(obj.pi),
        }

    def object_from_json(self, data: dict) -> NoisyProbObject:
        return NoisyProbObject(
            FinProbCategory.object_from_json(dict_from_json(data["m"], "m", InvalidObject)),
            FinProbCategory.object_from_json(dict_from_json(data["a"], "a", InvalidObject)),
            ints_from_json(data["pi"], "pi", InvalidObject),
        )


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
