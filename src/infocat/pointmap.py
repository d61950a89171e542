"""Carrier-point arithmetic shared by the point-map categories.

finset, noisy_finset, finprob and noisy_finprob all present a morphism
as a map of carrier points {0..n-1} -> {0..m-1}, stored as an int tuple
whose x-th entry is the image of x.  What differs between them is the
decoration of the carriers (nothing, a message assignment pi, weights,
or both), never the arithmetic on the points.  That arithmetic lives
here once, as plain functions on int tuples:

* the product of carriers of sizes n1 and n2 pairs (i, j) as i*n2 + j
  (row-major), so a product with a one-point carrier is literally the
  original map;
* random draws go through the caller's SplitMix64 stream, and each
  function's draw order is part of the replay contract: a pinned seed
  must regenerate the same systems.

PointMapCategory builds the category structure every point-map category
shares (composition, identities, products, the map to the terminal
object, random isomorphisms, sections, the "map" payload) on top of
these functions.  Subclasses give the carrier size of an object, the
product of two objects, and the relabelled target of a random
isomorphism.
"""

from __future__ import annotations

from itertools import product as iter_product
from typing import Callable, Iterator

from .core import Category, IsoWitness, ints_from_json
from .errors import DomainMismatch, ObjectMismatch, SearchBudgetExceeded

Points = tuple[int, ...]


def compose(g: Points, f: Points) -> Points:
    """g after f."""
    return tuple(g[v] for v in f)


def identity(n: int) -> Points:
    return tuple(range(n))


def invert(perm: Points) -> Points:
    inv = [0] * len(perm)
    for i, v in enumerate(perm):
        inv[v] = i
    return tuple(inv)


def external(f: Points, g: Points, n2: int) -> Points:
    """f x g on the paired carriers; n2 is the size of g's target."""
    return tuple(x * n2 + y for x in f for y in g)


def internal(f: Points, g: Points, n2: int) -> Points:
    """<f, g> out of their shared source; n2 is the size of g's target."""
    return tuple(x * n2 + y for x, y in zip(f, g))


def projections(n1: int, n2: int) -> tuple[Points, Points]:
    """The two projections out of the paired carrier of sizes n1, n2."""
    return tuple(i // n2 for i in range(n1 * n2)), tuple(i % n2 for i in range(n1 * n2))


def maps(n: int, m: int) -> Iterator[Points]:
    """Every map from n points to m points, in lexicographic order."""
    return iter_product(range(m), repeat=n)


def injective_on_image(f: Points, g: Points) -> bool:
    """Whether g merges no two points of the image of f: exactly when
    some s has s . g . f == f among unconstrained point maps."""
    seen: dict[int, int] = {}
    for b in f:
        if seen.setdefault(g[b], b) != b:
            return False
    return True


def find_section(
    f: Points,
    g: Points,
    n_b: int,
    n_c: int,
    admissible: Callable[[Points], bool],
    budget: int = 1_000_000,
) -> bool:
    """Whether some admissible s: C -> B has s . g . f == f, for f: A -> B
    and g: B -> C with |B| = n_b and |C| = n_c, by trying every s."""
    if n_b ** n_c > budget:
        raise SearchBudgetExceeded(f"{n_b ** n_c} candidate sections exceed budget {budget}")
    pairs = tuple(zip(compose(g, f), f))
    for s in iter_product(range(n_b), repeat=n_c):
        if all(s[w] == v for w, v in pairs) and admissible(s):
            return True
    return False


def random_map(rng, n: int, m: int) -> Points:
    return tuple(rng.randbelow(m) for _ in range(n))


def random_permutation(rng, n: int) -> Points:
    perm = list(range(n))
    rng.shuffle(perm)
    return tuple(perm)


def random_pi(rng, m: int) -> tuple[int, Points]:
    """(a, pi): a random surjection pi of m points onto a = randint(1, m)
    messages.  A shuffle picks one slot per message; the remaining slots
    get uniform messages."""
    a = rng.randint(1, m)
    slots = list(range(m))
    rng.shuffle(slots)
    pi = [0] * m
    for msg in range(a):
        pi[slots[msg]] = msg
    for extra in slots[a:]:
        pi[extra] = rng.randbelow(a)
    return a, tuple(pi)


def map_to_json(mapping: Points) -> dict:
    return {"map": list(mapping)}


def map_from_json(payload: dict) -> Points:
    return ints_from_json(payload["map"], "map")


class PointMapCategory(Category):
    """Category structure common to the point-map categories.

    morphism is the morphism class, built as morphism(domain, codomain,
    mapping); its constructor validates the decoration.  The structure
    below builds its results through build, which a category may make
    skip that validation.
    """

    morphism: type

    @staticmethod
    def points(obj) -> int:
        """Carrier size of obj."""
        raise NotImplementedError

    def product_space(self, x, y):
        """The product object alone; the products of morphisms need no
        projections."""
        raise NotImplementedError

    def relabeled(self, rng, obj, perm: Points):
        """The target of the random isomorphism perm out of obj; draws
        what else the decoration needs from rng."""
        raise NotImplementedError

    def build(self, domain, codomain, mapping):
        """The morphism that the arithmetic below computed from valid
        morphisms and objects; a category whose decoration that
        arithmetic always keeps valid may skip the constructor's checks."""
        return self.morphism(domain, codomain, mapping)

    # -- structure ----------------------------------------------------
    def compose(self, g, f):
        if f.codomain != g.domain:
            raise ObjectMismatch(f"cannot compose: middle objects {f.codomain} != {g.domain}")
        return self.build(f.domain, g.codomain, compose(g.mapping, f.mapping))

    def identity(self, obj):
        return self.build(obj, obj, identity(self.points(obj)))

    def product_object(self, x, y):
        prod = self.product_space(x, y)
        p1, p2 = projections(self.points(x), self.points(y))
        return prod, self.build(prod, x, p1), self.build(prod, y, p2)

    def external_product(self, f, g):
        return self.build(
            self.product_space(f.domain, g.domain),
            self.product_space(f.codomain, g.codomain),
            external(f.mapping, g.mapping, self.points(g.codomain)),
        )

    def internal_product(self, f, g):
        if f.domain != g.domain:
            raise DomainMismatch("internal product needs a shared source")
        return self.pairing(
            f.domain,
            self.product_space(f.codomain, g.codomain),
            internal(f.mapping, g.mapping, self.points(g.codomain)),
        )

    def pairing(self, domain, codomain, mapping):
        """The internal product as a morphism, or UNDEFINED where the
        category has none."""
        return self.build(domain, codomain, mapping)

    def unique_to_terminal(self, obj):
        return self.build(obj, self.terminal_object(), (0,) * self.points(obj))

    # -- isomorphism --------------------------------------------------
    def random_iso_out(self, rng, obj) -> IsoWitness:
        perm = random_permutation(rng, self.points(obj))
        target = self.relabeled(rng, obj, perm)
        return IsoWitness(self.build(obj, target, perm), self.build(target, obj, invert(perm)))

    # -- sections -----------------------------------------------------
    def section_exists(self, f, g) -> bool:
        if f.codomain != g.domain:
            raise ObjectMismatch("section test needs composable f then g")
        return injective_on_image(f.mapping, g.mapping)

    # -- corpus -------------------------------------------------------
    def random_morphism(self, rng, limits):
        return self.random_morphism_from(rng, self.random_object(rng, limits), limits)

    # -- serialization --------------------------------------------------
    def payload_to_json(self, m) -> dict:
        return map_to_json(m.mapping)

    def morphism_from_json(self, domain, codomain, payload: dict):
        return self.morphism(domain, codomain, map_from_json(payload))
