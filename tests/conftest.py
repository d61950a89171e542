"""Test-only measures, registered for one test at a time.

Each is wrong on purpose, so that the audit has something to find.  A
fixture registers its measures through monkeypatch, so the registry is
restored when the test ends.  The names matter: a conjugation check
draws its isomorphisms from a stream keyed on the measure's name, so a
renamed mutant shifts the pinned censuses.
"""

import pytest

from infocat.core import CategoryId
from infocat.dual import image_dimension_info
from infocat.errors import EmptyDomain
from infocat.exact import LogVal
from infocat.finset import image_size
from infocat.finvect import rank
from infocat.measures import _REGISTRY, InfoMeasure


def _nonempty(value):
    def measure(m):
        if m.domain.size == 0:
            raise EmptyDomain("mutant measures need a nonempty source")
        return value(m)

    return measure


def _point0(m):
    # Depends on labels, not only on the shape of the map.
    y = m.mapping[0]
    return float(m.mapping.count(y) + y)


def _partial_label(m):
    if m.mapping[0] == 0:
        raise EmptyDomain("partial_label is undefined where f(0) = 0")
    return float(image_size(m))


MUTANTS = (
    # |f^-1(f(0))| + f(0): no exact form, so every law is decided on floats.
    InfoMeasure("point0", CategoryId.FINSET, _nonempty(_point0)),
    # UNDEFINED where f(0) = 0, else the image size: conjugation moves a
    # map in and out of the domain, so equalities meet one-sided values.
    InfoMeasure("partial_label", CategoryId.FINSET, _nonempty(_partial_label)),
    # The codomain size, with an exact form.
    InfoMeasure(
        "cod_size",
        CategoryId.FINSET,
        _nonempty(lambda m: float(m.codomain.size)),
        _nonempty(lambda m: LogVal.from_rational(m.codomain.size)),
    ),
)


def _register(monkeypatch, measure):
    monkeypatch.setitem(_REGISTRY, (measure.category, measure.name), measure)
    return measure.name


@pytest.fixture
def mutants(monkeypatch):
    """The names of the three MUTANTS, registered for one test."""
    return tuple(_register(monkeypatch, m) for m in MUTANTS)


@pytest.fixture
def image_squared(monkeypatch):
    """A finset measure, registered for one test, that breaks strong
    subadditivity: with f = {0},{1,2}, g constant and h = {0,1},{2} on a
    three-point source, I(<<f,g>,h>) = 9 > I(<f,g>) + I(<g,h>) - I(g) = 7."""
    return _register(
        monkeypatch,
        InfoMeasure(
            "image_squared",
            CategoryId.FINSET,
            lambda m: float(image_size(m) ** 2),
            lambda m: LogVal.from_rational(image_size(m) ** 2),
        ),
    )


def _squared(cat_id, value):
    return InfoMeasure(
        "rank_squared",
        cat_id,
        lambda m: float(value(m) ** 2),
        lambda m: LogVal.from_rational(value(m) ** 2),
    )


@pytest.fixture
def rank_squared(monkeypatch):
    """The square of the rank, registered for one test on finvect and on
    finvect_dual: it breaks external additivity wherever both factors
    have rank >= 1, and subadditivity where two images are independent,
    so its reports carry finvect witnesses."""
    for measure in (
        _squared(CategoryId.FINVECT, rank),
        _squared(CategoryId.FINVECT_DUAL, image_dimension_info),
    ):
        name = _register(monkeypatch, measure)
    return name
