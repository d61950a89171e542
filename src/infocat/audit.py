"""Property audit over a category: axioms, derived laws, replay.

The runner generates morphism tuples (exhaustively or from a seeded
PRNG), evaluates each registered check against each requested measure,
and collects violations into a deterministic report.  Two invariants
shape the design:

* every violation is replayable: (seed, check, trial_index) regenerates
  the same participants and re-evaluation reproduces lhs/rhs bit for
  bit.  Capacity values are the exception across machines: they come
  from numpy, whose run-time choice of SIMD kernel can change their last
  bits from one machine to another;
* reports are byte-identical across runs of the same config.  Nothing
  in a report depends on time, process state, or dict iteration order.

How a law is decided is _MeasureCtx's policy, in one set of
comparisons: equalities between measure values exactly (via LogVal) when
the measure supports it, else within the float tolerance plus any solver
slack the measure declares; inequalities always on floats, within the
same.  Undefined values and products that do not exist in a category
are counted as skips, never as passes or failures, except that an
equality with a value on one side only fails.

With several measures configured, each generated tuple goes to the
check's evaluator once, which builds the tuple's morphisms and decides
the law for every measure; checks_run counts (tuple, measure)
evaluations and checks_run + skipped_undefined = tuples * measures.  A
measure's verdicts and draws do not depend on the other measures.

The process keeps its most recent exhaustive corpus, so consecutive
audits and replays of one (category, limits, budget) enumerate it once;
the objects are memoized on their own.  Replay reaches an exhaustive
trial by unranking its index in the enumeration order (_SHAPES), so its
cost does not grow with the index; a random-mode trial is regenerated
from its own seeded stream.

What is memoized, and for how long:

* per tuple, every check: morphisms built from the tuple alone
  (products, composites) are locals of the one evaluator call that
  decides the law for every measure;
* per audit: each measure's float and exact value of every corpus
  member (_MeasureCtx), in tables indexed by corpus position.  A
  morphism the engine built is measured afresh each time, even where it
  equals a member: looking it up by value would hash it, which costs
  more than measuring it on the finset corpora;
* per check, exhaustive internal_strong_subadditivity only: the pair
  products <f, g> and <g, h> of two corpus members, and each measure's
  value of them (_Pair), keyed on corpus positions.  A triple check has
  far more tuples than pairs (49,616 against 1,528 on finsets of size
  <= 3), so each pair is built once instead of once per triple; the
  memo is dropped when the check ends and never exceeds its tuple
  count.  The pair checks get no such memo: their tuples do not recur,
  and a corpus-wide memo of every pair product would grow with the
  square of the corpus for the whole audit.

Outside the engine, per process: the capacity measure keeps each
Blahut-Arimoto result by (channel, eps) in a bounded lru_cache
(noisy._solve), so audits and replays that meet one channel solve it
once; random-mode audits, which the caches above never reach, gain most.
A solve that stopped at max_iters stays cached as such, and its value
is UNDEFINED: a skip, never a comparison within the solver slack.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, chain, product
from math import prod
from typing import Iterator

from . import config as cfg
from . import jsonio
from .core import (
    CategoryId,
    Limits,
    UNDEFINED,
    category,
    dict_from_json,
    float_from_json,
    int_from_json,
    is_undefined,
)
from .errors import (
    EnumerationBudgetExceeded,
    IndexOutOfRange,
    InvalidObject,
    ReplayMismatch,
)
from .finvect import parse_field
from .measures import exact_of, get_measure, value_of
from .noisy import closed_form_ni, noisy_information
from .prng import trial_rng

SCHEMA = "infocat-report/1"

MODES = ("exhaustive", "random", "measure_compatible")

# Sentinel for "check not applicable to this tuple" (missing product,
# undefined measure value); counted separately from passes and failures.
SKIP = object()


def _str_tuple(name: str, value) -> tuple[str, ...]:
    # A bare string would iterate as its characters.
    if not isinstance(value, (list, tuple)) or not all(isinstance(v, str) for v in value):
        raise InvalidObject(f"{name} must be a list of strings, not {value!r}")
    return tuple(value)


@dataclass(frozen=True)
class AuditConfig:
    """Everything a run needs; serialized verbatim into the report."""

    category: CategoryId
    measures: tuple[str, ...] = ()
    mode: str = "exhaustive"
    max_size: int = 3
    trials: int = 100
    seed: int = 0
    tolerance: float = 1e-9
    log_base: str = "2"
    field: str | None = None
    budget: int = 10_000_000
    checks: tuple[str, ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "category", CategoryId(self.category))
        object.__setattr__(self, "measures", _str_tuple("measures", self.measures))
        if self.checks is not None:
            object.__setattr__(self, "checks", _str_tuple("checks", self.checks))
            unknown = set(self.checks) - set(_CHECKS)
            if unknown:
                raise InvalidObject(f"unknown checks: {sorted(unknown)}")
        try:
            object.__setattr__(self, "log_base", cfg.normalize(self.log_base))
        except ValueError:
            raise InvalidObject(f"log_base must be 2 or e, not {self.log_base!r}") from None
        if self.field is not None:
            parse_field(self.field)
        for name in ("max_size", "trials", "seed", "budget"):
            int_from_json(getattr(self, name), name)
        if self.mode not in MODES:
            raise InvalidObject(f"unknown audit mode {self.mode!r}")
        if self.mode == "measure_compatible" and self.category is not CategoryId.NOISY_FINSET:
            raise InvalidObject("measure_compatible generation is a noisy_finset mode")
        if self.max_size < 1:
            raise InvalidObject("max_size must be at least 1")
        if self.trials < 1:
            raise InvalidObject("trials must be at least 1")
        if (
            isinstance(self.tolerance, bool)
            or not isinstance(self.tolerance, (int, float))
            or not self.tolerance > 0
        ):
            raise InvalidObject(f"tolerance must be a positive number, not {self.tolerance!r}")
        if self.budget < 1:
            raise InvalidObject("budget must be positive")

    def to_json(self) -> dict:
        return {
            "category": self.category.value,
            "measures": list(self.measures),
            "mode": self.mode,
            "max_size": self.max_size,
            "trials": self.trials,
            "seed": self.seed,
            "tolerance": self.tolerance,
            "log_base": self.log_base,
            "field": self.field,
            "budget": self.budget,
            "checks": None if self.checks is None else list(self.checks),
        }

    @classmethod
    def from_json(cls, data: dict) -> "AuditConfig":
        return cls(
            category=CategoryId(data["category"]),
            measures=data["measures"],
            mode=data["mode"],
            max_size=data["max_size"],
            trials=data["trials"],
            seed=data["seed"],
            tolerance=data["tolerance"],
            log_base=data["log_base"],
            field=data.get("field"),
            budget=data["budget"],
            checks=data.get("checks"),
        )


@dataclass(frozen=True)
class Violation:
    """One failed law: the check, the measure, the tuple's members as JSON
    (morphism envelopes, or {"category", "object"}), the compared values
    and where the tuple sits in its stream.

    Within one exhaustive report, violations naming the same corpus member
    share one member dict, so the member dicts are read-only.
    """

    check: str
    measure: str | None
    morphisms: tuple
    lhs: float
    rhs: float
    delta: float
    seed: int
    trial_index: int

    def to_json(self) -> dict:
        return {
            "check": self.check,
            "measure": self.measure,
            "morphisms": list(self.morphisms),
            "lhs": self.lhs,
            "rhs": self.rhs,
            "delta": self.delta,
            "seed": self.seed,
            "trial_index": self.trial_index,
        }

    @classmethod
    def from_json(cls, data: dict) -> "Violation":
        trial_index = int_from_json(data["trial_index"], "trial_index")
        if trial_index < 0:
            raise InvalidObject(f"trial_index must be non-negative, not {trial_index}")
        check = data["check"]
        if not isinstance(check, str) or check not in _CHECKS:
            raise InvalidObject(f"check must name a check, not {check!r}")
        measure = data.get("measure")
        if measure is not None and not isinstance(measure, str):
            raise InvalidObject(f"measure must be a string or null, not {measure!r}")
        morphisms = data["morphisms"]
        if not isinstance(morphisms, list) or not all(isinstance(m, dict) for m in morphisms):
            raise InvalidObject(f"morphisms must be a list of JSON objects, not {morphisms!r}")
        return cls(
            check=check,
            measure=measure,
            morphisms=tuple(morphisms),
            lhs=float_from_json(data["lhs"], "lhs"),
            rhs=float_from_json(data["rhs"], "rhs"),
            delta=float_from_json(data["delta"], "delta"),
            seed=int_from_json(data["seed"], "seed"),
            trial_index=trial_index,
        )


@dataclass
class AuditReport:
    config: AuditConfig
    checks_run: dict[str, int]
    skipped_undefined: dict[str, int]
    violations: list[Violation]
    findings: list[dict]

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_json(self) -> dict:
        return {
            "schema": SCHEMA,
            "config": self.config.to_json(),
            "checks_run": dict(sorted(self.checks_run.items())),
            "skipped_undefined": dict(sorted(self.skipped_undefined.items())),
            "violations": [v.to_json() for v in self.violations],
            "findings": self.findings,
        }

    @classmethod
    def from_json(cls, data: dict) -> "AuditReport":
        data = dict_from_json(data, "report", InvalidObject)
        if data.get("schema") != SCHEMA:
            raise ReplayMismatch(f"unknown report schema {data.get('schema')!r}")
        return cls(
            config=AuditConfig.from_json(dict_from_json(data["config"], "config", InvalidObject)),
            checks_run=dict(data["checks_run"]),
            skipped_undefined=dict(data["skipped_undefined"]),
            violations=[Violation.from_json(v) for v in data["violations"]],
            findings=list(data["findings"]),
        )


# ----------------------------------------------------------------------
# Check table.  kind names the tuple shape a check consumes; checks that
# compare structure rather than measure values set structural=True and
# are skipped in categories that cannot decide isomorphism.

@dataclass(frozen=True)
class _Check:
    name: str
    # "axiom" (the axiom-level laws), "proposition" (the derived laws) or
    # "extra" (bookkeeping: how often the internal product exists at all).
    group: str
    kind: str
    needs_measure: bool = True
    structural: bool = False
    # Only the conjugation checks draw random isomorphisms; everything else
    # is a pure function of the tuple, so the engine skips seeding a stream.
    uses_rng: bool = False
    categories: tuple[CategoryId, ...] | None = None


# Table order is the order in which checks run, and so the order of the
# violations in a report.
_CHECKS = {
    c.name: c
    for c in (
        _Check("invariance", "axiom", "unary", uses_rng=True),
        _Check("external_additivity", "axiom", "pair"),
        _Check("internal_strong_subadditivity", "axiom", "triple"),
        _Check("data_processing", "axiom", "composable"),
        _Check("section_iff", "axiom", "composable"),
        _Check("destination_matching", "axiom", "unary"),
        _Check("iso_well_defined", "proposition", "pair", uses_rng=True),
        _Check("source_matching", "proposition", "unary"),
        _Check("internal_monotonicity", "proposition", "common_domain"),
        _Check("internal_idempotence", "proposition", "unary"),
        _Check("internal_subadditivity", "proposition", "common_domain"),
        _Check("unit_product_identity", "proposition", "unary"),
        _Check("zero_at_terminal", "proposition", "object"),
        _Check("projection_irrelevance", "proposition", "morphism_object"),
        _Check("terminal_structure", "proposition", "unary", needs_measure=False, structural=True),
        _Check(
            "projection_via_terminal",
            "proposition",
            "object_pair",
            needs_measure=False,
            structural=True,
        ),
        _Check(
            "internal_product_existence",
            "extra",
            "common_domain",
            needs_measure=False,
            categories=(CategoryId.FINPROB, CategoryId.NOISY_FINPROB),
        ),
    )
}


def _group(group: str) -> tuple[str, ...]:
    return tuple(c.name for c in _CHECKS.values() if c.group == group)


AXIOM_CHECKS = _group("axiom")
PROPOSITION_CHECKS = _group("proposition")
EXTRA_CHECKS = _group("extra")
ALL_CHECKS = tuple(_CHECKS)


_MISSING = object()


@lru_cache(maxsize=65536)
def _logval_sum(a, b):
    # Exact values are interned by the measure-level caches, so sums over
    # the same pair of values recur constantly during exhaustive audits.
    return a + b


class _MeasureCtx:
    """One measure plus its comparison policy and per-corpus cache.

    The values of corpus members are cached in tables indexed by corpus
    position, found through the corpus's id(m) -> position map; the
    engine attaches the corpus when it materializes one.  Keying on ids
    is sound for members only, because the corpus keeps them alive; any
    other morphism (a product, a composite, a random draw) is evaluated
    afresh each time it is asked for, even where it equals a member.

    Every measure law but section_iff ends in one of the comparisons
    equal, all_equal, equal_sum, zero or at_most.  Each returns the
    engine's verdict: None (the law holds), SKIP (an UNDEFINED value) or
    a _Fail with the lhs, rhs and delta that go into the report.  = is
    decided exactly where the measure has exact values for every term,
    else within tolerance plus the measure's slack; <= always on floats,
    within the same.
    """

    def __init__(self, measure, tolerance: float):
        self.measure = measure
        self.name = measure.name
        self.tol = tolerance + measure.slack
        self._positions: dict = {}
        self._vals: list = []
        self._exacts: list = []

    def attach(self, corpus: _Corpus) -> None:
        """Cache the values of corpus's members from now on."""
        self._positions = corpus.positions
        self._vals = [_MISSING] * len(corpus.morphisms)
        self._exacts = [_MISSING] * len(corpus.morphisms)

    def value(self, m):
        k = self._positions.get(id(m))
        if k is None:
            return value_of(self.measure, m)
        v = self._vals[k]
        if v is _MISSING:
            v = self._vals[k] = value_of(self.measure, m)
        return v

    def exact(self, m):
        k = self._positions.get(id(m))
        if k is None:
            return exact_of(self.measure, m)
        e = self._exacts[k]
        if e is _MISSING:
            e = self._exacts[k] = exact_of(self.measure, m)
        return e

    def same(self, m1, m2, v1, v2) -> bool:
        """Whether the defined values v1 of m1 and v2 of m2 are equal."""
        e1, e2 = self.exact(m1), self.exact(m2)
        if e1 is not None and e2 is not None:
            return e1 == e2
        return abs(v1 - v2) <= self.tol

    def equal(self, m1, m2):
        """I(m1) = I(m2).  An UNDEFINED morphism has an UNDEFINED value; a
        value defined on one side only fails, with lhs and rhs 1.0 on the
        defined side and 0.0 on the other."""
        v1 = UNDEFINED if m1 is UNDEFINED else self.value(m1)
        v2 = UNDEFINED if m2 is UNDEFINED else self.value(m2)
        if v1 is UNDEFINED or v2 is UNDEFINED:
            if v1 is v2:
                return SKIP
            return _Fail(float(v1 is not UNDEFINED), float(v2 is not UNDEFINED), 1.0)
        if self.same(m1, m2, v1, v2):
            return None
        return _Fail(v1, v2, abs(v1 - v2))

    def equal_sum(self, p, f, g):
        """I(p) = I(f) + I(g)."""
        vp, vf, vg = self.value(p), self.value(f), self.value(g)
        if vp is UNDEFINED or vf is UNDEFINED or vg is UNDEFINED:
            return SKIP
        ep, ef, eg = self.exact(p), self.exact(f), self.exact(g)
        if ep is not None and ef is not None and eg is not None:
            held = ep == _logval_sum(ef, eg)
        else:
            held = abs(vp - (vf + vg)) <= self.tol
        if held:
            return None
        return _Fail(vp, vf + vg, abs(vp - (vf + vg)))

    def zero(self, *ms):
        """I(m) = 0 for each m of ms, in order, up to the first that is
        UNDEFINED or fails."""
        for m in ms:
            v = self.value(m)
            if v is UNDEFINED:
                return SKIP
            e = self.exact(m)
            if not (e.is_zero() if e is not None else abs(v) <= self.tol):
                return _Fail(v, 0.0, abs(v))
        return None

    def at_most(self, lhs, rhs, plus=None, minus=None):
        """lhs <= rhs + plus - minus, on the values given, in that order;
        plus and minus may be left out.  Decided on floats, even where the
        measure has exact values."""
        if lhs is UNDEFINED or rhs is UNDEFINED or plus is UNDEFINED or minus is UNDEFINED:
            return SKIP
        if plus is not None:
            rhs += plus
        if minus is not None:
            rhs -= minus
        if lhs <= rhs + self.tol:
            return None
        return _Fail(lhs, rhs, lhs - rhs)

    def all_equal(self, pairs):
        """equal on every (m1, m2) of pairs, in order, up to the first
        failure; SKIP when every pair was skipped."""
        compared = False
        for m1, m2 in pairs:
            out = self.equal(m1, m2)
            if out is SKIP:
                continue
            if out is not None:
                return out
            compared = True
        return None if compared else SKIP


class _Pair:
    """The internal product of two tuple members, with each measure's
    value of it computed on first use.

    The engine built the product, so it is no corpus member and the
    _MeasureCtx tables never hold its values.
    """

    __slots__ = ("morphism", "_vals")

    def __init__(self, morphism):
        self.morphism = morphism
        self._vals: dict = {}

    def value(self, mctx):
        v = self._vals.get(mctx, _MISSING)
        if v is _MISSING:
            v = self._vals[mctx] = mctx.value(self.morphism)
        return v


class _Fail:
    __slots__ = ("lhs", "rhs", "delta")

    def __init__(self, lhs: float, rhs: float, delta: float):
        self.lhs = float(lhs)
        self.rhs = float(rhs)
        self.delta = float(delta)


# ----------------------------------------------------------------------
# Exhaustive corpora and the order of their tuples.
#
# Each tuple kind lists the factors of its tuples: "M" is the morphism
# corpus, "O" the object list, and "domain" / "codomain" the corpus
# morphisms whose domain is that endpoint of the tuple's first member f.
# Tuples run in lexicographic order of the factors, the last varying
# fastest.  The audit's stream, its tuple counts and replay's unranking
# all read this table, so they cannot disagree on the order that trial
# indices in old reports refer to.  Random tuples draw their members in
# the same factor order: a random morphism for "M", a random object for
# "O", and a random morphism out of that endpoint of f for the others.

_SHAPES = {
    "unary": ("M",),
    "pair": ("M", "M"),
    "object": ("O",),
    "object_pair": ("O", "O"),
    "morphism_object": ("M", "O"),
    "composable": ("M", "codomain"),
    "common_domain": ("M", "domain"),
    "triple": ("M", "domain", "domain"),
}

# Kinds whose tuples split into one block per f of the corpus.
_GROUPED = tuple(kind for kind, shape in _SHAPES.items() if shape[-1] in ("domain", "codomain"))


@dataclass(frozen=True, eq=False)
class _Corpus:
    """An exhaustive morphism corpus, enumerated once and shared.

    For a grouped kind, blocks[kind][k] are the factors of the tuples
    led by morphisms[k] (that morphism alone, then its groups), and
    offsets[kind][k] is the index of the block's first tuple;
    offsets[kind][-1] is the kind's tuple count.
    """

    morphisms: tuple
    blocks: dict
    offsets: dict
    # id(m) -> index of m in morphisms; the tuple keeps every id valid.
    positions: dict


@lru_cache(maxsize=1)
def _morphism_corpus(ops, limits: Limits, budget: int) -> _Corpus:
    # Keyed on the budget too: a cached corpus built under a larger budget
    # must not let a smaller one through.
    out = []
    for m in ops.exhaustive_morphisms(limits):
        out.append(m)
        if len(out) > budget:
            raise EnumerationBudgetExceeded(f"corpus exceeds budget of {budget} morphisms")
    morphisms = tuple(out)
    by_domain: dict = {}
    for m in morphisms:
        by_domain.setdefault(m.domain, []).append(m)
    by_domain = {dom: tuple(ms) for dom, ms in by_domain.items()}
    blocks, offsets = {}, {}
    for kind in _GROUPED:
        endpoints = _SHAPES[kind][1:]
        blocks[kind] = tuple(
            ((f,),) + tuple(by_domain.get(getattr(f, e), ()) for e in endpoints)
            for f in morphisms
        )
        offsets[kind] = tuple(
            accumulate((prod(map(len, b)) for b in blocks[kind]), initial=0)
        )
    positions = {id(m): k for k, m in enumerate(morphisms)}
    return _Corpus(morphisms, blocks, offsets, positions)


@lru_cache(maxsize=1)
def _object_corpus(ops, limits: Limits) -> tuple:
    # Separate from the morphisms, so object-only checks never enumerate
    # morphisms and never meet the morphism budget.
    return tuple(ops.exhaustive_objects(limits))


def _unrank(factors: tuple, index: int) -> tuple:
    """The index-th tuple of product(*factors)."""
    picks = []
    for seq in reversed(factors):
        index, r = divmod(index, len(seq))
        picks.append(seq[r])
    return tuple(reversed(picks))


class _Engine:
    def __init__(self, config: AuditConfig, check_names):
        self.config = config
        self.ops = category(config.category)
        self.limits = Limits(
            config.max_size,
            field=parse_field(config.field) if config.field else None,
            measure_compatible=config.mode == "measure_compatible",
        )
        self._corpus_cache = None
        self._terminal_cache = None
        # Corpus positions of (x, y) -> _Pair while an exhaustive check
        # runs (only internal_strong_subadditivity fills it); None otherwise.
        self._pairs: dict | None = None
        # Corpus position -> the member's JSON dict while run() runs an
        # exhaustive audit, shared by every violation naming that member;
        # None otherwise, so random audits and replays serialize afresh.
        self._member_json: dict | None = None
        self.mctxs = [
            _MeasureCtx(get_measure(config.category, name), config.tolerance)
            for name in config.measures
        ]
        self.checks = [
            _CHECKS[name] for name in check_names if self._applicable(_CHECKS[name])
        ]
        self.checks_run: dict[str, int] = {}
        self.skipped: dict[str, int] = {}
        self.violations: list[Violation] = []
        self.findings: list[dict] = []

    def _applicable(self, check: _Check) -> bool:
        if self.config.checks is not None and check.name not in self.config.checks:
            return False
        if check.categories is not None and self.config.category not in check.categories:
            return False
        if check.structural and not self.ops.structural_isos:
            return False
        if check.needs_measure and not self.mctxs:
            return False
        return True

    # -- corpus ---------------------------------------------------------
    def _corpus(self) -> _Corpus:
        if self._corpus_cache is None:
            self._corpus_cache = _morphism_corpus(self.ops, self.limits, self.config.budget)
            for mctx in self.mctxs:
                mctx.attach(self._corpus_cache)
        return self._corpus_cache

    def _terminal(self):
        if self._terminal_cache is None:
            self._terminal_cache = self.ops.terminal_for(self.limits)
        return self._terminal_cache

    def _blocks(self, kind: str) -> tuple[tuple, tuple]:
        """(offsets, blocks) of the exhaustive tuples of kind, as in _Corpus;
        a kind without groups is one block of whole sequences."""
        if kind in _GROUPED:
            corpus = self._corpus()
            return corpus.offsets[kind], corpus.blocks[kind]
        factors = tuple(
            self._corpus().morphisms if f == "M" else _object_corpus(self.ops, self.limits)
            for f in _SHAPES[kind]
        )
        return (0, prod(map(len, factors))), (factors,)

    def _exhaustive_count(self, kind: str) -> int:
        return self._blocks(kind)[0][-1]

    def _exhaustive_stream(self, kind: str) -> Iterator[tuple]:
        return chain.from_iterable(product(*b) for b in self._blocks(kind)[1])

    def _random_parts(self, kind: str, rng) -> tuple:
        """A random tuple of kind, its members drawn in _SHAPES order."""
        ops, lim = self.ops, self.limits
        parts = []
        for factor in _SHAPES[kind]:
            if factor == "M":
                parts.append(ops.random_morphism(rng, lim))
            elif factor == "O":
                parts.append(ops.random_object(rng, lim))
            else:
                parts.append(ops.random_morphism_from(rng, getattr(parts[0], factor), lim))
        return tuple(parts)

    def _parts_at(self, check: _Check, trial_index: int) -> tuple:
        if self.config.mode == "exhaustive":
            offsets, blocks = self._blocks(check.kind)
            if not 0 <= trial_index < offsets[-1]:
                raise ReplayMismatch(
                    f"trial {trial_index} is outside the {offsets[-1]} exhaustive tuples"
                    f" of {check.name}"
                )
            k = bisect_right(offsets, trial_index) - 1
            return _unrank(blocks[k], trial_index - offsets[k])
        return self._random_parts(
            check.kind, trial_rng(self.config.seed, f"gen:{check.name}", trial_index)
        )

    # -- run --------------------------------------------------------------
    def run(self) -> AuditReport:
        self._member_json = {} if self.config.mode == "exhaustive" else None
        try:
            with cfg.log_base(self.config.log_base):
                for check in self.checks:
                    self._run_check(check)
                self._collect_findings()
        finally:
            self._member_json = None
        return AuditReport(
            config=self.config,
            checks_run=self.checks_run,
            skipped_undefined=self.skipped,
            violations=self.violations,
            findings=self.findings,
        )

    def _run_check(self, check: _Check) -> None:
        if self.config.mode == "exhaustive":
            count = self._exhaustive_count(check.kind)
            if count > self.config.budget:
                raise EnumerationBudgetExceeded(
                    f"{check.name}: {count} tuples exceed budget {self.config.budget}"
                )
            stream = self._exhaustive_stream(check.kind)
        else:
            stream = (
                self._random_parts(
                    check.kind, trial_rng(self.config.seed, f"gen:{check.name}", i)
                )
                for i in range(self.config.trials)
            )
        ran = skipped = 0
        evaluator = getattr(self, f"_eval_{check.name}")
        contexts = self.mctxs if check.needs_measure else [None]
        channels = [self._eval_channel(check, mctx) for mctx in contexts]
        seed = self.config.seed
        rngs = None
        self._pairs = {} if self.config.mode == "exhaustive" else None
        try:
            for trial_index, parts in enumerate(stream):
                if check.uses_rng:
                    rngs = [trial_rng(seed, channel, trial_index) for channel in channels]
                for mctx, out in zip(contexts, evaluator(contexts, parts, rngs)):
                    if out is SKIP:
                        skipped += 1
                        continue
                    ran += 1
                    if out is not None:
                        self.violations.append(
                            self._violation(check, mctx, parts, trial_index, out)
                        )
        finally:
            self._pairs = None
        self.checks_run[check.name] = ran
        self.skipped[check.name] = skipped

    @staticmethod
    def _eval_channel(check: _Check, mctx) -> str:
        return f"eval:{check.name}:{mctx.name if mctx is not None else '-'}"

    def _violation(self, check, mctx, parts, trial_index, fail: _Fail) -> Violation:
        return Violation(
            check=check.name,
            measure=None if mctx is None else mctx.name,
            morphisms=tuple(
                self._serialize_part(factor, p) for factor, p in zip(_SHAPES[check.kind], parts)
            ),
            lhs=fail.lhs,
            rhs=fail.rhs,
            delta=fail.delta,
            seed=self.config.seed,
            trial_index=trial_index,
        )

    def _serialize_part(self, factor: str, part) -> dict:
        """part, the tuple member drawn from factor of its kind's _SHAPES."""
        if factor != "O":
            if self._member_json is None:
                return jsonio.morphism_to_json(part)
            k = self._corpus_cache.positions[id(part)]
            data = self._member_json.get(k)
            if data is None:
                data = self._member_json[k] = jsonio.morphism_to_json(part)
            return data
        return {
            "category": self.config.category.value,
            "object": self.ops.object_to_json(part),
        }

    # -- replay -----------------------------------------------------------
    def replay_one(self, recorded: Violation) -> Violation:
        check = _CHECKS.get(recorded.check)
        if check is None or not self._applicable(check):
            raise ReplayMismatch(f"check {recorded.check!r} not active under this config")
        if recorded.seed != self.config.seed:
            raise ReplayMismatch(
                f"violation carries seed {recorded.seed}, config says {self.config.seed}"
            )
        mctx = None
        if recorded.measure is not None:
            for candidate in self.mctxs:
                if candidate.name == recorded.measure:
                    mctx = candidate
                    break
            if mctx is None:
                raise ReplayMismatch(f"measure {recorded.measure!r} not in config")
        elif check.needs_measure:
            raise ReplayMismatch(f"check {check.name} requires a measure name")
        with cfg.log_base(self.config.log_base):
            parts = self._parts_at(check, recorded.trial_index)
            rngs = None
            if check.uses_rng:
                rngs = [
                    trial_rng(
                        self.config.seed,
                        self._eval_channel(check, mctx),
                        recorded.trial_index,
                    )
                ]
            (out,) = getattr(self, f"_eval_{check.name}")([mctx], parts, rngs)
        if out is SKIP or out is None:
            raise ReplayMismatch(
                f"{check.name} trial {recorded.trial_index} shows no violation on replay"
            )
        fresh = self._violation(check, mctx, parts, recorded.trial_index, out)
        if (
            fresh.lhs != recorded.lhs
            or fresh.rhs != recorded.rhs
            or fresh.delta != recorded.delta
            or list(fresh.morphisms) != list(recorded.morphisms)
        ):
            raise ReplayMismatch(
                f"{check.name} trial {recorded.trial_index} reproduced different values"
            )
        return fresh

    # -- findings -----------------------------------------------------------
    def _collect_findings(self) -> None:
        if (
            self.config.category is CategoryId.NOISY_FINSET
            and any(mx.name == "noisy_information" for mx in self.mctxs)
        ):
            self.findings.append(self._closed_form_delta())
        if "internal_product_existence" in self.checks_run:
            defined = self.checks_run["internal_product_existence"]
            undefined = self.skipped["internal_product_existence"]
            total = defined + undefined
            self.findings.append(
                {
                    "kind": "internal_product_existence",
                    "defined": defined,
                    "undefined": undefined,
                    "rate": defined / total if total else 0.0,
                }
            )

    def _closed_form_delta(self) -> dict:
        """Compare the definitional value against the closed-form formula.

        The closed form disagrees with the definition on every corpus we
        generate; the report records the gap instead of hiding it, and
        nothing downstream ever substitutes the closed form.
        """
        if self.config.mode == "exhaustive":
            sample = self._corpus().morphisms
        else:
            sample = [
                self.ops.random_morphism(
                    trial_rng(self.config.seed, "gen:closed_form_ni", i), self.limits
                )
                for i in range(min(self.config.trials, 500))
            ]
        worst = None
        worst_abs = -1.0
        for f in sample:
            definitional = noisy_information(f)
            closed = closed_form_ni(f)
            delta = closed - definitional
            if abs(delta) > worst_abs:
                worst_abs = abs(delta)
                worst = (f, definitional, closed, delta)
        f, definitional, closed, delta = worst
        return {
            "kind": "closed_form_ni_delta",
            "cases": len(sample),
            "max_abs_delta": worst_abs,
            "example": {
                "morphism": jsonio.morphism_to_json(f),
                "definitional": definitional,
                "closed_form": closed,
                "delta": delta,
            },
        }

    # -- evaluators ---------------------------------------------------------
    # Each evaluates one tuple for every measure context at once and
    # returns one outcome per context, in order: None (law holds), SKIP
    # (not applicable), or _Fail.  The morphisms built from the tuple alone
    # are built once and shared by the contexts; a measure law ends in a
    # _MeasureCtx comparison per context.  The conjugation checks get one
    # stream per context in rngs and draw from each on its own, so every
    # context sees the draws it would see audited alone.

    def _conjugate(self, f, a, b):
        """b f a^-1: an arrow isomorphic to f through the isos a on its
        domain and b on its codomain."""
        return self.ops.compose(b.forward, self.ops.compose(f, a.backward))

    def _eval_invariance(self, mctxs, parts, rngs):
        (f,) = parts
        ops = self.ops
        outs = []
        for mctx, rng in zip(mctxs, rngs):
            a = ops.random_iso_out(rng, f.domain)
            b = ops.random_iso_out(rng, f.codomain)
            outs.append(mctx.equal(self._conjugate(f, a, b), f))
        return outs

    def _eval_external_additivity(self, mctxs, parts, rngs):
        f, g = parts
        p = self.ops.external_product(f, g)
        return [mctx.equal_sum(p, f, g) for mctx in mctxs]

    def _internal_pair(self, x, y) -> _Pair:
        """<x, y> with its values: from the run's pair memo when one is
        active (x and y are then corpus members), else built afresh."""
        pairs = self._pairs
        if pairs is None:
            return _Pair(self.ops.internal_product(x, y))
        positions = self._corpus_cache.positions
        key = (positions[id(x)], positions[id(y)])
        pair = pairs.get(key)
        if pair is None:
            pair = pairs[key] = _Pair(self.ops.internal_product(x, y))
        return pair

    def _eval_internal_strong_subadditivity(self, mctxs, parts, rngs):
        f, g, h = parts
        fg = self._internal_pair(f, g)
        gh = self._internal_pair(g, h)
        if is_undefined(fg.morphism) or is_undefined(gh.morphism):
            return [SKIP] * len(mctxs)
        fgh = self.ops.internal_product(fg.morphism, h)
        if is_undefined(fgh):
            return [SKIP] * len(mctxs)
        return [
            mctx.at_most(mctx.value(fgh), fg.value(mctx), gh.value(mctx), minus=mctx.value(g))
            for mctx in mctxs
        ]

    def _eval_data_processing(self, mctxs, parts, rngs):
        f, g = parts
        gf = self.ops.compose(g, f)
        return [mctx.at_most(mctx.value(gf), mctx.value(f)) for mctx in mctxs]

    def _eval_section_iff(self, mctxs, parts, rngs):
        f, g = parts
        gf = self.ops.compose(g, f)
        has_section = None
        outs = []
        for mctx in mctxs:
            vgf, vf = mctx.value(gf), mctx.value(f)
            if is_undefined(vgf) or is_undefined(vf):
                outs.append(SKIP)
                continue
            if has_section is None:
                has_section = self.ops.section_exists(f, g)
            held = has_section == mctx.same(gf, f, vgf, vf)
            outs.append(None if held else _Fail(vgf, vf, abs(vgf - vf)))
        return outs

    def _eval_destination_matching(self, mctxs, parts, rngs):
        (f,) = parts
        ident = self.ops.identity(f.codomain)
        return [mctx.at_most(mctx.value(f), mctx.value(ident)) for mctx in mctxs]

    def _eval_source_matching(self, mctxs, parts, rngs):
        (f,) = parts
        ident = self.ops.identity(f.domain)
        return [mctx.at_most(mctx.value(f), mctx.value(ident)) for mctx in mctxs]

    def _eval_iso_well_defined(self, mctxs, parts, rngs):
        f, g = parts
        ops = self.ops
        product = ops.external_product(f, g)
        # <f, g> existing on one side only fails, as a one-sided value does.
        internal = ops.internal_product(f, g) if f.domain == g.domain else None
        composite = ops.compose(g, f) if f.codomain == g.domain else None
        outs = []
        for mctx, rng in zip(mctxs, rngs):
            # Draw all conjugating isos up front so the stream does not
            # depend on which sub-cases apply.
            a, b, c, d = (
                ops.random_iso_out(rng, x) for x in (f.domain, f.codomain, g.domain, g.codomain)
            )
            f2 = self._conjugate(f, a, b)
            pairs = [(product, ops.external_product(f2, self._conjugate(g, c, d)))]
            if internal is not None:
                pairs.append((internal, ops.internal_product(f2, self._conjugate(g, a, d))))
            if composite is not None:
                pairs.append((composite, ops.compose(self._conjugate(g, b, d), f2)))
            outs.append(mctx.all_equal(pairs))
        return outs

    def _eval_internal_monotonicity(self, mctxs, parts, rngs):
        f, g = parts
        p = self.ops.internal_product(f, g)
        if is_undefined(p):
            return [SKIP] * len(mctxs)
        return [mctx.at_most(mctx.value(f), mctx.value(p)) for mctx in mctxs]

    def _eval_internal_idempotence(self, mctxs, parts, rngs):
        (f,) = parts
        p = self.ops.internal_product(f, f)
        if is_undefined(p):
            return [SKIP] * len(mctxs)
        return [mctx.equal(p, f) for mctx in mctxs]

    def _eval_internal_subadditivity(self, mctxs, parts, rngs):
        f, g = parts
        p = self.ops.internal_product(f, g)
        if is_undefined(p):
            return [SKIP] * len(mctxs)
        return [mctx.at_most(mctx.value(p), mctx.value(f), mctx.value(g)) for mctx in mctxs]

    def _eval_unit_product_identity(self, mctxs, parts, rngs):
        (f,) = parts
        ops = self.ops
        pairs = [(ops.external_product(f, ops.identity(self._terminal())), f)]
        intr = ops.internal_product(f, ops.unique_to_terminal(f.domain))
        # A missing <f, !> is a skip, not a failure.
        if not is_undefined(intr):
            pairs.append((intr, f))
        return [mctx.all_equal(pairs) for mctx in mctxs]

    def _eval_zero_at_terminal(self, mctxs, parts, rngs):
        (a,) = parts
        arrows = (self.ops.identity(self._terminal()), self.ops.unique_to_terminal(a))
        return [mctx.zero(*arrows) for mctx in mctxs]

    def _eval_projection_irrelevance(self, mctxs, parts, rngs):
        f, a = parts
        _, p1, _ = self.ops.product_object(f.domain, a)
        comp = self.ops.compose(f, p1)
        return [mctx.equal(comp, f) for mctx in mctxs]

    def _eval_terminal_structure(self, mctxs, parts, rngs):
        (f,) = parts
        ops = self.ops
        ext = ops.external_product(f, ops.identity(self._terminal()))
        if ops.arrow_iso(ext, f) is None:
            return [_Fail(0.0, 1.0, 1.0)]
        intr = ops.internal_product(f, ops.unique_to_terminal(f.domain))
        if not is_undefined(intr) and not ops.coslice_iso(intr, f):
            return [_Fail(0.0, 1.0, 1.0)]
        return [None]

    def _eval_projection_via_terminal(self, mctxs, parts, rngs):
        a, b = parts
        ops = self.ops
        _, _, p2 = ops.product_object(a, b)
        throw = ops.external_product(ops.unique_to_terminal(a), ops.identity(b))
        return [None if ops.coslice_iso(p2, throw) else _Fail(0.0, 1.0, 1.0)]

    def _eval_internal_product_existence(self, mctxs, parts, rngs):
        f, g = parts
        return [SKIP if is_undefined(self.ops.internal_product(f, g)) else None]


# ----------------------------------------------------------------------
# Public entry points.

def audit_axioms(config: AuditConfig) -> AuditReport:
    """Audit the axiom-level laws (invariance through destination matching)."""
    return _Engine(config, AXIOM_CHECKS).run()


def audit_propositions(config: AuditConfig) -> AuditReport:
    """Audit the derived laws: well-definedness, matching bounds, terminal facts."""
    return _Engine(config, PROPOSITION_CHECKS).run()


def audit_all(config: AuditConfig) -> AuditReport:
    """Run every applicable check; the CLI entry point."""
    return _Engine(config, ALL_CHECKS).run()


def generate(config: AuditConfig):
    """Deterministic corpus stream for the configured category."""
    engine = _Engine(config, ())
    if config.mode == "exhaustive":
        yield from engine._corpus().morphisms
        return
    for i in range(config.trials):
        yield engine.ops.random_morphism(
            trial_rng(config.seed, "gen:corpus", i), engine.limits
        )


def replay(report: AuditReport, index: int) -> Violation:
    """Recompute one recorded violation; bit-exact or ReplayMismatch."""
    if not 0 <= index < len(report.violations):
        raise IndexOutOfRange(
            f"violation index {index} out of range [0, {len(report.violations)})"
        )
    recorded = report.violations[index]
    engine = _Engine(report.config, (recorded.check,))
    return engine.replay_one(recorded)
