"""Property audit over a category: axioms, derived laws, replay.

The runner generates morphism tuples (exhaustively or from a seeded
PRNG), evaluates each registered check against each requested measure,
and collects violations into a deterministic report.  Two invariants
shape the design:

* every violation is replayable: (seed, check, trial_index) regenerates
  the same participants and re-evaluation reproduces lhs/rhs bit for
  bit, on any platform;
* reports are byte-identical across runs of the same config.  Nothing
  in a report depends on time, process state, or dict iteration order.

Equalities between measure values are decided exactly (via LogVal) when
the measure supports it; inequalities always use the float tolerance,
plus any solver slack the measure declares.  Products that do not exist
in a category are counted as skips, never as passes or failures.

With several measures configured, each generated tuple is evaluated
once per applicable measure, so checks_run counts (tuple, measure)
evaluations and checks_run + skipped_undefined = tuples * measures.

The process keeps its most recent exhaustive corpus, so consecutive
audits and replays of one (category, limits, budget) enumerate it once;
the objects are memoized on their own.  Replay reaches an exhaustive
trial by unranking its index in the enumeration order (_SHAPES), so its
cost does not grow with the index; a random-mode trial is regenerated
from its own seeded stream.
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
from .core import CategoryId, Limits, category, is_undefined
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


def _require_int(name: str, value) -> int:
    # bool is an int subclass; a report saying `true` is malformed, not 1.
    if isinstance(value, bool) or not isinstance(value, int):
        raise InvalidObject(f"{name} must be an integer, not {value!r}")
    return value


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
        object.__setattr__(self, "measures", tuple(self.measures))
        if self.checks is not None:
            object.__setattr__(self, "checks", tuple(self.checks))
        for name in ("max_size", "trials", "seed", "budget"):
            _require_int(name, getattr(self, name))
        if self.mode not in MODES:
            raise InvalidObject(f"unknown audit mode {self.mode!r}")
        if self.mode == "measure_compatible" and self.category is not CategoryId.NOISY_FINSET:
            raise InvalidObject("measure_compatible generation is a noisy_finset mode")
        if self.max_size < 1:
            raise InvalidObject("max_size must be at least 1")
        if self.trials < 1:
            raise InvalidObject("trials must be at least 1")
        if not self.tolerance > 0:
            raise InvalidObject("tolerance must be positive")
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
            measures=tuple(data["measures"]),
            mode=data["mode"],
            max_size=data["max_size"],
            trials=data["trials"],
            seed=data["seed"],
            tolerance=data["tolerance"],
            log_base=data["log_base"],
            field=data.get("field"),
            budget=data["budget"],
            checks=None if data.get("checks") is None else tuple(data["checks"]),
        )


@dataclass(frozen=True)
class Violation:
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
        trial_index = _require_int("trial_index", data["trial_index"])
        if trial_index < 0:
            raise InvalidObject(f"trial_index must be non-negative, not {trial_index}")
        return cls(
            check=data["check"],
            measure=data.get("measure"),
            morphisms=tuple(data["morphisms"]),
            lhs=data["lhs"],
            rhs=data["rhs"],
            delta=data["delta"],
            seed=_require_int("seed", data["seed"]),
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
        if data.get("schema") != SCHEMA:
            raise ReplayMismatch(f"unknown report schema {data.get('schema')!r}")
        return cls(
            config=AuditConfig.from_json(data["config"]),
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
    kind: str
    needs_measure: bool = True
    structural: bool = False
    # Only the conjugation checks draw random isomorphisms; everything else
    # is a pure function of the tuple, so the engine skips seeding a stream.
    uses_rng: bool = False
    categories: tuple[CategoryId, ...] | None = None


_CHECKS = {
    c.name: c
    for c in (
        # Axiom-level laws.
        _Check("invariance", "unary", uses_rng=True),
        _Check("external_additivity", "pair"),
        _Check("internal_strong_subadditivity", "triple"),
        _Check("data_processing", "composable"),
        _Check("section_iff", "composable"),
        _Check("destination_matching", "unary"),
        # Derived laws.
        _Check("iso_well_defined", "pair", uses_rng=True),
        _Check("source_matching", "unary"),
        _Check("internal_monotonicity", "common_domain"),
        _Check("internal_idempotence", "unary"),
        _Check("internal_subadditivity", "common_domain"),
        _Check("unit_product_identity", "unary"),
        _Check("zero_at_terminal", "object"),
        _Check("projection_irrelevance", "morphism_object"),
        _Check("terminal_structure", "unary", needs_measure=False, structural=True),
        _Check("projection_via_terminal", "object_pair", needs_measure=False, structural=True),
        # Bookkeeping: how often the internal product exists at all.
        _Check(
            "internal_product_existence",
            "common_domain",
            needs_measure=False,
            categories=(CategoryId.FINPROB, CategoryId.NOISY_FINPROB),
        ),
    )
}

AXIOM_CHECKS = (
    "invariance",
    "external_additivity",
    "internal_strong_subadditivity",
    "data_processing",
    "section_iff",
    "destination_matching",
)

PROPOSITION_CHECKS = (
    "iso_well_defined",
    "source_matching",
    "internal_monotonicity",
    "internal_idempotence",
    "internal_subadditivity",
    "unit_product_identity",
    "zero_at_terminal",
    "projection_irrelevance",
    "terminal_structure",
    "projection_via_terminal",
)

EXTRA_CHECKS = ("internal_product_existence",)

ALL_CHECKS = AXIOM_CHECKS + PROPOSITION_CHECKS + EXTRA_CHECKS


_MISSING = object()


@lru_cache(maxsize=65536)
def _logval_sum(a, b):
    # Exact values are interned by the measure-level caches, so sums over
    # the same pair of values recur constantly during exhaustive audits.
    return a + b


class _MeasureCtx:
    """One measure plus its comparison policy and per-corpus cache.

    Only members of corpus_set are cached; the engine sets it when it
    materializes an exhaustive corpus.
    """

    def __init__(self, measure, tolerance: float):
        self.measure = measure
        self.name = measure.name
        self.tol = tolerance + measure.slack
        self.corpus_set = frozenset()
        self._vals: dict = {}
        self._exacts: dict = {}

    def value(self, m):
        v = self._vals.get(m, _MISSING)
        if v is not _MISSING:
            return v
        v = value_of(self.measure, m)
        if m in self.corpus_set:
            self._vals[m] = v
        return v

    def exact(self, m):
        e = self._exacts.get(m, _MISSING)
        if e is not _MISSING:
            return e
        e = exact_of(self.measure, m)
        if m in self.corpus_set:
            self._exacts[m] = e
        return e

    def equal(self, a, b) -> bool:
        """Measure equality of two morphisms, exact when possible."""
        ea, eb = self.exact(a), self.exact(b)
        if ea is not None and eb is not None:
            return ea == eb
        return abs(self.value(a) - self.value(b)) <= self.tol

    def equal_sum(self, p, f, g) -> bool:
        """I(p) == I(f) + I(g), exact when all three support it."""
        ep, ef, eg = self.exact(p), self.exact(f), self.exact(g)
        if ep is not None and ef is not None and eg is not None:
            return ep == _logval_sum(ef, eg)
        return abs(self.value(p) - (self.value(f) + self.value(g))) <= self.tol

    def is_zero(self, m) -> bool:
        e = self.exact(m)
        if e is not None:
            return e.is_zero()
        return abs(self.value(m)) <= self.tol


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
# indices in old reports refer to.

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
    members: frozenset
    blocks: dict
    offsets: dict


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
    return _Corpus(morphisms, frozenset(morphisms), blocks, offsets)


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
                mctx.corpus_set = self._corpus_cache.members
        return self._corpus_cache

    def _terminal(self):
        if self._terminal_cache is None:
            if self.config.category in (CategoryId.FINVECT, CategoryId.FINVECT_DUAL) and self.limits.field is not None:
                self._terminal_cache = self.ops.terminal_object(self.limits.field)
            else:
                self._terminal_cache = self.ops.terminal_object()
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
        ops, lim = self.ops, self.limits
        if kind == "unary":
            return (ops.random_morphism(rng, lim),)
        if kind == "pair":
            return (ops.random_morphism(rng, lim), ops.random_morphism(rng, lim))
        if kind == "composable":
            f = ops.random_morphism(rng, lim)
            return (f, ops.random_morphism_from(rng, f.codomain, lim))
        if kind == "common_domain":
            f = ops.random_morphism(rng, lim)
            return (f, ops.random_morphism_from(rng, f.domain, lim))
        if kind == "triple":
            f = ops.random_morphism(rng, lim)
            return (
                f,
                ops.random_morphism_from(rng, f.domain, lim),
                ops.random_morphism_from(rng, f.domain, lim),
            )
        if kind == "object":
            return (ops.random_object(rng, lim),)
        if kind == "object_pair":
            return (ops.random_object(rng, lim), ops.random_object(rng, lim))
        if kind == "morphism_object":
            return (ops.random_morphism(rng, lim), ops.random_object(rng, lim))
        raise AssertionError(kind)

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
        with cfg.log_base(self.config.log_base):
            for check in self.checks:
                self._run_check(check)
            self._collect_findings()
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
        for trial_index, parts in enumerate(stream):
            memo: dict = {}
            for mctx, channel in zip(contexts, channels):
                rng = (
                    trial_rng(seed, channel, trial_index) if check.uses_rng else None
                )
                out = evaluator(mctx, rng, parts, memo)
                if out is SKIP:
                    skipped += 1
                    continue
                ran += 1
                if out is not None:
                    self.violations.append(
                        self._violation(check, mctx, parts, trial_index, out)
                    )
        self.checks_run[check.name] = ran
        self.skipped[check.name] = skipped

    @staticmethod
    def _eval_channel(check: _Check, mctx) -> str:
        return f"eval:{check.name}:{mctx.name if mctx is not None else '-'}"

    def _violation(self, check, mctx, parts, trial_index, fail: _Fail) -> Violation:
        return Violation(
            check=check.name,
            measure=None if mctx is None else mctx.name,
            morphisms=tuple(self._serialize_part(p) for p in parts),
            lhs=fail.lhs,
            rhs=fail.rhs,
            delta=fail.delta,
            seed=self.config.seed,
            trial_index=trial_index,
        )

    def _serialize_part(self, part) -> dict:
        if hasattr(part, "mapping") or hasattr(part, "entries") or hasattr(part, "inner"):
            return jsonio.morphism_to_json(part)
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
            rng = None
            if check.uses_rng:
                rng = trial_rng(
                    self.config.seed,
                    self._eval_channel(check, mctx),
                    recorded.trial_index,
                )
            out = getattr(self, f"_eval_{check.name}")(mctx, rng, parts, {})
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
    # Each returns None (law holds), SKIP (not applicable), or _Fail.

    def _conjugate(self, rng, f):
        """A random arrow isomorphic to f: compose with isos on both ends."""
        a = self.ops.random_iso_out(rng, f.domain)
        b = self.ops.random_iso_out(rng, f.codomain)
        return self.ops.compose(b.forward, self.ops.compose(f, a.backward))

    @staticmethod
    def _once(memo: dict, key: str, build):
        """Tuple-derived morphisms do not depend on the measure; build them
        once and reuse across the measure contexts.  Anything rng-dependent
        stays out of the memo because each measure has its own stream."""
        if key not in memo:
            memo[key] = build()
        return memo[key]

    def _eval_invariance(self, mctx, rng, parts, memo):
        (f,) = parts
        other = self._conjugate(rng, f)
        v0, v1 = mctx.value(f), mctx.value(other)
        if is_undefined(v0) and is_undefined(v1):
            return SKIP
        if is_undefined(v0) != is_undefined(v1):
            return _Fail(float(not is_undefined(v1)), float(not is_undefined(v0)), 1.0)
        if mctx.equal(other, f):
            return None
        return _Fail(v1, v0, abs(v1 - v0))

    def _eval_external_additivity(self, mctx, rng, parts, memo):
        f, g = parts
        p = self._once(memo, "product", lambda: self.ops.external_product(f, g))
        vals = (mctx.value(p), mctx.value(f), mctx.value(g))
        if any(is_undefined(v) for v in vals):
            return SKIP
        if mctx.equal_sum(p, f, g):
            return None
        vp, vf, vg = vals
        return _Fail(vp, vf + vg, abs(vp - (vf + vg)))

    def _eval_internal_strong_subadditivity(self, mctx, rng, parts, memo):
        f, g, h = parts
        fg = self._once(memo, "fg", lambda: self.ops.internal_product(f, g))
        gh = self._once(memo, "gh", lambda: self.ops.internal_product(g, h))
        if is_undefined(fg) or is_undefined(gh):
            return SKIP
        fgh = self._once(memo, "fgh", lambda: self.ops.internal_product(fg, h))
        if is_undefined(fgh):
            return SKIP
        vals = (mctx.value(fgh), mctx.value(fg), mctx.value(gh), mctx.value(g))
        if any(is_undefined(v) for v in vals):
            return SKIP
        vfgh, vfg, vgh, vg = vals
        bound = vfg + vgh - vg
        if vfgh <= bound + mctx.tol:
            return None
        return _Fail(vfgh, bound, vfgh - bound)

    def _eval_data_processing(self, mctx, rng, parts, memo):
        f, g = parts
        gf = self._once(memo, "composite", lambda: self.ops.compose(g, f))
        vgf, vf = mctx.value(gf), mctx.value(f)
        if is_undefined(vgf) or is_undefined(vf):
            return SKIP
        if vgf <= vf + mctx.tol:
            return None
        return _Fail(vgf, vf, vgf - vf)

    def _eval_section_iff(self, mctx, rng, parts, memo):
        f, g = parts
        gf = self._once(memo, "composite", lambda: self.ops.compose(g, f))
        vgf, vf = mctx.value(gf), mctx.value(f)
        if is_undefined(vgf) or is_undefined(vf):
            return SKIP
        has_section = self._once(
            memo, "section", lambda: self.ops.section_exists(f, g)
        )
        equal = mctx.equal(gf, f)
        if has_section == equal:
            return None
        return _Fail(vgf, vf, abs(vgf - vf))

    def _eval_destination_matching(self, mctx, rng, parts, memo):
        (f,) = parts
        ident = self._once(memo, "identity", lambda: self.ops.identity(f.codomain))
        vf, vi = mctx.value(f), mctx.value(ident)
        if is_undefined(vf) or is_undefined(vi):
            return SKIP
        if vf <= vi + mctx.tol:
            return None
        return _Fail(vf, vi, vf - vi)

    def _eval_source_matching(self, mctx, rng, parts, memo):
        (f,) = parts
        ident = self._once(memo, "identity", lambda: self.ops.identity(f.domain))
        vf, vi = mctx.value(f), mctx.value(ident)
        if is_undefined(vf) or is_undefined(vi):
            return SKIP
        if vf <= vi + mctx.tol:
            return None
        return _Fail(vf, vi, vf - vi)

    def _eval_iso_well_defined(self, mctx, rng, parts, memo):
        f, g = parts
        # Draw all conjugating isos up front so the rng stream does not
        # depend on which sub-cases apply.
        a = self.ops.random_iso_out(rng, f.domain)
        b = self.ops.random_iso_out(rng, f.codomain)
        c = self.ops.random_iso_out(rng, g.domain)
        d = self.ops.random_iso_out(rng, g.codomain)
        f2 = self.ops.compose(b.forward, self.ops.compose(f, a.backward))
        g2 = self.ops.compose(d.forward, self.ops.compose(g, c.backward))
        compared = False

        p = self._once(memo, "product", lambda: self.ops.external_product(f, g))
        p2 = self.ops.external_product(f2, g2)
        out = self._compare_equal(mctx, p, p2)
        if isinstance(out, _Fail):
            return out
        compared |= out is None

        if f.domain == g.domain:
            g3 = self.ops.compose(d.forward, self.ops.compose(g, a.backward))
            q = self._once(memo, "internal", lambda: self.ops.internal_product(f, g))
            q2 = self.ops.internal_product(f2, g3)
            if is_undefined(q) != is_undefined(q2):
                return _Fail(float(not is_undefined(q)), float(not is_undefined(q2)), 1.0)
            if not is_undefined(q):
                out = self._compare_equal(mctx, q, q2)
                if isinstance(out, _Fail):
                    return out
                compared |= out is None

        if f.codomain == g.domain:
            g4 = self.ops.compose(d.forward, self.ops.compose(g, b.backward))
            comp = self._once(memo, "composite", lambda: self.ops.compose(g, f))
            comp2 = self.ops.compose(g4, f2)
            out = self._compare_equal(mctx, comp, comp2)
            if isinstance(out, _Fail):
                return out
            compared |= out is None
        return None if compared else SKIP

    def _compare_equal(self, mctx, m1, m2):
        v1, v2 = mctx.value(m1), mctx.value(m2)
        if is_undefined(v1) and is_undefined(v2):
            return SKIP
        if is_undefined(v1) != is_undefined(v2):
            return _Fail(float(not is_undefined(v1)), float(not is_undefined(v2)), 1.0)
        if mctx.equal(m1, m2):
            return None
        return _Fail(v1, v2, abs(v1 - v2))

    def _eval_internal_monotonicity(self, mctx, rng, parts, memo):
        f, g = parts
        p = self._once(memo, "internal", lambda: self.ops.internal_product(f, g))
        if is_undefined(p):
            return SKIP
        vf, vp = mctx.value(f), mctx.value(p)
        if is_undefined(vf) or is_undefined(vp):
            return SKIP
        if vf <= vp + mctx.tol:
            return None
        return _Fail(vf, vp, vf - vp)

    def _eval_internal_idempotence(self, mctx, rng, parts, memo):
        (f,) = parts
        p = self._once(memo, "internal", lambda: self.ops.internal_product(f, f))
        if is_undefined(p):
            return SKIP
        return self._compare_equal(mctx, p, f)

    def _eval_internal_subadditivity(self, mctx, rng, parts, memo):
        f, g = parts
        p = self._once(memo, "internal", lambda: self.ops.internal_product(f, g))
        if is_undefined(p):
            return SKIP
        vals = (mctx.value(p), mctx.value(f), mctx.value(g))
        if any(is_undefined(v) for v in vals):
            return SKIP
        vp, vf, vg = vals
        if vp <= vf + vg + mctx.tol:
            return None
        return _Fail(vp, vf + vg, vp - (vf + vg))

    def _eval_unit_product_identity(self, mctx, rng, parts, memo):
        (f,) = parts
        term = self._terminal()
        ext = self._once(
            memo,
            "with_unit",
            lambda: self.ops.external_product(f, self.ops.identity(term)),
        )
        out = self._compare_equal(mctx, ext, f)
        if isinstance(out, _Fail):
            return out
        compared = out is None
        intr = self._once(
            memo,
            "with_throwaway",
            lambda: self.ops.internal_product(f, self.ops.unique_to_terminal(f.domain)),
        )
        if not is_undefined(intr):
            out2 = self._compare_equal(mctx, intr, f)
            if isinstance(out2, _Fail):
                return out2
            compared |= out2 is None
        return None if compared else SKIP

    def _eval_zero_at_terminal(self, mctx, rng, parts, memo):
        (a,) = parts
        term = self._terminal()
        pair = self._once(
            memo,
            "arrows",
            lambda: (self.ops.identity(term), self.ops.unique_to_terminal(a)),
        )
        for m in pair:
            v = mctx.value(m)
            if is_undefined(v):
                return SKIP
            if not mctx.is_zero(m):
                return _Fail(v, 0.0, abs(v))
        return None

    def _eval_projection_irrelevance(self, mctx, rng, parts, memo):
        f, a = parts

        def build():
            _, p1, _ = self.ops.product_object(f.domain, a)
            return self.ops.compose(f, p1)

        comp = self._once(memo, "through_projection", build)
        return self._compare_equal(mctx, comp, f)

    def _eval_terminal_structure(self, mctx, rng, parts, memo):
        (f,) = parts
        term = self._terminal()
        ext = self.ops.external_product(f, self.ops.identity(term))
        if self.ops.arrow_iso(ext, f) is None:
            return _Fail(0.0, 1.0, 1.0)
        intr = self.ops.internal_product(f, self.ops.unique_to_terminal(f.domain))
        if not is_undefined(intr) and not self.ops.coslice_iso(intr, f):
            return _Fail(0.0, 1.0, 1.0)
        return None

    def _eval_projection_via_terminal(self, mctx, rng, parts, memo):
        a, b = parts
        _, _, p2 = self.ops.product_object(a, b)
        throw = self.ops.external_product(
            self.ops.unique_to_terminal(a), self.ops.identity(b)
        )
        if self.ops.coslice_iso(p2, throw):
            return None
        return _Fail(0.0, 1.0, 1.0)

    def _eval_internal_product_existence(self, mctx, rng, parts, memo):
        f, g = parts
        p = self._once(memo, "internal", lambda: self.ops.internal_product(f, g))
        return SKIP if is_undefined(p) else None


# ----------------------------------------------------------------------
# Public entry points.

def _selected(group: tuple[str, ...], config: AuditConfig) -> tuple[str, ...]:
    if config.checks is None:
        return group
    unknown = set(config.checks) - set(ALL_CHECKS)
    if unknown:
        raise InvalidObject(f"unknown checks: {sorted(unknown)}")
    return tuple(name for name in group if name in config.checks)


def audit_axioms(config: AuditConfig) -> AuditReport:
    """Audit the axiom-level laws (invariance through destination matching)."""
    return _Engine(config, _selected(AXIOM_CHECKS, config)).run()


def audit_propositions(config: AuditConfig) -> AuditReport:
    """Audit the derived laws: well-definedness, matching bounds, terminal facts."""
    return _Engine(config, _selected(PROPOSITION_CHECKS, config)).run()


def audit_all(config: AuditConfig) -> AuditReport:
    """Run every applicable check; the CLI entry point."""
    return _Engine(config, _selected(ALL_CHECKS, config)).run()


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
