"""Acceptance gate: ten criteria, one test each.

Each test prints a short summary line; `pytest -v` gives the per-criterion
pass/fail table. Oversized tuple spaces are covered by quotient sweeps
whose soundness is argued inline (measure values depend only on the
quotient invariant, and every invariant value is realized by a corpus
member), so "exhaustive" claims stay exhaustive without enumerating
hundreds of millions of raw tuples.

Criterion 5 contains a deliberate red: strong subadditivity of the noisy
mutual-information measure fails on reachable measure-compatible triples
(a parity construction gives I(f x g x h) = 1 with both pairwise terms
zero). The test verifies everything else about that audit, proves the
recorded violations replay bit for bit, then asserts the zero-violation
requirement and fails. Weakening that assertion would hide a real
property of the measure, so it stays.
"""

import itertools
import math
import random
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from infocat import AuditConfig, CategoryId, audit_all, generate, replay
from infocat.audit import ALL_CHECKS
from infocat.capacity import Channel, blahut_arimoto, mutual_information
from infocat.core import category, is_undefined
from infocat.dual import DualMorphism
from infocat.finprob import continuous_noisy_information, from_noisy_finset
from infocat.finset import (
    Limits,
    finset_morphism,
    hartley_exact,
    shannon_exact,
)
from infocat.finvect import (
    GF2,
    GF3,
    LinearMorphism,
    VectObject,
    rank,
    section_exists_linear,
)
from infocat.jsonio import dumps
from infocat.measures import get_measure, value_of
from infocat.noisy import NoisyMorphism, NoisyObject, closed_form_ni, noisy_information
from infocat.prng import trial_rng

SET_OPS = category(CategoryId.FINSET)
VECT_OPS = category(CategoryId.FINVECT)

FINSET_MEASURES = ("shannon", "hartley", "afn(1,0)", "afn(0,1)", "afn(1,1)", "afn(2,0.5)")


def set_partitions(n):
    """All partitions of range(n) as tuples of blocks."""
    if n == 0:
        yield ()
        return
    for rest in set_partitions(n - 1):
        last = n - 1
        for i in range(len(rest)):
            yield rest[:i] + (rest[i] + (last,),) + rest[i + 1:]
        yield rest + ((last,),)


def quotient_map(n, blocks):
    mapping = [0] * n
    for index, block in enumerate(blocks):
        for element in block:
            mapping[element] = index
    return finset_morphism(tuple(mapping), len(blocks))


def test_criterion_01_finset_law_audit():
    # Pairwise and unary laws run raw at sizes <= 4 (244,036 external
    # pairs). The two cubic-cost checks run raw at sizes <= 3 and are
    # completed to size 4 by quotients below.
    started = time.time()
    fast = tuple(
        c for c in ALL_CHECKS
        if c not in ("internal_strong_subadditivity", "iso_well_defined")
    )
    wide = audit_all(AuditConfig(
        category=CategoryId.FINSET, measures=FINSET_MEASURES,
        mode="exhaustive", max_size=4, tolerance=1e-9, checks=fast,
    ))
    deep = audit_all(AuditConfig(
        category=CategoryId.FINSET, measures=FINSET_MEASURES,
        mode="exhaustive", max_size=3, tolerance=1e-9,
        checks=("internal_strong_subadditivity", "iso_well_defined"),
    ))
    assert not wide.violations
    assert not deep.violations
    assert sum(wide.checks_run.values()) == 4_726_818

    # Size-4 subadditivity quotient: every measure here is a function of
    # the fiber partition alone, and the internal product of quotient
    # maps realizes the meet of partitions, so partition triples cover
    # all morphism triples out of a common domain.
    measures = [get_measure(CategoryId.FINSET, name) for name in FINSET_MEASURES]
    triples = 0
    for n in range(1, 5):
        maps = [quotient_map(n, blocks) for blocks in set_partitions(n)]
        for f, g, h in itertools.product(maps, repeat=3):
            fg = SET_OPS.internal_product(f, g)
            gh = SET_OPS.internal_product(g, h)
            fgh = SET_OPS.internal_product(fg, h)
            triples += 1
            for measure in measures:
                bound = value_of(measure, fg) + value_of(measure, gh) - value_of(measure, g)
                assert value_of(measure, fgh) <= bound + 1e-9
    assert triples == 3509

    elapsed = time.time() - started
    assert elapsed < 60.0
    print(f"criterion 1: {sum(wide.checks_run.values()):,} + "
          f"{sum(deep.checks_run.values()):,} audit evaluations, {triples} partition "
          f"triples, 0 violations, {elapsed:.1f}s")


def linear_subspaces(p, n):
    """Every subspace of F_p^n as (vector set, dimension)."""
    zero = (0,) * n
    spaces = {frozenset([zero]): 0}
    frontier = [frozenset([zero])]
    vectors = list(itertools.product(range(p), repeat=n))
    while frontier:
        space = frontier.pop()
        for v in vectors:
            if v in space:
                continue
            grown = frozenset(
                tuple((a + c * b) % p for a, b in zip(w, v))
                for w in space for c in range(p)
            )
            if grown not in spaces:
                spaces[grown] = spaces[space] + 1
                frontier.append(grown)
    return list(spaces.items())


def gf3_pivot_map(dom, cod, pivots):
    rows = tuple(
        tuple(GF3.element(1 if (i == j and i < pivots) else 0) for j in range(dom))
        for i in range(cod)
    )
    return LinearMorphism(VectObject(dom, GF3), VectObject(cod, GF3), rows)


def test_criterion_02_finvect_law_audit():
    # GF(2) runs raw at dims <= 3 except for the cubic checks; GF(2) and
    # GF(3) run every check raw at dims <= 2.
    gf2_wide = audit_all(AuditConfig(
        category=CategoryId.FINVECT, measures=("rank",), mode="exhaustive",
        max_size=3, field="gf2", tolerance=1e-12,
        checks=tuple(c for c in ALL_CHECKS
                     if c not in ("internal_strong_subadditivity", "iso_well_defined")),
    ))
    gf2_full = audit_all(AuditConfig(
        category=CategoryId.FINVECT, measures=("rank",), mode="exhaustive",
        max_size=2, field="gf2", tolerance=1e-12,
    ))
    gf3_full = audit_all(AuditConfig(
        category=CategoryId.FINVECT, measures=("rank",), mode="exhaustive",
        max_size=2, field="gf3", tolerance=1e-12,
    ))
    gf3_cheap = audit_all(AuditConfig(
        category=CategoryId.FINVECT, measures=("rank",), mode="exhaustive",
        max_size=3, field="gf3", tolerance=1e-12,
        checks=("invariance", "destination_matching", "source_matching",
                "internal_idempotence", "unit_product_identity", "zero_at_terminal",
                "projection_irrelevance", "terminal_structure", "projection_via_terminal"),
    ))
    for report in (gf2_wide, gf2_full, gf3_full, gf3_cheap):
        assert not report.violations

    # Kernel-dimension strong subadditivity on every subspace triple up
    # to dimension 3, both fields, integer arithmetic throughout. Rank
    # of an internal product is n minus the dimension of the kernel
    # intersection, so subspace triples cover all morphism triples.
    ssa_triples = 0
    for p in (2, 3):
        for n in range(4):
            subs = linear_subspaces(p, n)
            dim = dict(subs)
            for (kf, df), (kg, dg), (kh, dh) in itertools.product(subs, repeat=3):
                i_fg = n - dim.get(kf & kg, _dim_of(kf & kg, p, dim))
                i_gh = n - dim.get(kg & kh, _dim_of(kg & kh, p, dim))
                i_fgh = n - _dim_of(kf & kg & kh, p, dim)
                ssa_triples += 1
                assert i_fgh <= i_fg + i_gh - (n - dg)
                # pair laws ride along: monotonicity and subadditivity
                assert i_fg >= n - df and i_fg >= n - dg
                assert i_fg <= (n - df) + (n - dg)
    assert ssa_triples >= 16 ** 3 + 28 ** 3

    # GF(3) dimension-3 composable pairs, swept by the complete rank
    # invariant (a, b, c, rank f, rank g, rank gf). Every feasible
    # invariant is realized by a pivot-matrix witness; rank facts depend
    # on nothing else.
    invariants = 0
    for a, b, c in itertools.product(range(4), repeat=3):
        for rf in range(min(a, b) + 1):
            for rg in range(min(b, c) + 1):
                for rgf in range(max(0, rf + rg - b), min(rf, rg) + 1):
                    f = gf3_pivot_map(a, b, rf)
                    rows = [[0] * b for _ in range(c)]
                    for i in range(rgf):
                        rows[i][i] = 1
                    for t in range(rg - rgf):
                        rows[rgf + t][rf + t] = 1
                    g = LinearMorphism(
                        VectObject(b, GF3), VectObject(c, GF3),
                        tuple(tuple(GF3.element(v) for v in row) for row in rows),
                    )
                    gf = VECT_OPS.compose(g, f)
                    assert (rank(f), rank(g), rank(gf)) == (rf, rg, rgf)
                    assert rank(gf) <= rank(f)
                    assert section_exists_linear(f, g) == (rank(gf) == rank(f))
                    invariants += 1
    assert invariants == 280

    # External additivity for the same dimension range, same style.
    for a, b in itertools.product(range(4), repeat=2):
        for ra in range(min(a, b) + 1):
            for c, d in itertools.product(range(4), repeat=2):
                for rc in range(min(c, d) + 1):
                    prod = VECT_OPS.external_product(
                        gf3_pivot_map(a, b, ra), gf3_pivot_map(c, d, rc)
                    )
                    assert rank(prod) == ra + rc

    print(f"criterion 2: gf2/gf3 audits clean, {ssa_triples} kernel triples, "
          f"{invariants} composable invariants, exact arithmetic")


def _dim_of(space, p, known):
    if space in known:
        return known[space]
    return round(math.log(len(space), p))


def test_criterion_03_sections_characterize_equality():
    # FinSet sizes <= 3: brute-force the section search independently.
    set_corpus = list(SET_OPS.exhaustive_morphisms(Limits(3)))
    by_domain = {}
    for m in set_corpus:
        by_domain.setdefault(m.domain, []).append(m)
    pairs = 0
    for f in set_corpus:
        for g in by_domain.get(f.codomain, ()):
            gf = SET_OPS.compose(g, f)
            found = any(
                all(s[gf.mapping[x]] == f.mapping[x] for x in range(f.domain.size))
                for s in itertools.product(range(f.codomain.size), repeat=g.codomain.size)
            )
            assert SET_OPS.section_exists(f, g) == found
            assert (shannon_exact(gf) == shannon_exact(f)) == found
            assert (hartley_exact(gf) == hartley_exact(f)) == found
            pairs += 1
    assert pairs == 1618

    # GF(2) dims <= 2: enumerate every candidate section matrix.
    vect_corpus = list(VECT_OPS.exhaustive_morphisms(Limits(2, field=GF2)))
    by_domain = {}
    for m in vect_corpus:
        by_domain.setdefault(m.domain, []).append(m)
    vect_pairs = 0
    for f in vect_corpus:
        for g in by_domain.get(f.codomain, ()):
            gf = VECT_OPS.compose(g, f)
            b, c = f.codomain.dim, g.codomain.dim
            found = False
            for bits in itertools.product((0, 1), repeat=b * c):
                rows = tuple(
                    tuple(GF2.element(bits[i * c + j]) for j in range(c))
                    for i in range(b)
                )
                s = LinearMorphism(g.codomain, f.codomain, rows)
                if VECT_OPS.compose(s, gf) == f:
                    found = True
                    break
            assert section_exists_linear(f, g) == found
            assert (rank(gf) == rank(f)) == found
            vect_pairs += 1
    assert vect_pairs == 499

    print(f"criterion 3: {pairs} set pairs + {vect_pairs} linear pairs, "
          "oracle == brute force == exact equality")


def random_channel(rnd, rows, cols):
    raw = [[rnd.random() + 1e-3 for _ in range(cols)] for _ in range(rows)]
    return Channel(tuple(tuple(x / sum(row) for x in row) for row in raw))


def test_criterion_04_capacity_solver():
    started = time.time()

    identity = Channel(tuple(tuple(1.0 if i == j else 0.0 for j in range(4)) for i in range(4)))
    result = blahut_arimoto(identity)
    assert result.capacity == 2.0
    assert result.iterations == 1

    p = 0.1
    bsc = Channel(((1 - p, p), (p, 1 - p)))
    closed = 1.0 - (-p * math.log2(p) - (1 - p) * math.log2(1 - p))
    assert abs(blahut_arimoto(bsc).capacity - closed) <= 1e-6
    assert abs(closed - 0.5310044) <= 1e-6

    rnd = random.Random(4)
    for _ in range(20):
        a = random_channel(rnd, rnd.randint(2, 4), rnd.randint(2, 4))
        b = random_channel(rnd, rnd.randint(2, 4), rnd.randint(2, 4))
        kron = Channel(tuple(
            tuple(pa * pb for pa in ra for pb in rb)
            for ra in a.matrix for rb in b.matrix
        ))
        ca = blahut_arimoto(a, eps=1e-11).capacity
        cb = blahut_arimoto(b, eps=1e-11).capacity
        ck = blahut_arimoto(kron, eps=1e-11).capacity
        assert abs(ck - (ca + cb)) <= 2e-9

    grid = np.linspace(0.0, 1.0, 4097)
    for _ in range(25):
        ch = random_channel(rnd, 2, rnd.randint(2, 4))
        solver = blahut_arimoto(ch).capacity
        brute = max(mutual_information((q, 1.0 - q), ch.matrix) for q in grid)
        assert abs(solver - brute) <= 5e-3

    elapsed = time.time() - started
    assert elapsed < 10.0
    print(f"criterion 4: identity exact, BSC closed form, 20 product pairs, "
          f"25 grid channels, {elapsed:.1f}s")


def joint_histogram_information(f):
    n = f.domain.m_size
    joint = Counter(
        (f.domain.pi[m], f.codomain.pi[f.mapping[m]]) for m in range(n)
    )
    sent = Counter()
    received = Counter()
    for (a, b), c in joint.items():
        sent[a] += c
        received[b] += c
    return sum(
        (c / n) * math.log2(c * n / (sent[a] * received[b]))
        for (a, b), c in joint.items()
    )


def test_criterion_05_noisy_audit():
    # Definitional agreement with a from-scratch joint histogram.
    worst = 0.0
    for f in generate(AuditConfig(category=CategoryId.NOISY_FINSET, measures=(),
                                  mode="random", max_size=12, trials=1000, seed=0)):
        worst = max(worst, abs(noisy_information(f) - joint_histogram_information(f)))
    assert worst <= 1e-12

    compatible = audit_all(AuditConfig(
        category=CategoryId.NOISY_FINSET, measures=("noisy_information",),
        mode="measure_compatible", max_size=8, trials=1000, seed=0,
        checks=("external_additivity", "internal_strong_subadditivity"),
    ))
    by_check = Counter(v.check for v in compatible.violations)
    assert by_check["external_additivity"] == 0

    # Unrestricted generation: destination matching does fail, and every
    # recorded witness replays bit for bit.
    unrestricted = audit_all(AuditConfig(
        category=CategoryId.NOISY_FINSET, measures=("noisy_information",),
        mode="random", max_size=8, trials=1000, seed=0,
        checks=("destination_matching",),
    ))
    assert len(unrestricted.violations) == 14
    for index in range(len(unrestricted.violations)):
        assert replay(unrestricted, index) == unrestricted.violations[index]
    assert compatible.config.mode == "measure_compatible"
    assert unrestricted.config.mode == "random"
    assert compatible.to_json()["config"]["mode"] != unrestricted.to_json()["config"]["mode"]

    # The subadditivity failures are genuine, not tolerance noise. Every
    # one replays exactly, and a two-bit parity triple reproduces the
    # mechanism by hand: both pairwise products carry nothing, the
    # triple product carries one bit.
    ssa = [v for v in compatible.violations if v.check == "internal_strong_subadditivity"]
    assert [v.trial_index for v in ssa] == [229, 749, 883, 920]
    for v in ssa:
        assert replay(compatible, compatible.violations.index(v)) == v
        assert v.lhs > v.rhs + 1e-6

    domain = NoisyObject(4, 2, (0, 0, 1, 1))  # intended message = first bit
    two = NoisyObject(2, 2, (0, 1))
    f = NoisyMorphism(domain, two, (0, 1, 0, 1))
    g = NoisyMorphism(domain, NoisyObject(1, 1, (0,)), (0, 0, 0, 0))
    h = NoisyMorphism(domain, two, (0, 1, 1, 0))
    noisy_ops = category(CategoryId.NOISY_FINSET)
    fg = noisy_ops.internal_product(f, g)
    gh = noisy_ops.internal_product(g, h)
    fgh = noisy_ops.internal_product(fg, h)
    assert noisy_information(fg) == 0.0 and noisy_information(gh) == 0.0
    assert noisy_information(fgh) == 1.0

    print(f"criterion 5: oracle gap {worst:.1e}, additivity clean, "
          f"{len(unrestricted.violations)} matching witnesses replayed, "
          f"{len(ssa)} genuine subadditivity failures (trials "
          f"{[v.trial_index for v in ssa]})")
    assert by_check["internal_strong_subadditivity"] == 0, (
        "strong subadditivity fails for the noisy information measure even "
        "under measure-compatible generation; the recorded violations replay "
        "exactly and a parity triple reproduces the effect by construction"
    )


def test_criterion_06_closed_form_is_reported_not_used():
    noiseless = NoisyMorphism(
        NoisyObject(4, 4, (0, 1, 2, 3)), NoisyObject(4, 4, (0, 1, 2, 3)), (0, 1, 2, 3)
    )
    assert noisy_information(noiseless) == 2.0
    assert closed_form_ni(noiseless) == -16.0

    measure = get_measure(CategoryId.NOISY_FINSET, "noisy_information")
    assert value_of(measure, noiseless) == 2.0

    # The registered measure tracks the definition on a whole corpus and
    # the formula disagreement is surfaced as a finding, with the delta
    # recorded rather than patched over.
    report = audit_all(AuditConfig(
        category=CategoryId.NOISY_FINSET, measures=("noisy_information",),
        mode="random", max_size=6, trials=200, seed=0,
        checks=("destination_matching",),
    ))
    disagreements = 0
    for f in generate(AuditConfig(category=CategoryId.NOISY_FINSET, measures=(),
                                  mode="random", max_size=6, trials=200, seed=0)):
        assert value_of(measure, f) == noisy_information(f)
        if closed_form_ni(f) != noisy_information(f):
            disagreements += 1
    assert disagreements > 0

    (finding,) = [f for f in report.findings if f["kind"] == "closed_form_ni_delta"]
    assert finding["cases"] == 200
    assert finding["max_abs_delta"] > 0.0
    example = finding["example"]
    assert example["delta"] == example["closed_form"] - example["definitional"]
    identity_delta = closed_form_ni(noiseless) - noisy_information(noiseless)
    assert identity_delta == -18.0
    print(f"criterion 6: definitional 2.0, closed form -16.0, delta -18.0; "
          f"{disagreements}/200 corpus disagreements reported, none substituted")


def test_criterion_07_probability_embedding_and_existence():
    worst = 0.0
    for f in generate(AuditConfig(category=CategoryId.NOISY_FINSET, measures=(),
                                  mode="random", max_size=8, trials=500, seed=0)):
        embedded = from_noisy_finset(f)
        worst = max(worst, abs(continuous_noisy_information(embedded) - noisy_information(f)))
    assert worst <= 1e-9

    report = audit_all(AuditConfig(
        category=CategoryId.FINPROB, measures=(), mode="random",
        max_size=4, trials=1000, seed=0,
    ))
    (finding,) = [f for f in report.findings if f["kind"] == "internal_product_existence"]
    assert finding["defined"] > 0
    assert finding["undefined"] > 0
    assert finding["defined"] + finding["undefined"] == 1000
    assert finding["rate"] == finding["defined"] / 1000

    # Exhibit one pair of each kind concretely.
    prob_ops = category(CategoryId.FINPROB)
    defined = undefined = None
    attempt = 0
    while defined is None or undefined is None:
        rnd = trial_rng(0, "exhibit", attempt)
        attempt += 1
        f = prob_ops.random_morphism(rnd, Limits(4))
        g = prob_ops.random_morphism_from(rnd, f.domain, Limits(4))
        product = prob_ops.internal_product(f, g)
        if is_undefined(product):
            undefined = (f, g)
        else:
            defined = (f, g)
    assert not is_undefined(prob_ops.internal_product(*defined))
    assert is_undefined(prob_ops.internal_product(*undefined))
    print(f"criterion 7: embedding gap {worst:.1e} over 500 systems; "
          f"existence rate {finding['rate']:.3f} "
          f"({finding['defined']} defined / {finding['undefined']} undefined)")


def test_criterion_08_dual_audits_and_bi_information():
    set_dual = audit_all(AuditConfig(
        category=CategoryId.FINSET_DUAL, measures=("image_cardinality",),
        mode="exhaustive", max_size=3,
    ))
    vect_dual = audit_all(AuditConfig(
        category=CategoryId.FINVECT_DUAL, measures=("image_dimension",),
        mode="exhaustive", max_size=2, field="gf2", tolerance=1e-12,
    ))
    forward = audit_all(AuditConfig(
        category=CategoryId.FINVECT, measures=("rank",),
        mode="exhaustive", max_size=2, field="gf2", tolerance=1e-12,
    ))
    assert not set_dual.violations
    assert not vect_dual.violations
    assert not forward.violations

    # Bi-information: the rank function scores the same corpus in both
    # orientations, because row rank equals column rank.
    dual_measure = get_measure(CategoryId.FINVECT_DUAL, "image_dimension")
    corpus = list(VECT_OPS.exhaustive_morphisms(Limits(2, field=GF2)))
    for m in corpus:
        assert value_of(dual_measure, DualMorphism(m)) == float(rank(m))
    print(f"criterion 8: dual audits clean "
          f"({sum(set_dual.checks_run.values()):,} + "
          f"{sum(vect_dual.checks_run.values()):,} evaluations), rank agrees "
          f"both ways on {len(corpus)} morphisms")


def test_criterion_09_selftest_and_total_replay():
    report = audit_all(AuditConfig(
        category=CategoryId.FINSET,
        measures=("broken_constant", "broken_source_size"),
        mode="exhaustive", max_size=3,
    ))
    by_measure = Counter(v.measure for v in report.violations)
    assert by_measure["broken_constant"] >= 1
    assert by_measure["broken_source_size"] >= 1
    # Exact census doubles as a corpus-stability regression.
    assert by_measure == {"broken_constant": 3703, "broken_source_size": 3629}
    for index in range(len(report.violations)):
        assert replay(report, index) == report.violations[index]
    print(f"criterion 9: {len(report.violations)} violations from two broken "
          "measures, every one replayed bit-exact")


def test_criterion_10_reports_are_byte_identical(tmp_path):
    config = AuditConfig(
        category=CategoryId.NOISY_FINSET, measures=("noisy_information",),
        mode="measure_compatible", max_size=6, trials=300, seed=0,
    )
    first = dumps(audit_all(config).to_json()) + "\n"
    second = dumps(audit_all(config).to_json()) + "\n"
    assert first == second

    path = tmp_path / "report.json"
    proc = subprocess.run(
        [sys.executable, "-m", "infocat.cli", "audit",
         "--category", "noisy_finset", "--measure", "noisy_information",
         "--mode", "measure_compatible", "--max-size", "6",
         "--trials", "300", "--seed", "0", "--report", str(path)],
        capture_output=True, text=True,
    )
    assert proc.returncode in (0, 1)
    assert path.read_bytes() == first.encode()
    print(f"criterion 10: {len(first.encode()):,} byte report identical across "
          "two in-process runs and one subprocess run")
