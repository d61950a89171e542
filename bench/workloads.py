"""The benchmark's workloads: which audits each one runs.

Each audit is plain data, turned into an ``AuditConfig`` by the worker
with the run's seed; ``replay_untimed`` marks an audit whose violations
are replayed and checked but not timed.  Why each workload exists, and
what was left out at what cost, is in README.md next to this file.
"""

from __future__ import annotations

BROKEN_MEASURES = ("broken_constant", "broken_source_size")

WORKLOADS = {
    # A pass takes about 6 s, so that a run fits several and reports each
    # audit's median over them.  Left out for time: four more finset
    # measures (about 4 s more per pass) and finvect GF(3) dims <= 2 (about
    # 5 s without internal_strong_subadditivity, about 44 s more with it).
    "exhaustive-laws": (
        {"name": "finset-size3-laws",
         "config": {"category": "finset", "measures": ("shannon", "afn(2,0.5)"),
                    "mode": "exhaustive", "max_size": 3}},
        {"name": "finvect-gf2-dim2-laws",
         "config": {"category": "finvect", "measures": ("rank",), "mode": "exhaustive",
                    "max_size": 2, "field": "gf2", "tolerance": 1e-12}},
        {"name": "finvect_dual-gf2-dim2-laws",
         "config": {"category": "finvect_dual", "measures": ("image_dimension",),
                    "mode": "exhaustive", "max_size": 2, "field": "gf2",
                    "tolerance": 1e-12}},
        # Gives the replay phase witnesses; exhaustive law audits record none.
        {"name": "finset-size2-selftest",
         "config": {"category": "finset", "measures": BROKEN_MEASURES,
                    "mode": "exhaustive", "max_size": 2}},
    ),
    "random-noisy": (
        {"name": "noisy-compatible-information",
         "config": {"category": "noisy_finset", "measures": ("noisy_information",),
                    "mode": "measure_compatible", "max_size": 8, "trials": 1000}},
        # At max_size 6 a channel needing about 38,000 Blahut-Arimoto
        # iterations turns up in some seeds only, doubling this audit's work
        # from seed to seed; at max_size 4 the work varies by a few percent.
        # Replaying a witness of the next two audits is one Blahut-Arimoto
        # solve, whose length depends on the channel drawn: over seeds 1-10
        # the 99th percentile of the capacity witnesses' replays ranged
        # from 3.8 ms to 11 ms.  Timed, they would measure the seed.
        {"name": "noisy-random-capacity",
         "config": {"category": "noisy_finset", "measures": ("capacity",),
                    "mode": "random", "max_size": 4, "trials": 100},
         "replay_untimed": True},
        {"name": "noisy_finprob-random-information",
         "config": {"category": "noisy_finprob",
                    "measures": ("continuous_noisy_information",),
                    "mode": "random", "max_size": 4, "trials": 100},
         "replay_untimed": True},
    ),
    "violations-replay": (
        {"name": "finset-size3-selftest",
         "config": {"category": "finset", "measures": BROKEN_MEASURES,
                    "mode": "exhaustive", "max_size": 3}},
    ),
}

# Rounds of replaying every timed violation in an untraced pass; a traced
# pass replays each once.  The count is fixed, so every pass does the
# same work whatever the speed of the machine.  A violation's latency
# is the median of its replays in the run: on exhaustive-laws one round
# of 128 replays lasts milliseconds, so it takes many rounds for that
# median to span more than a brief moment of the machine.
REPLAY_ROUNDS = {"exhaustive-laws": 30, "random-noisy": 15, "violations-replay": 1}
