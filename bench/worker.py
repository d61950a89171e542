"""One pass of one workload, in a fresh interpreter.

    python3 bench/worker.py --workload NAME --seed N --mode plain|traced|per_check

run.py starts one of these per pass, one at a time, so the package's
module-level caches start cold as they do for a CLI user.  The pass
prints one JSON object on its last line of standard output: per-audit
timings and digests, replay latencies and outcomes, the process's peak
RSS, and, in traced mode, the tracer's records.  It judges nothing;
run.py compares the digests against the pins.

Modes:
  plain      audits, serialization and a fixed number of replay rounds,
             untraced (end-to-end);
  traced     the same with tracing installed and one replay round
             (per-layer metrics);
  per_check  each audit once per check, untraced (per-check throughput).
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import json
import os
import platform
import resource
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"
sys.path.insert(0, str(SRC_DIR))

from workloads import REPLAY_ROUNDS, WORKLOADS  # noqa: E402


def _check_import():
    import infocat

    if Path(infocat.__file__).resolve().parent.parent != SRC_DIR:
        raise SystemExit(f"infocat imported from {infocat.__file__}, not from {SRC_DIR}")


def audit_config(spec: dict, seed: int):
    from infocat.audit import AuditConfig

    return AuditConfig(**spec["config"], seed=seed)


def census(report) -> dict:
    counts = Counter(f"{v.check}/{v.measure}" for v in report.violations)
    return dict(sorted(counts.items()))


def _error(where: str) -> dict:
    return {"where": where, "traceback": traceback.format_exc(limit=4)}


def run_pass(workload: str, seed: int, rounds: int, tracer=None) -> dict:
    """Audit, serialize, parse back and replay; time each step."""
    from infocat import jsonio
    from infocat.audit import AuditReport, audit_all, replay

    span = tracer.span if tracer is not None else _no_span
    clock = time.perf_counter
    audits, blobs, errors = [], [], []
    with span("workload", workload=workload):
        for spec in WORKLOADS[workload]:
            name = spec["name"]
            try:
                config = audit_config(spec, seed)
                with span("audit", audit=name):
                    t0 = clock()
                    report = audit_all(config)
                    t1 = clock()
                with span("serialize.to_json", audit=name):
                    data = report.to_json()
                    t2 = clock()
                with span("serialize.dumps", audit=name):
                    blob = jsonio.dumps(data).encode()
                    t3 = clock()
            except Exception:
                errors.append(_error(f"audit {name}"))
                audits.append({"name": name, "failed": True})
                continue
            audits.append({
                "name": name,
                "failed": False,
                "audit_s": t1 - t0,
                "to_json_s": t2 - t1,
                "dumps_s": t3 - t2,
                "verdict_s": t3 - t0,
                "checks_run": dict(sorted(report.checks_run.items())),
                "skipped_undefined": dict(sorted(report.skipped_undefined.items())),
                "census": census(report),
                "sha256": hashlib.sha256(blob).hexdigest(),
                "report_bytes": len(blob),
            })
            if report.violations:
                blobs.append((spec, blob))
            del report, data

        # Violations of an audit marked "replay_untimed" are replayed and
        # checked once; the others are replayed `rounds` times and timed.
        timed, untimed = [], []
        from_json_s = 0.0
        for spec, blob in blobs:
            try:
                with span("parse.from_json", audit=spec["name"]):
                    t0 = clock()
                    report = AuditReport.from_json(json.loads(blob))
                    from_json_s += clock() - t0
            except Exception:
                errors.append(_error(f"from_json {spec['name']}"))
                continue
            (untimed if spec.get("replay_untimed") else timed).extend(
                (report, index, expected) for index, expected in enumerate(report.violations))
        del blobs

        attempted = failed = 0

        def replay_one(report, index, expected) -> float:
            nonlocal attempted, failed
            attempted += 1
            with span("replay"):
                t0 = clock()
                try:
                    got = replay(report, index)
                except Exception:
                    got = None
                    if failed < 5:
                        errors.append(_error(f"replay {index}"))
                elapsed = clock() - t0
            if got != expected:
                failed += 1
            return elapsed

        latencies: list[list[float]] = [[] for _ in timed]
        for _ in range(rounds):
            for item, times in zip(timed, latencies):
                times.append(replay_one(*item))
        for item in untimed:
            replay_one(*item)
    return {
        "audits": audits,
        "from_json_s": from_json_s,
        "replay": {"latencies_s": latencies, "attempted": attempted, "failed": failed},
        "errors": errors,
    }


@contextlib.contextmanager
def _no_span(name, **attrs):
    yield None


def run_per_check(workload: str, seed: int) -> dict:
    """Each audit once per check: evaluations and audit time per check."""
    from infocat.audit import ALL_CHECKS, audit_all

    per_check: dict[str, list] = {}
    errors = []
    attempted = failed = 0
    for spec in WORKLOADS[workload]:
        try:
            config = audit_config(spec, seed)
        except Exception:
            errors.append(_error(f"config {spec['name']}"))
            continue
        for check in config.checks or ALL_CHECKS:
            single = dataclasses.replace(config, checks=(check,))
            attempted += 1
            try:
                t0 = time.perf_counter()
                report = audit_all(single)
                elapsed = time.perf_counter() - t0
            except Exception:
                failed += 1
                errors.append(_error(f"audit {spec['name']} check {check}"))
                continue
            if check in report.checks_run:
                entry = per_check.setdefault(check, [0, 0.0])
                entry[0] += report.checks_run[check] + report.skipped_undefined[check]
                entry[1] += elapsed
    return {"per_check": per_check, "attempted": attempted, "failed": failed,
            "errors": errors}


def environment() -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu_count": os.cpu_count(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--mode", choices=("plain", "traced", "per_check"), default="plain")
    args = parser.parse_args(argv)

    load_before = os.getloadavg()
    _check_import()
    if args.mode == "per_check":
        out = run_per_check(args.workload, args.seed)
    elif args.mode == "traced":
        from tracer import Tracer, cache_hit_ratios, instrument

        tracer = Tracer()
        wrapped = instrument(tracer)
        out = run_pass(args.workload, args.seed, 1, tracer)
        out["trace"] = {
            "wrapped": wrapped,
            "calls": tracer.calls,
            "counts": tracer.counts,
            "caches": cache_hit_ratios(),
            "spans": tracer.spans,
        }
    else:
        out = run_pass(args.workload, args.seed, REPLAY_ROUNDS[args.workload])
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["loadavg"] = {"before": load_before, "after": os.getloadavg()}
    out["environment"] = environment()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
