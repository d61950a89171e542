"""infocat benchmark: one workload, end-to-end or per-layer metrics.

    python3 bench/run.py --workload exhaustive-laws --seed 0 --seconds 30 --trace 0

Run from the repository root; the package is imported from ./src.  Each
pass of the workload runs in a fresh interpreter (bench/worker.py), one
at a time, with numerical libraries held to one thread.

--trace 0 runs untraced passes until --seconds have passed (at least
three), timing fresh ``import infocat.cli`` spawns before each, and
reports the end-to-end metrics: each audit's median over passes, replay
percentiles over each violation's median replay, the median set-up
time.  --trace 1 runs one untraced pass, one traced pass (each
violation replayed once) and one pass with a single check per audit,
and reports the per-layer metrics.

Every audit is checked: at seed 0 against bench/pins.json (census and
report sha256), at any seed against the seed-independent census of the
exhaustive audits and for byte-identical reports across passes; every
replay must reproduce its violation.  Human-readable lines come first;
the last line of standard output is one JSON object with "correct",
"attempted", "failed" and "metrics".  The exit code is 0 only when
everything was correct.  The full record of the run, traced spans
included, is written to .bench_out/ in the repository root.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

from stats import (  # noqa: E402
    census_diff, median, median_per_item, percentile, ratio, self_times, tail_summary,
)
from tracer import CACHES  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

PINS = BENCH_DIR / "pins.json"
OUT_DIR = ROOT / ".bench_out"

# Set-up spawns before each pass, so that they are spread over the run.
SETUP_SPAWNS_PER_PASS = 3
MIN_PASSES = 3
# The whole run must end within 180 s; stop starting passes well before.
DEADLINE_S = 165.0

END_TO_END = (
    ("verdict_s", "s", "lower"),
    ("evals_per_s", "1/s", "higher"),
    ("replay_p50_ms", "ms", "lower"),
    ("replay_p99_ms", "ms", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
    ("setup_s", "s", "lower"),
)

# infocat.audit.ALL_CHECKS, spelled out: this process never imports infocat.
CHECKS = (
    "invariance", "external_additivity", "internal_strong_subadditivity",
    "data_processing", "section_iff", "destination_matching",
    "iso_well_defined", "source_matching", "internal_monotonicity",
    "internal_idempotence", "internal_subadditivity", "unit_product_identity",
    "zero_at_terminal", "projection_irrelevance", "terminal_structure",
    "projection_via_terminal", "internal_product_existence",
)

TRACED_CALLS = (
    "prng.trial_rng", "corpus.enumerate", "corpus.random",
    "ops.compose", "ops.external_product", "ops.internal_product",
    "ops.random_iso_out", "ops.section_exists", "ops.iso_search",
    "measures.value_of", "measures.exact_of",
    "exact.add", "exact.eq", "exact.hash", "exact.float",
    "capacity.blahut_arimoto", "jsonio.morphism_to_json",
)


def _per_layer_table():
    rows = [
        ("audit.self_s", "s", "lower"),
        ("audit.evals", "count", "higher"),
        ("audit.skipped", "count", "lower"),
    ]
    rows += [(f"audit.check.{c}.evals_per_s", "1/s", "higher") for c in CHECKS]
    for name in TRACED_CALLS:
        rows += [(f"{name}.calls", "count", "lower"), (f"{name}.self_s", "s", "lower")]
    rows += [
        ("corpus.size", "count", "lower"),
        ("ops.internal_product.defined_ratio", "ratio", "higher"),
        ("measures.undefined_ratio", "ratio", "lower"),
        ("capacity.iterations", "count", "lower"),
        ("capacity.not_converged", "count", "lower"),
        ("jsonio.report_to_json_s", "s", "lower"),
        ("jsonio.dumps_s", "s", "lower"),
        ("jsonio.from_json_s", "s", "lower"),
        ("jsonio.report_bytes", "bytes", "lower"),
        ("replay.calls", "count", "lower"),
        ("replay.self_s", "s", "lower"),
        ("replay.mismatches", "count", "lower"),
    ]
    rows += [(f"cache.{name}.hit_ratio", "ratio", "higher") for name, _, _ in CACHES]
    rows.append(("trace.overhead_ratio", "ratio", "lower"))
    return tuple(rows)


PER_LAYER = _per_layer_table()


class BenchError(Exception):
    """The benchmark could not produce a result at all."""


class Runner:
    """Starts fresh interpreters one at a time, within the run's deadline."""

    def __init__(self):
        self.started = time.perf_counter()
        self.env = dict(
            os.environ,
            PYTHONPATH=str(ROOT / "src"),
            OMP_NUM_THREADS="1",
            OPENBLAS_NUM_THREADS="1",
            MKL_NUM_THREADS="1",
        )

    def remaining(self) -> float:
        return DEADLINE_S - (time.perf_counter() - self.started)

    def _run(self, argv) -> subprocess.CompletedProcess:
        if self.remaining() <= 0:
            raise BenchError("out of time before the run could finish")
        try:
            return subprocess.run(
                [sys.executable, *argv], cwd=ROOT, env=self.env,
                capture_output=True, text=True, timeout=self.remaining() + 10.0,
            )
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{argv[:2]} did not finish in time") from exc

    def setup_time(self) -> float:
        """Wall time of one fresh interpreter importing infocat.cli."""
        t0 = time.perf_counter()
        proc = self._run(["-c", "import infocat.cli"])
        elapsed = time.perf_counter() - t0
        if proc.returncode != 0:
            raise BenchError(f"import infocat.cli failed:\n{proc.stderr.strip()}")
        return elapsed

    def worker(self, workload: str, seed: int, mode: str) -> dict:
        proc = self._run([str(BENCH_DIR / "worker.py"), "--workload", workload,
                          "--seed", str(seed), "--mode", mode])
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise BenchError(f"{mode} pass of {workload} failed:\n{proc.stderr.strip()}")
        out = json.loads(lines[-1])
        out["mode"] = mode
        return out


# -- correctness -----------------------------------------------------------

def _digest(audit: dict) -> dict:
    return {k: audit[k] for k in ("checks_run", "skipped_undefined", "census", "sha256")}


def judge(workload: str, seed: int, passes: list[dict], pins: dict | None):
    """(attempted, failed, problems) over every audit and replay of the run."""
    specs = {spec["name"]: spec for spec in WORKLOADS[workload]}
    attempted = failed = 0
    problems: list[str] = []
    first_sha: dict[str, str] = {}
    for number, p in enumerate(passes):
        tag = f"pass {number} ({p['mode']})"
        problems += [f"{tag}: {e['where']}\n{e['traceback']}" for e in p.get("errors", ())]
        if p["mode"] == "per_check":
            attempted += p["attempted"]
            failed += p["failed"]
            continue
        for audit in p["audits"]:
            attempted += 1
            name = audit["name"]
            if audit["failed"]:
                failed += 1
                problems.append(f"{tag}: audit {name} raised")
                continue
            found = []
            expected = (pins or {}).get(name)
            if expected is None:
                found.append("no pinned census")
            elif seed == 0:
                found += census_diff(expected, _digest(audit))
            elif specs[name]["config"]["mode"] == "exhaustive":
                found += census_diff(
                    {k: v for k, v in expected.items() if k != "sha256"},
                    {k: v for k, v in _digest(audit).items() if k != "sha256"},
                )
            sha = first_sha.setdefault(name, audit["sha256"])
            if audit["sha256"] != sha:
                found.append("report bytes differ from the first pass")
            if found:
                failed += 1
                problems += [f"{tag}: audit {name}: {line}" for line in found]
        attempted += p["replay"]["attempted"]
        failed += p["replay"]["failed"]
        if p["replay"]["failed"]:
            problems.append(f"{tag}: {p['replay']['failed']} replays did not reproduce")
        if not p["replay"]["latencies_s"]:
            problems.append(f"{tag}: no violations to replay")
    return attempted, failed, problems


# -- metrics ----------------------------------------------------------------
# Other tenants of a shared machine slow it by up to 2x in phases lasting
# seconds to minutes.  Each audit's time is therefore its median over the
# passes, and a violation's replay latency is the median of its replays in
# the run; the replay percentiles are taken over the violations.

def _verdict_s(p: dict) -> float:
    return sum(a["verdict_s"] for a in p["audits"] if not a["failed"])


def _evals(audit: dict) -> int:
    return sum(audit["checks_run"].values()) + sum(audit["skipped_undefined"].values())


def median_per_audit(passes: list[dict], key: str) -> dict[str, float]:
    """Each audit's median value of key over the passes it succeeded in."""
    values: dict[str, list[float]] = {}
    for p in passes:
        for a in p["audits"]:
            if not a["failed"]:
                values.setdefault(a["name"], []).append(a[key])
    return {name: median(v) for name, v in values.items()}


def end_to_end_metrics(passes: list[dict], setup: list[float]) -> tuple[dict, list[str]]:
    evals = {a["name"]: _evals(a) for p in passes for a in p["audits"] if not a["failed"]}
    latencies = [p["replay"]["latencies_s"] for p in passes]
    per_violation_ms = [s * 1e3 for s in median_per_item(latencies)]
    replays = sum(len(times) for run in latencies for times in run)
    p99, beyond = percentile(per_violation_ms, 99.0)
    tail = tail_summary(per_violation_ms)
    metrics = {
        "verdict_s": sum(median_per_audit(passes, "verdict_s").values()),
        "evals_per_s": ratio(sum(evals.values()),
                             sum(median_per_audit(passes, "audit_s").values())),
        "replay_p50_ms": percentile(per_violation_ms, 50.0)[0],
        "replay_p99_ms": p99,
        "peak_rss_mb": median(p["peak_rss_mb"] for p in passes),
        "setup_s": median(setup),
    }
    notes = [
        f"passes: {len(passes)}, pass verdict_s "
        + ", ".join(f"{_verdict_s(p):.3f}" for p in passes)
        + f"; setup spawns: {len(setup)}",
        f"replay: {len(per_violation_ms)} violations, {replays} replays; "
        f"p99 has {beyond} beyond; highest percentile with >= 10 beyond: "
        f"p{tail['tail_q']} = {tail['tail']} ms",
    ]
    return metrics, notes


def per_layer_metrics(plain: dict, traced: dict, per_check: dict) -> dict:
    trace = traced["trace"]
    wrapped, calls, counts = set(trace["wrapped"]), trace["calls"], trace["counts"]
    audits = [a for a in traced["audits"] if not a["failed"]]
    spans = trace["spans"]
    own = self_times(spans)
    m: dict[str, float] = {
        "audit.self_s": sum(own[s["id"]] for s in spans if s["name"] == "audit"),
        "audit.evals": sum(sum(a["checks_run"].values()) for a in audits),
        "audit.skipped": sum(sum(a["skipped_undefined"].values()) for a in audits),
        "jsonio.report_to_json_s": sum(a["to_json_s"] for a in audits),
        "jsonio.dumps_s": sum(a["dumps_s"] for a in audits),
        "jsonio.from_json_s": traced["from_json_s"],
        "jsonio.report_bytes": sum(a["report_bytes"] for a in audits),
        "replay.calls": traced["replay"]["attempted"],
        "replay.self_s": sum(own[s["id"]] for s in spans if s["name"] == "replay"),
        "replay.mismatches": traced["replay"]["failed"],
        "trace.overhead_ratio": ratio(_verdict_s(traced), _verdict_s(plain)),
    }
    for check in CHECKS:
        evals, seconds = per_check["per_check"].get(check, (0, 0.0))
        m[f"audit.check.{check}.evals_per_s"] = ratio(evals, seconds)
    for name in wrapped:
        n_calls, self_s = calls[name]
        m[f"{name}.calls"] = n_calls
        m[f"{name}.self_s"] = self_s
    if {"corpus.enumerate", "corpus.random"} & wrapped:
        m["corpus.size"] = counts.get("corpus.size", 0)
    if "ops.internal_product" in wrapped:
        m["ops.internal_product.defined_ratio"] = ratio(
            counts.get("ops.internal_product.defined", 0), calls["ops.internal_product"][0])
    if "measures.value_of" in wrapped:
        m["measures.undefined_ratio"] = ratio(
            counts.get("measures.undefined", 0), calls["measures.value_of"][0])
    if "capacity.blahut_arimoto" in wrapped:
        m["capacity.iterations"] = counts.get("capacity.iterations", 0)
        m["capacity.not_converged"] = counts.get("capacity.not_converged", 0)
    for name, hit_ratio in trace["caches"].items():
        m[f"cache.{name}.hit_ratio"] = hit_ratio
    return m


# -- run --------------------------------------------------------------------

def source_identity() -> dict:
    """The git commit when there is one, and a digest of the sources."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    commit = None
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        lines = top.stdout.split()
        if top.returncode == 0 and len(lines) == 2 and Path(lines[0]).resolve() == ROOT:
            commit = lines[1]
    except (OSError, subprocess.TimeoutExpired):
        pass
    return {"git_sha": commit, "source_sha256": digest.hexdigest()}


def measure(args, runner: Runner) -> tuple[list[dict], dict, list[str], dict]:
    if args.trace:
        modes = ("plain", "traced", "per_check")
        passes = [runner.worker(args.workload, args.seed, mode) for mode in modes]
        metrics = per_layer_metrics(*passes)
        return passes, metrics, [], {}
    runner.setup_time()  # warm-up: compiles bytecode, fills the file cache
    setup, passes = [], []
    t0 = time.perf_counter()
    while True:
        setup += [runner.setup_time() for _ in range(SETUP_SPAWNS_PER_PASS)]
        start = time.perf_counter()
        passes.append(runner.worker(args.workload, args.seed, "plain"))
        passes[-1]["wall_s"] = time.perf_counter() - start
        elapsed = time.perf_counter() - t0
        longest = max(p["wall_s"] for p in passes)
        if len(passes) >= MIN_PASSES and elapsed >= args.seconds:
            break
        if longest * 1.3 > runner.remaining():
            break
    metrics, notes = end_to_end_metrics(passes, setup)
    return passes, metrics, notes, {"setup_s": setup}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "infocat" / "__init__.py").is_file():
        print(f"error: no infocat sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    identity = source_identity()
    load_before = os.getloadavg()
    try:
        passes, metrics, notes, extra = measure(args, Runner())
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    pins = json.loads(PINS.read_text()) if PINS.is_file() else {}
    attempted, failed, problems = judge(args.workload, args.seed, passes,
                                        pins.get(args.workload))
    correct = failed == 0 and not problems

    table = PER_LAYER if args.trace else END_TO_END
    shown = {name: {"value": metrics[name], "unit": unit}
             for name, unit, _ in table if name in metrics}
    env = passes[0]["environment"]
    print(f"# infocat benchmark: workload {args.workload}, seed {args.seed}, "
          f"trace {args.trace}")
    print(f"# git {identity['git_sha']}, source sha256 {identity['source_sha256'][:16]}, "
          f"python {env['python']}, numpy {env['numpy']}, cpu_count {env['cpu_count']}")
    print(f"# loadavg before {load_before}, after {os.getloadavg()}; per pass: "
          + "; ".join(f"{p['loadavg']['before'][0]:.2f}->{p['loadavg']['after'][0]:.2f}"
                      for p in passes))
    for note in notes:
        print(f"# {note}")
    for name, entry in shown.items():
        print(f"{name} = {entry['value']:.6g} {entry['unit']}")
    print(f"error_rate = {ratio(failed, attempted):.6g} ratio ({failed}/{attempted})")
    for line in problems[:20]:
        print(f"# problem: {line}")

    OUT_DIR.mkdir(exist_ok=True)
    record = {"args": vars(args), "identity": identity, "load_before": load_before,
              "metrics": metrics, "attempted": attempted, "failed": failed,
              "problems": problems, "passes": passes, **extra}
    out_file = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record))
    print(f"# record written to {out_file.relative_to(ROOT)}")

    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": shown}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
