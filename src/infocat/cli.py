"""Command line front end: audit, info, capacity, replay.

Exit codes: 0 success (and no violations), 1 audit violations found,
2 usage or input errors, 3 internal errors including replay mismatches.
Malformed JSON inputs are reported with line and column.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from . import jsonio
from .audit import (
    AuditConfig,
    AuditReport,
    MODES,
    audit_all,
    audit_axioms,
    audit_propositions,
    replay as replay_violation,
)
from .capacity import blahut_arimoto
from .core import CategoryId, is_undefined
from .errors import InfoCatError, ReplayMismatch
from .measures import get_measure, value_of


class _CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _load_json(path: str):
    if path == "-":
        text = sys.stdin.read()
        label = "<stdin>"
    else:
        label = path
        try:
            text = Path(path).read_text()
        except OSError as exc:
            raise _CliError(2, f"cannot read {path}: {exc.strerror or exc}")
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise _CliError(
            2, f"{label}: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        )


def _format_value(v: float) -> str:
    # Whole numbers print bare: "2" not "2.0".
    if float(v) == int(v):
        return str(int(v))
    return repr(float(v))


def _cmd_audit(args) -> int:
    config = AuditConfig(
        category=CategoryId(args.category),
        measures=tuple(args.measure or ()),
        mode=args.mode,
        max_size=args.max_size,
        trials=args.trials,
        seed=args.seed,
        tolerance=args.tolerance,
        log_base=args.log_base,
        field=args.field,
        budget=args.budget,
        checks=tuple(args.checks.split(",")) if args.checks else None,
    )
    runner = {
        "axioms": audit_axioms,
        "propositions": audit_propositions,
        "all": audit_all,
    }[args.scope]
    report = runner(config)
    print(
        f"audited {config.category.value}"
        f" (mode {config.mode}, max size {config.max_size}, seed {config.seed})"
    )
    for name in sorted(report.checks_run):
        ran = report.checks_run[name]
        skipped = report.skipped_undefined.get(name, 0)
        line = f"  {name}: {ran} evaluated"
        if skipped:
            line += f", {skipped} skipped"
        print(line)
    for finding in report.findings:
        detail = ", ".join(
            f"{k}={v}" for k, v in finding.items() if k not in ("kind", "example")
        )
        print(f"  finding {finding['kind']}: {detail}")
    print(f"violations: {len(report.violations)}")
    for v in report.violations[:10]:
        tag = f"[{v.measure}]" if v.measure else ""
        print(
            f"  {v.check}{tag} trial {v.trial_index}:"
            f" lhs={v.lhs!r} rhs={v.rhs!r} delta={v.delta!r}"
        )
    if len(report.violations) > 10:
        print(f"  ... and {len(report.violations) - 10} more")
    if args.report:
        Path(args.report).write_text(jsonio.dumps(report.to_json()) + "\n")
        print(f"report written to {args.report}")
    return 1 if report.violations else 0


def _cmd_info(args) -> int:
    data = _load_json(args.input)
    morphism = jsonio.morphism_from_json(data)
    measure = get_measure(morphism.category, args.measure)
    value = value_of(measure, morphism)
    if is_undefined(value):
        print("undefined")
    else:
        print(_format_value(value))
    return 0


def _cmd_capacity(args) -> int:
    if not (math.isfinite(args.epsilon) and args.epsilon > 0):
        raise _CliError(2, f"--epsilon must be a finite number above 0, not {args.epsilon}")
    if args.max_iters < 1:
        raise _CliError(2, f"--max-iters must be at least 1, not {args.max_iters}")
    data = _load_json(args.channel)
    channel = jsonio.channel_from_json(data)
    result = blahut_arimoto(channel, eps=args.epsilon, max_iters=args.max_iters)
    print(jsonio.dumps(result.to_json()))
    return 0


def _cmd_replay(args) -> int:
    data = _load_json(args.report)
    try:
        report = AuditReport.from_json(data)
    except (KeyError, TypeError, ValueError) as exc:
        raise _CliError(2, f"{args.report}: not a valid audit report ({exc})")
    violation = replay_violation(report, args.index)
    print(jsonio.dumps(violation.to_json()))
    print(f"replay ok: {violation.check} trial {violation.trial_index} reproduced")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="infocat",
        description="Audit information measures over finite categories.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    audit = sub.add_parser("audit", help="run property checks and report violations")
    audit.add_argument(
        "--category", required=True, choices=[c.value for c in CategoryId]
    )
    audit.add_argument(
        "--measure",
        action="append",
        metavar="NAME",
        help="measure to audit; repeat the flag for several",
    )
    audit.add_argument("--mode", default="random", choices=MODES)
    audit.add_argument("--max-size", type=int, default=3)
    audit.add_argument("--trials", type=int, default=100)
    audit.add_argument("--seed", type=int, default=0)
    audit.add_argument("--tolerance", type=float, default=1e-9)
    audit.add_argument("--log-base", default="2", choices=("2", "e"))
    audit.add_argument("--field", default=None, help="scalar field, e.g. gf2 or rational")
    audit.add_argument("--budget", type=int, default=10_000_000)
    audit.add_argument("--checks", default=None, help="comma-separated check subset")
    audit.add_argument(
        "--scope", default="all", choices=("axioms", "propositions", "all")
    )
    audit.add_argument("--report", metavar="PATH", help="write the JSON report here")
    audit.set_defaults(func=_cmd_audit)

    info = sub.add_parser("info", help="evaluate one measure on one morphism")
    info.add_argument("--input", required=True, help="morphism JSON path, - for stdin")
    info.add_argument("--measure", required=True)
    info.set_defaults(func=_cmd_info)

    capacity = sub.add_parser("capacity", help="channel capacity via alternating optimization")
    capacity.add_argument("--channel", required=True, help="channel JSON path, - for stdin")
    capacity.add_argument("--epsilon", type=float, default=1e-9)
    capacity.add_argument("--max-iters", type=int, default=100_000)
    capacity.set_defaults(func=_cmd_capacity)

    replay = sub.add_parser("replay", help="re-run one recorded violation")
    replay.add_argument("--report", required=True)
    replay.add_argument("--index", type=int, required=True)
    replay.set_defaults(func=_cmd_replay)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except _CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except ReplayMismatch as exc:
        print(f"replay mismatch: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InfoCatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - safety net
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
