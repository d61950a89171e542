"""Drive the command line entry point in process and pin its contract:
exit codes, stdout shapes, report files, and replay behaviour."""

import io
import json

import pytest

from infocat.cli import main
from infocat.finset import finset_morphism
from infocat.jsonio import morphism_to_json


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def clean_audit_args(tmp_path=None, report=None):
    argv = [
        "audit",
        "--category", "finset",
        "--measure", "shannon",
        "--mode", "exhaustive",
        "--max-size", "2",
    ]
    if report is not None:
        argv += ["--report", str(report)]
    return argv


class TestAudit:
    def test_clean_run(self, capsys):
        code, out, err = run(capsys, *clean_audit_args())
        assert code == 0
        assert err == ""
        lines = out.splitlines()
        assert lines[0] == "audited finset (mode exhaustive, max size 2, seed 0)"
        assert "  invariance: 8 evaluated" in lines
        assert "  external_additivity: 64 evaluated" in lines
        assert lines[-1] == "violations: 0"

    def test_violations_set_exit_code_and_truncate(self, capsys):
        code, out, _ = run(
            capsys,
            "audit", "--category", "finset", "--measure", "broken_constant",
            "--mode", "exhaustive", "--max-size", "2",
        )
        assert code == 1
        assert "violations: 72" in out
        # Ten shown, the rest summarized.
        shown = [l for l in out.splitlines() if " trial " in l]
        assert len(shown) == 10
        assert "  ... and 62 more" in out
        assert "external_additivity[broken_constant]" in out

    def test_report_file(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        code, out, _ = run(capsys, *clean_audit_args(report=path))
        assert code == 0
        assert f"report written to {path}" in out
        data = json.loads(path.read_text())
        assert data["schema"] == "infocat-report/1"
        assert data["config"]["category"] == "finset"

    def test_scope_flag(self, capsys):
        code, out, _ = run(
            capsys,
            "audit", "--category", "finset", "--measure", "shannon",
            "--mode", "exhaustive", "--max-size", "2", "--scope", "axioms",
        )
        assert code == 0
        assert "invariance" in out
        assert "internal_monotonicity" not in out

    def test_bad_config_is_usage_error(self, capsys):
        code, _, err = run(
            capsys,
            "audit", "--category", "finset", "--measure", "shannon",
            "--mode", "exhaustive", "--max-size", "0",
        )
        assert code == 2
        assert "error:" in err

    def test_unknown_category_rejected_by_parser(self, capsys):
        code, _, err = run(capsys, "audit", "--category", "posets")
        assert code == 2
        assert "invalid choice" in err


def write_broken_report(capsys, tmp_path):
    path = tmp_path / "broken.json"
    code = main([
        "audit", "--category", "finset", "--measure", "broken_constant",
        "--mode", "exhaustive", "--max-size", "2", "--report", str(path),
    ])
    capsys.readouterr()
    assert code == 1
    return path


class TestReplay:
    def test_replay_ok(self, capsys, tmp_path):
        path = write_broken_report(capsys, tmp_path)
        code, out, _ = run(capsys, "replay", "--report", str(path), "--index", "0")
        assert code == 0
        assert "replay ok: external_additivity trial 0 reproduced" in out
        # The violation itself is printed as JSON above the status line.
        payload = json.loads(out[: out.rindex("replay ok:")])
        assert payload["check"] == "external_additivity"

    def test_tampered_report_exits_three(self, capsys, tmp_path):
        path = write_broken_report(capsys, tmp_path)
        data = json.loads(path.read_text())
        data["violations"][0]["lhs"] = 123.0
        path.write_text(json.dumps(data))
        code, _, err = run(capsys, "replay", "--report", str(path), "--index", "0")
        assert code == 3
        assert "replay mismatch:" in err

    def test_index_out_of_range_is_input_error(self, capsys, tmp_path):
        path = write_broken_report(capsys, tmp_path)
        code, _, err = run(capsys, "replay", "--report", str(path), "--index", "100000")
        assert code == 2
        assert "out of range" in err

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("violation", "trial_index", -1),
            ("violation", "trial_index", "3"),
            ("violation", "trial_index", 2.0),
            ("violation", "trial_index", True),
            ("violation", "seed", "0"),
            ("config", "max_size", 2.5),
            ("config", "trials", True),
            ("config", "seed", "0"),
            ("config", "budget", 1e7),
        ],
    )
    def test_malformed_field_is_input_error(self, capsys, tmp_path, section, key, value):
        path = write_broken_report(capsys, tmp_path)
        data = json.loads(path.read_text())
        (data["config"] if section == "config" else data["violations"][0])[key] = value
        path.write_text(json.dumps(data))
        code, _, err = run(capsys, "replay", "--report", str(path), "--index", "0")
        assert code == 2
        assert "not a valid audit report" in err
        assert key in err

    def test_not_a_report(self, capsys, tmp_path):
        path = tmp_path / "odd.json"
        path.write_text('{"schema": "infocat-report/1"}')
        code, _, err = run(capsys, "replay", "--report", str(path), "--index", "0")
        assert code == 2
        assert "not a valid audit report" in err

    def test_malformed_json_names_position(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        code, _, err = run(capsys, "replay", "--report", str(path), "--index", "0")
        assert code == 2
        assert f"{path}: invalid JSON at line 1 column 2" in err

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "replay", "--report", str(tmp_path / "gone.json"), "--index", "0"
        )
        assert code == 2
        assert "cannot read" in err


class TestInfo:
    def write_morphism(self, tmp_path, m):
        path = tmp_path / "m.json"
        path.write_text(json.dumps(morphism_to_json(m)))
        return path

    def test_whole_values_print_bare(self, capsys, tmp_path):
        path = self.write_morphism(tmp_path, finset_morphism((0, 1, 2, 3), 4))
        code, out, _ = run(capsys, "info", "--input", str(path), "--measure", "shannon")
        assert code == 0
        assert out == "2\n"

    def test_fractional_value(self, capsys, tmp_path):
        path = self.write_morphism(tmp_path, finset_morphism((0, 1, 1, 1), 2))
        code, out, _ = run(capsys, "info", "--input", str(path), "--measure", "shannon")
        assert code == 0
        assert out.strip() == "0.8112781244591328"

    def test_undefined_value(self, capsys, tmp_path):
        path = self.write_morphism(tmp_path, finset_morphism((), 1))
        code, out, _ = run(capsys, "info", "--input", str(path), "--measure", "shannon")
        assert code == 0
        assert out == "undefined\n"

    def test_stdin_input(self, capsys, monkeypatch):
        payload = json.dumps(morphism_to_json(finset_morphism((0, 0), 1)))
        monkeypatch.setattr("sys.stdin", io.StringIO(payload))
        code, out, _ = run(capsys, "info", "--input", "-", "--measure", "hartley")
        assert code == 0
        assert out == "0\n"

    def test_unknown_measure(self, capsys, tmp_path):
        path = self.write_morphism(tmp_path, finset_morphism((0,), 1))
        code, _, err = run(capsys, "info", "--input", str(path), "--measure", "gibberish")
        assert code == 2
        assert "error:" in err

    def test_stdin_malformed(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("[1,"))
        code, _, err = run(capsys, "info", "--input", "-", "--measure", "shannon")
        assert code == 2
        assert "<stdin>: invalid JSON at line 1 column" in err


class TestCapacity:
    def test_identity_channel(self, capsys, tmp_path):
        path = tmp_path / "ch.json"
        path.write_text(json.dumps({"matrix": [[1.0, 0.0], [0.0, 1.0]]}))
        code, out, _ = run(capsys, "capacity", "--channel", str(path))
        assert code == 0
        result = json.loads(out)
        assert result["capacity"] == pytest.approx(1.0, abs=1e-9)
        assert result["converged"] is True

    def test_invalid_channel(self, capsys, tmp_path):
        path = tmp_path / "ch.json"
        path.write_text(json.dumps({"matrix": [[0.7, 0.7]]}))
        code, _, err = run(capsys, "capacity", "--channel", str(path))
        assert code == 2
        assert "error:" in err


class TestParser:
    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        out = capsys.readouterr().out
        assert "audit" in out and "capacity" in out

    def test_missing_subcommand(self, capsys):
        assert main([]) == 2

    def test_entry_point_installed(self, tmp_path):
        """Installing infocat provides an ``infocat`` script that runs ``main``.

        The metadata an install would write is built from the working tree
        into ``tmp_path``, so the check needs no prior install; the suite
        runs from a checkout with ``PYTHONPATH=src``. Where an infocat
        distribution is installed, its own metadata is checked as well.
        """
        pytest.importorskip("setuptools")
        import importlib.metadata as md
        import subprocess
        import sys
        from pathlib import Path

        built = subprocess.run(
            [sys.executable, "-c", "from setuptools import setup; setup()",
             "egg_info", "--egg-base", str(tmp_path)],
            cwd=Path(__file__).resolve().parents[1],
            capture_output=True,
            text=True,
        )
        assert built.returncode == 0, built.stderr
        (dist,) = md.distributions(path=[str(tmp_path)])
        (ep,) = dist.entry_points.select(group="console_scripts", name="infocat")
        assert ep.value == "infocat.cli:main"
        assert ep.load() is main

        try:
            md.distribution("infocat")
        except md.PackageNotFoundError:
            return
        assert "infocat" in md.entry_points(group="console_scripts").names
