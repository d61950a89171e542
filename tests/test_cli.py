"""Drive the command line entry point in process and pin its contract:
exit codes, stdout shapes, report files, and replay behaviour."""

import io
import json
from fractions import Fraction

import pytest

from infocat.cli import main
from infocat.finset import finset_morphism
from infocat.jsonio import morphism_from_json, morphism_to_json


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

    def test_malformed_afn_is_usage_error(self, capsys):
        code, _, err = run(
            capsys,
            "audit", "--category", "finset", "--measure", "afn(1)",
            "--mode", "exhaustive", "--max-size", "2",
        )
        assert code == 2
        assert "afn takes two coefficients" in err

    def test_unknown_measure_message_is_plain(self, capsys):
        code, _, err = run(capsys, "audit", "--category", "finset", "--measure", "nope")
        assert code == 2
        assert err == "error: no measure 'nope' for category finset\n"

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

    def test_unknown_measure_name_is_replay_mismatch(self, capsys, tmp_path):
        # Well formed, but not a measure of the recorded config.
        path = write_broken_report(capsys, tmp_path)
        data = json.loads(path.read_text())
        data["violations"][0]["measure"] = "nope"
        path.write_text(json.dumps(data))
        code, _, err = run(capsys, "replay", "--report", str(path), "--index", "0")
        assert code == 3
        assert "measure 'nope' not in config" in err

    def test_check_outside_the_config_is_replay_mismatch(self, capsys, tmp_path):
        # Index 0 is an external_additivity violation, which this config
        # no longer selects.
        path = write_broken_report(capsys, tmp_path)
        data = json.loads(path.read_text())
        data["config"]["checks"] = ["zero_at_terminal"]
        path.write_text(json.dumps(data))
        code, _, err = run(capsys, "replay", "--report", str(path), "--index", "0")
        assert code == 3
        assert "check 'external_additivity' not active under this config" in err

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
            ("config", "log_base", "10"),
            ("config", "measures", [3]),
            ("config", "measures", "broken_constant"),
            ("config", "field", 5),
            ("config", "field", "gfx"),
            ("config", "checks", "invariance"),
            ("config", "checks", [None]),
            ("config", "tolerance", True),
            ("config", "tolerance", "1e-9"),
            ("violation", "check", "nope"),
            ("violation", "check", 5),
            ("violation", "measure", 5),
            ("violation", "lhs", "x"),
            ("violation", "rhs", None),
            ("violation", "delta", True),
            ("violation", "morphisms", {"f": 1}),
            ("violation", "morphisms", [3]),
            ("config", "checks", ["nope"]),
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

    def test_malformed_afn_in_config_is_input_error(self, capsys, tmp_path):
        path = write_broken_report(capsys, tmp_path)
        data = json.loads(path.read_text())
        data["config"]["measures"].append("afn(1/0,1)")
        path.write_text(json.dumps(data))
        code, _, err = run(capsys, "replay", "--report", str(path), "--index", "0")
        assert code == 2
        assert "afn coefficient must be" in err

    def test_unknown_measure_in_config_message_is_plain(self, capsys, tmp_path):
        path = write_broken_report(capsys, tmp_path)
        data = json.loads(path.read_text())
        data["config"]["measures"] = ["nope"]
        path.write_text(json.dumps(data))
        code, _, err = run(capsys, "replay", "--report", str(path), "--index", "0")
        assert code == 2
        assert err == "error: no measure 'nope' for category finset\n"

    def test_not_a_report(self, capsys, tmp_path):
        path = tmp_path / "odd.json"
        path.write_text('{"schema": "infocat-report/1"}')
        code, _, err = run(capsys, "replay", "--report", str(path), "--index", "0")
        assert code == 2
        assert "not a valid audit report" in err

    @pytest.mark.parametrize("text", ["[1, 2]", '{"schema": "infocat-report/1", "config": []}'])
    def test_non_object_report_is_input_error(self, capsys, tmp_path, text):
        path = tmp_path / "odd.json"
        path.write_text(text)
        code, _, err = run(capsys, "replay", "--report", str(path), "--index", "0")
        assert code == 2
        assert "not a valid audit report" in err
        assert "must be a JSON object" in err

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

    @pytest.mark.parametrize(
        "name, message",
        [
            ("afn(x,1)", "afn coefficient must be"),
            ("afn(1)", "afn takes two coefficients"),
            ("afn(1,2,3)", "afn takes two coefficients"),
            ("afn(1/0,1)", "afn coefficient must be"),
            ("afn(1e400,1)", "afn coefficient must be"),
            pytest.param("afn(1" + "0" * 400 + ",1)", "out of float range", id="afn(10**400,1)"),
            ("afn(-1,1)", "must be >= 0"),
        ],
    )
    def test_malformed_afn_is_input_error(self, capsys, tmp_path, name, message):
        path = self.write_morphism(tmp_path, finset_morphism((0,), 1))
        code, _, err = run(capsys, "info", "--input", str(path), "--measure", name)
        assert code == 2
        assert message in err

    @pytest.mark.parametrize(
        "name, line",
        [
            ("gibberish", "error: no measure 'gibberish' for category finset"),
            ("afn(x,1)", """error: afn coefficient must be an integer or a string like "3/8", not 'x'"""),
        ],
        ids=["unknown", "malformed-afn"],
    )
    def test_unknown_measure_message_is_plain(self, capsys, tmp_path, name, line):
        path = self.write_morphism(tmp_path, finset_morphism((0,), 1))
        code, _, err = run(capsys, "info", "--input", str(path), "--measure", name)
        assert code == 2
        assert err == line + "\n"

    def test_afn_name_is_canonical(self, capsys, tmp_path):
        path = self.write_morphism(tmp_path, finset_morphism((0, 1), 2))
        code, out, _ = run(capsys, "info", "--input", str(path), "--measure", "afn(2, 0.5)")
        assert code == 0
        assert out == "2.5\n"

    def test_stdin_malformed(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("[1,"))
        code, _, err = run(capsys, "info", "--input", "-", "--measure", "shannon")
        assert code == 2
        assert "<stdin>: invalid JSON at line 1 column" in err


def _finprob(size):
    return {"size": size, "weights": [str(Fraction(1, size))] * size}


# One well-formed morphism out of a two-point source per point-map category.
POINT_MAPS = {
    "finset": {
        "category": "finset",
        "domain": {"size": 2},
        "codomain": {"size": 2},
        "payload": {"map": [1, 0]},
    },
    "noisy_finset": {
        "category": "noisy_finset",
        "domain": {"m": 2, "a": 1, "pi": [0, 0]},
        "codomain": {"m": 2, "a": 1, "pi": [0, 0]},
        "payload": {"map": [1, 0]},
    },
    "finprob": {
        "category": "finprob",
        "domain": _finprob(2),
        "codomain": _finprob(2),
        "payload": {"map": [1, 0]},
    },
    "noisy_finprob": {
        "category": "noisy_finprob",
        "domain": {"m": _finprob(2), "a": _finprob(1), "pi": [0, 0]},
        "codomain": {"m": _finprob(2), "a": _finprob(1), "pi": [0, 0]},
        "payload": {"map": [1, 0]},
    },
}


# The same for finvect, whose field names are parsed, not decoded as integers.
MORPHISMS = {
    **POINT_MAPS,
    "finvect": {
        "category": "finvect",
        "domain": {"dim": 2, "field": "gf2"},
        "codomain": {"dim": 2, "field": "gf2"},
        "payload": {"field": "gf2", "rows": 2, "cols": 2, "entries": [[0, 1], [1, 0]]},
    },
}


def _set(data, path, value):
    *head, last = path
    for key in head:
        data = data[key]
    data[last] = value


class TestMalformedMorphism:
    """Every malformed morphism is an input error (exit 2), never an
    internal error, and an integer field is never coerced."""

    @pytest.mark.parametrize(
        "cat, path, value, message",
        [
            ("finset", ("payload", "map"), "ab", "map must be a list of integers"),
            ("finset", ("payload", "map"), [1.7, 0], "map entry must be an integer, not 1.7"),
            ("finset", ("payload", "map"), [True, 0], "map entry must be an integer, not True"),
            ("finset", ("payload", "map"), 5, "map must be a list of integers"),
            ("finset", ("domain", "size"), True, "size must be an integer, not True"),
            ("finset", ("domain", "size"), 2.0, "size must be an integer"),
            ("finset", ("payload",), [1, 0], "payload must be a JSON object, not list"),
            ("finset", ("domain",), [2], "domain must be a JSON object, not list"),
            ("finset", ("codomain",), 2, "codomain must be a JSON object, not int"),
            ("noisy_finset", ("payload", "map"), [1.0, 0], "map entry must be an integer"),
            ("noisy_finset", ("payload", "map"), [True, 0], "map entry must be an integer"),
            ("noisy_finset", ("domain", "m"), "2", "m must be an integer"),
            ("noisy_finset", ("domain", "a"), True, "a must be an integer"),
            ("noisy_finset", ("domain", "pi"), [0.0, 0], "pi entry must be an integer"),
            ("finprob", ("payload", "map"), [1, 0.0], "map entry must be an integer"),
            ("finprob", ("codomain", "size"), "2", "size must be an integer"),
            ("noisy_finprob", ("payload", "map"), ["1", 0], "map entry must be an integer"),
            ("noisy_finprob", ("domain", "pi"), [0, False], "pi entry must be an integer"),
            ("noisy_finprob", ("domain", "m", "size"), 2.0, "size must be an integer"),
            ("noisy_finprob", ("domain", "m"), [2], "m must be a JSON object, not list"),
            ("noisy_finprob", ("codomain", "a"), 1, "a must be a JSON object, not int"),
            ("finvect", ("domain", "field"), 5, "a field name is a string, not 5"),
            ("finvect", ("payload", "field"), 5, "a field name is a string, not 5"),
            ("finvect", ("payload", "field"), "gf\u00b2", "unknown field"),
            ("finvect", ("codomain", "field"), "gfx", "unknown field"),
            ("finvect", ("domain", "dim"), True, "dim must be an integer"),
            ("finprob", ("domain", "weights"), ["x", "1"], "weights entry must be an integer or"),
            ("finprob", ("domain", "weights"), [True, 0], "weights entry must be an integer or"),
            ("finprob", ("domain", "weights"), [0.5, 0.5], "weights entry must be an integer or"),
            ("finprob", ("domain", "weights"), ["1/0", "1"], "weights entry must be an integer or"),
            ("finprob", ("domain", "weights"), ["1e9", "1"], "weights entry must be an integer or"),
            ("finprob", ("domain", "weights"), "1/2", "weights must be a list of rationals"),
            ("noisy_finprob", ("domain", "a", "weights"), [None], "weights entry must be"),
            ("finvect", ("payload", "entries"), 5, "entries must be a list of rows"),
            ("finvect", ("payload", "entries"), [0, 1], "entries must be a list of rows"),
            ("finvect", ("domain", "field"), "gf1000000000000000003", "modulus p <= 2**31"),
            ("finvect", ("payload", "field"), "gf2147483659", "modulus p <= 2**31"),
        ],
    )
    def test_field_is_input_error(self, capsys, monkeypatch, cat, path, value, message):
        data = json.loads(json.dumps(MORPHISMS[cat]))
        _set(data, path, value)
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(data)))
        measure = "rank" if cat == "finvect" else "hartley"
        code, out, err = run(capsys, "info", "--input", "-", "--measure", measure)
        assert code == 2
        assert out == ""
        assert message in err

    @pytest.mark.parametrize(
        "entry, message",
        [("x", "entries entry must be an integer or"), (True, "must be an integer or"),
         (0.5, "must be an integer or"), ([1], "must be an integer or")],
    )
    def test_rational_entries_decoded_strictly(self, capsys, monkeypatch, entry, message):
        ok = ["1/2", -3]
        data = {
            "category": "finvect",
            "domain": {"dim": 2, "field": "rational"},
            "codomain": {"dim": 1, "field": "rational"},
            "payload": {"field": "rational", "rows": 1, "cols": 2, "entries": [ok]},
        }
        assert morphism_from_json(data).entries == ((Fraction(1, 2), Fraction(-3)),)
        data["payload"]["entries"] = [[ok[0], entry]]
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(data)))
        code, out, err = run(capsys, "info", "--input", "-", "--measure", "rank")
        assert code == 2
        assert out == ""
        assert message in err

    @pytest.mark.parametrize("cat", sorted(POINT_MAPS))
    def test_well_formed_decodes(self, cat):
        # The malformed cases above differ from these in one field only.
        m = morphism_from_json(POINT_MAPS[cat])
        assert m.mapping == (1, 0)
        assert morphism_to_json(m) == POINT_MAPS[cat]

    @pytest.mark.parametrize("text", ["[1, 2]", "3", '"finset"', "null"])
    def test_non_object_is_input_error(self, capsys, monkeypatch, text):
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        code, _, err = run(capsys, "info", "--input", "-", "--measure", "shannon")
        assert code == 2
        assert "a morphism is a JSON object" in err


def _gf3_row(payload_changes):
    """A 1 x 2 matrix over GF(3), with its payload changed."""
    return {
        "category": "finvect",
        "domain": {"dim": 2, "field": "gf3"},
        "codomain": {"dim": 1, "field": "gf3"},
        "payload": {"field": "gf3", "rows": 1, "cols": 2, "entries": [[1, 1]], **payload_changes},
    }


DUALS = {
    "finvect_dual": {
        "category": "finvect_dual",
        "domain": {"dim": 1, "field": "gf2"},
        "codomain": {"dim": 2, "field": "gf2"},
        "payload": {"dual": True, "inner": _gf3_row({"field": "gf2"})["payload"]},
    },
    "finset_dual": {
        "category": "finset_dual",
        "domain": {"size": 2},
        "codomain": {"size": 2},
        "payload": {"dual": True, "inner": {"map": [1, 0]}},
    },
}


class TestPayloadAgreesWithEnvelope:
    """A finvect payload's field and shape must be those of its endpoints,
    and a dual's inner payload must be a JSON object."""

    def info(self, capsys, monkeypatch, data, measure):
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(data)))
        return run(capsys, "info", "--input", "-", "--measure", measure)

    def test_well_formed_decode(self, capsys, monkeypatch):
        assert morphism_from_json(_gf3_row({})).entries == ((1, 1),)
        for cat, data in DUALS.items():
            assert morphism_to_json(morphism_from_json(data)) == data
        code, out, _ = self.info(capsys, monkeypatch, _gf3_row({}), "rank")
        assert (code, out) == (0, "1\n")

    @pytest.mark.parametrize(
        "changes, message",
        [
            ({"field": "gf2"}, "payload field gf2 != source field gf3"),
            ({"field": "rational"}, "payload field rational != source field gf3"),
            ({"rows": 7, "cols": 9}, "payload of 7 rows and 9 cols for a map from dimension 2 to dimension 1"),
            ({"rows": 2, "cols": 1}, "payload of 2 rows and 1 cols"),
            ({"rows": True}, "rows must be an integer, not True"),
            ({"cols": "2"}, "cols must be an integer"),
        ],
    )
    def test_finvect_payload_disagreeing_with_endpoints(self, capsys, monkeypatch, changes, message):
        code, out, err = self.info(capsys, monkeypatch, _gf3_row(changes), "rank")
        assert code == 2
        assert out == ""
        assert message in err

    @pytest.mark.parametrize(
        "cat, inner, measure",
        [
            ("finvect_dual", [1], "image_dimension"),
            ("finvect_dual", None, "image_dimension"),
            ("finset_dual", "x", "image_cardinality"),
            ("finset_dual", 3, "image_cardinality"),
        ],
    )
    def test_dual_inner_must_be_an_object(self, capsys, monkeypatch, cat, inner, measure):
        data = json.loads(json.dumps(DUALS[cat]))
        data["payload"]["inner"] = inner
        code, out, err = self.info(capsys, monkeypatch, data, measure)
        assert code == 2
        assert out == ""
        assert f"inner must be a JSON object, not {type(inner).__name__}" in err


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

    @pytest.mark.parametrize(
        "text, message",
        [
            ('{"matrix": [["x", "1"]]}', "matrix row entry must be a number, not 'x'"),
            ('{"matrix": [["0.5", "0.5"]]}', "matrix row entry must be a number, not '0.5'"),
            ('{"matrix": [[true, false]]}', "matrix row entry must be a number, not True"),
            ('{"matrix": [[1, 1e999999999999999]]}', "row 0 contains a non-finite entry"),
            pytest.param(
                '{"matrix": [[1, ' + "9" * 400 + ']]}', "matrix row entry is out of float range",
                id="400-digit-int",
            ),
            ('{"matrix": [[NaN, 1]]}', "row 0 contains a non-finite entry"),
            ('{"matrix": [[Infinity, 0]]}', "row 0 contains a non-finite entry"),
            ('{"matrix": 5}', "matrix must be a list of rows, not 5"),
            ('{"matrix": [0.5, 0.5]}', "matrix row must be a list of numbers, not 0.5"),
            ('[[1.0, 0.0]]', "channel must be a JSON object, not list"),
            ('{"rows": [[1.0]]}', "channel JSON needs a 'matrix' field"),
        ],
    )
    def test_malformed_channel_is_input_error(self, capsys, tmp_path, text, message):
        path = tmp_path / "ch.json"
        path.write_text(text)
        code, out, err = run(capsys, "capacity", "--channel", str(path))
        assert code == 2
        assert out == ""
        assert message in err

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--epsilon", "-1", "--epsilon must be a finite number above 0"),
            ("--epsilon", "0", "--epsilon must be a finite number above 0"),
            ("--epsilon", "nan", "--epsilon must be a finite number above 0"),
            ("--epsilon", "inf", "--epsilon must be a finite number above 0"),
            ("--max-iters", "0", "--max-iters must be at least 1"),
        ],
    )
    def test_solver_settings_are_checked(self, capsys, tmp_path, flag, value, message):
        path = tmp_path / "ch.json"
        path.write_text(json.dumps({"matrix": [[1.0, 0.0], [0.0, 1.0]]}))
        code, out, err = run(capsys, "capacity", "--channel", str(path), flag, value)
        assert code == 2
        assert out == ""
        assert message in err


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
