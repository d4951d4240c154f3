import copy
import hashlib
import json
import os

import numpy as np
import pytest

from equnfold import d3
from equnfold.cli import main
from equnfold.jsonio import (build_artifact, canonical_json, encode_cmatrix,
                             model_to_doc, rep_to_doc, write_json_atomic)


FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def run(args):
    return main(list(args))


class TestCurves:
    def test_writes_csv(self, tmp_path):
        out = tmp_path / "c.csv"
        code = run(["curves", "--factor", "delta1", "--beta", "-0.5",
                    "--tau-n", "4", "--omega-range", "0.5:1.5:0.01",
                    "--output", str(out)])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "omega,alpha,tau_s,sign,branch,factor"
        assert len(lines) == 1 + 100 * 2 * 4
        first = lines[1].split(",")
        assert first[3] == "1" and first[4] == "0" and first[5] == "delta1"

    def test_malformed_range_exits_2(self, tmp_path, capsys):
        code = run(["curves", "--factor", "delta1", "--beta", "-0.5",
                    "--tau-n", "4", "--omega-range", "5:0:-1",
                    "--output", str(tmp_path / "x.csv")])
        assert code == 2


class TestDoubleHopf:
    def test_one_sample_range_exits_2(self, tmp_path):
        code = run(["double-hopf", "--factor", "delta2", "--beta", "0.5",
                    "--tau-n", "3", "--omega-range", "0.05:0.06:0.05",
                    "--output", str(tmp_path / "dh.json")])
        assert code == 2
        assert not (tmp_path / "dh.json").exists()

    @pytest.mark.parametrize("case", ["simple", "double"])
    def test_points_equal_fixture_exactly(self, tmp_path, case):
        with open(os.path.join(FIXTURES, "double_hopf_points.json")) as fh:
            entry = json.load(fh)[case]
        grid = entry["omega_grid"]
        out = tmp_path / "dh.json"
        code = run(["double-hopf", "--factor", entry["factor"],
                    "--beta", repr(entry["beta"]), "--tau-n", repr(entry["tau_n"]),
                    "--omega-range", f"{grid['start']}:{grid['stop']}:{grid['step']}",
                    "--output", str(out)])
        assert code == 0
        assert json.loads(out.read_text())["points"] == entry["points"]

    def test_writes_points(self, tmp_path):
        out = tmp_path / "dh.json"
        code = run(["double-hopf", "--factor", "delta1", "--beta", "-0.5",
                    "--tau-n", "4", "--output", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["kind"] == "double-hopf-points"
        assert len(doc["points"]) >= 1
        p = doc["points"][0]
        assert abs(p["omega1"] - p["omega2"]) > 1e-6


class TestUnfold:
    def test_preset_simple(self, tmp_path):
        out = tmp_path / "simple.json"
        code = run(["unfold", "--preset", "d3:simple", "--output", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["schema"] == "equivar-unfold/1"
        assert len(doc["unfolding"]["parameters"]) == 4
        assert doc["report"]["versality"]["mini_versal"] is True

    def test_preset_outputs_are_byte_identical(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        run(["unfold", "--preset", "d3:simple", "--output", str(a)])
        run(["unfold", "--preset", "d3:simple", "--output", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_unknown_preset(self, tmp_path):
        assert run(["unfold", "--preset", "d4:simple"]) == 2

    def test_preset_and_config_exclusive(self, tmp_path):
        assert run(["unfold"]) == 2

    def test_config_pipeline(self, tmp_path, simple_case):
        point = simple_case.point
        cfg = {
            "model": model_to_doc(simple_case.op),
            "group": rep_to_doc(simple_case.rep),
            "lambda_seeds": [[0.0, point.omega1], [0.0, -point.omega1],
                             [0.0, point.omega2], [0.0, -point.omega2]],
            "output": str(tmp_path / "from_config.json"),
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        code = run(["unfold", "--config", str(cfg_path)])
        assert code == 0
        doc = json.loads((tmp_path / "from_config.json").read_text())
        assert doc["report"]["versality"]["mini_versal"] is True

    def test_config_with_preset_seeds(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"lambda_seeds": "d3:simple"}))
        out = tmp_path / "o.json"
        assert run(["unfold", "--config", str(cfg_path), "--output", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["meta"]["preset"] == "d3:simple"

    def test_config_preset_conflicts_with_model(self, tmp_path, simple_case):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "lambda_seeds": "d3:simple",
            "model": model_to_doc(simple_case.op),
        }))
        assert run(["unfold", "--config", str(cfg_path)]) == 2

    def test_config_bad_tolerance(self, tmp_path, simple_case):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "model": model_to_doc(simple_case.op),
            "group": rep_to_doc(simple_case.rep),
            "lambda_seeds": [[0.0, simple_case.point.omega1]],
            "tolerances": {"root_tol": -1.0},
        }))
        assert run(["unfold", "--config", str(cfg_path)]) == 2

    def test_ring_config_artifact_is_pinned(self, tmp_path):
        # 12-cell one-way ring u_j' = -u_j + 2 u_{j-1}(t - 1); the digest was
        # taken before root finding and group closure were vectorized, which
        # must not move a byte
        n = 12
        shift = np.roll(np.eye(n), 1, axis=0)
        cfg_path = tmp_path / "ring.json"
        cfg_path.write_text(json.dumps({
            "model": {"n": n, "terms": [{"delay": 0.0, "matrix": encode_cmatrix(-np.eye(n))},
                                        {"delay": 1.0, "matrix": encode_cmatrix(2.0 * shift)}]},
            "group": {"generators": [encode_cmatrix(shift)]},
            "lambda_seeds": [[0.0, 2.0], [0.0, -2.0]],
        }))
        out = tmp_path / "ring_out.json"
        assert run(["unfold", "--config", str(cfg_path), "--output", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == \
            "3cd7ced964952931380b888098b21b758d43d00f3cb4d4ece15a2eef19e6a5db"

    def test_malformed_json_config_exits_2(self, tmp_path, capsys):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text("{not json")
        assert run(["unfold", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert "schema error" in err and "line 1 column 2" in err

    @pytest.mark.parametrize("field, value", [
        ("n", "x"),
        ("n", float("inf")),
        ("delay", "abc"),
        ("delay", float("nan")),
        ("delay", float("inf")),
        ("delay", float("-inf")),
        ("entry", float("nan")),
        ("entry", float("inf")),
    ])
    def test_bad_model_field_exits_2(self, tmp_path, simple_case, field, value):
        model = model_to_doc(simple_case.op)
        if field == "n":
            model["n"] = value
        elif field == "delay":
            model["terms"][1]["delay"] = value
        else:
            model["terms"][1]["matrix"][0][1][0] = value
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "model": model,
            "group": rep_to_doc(simple_case.rep),
            "lambda_seeds": [[0.0, simple_case.point.omega1]],
        }))
        assert run(["unfold", "--config", str(cfg_path),
                    "--output", str(tmp_path / "o.json")]) == 2

    def test_non_equivariant_model_fails_cleanly(self, tmp_path):
        from equnfold.delays import DelayOperator
        op = DelayOperator(n=3, terms=((0.0, np.diag([1.0, 2.0, 3.0])),))
        cfg = {
            "model": model_to_doc(op),
            "group": rep_to_doc(d3.triangle_rep()),
            "lambda_seeds": [[1.0, 0.0]],
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        code = run(["unfold", "--config", str(cfg_path),
                    "--output", str(tmp_path / "o.json")])
        assert code == 1


class TestVerify:
    def test_artifact_roundtrip(self, tmp_path, simple_artifact):
        path = tmp_path / "simple.json"
        write_json_atomic(str(path), simple_artifact)
        report = tmp_path / "report.json"
        code = run(["verify", str(path), "--report", str(report)])
        assert code == 0
        rep_doc = json.loads(report.read_text())
        assert rep_doc["ok"] is True
        assert all(c["passed"] for c in rep_doc["checks"])

    def test_empty_artifact_is_schema_error(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text("{}")
        assert run(["verify", str(path)]) == 2

    @pytest.mark.parametrize("content, message", [
        (b"{not json", "line 1 column 2"),
        (b"\xff\xfe{}", "not UTF-8 text"),
    ])
    def test_malformed_json_artifact_exits_2(self, tmp_path, capsys, content, message):
        path = tmp_path / "bad.json"
        path.write_bytes(content)
        assert run(["verify", str(path)]) == 2
        err = capsys.readouterr().err
        assert "schema error" in err and message in err

    def test_perturbed_coefficient_detected(self, tmp_path, simple_artifact):
        doc = copy.deepcopy(simple_artifact)
        # break equivariance of one stored coefficient by 1e-3
        doc["unfolding"]["coefficients"][0][0][0][1][0] += 1e-3
        path = tmp_path / "bad.json"
        write_json_atomic(str(path), doc)
        assert run(["verify", str(path)]) == 1

    def test_missing_direction_detected(self, tmp_path, simple_artifact):
        doc = copy.deepcopy(simple_artifact)
        for key in ("coefficients", "selected_rows"):
            doc["unfolding"][key] = doc["unfolding"][key][:-1]
        doc["unfolding"]["parameters"] = doc["unfolding"]["parameters"][:-1]
        path = tmp_path / "short.json"
        write_json_atomic(str(path), doc)
        assert run(["verify", str(path)]) == 1

    def test_out_of_range_selected_row_is_a_failed_check(self, tmp_path, simple_artifact):
        doc = copy.deepcopy(simple_artifact)
        doc["unfolding"]["selected_rows"][0] = 99
        path = tmp_path / "bad.json"
        write_json_atomic(str(path), doc)
        report = tmp_path / "report.json"
        assert run(["verify", str(path), "--report", str(report)]) == 1
        checks = {c["name"]: c for c in json.loads(report.read_text())["checks"]}
        assert not checks["unfolding.reconstruction"]["passed"]
        assert "99" in checks["unfolding.reconstruction"]["detail"]

    @pytest.mark.parametrize("rows", [[-1, 1, 2, 3], [1, 1, 2, 3], ["x", 1, 2, 3]])
    def test_bad_selected_rows_are_schema_errors(self, tmp_path, simple_artifact, rows):
        doc = copy.deepcopy(simple_artifact)
        doc["unfolding"]["selected_rows"] = rows
        path = tmp_path / "bad.json"
        write_json_atomic(str(path), doc)
        assert run(["verify", str(path)]) == 2

    def test_noncommuting_induced_rep_is_reported(self, tmp_path, double_case):
        r = double_case
        doc = build_artifact(r.op, r.rep, r.frame, r.assembly, meta={"preset": "d3:double"})
        # G(1) no longer commutes with B: entry (0, 2) joins distinct eigenvalues
        doc["frame"]["induced_rep"][1][0][2][0] += 1e-3
        path = tmp_path / "tampered.json"
        write_json_atomic(str(path), doc)
        report = tmp_path / "report.json"
        assert run(["verify", str(path), "--report", str(report)]) == 1
        failed = {c["name"] for c in json.loads(report.read_text())["checks"]
                  if not c["passed"]}
        assert {"frame.B_commutes_with_G", "versality.span"} <= failed


class TestDemo:
    def test_runs_both_cases(self, tmp_path):
        code = run(["d3-demo", "--output-dir", str(tmp_path)])
        assert code == 0
        for case in ("simple", "double"):
            doc = json.loads((tmp_path / f"d3_{case}.json").read_text())
            assert doc["report"]["versality"]["mini_versal"] is True


class TestCanonicalJson:
    def test_sorted_keys_and_float_format(self):
        text = canonical_json({"b": 0.1, "a": [1, True, None, "x"]})
        assert text == '{"a":[1,true,null,"x"],"b":0.10000000000000001}'

    def test_rejects_nan(self):
        with pytest.raises(Exception):
            canonical_json({"x": float("nan")})
