import argparse
import ast
import cmath
import copy
import functools
import hashlib
import json
import math
import os
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from equnfold import cli, d3, frames, jsonio, unfolding
from equnfold.cli import main
from equnfold.frames import find_root
from equnfold.groups import close_generators, equivariant_average
from equnfold.invariants import BY_NAME
from equnfold.jsonio import (POINT_FIELDS, build_artifact, canonical_json, decode_complex,
                             encode_complex, model_to_doc, rep_to_doc, write_json_atomic)
from equnfold.unfolding import (assemble_gamma_unfolding, orbit_geometry, slot_stacks,
                                solve_delay_realization)
from equnfold.verify import verify_artifact

from oracles import lambert_w


FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")
with open(os.path.join(FIXTURES, "double_hopf_points.json")) as _fh:
    FIXTURE_POINTS = json.load(_fh)
# the preset artifacts' digests, which perfbench/expected.json holds for the
# benchmark's gate
PRESET_DIGESTS = {
    "d3:simple": "dbec54e4367045876531edfcb1f1b732b1a53de50b4ad1b812faa47a5f8aedb9",
    "d3:double": "2acc2381794c8cef9772c2244c5a7f22feb9ed9f827848fba1fa0aa868368f56",
}
# the 12-cell ring's artifact (_ring_config(12)), pinned since before root
# finding and group closure were vectorized
RING12_DIGEST = "3cd7ced964952931380b888098b21b758d43d00f3cb4d4ece15a2eef19e6a5db"
# every fixture point's artifact text and verify report (_fixture_points_digest)
FIXTURE_POINTS_DIGEST = "1e9b5dc486302653064debf51e5c938fcffcfd5cc7a9ac49f14c57cb48b71ec8"


def run(args):
    return main(list(args))


def test_cli_import_loads_no_scipy():
    # scipy was dropped to cut import time, and the records are NamedTuples,
    # not dataclasses, for the same reason; only a fresh interpreter shows
    # what importing the CLI loads
    code = ("import sys, equnfold.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', 'dataclasses')))")
    package_root = os.path.dirname(os.path.dirname(cli.__file__))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": package_root})
    assert out.stdout.strip() == "[]"


def test_pipeline_loads_no_document_module():
    # the pipeline knows no document format: jsonio reads and writes every
    # document, and verify and cli sit above it; a config names no preset,
    # so the documents need no worked case; only a fresh interpreter shows
    # what an import loads
    package_root = os.path.dirname(os.path.dirname(cli.__file__))
    for imported, unloaded in [
            ("equnfold.unfolding, equnfold.d3", ("equnfold.jsonio", "equnfold.verify",
                                                  "equnfold.cli")),
            ("equnfold.jsonio, equnfold.verify", ("equnfold.d3", "equnfold.cli"))]:
        code = (f"import sys, {imported}; "
                f"print(sorted(m for m in sys.modules if m in {unloaded!r}))")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, env={**os.environ, "PYTHONPATH": package_root})
        assert out.stdout.strip() == "[]", imported


def test_only_jsonio_names_a_document_path():
    # a schema error names a place in a document, which only jsonio reads:
    # no other module uses document_errors
    package = os.path.dirname(cli.__file__)
    for fname in sorted(os.listdir(package)):
        if not fname.endswith(".py") or fname in ("errors.py", "jsonio.py"):
            continue
        with open(os.path.join(package, fname)) as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            names = ([a.name for a in node.names] if isinstance(node, ast.ImportFrom)
                     else [getattr(node, "id", getattr(node, "attr", None))])
            assert "document_errors" not in names, f"{fname}:{node.lineno}"


def test_cli_only_parses_and_dispatches():
    # jsonio writes every output and d3 names the factors: the front end
    # builds no document (no dict display), formats no float (no 17g) and
    # spells no factor; both slice subcommands take d3.FACTORS itself
    with open(cli.__file__) as fh:
        tree = ast.parse(fh.read())
    for node in ast.walk(tree):
        assert not isinstance(node, (ast.Dict, ast.DictComp)), f"a dict at line {node.lineno}"
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            assert "17g" not in node.value, f"a float format at line {node.lineno}"
            assert node.value not in d3.FACTORS, f"a factor name at line {node.lineno}"
    (sub,) = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    for command in ("curves", "double-hopf"):
        (factor,) = [a for a in sub.choices[command]._actions if a.dest == "factor"]
        assert factor.choices is d3.FACTORS


def test_unknown_factor_is_a_usage_error_naming_both(capsys):
    err = usage_error(CURVES[:2] + ["delta3"] + CURVES[3:], capsys)
    assert "argument --factor: invalid choice: 'delta3' (choose from " in err
    assert all(repr(f) in err for f in d3.FACTORS)


def test_config_is_utf8_under_any_locale(tmp_path):
    # JSON text is UTF-8 (RFC 8259): under the C locale a config key that
    # is not ASCII is read, and refused as unknown, not as undecodable text
    (tmp_path / "cfg.json").write_bytes('{"lambda_seeds": [[0.0, 1.0]], "café": 1}'.encode())
    env = {k: v for k, v in os.environ.items() if k != "PYTHONIOENCODING"}
    env.update(PYTHONCOERCECLOCALE="0", LC_ALL="C", PYTHONUTF8="0",
               PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    out = subprocess.run([sys.executable, "-m", "equnfold.cli", "unfold", "--config", "cfg.json"],
                         cwd=tmp_path, capture_output=True, text=True, env=env)
    assert out.returncode == 2
    assert out.stderr.startswith("schema error: unknown key 'caf") and "in config;" in out.stderr
    assert not (tmp_path / "unfold.json").exists()


def usage_error(args, capsys, out=None):
    """The stderr of a command that argparse refuses (exit 2), which writes
    no file ``out``."""
    with pytest.raises(SystemExit) as exc:
        run(args)
    assert exc.value.code == 2
    assert out is None or not out.exists()
    return capsys.readouterr().err


IS_A_DIRECTORY = "error: [Errno 21] Is a directory: "
NO_SUCH_FILE = "error: [Errno 2] No such file or directory: "
CURVES = ["curves", "--factor", "delta1", "--beta", "0.5", "--tau-n", "3",
          "--omega-range", "0.05:1:0.5"]
DOUBLE_HOPF = ["double-hopf", "--factor", "delta1", "--beta", "-0.5", "--tau-n", "4"]


@pytest.mark.parametrize("command, message, named", [
    (["unfold", "--preset", "d3:simple", "--output", "{dir}"], IS_A_DIRECTORY, "{dir}"),
    (["verify", "{artifact}", "--report", "{dir}"], IS_A_DIRECTORY, "{dir}"),
    (["verify", "{dir}"], IS_A_DIRECTORY, "{dir}"),
    (["unfold", "--config", "{dir}"], IS_A_DIRECTORY, "{dir}"),
    (["unfold", "--preset", "d3:simple", "--output", "."], IS_A_DIRECTORY, "'.'"),
    (["unfold", "--config", "{config}", "--output", "{dir}"], IS_A_DIRECTORY, "{dir}"),
    (CURVES + ["--output", "{dir}"], IS_A_DIRECTORY, "{dir}"),
    (DOUBLE_HOPF + ["--output", "{dir}"], IS_A_DIRECTORY, "{dir}"),
    (["unfold", "--preset", "d3:simple", "--output", "{missing}"], NO_SUCH_FILE, "{missing}"),
    (["verify", "{artifact}", "--report", "{missing}"], NO_SUCH_FILE, "{missing}"),
    (CURVES + ["--output", "{missing}"], NO_SUCH_FILE, "{missing}"),
    (DOUBLE_HOPF + ["--output", "{missing}"], NO_SUCH_FILE, "{missing}"),
    (CURVES + ["--output", ""], NO_SUCH_FILE, "''"),
    (["verify", "{artifact}", "--report", ""], NO_SUCH_FILE, "''"),
], ids=["unfold-output", "verify-report", "verify-artifact", "unfold-config", "unfold-output-dot",
        "config-output", "curves-output", "double-hopf-output", "unfold-missing-parent",
        "verify-report-missing-parent", "curves-missing-parent", "double-hopf-missing-parent",
        "curves-empty", "verify-report-empty"])
def test_directory_as_a_path_is_a_usage_error(tmp_path, capsys, monkeypatch, simple_artifact,
                                              command, message, named):
    # an OS error on a path given by the user exits 2, as a missing file
    # does; an output path is checked before the pipeline runs, the message
    # names the path as given, and no temp file is made
    paths = {"dir": tmp_path / "dir", "artifact": tmp_path / "a.json",
             "config": tmp_path / "ring3.json", "missing": tmp_path / "no" / "o.json"}
    paths["dir"].mkdir()
    write_json_atomic(str(paths["artifact"]), simple_artifact)
    paths["config"].write_text(json.dumps(_ring_config(3)))

    def pipeline(*args, **kwargs):
        raise AssertionError("the pipeline ran")

    for name in ("run_case", "sweep_curves", "locate_double_hopf"):
        monkeypatch.setattr(d3, name, pipeline)
    monkeypatch.setattr(cli, "verify_artifact", pipeline)
    monkeypatch.setattr(cli, "unfold", pipeline)
    monkeypatch.chdir(paths["dir"])
    assert run([arg.format(**paths) for arg in command]) == 2
    err = capsys.readouterr().err
    assert err.startswith(message) and named.format(**paths) in err
    assert ".tmp" not in err
    assert not list(tmp_path.rglob("*.tmp"))


@pytest.mark.parametrize("path, value, failed", [
    (("unfolding", "coefficients", 0, 0, 0, 0), [1e300, 0],
     ["family.coefficient_equivariance", "unfolding.reconstruction", "versality.span",
      "versality.mini"]),
    (("frame", "induced_rep", 1, 0, 0), [1e200, 0],
     ["frame.induced_rep", "frame.phi_intertwines", "directions.projection_fixed_point",
      "theta.recompute", "versality.span"]),
], ids=["coefficient", "induced-rep"])
def test_overflow_fails_its_checks_without_a_warning(tmp_path, capsys, simple_artifact,
                                                     path, value, failed):
    # a non-finite residual fails its check line; numpy's RuntimeWarning on
    # the way is not printed
    doc = copy.deepcopy(simple_artifact)
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    artifact = tmp_path / "a.json"
    write_json_atomic(str(artifact), doc)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run(["verify", str(artifact)]) == 1
    out, err = capsys.readouterr()
    assert [line.split(":")[0] for line in out.splitlines() if line.startswith("[FAIL]")] == \
        [f"[FAIL] {name}" for name in failed]
    assert err == "" and not caught


FRAME_LINES = ["group.representation", "model.equivariance", "frame.null_vectors",
               "frame.gram_identity", "frame.reduced_matrix", "frame.induced_rep",
               "frame.B_commutes_with_G", "frame.phi_intertwines",
               "family.coefficient_equivariance", "directions.projection_fixed_point"]
VERSALITY_LINES = ["versality.span", "versality.mini", "versality.codimension_formula"]


def _beside_eigenvalue_0(doc):
    """Eigenvalue 0 of ``doc`` moved by 1.5e-9 i max|lambda|: one eigenvalue
    by the rank of ad_B, two by ``eigen_groups``."""
    lams = [complex(*pair) for pair in doc["frame"]["eigenvalues"]]
    moved = lams[0] + 1.5e-9j * max(map(abs, lams))
    return [moved.real, moved.imag]


@pytest.mark.parametrize("path, value, names", [
    (None, None, FRAME_LINES + ["theta.matrix_consistency", "theta.selected_rows",
                                "unfolding.reconstruction"] + VERSALITY_LINES),
    (("frame", "induced_rep", 1, 0, 0), [1e200, 0],
     FRAME_LINES + ["theta.recompute", "versality.span"]),
    (("unfolding", "selected_rows", 0), 99,
     FRAME_LINES + ["theta.matrix_consistency", "theta.selected_rows",
                    "unfolding.reconstruction"] + VERSALITY_LINES),
    (("frame", "induced_rep", 1, 0, 1), [1e-6, 0],
     FRAME_LINES + ["theta.matrix_consistency", "theta.selected_rows",
                    "unfolding.reconstruction", "versality.span"]),
    (("frame", "eigenvalues", 1), _beside_eigenvalue_0,
     FRAME_LINES + ["theta.recompute", "versality.span"]),
], ids=["untampered", "slots-fail", "selected-row-past-slots", "versality-raises",
        "geometry-fails"])
def test_verify_lines_follow_the_table_on_every_branch(simple_artifact, path, value, names):
    # each branch of verify_artifact: the slot stacks and the versality check
    # recomputed, the slot stacks failing (theta.recompute in place of the
    # Theta lines), a selected row past the recomputed slots (its
    # reconstruction line fails without a residual), the versality check
    # raising, the orbit geometry failing (both recomputations fail with it)
    doc = copy.deepcopy(simple_artifact)
    if path is not None:
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value(doc) if callable(value) else value
    with np.errstate(all="ignore"):
        report = verify_artifact(doc)
    assert [c.name for c in report.checks] == names
    assert report.ok is (path is None)
    if path == ("unfolding", "selected_rows", 0):
        assert report.checks[12].detail == "selected row 99 is out of range (4 slots recomputed)"
    if path == ("frame", "eigenvalues", 1):
        assert [c.detail for c in report.checks[-2:]] == \
            ["complement dimension 4 != codimension 6"] * 2


DELETE = object()
# replacements for one node of a document: wrong types, a number beyond the
# float range, a non-integer index, a number as a string, and deletion
MUTANT_VALUES = (None, "x", [], 5, 1e308, True, DELETE, 10 ** 400, 0.5, "0", {})


def _mutation_faults(tmp_path, doc, command, exits, under=()):
    """Every node of ``doc`` below ``under`` (the first and last entry of
    each list) replaced by a wrong value or deleted, three of the values per
    node in rotation, so that each value reaches every part of the document;
    the mutants on which ``command + [file]`` raised or left ``exits``."""
    text = json.dumps(doc)

    def paths(node, path=()):
        keys = (sorted(node) if isinstance(node, dict)
                else sorted({0, len(node) - 1}) if isinstance(node, list) and node else [])
        for k in keys:
            yield path + (k,)
            yield from paths(node[k], path + (k,))

    bad = tmp_path / "mutant.json"
    faults = []
    nodes = [path for path in paths(doc) if path[:len(under)] == under]
    for i, path in enumerate(nodes):
        for k in range(3):
            value = MUTANT_VALUES[(3 * i + k) % len(MUTANT_VALUES)]
            mutant = json.loads(text)
            node = mutant
            for key in path[:-1]:
                node = node[key]
            if value is DELETE:
                del node[path[-1]]
            else:
                node[path[-1]] = value
            bad.write_text(json.dumps(mutant))
            try:
                code = run(command + [str(bad)])
            except Exception as exc:       # a raw traceback is the fault looked for
                faults.append((path, value, repr(exc)))
            else:
                if code not in exits:
                    faults.append((path, value, f"exit {code}"))
    return faults


@pytest.mark.parametrize("command, message", [
    (["curves", "--factor", "delta1", "--beta", "0.5", "--tau-n", "-2",
      "--omega-range", "0.05:1:0.5"], "argument --tau-n: must be a non-negative lag, got '-2'"),
    (["double-hopf", "--factor", "delta2", "--beta", "0.5", "--tau-n", "-2"],
     "argument --tau-n: must be a non-negative lag, got '-2'"),
    (["double-hopf", "--factor", "delta2", "--beta", "0.5", "--tau-n", "3",
      "--tau-s-window=-5:10"],
     "argument --tau-s-window: window '-5:10' starts below 0; a lag is never negative"),
], ids=["curves-tau-n", "double-hopf-tau-n", "double-hopf-tau-s-window"])
def test_negative_lag_is_a_usage_error(tmp_path, capsys, command, message):
    # a negative lag makes the equation advanced, whose operator DelayOperator
    # refuses: unchecked, curves exited 0 and double-hopf reported a point at
    # tau_s = -0.4577
    out = tmp_path / "out"
    assert message in usage_error(command + ["--output", str(out)], capsys, out)


@pytest.mark.parametrize("command, message", [
    (CURVES[:-1] + ["1:x:0.1"], "argument --omega-range: malformed range '1:x:0.1'"),
    (CURVES + ["--branches", "1-3"], "argument --branches: malformed branch range '1-3'"),
    (CURVES + ["--branches", "3..1"], "argument --branches: branch range '3..1' is empty"),
    (DOUBLE_HOPF + ["--alpha-window=a:b"], "argument --alpha-window: malformed window 'a:b'"),
    (DOUBLE_HOPF + ["--alpha-window=1:1"], "argument --alpha-window: window '1:1' is empty"),
    (CURVES[:4] + ["abc"] + CURVES[5:], "argument --beta: must be a finite number, got 'abc'"),
    # more branches than a tuple can index; tuple() refuses the length before
    # allocating (unmapped, an OverflowError traceback)
    (CURVES + ["--branches", f"0..{10 ** 30}"],
     f"argument --branches: branch range '0..{10 ** 30}' gives too many branches"),
    (DOUBLE_HOPF + ["--branches", f"0..{10 ** 30}"],
     f"argument --branches: branch range '0..{10 ** 30}' gives too many branches"),
], ids=["omega-range", "branches-dash", "branches-empty", "alpha-window", "alpha-window-empty",
        "beta", "curves-branches-huge", "double-hopf-branches-huge"])
def test_malformed_flag_is_a_usage_error(tmp_path, capsys, command, message):
    out = tmp_path / "out"
    assert message in usage_error(command + ["--output", str(out)], capsys, out)


def test_branch_range_out_of_memory_is_a_usage_error(tmp_path, capsys, monkeypatch):
    # a range that fits an index but not in memory (0..10**12 ends in a
    # MemoryError under a 2 GB address-space cap); the range is stubbed, so
    # nothing large is allocated here
    def no_memory(*args):
        raise MemoryError

    monkeypatch.setattr(cli, "range", no_memory, raising=False)
    out = tmp_path / "out"
    err = usage_error(CURVES + ["--branches", "0..3", "--output", str(out)], capsys, out)
    assert "argument --branches: branch range '0..3' gives too many branches" in err


@pytest.mark.parametrize("command", ["double-hopf", "unfold"])
def test_out_of_memory_is_a_pipeline_error(tmp_path, capsys, monkeypatch, command):
    # the delta2 slice at beta = 1e308 over |alpha| <= 1e308 asks numpy for
    # 29.1 GiB in the crossing sweep; the stage is stubbed, so nothing large
    # is allocated here
    def no_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 29.1 GiB for an array with shape (3906241211,)")

    monkeypatch.setattr(cli.d3, "locate_double_hopf", no_memory)
    monkeypatch.setattr(cli, "unfold", no_memory)
    cfg, out = tmp_path / "cfg.json", tmp_path / "out.json"
    cfg.write_text(json.dumps(_ring_config(3)))
    args = {"double-hopf": ["double-hopf", "--factor", "delta2", "--beta", "1e308",
                            "--tau-n", "0", "--omega-range", "0.05:1e6:1",
                            "--alpha-window=-1e308:1e308"],
            "unfold": ["unfold", "--config", str(cfg)]}[command]
    assert run(args + ["--output", str(out)]) == 1
    assert capsys.readouterr().err == ("pipeline error: out of memory (Unable to allocate "
                                       "29.1 GiB for an array with shape (3906241211,))\n")
    assert not out.exists()


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

    @pytest.mark.parametrize("factor, beta, tau_n, digest", [
        # the presets' slices; taken while each factor's formula was still
        # written out on its own
        ("delta1", "-0.5", "4", "e8fd89a86ba2af07981cb5f0995549b3087c148a271e372c6bad1b65ffce8453"),
        ("delta2", "0.5", "3", "e1ea29545cfb2df2eb0e8e318ba2d62eb0185dd779c050661c743b1c258f4671"),
    ])
    def test_csv_is_pinned(self, tmp_path, factor, beta, tau_n, digest):
        out = tmp_path / "c.csv"
        assert run(["curves", "--factor", factor, "--beta", beta, "--tau-n", tau_n,
                    "--omega-range", "0.05:5:0.005", "--output", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_overflowing_sample_exits_2_and_writes_nothing(self, tmp_path, capsys):
        # 2 * beta overflows: the CSV refuses a non-finite number, as every
        # JSON output does, and writes no file
        out = tmp_path / "c.csv"
        assert run(["curves", "--factor", "delta1", "--beta", "1e308", "--tau-n", "1",
                    "--omega-range", "0.05:1:0.5", "--output", str(out)]) == 2
        assert capsys.readouterr().err == \
            "schema error: non-finite number cannot be serialized\n"
        assert not out.exists()

    def test_malformed_range_exits_2(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        err = usage_error(["curves", "--factor", "delta1", "--beta", "-0.5", "--tau-n", "4",
                           "--omega-range", "5:0:-1", "--output", str(out)], capsys, out)
        assert "argument --omega-range: range '5:0:-1' must satisfy" in err

    @pytest.mark.parametrize("omega_range", ["0.05:inf:0.5", "0.05:nan:0.5"])
    def test_non_finite_range_exits_2(self, tmp_path, capsys, omega_range):
        # unchecked, np.arange raises a raw ValueError on a non-finite STOP
        out = tmp_path / "x.csv"
        err = usage_error(["curves", "--factor", "delta1", "--beta", "-0.5", "--tau-n", "4",
                           "--omega-range", omega_range, "--output", str(out)], capsys, out)
        assert "argument --omega-range:" in err and "must be finite" in err

    def test_oversized_range_exits_2(self, tmp_path, capsys):
        # np.arange refuses this size before allocating anything
        out = tmp_path / "big.csv"
        err = usage_error(["curves", "--factor", "delta1", "--beta", "0.5", "--tau-n", "3",
                           "--omega-range", "0.05:1e30:1", "--output", str(out)], capsys, out)
        assert "argument --omega-range: range '0.05:1e30:1' gives too many samples" in err

    def test_non_finite_tau_n_exits_2(self, tmp_path, capsys):
        out = tmp_path / "c.csv"
        err = usage_error(["curves", "--factor", "delta1", "--beta", "0.5", "--tau-n", "inf",
                           "--omega-range", "0.05:1:0.5", "--output", str(out)], capsys)
        assert "argument --tau-n: must be a finite number, got 'inf'" in err
        assert not out.exists()


class TestDoubleHopf:
    def test_one_sample_range_exits_2(self, tmp_path, capsys):
        out = tmp_path / "dh.json"
        err = usage_error(["double-hopf", "--factor", "delta2", "--beta", "0.5", "--tau-n", "3",
                           "--omega-range", "0.05:0.06:0.05", "--output", str(out)], capsys, out)
        assert "argument --omega-range:" in err and "fewer than two samples" in err

    @pytest.mark.parametrize("window", [["--alpha-window", "nan:4"],
                                        ["--tau-s-window", "0:inf"]])
    def test_non_finite_window_exits_2(self, tmp_path, capsys, window):
        # unchecked, a NaN bound fails only at the write, as a non-serializable number
        out = tmp_path / "dh.json"
        err = usage_error(["double-hopf", "--factor", "delta1", "--beta", "-0.5", "--tau-n", "4",
                           *window, "--output", str(out)], capsys, out)
        assert f"argument {window[0]}:" in err and "must be finite" in err

    def test_negative_window_start_takes_the_equals_form(self, tmp_path):
        # argparse reads "-3:3" after a space as a flag, not as the flag's value
        out = tmp_path / "dh.json"
        assert run(["double-hopf", "--factor", "delta1", "--beta", "-0.5", "--tau-n", "4",
                    "--alpha-window=-3:3", "--output", str(out)]) == 0
        doc = json.loads(out.read_text())
        points = d3.locate_double_hopf("delta1", -0.5, 4.0, alpha_window=(-3.0, 3.0))
        assert doc["alpha_window"] == [-3.0, 3.0]
        assert doc["points"] == [{"alpha": p.alpha, "tau_s": p.tau_s, "omega1": p.omega1,
                                  "omega2": p.omega2, "residual": p.residual} for p in points]
        assert points and all(-3.0 <= p.alpha <= 3.0 for p in points)

    def test_undersampled_grid_exits_1_at_once(self, tmp_path, capsys):
        # on the default grid, --tau-n 300 took over 100 s and 1e300 paired
        # 1.5 million candidate crossings
        out = tmp_path / "dh.json"
        start = time.perf_counter()
        code = run(["double-hopf", "--factor", "delta1", "--beta", "0.5", "--tau-n", "1000",
                    "--output", str(out)])
        assert code == 1 and time.perf_counter() - start < 1.0 and not out.exists()
        assert capsys.readouterr().err.startswith(
            "pipeline error: the omega grid undersamples exp(-i omega tau_n)")

    def test_non_finite_beta_exits_2(self, tmp_path, capsys):
        out = tmp_path / "dh.json"
        err = usage_error(["double-hopf", "--factor", "delta1", "--beta", "nan",
                           "--tau-n", "4", "--output", str(out)], capsys)
        assert "argument --beta: must be a finite number, got 'nan'" in err
        assert not out.exists()

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

    @pytest.mark.parametrize("case", ["simple", "double"])
    def test_no_search_flags_take_d3s_defaults(self, tmp_path, case):
        # the flags' defaults are d3's own: the points locate_double_hopf
        # finds with no search arguments, bit for bit, in d3's windows
        entry = FIXTURE_POINTS[case]
        out = tmp_path / "dh.json"
        assert run(["double-hopf", "--factor", entry["factor"], "--beta", repr(entry["beta"]),
                    "--tau-n", repr(entry["tau_n"]), "--output", str(out)]) == 0
        doc = json.loads(out.read_text())
        points = d3.locate_double_hopf(entry["factor"], entry["beta"], entry["tau_n"])
        assert points
        assert ([{k: float(v).hex() for k, v in p.items()} for p in doc["points"]]
                == [{k: getattr(p, k).hex() for k in POINT_FIELDS} for p in points])
        assert doc["alpha_window"] == list(d3.ALPHA_WINDOW)
        assert doc["tau_s_window"] == list(d3.TAU_S_WINDOW)

    @pytest.mark.parametrize("case, extra", [("simple", 7), ("double", 2)])
    def test_branches_beyond_3_add_points_in_the_window(self, tmp_path, case, extra):
        # branch k holds tau_s = (theta + 2 pi k) / omega, theta in (-pi, pi], so
        # above omega ~ 2.2 branches 4 and up reach tau_s <= 10 too: the default
        # 0..3, which the fixture pins, misses their points; 0..8 keeps every
        # default point bit for bit and adds these
        entry = FIXTURE_POINTS[case]
        grid = entry["omega_grid"]
        out = tmp_path / "dh.json"
        assert run(["double-hopf", "--factor", entry["factor"],
                    "--beta", repr(entry["beta"]), "--tau-n", repr(entry["tau_n"]),
                    "--omega-range", f"{grid['start']}:{grid['stop']}:{grid['step']}",
                    "--branches", "0..8", "--output", str(out)]) == 0
        points = json.loads(out.read_text())["points"]
        assert all(p in points for p in entry["points"])
        more = [p for p in points if p not in entry["points"]]
        assert len(more) == len(points) - len(entry["points"]) == extra
        beta, tau_n = entry["beta"], entry["tau_n"]
        c = {"delta1": 2.0, "delta2": -1.0}[entry["factor"]]
        for p in more:
            assert entry["alpha_window"][0] <= p["alpha"] <= entry["alpha_window"][1]
            assert entry["tau_s_window"][0] < p["tau_s"] <= entry["tau_s_window"][1]
            branches = []
            for omega in (p["omega1"], p["omega2"]):
                # the factor lam + 1 - alpha e^{-lam tau_s} - c beta e^{-lam tau_n}
                # at lam = i omega, in scalar complex arithmetic
                lam = 1j * omega
                assert abs(lam + 1.0 - p["alpha"] * cmath.exp(-lam * p["tau_s"])
                           - c * beta * cmath.exp(-lam * tau_n)) < 1e-9
                # alpha e^{i theta} = conj(1 + i omega - c beta e^{-i omega tau_n})
                theta = cmath.phase((1.0 - 1j * omega - c * beta * cmath.exp(1j * omega * tau_n))
                                    / p["alpha"])
                branches.append(round((omega * p["tau_s"] - theta) / (2 * math.pi)))
            assert max(branches) >= 4, (p, branches)

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

    def test_unknown_preset(self, tmp_path, capsys):
        out = tmp_path / "o.json"
        err = usage_error(["unfold", "--preset", "d4:simple", "--output", str(out)], capsys, out)
        assert "argument --preset: invalid choice: 'd4:simple'" in err

    def test_preset_and_config_exclusive(self, tmp_path, capsys):
        out = tmp_path / "o.json"
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(_ring_config(3)))
        err = usage_error(["unfold", "--output", str(out)], capsys, out)
        assert "one of the arguments --preset --config is required" in err
        err = usage_error(["unfold", "--preset", "d3:simple", "--config", str(cfg_path),
                           "--output", str(out)], capsys, out)
        assert "argument --config: not allowed with argument --preset" in err

    def test_config_string_seeds_is_schema_error(self, tmp_path, capsys):
        # a preset comes from --preset only; the seeds are read ahead of the
        # model, so they are named first, with no model or with a bad one
        cfg_path, out = tmp_path / "cfg.json", tmp_path / "o.json"
        for cfg in ({"lambda_seeds": "d3:simple"}, {"lambda_seeds": "d3:simple", "model": 5}):
            cfg_path.write_text(json.dumps(cfg))
            assert run(["unfold", "--config", str(cfg_path), "--output", str(out)]) == 2
            assert capsys.readouterr().err == \
                "schema error: lambda_seeds must be a list, got 'd3:simple'\n"
            assert not out.exists()

    def test_config_pipeline(self, tmp_path, simple_case, simple_point):
        point = simple_point
        cfg = {
            "model": model_to_doc(simple_case.op),
            "group": rep_to_doc(simple_case.rep),
            "lambda_seeds": [[0.0, point.omega1], [0.0, -point.omega1],
                             [0.0, point.omega2], [0.0, -point.omega2]],
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        code = run(["unfold", "--config", str(cfg_path), "--output",
                    str(tmp_path / "from_config.json")])
        assert code == 0
        doc = json.loads((tmp_path / "from_config.json").read_text())
        assert doc["report"]["versality"]["mini_versal"] is True

    def test_masked_config_keeps_coefficients_in_their_masks(self, tmp_path, simple_point):
        # the d3:simple model, roots and lags as a config whose sparsity lists
        # the structure masks as 0/1 rows; without them, entries outside the
        # masks are nonzero, so the masks are what zeroes them
        cfg, masks = _preset_config("simple", simple_point), d3.structure_masks()
        for sparsity in (cfg["sparsity"], None):
            if not sparsity:
                del cfg["sparsity"]
            cfg_path, out = tmp_path / "cfg.json", tmp_path / "out.json"
            cfg_path.write_text(json.dumps(cfg))
            assert run(["unfold", "--config", str(cfg_path), "--output", str(out)]) == 0
            assert run(["verify", str(out)]) == 0
            rows = json.loads(out.read_text())["unfolding"]["coefficients"]
            outside = [decode_complex(A, "A", 2)[~mask]
                       for row in rows for A, mask in zip(row, masks)]
            assert len(rows) == 4
            assert all(np.all(x == 0) for x in outside) == bool(sparsity)

    @pytest.mark.parametrize("group", ["trivial", "D3"])
    def test_bogdanov_takens_config_exits_1_naming_the_jordan_chain(self, tmp_path, capsys,
                                                                     group):
        # lambda = 0 is a double root of Delta1 with a one-dimensional null
        # space: once a 1-parameter "mini-versal" family with psi ~ 1e15 that
        # verify passed (trivial group), or a misleading representation
        # error (D3)
        op = d3.d3_operator(alpha=2.0, beta=-0.5, tau_s=1.0, tau_n=3.0)
        rep = close_generators([np.eye(3)]) if group == "trivial" else d3.triangle_rep()
        cfg_path, out = tmp_path / "cfg.json", tmp_path / "out.json"
        cfg_path.write_text(json.dumps({"model": model_to_doc(op), "group": rep_to_doc(rep),
                                        "lambda_seeds": [[0.0, 0.0]]}))
        assert run(["unfold", "--config", str(cfg_path), "--output", str(out)]) == 1
        err = capsys.readouterr().err
        assert "defective or mis-ordered spectrum" in err and "Jordan chain" in err
        assert not out.exists()

    def test_group_of_another_dimension_is_a_schema_error(self, tmp_path, capsys, monkeypatch):
        # checked as the documents are decoded, before any Newton step
        def no_newton(op, seed, **kw):
            raise AssertionError(f"find_root ran from {seed}")

        monkeypatch.setattr(frames, "find_root", no_newton)
        cfg = _ring_config(3)
        cfg["group"] = {"generators": [encode_complex(np.roll(np.eye(4), 1, axis=0))]}
        cfg_path, out = tmp_path / "cfg.json", tmp_path / "out.json"
        cfg_path.write_text(json.dumps(cfg))
        assert run(["unfold", "--config", str(cfg_path), "--output", str(out)]) == 2
        assert "schema error: group: representation dim 4 != state dim 3" in capsys.readouterr().err
        assert not out.exists()

    def test_ring_config_artifact_is_pinned(self, tmp_path):
        # 12-cell one-way ring u_j' = -u_j + 2 u_{j-1}(t - 1); the digest was
        # taken before root finding and group closure were vectorized, which
        # must not move a byte
        assert _ring_artifact_digest(tmp_path, 12) == RING12_DIGEST

    def test_ring3_fixture_is_the_three_cell_ring(self):
        with open(os.path.join(FIXTURES, "ring3_config.json")) as fh:
            assert json.load(fh) == _ring_config(3)

    def test_24_cell_ring_config_artifact_is_pinned(self, tmp_path):
        # the same ring at N = 24, where Newton reads 48 of the 576 cofactors;
        # the digest was taken while find_root still took all of them
        assert _ring_artifact_digest(tmp_path, 24) == \
            "f17a91e1c3e9dce103b6dd855ce82a934b588f4d532f39012e951c07117d0703"

    def test_64_cell_ring_config_unfolds_and_verifies(self, tmp_path):
        # the same ring at N = 64, past the benchmark's ladder: a group of 64
        # elements whose facts verify checks on the one generator
        cfg_path, out = tmp_path / "ring.json", tmp_path / "ring_out.json"
        cfg_path.write_text(json.dumps(_ring_config(64)))
        assert run(["unfold", "--config", str(cfg_path), "--output", str(out)]) == 0
        assert run(["verify", str(out)]) == 0

    def test_versal_but_not_minimal_exits_3(self, tmp_path, capsys, monkeypatch):
        # a family with more parameters than the codimension still gets its
        # artifact, but unfold says so and exits 3
        def not_minimal(*args, **kwargs):
            assembly = assemble_gamma_unfolding(*args, **kwargs)
            ver = assembly.versality
            return assembly._replace(versality=ver._replace(tangent_dim=ver.tangent_dim - 1))

        monkeypatch.setattr(unfolding, "assemble_gamma_unfolding", not_minimal)
        cfg_path, out = tmp_path / "ring.json", tmp_path / "ring_out.json"
        cfg_path.write_text(json.dumps(_ring_config(3)))
        assert run(["unfold", "--config", str(cfg_path), "--output", str(out)]) == 3
        assert capsys.readouterr().out.startswith("versal (not minimal): ")
        assert json.loads(out.read_text())["report"]["versality"]["mini_versal"] is False

    def test_preset_digests_are_the_benchmark_pins(self):
        # perfbench/expected.json holds the same pins for the benchmark's
        # gate; the two copies must not drift apart
        root = os.path.dirname(os.path.dirname(FIXTURES))
        with open(os.path.join(root, "perfbench", "expected.json")) as fh:
            assert json.load(fh) == PRESET_DIGESTS

    @pytest.mark.parametrize("preset, digest", PRESET_DIGESTS.items())
    def test_preset_artifact_is_pinned(self, tmp_path, preset, digest):
        out = tmp_path / "preset.json"
        assert run(["unfold", "--preset", preset, "--output", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize("preset, digest", [
        ("d3:simple", "f81dada34b059fbb1dc6bfb2d22886d7908bbd881b2b2e6c70a406ad26df0152"),
        ("d3:double", "d5bc5dcf6c9722635a8f5efa051c2deba5b46757c8c384681fb4e7135fe99379"),
    ])
    def test_preset_verify_report_is_pinned(self, tmp_path, capsys, preset, digest):
        # every residual the report prints is recomputed from the artifact,
        # so the lines pin the pairing, averaging and slot arithmetic too
        out = tmp_path / "preset.json"
        assert run(["unfold", "--preset", preset, "--output", str(out)]) == 0
        capsys.readouterr()
        assert run(["verify", str(out)]) == 0
        text = capsys.readouterr().out
        assert hashlib.sha256(text.encode()).hexdigest() == digest, text

    def test_fixture_points_are_pinned(self):
        # the 15 points of double_hopf_points.json, past the two presets: every
        # artifact byte and every report line; like every pin here, it holds
        # on the BLAS and numpy kernels it was taken with (ROADMAP item 28)
        assert _fixture_points_digest() == FIXTURE_POINTS_DIGEST

    def test_malformed_json_config_exits_2(self, tmp_path, capsys):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text("{not json")
        assert run(["unfold", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert "schema error" in err and "line 1 column 2" in err

    @pytest.mark.parametrize("field, value", [
        ("n", "x"),
        ("n", float("inf")),
        ("n", 3.9),
        ("n", "3"),
        ("delay", "abc"),
        ("delay", float("nan")),
        ("delay", float("inf")),
        ("delay", float("-inf")),
        ("delay", "0"),
        ("delay", False),
        ("entry", float("nan")),
        ("entry", float("inf")),
        ("n", 0),
    ])
    def test_bad_model_field_exits_2(self, tmp_path, capsys, simple_case, simple_point, field,
                                     value):
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
            "lambda_seeds": [[0.0, simple_point.omega1]],
        }))
        assert run(["unfold", "--config", str(cfg_path),
                    "--output", str(tmp_path / "o.json")]) == 2
        path = {"n": "model.n", "delay": "model.terms[1].delay",
                "entry": "model.terms[1].matrix[0][1][0]"}[field]
        if (field, value) == ("n", 0):      # well-formed, but no operator has it
            path = "schema error: model: state dimension must be positive"
        assert path in capsys.readouterr().err

    @pytest.mark.parametrize("field, value, message", [
        (None, [], "config must be a JSON object"),
        ("lambda_seeds", 5, "lambda_seeds"),
        ("lambda_seeds", [[float("nan"), 1.0]], "lambda_seeds[0]"),
        ("lambda_seeds", [[0.0, 1.0], [0.0, float("-inf")]], "lambda_seeds[1]"),
        ("lambda_seeds", [[0.0, 1.0, 2.0]], "lambda_seeds[0]"),
        ("delays", 3, "delays"),
        ("delays", ["a"], "delays[0]"),
        ("delays", [0.0, float("nan")], "delays[1]"),
        ("sparsity", 3, "sparsity"),
        ("sparsity", [[[1, 0], [1]]], "sparsity[0]"),
        ("masks", [[[1]], None], "sparsity: 2 masks for 3 delays; need one per delay"),
        ("masks", [None], "sparsity: 1 masks for 3 delays; need one per delay"),
        ("masks", [[[1]], None, None], "sparsity: mask 0 has shape (1, 1), expected (3, 3)"),
        ("masks", [], "sparsity: 0 masks for 3 delays; need one per delay"),
        ("sparsity", [None] * 3, "sparsity needs delays"),
        ("output", 5, "unknown key 'output' in config"),
        ("output", "o.json", "unknown key 'output' in config"),
        ("model", "model.json", "model must be an object, got 'model.json'"),
        ("group", "group.json", "group must be an object, got 'group.json'"),
        ("group", {"generators": []}, "group.generators must be a non-empty list of matrices"),
        ("group", {"mul_table": [[0]], "matrices": [[[[1.0, 0.0]]]]},
         "group.generators is required"),
        ("lambda_seeds", [["0", "1.8"]], "lambda_seeds[0][0]"),
        ("sparsity", [[["0"]]], "sparsity[0][0][0]"),
        ("sparsity", [[[0.5]]], "sparsity[0][0][0]"),
        ("sparsity", [[[2]]], "sparsity[0][0][0]"),
        ("sparsty", [None], "'sparsty'"),
        ("tolerances", {"root_tol": 1e-12}, "unknown key 'tolerances' in config"),
    ], ids=["list-config", "seeds-number", "seed-nan",
            "seed-inf", "seed-triple", "delays-number", "delays-string", "delays-nan",
            "sparsity-number", "sparsity-ragged", "sparsity-short", "sparsity-one",
            "sparsity-shape", "sparsity-empty", "sparsity-without-delays", "output-number", "output-string", "model-path", "group-path",
            "generators-empty", "group-table", "seed-strings", "mask-string", "mask-half",
            "mask-two", "misspelled-key", "removed-tolerances"])
    def test_bad_config_field_exits_2(self, tmp_path, capsys, simple_case, simple_point, field,
                                      value, message):
        cfg = {
            "model": model_to_doc(simple_case.op),
            "group": rep_to_doc(simple_case.rep),
            "lambda_seeds": [[0.0, simple_point.omega1]],
        }
        if field is None:
            cfg = value
        elif field == "masks":      # sparsity, given with the model's own lags
            cfg.update(delays=[t["delay"] for t in cfg["model"]["terms"]], sparsity=value)
        else:
            cfg[field] = value
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert run(["unfold", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("schema error") and message in err, err

    @pytest.mark.parametrize("delays, message", [
        ([0, 1, 1], "lags[2] = 1.0 repeats an earlier lag"),
        ([0, 1, 1 + 1e-15], "lags[2] = 1.000000000000001 repeats an earlier lag"),
        ([0, 0.5, 1.5], "lags[2] = 1.5 lies outside the history horizon [0, 1.0]"),
        ([], "slots 0-1: stacked basis col(Phi(-r_j)) has rank 0 < 2"),
    ], ids=["repeat", "repeat-within-tolerance", "beyond-horizon", "empty"])
    def test_config_lag_breaking_a_rule_exits_1(self, tmp_path, capsys, delays, message):
        # the ring3 fixture (tau = 1) with its own lags: a pipeline error that
        # names the lag (or, with none, the rank they reach), and no artifact
        cfg, out = tmp_path / "cfg.json", tmp_path / "out.json"
        cfg.write_text(json.dumps(dict(_ring_config(3), delays=delays)))
        assert run(["unfold", "--config", str(cfg), "--output", str(out)]) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_config_with_no_seeds_exits_1(self, tmp_path, capsys):
        # [] is an empty list of seeds, from which Newton reaches no root
        cfg, out = tmp_path / "cfg.json", tmp_path / "out.json"
        cfg.write_text(json.dumps(dict(_ring_config(3), lambda_seeds=[])))
        assert run(["unfold", "--config", str(cfg), "--output", str(out)]) == 1
        assert "no characteristic roots found from the given seeds" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("mutate, message", [
        (lambda g: g[1][2][0].__setitem__(0, "x"), "group.generators[1][2][0][0]"),
        (lambda g: g[1][2][0].__setitem__(0, None), "group.generators[1][2][0][0]"),
        (lambda g: g[1][2][0].__setitem__(0, True), "group.generators[1][2][0][0]"),
        (lambda g: g[1][2].pop(), "malformed complex matrix group.generators[1]"),
    ], ids=["string", "null", "bool", "ragged"])
    def test_malformed_group_generator_exits_2(self, tmp_path, capsys, simple_case, simple_point,
                                               mutate, message):
        group = rep_to_doc(simple_case.rep)
        mutate(group["generators"])
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "model": model_to_doc(simple_case.op),
            "group": group,
            "lambda_seeds": [[0.0, simple_point.omega1]],
        }))
        assert run(["unfold", "--config", str(cfg_path)]) == 2
        assert message in capsys.readouterr().err

    def test_single_field_config_mutations_exit_cleanly(self, tmp_path, simple_case,
                                                        simple_point):
        """Every node of a ``d3:simple`` config with every key set, replaced
        by a wrong value or deleted: ``unfold --config`` exits 0, 1, 2 or 3
        and never raises."""
        point, family = simple_point, simple_case.assembly.family
        cfg = {
            "model": model_to_doc(simple_case.op),
            "group": rep_to_doc(simple_case.rep),
            "lambda_seeds": [[0.0, point.omega1], [0.0, -point.omega1],
                             [0.0, point.omega2], [0.0, -point.omega2]],
            "vector_seeds": [[encode_complex(d3.U_SYM)], None, None, None],
            "delays": list(family.delays),
            "sparsity": [None] * len(family.delays),
        }
        command = ["unfold", "--output", str(tmp_path / "o.json"), "--config"]
        assert not _mutation_faults(tmp_path, cfg, command, (0, 1, 2, 3))

    @pytest.mark.parametrize("gain, calls", [
        (2.0, 1),                   # the root from -2i is the conjugate of the one from 2i
        (2.0 + 1e-13j, 2),          # real within 1e-12 only: Delta(conj) is not conj(Delta)
        (2.0 * np.exp(0.1j), 2),
    ], ids=["real", "nearly-real", "complex"])
    def test_newton_runs_once_per_conjugate_seed_pair(self, tmp_path, monkeypatch, gain,
                                                      calls):
        seeds = []

        def counting_find_root(op, seed, **kw):
            seeds.append(seed)
            return find_root(op, seed, **kw)

        monkeypatch.setattr(frames, "find_root", counting_find_root)
        cfg_path = tmp_path / "ring.json"
        cfg_path.write_text(json.dumps(_ring_config(6, gain)))
        assert run(["unfold", "--config", str(cfg_path),
                    "--output", str(tmp_path / "o.json")]) == 0
        assert seeds == [2j, -2j][:calls]

    def test_roots_within_the_relative_gap_are_one(self, tmp_path, monkeypatch):
        # at |lam| = 2e3 Newton stops at steps up to 2e-9, so two seeds can
        # end on one root further apart than 1e-8: still one root
        found = []

        def nudged_find_root(op, seed, **kw):
            res = find_root(op, seed, **kw)
            found.append(res.root)
            return res._replace(root=res.root * (1 + 1e-11)) if len(found) == 2 else res

        monkeypatch.setattr(frames, "find_root", nudged_find_root)
        cfg = _rescaled(_ring_config(3), 1e3)
        cfg["lambda_seeds"].append(cfg["lambda_seeds"][0])
        assert _unfold_outcome(tmp_path, cfg)[0] == 0
        assert len(found) == 2
        assert len(json.loads((tmp_path / "out.json").read_text())["frame"]["eigenvalues"]) == 2

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


def _ring_config(n, gain=2.0):
    """The config of the n-cell one-way ring u_j' = -u_j + gain u_{j-1}(t - 1),
    seeded at +-2i."""
    shift = np.roll(np.eye(n), 1, axis=0)
    return {
        "model": {"n": n, "terms": [{"delay": 0.0, "matrix": encode_complex(-np.eye(n))},
                                    {"delay": 1.0, "matrix": encode_complex(gain * shift)}]},
        "group": {"generators": [encode_complex(shift)]},
        "lambda_seeds": [[0.0, 2.0], [0.0, -2.0]],
    }


def _fixture_points_digest():
    """sha256 over the fixture points in order, simple then double, of each
    point's canonical artifact text (``meta`` the case name) followed by the
    canonical ``verify --report`` document of that text."""
    digest = hashlib.sha256()
    for case in ("simple", "double"):
        entry = FIXTURE_POINTS[case]
        for p in entry["points"]:
            point = d3.DoubleHopfPoint(factor=entry["factor"], beta=entry["beta"],
                                       tau_n=entry["tau_n"], **p)
            text = canonical_json(build_artifact(*d3.run_case(case, point),
                                                 meta={"preset": case}))
            report = verify_artifact(json.loads(text))
            assert report.ok, (case, p)
            digest.update(text.encode())
            digest.update(canonical_json(jsonio.report_to_doc(report)).encode())
    return digest.hexdigest()


def _ring_artifact_digest(tmp_path, n):
    """sha256 of the ``unfold --config`` artifact of :func:`_ring_config`."""
    cfg_path = tmp_path / "ring.json"
    cfg_path.write_text(json.dumps(_ring_config(n)))
    out = tmp_path / "ring_out.json"
    assert run(["unfold", "--config", str(cfg_path), "--output", str(out)]) == 0
    return hashlib.sha256(out.read_bytes()).hexdigest()


def _preset_config(case, point):
    """The config document of ``d3.run_case(case, point)``: the model at the
    point, the triangle group, the roots +-i omega_1, +-i omega_2 with the
    case's null vectors (the symmetric direction, or the two rotation
    eigenvectors), ``d3.default_delays`` and the structure masks."""
    op = d3.d3_operator(point.alpha, point.beta, point.tau_s, point.tau_n)
    u, v = encode_complex(d3.U_SYM), encode_complex(d3.V_ROT)
    vbar = encode_complex(d3.V_ROT.conj())
    vectors = {"simple": [[u]] * 4, "double": [[v, vbar], [vbar, v]] * 2}[case]
    w = (point.omega1, -point.omega1, point.omega2, -point.omega2)
    return {"model": model_to_doc(op), "group": rep_to_doc(d3.triangle_rep()),
            "lambda_seeds": [[0.0, x] for x in w], "vector_seeds": vectors,
            "delays": d3.default_delays(op),
            "sparsity": [m.astype(int).tolist() for m in d3.structure_masks()]}


def _without_meta(path):
    """An artifact's text with its ``meta`` member cut out, byte for byte."""
    text = path.read_text()
    return text.replace('"meta":' + canonical_json(json.loads(text)["meta"]) + ",", "", 1)


class TestPresetIsItsConfig:
    """A preset is its expanded config document: ``--preset d3:X`` and
    ``--config`` on the document write the same bytes but for ``meta``."""

    @pytest.mark.parametrize("case", ["simple", "double"])
    def test_preset_and_its_document_write_one_artifact(self, tmp_path, case):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(_preset_config(case, d3.default_point(case))))
        preset, config = tmp_path / "preset.json", tmp_path / "config.json"
        assert run(["unfold", "--preset", f"d3:{case}", "--output", str(preset)]) == 0
        assert run(["unfold", "--config", str(cfg_path), "--output", str(config)]) == 0
        assert json.loads(config.read_text())["meta"] == {"source": "config"}
        assert _without_meta(preset) == _without_meta(config)
        assert hashlib.sha256(preset.read_bytes()).hexdigest() == PRESET_DIGESTS[f"d3:{case}"]

    @pytest.mark.parametrize("case, index", [
        (case, i) for case in ("simple", "double")
        for i in range(len(FIXTURE_POINTS[case]["points"]))])
    def test_run_case_is_the_config_path(self, case, index):
        entry = FIXTURE_POINTS[case]
        point = d3.DoubleHopfPoint(factor=entry["factor"], beta=entry["beta"],
                                   tau_n=entry["tau_n"], **entry["points"][index])
        cfg = json.loads(json.dumps(_preset_config(case, point)))
        result = unfolding.unfold(**jsonio.config_from_doc(cfg))
        assert (canonical_json(build_artifact(*d3.run_case(case, point)))
                == canonical_json(build_artifact(*result)))


class TestVectorSeeds:
    """``vector_seeds``: one entry per root seed, null or the seed's null vectors."""

    @pytest.mark.parametrize("vectors, message", [
        (5, "vector_seeds must be a list, got 5"),
        ([5, None, None, None], "vector_seeds[0] must be a list, got 5"),
        ([None, ["x"], None, None], "vector_seeds[1][0] must be a list, got 'x'"),
        ([None, None, [[[1, 0], [1, 0], [1]]], None],
         "vector_seeds[2][0][2] must be a [re, im] pair, got list"),
        ([None, None, None, [[[1, 0], [1, 0], [True, 0]]]],
         "vector_seeds[3][0][2][0] must be a number, got True"),
        ([None, [[[1, 0]] * 3, [[1, 0]] * 2], None, None],
         "malformed complex matrix vector_seeds[1]: "),
        ([[[[1, 0], [1, 0]]], None, None, None],
         "vector_seeds[0] must hold vectors of length n = 3, got shape (1, 2)"),
        ([[[[1, 0], [1, 0], [1, 0], [1, 0]]], None, None, None],
         "vector_seeds[0] must hold vectors of length n = 3, got shape (1, 4)"),
        ([[], None, None, None],
         "vector_seeds[0] must hold vectors of length n = 3, got shape (0,)"),
        ([None] * 3, "vector_seeds has 3 entries; lambda_seeds has 4"),
        ([None] * 5, "vector_seeds has 5 entries; lambda_seeds has 4"),
    ], ids=["number", "entry-number", "vector-string", "pair-short", "bool", "ragged",
            "short", "long", "empty", "fewer", "more"])
    def test_malformed_vector_seeds_exit_2_naming_their_path(self, tmp_path, capsys,
                                                              simple_point, vectors, message):
        cfg = _preset_config("simple", simple_point)
        cfg["vector_seeds"] = vectors
        cfg_path, out = tmp_path / "cfg.json", tmp_path / "out.json"
        cfg_path.write_text(json.dumps(cfg))
        assert run(["unfold", "--config", str(cfg_path), "--output", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"schema error: {message}")
        assert not out.exists()

    @pytest.mark.parametrize("vectors, head, tail", [
        # the first factor's roots have one-dimensional null spaces
        ([d3.U_SYM, d3.V_ROT], "inconsistent multiplicities at ",
         ": 2 seeds for a 1-dimensional null space"),
        ([np.zeros(3)], "seed vectors at ", " are linearly dependent"),
        ([d3.V_ROT], "seed vector at ", " is not in the null space"),
        # checked at largest entry 1, so no product overflows
        ([np.array([1 + 1e308j, 1, 1])], "seed vector at ", " is not in the null space"),
    ], ids=["two-vectors", "zero", "rotation", "huge"])
    def test_vectors_that_do_not_fit_the_null_space_exit_1(self, tmp_path, capsys,
                                                          simple_point, vectors, head, tail):
        cfg = _preset_config("simple", simple_point)
        cfg["vector_seeds"][0] = [encode_complex(v) for v in vectors]
        cfg_path, out = tmp_path / "cfg.json", tmp_path / "out.json"
        cfg_path.write_text(json.dumps(cfg))
        assert run(["unfold", "--config", str(cfg_path), "--output", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"pipeline error: {head}") and err.endswith(f"{tail}\n")
        assert not out.exists()

    @pytest.mark.parametrize("vectors", [None, [None, None]], ids=["null", "nulls"])
    def test_null_vector_seeds_keep_the_bytes(self, tmp_path, vectors):
        # a config without the key, or with nothing in it, writes the
        # pinned 12-cell ring artifact
        cfg = _ring_config(12)
        cfg["vector_seeds"] = vectors
        cfg_path, out = tmp_path / "ring.json", tmp_path / "ring_out.json"
        cfg_path.write_text(json.dumps(cfg))
        assert run(["unfold", "--config", str(cfg_path), "--output", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == RING12_DIGEST

    def test_a_root_takes_the_vectors_of_its_first_seed(self, tmp_path, simple_point):
        # a second seed of one root adds nothing, whatever its vectors
        cfg = _preset_config("simple", simple_point)
        base = tmp_path / "base.json"
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        assert run(["unfold", "--config", str(tmp_path / "cfg.json"), "--output", str(base)]) == 0
        cfg["lambda_seeds"].append(cfg["lambda_seeds"][0])
        cfg["vector_seeds"].append([encode_complex(-d3.U_SYM)])
        again = tmp_path / "again.json"
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        assert run(["unfold", "--config", str(tmp_path / "cfg.json"), "--output", str(again)]) == 0
        assert base.read_bytes() == again.read_bytes()


@functools.lru_cache(maxsize=None)
def _time_config(case):
    if case == "scalar":
        # u' = -u + 2 u(t - 1) at its roots -0.86 +- 4.74i and -1.70 +- 10.93i,
        # on the lags select_delays chooses
        return {"model": {"n": 1, "terms": [{"delay": 0.0, "matrix": [[[-1.0, 0.0]]]},
                                            {"delay": 1.0, "matrix": [[[2.0, 0.0]]]}]},
                "group": {"generators": [[[[1.0, 0.0]]]]},
                "lambda_seeds": [[-0.86, 4.74], [-0.86, -4.74], [-1.7, 10.93], [-1.7, -10.93]]}
    if case == "ring3":
        with open(os.path.join(FIXTURES, "ring3_config.json")) as fh:
            return json.load(fh)
    return _preset_config(case, d3.default_point(case))


def _rescaled(cfg, s):
    """``cfg`` in the time t / s: lags r / s, coefficients s A_k, seeds s lam
    (the characteristic matrix is s Delta(lam), so its roots scale by s, and
    its null vectors stay)."""
    out = copy.deepcopy(cfg)
    for term in out["model"]["terms"]:
        term["delay"] /= s
        term["matrix"] = encode_complex(s * decode_complex(term["matrix"], "matrix", 2))
    out["lambda_seeds"] = [[s * re, s * im] for re, im in cfg["lambda_seeds"]]
    if "delays" in cfg:
        out["delays"] = [r / s for r in cfg["delays"]]
    return out


def _unfold_outcome(tmp_path, cfg):
    """What ``unfold --config`` decides: exit code, selected rows,
    commutant dimension, codimension, achieved rank and lag count; then the
    exit code of ``verify`` on the artifact it wrote.  A failed ``unfold``
    gives its exit code alone, never the fields of an earlier run's file."""
    cfg_path, out = tmp_path / "cfg.json", tmp_path / "out.json"
    cfg_path.write_text(json.dumps(cfg))
    out.unlink(missing_ok=True)
    code = run(["unfold", "--config", str(cfg_path), "--output", str(out)])
    if code != 0:
        return (code,)
    doc = json.loads(out.read_text())
    ver = doc["report"]["versality"]
    return (code, doc["unfolding"]["selected_rows"], ver["commutant_dim"],
            ver["codimension"], ver["achieved_rank"], len(doc["unfolding"]["delays"]),
            run(["verify", str(out)]))


class TestTimeRescaling:
    @pytest.mark.parametrize("case", ["simple", "double", "ring3", "scalar"])
    @settings(max_examples=4, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @example(s=0.25)
    @example(s=3.0)
    @example(s=1e7)      # bounds on a quantity with a magnitude are relative to it
    @example(s=1e9)      # and two lags are one relative to them: tau = 1e-9, 1e-12
    @example(s=1e12)
    @given(s=st.floats(0.25, 3.0))
    def test_outcome_is_unchanged(self, tmp_path, case, s):
        cfg = _time_config(case)
        assert _unfold_outcome(tmp_path, _rescaled(cfg, s)) == _unfold_outcome(tmp_path, cfg)


class TestSlowTime:
    # the absolute floors left (the 1 + of char_scale, the null-space cut)
    # stop unfold from about s = 1e-9 down: that must be a named error, never
    # another family.  Above them every case keeps its s = 1 outcome
    @pytest.mark.parametrize("s", [1e-3, 1e-8, 1e-9, 1e-10, 1e-12])
    @pytest.mark.parametrize("case", ["simple", "double", "ring3"])
    def test_outcome_is_unchanged_or_a_pipeline_error(self, tmp_path, capsys, case, s):
        expected = _unfold_outcome(tmp_path, _time_config(case))
        slow = tmp_path / "slow"
        slow.mkdir()
        cfg_path, out = slow / "cfg.json", slow / "out.json"
        cfg_path.write_text(json.dumps(_rescaled(_time_config(case), s)))
        capsys.readouterr()
        keeps = s >= 1e-8
        if run(["unfold", "--config", str(cfg_path), "--output", str(out)]) == 1 and not keeps:
            assert "pipeline error" in capsys.readouterr().err
            assert not out.exists()
        else:
            assert _unfold_outcome(slow, _rescaled(_time_config(case), s)) == expected

    @pytest.mark.parametrize("s", [2e-3, 1e-3, 1e-6, 1e-8])
    def test_ring3_keeps_its_outcome_with_the_default_config(self, tmp_path, s):
        # ring3's det is s^3 det Delta in the time t / s; Newton's floors
        # scale with it, so the default config converges to the s = 1 family
        expected = _unfold_outcome(tmp_path, _time_config("ring3"))
        slow = tmp_path / "slow"
        slow.mkdir()
        assert _unfold_outcome(slow, _rescaled(_time_config("ring3"), s)) == expected


def _conjugated(cfg, Q):
    """``cfg`` in the basis of the unitary Q: every model term and group
    generator M becomes Q M Q^H, and every null vector v of ``vector_seeds``
    becomes Q v.  The spectrum, and with it the root seeds, is unchanged; lags
    and sparsity masks are kept as given."""
    out = copy.deepcopy(cfg)
    for term in out["model"]["terms"]:
        M = decode_complex(term["matrix"], "matrix", 2)
        term["matrix"] = encode_complex(Q @ M @ Q.conj().T)
    out["group"]["generators"] = [encode_complex(Q @ decode_complex(g, "g", 2) @ Q.conj().T)
                                  for g in cfg["group"]["generators"]]
    if "vector_seeds" in cfg:
        out["vector_seeds"] = [None if e is None else
                               [encode_complex(Q @ decode_complex(v, "v", 1)) for v in e]
                               for e in cfg["vector_seeds"]]
    return out


class TestUnitaryConjugation:
    @pytest.mark.parametrize("case", ["simple", "double", "ring3"])
    @settings(max_examples=4, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(seed=st.integers(0, 2 ** 32 - 1))
    def test_outcome_is_unchanged(self, tmp_path, case, seed):
        cfg = _time_config(case)
        rng = np.random.default_rng(seed)
        n = cfg["model"]["n"]
        Q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        assert _unfold_outcome(tmp_path, _conjugated(cfg, Q)) == _unfold_outcome(tmp_path, cfg)


PLANTED_OMEGA = 1.3


def _permutation(images):
    """The matrix that sends basis vector j to basis vector ``images[j]``."""
    P = np.zeros((len(images), len(images)))
    P[images, range(len(images))] = 1.0
    return P


def _projector(*vectors):
    """The orthogonal projector onto the span of orthogonal ``vectors``."""
    return sum(np.outer(v, v) / np.dot(v, v) for v in np.array(vectors, dtype=float))


_ONES3, _ONES4, _ALT4 = np.ones(3), np.ones(4), [1, -1, 1, -1]
# a group on n cells by its generators, and the projectors onto the isotypic
# components of its permutation representation
PLANTED_GROUPS = {
    "S3": ([_permutation([1, 0, 2]), _permutation([1, 2, 0])],
           [_projector(_ONES3), np.eye(3) - _projector(_ONES3)]),
    "D4": ([_permutation([1, 2, 3, 0]), _permutation([0, 3, 2, 1])],
           [_projector(_ONES4), _projector(_ALT4), np.eye(4) - _projector(_ONES4, _ALT4)]),
    "Z2xZ2": ([_permutation([1, 0, 3, 2]), _permutation([2, 3, 0, 1])],
              [_projector(v) for v in (_ONES4, _ALT4, [1, 1, -1, -1], [1, -1, -1, 1])]),
}


def _planted_coefficients(group, k):
    """The scalars (a_j, mu_j) of ``_planted_config(group, k)`` on each
    isotypic component j: on component k, lam = a + mu e^-lam has the roots
    +-i omega (mu = -omega / sin omega, a = -mu cos omega); the others take
    a = -2, mu = 0.5, which keeps their roots in the left half-plane."""
    mu_k = -PLANTED_OMEGA / np.sin(PLANTED_OMEGA)
    return [(-mu_k * np.cos(PLANTED_OMEGA), mu_k) if j == k else (-2.0, 0.5)
            for j in range(len(PLANTED_GROUPS[group][1]))]


def _planted_config(group, k):
    """u' = A0 u + A1 u(t - 1) with A0 = sum a_j P_j and A1 = sum mu_j P_j over
    the isotypic projectors P_j of ``group`` (``_planted_coefficients``).
    Seeded at +-i omega."""
    gens, projectors = PLANTED_GROUPS[group]
    a, mu = zip(*_planted_coefficients(group, k))
    A0, A1 = (sum(x * P for x, P in zip(coef, projectors)) for coef in (a, mu))
    return {"model": {"n": len(A0), "terms": [{"delay": 0.0, "matrix": encode_complex(A0)},
                                              {"delay": 1.0, "matrix": encode_complex(A1)}]},
            "group": {"generators": [encode_complex(g) for g in gens]},
            "lambda_seeds": [[0.0, PLANTED_OMEGA], [0.0, -PLANTED_OMEGA]]}


def _planted_roots(group, k, branch):
    """The root of lam = a_j + mu_j e^-lam on Lambert W's ``branch``, one per
    component j: with w = lam - a_j, w e^w = mu_j e^-a_j."""
    return [a + lambert_w(mu * np.exp(-a), branch) for a, mu in _planted_coefficients(group, k)]


PLANTINGS = pytest.mark.parametrize(
    "group, k", [("S3", 0), ("S3", 1), ("D4", 2), ("Z2xZ2", 1)],
    ids=["S3-trivial", "S3-standard", "D4-standard", "Z2xZ2-character"])


class TestPlantedComponent:
    @PLANTINGS
    def test_unfolds_the_planted_roots_with_codimension_2(self, tmp_path, group, k):
        # the oracle is the planting: the critical roots are +-i omega, on
        # Lambert W's branches 0 and -1, and each eigenvalue's eigenspace is
        # one absolutely irreducible component
        cfg_path, out = tmp_path / "cfg.json", tmp_path / "out.json"
        cfg_path.write_text(json.dumps(_planted_config(group, k)))
        assert run(["unfold", "--config", str(cfg_path), "--output", str(out)]) == 0
        assert run(["verify", str(out)]) == 0
        doc = json.loads(out.read_text())
        lams = decode_complex(doc["frame"]["eigenvalues"], "frame.eigenvalues", 1)
        up, down = (_planted_roots(group, k, branch)[k] for branch in (0, -1))
        assert abs(up - 1j * PLANTED_OMEGA) < 1e-14 * PLANTED_OMEGA
        planted = np.where(lams.imag > 0, up, down)
        assert np.all(np.abs(lams - planted) <= 1e-12 * np.abs(planted))
        assert set(np.sign(lams.imag)) == {-1.0, 1.0}
        assert doc["report"]["versality"]["codimension"] == 2

    @PLANTINGS
    def test_no_other_root_on_seven_branches_reaches_the_axis(self, group, k):
        # the declared spectrum +-i omega is the whole axis spectrum on
        # branches -3..3: every other root of every component lies to the left
        op = jsonio.model_from_doc(_planted_config(group, k)["model"])
        for branch in range(-3, 4):
            for j, lam in enumerate(_planted_roots(group, k, branch)):
                assert abs(np.linalg.det(op.char_matrix(lam))) < 1e-9, (branch, j)
                if j != k:
                    assert lam.real < 0, (branch, j)
                elif branch not in (0, -1):
                    assert lam.real < -1, (branch, j)

    @PLANTINGS
    def test_lambert_w_agrees_with_scipy(self, group, k):
        special = pytest.importorskip("scipy.special")
        for a, mu in _planted_coefficients(group, k):
            z = mu * np.exp(-a)
            for branch in range(-3, 4):
                w = complex(special.lambertw(z, branch))
                assert abs(lambert_w(z, branch) - w) <= 1e-15 * abs(w), (z, branch)


def _reflection_off_generators(rep):
    """A group element that is not a generator and whose permutation matrix
    has trace 1, a swap: on each double eigenvalue of d3:double its induced
    character is 0."""
    gens = rep.group.generator_indices
    return next(g for g in range(rep.group.order) if g > max(gens)
                and np.trace(rep.matrices[g]).real == 1)


_SWAP = _reflection_off_generators(d3.triangle_rep())
# I + 2^11 E_01, whose inverse is I - 2^11 E_01: the d3 generators conjugated
# by it close, in exact binary arithmetic, to a group of order 6, but one of
# its elements has singular values 2^44 apart.  The closure's rank test reads
# the generators only (2^23 and 2^33 apart); group.representation's singular
# test reads every element and refuses it
_SHEAR = np.eye(3)
_SHEAR[0, 1] = 2.0 ** 11
# invariant -> (artifact: "simple", "double" or "sheared" (simple, its
# generators conjugated by _SHEAR), the changes (path of a number, how many of
# its last keys index the array that holds it, sign), other checks that fail
# with it); each number changes by 1e-3 times max(1, the largest magnitude in
# its array)
TAMPERS = {
    "group.representation": ("sheared", [], ()),
    "model.equivariance": ("simple", [(("model", "terms", 1, "matrix", 0, 1, 0), 3, 1)], ()),
    "frame.null_vectors": ("simple", [(("frame", "eigenvalues", 0, 1), 2, 1)], ()),
    "frame.gram_identity": ("simple", [(("frame", "psi_directions", 0, 0, 0), 3, 1)], ()),
    "frame.reduced_matrix": ("simple", [(("frame", "reduced_matrix", 0, 0, 1), 3, 1)], ()),
    "frame.induced_rep": ("double", [(("frame", "induced_rep", 1, 0, 0, 0), 3, 1)], ()),
    # G(1) no longer commutes with B: entry (0, 2) joins distinct eigenvalues
    "frame.B_commutes_with_G": ("double", [(("frame", "induced_rep", 1, 0, 2, 0), 3, 1)],
                                ("versality.span",)),
    "frame.phi_intertwines": ("simple", [(("frame", "phi_directions", 0, 0, 0), 3, 1)], ()),
    # break equivariance of one stored coefficient
    "family.coefficient_equivariance": (
        "simple", [(("unfolding", "coefficients", 0, 0, 0, 1, 0), 3, 1)], ()),
    "directions.projection_fixed_point": (
        "double", [(("frame", "psi_directions", 0, 0, 0), 3, 1)], ()),
    "theta.matrix_consistency": ("simple", [(("theta", "matrix", 0, 0, 0), 3, 1)], ()),
    "unfolding.reconstruction": ("simple", [(("unfolding", "delays", 3), 1, -1)], ()),
    # the character sum on the eigenvalue blocks moves by 2 (1e-3)^2 / 6 when
    # two of a swap's diagonal entries in different blocks move apart; the
    # commutant's sum, over the whole trace, does not move
    "versality.codimension_formula": ("double", [
        (("frame", "induced_rep", _SWAP, 0, 0, 0), 3, 1),
        (("frame", "induced_rep", _SWAP, 2, 2, 0), 3, -1)], ()),
}
# every tamper verify is run on, by id: (invariant, tamper as in TAMPERS,
# verify's --tol); at the default --tol the invariant fails, at a loose one
# it passes
TAMPER_CASES = {name: (name, tamper, None) for name, tamper in TAMPERS.items()} | {
    # a swap is no generator: the products x g that land on it read it
    "frame.induced_rep-off-generators": (
        "frame.induced_rep", ("double", [(("frame", "induced_rep", _SWAP, 1, 0, 0), 3, 1)], ()),
        None),
    # the commutation passes at --tol 1e-2, on its own line and inside the
    # versality check alike
    "frame.B_commutes_with_G-tol-1e-2": (
        "frame.B_commutes_with_G", TAMPERS["frame.B_commutes_with_G"], "1e-2"),
}


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

    @pytest.mark.parametrize("tol, message", [
        ("inf", "must be a finite number, got 'inf'"),
        ("nan", "must be a finite number, got 'nan'"),
        ("0", "must be positive, got '0'"),
        ("-0.5", "must be positive, got '-0.5'"),
    ], ids=["inf", "nan", "zero", "negative"])
    def test_tol_must_be_finite_and_positive(self, tmp_path, capsys, simple_artifact, tol,
                                             message):
        # unchecked, inf would pass every check and nan fail every check
        path = tmp_path / "simple.json"
        write_json_atomic(str(path), simple_artifact)
        err = usage_error(["verify", str(path), "--tol", tol], capsys)
        assert f"argument --tol: {message}" in err

    def test_empty_artifact_is_schema_error(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text("{}")
        assert run(["verify", str(path)]) == 2

    @pytest.mark.parametrize("content, message", [
        (b"{not json", "line 1 column 2"),
        (b"\xff\xfe{}", "not UTF-8 text"),
        pytest.param(b'{"schema": ' + b"1" * 5000 + b"}", "schema error", id="long-integer"),
        pytest.param(b"[]", "artifact must be a JSON object", id="list"),
    ])
    def test_malformed_json_artifact_exits_2(self, tmp_path, capsys, content, message):
        path = tmp_path / "bad.json"
        path.write_bytes(content)
        assert run(["verify", str(path)]) == 2
        err = capsys.readouterr().err
        assert "schema error" in err and message in err

    def test_group_of_another_dimension_is_a_schema_error(self, tmp_path, capsys,
                                                          simple_artifact):
        # kappa and gamma with a fixed fourth coordinate: the same order-6 group
        doc = copy.deepcopy(simple_artifact)
        fixed = np.zeros((2, 4, 4), dtype=complex)
        fixed[:, :3, :3] = decode_complex(doc["group"]["generators"], "group.generators", 3)
        fixed[:, 3, 3] = 1.0
        doc["group"]["generators"] = encode_complex(fixed)
        path = tmp_path / "four.json"
        write_json_atomic(str(path), doc)
        assert run(["verify", str(path)]) == 2
        assert "schema error: group: representation dim 4 != state dim 3" in capsys.readouterr().err

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

    @pytest.mark.parametrize("path, value, line", [
        (("report", "versality", "versal"), False, "versality.span"),
        (("report", "versality", "commutant_dim"), 15, "versality.span"),
        (("report", "versality", "tangent_dim"), 11, "versality.span"),
        (("report", "versality", "achieved_rank"), 15, "versality.span"),
        (("report", "versality", "n_directions"), 3, "versality.span"),
        (("report", "versality", "mini_versal"), False, "versality.mini"),
        (("report", "versality", "codimension"), 7, "versality.mini"),
        (("theta", "selected_rows"), [0, 1], "theta.selected_rows"),
        (("theta", "rank"), 9, "theta.selected_rows"),
    ], ids=["versal", "commutant-dim", "tangent-dim", "achieved-rank", "n-directions",
            "mini-versal", "codimension", "theta-selected-rows", "theta-rank"])
    def test_tampered_stored_decision_fails_its_line(self, tmp_path, capsys, simple_artifact,
                                                     path, value, line):
        # only the line that owns the field fails, and its detail names the
        # field with the stored and the recomputed value
        doc = copy.deepcopy(simple_artifact)
        node = functools.reduce(lambda node, key: node[key], path[:-1], doc)
        expected, node[path[-1]] = node[path[-1]], value
        bad, report = tmp_path / "bad.json", tmp_path / "report.json"
        write_json_atomic(str(bad), doc)
        assert run(["verify", str(bad), "--report", str(report)]) == 1
        failed = {c["name"]: c["detail"] for c in json.loads(report.read_text())["checks"]
                  if not c["passed"]}
        assert list(failed) == [line]
        assert f"[FAIL] {line}: " in capsys.readouterr().out
        stored = tuple(value) if isinstance(value, list) else value
        expected = tuple(expected) if isinstance(expected, list) else expected
        assert f"stored {'.'.join(path)} {stored}, expected {expected}" in failed[line]

    @pytest.mark.parametrize("change, tol, failed", [
        (1e-11, None, []), (1e-9, None, []), (1e-3, None, ["frame.reduced_matrix"]),
        (1e-3, "1e-2", [])], ids=["1e-11", "1e-9", "1e-3", "1e-3-tol-1e-2"])
    def test_stored_reduced_matrix_fails_its_line_only(self, tmp_path, simple_artifact, change,
                                                       tol, failed):
        # verify takes B = diag(eigenvalues) and computes nothing from the
        # stored matrix: an off-diagonal entry moved within --tol passes every
        # line, and one moved beyond it fails its own line and no other
        doc = copy.deepcopy(simple_artifact)
        doc["frame"]["reduced_matrix"][0][1][0] += change
        bad, report = tmp_path / "bad.json", tmp_path / "report.json"
        write_json_atomic(str(bad), doc)
        code = run(["verify", str(bad), "--report", str(report),
                    *([] if tol is None else ["--tol", tol])])
        checks = json.loads(report.read_text())["checks"]
        assert [c["name"] for c in checks if not c["passed"]] == failed
        assert code == (1 if failed else 0)

    @pytest.mark.parametrize("rows", [[-1, 1, 2, 3], [1, 1, 2, 3], ["x", 1, 2, 3]])
    def test_bad_selected_rows_are_schema_errors(self, tmp_path, simple_artifact, rows):
        doc = copy.deepcopy(simple_artifact)
        doc["unfolding"]["selected_rows"] = rows
        path = tmp_path / "bad.json"
        write_json_atomic(str(path), doc)
        assert run(["verify", str(path)]) == 2

    @pytest.mark.parametrize("field", ["group", "parameters"])
    @pytest.mark.parametrize("value", [None, 5, 0, -1, 1e308, True])
    def test_wrong_type_group_or_parameters_is_schema_error(self, tmp_path, capsys,
                                                            simple_artifact, field, value):
        doc = copy.deepcopy(simple_artifact)
        (doc if field == "group" else doc["unfolding"])[field] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert run(["verify", str(bad)]) == 2
        assert "schema error" in capsys.readouterr().err

    @pytest.mark.parametrize("k, name", enumerate([1, [2], {"a": 3}, None]))
    def test_parameter_name_that_is_not_a_string_is_schema_error(self, tmp_path, capsys,
                                                                 simple_artifact, k, name):
        doc = copy.deepcopy(simple_artifact)
        doc["unfolding"]["parameters"][k] = name
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert run(["verify", str(bad)]) == 2
        assert f"schema error: unfolding.parameters[{k}] must be a string, got " \
            in capsys.readouterr().err

    def test_repeated_parameter_name_is_schema_error(self, tmp_path, capsys, simple_artifact):
        # two parameters of one name are one name in a report: the build
        # writes distinct alpha_1, alpha_2, ...
        doc = copy.deepcopy(simple_artifact)
        doc["unfolding"]["parameters"] = ["a"] * len(doc["unfolding"]["parameters"])
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert run(["verify", str(bad)]) == 2
        assert "schema error: unfolding.parameters ['a', 'a', 'a', 'a'] must be distinct" \
            in capsys.readouterr().err

    @pytest.mark.parametrize("path", [
        ("frame", "eigenvalues", 0, 1),
        ("frame", "psi_directions", 0, 0, 0),
        ("frame", "psi_directions", 3, 2, 1),
    ], ids=["eigenvalue-imag", "psi-first", "psi-last"])
    def test_overflowing_entry_fails_versality_span(self, tmp_path, simple_artifact, path):
        # 1e308 parses as a finite number, but the center directions
        # recomputed from it overflow, and their span has no rank
        doc = copy.deepcopy(simple_artifact)
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = 1e308
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        report = tmp_path / "report.json"
        assert run(["verify", str(bad), "--report", str(report)]) == 1
        checks = {c["name"]: c for c in json.loads(report.read_text())["checks"]}
        assert not checks["versality.span"]["passed"]
        assert "non-finite" in checks["versality.span"]["detail"]

    @pytest.mark.parametrize("lag", [-3.43, 50.0], ids=["advanced", "beyond-horizon"])
    def test_lag_outside_the_horizon_is_a_schema_error(self, tmp_path, capsys, monkeypatch,
                                                       simple_case, simple_artifact, lag):
        # a family realized on the lags 0, tau_s, tau_n and one outside
        # [0, tau]: every check holds on it, and only the lag rule refuses it
        frame, rep = simple_case.frame, simple_case.rep
        lags = list(simple_case.assembly.family.delays[:3]) + [lag]
        _, Rbars, _, theta = slot_stacks(frame, rep, orbit_geometry(frame.B))
        Phis = np.array([frame.Phi_at(-r) for r in lags])
        coefficients = equivariant_average(rep, rep, solve_delay_realization(
            Phis, Rbars[list(theta.selected_rows)], sparsity=d3.structure_masks()))
        doc = copy.deepcopy(simple_artifact)
        doc["unfolding"].update(delays=lags, coefficients=encode_complex(coefficients))
        path = tmp_path / "lag.json"
        write_json_atomic(str(path), doc)
        assert run(["verify", str(path)]) == 2
        assert capsys.readouterr().err == (f"schema error: unfolding.delays[3] = {lag} lies "
                                           "outside the history horizon [0, 4.0]\n")
        monkeypatch.setattr(jsonio, "check_lags", lambda *args: None)
        assert run(["verify", str(path)]) == 0

    def test_single_field_mutations_exit_cleanly(self, tmp_path, simple_artifact):
        """Every node of a ``d3:simple`` artifact replaced by a wrong value or
        deleted: verify exits 0, 1 or 2 and never raises."""
        assert not _mutation_faults(tmp_path, simple_artifact, ["verify"], (0, 1, 2))

    @pytest.mark.parametrize("value", [[1e308, 1e308], [-1e308, 1e308], [1e200, 1e200]])
    def test_huge_generator_entries_fail_cleanly(self, tmp_path, capfd, simple_case,
                                                 simple_artifact, value):
        """Each entry of the generators' induced matrices (which the mutations
        above never reach) set to a huge pair: the products overflow, and
        verify exits 0, 1 or 2 with no traceback and no LAPACK line (LAPACK
        prints its illegal-value lines on stdout; an inf-entry commutator
        operator once raised LinAlgError)."""
        path = tmp_path / "huge.json"
        faults = []
        for g in simple_case.frame.G.group.generator_indices:
            for i, j in np.ndindex(simple_case.frame.c, simple_case.frame.c):
                doc = copy.deepcopy(simple_artifact)
                doc["frame"]["induced_rep"][g][i][j] = value
                path.write_text(json.dumps(doc))
                try:
                    code = run(["verify", str(path)])
                except Exception as exc:
                    faults.append((g, i, j, repr(exc)))
                    continue
                out, err = capfd.readouterr()
                if code not in (0, 1, 2) or "Traceback" in err or "illegal value" in out + err:
                    faults.append((g, i, j, code, err))
        assert not faults

    def test_overflowed_commutator_residual_fails(self, tmp_path, capsys, simple_artifact):
        # G(g) B - B G(g) overflows to a NaN residual, which once passed as 0.0
        doc = copy.deepcopy(simple_artifact)
        doc["frame"]["induced_rep"][1][0][1] = [1e308, 1e308]
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(doc))
        assert run(["verify", str(path)]) == 1
        assert "[FAIL] frame.B_commutes_with_G: residual nan (bound" in capsys.readouterr().out

    @pytest.mark.parametrize("path, mutate", [
        # non-finite entries
        (("group", "generators", 0, 0, 0), lambda z: [float("nan"), 0.0]),
        (("frame", "induced_rep", 1, 0, 0), lambda z: [float("nan"), 0.0]),
        (("frame", "phi_directions", 0, 0), lambda z: [float("nan"), 0.0]),
        (("frame", "reduced_matrix", 0, 0), lambda z: [0.0, float("inf")]),
        # structural defects
        (("model", "terms"), lambda terms: []),
        (("group", "generators", 0), lambda g: g[:2]),              # 2 x 3
        (("frame", "induced_rep"), lambda mats: mats[:-1]),
        (("unfolding", "coefficients", 0, 0), lambda A: A[:2]),
        (("frame", "phi_directions", 0), lambda v: v[:2]),
        (("frame", "psi_directions", 0), lambda v: v + [[0.0, 0.0]]),
        (("frame", "reduced_matrix"), lambda B: B[:-1]),
        # numbers where lists belong
        (("frame", "phi_directions"), lambda dirs: [5] * len(dirs)),
        (("frame", "phi_directions"), lambda dirs: 5),
        (("frame", "psi_directions"), lambda dirs: [5] * len(dirs)),
        (("frame", "eigenvalues"), lambda lams: 5),
        # a family or frame part missing or in excess
        (("unfolding", "coefficients", 0), lambda row: row[:-1]),   # one lag short
        (("unfolding", "coefficients"), lambda rows: rows + rows[:1]),
        (("frame", "induced_rep"), lambda mats: None),
    ], ids=["generator-nan", "induced-rep-nan", "phi-nan", "reduced-matrix-inf",
            "empty-terms", "non-square-generator", "short-induced-rep",
            "coefficient-shape", "short-phi", "long-psi", "reduced-matrix-shape",
            "phi-number-entries", "phi-number", "psi-number-entries", "eigenvalues-number",
            "short-coefficient-row", "extra-coefficient-row", "null-induced-rep"])
    def test_defective_document_is_schema_error(self, tmp_path, capsys, simple_artifact,
                                                path, mutate):
        doc = copy.deepcopy(simple_artifact)
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = mutate(node[path[-1]])
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert run(["verify", str(bad)]) == 2
        assert "schema error" in capsys.readouterr().err

    @pytest.mark.parametrize("mutate, message", [
        (lambda doc: doc["unfolding"]["coefficients"][0][1][0][0].__setitem__(0, float("nan")),
         "non-finite entry in unfolding.coefficients[0][1]"),
        (lambda doc: doc["unfolding"]["delays"].__setitem__(1, float("inf")),
         "non-finite entry in unfolding.delays"),
        (lambda doc: doc["frame"]["induced_rep"][1].pop(),
         "frame.induced_rep[1] has shape (3, 4), expected (4, 4)"),
        (lambda doc: doc["group"]["generators"][1].pop(),
         "group.generators[1] has shape (2, 3), expected (3, 3)"),
        (lambda doc: doc["group"]["generators"][1][0].pop(),
         "malformed complex matrix group.generators[1]"),
        (lambda doc: doc["unfolding"]["delays"].__setitem__(0, 10 ** 400),
         "non-finite entry in unfolding.delays[0]"),
        (lambda doc: doc["group"]["generators"][1][2][0].__setitem__(0, "0"),
         "schema error: group.generators[1][2][0][0] must be a number, got '0'"),
        (lambda doc: doc["group"]["generators"][1][2][0].__setitem__(0, None),
         "schema error: group.generators[1][2][0][0] must be a number, got None"),
        (lambda doc: doc["group"]["generators"][1][2][0].__setitem__(0, True),
         "schema error: group.generators[1][2][0][0] must be a number, got True"),
        (lambda doc: doc["group"].__setitem__("generators", []),
         "schema error: group.generators must be a non-empty list of matrices"),
        (lambda doc: doc.__setitem__("group", {
            "mul_table": [[0]], "matrices": [[[[1.0, 0.0]] * 3] * 3]}),
         "schema error: group.generators is required"),
        (lambda doc: doc["unfolding"]["selected_rows"].__setitem__(0, 0.9),
         "unfolding.selected_rows[0]"),
        (lambda doc: doc["unfolding"]["selected_rows"].__setitem__(0, "0"),
         "unfolding.selected_rows[0]"),
        (lambda doc: doc["model"].__setitem__("n", 3.9), "model.n"),
        (lambda doc: doc["model"].__setitem__("n", "3"), "model.n"),
        (lambda doc: doc["model"]["terms"][0].__setitem__("delay", "0"), "model.terms[0].delay"),
        (lambda doc: doc["model"]["terms"][0].__setitem__("delay", False), "model.terms[0].delay"),
        (lambda doc: doc["frame"]["eigenvalues"].__setitem__(0, ["0", "1.8"]),
         "frame.eigenvalues[0][0]"),
        (lambda doc: doc["frame"].pop("induced_rep"),
         "schema error: frame.induced_rep is required\n"),
        (lambda doc: doc.pop("report"), "report is required"),
        (lambda doc: doc["report"]["versality"].pop("codimension"),
         "report.versality.codimension is required"),
        (lambda doc: doc["report"]["versality"].__setitem__("mini_versal", 1),
         "report.versality.mini_versal must be true or false, got 1"),
        (lambda doc: doc["report"]["versality"].__setitem__("achieved_rank", True),
         "report.versality.achieved_rank must be a non-negative integer"),
        (lambda doc: doc["theta"].__setitem__("rank", 4.0), "theta.rank"),
        (lambda doc: doc["theta"]["selected_rows"].__setitem__(0, "0"),
         "theta.selected_rows[0]"),
        # a lag that overflows the center directions never reaches them
        (lambda doc: doc["unfolding"]["delays"].__setitem__(3, 1e308),
         "schema error: unfolding.delays[3] = 1e+308 lies outside the history horizon [0, 4.0]"),
        (lambda doc: doc["unfolding"]["delays"].__setitem__(3, 0.0),
         "schema error: unfolding.delays[3] = 0.0 repeats an earlier lag\n"),
        (lambda doc: doc["frame"].update(eigenvalues=[], phi_directions=[], psi_directions=[],
                                         reduced_matrix=[], induced_rep=[]),
         "schema error: frame.eigenvalues must not be empty\n"),
    ], ids=["coefficient-nan", "delay-inf", "ragged-induced-rep", "ragged-group-matrices",
            "ragged-group-matrix", "delay-huge-int", "generator-string", "generator-null",
            "generator-bool", "generators-empty", "group-table", "selected-row-float",
            "selected-row-string",
            "n-float", "n-string", "model-delay-string", "model-delay-bool",
            "eigenvalue-strings", "no-induced-rep", "no-report", "no-codimension",
            "mini-versal-int", "achieved-rank-bool", "theta-rank-float", "theta-row-string",
            "delay-overflow", "delay-repeat", "no-eigenvalues"])
    def test_defect_names_its_place(self, tmp_path, capsys, simple_artifact, mutate, message):
        doc = copy.deepcopy(simple_artifact)
        mutate(doc)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert run(["verify", str(bad)]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("command, mutate, message", [
        ("unfold", lambda doc: doc["model"]["terms"][1].__setitem__(
            "matrix", encode_complex(np.eye(2))), "model: coefficient shape (2, 2) != (3, 3)"),
        ("unfold", lambda doc: doc.__setitem__("group", {
            "generators": [encode_complex(np.zeros((3, 3)))]}), "group: singular generator matrix"),
        ("unfold", lambda doc: doc.update(delays=[0.5, 1.5], sparsity=[None]),
         "sparsity: 1 masks for 2 delays; need one per delay"),
        ("verify", lambda doc: doc["frame"]["induced_rep"].pop(),
         "frame: expected 6 square matrices of equal size, got shape (5, 4, 4)"),
        ("verify", lambda doc: doc["unfolding"]["coefficients"][0].pop(),
         "unfolding: coefficients must form a (parameters, lags, n, n) = (4, 4, 3, 3) stack"),
        ("unfold", lambda doc: doc.__setitem__("group", {
            "generators": [encode_complex(np.roll(np.eye(4), 1, axis=0))]}),
         "group: representation dim 4 != state dim 3"),
        ("verify", lambda doc: doc["group"].pop("generators"), "group.generators is required"),
    ], ids=["model", "group", "sparsity", "frame", "unfolding", "dimensions", "schema-in-block"])
    def test_structural_defect_names_its_document(self, tmp_path, capsys, simple_artifact,
                                                  command, mutate, message):
        # the ring3 config for unfold, the d3:simple artifact for verify; one
        # case for each block that jsonio decodes under document_errors (the
        # group's dimensions are checked in a block of their own), and a
        # schema error raised inside a block keeps its own text
        doc = copy.deepcopy(_ring_config(3) if command == "unfold" else simple_artifact)
        mutate(doc)
        path, out = tmp_path / "doc.json", tmp_path / "out.json"
        path.write_text(json.dumps(doc))
        args = {"unfold": ["unfold", "--config", str(path), "--output", str(out)],
                "verify": ["verify", str(path)]}[command]
        assert run(args) == 2
        assert capsys.readouterr().err == f"schema error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("key", TAMPER_CASES)
    def test_tamper_fails_its_invariant(self, tmp_path, simple_artifact, double_case, key):
        """One targeted change per invariant that verify reports fails that
        invariant by name, so none is dead and no relative bound lets a
        change of 1e-3 of the quantity's size through; and no line fails an
        entry that passes on its own line."""
        name, (case, changes, also), tol = TAMPER_CASES[key]
        r = double_case
        doc = copy.deepcopy(simple_artifact if case != "double" else build_artifact(
            r.op, r.rep, r.frame, r.assembly, meta={"preset": "d3:double"}))
        path, report = tmp_path / "tampered.json", tmp_path / "report.json"
        write_json_atomic(str(path), doc)
        assert run(["verify", str(path), "--report", str(report)]) == 0
        checks = json.loads(report.read_text())["checks"]
        # every invariant that verify reports has its case here
        assert {c["name"] for c in checks} & set(BY_NAME) == set(TAMPERS)
        if case == "sheared":
            gens = decode_complex(doc["group"]["generators"], "group.generators", 3)
            doc["group"]["generators"] = encode_complex(_SHEAR @ gens @ (2 * np.eye(3) - _SHEAR))
        for keys, depth, sign in changes:
            *outer, last = keys
            node = functools.reduce(lambda node, key: node[key], outer, doc)
            size = np.max(np.abs(functools.reduce(lambda node, key: node[key],
                                                  keys[:-depth], doc)), initial=1.0)
            node[last] += sign * 1e-3 * size
        write_json_atomic(str(path), doc)
        code = run(["verify", str(path), "--report", str(report),
                    *([] if tol is None else ["--tol", tol])])
        checks = json.loads(report.read_text())["checks"]
        failed = {c["name"] for c in checks if not c["passed"]}
        assert code == (1 if failed else 0)
        assert ({name, *also} <= failed) if tol is None else (name not in failed)
        passed = {c["name"] for c in checks if c["passed"]}
        assert not [(c["name"], entry) for c in checks if not c["passed"]
                    for entry in passed if entry in c["detail"]]


class TestCanonicalJson:
    def test_sorted_keys_and_float_format(self):
        text = canonical_json({"b": 0.1, "a": [1, True, None, "x"]})
        assert text == '{"a":[1,true,null,"x"],"b":0.10000000000000001}'

    def test_rejects_nan(self):
        with pytest.raises(Exception):
            canonical_json({"x": float("nan")})
