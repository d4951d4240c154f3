"""Tests of the benchmark itself: ``python -m pytest perfbench``."""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def bench(*args, cwd=ROOT, script=BENCH_DIR / "run.py"):
    proc = subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)
    return proc, proc.stdout.strip().splitlines()


def context(tmp_path, expected=None):
    args = SimpleNamespace(seed=1, tiny=True,
                           expected=expected or str(BENCH_DIR / "expected.json"))
    return run.make_context(args, tmp_path)


def test_benchmark_json_follows_its_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    assert {w["name"] for w in SPEC["workloads"]} == set(workloads.WORKLOADS)
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(m["unit"]) and m["better"] in ("higher", "lower")
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    # a run measures passes worth run_seconds on the reference host; beyond
    # that it sets up seven times and runs its final checks: 10-20 s more on a
    # 2-vCPU Xeon; allow 16 s on average
    budget = (4 + 22 * len(SPEC["workloads"])) * (SPEC["run_seconds"] + 16)
    assert budget <= 3420


def test_a_run_measures_a_fixed_number_of_passes():
    # the count follows from --seconds alone, never from the host's speed, so
    # a seed runs (and fails) the same operations on every run
    assert [run.pass_count(w, SPEC["run_seconds"], False)
            for w in (workloads.HopfScan, workloads.UnfoldWarm, workloads.RingConfig)
            ] == [4, 25, 8]
    assert run.pass_count(workloads.HopfScan, 1, False) == 1
    assert run.pass_count(workloads.UnfoldWarm, 60, True) == 1


def test_timing_reports_tail_only_with_ten_samples_beyond():
    assert run.timing([1.0] * 19)["tail_p"] is None
    t = run.timing([float(i) for i in range(1, 101)])
    assert t["tail_p"] == 90.0 and t["n"] == 100
    assert t["p50_ms"] == pytest.approx(50.5e3)


def test_tracer_wraps_every_binding_and_restores_it():
    from equnfold import cli, d3, frames, verify
    originals = (cli.eigenbasis, frames.eigenbasis, verify.orbit_geometry, np.linalg.det)
    tracer = Tracer()
    tracer.install()
    try:
        assert cli.eigenbasis is frames.eigenbasis is not originals[0]
        d3.locate_double_hopf("delta2", 0.5, 3.0, omegas=np.arange(0.05, 5.0, 0.02))
    finally:
        left = tracer.restore()
    assert left == []
    assert (cli.eigenbasis, frames.eigenbasis, verify.orbit_geometry,
            np.linalg.det) == originals
    s = tracer.summary()
    assert s["d3.locate_double_hopf.calls"] == 1
    assert s["d3.sweep_curves.calls"] == 1
    assert s["d3.find_double_hopf.calls"] >= s["d3.points_found"] > 0
    assert s["d3.locate_double_hopf.self_s"] < s["d3.locate_double_hopf.s"]


def test_tracer_times_recursive_functions_once():
    from equnfold import jsonio
    tracer = Tracer()
    tracer.install()
    try:
        jsonio.canonical_json({"a": [1, {"b": [2.0, 3.0]}]})
    finally:
        tracer.restore()
    assert tracer.summary()["jsonio.canonical_json.calls"] == 1


def test_perturbed_coefficient_fails_the_operation(tmp_path):
    wl = workloads.UnfoldWarm(context(tmp_path))
    point = wl._fixture_points()[-1]               # the d3:double point (c = 8)
    assert wl.run_op(point).ok and not wl.gate_errors

    def tamper(doc):
        doc["unfolding"]["coefficients"][0][0][0][1][0] += 1e-3

    wl.tamper = tamper
    out = wl.run_op(point)
    assert not out.ok and out.reason.startswith("verify ")
    assert "family.coefficient_equivariance" in out.reason
    assert wl.gate_errors


def test_double_hopf_output_is_checked_against_the_fixture(tmp_path):
    ctx = context(tmp_path)
    wl = workloads.HopfScan(ctx)
    wl.final_check()
    assert not wl.gate_errors
    ctx.fixture["double"]["points"][0]["alpha"] += 1e-12
    wl.final_check()
    assert any("double-hopf output" in g for g in wl.gate_errors)


def test_ring_failure_keeps_its_reason(tmp_path):
    wl = workloads.RingConfig(context(tmp_path))
    outs = [wl.run_op(op) for op in wl.pass_ops(0)]
    assert [o.label for o in outs] == ["N=3", "N=12"]
    assert outs[0].ok
    if not outs[1].ok:
        assert outs[1].reason == "unfold exit 1 (pipeline error)"
    assert not wl.gate_errors


def test_low_discrepancy_draws_are_seeded_and_in_range():
    a = [workloads.draws(5, 12, k, [(1.5, 2.5), (0.5, 1.5)]) for k in range(40)]
    assert a == [workloads.draws(5, 12, k, [(1.5, 2.5), (0.5, 1.5)]) for k in range(40)]
    assert a != [workloads.draws(6, 12, k, [(1.5, 2.5), (0.5, 1.5)]) for k in range(40)]
    gains = sorted(g for g, _ in a)
    assert 1.5 <= gains[0] and gains[-1] < 2.5
    # evenly spread: every tenth of the range holds 4 of the 40 draws, give or take 2
    counts = np.histogram(gains, bins=10, range=(1.5, 2.5))[0]
    assert counts.min() >= 2 and counts.max() <= 6


def test_wrong_preset_digest_fails_the_unfold_warm_run(tmp_path):
    expected = json.loads((BENCH_DIR / "expected.json").read_text())
    expected["d3:simple"] = "0" * 64
    path = tmp_path / "expected.json"
    path.write_text(json.dumps(expected))
    proc, lines = bench("--workload", "unfold-warm", "--seed", "1", "--seconds", "1",
                        "--trace", "0", "--tiny", "--expected", str(path))
    assert proc.returncode == 1
    last = json.loads(lines[-1])
    assert last["correct"] is False
    gates = json.loads(lines[-2])["report"]["gate_errors"]
    assert any("d3:simple artifact digest" in g for g in gates)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_tiny_pass_completes(workload, trace):
    proc, lines = bench("--workload", workload, "--seed", "3", "--seconds", "1",
                        "--trace", trace, "--tiny")
    assert proc.returncode == 0, proc.stderr
    last = json.loads(lines[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["attempted"] >= 1
    wanted = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert list(last["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        assert last["metrics"][m["name"]]["unit"] == m["unit"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc, lines = bench("--workload", "hopf-scan", "--seed", "1", "--seconds", "1",
                        "--trace", "0", cwd=tmp_path,
                        script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert lines == []
