"""Benchmark of equnfold: three closed-loop workloads, one client each.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload hopf-scan --seed 1 --seconds 10 --trace 0

``--workload`` is one of ``hopf-scan``, ``unfold-warm`` or ``ring-config``.
The program is imported from the checkout's ``src/``; nothing is installed.
The run sets up seven times (a cold ``import equnfold.cli`` in a fresh
interpreter plus the workload's own preparation) and reports the median, in
seconds of a reference machine (see ``REFERENCE_CALIB_S``), as ``setup_s``;
then it measures a fixed number of whole passes of operations, as many as
take ``--seconds`` on the reference machine (see ``pass_count``), timing a
fixed calibration loop between them (see ``calib.py``).  With ``--trace 1``
it then replays pass 0 with every listed ``equnfold`` function wrapped (see
``tracer.py``), checks that the traced outputs equal the untraced ones and
that every wrapper was removed, and reports the per-layer numbers.

Output: one JSON line with the full report (every metric with its unit,
failure reasons, machine caveats), then, as the last line, the summary the
metric lists of ``BENCHMARK.json`` name.  A broken correctness gate makes
``correct`` false and the exit code 1.  ``--tiny`` runs one small pass of a
workload, for the benchmark's own tests.
"""

import argparse
import ctypes
import glob
import importlib.metadata
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

from calib import bracket, calibrate

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
FIXTURE = ROOT / "tests" / "fixtures" / "double_hopf_points.json"
SETUP_REPEATS = 7
CALIB_EVERY_S = 0.5     # between operations, calibrate at most this often
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
# The host's speed changes in phases of a few seconds and drifts over
# minutes, by up to 2x.  Times are therefore divided by the mean time of the
# calibration loop sampled over the same stretch: both are then averages over
# the same mix of fast and slow phases.  Set-up is reported in seconds of a
# reference machine, whose calibration loop takes this long (a 2-vCPU Xeon
# host with a typical load of other tenants).
REFERENCE_CALIB_S = 0.030
# The child times ``import numpy``, brackets the rest of ``import equnfold.cli``
# with calibration loops, and prints the import time and the loop times.
PROBE = ("import sys, time; t = time.perf_counter(); import numpy; "
         "a = time.perf_counter() - t; sys.path.insert(0, {bench!r}); "
         "from calib import bracket, calibrate; calibrate(); c0 = bracket(); "
         "t = time.perf_counter(); import equnfold.cli; b = time.perf_counter() - t; "
         "print(repr(a + b), *map(repr, c0 + bracket()))")
COUNT_UNITS = {"calls": "count", "failed": "count", "iterations": "count",
               "secant_fallbacks": "count", "checks_failed": "count",
               "points_found": "count", "artifact_bytes": "bytes"}


class SetupError(Exception):
    pass


# ------------------------------------------------------------------ stats

def timing(values):
    """Median and the highest listed percentile with at least ten samples
    beyond it (None when there are too few samples), in milliseconds."""
    n = len(values)
    out = {"p50_ms": statistics.median(values) * 1e3 if values else None,
           "tail_p": None, "tail_ms": None, "n": n}
    for p in TAIL_PERCENTILES:
        permille = round(p * 10)
        if n * (1000 - permille) >= 10 * 1000:
            cuts = statistics.quantiles(values, n=1000, method="inclusive")
            out["tail_p"], out["tail_ms"] = p, cuts[permille - 1] * 1e3
            break
    return out


def metric(value, unit):
    return {"value": value, "unit": unit}


# ---------------------------------------------------------------- machine

def blas_info():
    import numpy as np
    try:
        cfg = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        build = f"{cfg.get('name')} {cfg.get('version')}"
    except (KeyError, TypeError):
        build = "unknown"
    threads = None
    for lib in glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                      "numpy.libs", "*openblas*")):
        try:
            fn = getattr(ctypes.CDLL(lib), "scipy_openblas_get_num_threads64_")
        except (OSError, AttributeError):
            continue
        fn.argtypes, fn.restype = [], ctypes.c_int
        threads = fn()
    return build, threads


def machine(load_start, threads_env):
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), "unknown")
    except OSError:
        cpu = "unknown"
    build, threads = blas_info()
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": sys.version.split()[0],
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "blas": build,
        "blas_threads": threads,
        "blas_thread_env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS",
                                                       "OMP_NUM_THREADS")
                            if k in os.environ},
        "loadavg_start": load_start,
        "loadavg_end": list(os.getloadavg()),
        "program_defaults": {
            "EQUNFOLD_THREADS": "unset" if threads_env is None
            else f"removed (was {threads_env!r})",
            "tolerance_overrides": "none",
        },
    }


# ------------------------------------------------------------------ setup

def import_probe(ctx):
    """A cold ``import equnfold.cli`` in a fresh interpreter: the import time,
    its ``scipy.linalg`` share and the calibration times around it, all taken
    in the child."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c",
                           PROBE.format(bench=str(BENCH_DIR))],
                          cwd=ctx.work, env=ctx.env, capture_output=True, text=True,
                          timeout=120)
    if proc.returncode != 0:
        raise SetupError(f"import probe failed: {proc.stderr.strip()[-300:]}")
    scipy_us = 0
    for line in proc.stderr.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[2].strip() == "scipy.linalg":
            scipy_us = int(parts[1])
    import_s, *cal = (float(x) for x in proc.stdout.split())
    return import_s, scipy_us * 1e-6, cal


def make_context(args, work):
    if not (ROOT / "src" / "equnfold" / "__init__.py").is_file() or not FIXTURE.is_file():
        raise SetupError(f"{ROOT} is not an equnfold checkout (src/equnfold and "
                         "tests/fixtures are needed)")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("EQUNFOLD_THREADS", None)
    expected = json.loads(Path(args.expected).read_text())
    return SimpleNamespace(root=ROOT, bench_dir=BENCH_DIR, work=work, env=env,
                           seed=args.seed, tiny=args.tiny, expected=expected,
                           fixture=json.loads(FIXTURE.read_text()))


# -------------------------------------------------------------------- run

def pass_count(wl, seconds, tiny):
    """Passes a run measures: as many as take ``seconds`` on the reference
    machine.  The count does not depend on how fast the host is, so a seed
    runs the same operations, and the same ones fail, on every run."""
    return 1 if tiny else max(1, round(seconds / wl.pass_seconds))


def measure(wl, n_passes):
    """``n_passes`` whole passes.  Returns the passes (lists of outcomes), the
    calibration times taken at the start and end of each pass and between its
    operations, and the elapsed time."""
    passes, calibs = [], []
    t_begin = time.perf_counter()
    while len(passes) < n_passes:
        cal, outs = [calibrate()], []
        last = time.perf_counter()
        for op in wl.pass_ops(len(passes)):
            if time.perf_counter() - last >= CALIB_EVERY_S:
                cal.append(calibrate())
                last = time.perf_counter()
            outs.append(wl.run_op(op))
        cal.append(calibrate())
        passes.append(outs)
        calibs.append(cal)
    return passes, calibs, time.perf_counter() - t_begin


def traced_pass(wl):
    """Pass 0 again, untraced and then with the tracer on.  Returns the
    traced outcomes, layer summary and names left wrapped afterwards, and
    the tracing overhead: the traced over the untraced replay's time, each
    in units of the calibration loops bracketing it, minus one."""
    from tracer import Tracer
    ops = wl.pass_ops(0)
    cal = bracket()
    plain = sum(wl.run_op(op).wall for op in ops) / statistics.mean(cal + bracket())
    cal = bracket()
    tracer = Tracer()
    tracer.install()
    try:
        outcomes = [wl.run_op(op) for op in ops]
    finally:
        left = tracer.restore()
    traced = sum(o.wall for o in outcomes) / statistics.mean(cal + bracket())
    return outcomes, tracer.summary(), left, traced / plain - 1.0


def end_to_end(wl, passes, calibs, setup_s):
    """Throughput is a pass's operation count over the median pass time (the
    program's working time, without the benchmark's own checks).
    ``op_time_calib`` is the mean operation time over all passes in units of
    the mean calibration time over the run."""
    outcomes = [o for p in passes for o in p]
    walls = [o.wall for o in outcomes]
    t = timing(walls)
    calib_s = statistics.mean(x for c in calibs for x in c)
    m = {
        "setup_s": metric(setup_s, "s"),
        "ops_per_s": metric(len(passes[0]) / statistics.median(
            sum(o.wall for o in p) for p in passes), "1/s"),
        "op_time_calib": metric(sum(walls) / len(walls) / calib_s, "calib"),
        "calib_ms": metric(calib_s * 1e3, "ms"),
        "op_p50_ms": metric(t["p50_ms"], "ms"),
        "op_tail_ms": metric(t["tail_ms"], "ms"),
        "ops_failed_ratio": metric(sum(not o.ok for o in outcomes) / len(outcomes), "ratio"),
    }
    m["peak_rss_mb"] = metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    timings = {"op": t}
    parts = sorted({k for o in outcomes for k in o.parts})
    for part in parts:
        t_part = timing([o.parts[part] for o in outcomes if part in o.parts])
        m[f"{part}_p50_ms"] = metric(t_part["p50_ms"], "ms")
        timings[part] = t_part
    if wl.name == "hopf-scan":
        m["points_found"] = metric(sum(o.points for o in outcomes), "count")
    return m, timings


def layer_metrics(summary, traced, overhead, probes):
    m = {}
    for key in sorted(summary):
        stat = key.rsplit(".", 1)[1]
        m[key] = metric(summary[key], COUNT_UNITS.get(stat, "s"))
    walls = sum(o.wall for o in traced)
    selfs = {k[:-len(".self_s")]: v for k, v in summary.items() if k.endswith(".self_s")}
    top = max(selfs, key=selfs.get) if selfs else None
    m["trace.op_s"] = metric(walls, "s")
    m["trace.coverage_pct"] = metric(100.0 * sum(selfs.values()) / walls if walls else 0.0, "%")
    m["trace.top_self_pct"] = metric(100.0 * selfs[top] / walls if top and walls else 0.0, "%")
    m["trace.overhead_pct"] = metric(100.0 * overhead, "%")
    refinements = summary.get("d3.find_double_hopf.calls", 0.0)
    m["d3.refine_yield"] = metric(summary.get("d3.points_found", 0.0) / refinements
                                  if refinements else 0.0, "ratio")
    m["import.equnfold_cli_s"] = metric(statistics.median(p[0] for p in probes), "s")
    m["import.scipy_linalg_s"] = metric(statistics.median(p[1] for p in probes), "s")
    return m, top


def outcome_key(o):
    return (o.label, o.ok, o.reason, o.digest, o.points)


def run_workload(args, ctx):
    import workloads
    cls = workloads.WORKLOADS[args.workload]
    t0 = time.perf_counter()
    import equnfold.cli  # noqa: F401  (the in-process import, timed below)
    import_inproc_s = time.perf_counter() - t0
    wl = cls(ctx)

    # set-up: a fresh-process import plus the workload's preparation, both
    # bracketed by calibration loops (the import's in the child)
    probes, preps, setups_raw, setup_cal, prints = [], [], [], [], []
    calibrate()                                     # first-call costs
    for _ in range(1 if args.tiny else SETUP_REPEATS):
        probe = import_probe(ctx)
        setup_cal += probe[2] + bracket()
        t_prep = time.perf_counter()
        prints.append(wl.prepare())
        prep_s = time.perf_counter() - t_prep
        setup_cal += bracket()
        probes.append(probe)
        preps.append(prep_s)
        setups_raw.append(probe[0] + prep_s)
    if len(set(prints)) != 1:
        wl.gate("set-up is not deterministic: repeated preparations differ")
    setup_s = (statistics.median(setups_raw) / statistics.mean(setup_cal)
               * REFERENCE_CALIB_S)

    passes, calibs, elapsed = measure(wl, pass_count(wl, args.seconds, args.tiny))
    wl.final_check()
    outcomes = [o for p in passes for o in p]
    e2e, timings = end_to_end(wl, passes, calibs, setup_s)
    report = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "passes": len(passes), "measured_s": elapsed,
        "setup_raw_samples_s": setups_raw,
        "setup_import_samples_s": [p[0] for p in probes],
        "setup_prep_samples_s": preps,
        "setup_calib_ms": statistics.mean(setup_cal) * 1e3,
        "import_inproc_s": import_inproc_s,
        "end_to_end": e2e, "timings": timings,
        "failures": {}, "failed_ops": {},
        "ops": [[o.label, o.wall, o.ok] for o in outcomes],
    }
    for o in outcomes:
        if not o.ok:
            for key, name in (("failures", o.reason), ("failed_ops", o.label)):
                report[key][name] = report[key].get(name, 0) + 1
    attempted, failed = len(outcomes), sum(not o.ok for o in outcomes)

    layers = {}
    if args.trace:
        traced, summary, left, overhead = traced_pass(wl)
        attempted += len(traced)
        failed += sum(not o.ok for o in traced)
        first = outcomes[:len(traced)]
        if [outcome_key(o) for o in traced] != [outcome_key(o) for o in first]:
            wl.gate("traced pass differs from the untraced pass 0")
        if left:
            wl.gate(f"functions left wrapped after tracing: {left}")
        layers, top = layer_metrics(summary, traced, overhead, probes)
        report["per_layer"] = layers
        report["top_self_layer"] = top
    report["gate_errors"] = wl.gate_errors
    return report, e2e, layers, attempted, failed


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("hopf-scan", "unfold-warm", "ring-config"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="one small pass (self-test)")
    parser.add_argument("--expected", default=str(BENCH_DIR / "expected.json"),
                        help="pinned artifact digests")
    args = parser.parse_args(argv)

    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        load_start = list(os.getloadavg())
        threads_env = os.environ.pop("EQUNFOLD_THREADS", None)
        work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
        work.mkdir(parents=True)
        try:
            ctx = make_context(args, work)
            sys.path.insert(0, str(ROOT / "src"))
            report, e2e, layers, attempted, failed = run_workload(args, ctx)
        finally:
            shutil.rmtree(work, ignore_errors=True)
            try:
                work.parent.rmdir()
            except OSError:
                pass
    except (SetupError, OSError, KeyError, ValueError, ImportError, RuntimeError) as exc:
        print(f"perfbench: cannot run: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2

    report["machine"] = machine(load_start, threads_env)
    source = layers if args.trace else e2e
    metrics = {}
    for m in spec["per_layer" if args.trace else "end_to_end"]:
        if m["name"] in source:
            metrics[m["name"]] = source[m["name"]]
        elif m["unit"] in ("count", "bytes"):
            metrics[m["name"]] = metric(0, m["unit"])    # the layer was never called
        else:
            report["gate_errors"].append(f"metric {m['name']} was not measured")
    correct = not report["gate_errors"]
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
