"""Run-to-run spread of the end-to-end metrics across seeds.

    python3 perfbench/stability.py --workloads hopf-scan,ring-config --seeds 1-10

Runs ``run.py --trace 0`` once per seed and workload, then prints, for
every end-to-end metric in the report, the median over the runs and the
distance between the first and third quartile as a share of that median
(``statistics.quantiles(values, n=4)``), next to the bound from
``BENCHMARK.json``.  ``--out FILE`` also saves these spreads and every
run's report, without the per-operation list.  ``--traced-seed N`` adds one
``--trace 1`` run per workload with seed N to the saved file.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def seeds_from(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    if not med:
        return med, 0.0 if q3 == q1 else float("inf")
    return med, (q3 - q1) / abs(med)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", required=True, help="comma-separated names")
    parser.add_argument("--seeds", default="1-10", help="A-B, inclusive")
    parser.add_argument("--seconds", type=float, default=None,
                        help="default: run_seconds from BENCHMARK.json")
    parser.add_argument("--out", default=None)
    parser.add_argument("--traced-seed", type=int, default=None)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = args.seconds or spec["run_seconds"]

    def bench(name, seed, trace):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "run.py"), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=600)
        wall = time.perf_counter() - t0
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            print(f"{name} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
            return None
        report = json.loads(lines[-2])["report"]
        report.pop("ops")
        return {"wall_s": wall, "result": json.loads(lines[-1]), "report": report}

    runs, traced, summary = [], [], {}
    for name in args.workloads.split(","):
        values = {}
        for seed in seeds_from(args.seeds):
            run = bench(name, seed, 0)
            if run is None:
                return 1
            runs.append(run)
            wall, last, report = run["wall_s"], run["result"], run["report"]
            for key, m in report["end_to_end"].items():
                if m["value"] is not None:
                    values.setdefault(key, []).append(m["value"])
            print(f"{name} seed {seed} ({wall:.1f} s): failed {last['failed']}/{last['attempted']} "
                  + " ".join(f"{k}={v['value']:.6g}" for k, v in last["metrics"].items()),
                  flush=True)
        for key, vals in sorted(values.items()):
            if len(vals) < 2:
                continue
            med, iqr = spread(vals)
            summary.setdefault(name, {})[key] = {"median": med, "spread": iqr}
            bound = bounds.get(key)
            flag = "" if bound is None else f"  bound {bound}  third {bound / 3:.3f}" + \
                ("  OVER" if iqr > bound / 3 else "")
            print(f"  {name:12s} {key:18s} median {med:12.6g}  spread {iqr:.4f}{flag}")
        if args.traced_seed is not None:
            run = bench(name, args.traced_seed, 1)
            if run is None:
                return 1
            traced.append(run)
            print(f"  {name} traced seed {args.traced_seed}: top self layer "
                  f"{run['report']['top_self_layer']}, "
                  + " ".join(f"{k}={run['report']['per_layer'][k]['value']:.4g}"
                             for k in ("trace.coverage_pct", "trace.top_self_pct",
                                       "trace.overhead_pct")), flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"spreads": summary, "runs": runs, "traced": traced}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
