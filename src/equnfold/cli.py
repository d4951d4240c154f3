"""Command-line entry point.

Subcommands wire JSON/flag configuration into the library pipeline and
emit machine-readable artifacts:

    curves       sample imaginary-root curves of the three-cell model (CSV)
    double-hopf  locate curve crossings and refine them (JSON)
    unfold       run the equivariant unfolding pipeline (JSON artifact)
    verify       re-run the invariant suite against an artifact
    d3-demo      both worked cases end to end

Exit codes: 0 success, 1 pipeline failure, 2 usage or schema error,
3 versal-but-not-minimal result from ``unfold``.
"""

import argparse
import os
import sys

import numpy as np

from . import d3
from .errors import EqunfoldError, SchemaError
from .frames import eigenbasis, find_root, induce_representation
from .jsonio import (build_artifact, model_from_doc, pair_complex,
                     read_json, rep_from_doc, write_json_atomic,
                     write_text_atomic)
from .unfolding import (assemble_gamma_unfolding, orbit_geometry,
                        semisimple_jordan_spec, select_delays)
from .verify import verify_artifact

EXIT_OK = 0
EXIT_PIPELINE = 1
EXIT_USAGE = 2
EXIT_NOT_MINIMAL = 3


class UsageError(Exception):
    pass


def _parse_range(text):
    try:
        a, b, step = (float(x) for x in text.split(":"))
    except ValueError:
        raise UsageError(f"malformed range {text!r}; expected START:STOP:STEP")
    if step <= 0 or b <= a or a <= 0:
        raise UsageError(f"range {text!r} must satisfy 0 < START < STOP with STEP > 0")
    grid = np.arange(a, b, step)
    if len(grid) < 2:
        raise UsageError(f"range {text!r} gives fewer than two samples")
    return grid


def _parse_branches(text):
    try:
        lo, hi = (int(x) for x in text.split(".."))
    except ValueError:
        raise UsageError(f"malformed branch range {text!r}; expected K..L")
    if hi < lo:
        raise UsageError(f"branch range {text!r} is empty")
    return tuple(range(lo, hi + 1))


def _parse_window(text):
    try:
        a, b = (float(x) for x in text.split(":"))
    except ValueError:
        raise UsageError(f"malformed window {text!r}; expected A:B")
    if b <= a:
        raise UsageError(f"window {text!r} is empty")
    return (a, b)


def cmd_curves(args):
    omegas = _parse_range(args.omega_range)
    branches = _parse_branches(args.branches)
    curves = d3.sweep_curves(args.factor, args.beta, args.tau_n, omegas, branches=branches)
    lines = ["omega,alpha,tau_s,sign,branch,factor"]
    for sg in (1, -1):
        for br in branches:
            for om, al, ts in curves[(sg, br)]:
                lines.append(
                    f"{format(om, '.17g')},{format(al, '.17g')},{format(ts, '.17g')},"
                    f"{sg},{br},{args.factor}"
                )
    write_text_atomic(args.output, "\n".join(lines) + "\n")
    print(f"wrote {len(lines) - 1} curve samples to {args.output}")
    return EXIT_OK


def cmd_double_hopf(args):
    omegas = _parse_range(args.omega_range)
    points = d3.locate_double_hopf(
        args.factor, args.beta, args.tau_n, omegas=omegas,
        branches=_parse_branches(args.branches),
        alpha_window=_parse_window(args.alpha_window),
        tau_s_window=_parse_window(args.tau_s_window),
    )
    doc = {
        "schema": "equivar-unfold/1",
        "kind": "double-hopf-points",
        "factor": args.factor,
        "beta": args.beta,
        "tau_n": args.tau_n,
        "alpha_window": list(_parse_window(args.alpha_window)),
        "tau_s_window": list(_parse_window(args.tau_s_window)),
        "points": [
            {"alpha": p.alpha, "tau_s": p.tau_s, "omega1": p.omega1,
             "omega2": p.omega2, "residual": p.residual}
            for p in points
        ],
    }
    write_json_atomic(args.output, doc)
    print(f"found {len(points)} double-Hopf points; wrote {args.output}")
    for p in points:
        print(f"  alpha={p.alpha:.6f} tau_s={p.tau_s:.6f} "
              f"omega=({p.omega1:.6f}, {p.omega2:.6f})")
    return EXIT_OK if points else EXIT_PIPELINE


def _load_inline_or_path(value, loader):
    if isinstance(value, str):
        return loader(read_json(value))
    return loader(value)


def _run_config(cfg):
    """Run the generic pipeline described by a config document."""
    seeds = cfg.get("lambda_seeds")
    if isinstance(seeds, str):
        # a preset string stands in for the whole model/group/seed triple
        if "model" in cfg or "group" in cfg:
            raise SchemaError("preset lambda_seeds cannot be combined with an "
                              "explicit model or group")
        return _run_preset(seeds)
    try:
        model_doc = cfg["model"]
        group_doc = cfg["group"]
        if seeds is None:
            raise KeyError("'lambda_seeds'")
    except KeyError as exc:
        raise SchemaError(f"config is missing {exc}")
    op = _load_inline_or_path(model_doc, model_from_doc)
    rep = _load_inline_or_path(group_doc, rep_from_doc)

    tolerances = cfg.get("tolerances") or {}
    root_tol = tolerances.get("root_tol", 1e-12)
    if not root_tol > 0:
        raise SchemaError("tolerances must be positive")

    roots = []
    for seed in seeds:
        res = find_root(op, pair_complex(seed), tol=root_tol)
        if all(abs(res.root - r) > 1e-8 for r in roots):
            roots.append(res.root)
    if not roots:
        raise EqunfoldError("no characteristic roots found from the given seeds")

    frame = eigenbasis(op, roots)
    frame = induce_representation(frame, rep)
    delays = [float(r) for r in cfg["delays"]] if cfg.get("delays") else select_delays(frame)
    sparsity = None
    if cfg.get("sparsity"):
        sparsity = [None if m is None else np.asarray(m, dtype=bool) for m in cfg["sparsity"]]
    geometry = orbit_geometry(frame.B, semisimple_jordan_spec(frame.lambdas))
    assembly = assemble_gamma_unfolding(frame, rep, delays, geometry=geometry,
                                        sparsity=sparsity)
    return op, rep, frame, assembly, {"source": "config"}


def _run_preset(preset):
    if preset not in ("d3:simple", "d3:double"):
        raise UsageError(f"unknown preset {preset!r}; use d3:simple or d3:double")
    case = preset.split(":")[1]
    result = d3.run_case(case)
    meta = {
        "preset": preset,
        "point": {
            "factor": result.point.factor,
            "alpha": result.point.alpha,
            "beta": result.point.beta,
            "tau_s": result.point.tau_s,
            "tau_n": result.point.tau_n,
            "omega1": result.point.omega1,
            "omega2": result.point.omega2,
        },
    }
    return result.op, result.rep, result.frame, result.assembly, meta


def cmd_unfold(args):
    if bool(args.preset) == bool(args.config):
        raise UsageError("exactly one of --preset or --config is required")
    if args.preset:
        op, rep, frame, assembly, meta = _run_preset(args.preset)
    else:
        cfg = read_json(args.config)
        op, rep, frame, assembly, meta = _run_config(cfg)
        if not args.output and cfg.get("output"):
            args.output = cfg["output"]
    doc = build_artifact(op, rep, frame, assembly, meta=meta)
    out = args.output or "unfold.json"
    write_json_atomic(out, doc)
    ver = assembly.versality
    kind = "mini-versal" if ver.mini_versal else "versal (not minimal)"
    print(f"{kind}: {ver.n_directions} parameters, codimension {ver.codimension}; "
          f"wrote {out}")
    return EXIT_OK if ver.mini_versal else EXIT_NOT_MINIMAL


def cmd_verify(args):
    doc = read_json(args.artifact)
    report = verify_artifact(doc, tol=args.tol)
    for line in report.lines():
        print(line)
    if args.report:
        out = {
            "schema": "equivar-unfold/1",
            "kind": "verification-report",
            "ok": report.ok,
            "checks": [
                {"name": c.name, "passed": c.passed, "detail": c.detail}
                for c in report.checks
            ],
        }
        write_json_atomic(args.report, out)
    print("all checks passed" if report.ok else
          f"{len(report.failed())} checks FAILED")
    return EXIT_OK if report.ok else EXIT_PIPELINE


def cmd_d3_demo(args):
    os.makedirs(args.output_dir, exist_ok=True)
    for case in ("simple", "double"):
        result = d3.run_case(case)
        doc = build_artifact(result.op, result.rep, result.frame, result.assembly,
                             meta={"preset": f"d3:{case}"})
        path = os.path.join(args.output_dir, f"d3_{case}.json")
        write_json_atomic(path, doc)
        p = result.point
        ver = result.assembly.versality
        print(f"[{case}] factor={p.factor} alpha*={p.alpha:.6f} tau_s*={p.tau_s:.6f} "
              f"omega=({p.omega1:.6f}, {p.omega2:.6f})")
        print(f"         c={result.frame.c} parameters={ver.n_directions} "
              f"codim={ver.codimension} mini-versal={ver.mini_versal} -> {path}")
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="equnfold",
        description="Equivariant versal unfoldings of linear delay equations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    c = sub.add_parser("curves", help="sample imaginary-root curves (CSV)")
    c.add_argument("--factor", choices=("delta1", "delta2"), required=True)
    c.add_argument("--beta", type=float, required=True)
    c.add_argument("--tau-n", dest="tau_n", type=float, required=True)
    c.add_argument("--omega-range", dest="omega_range", required=True,
                   metavar="A:B:STEP")
    c.add_argument("--branches", default="0..3", metavar="K..L")
    c.add_argument("--output", default="curves.csv")
    c.set_defaults(func=cmd_curves)

    h = sub.add_parser("double-hopf", help="locate double-Hopf points (JSON)")
    h.add_argument("--factor", choices=("delta1", "delta2"), required=True)
    h.add_argument("--beta", type=float, required=True)
    h.add_argument("--tau-n", dest="tau_n", type=float, required=True)
    h.add_argument("--omega-range", dest="omega_range", default="0.05:5:0.005")
    h.add_argument("--branches", default="0..3")
    h.add_argument("--alpha-window", dest="alpha_window", default="-4:4")
    h.add_argument("--tau-s-window", dest="tau_s_window", default="0:10")
    h.add_argument("--output", default="double_hopf.json")
    h.set_defaults(func=cmd_double_hopf)

    u = sub.add_parser("unfold", help="run the unfolding pipeline (JSON artifact)")
    u.add_argument("--preset", help="d3:simple or d3:double")
    u.add_argument("--config", help="JSON config file")
    u.add_argument("--output", default=None)
    u.set_defaults(func=cmd_unfold)

    v = sub.add_parser("verify", help="re-run invariants against an artifact")
    v.add_argument("artifact")
    v.add_argument("--report", default=None, help="write a JSON report here")
    v.add_argument("--tol", type=float, default=1e-8)
    v.set_defaults(func=cmd_verify)

    demo = sub.add_parser("d3-demo", help="run both worked cases")
    demo.add_argument("--output-dir", dest="output_dir", default=".")
    demo.set_defaults(func=cmd_d3_demo)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SchemaError as exc:
        print(f"schema error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except EqunfoldError as exc:
        print(f"pipeline error: {exc}", file=sys.stderr)
        return EXIT_PIPELINE
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
