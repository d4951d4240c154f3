"""Command-line entry point.

Subcommands wire JSON/flag configuration into the library pipeline and
emit machine-readable artifacts:

    curves       sample imaginary-root curves of the three-cell model (CSV)
    double-hopf  locate curve crossings and refine them (JSON)
    unfold       run the equivariant unfolding pipeline (JSON artifact)
    verify       re-run the invariant suite against an artifact

Exit codes: 0 success, 1 pipeline failure, 2 usage or schema error,
3 versal-but-not-minimal result from ``unfold``.
"""

import argparse
import errno
import math
import os
import sys

import numpy as np

from . import d3
from .delays import check_dims
from .errors import EqunfoldError, SchemaError
from .frames import ROOT_TOL, critical_roots, eigenbasis, induce_representation
from .jsonio import (SCHEMA, build_artifact, document_errors, field, invalid, items,
                     model_from_doc, number, pair_complex, read_json, rep_from_doc,
                     write_json_atomic, write_text_atomic)
from .unfolding import assemble_gamma_unfolding, check_sparsity, select_delays
from .verify import DEFAULT_TOL, verify_artifact

EXIT_OK = 0
EXIT_PIPELINE = 1
EXIT_USAGE = 2
EXIT_NOT_MINIMAL = 3


PRESETS = ("d3:simple", "d3:double")


# Flag values are read by argparse ``type=`` functions: a bad value exits 2
# with a message that argparse prefixes with the flag's name.

def _parse_range(text):
    try:
        a, b, step = (float(x) for x in text.split(":"))
    except ValueError:
        raise argparse.ArgumentTypeError(f"malformed range {text!r}; expected START:STOP:STEP")
    if not all(map(math.isfinite, (a, b, step))):
        raise argparse.ArgumentTypeError(f"range {text!r} must be finite")
    if step <= 0 or b <= a or a <= 0:
        raise argparse.ArgumentTypeError(
            f"range {text!r} must satisfy 0 < START < STOP with STEP > 0")
    try:
        grid = np.arange(a, b, step)
    except (ValueError, MemoryError):
        raise argparse.ArgumentTypeError(f"range {text!r} gives too many samples") from None
    if len(grid) < 2:
        raise argparse.ArgumentTypeError(f"range {text!r} gives fewer than two samples")
    return grid


def _parse_branches(text):
    try:
        lo, hi = (int(x) for x in text.split(".."))
    except ValueError:
        raise argparse.ArgumentTypeError(f"malformed branch range {text!r}; expected K..L")
    if hi < lo:
        raise argparse.ArgumentTypeError(f"branch range {text!r} is empty")
    return tuple(range(lo, hi + 1))


def _parse_window(text):
    try:
        a, b = (float(x) for x in text.split(":"))
    except ValueError:
        raise argparse.ArgumentTypeError(f"malformed window {text!r}; expected A:B")
    if not (math.isfinite(a) and math.isfinite(b)):
        raise argparse.ArgumentTypeError(f"window {text!r} must be finite")
    if b <= a:
        raise argparse.ArgumentTypeError(f"window {text!r} is empty")
    return (a, b)


def _parse_lag_window(text):
    """A window of lags: a negative lag is an advanced, not a retarded, equation."""
    a, b = _parse_window(text)
    if a < 0:
        raise argparse.ArgumentTypeError(f"window {text!r} starts below 0; a lag is never negative")
    return (a, b)


def _output_path(path):
    """``path``, checked before any work: a directory, or a file in a directory
    that does not exist, is an OSError that names ``path``."""
    if os.path.isdir(path):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    if not path or not os.path.isdir(os.path.dirname(os.path.abspath(path))):
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path)
    return path


def cmd_curves(args):
    _output_path(args.output)
    curves = d3.sweep_curves(args.factor, args.beta, args.tau_n, args.omega_range,
                             branches=args.branches)
    lines = ["omega,alpha,tau_s,sign,branch,factor"]
    for (sg, br), rows in curves.items():
        for om, al, ts in rows:
            lines.append(
                f"{format(om, '.17g')},{format(al, '.17g')},{format(ts, '.17g')},"
                f"{sg},{br},{args.factor}"
            )
    write_text_atomic(args.output, "\n".join(lines) + "\n")
    print(f"wrote {len(lines) - 1} curve samples to {args.output}")
    return EXIT_OK


def cmd_double_hopf(args):
    _output_path(args.output)
    points = d3.locate_double_hopf(
        args.factor, args.beta, args.tau_n, omegas=args.omega_range, branches=args.branches,
        alpha_window=args.alpha_window, tau_s_window=args.tau_s_window,
    )
    doc = {
        "schema": SCHEMA,
        "kind": "double-hopf-points",
        "factor": args.factor,
        "beta": args.beta,
        "tau_n": args.tau_n,
        "alpha_window": list(args.alpha_window),
        "tau_s_window": list(args.tau_s_window),
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


CONFIG_KEYS = ("model", "group", "lambda_seeds", "delays", "sparsity", "tolerances")


def _check_keys(doc, path, keys):
    """A misspelled key would otherwise be ignored, and its default used."""
    for key in doc:
        if key not in keys:
            raise SchemaError(f"unknown key {key!r} in {path}; expected one of {', '.join(keys)}")


def _mask_entry(x, path):
    if not (isinstance(x, int) and x in (0, 1)):      # a bool is an int
        raise invalid(path, "0, 1, true or false", x)
    return bool(x)


def _mask(doc, path):
    """A lag's 0/1 mask, or None for an unrestricted lag."""
    if doc is None:
        return None
    rows = items(doc, path, lambda row, p: items(row, p, _mask_entry))
    if len(set(map(len, rows))) > 1:
        raise SchemaError(f"{path} has rows of different lengths")
    return np.array(rows, dtype=bool)


def _run_config(cfg, output="unfold.json"):
    """Run the generic pipeline described by a config document; the results
    come with the output path ``output``, checked before the pipeline runs."""
    if not isinstance(cfg, dict):
        raise SchemaError("config must be a JSON object")
    _check_keys(cfg, "config", CONFIG_KEYS)
    output = _output_path(output)
    seeds, seeds_path = field(cfg, "", "lambda_seeds")
    if isinstance(seeds, str):
        if seeds not in PRESETS:
            raise invalid(seeds_path, f"{' or '.join(PRESETS)}, or a list of seeds", seeds)
        # a preset string stands in for the whole model, group, seeds, lags,
        # masks and tolerances
        for key in ("model", "group", "delays", "sparsity", "tolerances"):
            if key in cfg:
                raise SchemaError(f"preset lambda_seeds cannot be combined with {key!r}")
        return _run_preset(seeds) + (output,)
    op = model_from_doc(*field(cfg, "", "model"))
    rep = rep_from_doc(*field(cfg, "", "group"))
    with document_errors("group"):
        check_dims(op, rep)
    seeds = items(seeds, seeds_path, pair_complex)
    tolerances, path = field(cfg, "", "tolerances", {})
    root_tol = number(*field(tolerances, path, "root_tol", ROOT_TOL))
    _check_keys(tolerances, path, ("root_tol",))
    if not root_tol > 0:
        raise SchemaError("tolerances must be positive")
    # no lags: the pipeline selects them; no masks: every entry is free
    delays = items(*field(cfg, "", "delays", []), number) or None
    sparsity = items(*field(cfg, "", "sparsity", []), _mask) or None

    frame = induce_representation(eigenbasis(op, critical_roots(op, seeds, root_tol)), rep)
    if delays is None:
        delays = select_delays(frame)
    with document_errors("sparsity"):
        check_sparsity(sparsity, len(delays), op.n)
    assembly = assemble_gamma_unfolding(frame, rep, delays, sparsity=sparsity)
    return op, rep, frame, assembly, {"source": "config"}, output


def _run_preset(preset):
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
    cfg = {"lambda_seeds": args.preset} if args.preset else read_json(args.config)
    op, rep, frame, assembly, meta, out = _run_config(cfg, args.output)
    doc = build_artifact(op, rep, frame, assembly, meta=meta)
    write_json_atomic(out, doc)
    ver = assembly.versality
    kind = "mini-versal" if ver.mini_versal else "versal (not minimal)"
    print(f"{kind}: {ver.n_directions} parameters, codimension {ver.codimension}; "
          f"wrote {out}")
    return EXIT_OK if ver.mini_versal else EXIT_NOT_MINIMAL


def cmd_verify(args):
    if args.report is not None:
        _output_path(args.report)
    doc = read_json(args.artifact)
    report = verify_artifact(doc, tol=args.tol)
    for line in report.lines():
        print(line)
    if args.report is not None:
        out = {
            "schema": SCHEMA,
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


def _finite(text):
    """A flag's float value; argparse names the flag in the error."""
    try:
        x = float(text)
    except ValueError:
        x = math.nan
    if not math.isfinite(x):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}")
    return x


def _lag(text):
    x = _finite(text)
    if x < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative lag, got {text!r}")
    return x


def _tolerance(text):
    x = _finite(text)
    if x <= 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {text!r}")
    return x


def build_parser():
    parser = argparse.ArgumentParser(
        prog="equnfold",
        description="Equivariant versal unfoldings of linear delay equations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    c = sub.add_parser("curves", help="sample imaginary-root curves (CSV)")
    c.add_argument("--factor", choices=("delta1", "delta2"), required=True)
    c.add_argument("--beta", type=_finite, required=True)
    c.add_argument("--tau-n", dest="tau_n", type=_lag, required=True)
    c.add_argument("--omega-range", dest="omega_range", type=_parse_range, required=True,
                   metavar="A:B:STEP")
    c.add_argument("--branches", type=_parse_branches, default="0..3", metavar="K..L")
    c.add_argument("--output", default="curves.csv")
    c.set_defaults(func=cmd_curves)

    h = sub.add_parser("double-hopf", help="locate double-Hopf points (JSON)")
    h.add_argument("--factor", choices=("delta1", "delta2"), required=True)
    h.add_argument("--beta", type=_finite, required=True)
    h.add_argument("--tau-n", dest="tau_n", type=_lag, required=True)
    h.add_argument("--omega-range", dest="omega_range", type=_parse_range,
                   default="0.05:5:0.005", metavar="A:B:STEP")
    h.add_argument("--branches", type=_parse_branches, default="0..3", metavar="K..L")
    # argparse reads a value that starts with "-" and is not a number as a flag
    h.add_argument("--alpha-window", dest="alpha_window", type=_parse_window, default="-4:4",
                   metavar="A:B", help="a negative A needs the = form: --alpha-window=-3:3")
    h.add_argument("--tau-s-window", dest="tau_s_window", type=_parse_lag_window,
                   default="0:10", metavar="A:B", help="tau_s in (A, B], with A >= 0")
    h.add_argument("--output", default="double_hopf.json")
    h.set_defaults(func=cmd_double_hopf)

    u = sub.add_parser("unfold", help="run the unfolding pipeline (JSON artifact)")
    source = u.add_mutually_exclusive_group(required=True)
    source.add_argument("--preset", choices=PRESETS,
                        help='a worked case; the config {"lambda_seeds": PRESET}')
    source.add_argument("--config", help="JSON config file")
    u.add_argument("--output", default="unfold.json")
    u.set_defaults(func=cmd_unfold)

    v = sub.add_parser("verify", help="re-run invariants against an artifact")
    v.add_argument("artifact")
    v.add_argument("--report", default=None, help="write a JSON report here")
    v.add_argument("--tol", type=_tolerance, default=DEFAULT_TOL)
    v.set_defaults(func=cmd_verify)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # an overflow or a NaN on the way fails its check; numpy need not warn
        with np.errstate(all="ignore"):
            return args.func(args)
    except SchemaError as exc:
        print(f"schema error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except EqunfoldError as exc:
        print(f"pipeline error: {exc}", file=sys.stderr)
        return EXIT_PIPELINE
    except OSError as exc:      # a path that is missing, a directory, or unwritable
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
