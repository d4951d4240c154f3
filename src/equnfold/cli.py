"""Command-line entry point: flags, dispatch, output paths, messages and
exit codes.  Each subcommand runs the library pipeline and hands its result
to ``jsonio``, which formats every output:

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
from .errors import EqunfoldError, SchemaError
# eigenbasis is unused here, but bound: the benchmark's tracer self-test
# checks that it wraps and restores cli.eigenbasis
from .frames import eigenbasis
from .jsonio import (artifact_meta, build_artifact, config_from_doc, curves_to_csv,
                     points_to_doc, read_json, report_to_doc, write_json_atomic,
                     write_text_atomic)
from .unfolding import unfold
from .verify import DEFAULT_TOL, verify_artifact

EXIT_OK = 0
EXIT_PIPELINE = 1
EXIT_USAGE = 2
EXIT_NOT_MINIMAL = 3


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
    try:
        return tuple(range(lo, hi + 1))
    except (OverflowError, MemoryError):
        raise argparse.ArgumentTypeError(f"branch range {text!r} gives too many branches") from None


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
    write_text_atomic(args.output, curves_to_csv(curves, args.factor))
    print(f"wrote {sum(map(len, curves.values()))} curve samples to {args.output}")
    return EXIT_OK


def cmd_double_hopf(args):
    _output_path(args.output)
    points = d3.locate_double_hopf(
        args.factor, args.beta, args.tau_n, omegas=args.omega_range, branches=args.branches,
        alpha_window=args.alpha_window, tau_s_window=args.tau_s_window,
    )
    write_json_atomic(args.output, points_to_doc(points, args.factor, args.beta, args.tau_n,
                                                 args.alpha_window, args.tau_s_window))
    print(f"found {len(points)} double-Hopf points; wrote {args.output}")
    for p in points:
        print(f"  alpha={p.alpha:.6f} tau_s={p.tau_s:.6f} "
              f"omega=({p.omega1:.6f}, {p.omega2:.6f})")
    return EXIT_OK if points else EXIT_PIPELINE


def cmd_unfold(args):
    # malformed JSON is reported first, then the output path, then a schema error
    doc = None if args.preset else read_json(args.config)
    _output_path(args.output)
    if args.preset:
        case = d3.PRESETS[args.preset]
        point = d3.default_point(case)
        result, meta = d3.run_case(case, point), artifact_meta(args.preset, point)
    else:
        result, meta = unfold(**config_from_doc(doc)), artifact_meta()
    write_json_atomic(args.output, build_artifact(*result, meta=meta))
    ver = result.assembly.versality
    kind = "mini-versal" if ver.mini_versal else "versal (not minimal)"
    print(f"{kind}: {ver.n_directions} parameters, codimension {ver.codimension}; "
          f"wrote {args.output}")
    return EXIT_OK if ver.mini_versal else EXIT_NOT_MINIMAL


def cmd_verify(args):
    if args.report is not None:
        _output_path(args.report)
    report = verify_artifact(read_json(args.artifact), tol=args.tol)
    for line in report.lines():
        print(line)
    if args.report is not None:
        write_json_atomic(args.report, report_to_doc(report))
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


def _slice_flags(p, **omega_range):
    """The flags of a slice of the model, shared by ``curves`` and
    ``double-hopf``; ``omega_range`` makes --omega-range required or gives
    its default."""
    p.add_argument("--factor", choices=d3.FACTORS, required=True)
    p.add_argument("--beta", type=_finite, required=True)
    p.add_argument("--tau-n", dest="tau_n", type=_lag, required=True)
    p.add_argument("--omega-range", dest="omega_range", type=_parse_range, metavar="A:B:STEP",
                   **omega_range)
    p.add_argument("--branches", type=_parse_branches, default=d3.BRANCHES, metavar="K..L")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="equnfold",
        description="Equivariant versal unfoldings of linear delay equations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    c = sub.add_parser("curves", help="sample imaginary-root curves (CSV)")
    _slice_flags(c, required=True)
    c.add_argument("--output", default="curves.csv")
    c.set_defaults(func=cmd_curves)

    h = sub.add_parser("double-hopf", help="locate double-Hopf points (JSON)")
    # a default that is not a string reaches the command as it is: d3's own
    _slice_flags(h, default=d3.OMEGA_GRID)
    # argparse reads a value that starts with "-" and is not a number as a flag
    h.add_argument("--alpha-window", dest="alpha_window", type=_parse_window,
                   default=d3.ALPHA_WINDOW, metavar="A:B",
                   help="a negative A needs the = form: --alpha-window=-3:3")
    h.add_argument("--tau-s-window", dest="tau_s_window", type=_parse_lag_window,
                   default=d3.TAU_S_WINDOW, metavar="A:B", help="tau_s in (A, B], with A >= 0")
    h.add_argument("--output", default="double_hopf.json")
    h.set_defaults(func=cmd_double_hopf)

    u = sub.add_parser("unfold", help="run the unfolding pipeline (JSON artifact)")
    source = u.add_mutually_exclusive_group(required=True)
    source.add_argument("--preset", choices=d3.PRESETS,
                        help="a worked case, run at its slice's first double-Hopf point")
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
    except MemoryError as exc:  # an array too large for this machine, in any stage
        print(f"pipeline error: out of memory ({exc})", file=sys.stderr)
        return EXIT_PIPELINE
    except OSError as exc:      # a path that is missing, a directory, or unwritable
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
