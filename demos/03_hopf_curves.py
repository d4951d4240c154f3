#!/usr/bin/env python3
"""Imaginary-root curves of the three-cell model and their crossings.

Writes the curve data for both presets' parameter slices to CSV with the
``equnfold curves`` subcommand, into a temporary directory, and lists the
double-Hopf points found inside the default window on each slice.
"""

import os
import sys
import tempfile

from equnfold import cli, d3

with tempfile.TemporaryDirectory() as tmp:
    for cfg in d3._CASE_DEFAULTS.values():
        factor, beta, tau_n = cfg["factor"], cfg["beta"], cfg["tau_n"]
        print(f"[{factor}] beta={beta} tau_n={tau_n}:")
        code = cli.main(["curves", "--factor", factor, "--beta", repr(beta),
                         "--tau-n", repr(tau_n), "--omega-range", "0.05:5:0.005",
                         "--output", os.path.join(tmp, f"curves_{factor}.csv")])
        if code:
            sys.exit(code)

        points = d3.locate_double_hopf(factor, beta, tau_n)
        print(f"  {len(points)} double-Hopf points in alpha in [-4,4], tau_s in (0,10]:")
        for p in points:
            print(f"    alpha*={p.alpha:9.6f}  tau_s*={p.tau_s:9.6f}  "
                  f"omega=({p.omega1:.6f}, {p.omega2:.6f})  residual={p.residual:.1e}")
