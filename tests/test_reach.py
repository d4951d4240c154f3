"""``src/`` is what a subcommand runs.

One fresh interpreter installs ``sys.setprofile`` before ``equnfold`` is
imported, runs every subcommand on the inputs below and reports each code
object it entered.  A function that ``src/`` defines (by ``ast``: methods,
decorated and nested defs included) and that no run entered fails the gate
unless ``ALLOWED`` names it, with the reason beside it.  Test-only code
belongs in ``tests/`` (``tests/oracles.py``).  A fresh process, so a call
cached by another test cannot hide a miss.

Likewise a name that a module of ``src/`` imports and never reads (by
``ast``) fails the import gate unless ``UNREAD_IMPORTS`` names it.
"""

import ast
import json
import os
import subprocess
import sys
import textwrap

from equnfold import cli
from test_cli import FIXTURES, _preset_config

PACKAGE = os.path.dirname(cli.__file__)

# never entered by the runs of test_every_function_in_src_is_run, by reason
ALLOWED = {
    # fallback and error paths
    "frames._secant": "Newton's fallback where the determinant's derivative vanishes",
    "jsonio.invalid": "raises the schema error of a malformed document",
    "verify.VerificationReport.failed": "lists the failed checks, read only when one fails",
    # perfbench/tracer.py looks these up by name: they go with a change to the benchmark
    "unfolding.realify": "a layer of perfbench's tracer",
    "unfolding.slot_reparametrization": "a layer of perfbench's tracer",
    "delays.bilinear_form": "a layer of perfbench's tracer",
    # ROADMAP item 1(c) puts them on verify's path
    "unfolding.UnfoldingFamily.as_operator": "the family at a parameter, for verify (item 1(c))",
    "unfolding.UnfoldingFamily.n_parameters": "the family's parameter count (item 1(c))",
}

# imported and never read by their module, by reason; the gate fails too when
# one of them is read or no longer imported
UNREAD_IMPORTS = {
    # perfbench's test_tracer_wraps_every_binding_and_restores_it reads it
    # (ROADMAP item 27): it goes with a change to the benchmark
    "cli.eigenbasis": "a binding that perfbench's tracer must wrap and restore",
}

# runs in the fresh interpreter: argv[1] is the directory whose modules are
# watched, argv[2] the JSON list of [module, function, args] calls; prints
# the calls' results and the [file name, first line] of every code entered
PROBE = textwrap.dedent("""
    import importlib, json, os, sys
    root, calls = os.path.realpath(sys.argv[1]), json.loads(sys.argv[2])
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    sys.setprofile(profile)
    results = [getattr(importlib.import_module(m), f)(*args) for m, f, args in calls]
    sys.setprofile(None)
    codes = {(os.path.realpath(c.co_filename), c.co_firstlineno) for c in entered}
    print(json.dumps({"results": results,
                      "entered": sorted([os.path.basename(path), line] for path, line in codes
                                        if os.path.dirname(path) == root)}))
""")


def defined_functions(root):
    """``{(file name, first line): qualified name}`` of every def in the
    modules of ``root``.  A def's code starts at its first decorator; the
    name is ``module.Outer.inner``."""
    found = {}

    def visit(node, prefix, fname):
        for child in ast.iter_child_nodes(node):
            name = prefix
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = f"{prefix}.{child.name}"
                if not isinstance(child, ast.ClassDef):
                    line = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    found[fname, line] = name
            visit(child, name, fname)

    for fname in sorted(os.listdir(root)):
        if fname.endswith(".py"):
            with open(os.path.join(root, fname)) as fh:
                visit(ast.parse(fh.read()), fname[:-3], fname)
    return found


def unentered(root, calls, cwd):
    """The calls' results, and the sorted names of the defs in ``root`` that
    no call entered, from one fresh interpreter with ``root`` on its path."""
    env = {**os.environ, "PYTHONPATH": os.path.dirname(root)}
    out = subprocess.run([sys.executable, "-c", PROBE, root, json.dumps(calls)], cwd=cwd,
                         capture_output=True, text=True, check=True, env=env)
    report = json.loads(out.stdout.splitlines()[-1])
    entered = {tuple(key) for key in report["entered"]}
    return report["results"], sorted(name for key, name in defined_functions(root).items()
                                     if key not in entered)


def _subcommands(tmp_path, simple_point):
    """``cli.main`` calls that run every subcommand: unfold on both presets,
    ring3 and the masked d3:simple config, verify on each result (once with
    --tol and --report), double-hopf on the double fixture slice, curves;
    every flag given once."""
    (tmp_path / "masked.json").write_text(json.dumps(_preset_config("simple", simple_point)))
    with open(os.path.join(FIXTURES, "double_hopf_points.json")) as fh:
        slice_ = json.load(fh)["double"]
    grid = slice_["omega_grid"]
    omega_range = f"{grid['start']}:{grid['stop']}:{grid['step']}"
    inputs = {"simple": ["--preset", "d3:simple"], "double": ["--preset", "d3:double"],
              "ring3": ["--config", os.path.join(FIXTURES, "ring3_config.json")],
              "masked": ["--config", "masked.json"]}
    argvs = [["unfold", *source, "--output", f"{name}_out.json"]
             for name, source in inputs.items()]
    argvs += [["verify", "simple_out.json", "--tol", "1e-8", "--report", "report.json"]]
    argvs += [["verify", f"{name}_out.json"] for name in inputs]
    # the search flags are spelled out: a default reaches the command unparsed
    argvs += [["double-hopf", "--factor", slice_["factor"], "--beta", repr(slice_["beta"]),
               "--tau-n", repr(slice_["tau_n"]), "--omega-range", omega_range,
               "--branches", "0..3", "--alpha-window=-4:4", "--tau-s-window", "0:10",
               "--output", "dh.json"],
              ["curves", "--factor", "delta1", "--beta", "-0.5", "--tau-n", "4",
               "--omega-range", omega_range, "--branches", "0..3", "--output", "curves.csv"]]
    return [["equnfold.cli", "main", [argv]] for argv in argvs]


def test_every_function_in_src_is_run(tmp_path, simple_point):
    calls = _subcommands(tmp_path, simple_point)
    results, missed = unentered(PACKAGE, calls, tmp_path)
    assert results == [0] * len(calls)
    assert json.loads((tmp_path / "report.json").read_text())["ok"] is True
    assert [name for name in missed if name not in ALLOWED] == []
    assert sorted(set(ALLOWED) - set(defined_functions(PACKAGE).values())) == []


PLANTED = '''
import functools


def used():
    return nested()


def nested():
    def inner():
        return 1
    return inner()


@functools.cache
def cached(x):
    return x


class Thing:
    @property
    def prop(self):
        return 2

    def unused_method(self):
        return 3


def unused():
    def never():
        return 4
    return never


def main():
    return used() + cached(1) + Thing().prop
'''


def test_collector_reports_only_the_defs_no_call_entered(tmp_path):
    # a collector that sees nothing would report every def, and one that
    # mislocates decorated defs would report cached and prop
    root = tmp_path / "plant"
    root.mkdir()
    (root / "planted.py").write_text(PLANTED)
    assert sorted(defined_functions(str(root)).values()) == sorted(
        ["planted.used", "planted.nested", "planted.nested.inner", "planted.cached",
         "planted.Thing.prop", "planted.Thing.unused_method", "planted.unused",
         "planted.unused.never", "planted.main"])
    results, missed = unentered(str(root), [["plant.planted", "main", []]], tmp_path)
    assert results == [4]
    assert missed == ["planted.Thing.unused_method", "planted.unused", "planted.unused.never"]


def imported_names(source):
    """``{name: whether it is read}`` of each name that an import in the
    module ``source`` binds; a name is read if the module loads it anywhere."""
    tree = ast.parse(source)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    bound = [alias.asname or alias.name.split(".")[0] for node in ast.walk(tree)
             if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names]
    return {name: name in read for name in bound}


def unread_imports(root):
    """The sorted ``module.name`` of each name that a module of ``root``
    imports and never reads."""
    found = []
    for fname in sorted(os.listdir(root)):
        if fname.endswith(".py"):
            with open(os.path.join(root, fname)) as fh:
                found += [f"{fname[:-3]}.{name}"
                          for name, read in imported_names(fh.read()).items() if not read]
    return sorted(found)


def test_every_import_in_src_is_read():
    assert unread_imports(PACKAGE) == sorted(UNREAD_IMPORTS)


PLANTED_IMPORTS = '''
import functools
import json
import os.path
from typing import NamedTuple

import numpy as np


class Point(NamedTuple):
    x: float


@functools.cache
def norm(p):
    json = np.hypot(p.x, 0.0)
    return os.path.join("a", "b")
'''


def test_import_gate_reports_only_the_unread_imports(tmp_path):
    # read through a base class, a decorator, an attribute and an alias; json
    # is only assigned to, which is no read
    assert imported_names(PLANTED_IMPORTS) == {
        "functools": True, "json": False, "os": True, "NamedTuple": True, "np": True}
    (tmp_path / "planted.py").write_text(PLANTED_IMPORTS)
    assert unread_imports(str(tmp_path)) == ["planted.json"]
