"""Spans around equnfold's public functions, recorded from outside the package.

``Tracer.install()`` replaces each listed function with a timing wrapper in
every ``equnfold`` module that binds it by name (``cli`` imports
``eigenbasis`` from ``frames``, ``verify`` imports ``orbit_geometry`` from
``unfolding``, ...), so no call path escapes.  ``numpy.linalg`` functions
that the package calls get a plain call counter.  ``restore()`` puts every
original back and checks that no wrapper is left.

Spans live in memory as ``(name, start, end, parent, failed)``.  A function
that re-enters itself (``canonical_json`` recurses) is timed only at its
outermost call.  A layer's self time is its span time minus the time of
its direct child spans.
"""

import functools
import importlib
import inspect
import pkgutil
import time
from collections import defaultdict

import numpy as np

# module -> public functions wrapped with a span
LAYERS = {
    "d3": ("locate_double_hopf", "sweep_curves", "find_double_hopf", "run_case",
           "default_delays"),
    "frames": ("find_root", "eigenbasis", "induce_representation"),
    "delays": ("bilinear_form",),
    "groups": ("close_generators", "check_representation", "commutant_basis",
               "equivariant_average"),
    "unfolding": ("orbit_geometry", "theta_extract", "verify_gamma_versality", "realify",
                  "slot_reparametrization", "select_delays", "assemble_gamma_unfolding",
                  "solve_delay_realization"),
    "jsonio": ("build_artifact", "canonical_json", "write_json_atomic", "read_json",
               "model_from_doc", "rep_from_doc", "frame_from_doc"),
    "verify": ("parse_artifact", "verify_artifact"),
    "cli": ("main",),
}
LINALG = ("svd", "det", "lstsq", "solve")

_MARK = "_perfbench_wrapped"


def _package_modules():
    pkg = importlib.import_module("equnfold")
    mods = [pkg]
    for info in pkgutil.iter_modules(pkg.__path__):
        mods.append(importlib.import_module(f"equnfold.{info.name}"))
    return mods


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._patches = []               # (namespace, attribute, original)
        self.counters = defaultdict(float)

    # ------------------------------------------------------------ install

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        mods = _package_modules()
        for modname, funcs in LAYERS.items():
            home = importlib.import_module(f"equnfold.{modname}")
            for fname in funcs:
                orig = getattr(home, fname)
                self._rebind(mods, orig, self._span_wrapper(f"{modname}.{fname}", orig))
        for fname in LINALG:
            orig = getattr(np.linalg, fname)
            wrapper = self._count_wrapper(f"linalg.{fname}.calls", orig)
            self._patches.append((np.linalg, fname, orig))
            setattr(np.linalg, fname, wrapper)
            self._rebind(mods, orig, wrapper)

    def _rebind(self, mods, orig, wrapper):
        for mod in mods:
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    self._patches.append((mod, attr, orig))
                    setattr(mod, attr, wrapper)

    def restore(self):
        """Put every original back; return the names still wrapped (none if sound)."""
        for ns, attr, orig in reversed(self._patches):
            setattr(ns, attr, orig)
        self._patches = []
        left = []
        for mod in _package_modules() + [np.linalg]:
            for attr, val in vars(mod).items():
                if getattr(val, _MARK, False):
                    left.append(f"{mod.__name__}.{attr}")
        return left

    # ----------------------------------------------------------- wrappers

    def _count_wrapper(self, key, fn):
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counters[key] += 1
            return fn(*args, **kwargs)

        setattr(wrapper, _MARK, True)
        return wrapper

    def _span_wrapper(self, name, fn):
        after = _AFTER.get(name)
        sig = inspect.signature(fn) if after else None
        depth = [0]
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if depth[0]:
                return fn(*args, **kwargs)
            depth[0] += 1
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            failed = True
            result = None
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                failed = False
                return result
            finally:
                t1 = time.perf_counter()
                stack.pop()
                depth[0] -= 1
                spans[idx] = (name, t0, t1, parent, failed)
                if after:
                    bound = sig.bind(*args, **kwargs)
                    bound.apply_defaults()
                    after(self.counters, bound.arguments, result, failed)

        setattr(wrapper, _MARK, True)
        return wrapper

    # ------------------------------------------------------------ summary

    def summary(self):
        """Per-layer ``s``, ``self_s``, ``calls``, ``failed`` plus the counters."""
        out = defaultdict(float)
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        for k, (name, t0, t1, parent, failed) in enumerate(self.spans):
            out[f"{name}.s"] += t1 - t0
            out[f"{name}.self_s"] += t1 - t0 - child[k]
            out[f"{name}.calls"] += 1
            out[f"{name}.failed"] += failed
        out.update(self.counters)
        return dict(out)


def _after_find_root(counters, args, result, failed):
    if failed:
        counters["frames.find_root.iterations"] += args["max_iter"]
    else:
        counters["frames.find_root.iterations"] += result.iterations
        counters["frames.find_root.secant_fallbacks"] += bool(result.used_secant)


def _after_locate(counters, args, result, failed):
    if not failed:
        counters["d3.points_found"] += len(result)


def _after_verify(counters, args, result, failed):
    if not failed:
        counters["verify.checks_failed"] += len(result.failed())


def _after_canonical(counters, args, result, failed):
    if not failed:
        counters["jsonio.artifact_bytes"] += len(result.encode())


_AFTER = {
    "frames.find_root": _after_find_root,
    "d3.locate_double_hopf": _after_locate,
    "verify.verify_artifact": _after_verify,
    "jsonio.canonical_json": _after_canonical,
}
