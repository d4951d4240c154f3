"""The three workloads.  Each is a closed loop: one client in one process
sends the next operation only after the previous one has returned.

A workload yields its operations in *passes*: fixed lists drawn from the
seed and the pass index alone, so pass ``k`` of a seed is the same on every
run and every machine.  Random parameters follow a randomly shifted
low-discrepancy sequence over the passes (see ``draws``): the seed picks the
shift, and a run's passes cover each parameter range evenly, so how much work
a run does depends less on the seed than with independent draws.  A run
measures ``round(seconds / pass_seconds)`` whole passes, ``pass_seconds``
being how long one pass takes on the reference machine (a 2-vCPU Xeon host
shared with other tenants); the traced run replays pass 0.  Each operation
returns an :class:`Outcome` with the wall time of the program work it timed
(gate checks and input writing stay outside).

Failures of the program (an exception, a non-zero exit code) fail the
operation and are counted with a reason.  Wrong outputs break a *gate*:
the run is then reported as incorrect.
"""

import contextlib
import hashlib
import io
import json
import random
import time
from dataclasses import dataclass, field

import numpy as np

STEPS = (0.01, 0.005, 0.0025)          # hopf-scan omega-grid steps
RING_SIZES = (3, 4, 6, 8, 12, 16, 24)
OMEGA_START, OMEGA_STOP = 0.05, 5.0    # the CLI's default omega range
ALPHA_WINDOW, TAU_S_WINDOW = (-4.0, 4.0), (0.0, 10.0)
FACTOR_TOL = 1e-9
SLICE_DRAWS = 10                       # unfold-warm: pairs of slices tried at most


@dataclass
class Outcome:
    label: str
    ok: bool
    wall: float
    reason: str = ""
    digest: str = ""
    parts: dict = field(default_factory=dict)   # named sub-timings, seconds
    points: int = 0


def sha256(data):
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


def pass_rng(seed, index):
    return random.Random(seed * 1_000_003 + index)


def _generalized_golden(dims):
    """The positive root of x**(dims + 1) = x + 1 (Roberts' R_d sequence)."""
    x = 2.0
    for _ in range(60):
        x = (1.0 + x) ** (1.0 / (dims + 1))
    return x


def draws(seed, stream, index, ranges):
    """Parameters of pass ``index`` for one stream of operations: point
    ``index`` of the R_d low-discrepancy sequence, shifted by an offset drawn
    from ``(seed, stream)``, scaled to ``ranges`` (a list of ``(lo, hi)``)."""
    phi = _generalized_golden(len(ranges))
    rng = random.Random(f"{seed}:{stream}")
    out = []
    for d, (lo, hi) in enumerate(ranges, start=1):
        u = (rng.random() + index / phi ** d) % 1.0
        out.append(lo + (hi - lo) * u)
    return out


def factor_residual(factor, omega, alpha, beta, tau_s, tau_n):
    """|Delta_k(i omega)| of the three-cell model, written out here so the
    check does not lean on the code under test."""
    lam = 1j * np.asarray(omega, dtype=float)
    coupling = 2.0 if factor == "delta1" else -1.0
    return np.abs(lam + 1.0 - alpha * np.exp(-lam * tau_s)
                  - coupling * beta * np.exp(-lam * tau_n))


def check_points(factor, beta, tau_n, points):
    """Gate messages for located double-Hopf points (empty when all hold)."""
    bad = []
    for p in points:
        res = max(factor_residual(factor, w, p.alpha, beta, p.tau_s, tau_n)
                  for w in (p.omega1, p.omega2))
        if not res <= FACTOR_TOL:
            bad.append(f"{factor} beta={beta!r} tau_n={tau_n!r}: residual {res:.3e}")
        if not (ALPHA_WINDOW[0] <= p.alpha <= ALPHA_WINDOW[1]
                and TAU_S_WINDOW[0] < p.tau_s <= TAU_S_WINDOW[1]):
            bad.append(f"{factor} beta={beta!r} tau_n={tau_n!r}: point outside window")
    return bad


def points_digest(points):
    return sha256(repr([(p.alpha, p.tau_s, p.omega1, p.omega2) for p in points]))


class Workload:
    name = ""

    def __init__(self, ctx):
        self.ctx = ctx
        self.gate_errors = []

    def gate(self, message):
        self.gate_errors.append(message)

    def prepare(self):
        """Set-up work repeated for the set-up time; returns a fingerprint
        that must not change between repetitions."""
        return ""

    def final_check(self):
        """Untimed gate checks after the measured passes."""

    def pass_ops(self, index):
        raise NotImplementedError

    def run_op(self, op):
        raise NotImplementedError


# --------------------------------------------------------------- hopf-scan

class HopfScan(Workload):
    """Each operation locates the double-Hopf points of one parameter slice."""

    name = "hopf-scan"
    pass_seconds = 6.0

    def __init__(self, ctx):
        super().__init__(ctx)
        from equnfold import d3
        self.d3 = d3
        self.steps = (0.02,) if ctx.tiny else STEPS

    def prepare(self):
        # first-call costs of the sweep, on a coarse grid
        pts = self.d3.locate_double_hopf("delta2", 0.5, 3.0,
                                         omegas=np.arange(OMEGA_START, OMEGA_STOP, 0.05))
        return points_digest(pts)

    def pass_ops(self, index):
        rng = pass_rng(self.ctx.seed, index)
        steps = list(self.steps)
        rng.shuffle(steps)
        ops = []
        for j, step in enumerate(steps):
            factor = ("delta1", "delta2")[(index * len(steps) + j) % 2]
            beta, tau_n = draws(self.ctx.seed, step, index, [(-1.0, 1.0), (1.0, 5.0)])
            ops.append((factor, beta, tau_n, step))
        return ops

    def run_op(self, op):
        factor, beta, tau_n, step = op
        omegas = np.arange(OMEGA_START, OMEGA_STOP, step)
        label = f"step={step}"
        t0 = time.perf_counter()
        try:
            pts = self.d3.locate_double_hopf(factor, beta, tau_n, omegas=omegas)
        except Exception as exc:
            return Outcome(label, False, time.perf_counter() - t0, reason=type(exc).__name__)
        wall = time.perf_counter() - t0
        for msg in check_points(factor, beta, tau_n, pts):
            self.gate(msg)
        return Outcome(label, True, wall, digest=points_digest(pts), points=len(pts))

    def final_check(self):
        """``equnfold double-hopf`` on the fixture's double slice, in-process,
        must write exactly the fixture's points."""
        from equnfold import cli
        entry = self.ctx.fixture["double"]
        grid = entry["omega_grid"]
        out = self.ctx.work / "double_hopf.json"
        argv = ["double-hopf", "--factor", entry["factor"], "--beta", repr(entry["beta"]),
                "--tau-n", repr(entry["tau_n"]), "--output", str(out), "--omega-range",
                f"{grid['start']}:{grid['stop']}:{grid['step']}"]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
        if code != 0 or json.loads(out.read_text())["points"] != entry["points"]:
            self.gate(f"double-hopf output (exit {code}) differs from the fixture's double points")


# ------------------------------------------------------------- unfold-warm

class UnfoldWarm(Workload):
    """Each operation is unfold -> artifact -> canonical JSON -> parse ->
    verify at an already located double-Hopf point.

    The first fixture point of each case is the point the ``d3:simple`` and
    ``d3:double`` presets use; there the operation builds the preset's own
    artifact, whose bytes must match the digest pinned in ``expected.json``."""

    name = "unfold-warm"
    pass_seconds = 1.0

    def __init__(self, ctx):
        super().__init__(ctx)
        from equnfold import d3, jsonio, verify
        self.d3, self.jsonio, self.verify = d3, jsonio, verify
        self.tamper = None          # test hook: applied to the parsed artifact
        self.points = []

    def _fixture_points(self):
        """``(case, point, preset)`` for the fixture points; ``preset`` names
        the preset whose point it is, else None."""
        pts = []
        for case in ("simple", "double"):
            entry = self.ctx.fixture[case]
            for i, p in enumerate(entry["points"][:1] if self.ctx.tiny else entry["points"]):
                pts.append((case, self.d3.DoubleHopfPoint(
                    factor=entry["factor"], beta=entry["beta"], tau_n=entry["tau_n"],
                    alpha=p["alpha"], tau_s=p["tau_s"], omega1=p["omega1"],
                    omega2=p["omega2"], residual=p["residual"]),
                    f"d3:{case}" if i == 0 else None))
        return pts

    def _seeded_point(self, factor, rng):
        """First point of the first of two seed-drawn slices that has one.  Both
        slices are always located, so set-up work does not depend on the seed
        (about one slice in six has no point); further pairs are drawn only if
        both are empty."""
        step = 0.05 if self.ctx.tiny else 0.02
        for _ in range(SLICE_DRAWS):
            found = []
            for _ in range(2):
                beta, tau_n = rng.uniform(-1.0, 1.0), rng.uniform(1.0, 5.0)
                pts = self.d3.locate_double_hopf(
                    factor, beta, tau_n, omegas=np.arange(OMEGA_START, OMEGA_STOP, step))
                for msg in check_points(factor, beta, tau_n, pts):
                    self.gate(msg)
                found += pts[:1]
            if found:
                return found[0]
        raise RuntimeError(f"no {factor} double-Hopf point on {2 * SLICE_DRAWS} slices")

    def prepare(self):
        rng = random.Random(self.ctx.seed)
        self.points = self._fixture_points() + [
            ("simple", self._seeded_point("delta1", rng), None),
            ("double", self._seeded_point("delta2", rng), None),
        ]
        for op in self.points[-2:]:                # first-call costs of each case
            self.run_op(op)
        return points_digest([p for _, p, _ in self.points])

    def pass_ops(self, index):
        ops = list(self.points)
        pass_rng(self.ctx.seed, index).shuffle(ops)
        return ops

    def run_op(self, op):
        case, point, preset = op
        label = f"{case} tau_s={point.tau_s:.6f}"
        meta = {"preset": f"d3:{case}"}
        if preset:          # the meta block ``equnfold unfold --preset`` writes
            meta = {"preset": preset, "point": {
                k: getattr(point, k)
                for k in ("factor", "alpha", "beta", "tau_s", "tau_n", "omega1", "omega2")}}
        t0 = time.perf_counter()
        try:
            r = self.d3.run_case(case, point)
            doc = self.jsonio.build_artifact(r.op, r.rep, r.frame, r.assembly, meta=meta)
            text = self.jsonio.canonical_json(doc)
        except Exception as exc:
            return Outcome(label, False, time.perf_counter() - t0, reason=type(exc).__name__)
        t1 = time.perf_counter()
        parsed = json.loads(text)
        t2 = time.perf_counter()
        if self.tamper:
            self.tamper(parsed)
        t3 = time.perf_counter()
        try:
            report = self.verify.verify_artifact(parsed)
        except Exception as exc:
            return Outcome(label, False, time.perf_counter() - t0, reason=type(exc).__name__)
        t4 = time.perf_counter()
        parts = {"unfold": t1 - t0, "verify": (t2 - t1) + (t4 - t3)}
        wall = parts["unfold"] + parts["verify"]
        written = sha256(text + "\n")      # the bytes write_json_atomic writes
        if preset and written != self.ctx.expected[preset]:
            self.gate(f"{preset} artifact digest {written[:12]} differs from the pin")
        ver = r.assembly.versality
        if not (ver.mini_versal and ver.n_directions == 4):
            self.gate(f"{label}: family is not mini-versal with 4 parameters")
        if not report.ok:
            failed = ",".join(c.name for c in report.failed())
            self.gate(f"{label}: verify failed {failed}")
            return Outcome(label, False, wall, reason=f"verify {failed}", parts=parts)
        return Outcome(label, True, wall, digest=sha256(text), parts=parts)


# ------------------------------------------------------------- ring-config

def _cmatrix(M):
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(M, complex)]


def ring_config(n, gain, lag, omega):
    """One-directional ring u_j' = -u_j + gain u_{j-1}(t - lag), whose cyclic
    shift generates a symmetry group of order n.  Default tolerances, no
    ``delays``: the pipeline picks its own."""
    shift = np.roll(np.eye(n), 1, axis=0)
    return {
        "model": {"n": n, "terms": [
            {"delay": 0.0, "matrix": _cmatrix(-np.eye(n))},
            {"delay": lag, "matrix": _cmatrix(gain * shift)},
        ]},
        "group": {"generators": [_cmatrix(shift)]},
        "lambda_seeds": [[0.0, omega], [0.0, -omega]],
    }


class RingConfig(Workload):
    """Each operation is in-process ``cli.main(["unfold", "--config", ...])``
    followed by ``cli.main(["verify", ...])`` on an N-cell ring."""

    name = "ring-config"
    pass_seconds = 3.0

    def __init__(self, ctx):
        super().__init__(ctx)
        from equnfold import cli
        self.cli = cli
        self.sizes = (3, 12) if ctx.tiny else RING_SIZES

    def prepare(self):
        cfg = self.ctx.work / "ring_warmup.json"
        cfg.write_text(json.dumps(ring_config(3, 2.0, 1.0, 2.0)))
        return self.run_op((3, str(cfg))).digest

    def pass_ops(self, index):
        ops = []
        for n in self.sizes:
            gain, lag, omega = draws(self.ctx.seed, n, index,
                                     [(1.5, 2.5), (0.5, 1.5), (1.0, 3.0)])
            doc = ring_config(n, gain, lag, omega)
            path = self.ctx.work / f"ring_{index}_{n}.json"
            path.write_text(json.dumps(doc))
            ops.append((n, str(path)))
        return ops

    def _main(self, argv):
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = self.cli.main(argv)
            except Exception as exc:
                return f"traceback {type(exc).__name__}", time.perf_counter() - t0, ""
        wall = time.perf_counter() - t0
        if code != 0:
            kind = err.getvalue().split(":")[0].strip() or "no message"
            return f"{argv[0]} exit {code} ({kind})", wall, ""
        return "", wall, out.getvalue()

    def run_op(self, op):
        n, cfg = op
        label = f"N={n}"
        artifact = cfg[:-len(".json")] + "_out.json"
        reason, t_unfold, _ = self._main(["unfold", "--config", cfg, "--output", artifact])
        if reason:
            return Outcome(label, False, t_unfold, reason=reason,
                           parts={"unfold": t_unfold})
        reason, t_verify, stdout = self._main(["verify", artifact])
        parts = {"unfold": t_unfold, "verify": t_verify}
        wall = t_unfold + t_verify
        if reason or "all checks passed" not in stdout:
            self.gate(f"{label}: artifact failed verification ({reason or 'checks failed'})")
            return Outcome(label, False, wall, reason=reason or "verify checks failed",
                           parts=parts)
        with open(artifact, "rb") as fh:
            digest = sha256(fh.read())
        return Outcome(label, True, wall, digest=digest, parts=parts)


WORKLOADS = {w.name: w for w in (HopfScan, UnfoldWarm, RingConfig)}
