"""Three identical delay-coupled cells with triangle symmetry.

The model is

    u_j'(t) = -u_j(t) + alpha u_j(t - tau_s) + beta [u_{j-1}(t - tau_n)
              + u_{j+1}(t - tau_n)],        j mod 3,

whose linear operator commutes with the permutation action of the
dihedral group of the triangle.  Its characteristic determinant factors
as ``Delta_1 * Delta_2**2``; curves of purely imaginary roots of either
factor are available in closed form, their crossings are double-Hopf
points, and at such points the full equivariant mini-versal unfolding
pipeline runs end to end, in both the simple-eigenvalue (first factor)
and double-eigenvalue (second factor) cases.
"""

import functools
from dataclasses import dataclass

import numpy as np

from .delays import DelayOperator
from .errors import EqunfoldError, UnfoldingError
from .frames import eigenbasis, induce_representation
from .groups import close_generators
from .unfolding import assemble_gamma_unfolding, exponential_delay_matrix, scaled_det

OMEGA = np.exp(2j * np.pi / 3)
U_SYM = np.array([1.0, 1.0, 1.0])                       # symmetric direction
V_ROT = np.array([1.0, OMEGA, OMEGA.conjugate()])       # rotation eigenvector

KAPPA_MAT = np.array([[1, 0, 0], [0, 0, 1], [0, 1, 0]], dtype=float)
GAMMA_MAT = np.array([[0, 1, 0], [0, 0, 1], [1, 0, 0]], dtype=float)


@functools.cache
def triangle_rep():
    """Permutation representation of the 6-element triangle group on C^3.

    Generated by the swap ``kappa`` and the 3-cycle ``gamma``; their element
    indices are recorded on the group (``generator_indices``).  It is a
    constant of the model, built once per process; every caller shares it,
    so its arrays are read-only.
    """
    rep = close_generators([KAPPA_MAT, GAMMA_MAT])
    for a in (rep.matrices, rep.group.mul_table, rep.group.inverse):
        a.flags.writeable = False
    return rep


@dataclass(frozen=True)
class D3ModelParams:
    """Gains and lags of the three-cell model."""

    alpha: float
    beta: float
    tau_s: float
    tau_n: float


def d3_operator(p):
    """The model's linear operator: -I at lag 0, alpha I at tau_s,
    beta (J - I) at tau_n."""
    I = np.eye(3)
    J = np.ones((3, 3))
    return DelayOperator(n=3, terms=(
        (0.0, -I),
        (p.tau_s, p.alpha * I),
        (p.tau_n, p.beta * (J - I)),
    ))


# c in the factor lam + 1 - alpha e^{-lam tau_s} - c beta e^{-lam tau_n}: the
# eigenvalue of the neighbour coupling J - I on the symmetric mode (delta1)
# and on the rotation modes (delta2)
_COUPLING = {"delta1": 2.0, "delta2": -1.0}
_SIGNS = (1, -1)                # the two branches alpha = +-sqrt(C^2 + S^2)
_REFINE_TOL = 1e-10             # max |F| of a refined double-Hopf point
_REFINE_MAX_ITER = 100


def _factor_coupling(factor):
    try:
        return _COUPLING[factor]
    except KeyError:
        raise EqunfoldError(f"unknown factor {factor!r}; use 'delta1' or 'delta2'") from None


def factor_value(factor, lam, alpha, beta, tau_s, tau_n):
    """A characteristic factor of the model at lam; ``det Delta`` is
    ``delta1 * delta2**2``."""
    c = _factor_coupling(factor)
    return lam + 1.0 - alpha * np.exp(-lam * tau_s) - c * beta * np.exp(-lam * tau_n)


def delta1(lam, p):
    """First characteristic factor (symmetric mode)."""
    return factor_value("delta1", lam, p.alpha, p.beta, p.tau_s, p.tau_n)


def delta2(lam, p):
    """Second characteristic factor (rotation modes; squared in det)."""
    return factor_value("delta2", lam, p.alpha, p.beta, p.tau_s, p.tau_n)


def hopf_curve(factor, omega, beta, tau_n, sign=1, branch=0):
    """Point (alpha, tau_s) on a curve of imaginary roots of a factor.

    Solving ``factor(i omega) = 0`` for alpha and tau_s at fixed beta,
    tau_n gives  alpha cos(omega tau_s) = C  and  alpha sin(omega tau_s) = S
    with C = 1 - c beta cos(omega tau_n), S = -omega - c beta sin(omega tau_n)
    (c the factor's coupling, ``_COUPLING``).  ``sign`` picks the
    branch alpha = +-sqrt(C^2 + S^2); ``branch`` adds full turns to the
    angle so tau_s covers every positive solution.

    Accepts scalar or array ``omega``.
    """
    c = _factor_coupling(factor)
    omega = np.asarray(omega, dtype=float)
    C = 1.0 - c * beta * np.cos(omega * tau_n)
    S = -omega - c * beta * np.sin(omega * tau_n)
    alpha = np.hypot(C, S)
    if sign < 0:
        alpha = -alpha
        theta = np.arctan2(-S, -C)
    else:
        theta = np.arctan2(S, C)
    tau_s = (theta + 2.0 * np.pi * branch) / omega
    return alpha, tau_s


def sweep_curves(factor, beta, tau_n, omegas, branches=(0, 1, 2, 3)):
    """Sample the requested curve branches of both signs.

    Returns a dict keyed by (sign, branch), sign 1 first, whose values are
    (m, 3) arrays of rows (omega, alpha, tau_s).
    """
    omegas = np.asarray(omegas, dtype=float)
    out = {}
    for sg in _SIGNS:
        for br in branches:
            a, t = hopf_curve(factor, omegas, beta, tau_n, sign=sg, branch=br)
            out[(sg, br)] = np.column_stack([omegas, a, t])
    return out


@dataclass(frozen=True)
class _Segments:
    """A polyline's segments, prepared once for any number of pair tests.

    ``A`` and ``r`` are the segments' starts and directions, ``lo`` and
    ``hi`` their bounding boxes, ``order``/``keys`` the sweep order on the
    first coordinate and ``reach`` the widest extent in it; ``index`` maps
    each row back to its segment in the whole polyline.  ``absmax`` is the
    largest |coordinate| of the whole polyline: it sets the rounding pad, so
    a pair test gives the same bits whether or not segments were left out.
    """

    A: np.ndarray
    r: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    order: np.ndarray
    keys: np.ndarray
    reach: float
    absmax: float
    index: np.ndarray


def _prepare_segments(P, window=None):
    """Prepare the segments P[i:i+2] of the (m, 2) polyline P.

    With ``window = ((x0, x1), (y0, y1))`` only the segments whose bounding
    box meets that rectangle, padded by 1e-6 (1 + max |P|), are kept.
    """
    A = P[:-1]
    r = P[1:] - A
    lo, hi = np.minimum(A, P[1:]), np.maximum(A, P[1:])
    absmax = float(np.max(np.abs(P), initial=0.0))
    index = np.arange(len(A))
    if window is not None:
        (x0, x1), (y0, y1) = window
        m = 1e-6 * (1.0 + absmax)
        index = np.flatnonzero((lo[:, 0] <= x1 + m) & (hi[:, 0] >= x0 - m)
                               & (lo[:, 1] <= y1 + m) & (hi[:, 1] >= y0 - m))
        A, r, lo, hi = A[index], r[index], lo[index], hi[index]
    order = np.argsort(lo[:, 0], kind="stable")
    reach = float(np.max(hi[:, 0] - lo[:, 0], initial=0.0))
    return _Segments(A=A, r=r, lo=lo, hi=hi, order=order, keys=lo[order, 0],
                     reach=reach, absmax=absmax, index=index)


def _pair_intersections(p, q, same=False):
    """Crossings of two prepared polylines, in the polylines' own segment
    indices; see :func:`_segment_intersections`.  ``same`` says that p and
    q are one polyline: neighbouring segments (|i - j| <= 1), which only
    meet at their shared endpoint, are then not tested."""
    pad = 1e-9 * (1.0 + max(p.absmax, q.absmax))
    first = np.searchsorted(q.keys, p.lo[:, 0] - q.reach - pad, side="left")
    last = np.searchsorted(q.keys, p.hi[:, 0] + pad, side="right")
    counts = last - first
    ii = np.repeat(np.arange(len(p.A)), counts)
    jj = q.order[np.arange(len(ii)) + np.repeat(first - (np.cumsum(counts) - counts), counts)]
    # the window already bounds q.lo[jj, 0] <= p.hi[ii, 0] + pad
    near = ((q.hi[jj, 0] >= p.lo[ii, 0] - pad) & (q.lo[jj, 1] <= p.hi[ii, 1] + pad)
            & (q.hi[jj, 1] >= p.lo[ii, 1] - pad))
    if same:
        near &= np.abs(p.index[ii] - q.index[jj]) > 1
    ii, jj = ii[near], jj[near]

    A, r, C, s = p.A, p.r, q.A, q.r
    denom = r[ii, 0] * s[jj, 1] - r[ii, 1] * s[jj, 0]
    dx = C[jj, 0] - A[ii, 0]
    dy = C[jj, 1] - A[ii, 1]
    with np.errstate(divide="ignore", invalid="ignore"):
        t = (dx * s[jj, 1] - dy * s[jj, 0]) / denom
        u = (dx * r[ii, 1] - dy * r[ii, 0]) / denom
    ok = np.isfinite(t) & np.isfinite(u) & (t >= 0) & (t <= 1) & (u >= 0) & (u <= 1)
    ii, jj, t, u = ii[ok], jj[ok], t[ok], u[ok]
    idx = np.lexsort((jj, ii))
    ii, jj, t, u = ii[idx], jj[idx], t[idx], u[idx]
    return p.index[ii], q.index[jj], t, u, A[ii] + t[:, None] * r[ii]


def _segment_intersections(P, Q):
    """Crossings of two polylines in the plane.

    P, Q are (m, 2) arrays of finite points.  Returns arrays
    ``(i, j, t, u, point)``, one entry per pair of segments P[i:i+2],
    Q[j:j+2] that intersect, with local parameters t, u in [0, 1] and the
    crossing ``point = P[i] + t (P[i+1] - P[i])``; entries are ordered by
    (i, j).

    Only segment pairs whose bounding boxes, padded by a rounding margin,
    overlap are tested, so disjoint parallel segments cannot pass as a
    crossing through a rounding-level denominator.  The pairs are found by
    a sweep on the first coordinate: Q's segments are sorted by their lower
    bound, and each P segment takes the window of Q segments that can reach
    its range.  (On the Hopf curves the first coordinate, alpha, is
    continuous in omega; the second, tau_s, jumps by 2 pi / omega where the
    angle wraps.)
    """
    return _pair_intersections(_prepare_segments(P), _prepare_segments(Q))


def _crossing_seeds(curves, omegas, alpha_window, tau_s_window):
    """Newton seeds (alpha, tau_s, omega_A, omega_B) at the crossings of
    every pair of curve branches, one row each, ordered by branch pair (in
    sorted key order, a branch with itself included) and then by segment
    pair (i, j).

    A seed is kept when its point lies in the window and its two
    frequencies differ by at least 1e-3 (closer ones are one root, or a
    resonance).  Each branch is prepared once, keeping only the segments
    whose box meets the window padded by 1e-6 (1 + max |curve|), far above
    the rounding of a crossing point; a branch against itself skips
    neighbouring segments, whose only common point is the sample they share.
    """
    step = float(omegas[1] - omegas[0])
    keys = sorted(curves)
    prepared = [_prepare_segments(curves[k][:, 1:3], (alpha_window, tau_s_window))
                for k in keys]
    seeds = [np.empty((0, 4))]
    for a in range(len(keys)):
        for b in range(a, len(keys)):
            i, j, t, u, pt = _pair_intersections(prepared[a], prepared[b], same=a == b)
            wA = omegas[i] + t * step
            wB = omegas[j] + u * step
            a0, t0 = pt[:, 0], pt[:, 1]
            keep = (~(np.abs(wA - wB) < 1e-3)
                    & (alpha_window[0] <= a0) & (a0 <= alpha_window[1])
                    & (tau_s_window[0] < t0) & (t0 <= tau_s_window[1]))
            seeds.append(np.column_stack([a0[keep], t0[keep], wA[keep], wB[keep]]))
    return np.concatenate(seeds)


@dataclass(frozen=True)
class DoubleHopfPoint:
    factor: str
    beta: float
    tau_n: float
    alpha: float
    tau_s: float
    omega1: float
    omega2: float
    residual: float

    def params(self):
        return D3ModelParams(alpha=self.alpha, beta=self.beta,
                             tau_s=self.tau_s, tau_n=self.tau_n)


def find_double_hopf(factor, beta, tau_n, seed):
    """Newton refinement of a double-Hopf point of one factor.

    ``seed`` is (alpha, tau_s, omega1, omega2); the four real equations are
    the real and imaginary parts of the factor at i omega_1 and i omega_2,
    solved for (alpha, tau_s, omega_1, omega_2) with an analytic Jacobian.

    Raises
    ------
    EqunfoldError
        If the seeded frequencies coincide, the iteration stalls, or a
        refined frequency is zero or the two collide in modulus (+omega and
        -omega are one pair of roots).
    """
    c = _factor_coupling(factor)
    x = np.array(seed, dtype=float)
    if abs(x[2] - x[3]) < 1e-6:
        raise EqunfoldError("seed frequencies coincide; not a non-resonant double Hopf")
    res = np.inf
    for _ in range(_REFINE_MAX_ITER):
        a, ts, o1, o2 = x
        F = np.empty(4)
        Jm = np.zeros((4, 4))
        for k, w in enumerate((o1, o2)):
            lam = 1j * w
            es = np.exp(-lam * ts)
            f = factor_value(factor, lam, a, beta, ts, tau_n)
            F[2 * k] = f.real
            F[2 * k + 1] = f.imag
            dfda = -es
            dfdts = a * lam * es
            dfdw = 1j * (1.0 + a * ts * es + c * beta * tau_n * np.exp(-lam * tau_n))
            Jm[2 * k, 0], Jm[2 * k, 1] = dfda.real, dfdts.real
            Jm[2 * k + 1, 0], Jm[2 * k + 1, 1] = dfda.imag, dfdts.imag
            Jm[2 * k, 2 + k] = dfdw.real
            Jm[2 * k + 1, 2 + k] = dfdw.imag
        res = float(np.max(np.abs(F)))
        if res < _REFINE_TOL:
            break
        try:
            step = np.linalg.solve(Jm, F)
        except np.linalg.LinAlgError:
            raise EqunfoldError(f"singular Jacobian at {x} (residual {res:.3e})")
        x = x - step
    if res >= _REFINE_TOL:
        raise EqunfoldError(f"double-Hopf refinement stalled at residual {res:.3e}; trace ends at {x}")
    o1, o2 = sorted((abs(x[2]), abs(x[3])))
    if o1 < 1e-6:
        raise EqunfoldError(f"refined frequency {o1:.3e} is zero; not a double Hopf")
    if o2 - o1 < 1e-6:
        raise EqunfoldError("refined frequencies collide; not a non-resonant double Hopf")
    return DoubleHopfPoint(factor=factor, beta=beta, tau_n=tau_n, alpha=float(x[0]),
                           tau_s=float(x[1]), omega1=float(o1), omega2=float(o2),
                           residual=res)


def locate_double_hopf(factor, beta, tau_n, omegas=None, branches=(0, 1, 2, 3),
                       alpha_window=(-4.0, 4.0), tau_s_window=(0.0, 10.0)):
    """Sweep curve branches, intersect them, refine every crossing.

    ``omegas`` is a uniform grid: finite, positive, strictly increasing, each
    step within 1e-6 relative of the first (seed frequencies are
    interpolated with that step).  Returns the surviving
    :class:`DoubleHopfPoint` list sorted by (tau_s, alpha, omega1),
    deduplicated.  Points where the *other* factor also vanishes (higher
    codimension than double Hopf) are dropped.
    """
    if omegas is None:
        omegas = np.arange(0.05, 5.0, 0.005)
    omegas = np.asarray(omegas, dtype=float)
    if omegas.ndim != 1 or len(omegas) < 2:
        raise EqunfoldError("the omega grid needs at least two samples")
    if not (np.all(np.isfinite(omegas)) and omegas[0] > 0):
        raise EqunfoldError("the omega grid must be finite and positive")
    steps = np.diff(omegas)
    if not (steps[0] > 0 and np.all(np.abs(steps - steps[0]) <= 1e-6 * steps[0])):
        raise EqunfoldError("the omega grid must increase in equal steps "
                            "(each within 1e-6 relative of the first)")
    curves = sweep_curves(factor, beta, tau_n, omegas, branches=branches)
    (other,) = set(_COUPLING) - {factor}
    points = []
    for seed in _crossing_seeds(curves, omegas, alpha_window, tau_s_window):
        try:
            dh = find_double_hopf(factor, beta, tau_n, seed)
        except EqunfoldError:
            continue
        if not (alpha_window[0] <= dh.alpha <= alpha_window[1]
                and tau_s_window[0] < dh.tau_s <= tau_s_window[1]):
            continue
        if abs(dh.tau_s - tau_n) < 1e-6:
            continue
        if min(abs(factor_value(other, 1j * w, dh.alpha, beta, dh.tau_s, tau_n))
               for w in (dh.omega1, dh.omega2)) < 1e-6:
            continue
        points.append(dh)

    uniq = []
    for dh in sorted(points, key=lambda d: (d.tau_s, d.alpha, d.omega1)):
        if all(abs(dh.alpha - q.alpha) > 1e-5 or abs(dh.tau_s - q.tau_s) > 1e-5
               for q in uniq):
            uniq.append(dh)
    return uniq


def default_delays(point):
    """Lags {0, tau_s, tau_n, tau_3} with tau_3 chosen generically.

    tau_3 starts from the largest multiple of tau/7 in (0, tau] distinct
    from the other lags (tau = history horizon) and is halved, at most ten
    times, until the row-scaled exponential-delay matrix over the four
    critical eigenvalues has a determinant above 1e-10.
    """
    tau = max(point.tau_s, point.tau_n)
    others = [0.0, point.tau_s, point.tau_n]
    tau3 = None
    for k in range(7, 0, -1):
        cand = tau * k / 7.0
        if all(abs(cand - r) > 1e-9 for r in others):
            tau3 = cand
            break
    if tau3 is None:
        raise UnfoldingError("no admissible fourth lag on the tau/7 grid")
    lams = np.array([1j * point.omega1, -1j * point.omega1,
                     1j * point.omega2, -1j * point.omega2])
    for _ in range(10):
        M = exponential_delay_matrix(lams, others + [tau3])
        if scaled_det(M) > 1e-10 and all(abs(tau3 - r) > 1e-9 for r in others):
            return others + [tau3]
        tau3 = tau3 / 2.0
    raise UnfoldingError("could not find a generic fourth lag (determinant stays small)")


def structure_masks():
    """Per-lag sparsity masks preserving the model's coupling structure:
    diagonal coefficients at lags {0, tau_s}, off-diagonal at {tau_n, tau_3}."""
    diag = np.eye(3, dtype=bool)
    return [diag, diag, ~diag, ~diag]


@dataclass(frozen=True)
class D3CaseResult:
    """Artifacts of one end-to-end run at a double-Hopf point."""

    case: str                     # "simple" or "double"
    point: DoubleHopfPoint
    op: DelayOperator
    rep: object
    frame: object
    delays: tuple
    assembly: object              # GammaUnfolding


_CASE_DEFAULTS = {
    "simple": dict(factor="delta1", beta=-0.5, tau_n=4.0),
    "double": dict(factor="delta2", beta=0.5, tau_n=3.0),
}


def default_point(case):
    """First double-Hopf point of the case's default parameter slice."""
    cfg = _CASE_DEFAULTS[case]
    pts = locate_double_hopf(cfg["factor"], cfg["beta"], cfg["tau_n"])
    if not pts:
        raise EqunfoldError(f"no double-Hopf point found for case {case!r}")
    return pts[0]


def run_case(case, point=None):
    """Run the whole pipeline at a double-Hopf point of either factor.

    ``case="simple"`` expects a point of the first factor (four simple
    imaginary eigenvalues, c = 4); ``case="double"`` a point of the second
    (four double eigenvalues, c = 8).  The eigenbasis is seeded with the
    symmetric/rotation directions so the basis and its ordering are
    deterministic.  The lags are :func:`default_delays` and the
    coefficients keep the model's coupling structure
    (:func:`structure_masks`).  The family is returned whether or not it is
    minimal; ``assembly.versality`` says which.  The complex family is
    returned as built; a reader of the real family calls
    :func:`~equnfold.unfolding.realify` on ``assembly.family``.
    """
    if case not in _CASE_DEFAULTS:
        raise EqunfoldError(f"unknown case {case!r}")
    if point is None:
        point = default_point(case)
    expected_factor = _CASE_DEFAULTS[case]["factor"]
    if point.factor != expected_factor:
        raise EqunfoldError(f"case {case!r} needs a {expected_factor} point, got {point.factor}")

    params = point.params()
    if abs(params.tau_s - params.tau_n) < 1e-9:
        raise EqunfoldError("tau_s and tau_n coincide; unfolding lags would collide")
    op = d3_operator(params)
    rep = triangle_rep()

    lambdas = [1j * point.omega1, -1j * point.omega1,
               1j * point.omega2, -1j * point.omega2]
    if case == "simple":
        seeds = {i: [U_SYM] for i in range(4)}
        expected_c = 4
    else:
        seeds = {0: [V_ROT, V_ROT.conj()], 1: [V_ROT.conj(), V_ROT],
                 2: [V_ROT, V_ROT.conj()], 3: [V_ROT.conj(), V_ROT]}
        expected_c = 8

    frame = eigenbasis(op, lambdas, seeds=seeds)
    if frame.c != expected_c:
        raise EqunfoldError(f"center space dimension {frame.c} != {expected_c}; "
                            "the located point is not of the expected factor type")
    frame = induce_representation(frame, rep)

    delays = default_delays(point)
    assembly = assemble_gamma_unfolding(frame, rep, delays, sparsity=structure_masks())
    return D3CaseResult(case=case, point=point, op=op, rep=rep, frame=frame,
                        delays=tuple(float(r) for r in delays), assembly=assembly)


def eta_pair(v):
    """The two rotation-character functionals of a 3-vector: how a direction
    splits over the rotation eigenvectors (both vanish on the symmetric mode)."""
    v = np.asarray(v, dtype=complex).reshape(3)
    w = OMEGA
    return (v[0] + w.conjugate() * v[1] + w * v[2],
            v[0] + w * v[1] + w.conjugate() * v[2])
