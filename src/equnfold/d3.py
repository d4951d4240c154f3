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

import cmath
import functools
import math
from typing import NamedTuple

import numpy as np

from ._linalg import same_lag
from .delays import DelayOperator
from .errors import EqunfoldError
from .groups import close_generators
from .unfolding import unfold

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
    for a in (rep.matrices, rep.group.mul_table):
        a.flags.writeable = False
    return rep


def d3_operator(alpha, beta, tau_s, tau_n):
    """The model's linear operator: -I at lag 0, alpha I at tau_s,
    beta (J - I) at tau_n."""
    I = np.eye(3)
    J = np.ones((3, 3))
    return DelayOperator(n=3, terms=(
        (0.0, -I),
        (tau_s, alpha * I),
        (tau_n, beta * (J - I)),
    ))


# c in the factor lam + 1 - alpha e^{-lam tau_s} - c beta e^{-lam tau_n}: the
# eigenvalue of the neighbour coupling J - I on the symmetric mode (delta1)
# and on the rotation modes (delta2)
_COUPLING = {"delta1": 2.0, "delta2": -1.0}
FACTORS = tuple(_COUPLING)      # the factor names, as ``--factor`` takes them
_REFINE_TOL = 1e-10             # max |F| of a refined double-Hopf point
_REFINE_MAX_ITER = 100
_POINT_TOL = 1e-6               # frequency, zero and coincidence tests of a point and grid
_SEED_GAP = 1e-3                # seed frequencies closer than this are one root or a resonance
_DEDUP_RADIUS = 1e-5            # located points this close in (alpha, tau_s) are one
MAX_PHASE_STEP = 1.0            # rad per omega sample of exp(-i omega tau_n): step * tau_n


def _factor_coupling(factor):
    try:
        return _COUPLING[factor]
    except KeyError:
        raise EqunfoldError(f"unknown factor {factor!r}; use "
                            f"{' or '.join(map(repr, FACTORS))}") from None


def factor_value(factor, lam, alpha, beta, tau_s, tau_n):
    """A characteristic factor of the model at lam; ``det Delta`` is
    ``delta1 * delta2**2``."""
    c = _factor_coupling(factor)
    return lam + 1.0 - alpha * np.exp(-lam * tau_s) - c * beta * np.exp(-lam * tau_n)


def _hopf_angles(factor, omega, beta, tau_n):
    """alpha and the angle theta = omega tau_s (mod 2 pi) at ``omega`` of
    the curves of imaginary roots of a factor, keyed by sign, 1 first.

    Solving ``factor(i omega) = 0`` for alpha and tau_s at fixed beta,
    tau_n gives  alpha cos(omega tau_s) = C  and  alpha sin(omega tau_s) = S
    with C = 1 - c beta cos(omega tau_n), S = -omega - c beta sin(omega tau_n)
    (c the factor's coupling, ``_COUPLING``); the sign picks the curve
    alpha = +-sqrt(C^2 + S^2)."""
    c = _factor_coupling(factor)
    C = 1.0 - c * beta * np.cos(omega * tau_n)
    S = -omega - c * beta * np.sin(omega * tau_n)
    alpha = np.hypot(C, S)
    return {1: (alpha, np.arctan2(S, C)), -1: (-alpha, np.arctan2(-S, -C))}


# the default search of locate_double_hopf and of ``equnfold double-hopf``
# (``--branches`` also of ``equnfold curves``); read-only, since it is shared
OMEGA_GRID = np.arange(0.05, 5.0, 0.005)
OMEGA_GRID.flags.writeable = False
BRANCHES = (0, 1, 2, 3)
ALPHA_WINDOW = (-4.0, 4.0)
TAU_S_WINDOW = (0.0, 10.0)


def sweep_curves(factor, beta, tau_n, omegas, branches=BRANCHES):
    """Sample the requested curve branches of both signs.

    Returns a dict keyed by (sign, branch), sign 1 first, whose values are
    (m, 3) arrays of rows (omega, alpha, tau_s) with tau_s = (theta + 2 pi
    branch) / omega, so every positive solution is covered; the angles are
    taken once per sign.
    """
    omegas = np.asarray(omegas, dtype=float)
    return {(sg, br): np.column_stack([omegas, alpha, (theta + 2.0 * np.pi * br) / omegas])
            for sg, (alpha, theta) in _hopf_angles(factor, omegas, beta, tau_n).items()
            for br in branches}


_BAND_SCALE = 4.0               # crossing sweep: band height over the mean segment height
_SWEEP_BLOCK = 4096             # crossing sweep: candidate pairs per block
_PAIR_PAD = 1e-9                # crossing sweep: pad of an axis, relative to 1 + max |coordinate|


def _crossings(polylines, window):
    """Crossings of every pair of polylines, a polyline with itself included.

    ``polylines`` are (m, 2) arrays of points.  Returns arrays
    ``(a, b, i, j, t, u, point)``, one entry per pair of segments
    ``P_a[i:i+2]``, ``P_b[j:j+2]`` (a <= b) that intersect, with local
    parameters t, u in [0, 1] and ``point = P_a[i] + t (P_a[i+1] - P_a[i])``;
    entries are ordered by (a, b, i, j).  A polyline against itself skips
    neighbouring segments (|i - j| <= 1), whose only common point is the
    sample they share.

    Each axis has one pad, 1e-9 (1 + the largest |coordinate| on that axis
    of a finite sample of any polyline).  Only the segments with finite ends
    whose padded box meets the rectangle ``window = ((x0, x1), (y0, y1))``
    are kept.  A pair is tested only when the segments' padded boxes
    overlap, so disjoint parallel segments cannot pass as a crossing
    through a rounding-level denominator; that is all the pads gate, since
    t, u and the point depend on the pair alone, and a crossing point lies
    in both segments' boxes.  A pair whose extent overflows the float range
    has t and u NaN and is dropped.

    The pairs come from one sweep over all polylines, in one direction.
    The second coordinate is cut into bands; each segment is copied into
    every band its box, padded by that axis's margin (twice its pad),
    touches; the copies are sorted by (band, rank of the lower first
    coordinate), two integers.  In each of its bands a segment takes the
    copies ranked after it whose lower first coordinate is at most its
    upper one plus the first axis's margin, so each pair is found once,
    from its segment of lower rank, with no backward window: padded boxes
    that overlap put the later segment's lower bound within the pad of the
    earlier one's upper bound, and the margin exceeds the pad far beyond
    rounding.  A pair is kept only in the first band the two share, then
    put in polyline order (a polyline's pairs with itself in both orders).
    The band height is ``_BAND_SCALE`` times the mean padded height, and at
    least the segments' whole padded extent over their number, so there are
    at most n + 1 bands and about two copies per segment.
    """
    A, B, label, index, pad = _stacked_segments(polylines, window)
    empty = np.empty(0, dtype=np.intp)
    if not len(A):
        return empty, empty, empty, empty, np.empty(0), np.empty(0), np.empty((0, 2))
    seg, band, blo, counts, edges = _sweep_queries(A, B, 2.0 * pad)
    hits = [(empty, empty, np.empty(0), np.empty(0))]      # there may be no candidates
    for r0, r1 in zip(edges, np.append(edges[1:], len(seg))):
        c = counts[r0:r1]
        ii = np.repeat(seg[r0:r1], c)
        # row r takes the c[r] rows right after it
        jj = seg[np.arange(len(ii)) + np.repeat(np.arange(r0 + 1, r1 + 1) - np.cumsum(c) + c, c)]
        k = np.repeat(band[r0:r1], c)
        # each pair in the first band the two share, no neighbouring
        # segments of one polyline; then in polyline order, both orders
        # when the polyline is the same
        a, b = label[ii], label[jj]
        keep = ((k == np.maximum(blo[ii], blo[jj]))
                & ((a != b) | (np.abs(index[ii] - index[jj]) > 1)))
        ii, jj, a, b = ii[keep], jj[keep], a[keep], b[keep]
        ii, jj = np.where(a > b, jj, ii), np.where(a > b, ii, jj)
        same = a == b
        ii, jj = np.concatenate([ii, jj[same]]), np.concatenate([jj, ii[same]])
        Ai, Bi, Aj, Bj = A[ii], B[ii], A[jj], B[jj]
        with np.errstate(over="ignore"):    # a box edge past the float limit is inf
            near = ((np.minimum(Aj, Bj) <= np.maximum(Ai, Bi) + pad)
                    & (np.maximum(Aj, Bj) >= np.minimum(Ai, Bi) - pad)).all(axis=1)
        ii, jj, Ai, Aj = ii[near], jj[near], Ai[near], Aj[near]
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            ri, rj = Bi[near] - Ai, Bj[near] - Aj
            denom = ri[:, 0] * rj[:, 1] - ri[:, 1] * rj[:, 0]
            dx = Aj[:, 0] - Ai[:, 0]
            dy = Aj[:, 1] - Ai[:, 1]
            t = (dx * rj[:, 1] - dy * rj[:, 0]) / denom
            u = (dx * ri[:, 1] - dy * ri[:, 0]) / denom
        ok = np.isfinite(t) & np.isfinite(u) & (t >= 0) & (t <= 1) & (u >= 0) & (u <= 1)
        hits.append((ii[ok], jj[ok], t[ok], u[ok]))

    ii, jj, t, u = (np.concatenate(c) for c in zip(*hits))
    a, b = label[ii], label[jj]
    idx = np.lexsort((index[jj], index[ii], b, a))
    ii, jj, t, u = ii[idx], jj[idx], t[idx], u[idx]
    return (a[idx], b[idx], index[ii], index[jj], t, u,
            A[ii] + t[:, None] * (B[ii] - A[ii]))


def _stacked_segments(polylines, window):
    """The segments of all polylines with finite ends, stacked: their starts
    ``A`` and ends ``B``, the polyline (``label``) and segment (``index``)
    of each row, and :func:`_crossings`' pad of each axis, taken over every
    finite sample.  Each polyline is then cut to its window."""
    finite = [np.isfinite(P[:, 0]) & np.isfinite(P[:, 1]) for P in polylines]
    top = [max([np.abs(P[:, c]).max(initial=0.0, where=ok) for P, ok in zip(polylines, finite)],
               default=0.0) for c in (0, 1)]
    pad = _PAIR_PAD * (1.0 + np.array(top))
    parts = [(np.empty((0, 2)), np.empty((0, 2)), np.empty(0, dtype=np.intp),
              np.empty(0, dtype=np.intp))]
    for a, (P, ok) in enumerate(zip(polylines, finite)):
        A, B = P[:-1], P[1:]
        keep = ok[:-1] & ok[1:]
        for c, (w0, w1) in enumerate(window):
            keep &= ((np.minimum(A[:, c], B[:, c]) <= w1 + pad[c])
                     & (np.maximum(A[:, c], B[:, c]) >= w0 - pad[c]))
        index = np.flatnonzero(keep)
        A, B = A[index], B[index]
        parts.append((A, B, np.full(len(A), a), index))
    A, B, label, index = (np.concatenate(c) for c in zip(*parts))
    return A, B, label, index, pad


def _sweep_queries(A, B, margin):
    """The query rows of :func:`_crossings`' sweep, one per copy of a
    segment in a band, sorted by (band, alpha rank): each row's segment and
    band and the number of rows right after it (``counts``) whose segments
    it takes; each segment's first band; and the row edges of blocks holding
    about ``_SWEEP_BLOCK`` candidates each.  ``margin`` is per axis."""
    n = len(A)
    blo, copies = _bands(A[:, 1], B[:, 1], margin[1])
    rank, stop = _alpha_ranks(A[:, 0], B[:, 0], margin[0])
    seg = np.repeat(np.arange(n), copies)
    band = blo[seg] + (np.arange(len(seg)) - np.repeat(np.cumsum(copies) - copies, copies))
    keys = band * n + rank[seg]
    del copies, rank                        # n-sized arrays freed early keep the heap small
    order = np.argsort(keys, kind="stable")
    keys, seg, band = keys[order], seg[order], band[order]
    del order
    counts = np.searchsorted(keys, band * n + stop[seg], side="left") - np.arange(1, len(seg) + 1)
    ends = np.cumsum(counts)
    edges = np.searchsorted(ends, np.arange(0, ends[-1], _SWEEP_BLOCK), side="right")
    return seg, band, blo, counts, edges


def _bands(y_a, y_b, margin):
    """Each segment's first band and its number of bands, from the second
    coordinates of its two ends padded by ``margin``."""
    ylo = np.minimum(y_a, y_b) - margin
    yhi = np.maximum(y_a, y_b) + margin
    n, y0 = len(ylo), float(ylo.min())
    with np.errstate(over="ignore"):        # an extent past the float limit is inf
        height = max(_BAND_SCALE * float(np.mean(yhi - ylo)), (float(yhi.max()) - y0) / n)
    if not np.isfinite(height):             # the extent overflows: one band
        return np.zeros(n, dtype=np.intp), np.ones(n, dtype=np.intp)
    # the quotients are not negative, so truncation floors them
    blo = ((ylo - y0) / height).astype(np.intp)
    return blo, ((yhi - y0) / height).astype(np.intp) - blo + 1


def _alpha_ranks(x_a, x_b, margin):
    """Each segment's rank in the order of lower first coordinates, and the
    rank ``stop`` below which lie all segments whose lower first coordinate
    is at most its upper one plus ``margin``."""
    xlo, xhi = np.minimum(x_a, x_b), np.maximum(x_a, x_b)
    order = np.argsort(xlo, kind="stable")
    rank = np.empty(len(xlo), dtype=np.intp)
    rank[order] = np.arange(len(xlo))
    with np.errstate(over="ignore"):        # an upper bound past the float limit is inf
        stop = np.searchsorted(xlo[order], xhi + margin, side="right")
    return rank, stop


def _crossing_seeds(curves, omegas, alpha_window, tau_s_window):
    """Newton seeds (alpha, tau_s, omega_A, omega_B) at the crossings of
    every pair of curve branches, one row each, ordered by branch pair (in
    sorted key order, a branch with itself included) and then by segment
    pair (i, j).

    A seed is kept when its point lies in the window and its two
    frequencies differ by at least 1e-3 (closer ones are one root, or a
    resonance).  All branches go through one sweep (:func:`_crossings`),
    with one pad per axis, since alpha and tau_s have unrelated units.  A
    crossing point in the window lies in both its segments' boxes, so the
    window cut loses none; a sample that is not finite (an overflowing
    alpha) starts no segment.  The four branches of one sign share alpha
    and differ in tau_s, so the sweep cuts tau_s into bands and, within a
    band, pairs segments by alpha.
    """
    step = float(omegas[1] - omegas[0])
    keys = sorted(curves)
    _, _, i, j, t, u, pt = _crossings([curves[k][:, 1:3] for k in keys],
                                      (alpha_window, tau_s_window))
    wA = omegas[i] + t * step
    wB = omegas[j] + u * step
    a0, t0 = pt[:, 0], pt[:, 1]
    keep = (~(np.abs(wA - wB) < _SEED_GAP)
            & (alpha_window[0] <= a0) & (a0 <= alpha_window[1])
            & (tau_s_window[0] < t0) & (t0 <= tau_s_window[1]))
    return np.column_stack([a0[keep], t0[keep], wA[keep], wB[keep]])


class DoubleHopfPoint(NamedTuple):
    factor: str
    beta: float
    tau_n: float
    alpha: float
    tau_s: float
    omega1: float
    omega2: float
    residual: float


def _exp(z):
    """``cmath.exp``, but inf or nan where numpy gives them (a diverging
    Newton trace) instead of an exception."""
    try:
        return cmath.exp(z)
    except (OverflowError, ValueError):
        return complex(np.exp(z))


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
    cb = c * beta
    x = [float(v) for v in seed]
    if abs(x[2] - x[3]) < _POINT_TOL:
        raise EqunfoldError("seed frequencies coincide; not a non-resonant double Hopf")
    res = math.inf
    for _ in range(_REFINE_MAX_ITER):
        # Python complex arithmetic, in factor_value's expression order
        a, ts, o1, o2 = x
        F = []
        Jm = np.zeros((4, 4))
        for k, w in enumerate((o1, o2)):
            lam = 1j * w
            es = _exp(-lam * ts)
            en = _exp(-lam * tau_n)
            f = lam + 1.0 - a * es - cb * en
            F += (f.real, f.imag)
            dfda = -es
            dfdts = a * lam * es
            dfdw = 1j * (1.0 + a * ts * es + cb * tau_n * en)
            Jm[2 * k, 0], Jm[2 * k, 1] = dfda.real, dfdts.real
            Jm[2 * k + 1, 0], Jm[2 * k + 1, 1] = dfda.imag, dfdts.imag
            Jm[2 * k, 2 + k] = dfdw.real
            Jm[2 * k + 1, 2 + k] = dfdw.imag
        res = math.nan if any(map(math.isnan, F)) else max(map(abs, F))
        if res < _REFINE_TOL:
            break
        try:
            step = np.linalg.solve(Jm, F)
        except np.linalg.LinAlgError:
            raise EqunfoldError(f"singular Jacobian at {np.array(x)} (residual {res:.3e})")
        x = [v - s for v, s in zip(x, step.tolist())]
    if not res < _REFINE_TOL:          # a nan residual (overflow) stalls too
        raise EqunfoldError(f"double-Hopf refinement stalled at residual {res:.3e}; "
                            f"trace ends at {np.array(x)}")
    o1, o2 = sorted((abs(x[2]), abs(x[3])))
    if o1 < _POINT_TOL:
        raise EqunfoldError(f"refined frequency {o1:.3e} is zero; not a double Hopf")
    if o2 - o1 < _POINT_TOL:
        raise EqunfoldError("refined frequencies collide; not a non-resonant double Hopf")
    return DoubleHopfPoint(factor=factor, beta=beta, tau_n=tau_n, alpha=x[0],
                           tau_s=x[1], omega1=o1, omega2=o2, residual=res)


def locate_double_hopf(factor, beta, tau_n, omegas=OMEGA_GRID, branches=BRANCHES,
                       alpha_window=ALPHA_WINDOW, tau_s_window=TAU_S_WINDOW):
    """Sweep curve branches, intersect them, refine every crossing.

    ``omegas`` is a uniform grid: finite, positive, strictly increasing, each
    step within 1e-6 relative of the first (seed frequencies are
    interpolated with that step), and fine enough to follow the neighbour
    coupling's phase: ``step * tau_n`` at most ``MAX_PHASE_STEP``, within
    the same 1e-6 relative; a coarser grid turns the curves into noise whose
    crossings grow without bound.
    Returns the surviving
    :class:`DoubleHopfPoint` list sorted by (tau_s, alpha, omega1),
    deduplicated.  Points where the *other* factor also vanishes (higher
    codimension than double Hopf) are dropped.  ``tau_n`` and the start of
    ``tau_s_window`` must not be negative: a negative lag makes the equation
    advanced, which :class:`DelayOperator` refuses.
    """
    if tau_n < 0:
        raise EqunfoldError(f"tau_n = {tau_n} is negative; a lag is never negative")
    if tau_s_window[0] < 0:
        raise EqunfoldError(f"tau_s_window starts at {tau_s_window[0]}; a lag is never negative")
    omegas = np.asarray(omegas, dtype=float)
    if omegas.ndim != 1 or len(omegas) < 2:
        raise EqunfoldError("the omega grid needs at least two samples")
    if not (np.all(np.isfinite(omegas)) and omegas[0] > 0):
        raise EqunfoldError("the omega grid must be finite and positive")
    steps = np.diff(omegas)
    if not (steps[0] > 0 and np.all(np.abs(steps - steps[0]) <= _POINT_TOL * steps[0])):
        raise EqunfoldError("the omega grid must increase in equal steps "
                            "(each within 1e-6 relative of the first)")
    if steps[0] * tau_n > MAX_PHASE_STEP * (1.0 + _POINT_TOL):
        raise EqunfoldError(
            f"the omega grid undersamples exp(-i omega tau_n): step {steps[0]:.6g} x tau_n "
            f"{tau_n:.6g} exceeds {MAX_PHASE_STEP} rad per sample; use a step of at most "
            f"{MAX_PHASE_STEP / tau_n:.6g}")
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
        if abs(dh.tau_s - tau_n) < _POINT_TOL:
            continue
        if min(abs(factor_value(other, 1j * w, dh.alpha, beta, dh.tau_s, tau_n))
               for w in (dh.omega1, dh.omega2)) < _POINT_TOL:
            continue
        points.append(dh)

    uniq = []
    for dh in sorted(points, key=lambda d: (d.tau_s, d.alpha, d.omega1)):
        if all(abs(dh.alpha - q.alpha) > _DEDUP_RADIUS or abs(dh.tau_s - q.tau_s) > _DEDUP_RADIUS
               for q in uniq):
            uniq.append(dh)
    return uniq


def default_delays(op):
    """The model's three lags in term order and a fourth: the largest multiple
    of tau/7 in (0, tau] that is none of them (tau = history horizon).  The
    pipeline's rank test decides whether the four are generic for a spectrum."""
    lags = [r for r, _ in op.terms]
    k = next(k for k in range(7, 0, -1) if not any(same_lag(op.tau * k / 7.0, r) for r in lags))
    return lags + [op.tau * k / 7.0]


def structure_masks():
    """Per-lag sparsity masks preserving the model's coupling structure:
    diagonal coefficients at lags {0, tau_s}, off-diagonal at {tau_n, tau_3}."""
    diag = np.eye(3, dtype=bool)
    return [diag, diag, ~diag, ~diag]


# each case's slice, and the null vectors that pin its basis at the roots
# i w1, -i w1, i w2, -i w2: the symmetric direction, or the rotation eigenvectors
_CASE_DEFAULTS = {
    "simple": dict(factor="delta1", beta=-0.5, tau_n=4.0, vectors=[[U_SYM]] * 4),
    "double": dict(factor="delta2", beta=0.5, tau_n=3.0,
                   vectors=[[V_ROT, V_ROT.conj()], [V_ROT.conj(), V_ROT]] * 2),
}
# the ``unfold --preset`` names, each with its case
PRESETS = {f"d3:{case}": case for case in _CASE_DEFAULTS}


def default_point(case):
    """First double-Hopf point of the case's default parameter slice."""
    cfg = _CASE_DEFAULTS[case]
    pts = locate_double_hopf(cfg["factor"], cfg["beta"], cfg["tau_n"])
    if not pts:
        raise EqunfoldError(f"no double-Hopf point found for case {case!r}")
    return pts[0]


def run_case(case, point):
    """The unfolding at a double-Hopf point of the case's factor (the first
    for "simple", c = 4; the second for "double", c = 8), such as its
    :func:`default_point`.  The case is a config for
    :func:`~equnfold.unfolding.unfold`: the model, the triangle group, the
    roots +-i omega_1, +-i omega_2 with the null vectors that fix the basis
    and its order, :func:`default_delays` and :func:`structure_masks`."""
    if case not in _CASE_DEFAULTS:
        raise EqunfoldError(f"unknown case {case!r}")
    cfg = _CASE_DEFAULTS[case]
    if point.factor != cfg["factor"]:
        raise EqunfoldError(f"case {case!r} needs a {cfg['factor']} point, got {point.factor}")

    if same_lag(point.tau_s, point.tau_n):
        raise EqunfoldError("tau_s and tau_n coincide; unfolding lags would collide")
    op = d3_operator(point.alpha, point.beta, point.tau_s, point.tau_n)
    lambdas = [1j * point.omega1, -1j * point.omega1, 1j * point.omega2, -1j * point.omega2]
    return unfold(op, triangle_rep(), lambdas, vector_seeds=cfg["vectors"],
                  delays=default_delays(op), sparsity=structure_masks())
