"""The named invariants of an unfolding, one table for the build and ``verify``.

An entry's residual is zero when its fact holds exactly (one value, or one
per vector, element, slot or target); the fact holds when every residual is
at most ``_linalg.scaled(tol, scale)``, the scale being the size of the
quantity it is taken on.  The build asserts an entry (:func:`check`) where it
relies on the fact, at the entry's tolerance, and raises the entry's error.
``verify`` re-derives the arguments of each entry it can from an artifact
and reports it at ``--tol`` (entries only it evaluates have ``DEFAULT_TOL``).
The versality check it recomputes asserts entries at their tolerance or at
``--tol``, whichever is looser, so it fails none that passes on its own line.
Helpers are called through their modules, so a wrapper on a module sees them.
"""

from typing import NamedTuple

import numpy as np

from . import delays, groups
from ._linalg import REALIZATION_TOL, REP_TOL, scaled
from .errors import FrameError, StructuralError, UnfoldingError

DEFAULT_TOL = 1e-8          # verify's --tol; the base tolerance of what only verify evaluates
FRAME_RESIDUAL_TOL = 1e-9   # Gram, pairing and null-vector residuals of a built frame
COMMUTE_TOL = 1e-10         # B, or a family coefficient, commutes with the group
CHARACTER_TOL = 1e-6        # a character sum equals the dimension that rank finds
_LARGEST = np.finfo(float).max  # a bound whose scale overflowed: an infinite residual fails it


class CheckResult(NamedTuple):
    name: str
    passed: bool
    detail: str


class Invariant(NamedTuple):
    """One entry; ``residual`` and ``scale`` take the same arguments."""

    name: str
    residual: object
    scale: object
    tol: float
    error: type

    def _evaluate(self, args, tol):
        """The residuals, their bounds at base tolerance ``tol``, and whether
        all hold (one that is not finite does not, even against a scale that
        overflowed); no residual at all is one 0."""
        res = np.asarray(self.residual(*args), dtype=float).reshape(-1)
        if not res.size:
            return np.zeros(1), tol, True
        bound = np.fmin(scaled(tol, self.scale(*args)), _LARGEST)
        return res, bound, bool((res <= bound).all())

    @staticmethod
    def _worst(res, bound):
        """The index k of the least headroom (bound / residual; a NaN residual
        has the least) and k's residual, bound and headroom."""
        bound = bound * np.ones(res.shape)
        k = int(np.argmax(res / bound))         # every bound is finite and positive
        r, b = float(res[k]), float(bound[k])
        return k, f"residual {r:.3e} (bound {b:.1e}, headroom {b / r if r else np.inf:.1e})"

    def report(self, *args, tol):
        """The :class:`CheckResult` at base tolerance ``tol``."""
        res, bound, passed = self._evaluate(args, tol)
        return CheckResult(self.name, passed, self._worst(res, bound)[1])

    def check(self, *args, where=None, tol=None):
        """Raise ``error`` unless every residual holds at the entry's tolerance,
        or at base tolerance ``tol`` where that is looser; the message names
        the entry and ``where(k)`` of the item k."""
        res, bound, passed = self._evaluate(args, max(self.tol, tol or 0.0))
        if not passed:
            k, detail = self._worst(res, bound)
            raise self.error(f"{self.name}{'' if where is None else f' ({where(k)})'}: {detail}")


def _size(M, axis=None):
    return np.abs(M).max(axis=axis, initial=0.0)


def char_scale(norm_sum, lam):
    """Natural magnitude of Delta(lam), the scale of its null vectors' residual
    and of its null-space cutoff: at a root of a scalar equation Delta's own
    singular value is the residual.  ``norm_sum`` is ``DelayOperator.norm_sum``."""
    return 1.0 + abs(lam) + norm_sum


def _null_vectors(frame):
    """``||Delta(lam) v|| / ||v||`` for each phi column, then each psi row;
    Delta is built once per distinct lam."""
    D = {lam: frame.op.char_matrix(lam) for lam in dict.fromkeys(frame.lambdas)}
    return ([np.linalg.norm(D[lam] @ u) / np.linalg.norm(u)
             for u, lam in zip(frame.phi, frame.lambdas)]
            + [np.linalg.norm(w @ D[lam]) / np.linalg.norm(w)
               for w, lam in zip(frame.psi, frame.lambdas)])


def _null_vector_scales(frame):
    norm_sum = frame.op.norm_sum
    return [char_scale(norm_sum, lam) for lam in 2 * frame.lambdas]


def _intertwining(frame, rep):
    """Max entrywise ``|rho(g) Phi(theta) - Phi(theta) G(g)|`` over every
    generator g and nine theta samples spanning [-tau, 0], as one stacked
    product."""
    thetas = np.linspace(-frame.op.tau, 0.0, 9) if frame.op.tau > 0 else [0.0]
    gens = list(rep.group.generator_indices)
    rho, G = rep.matrices[gens, None], frame.G.matrices[gens, None]
    P = np.stack([frame.Phi_at(theta) for theta in thetas])
    return _size(rho @ P - P @ G)


def reconstruction_residual(coefficients, Phis, R):
    """Max entrywise ``|sum_j A_j Phi(-r_j) - R|``, given ``Phis[j] = Phi(-r_j)``;
    one value per target for ``(p, J, n, n)`` coefficients of a ``(p, n, c)``
    stack of targets."""
    A = np.asarray(coefficients)
    return np.max(np.abs(sum(A[..., j, :, :] @ P for j, P in enumerate(Phis)) - R),
                  axis=(-2, -1))


INVARIANTS = (
    Invariant("group.representation", lambda rep: groups.check_representation(rep),
              lambda rep: _size(rep.matrices) ** 2, DEFAULT_TOL, StructuralError),
    Invariant("model.equivariance", lambda op, rep: delays.check_equivariance(op, rep),
              lambda op, rep: _size([A for _, A in op.terms]), 1e-9, FrameError),
    Invariant("frame.null_vectors", _null_vectors, _null_vector_scales, FRAME_RESIDUAL_TOL,
              FrameError),
    Invariant("frame.gram_identity", lambda frame: _size(frame.gram() - np.eye(frame.c)),
              lambda frame: 1.0, FRAME_RESIDUAL_TOL, FrameError),
    Invariant("frame.reduced_matrix", lambda frame, stored: _size(stored - frame.B),
              lambda frame, stored: _size(np.array(frame.lambdas)), DEFAULT_TOL, FrameError),
    Invariant("frame.induced_rep", lambda G: groups.check_representation(G),
              lambda G: _size(G.matrices) ** 2, REP_TOL, FrameError),
    Invariant("frame.two_sided_pairing", lambda H, G: _size(H - G.matrices, axis=(1, 2)),
              lambda H, G: _size(G.matrices), FRAME_RESIDUAL_TOL, FrameError),
    Invariant("frame.B_commutes_with_G", lambda G, B: groups.commutator_residual(G, [B]),
              lambda G, B: _size(B), COMMUTE_TOL, UnfoldingError),
    Invariant("frame.phi_intertwines", _intertwining,
              lambda frame, rep: _size(frame.phi), REP_TOL, FrameError),
    Invariant("family.coefficient_equivariance",
              lambda rep, A: groups.commutator_residual(rep, A.reshape(-1, *A.shape[-2:])),
              lambda rep, A: _size(A), COMMUTE_TOL, StructuralError),
    Invariant("directions.projection_identity",     # Bhat against its other derivations
              lambda Bhats, *others: np.max([_size(Bhats - X, axis=(1, 2)) for X in others], 0),
              lambda Bhats, *others: _size(Bhats, axis=(1, 2)), 1e-10, UnfoldingError),
    Invariant("directions.projection_fixed_point",
              lambda G, D: _size(groups.equivariant_average(G, G, D) - D),
              lambda G, D: _size(D), DEFAULT_TOL, UnfoldingError),
    Invariant("theta.matrix_consistency", lambda theta, stored: _size(theta - stored)
              if theta.shape == stored.shape else np.inf,
              lambda theta, stored: _size(theta), DEFAULT_TOL, UnfoldingError),
    Invariant("theta.decomposition", lambda res, V: res,       # res: theta_extract's residuals
              lambda res, V: np.linalg.norm(V, axis=1), 1e-8, UnfoldingError),
    Invariant("unfolding.reconstruction", reconstruction_residual,
              lambda A, Phis, R: _size(R, axis=(-2, -1)), REALIZATION_TOL, UnfoldingError),
    Invariant("versality.commutant_formula", lambda formula, dim: abs(formula - dim),
              lambda formula, dim: dim, CHARACTER_TOL, UnfoldingError),
    Invariant("versality.codimension_formula", lambda formula, dim: abs(formula - dim),
              lambda formula, dim: dim, CHARACTER_TOL, UnfoldingError),
)
BY_NAME = {inv.name: inv for inv in INVARIANTS}


def check(name, *args, where=None, tol=None):
    """Assert the entry ``name`` on ``args`` (:meth:`Invariant.check`)."""
    BY_NAME[name].check(*args, where=where, tol=tol)
