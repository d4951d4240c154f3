"""Linear retarded equations with point delays and their adjoint pairing.

The operators handled here have the form

    L0 z = sum_k  A_k z(t - r_k),        r_k >= 0,

acting on histories in C([-tau, 0], C^n) with tau = max r_k.  This is the
point-mass specialization of the bounded-variation Stieltjes form; smooth
distributed kernels are out of scope.

Two evaluations of the adjoint bilinear form are provided: a closed form
(exponentials integrate analytically) and a composite Gauss-Legendre
quadrature used as an independent oracle in the test-suite.
"""

from dataclasses import dataclass

import numpy as np

from .errors import StructuralError
from .groups import commutator_residual

# Below this exponent gap the analytic limit of the exponential integral
# is used (avoids catastrophic cancellation near coincident exponents).
EXPONENT_GAP = 1e-9


@dataclass(frozen=True)
class DelayOperator:
    """Point-delay linear operator ``L0 z = sum_k A_k z(-r_k)`` on C^n."""

    n: int
    terms: tuple  # ((r_k, A_k), ...) with r_k >= 0 and A_k an (n, n) matrix

    def __post_init__(self):
        if self.n <= 0:
            raise StructuralError("state dimension must be positive")
        if not self.terms:
            raise StructuralError("need at least one delay term")
        clean = []
        seen = []
        for r, A in self.terms:
            r = float(r)
            if r < 0:
                raise StructuralError(f"negative delay {r}")
            if any(abs(r - s) < 1e-14 for s in seen):
                raise StructuralError(f"duplicate delay {r}")
            seen.append(r)
            A = np.asarray(A, dtype=complex)
            if A.shape != (self.n, self.n):
                raise StructuralError(f"coefficient shape {A.shape} != ({self.n}, {self.n})")
            clean.append((r, A))
        object.__setattr__(self, "terms", tuple(clean))

    @property
    def tau(self):
        """History horizon: the largest delay."""
        return max(r for r, _ in self.terms)

    @property
    def is_real(self):
        return all(np.max(np.abs(A.imag)) < 1e-12 for _, A in self.terms)

    def char_matrix(self, lam):
        """Characteristic matrix ``Delta(lam) = lam I - sum_k A_k exp(-lam r_k)``."""
        D = lam * np.eye(self.n, dtype=complex)
        for r, A in self.terms:
            D -= A * np.exp(-lam * r)
        return D

    def char_matrix_deriv(self, lam):
        """d/dlam of the characteristic matrix: ``I + sum_k r_k A_k exp(-lam r_k)``."""
        D = np.eye(self.n, dtype=complex)
        for r, A in self.terms:
            D += r * A * np.exp(-lam * r)
        return D


@dataclass(frozen=True)
class ExpVector:
    """Pure-exponential history segment.

    ``side="column"`` represents phi(theta) = u exp(lam theta) on [-tau, 0];
    ``side="row"`` represents psi(s) = w exp(-lam s) on [0, tau].
    """

    direction: np.ndarray
    exponent: complex
    side: str = "column"

    def __post_init__(self):
        v = np.asarray(self.direction, dtype=complex).reshape(-1)
        if self.side not in ("column", "row"):
            raise StructuralError(f"unknown side {self.side!r}")
        object.__setattr__(self, "direction", v)
        object.__setattr__(self, "exponent", complex(self.exponent))

    def __call__(self, t):
        if self.side == "column":
            return self.direction * np.exp(self.exponent * t)
        return self.direction * np.exp(-self.exponent * t)

    def conj(self):
        return ExpVector(self.direction.conj(), self.exponent.conjugate(), self.side)


def check_equivariance(op, rep):
    """Max residual of ``rho(g) A_k - A_k rho(g)`` over all elements and terms.

    Zero (within tolerance) exactly when the delay equation commutes with the
    group action, i.e. is equivariant.
    """
    if rep.dim != op.n:
        raise StructuralError(f"representation dim {rep.dim} != state dim {op.n}")
    return commutator_residual(rep, [A for _, A in op.terms])


def _exp_integral(d, r):
    """``int_0^{-r} exp(d xi) dxi`` with the analytic limit at d = 0."""
    if abs(d) < EXPONENT_GAP:
        return -r
    return (np.exp(-d * r) - 1.0) / d


def bilinear_form(psi, phi, op):
    """Adjoint bilinear form ``(psi, phi)_n`` evaluated in closed form.

    For psi(s) = w exp(-lam s) and phi(theta) = u exp(mu theta),

        (psi, phi)_n = w u - sum_k exp(-lam r_k) (w A_k u) E(mu - lam, r_k),

    with E(d, r) = int_0^{-r} exp(d xi) dxi.  For an eigenpair at a common
    root lam this collapses to ``w Delta'(lam) u``.
    """
    if psi.side != "row" or phi.side != "column":
        raise StructuralError("bilinear form takes (row, column) exponential vectors")
    w, lam = psi.direction, psi.exponent
    u, mu = phi.direction, phi.exponent
    if len(w) != op.n or len(u) != op.n:
        raise StructuralError("direction length does not match operator dimension")
    val = w @ u
    for r, A in op.terms:
        val -= np.exp(-lam * r) * (w @ A @ u) * _exp_integral(mu - lam, r)
    return complex(val)


def bilinear_form_quadrature(psi, phi, op, npoints=64):
    """Same pairing as :func:`bilinear_form` by composite Gauss-Legendre panels.

    Each delay term contributes ``int_{-r_k}^0 psi(xi + r_k) A_k phi(xi) dxi``
    integrated on one panel per unit of delay, ``npoints`` nodes per panel.
    Serves as the independent oracle for the closed form.
    """
    if npoints < 8:
        raise StructuralError("npoints must be at least 8")
    if psi.side != "row" or phi.side != "column":
        raise StructuralError("bilinear form takes (row, column) exponential vectors")
    nodes, weights = np.polynomial.legendre.leggauss(npoints)
    val = complex(psi(0.0) @ phi(0.0))
    for r, A in op.terms:
        if r == 0.0:
            continue
        npanels = max(1, int(np.ceil(r)))
        edges = np.linspace(-r, 0.0, npanels + 1)
        for a, b in zip(edges[:-1], edges[1:]):
            xi = 0.5 * (b - a) * nodes + 0.5 * (a + b)
            half = 0.5 * (b - a)
            for x, wq in zip(xi, weights):
                val += half * wq * complex(psi(x + r) @ A @ phi(x))
    return val
