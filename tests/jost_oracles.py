"""Two representations of the Jost solution that share no code with :mod:`tspec.jost`.

A triangular kernel grid and a successive-approximation series: test oracles
for the production propagator, and the reason scipy is a test dependency. The
kernel row K(0, t) is ``kernel_iterate(p, mesh).values[0]``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.integrate import cumulative_simpson, simpson

from tspec.errors import DomainError, TspecError
from tspec.potential import Potential


class KernelConvergenceError(TspecError):
    """Fixed-point iteration for the kernel did not converge.

    Attributes:
        residual: sup-norm of the last successive-iterate difference.
    """

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class TruncationWarning(UserWarning):
    """A series was truncated before its bound reached the requested tolerance."""


# ---------------------------------------------------------------------------
# Kernel representation f(k,x) = e^{ikx} + int_x^{2-x} K(x,t) e^{ikt} dt
# ---------------------------------------------------------------------------

@dataclass
class KernelGrid:
    """K(x,t) on the uniform triangular mesh {0 <= x <= t <= 2-x}.

    values[i, j] is K(i*h, j*h) with h = 1/mesh_n; entries outside the
    support triangle are identically zero.
    """

    mesh_n: int
    h: float
    values: np.ndarray
    iterations: int
    residual: float


def _tail_integrals_half_grid(p: Potential, n2: int, h2: float) -> np.ndarray:
    """int_y^1 q ds at y = m*h2 for m = 0..n2, by per-interval 4-pt Gauss."""
    nodes, weights = np.polynomial.legendre.leggauss(4)
    mids = (np.arange(n2) + 0.5) * h2
    xs = (mids[:, None] + 0.5 * h2 * nodes[None, :]).ravel()
    vals = (p._eval(xs).reshape(n2, 4) * weights).sum(axis=1) * 0.5 * h2
    tail = np.zeros(n2 + 1)
    tail[:-1] = vals[::-1].cumsum()[::-1]
    return tail


def kernel_iterate(p: Potential, mesh_n: int, tol: float = 1e-10, max_iter: int = 50) -> KernelGrid:
    """Fixed-point iteration for the transformation kernel on a triangular mesh.

    Trapezoid quadrature for the double integral; converged when the
    successive-iterate sup-norm drops below tol.
    """
    if mesh_n < 16:
        raise DomainError("mesh_n must be at least 16")
    n = mesh_n
    h = 1.0 / n
    qtail = _tail_integrals_half_grid(p, 2 * n, h / 2.0)
    qs = p._eval(np.arange(n + 1) * h)

    ii = np.arange(n + 1)[:, None]
    jj = np.arange(2 * n + 1)[None, :]
    mask = (jj >= ii) & (ii + jj < 2 * n)
    k0 = np.where(mask, 0.5 * qtail[np.minimum(ii + jj, 2 * n)], 0.0)

    j_cols = np.arange(2 * n + 1)
    K = k0.copy()
    residual = math.inf
    edge_rows = np.arange(1, n + 1)
    for it in range(1, max_iter + 1):
        seg = (K[:, :-1] + K[:, 1:]) * (0.5 * h)
        # K(s, .) jumps from 0 to K(s,s) at u = s; the segment ending exactly
        # there integrates the zero side, not the trapezoid across the jump.
        seg[edge_rows, edge_rows - 1] = 0.0
        cum = np.zeros_like(K)
        cum[:, 1:] = np.cumsum(seg, axis=1)
        G = np.zeros_like(K)
        for i in range(n):  # i = n has a zero-length s-interval
            rows = slice(i, n + 1)
            offs = np.arange(n + 1 - i)[:, None]
            up = np.clip(j_cols[None, :] + offs, 0, 2 * n)
            lo = np.clip(j_cols[None, :] - offs, 0, 2 * n)
            crows = cum[rows]
            inner = np.take_along_axis(crows, up, axis=1) - np.take_along_axis(crows, lo, axis=1)
            w = np.full(n + 1 - i, h)
            w[0] *= 0.5
            w[-1] *= 0.5
            G[i] = (w * qs[i:]) @ inner
        K_new = np.where(mask, k0 + 0.5 * G, 0.0)
        residual = float(np.max(np.abs(K_new - K)))
        K = K_new
        if residual < tol:
            return KernelGrid(mesh_n=n, h=h, values=K, iterations=it, residual=residual)
    raise KernelConvergenceError(
        f"kernel iteration did not reach {tol} in {max_iter} sweeps (residual {residual:.3e})",
        residual=residual,
    )


def jost_via_kernel(kg: KernelGrid, k) -> complex:
    """f(k,0) = 1 + int_0^2 K(0,t) e^{ikt} dt by Simpson over the mesh.

    Cross-check of f(k,0) from :func:`tspec.jost.transfer_many`; accuracy is mesh-limited.
    """
    t = np.arange(2 * kg.mesh_n + 1) * kg.h
    integrand = kg.values[0] * np.exp(1j * complex(k) * t)
    return 1.0 + complex(simpson(integrand, dx=kg.h))


# ---------------------------------------------------------------------------
# Successive approximations for p(k,x) = f(k,x) e^{-ikx} at k = i*tau, tau < 0
# ---------------------------------------------------------------------------

@dataclass
class SuccessiveApproxState:
    """Partial sums of the successive-approximation series at k = i*tau.

    terms[n] is p_n on the x mesh; majorants[n] is the explicit bound
    e^{-2 tau (1-x)} (int_x^1 |q|)^n / (|tau|^n n!) valid for n >= 1.
    """

    tau: float
    x: np.ndarray
    terms: list
    majorants: list
    p: np.ndarray
    p_at_0: float
    dp_at_0: float
    truncation_bound: float


def successive_approx(p: Potential, tau: float, n_max: int = 60, mesh: int = 2049,
                      tol: float = 1e-12) -> SuccessiveApproxState:
    """Sum the iterated-integral series for p(i*tau, x), tau < 0.

    Terms are added until the explicit majorant falls below tol or n_max is
    reached (then a TruncationWarning carries the remaining bound). p'(i*tau,0)
    is recovered from the identity p' = 2*tau*(p - 1) - int_x^1 q p dt.
    """
    if not tau < 0:
        raise DomainError("tau must be negative")
    if tau < -340.0:
        raise DomainError("e^{-2 tau} overflows below tau = -340")
    x = np.linspace(0.0, 1.0, mesh)
    hx = x[1] - x[0]
    qx = p._eval(x)
    grow = np.exp(-2.0 * tau * x)     # e^{-2 tau x}, up to e^{-2 tau} at x=1
    decay = np.exp(2.0 * tau * x)     # reciprocal, <= 1

    def right_integral(y):
        c = cumulative_simpson(y, dx=hx, initial=0.0)
        return c[-1] - c

    qabs_tail = right_integral(np.abs(qx))
    term = np.ones_like(x)
    total = term.copy()
    terms = [term]
    majorants = [None]
    bound = math.inf
    for nterm in range(1, n_max + 1):
        a = right_integral(qx * term)
        b = right_integral(grow * qx * term)
        term = (a - decay * b) / (2.0 * tau)
        total += term
        terms.append(term)
        majorants.append(np.exp(-2.0 * tau * (1.0 - x)) * qabs_tail ** nterm
                         / (abs(tau) ** nterm * math.factorial(nterm)))
        bound = np.exp(-2.0 * tau) * qabs_tail[0] ** (nterm + 1) / (
            abs(tau) ** (nterm + 1) * math.factorial(nterm + 1))
        if bound < tol:
            break
    else:
        warnings.warn(
            f"successive approximation truncated at n_max={n_max} with bound {bound:.3e}",
            TruncationWarning,
            stacklevel=2,
        )
    p_at_0 = float(total[0])
    dp_at_0 = float(2.0 * tau * (total[0] - 1.0) - simpson(qx * total, dx=hx))
    return SuccessiveApproxState(
        tau=tau, x=x, terms=terms, majorants=majorants, p=total,
        p_at_0=p_at_0, dp_at_0=dp_at_0, truncation_bound=float(bound),
    )
