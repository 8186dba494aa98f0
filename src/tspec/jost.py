"""Jost solutions of -psi'' + q(x) psi = k^2 psi on [0,1].

The production path propagates (psi, psi') backward from (e^{ik}, ik e^{ik})
at x=1 to x=0 through uniform cells, batched over k. Each cell takes one
6th-order Magnus step with three Gauss-Legendre nodes; the cell's exponential
is the closed form for a traceless 2x2 matrix, so the -k^2 part of the
coefficient matrix is treated exactly and the cell count depends on how
smooth q is, not on |k|. A constant q is exact in one cell. Otherwise the
cell count doubles per k until the difference from half as many cells,
divided by 63 (the 6th-order Richardson factor), meets the tolerance, and the
Richardson-extrapolated value is returned.
Two independent representations, a triangular kernel grid and a
successive-approximation series, serve as cross-checks only.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
import numpy as np
from scipy.integrate import cumulative_simpson, simpson

from .errors import DomainError, IntegrationFailureError, KernelConvergenceError, TruncationWarning
from .potential import Potential, aligned_cells

IM_CAP_DEFAULT = 60.0   # |Im k| cap; e^{2|Im k|} factors overflow well beyond this
DEFAULT_RTOL = 1e-12

# Gauss-Legendre nodes of order 3 on [0, 1].
_GAUSS = np.array([0.5 - math.sqrt(15.0) / 10.0, 0.5, 0.5 + math.sqrt(15.0) / 10.0])
_MIN_CELLS = 8          # first comparison is 16 cells against 8
_MAX_CELLS = 8192       # doubling past this raises IntegrationFailureError
_BLOCK = 2048           # cells x k per block: 32 KiB per temporary, fastest of 1024-65536
_RICHARDSON = 63.0      # 2^6 - 1
_ROUNDING = 4.0 * np.finfo(float).eps   # per-cell rounding of the backward solve


@dataclass(frozen=True)
class JostValue:
    """f(k,0) and f'(k,0) for one spectral wavenumber k (lambda = k^2)."""

    k: complex
    f: complex
    fprime: complex


def _magnus_generators(h: float, q1, q2, q3):
    """Per-cell coefficients of the 6th-order Magnus generator, split by powers of k^2.

    Omega for (psi, psi')' = [[0, 1], [q - k^2, 0]] (psi, psi') over one cell of
    width h is built from alpha1 = h A(c2), alpha2 = sqrt(15)/3 h (A3 - A1) and
    alpha3 = 10/3 h (A3 - 2 A2 + A1), with A_i the coefficient matrix at the
    Gauss nodes (Blanes, Casas, Oteo & Ros, Phys. Rep. 470, 2009):
    Omega = alpha1 + alpha3/12 + [-20 alpha1 - alpha3 + C1, alpha2 + C2]/240,
    C1 = [alpha1, alpha2], C2 = -[alpha1, 2 alpha3 + C1]/60. Only alpha1 holds
    k, so the commutators reduce to Omega = [[wh, we], [wf, -wh]] with
    wh = wh0 - wh1 k^2, wf = wf0 - wf1 k^2 and we free of k. Returns
    (we, wh0, wh1, wf0, wf1), each a column over the cells.
    """
    b = (math.sqrt(15.0) / 3.0 * h) * (q3 - q1)
    c = (10.0 / 3.0 * h) * (q3 - 2.0 * q2 + q1)
    hbb = h ** 3 * b * b / 3600.0
    wh1 = h ** 3 * b / 180.0
    wf1 = h + h * h * c / 180.0 + hbb
    wh0 = h * b * (h * c / 7200.0 - 1.0 / 12.0) + wh1 * q2
    wf0 = c / 12.0 + h * c * c / 3600.0 - h * b * b / 120.0 + wf1 * q2
    we = h - h * h * c / 180.0 + hbb
    return tuple(v[:, None] for v in (we, wh0, wh1, wf0, wf1))


def _cell_matrices(we, wh0, wh1, wf0, wf1, kk):
    """exp(-Omega) as an array m[i, j, cell, k].

    Omega is traceless, so Omega^2 = delta^2 I with delta^2 = -det Omega and
    exp(-Omega) = cosh(delta) I - sinh(delta)/delta Omega. Both factors are
    even in delta, so the branch of the square root does not matter.
    """
    wh = wh0 - wh1 * kk
    wf = wf0 - wf1 * kk
    d2 = wh * wh + we * wf
    d = np.sqrt(d2)
    ch = np.cosh(d)
    s = np.ones_like(d)
    np.divide(np.sinh(d), d, out=s, where=d != 0.0)
    m = np.empty((2, 2) + d2.shape, dtype=complex)
    sh = s * wh
    m[0, 0] = ch - sh
    m[0, 1] = -s * we
    m[1, 0] = -s * wf
    m[1, 1] = ch + sh
    return m


def _chain(m):
    """Ordered product m[:, :, 0] m[:, :, 1] ... over axis 2, by pairwise sweeps."""
    while m.shape[2] > 1:
        n = m.shape[2]
        even = n - n % 2
        p = (m[:, :, None, 0:even:2] * m[None, :, :, 1:even:2]).sum(axis=1)
        if n % 2:
            p = np.concatenate([p, m[:, :, -1:]], axis=2)
        m = p
    return m[:, :, 0]


def _propagate(qfun, ks: np.ndarray, cells: int):
    """(f(k,0), f'(k,0)) from `cells` uniform Magnus cells, backward from x=1."""
    h = 1.0 / cells
    q = qfun(((np.arange(cells)[:, None] + _GAUSS) * h).ravel()).reshape(cells, 3)
    gens = _magnus_generators(h, q[:, 0], q[:, 1], q[:, 2])
    kk = ks * ks
    y = np.exp(1j * ks) * np.array([np.ones_like(ks), 1j * ks])
    block = max(1, _BLOCK // ks.size)
    for hi in range(cells, 0, -block):
        lo = max(0, hi - block)
        t = _chain(_cell_matrices(*(g[lo:hi] for g in gens), kk))
        y = (t * y).sum(axis=1)
    return y[0], y[1]


def jost_at_zero_many(p: Potential, ks, rtol: float = DEFAULT_RTOL, im_cap: float = IM_CAP_DEFAULT):
    """Vectorized f(k,0), f'(k,0) over an array of k.

    A constant q is exact in one cell. Otherwise, starting from the smallest
    knot-aligned count of at least 8 cells, the cell count doubles for every k
    whose change from the previous count, measured as
    |df| + |df'|/max(1,|k|) and divided by 63, still exceeds rtol times
    |f| + |f'|/max(1,|k|). A change below the rounding floor of the backward
    solve, 4 eps * cells * int_0^1 e^{2 max(0, -Im k) x} dx in the same measure,
    also ends the doubling: for Im k < 0 the start at x=1 is recessive, so
    rounding grows like e^{2|Im k|} and a small rtol can be out of reach in
    floating point. The returned value is the Richardson extrapolation
    (64 f_N - f_{N/2}) / 63 of the last two counts. Doubling past 8192 cells
    (or past twice the starting count, for grids with more knots than that)
    raises IntegrationFailureError.
    """
    ks = np.atleast_1d(np.asarray(ks, dtype=complex))
    if not np.all(np.isfinite(ks)):
        raise DomainError("k must be finite")
    if np.any(np.abs(ks.imag) > im_cap):
        raise DomainError(f"|Im k| exceeds the integrator cap {im_cap}")
    if ks.size == 0:
        return ks.copy(), ks.copy()
    qfun = p._eval
    if p.kind == "constant":
        return _propagate(qfun, ks, 1)
    cells = aligned_cells(p, _MIN_CELLS)
    limit = max(_MAX_CELLS, 2 * cells)
    f, fp = _propagate(qfun, ks, cells)
    out_f, out_fp = np.empty_like(f), np.empty_like(fp)
    weight = 1.0 / np.maximum(1.0, np.abs(ks))
    # Rounding at x carries into the growing mode and is amplified by
    # e^{2 max(0, -Im k) x} by x=0; integrated over the cells this is the floor.
    two_tau = 2.0 * np.maximum(0.0, -ks.imag)
    growth = np.ones(ks.shape)
    pos = two_tau > 0.0
    growth[pos] = np.expm1(two_tau[pos]) / two_tau[pos]
    floor = _ROUNDING * growth
    active = np.arange(ks.size)
    while active.size:
        cells *= 2
        if cells > limit:
            raise IntegrationFailureError(
                f"{active.size} of {ks.size} k values still short of rtol={rtol:.1e} "
                f"at {cells // 2} cells")
        f2, fp2 = _propagate(qfun, ks[active], cells)
        df, dfp = f2 - f, fp2 - fp
        w = weight[active]
        diff = np.abs(df) + w * np.abs(dfp)
        bound = _RICHARDSON * rtol * (np.abs(f2) + w * np.abs(fp2)) + cells * floor[active]
        done = diff <= bound
        out_f[active[done]] = f2[done] + df[done] / _RICHARDSON
        out_fp[active[done]] = fp2[done] + dfp[done] / _RICHARDSON
        active, f, fp = active[~done], f2[~done], fp2[~done]
    return out_f, out_fp


def jost_at_zero(p: Potential, k, rtol: float = DEFAULT_RTOL, im_cap: float = IM_CAP_DEFAULT) -> JostValue:
    """Jost solution at x=0 by backward integration from f(k,1)=e^{ik}."""
    f, fp = jost_at_zero_many(p, [k], rtol=rtol, im_cap=im_cap)
    return JostValue(k=complex(k), f=complex(f[0]), fprime=complex(fp[0]))


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

    def half_grid_tail_integral(self) -> np.ndarray:
        """int_y^1 q(s) ds on the half-step grid y = m*h/2 (diagnostic)."""
        return self._qtail

    _qtail: np.ndarray = None


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
            grid = KernelGrid(mesh_n=n, h=h, values=K, iterations=it, residual=residual)
            grid._qtail = qtail
            return grid
    raise KernelConvergenceError(
        f"kernel iteration did not reach {tol} in {max_iter} sweeps (residual {residual:.3e})",
        residual=residual,
    )


def jost_via_kernel(kg: KernelGrid, k) -> complex:
    """f(k,0) = 1 + int_0^2 K(0,t) e^{ikt} dt by Simpson over the mesh.

    Cross-check of :func:`jost_at_zero` only; accuracy is mesh-limited.
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
