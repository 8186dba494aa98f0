"""Reference values that do not go through tspec.

* Constant q = c: the Jost solution in closed form,
  f(k,x) = e^{ik}[cos(kp(x-1)) + (ik/kp) sin(kp(x-1))] with kp^2 = k^2 - c.
* Polynomial and grid q: scipy ``solve_ivp`` (DOP853) on
  psi'' = (q - k^2) psi from psi(1) = e^{ik}, psi'(1) = ik e^{ik}, with q from
  numpy ``polyval`` or a scipy natural ``CubicSpline``.

Both give the Robin characteristic function
D(k) = [F(k) + F(-k)]/(2i) - (h/2k)[F(k) - F(-k)], F(k) = -i[f'(k,0) - h f(k,0)],
whose zeros are polished by Newton iteration and counted by the argument
principle on sampled contours.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import solve_ivp
from scipy.interpolate import CubicSpline

ODE_RTOL = 1e-13


def q_function(pot: dict):
    """Vectorized q(x) for a polynomial or grid run-config potential mapping."""
    if pot["kind"] == "polynomial":
        coeffs = np.asarray(pot["coeffs"], dtype=float)
        return lambda x: np.polynomial.polynomial.polyval(x, coeffs)
    samples = np.asarray(pot["samples"], dtype=float)
    return CubicSpline(np.linspace(0.0, 1.0, samples.size), samples, bc_type="natural")


def jost_closed_form(c: float, ks):
    """f(k,0), f'(k,0) for q = c."""
    ks = np.asarray(ks, dtype=complex)
    kp = np.sqrt(ks * ks - c)
    e = np.exp(1j * ks)
    # sin(kp)/kp -> 1 as kp -> 0; kp = 0 only at k = +-sqrt(c), never sampled exactly.
    f = e * (np.cos(kp) - 1j * ks * np.sin(kp) / kp)
    fp = e * (kp * np.sin(kp) + 1j * ks * np.cos(kp))
    return f, fp


def jost_ode(qfun, ks, rtol: float = ODE_RTOL, knots: int = 2):
    """f(k,0), f'(k,0) for all ks from DOP853 solves over the stacked system.

    The solve restarts at each of ``knots`` uniform knots, so a spline's jumps
    in q''' never sit inside a step.
    """
    ks = np.asarray(ks, dtype=complex)
    m = ks.size
    k2 = ks * ks
    e = np.exp(1j * ks)
    y = np.concatenate([e, 1j * ks * e])

    def rhs(x, y):
        return np.concatenate([y[m:], (qfun(x) - k2) * y[:m]])

    edges = np.linspace(1.0, 0.0, knots)
    for a, b in zip(edges[:-1], edges[1:]):
        sol = solve_ivp(rhs, (a, b), y, method="DOP853", rtol=rtol, atol=rtol * 1e-3)
        if not sol.success:
            raise RuntimeError(f"reference integration failed: {sol.message}")
        y = sol.y[:, -1]
    return y[:m], y[m:]


class OracleD:
    """Robin D(k) for one potential mapping, from the closed form or the ODE."""

    def __init__(self, pot: dict, rtol: float = ODE_RTOL):
        self.h = float(pot.get("h", 0.0))
        if pot["kind"] == "constant":
            c = float(pot["value"])
            self._jost = lambda ks: jost_closed_form(c, ks)
        else:
            qfun = q_function(pot)
            knots = len(pot["samples"]) if pot["kind"] == "grid" else 2
            self._jost = lambda ks: jost_ode(qfun, ks, rtol, knots)

    def big_f(self, ks):
        """F(k) and F(-k)."""
        ks = np.asarray(ks, dtype=complex)
        f, fp = self._jost(np.concatenate([ks, -ks]))
        big = -1j * (fp - self.h * f)
        return big[:ks.size], big[ks.size:]

    def __call__(self, ks):
        ks = np.asarray(ks, dtype=complex)
        zero = ks == 0
        safe = np.where(zero, 1.0, ks)
        fk, fmk = self.big_f(safe)
        out = (fk + fmk) / 2j - (self.h / (2.0 * safe)) * (fk - fmk)
        if zero.any():
            out[zero] = self.at_zero()
        return out

    def scale(self, ks):
        """Magnitude of the terms D is assembled from; the yardstick for its error."""
        ks = np.asarray(ks, dtype=complex)
        fk, fmk = self.big_f(ks)
        return 0.5 * (np.abs(fk) + np.abs(fmk)) * (1.0 + abs(self.h) / np.abs(ks))

    def at_zero(self, step: float = 1e-3) -> float:
        """D(0) by Richardson extrapolation in k^2 (D is even)."""
        d1, d2 = self(np.array([step, 2.0 * step], dtype=complex))
        return complex((4.0 * d1 - d2) / 3.0).real


def polish(d, seeds, tol: float = 1e-14, max_iter: int = 12):
    """Newton on d from each seed, derivative by central differences.

    Returns (roots, last_step); a root whose last step is not below
    tol * |root| did not converge.
    """
    z = np.asarray(seeds, dtype=complex).copy()
    step = np.full(z.size, np.inf)
    for _ in range(max_iter):
        active = step > tol * np.maximum(1.0, np.abs(z))
        if not active.any():
            break
        za = z[active]
        hstep = 1e-5 * np.maximum(1.0, np.abs(za))
        vals = d(np.concatenate([za, za + hstep, za - hstep]))
        n = za.size
        deriv = (vals[n:2 * n] - vals[2 * n:]) / (2.0 * hstep)
        dz = -vals[:n] / deriv
        z[active] = za + dz
        step[active] = np.abs(dz)
    return z, step


def winding(d, corners, spacing: float = 0.1, max_points: int = 20000) -> int:
    """Zeros of d inside the polygon through ``corners`` (counterclockwise).

    Boundary phase is sampled until every jump between neighbours is below
    pi/4; the total must round to an integer within 0.1.
    """
    pts = []
    for a, b in zip(corners, corners[1:] + corners[:1]):
        n = max(8, int(math.ceil(abs(b - a) / spacing)))
        pts.append(a + (b - a) * np.arange(n) / n)
    pts = np.concatenate(pts)
    vals = d(pts)
    while True:
        jumps = np.angle(np.roll(vals, -1) / vals)
        bad = np.nonzero(np.abs(jumps) > math.pi / 4)[0]
        if bad.size == 0:
            break
        if pts.size + bad.size > max_points:
            raise RuntimeError("oracle winding count did not resolve")
        mids = 0.5 * (pts[bad] + np.roll(pts, -1)[bad])
        pts = np.insert(pts, bad + 1, mids)
        vals = np.insert(vals, bad + 1, d(mids))
    total = float(jumps.sum()) / (2.0 * math.pi)
    w = round(total)
    if abs(total - w) > 0.1:
        raise RuntimeError(f"oracle winding {total:.3f} is not an integer")
    return int(w)


def count_in_box(d, s0, s1, t0, t1, spacing: float = 0.1) -> int:
    return winding(d, [complex(s0, t0), complex(s1, t0), complex(s1, t1), complex(s0, t1)],
                   spacing)


def rel_error(got: complex, ref: complex) -> float:
    return abs(got - ref) / max(abs(ref), 1e-300)


def digits(err: float, cap: float = 16.0) -> float:
    """-log10 of a relative error, capped where double precision ends."""
    return cap if err <= 10.0 ** -cap else -math.log10(err)


def constant_spectrum(c: float, h: float, n_hi: int):
    """First-quadrant zeros k_0..k_{n_hi} of the closed-form Robin D for q = c > 0.

    Seeds come from the leading-term chain Re k ~ (n + 3/4) pi,
    Im k ~ log(4 n pi)/2; each polished root must land in its own strip
    n pi < Re k < (n + 1) pi and the argument count over the first quadrant
    up to (n_hi + 1) pi must equal the number found.
    """
    d = OracleD({"kind": "constant", "value": c, "h": h})
    ns = np.arange(n_hi + 1)
    seeds = (ns + 0.75) * math.pi + 0.5j * np.log(4.0 * np.maximum(ns, 0.5) * math.pi)
    roots, step = polish(d, seeds, max_iter=40)
    if np.any(step > 1e-10 * np.abs(roots)):
        raise RuntimeError("closed-form spectrum: Newton did not converge")
    roots = np.abs(roots.real) + 1j * np.abs(roots.imag)
    if np.any((roots.real <= ns * math.pi) | (roots.real >= (ns + 1) * math.pi)):
        raise RuntimeError("closed-form spectrum: a root left its index strip")
    if n_hi < 40:
        got = count_in_box(d, -1e-3, (n_hi + 1) * math.pi, 1e-3, 6.0)
        if got != n_hi + 1:
            raise RuntimeError(f"closed-form spectrum: {got} zeros counted, {n_hi + 1} found")
    return roots
