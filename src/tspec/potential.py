"""Real potentials q on [0,1] with the Robin parameter h, and their derived scalars.

Grid potentials are interpreted as natural cubic splines through uniform
samples; polynomial and constant kinds are exact. All downstream formulas
consume the scalar bundle produced by :func:`derive_scalars`.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable, Optional

import numpy as np

from .errors import DomainError

PAYLOAD_KEYS = {"polynomial": "coeffs", "grid": "samples", "constant": "value"}
VARIANTS = ("robin", "dirichlet")      # the boundary condition at x = 0 that D is built on

_QUAD_PANELS = 32       # composite Gauss-Legendre panels
_QUAD_ORDER = 8         # nodes per panel
_CHECK_ORDER = 5        # nodes per panel of the cross-check rule, on twice the panels
_CROSSCHECK_RTOL = 1e-10


@dataclass(frozen=True)
class Potential:
    """A real potential on [0,1] plus the boundary parameter h.

    Exactly one payload field is meaningful, selected by ``kind``:
    ``coeffs`` (ascending degree) for polynomials, ``samples`` (uniform on
    [0,1], natural cubic spline) for grids, ``value`` for constants.
    Instances are immutable and safe to share between workers.
    """

    kind: str
    h: float = 0.0
    coeffs: tuple = ()
    samples: tuple = ()
    value: float = 0.0

    def __post_init__(self):
        if self.kind not in PAYLOAD_KEYS:
            raise DomainError(f"unknown potential kind {self.kind!r}")
        if self.kind == "polynomial" and len(self.coeffs) == 0:
            raise DomainError("polynomial potential needs at least one coefficient")
        if self.kind == "grid" and len(self.samples) < 4:
            raise DomainError("grid potential needs at least 4 samples")
        payload = self.coeffs + self.samples + (self.value, self.h)
        if not np.all(np.isfinite(payload)):
            raise DomainError("potential data must be finite and real")

    @classmethod
    def polynomial(cls, coeffs, h=0.0):
        return cls(kind="polynomial", h=float(h), coeffs=tuple(float(c) for c in coeffs))

    @classmethod
    def grid(cls, samples, h=0.0):
        return cls(kind="grid", h=float(h), samples=tuple(float(s) for s in samples))

    @classmethod
    def constant(cls, value, h=0.0):
        return cls(kind="constant", h=float(h), value=float(value))

    @classmethod
    def from_dict(cls, spec: dict) -> "Potential":
        """Build from the run-config mapping: ``kind``, its payload key and ``h``.

        The one check of the potential schema; every violation is a DomainError.
        """
        if not isinstance(spec, dict) or "kind" not in spec:
            raise DomainError("potential spec must be a mapping with a 'kind' key")
        kind = spec["kind"]
        if not isinstance(kind, str) or kind not in PAYLOAD_KEYS:
            raise DomainError(f"unknown potential kind {kind!r}")
        payload = PAYLOAD_KEYS[kind]
        unknown = set(spec) - {"kind", "h", payload}
        if unknown:
            raise DomainError(f"unknown potential keys: {sorted(unknown)}")
        h = _real(spec.get("h", 0.0), "h")
        if kind == "constant":
            return cls.constant(_real(spec.get("value", 0.0), "value"), h=h)
        values = spec.get(payload, ())
        if not isinstance(values, (list, tuple)):
            raise DomainError(f"potential {payload} must be a list of numbers, got {values!r}")
        values = [_real(v, payload) for v in values]
        return cls.polynomial(values, h=h) if kind == "polynomial" else cls.grid(values, h=h)

    @cached_property
    def _spline(self) -> "_NaturalSpline":
        return _NaturalSpline(self.samples)

    @cached_property
    def _magnus_cells(self) -> dict:
        """Jost cell data by cell count, filled by :mod:`tspec.jost`; one dict per instance."""
        return {}

    @cached_property
    def _eval(self) -> Callable:
        """Unchecked vectorized evaluator used by quadrature and ODE stepping."""
        if self.kind == "constant":
            v = self.value
            return lambda x: v * np.ones_like(np.asarray(x, dtype=float))
        if self.kind == "polynomial":
            c = np.asarray(self.coeffs)
            return lambda x: np.polynomial.polynomial.polyval(np.asarray(x, dtype=float), c)
        return self._spline

    def derivative_at(self, x: float, order: int = 1) -> float:
        """q^(order)(x) from the analytic form (polynomial/constant) or the spline."""
        if self.kind == "constant":
            return 0.0 if order >= 1 else self.value
        if self.kind == "polynomial":
            c = np.polynomial.polynomial.polyder(np.asarray(self.coeffs), order) if order else np.asarray(self.coeffs)
            if c.size == 0:
                return 0.0
            return float(np.polynomial.polynomial.polyval(x, c))
        return float(self._spline(x, nu=order))


class _NaturalSpline:
    """Natural cubic spline through samples at uniform knots on [0, 1].

    The knot second derivatives solve the (1, 4, 1) tridiagonal system by one
    O(n) elimination sweep. Each interval keeps its cubic in the local
    coordinate t = x - x_i. An interior knot belongs to the interval on its
    right, the last interval is closed at x = 1, and points outside [0, 1]
    extrapolate the end cubics.
    """

    def __init__(self, samples):
        y = np.asarray(samples, dtype=float)
        n = y.size - 1
        h = 1.0 / n
        rhs = (6.0 / (h * h) * (y[:-2] - 2.0 * y[1:-1] + y[2:])).tolist()
        m = [0.0] * (n + 1)
        upper, acc = [0.0] * n, [0.0] * n
        for i in range(1, n):
            pivot = 4.0 - upper[i - 1]
            upper[i] = 1.0 / pivot
            acc[i] = (rhs[i - 1] - acc[i - 1]) / pivot
        for i in range(n - 1, 0, -1):
            m[i] = acc[i] - upper[i] * m[i + 1]
        m = np.array(m)
        self.knots = np.linspace(0.0, 1.0, n + 1)
        # Ascending powers of t on each interval.
        self.coef = np.array([
            y[:-1],
            (y[1:] - y[:-1]) / h - h * (2.0 * m[:-1] + m[1:]) / 6.0,
            0.5 * m[:-1],
            (m[1:] - m[:-1]) / (6.0 * h),
        ])

    def __call__(self, x, nu: int = 0):
        """The nu-th derivative at x (0 for nu > 3)."""
        x = np.asarray(x, dtype=float)
        i = np.clip(np.searchsorted(self.knots, x, side="right") - 1, 0, self.knots.size - 2)
        t = x - self.knots[i]
        c = self.coef[:, i]
        out = np.zeros_like(t)
        for power in range(3, nu - 1, -1):
            out = out * t + math.perm(power, nu) * c[power]
        return out


def finite_real(value) -> bool:
    """True for a finite real number; bools, strings and ints beyond float range are not."""
    try:
        return not isinstance(value, bool) and math.isfinite(value)
    except (TypeError, OverflowError):
        return False


def _real(value, name: str) -> float:
    if not finite_real(value):
        raise DomainError(f"potential {name}: expected a finite real number, got {value!r}")
    return float(value)


@dataclass(frozen=True)
class PotentialScalars:
    """Derived scalars every downstream formula consumes.

    ``m_order`` is ``(m, q^(m)(1))`` for the smallest m with a nonvanishing
    endpoint derivative, or None when none is detectable (e.g. q identically 0).
    """

    omega: float
    q_at_1: float
    dq_at_1: float
    q_at_0: float
    dq_at_0: float
    q_sq_integral: float
    m_order: Optional[tuple]
    h: float = 0.0


def evaluate_q(p: Potential, x):
    """Evaluate q at x in [0,1] under the potential's declared interpretation."""
    xa = np.asarray(x, dtype=float)
    if np.any(xa < -1e-12) or np.any(xa > 1 + 1e-12):
        raise DomainError(f"x={x} outside [0,1]")
    out = p._eval(np.clip(xa, 0.0, 1.0))
    return float(out) if np.isscalar(x) or xa.ndim == 0 else out


def aligned_cells(p: Potential, cells: int) -> int:
    """The smallest uniform cell count >= `cells` whose edges include every spline knot.

    Grid kinds need a multiple of their interval count so spline kinks sit on
    cell edges; other kinds take `cells` as it is.
    """
    if p.kind != "grid":
        return cells
    nint = len(p.samples) - 1
    return nint * max(1, -(-cells // nint))


def _quad_panels(p: Potential) -> int:
    """Panel count for the composite Gauss-Legendre rule."""
    return aligned_cells(p, _QUAD_PANELS)


@lru_cache(maxsize=None)
def _gauss_rule(order: int):
    """Nodes and weights of the Gauss-Legendre rule on [-1, 1], built once per order (read-only)."""
    nodes, weights = np.polynomial.legendre.leggauss(order)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def _gauss_composite(f, panels: int, order: int) -> float:
    nodes, weights = _gauss_rule(order)
    edges = np.linspace(0.0, 1.0, panels + 1)
    half = 0.5 * (edges[1] - edges[0])
    mids = 0.5 * (edges[:-1] + edges[1:])
    xs = (mids[:, None] + half * nodes[None, :]).ravel()
    ws = np.tile(weights * half, panels)
    return float(ws @ f(xs))


def _detect_m_order(p: Potential) -> Optional[tuple]:
    """Smallest m with q^(m)(1) != 0, with its value."""
    if p.kind == "constant":
        return (0, p.value) if abs(p.value) > 0.0 else None
    if p.kind == "polynomial":
        scale = max(1.0, float(np.max(np.abs(p.coeffs))))
        for m in range(len(p.coeffs)):
            val = p.derivative_at(1.0, order=m) if m else float(p._eval(1.0))
            if abs(val) > 1e-11 * scale * max(1.0, float(math.factorial(m))):
                return (m, val)
        return None
    # Spline derivatives are approximate; only orders 0..3 are meaningful.
    scale = max(1.0, float(np.max(np.abs(p.samples))))
    for m in range(4):
        val = float(p._spline(1.0, nu=m))
        if abs(val) > 1e-7 * scale:
            return (m, val)
    return None


def _check_q_sq(*integrals: float) -> None:
    """Raise DomainError unless every q^2 integral is finite."""
    if not math.isfinite(sum(integrals)):
        raise DomainError("the q^2 integral overflows: the potential is too large")


def derive_scalars(p: Potential) -> PotentialScalars:
    """Compute the scalar bundle (omega, endpoint values/derivatives, smoothness order).

    omega and the q^2 integral come from a fixed composite Gauss-Legendre rule
    and are cross-checked against a Gauss-Legendre rule of another order on
    twice the knot-aligned panels; a disagreement above 1e-10 warns. Raises
    DomainError when the q^2 integral overflows.
    """
    if p.kind == "constant":
        c = p.value
        _check_q_sq(c * c)
        return PotentialScalars(
            omega=c, q_at_1=c, dq_at_1=0.0, q_at_0=c, dq_at_0=0.0,
            q_sq_integral=c * c, m_order=(0, c) if c != 0.0 else None, h=p.h,
        )
    q = p._eval
    panels = _quad_panels(p)
    omega = _gauss_composite(q, panels, _QUAD_ORDER)
    with np.errstate(over="ignore"):
        q_sq = _gauss_composite(lambda x: q(x) ** 2, panels, _QUAD_ORDER)
        q_sq_check = _gauss_composite(lambda x: q(x) ** 2, 2 * panels, _CHECK_ORDER)
    _check_q_sq(q_sq, q_sq_check)
    omega_check = _gauss_composite(q, 2 * panels, _CHECK_ORDER)
    scale = max(1.0, abs(omega), q_sq)
    if abs(omega - omega_check) > _CROSSCHECK_RTOL * scale or abs(q_sq - q_sq_check) > _CROSSCHECK_RTOL * scale:
        warnings.warn(
            f"quadrature cross-check disagreement: omega {omega!r} vs {omega_check!r}, "
            f"q^2 {q_sq!r} vs {q_sq_check!r}",
            stacklevel=2,
        )
    return PotentialScalars(
        omega=omega,
        q_at_1=float(q(1.0)),
        dq_at_1=p.derivative_at(1.0),
        q_at_0=float(q(0.0)),
        dq_at_0=p.derivative_at(0.0),
        q_sq_integral=q_sq,
        m_order=_detect_m_order(p),
        h=p.h,
    )


def q_constants(s: PotentialScalars):
    """The four correction constants entering the refined eigenvalue asymptotics.

    Q1, Q2 drive the Robin expansions; Q3, Q4 the Dirichlet ones. Raises
    DomainError when one of them overflows.
    """
    h, w = s.h, s.omega
    try:
        # Not w * w * w, which rounds twice: the constants keep their last bit.
        w3 = w ** 3 / 6.0
    except OverflowError:
        w3 = math.inf
    q1 = s.dq_at_1 - s.q_at_1 * w - 4.0 * h * s.q_at_1
    q2 = -s.dq_at_0 + s.q_sq_integral + s.q_at_0 * w - w3 + 4.0 * h * (s.q_at_0 + w * h)
    q3 = -s.dq_at_1 + s.q_at_1 * w
    q4 = -s.dq_at_0 + s.q_at_0 * w - s.q_sq_integral + w3
    if not all(map(math.isfinite, (q1, q2, q3, q4))):
        raise DomainError("the correction constants Q1-Q4 overflow: the potential is too large")
    return q1, q2, q3, q4
