"""The entire characteristic function D(k) for the Robin and Dirichlet problems.

D is assembled from the Jost data F(k) = -i[f'(k,0) - h f(k,0)]; its zeros are
the square roots of the transmission eigenvalues. Near k = 0 the odd-difference
terms divided by k are removable 0/0 forms and are evaluated by 4-point
Richardson extrapolation along the ray through k.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DomainError, TspecError
from .jost import DEFAULT_RTOL, domain_error, jost_at_zero_many
from .potential import Potential

VARIANTS = ("robin", "dirichlet")
K_SMALL = 1e-3          # below this |k|, D takes the small-k extrapolation
_RICHARDSON_FACTORS = (4.0, 2.0, 1.5, 1.0)


@dataclass(frozen=True)
class CharFunSample:
    """One grid sample k -> D(k), with the error text if the point failed."""

    k: complex
    value: complex
    error: Optional[str] = None


def _check_variant(variant: str):
    if variant not in VARIANTS:
        raise DomainError(f"variant must be one of {VARIANTS}, got {variant!r}")


def _d_from_jost(ks, f_pos, fp_pos, f_neg, fp_neg, variant, h):
    """Assemble D from Jost data at +k and -k. ks must stay away from 0."""
    if variant == "robin":
        big_f_pos = -1j * (fp_pos - h * f_pos)
        big_f_neg = -1j * (fp_neg - h * f_neg)
        return (big_f_pos + big_f_neg) / 2j - (h / (2.0 * ks)) * (big_f_pos - big_f_neg)
    return (f_pos - f_neg) / (2j * ks)


def _neville(zs, vals, z):
    """Polynomial interpolation through (zs, vals) evaluated at z."""
    v = list(vals)
    n = len(v)
    for m in range(1, n):
        for i in range(n - m):
            v[i] = ((z - zs[i + m]) * v[i] + (zs[i] - z) * v[i + 1]) / (zs[i] - zs[i + m])
    return v[0]


def _eval_d_small(p: Potential, k: complex, variant: str, rtol: float) -> complex:
    """D(k) for |k| < K_SMALL via extrapolation of the even function behind the 0/0.

    The odd-difference/k terms are even analytic in k, so they are interpolated
    in the variable k^2 from samples at |k| in {4,2,1.5,1}*K_SMALL on the same ray.
    """
    direction = k / abs(k) if abs(k) > 0 else 1.0 + 0j
    nodes = np.array([c * K_SMALL * direction for c in _RICHARDSON_FACTORS], dtype=complex)
    stack = np.concatenate([nodes, -nodes, [k, -k]])
    f, fp = jost_at_zero_many(p, stack, rtol=rtol)
    nf, nfp = f[:4], fp[:4]
    mf, mfp = f[4:8], fp[4:8]
    zs = nodes ** 2
    if variant == "robin":
        big_f_pos = -1j * (nfp - p.h * nf)
        big_f_neg = -1j * (mfp - p.h * mf)
        odd_over_k = (big_f_pos - big_f_neg) / nodes
        fk = -1j * (fp[8] - p.h * f[8])
        fmk = -1j * (fp[9] - p.h * f[9])
        even = (fk + fmk) / 2j
        return complex(even - (p.h / 2.0) * _neville(zs, odd_over_k, k * k))
    d_nodes = (nf - mf) / (2j * nodes)
    return complex(_neville(zs, d_nodes, k * k))


def eval_D_many(p: Potential, ks, variant: str = "robin", rtol: float = DEFAULT_RTOL) -> np.ndarray:
    """D over an array of k, with the stable small-k path for the removable 1/k terms.

    rtol bounds each Jost value, not D: far from the real axis D is a small
    difference of large Jost terms, and its relative error can exceed rtol.
    """
    _check_variant(variant)
    ks = np.atleast_1d(np.asarray(ks, dtype=complex))
    out = np.empty(ks.shape, dtype=complex)
    small = np.abs(ks) < K_SMALL
    if np.any(~small):
        idx = np.nonzero(~small)[0]
        stack = np.concatenate([ks[idx], -ks[idx]])
        f, fp = jost_at_zero_many(p, stack, rtol=rtol)
        nsel = idx.size
        out[idx] = _d_from_jost(ks[idx], f[:nsel], fp[:nsel], f[nsel:], fp[nsel:], variant, p.h)
    for i in np.nonzero(small)[0]:
        out[i] = _eval_d_small(p, complex(ks[i]), variant, rtol)
    return out


def sample_D_grid(p: Potential, variant: str, region, n: int, m: int,
                  rtol: float = DEFAULT_RTOL):
    """Evaluate D on an n x m grid over region = (sigma0, sigma1, tau0, tau1).

    Per-point failures (TspecError) are recorded on the sample rather than
    raised; used by the CLI field export. Points the Jost layer rejects
    (non-finite, or |Im k| above its cap) get their error without being
    evaluated; the rest go in one batch, point by point only if that batch
    fails.
    """
    _check_variant(variant)
    s0, s1, t0, t1 = (float(v) for v in region)
    sigmas = np.linspace(s0, s1, n)
    taus = np.linspace(t0, t1, m)
    points = (sigmas[:, None] + 1j * taus[None, :]).ravel()
    errors = ([None] * points.size if domain_error(points) is None
              else [domain_error(c) for c in points])
    ok = np.array([e is None for e in errors], dtype=bool)
    values = np.full(points.size, complex(np.nan, np.nan))
    try:
        values[ok] = eval_D_many(p, points[ok], variant=variant, rtol=rtol)
    except TspecError:
        for i in np.nonzero(ok)[0]:
            try:
                values[i] = eval_D_many(p, points[i:i + 1], variant=variant, rtol=rtol)[0]
            except TspecError as exc:
                errors[i] = exc
    return [CharFunSample(k=complex(c), value=complex(v),
                          error=None if e is None else f"{type(e).__name__}: {e}")
            for c, v, e in zip(points, values, errors)]


class DEvaluator:
    """Cached vectorized D(k) evaluator at a fixed tolerance.

    Pure and reentrant: repeated k hit the cache, so adaptive boundary
    refinement and box subdivision do not re-integrate shared points. The
    cache lives as long as the evaluator; only region scans repeat k (about
    a tenth of their points), targeted runs and validate do not.
    """

    def __init__(self, p: Potential, variant: str = "robin", rtol: float = DEFAULT_RTOL):
        _check_variant(variant)
        self.potential = p
        self.variant = variant
        self.rtol = rtol
        self._cache: dict = {}

    def __call__(self, ks):
        scalar = np.isscalar(ks) or getattr(ks, "ndim", 1) == 0
        arr = np.atleast_1d(np.asarray(ks, dtype=complex))
        out = np.empty(arr.shape, dtype=complex)
        missing = []
        missing_idx = []
        for i, k in enumerate(arr):
            kk = complex(k)
            hit = self._cache.get(kk)
            if hit is None:
                missing.append(kk)
                missing_idx.append(i)
            else:
                out[i] = hit
        if missing:
            vals = eval_D_many(self.potential, missing, variant=self.variant, rtol=self.rtol)
            for kk, v, i in zip(missing, vals, missing_idx):
                self._cache[kk] = complex(v)
                out[i] = v
        return complex(out[0]) if scalar else out

    def with_tolerance(self, rtol: float) -> "DEvaluator":
        return DEvaluator(self.potential, self.variant, rtol=rtol)
