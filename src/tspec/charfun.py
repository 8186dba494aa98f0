"""The entire characteristic function D(k) for the Robin and Dirichlet problems.

With F(k) = -i[f'(k,0) - h f(k,0)], D is (F(k) + F(-k))/2i - h (F(k) - F(-k))/2k
(Robin) or (f(k,0) - f(-k,0))/2ik (Dirichlet); its zeros are the square roots
of the transmission eigenvalues. Both are read from the backward transfer
matrix M(k^2) of :mod:`tspec.jost`, in which the 1/k cancels in closed form,
so one expression serves every k, k = 0 included.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DomainError, IntegrationFailureError, TspecError
from .jost import DEFAULT_RTOL, domain_error, transfer_many
from .potential import VARIANTS, Potential


@dataclass(frozen=True)
class CharFunSample:
    """One grid sample k -> D(k), with the error text if the point failed."""

    k: complex
    value: complex
    error: Optional[str] = None


def _check_variant(variant: str):
    if variant not in VARIANTS:
        raise DomainError(f"variant must be one of {VARIANTS}, got {variant!r}")


def eval_D_many(p: Potential, ks, variant: str = "robin", rtol: float = DEFAULT_RTOL) -> np.ndarray:
    """D over an array of k, read from M(k^2) by one closed form.

    With a = m10 - h m00, b = m11 - h m01 and sinc k = sin(k)/k (1 at 0),
    Robin D = b (k sin k - h cos k) - a (cos k + h sinc k) and Dirichlet
    D = m00 sinc k + m01 cos k: the definitions with the 1/k divided out.

    rtol bounds each Jost value, not D: far from the real axis D is a small
    difference of large Jost terms, and its relative error can exceed rtol.
    A D that overflows (a huge h, say) raises IntegrationFailureError.
    """
    _check_variant(variant)
    ks = np.atleast_1d(np.asarray(ks, dtype=complex))
    m00, m01, m10, m11 = transfer_many(p, ks, rtol=rtol)
    sin, cos = np.sin(ks), np.cos(ks)
    sinc = sin / ks if ks.all() else np.divide(sin, ks, out=np.ones_like(ks), where=ks != 0)
    with np.errstate(over="ignore", invalid="ignore"):
        if variant == "dirichlet":
            d = m00 * sinc + m01 * cos
        else:
            d = (m11 - p.h * m01) * (ks * sin - p.h * cos) - (m10 - p.h * m00) * (cos + p.h * sinc)
    finite = np.isfinite(d)
    if not finite.all():
        raise IntegrationFailureError(f"D(k) is not finite at k = {ks[~finite][0]}: "
                                      "its closed form overflows")
    return d


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
    """Vectorized D(k) evaluator at a fixed tolerance: a scalar k gives a complex, an
    array gives an array. Pure and reentrant; each call is one :func:`eval_D_many`."""

    def __init__(self, p: Potential, variant: str = "robin", rtol: float = DEFAULT_RTOL):
        _check_variant(variant)
        self.potential = p
        self.variant = variant
        self.rtol = rtol

    def __call__(self, ks):
        vals = eval_D_many(self.potential, ks, variant=self.variant, rtol=self.rtol)
        return complex(vals[0]) if np.ndim(ks) == 0 else vals

    def with_tolerance(self, rtol: float) -> "DEvaluator":
        return DEvaluator(self.potential, self.variant, rtol=rtol)
