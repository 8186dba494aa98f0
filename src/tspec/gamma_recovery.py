"""Recovery of the Hadamard normalization constant from eigenvalue data.

Builds the truncated zero product E(k) = k^{2s} prod(1 - k^2/lambda_n) from a
conjugate-closed eigenvalue list and estimates the constant linking it to the
characteristic function by three routes: the real-k limit tied to the mean of
the potential, the imaginary-axis endpoint-derivative limit, and a direct
single-point ratio used as ground truth whenever D itself is computable.

Truncation makes the raw limits drift like exp(c k^2) (the missing tail
factors), so the ladder extrapolations fit a log-domain model with an explicit
drift term instead of plain Richardson weights; the drop-last-rung refit gap
is reported as the truncation-error diagnostic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import DomainError, ProbeTooCloseError, UnstableLimitError
from .potential import PotentialScalars
from .rootfind import orbit

_CONJ_TOL = 1e-9
_DEFAULT_UNSTABLE_TOL = 0.05
_OMEGA_RUNGS = 5            # rungs of the omega route's doubling ladder
_PROBE_MIN_DISTANCE = 0.1   # closest a direct-route probe may come to a listed root


@dataclass(frozen=True)
class HadamardProduct:
    """Truncated zero product of an even entire function.

    lambdas holds the nonzero eigenvalues with multiplicity (repeats), closed
    under conjugation and sorted by ascending modulus; s is the multiplicity
    of the zero eigenvalue. E multiplies the factor of lambdas[first[i]] with
    that of its conjugate lambdas[second[i]] before the rest; second[i] is -1
    for a real lambda.
    """

    s: int
    lambdas: tuple
    first: np.ndarray = field(compare=False, repr=False)
    second: np.ndarray = field(compare=False, repr=False)

    @property
    def truncation(self) -> int:
        return len(self.lambdas)

    def sqrt_roots(self) -> np.ndarray:
        return np.sqrt(np.asarray(self.lambdas, dtype=complex))


def hadamard_product(lambdas, s: int = 0) -> HadamardProduct:
    """Validated constructor; rejects lists not closed under conjugation.

    Each complex lambda is paired with the first later unpaired entry within
    1e-9 max(1, |lambda|) of its conjugate; sorting by modulus keeps that
    entry close by.
    """
    arr = np.asarray(list(lambdas), dtype=complex)
    if not np.all(np.isfinite(arr)) or np.any(arr == 0):
        raise DomainError("eigenvalues must be finite and nonzero (zero goes into s)")
    arr = arr[np.argsort(np.abs(arr), kind="stable")]
    first, second = [], []
    used = np.zeros(arr.size, dtype=bool)
    for i in range(arr.size):
        if used[i]:
            continue
        used[i] = True
        first.append(i)
        second.append(-1)
        if abs(arr[i].imag) <= _CONJ_TOL * abs(arr[i]):
            continue
        target = np.conj(arr[i])
        for j in range(i + 1, arr.size):
            if not used[j] and abs(arr[j] - target) <= _CONJ_TOL * max(1.0, abs(target)):
                used[j] = True
                second[-1] = j
                break
        else:
            raise DomainError(f"eigenvalue list not closed under conjugation: {arr[i]} unpaired")
    return HadamardProduct(s=int(s), lambdas=tuple(complex(v) for v in arr),
                           first=np.array(first, dtype=int), second=np.array(second, dtype=int))


def from_eigenvalues(eigenvalues, s: int = 0) -> HadamardProduct:
    """Build the product from root-finder output (first-quadrant representatives).

    Quadrant zeros contribute the conjugate pair (lambda, lambda*); real and
    imaginary ones a single real lambda, each repeated per multiplicity.
    """
    lams = []
    for ev in eigenvalues:
        lam = complex(ev.k) ** 2
        for _ in range(ev.multiplicity):
            if ev.cls == "quadrant":
                lams.extend([lam, np.conj(lam)])
            else:
                lams.append(complex(lam.real, 0.0))
    return hadamard_product(lams, s=s)


def _paired_factors(hp: HadamardProduct, k: complex) -> np.ndarray:
    """Factors (1 - k^2/lambda), conjugate pairs multiplied together first.

    The pair product is spelled out in real arithmetic because numpy's
    vectorized complex multiply may fuse a*c - b*d into one rounding; then
    E(k) on the real axis keeps a rounding-level imaginary part.
    """
    facs = 1.0 - (k * k) / np.asarray(hp.lambdas, dtype=complex)
    out = facs[hp.first]
    pair = hp.second >= 0
    a, b = out[pair], facs[hp.second[pair]]
    out.real[pair] = a.real * b.real - a.imag * b.imag
    out.imag[pair] = a.real * b.imag + a.imag * b.real
    return out


def eval_E(hp: HadamardProduct, k) -> complex:
    """E(k) = k^{2s} prod (1 - k^2/lambda_n), pairs first, ascending |lambda|."""
    k = complex(k)
    return complex(k ** (2 * hp.s) * np.prod(_paired_factors(hp, k)))


def log_E(hp: HadamardProduct, k) -> complex:
    """log E(k) as a complex log-sum; overflow-free for large |k| on the axes."""
    k = complex(k)
    total = complex(np.sum(np.log(_paired_factors(hp, k))))
    if hp.s:
        total += 2 * hp.s * np.log(complex(k))
    return total


@dataclass
class GammaEstimate:
    """One recovered constant with its route and extrapolation diagnostics."""

    gamma: float
    route: str
    truncation: int
    probes: tuple
    diagnostics: dict


def _drift_fit(xs: np.ndarray, logvals: np.ndarray):
    """Least-squares fit of log v = log L + a*x^2 + b/x over the ladder."""
    A = np.stack([np.ones_like(xs), xs * xs, 1.0 / np.abs(xs)], axis=1)
    coef, *_ = np.linalg.lstsq(A, logvals, rcond=None)
    resid = float(np.max(np.abs(A @ coef - logvals)))
    return float(coef[0]), resid


def _extrapolate(xs: np.ndarray, logv: np.ndarray, signs: np.ndarray, route: str,
                 unstable_tol: float):
    """Drift-compensated limit of sign*exp(logv) over the ladder xs.

    The raw sequence carries an exp(c x^2) truncation drift, so plain
    Richardson in 1/x diverges; the log-domain model absorbs the drift and the
    drop-last-rung refit gap measures what the data cannot pin down. Working
    on logs end to end keeps tau down to -300 overflow-free.
    """
    if not np.all(np.isfinite(logv)):
        raise UnstableLimitError(f"{route}: ladder produced zero or non-finite values",
                                 diagnostics={"log_values": logv.tolist()})
    if not np.all(signs == signs[0]):
        raise UnstableLimitError(f"{route}: ladder values change sign (real zero crossed)",
                                 diagnostics={"log_values": logv.tolist(),
                                              "signs": signs.tolist()})
    log_l_full, resid_full = _drift_fit(xs, logv)
    log_l_drop, _ = _drift_fit(xs[:-1], logv[:-1])
    limit_full = float(signs[0] * math.exp(min(log_l_full, 700.0)))
    limit_drop = float(signs[0] * math.exp(min(log_l_drop, 700.0)))
    gap = abs(limit_full - limit_drop) / max(abs(limit_full), 1e-300)
    diagnostics = {
        "ladder": xs.tolist(),
        "log_values": logv.tolist(),
        "extrapolants": [limit_drop, limit_full],
        "gap": gap,
        "fit_residual": resid_full,
    }
    if gap > unstable_tol:
        raise UnstableLimitError(
            f"{route}: extrapolant gap {gap:.3g} exceeds {unstable_tol:.3g}",
            diagnostics=diagnostics)
    return limit_full, diagnostics


def _omega_ladder(hp: HadamardProduct, k0: Optional[float]):
    """k_j = k0 * 2^j with k0 snapped to multiples of pi/2, dodging eigenvalues.

    Multiples of pi/2 null the universal sin(2k)/4k oscillation of the
    characteristic function, leaving clean 1/k^2-type corrections.
    """
    rungs = _OMEGA_RUNGS
    mirrors = orbit(hp.sqrt_roots()).ravel()
    for m in range(1, 10):
        base = (m * math.pi / 2.0) if k0 is None else k0
        ks = np.array([base * 2 ** j for j in range(rungs)])
        if k0 is not None:
            return ks
        if mirrors.size == 0 or min(np.min(np.abs(ks[j] - mirrors)) for j in range(rungs)) > 0.2:
            return ks
    return np.array([(math.pi / 2.0) * 2 ** j for j in range(rungs)])


def gamma_from_omega(hp: HadamardProduct, scalars: PotentialScalars, variant: str = "robin",
                     *, k0: Optional[float] = None,
                     unstable_tol: float = _DEFAULT_UNSTABLE_TOL) -> GammaEstimate:
    """gamma = (omega/2) / lim E(k) (Robin) or (omega/2) / lim k^2 E(k) (Dirichlet),
    the limit taken along a real-k doubling ladder with drift-compensated
    extrapolation.
    """
    if abs(scalars.omega) < 1e-12:
        raise DomainError("the omega route needs a nonzero mean of the potential")
    if hp.truncation < 2:
        raise DomainError("need at least a handful of eigenvalues")
    ks = _omega_ladder(hp, k0)
    logs, signs = [], []
    for k in ks:
        le = log_E(hp, k)
        # Conjugate closure makes E real on the real axis; the imaginary part
        # of log E is then a multiple of pi fixing the sign.
        half_turns = le.imag / math.pi
        if abs(half_turns - round(half_turns)) > 1e-6:
            raise UnstableLimitError("E(k) not real on the real axis; list not conjugate-closed?",
                                     diagnostics={"k": k, "log_E": le})
        mag = le.real
        if variant == "dirichlet":
            mag += 2.0 * math.log(abs(k))
        logs.append(mag)
        signs.append((-1.0) ** (round(half_turns) % 2))
    route = "omega_limit" if variant == "robin" else "dirichlet_omega"
    limit, diagnostics = _extrapolate(np.asarray(ks), np.asarray(logs), np.asarray(signs),
                                      route, unstable_tol)
    gamma = 0.5 * scalars.omega / limit
    return GammaEstimate(gamma=float(gamma), route=route, truncation=hp.truncation,
                         probes=tuple(ks.tolist()), diagnostics=diagnostics)


def gamma_from_endpoint(hp: HadamardProduct, scalars: PotentialScalars, variant: str = "robin",
                        *, taus: Optional[Sequence[float]] = None,
                        unstable_tol: float = _DEFAULT_UNSTABLE_TOL) -> GammaEstimate:
    """gamma from the imaginary-axis decay rate set by the first nonvanishing
    endpoint derivative q^(m)(1).

    The ratio -q^(m)(1) e^{-2 tau} / (4 E(i tau) (2 tau)^{m+1}) (Robin; the
    Dirichlet variant drops the 1/4 and uses exponent m+3) is evaluated in log
    space along tau_j = -(4 + 2j) and extrapolated in 1/|tau|.
    """
    if scalars.m_order is None:
        raise DomainError("endpoint route needs a known nonzero q^(m)(1)")
    m, qm = scalars.m_order
    if taus is None:
        taus = [-(4.0 + 2.0 * j) for j in range(5)]
    taus = np.asarray(taus, dtype=float)
    if taus.size < 2:
        raise DomainError("endpoint route needs at least two taus")
    if np.any(taus >= 0):
        raise DomainError("tau ladder must be negative")
    expo = m + 1 if variant == "robin" else m + 3
    quarter = math.log(4.0) if variant == "robin" else 0.0
    logs, signs = [], []
    for tau in taus:
        le = log_E(hp, 1j * tau)
        logs.append(math.log(abs(qm)) - 2.0 * tau - quarter
                    - expo * math.log(abs(2.0 * tau)) - le.real)
        sign = -math.copysign(1.0, qm) * math.copysign(1.0, math.cos(le.imag))
        sign *= (-1.0) ** expo  # (2 tau)^expo with tau < 0
        signs.append(sign)
    route = "endpoint_limit" if variant == "robin" else "dirichlet_endpoint"
    limit, diagnostics = _extrapolate(np.abs(taus), np.asarray(logs), np.asarray(signs),
                                      route, unstable_tol)
    return GammaEstimate(gamma=float(limit), route=route, truncation=hp.truncation,
                         probes=tuple(taus.tolist()), diagnostics=diagnostics)


def gamma_direct(d_evaluator: Callable, hp: HadamardProduct, probe_k: float) -> GammaEstimate:
    """Single-point ratio D(k0)/E(k0); ground truth for the limit routes."""
    probe = complex(probe_k)
    if hp.truncation:
        dist = float(np.min(np.abs(probe - orbit(hp.sqrt_roots()))))
        if dist <= _PROBE_MIN_DISTANCE:
            raise ProbeTooCloseError(f"probe {probe} is {dist:.3g} from a listed root")
    d_val = complex(np.asarray(d_evaluator(np.array([probe])), dtype=complex)[0])
    e_val = eval_E(hp, probe)
    ratio = d_val / e_val
    return GammaEstimate(gamma=float(ratio.real), route="direct", truncation=hp.truncation,
                         probes=(probe_k,),
                         diagnostics={"D": d_val, "E": e_val, "imag_part": ratio.imag})
