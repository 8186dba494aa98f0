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
from typing import Callable, Optional

import numpy as np

from .errors import DomainError, ProbeTooCloseError, UnstableLimitError
from .potential import PotentialScalars
from .rootfind import orbit

_CONJ_TOL = 1e-9
_DEFAULT_UNSTABLE_TOL = 0.05
_ENDPOINT_TAUS = (-4.0, -6.0, -8.0, -10.0, -12.0)
_DIRECT_PROBE_CANDIDATES = (0.37, 0.71, 0.53, 1.13, 1.91)
_PROBE_MIN_DISTANCE = 0.1   # closest a direct-route probe may come to a listed root


@dataclass(frozen=True)
class HadamardProduct:
    """Truncated zero product of an even entire function.

    lambdas holds the nonzero eigenvalues with multiplicity (repeats), closed
    under conjugation and sorted by ascending modulus; s is the multiplicity
    of the zero eigenvalue. E multiplies the factor of lambdas[first[i]] with
    that of its conjugate lambdas[second[i]] before the rest; second[i] is -1
    for a real lambda. lambda_array holds lambdas as a read-only complex array.
    """

    s: int
    lambdas: tuple
    first: np.ndarray = field(compare=False, repr=False)
    second: np.ndarray = field(compare=False, repr=False)
    lambda_array: Optional[np.ndarray] = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if self.lambda_array is None:
            object.__setattr__(self, "lambda_array", np.array(self.lambdas, dtype=complex))
        self.lambda_array.flags.writeable = False

    @property
    def truncation(self) -> int:
        return len(self.lambdas)

    def sqrt_roots(self) -> np.ndarray:
        return np.sqrt(self.lambda_array)


def _adjacent_pairs(lams: np.ndarray):
    """The (first, second) pairing of sorted lams when each non-real entry's
    partner is the entry right after it, else None.

    It is the greedy loop's pairing (_greedy_pairs) whenever it returns one:
    the loop takes the first unused entry within tolerance, which the entry
    right after an unpaired one is. np.hypot is the C hypot that abs(complex)
    is, so the tests here are the loop's to the bit (np.abs on complex
    numbers is not). A modulus that overflows is left to the loop, which
    raises OverflowError on it.
    """
    mods = np.hypot(lams.real, lams.imag)
    if not np.all(np.isfinite(mods)):
        return None
    real = np.abs(lams.imag) <= _CONJ_TOL * mods
    at = np.arange(lams.size)
    # Within each run of non-real entries, the even places open a pair.
    run_start = np.maximum.accumulate(np.where(real, at, -1)) + 1
    opens = ~real & ((at - run_start) % 2 == 0)
    a = np.flatnonzero(opens)
    b = a + 1
    if b.size and (b[-1] == lams.size or np.any(real[b])):
        return None
    with np.errstate(over="ignore"):      # an infinite gap pairs nothing, as in the loop
        gap = lams[b] - np.conj(lams[a])
    if not np.all(np.hypot(gap.real, gap.imag) <= _CONJ_TOL * np.maximum(1.0, mods[a])):
        return None
    first = np.flatnonzero(real | opens)
    second = np.where(opens[first], first + 1, -1)
    return first, second


def _greedy_pairs(lams: list):
    """Pair each complex lambda of the sorted list with the first later unpaired
    entry within 1e-9 max(1, |lambda|) of its conjugate."""
    first, second = [], []
    used = [False] * len(lams)
    for i, lam in enumerate(lams):
        if used[i]:
            continue
        used[i] = True
        first.append(i)
        second.append(-1)
        if abs(lam.imag) <= _CONJ_TOL * abs(lam):
            continue
        target = lam.conjugate()
        tol = _CONJ_TOL * max(1.0, abs(target))
        for j in range(i + 1, len(lams)):
            if not used[j] and abs(lams[j] - target) <= tol:
                used[j] = True
                second[-1] = j
                break
        else:
            raise DomainError(f"eigenvalue list not closed under conjugation: {lam} unpaired")
    return np.array(first, dtype=int), np.array(second, dtype=int)


def hadamard_product(lambdas, s: int = 0) -> HadamardProduct:
    """Validated constructor; rejects lists not closed under conjugation.

    Each complex lambda is paired with the first later unpaired entry within
    1e-9 max(1, |lambda|) of its conjugate; sorting by modulus keeps that
    entry close by, and where it is always the next entry the pairs are
    taken in one vectorised pass.
    """
    arr = np.asarray(lambdas if isinstance(lambdas, np.ndarray) else list(lambdas),
                     dtype=complex)
    if not np.all(np.isfinite(arr)) or np.any(arr == 0):
        raise DomainError("eigenvalues must be finite and nonzero (zero goes into s)")
    lams = arr[np.argsort(np.abs(arr), kind="stable")]
    as_list = lams.tolist()
    first, second = _adjacent_pairs(lams) or _greedy_pairs(as_list)
    return HadamardProduct(s=int(s), lambdas=tuple(as_list), first=first, second=second,
                           lambda_array=lams)


def _square(ks: np.ndarray) -> np.ndarray:
    """complex(k) ** 2 for each k, to the bit: CPython squares as
    (1 + 0j) * (k * k), each product spelled out in real arithmetic, while
    numpy's complex multiply may fuse a*c - b*d into one rounding."""
    re, im = ks.real, ks.imag
    pr, pi = re * re - im * im, re * im + im * re
    out = np.empty_like(ks)
    out.real, out.imag = pr - 0.0 * pi, pi + 0.0 * pr
    return out


def from_eigenvalues(eigenvalues, s: int = 0) -> HadamardProduct:
    """Build the product from root-finder output (first-quadrant representatives).

    Quadrant zeros contribute the conjugate pair (lambda, lambda*); real and
    imaginary ones a single real lambda, each repeated per multiplicity.
    """
    eigenvalues = list(eigenvalues)
    ks = np.array([ev.k for ev in eigenvalues], dtype=complex)
    mult = np.array([ev.multiplicity for ev in eigenvalues], dtype=int)
    quadrant = np.array([ev.cls == "quadrant" for ev in eigenvalues], dtype=bool)
    with np.errstate(over="ignore", invalid="ignore"):   # inf fails in hadamard_product
        lam = _square(ks)
    lam.imag[~quadrant] = 0.0
    # Row i is (lambda_i, lambda_i*), the second kept for quadrant zeros only.
    pairs = np.stack([lam, np.conj(lam)], axis=1)
    keep = np.stack([np.ones_like(quadrant), quadrant], axis=1)
    return hadamard_product(np.repeat(pairs, mult, axis=0)[np.repeat(keep, mult, axis=0)], s=s)


def _paired_factors(hp: HadamardProduct, k: complex) -> np.ndarray:
    """Factors (1 - k^2/lambda), conjugate pairs multiplied together first.

    The pair product is spelled out in real arithmetic because numpy's
    vectorized complex multiply may fuse a*c - b*d into one rounding; then
    E(k) on the real axis keeps a rounding-level imaginary part.
    """
    facs = 1.0 - (k * k) / hp.lambda_array
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


def _extrapolate(xs: np.ndarray, logv: np.ndarray, signs: np.ndarray, route: str):
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
    if gap > _DEFAULT_UNSTABLE_TOL:
        raise UnstableLimitError(
            f"{route}: extrapolant gap {gap:.3g} exceeds {_DEFAULT_UNSTABLE_TOL:.3g}",
            diagnostics=diagnostics)
    return limit_full, diagnostics


def _omega_ladder(hp: HadamardProduct, variant: str) -> np.ndarray:
    """k = m pi 2^j up to 8 m pi, from m pi (Robin) or m pi/2 (Dirichlet).

    Multiples of pi/2 null the universal sin(2k)/4k oscillation of D; Robin
    skips pi/2, where cos 2k = -1 flips its h cos(2k)/k term. m is the
    smallest whose rungs all stay 0.2 clear of the roots.
    """
    powers = 2.0 ** np.arange(0 if variant == "robin" else -1, 4)
    mirrors = orbit(hp.sqrt_roots()).ravel()
    for m in range(1, 10):
        ks = m * math.pi * powers
        if np.min(np.abs(ks[:, None] - mirrors)) > 0.2:
            return ks
    raise UnstableLimitError("omega route: no ladder m pi 2^j with m < 10 clears the roots by 0.2")


def _log_abs_sign(hp: HadamardProduct, k: complex):
    """(log|E(k)|, sign E(k)) on an axis, where conjugate closure makes E real
    and Im log E a multiple of pi."""
    le = log_E(hp, k)
    half_turns = le.imag / math.pi
    if abs(half_turns - round(half_turns)) > 1e-6:
        raise UnstableLimitError("E(k) not real on the axes; list not conjugate-closed?",
                                 diagnostics={"k": k, "log_E": le})
    return le.real, (-1.0) ** (round(half_turns) % 2)


def gamma_from_omega(hp: HadamardProduct, scalars: PotentialScalars,
                     variant: str = "robin") -> GammaEstimate:
    """gamma = (omega/2) / lim E(k) (Robin) or (omega/2) / lim k^2 E(k) (Dirichlet),
    the limit taken along a real-k doubling ladder with drift-compensated
    extrapolation.
    """
    if abs(scalars.omega) < 1e-12:
        raise DomainError("the omega route needs a nonzero mean of the potential")
    if hp.truncation < 2:
        raise DomainError("need at least a handful of eigenvalues")
    ks = _omega_ladder(hp, variant)
    logs, signs = [], []
    for k in ks:
        log_abs, sign = _log_abs_sign(hp, k)
        if variant == "dirichlet":
            log_abs += 2.0 * math.log(k)
        logs.append(log_abs)
        signs.append(sign)
    route = "omega_limit" if variant == "robin" else "dirichlet_omega"
    limit, diagnostics = _extrapolate(ks, np.asarray(logs), np.asarray(signs), route)
    gamma = 0.5 * scalars.omega / limit
    return GammaEstimate(gamma=float(gamma), route=route, truncation=hp.truncation,
                         probes=tuple(ks.tolist()), diagnostics=diagnostics)


def gamma_from_endpoint(hp: HadamardProduct, scalars: PotentialScalars,
                        variant: str = "robin") -> GammaEstimate:
    """gamma from the imaginary-axis decay rate set by the first nonvanishing
    endpoint derivative q^(m)(1).

    The ratio -q^(m)(1) e^{-2 tau} / (4 E(i tau) (2 tau)^{m+1}) (Robin; the
    Dirichlet variant drops the 1/4 and uses exponent m+3) is evaluated in log
    space along _ENDPOINT_TAUS and extrapolated in 1/|tau|.
    """
    if scalars.m_order is None:
        raise DomainError("endpoint route needs a known nonzero q^(m)(1)")
    m, qm = scalars.m_order
    taus = np.asarray(_ENDPOINT_TAUS, dtype=float)
    expo = m + 1 if variant == "robin" else m + 3
    quarter = math.log(4.0) if variant == "robin" else 0.0
    logs, signs = [], []
    for tau in taus:
        log_abs, sign = _log_abs_sign(hp, 1j * tau)
        logs.append(math.log(abs(qm)) - 2.0 * tau - quarter
                    - expo * math.log(abs(2.0 * tau)) - log_abs)
        signs.append(-math.copysign(1.0, qm) * sign * (-1.0) ** expo)  # (2 tau)^expo, tau < 0
    route = "endpoint_limit" if variant == "robin" else "dirichlet_endpoint"
    limit, diagnostics = _extrapolate(np.abs(taus), np.asarray(logs), np.asarray(signs), route)
    return GammaEstimate(gamma=float(limit), route=route, truncation=hp.truncation,
                         probes=tuple(taus.tolist()), diagnostics=diagnostics)


def gamma_direct(d_evaluator: Callable, hp: HadamardProduct,
                 probe_k: Optional[float] = None) -> GammaEstimate:
    """Single-point ratio D(k0)/E(k0); ground truth for the limit routes.

    k0 must lie farther than _PROBE_MIN_DISTANCE from every root mirror; by
    default it is the first of _DIRECT_PROBE_CANDIDATES that does.
    """
    mirrors = orbit(hp.sqrt_roots()).ravel()
    for k0 in (_DIRECT_PROBE_CANDIDATES if probe_k is None else (probe_k,)):
        dist = float(np.min(np.abs(k0 - mirrors), initial=math.inf))
        if dist > _PROBE_MIN_DISTANCE:
            break
    else:
        raise ProbeTooCloseError(f"probe {k0} is {dist:.3g} from a listed root")
    probe = complex(k0)
    d_val = complex(np.asarray(d_evaluator(np.array([probe])), dtype=complex)[0])
    e_val = eval_E(hp, probe)
    ratio = d_val / e_val
    return GammaEstimate(gamma=float(ratio.real), route="direct", truncation=hp.truncation,
                         probes=(k0,),
                         diagnostics={"D": d_val, "E": e_val, "imag_part": ratio.imag})
