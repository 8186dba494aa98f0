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
from dataclasses import dataclass
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


@dataclass(frozen=True, eq=False)
class HadamardProduct:
    """Truncated zero product of an even entire function, stored as its
    conjugate half.

    roots holds one nonzero eigenvalue per factor group with multiplicity
    (repeats), sorted stably by ascending modulus; paired[i] says roots[i]
    stands for the conjugate pair (roots[i], roots[i]*), else it is one real
    factor. s is the multiplicity of the zero eigenvalue. Both arrays are
    read-only.
    """

    s: int
    roots: np.ndarray
    paired: np.ndarray

    def __post_init__(self):
        self.roots.flags.writeable = False
        self.paired.flags.writeable = False

    @property
    def truncation(self) -> int:
        return int(self.roots.size + np.count_nonzero(self.paired))


def _modulus_order(lams: np.ndarray) -> np.ndarray:
    """The stable order of lams by ascending modulus, once each modulus is
    checked finite and nonzero (finite parts can have an infinite one)."""
    mods = np.abs(lams)
    if not np.all(np.isfinite(mods)) or np.any(mods == 0):
        raise DomainError("eigenvalues must be finite and nonzero (zero goes into s)")
    return np.argsort(mods, kind="stable")


def hadamard_product(lambdas, s: int = 0) -> HadamardProduct:
    """Validated constructor; rejects lists not closed under conjugation.

    In ascending modulus, each complex lambda takes the first later unpaired
    entry within 1e-9 max(1, |lambda|) of its conjugate as its partner, and
    the pair is kept as lambda alone.
    """
    lams = np.asarray(list(lambdas), dtype=complex)
    rest = lams[_modulus_order(lams)].tolist()
    roots, paired = [], []
    while rest:
        lam = rest.pop(0)
        roots.append(lam)
        paired.append(abs(lam.imag) > _CONJ_TOL * abs(lam))
        if paired[-1]:
            target, tol = lam.conjugate(), _CONJ_TOL * max(1.0, abs(lam))
            partner = next((j for j, mu in enumerate(rest) if abs(mu - target) <= tol), None)
            if partner is None:
                raise DomainError(f"eigenvalue list not closed under conjugation: {lam} unpaired")
            del rest[partner]
    return HadamardProduct(s=int(s), roots=np.array(roots, dtype=complex),
                           paired=np.array(paired, dtype=bool))


def _square(ks: np.ndarray) -> np.ndarray:
    """complex(k) ** 2 for each k, to the bit: CPython squares as
    (1 + 0j) * (k * k), each product spelled out in real arithmetic, while
    numpy's complex multiply may fuse a*c - b*d into one rounding."""
    re, im = ks.real, ks.imag
    pr, pi = re * re - im * im, re * im + im * re
    out = np.empty_like(ks)
    out.real, out.imag = pr - 0.0 * pi, pi + 0.0 * pr
    return out


def from_representatives(ks, multiplicity, cls, s: int = 0) -> HadamardProduct:
    """Build the product from first-quadrant representatives as columns: k,
    multiplicity and class per zero (pipeline.eigenvalues_from_columns).

    A quadrant zero k stands for the conjugate pair (k^2, k^2*); real and
    imaginary ones for a single real lambda, each repeated per multiplicity.
    """
    quadrant = np.array([c == "quadrant" for c in cls], dtype=bool)
    with np.errstate(over="ignore", invalid="ignore"):   # inf fails in _modulus_order
        lam = _square(np.asarray(ks, dtype=complex))
    lam.imag[~quadrant] = 0.0
    mult = np.asarray(multiplicity, dtype=int)
    lam, paired = np.repeat(lam, mult), np.repeat(quadrant, mult)
    order = _modulus_order(lam)
    return HadamardProduct(s=int(s), roots=lam[order], paired=paired[order])


def from_eigenvalues(eigenvalues, s: int = 0) -> HadamardProduct:
    """from_representatives on root-finder output (a list of Eigenvalue)."""
    evs = list(eigenvalues)
    return from_representatives([ev.k for ev in evs], [ev.multiplicity for ev in evs],
                                [ev.cls for ev in evs], s)


def _paired_factors(hp: HadamardProduct, k: complex) -> np.ndarray:
    """Factors (1 - k^2/lambda), each conjugate pair's two multiplied together.

    The pair product is spelled out in real arithmetic because numpy's
    vectorized complex multiply may fuse a*c - b*d into one rounding; then
    E(k) on the real axis keeps a rounding-level imaginary part.
    """
    pair = hp.paired
    out = 1.0 - (k * k) / hp.roots
    a, b = out[pair], 1.0 - (k * k) / np.conj(hp.roots[pair])
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
    if max(abs(log_l_full), abs(log_l_drop)) > 700.0:
        raise UnstableLimitError(f"{route}: the limit exp({log_l_full:.4g}) is past the float "
                                 "range", diagnostics={"log_values": logv.tolist()})
    limit_full = float(signs[0] * math.exp(log_l_full))
    limit_drop = float(signs[0] * math.exp(log_l_drop))
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
    mirrors = orbit(np.sqrt(hp.roots)).ravel()
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
    mirrors = orbit(np.sqrt(hp.roots)).ravel()
    for k0 in (_DIRECT_PROBE_CANDIDATES if probe_k is None else (probe_k,)):
        dist = float(np.min(np.abs(k0 - mirrors), initial=math.inf))
        if dist > _PROBE_MIN_DISTANCE:
            break
    else:
        raise ProbeTooCloseError(f"probe {k0} is {dist:.3g} from a listed root")
    probe = complex(k0)
    d_val = complex(np.asarray(d_evaluator(np.array([probe])), dtype=complex)[0])
    try:
        e_val = eval_E(hp, probe)
        ratio = d_val / e_val
    except (OverflowError, ZeroDivisionError):     # k0^(2s) past the float range, or E = 0
        ratio = complex(math.inf)
    if not np.isfinite(ratio):
        raise DomainError(f"E({k0}) = {k0}^{2 * hp.s} prod(1 - k0^2/lambda) leaves the float "
                          f"range (s = {hp.s}), so D/E is not finite")
    return GammaEstimate(gamma=float(ratio.real), route="direct", truncation=hp.truncation,
                         probes=(k0,),
                         diagnostics={"D": d_val, "E": e_val, "imag_part": ratio.imag})
