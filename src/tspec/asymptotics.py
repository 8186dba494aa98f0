"""Closed-form asymptotic machinery for the transmission eigenvalue distribution.

Covers the leading function g1(k) = 4ik*omega + q(1)(e^{2ik} - e^{-2ik}), the
asymptotic location of its zeros mu_n (with Newton polish to machine accuracy),
the transcendental equation z - kappa*log z = w behind those formulas, the
per-theorem eigenvalue predictions, and residual reports of computed spectra
against them.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace
from typing import List, Optional, Sequence

import numpy as np

from .errors import DomainError, HypothesisMismatchError, TspecError, UnstableLimitError
from .potential import PotentialScalars, q_constants
from .rootfind import find_zeros, newton_refine_many

THEOREM_TAGS = ("T41i_W21", "T41i_W22", "T41ii_W21", "T41ii_W22",
                "T42i", "T42ii", "Dirichlet_i", "Dirichlet_ii")

_ZERO_TOL = 1e-9
_TRANSCENDENTAL_MAX_ITER = 50
_TRANSCENDENTAL_TOL = 1e-12


def vanishing(scalars: PotentialScalars):
    """(omega = 0, q(1) = 0, q'(1) = 0): the tests that select the theorem case.

    Each scalar counts as zero below 1e-9 max(|omega|, |q(1)|, |q'(1)|, 1e-12).
    """
    scale = max(abs(scalars.omega), abs(scalars.q_at_1), abs(scalars.dq_at_1), 1e-12)
    return tuple(abs(v) < _ZERO_TOL * scale
                 for v in (scalars.omega, scalars.q_at_1, scalars.dq_at_1))


def _dirichlet_flip(scalars: PotentialScalars) -> PotentialScalars:
    """The Dirichlet leading function flips the sign of q(1) and q'(1) against Robin."""
    return replace(scalars, q_at_1=-scalars.q_at_1, dq_at_1=-scalars.dq_at_1)


@dataclass
class TranscendentalProblem:
    """One solved instance of z - kappa*log z = w (log z continued from Log w)."""

    kappa: complex
    w: complex
    z: complex
    residual: float
    seed: complex


def solve_transcendental(kappa, w) -> TranscendentalProblem:
    """Solve z - kappa*log z = w for large |w|, seeded from the expansion
    z = w + kappa log w + kappa^2 log w / w.

    log z is continued from the seed's branch, log z = Log w + Log(z / w):
    z / w stays near 1, whereas the principal Log z jumps by 2 pi i where z
    and w straddle the negative real axis.
    Unlike every other Newton polish in the package, this one does not go
    through :func:`tspec.rootfind.newton_refine_many`: it stops on the
    residual |z - kappa log z - w| < 1e-12, and it takes the analytic
    derivative 1 - kappa/z.
    """
    kappa = complex(kappa)
    w = complex(w)
    if kappa == 0:
        return TranscendentalProblem(kappa, w, w, 0.0, w)
    guard = max(10.0, 4.0 * abs(kappa) * math.log(max(abs(w), 2.0)))
    if abs(w) <= guard:
        raise DomainError(f"|w|={abs(w):.3g} below the asymptotic validity guard {guard:.3g}")
    logw = cmath.log(w)
    seed = w + kappa * logw + kappa * kappa * logw / w
    z = seed
    tol = _TRANSCENDENTAL_TOL
    for _ in range(_TRANSCENDENTAL_MAX_ITER):
        g = z - kappa * (logw + cmath.log(z / w)) - w
        if abs(g) < tol:
            return TranscendentalProblem(kappa, w, z, abs(g), seed)
        z = z - g / (1.0 - kappa / z)
    g = z - kappa * (logw + cmath.log(z / w)) - w
    if abs(g) < tol:
        return TranscendentalProblem(kappa, w, z, abs(g), seed)
    raise UnstableLimitError(f"Newton did not reach residual {tol} in "
                             f"{_TRANSCENDENTAL_MAX_ITER} steps",
                             diagnostics={"kappa": kappa, "w": w, "z": z, "residual": abs(g)})


def eval_g1(scalars: PotentialScalars, k):
    """g1(k) = 4ik*omega + q(1)(e^{2ik} - e^{-2ik})."""
    karr = np.asarray(k, dtype=complex)
    out = 4j * karr * scalars.omega + scalars.q_at_1 * (np.exp(2j * karr) - np.exp(-2j * karr))
    return complex(out) if out.ndim == 0 else out


def _g1_over_k(scalars: PotentialScalars):
    """Entire evaluator g1(k)/k with the removable value 4i(omega + q(1)) at 0."""
    w, q1 = scalars.omega, scalars.q_at_1

    def f(ks):
        karr = np.atleast_1d(np.asarray(ks, dtype=complex))
        out = np.empty(karr.shape, dtype=complex)
        tiny = np.abs(karr) < 1e-4
        big = ~tiny
        kb = karr[big]
        out[big] = (4j * kb * w + q1 * (np.exp(2j * kb) - np.exp(-2j * kb))) / kb
        kt = karr[tiny]
        # sin(2k)/k = 2 - (4/3)k^2 + (4/15)k^4 - ...
        out[tiny] = 4j * w + 2j * q1 * (2.0 - (4.0 / 3.0) * kt ** 2 + (4.0 / 15.0) * kt ** 4)
        return out

    return f


@dataclass
class LeadingZeros:
    """First-quadrant zeros mu_n of g1(k)/k."""

    case_tag: str
    ns: List[int]
    mu_n: List[complex]
    polished: List[bool]


def _case_tag(scalars: PotentialScalars) -> str:
    omega_zero, q1_zero, _ = vanishing(scalars)
    if q1_zero:
        raise DomainError("leading-zero asymptotics require q(1) != 0")
    if omega_zero:
        return "omega_zero"
    return "ratio_positive" if scalars.q_at_1 / scalars.omega > 0 else "ratio_negative"


def _small_leading_zeros(scalars: PotentialScalars, tau_hi: float):
    """Zeros of g1/k with 0 <= Re k < pi, found by box search (no formula seed)."""
    res = find_zeros(_g1_over_k(scalars), (-0.1, math.pi * 1.02, -0.1, tau_hi), max_depth=24)
    return sorted((ev.k for ev in res.zeros), key=abs)


def leading_zeros(scalars: PotentialScalars, n_max: int, include_small: bool = False) -> LeadingZeros:
    """mu_n for n = 1..n_max from the asymptotic formulas, Newton-polished on g1.

    include_small adds the n = 0 zero (located by box search; the formulas
    only cover n >= 1). For omega = 0 the zeros are exactly n*pi/2.
    """
    tag = _case_tag(scalars)
    ns, mus, pol = [], [], []
    if tag == "omega_zero":
        for n in range(1, n_max + 1):
            ns.append(n)
            mus.append(complex(n * math.pi / 2.0))
            pol.append(True)
        return LeadingZeros(tag, ns, mus, pol)
    w, q1 = scalars.omega, scalars.q_at_1
    if include_small:
        tau_cap = 0.5 * (math.log(2 * math.pi) + abs(math.log(abs(q1 / (2 * w))))) + 2.0
        smalls = _small_leading_zeros(scalars, max(2.0, tau_cap))
        if smalls:
            ns.append(0)
            mus.append(smalls[0])
            pol.append(True)
    n_all = np.arange(1, n_max + 1)
    if tag == "ratio_negative":
        b_all = np.log(2 * n_all * math.pi) - math.log(-q1 / (2 * w)) - 0.5j * math.pi
    else:
        b_all = np.log(2 * n_all * math.pi) - math.log(q1 / (2 * w)) - 1.5j * math.pi
    seeds = n_all * math.pi + 0.5j * b_all - b_all / (4 * n_all * math.pi)
    roots, conv = newton_refine_many(lambda ks: eval_g1(scalars, ks), seeds, tol=1e-13,
                                     max_iter=40)
    conv &= np.abs(roots - seeds) <= 2.0
    polished = zip(n_all.tolist(), seeds.tolist(), roots.tolist(), conv.tolist())
    for n, seed, z, ok in polished:
        if not ok:
            box = (n * math.pi, (n + 1) * math.pi, 0.0, math.log(2 * n * math.pi) + 2.0)
            try:
                res = find_zeros(_g1_over_k(scalars), box, max_depth=18)
                near = min((ev.k for ev in res.zeros), key=lambda kk: abs(kk - seed), default=None)
            except TspecError:
                near = None
            if near is not None:
                z, ok = near, True
            else:
                z, ok = seed, False
        ns.append(n)
        mus.append(z)
        pol.append(ok)
    return LeadingZeros(tag, ns, mus, pol)


@dataclass
class DegeneratePair:
    """Candidate non-simple zeros of g1 (at most one real or imaginary pair)."""

    mu: tuple
    kind: str          # "real" | "imaginary"
    genuine: bool      # candidate also satisfies the double-zero system


def g1_degenerate_zeros(scalars: PotentialScalars) -> Optional[DegeneratePair]:
    """The candidate double-zero pair of g1, when the ratio omega/q(1) allows one.

    Ratio > 1 admits none; |ratio| <= 1 gives the real pair, ratio < -1 the
    imaginary pair. Candidates are checked against the double-zero system
    (sin and cos conditions) and flagged genuine/spurious.
    """
    omega_zero, q1_zero, _ = vanishing(scalars)
    if omega_zero or q1_zero:
        raise DomainError("degenerate-zero candidates need omega != 0 and q(1) != 0")
    w, q1 = scalars.omega, scalars.q_at_1
    ratio = w / q1
    if ratio > 1.0:
        return None
    if abs(ratio) <= 1.0:
        mu = math.sqrt(q1 * q1 / (w * w) - 1.0) / 2.0
        pair = (complex(mu), complex(-mu))
        kind = "real"
    else:
        mu = math.sqrt(1.0 - q1 * q1 / (w * w)) / 2.0
        pair = (complex(0, mu), complex(0, -mu))
        kind = "imaginary"
    mu0 = pair[0]
    sin_ok = abs(cmath.sin(2 * mu0) + 2 * w * mu0 / q1) < 1e-9 * max(1.0, abs(mu0))
    cos_ok = abs(cmath.cos(2 * mu0) + w / q1) < 1e-9
    return DegeneratePair(mu=pair, kind=kind, genuine=bool(sin_ok and cos_ok))


@dataclass
class AsymptoticPrediction:
    """Predicted sqrt-eigenvalues per one theorem case.

    values[i] = mus[i] + corrections[i]; branches is None-filled except for
    the split +/- pairs of the omega = 0, q(1) = 0 case.
    """

    theorem_tag: str
    ns: List[int]
    values: List[complex]
    mus: List[complex]
    corrections: List[complex]
    constants: dict
    branches: List[Optional[int]]


def _require(cond: bool, tag: str, msg: str):
    if not cond:
        raise HypothesisMismatchError(f"{tag}: {msg}")


def predict_eigenvalues(scalars: PotentialScalars, theorem_tag: str,
                        n_range: Sequence[int]) -> AsymptoticPrediction:
    """sqrt(lambda_n) predictions with all correction constants for one theorem tag."""
    if theorem_tag not in THEOREM_TAGS:
        raise DomainError(f"unknown theorem tag {theorem_tag!r}; expected one of {THEOREM_TAGS}")
    ns = [int(n) for n in n_range]
    if any(n < 1 for n in ns):
        raise DomainError("predictions are defined for n >= 1")
    omega_zero, q1_zero, dq1_zero = vanishing(scalars)
    q1no, q2no, q3no, q4no = q_constants(scalars)
    constants = {"Q1": q1no, "Q2": q2no, "Q3": q3no, "Q4": q4no, "q_at_1": scalars.q_at_1}
    w, q1, dq1 = scalars.omega, scalars.q_at_1, scalars.dq_at_1
    branches: List[Optional[int]] = [None] * len(ns)

    if theorem_tag in ("T41i_W21", "T41i_W22"):
        _require(not omega_zero and not q1_zero, theorem_tag, "needs omega != 0 and q(1) != 0")
        lz = leading_zeros(scalars, max(ns))
        mu_by_n = dict(zip(lz.ns, lz.mu_n))
        mus = [mu_by_n[n] for n in ns]
        if theorem_tag == "T41i_W21":
            corr = [0j] * len(ns)
        else:
            corr = [-q1no / (4 * n * math.pi * q1) for n in ns]
    elif theorem_tag in ("T41ii_W21", "T41ii_W22"):
        _require(omega_zero and not q1_zero, theorem_tag, "needs omega = 0 and q(1) != 0")
        mus = [complex(n * math.pi / 2.0) for n in ns]
        if theorem_tag == "T41ii_W21":
            corr = [0j] * len(ns)
        else:
            corr = [complex(-(q1no + (-1) ** n * q2no) / (2 * q1 * n * math.pi)) for n in ns]
    elif theorem_tag == "T42i":
        _require(q1_zero and not dq1_zero and not omega_zero, theorem_tag,
                 "needs q(1) = 0, q'(1) != 0, omega != 0")
        ratio = dq1 / w
        mus = []
        for n in ns:
            if ratio < 0:
                mus.append(n * math.pi + 1j * (math.log(2 * n * math.pi) - 0.5 * math.log(-dq1 / (2 * w))))
            else:
                mus.append((n + 0.5) * math.pi + 1j * (math.log(2 * n * math.pi) - 0.5 * math.log(dq1 / (2 * w))))
        corr = [0j] * len(ns)
    elif theorem_tag == "T42ii":
        _require(q1_zero and not dq1_zero and omega_zero, theorem_tag,
                 "needs q(1) = 0, q'(1) != 0, omega = 0")
        r = q2no / dq1
        degenerate = abs(abs(r) - 1.0) < 1e-12
        if degenerate:
            s_plus = 0.0 if r < 0 else math.pi / 2.0
            s_minus = -s_plus
        elif abs(r) < 1.0:
            s_plus = 0.5 * math.acos(-r)
            s_minus = -s_plus
        else:
            s_plus = -0.5j * cmath.log(-r + cmath.sqrt(r * r - 1.0))
            s_minus = -0.5j * cmath.log(-r - cmath.sqrt(r * r - 1.0))
        constants.update({"s_plus": complex(s_plus), "s_minus": complex(s_minus),
                          "degenerate": degenerate})
        mus, corr, branches = [], [], []
        doubled = []
        for n in ns:
            for br, s in ((+1, s_plus), (-1, s_minus)):
                doubled.append(n)
                mus.append(complex(n * math.pi))
                corr.append(complex(s))
                branches.append(br)
        ns = doubled
    elif theorem_tag == "Dirichlet_i":
        _require(not omega_zero and not q1_zero, theorem_tag, "needs omega != 0 and q(1) != 0")
        # The mu_n case selection swaps relative to the Robin problem.
        lz = leading_zeros(_dirichlet_flip(scalars), max(ns))
        mu_by_n = dict(zip(lz.ns, lz.mu_n))
        mus = [mu_by_n[n] for n in ns]
        corr = [+q3no / (4 * n * math.pi * q1) for n in ns]
    else:  # Dirichlet_ii
        _require(omega_zero and not q1_zero, theorem_tag, "needs omega = 0 and q(1) != 0")
        mus = [complex((n + 1) * math.pi / 2.0) for n in ns]
        corr = [complex((q3no + (-1) ** n * q4no) / (2 * q1 * n * math.pi)) for n in ns]

    values = [m + c for m, c in zip(mus, corr)]
    return AsymptoticPrediction(theorem_tag=theorem_tag, ns=ns, values=values, mus=mus,
                                corrections=corr, constants=constants, branches=branches)


def index_targets(scalars: PotentialScalars, variant: str, k_max: float):
    """Matching targets (n, sqrt-lambda estimate, branch) for theorem numbering.

    Returns (targets, spacing, n_min): spacing is the asymptotic gap between
    consecutive targets, n_min the smallest index the theorem assigns in the
    first quadrant. Used both to place a targeted window's strip and to index zeros.
    """
    omega_zero, q1_zero, dq1_zero = vanishing(scalars)

    if not q1_zero:
        if omega_zero:
            shift = 0 if variant == "robin" else 1
            n_hi = max(2, int(2.0 * k_max / math.pi) + 2)
            targets = [(n, complex((n + shift) * math.pi / 2.0), None) for n in range(1, n_hi)]
            return targets, math.pi / 2.0, 1
        n_hi = max(2, int(k_max / math.pi) + 2)
        if variant == "robin":
            eff = scalars
            n_min = 0
        else:
            eff = _dirichlet_flip(scalars)
            n_min = 1 if scalars.q_at_1 / scalars.omega > 0 else 0
        lz = leading_zeros(eff, n_hi, include_small=True)
        targets = [(n, mu, None) for n, mu in zip(lz.ns, lz.mu_n)]
        return targets, math.pi, n_min

    if not dq1_zero:
        n_hi = max(2, int(k_max / math.pi) + 2)
        if omega_zero:
            pred = predict_eigenvalues(scalars, "T42ii", range(1, n_hi))
            targets = list(zip(pred.ns, pred.values, pred.branches))
            return targets, math.pi, 1
        pred = predict_eigenvalues(scalars, "T42i", range(1, n_hi))
        targets = [(n, v, None) for n, v in zip(pred.ns, pred.values)]
        n_min = 0 if scalars.dq_at_1 / scalars.omega > 0 else 1
        return targets, math.pi, n_min

    raise DomainError("no numbering theorem applies when q(1) = q'(1) = 0")


@dataclass
class ResidualReport:
    """Measured eps_n = sqrt(lambda_n) - mu_n against one prediction."""

    theorem_tag: str
    rows: List[dict]
    tail_first: float
    tail_second: float
    tails_decreasing: bool
    loglog_slope: float
    parity_fits: Optional[dict] = None

    def to_rows(self):
        return [(r["n"], r["eps"].real, r["eps"].imag, abs(r["eps"]), r["n"] * abs(r["eps"]))
                for r in self.rows]


def residual_report(zeros, prediction: AsymptoticPrediction) -> ResidualReport:
    """Join indexed eigenvalues with a prediction and measure residual decay.

    Reports eps_n, the next-order residual n*(eps_n - correction_n), split
    tail sums of |eps_n|^2, and the log-log decay slope of |eps_n|.
    """
    by_key = {}
    for n, mu, corr, br in zip(prediction.ns, prediction.mus, prediction.corrections,
                               prediction.branches):
        by_key[(n, br)] = (mu, corr)
    rows = []
    for ev in zeros:
        if ev.index is None:
            continue
        key = (ev.index, ev.branch)
        if key not in by_key:
            if (ev.index, None) in by_key:
                key = (ev.index, None)
            else:
                continue
        mu, corr = by_key[key]
        eps = ev.k - mu
        rows.append({"n": ev.index, "branch": ev.branch, "k": ev.k, "mu": mu,
                     "eps": eps, "refined": ev.index * (eps - corr)})
    if not rows:
        raise DomainError("no eigenvalue indices matched the prediction")
    rows.sort(key=lambda r: (r["n"], 0 if r["branch"] is None else r["branch"]))
    ns = np.array([r["n"] for r in rows], dtype=float)
    abs_eps = np.array([abs(r["eps"]) for r in rows])
    half = len(rows) // 2
    tail_first = float(np.sum(abs_eps[:half] ** 2))
    tail_second = float(np.sum(abs_eps[half:] ** 2))
    positive = abs_eps > 0
    slope = float(np.polyfit(np.log(ns[positive]), np.log(abs_eps[positive]), 1)[0]) \
        if positive.sum() >= 3 else math.nan
    parity = None
    if prediction.theorem_tag in ("T41ii_W22", "Dirichlet_ii") and "q_at_1" in prediction.constants:
        # No parity convention is fixed for the (-1)^n term; report both fits.
        c = prediction.constants
        q1v = c["q_at_1"]
        if prediction.theorem_tag == "T41ii_W22":
            def corr_flip(n):
                return -(c["Q1"] - (-1) ** n * c["Q2"]) / (2 * q1v * n * math.pi)
        else:
            def corr_flip(n):
                return (c["Q3"] - (-1) ** n * c["Q4"]) / (2 * q1v * n * math.pi)
        parity = {
            "as_indexed": float(np.mean([abs(r["refined"]) for r in rows])),
            "sign_flipped": float(np.mean([abs(r["n"] * (r["eps"] - corr_flip(r["n"])))
                                           for r in rows])),
        }
    return ResidualReport(theorem_tag=prediction.theorem_tag, rows=rows,
                          tail_first=tail_first, tail_second=tail_second,
                          tails_decreasing=bool(tail_second < tail_first),
                          loglog_slope=slope, parity_fits=parity)
