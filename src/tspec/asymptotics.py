"""Closed-form asymptotic machinery for the transmission eigenvalue distribution.

Covers the leading function g1(k) = 4ik*omega + q(1)(e^{2ik} - e^{-2ik}), the
asymptotic location of its zeros mu_n (with Newton polish to machine accuracy),
the per-theorem eigenvalue predictions, the theorem numbering of computed zeros,
and residual reports of computed spectra against the predictions.
"""

from __future__ import annotations

import cmath
import math
from collections import namedtuple
from dataclasses import dataclass, field, replace
from typing import List, Optional, Sequence

import numpy as np

from .errors import DomainError, HypothesisMismatchError, IndexingConflictError, TspecError
from .potential import PotentialScalars, q_constants
from .rootfind import _MIN_SIZE, find_zeros, representative

THEOREM_TAGS = ("T41i_W21", "T41i_W22", "T41ii_W21", "T41ii_W22",
                "T42i", "T42ii", "Dirichlet_i", "Dirichlet_ii")

_ZERO_TOL = 1e-9
_SEED_IS_ROOT = 2 ** 22     # from this n on Newton on g1 leaves the mu_n seed as it is
_NEWTON_TOL = 1e-13         # Newton step on g1, relative to max(1, |k|), that ends a seed
_NEWTON_MAX_ITER = 40
_N_CAP = 2 ** 1000          # predictions stop below it: past it, 4 n pi nears the float max
_X_STAR = 4.493409457909064             # the root of tan x = x in (pi, 3 pi / 2)
_C_MIN = math.sin(_X_STAR) / _X_STAR    # the least value of sin x / x, taken at _X_STAR


def vanishing(scalars: PotentialScalars):
    """(omega = 0, q(1) = 0, q'(1) = 0): the tests that select the theorem case.

    Each scalar counts as zero below 1e-9 max(|omega|, |q(1)|, |q'(1)|, 1e-12).
    """
    scale = max(abs(scalars.omega), abs(scalars.q_at_1), abs(scalars.dq_at_1), 1e-12)
    return tuple(abs(v) < _ZERO_TOL * scale
                 for v in (scalars.omega, scalars.q_at_1, scalars.dq_at_1))


def default_theorem_tag(scalars: PotentialScalars, variant: str) -> Optional[str]:
    """The tag of the theorem that describes the spectrum of this case, or None."""
    omega_zero, q1_zero, dq1_zero = vanishing(scalars)
    if variant == "dirichlet":
        if q1_zero:
            return None
        return "Dirichlet_ii" if omega_zero else "Dirichlet_i"
    if not q1_zero:
        return "T41ii_W22" if omega_zero else "T41i_W22"
    if not dq1_zero:
        return "T42ii" if omega_zero else "T42i"
    return None


def _dirichlet_flip(scalars: PotentialScalars) -> PotentialScalars:
    """The Dirichlet leading function flips the sign of q(1) and q'(1) against Robin."""
    return replace(scalars, q_at_1=-scalars.q_at_1, dq_at_1=-scalars.dq_at_1)


def eval_g1(scalars: PotentialScalars, k):
    """g1(k) = 4ik*omega + q(1)(e^{2ik} - e^{-2ik})."""
    karr = np.asarray(k, dtype=complex)
    out = 4j * karr * scalars.omega + scalars.q_at_1 * (np.exp(2j * karr) - np.exp(-2j * karr))
    return complex(out) if out.ndim == 0 else out


@dataclass
class LeadingZeros:
    """First-quadrant zeros mu_n of g1(k)/k."""

    ns: List[int]
    mu_n: List[complex]
    polished: List[bool]


def _falling_root(f, df, lo: float, hi: float) -> float:
    """The root of f in (lo, hi), where f falls through zero once: Newton
    steps, and a bisection wherever a step would leave the bracket."""
    x = 0.5 * (lo + hi)
    for _ in range(200):
        fx, d = f(x), df(x)
        lo, hi = (x, hi) if fx > 0 else (lo, x)
        new = x - fx / d if d else lo
        if not lo < new < hi:
            new = 0.5 * (lo + hi)
        if abs(new - x) <= 2e-16 * abs(x):
            return new
        x = new
    return x


def _sinc_root(c: float, lo: float, hi: float) -> float:
    """The x in (lo, hi) with sin x / x = c, where sin x / x falls."""
    return _falling_root(lambda x: math.sin(x) / x - c,
                         lambda x: (math.cos(x) - math.sin(x) / x) / x, lo, hi)


def _complex_root(c: float) -> complex:
    """The root of sin x = c x with pi < Re x < _X_STAR, Im x > 0, for c < _C_MIN.

    Newton on sin x - c x, seeded where the double root _X_STAR of c = _C_MIN
    splits, x* + i sqrt(2 (c_min - c) / -c_min), within 1 of c_min, and
    otherwise by three fixed-point steps of x = pi + i Log(2icx), the equation
    with e^{2ix} dropped. It stops on a step below 1e-15 |x|, or on one that
    fails to shrink (the rounding floor of a near-double root).
    """
    if c > _C_MIN - 1.0:
        x = complex(_X_STAR, math.sqrt(2.0 * (_C_MIN - c) / -_C_MIN))
    else:
        x = complex(math.pi, math.log(-2.0 * c * _X_STAR))
        for _ in range(3):
            x = math.pi + 1j * cmath.log(2j * c * x)
    last = math.inf
    for _ in range(60):
        dx = (cmath.sin(x) - c * x) / (cmath.cos(x) - c)
        if not abs(dx) < last:
            break
        x, last = x - dx, abs(dx)
        if last <= 1e-15 * abs(x):
            break
    return x


def _zero_target(scalars: PotentialScalars) -> Optional[complex]:
    """The zero of g1/k with 0 <= Re k < pi nearest 0 (the formulas only cover
    n >= 1), in closed form, or None where it is a double zero.

    g1(k) = 2i (2 omega k + q(1) sin 2k) vanishes where x = 2k solves
    sin x = c x, c = -omega/q(1). The root nearest 0 is, by the value of c:
    imaginary, i y with sinh y = c y, for c > 1; real in (0, pi) for
    0 < c < 1; real in [pi, x*] for c_min <= c < 0, where x* = 4.4934 solves
    tan x = x and c_min = sin x*/x* = -0.21723; complex with pi < Re x < x*
    for c < c_min. At c = 1 and c = c_min two roots meet, at 0 and at x*:
    a root closer than _MIN_SIZE (below which find_zeros tells no two zeros
    apart) to where they meet is a double zero, and gives None.
    """
    c = -scalars.omega / scalars.q_at_1
    if c > 1.0:
        # sinh(y)/y rises from 1 and passes c before 2 log(2c) + 2.
        x = 1j * _falling_root(lambda y: c - math.sinh(y) / y,
                               lambda y: (math.sinh(y) / y - math.cosh(y)) / y,
                               0.0, 2.0 * math.log(2.0 * c) + 2.0)
    elif c > 0.0:
        x = _sinc_root(c, 0.0, math.pi)
    elif c >= _C_MIN:
        x = _sinc_root(c, math.pi, _X_STAR)
    else:
        x = _complex_root(c)
    if min(abs(x), abs(x - _X_STAR)) < _MIN_SIZE:
        return None
    return representative(0.5 * x)


def _newton_g1(scalars: PotentialScalars, seeds: np.ndarray):
    """Newton on g1 from each seed with its exact derivative
    g1'(k) = 4i omega + 4i q(1) cos 2k: (roots, converged). A seed ends once
    its step is below 1e-13 max(1, |k|); one still moving after 40 sweeps,
    or stopped by a step that is not finite (g1' = 0, or e^{+-2ik} past the
    float range), has not converged."""
    w, q1 = scalars.omega, scalars.q_at_1
    roots = np.array(seeds, dtype=complex)
    conv = np.zeros(roots.size, dtype=bool)
    live = np.arange(roots.size)
    for _ in range(_NEWTON_MAX_ITER):
        if not live.size:
            break
        k = roots[live]
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            e, ei = np.exp(2j * k), np.exp(-2j * k)
            step = (4j * k * w + q1 * (e - ei)) / (4j * w + 2j * q1 * (e + ei))
        moves = np.isfinite(step)
        roots[live] = k = np.where(moves, k - step, k)
        done = moves & (np.abs(step) < _NEWTON_TOL * np.maximum(1.0, np.abs(k)))
        conv[live[done]] = True
        live = live[moves & ~done]
    return roots, conv


def leading_zeros(scalars: PotentialScalars, ns: Sequence[int]) -> LeadingZeros:
    """mu_n for the indices ns (each >= 1) from the asymptotic formulas,
    Newton-polished on g1 (_newton_g1) one seed at a time, so mu_n does not
    depend on the other n asked for. n enters the formulas as a float (2 n of
    an index past 2^62 stays finite), and a seed from n = _SEED_IS_ROOT on is
    the root as it stands. A root more than 2 from its seed, or one Newton
    did not reach, comes from a box search around n pi instead.

    DomainError unless omega != 0 and q(1) != 0 (for omega = 0 the zeros are
    exactly n pi / 2: predict_eigenvalues writes them).
    """
    if any(vanishing(scalars)[:2]):
        raise DomainError("leading-zero asymptotics require omega != 0 and q(1) != 0")
    w, q1 = scalars.omega, scalars.q_at_1
    n_all = np.array(ns, dtype=float)
    if q1 / w > 0:
        b_all = np.log(2 * n_all * math.pi) - math.log(q1 / (2 * w)) - 1.5j * math.pi
    else:
        b_all = np.log(2 * n_all * math.pi) - math.log(-q1 / (2 * w)) - 0.5j * math.pi
    seeds = n_all * math.pi + 0.5j * b_all - b_all / (4 * n_all * math.pi)
    roots, conv = seeds.copy(), np.ones(seeds.size, dtype=bool)
    near = n_all < _SEED_IS_ROOT
    roots[near], conv[near] = _newton_g1(scalars, seeds[near])
    conv &= np.abs(roots - seeds) <= 2.0
    for i in np.flatnonzero(~conv):
        n, seed = float(n_all[i]), complex(seeds[i])
        box = (n * math.pi, (n + 1) * math.pi, 0.0, math.log(2 * n * math.pi) + 2.0)
        try:
            res = find_zeros(lambda ks: eval_g1(scalars, ks), box, max_depth=18)
            near = min((ev.k for ev in res.zeros), key=lambda kk: abs(kk - seed), default=None)
        except TspecError:
            near = None
        roots[i], conv[i] = (seed, False) if near is None else (near, True)
    return LeadingZeros(list(ns), roots.tolist(), conv.tolist())


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


def _alternating(ns) -> np.ndarray:
    """(-1)^n for each index n, as floats."""
    return np.array([-1.0 if n & 1 else 1.0 for n in ns])


def predict_eigenvalues(scalars: PotentialScalars, theorem_tag: str,
                        n_range: Sequence[int]) -> AsymptoticPrediction:
    """sqrt(lambda_n) predictions with all correction constants for one theorem tag."""
    if theorem_tag not in THEOREM_TAGS:
        raise DomainError(f"unknown theorem tag {theorem_tag!r}; expected one of {THEOREM_TAGS}")
    ns = [int(n) for n in n_range]
    if ns and not 1 <= min(ns) <= max(ns) < _N_CAP:
        raise DomainError("predictions are defined for 1 <= n < 2^1000")
    # n as a float rounds as int * float does, and the correction formulas
    # take it in the same order, so each vectorised value equals the scalar one.
    n_f = np.array(ns, dtype=float)
    omega_zero, q1_zero, dq1_zero = vanishing(scalars)
    q1no, q2no, q3no, q4no = q_constants(scalars)
    constants = {"Q1": q1no, "Q2": q2no, "Q3": q3no, "Q4": q4no, "q_at_1": scalars.q_at_1}
    w, q1, dq1 = scalars.omega, scalars.q_at_1, scalars.dq_at_1
    branches: List[Optional[int]] = [None] * len(ns)

    if theorem_tag in ("T41i_W21", "T41i_W22"):
        _require(not omega_zero and not q1_zero, theorem_tag, "needs omega != 0 and q(1) != 0")
        mus = leading_zeros(scalars, ns).mu_n
        if theorem_tag == "T41i_W21":
            corr = [0j] * len(ns)
        else:
            corr = (-q1no / (4 * n_f * math.pi * q1)).tolist()
    elif theorem_tag in ("T41ii_W21", "T41ii_W22"):
        _require(omega_zero and not q1_zero, theorem_tag, "needs omega = 0 and q(1) != 0")
        mus = (n_f * math.pi / 2.0).astype(complex).tolist()
        if theorem_tag == "T41ii_W21":
            corr = [0j] * len(ns)
        else:
            corr = (-(q1no + _alternating(ns) * q2no) / (2 * q1 * n_f * math.pi)).astype(complex)
            corr = corr.tolist()
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
        mus = leading_zeros(_dirichlet_flip(scalars), ns).mu_n
        corr = (+q3no / (4 * n_f * math.pi * q1)).tolist()
    else:  # Dirichlet_ii
        _require(omega_zero and not q1_zero, theorem_tag, "needs omega = 0 and q(1) != 0")
        mus = [complex((n + 1) * math.pi / 2.0) for n in ns]
        corr = ((q3no + _alternating(ns) * q4no) / (2 * q1 * n_f * math.pi)).astype(complex)
        corr = corr.tolist()

    values = [m + c for m, c in zip(mus, corr)]
    return AsymptoticPrediction(theorem_tag=theorem_tag, ns=ns, values=values, mus=mus,
                                corrections=corr, constants=constants, branches=branches)


# The counting theorem for omega, q(1) != 0: k D(k) has 4n + CONTOUR_OFFSETS[variant,
# q(1)/omega > 0] zeros inside the square of half-side (n+1) pi (gamma_contour_count).
CONTOUR_OFFSETS = {("robin", True): 5, ("robin", False): 3,
                   ("dirichlet", True): 1, ("dirichlet", False): 3}


def first_index(scalars: PotentialScalars, tag: str) -> int:
    """The smallest index theorem `tag` assigns in the first quadrant (scalar tests only)."""
    if tag in ("T42i", "T42ii"):
        return 0 if tag == "T42i" and scalars.dq_at_1 / scalars.omega > 0 else 1
    return int(tag in ("T41ii_W22", "Dirichlet_ii")
               or tag == "Dirichlet_i" and scalars.q_at_1 / scalars.omega > 0)


def _index_warnings(indices, scalars: PotentialScalars, variant: str) -> list:
    """Indices that leave zeros out of gamma's product: a wrong first index, or holes."""
    have, tag = sorted(set(indices) - {None}), default_theorem_tag(scalars, variant)
    if not have or tag is None:
        return []
    first = first_index(scalars, tag)
    warnings = [] if have[0] == first else [
        f"spectrum indices start at {have[0]}, not at the theorem's first index {first}"]
    holes = [f"{a + 1}" if b == a + 2 else f"{a + 1}..{b - 1}"
             for a, b in zip(have, have[1:]) if b > a + 1]
    return warnings + (["spectrum indices miss " + ", ".join(holes)] if holes else [])


def index_targets(scalars: PotentialScalars, variant: str, k_max: float):
    """Matching targets (n, sqrt-lambda estimate, branch) for theorem numbering.

    Returns (targets, spacing, n_min): spacing is the asymptotic gap between
    consecutive targets, n_min the theorem's first_index. The targets are the
    mus (values for T42i, T42ii) of one predict_eigenvalues call over
    n = 1 .. int(k_max / spacing) + 1, preceded for T41i_W22 and Dirichlet_i
    by the n = 0 zero of g1/k (_zero_target) where there is one.
    The theorem is default_theorem_tag's; DomainError when there is none.
    """
    tag = default_theorem_tag(scalars, variant)
    if tag is None:
        raise DomainError("no numbering theorem applies when q(1) = q'(1) = 0"
                          if vanishing(scalars)[2]
                          else "no numbering theorem applies to Dirichlet when q(1) = 0")
    spacing = math.pi / 2.0 if tag in ("T41ii_W22", "Dirichlet_ii") else math.pi
    pred = predict_eigenvalues(scalars, tag, range(1, int(k_max / spacing) + 2))
    targets = list(zip(pred.ns, pred.values if tag in ("T42i", "T42ii") else pred.mus,
                       pred.branches))
    if tag in ("T41i_W22", "Dirichlet_i"):
        mu_0 = _zero_target(scalars if variant == "robin" else _dirichlet_flip(scalars))
        if mu_0 is not None:
            targets.insert(0, (0, mu_0, None))
    return targets, spacing, first_index(scalars, tag)


def _match_targets(zeros, targets, spacing, n_min):
    """Nearest-target index assignment with deficit filling for small zeros.

    targets: list of (n, value, branch). Raises IndexingConflictError when two
    zeros contend for one target or leftovers exceed the index deficit.
    """
    radius = 0.45 * spacing
    assigned: dict = {}
    leftovers = []
    for ev in zeros:
        best = None
        for n, val, branch in targets:
            dist = abs(ev.k - val)
            if best is None or dist < best[0]:
                best = (dist, n, branch)
        if best is not None and best[0] < radius:
            key = (best[1], best[2])
            if key in assigned:
                raise IndexingConflictError(
                    f"zeros {assigned[key].k} and {ev.k} both match index {best[1]}")
            assigned[key] = ev
        else:
            leftovers.append(ev)
    matched_ns = sorted({n for (n, _b) in assigned})
    deficit = []
    probe = n_min
    bound = max(matched_ns) if matched_ns else n_min + len(leftovers)
    while probe <= bound and len(deficit) < len(leftovers):
        if probe not in matched_ns:
            deficit.append(probe)
        probe += 1
    if len(leftovers) > len(deficit):
        raise IndexingConflictError(
            f"{len(leftovers)} unmatched zeros but only {len(deficit)} free indices "
            f">= {n_min}; zeros at {[l.k for l in leftovers]}")
    out = []
    for (n, branch), ev in assigned.items():
        out.append(replace(ev, index=n, branch=branch))
    for slot, ev in zip(deficit, sorted(leftovers, key=lambda e: abs(e.k))):
        out.append(replace(ev, index=slot))
    out.sort(key=lambda e: (e.index, abs(e.k)))
    return out


def index_eigenvalues(zeros, scalars: PotentialScalars, variant: str = "robin"):
    """Assign the theorem numbering to computed zeros by nearest-mu matching.

    The target sequence depends on the sign case of q(1)/omega (with the
    Dirichlet sign flip), the omega = 0 branches, and the q(1) = 0 variants.
    Unmatched small zeros fill the count deficit in ascending |k|.
    """
    if not zeros:
        return []
    k_max = max(abs(e.k) for e in zeros) + math.pi
    return _match_targets(zeros, *index_targets(scalars, variant, k_max))


def _int_keys(ints) -> np.ndarray:
    """Python ints as an int64 array that sorts as they do (their ranks past int64)."""
    try:
        return np.array(ints, dtype=np.int64)
    except OverflowError:
        return np.unique(np.array(ints, dtype=object), return_inverse=True)[1]


# The rows of a residual report, one entry per row in each column: n and branch
# as lists; k, mu, eps = k - mu and refined = n (eps - correction) as arrays.
ResidualRows = namedtuple("ResidualRows", "n branch k mu eps refined")


@dataclass
class ResidualReport:
    """Measured eps_n = sqrt(lambda_n) - mu_n against one prediction."""

    theorem_tag: str
    rows: ResidualRows
    tail_first: float
    tail_second: float
    tails_decreasing: bool
    loglog_slope: Optional[float]      # None when fewer than 3 rows can be fitted
    next_order_mean: Optional[float]   # mean |refined|; T41ii_W22 and Dirichlet_ii only
    nonfinite: List[int] = field(default_factory=list)   # the n whose |eps_n|^2 overflows

    def to_rows(self):
        """The residual table's rows (n, Re eps, Im eps, |eps|, n |eps|), built on request."""
        eps = self.rows.eps
        with np.errstate(over="ignore"):    # np.hypot is abs(complex) to the bit; np.abs is not
            abs_eps = np.hypot(eps.real, eps.imag)
            n_abs = np.array(self.rows.n, dtype=float) * abs_eps
        return list(zip(self.rows.n, eps.real.tolist(), eps.imag.tolist(), abs_eps.tolist(),
                        n_abs.tolist()))


def residual_report(zeros, prediction: AsymptoticPrediction) -> ResidualReport:
    """Join indexed eigenvalues, the columns of pipeline.eigenvalues_from_columns,
    with a prediction and measure residual decay.

    A zero joins the prediction row of its (index, branch), else of (index,
    None). The rows, sorted stably by (n, branch or 0), hold eps_n and the
    next-order residual n*(eps_n - correction_n) as arrays. Reports split tail
    sums of |eps_n|^2 and the log-log decay slope of |eps_n| (None with fewer
    than 3 rows of finite, nonzero |eps_n| to fit). For the omega = 0 theorems
    (T41ii_W22, Dirichlet_ii), whose correction carries a (-1)^n term,
    next_order_mean is the mean next-order |residual|. The indices whose
    |eps_n|^2 is past the float range are listed in nonfinite (their tail sum
    is inf) for the caller to refuse.
    """
    at = {key: j for j, key in enumerate(zip(prediction.ns, prediction.branches))}
    pos = [at.get(key, at.get((key[0], None))) for key in zip(zeros.index, zeros.branch)]
    take = [i for i, j in enumerate(pos) if j is not None]
    if not take:
        raise DomainError("no eigenvalue indices matched the prediction")
    order = np.lexsort((_int_keys([zeros.branch[i] or 0 for i in take]),
                        _int_keys([zeros.index[i] for i in take])))
    take = [take[i] for i in order.tolist()]
    n, branch, pos = ([column[i] for i in take] for column in (zeros.index, zeros.branch, pos))
    k, mu, ns = zeros.k[take], np.array(prediction.mus, dtype=complex)[pos], np.array(n, float)
    # Past the float range: inf or nan, as Python's complex arithmetic gives,
    # and an inf |eps_n|^2 is refused through nonfinite.
    with np.errstate(over="ignore", invalid="ignore"):
        eps = k - mu
        refined = ns * (eps - np.array(prediction.corrections)[pos])
        abs_eps = np.hypot(eps.real, eps.imag)
        eps_sq = abs_eps ** 2
        next_order = float(np.mean(np.hypot(refined.real, refined.imag))) \
            if prediction.theorem_tag in ("T41ii_W22", "Dirichlet_ii") else None
    half = len(n) // 2
    tail_first = float(np.sum(eps_sq[:half]))
    tail_second = float(np.sum(eps_sq[half:]))
    fit = (abs_eps > 0) & np.isfinite(abs_eps)
    slope = float(np.polyfit(np.log(ns[fit]), np.log(abs_eps[fit]), 1)[0]) \
        if fit.sum() >= 3 else None
    return ResidualReport(theorem_tag=prediction.theorem_tag,
                          rows=ResidualRows(n, branch, k, mu, eps, refined),
                          tail_first=tail_first, tail_second=tail_second,
                          tails_decreasing=bool(tail_second < tail_first),
                          loglog_slope=slope, next_order_mean=next_order,
                          nonfinite=[int(v) for v in ns[~np.isfinite(eps_sq)]])
