"""Shared fixtures and independent closed-form oracles."""

import cmath
import math
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np
import pytest
from hypothesis import settings

from tspec import Potential, gamma_recovery
from tspec.errors import DomainError, UnstableLimitError
from tspec.jost import DEFAULT_RTOL, transfer_many
from tspec.pipeline import Representatives, _first_of_each, _k_array
from tspec.rootfind import Eigenvalue

from jost_oracles import kernel_iterate

# The larger example budget of the properties that take their count from the
# active profile: pytest --hypothesis-profile=exit-codes.
settings.register_profile("exit-codes", max_examples=1000)
settings.register_profile("zero-target", max_examples=2000)
settings.register_profile("representatives", max_examples=1000)


_TRANSCENDENTAL_MAX_ITER = 50
_TRANSCENDENTAL_TOL = 1e-12


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
    Newton stops on the residual |z - kappa log z - w| < 1e-12 and takes the
    analytic derivative 1 - kappa/z.
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


def zero_target_by_box_search(scalars):
    """The zero of g1/k with 0 <= Re k < pi nearest 0 from an argument-principle
    box search over [-0.1, 1.02 pi] x [-0.1, max(2, tau)], tau from |q(1)/omega|,
    or None when the search resolves none there (a double zero ends unresolved):
    the oracle of the closed form asymptotics._zero_target. g1/k takes its
    removable value 4i(omega + q(1)) at 0 from sin(2k)/k = 2 - (4/3)k^2 + ...
    below |k| = 1e-4."""
    from tspec.rootfind import find_zeros

    w, q1 = scalars.omega, scalars.q_at_1

    def g1_over_k(ks):
        ks = np.atleast_1d(np.asarray(ks, dtype=complex))
        out = np.empty(ks.shape, dtype=complex)
        tiny = np.abs(ks) < 1e-4
        kb, kt = ks[~tiny], ks[tiny]
        out[~tiny] = (4j * kb * w + q1 * (np.exp(2j * kb) - np.exp(-2j * kb))) / kb
        out[tiny] = 4j * w + 2j * q1 * (2.0 - (4.0 / 3.0) * kt ** 2 + (4.0 / 15.0) * kt ** 4)
        return out

    tau = 0.5 * (math.log(2 * math.pi) + abs(math.log(abs(q1 / (2 * w))))) + 2.0
    res = find_zeros(g1_over_k, (-0.1, math.pi * 1.02, -0.1, max(2.0, tau)), max_depth=24)
    return min((ev.k for ev in res.zeros), key=abs, default=None)


def representatives_of(zeros) -> Representatives:
    """A list of Eigenvalue as the columns pipeline.eigenvalues_from_columns returns."""
    zeros = list(zeros)
    return Representatives(np.array([ev.k for ev in zeros], dtype=complex),
                           *([getattr(ev, name) for ev in zeros]
                             for name in Representatives._fields[1:]))


def eigenvalues_of(reps: Representatives) -> List[Eigenvalue]:
    """The columns of pipeline.eigenvalues_from_columns as a list of Eigenvalue."""
    return [Eigenvalue(k=complex(k), index=index, multiplicity=m, residual=r, cls=cls, branch=b)
            for k, index, m, r, cls, b in zip(reps.k.tolist(), *reps[1:])]


def eigenvalues_from_columns_oracle(columns) -> List[Eigenvalue]:
    """The representatives of pipeline.eigenvalues_from_columns as one Eigenvalue
    per orbit, ordered by a Python sort key: the reader before it kept columns."""
    re_k, im_k = columns.re_k, columns.im_k
    survivors, firsts = np.unique(_k_array(np.abs(re_k), np.abs(im_k)), return_index=True)
    firsts = np.sort(firsts).tolist()
    means = np.sort(survivors.real / 2 + survivors.imag / 2)
    if np.any(np.diff(means) <= 1e-9 + 1e-15 * means[-1:]):
        rounded = [(round(abs(re_k[i]), 9), round(abs(im_k[i]), 9)) for i in firsts]
        firsts = _first_of_each(rounded, firsts)
    with np.errstate(over="ignore"):
        mods = np.hypot(re_k, im_k).tolist()
    firsts.sort(key=lambda i: (10 ** 9 if columns.index[i] is None else columns.index[i], mods[i]))
    return [Eigenvalue(k=complex(abs(re_k[i]), abs(im_k[i])), index=columns.index[i],
                       multiplicity=columns.multiplicity[i], residual=columns.residual[i],
                       cls=columns.cls[i], branch=columns.branch[i])
            for i in firsts]


def product_oracle(zeros: List[Eigenvalue], s: int = 0):
    """(roots, paired) of the Hadamard product of a list of Eigenvalue, built
    from the objects as gamma_recovery.from_eigenvalues did before it took columns."""
    ks = np.array([ev.k for ev in zeros], dtype=complex)
    mult = np.array([ev.multiplicity for ev in zeros], dtype=int)
    quadrant = np.array([ev.cls == "quadrant" for ev in zeros], dtype=bool)
    with np.errstate(over="ignore", invalid="ignore"):
        lam = gamma_recovery._square(ks)
    lam.imag[~quadrant] = 0.0
    lam, paired = np.repeat(lam, mult), np.repeat(quadrant, mult)
    order = np.argsort(np.abs(lam), kind="stable")
    return lam[order], paired[order]


@dataclass
class RowResidualReport:
    """asymptotics.ResidualReport as residual_report_oracle builds it: one dict per row."""

    theorem_tag: str
    rows: List[dict]
    tail_first: float
    tail_second: float
    tails_decreasing: bool
    loglog_slope: Optional[float]
    next_order_mean: Optional[float]
    nonfinite: List[int] = field(default_factory=list)

    def to_rows(self):
        return [(r["n"], r["eps"].real, r["eps"].imag, abs(r["eps"]), r["n"] * abs(r["eps"]))
                for r in self.rows]


def residual_report_oracle(zeros: List[Eigenvalue], prediction) -> RowResidualReport:
    """asymptotics.residual_report row by row over a list of Eigenvalue, in
    Python complex arithmetic: the report before it kept columns."""
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
    eps = np.array([r["eps"] for r in rows], dtype=complex)
    with np.errstate(over="ignore"):
        abs_eps = np.hypot(eps.real, eps.imag)
        eps_sq = abs_eps ** 2
    half = len(rows) // 2
    tail_first = float(np.sum(eps_sq[:half]))
    tail_second = float(np.sum(eps_sq[half:]))
    fit = (abs_eps > 0) & np.isfinite(abs_eps)
    slope = float(np.polyfit(np.log(ns[fit]), np.log(abs_eps[fit]), 1)[0]) \
        if fit.sum() >= 3 else None
    next_order = float(np.mean([abs(r["refined"]) for r in rows])) \
        if prediction.theorem_tag in ("T41ii_W22", "Dirichlet_ii") else None
    return RowResidualReport(theorem_tag=prediction.theorem_tag, rows=rows,
                             tail_first=tail_first, tail_second=tail_second,
                             tails_decreasing=bool(tail_second < tail_first),
                             loglog_slope=slope, next_order_mean=next_order,
                             nonfinite=[int(n) for n in ns[~np.isfinite(eps_sq)]])


def jost_at_zero_many(p: Potential, ks, rtol: float = DEFAULT_RTOL):
    """f(k,0), f'(k,0) = e^{ik} M(k^2) (1, ik) over an array of k, from the production
    transfer matrix, for the tests that hold Jost values against DOP853, Airy and
    closed forms."""
    ks = np.atleast_1d(np.asarray(ks, dtype=complex))
    m00, m01, m10, m11 = transfer_many(p, ks, rtol)
    e = np.exp(1j * ks)
    return e * (m00 + 1j * ks * m01), e * (m10 + 1j * ks * m11)


def const_jost(c: float, k: complex):
    """Closed-form Jost data for the constant potential q = c.

    Solves psi'' = (c - k^2) psi from psi(1)=e^{ik}, psi'(1)=ik e^{ik} by
    hand: f(k,x) = e^{ik} [cos(kp (x-1)) + (ik/kp) sin(kp (x-1))], kp^2 = k^2 - c.
    """
    k = complex(k)
    kp = np.sqrt(k * k - c)
    e = np.exp(1j * k)
    if kp == 0:
        return e * (1.0 - 1j * k), e * (1j * k)
    f = e * (np.cos(kp) - (1j * k / kp) * np.sin(kp))
    fp = e * (kp * np.sin(kp) + 1j * k * np.cos(kp))
    return f, fp


def dirichlet_d_const1(k):
    """Closed-form Dirichlet characteristic function for q = 1.

    D(k) = (sin k / k) cos kp - cos k sin kp / kp with kp = sqrt(k^2 - 1);
    obtained by substituting the constant-potential Jost solution into
    [f(k,0) - f(-k,0)] / (2ik). Not valid at k = 0 or k = +-1 (removable).
    """
    k = np.asarray(k, dtype=complex)
    kp = np.sqrt(k * k - 1.0)
    return (np.sin(k) / k) * np.cos(kp) - np.cos(k) * np.sin(kp) / kp


@pytest.fixture(scope="session")
def q_one():
    return Potential.constant(1.0)


@pytest.fixture(scope="session")
def q_zero():
    return Potential.constant(0.0)


@pytest.fixture(scope="session")
def q_linear():
    """q(x) = x."""
    return Potential.polynomial([0.0, 1.0])


@pytest.fixture(scope="session")
def q_xm1():
    """q(x) = x - 1 (vanishes at the right endpoint, q'(1)=1)."""
    return Potential.polynomial([-1.0, 1.0])


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture(scope="session")
def kg_one_128(q_one):
    return kernel_iterate(q_one, 128)


@pytest.fixture(scope="session")
def kg_one_256(q_one):
    return kernel_iterate(q_one, 256)
