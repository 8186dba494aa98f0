"""Shared fixtures and independent closed-form oracles."""

import cmath
import math
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import settings

from tspec import Potential
from tspec.errors import DomainError, UnstableLimitError
from tspec.jost import DEFAULT_RTOL, transfer_many

from jost_oracles import kernel_iterate

# The larger example budget of the properties that take their count from the
# active profile: pytest --hypothesis-profile=exit-codes.
settings.register_profile("exit-codes", max_examples=1000)
settings.register_profile("zero-target", max_examples=2000)


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
