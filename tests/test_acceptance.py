"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
Expensive spectra are shared through module-scoped fixtures; the stated
runtime budgets cover the underlying computations and are asserted where the
criterion pins them.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from tspec import Potential, derive_scalars, index_eigenvalues, q_constants
from tspec.asymptotics import index_targets, leading_zeros
from tspec.charfun import DEvaluator
from tspec.gamma_recovery import (from_eigenvalues, gamma_direct, gamma_from_endpoint,
                                  gamma_from_omega, hadamard_product)
from tspec.config import validate_config
from tspec.pipeline import run_spectrum
from tspec.rootfind import find_zeros, gamma_contour_count

from conftest import const_jost, dirichlet_d_const1, jost_at_zero_many, solve_transcendental
from jost_oracles import jost_via_kernel


@contextmanager
def criterion(num, desc):
    try:
        yield
    except Exception:
        print(f"\n[FAIL] criterion {num}: {desc}")
        raise
    print(f"\n[PASS] criterion {num}: {desc}")


def _window(potential, n_lo, n_hi):
    """The Robin eigenvalues of the index window n_lo..n_hi, a run that must exit 0."""
    run = run_spectrum(validate_config({"potential": potential, "variant": "robin",
                                        "spectrum": {"n": [n_lo, n_hi]}}))
    assert run.exit_code == 0, run.header.warnings
    return run.eigenvalues


@pytest.fixture(scope="module")
def q1():
    return Potential.constant(1.0)


@pytest.fixture(scope="module")
def q1_scalars(q1):
    return derive_scalars(q1)


@pytest.fixture(scope="module")
def q1_spectrum():
    """Indexed Robin eigenvalues of q = 1 for n = 0..29, with wall time."""
    t0 = time.time()
    evs = _window({"kind": "constant", "value": 1.0, "h": 0.0}, 0, 29)
    return evs, time.time() - t0


@pytest.fixture(scope="module")
def xm1_spectrum():
    """Indexed Robin eigenvalues of q = x - 1 for n = 1..30."""
    p = Potential.polynomial([-1.0, 1.0])
    return p, derive_scalars(p), _window({"kind": "polynomial", "coeffs": [-1.0, 1.0],
                                          "h": 0.0}, 1, 30)


def test_criterion_1_constant_potential_oracle(q1, rng):
    desc = "jost_at_zero_many matches the closed form at 50 complex k, |k|<=30, 1e-9, <10 s"
    with criterion(1, desc):
        ks = 30 * rng.uniform(0.03, 1.0, 50) * np.exp(1j * rng.uniform(0, 2 * np.pi, 50))
        t0 = time.time()
        f, fp = jost_at_zero_many(q1, ks)
        elapsed = time.time() - t0
        worst = 0.0
        for i, k in enumerate(ks):
            f_ref, fp_ref = const_jost(1.0, k)
            worst = max(worst, abs(f[i] - f_ref) / abs(f_ref),
                        abs(fp[i] - fp_ref) / abs(fp_ref))
        assert worst < 1e-9, f"worst relative error {worst:.2e}"
        assert elapsed < 10.0, f"took {elapsed:.1f}s"


def test_criterion_2_dirichlet_closed_form_spectrum(q1):
    desc = "Dirichlet q=1 spectrum on [0.1,30]x[-0.2,0.2] matches the 1-D bisection oracle"
    with criterion(2, desc):
        dev = DEvaluator(q1, "dirichlet", rtol=1e-10)
        res = find_zeros(dev, (0.1, 30.0, -0.2, 0.2),
                         refine_f=dev.with_tolerance(1e-13))
        computed = sorted(z.k.real for z in res.zeros if z.cls == "real")
        assert not res.unresolved

        # Independent oracle: dense scan + bisection on the closed form.
        xs = np.linspace(0.1, 30.0, 60001)
        vals = dirichlet_d_const1(xs.astype(complex)).real
        oracle = []
        for i in np.nonzero(np.sign(vals[:-1]) != np.sign(vals[1:]))[0]:
            a, b = xs[i], xs[i + 1]
            fa = dirichlet_d_const1(complex(a)).real
            for _ in range(60):
                m = 0.5 * (a + b)
                fm = dirichlet_d_const1(complex(m)).real
                if np.sign(fm) == np.sign(fa):
                    a, fa = m, fm
                else:
                    b = m
            oracle.append(0.5 * (a + b))
        # No extra or missing roots (the strip holds none for q = 1: the
        # complex Dirichlet zeros start at Im k ~ 1.26), pairwise < 1e-9.
        assert len(computed) == len(oracle)
        for c, o in zip(computed, oracle):
            assert abs(c - o) < 1e-9

        # Companion with substance: complex zeros vs Newton on the closed form.
        res2 = find_zeros(dev, (0.5, 16.0, 0.5, 2.6),
                          refine_f=dev.with_tolerance(1e-13))
        assert len(res2.zeros) >= 4
        for ev in res2.zeros:
            z = ev.k
            for _ in range(60):  # Newton on the closed form, central differences
                d = 1e-7
                fz = dirichlet_d_const1(z)
                dz = (dirichlet_d_const1(z + d) - dirichlet_d_const1(z - d)) / (2 * d)
                step = -fz / dz
                z = z + step
                if abs(step) < 1e-13:
                    break
            assert abs(ev.k - z) < 1e-9, f"zero {ev.k} vs oracle {z}"


def test_criterion_3_contour_counting(q1):
    desc = "Gamma_n counts: 4n+5 for q=1 and 4n+3 for q=1-1.6x, n in {2,3,4}"
    with criterion(3, desc):
        dev = DEvaluator(q1, "robin", rtol=1e-9)
        for n in (2, 3, 4):
            assert gamma_contour_count(dev, n) == 4 * n + 5
        p = Potential.polynomial([1.0, -1.6])  # omega = 0.2, q(1) = -0.6
        dev2 = DEvaluator(p, "robin", rtol=1e-9)
        for n in (2, 3, 4):
            assert gamma_contour_count(dev2, n) == 4 * n + 3


def test_criterion_4_t41i_residual_decay(q1_scalars, q1_spectrum):
    desc = "q=1 residuals vs mu_n, n=5..25: slope <= -0.5, shrinking tails, bounded beta_n, <5 min"
    with criterion(4, desc):
        evs, elapsed = q1_spectrum
        assert elapsed < 300.0, f"spectrum took {elapsed:.0f}s"
        lz = leading_zeros(q1_scalars, range(1, 30))
        mu = dict(zip(lz.ns, lz.mu_n))
        q1c, _, _, _ = q_constants(q1_scalars)
        by_n = {e.index: e for e in evs}
        ns = np.arange(5, 26)
        eps = np.array([by_n[n].k - mu[n] for n in ns])
        abs_eps = np.abs(eps)
        slope = np.polyfit(np.log(ns), np.log(abs_eps), 1)[0]
        assert slope <= -0.5, f"slope {slope:.2f}"
        left = float(np.sum(abs_eps[ns < 15] ** 2))
        right = float(np.sum(abs_eps[ns >= 15] ** 2))
        assert right < left, f"tail sums {left:.3e} -> {right:.3e}"
        beta = np.array([n * (e + q1c / (4 * n * math.pi * q1_scalars.q_at_1))
                         for n, e in zip(ns, eps)])
        early = np.max(np.abs(beta[ns <= 15]))
        late = np.max(np.abs(beta[ns > 15]))
        assert late <= 1.5 * early, f"beta_n grows: {early:.3e} -> {late:.3e}"
        assert np.max(np.abs(beta)) < 1.0


def test_criterion_5_transcendental_solver():
    desc = "z - kappa log z = w: 100 residuals < 1e-12; expansion-gap C <= 10 on [20,1e4]"
    with criterion(5, desc):
        rng = np.random.default_rng(20240817)
        for _ in range(100):
            kappa = rng.uniform(-3, 3) + 1j * rng.uniform(-3, 3)
            wmag = rng.uniform(20 * abs(kappa) + 10, 300)
            w = wmag * np.exp(1j * rng.uniform(0, 2 * np.pi))
            tp = solve_transcendental(kappa, w)
            assert tp.residual < 1e-12
        cs = []
        for wmag in np.geomspace(20.0, 1e4, 30):
            tp = solve_transcendental(1.0, float(wmag))
            cs.append(abs(tp.z - tp.seed) * wmag ** 2 / math.log(wmag) ** 2)
        assert max(cs) <= 10.0, f"fitted C = {max(cs):.2f}"


def test_criterion_6_symmetry_closure(q1):
    desc = "computed spectra are invariant under k -> -k and k -> k* within 1e-9"
    with criterion(6, desc):
        dev = DEvaluator(q1, "robin", rtol=1e-9)
        res = find_zeros(dev, (-7.5, 7.5, -2.6, 2.6),
                         refine_f=dev.with_tolerance(1e-13))
        raw = [z for z, _m, _r in res.raw_zeros]
        assert len(raw) >= 8  # two full quadrant orbits at least
        for z in raw:
            for image in (-z, np.conj(z), -np.conj(z)):
                nearest = min(abs(image - w) for w in raw)
                assert nearest < 1e-9 * (1 + abs(z)), f"missing mirror of {z}"


def test_criterion_7_gamma_consistency_triangle(q1, q1_scalars, q1_spectrum, xm1_spectrum):
    desc = "gamma routes agree within 10% (q=1 omega/direct; q=x-1 endpoint); synthetic within 1%"
    with criterion(7, desc):
        evs, _ = q1_spectrum
        hp = from_eigenvalues(evs)
        assert hp.truncation == 60  # 30 conjugate pairs
        dev = DEvaluator(q1, "robin", rtol=1e-12)
        direct_a = gamma_direct(dev, hp, 0.37).gamma
        direct_b = gamma_direct(dev, hp, 0.71).gamma
        omega_est = gamma_from_omega(hp, q1_scalars).gamma
        assert abs(direct_a - direct_b) <= 0.10 * abs(direct_a)
        assert abs(omega_est - direct_a) <= 0.10 * abs(direct_a), \
            f"omega {omega_est:.4f} vs direct {direct_a:.4f}"
        # Truncation-free anchor: E(0) = 1 for s = 0, so D(0) is the exact
        # constant; the probe estimates must sit within their truncation error.
        anchor = complex(dev(0.0)).real
        assert abs(direct_a - anchor) <= 0.02 * abs(anchor)

        # Synthetic ground truth: gamma = 2 by construction.
        targets = index_targets(q1_scalars, "robin", 49.5 * math.pi)[0]
        mus = np.array([mu for _n, mu, _b in targets[:50]], dtype=complex)
        hp_syn = hadamard_product(np.concatenate([mus ** 2, np.conj(mus) ** 2]))
        from tspec.potential import PotentialScalars

        fake = PotentialScalars(omega=2.0, q_at_1=0.0, dq_at_1=0.0, q_at_0=0.0,
                                dq_at_0=0.0, q_sq_integral=0.0, m_order=None)
        syn_est = gamma_from_omega(hp_syn, fake).gamma
        assert abs(syn_est - 2.0) <= 0.01 * 2.0, f"synthetic gamma {syn_est:.4f}"

        # Endpoint route on q = x - 1 (m = 1) against its own direct ratio.
        p, s, evs_x = xm1_spectrum
        hp_x = from_eigenvalues(evs_x)
        dev_x = DEvaluator(p, "robin", rtol=1e-12)
        direct_x = gamma_direct(dev_x, hp_x, 0.37).gamma
        endpoint_x = gamma_from_endpoint(hp_x, s).gamma
        assert abs(endpoint_x - direct_x) <= 0.10 * abs(direct_x), \
            f"endpoint {endpoint_x:.4f} vs direct {direct_x:.4f}"


def test_criterion_8_omega_zero_real_spectrum():
    desc = "q = x - 1/2 (omega=0): sqrt(lambda_n) -> n pi/2 with l2-proxy decay, n=5..25"
    with criterion(8, desc):
        p = Potential.polynomial([-0.5, 1.0])
        s = derive_scalars(p)
        dev = DEvaluator(p, "robin", rtol=1e-10)
        res = find_zeros(dev, (7.2, 40.2, -0.6, 0.6),
                         refine_f=dev.with_tolerance(1e-13))
        indexed = index_eigenvalues(res.zeros, s, "robin")
        by_n = {e.index: e for e in indexed}
        ns = np.arange(5, 26)
        assert all(n in by_n for n in ns), f"missing indices {[n for n in ns if n not in by_n]}"
        eps = np.array([abs(by_n[n].k - n * math.pi / 2.0) for n in ns])
        assert np.all(eps < 0.15)
        slope = np.polyfit(np.log(ns), np.log(eps), 1)[0]
        assert slope <= -0.5, f"slope {slope:.2f}"
        left = float(np.sum(eps[ns < 15] ** 2))
        right = float(np.sum(eps[ns >= 15] ** 2))
        assert right < left


def test_criterion_9_kernel_cross_check(q1, kg_one_128):
    desc = "kernel route vs ODE route within 1e-5 (k=1..10, 128-mesh); diagonal identity"
    with criterion(9, desc):
        for k in range(1, 11):
            f_kernel = jost_via_kernel(kg_one_128, float(k))
            f_ode = jost_at_zero_many(q1, [float(k)])[0][0]
            assert abs(f_kernel - f_ode) < 1e-5, f"k={k}: {abs(f_kernel - f_ode):.2e}"
        n = kg_one_128.mesh_n
        diag = kg_one_128.values[np.arange(n + 1), np.arange(n + 1)]
        x = np.arange(n + 1) * kg_one_128.h
        assert np.max(np.abs(diag - 0.5 * (1.0 - x))) < 1e-6
