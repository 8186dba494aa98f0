import math
import time
import warnings

import numpy as np
import pytest
from scipy.interpolate import CubicSpline

from tspec import Potential, derive_scalars, evaluate_q, potential, q_constants
from tspec.errors import DomainError


class TestEvaluateQ:
    def test_constant(self, q_one):
        assert evaluate_q(q_one, 0.5) == 1.0

    def test_linear_polynomial(self, q_linear):
        assert evaluate_q(q_linear, 0.25) == pytest.approx(0.25, abs=1e-15)

    def test_grid_spline_matches_sine(self):
        x = np.linspace(0.0, 1.0, 33)
        p = Potential.grid(np.sin(np.pi * x))
        # Oracle: the analytic function the samples came from.
        assert evaluate_q(p, 0.5) == pytest.approx(1.0, abs=1e-6)
        assert evaluate_q(p, 0.31) == pytest.approx(math.sin(math.pi * 0.31), abs=1e-6)

    def test_domain_error(self, q_one):
        with pytest.raises(DomainError):
            evaluate_q(q_one, 1.5)
        with pytest.raises(DomainError):
            evaluate_q(q_one, -0.01)

    def test_grid_needs_four_samples(self):
        with pytest.raises(DomainError):
            Potential.grid([1.0, 2.0, 3.0])


class TestNaturalSpline:
    @pytest.mark.parametrize("n", [4, 5, 9, 65, 401, 2001])
    def test_matches_scipy_cubic_spline(self, n):
        # Reference: scipy's natural CubicSpline, whose PPoly takes an interior
        # knot into the interval on its right and closes the last one at x = 1.
        rng = np.random.default_rng(n)
        samples = rng.normal(size=n)
        knots = np.linspace(0.0, 1.0, n)
        ref = CubicSpline(knots, samples, bc_type="natural")
        spline = Potential.grid(samples)._spline
        xs = np.concatenate([rng.uniform(0.0, 1.0, 500), knots, [0.0, 1.0]])
        for nu in range(4):
            want = ref(xs, nu)
            bound = 1e-12 * max(1.0, float(np.max(np.abs(want))))
            assert np.max(np.abs(spline(xs, nu) - want)) <= bound, nu

    def test_large_grid_builds_fast(self):
        samples = np.random.default_rng(1).normal(size=10_001)
        elapsed = []
        for _ in range(3):
            start = time.perf_counter()
            Potential.grid(samples)._spline
            elapsed.append(time.perf_counter() - start)
        assert min(elapsed) < 0.1


class TestDeriveScalars:
    def test_constant_one(self, q_one):
        s = derive_scalars(q_one)
        assert s.omega == 1.0
        assert s.q_at_1 == 1.0
        assert s.dq_at_1 == 0.0
        assert s.dq_at_0 == 0.0
        assert s.q_sq_integral == 1.0

    def test_linear(self, q_linear):
        # Analytic: int x = 1/2, int x^2 = 1/3.
        s = derive_scalars(q_linear)
        assert s.omega == pytest.approx(0.5, abs=1e-13)
        assert s.q_at_1 == pytest.approx(1.0)
        assert s.dq_at_1 == pytest.approx(1.0)
        assert s.q_sq_integral == pytest.approx(1.0 / 3.0, abs=1e-13)

    def test_x_minus_one_endpoint_order(self, q_xm1):
        s = derive_scalars(q_xm1)
        assert s.q_at_1 == pytest.approx(0.0, abs=1e-14)
        assert s.dq_at_1 == pytest.approx(1.0)
        assert s.m_order == (1, pytest.approx(1.0))

    def test_zero_potential_has_no_order(self, q_zero):
        assert derive_scalars(q_zero).m_order is None

    def test_grid_scalars_match_analytic(self):
        x = np.linspace(0.0, 1.0, 65)
        p = Potential.grid(1.0 + 0.5 * x * x)
        s = derive_scalars(p)
        assert s.omega == pytest.approx(1.0 + 0.5 / 3.0, abs=1e-6)
        assert s.q_at_1 == pytest.approx(1.5, abs=1e-8)
        # natural-spline endpoint derivatives are only O(h^2) accurate
        assert s.dq_at_1 == pytest.approx(1.0, abs=1e-2)

    @pytest.mark.parametrize("p", [
        Potential.polynomial([0.3, 1.0]),
        Potential.polynomial([0.5, -1.0, 2.0, 1.5]),
        Potential.grid((0.4, -1.1, 0.7, 1.9, -0.3, 0.8, -1.6, 0.2, 1.3)),
    ], ids=["linear", "cubic", "spline"])
    def test_rules_built_once(self, p, monkeypatch):
        # The reference rebuilds each rule per call; the cached rules must give the same bits,
        # and once any potential has built them, derive_scalars builds none.
        def composite(f, panels, order):
            nodes, weights = np.polynomial.legendre.leggauss(order)
            edges = np.linspace(0.0, 1.0, panels + 1)
            half = 0.5 * (edges[1] - edges[0])
            xs = (0.5 * (edges[:-1] + edges[1:])[:, None] + half * nodes[None, :]).ravel()
            return float(np.tile(weights * half, panels) @ f(xs))

        panels = potential._quad_panels(p)
        omega = composite(p._eval, panels, potential._QUAD_ORDER)
        q_sq = composite(lambda x: p._eval(x) ** 2, panels, potential._QUAD_ORDER)
        derive_scalars(Potential.polynomial([1.0, 2.0]))

        def no_rebuild(order):
            raise AssertionError("leggauss called")

        monkeypatch.setattr(np.polynomial.legendre, "leggauss", no_rebuild)
        s = derive_scalars(p)
        assert (s.omega, s.q_sq_integral) == (omega, q_sq)


class TestQConstants:
    def test_constant_one_robin(self, q_one):
        q1, q2, q3, q4 = q_constants(derive_scalars(q_one))
        assert q1 == pytest.approx(-1.0, abs=1e-12)
        assert q2 == pytest.approx(11.0 / 6.0, abs=1e-12)
        assert q3 == pytest.approx(1.0, abs=1e-12)
        assert q4 == pytest.approx(1.0 / 6.0, abs=1e-12)

    def test_zero_potential(self):
        for h in (0.0, 1.0, -2.5):
            s = derive_scalars(Potential.constant(0.0, h=h))
            assert q_constants(s) == (0.0, 0.0, 0.0, 0.0)

    def test_constant_sum_identities(self, rng):
        # Q1+Q3 = -4 h q(1); Q2+Q4 = 2 q(0) w - 2 q'(0) + 4h[q(0) + w h].
        for _ in range(10):
            coeffs = rng.uniform(-2, 2, size=4)
            h = rng.uniform(-2, 2)
            s = derive_scalars(Potential.polynomial(coeffs, h=h))
            q1, q2, q3, q4 = q_constants(s)
            assert q1 + q3 == pytest.approx(-4 * h * s.q_at_1, abs=1e-12)
            expect = 2 * s.q_at_0 * s.omega - 2 * s.dq_at_0 + 4 * h * (s.q_at_0 + s.omega * h)
            assert q2 + q4 == pytest.approx(expect, abs=1e-12)


class TestInvariants:
    def test_independent_quadrature_agreement(self):
        # Second rule at doubled nodes reproduces omega and the q^2 integral.
        for p in (Potential.polynomial([0.3, -1.2, 0.7, 2.0]),
                  Potential.grid(np.cos(2.1 * np.linspace(0, 1, 41)))):
            s = derive_scalars(p)
            xs = np.linspace(0.0, 1.0, 4097)
            q = p._eval(xs)
            h = xs[1] - xs[0]
            omega_ref = h / 3 * (q[0] + q[-1] + 4 * q[1:-1:2].sum() + 2 * q[2:-1:2].sum())
            qsq = q * q
            qsq_ref = h / 3 * (qsq[0] + qsq[-1] + 4 * qsq[1:-1:2].sum() + 2 * qsq[2:-1:2].sum())
            assert abs(s.omega - omega_ref) <= 1e-10 * max(1.0, abs(omega_ref))
            assert abs(s.q_sq_integral - qsq_ref) <= 1e-10 * max(1.0, abs(qsq_ref))

    SPLINE = (-0.586, -0.433, -0.395, -0.557, -0.597, -0.531, -0.416, -0.445, 0.86)

    def test_spline_cross_check_is_quiet(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            derive_scalars(Potential.grid(self.SPLINE))

    def test_low_order_rule_still_warns(self, monkeypatch):
        # Two nodes per panel put the q^2 integral about 8e-7 off the cross-check.
        monkeypatch.setattr(potential, "_QUAD_ORDER", 2)
        with pytest.warns(UserWarning, match="quadrature cross-check disagreement"):
            derive_scalars(Potential.grid(self.SPLINE))

    @pytest.mark.parametrize("c", [2.0, -1.0])
    def test_omega_scales_linearly(self, c):
        base = [0.4, -0.9, 1.3]
        s0 = derive_scalars(Potential.polynomial(base))
        s1 = derive_scalars(Potential.polynomial([c * b for b in base]))
        assert s1.omega == pytest.approx(c * s0.omega, abs=1e-12)
