from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp
from scipy.interpolate import CubicSpline
from scipy.special import airye

import tspec.jost
from tspec import Potential
from tspec.charfun import eval_D_many
from tspec.errors import DomainError, IntegrationFailureError
from tspec.potential import aligned_cells

from conftest import const_jost, jost_at_zero_many
from jost_oracles import (KernelConvergenceError, TruncationWarning, jost_via_kernel,
                          kernel_iterate, successive_approx)

SPLINE_SAMPLES = (0.4, -1.1, 0.7, 1.9, -0.3, 0.8, -1.6, 0.2, 1.3)
NONCONSTANT = {
    "linear": Potential.polynomial([0.3, 1.0]),
    "cubic": Potential.polynomial([0.5, -1.0, 2.0, 1.5]),
    "spline": Potential.grid(SPLINE_SAMPLES),
}


def dop853_jost(potential, ks):
    """f(k,0), f'(k,0) by scipy DOP853 at rtol 1e-13, restarted at every spline knot.

    q is rebuilt here with numpy/scipy from the potential's payload, so the
    reference shares no evaluation code with tspec.
    """
    if potential.kind == "grid":
        q = CubicSpline(np.linspace(0.0, 1.0, len(potential.samples)), potential.samples,
                        bc_type="natural")
        edges = np.linspace(1.0, 0.0, len(potential.samples))
    else:
        coeffs = np.asarray(potential.coeffs)
        q = lambda x: np.polynomial.polynomial.polyval(x, coeffs)  # noqa: E731
        edges = np.array([1.0, 0.0])
    out = []
    for k in ks:
        y = np.array([np.exp(1j * k), 1j * k * np.exp(1j * k)])
        kk = k * k
        for a, b in zip(edges[:-1], edges[1:]):
            sol = solve_ivp(lambda x, y: np.array([y[1], (q(x) - kk) * y[0]]), (a, b), y,
                            method="DOP853", rtol=1e-13, atol=1e-16 * np.max(np.abs(y)))
            y = sol.y[:, -1]
        out.append(y)
    return np.array(out).T


def airy_jost_xm1(ks):
    """f(k,0), f'(k,0) for q = x - 1 in closed form: psi = a Ai(z) + b Bi(z), z = x - 1 - k^2.

    Uses the scaled functions of scipy.special.airye (Ai = aie e^{-zeta},
    Bi = bie e^{|Re zeta|}, zeta = 2/3 z^{3/2}) so that large |k| does not overflow.
    Well conditioned for Im k << 0 with small Re k only: elsewhere the two terms
    cancel (checked against 80-digit mpmath to 4e-11 relative for Re k <= 3,
    Im k from -12 to -30).
    """
    ks = np.asarray(ks, dtype=complex)
    z1, z0 = -ks * ks, -1.0 - ks * ks
    zeta1, zeta0 = 2.0 / 3.0 * z1 ** 1.5, 2.0 / 3.0 * z0 ** 1.5
    ai1, aip1, bi1, bip1 = airye(z1)
    ai0, aip0, bi0, bip0 = airye(z0)
    # The Wronskian of Ai and Bi is 1/pi; psi(1) = e^{ik}, psi'(1) = ik e^{ik}.
    a = np.pi * np.exp(1j * ks + np.abs(zeta1.real) - zeta0) * (bip1 - 1j * ks * bi1)
    b = np.pi * np.exp(1j * ks - zeta1 + np.abs(zeta0.real)) * (1j * ks * ai1 - aip1)
    return a * ai0 + b * bi0, a * aip0 + b * bip0


def scaled_rel(ks, f, fp, f_ref, fp_ref):
    """Relative difference on |f| + |f'|/max(1,|k|), the propagator's error measure."""
    w = 1.0 / np.maximum(1.0, np.abs(ks))
    return (np.abs(f - f_ref) + w * np.abs(fp - fp_ref)) / (np.abs(f_ref) + w * np.abs(fp_ref))


class TestJostAtZero:
    def test_free_potential(self, q_zero):
        f, fp = jost_at_zero_many(q_zero, [2.0])
        assert f[0] == pytest.approx(1.0, abs=1e-11)
        assert fp[0] == pytest.approx(2j, abs=1e-11)

    def test_constant_real_k(self, q_one):
        jf, jfp = jost_at_zero_many(q_one, [3.0])
        f, fp = const_jost(1.0, 3.0)
        assert abs(jf[0] - f) <= 1e-10 * abs(f)
        assert abs(jfp[0] - fp) <= 1e-10 * abs(fp)

    def test_constant_complex_k(self, q_one):
        k = 0.5 + 2j
        jf, jfp = jost_at_zero_many(q_one, [k])
        f, fp = const_jost(1.0, k)
        assert abs(jf[0] - f) <= 1e-9 * abs(f)
        assert abs(jfp[0] - fp) <= 1e-9 * abs(fp)

    def test_imaginary_cap(self, q_one):
        with pytest.raises(DomainError):
            jost_at_zero_many(q_one, [70j])

    def test_tolerance_consistency(self, q_one, rng):
        # Halving the tolerance moves f(k,0) by less than the coarser tolerance.
        ks = 30 * rng.uniform(0.05, 1.0, 20) * np.exp(1j * rng.uniform(0, 2 * np.pi, 20))
        f_coarse, _ = jost_at_zero_many(q_one, ks, rtol=1e-9)
        f_fine, _ = jost_at_zero_many(q_one, ks, rtol=5e-10)
        rel = np.abs(f_coarse - f_fine) / np.abs(f_fine)
        assert np.max(rel) < 1e-9

    def test_conjugation_symmetry(self, rng):
        # f(-k*, 0)* = f(k, 0) for real-valued q.
        p = Potential.polynomial([0.5, -1.0, 0.8])
        ks = rng.uniform(0.3, 8, 10) + 1j * rng.uniform(-3, 3, 10)
        f_k, fp_k = jost_at_zero_many(p, ks)
        f_m, fp_m = jost_at_zero_many(p, -np.conj(ks))
        assert np.max(np.abs(np.conj(f_m) - f_k) / np.abs(f_k)) < 1e-10
        assert np.max(np.abs(np.conj(fp_m) - fp_k) / np.abs(fp_k)) < 1e-10

    def test_wronskian(self, q_one):
        # W[f(k,.), f(-k,.)] = -2ik for real k != 0, evaluated at x=0.
        for k in (1.0, 4.5, 11.0):
            (fa,), (fpa,) = jost_at_zero_many(q_one, [k])
            (fb,), (fpb,) = jost_at_zero_many(q_one, [-k])
            w = fa * fpb - fpa * fb
            assert w == pytest.approx(-2j * k, rel=1e-10)


class TestNonConstantPotentials:
    """Error control on potentials where one Magnus cell is not exact."""

    DIFF_KS = np.array([0.7 + 0.2j, 7.5 - 3.0j, -15.2 + 6.0j, 31.4 + 10.0j, 44.0 - 10.0j, 60.0])

    @pytest.mark.parametrize("name", sorted(NONCONSTANT))
    def test_matches_dop853(self, name):
        p = NONCONSTANT[name]
        f, fp = jost_at_zero_many(p, self.DIFF_KS)
        f_ref, fp_ref = dop853_jost(p, self.DIFF_KS)
        assert np.max(np.abs(f - f_ref) / np.abs(f_ref)) < 1e-10
        assert np.max(np.abs(fp - fp_ref) / np.abs(fp_ref)) < 1e-10

    @pytest.mark.parametrize("name", ["cubic", "spline"])
    def test_wronskian(self, name):
        # W[f(k,.), f(-k,.)] = -2ik for complex k as well.
        p = NONCONSTANT[name]
        ks = np.array([0.4 + 0.3j, 3.0 - 1.5j, 9.5 + 2.0j, 18.0 - 0.5j, 25.0 + 1.0j])
        f, fp = jost_at_zero_many(p, np.concatenate([ks, -ks]))
        n = ks.size
        w = f[:n] * fp[n:] - fp[:n] * f[n:]
        assert np.max(np.abs(w + 2j * ks) / np.abs(2 * ks)) < 1e-9

    @pytest.mark.parametrize("name", ["cubic", "spline"])
    def test_tolerance_consistency(self, name):
        p = NONCONSTANT[name]
        rng = np.random.default_rng(7)
        ks = 30 * rng.uniform(0.05, 1.0, 20) * np.exp(1j * rng.uniform(0, 2 * np.pi, 20))
        ks = ks.real + 1j * np.clip(ks.imag, -4.0, 4.0)
        f_coarse, fp_coarse = jost_at_zero_many(p, ks, rtol=1e-9)
        f_fine, fp_fine = jost_at_zero_many(p, ks, rtol=1e-13)
        assert np.max(scaled_rel(ks, f_coarse, fp_coarse, f_fine, fp_fine)) < 1e-9

    @pytest.mark.parametrize("rtol", [1e-13, 1e-9])
    def test_rounding_floor_matches_airy(self, q_xm1, rtol, monkeypatch):
        # For Im k << 0 the start at x=1 is recessive and rounding, amplified
        # like e^{2|Im k| x}, sits above rtol = 1e-13; the doubling stops at the
        # floor instead of failing. The value returned there must still be
        # within the floor's own estimate, 2 eps * cells * int_0^1 e^{2 tau x} dx,
        # of the closed form.
        used = _spy_cells(monkeypatch)
        ks = np.array([a - 1j * tau for a in (0.0, 1.0, 3.0) for tau in (12.0, 16.0, 20.0, 25.0, 30.0)])
        f_ref, fp_ref = airy_jost_xm1(ks)
        w = 1.0 / np.maximum(1.0, np.abs(ks))
        for k, fr, fpr in zip(ks, f_ref, fp_ref):
            used.clear()
            f, fp = jost_at_zero_many(q_xm1, [k], rtol=rtol)
            tau = -k.imag
            floor = 2.0 * np.finfo(float).eps * max(used) * np.expm1(2 * tau) / (2 * tau)
            scale = abs(fr) + w[0] * abs(fpr)
            err = abs(f[0] - fr) + w[0] * abs(fp[0] - fpr)
            assert err <= floor + rtol * scale, k

    # q = -1.67 + 2.53 x; at 1e-13 the 8-vs-16 change predicts 256 cells, which
    # the ladder reaches without the counts between; at 1e-8 it doubles once more.
    @pytest.mark.parametrize("k, rtol, levels", [(10.5 + 0.8j, 1e-13, [8, 16, 128, 256]),
                                                 (1.5 + 1.7j, 1e-8, [8, 16, 32])],
                             ids=["1e-13", "1e-8"])
    def test_ladder_jumps_to_the_predicted_count(self, k, rtol, levels, monkeypatch):
        used = _spy_cells(monkeypatch)
        jost_at_zero_many(Potential.polynomial([-1.6685632173450171, 2.528261446027842]), [k],
                          rtol=rtol)
        assert used == levels

    def test_ladder_jump_stops_at_the_cap(self, monkeypatch):
        monkeypatch.setattr(tspec.jost, "_MAX_CELLS", 64)
        used = _spy_cells(monkeypatch)
        with pytest.raises(IntegrationFailureError):
            jost_at_zero_many(NONCONSTANT["linear"], [30.0 + 1.0j], rtol=1e-13)
        assert max(used) == 64

    @pytest.mark.parametrize("name", ["linear", "spline"])
    def test_cell_cap_raises(self, name, monkeypatch):
        # The spline's 8 intervals start at 8 cells, so a cap of 16 allows one doubling.
        monkeypatch.setattr(tspec.jost, "_MAX_CELLS", 16)
        with pytest.raises(IntegrationFailureError):
            jost_at_zero_many(NONCONSTANT[name], [30.0 + 1.0j], rtol=1e-13)


def _spy_cells(monkeypatch):
    """The cell counts of every _transfer call (one, or a pair), in order."""
    used = []
    transfer = tspec.jost._transfer

    def spy(p, ks, counts):
        used.extend(counts)
        return transfer(p, ks, counts)

    monkeypatch.setattr(tspec.jost, "_transfer", spy)
    return used


class TestCellDataCache:
    KS = np.array([0.7, 3.0 + 0.4j, 12.0 - 2.0j, 31.0 + 1.5j])

    @pytest.mark.parametrize("name", ["cubic", "spline"])
    def test_warm_equals_cold(self, name):
        p = replace(NONCONSTANT[name])     # a fresh instance, with nothing cached
        cold = jost_at_zero_many(p, self.KS, rtol=1e-13)
        jost_at_zero_many(p, [5.0 + 0.2j, 40.0], rtol=1e-13)
        warm = jost_at_zero_many(p, self.KS, rtol=1e-13)
        for a, b in zip(cold, warm):
            assert np.array_equal(a, b)

    def test_not_shared_between_equal_potentials(self):
        p1 = Potential.grid(SPLINE_SAMPLES)
        p2 = Potential.grid(SPLINE_SAMPLES)
        assert p1 == p2 and hash(p1) == hash(p2)
        jost_at_zero_many(p1, self.KS)
        assert p1._magnus_cells and not p2._magnus_cells

    def test_one_entry_per_cell_count(self, monkeypatch):
        used, built = [], []
        transfer, generators = tspec.jost._transfer, tspec.jost._magnus_generators

        def spy_transfer(p, ks, counts):
            used.extend(counts)
            return transfer(p, ks, counts)

        def spy_generators(h, *q):
            built.append(round(1.0 / h))
            return generators(h, *q)

        monkeypatch.setattr(tspec.jost, "_transfer", spy_transfer)
        monkeypatch.setattr(tspec.jost, "_magnus_generators", spy_generators)
        p = Potential.polynomial([0.3, 1.0])
        for rtol in (1e-9, 1e-13, 1e-11):
            jost_at_zero_many(p, self.KS, rtol=rtol)
        assert sorted(p._magnus_cells) == sorted(built) == sorted(set(used))
        assert len(used) > len(built)


def _ks_in_disc(k_abs=40.0, im_abs=10.0):
    """k with |k| <= k_abs and |Im k| <= im_abs."""
    return st.builds(complex, st.floats(-k_abs, k_abs), st.floats(-im_abs, im_abs)).filter(
        lambda k: abs(k) <= k_abs)


def _jost_distance(f, fp, f_ref, fp_ref, k):
    w = 1.0 / max(1.0, abs(k))
    return (abs(f - f_ref) + w * abs(fp - fp_ref)) / (abs(f_ref) + w * abs(fp_ref))


_PROPERTY = settings(max_examples=25, deadline=None, derandomize=True)


class TestSharedTransfer:
    """k and -k share their Magnus cell matrices, which depend on k only through k^2."""

    @_PROPERTY
    @given(name=st.sampled_from(sorted(NONCONSTANT)), k=_ks_in_disc(), j=_ks_in_disc())
    def test_batch_matches_single_calls(self, name, k, j):
        p = NONCONSTANT[name]
        batch = np.array([k, -k, k, j, np.conj(k)])
        seen = []
        cell_matrices = tspec.jost._cell_matrices

        def spy(*gens_and_kk):
            seen.append(gens_and_kk[-1])
            return cell_matrices(*gens_and_kk)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(tspec.jost, "_cell_matrices", spy)
            f, fp = jost_at_zero_many(p, batch)
        assert seen and all(np.unique(kk).size == kk.size for kk in seen)
        for i, kb in enumerate(batch):
            f1, fp1 = jost_at_zero_many(p, [kb])
            assert _jost_distance(f[i], fp[i], f1[0], fp1[0], kb) <= 1e-11

    @_PROPERTY
    @given(name=st.sampled_from(sorted(NONCONSTANT)), k=_ks_in_disc(),
           variant=st.sampled_from(["robin", "dirichlet"]))
    def test_d_even_and_conjugate_symmetric(self, name, k, variant):
        p = replace(NONCONSTANT[name], h=0.3)
        d, d_minus, d_conj = (eval_D_many(p, [c], variant=variant)[0] for c in (k, -k, np.conj(k)))
        scale = abs(d)
        assert abs(d_minus - d) <= 1e-12 * scale
        assert abs(d_conj - np.conj(d)) <= 1e-12 * scale


class TestPairPass:
    """A rung's pair (N, 2N) shares one exponential call and one chain with the
    products of the two single-count calls."""

    @pytest.mark.parametrize("name", sorted(NONCONSTANT))
    def test_pair_equals_single_counts(self, name):
        p = replace(NONCONSTANT[name])
        rng = np.random.default_rng(5)
        for _ in range(15):
            size = int(rng.integers(1, 60))
            kk = np.unique((rng.uniform(0.0, 40.0, size) + 1j * rng.uniform(-5.0, 5.0, size)) ** 2)
            n = aligned_cells(p, 8) * 2 ** int(rng.integers(0, 6))
            m, m2 = tspec.jost._transfer(p, kk, (n, 2 * n))
            (single,), (double,) = (tspec.jost._transfer(p, kk, (c,)) for c in (n, 2 * n))
            # The N cells share the single call's blocks; the 2N half-cells go in
            # blocks of twice its size, which coincide when one block holds them all.
            assert np.array_equal(m, single)
            if 2 * n <= tspec.jost._BLOCK // kk.size:
                assert np.array_equal(m2, double)
            else:
                assert np.all(np.abs(m2 - double) <= 1e-12 * np.abs(double).max(axis=0))


class TestCellExponential:
    """The real-function closed form of exp(-Omega) against 40-digit mpmath."""

    # (constant q, k^2): delta = 0, real negative delta^2 from either side of the
    # branch cut, delta on the imaginary axis near a zero of cos, |Re delta| near the
    # |Im k| cap, and an oblique delta.
    CASES = {
        "zero": (1.3, 1.3),
        "cut+": (1.3, 5.3 + 1e-300j),
        "cut-": (1.3, 5.3 - 1e-300j),
        "imag": (0.0, (np.pi / 2) ** 2),
        "cap": (1.3, (60j) ** 2),
        "cap-": (1.3, (40 - 59.9j) ** 2),
        "oblique": (-0.7, (18 + 6j) ** 2),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_matches_mpmath(self, case):
        mpmath = pytest.importorskip("mpmath")
        c, kk = self.CASES[case]
        g = tspec.jost._cell_generators(Potential.constant(c), 1)
        m = tspec.jost._cell_matrices(g, np.array([[kk]], dtype=complex))[:, :, 0, 0, 0]
        nwe, wh0, nwf0, wh1, nwf1 = tspec.jost._magnus_generators(1.0, *[np.array([c])] * 3)[:, 0]
        we, wf0, wf1 = -nwe, -nwf0, -nwf1
        wh, wf = wh0 - wh1 * complex(kk), wf0 - wf1 * complex(kk)   # as the kernel forms them
        with mpmath.workdps(40):
            d = mpmath.sqrt(mpmath.mpc(wh) ** 2 + mpmath.mpc(we) * mpmath.mpc(wf))
            s = mpmath.sinh(d) / d if d else mpmath.mpf(1)
            ref = [[mpmath.cosh(d) - s * wh, -s * we], [-s * wf, mpmath.cosh(d) + s * wh]]
            ref = np.array([[complex(v) for v in row] for row in ref])
        if case == "zero":
            assert np.array_equal(m, [[1.0, -1.0], [0.0, 1.0]])
        # The half-ulp rounding of delta itself moves cosh and sinh by |delta| ulps.
        ulps = np.max(np.abs(m - ref)) / (np.finfo(float).eps * np.max(np.abs(ref)))
        assert ulps <= 4.0 * (1.0 + abs(complex(d)))


class TestConjugateFold:
    """k^2 is folded onto Im k^2 >= 0 and M(conj k^2) = conj M(k^2), so D(conj k) is
    exactly conj D(k), in one batch and in separate calls."""

    @_PROPERTY
    @given(name=st.sampled_from(sorted(NONCONSTANT)), k=_ks_in_disc(),
           variant=st.sampled_from(["robin", "dirichlet"]))
    def test_d_exactly_conjugate(self, name, k, variant):
        p = replace(NONCONSTANT[name], h=0.3)
        for ks in ([k], [k, 18 + 6j]):
            d = eval_D_many(p, ks + list(np.conj(ks)), variant=variant)
            assert np.array_equal(d[len(ks):], np.conj(d[:len(ks)]))
        single = [eval_D_many(p, [c], variant=variant)[0]
                  for c in (k, np.conj(k), 18 + 6j, 18 - 6j)]
        assert single[1] == np.conj(single[0]) and single[3] == np.conj(single[2])


class TestKernel:
    def test_free_kernel_vanishes(self, q_zero):
        kg = kernel_iterate(q_zero, 32)
        assert np.max(np.abs(kg.values)) == 0.0

    def test_diagonal_identity_constant(self, q_one):
        # K(x,x) = (1/2) int_x^1 q = (1-x)/2 for q = 1.
        kg = kernel_iterate(q_one, 64)
        n = kg.mesh_n
        for i in range(0, n + 1, 7):
            x = i * kg.h
            assert kg.values[i, i] == pytest.approx((1.0 - x) / 2.0, abs=1e-8)

    def test_support_condition(self, q_one):
        kg = kernel_iterate(q_one, 20)
        # K(0.5, 1.6) = 0 since 0.5 + 1.6 >= 2.
        i, j = 10, 32
        assert kg.values[i, j] == 0.0

    def test_diagonal_identity_polynomial(self):
        p = Potential.polynomial([0.2, 1.0, -0.6])
        kg = kernel_iterate(p, 64)
        n = kg.mesh_n
        x = np.arange(n + 1) * kg.h
        antideriv = np.polynomial.polynomial.polyint(p.coeffs)
        qtail = np.polynomial.polynomial.polyval(1.0, antideriv) - np.polynomial.polynomial.polyval(x, antideriv)
        diag = kg.values[np.arange(n + 1), np.arange(n + 1)]
        assert np.max(np.abs(diag - 0.5 * qtail)) < 1e-9

    def test_kernel_route_vs_ode_route(self, q_one, kg_one_128):
        for k in range(1, 11):
            f_kernel = jost_via_kernel(kg_one_128, float(k))
            f_ode = jost_at_zero_many(q_one, [float(k)])[0][0]
            assert abs(f_kernel - f_ode) < 1e-5

    def test_kernel_route_fine_mesh(self, q_one, kg_one_256):
        f_kernel = jost_via_kernel(kg_one_256, 5.0)
        f_ode = jost_at_zero_many(q_one, [5.0])[0][0]
        assert abs(f_kernel - f_ode) < 1e-6

    def test_kernel_route_k_zero(self, q_one, kg_one_256):
        assert abs(jost_via_kernel(kg_one_256, 0.0) - jost_at_zero_many(q_one, [0.0])[0][0]) < 1e-6

    def test_mesh_too_coarse(self, q_one):
        with pytest.raises(DomainError):
            kernel_iterate(q_one, 8)

    def test_nonconvergence_reports_residual(self, q_one):
        with pytest.raises(KernelConvergenceError) as excinfo:
            kernel_iterate(q_one, 20, max_iter=2)
        assert excinfo.value.residual > 0


class TestSuccessiveApprox:
    def test_free_series_is_one(self, q_zero):
        st = successive_approx(q_zero, -5.0)
        assert np.max(np.abs(st.p - 1.0)) == 0.0

    def test_matches_ode_route(self, q_one):
        # f(i tau, 0) = p(i tau, 0); compare with backward integration at k = i tau.
        st = successive_approx(q_one, -10.0)
        f_ode = jost_at_zero_many(q_one, [-10j])[0][0]
        assert abs(st.p_at_0 - f_ode) / abs(f_ode) < 1e-8

    def test_derivative_matches_ode_route(self, q_one):
        # f'(i tau, 0) = p'(i tau, 0) + i k p(i tau, 0) with k = i tau.
        tau = -8.0
        st = successive_approx(q_one, tau)
        fp_series = st.dp_at_0 - tau * st.p_at_0
        fp_ode = jost_at_zero_many(q_one, [1j * tau])[1][0]
        assert abs(fp_series - fp_ode) / abs(fp_ode) < 1e-8

    def test_endpoint_asymptotics(self, q_xm1):
        # Leading term: p(i tau, 0) (2 tau)^(m+2) / e^{-2 tau} -> q^(m)(1) = 1, m = 1.
        tau = -20.0
        st = successive_approx(q_xm1, tau)
        lead = st.p_at_0 * (2 * tau) ** 3 / np.exp(-2 * tau)
        assert lead == pytest.approx(1.0, rel=0.2)

    def test_majorant_bounds_terms(self, q_one, q_xm1):
        for p, tau in ((q_one, -6.0), (q_xm1, -12.0)):
            st = successive_approx(p, tau)
            for term, bound in zip(st.terms[1:], st.majorants[1:]):
                assert np.all(np.abs(term) < bound + 1e-300)

    def test_requires_negative_tau(self, q_one):
        with pytest.raises(DomainError):
            successive_approx(q_one, 1.0)

    def test_truncation_warning(self, q_one):
        with pytest.warns(TruncationWarning):
            successive_approx(q_one, -0.5, n_max=2)
