import numpy as np
import pytest

from tspec import DEvaluator, Potential, charfun, derive_scalars, sample_D_grid
from tspec.charfun import eval_D_many
from tspec.errors import DomainError

from conftest import const_jost, dirichlet_d_const1, jost_at_zero_many


def const_d(c, h, k, variant):
    """D for q = c in closed form, from cos kp and sin(kp)/kp with kp^2 = k^2 - c.

    For q = c, (psi, psi')(1) = (u, v) gives psi(0) = C u - S v and
    psi'(0) = kp^2 S u + C v with C = cos kp, S = sin(kp)/kp. Put into D's
    definition, with a = kp^2 S - h C and b = C + h S, the 1/k divides out:
    Robin D = -a cos k + b k sin k - h (a sinc k + b cos k), Dirichlet
    D = C sinc k - S cos k, sinc k = sin(k)/k.
    """
    k = np.asarray(k, dtype=complex)
    kp = np.sqrt(k * k - c)
    cos_p = np.cos(kp)
    sinc_p = np.sin(kp) / np.where(kp == 0, 1.0, kp) + (kp == 0)
    sinc = np.sin(k) / np.where(k == 0, 1.0, k) + (k == 0)
    if variant == "dirichlet":
        return cos_p * sinc - sinc_p * np.cos(k)
    a = kp * kp * sinc_p - h * cos_p
    b = cos_p + h * sinc_p
    return -a * np.cos(k) + b * k * np.sin(k) - h * (a * sinc + b * np.cos(k))


def big_f(p, k):
    """F(k) = -i[f'(k,0) - h f(k,0)], the Jost data D is assembled from."""
    f, fp = jost_at_zero_many(p, [k])
    return complex(-1j * (fp[0] - p.h * f[0]))


class TestEvalF:
    def test_free_h_zero(self, q_zero):
        assert big_f(q_zero, 2.0) == pytest.approx(2.0, abs=1e-11)

    def test_free_h_one(self):
        p = Potential.constant(0.0, h=1.0)
        assert big_f(p, 2.0) == pytest.approx(2.0 + 1.0j, abs=1e-11)

    def test_constant_closed_form(self, q_one):
        f, fp = const_jost(1.0, 3.0)
        expect = -1j * fp
        assert big_f(q_one, 3.0) == pytest.approx(expect, rel=1e-10)

    def test_decaying_direction(self, q_one, q_linear):
        # |F(i tau)| on the decaying side is negligible against the growing
        # side; the ratio must fall monotonically in tau.
        for p in (q_one, q_linear):
            ratios = []
            for tau in (5.0, 10.0, 20.0):
                up = abs(big_f(p, 1j * tau))
                down = abs(big_f(p, -1j * tau))
                ratios.append(up / down)
            assert ratios[0] > ratios[1] > ratios[2]


class TestEvalD:
    def test_free_potential_degenerate(self, q_zero, rng):
        # Unperturbed system: D vanishes identically, any h.
        for h in (0.0, 1.0, -0.7):
            p = Potential.constant(0.0, h=h)
            ks = rng.uniform(0.2, 8, 20) + 1j * rng.uniform(-2, 2, 20)
            vals = eval_D_many(p, ks, variant="robin")
            assert np.max(np.abs(vals)) < 1e-10

    def test_dirichlet_closed_form(self, q_one):
        d = eval_D_many(q_one, [4.0], variant="dirichlet")[0]
        assert d == pytest.approx(complex(dirichlet_d_const1(4.0)), abs=1e-10)

    def test_robin_leading_asymptotics(self, q_one):
        # D ~ omega/2 + q(1) sin(2k)/(4k) with an O(1/k^2) remainder.
        d = eval_D_many(q_one, [10.0])[0]
        lead = 0.5 + np.sin(20.0) / 40.0
        assert abs(d - lead) < 5.0 / 100.0

    def test_evenness(self, q_one, rng):
        ks = rng.uniform(0.5, 9, 12) + 1j * rng.uniform(-2, 2, 12)
        dplus = eval_D_many(q_one, ks)
        dminus = eval_D_many(q_one, -ks)
        assert np.max(np.abs(dplus - dminus) / np.abs(dplus)) < 1e-10

    def test_conjugate_symmetry(self, rng):
        p = Potential.polynomial([0.4, 1.1, -0.8])
        ks = rng.uniform(0.5, 9, 12) + 1j * rng.uniform(-2, 2, 12)
        d = eval_D_many(p, ks)
        d_conj = eval_D_many(p, -np.conj(ks))
        assert np.max(np.abs(np.conj(d) - d_conj) / np.abs(d)) < 1e-10

    def test_small_k_continuity(self):
        # D near and at k = 0, across the |k| = 1e-3 that once split two
        # evaluation paths, against the q = c closed form at rounding level.
        ray = np.exp(0.4j)
        ks = np.array([0.0, 1e-8, 1e-6, 2e-4, 0.99e-3, 1.01e-3, 1e-2]) * ray
        for c in (1.0, -2.5, 0.3):
            for h in (0.7, 0.0, -0.4):
                p = Potential.constant(c, h=h)
                for variant in ("robin", "dirichlet"):
                    d = eval_D_many(p, ks, variant=variant)
                    expect = const_d(c, h, ks, variant)
                    assert np.max(np.abs(d - expect) / np.abs(expect)) <= 1e-14, (c, h, variant)

    def test_const_d_matches_definition(self):
        # The oracle against D's definition from the Jost data at +-k, where
        # the 1/k costs nothing.
        for c, h, k in ((1.0, 0.7, 1.3 + 0.4j), (-2.5, -0.4, 0.6 - 0.2j), (0.3, 0.0, 2.2 + 0.1j)):
            f_pos, fp_pos = const_jost(c, k)
            f_neg, fp_neg = const_jost(c, -k)
            big_pos, big_neg = -1j * (fp_pos - h * f_pos), -1j * (fp_neg - h * f_neg)
            robin = (big_pos + big_neg) / 2j - h * (big_pos - big_neg) / (2 * k)
            dirichlet = (f_pos - f_neg) / (2j * k)
            assert const_d(c, h, k, "robin") == pytest.approx(robin, rel=1e-13)
            assert const_d(c, h, k, "dirichlet") == pytest.approx(dirichlet, rel=1e-13)

    def test_one_jost_call_per_batch(self, q_linear, monkeypatch):
        # Points below |k| = 1e-3 take the same single Jost-layer call as the rest.
        calls = []
        transfer_many = charfun.transfer_many

        def counted(p, ks, rtol):
            calls.append(len(ks))
            return transfer_many(p, ks, rtol)

        monkeypatch.setattr(charfun, "transfer_many", counted)
        ks = np.array([0.0, 2e-4j, 5e-4 + 1e-4j, 0.5, 3.0 - 1.0j, 12.0 + 2.0j])
        for variant in ("robin", "dirichlet"):
            calls.clear()
            d = eval_D_many(q_linear, ks, variant=variant)
            assert calls == [ks.size] and np.all(np.isfinite(d))

    def test_dirichlet_large_k(self, q_one):
        # k^2 D(k) -> omega/2 along real k.
        d = eval_D_many(q_one, [200.0], variant="dirichlet")[0]
        assert abs(200.0 ** 2 * d - 0.5) < 0.1

    def test_unknown_variant(self, q_one):
        with pytest.raises(DomainError):
            eval_D_many(q_one, [1.0], variant="neumann")


class TestLeadingFunctionBound:
    def test_8ikD_minus_g1_bounded(self, q_one):
        # 8ik D(k) - g1(k) is a bounded sine transform on the real axis:
        # its sup on the right half of the window must not outgrow the left.
        from tspec.asymptotics import eval_g1

        s = derive_scalars(q_one)
        ks = np.linspace(10.0, 100.0, 50)
        d = eval_D_many(q_one, ks)
        gap = np.abs(8j * ks * d - eval_g1(s, ks))
        left = gap[ks <= 55.0].max()
        right = gap[ks > 55.0].max()
        assert np.all(np.isfinite(gap))
        assert right <= 1.5 * left


class TestGrid:
    def test_smoke_all_finite(self, q_one):
        samples = sample_D_grid(q_one, "robin", (0.0, 10.0, 0.0, 3.0), 8, 4)
        assert len(samples) == 32
        assert all(np.isfinite(s.value.real) and np.isfinite(s.value.imag) for s in samples)
        assert all(s.error is None for s in samples)

    def test_evenness_audit_on_grid(self, q_one):
        # A grid symmetric about 0 pairs k with -k.
        samples = sample_D_grid(q_one, "robin", (-6.0, 6.0, -1.0, 1.0), 7, 3)
        by_k = {(round(s.k.real, 12), round(s.k.imag, 12)): s.value for s in samples}
        for (re, im), val in by_k.items():
            mirror = by_k.get((round(-re, 12), round(-im, 12)))
            if mirror is not None:
                assert val == pytest.approx(mirror, rel=1e-10, abs=1e-12)

    def test_conjugate_audit_on_grid(self, q_one):
        samples = sample_D_grid(q_one, "robin", (1.0, 5.0, -1.5, 1.5), 5, 7)
        by_k = {(round(s.k.real, 12), round(s.k.imag, 12)): s.value for s in samples}
        for (re, im), val in by_k.items():
            mirror = by_k.get((round(-re, 12), round(im, 12)))
            if mirror is not None:
                assert np.conj(val) == pytest.approx(mirror, rel=1e-9, abs=1e-12)

    def test_per_point_failures_recorded(self, q_one):
        # Points beyond the |Im k| cap fail individually, not fatally.
        samples = sample_D_grid(q_one, "robin", (1.0, 2.0, 59.0, 61.0), 2, 3)
        assert len(samples) == 6
        errors = [s for s in samples if s.error]
        assert errors and all("DomainError" in s.error for s in errors)
        ok = [s for s in samples if s.error is None]
        assert all(np.isfinite(s.value.real) for s in ok)

    def test_programming_errors_propagate(self, q_one, monkeypatch):
        def broken(*args, **kwargs):
            raise TypeError("not a D evaluation failure")

        monkeypatch.setattr(charfun, "eval_D_many", broken)
        with pytest.raises(TypeError, match="not a D evaluation failure"):
            sample_D_grid(q_one, "robin", (0.0, 1.0, 0.0, 1.0), 2, 2)

    def test_capped_points_skip_the_batch(self, q_linear, monkeypatch):
        # The 16 points at Im k = 60.5 are rejected up front; the other 112
        # take one batched call and match the point-by-point reference. The
        # Jost products round differently in a batch than alone: up to 3e-12
        # relative at Im k = 52, where either value is 7e-12 from rtol = 1e-14.
        region, nx, ny = (0.0, 10.0, 0.0, 60.5), 16, 8
        points = (np.linspace(0.0, 10.0, nx)[:, None] + 1j * np.linspace(0.0, 60.5, ny)).ravel()
        reference = []
        for c in points:
            try:
                reference.append((eval_D_many(q_linear, [c])[0], None))
            except DomainError as exc:
                reference.append((None, f"DomainError: {exc}"))
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[1])
            return eval_D_many(*args, **kwargs)

        monkeypatch.setattr(charfun, "eval_D_many", counted)
        samples = sample_D_grid(q_linear, "robin", region, nx, ny)
        assert len(calls) == 1 and len(calls[0]) == 112
        assert sum(error is not None for _, error in reference) == 16
        for sample, (value, error) in zip(samples, reference):
            assert sample.error == error
            if error is None:
                assert abs(sample.value - value) <= 1e-11 * abs(value)


class TestEvaluator:
    def test_repeated_calls_identical(self, q_one):
        dev = DEvaluator(q_one, "robin")
        first = dev(np.array([2.0 + 1.0j, 3.0]))
        again = dev(np.array([2.0 + 1.0j, 3.0]))
        assert np.all(first == again)

    def test_scalar_call(self, q_one):
        dev = DEvaluator(q_one, "robin")
        val = dev(2.0 + 1.0j)
        assert isinstance(val, complex)
