import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tspec import Potential, derive_scalars, q_constants
from tspec.asymptotics import (_C_MIN, _X_STAR, _dirichlet_flip, _newton_g1, default_theorem_tag,
                               eval_g1, index_targets, leading_zeros, predict_eigenvalues,
                               residual_report, vanishing)
from tspec.errors import DomainError, HypothesisMismatchError
from tspec.potential import PotentialScalars
from tspec.rootfind import Eigenvalue

from conftest import representatives_of, solve_transcendental, zero_target_by_box_search


def make_scalars(omega=0.0, q1=0.0, dq1=0.0, q0=0.0, dq0=0.0, qsq=0.0, m=None, h=0.0):
    return PotentialScalars(omega=omega, q_at_1=q1, dq_at_1=dq1, q_at_0=q0,
                            dq_at_0=dq0, q_sq_integral=qsq, m_order=m, h=h)


def fixed_point_oracle(kappa, w, iters=200):
    """Independent route to z - kappa log z = w: iterate z <- w + kappa log z."""
    z = complex(w)
    for _ in range(iters):
        z = w + kappa * cmath.log(z)
    return z


class TestTranscendental:
    def test_kappa_zero_identity(self):
        tp = solve_transcendental(0.0, 10 + 3j)
        assert tp.z == 10 + 3j and tp.residual == 0.0

    def test_matches_fixed_point_oracle(self):
        tp = solve_transcendental(1.0, 50.0)
        oracle = fixed_point_oracle(1.0, 50.0)
        assert abs(tp.z - oracle) < 1e-12
        assert tp.residual < 1e-12

    def test_seed_within_expansion_remainder(self):
        # |z_seed - z| is controlled by the next term log^2|w|/|w|^2.
        tp = solve_transcendental(1.0, 50.0)
        bound = 10.0 * math.log(50.0) ** 2 / 50.0 ** 2
        assert abs(tp.seed - tp.z) < bound

    def test_random_instances_residual(self):
        rng = np.random.default_rng(20240817)
        for _ in range(100):
            kappa = (rng.uniform(-3, 3) + 1j * rng.uniform(-3, 3))
            wmag = rng.uniform(20 * abs(kappa) + 10, 300)
            w = wmag * np.exp(1j * rng.uniform(0, 2 * np.pi))
            tp = solve_transcendental(kappa, w)
            assert tp.residual < 1e-12

    def test_root_across_principal_cut(self):
        # w just above the negative real axis, z just below it: the principal
        # Log z sits 2 pi i away from the branch the seed starts on.
        kappa, w = -1.337 + 0.302j, -183.78 + 1.17j
        tp = solve_transcendental(kappa, w)
        assert tp.residual < 1e-12
        assert tp.z.imag < 0.0 < w.imag
        z = complex(w)
        for _ in range(200):
            z = w + kappa * (cmath.log(w) + cmath.log(z / w))
        assert abs(tp.z - z) < 1e-12
        assert abs(tp.seed - tp.z) < 10.0 * math.log(abs(w)) ** 2 / abs(w) ** 2

    def test_expansion_gap_fitted_constant(self):
        # One C <= 10 covers |w| from 20 to 1e4 at kappa = 1.
        cs = []
        for wmag in np.geomspace(20, 1e4, 25):
            tp = solve_transcendental(1.0, float(wmag))
            cs.append(abs(tp.z - tp.seed) * wmag ** 2 / math.log(wmag) ** 2)
        assert max(cs) <= 10.0

    def test_validity_guard(self):
        with pytest.raises(DomainError):
            solve_transcendental(2.0, 3.0)


class TestG1:
    def test_vanishes_at_zero(self):
        s = make_scalars(omega=1.0, q1=1.0)
        assert eval_g1(s, 0.0) == 0

    def test_omega_zero_lattice(self):
        s = make_scalars(omega=0.0, q1=1.0)
        for n in (1, 2, 3):
            assert abs(eval_g1(s, n * math.pi / 2.0)) < 1e-12

    def test_direct_value(self):
        s = make_scalars(omega=1.0, q1=1.0)
        assert eval_g1(s, math.pi / 4) == pytest.approx(1j * (math.pi + 2), abs=1e-14)


class TestLeadingZeros:
    def test_ratio_positive_formula_seed(self, q_one):
        # (ap-12)-style seed for omega = q(1) = 1 at n = 10.
        s = derive_scalars(q_one)
        lz = leading_zeros(s, range(1, 11))
        b10 = math.log(20 * math.pi) - math.log(0.5)
        sigma_seed = 10.75 * math.pi - b10 / (40 * math.pi)
        tau_seed = 0.5 * (b10 + 3.0 / 40.0)
        mu10 = lz.mu_n[lz.ns.index(10)]
        assert mu10.real == pytest.approx(sigma_seed, abs=0.01)
        assert mu10.imag == pytest.approx(tau_seed, abs=0.01)

    def test_ratio_negative_formula_seed(self):
        # omega = 0.2, q(1) = -0.6: -q(1)/(2 omega) = 1.5.
        s = make_scalars(omega=0.2, q1=-0.6)
        lz = leading_zeros(s, range(1, 11))
        b10 = math.log(20 * math.pi) - math.log(1.5)
        sigma_seed = 10.25 * math.pi - b10 / (40 * math.pi)
        tau_seed = 0.5 * (b10 + 1.0 / 40.0)
        mu10 = lz.mu_n[lz.ns.index(10)]
        assert mu10.real == pytest.approx(sigma_seed, abs=0.01)
        assert mu10.imag == pytest.approx(tau_seed, abs=0.01)

    def test_polish_quality(self, q_one):
        s = derive_scalars(q_one)
        lz = leading_zeros(s, range(1, 13))
        for n, mu, ok in zip(lz.ns, lz.mu_n, lz.polished):
            assert ok
            g = abs(eval_g1(s, mu))
            gp = abs(4j * s.omega + 2j * s.q_at_1 * (np.exp(2j * mu) + np.exp(-2j * mu)))
            assert g < 1e-10 * gp * abs(mu)

    def test_omega_zero_exact(self):
        # The omega = 0 zeros are exactly n pi / 2: predict_eigenvalues writes them.
        with pytest.raises(DomainError):
            leading_zeros(make_scalars(omega=0.0, q1=1.0), range(1, 6))

    def test_first_quadrant_convention(self):
        for s in (make_scalars(omega=1.0, q1=1.0), make_scalars(omega=0.2, q1=-0.6)):
            lz = leading_zeros(s, range(1, 9))
            for n, mu in zip(lz.ns, lz.mu_n):
                assert mu.real > 0 and mu.imag > 0

    def test_small_zero_from_box_search(self, q_one):
        s = derive_scalars(q_one)
        n, mu_0, _ = index_targets(s, "robin", 3 * math.pi)[0][0]
        assert n == 0
        assert abs(eval_g1(s, mu_0)) < 1e-9

    def test_requires_q1(self):
        with pytest.raises(DomainError):
            leading_zeros(make_scalars(omega=1.0, q1=0.0), range(1, 4))

    def test_far_newton_root_goes_to_box_search(self):
        # At |q(1)/omega| = 74 the n = 5 formula seed is poor: Newton from it
        # converges to a zero near 30.3, more than 2 away, which the box
        # search around n*pi must replace.
        s = make_scalars(omega=0.03115162197866943, q1=2.290732564957369)
        lz = leading_zeros(s, range(1, 7))
        for n, mu, ok in zip(lz.ns, lz.mu_n, lz.polished):
            assert ok
            assert n * math.pi <= mu.real <= (n + 1) * math.pi
            assert abs(eval_g1(s, mu)) < 1e-12

    def test_newton_step_past_the_exp_range_stops_its_seed(self):
        # q = 4262248.2 - 8526207.2 x, h = 0.1 (q(1)/omega near 5e3): Newton
        # from the n = 395 seed leaves for Im k near -620, where e^{2ik}
        # overflows. The non-finite step stops that seed with no RuntimeWarning
        # (an error under the test filters), and the box search replaces it.
        s = derive_scalars(Potential.polynomial([4262248.207606005, -8526207.2260619], h=0.1))
        lz = leading_zeros(s, range(300, 401))
        for n, mu, ok in zip(lz.ns, lz.mu_n, lz.polished):
            assert ok
            assert n * math.pi <= mu.real <= (n + 1) * math.pi
            assert abs(eval_g1(s, mu)) < 1e-12 * abs(s.q_at_1)

    @pytest.mark.parametrize("tag", ["T41i_W22", "Dirichlet_i"])
    def test_sparse_indices_are_predicted_alone(self, tag):
        # Only the indices asked for are predicted (an index of 2^62 once
        # built every n below it), each as the run over 1..n predicts it.
        s = make_scalars(omega=1.1, q1=1.1)
        sparse = predict_eigenvalues(s, tag, [3, 17, 40, 2 ** 40, 2 ** 62])
        full = predict_eigenvalues(s, tag, range(1, 41))
        assert sparse.mus[:3] == [full.mus[n - 1] for n in (3, 17, 40)]
        assert all(cmath.isfinite(v) for v in sparse.values)
        assert sparse.mus[-1].real == pytest.approx(2 ** 62 * math.pi, rel=1e-15)

    def test_newton_leaves_a_far_seed_as_it_is(self):
        # From n = 2^22 on the seed is mu_n to the rounding of k: Newton on g1,
        # which leading_zeros skips there, moves it by at most one rounding
        # unit of |k| (it moves Re k by one ulp at 2^23, Im k by 1e-13 at 2^22).
        s = make_scalars(omega=1.1, q1=1.1)
        seeds = np.array(leading_zeros(s, [2 ** 22, 2 ** 23, 2 ** 26]).mu_n)
        roots, ok = _newton_g1(s, seeds)
        assert ok.all() and np.all(np.abs(roots - seeds) <= 2.0 ** -52 * np.abs(seeds))


class TestZeroTarget:
    """The closed-form n = 0 target of index_targets against the box search of
    conftest.zero_target_by_box_search, on the scalars index_targets hands it
    (Dirichlet through _dirichlet_flip)."""

    @staticmethod
    def _check(scalars, variant):
        targets = index_targets(scalars, variant, 2 * math.pi)[0]
        got = targets[0][1] if targets[0][0] == 0 else None
        s = scalars if variant == "robin" else _dirichlet_flip(scalars)
        want = zero_target_by_box_search(s)
        if got is None or want is None:
            # Within 1e-6 of where two roots meet (k = 0 at c = 1, x*/2 at
            # c_min), whether the box search tells the pair apart depends on
            # where its split lines fall; the closed form gives None below 1e-7.
            k = want if got is None else got
            assert k is None or min(abs(2 * k), abs(2 * k - _X_STAR)) < 1e-6, (got, want)
            return
        # Rounding of g1's terms (moduli summing to S) moves a root by up to
        # eps S / |g1'|: far beyond 1e-12 relative by a near-double zero (c
        # near 1 or c_min), where the box search is no closer than that.
        w, q1 = s.omega, s.q_at_1
        terms = 4 * abs(w * want) + abs(q1) * (abs(cmath.exp(2j * want))
                                               + abs(cmath.exp(-2j * want)))
        slope = abs(4 * w + 4 * q1 * cmath.cos(2 * want))
        assert abs(got - want) <= 1e-12 * abs(want) + 4 * 2.0 ** -52 * terms / slope

    @pytest.mark.parametrize("c", [1.0, _C_MIN + 1e-9, _C_MIN - 1e-9, 1e-8, -1e-8],
                             ids=["double-at-0", "c_min-above", "c_min-below", "0+", "0-"])
    def test_fixed_cases(self, c):
        # c = -omega/q(1): a double zero at k = 0 (None from both), the two
        # real roots and the complex pair by the double root at x*/2, and a
        # root that tends to pi/2 from below and from above.
        self._check(make_scalars(omega=1.0, q1=-1.0 / c), "robin")

    @settings(deadline=None, derandomize=True, database=None)
    @given(log_ratio=st.floats(-6.0, 6.0), sign=st.sampled_from([-1.0, 1.0]),
           variant=st.sampled_from(["robin", "dirichlet"]))
    def test_matches_the_box_search(self, log_ratio, sign, variant):
        # q(1)/omega of either sign, log-uniform over 1e-6..1e6. The example
        # count is the active hypothesis profile's ("zero-target" in CI).
        self._check(make_scalars(omega=1.0, q1=sign * 10.0 ** log_ratio), variant)


class TestLemma32LowerBound:
    def test_g1_lower_bound_on_contours(self, q_one):
        # |g1| e^{-2|Im k|} stays above a positive floor on the big square
        # contours and on small boxes around mu_5..mu_10, stably in n.
        s = derive_scalars(q_one)
        eps = 0.3
        mins = {}
        for n in (3, 4):
            half = (n + 1) * math.pi
            t = np.linspace(0, 1, 400)
            edges = np.concatenate([
                half + 1j * (-half + 2 * half * t), -half + 1j * (-half + 2 * half * t),
                (-half + 2 * half * t) + 1j * half, (-half + 2 * half * t) - 1j * half])
            vals = np.abs(eval_g1(s, edges)) * np.exp(-2 * np.abs(edges.imag))
            mins[n] = vals.min()
            assert mins[n] > 0
        assert abs(mins[3] - mins[4]) < 0.2 * max(mins[3], mins[4])
        lz = leading_zeros(s, range(1, 11))
        for n, mu in zip(lz.ns, lz.mu_n):
            if n < 5:
                continue
            t = np.linspace(-eps, eps, 60)
            box = np.concatenate([mu + eps + 1j * t, mu - eps + 1j * t,
                                  mu + t + 1j * eps, mu + t - 1j * eps])
            vals = np.abs(eval_g1(s, box)) * np.exp(-2 * np.abs(box.imag))
            assert vals.min() > 0.1  # empirical positive floor


class TestVanishing:
    def test_scale_includes_endpoint_slope(self):
        # q'(1) = 1e8 sets the scale: omega = q(1) = 1e-2 lie below 1e-9 * 1e8,
        # for the theorem tag as for the test itself.
        s = make_scalars(omega=1e-2, q1=1e-2, dq1=1e8)
        assert vanishing(s) == (True, True, False)
        assert default_theorem_tag(s, "robin") == "T42ii"


class TestPredictions:
    def test_t41i_w22_correction(self, q_one):
        # Q1 = -1 for q = 1, h = 0: the n = 10 correction is +1/(40 pi).
        s = derive_scalars(q_one)
        pred = predict_eigenvalues(s, "T41i_W22", [10])
        assert pred.corrections[0] == pytest.approx(1.0 / (40 * math.pi), abs=1e-12)
        assert pred.values[0] == pred.mus[0] + pred.corrections[0]

    def test_zero_potential_rejected_everywhere(self, q_zero):
        s = derive_scalars(q_zero)
        for tag in ("T41i_W22", "T41ii_W22", "T42i", "T42ii", "Dirichlet_i", "Dirichlet_ii"):
            with pytest.raises(HypothesisMismatchError):
                predict_eigenvalues(s, tag, [5])

    def test_t42ii_arccos_branch(self):
        # omega = 0, q(1) = 0, q'(1) = 1, Q2 = 0.5: s+- = +-arccos(-1/2)/2 = +-pi/3.
        s = make_scalars(omega=0.0, q1=0.0, dq1=1.0, dq0=-0.5)
        pred = predict_eigenvalues(s, "T42ii", [3])
        assert pred.constants["s_plus"] == pytest.approx(math.pi / 3, abs=1e-12)
        assert pred.constants["s_minus"] == pytest.approx(-math.pi / 3, abs=1e-12)
        assert pred.values[0] == pytest.approx(3 * math.pi + math.pi / 3, abs=1e-12)
        assert pred.branches == [1, -1]

    def test_t42ii_log_branch(self):
        # |Q2/q'(1)| > 1 switches to the logarithmic branch (complex s).
        s = make_scalars(omega=0.0, q1=0.0, dq1=1.0, dq0=2.0)  # Q2 = -2
        pred = predict_eigenvalues(s, "T42ii", [2])
        r = -2.0
        expect = -0.5j * cmath.log(-r + cmath.sqrt(r * r - 1))
        assert pred.constants["s_plus"] == pytest.approx(expect, abs=1e-12)

    def test_t42i_formula(self):
        # q'(1)/omega < 0 keeps the targets on n*pi + i log(2 n pi) - type curves.
        s = make_scalars(omega=-0.5, q1=0.0, dq1=1.0, m=(1, 1.0))
        pred = predict_eigenvalues(s, "T42i", [4])
        expect = 4 * math.pi + 1j * (math.log(8 * math.pi) - 0.5 * math.log(1.0))
        assert pred.values[0] == pytest.approx(expect, abs=1e-12)

    def test_dirichlet_sign_flip(self, q_one):
        # Dirichlet correction carries +Q3/(4 n pi q(1)) and swaps the mu case.
        s = derive_scalars(q_one)
        pred = predict_eigenvalues(s, "Dirichlet_i", [8])
        assert pred.corrections[0] == pytest.approx(1.0 / (32 * math.pi), abs=1e-12)
        # ratio-negative style mu: sigma near (n + 1/4) pi, not (n + 3/4) pi
        assert pred.mus[0].real == pytest.approx((8 + 0.25) * math.pi, abs=0.1)

    def test_unknown_tag(self, q_one):
        with pytest.raises(DomainError):
            predict_eigenvalues(derive_scalars(q_one), "T99", [3])

    # Indices where n as a float rounds: the vectorised formulas must give the
    # per-index values to the bit there too.
    NS = [1, 2, 3, 40, 2 ** 53 - 1, 2 ** 53 + 1, 2 ** 53 + 3, 2 ** 62 + 1, 2 ** 999 + 12345,
          2 ** 1000 - 1]

    @pytest.mark.parametrize("tag, omega", [("T41i_W22", 0.7), ("Dirichlet_i", 0.7),
                                            ("T41ii_W22", 0.0), ("Dirichlet_ii", 0.0)])
    def test_corrections_match_the_per_index_formulas(self, tag, omega):
        s = make_scalars(omega=omega, q1=-1.3, dq1=0.4, q0=0.9, dq0=-0.2, qsq=1.7, h=0.3)
        q1no, q2no, q3no, q4no = q_constants(s)
        q1 = s.q_at_1
        per_index = {
            "T41i_W22": lambda n: -q1no / (4 * n * math.pi * q1),
            "Dirichlet_i": lambda n: +q3no / (4 * n * math.pi * q1),
            "T41ii_W22": lambda n: complex(-(q1no + (-1) ** n * q2no) / (2 * q1 * n * math.pi)),
            "Dirichlet_ii": lambda n: complex((q3no + (-1) ** n * q4no) / (2 * q1 * n * math.pi)),
        }[tag]
        pred = predict_eigenvalues(s, tag, self.NS)
        assert repr(pred.corrections) == repr([per_index(n) for n in self.NS])
        if tag == "T41ii_W22":
            assert repr(pred.mus) == repr([complex(n * math.pi / 2.0) for n in self.NS])

    def test_index_bounds(self, q_one):
        s = derive_scalars(q_one)
        assert predict_eigenvalues(s, "T41i_W22", []).values == []
        for ns in ([0, 3], [3, 2 ** 1000]):
            with pytest.raises(DomainError):
                predict_eigenvalues(s, "T41i_W22", ns)


class TestResidualReport:
    def _zeros_from(self, pred):
        out = []
        for n, v, br in zip(pred.ns, pred.values, pred.branches):
            out.append(Eigenvalue(k=v, index=n, multiplicity=1, residual=0.0,
                                  cls="quadrant", branch=br))
        return representatives_of(out)

    def test_exact_predictions_zero_residuals(self, q_one):
        s = derive_scalars(q_one)
        pred = predict_eigenvalues(s, "T41i_W22", range(3, 9))
        report = residual_report(self._zeros_from(pred), pred)
        for eps, refined, corr in zip(report.rows.eps, report.rows.refined, pred.corrections):
            assert abs(eps - corr) < 1e-12
            assert abs(refined) < 1e-9

    def test_index_mismatch_raises(self, q_one):
        s = derive_scalars(q_one)
        pred = predict_eigenvalues(s, "T41i_W22", [3, 4])
        zeros = representatives_of([Eigenvalue(k=1.0, index=99, multiplicity=1, residual=0.0,
                                               cls="real")])
        with pytest.raises(DomainError):
            residual_report(zeros, pred)

    def test_parity_fits_reported(self):
        # The omega = 0 corrections carry (-1)^n with the theorem's sign: the
        # reported next-order mean is below the one of the sign-flipped term.
        s = make_scalars(omega=0.0, q1=0.5, dq1=1.0, dq0=1.0, qsq=1.0 / 12.0)
        flipped = {
            "T41ii_W22": lambda c, n: -(c["Q1"] - (-1) ** n * c["Q2"]) / (2 * s.q_at_1 * n * math.pi),
            "Dirichlet_ii": lambda c, n: (c["Q3"] - (-1) ** n * c["Q4"]) / (2 * s.q_at_1 * n * math.pi),
        }
        for tag, corr_flip in flipped.items():
            pred = predict_eigenvalues(s, tag, range(4, 10))
            report = residual_report(self._zeros_from(pred), pred)
            flip_mean = np.mean([abs(n * (eps - corr_flip(pred.constants, n)))
                                 for n, eps in zip(report.rows.n, report.rows.eps.tolist())])
            assert report.next_order_mean < flip_mean, tag
        pred = predict_eigenvalues(s, "T41ii_W21", range(4, 10))
        assert residual_report(self._zeros_from(pred), pred).next_order_mean is None


# Scalars of each theorem case (Robin and Dirichlet, omega != 0 for both signs
# of q(1)/omega and omega = 0; T42i for both signs of q'(1)/omega; T42ii),
# with spacing, n_min, the first three targets and the last index at
# k_max = 10 (with the n = 0 target where the theorem has one).
_ROBIN_POS = dict(omega=1.0, q1=1.0, q0=1.0, qsq=1.0)
_ROBIN_NEG = dict(omega=0.2, q1=-0.6, dq1=1.0, q0=0.3, dq0=0.5, qsq=0.4)
_OMEGA_ZERO = dict(omega=0.0, q1=0.5, dq1=1.0, q0=-0.5, dq0=1.0, qsq=1.0 / 12.0)
_T42I = dict(omega=0.5, dq1=1.0, q0=-0.5, dq0=1.0, qsq=1.0 / 12.0)


class TestIndexTargets:
    @pytest.mark.parametrize("scalars, variant, spacing, n_min, first, n_last", [
        (_ROBIN_POS, "robin", math.pi, 0,
         [(0, 2.1061961152453303 + 1.1253643058009302j, None),
          (1, 5.356268698639631 + 1.5515743729126248j, None),
          (2, 8.536682426575915 + 1.7755436735110401j, None)], 4),
        (_ROBIN_NEG, "robin", math.pi, 0,
         [(0, 1.1394313300379142 + 1.2152761887864454e-17j, None),
          (1, 3.8144649865358233 + 0.8065409659053j, None),
          (2, 6.98753142453711 + 1.1167960102094305j, None)], 4),
        (_OMEGA_ZERO, "robin", math.pi / 2, 1,
         [(1, math.pi / 2, None), (2, math.pi, None), (3, 1.5 * math.pi, None)], 7),
        (_ROBIN_POS, "dirichlet", math.pi, 1,
         [(1, 3.7488381388881926 + 1.3843391414936608j, None),
          (2, 6.949979856988232 + 1.6761049424267525j, None),
          (3, 10.11925885391501 + 1.8583838398762496j, None)], 4),
        (_ROBIN_NEG, "dirichlet", math.pi, 0,
         [(0, 2.212206089366759 + 0.4978939056329416j, None),
          (1, 5.404013383922259 + 0.9866910935998039j, None),
          (2, 8.567631620995078 + 1.2192061289027702j, None)], 4),
        (_OMEGA_ZERO, "dirichlet", math.pi / 2, 1,
         [(1, math.pi, None), (2, 1.5 * math.pi, None), (3, 2 * math.pi, None)], 7),
        (_T42I, "robin", math.pi, 0,
         [(1, 4.71238898038469 + 1.8378770664093453j, None),
          (2, 7.853981633974483 + 2.5310242469692907j, None),
          (3, 10.995574287564276 + 2.9364893550774553j, None)], 4),
        (dict(_T42I, omega=-0.5, q0=0.5), "robin", math.pi, 1,
         [(1, 3.141592653589793 + 1.8378770664093453j, None),
          (2, 6.283185307179586 + 2.5310242469692907j, None),
          (3, 9.42477796076938 + 2.9364893550774553j, None)], 4),
        (dict(dq1=2.0, q0=-1.0, dq0=2.0, qsq=1.0 / 3.0), "robin", math.pi, 1,
         [(1, 3.4344354253183687, 1), (1, 2.8487498818612176, -1),
          (2, 6.576028078908162, 1)], 4),
    ], ids=["robin-positive", "robin-negative", "robin-omega-zero", "dirichlet-positive",
            "dirichlet-negative", "dirichlet-omega-zero", "T42i-positive", "T42i-negative",
            "T42ii"])
    def test_targets(self, scalars, variant, spacing, n_min, first, n_last):
        targets, got_spacing, got_n_min = index_targets(make_scalars(**scalars), variant, 10.0)
        assert (got_spacing, got_n_min) == (spacing, n_min)
        assert [(n, b) for n, _v, b in targets[:3]] == [(n, b) for n, _v, b in first]
        for (_n, got, _b), (_m, want, _c) in zip(targets, first):
            assert got == pytest.approx(want, rel=1e-12, abs=1e-15)
        assert targets[-1][0] == n_last
