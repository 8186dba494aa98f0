import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tspec import Potential, derive_scalars, gamma_recovery, pipeline, spectrumfile
from tspec.asymptotics import index_targets, leading_zeros
from tspec.cli import main
from tspec.errors import DomainError, ProbeTooCloseError, UnstableLimitError
from tspec.gamma_recovery import (eval_E, from_eigenvalues, gamma_direct,
                                  gamma_from_endpoint, gamma_from_omega,
                                  hadamard_product, log_E)
from tspec.potential import PotentialScalars
from tspec.rootfind import newton_refine_many
from tspec.spectrumfile import _Columns

from conftest import const_jost, eigenvalues_of


def _first_mus(scalars, n_terms):
    """mu_0 .. mu_{n_terms - 1}: the Robin numbering targets, n = 0 included."""
    targets = index_targets(scalars, "robin", (n_terms - 0.5) * math.pi)[0]
    return [mu for _n, mu, _b in targets[:n_terms]]


def synthetic_mu_lambdas(n_terms=50):
    """Conjugate-closed spectrum shaped like the omega = q(1) = 1 zero curves.

    The infinite product over these zeros tends to omega/(omega + q(1)) = 1/2
    along the real axis (away from the sin 2k oscillation nodes), so a fake
    omega = 2 makes the construction's normalization constant exactly 2.
    """
    s = derive_scalars(Potential.constant(1.0))
    mus = np.array(_first_mus(s, n_terms), dtype=complex)
    return np.concatenate([mus ** 2, np.conj(mus) ** 2])


def synthetic_mu_product(n_terms=50):
    return hadamard_product(synthetic_mu_lambdas(n_terms))


def robin_constant_d(c: float, h: float):
    """Closed-form Robin D(k) = [F(k) + F(-k)]/(2i) - (h/2k)[F(k) - F(-k)] for q = c,
    with F(k) = -i[f'(k,0) - h f(k,0)] from conftest.const_jost."""
    def big_f(k):
        f, fp = const_jost(c, k)
        return -1j * (fp - h * f)

    def d(ks):
        out = []
        for k in np.atleast_1d(ks):
            fk, fmk = big_f(k), big_f(-k)
            out.append((fk + fmk) / 2j - (h / (2.0 * k)) * (fk - fmk))
        return np.array(out)
    return d


@pytest.fixture(scope="module")
def synthetic_hp():
    return synthetic_mu_product(50)


class TestHadamardProduct:
    def test_empty_product_is_one(self):
        hp = hadamard_product([])
        assert eval_E(hp, 2.3 + 1.1j) == 1.0

    def test_hand_arithmetic(self):
        hp = hadamard_product([1.0, 4.0])
        assert eval_E(hp, 3.0) == pytest.approx(10.0, abs=1e-12)

    def test_conjugate_pair_real_output(self):
        hp = hadamard_product([2 + 1j, 2 - 1j])
        val = eval_E(hp, 1.0)
        assert val == pytest.approx(0.4, abs=1e-12)
        assert val.imag == 0.0

    def test_conjugation_closure_enforced(self):
        with pytest.raises(DomainError):
            hadamard_product([2 + 1j, 3.0])

    def test_missing_conjugate_among_equal_moduli(self):
        with pytest.raises(DomainError, match="not closed under conjugation"):
            hadamard_product([3 + 4j, 4 + 3j, 4 - 3j, -3 + 4j, -3 - 4j])

    def test_equal_modulus_non_conjugates_pair_correctly(self, rng):
        # Every lambda has modulus 5; the conjugate of each sits behind
        # non-conjugates of the same modulus in the stable sort.
        lams = [3 + 4j, 4 + 3j, -3 + 4j, 5.0, 4 - 3j, -3 - 4j, 3 - 4j, -4 + 3j, -4 - 3j]
        for order in (lams, list(rng.permutation(lams))):
            hp = hadamard_product(order)
            assert hp.truncation == 9 and hp.roots.size == 5
            assert hp.paired.tolist() == [lam.imag != 0 for lam in hp.roots.tolist()]
            pairs = hp.roots[hp.paired].tolist()
            halves = pairs + [lam.conjugate() for lam in pairs] + hp.roots[~hp.paired].tolist()
            assert sorted(halves, key=repr) == sorted(lams, key=repr)
            assert eval_E(hp, 1.7).imag == 0.0

    def test_stored_pairing_matches_pairing_loop(self, synthetic_hp, rng):
        # Reference: pair each complex factor with the first later unused
        # factor at its conjugate, in ascending |lambda|, on every call.
        lams = rng.permutation(np.append(synthetic_mu_lambdas(50), [3.0, 7.5]))
        hp = hadamard_product(lams)
        lams = lams[np.argsort(np.abs(lams), kind="stable")]
        for k in (0.7, 3.3 + 1.2j, 11.0):
            facs = 1.0 - k * k / lams
            ref, used = [], np.zeros(lams.size, dtype=bool)
            for i in range(lams.size):
                if used[i]:
                    continue
                used[i] = True
                ref.append(facs[i])
                if abs(lams[i].imag) > 1e-9 * abs(lams[i]):
                    j = next(j for j in range(i + 1, lams.size) if not used[j]
                             and abs(lams[j] - np.conj(lams[i])) <= 1e-9 * max(1.0, abs(lams[i])))
                    used[j] = True
                    ref[-1] = facs[i] * facs[j]
            assert eval_E(hp, k) == complex(np.prod(ref))
            assert log_E(hp, k) == complex(np.sum(np.log(ref)))

    def test_real_for_real_k(self, synthetic_hp, rng):
        for k in rng.uniform(0.3, 12, 10):
            val = eval_E(synthetic_hp, float(k))
            assert abs(val.imag) < 1e-10 * max(1.0, abs(val))

    def test_even_by_construction(self, synthetic_hp):
        for k in (1.3, 2.0 + 0.7j, 5.5 - 0.2j):
            assert eval_E(synthetic_hp, k) == pytest.approx(eval_E(synthetic_hp, -k),
                                                            rel=1e-12)

    def test_log_E_consistent(self, synthetic_hp):
        k = 3.7
        assert math.exp(log_E(synthetic_hp, k).real) == pytest.approx(
            abs(eval_E(synthetic_hp, k)), rel=1e-9)

    def test_zero_eigenvalue_multiplicity(self):
        hp = hadamard_product([4.0], s=1)
        assert eval_E(hp, 2.0) == pytest.approx(2.0 ** 2 * (1 - 4.0 / 4.0), abs=1e-12)


class TestGammaDirect:
    def test_exact_multiple(self, synthetic_hp):
        dev = lambda ks: 3.0 * np.array([eval_E(synthetic_hp, k) for k in np.atleast_1d(ks)])
        for probe in (0.37, 0.71):
            est = gamma_direct(dev, synthetic_hp, probe)
            assert est.gamma == pytest.approx(3.0, rel=1e-12)

    def test_probe_independence(self, synthetic_hp):
        dev = lambda ks: 2.0 * np.array([eval_E(synthetic_hp, k) for k in np.atleast_1d(ks)])
        a = gamma_direct(dev, synthetic_hp, 0.37).gamma
        b = gamma_direct(dev, synthetic_hp, 0.71).gamma
        assert a == pytest.approx(b, rel=1e-12)

    def test_default_probe_is_first_clear_candidate(self):
        dev = lambda ks: np.asarray(ks, complex)
        assert gamma_direct(dev, hadamard_product([0.37 ** 2])).probes == (0.71,)
        every = hadamard_product([c * c for c in gamma_recovery._DIRECT_PROBE_CANDIDATES])
        with pytest.raises(ProbeTooCloseError):
            gamma_direct(dev, every)

    def test_probe_too_close(self):
        hp = hadamard_product([9.0])  # sqrt root at 3
        dev = lambda ks: np.asarray(ks, complex)
        with pytest.raises(ProbeTooCloseError):
            gamma_direct(dev, hp, 3.05)


class TestOmegaRoute:
    def test_synthetic_ground_truth(self, synthetic_hp):
        scalars = PotentialScalars(omega=2.0, q_at_1=0.0, dq_at_1=0.0, q_at_0=0.0,
                                   dq_at_0=0.0, q_sq_integral=0.0, m_order=None)
        est = gamma_from_omega(synthetic_hp, scalars)
        assert est.gamma == pytest.approx(2.0, rel=0.01)
        assert "extrapolants" in est.diagnostics and "gap" in est.diagnostics

    def test_truncation_monotonicity(self, monkeypatch):
        # |gamma_N - gamma_true| falls as the truncation grows 10 -> 20 -> 30.
        scalars = PotentialScalars(omega=2.0, q_at_1=0.0, dq_at_1=0.0, q_at_0=0.0,
                                   dq_at_0=0.0, q_sq_integral=0.0, m_order=None)
        errs = []
        monkeypatch.setattr(gamma_recovery, "_DEFAULT_UNSTABLE_TOL", 1.0)
        for n in (10, 20, 30):
            hp = synthetic_mu_product(n)
            est = gamma_from_omega(hp, scalars)
            errs.append(abs(est.gamma - 2.0))
        assert errs[0] > errs[1] > errs[2]

    @pytest.mark.parametrize("c", [0.9, 1.1, 1.3])
    @pytest.mark.parametrize("h", [-0.25, 0.0, 0.1, 0.2, 0.3, 0.4])
    def test_robin_constant_potential_closed_form(self, c, h):
        # E(0) = 1, so gamma is D(0) exactly. Rungs at odd multiples of pi/2
        # (cos 2k = -1) flip the sign of D's h cos(2k)/k term against the rest.
        d = robin_constant_d(c, h)
        scalars = derive_scalars(Potential.constant(c, h=h))
        seeds = np.array(_first_mus(scalars, 401))
        roots, ok = newton_refine_many(d, seeds)
        assert ok.all()
        ns = np.arange(roots.size)
        assert np.all((ns * math.pi < roots.real) & (roots.real < (ns + 1) * math.pi))
        d0 = ((4.0 * d(1e-3) - d(2e-3)) / 3.0)[0].real   # D is even: Richardson in k^2
        for n in (30, 401):
            hp = hadamard_product(np.concatenate([roots[:n] ** 2, np.conj(roots[:n]) ** 2]))
            est = gamma_from_omega(hp, scalars)
            assert est.gamma == pytest.approx(d0, rel=0.02), n
            assert est.diagnostics["gap"] < 0.05, n

    def test_well_separated_spectrum_skips_the_rounding(self, monkeypatch):
        # The four mirrors of 401 closed-form zeros collapse on their exact
        # parts, and no two survivors can share a 9-digit key, so round() never
        # runs; one image off by rounding brings it back, with the same list.
        d = robin_constant_d(1.1, 0.3)
        scalars = derive_scalars(Potential.constant(1.1, h=0.3))
        roots, ok = newton_refine_many(d, np.array(leading_zeros(scalars, range(1, 402)).mu_n))
        assert ok.all()
        images = [(n, m) for n, k in enumerate(roots) for m in (k, -k, np.conj(k), -np.conj(k))]
        calls = []
        monkeypatch.setattr(pipeline, "round", lambda x, n: calls.append(x) or round(x, n),
                            raising=False)

        def collapse(images):
            return pipeline.eigenvalues_from_columns(_Columns(
                [n for n, _ in images], [m.real for _, m in images], [m.imag for _, m in images],
                [1] * len(images), [0.0] * len(images), ["quadrant"] * len(images),
                [None] * len(images)))

        zeros = eigenvalues_of(collapse(images))
        assert not calls
        assert [ev.index for ev in zeros] == list(range(401))
        assert [ev.k for ev in zeros] == [complex(abs(k.real), abs(k.imag)) for k in roots]
        assert eigenvalues_of(collapse(images + [(7, -roots[7] + 3e-11)])) == zeros and calls

    def test_omega_zero_precondition(self, synthetic_hp):
        scalars = PotentialScalars(omega=0.0, q_at_1=1.0, dq_at_1=0.0, q_at_0=0.0,
                                   dq_at_0=0.0, q_sq_integral=0.0, m_order=None)
        with pytest.raises(DomainError):
            gamma_from_omega(synthetic_hp, scalars)


class TestEndpointRoute:
    @staticmethod
    def _xm1_like_hp(n_terms=30):
        ks = np.array([n * math.pi + 1j * math.log(2 * n * math.pi)
                       for n in range(1, n_terms + 1)])
        lams = np.concatenate([ks ** 2, np.conj(ks) ** 2])
        return hadamard_product(lams)

    def test_synthetic_envelope(self):
        # Truncation-limited: the estimate lands near the construction scale
        # and the diagnostics report the envelope (tolerance reported, not fixed).
        hp = self._xm1_like_hp()
        scalars = PotentialScalars(omega=-0.5, q_at_1=0.0, dq_at_1=1.0, q_at_0=-1.0,
                                   dq_at_0=1.0, q_sq_integral=1.0 / 3.0, m_order=(1, 1.0))
        est = gamma_from_endpoint(hp, scalars)
        assert np.isfinite(est.gamma)
        assert est.diagnostics["gap"] < 0.05

    def test_wrong_m_flagged_unstable(self):
        hp = self._xm1_like_hp()
        scalars = PotentialScalars(omega=-0.5, q_at_1=0.0, dq_at_1=1.0, q_at_0=-1.0,
                                   dq_at_0=1.0, q_sq_integral=1.0 / 3.0, m_order=(0, 1.0))
        with pytest.raises(UnstableLimitError):
            gamma_from_endpoint(hp, scalars)

    def test_log_space_no_overflow(self, monkeypatch):
        # tau down to -300 must stay finite end to end (log-space evaluation).
        monkeypatch.setattr(gamma_recovery, "_ENDPOINT_TAUS", (-280.0, -290.0, -300.0))
        monkeypatch.setattr(gamma_recovery, "_DEFAULT_UNSTABLE_TOL", math.inf)
        hp = self._xm1_like_hp()
        scalars = PotentialScalars(omega=-0.5, q_at_1=0.0, dq_at_1=1.0, q_at_0=-1.0,
                                   dq_at_0=1.0, q_sq_integral=1.0 / 3.0, m_order=(1, 1.0))
        try:
            est = gamma_from_endpoint(hp, scalars)
            assert np.isfinite(est.gamma)
        except UnstableLimitError as exc:
            # Unstable is acceptable at this depth; overflow/NaN is not.
            assert all(np.isfinite(v) for v in exc.diagnostics.get("log_values", []))

    def test_requires_m_order(self):
        hp = self._xm1_like_hp()
        scalars = PotentialScalars(omega=-0.5, q_at_1=0.0, dq_at_1=1.0, q_at_0=-1.0,
                                   dq_at_0=1.0, q_sq_integral=1.0 / 3.0, m_order=None)
        with pytest.raises(DomainError):
            gamma_from_endpoint(hp, scalars)


class TestRoutesOnAFile:
    # gamma from each route on a 30-root closed-form spectrum file of q = 1.1,
    # h = 0.3, to the bit, as recorded when the product still stored both
    # members of each conjugate pair.
    PINNED = {"omega": "1.7488411378249944", "endpoint": "1.723907089507213",
              "direct": "1.7421481979871247"}
    # The zeros of robin_constant_d(1.1, 0.3) for n = 0..29 that the pins were
    # recorded on: Newton from _first_mus(scalars, 30) with the five-point
    # stencil of that time. Frozen, so the pins test the gamma routes alone.
    ROOTS = [
        (2.3434070974725003+1.0600254462046728j), (5.458484312160401+1.5314738680249824j),
        (8.602250862103947+1.7656540809296764j), (11.747473394749926+1.9234377076852478j),
        (14.892288862911105+2.0428252111359084j), (18.036567552543797+2.1389724687052833j),
        (21.180393151916416+2.219501718385095j), (24.3238606643871+2.2887997093331696j),
        (27.467046994705825+2.3496267861068043j), (30.610010586804083+2.403834329938397j),
        (33.7527954596188+2.452725189550156j), (36.89543500282001+2.4972512865015664j),
        (40.037954854143614+2.5381294618404677j), (43.18037496650726+2.575913102063157j),
        (46.32271107691586+2.6110383849911347j), (49.46497575473273+2.643855233704185j),
        (52.60717915742807+2.674648675337086j), (55.7493295822299+2.7036539684337515j),
        (58.89143387404667+2.731067561826341j), (62.03349773100828+2.7570551923751463j),
        (65.17552593611643+2.7817579740179323j), (68.31752253495753+2.8052970481418105j),
        (71.45949097349636+2.8277771849942384j), (74.60143420602574+2.849289607941528j),
        (77.74335478054923+2.869914233590373j), (80.88525490689133+2.8897214670530436j),
        (84.02713651150509+2.9087736543572635j), (87.16900128190575+2.9271262677200514j),
        (90.31085070295084+2.944828880564921j), (93.45268608668721+2.961925975528857j),
    ]

    @pytest.fixture(scope="class")
    def spectrum_file(self, tmp_path_factory):
        roots = self.ROOTS
        # Newton on the closed-form D moves none of them by 1e-12.
        polished, ok = newton_refine_many(robin_constant_d(1.1, 0.3), np.array(roots))
        assert ok.all() and np.all(np.abs(polished - roots) <= 1e-12 * np.abs(polished))
        pot = {"kind": "constant", "value": 1.1, "h": 0.3}
        header = spectrumfile.SpectrumHeader(potential=pot, variant="robin",
                                             region=[0.0, 31 * math.pi, 0.0, 6.0],
                                             tolerances={"rtol": 1e-12, "rtol_refine": 1e-13})
        records = [spectrumfile.SpectrumRecord(index=n, re_k=float(m.real), im_k=float(m.imag),
                                               multiplicity=1, residual=0.0, cls="quadrant")
                   for n, k in enumerate(roots) for m in (k, -k, np.conj(k), -np.conj(k))]
        tmp = tmp_path_factory.mktemp("routes")
        spectrumfile.write_spectrum(tmp / "spec.json", header, records)
        (tmp / "cfg.json").write_text(json.dumps({"potential": pot, "variant": "robin"}))
        return tmp

    @pytest.mark.parametrize("route", ["omega", "endpoint", "direct"])
    def test_gamma_is_pinned(self, spectrum_file, route):
        out = spectrum_file / f"{route}.json"
        code = main(["--config", str(spectrum_file / "cfg.json"), "--out", str(out), "gamma",
                     "--route", route, "--spectrum", str(spectrum_file / "spec.json")])
        doc = json.loads(out.read_text())
        assert code == 0 and doc["truncation"] == 60
        assert repr(doc["gamma"]) == self.PINNED[route]


class TestFromEigenvalues:
    def test_quadrant_orbit_expansion(self):
        from tspec.rootfind import Eigenvalue

        ev = Eigenvalue(k=2 + 1j, index=0, multiplicity=1, residual=0.0, cls="quadrant")
        hp = from_eigenvalues([ev])
        assert hp.truncation == 2
        assert eval_E(hp, 1.0).imag == 0.0

    def test_real_zero_single_factor(self):
        from tspec.rootfind import Eigenvalue

        ev = Eigenvalue(k=3.0 + 0j, index=1, multiplicity=2, residual=0.0, cls="real")
        hp = from_eigenvalues([ev])
        assert hp.truncation == 2  # multiplicity 2 repeats the factor
        assert eval_E(hp, 1.5).real == pytest.approx((1 - 2.25 / 9.0) ** 2, abs=1e-12)

    def test_matches_the_per_eigenvalue_loop(self, rng):
        # Reference: lambda = complex(k) ** 2 per eigenvalue and multiplicity,
        # paired for a quadrant zero, (Re lambda, 0) otherwise, sorted stably
        # by modulus; the same roots, bit for bit, and the same pair flags.
        from tspec.rootfind import Eigenvalue

        ks = list(rng.uniform(0.1, 40.0, 40) + 1j * rng.uniform(-3.0, 3.0, 40))
        ks += [2.5 + 0j, -0.0 + 1.5j, complex(-2.0, -0.0), ks[3]]
        evs = [Eigenvalue(k=k, index=i, multiplicity=int(rng.integers(1, 4)), residual=0.0,
                          cls=str(rng.choice(["quadrant", "real", "imaginary"])))
               for i, k in enumerate(ks)]
        half = []
        for ev in evs:
            lam = complex(ev.k) ** 2
            quadrant = ev.cls == "quadrant"
            half += [(lam if quadrant else complex(lam.real, 0.0), quadrant)] * ev.multiplicity
        half.sort(key=lambda entry: abs(entry[0]))
        hp = from_eigenvalues(evs, s=1)
        assert repr(hp.roots.tolist()) == repr([lam for lam, _ in half]) and hp.s == 1
        assert hp.paired.tolist() == [quadrant for _, quadrant in half]

    def test_near_real_quadrant_zero_is_one_pair(self):
        # Its lambda is within 1e-9 relative of the real axis, where a list
        # would be split into two real factors; the class pairs it.
        from tspec.rootfind import Eigenvalue

        ev = Eigenvalue(k=7.0 + 1e-12j, index=0, multiplicity=1, residual=0.0, cls="quadrant")
        hp = from_eigenvalues([ev])
        assert hp.truncation == 2 and hp.paired.tolist() == [True]
        for k in (1.3, 6.9, 20.0):
            assert eval_E(hp, k).imag == 0.0

    def test_overflowing_square_is_a_domain_error(self):
        from tspec.rootfind import Eigenvalue

        # CPython's complex(k) ** 2 raises OverflowError at the first k; the
        # second has a finite square whose modulus is past the float range.
        for k in (1.5e154 + 1e140j, 1.25e154 + 0.52e154j):
            ev = Eigenvalue(k=k, index=0, multiplicity=1, residual=0.0, cls="quadrant")
            with pytest.raises(DomainError, match="finite"):
                from_eigenvalues([ev])


def _pairing_loop(lambdas, s=0):
    """hadamard_product as a greedy loop over every entry of the sorted list:
    (the openers, whether each has a partner) or the error text."""
    arr = np.asarray(list(lambdas), dtype=complex)
    if not np.all(np.isfinite(arr)) or np.any(arr == 0):
        return "eigenvalues must be finite and nonzero (zero goes into s)"
    lams = arr[np.argsort(np.abs(arr), kind="stable")].tolist()
    first, second, used = [], [], [False] * len(lams)
    for i, lam in enumerate(lams):
        if used[i]:
            continue
        used[i] = True
        first.append(i)
        second.append(-1)
        if abs(lam.imag) <= 1e-9 * abs(lam):
            continue
        target = lam.conjugate()
        tol = 1e-9 * max(1.0, abs(target))
        for j in range(i + 1, len(lams)):
            if not used[j] and abs(lams[j] - target) <= tol:
                used[j] = True
                second[-1] = j
                break
        else:
            return f"eigenvalue list not closed under conjugation: {lam} unpaired"
    return repr(tuple(lams[i] for i in first)), [j >= 0 for j in second]


def _pairing(lambdas):
    try:
        hp = hadamard_product(lambdas)
    except DomainError as exc:
        return str(exc)
    return repr(tuple(hp.roots.tolist())), hp.paired.tolist()


@st.composite
def _conjugate_lists(draw):
    """Conjugate-closed lists, give or take: pairs whose partner sits within
    or just past 1e-9 relative, real and near-real entries (|Im| about
    1e-9 |lambda|), near-duplicate pairs, repeats for multiplicity and
    unpaired entries, shuffled."""
    out = []
    for _ in range(draw(st.integers(0, 6))):
        lam = complex(draw(st.floats(-60, 60)), draw(st.floats(-60, 60)))
        scale = max(1.0, abs(lam))
        jitter = complex(draw(st.floats(-1.2e-9, 1.2e-9)), draw(st.floats(-1.2e-9, 1.2e-9)))
        kind = draw(st.sampled_from(["pair", "pair", "real", "near-real", "near-duplicate",
                                     "near-duplicate", "unpaired"]))
        if kind == "real":
            group = [complex(lam.real, 0.0)]
        elif kind == "near-real":
            im = draw(st.floats(0.0, 2e-9)) * abs(lam)
            group = [complex(lam.real, im), complex(lam.real, -im) + jitter * scale]
        elif kind == "near-duplicate":
            other = lam * (1.0 + draw(st.floats(-1e-9, 1e-9)))
            group = [lam, lam.conjugate(), other, other.conjugate() + jitter * scale]
        elif kind == "unpaired":
            group = [lam]
        else:
            group = [lam, lam.conjugate() + jitter * scale]
        out.extend(group * draw(st.integers(1, 3)))
    return draw(st.permutations(out))


class TestPairing:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(lams=_conjugate_lists())
    # On the bounds (a partner exactly 1e-9 from the conjugate, |Im| exactly
    # 1e-9 |lambda|), and a complex entry whose partner is a real one.
    @example(lams=[0.5j, 1e-9 - 0.5j])
    @example(lams=[complex(1.0, 1e-9), 2 + 1j, 2 - 1j])
    @example(lams=[3 + 4e-9j, 3 - 2e-9j])
    def test_same_as_the_loop(self, lams):
        assert _pairing(lams) == _pairing_loop(lams)

    def test_roots_and_paired_are_read_only(self, synthetic_hp):
        assert synthetic_hp.truncation == synthetic_hp.roots.size + synthetic_hp.paired.sum()
        with pytest.raises(ValueError):
            synthetic_hp.roots[0] = 1.0
        with pytest.raises(ValueError):
            synthetic_hp.paired[0] = False
