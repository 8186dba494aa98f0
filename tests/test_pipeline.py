from dataclasses import replace

import numpy as np
import pytest
from scipy.spatial import cKDTree

import tspec.charfun
from tspec import pipeline
from tspec import Potential, derive_scalars
from tspec.config import validate_config
from tspec.errors import ConfigError
from tspec.pipeline import (AuditEntry, audit_symmetry, eigenvalues_from_records, expand_orbit,
                            is_degenerate, run_spectrum, run_validate, targeted_spectrum)
from tspec.charfun import DEvaluator
from tspec.rootfind import Eigenvalue, ZeroSearchResult
from tspec.spectrumfile import SpectrumRecord


def _cfg(potential, variant="robin", **extra):
    raw = {"potential": potential, "variant": variant}
    raw.update(extra)
    return validate_config(raw)


@pytest.fixture(scope="module")
def small_run():
    # Region holding only the lowest orbit of q = 1 (k_0 ~ 2.196 + 1.073i).
    cfg = _cfg({"kind": "constant", "value": 1.0, "h": 0.0},
               spectrum={"region": [1.5, 4.0, 0.5, 2.0]})
    return run_spectrum(cfg)


class TestRunSpectrum:
    def test_small_region(self, small_run):
        assert small_run.exit_code == 0
        assert len(small_run.eigenvalues) == 1
        ev = small_run.eigenvalues[0]
        assert ev.index == 0
        assert abs(ev.k - (2.1958 + 1.0732j)) < 1e-3
        # full orbit written: 4 mirrors of a quadrant zero
        assert len(small_run.records) == 4

    def test_degenerate_free_potential(self):
        cfg = _cfg({"kind": "constant", "value": 0.0, "h": 0.0})
        run = run_spectrum(cfg)
        assert run.exit_code == 0
        assert run.records == []
        assert any("degenerate" in w for w in run.header.warnings)

    def test_origin_multiplicity_recorded(self, small_run):
        assert small_run.header.s == 0

    def test_default_region_record_count(self):
        # The [0,20]x[0,4] scan holds the orbits n = 0..5, so the written
        # file (full orbits) carries well over ten indexed records.
        cfg = _cfg({"kind": "constant", "value": 1.0, "h": 0.0},
                   spectrum={"region": [0.0, 20.0, 0.0, 4.0]})
        run = run_spectrum(cfg)
        assert run.exit_code == 0
        assert len(run.records) >= 10
        assert {e.index for e in run.eigenvalues} == set(range(6))

    def test_real_pair_collision_gives_two_simple_zeros(self):
        # Two simple real zeros 9.4e-4 apart. A split line along the real
        # axis once counted them as one double zero, exiting 0 unwarned.
        res = pipeline.scan_spectrum(Potential.constant(9.27019472424975, h=0.0), "robin",
                                     (2.3, 3.3, -0.4, 0.4))
        assert [(e.multiplicity, e.refined, e.cls) for e in res.zeros] == [(1, True, "real")] * 2
        for ev, k in zip(res.zeros, (2.797916088, 2.798856182)):
            assert abs(ev.k - k) < 1e-9

    def test_unrefined_scan_zero_warns_and_exits_2(self, monkeypatch):
        # A merged entry of the region search is named in a warning, as an
        # uncertified targeted root is.
        merged = Eigenvalue(k=2.5 + 1.0j, index=None, multiplicity=2, residual=1e-3,
                            cls="quadrant", refined=False)
        monkeypatch.setattr(pipeline, "find_zeros",
                            lambda f, region, **kw: ZeroSearchResult([merged], [], []))
        run = run_spectrum(_cfg({"kind": "constant", "value": 1.0, "h": 0.0},
                                spectrum={"region": [1.5, 4.0, 0.5, 2.0]}))
        assert run.exit_code == 2
        assert [w for w in run.header.warnings if "not refined" in w] == [
            "region-scan zeros not refined (clusters or merged roots): 2.5+1j (multiplicity 2)"]


class TestTargeted:
    def test_indices_and_location(self, q_one):
        s = derive_scalars(q_one)
        evs = targeted_spectrum(q_one, s, "robin", 3, 5)
        assert [e.index for e in evs] == [3, 4, 5]
        assert all(e.refined for e in evs)
        from tspec.asymptotics import index_targets, leading_zeros

        lz = leading_zeros(s, 5)
        # |D| scale near each root: the maximum over 8 points on a circle of
        # radius half the smaller of 1 and half the target spacing.
        _, spacing, _ = index_targets(s, "robin", 7 * np.pi)
        radius = 0.5 * min(1.0, spacing / 2.0)
        dev_fine = DEvaluator(q_one, "robin", rtol=1e-13)
        for ev in evs:
            mu = dict(zip(lz.ns, lz.mu_n))[ev.index]
            assert abs(ev.k - mu) < 0.05
            circle = ev.k + radius * np.exp(2j * np.pi * np.arange(8) / 8)
            assert ev.residual < 1e-9 * np.max(np.abs(dev_fine(circle)))


def _spy_evaluations(monkeypatch):
    """Record (rtol, ks) of every D batch an evaluator computes."""
    calls = []
    evaluate = tspec.charfun.eval_D_many

    def spy(p, ks, variant="robin", rtol=1e-12):
        calls.append((rtol, list(ks)))
        return evaluate(p, ks, variant=variant, rtol=rtol)

    monkeypatch.setattr(tspec.charfun, "eval_D_many", spy)
    return calls


class TestTargetedCost:
    @pytest.mark.parametrize("n_hi", range(1, 7))
    def test_one_residual_call(self, n_hi, monkeypatch):
        p = Potential.polynomial([1.0, 1.0])
        calls = _spy_evaluations(monkeypatch)
        evs = targeted_spectrum(p, derive_scalars(p), "robin", 1, n_hi)
        assert [e.index for e in evs] == list(range(1, n_hi + 1))
        assert all(e.refined for e in evs)
        # The last evaluation gives the residuals of all roots at once. (A
        # polish sweep may have evaluated a root already, when its last step
        # rounds to nothing.)
        assert calls[-1] == (1e-13, [e.k for e in evs])
        monkeypatch.undo()
        for ev in evs:
            single = abs(tspec.charfun.eval_D_many(p, [ev.k], rtol=1e-13)[0])
            assert abs(ev.residual - single) <= 1e-11 * single

    def test_newton_budget_at_fine_tolerance(self, monkeypatch):
        # Only the polish and the residuals may run tighter than the winding
        # tolerance: seeds O(0.1) off take their coarse sweeps at 1e-8.
        p = Potential.from_dict({"kind": "polynomial",
                                 "coeffs": [2.018163552678391, -3.0078934421058396],
                                 "h": -0.0383367})
        calls = _spy_evaluations(monkeypatch)
        evs = targeted_spectrum(p, derive_scalars(p), "robin", 3, 3)
        assert [e.index for e in evs] == [3] and evs[0].refined
        assert sum(1 for rtol, _ks in calls if rtol < 1e-8) <= 3


class TestDirichletTheorem:
    def test_sign_flipped_correction(self, q_one):
        # The Dirichlet refinement carries +Q3/(4 n pi q(1)) where the Robin
        # one carries -Q1/...; feeding the wrong sign must visibly worsen the
        # next-order residuals.
        import math

        from tspec.asymptotics import predict_eigenvalues, residual_report
        from tspec import q_constants

        s = derive_scalars(q_one)
        evs = targeted_spectrum(q_one, s, "dirichlet", 4, 12)
        pred = predict_eigenvalues(s, "Dirichlet_i", range(4, 13))
        rep = residual_report(evs, pred)
        good = sum(abs(r["refined"]) for r in rep.rows) / len(rep.rows)
        _, _, q3, _ = q_constants(s)
        bad = sum(abs(r["n"] * (r["eps"] + q3 / (4 * r["n"] * math.pi * s.q_at_1)))
                  for r in rep.rows) / len(rep.rows)
        assert good < 0.2 * bad
        assert rep.tails_decreasing
        assert rep.loglog_slope <= -0.5


class TestOrbits:
    def test_expand_quadrant(self):
        ev = Eigenvalue(k=2 + 1j, index=0, multiplicity=1, residual=0.0, cls="quadrant")
        assert len(expand_orbit(ev)) == 4

    def test_expand_real(self):
        ev = Eigenvalue(k=3.0 + 0j, index=1, multiplicity=1, residual=0.0, cls="real")
        assert len(expand_orbit(ev)) == 2

    def test_records_round_trip(self, small_run):
        back = eigenvalues_from_records(small_run.records)
        assert len(back) == 1
        assert abs(back[0].k - small_run.eigenvalues[0].k) < 1e-12
        assert back[0].index == 0

    @staticmethod
    def _collapse_per_record(records):
        # Reference: the 9-digit key of every record's representative, first seen wins.
        seen = {}
        for r in records:
            rep = complex(abs(r.re_k), abs(r.im_k))
            seen.setdefault((round(rep.real, 9), round(rep.imag, 9)),
                            Eigenvalue(k=rep, index=r.index, multiplicity=r.multiplicity,
                                       residual=r.residual, cls=r.cls, branch=r.branch))
        return sorted(seen.values(), key=lambda e: (e.index if e.index is not None else 10 ** 9,
                                                    abs(e.k)))

    def test_images_within_rounding_give_one_representative(self):
        k = 2.1958123 + 1.0732456j
        images = [k, -k + 4e-11, np.conj(k) - 3e-11j, -np.conj(k) + (2e-11 - 5e-11j)]
        records = [SpectrumRecord(index=0, re_k=m.real, im_k=m.imag, multiplicity=1,
                                  residual=1e-14 * (i + 1), cls="quadrant")
                   for i, m in enumerate(images)]
        back = eigenvalues_from_records(records)
        assert len(back) == 1
        assert back[0].k == complex(k) and back[0].residual == 1e-14

    def test_order_of_records_does_not_matter(self, small_run):
        rng = np.random.default_rng(3)
        ref = eigenvalues_from_records(small_run.records)
        for _ in range(5):
            shuffled = [small_run.records[i] for i in rng.permutation(len(small_run.records))]
            assert eigenvalues_from_records(shuffled) == ref

    def test_matches_per_record_collapse(self):
        # Orbits with exact and with rounding-level mirrors, duplicated rows,
        # a real and an imaginary zero, shuffled: the exact-value pass first
        # must keep the same first record per 9-digit key.
        rng = np.random.default_rng(11)
        records = []
        for n, k in enumerate([2.5 + 1.25j, 5.75 + 0.5j, 3.0 + 0j, 1.5j, 9.125 + 2.0j]):
            for m in (k, -k, np.conj(k), -np.conj(k), k):
                m = complex(m) + complex(*rng.choice([0.0, 1e-12, -2e-12], 2))
                records.append(SpectrumRecord(index=n, re_k=m.real, im_k=m.imag,
                                              multiplicity=1 + n % 2, residual=rng.uniform(),
                                              cls="quadrant", branch=n - 2))
        for _ in range(5):
            records = [records[i] for i in rng.permutation(len(records))]
            assert eigenvalues_from_records(records) == self._collapse_per_record(records)


class TestAudits:
    def test_symmetry_pass(self, small_run):
        assert audit_symmetry(small_run.records).status == "pass"

    def test_symmetry_fail_on_removed_conjugate(self, small_run):
        broken = [r for r in small_run.records if not (r.re_k > 0 and r.im_k < 0)]
        assert len(broken) == 3
        entry = audit_symmetry(broken)
        assert entry.status == "fail"

    @pytest.mark.parametrize("damage", ["none", "drop", "perturb"])
    def test_symmetry_matches_pairwise_search(self, damage):
        # Reference: every record against every other, mirror by mirror.
        rng = np.random.default_rng(7)
        reps = rng.uniform(0.5, 40.0, 50) + 1j * rng.uniform(0.0, 4.0, 50)
        reps[:5] = reps[:5].real
        records = [SpectrumRecord(index=n, re_k=m.real, im_k=m.imag, multiplicity=1,
                                  residual=0.0, cls="quadrant")
                   for n, k in enumerate(reps)
                   for m in dict.fromkeys(complex(v) for v in (k, -k, np.conj(k), -np.conj(k)))]
        if damage == "drop":
            del records[17]
        elif damage == "perturb":
            records[23] = replace(records[23], re_k=records[23].re_k + 1e-6)
        ks = [complex(r.re_k, r.im_k) for r in records]
        missing = [(k, complex(image)) for k in ks for image in (-k, np.conj(k), -np.conj(k))
                   if not any(abs(image - o) <= 1e-9 * (1.0 + abs(k)) for o in ks)]
        if missing:
            ref = AuditEntry("symmetry-closure", "fail", f"{len(missing)} missing mirrors, "
                             f"e.g. {missing[0][1]} of {missing[0][0]}")
        else:
            ref = AuditEntry("symmetry-closure", "pass", f"{len(ks)} records closed under +-k, conj")
        assert audit_symmetry(records) == ref
        assert (ref.status == "pass") == (damage == "none")

    @staticmethod
    def _kdtree_audit(ks):
        """The audit's rule by a k-d tree: nearest record to each mirror within 1e-9 (1 + |k|)."""
        ks = np.asarray(ks, dtype=complex)
        images = np.stack([-ks, ks.conj(), -ks.conj()], axis=1).ravel()
        dist, _ = cKDTree(np.column_stack([ks.real, ks.imag])).query(
            np.column_stack([images.real, images.imag]))
        missing = np.nonzero(dist > 1e-9 * (1.0 + np.abs(np.repeat(ks, 3))))[0]
        if missing.size:
            return AuditEntry("symmetry-closure", "fail",
                              f"{missing.size} missing mirrors, e.g. {complex(images[missing[0]])} "
                              f"of {complex(ks[missing[0] // 3])}")
        return AuditEntry("symmetry-closure", "pass", f"{ks.size} records closed under +-k, conj")

    @pytest.mark.parametrize("case", ["moved-0.3", "moved-3", "axes", "duplicates", "single"])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_symmetry_matches_kdtree_oracle(self, case, seed):
        rng = np.random.default_rng(seed)
        reps = rng.uniform(0.5, 40.0, 30) + 1j * rng.uniform(0.1, 4.0, 30)
        if case == "axes":
            # k = conj(k) on the real axis, k = -conj(k) on the imaginary one.
            reps[:8] = reps[:8].real
            reps[8:16] = 1j * reps[8:16].imag
        ks = [complex(m) for k in reps
              for m in dict.fromkeys(complex(v) for v in (k, -k, np.conj(k), -np.conj(k)))]
        if case.startswith("moved"):
            i = int(rng.integers(len(ks)))
            step = float(case.split("-")[1]) * 1e-9 * (1.0 + abs(ks[i]))
            ks[i] += step * np.exp(2j * np.pi * rng.uniform())
        elif case == "duplicates":
            ks += [ks[i] for i in rng.integers(len(ks), size=10)]
        elif case == "single":
            ks = ks[:1]
        records = [SpectrumRecord(index=0, re_k=k.real, im_k=k.imag, multiplicity=1,
                                  residual=0.0, cls="quadrant") for k in ks]
        ref = self._kdtree_audit(ks)
        assert audit_symmetry(records) == ref
        assert (ref.status == "pass") == (case in ("moved-0.3", "axes", "duplicates"))

    def test_validate_fresh_run(self, small_run):
        cfg = _cfg({"kind": "constant", "value": 1.0, "h": 0.0},
                   validate={"contours": [2]})
        report = run_validate(cfg, small_run.header, small_run.records)
        by_name = {e.name: e for e in report.entries}
        assert by_name["file-integrity"].status == "pass"
        assert by_name["symmetry-closure"].status == "pass"
        assert by_name["contour-counts"].status == "pass"
        assert not report.failed

    def test_validate_mismatched_theorem(self, small_run):
        # Requesting the omega = 0 theorem for a potential with omega = 1.
        cfg = _cfg({"kind": "constant", "value": 1.0, "h": 0.0},
                   validate={"contours": [2], "theorem": "T41ii_W22"})
        report = run_validate(cfg, small_run.header, small_run.records)
        by_name = {e.name: e for e in report.entries}
        assert by_name["residual-decay"].status == "fail"
        assert "mismatch" in by_name["residual-decay"].detail
        assert report.failed


class TestDegenerateDetector:
    def test_zero_potential(self):
        p = Potential.constant(0.0, h=2.0)
        assert is_degenerate(DEvaluator(p, "robin"))

    def test_nontrivial_potential(self, q_one):
        assert not is_degenerate(DEvaluator(q_one, "robin"))


class TestConfig:
    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            validate_config({"potential": {"kind": "constant", "value": 1.0, "h": 0.0},
                             "variant": "robin", "plot": True})

    def test_missing_h_for_robin(self):
        with pytest.raises(ConfigError):
            validate_config({"potential": {"kind": "constant", "value": 1.0},
                             "variant": "robin"})

    def test_dirichlet_h_optional(self):
        cfg = validate_config({"potential": {"kind": "constant", "value": 1.0},
                               "variant": "dirichlet"})
        assert cfg.variant == "dirichlet"

    def test_bad_variant(self):
        with pytest.raises(ConfigError):
            validate_config({"potential": {"kind": "constant", "value": 1.0, "h": 0.0},
                             "variant": "neumann"})
