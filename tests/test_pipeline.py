import json
import re
import warnings
from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

import tspec.charfun
from tspec import asymptotics, pipeline, rootfind, spectrumfile
from tspec import Potential, derive_scalars
from tspec.config import validate_config
from tspec.errors import ConfigError, DomainError, HypothesisMismatchError
from tspec.gamma_recovery import from_representatives
from tspec.potential import PotentialScalars
from tspec.pipeline import (AuditEntry, audit_residual_decay, audit_symmetry,
                            eigenvalues_from_columns, expand_orbit, run_spectrum,
                            validate_columns)
from tspec.charfun import DEvaluator
from tspec.rootfind import Eigenvalue, ZeroSearchResult, find_zeros
from tspec.spectrumfile import _RECORD_FIELDS, SpectrumRecord, _Columns

from conftest import (eigenvalues_from_columns_oracle, eigenvalues_of, product_oracle,
                      representatives_of, residual_report_oracle)


def _columns_of(records) -> _Columns:
    """The record columns of a list of SpectrumRecord, as read_spectrum gives them."""
    return _Columns(*zip(*[[getattr(r, f) for f in _RECORD_FIELDS] for r in records])) \
        if records else _Columns(*[()] * len(_RECORD_FIELDS))


def _cfg(potential, variant="robin", **extra):
    raw = {"potential": potential, "variant": variant}
    raw.update(extra)
    return validate_config(raw)


Q_ONE = {"kind": "constant", "value": 1.0, "h": 0.0}


def _window(potential, n_lo, n_hi, variant="robin"):
    """The eigenvalues of the index window n_lo..n_hi, a run that must exit 0."""
    run = run_spectrum(_cfg(potential, variant, spectrum={"n": [n_lo, n_hi]}))
    assert run.exit_code == 0, run.header.warnings
    return run.eigenvalues


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
        dev = DEvaluator(Potential.constant(9.27019472424975, h=0.0), "robin", rtol=1e-9)
        res = find_zeros(dev, (2.3, 3.3, -0.4, 0.4), refine_f=dev.with_tolerance(1e-13))
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
        evs = _window(Q_ONE, 3, 5)
        assert [e.index for e in evs] == [3, 4, 5]
        assert all(e.refined for e in evs)
        from tspec.asymptotics import index_targets, leading_zeros

        lz = leading_zeros(s, range(1, 6))
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
        # Each polished box makes one stencil call and one check call at 1e-13,
        # and the checks give every root its residual: no call comes after them.
        potential = {"kind": "polynomial", "coeffs": [1.0, 1.0], "h": 0.0}
        p = Potential.from_dict(potential)
        calls = _spy_evaluations(monkeypatch)
        boxes = []
        moment_zeros = rootfind._moment_zeros
        monkeypatch.setattr(rootfind, "_moment_zeros",
                            lambda *args: boxes.append(args) or moment_zeros(*args))
        evs = _window(potential, 1, n_hi)
        assert [e.index for e in evs] == list(range(1, n_hi + 1))
        assert all(e.refined for e in evs)
        fine = [ks for rtol, ks in calls if rtol == 1e-13]
        assert len(fine) <= 2 * len(boxes) and len(fine) % 2 == 0
        stencils, checks = fine[::2], fine[1::2]
        assert [len(ks) for ks in stencils] == [len(rootfind._STENCIL) * len(ks) for ks in checks]
        checked = sorted((k for ks in checks for k in ks), key=abs)
        assert checked == sorted((e.k for e in evs), key=abs)
        monkeypatch.undo()
        # Each residual is |D| of its own check call, bit for bit.
        residual = {}
        for ks in checks:
            residual.update(zip(ks, np.abs(tspec.charfun.eval_D_many(p, ks, rtol=1e-13))))
        assert [ev.residual for ev in evs] == [residual[ev.k] for ev in evs]

    def test_polish_takes_three_fine_points_per_root(self, monkeypatch):
        # The two-point stencil and the check point: at most 3 points at 1e-13
        # per root of the window (the five-point stencil took 6).
        calls = _spy_evaluations(monkeypatch)
        evs = _window({"kind": "polynomial", "coeffs": [1.0, 1.0], "h": 0.0}, 1, 6)
        assert [e.index for e in evs] == list(range(1, 7))
        assert sum(len(ks) for rtol, ks in calls if rtol == 1e-13) <= 3 * len(evs)

    @pytest.mark.parametrize("potential, n", [
        (Q_ONE, 1), (Q_ONE, 4),
        ({"kind": "polynomial", "coeffs": [-1.6685632173450171, 2.528261446027842],
          "h": -0.20404202893245155}, 3)], ids=["constant-1", "constant-4", "linear-3"])
    def test_one_counting_sweep_per_window_box(self, potential, n, monkeypatch):
        # The pencil seed of a one-zero window box sits well within 1e-3 of
        # its root, so one Newton sweep on the counting evaluator hands it to
        # the polish: a step bound relative to |k| took a second sweep.
        calls = _spy_evaluations(monkeypatch)
        counts = []
        moment_zeros = rootfind._moment_zeros
        monkeypatch.setattr(rootfind, "_moment_zeros",
                            lambda *args: counts.append(args[2]) or moment_zeros(*args))
        evs = _window(potential, n, n)
        assert counts == [1] and [e.index for e in evs] == [n] and evs[0].refined
        rtols = [rtol for rtol, _ks in calls]
        polish = rtols.index(1e-13)
        assert rtols[:polish] == [pipeline._RTOL_WINDING] * 2      # the opening call and one sweep
        assert len(calls[1][1]) == len(rootfind._STENCIL)

    @pytest.mark.parametrize("n_lo, searches", [(1, 1), (2, 0)])
    def test_small_zero_search_only_where_a_window_can_reach_it(self, n_lo, searches,
                                                               monkeypatch):
        # Dirichlet_i with q(1)/omega > 0 numbers from n = 1, and the n = 0
        # target lies below it: only a window that starts at the first index
        # scans from Re k = 0 over the small zeros, and leaving the n = 0
        # target out changes no zero of either window.
        potential = {"kind": "polynomial", "coeffs": [1.0, 1.0], "h": 0.0}
        scalars = derive_scalars(Potential.from_dict(potential))
        targets, _, n_min = pipeline.asy.index_targets(scalars, "dirichlet", 5 * np.pi)
        assert (targets[0][0], n_min) == (0, 1)
        regions = []
        scan = pipeline.find_zeros
        monkeypatch.setattr(pipeline, "find_zeros",
                            lambda dev, region, **kw: regions.append(region)
                            or scan(dev, region, **kw))
        evs = _window(potential, n_lo, 3, "dirichlet")
        assert len(regions) == 1
        assert sum(region[0] == 0.0 for region in regions) == searches
        assert [e.index for e in evs] == list(range(n_lo, 4))
        monkeypatch.setattr(pipeline.asy, "_zero_target", lambda scalars: None)
        assert _window(potential, n_lo, 3, "dirichlet") == evs

    def test_small_zero_target_changes_no_later_window(self, monkeypatch):
        # The n = 0 target has Re k below x*/2 = 2.25, farther than the
        # matching radius from the strip of a window that starts at n = 2:
        # that window finds the same zeros whether mu_0 is a target or not.
        potential = {"kind": "polynomial", "coeffs": [1.0, 1.0], "h": 0.0}
        scalars = derive_scalars(Potential.from_dict(potential))
        assert pipeline.asy.index_targets(scalars, "robin", 3 * np.pi)[0][0][0] == 0
        evs = _window(potential, 2, 3)
        assert [e.index for e in evs] == [2, 3]
        monkeypatch.setattr(pipeline.asy, "_zero_target", lambda scalars: None)
        assert pipeline.asy.index_targets(scalars, "robin", 3 * np.pi)[0][0][0] == 1
        assert _window(potential, 2, 3) == evs

    def test_newton_budget_at_fine_tolerance(self, monkeypatch):
        # Only the polish and the residuals may run tighter than the winding
        # tolerance: seeds O(0.1) off take their coarse sweeps at 1e-8.
        calls = _spy_evaluations(monkeypatch)
        evs = _window({"kind": "polynomial", "coeffs": [2.018163552678391, -3.0078934421058396],
                       "h": -0.0383367}, 3, 3)
        assert [e.index for e in evs] == [3] and evs[0].refined
        assert sum(1 for rtol, _ks in calls if rtol < 1e-8) <= 3


class TestWindowRun:
    # An index window runs the region scan of the strip _strip places: the
    # header records that strip, and spectrum.depth bounds its subdivision.
    LINEAR = {"kind": "polynomial", "coeffs": [-1.6685632173450171, 2.528261446027842],
              "h": -0.20404202893245155}

    def test_header_region_is_the_searched_strip(self):
        run = run_spectrum(_cfg(self.LINEAR, spectrum={"n": [1, 12]}))
        p = Potential.from_dict(self.LINEAR)
        strip = pipeline._strip(derive_scalars(p), "robin", 1, 12)[0]
        assert run.exit_code == 0
        assert run.header.region == [float(v) for v in strip] != [0.0, 20.0, 0.0, 4.0]
        s0, s1, t0, t1 = run.header.region
        assert all(s0 <= abs(r.re_k) <= s1 and t0 <= abs(r.im_k) <= t1 for r in run.records)
        assert max(r.re_k for r in run.records) > 20.0

    def test_window_without_a_strip_keeps_the_config_region(self):
        # omega = 0 numbers from n = 1, so the window 0..0 has no target.
        run = run_spectrum(_cfg({"kind": "polynomial", "coeffs": [-0.5, 1.0], "h": 0.0},
                                spectrum={"n": [0, 0], "region": [1.0, 2.0, 0.0, 1.0]}))
        assert run.header.region == [1.0, 2.0, 0.0, 1.0] and run.records == []
        assert run.exit_code == 2

    def test_window_below_the_first_index_names_that_fault(self):
        # Dirichlet with q(1)/omega > 0 numbers from n = 1: index 0 does not
        # exist, so the window 0..2 warns that it starts below the first index
        # (exit 2) and writes the records of the window 1..2.
        potential = {"kind": "polynomial", "coeffs": [-3.41, -0.65], "h": 0.0}
        run = run_spectrum(_cfg(potential, "dirichlet", spectrum={"n": [0, 2]}))
        fits = run_spectrum(_cfg(potential, "dirichlet", spectrum={"n": [1, 2]}))
        assert run.header.warnings == ["index window 0..2 starts below the theorem's "
                                       "first index 1"]
        assert run.exit_code == 2 and fits.exit_code == 0 and fits.header.warnings == []
        assert run.records == fits.records and {r.index for r in run.records} == {1, 2}

    def test_depth_bounds_the_window_scan(self):
        # The region scan of the same strip at depth 1 leaves the same two
        # boxes unresolved; the window warns about them and names every index
        # it misses.
        run = run_spectrum(_cfg(self.LINEAR, spectrum={"n": [1, 12], "depth": 1}))
        scan = run_spectrum(_cfg(self.LINEAR, tolerances={"rtol": 1e-8},
                                 spectrum={"region": run.header.region, "depth": 1}))
        assert len(run.unresolved) == len(scan.unresolved) == 2
        assert run.exit_code == 2 and run.records == []
        assert run.header.warnings == [
            "2 unresolved cluster boxes",
            f"targeted roots at indices {list(range(1, 13))} not certified"]


class TestOpeningCall:
    # The degeneracy probes and the first boundaries of the origin box and of
    # the searched region share one D call, so a run makes two fewer than the
    # 7 it made when the probes and the origin count each had their own.
    LINEAR = {"kind": "polynomial", "coeffs": [-1.6685632173450171, 2.528261446027842],
              "h": -0.20404202893245155}
    STRIP = {"kind": "polynomial", "coeffs": [-0.6, 1.2], "h": 0.0}

    @pytest.mark.parametrize("potential, spectrum", [
        (LINEAR, {"n": [3, 3]}), (STRIP, {"region": [7.2, 8.7, -0.6, 0.6]})],
        ids=["targeted", "scan"])
    def test_d_call_budget(self, potential, spectrum, monkeypatch):
        # The opening call, one Newton sweep on the counting evaluator, and the
        # polish's stencil and check: 4 calls for the run's one zero.
        calls = []
        transfer_many = tspec.charfun.transfer_many
        monkeypatch.setattr(tspec.charfun, "transfer_many",
                            lambda p, ks, rtol: calls.append(ks) or transfer_many(p, ks, rtol))
        run = run_spectrum(_cfg(potential, spectrum=spectrum))
        assert run.exit_code == 0 and len(run.eigenvalues) == 1
        assert len(calls) == 4
        if "n" in spectrum:
            p = Potential.from_dict(potential)
            region = pipeline._strip(derive_scalars(p), "robin", 3, 3)[0]
        else:
            region = spectrum["region"]
        opening = np.concatenate([pipeline._DEGENERATE_PROBES,
                                  rootfind._boundary(rootfind._ORIGIN_BOX),
                                  rootfind._boundary(rootfind.ContourBox(*region))])
        assert np.array_equal(calls[0], opening)

    @pytest.mark.parametrize("region", [[0.0, 1.0, 0.0, 70.0], [0.0, 1e200, 0.0, 1.0]],
                             ids=["past-the-im-cap", "too-long-to-sample"])
    def test_degenerate_exit_needs_no_region_samples(self, region):
        # q = 0 over a region the Jost layer cannot take, or whose boundary no
        # count could sample: the verdict still comes first, from the probes.
        run = run_spectrum(_cfg({"kind": "constant", "value": 0.0, "h": 0.0},
                                spectrum={"region": region}))
        assert run.exit_code == 0 and run.records == []
        assert any("degenerate" in w for w in run.header.warnings)


class TestDirichletTheorem:
    def test_sign_flipped_correction(self, q_one):
        # The Dirichlet refinement carries +Q3/(4 n pi q(1)) where the Robin
        # one carries -Q1/...; feeding the wrong sign must visibly worsen the
        # next-order residuals.
        import math

        from tspec.asymptotics import predict_eigenvalues, residual_report
        from tspec import q_constants

        s = derive_scalars(q_one)
        evs = _window(Q_ONE, 4, 12, "dirichlet")
        pred = predict_eigenvalues(s, "Dirichlet_i", range(4, 13))
        rep = residual_report(representatives_of(evs), pred)
        good = sum(abs(r) for r in rep.rows.refined.tolist()) / len(rep.rows.n)
        _, _, q3, _ = q_constants(s)
        bad = sum(abs(n * (eps + q3 / (4 * n * math.pi * s.q_at_1)))
                  for n, eps in zip(rep.rows.n, rep.rows.eps.tolist())) / len(rep.rows.n)
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
        back = eigenvalues_of(eigenvalues_from_columns(_columns_of(small_run.records)))
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
        back = eigenvalues_of(eigenvalues_from_columns(_columns_of(records)))
        assert len(back) == 1
        assert back[0].k == complex(k) and back[0].residual == 1e-14

    def test_order_of_records_does_not_matter(self, small_run):
        rng = np.random.default_rng(3)
        ref = eigenvalues_of(eigenvalues_from_columns(_columns_of(small_run.records)))
        for _ in range(5):
            shuffled = [small_run.records[i] for i in rng.permutation(len(small_run.records))]
            assert eigenvalues_of(eigenvalues_from_columns(_columns_of(shuffled))) == ref

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
            assert (eigenvalues_of(eigenvalues_from_columns(_columns_of(records)))
                    == self._collapse_per_record(records))

    @staticmethod
    def _collapse_by_dict(records):
        # Reference: the record collapse before the column reader, in Python
        # dicts: first record per exact (|Re k|, |Im k|), then per 9-digit key.
        re_k = list(map(abs, [r.re_k for r in records]))
        im_k = list(map(abs, [r.im_k for r in records]))
        firsts = pipeline._first_of_each(list(zip(re_k, im_k)), range(len(records)))
        rounded = [(round(re_k[i], 9), round(im_k[i], 9)) for i in firsts]
        zeros = [Eigenvalue(k=complex(re_k[i], im_k[i]), index=records[i].index,
                            multiplicity=records[i].multiplicity, residual=records[i].residual,
                            cls=records[i].cls, branch=records[i].branch)
                 for i in pipeline._first_of_each(rounded, firsts)]
        return sorted(zeros, key=lambda e: (e.index if e.index is not None else 10 ** 9,
                                            abs(e.k)))

    @pytest.mark.parametrize("images", [(), (3e-11, -2e-11j)], ids=["exact", "rounded"])
    @pytest.mark.parametrize("gap", [0.49e-9, 0.98e-9, 1.02e-9, 1.98e-9, 2.02e-9, 4e-9])
    @pytest.mark.parametrize("direction", [1.0, 1j, 1 + 1j, 1 - 1j])
    def test_skipped_rounding_keeps_the_rounded_collapse(self, monkeypatch, direction, gap,
                                                         images):
        # Two survivors per orbit, just inside or just outside 1e-9 of each
        # other in one part or both, either side of a 9-digit grid point (so
        # they share a key or not), with or without mirror images that differ
        # by rounding: whichever path runs, the list is the one the 9-digit keys
        # give, and the rounding runs exactly when the means of two survivors'
        # parts lie within 1e-9.
        calls = []
        monkeypatch.setattr(pipeline, "round", lambda x, n: calls.append(x) or round(x, n),
                            raising=False)
        records = []
        for n, k in enumerate([2.5 + 1.25j, 5.75 + 0.5j, 3.0 + 2.75j]):
            for m in (k - gap / 2 * direction, k + gap / 2 * direction):
                for image in [m, -m] + [np.conj(m) * (-1) ** i + d for i, d in enumerate(images)]:
                    records.append(SpectrumRecord(index=n, re_k=image.real, im_k=image.imag,
                                                  multiplicity=1, residual=float(len(records)),
                                                  cls="quadrant"))
        back = eigenvalues_of(eigenvalues_from_columns(_columns_of(records)))
        assert back == self._collapse_by_dict(records)
        close = abs(direction.real + direction.imag) * gap / 2 <= 1e-9
        assert bool(calls) is (close or bool(images))

    def test_columns_match_the_dict_collapse(self, tmp_path):
        # Mirror images that differ by rounding, exact repeats, -0.0 parts, a
        # real, an imaginary and an unindexed zero, two orbits whose 9-digit
        # keys coincide, read back through the file's columns.
        rng = np.random.default_rng(5)
        records = []
        for n, k in enumerate([2.5 + 1.25j, 5.75 + 0.5j, 3.0 + 0j, 1.5j, 9.125 + 2.0j,
                               9.125 + 2.0j + 3e-11, 7.0 + 4.0j]):
            for m in (k, -k, np.conj(k), -np.conj(k), k):
                m = complex(m) + complex(*rng.choice([0.0, 1e-12, -3e-11], 2))
                records.append(SpectrumRecord(index=None if n == 6 else n, re_k=m.real,
                                              im_k=m.imag, multiplicity=1 + n % 3,
                                              residual=float(rng.uniform()), cls="quadrant",
                                              branch=n - 2))
        records.append(replace(records[10], im_k=-0.0))
        header = spectrumfile.SpectrumHeader(potential={"kind": "constant", "value": 1.0,
                                                        "h": 0.0},
                                             variant="robin", region=[], tolerances={})
        for _ in range(4):
            records = [records[i] for i in rng.permutation(len(records))]
            path = tmp_path / "spec.json"
            doc = spectrumfile.write_spectrum(path, header, records)
            written = [SpectrumRecord(**d) for d in doc["records"]]
            _, columns, hash_ok = spectrumfile.read_spectrum(path)
            assert hash_ok
            ref = [repr(ev) for ev in self._collapse_by_dict(written)]
            assert len(ref) == 6
            assert [repr(ev) for ev in eigenvalues_of(eigenvalues_from_columns(columns))] == ref
            assert ([repr(ev) for ev in eigenvalues_of(eigenvalues_from_columns(_columns_of(records)))]
                    == [repr(ev) for ev in self._collapse_by_dict(records)])


# Scalars of a theorem case for each tag the columnar property predicts with:
# T42ii splits every index into branches +1 and -1.
_TAG_SCALARS = {
    "T41i_W22": PotentialScalars(omega=1.0, q_at_1=1.0, dq_at_1=0.0, q_at_0=1.0, dq_at_0=0.0,
                                 q_sq_integral=1.0, m_order=None),
    "T41ii_W22": PotentialScalars(omega=0.0, q_at_1=0.5, dq_at_1=1.0, q_at_0=-0.5, dq_at_0=1.0,
                                  q_sq_integral=1.0 / 12.0, m_order=None),
    "Dirichlet_ii": PotentialScalars(omega=0.0, q_at_1=0.5, dq_at_1=1.0, q_at_0=-0.5,
                                     dq_at_0=1.0, q_sq_integral=1.0 / 12.0, m_order=None),
    "T42ii": PotentialScalars(omega=0.0, q_at_1=0.0, dq_at_1=1.0, q_at_0=0.3, dq_at_0=-0.7,
                              q_sq_integral=0.2, m_order=None),
}


@st.composite
def _spectrum_records(draw):
    """The records of a few orbits, shuffled: each orbit's mirrors (in half the
    files some moved by less than 1e-9, so that the 9-digit merge runs), and
    now and then a repeated record with another index."""
    records, moves = [], draw(st.sampled_from([(0.0,), (0.0, 0.0, 3e-11, -4e-10, 7e-10)]))
    for _ in range(draw(st.integers(0, 10))):
        cls = draw(st.sampled_from(["quadrant", "real", "imaginary"]))
        k = complex(draw(st.floats(0.1, 60.0)) if cls != "imaginary" else 0.0,
                    draw(st.floats(0.05, 6.0)) if cls != "real" else 0.0)
        fields = {"index": draw(st.one_of(st.none(), st.integers(-1, 12),
                                          st.sampled_from([2 ** 70, 2 ** 70 + 1]))),
                  "multiplicity": draw(st.integers(1, 3)), "residual": draw(st.floats(0.0, 1.0)),
                  "cls": cls, "branch": draw(st.sampled_from([None, 1, -1]))}
        for m in dict.fromkeys((k, -k, k.conjugate(), -k.conjugate())):
            m += draw(st.sampled_from(moves)) * draw(st.sampled_from([1.0, 1j]))
            records.append(SpectrumRecord(re_k=m.real, im_k=m.imag, **fields))
            if draw(st.integers(0, 9)) == 0:
                records.append(replace(records[-1], index=draw(st.integers(0, 12))))
    return draw(st.permutations(records))


class TestColumnarReadSide:
    """The representatives, the product and the residual report of a spectrum
    file, kept on columns, against the object path they replaced (the oracles
    in conftest): bit for bit, on files whose records come in any order. The
    example count is the active hypothesis profile's: the default in the
    tier-1 run, and the larger "representatives" profile in a longer CI run."""

    @pytest.fixture(scope="class")
    def spec_path(self, tmp_path_factory):
        return tmp_path_factory.mktemp("columnar") / "spectrum.json"

    @settings(deadline=None, derandomize=True, database=None)
    @given(records=_spectrum_records(), tag=st.sampled_from(sorted(_TAG_SCALARS)),
           s=st.integers(0, 2))
    def test_matches_the_object_path(self, spec_path, records, tag, s):
        header = spectrumfile.SpectrumHeader(potential=Q_ONE, variant="robin", region=[],
                                             tolerances={}, s=s)
        spec_path.write_text(json.dumps({"header": asdict(header),
                                         "records": [asdict(r) for r in records]}))
        _, columns, _ = spectrumfile.read_spectrum(spec_path)
        reps, ref = eigenvalues_from_columns(columns), eigenvalues_from_columns_oracle(columns)
        assert repr(eigenvalues_of(reps)) == repr(ref)

        hp = from_representatives(reps.k, reps.multiplicity, reps.cls, s=s)
        roots, paired = product_oracle(ref, s)
        assert repr(hp.roots.tolist()) == repr(roots.tolist()) and hp.s == s
        assert hp.paired.tolist() == paired.tolist()

        ns = sorted({n for n in reps.index if n is not None and n >= 1})
        if not ns:
            return
        pred = asymptotics.predict_eigenvalues(_TAG_SCALARS[tag], tag, ns)
        # Rows that share one n make the log-log fit warn, or fail when that n
        # is 1, on both paths alike.
        with warnings.catch_warnings(record=True) as warned:
            warnings.simplefilter("always")
            try:
                want = residual_report_oracle(ref, pred)
            except (DomainError, np.linalg.LinAlgError) as exc:
                with pytest.raises(type(exc), match=re.escape(str(exc))):
                    asymptotics.residual_report(reps, pred)
                return
            ref_warnings = [w.category for w in warned]
            del warned[:]
            got = asymptotics.residual_report(reps, pred)
            assert [w.category for w in warned] == ref_warnings
        rows = got.rows
        for name in ("n", "branch", "k", "mu", "eps", "refined"):
            column = getattr(rows, name)
            assert repr(getattr(column, "tolist", lambda: column)()) == repr(
                [r[name] for r in want.rows]), name
        for name in ("theorem_tag", "tail_first", "tail_second", "tails_decreasing",
                     "loglog_slope", "next_order_mean", "nonfinite"):
            assert repr(getattr(got, name)) == repr(getattr(want, name)), name
        assert repr(got.to_rows()) == repr(want.to_rows())

    @pytest.mark.parametrize("tag", ["T41ii_W22", "Dirichlet_ii"])
    def test_moduli_are_python_abs_to_the_bit(self, tag):
        # |eps_n|, n |eps_n| and the mean |n (eps_n - correction_n)| over 2,000
        # rows equal Python's abs(complex) on each row, as np.hypot gives it
        # (np.abs of a complex array differs in the last bit for about a third).
        rng = np.random.default_rng(4)
        ks = np.arange(1, 2001) * np.pi / 2 + rng.uniform(-0.5, 0.5, 2000) \
            + 1j * rng.uniform(0.0, 3.0, 2000)
        zeros = [Eigenvalue(k=k, index=n, multiplicity=1, residual=0.0, cls="quadrant")
                 for n, k in enumerate(ks.tolist(), start=1)]
        pred = asymptotics.predict_eigenvalues(_TAG_SCALARS[tag], tag, range(1, 2001))
        got = asymptotics.residual_report(representatives_of(zeros), pred)
        want = residual_report_oracle(zeros, pred)
        assert repr(got.next_order_mean) == repr(want.next_order_mean)
        assert repr(got.to_rows()) == repr(want.to_rows())


class TestAudits:
    @pytest.mark.parametrize("variant, coeffs, offset", [
        ("robin", [0.5, 1.0], 5), ("robin", [1.0, -1.8], 3),
        ("dirichlet", [0.5, 1.0], 1), ("dirichlet", [1.0, -1.8], 3)],
        ids=["robin-positive", "robin-negative", "dirichlet-positive", "dirichlet-negative"])
    def test_contour_counts_per_variant_and_sign(self, variant, coeffs, offset):
        # q = 0.5 + x has q(1)/omega = 1.5 > 0, q = 1 - 1.8 x has -8; the audit
        # expects 4n + offset and the winding counts of k D(k) give it.
        p = Potential.from_dict({"kind": "polynomial", "coeffs": coeffs, "h": 0.0})
        s = derive_scalars(p)
        assert asymptotics.CONTOUR_OFFSETS[variant, s.q_at_1 / s.omega > 0] == offset
        entry = pipeline.audit_contours(DEvaluator(p, variant, rtol=1e-10), s, [2, 3])
        assert entry.status == "pass" and entry.detail.endswith(f"match 4n+{offset}")

    def test_symmetry_pass(self, small_run):
        assert audit_symmetry(_columns_of(small_run.records)).status == "pass"

    def test_symmetry_fail_on_removed_conjugate(self, small_run):
        broken = [r for r in small_run.records if not (r.re_k > 0 and r.im_k < 0)]
        assert len(broken) == 3
        entry = audit_symmetry(_columns_of(broken))
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
        assert audit_symmetry(_columns_of(records)) == ref
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
        assert audit_symmetry(_columns_of(records)) == ref
        assert (ref.status == "pass") == (case in ("moved-0.3", "axes", "duplicates"))

    @staticmethod
    def _residual_decay_in_two_calls(zeros, scalars, variant, theorem=None):
        # Reference: the audit as it was, with the hypothesis check at n = 5
        # ahead of the prediction for the rows.
        tag = theorem or asymptotics.default_theorem_tag(scalars, variant)
        try:
            asymptotics.predict_eigenvalues(scalars, tag, [5])
        except HypothesisMismatchError as exc:
            return AuditEntry("residual-decay", "fail", f"hypothesis mismatch: {exc}")
        rows = [ev for ev in zeros if ev.index is not None and ev.index >= 1]
        if len(rows) < 4:
            return AuditEntry("residual-decay", "skipped",
                              f"only {len(rows)} indexed eigenvalues with n >= 1")
        pred = asymptotics.predict_eigenvalues(scalars, tag, sorted({ev.index for ev in rows}))
        report = asymptotics.residual_report(representatives_of(rows), pred)
        ok = report.loglog_slope <= pipeline._SLOPE_TOL and report.tails_decreasing
        return AuditEntry("residual-decay", "pass" if ok else "fail",
                          f"tag {tag}: slope {report.loglog_slope:.2f} "
                          f"(tol {pipeline._SLOPE_TOL}), "
                          f"tail sums {report.tail_first:.3e} -> {report.tail_second:.3e}")

    @pytest.mark.parametrize("theorem, n_rows, status", [
        ("T41ii_W22", 3, "fail"), ("T41ii_W22", 12, "fail"),
        (None, 3, "skipped"), (None, 12, "pass")])
    def test_residual_decay_paths_take_one_prediction(self, q_one, monkeypatch, theorem,
                                                      n_rows, status):
        # The omega = 0 theorem on q = 1 is a hypothesis mismatch, with too few
        # rows to predict or with enough; the default theorem skips or passes.
        scalars = derive_scalars(q_one)
        pred = asymptotics.predict_eigenvalues(scalars, "T41i_W22", range(1, n_rows + 1))
        zeros = [Eigenvalue(k=v + 1e-3 / n ** 2, index=n, multiplicity=1, residual=0.0,
                            cls="quadrant") for n, v in zip(pred.ns, pred.values)]
        zeros.append(Eigenvalue(k=1.5j, index=0, multiplicity=1, residual=0.0, cls="imaginary"))
        ref = self._residual_decay_in_two_calls(zeros, scalars, "robin", theorem)
        calls = []
        predict = asymptotics.predict_eigenvalues
        monkeypatch.setattr(asymptotics, "predict_eigenvalues",
                            lambda *args: calls.append(args[2]) or predict(*args))
        entry = audit_residual_decay(representatives_of(zeros), scalars, "robin", theorem)
        assert entry == ref and entry.status == status
        assert calls == [[5] if n_rows < 4 else list(range(1, n_rows + 1))]
        if status == "fail":
            assert entry.detail == ("hypothesis mismatch: T41ii_W22: needs omega = 0 "
                                    "and q(1) != 0")

    def test_validate_fresh_run(self, small_run):
        cfg = _cfg({"kind": "constant", "value": 1.0, "h": 0.0},
                   validate={"contours": [2]})
        report = validate_columns(cfg, small_run.header, _columns_of(small_run.records))
        by_name = {e.name: e for e in report.entries}
        assert by_name["file-integrity"].status == "pass"
        assert by_name["symmetry-closure"].status == "pass"
        assert by_name["contour-counts"].status == "pass"
        assert not report.failed

    def test_validate_mismatched_theorem(self, small_run):
        # Requesting the omega = 0 theorem for a potential with omega = 1.
        cfg = _cfg({"kind": "constant", "value": 1.0, "h": 0.0},
                   validate={"contours": [2], "theorem": "T41ii_W22"})
        report = validate_columns(cfg, small_run.header, _columns_of(small_run.records))
        by_name = {e.name: e for e in report.entries}
        assert by_name["residual-decay"].status == "fail"
        assert "mismatch" in by_name["residual-decay"].detail
        assert report.failed


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
