import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tspec import Potential, derive_scalars
from tspec import rootfind
from tspec.charfun import DEvaluator
from tspec.errors import (BoundaryTooCloseError, DomainError, IndexingConflictError,
                          PhaseResolutionError)
from tspec.potential import PotentialScalars
from tspec.rootfind import (ContourBox, Eigenvalue, find_zeros, gamma_contour_count,
                            index_eigenvalues, newton_refine_many, orbit, origin_multiplicity,
                            representative, winding_count)


def poly_with_roots(roots):
    roots = np.asarray(roots, dtype=complex)

    def f(k):
        k = np.asarray(k, dtype=complex)
        out = np.ones_like(k)
        for r in roots:
            out = out * (k - r)
        return out

    return f


def _spy(monkeypatch, name):
    """Count the calls find_zeros makes to the rootfind function `name`."""
    calls = []
    real = getattr(rootfind, name)

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(rootfind, name, spy)
    return calls


class TestSymmetryGroup:
    def test_orbit_order_and_shape(self):
        assert orbit(2 + 1j).tolist() == [2 + 1j, -2 - 1j, 2 - 1j, -2 + 1j]
        ks = np.array([2 + 1j, -3.0 + 0.5j, 0.25j])
        images = orbit(ks)
        assert images.shape == (3, 4)
        assert np.array_equal(images[1], orbit(ks[1]))

    def test_representative_folds_every_image(self):
        for image in orbit(-3.0 + 0.5j):
            assert representative(image) == 3.0 + 0.5j


class TestWindingCount:
    def test_single_simple_zero(self):
        f = lambda k: np.asarray(k, complex) ** 2 - 1.0
        assert winding_count(f, ContourBox(0.5, 1.5, -0.5, 0.5)) == 1

    def test_double_zero(self):
        f = lambda k: (np.asarray(k, complex) ** 2 - 1.0) ** 2
        assert winding_count(f, ContourBox(0.5, 1.5, -0.5, 0.5)) == 2

    def test_empty_box(self):
        f = lambda k: np.asarray(k, complex) ** 2 - 1.0
        assert winding_count(f, ContourBox(2.0, 3.0, 1.0, 2.0)) == 0

    @pytest.mark.parametrize("double, inside", [(1.0045 + 0.37j, 1), (0.996 + 0.37j, 3)],
                             ids=["outside", "inside"])
    def test_double_zero_beside_a_side(self, double, inside):
        # A double zero 0.0045 outside or 0.004 inside the side s = 1 turns the
        # phase by nearly -2 pi or 2 pi between two samples 0.2 apart; both
        # wrap to nearly 0, so the phase test alone counted 2 either way.
        f = lambda k: (np.asarray(k, complex) - 0.3 - 0.2j) * (np.asarray(k, complex) - double) ** 2
        assert winding_count(f, ContourBox(-1.0, 1.0, -1.0, 1.0)) == inside

    def test_gamma_contour_q_one(self, q_one):
        # Counting theorem, ratio-positive case: 4n+5 zeros of kD inside.
        dev = DEvaluator(q_one, "robin", rtol=1e-9)
        assert gamma_contour_count(dev, 2) == 13

    def test_additivity_random_boxes(self, rng):
        # Parent winding equals the sum over a 2x2 split, 20 random boxes.
        for trial in range(20):
            roots = rng.uniform(-2, 2, 5) + 1j * rng.uniform(-2, 2, 5)
            f = poly_with_roots(roots)
            cx, cy = rng.uniform(-1, 1, 2)
            w, h = rng.uniform(0.8, 2.5, 2)
            box = ContourBox(cx - w, cx + w, cy - h, cy + h)
            try:
                parent = winding_count(f, box)
            except PhaseResolutionError:
                continue
            sm, tm = cx, cy
            children = [ContourBox(box.s0, sm, box.t0, tm), ContourBox(sm, box.s1, box.t0, tm),
                        ContourBox(box.s0, sm, tm, box.t1), ContourBox(sm, box.s1, tm, box.t1)]
            total = sum(winding_count(f, c) for c in children)
            assert total == parent

    _D_LINEAR = DEvaluator(Potential.polynomial([1.0, 1.0], h=0.3), "robin", rtol=1e-9)

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(re=st.lists(st.floats(-15.0, 15.0), min_size=2, max_size=2, unique=True),
           im=st.lists(st.floats(0.0, 3.0), min_size=2, max_size=2, unique=True),
           frac=st.floats(0.05, 0.95), vertical=st.booleans())
    def test_additivity_of_d_counts(self, re, im, frac, vertical):
        # D for q = 1 + x: a box's count is the sum of its two halves' counts.
        (s0, s1), (t0, t1) = sorted(re), sorted(im)
        assume(s1 - s0 >= 0.1 and t1 - t0 >= 0.1)
        box = ContourBox(s0, s1, t0, t1)
        if vertical:
            cut = s0 + frac * (s1 - s0)
            halves = [ContourBox(s0, cut, t0, t1), ContourBox(cut, s1, t0, t1)]
        else:
            cut = t0 + frac * (t1 - t0)
            halves = [ContourBox(s0, s1, t0, cut), ContourBox(s0, s1, cut, t1)]

        def count(b):
            # A count that perturbed its box outward counted another box.
            seen = []
            try:
                w = winding_count(lambda ks: seen.append(ks) or self._D_LINEAR(ks), b)
            except (BoundaryTooCloseError, PhaseResolutionError):
                assume(False)
            ks = np.concatenate(seen)
            pad = 1e-6 * max(b.width, b.height)     # perturbations move by 1e-4 of this
            assume(ks.real.min() >= b.s0 - pad and ks.real.max() <= b.s1 + pad
                   and ks.imag.min() >= b.t0 - pad and ks.imag.max() <= b.t1 + pad)
            return w

        assert count(box) == sum(count(h) for h in halves)

    def test_boundary_zero_perturbation(self):
        # A zero exactly on the requested boundary is absorbed by perturbing.
        f = poly_with_roots([1.0 + 0.0j, -2.0 + 0.5j])
        w = winding_count(f, ContourBox(0.0, 1.0, -0.5, 0.5))
        assert w in (0, 1)  # lands on one side after perturbation

    def test_zero_everywhere_exhausts_perturbations(self):
        f = lambda k: np.zeros(np.shape(k), dtype=complex)
        with pytest.raises(BoundaryTooCloseError):
            winding_count(f, ContourBox(-1.0, 1.0, -1.0, 1.0))

    def test_refinement_past_point_cap(self, monkeypatch):
        # z^20 needs more than 64 boundary samples to keep phase jumps below pi/2.
        f = lambda k: np.asarray(k, complex) ** 20
        box = ContourBox(-1.0, 1.0, -1.0, 1.0)
        assert winding_count(f, box) == 20
        monkeypatch.setattr(rootfind, "_MAX_BOUNDARY_POINTS", 64)
        with pytest.raises(PhaseResolutionError, match="exceeded 64 points"):
            winding_count(f, box)


class TestNewton:
    def test_quadratic_convergence_near_simple_roots(self, rng):
        # From any seed within 0.1 of a simple root, <= 25 iterations.
        roots = np.array([1.0 + 0.5j, -0.8 + 1.2j, 2.5 - 1.0j, -1.5 - 2.0j, 0.3 + 2.2j])
        f = poly_with_roots(roots)
        for r in roots:
            for _ in range(4):
                seed = r + 0.1 * np.exp(2j * math.pi * rng.uniform())
                z, converged = newton_refine_many(f, [seed], max_iter=25)
                assert converged[0]
                assert abs(z[0] - r) < 1e-10

    def test_stall_on_noise_floor_accepts_best_iterate(self):
        # A noise term of 1-2e-11, alternating in sign from one sweep to the
        # next, keeps every late step near 1e-11, far above tol, so only the
        # stall rule can accept the seed.
        root = complex(1.09868411346781, 0.45508986056222)
        sweeps = []

        def noisy(k):
            i = len(sweeps)
            sweeps.append(i)
            k = np.asarray(k, complex)
            return k ** 2 - (1 + 1j) + 1e-11 * (-1) ** i * (1 + (i % 3) / 2)

        z, converged = newton_refine_many(noisy, [root + 0.1], max_iter=50)
        assert converged[0]
        assert abs(z[0] - root) < 1e-8

    def test_batch_matches_single_seed_calls(self, rng):
        roots = np.array([1.0 + 0.5j, -0.8 + 1.2j, 2.5 - 1.0j, -1.5 - 2.0j, 0.3 + 2.2j])
        f = poly_with_roots(roots)
        seeds = rng.uniform(-2.5, 2.5, 8) + 1j * rng.uniform(-2.5, 2.5, 8)
        batch, batch_conv = newton_refine_many(f, seeds)
        for seed, z, conv in zip(seeds, batch, batch_conv):
            single, single_conv = newton_refine_many(f, [seed])
            assert single[0] == z and single_conv[0] == conv

    def test_zero_derivative_stops_unmoved(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            z, converged = newton_refine_many(lambda k: np.full(np.shape(k), 2.0 + 0j),
                                              [0.3 + 0.4j])
        assert not converged[0]
        assert z[0] == 0.3 + 0.4j


    def test_evaluation_failure_stops_only_the_failing_seed(self):
        # Newton on (k - 1/2) e^k sends the seed -0.6 to about -11.6 in one
        # sweep, where f raises; that seed stops there unconverged, and the
        # two seeds still iterating in the same batch go on to the root.
        def f(k):
            k = np.asarray(k, complex)
            if np.any(np.abs(k) > 10.0):
                raise DomainError("out of reach")
            return (k - 0.5) * np.exp(k)

        z, converged = newton_refine_many(f, [3.0, -0.6, 1.5 + 0.5j])
        assert converged.tolist() == [True, False, True]
        assert abs(z[0] - 0.5) < 1e-12 and abs(z[2] - 0.5) < 1e-12
        assert abs(z[1] + 11.6) < 1e-6


class TestFindZeros:
    def test_two_square_roots_of_1_plus_i(self):
        f = lambda k: np.asarray(k, complex) ** 2 - (1 + 1j)
        res = find_zeros(f, (-2.0, 2.0, -2.0, 2.0))
        expect = complex(1.09868411346781, 0.45508986056222)
        assert len(res.zeros) == 1  # one orbit under k -> -k
        assert len(res.raw_zeros) == 2
        ev = res.zeros[0]
        assert ev.multiplicity == 1
        assert abs(ev.k - expect) < 1e-9
        assert min(abs(r[0] - expect) for r in res.raw_zeros) < 1e-9
        assert min(abs(r[0] + expect) for r in res.raw_zeros) < 1e-9

    def test_multiplicity_cluster(self, monkeypatch):
        # The two pencil seeds of a double zero converge to one root, so the
        # box splits down to the cluster size.
        splits = _spy(monkeypatch, "_split")
        f = lambda k: (np.asarray(k, complex) - (0.4 + 0.3j)) ** 2
        res = find_zeros(f, (-1.0, 1.0, -1.0, 1.0), max_depth=40, symmetry=False)
        assert splits
        assert len(res.zeros) == 1
        ev = res.zeros[0]
        assert ev.multiplicity == 2 and not ev.refined
        assert abs(ev.k - (0.4 + 0.3j)) < 1e-4

    def test_cluster_below_min_size(self, monkeypatch):
        # A box that shrinks below the cluster size reports its whole count.
        monkeypatch.setattr(rootfind, "_MIN_SIZE", 1e-3)
        f = lambda k: (np.asarray(k, complex) - (0.4 + 0.3j)) ** 2
        res = find_zeros(f, (-1.0, 1.0, -1.0, 1.0), max_depth=40, symmetry=False)
        assert [(ev.multiplicity, ev.refined) for ev in res.zeros] == [(2, False)]
        assert abs(res.zeros[0].k - (0.4 + 0.3j)) < 1e-3

    def test_residual_against_local_scale(self, rng):
        roots = np.array([0.9 + 0.7j, -1.2 + 1.5j, 1.8 - 0.9j])
        f = poly_with_roots(roots)
        res = find_zeros(f, (-2.5, 2.5, -2.0, 2.0), symmetry=False)
        assert len(res.raw_zeros) == 3
        reps = [ev.k for ev in res.zeros]
        for ev, root in zip(sorted(res.zeros, key=lambda e: e.k.real),
                            sorted(roots, key=lambda r: r.real)):
            assert abs(ev.k - root) < 1e-9
            # |f| scale near the root: the maximum over 8 points on a circle of
            # radius half the smaller of 1 and the distance to the nearest other root.
            radius = 0.5 * min(1.0, min(abs(ev.k - r) for r in reps if r != ev.k))
            circle = ev.k + radius * np.exp(2j * math.pi * np.arange(8) / 8)
            assert ev.residual < 1e-9 * np.max(np.abs(f(circle)))

    def test_symmetry_closure_on_symmetric_region(self, q_one):
        # Zeros of D come in full orbits when the region is symmetric.
        dev = DEvaluator(q_one, "robin", rtol=1e-9)
        devf = dev.with_tolerance(1e-12)
        res = find_zeros(dev, (-7.0, 7.0, -2.2, 2.2), refine_f=devf)
        raw = [r[0] for r in res.raw_zeros]
        assert len(raw) >= 8  # orbits of k_0 and k_1 at least
        for z in raw:
            for image in (-z, np.conj(z), -np.conj(z)):
                assert min(abs(image - w) for w in raw) < 1e-9 * (1 + abs(z))

    def test_residuals_in_one_call(self):
        # The residuals of all representatives come from one stacked call.
        roots = np.array([0.9 + 0.7j, -1.2 + 1.5j, 1.8 - 0.9j])
        poly = poly_with_roots(roots)
        calls = []

        def rf(ks):
            calls.append(np.array(ks, dtype=complex))
            return poly(ks)

        res = find_zeros(poly, (-2.5, 2.5, -2.0, 2.0), refine_f=rf, symmetry=False)
        reps = {ev.k for ev in res.zeros}
        assert len(reps) == 3
        # Newton's last sweep may evaluate at the converged roots themselves,
        # so the residual call is the one made of the representatives alone.
        carrying = [c for c in calls if sorted(c.tolist(), key=abs) == sorted(reps, key=abs)]
        assert len(carrying) == 1

    def test_unresolved_cluster_reported(self):
        f = lambda k: (np.asarray(k, complex) - (0.4 + 0.3j)) ** 2
        res = find_zeros(f, (-1.0, 1.0, -1.0, 1.0), max_depth=3, symmetry=False)
        assert res.unresolved
        assert res.zeros == []


class TestSplit:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(re=st.lists(st.floats(-0.8, 0.8), min_size=1, max_size=8),
           im=st.lists(st.floats(-0.8, 0.8), min_size=8, max_size=8),
           extra=st.sampled_from(["none", "double", "pair"]), gap=st.floats(1e-6, 1e-2))
    def test_children_count_their_own_zeros(self, re, im, extra, gap):
        # One split of [-1, 1]^2: each child counts the zeros inside it, so
        # the children's counts add up to the box's, with a double zero or a
        # close pair among them.
        roots = [complex(x, y) for x, y in zip(re, im)]
        roots += {"none": [], "double": roots[:1], "pair": [roots[0] + gap * (1 + 1j)]}[extra]
        f = poly_with_roots(roots)
        w, box, ring = rootfind._winding(f, ContourBox(-1.0, 1.0, -1.0, 1.0))
        assert w == len(roots)
        children = rootfind._split(f, box, ring)
        assume(children is not None)
        assert sum(count for _child, count, _ring in children) == w
        for child, count, _ring in children:
            assert count == sum(child.contains(r) for r in roots)

    def test_double_zero_beside_a_line_stays_on_its_side(self):
        # 0.004 west of the first vertical line (s = -0.06), (k - z)^2 turns
        # the phase by nearly 2 pi between two line samples, which wraps to
        # nearly 0: the phase jumps alone count it 1 + 1 across the line.
        z = complex(-0.064, 0.37)
        f = lambda k: (np.asarray(k, complex) - z) ** 2
        w, box, ring = rootfind._winding(f, ContourBox(-1.0, 1.0, -1.0, 1.0))
        counts = [(child.contains(z), count) for child, count, _ring in rootfind._split(f, box, ring)]
        assert sorted(counts) == [(False, 0)] * 3 + [(True, 2)]

    def test_split_lines_are_sampled_once(self, monkeypatch):
        # Twelve zeros: lines sampled once and shared by the children take
        # the search to under half the 850 points of counting every child's
        # whole boundary. Only the samples of counts and split lines are
        # counted, not Newton's first stage on f.
        rng = np.random.default_rng(0)
        roots = rng.uniform(-1, 1, 12) + 1j * rng.uniform(-1, 1, 12)
        f, points, in_newton = poly_with_roots(roots), [], []
        newton = rootfind.newton_refine_many

        def flagged(*args, **kwargs):
            in_newton.append(True)
            try:
                return newton(*args, **kwargs)
            finally:
                in_newton.pop()

        def counted(ks):
            if not in_newton:
                points.append(np.size(ks))
            return f(ks)

        monkeypatch.setattr(rootfind, "newton_refine_many", flagged)
        res = find_zeros(counted, (-1.1, 1.1, -1.1, 1.1), refine_f=poly_with_roots(roots),
                         symmetry=False)
        assert sum(points) <= 425
        assert [(ev.multiplicity, ev.refined) for ev in res.zeros] == [(1, True)] * 12
        for root in roots:
            assert min(abs(ev.k - root) for ev in res.zeros) < 1e-12


class TestMomentZeros:
    BOX = (-1.0, 1.0, -1.0, 1.0)
    ROOTS = [0.45 + 0.3j, -0.4 + 0.55j, -0.25 - 0.5j, 0.6 - 0.45j]

    @pytest.mark.parametrize("w", [1, 2, 3, 4])
    def test_simple_zeros_from_one_newton_call(self, monkeypatch, w):
        newton = _spy(monkeypatch, "newton_refine_many")
        splits = _spy(monkeypatch, "_split")
        res = find_zeros(poly_with_roots(self.ROOTS[:w]), self.BOX, symmetry=False)
        assert len(newton) == 1 and splits == []
        assert res.unresolved == []
        assert [(ev.multiplicity, ev.refined) for ev in res.zeros] == [(1, True)] * w
        for root in self.ROOTS[:w]:
            assert min(abs(ev.k - root) for ev in res.zeros) < 1e-12

    def test_root_outside_the_box_splits(self, monkeypatch):
        # Newton on refine_f converges to 1.2 + 0.2i: within the old pad of a
        # quarter side, but not inside the counted box.
        splits = _spy(monkeypatch, "_split")
        res = find_zeros(poly_with_roots([0.3 + 0.2j]), self.BOX, max_depth=1,
                         refine_f=poly_with_roots([1.2 + 0.2j]), symmetry=False)
        assert len(splits) == 1
        assert res.zeros == [] and len(res.unresolved) == 1

    def test_newton_never_evaluates_outside_the_padded_box(self):
        # Newton on refine_f heads for its zero at 5; the first step out of
        # the box grown by a quarter of its side stops the seed unevaluated.
        seen = []
        far = poly_with_roots([5.0])

        def rf(ks):
            seen.append(np.array(ks, dtype=complex))
            return far(ks)

        res = find_zeros(poly_with_roots([0.3 + 0.2j]), self.BOX, max_depth=0, refine_f=rf,
                         symmetry=False)
        assert res.zeros == [] and len(res.unresolved) == 1
        pts = np.concatenate(seen)
        assert pts.size and np.all(np.abs(pts.real) <= 1.5) and np.all(np.abs(pts.imag) <= 1.5)

    def test_cluster_tries_the_moments_once(self, monkeypatch):
        # The children that keep the double zero's count of 2 split on without
        # trying its moments again, down to the cluster size. (Near 1e-7 a
        # split line can pass within rounding of the zero and count it 1 + 1;
        # those boxes hold a new count and try theirs.)
        moments = _spy(monkeypatch, "_moment_zeros")
        splits = _spy(monkeypatch, "_split")
        f = lambda k: (np.asarray(k, complex) - (0.4 + 0.3j)) ** 2
        res = find_zeros(f, self.BOX, max_depth=40, symmetry=False)
        assert [w for _f, _rf, w, *_ in moments].count(2) == 1 and len(splits) > 10
        assert [(ev.multiplicity, ev.refined) for ev in res.zeros] == [(2, False)]

    def test_seed_outside_the_padded_box_skips_newton(self, monkeypatch):
        # Newton would stop such a seed at its first evaluation, so the box
        # fails without the call.
        monkeypatch.setattr(rootfind, "_pencil_seeds", lambda w, box, pts, vals: np.array([3.0]))
        newton = _spy(monkeypatch, "newton_refine_many")
        res = find_zeros(poly_with_roots([0.3 + 0.2j]), self.BOX, max_depth=0, symmetry=False)
        assert newton == []
        assert res.zeros == [] and len(res.unresolved) == 1

    def test_moments_on_the_perturbed_box(self, monkeypatch):
        # A zero a hair beyond the region's right edge makes the count move
        # the box outward; the zero is resolved on that box, without a split.
        zero = complex(1.0 + 1e-12, 0.3)
        counts = _spy(monkeypatch, "_winding")
        newton = _spy(monkeypatch, "newton_refine_many")
        splits = _spy(monkeypatch, "_split")
        f = poly_with_roots([zero])
        res = find_zeros(f, self.BOX, symmetry=False)
        assert len(counts) == 1 and len(newton) == 1 and splits == []
        assert rootfind._winding(f, ContourBox(*self.BOX))[1].s1 > 1.0
        assert [(ev.multiplicity, ev.refined) for ev in res.zeros] == [(1, True)]
        assert abs(res.zeros[0].k - zero) < 1e-12


class TestOriginMultiplicity:
    def test_no_zero_at_origin(self, q_one):
        dev = DEvaluator(q_one, "robin", rtol=1e-10)
        assert origin_multiplicity(dev) == 0

    def test_synthetic_double_origin(self):
        f = lambda k: np.asarray(k, complex) ** 2 * (1 - np.asarray(k, complex) ** 2 / 9.0)
        assert origin_multiplicity(f) == 1


def _ev(k, index=None, mult=1, cls="quadrant"):
    k = complex(k)
    return Eigenvalue(k=k, index=index, multiplicity=mult, residual=0.0, cls=cls)


class TestIndexing:
    def test_identity_on_synthetic_targets(self, q_one):
        # Zeros placed exactly at mu_n index as n (matcher fixed point).
        from tspec.asymptotics import leading_zeros

        s = derive_scalars(q_one)
        lz = leading_zeros(s, 6, include_small=True)
        zeros = [_ev(mu) for mu in lz.mu_n]
        indexed = index_eigenvalues(zeros, s, "robin")
        assert [e.index for e in indexed] == list(lz.ns)

    def test_omega_zero_indexing(self):
        s = PotentialScalars(omega=0.0, q_at_1=0.5, dq_at_1=1.0, q_at_0=-0.5,
                             dq_at_0=1.0, q_sq_integral=1.0 / 12.0, m_order=(0, 0.5), h=0.0)
        zeros = [_ev(n * math.pi / 2.0 - 0.02 / n, cls="real") for n in (5, 6, 7, 9)]
        indexed = index_eigenvalues(zeros, s, "robin")
        assert [e.index for e in indexed] == [5, 6, 7, 9]

    def test_conflict_detection(self, q_one):
        from tspec.asymptotics import leading_zeros

        s = derive_scalars(q_one)
        lz = leading_zeros(s, 4)
        mu2 = lz.mu_n[1]
        zeros = [_ev(mu2 + 0.01), _ev(mu2 - 0.01)]
        with pytest.raises(IndexingConflictError):
            index_eigenvalues(zeros, s, "robin")

    def test_deficit_filling(self, q_one):
        # A small zero matching no formula target takes the free low index.
        from tspec.asymptotics import leading_zeros

        s = derive_scalars(q_one)
        lz = leading_zeros(s, 3, include_small=True)
        mu_by_n = dict(zip(lz.ns, lz.mu_n))
        zeros = [_ev(2.19 + 1.07j), _ev(mu_by_n[1]), _ev(mu_by_n[2])]
        indexed = index_eigenvalues(zeros, s, "robin")
        by_index = {e.index: e for e in indexed}
        assert set(by_index) == {0, 1, 2}
        assert abs(by_index[0].k - (2.19 + 1.07j)) < 1e-9
