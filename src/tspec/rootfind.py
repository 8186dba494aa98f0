"""Zeros of analytic functions in rectangles via argument-principle winding counts.

Boxes are counted by accumulating boundary phase with adaptive bisection of
segments whose phase jump exceeds pi/2. A box holding at most four zeros
takes its zeros from the contour moments of those boundary samples (the
eigenvalues of a Hankel pencil), refined by Newton iteration with
derivatives from central complex differences; a box that fails this is
subdivided. Results are deduplicated under the k -> -k, k -> k* symmetry
group of the characteristic function.
"""

from __future__ import annotations

import contextlib
import itertools
import math
from dataclasses import dataclass, replace
from typing import Callable, List, Optional

import numpy as np

from .errors import (BoundaryTooCloseError, DomainError, IndexingConflictError,
                     IntegrationFailureError, PhaseResolutionError)

_JUMP_TOL = math.pi / 2
_MAX_BOUNDARY_POINTS = 2 ** 14
_MODULUS_FLOOR_REL = 1e-4   # local dip vs neighbors marking a boundary zero
_STUCK_SEGMENT = 1e-9       # unresolvable phase jump across a segment this short
_SPLIT_FRACTIONS = (0.47, 0.53, 0.41, 0.59)   # the midpoint comes last, unvalidated
_CLS_TOL = 1e-8             # relative distance to an axis that counts as on it
_STENCIL = np.array([0, 1, -1, 1j, -1j])[:, None]              # Newton points z + d * offset
_DERIV_WEIGHTS = np.array([0, 0.25, -0.25, -0.25j, 0.25j])    # f'(z) d from the stencil values
_STEP_REL = 1e-6            # Newton stencil step, relative to max(1, |z|)
_STALL_REL = 1e-8           # a step this small, relative, may end Newton on the noise floor
_DEDUP_TOL = 1e-6           # relative distance at which two box roots are one root
_ORIGIN_RADIUS = 0.3        # half-side of the square counted around k = 0
_SPACING = 0.2              # first boundary sample spacing of a winding count
_MIN_SIZE = 1e-7            # box side below which find_zeros reports a cluster
_MOMENT_MAX_W = 4           # largest count whose zeros find_zeros takes from contour moments
_NEWTON_PAD = 0.25          # how far, per longer box side, a box's Newton iterates may stray


@dataclass
class ContourBox:
    """A rectangle in the k-plane."""

    s0: float
    s1: float
    t0: float
    t1: float

    @property
    def width(self) -> float:
        return self.s1 - self.s0

    @property
    def height(self) -> float:
        return self.t1 - self.t0

    @property
    def center(self) -> complex:
        return complex(0.5 * (self.s0 + self.s1), 0.5 * (self.t0 + self.t1))

    def contains(self, k, pad: float = 0.0) -> bool:
        """True when k, or every point of an array k, lies in the box grown by pad."""
        k = np.asarray(k, dtype=complex)
        return bool(np.all((self.s0 - pad <= k.real) & (k.real <= self.s1 + pad)
                           & (self.t0 - pad <= k.imag) & (k.imag <= self.t1 + pad)))


@dataclass
class Eigenvalue:
    """A zero of D by its first-quadrant representative k."""

    k: complex
    index: Optional[int]
    multiplicity: int
    residual: float
    cls: str
    refined: bool = True
    branch: Optional[int] = None

    @property
    def lam(self) -> complex:
        """The transmission eigenvalue lambda = k^2."""
        return self.k * self.k


@dataclass
class ZeroSearchResult:
    zeros: List[Eigenvalue]
    raw_zeros: list
    unresolved: List[ContourBox]


def _boundary_points(box: ContourBox):
    """Counterclockwise boundary samples, at most _SPACING apart, including all four corners."""
    pts = []
    corners = [complex(box.s0, box.t0), complex(box.s1, box.t0),
               complex(box.s1, box.t1), complex(box.s0, box.t1)]
    for a, b in zip(corners, corners[1:] + corners[:1]):
        n = max(8, int(math.ceil(abs(b - a) / _SPACING)))
        seg = a + (b - a) * np.arange(n) / n
        pts.append(seg)
    return np.concatenate(pts)


def _wrapped_jumps(vals: np.ndarray) -> np.ndarray:
    ratio = np.roll(vals, -1) / vals
    return np.angle(ratio)


def winding_count(f: Callable, box: ContourBox) -> int:
    """Number of zeros of f inside the box, counted with multiplicity.

    Total boundary argument variation divided by 2*pi, sampled from a
    spacing of 0.2 (at least 8 samples per side) and bisected adaptively
    until successive-point phase jumps fall below pi/2; the result must
    round to an integer with gap < 0.25. A boundary running too close to a
    zero triggers up to three outward perturbations of the box. Raises
    BoundaryTooCloseError when the perturbations run out, and
    PhaseResolutionError when the refinement needs more than 2^14 samples.
    """
    return _winding(f, box)[0]


def _winding(f: Callable, box: ContourBox):
    """winding_count's count as (w, counted box, pts, vals): the box it was taken on
    (perturbed when the count had to move it) and its final boundary samples."""
    base = box
    exhausted = False
    for attempt in range(4):
        exhausted = False
        pts = _boundary_points(box)
        vals = np.asarray(f(pts), dtype=complex)
        ok = True
        while True:
            mods = np.abs(vals)
            if not np.all(np.isfinite(mods)) or float(mods.min(initial=math.inf)) == 0.0:
                ok = False
                break
            # A zero hugging the boundary shows as a deep dip relative to its
            # neighbors; the global dynamic range along big contours is huge
            # (e^{2|Im k|} growth), so the test must be local.
            neighbor = np.maximum(np.roll(mods, 1), np.roll(mods, -1))
            if float((mods / neighbor).min()) < _MODULUS_FLOOR_REL:
                ok = False
                break
            jumps = _wrapped_jumps(vals)
            bad = np.nonzero(np.abs(jumps) > _JUMP_TOL)[0]
            if bad.size == 0:
                break
            nxt = np.roll(pts, -1)
            # A jump that stays ~pi while its segment shrinks to nothing is a
            # zero sitting on the boundary: bisection can never resolve it.
            seg_len = np.abs(nxt[bad] - pts[bad])
            if np.any(seg_len < _STUCK_SEGMENT * (1.0 + np.abs(pts[bad]))):
                ok = False
                break
            if pts.size + bad.size > _MAX_BOUNDARY_POINTS:
                ok = False
                exhausted = True
                break
            mids = 0.5 * (pts[bad] + nxt[bad])
            new_vals = np.asarray(f(mids), dtype=complex)
            pts = np.insert(pts, bad + 1, mids)
            vals = np.insert(vals, bad + 1, new_vals)
        if ok:
            total = float(_wrapped_jumps(vals).sum()) / (2.0 * math.pi)
            w = int(round(total))
            if abs(total - w) >= 0.25:
                raise PhaseResolutionError(
                    f"winding {total:.4f} does not round cleanly on box "
                    f"[{box.s0},{box.s1}]x[{box.t0},{box.t1}]")
            return w, box, pts, vals
        delta = 1e-4 * max(base.width, base.height) * (attempt + 1)
        box = ContourBox(base.s0 - delta, base.s1 + delta, base.t0 - delta, base.t1 + delta)
    if exhausted:
        raise PhaseResolutionError(
            f"boundary refinement exceeded {_MAX_BOUNDARY_POINTS} points near "
            f"[{base.s0},{base.s1}]x[{base.t0},{base.t1}]")
    raise BoundaryTooCloseError(
        f"zero on the boundary of [{base.s0},{base.s1}]x[{base.t0},{base.t1}] "
        "after 3 perturbations")


def _line_clear(f, a: complex, b: complex) -> bool:
    """True when no zero of f sits on or hugs the segment [a, b].

    A zero on the line flips the phase by ~pi between the flanking probes no
    matter how coarse the probing is, so a phase-jump criterion is decisive
    where a modulus-only probe is blind.
    """
    n = max(9, int(math.ceil(abs(b - a) / 0.15)))
    pts = a + (b - a) * np.arange(n + 1) / n
    vals = np.asarray(f(pts), dtype=complex)
    mods = np.abs(vals)
    if not np.all(np.isfinite(mods)) or mods.min() == 0.0:
        return False
    # Even-order zeros hide from the wrapped phase (their pi-flip doubles to
    # 2 pi = 0) but dent the log-convexity of |f| along the line.
    dip = mods[1:-1] / np.sqrt(mods[:-2] * mods[2:])
    if dip.size and float(dip.min()) < 0.4:
        return False
    jumps = np.angle(vals[1:] / vals[:-1])
    return bool(np.all(np.abs(jumps) < 0.75 * math.pi))


def newton_refine_many(f: Callable, seeds, *, tol: float = 1e-12, max_iter: int = 30):
    """Vectorized Newton over many seeds; one stacked evaluation per sweep.

    The derivative is the mean of the central differences along the real and
    imaginary directions with step 1e-6 max(1, |z|). A seed converges once
    its step is below tol max(1, |z|). A seed whose step has failed to shrink
    twice while its smallest step is below 1e-8 max(1, |z|) has stalled on the
    evaluation noise floor and is accepted at the iterate of that smallest
    step. A zero derivative stops a seed unconverged where it is; so does an
    evaluation that raises DomainError or IntegrationFailureError (an iterate
    out of the Jost layer's reach), found by evaluating a failed sweep one
    seed per call. A seed still unconverged after max_iter sweeps returns the
    iterate of its smallest step. Returns (roots, converged_mask).
    """
    roots = np.array(seeds, dtype=complex).ravel()
    converged = np.zeros(roots.size, dtype=bool)
    live = np.arange(roots.size)         # where in roots the seeds still iterating go
    z, best = roots.copy(), roots.copy()
    best_step = np.full(roots.size, math.inf)
    grew = np.zeros(roots.size, dtype=int)
    scale = np.maximum(1.0, np.abs(z))
    for _ in range(max_iter):
        if live.size == 0:
            break
        d = _STEP_REL * scale
        pts = z + d * _STENCIL
        try:
            vals = np.asarray(f(pts.ravel()), dtype=complex).reshape(5, -1)
        except (DomainError, IntegrationFailureError):
            vals = np.zeros(pts.shape, dtype=complex)   # a seed that raises keeps f' = 0
            for j in range(live.size):
                with contextlib.suppress(DomainError, IntegrationFailureError):
                    vals[:, j] = f(pts[:, j])
        deriv = _DERIV_WEIGHTS @ vals / d
        dead = deriv == 0
        deriv[dead] = np.inf             # a zero step: the seed stops where it is
        dz = -vals[0] / deriv
        z = z + dz
        step = np.abs(dz)
        scale = np.maximum(1.0, np.abs(z))
        shrank = step < best_step
        best_step[shrank] = step[shrank]
        best[shrank] = z[shrank]
        grew += 1
        grew[shrank] = 0
        done = ~dead & (step < tol * scale)
        stalled = (grew >= 2) & (best_step < _STALL_REL * scale)
        stop = done | stalled | dead
        if stop.any():
            roots[live[stop]] = np.where(done, z, best)[stop]
            converged[live[stop]] = (done | stalled)[stop]
            keep = ~stop
            live, z, best, best_step, grew, scale = (
                live[keep], z[keep], best[keep], best_step[keep], grew[keep], scale[keep])
    roots[live] = best
    return roots, converged


def _split_candidates(f, box: ContourBox):
    """Candidate child partitions along jittered lines, best-validated first.

    Yields line-validated partitions per jitter fraction, then the plain
    midpoint bisection as a last resort; the caller checks winding additivity
    either way.
    """
    thin = box.width / box.height if box.height > 0 else math.inf
    mode = "both"
    if thin > 4.0:
        mode = "s"
    elif thin < 0.25:
        mode = "t"

    def children_for(sm, tm):
        if mode == "s":
            return [ContourBox(box.s0, sm, box.t0, box.t1),
                    ContourBox(sm, box.s1, box.t0, box.t1)]
        if mode == "t":
            return [ContourBox(box.s0, box.s1, box.t0, tm),
                    ContourBox(box.s0, box.s1, tm, box.t1)]
        return [ContourBox(box.s0, sm, box.t0, tm),
                ContourBox(sm, box.s1, box.t0, tm),
                ContourBox(box.s0, sm, tm, box.t1),
                ContourBox(sm, box.s1, tm, box.t1)]

    for frac in _SPLIT_FRACTIONS:
        sm = box.s0 + frac * box.width
        tm = box.t0 + frac * box.height
        clear = True
        if mode in ("s", "both"):
            clear &= _line_clear(f, complex(sm, box.t0), complex(sm, box.t1))
        if clear and mode in ("t", "both"):
            clear &= _line_clear(f, complex(box.s0, tm), complex(box.s1, tm))
        if clear:
            yield children_for(sm, tm)
    yield children_for(box.s0 + 0.5 * box.width, box.t0 + 0.5 * box.height)


def _subdivide(f, box: ContourBox, w_parent: int):
    """Children with windings, accepted only when they sum to the parent.

    A mismatch means a zero straddles a shared edge (counted half on each
    side, or half-pairs rounding to integers); the next jitter fraction moves
    the line off it. Returns None if no candidate partition balances.
    """
    for children in _split_candidates(f, box):
        try:
            counts = [_winding(f, c) for c in children]
        except (PhaseResolutionError, BoundaryTooCloseError):
            continue
        if sum(count[0] for count in counts) == w_parent:
            return list(zip(children, counts))
    return None


def _pencil_seeds(w: int, box: ContourBox, pts: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """Estimates of the w zeros inside a counted box from its boundary samples.

    The moments s_p = (1/2 pi i) sum_i zeta_i^p dlog_i, p < 2w, approximate
    the power sums of the zeros in zeta = (z - c)/r (c the box centre, r its
    half-size): zeta_i is the midpoint of boundary segment i and dlog_i =
    log(v_i+1 / v_i) the change of log f along it, whose imaginary part is
    the wrapped phase jump the count summed. The zeros are the eigenvalues
    of the Hankel pencil (H1, H0), H0 = [s_i+j], H1 = [s_i+j+1]; for w = 1
    that is s_1 / s_0. Raises numpy.linalg.LinAlgError on a singular H0.
    """
    c = box.center
    r = 0.5 * max(box.width, box.height)
    dlog = np.log(np.roll(vals, -1) / vals)
    zeta = (0.5 * (pts + np.roll(pts, -1)) - c) / r
    s = zeta ** np.arange(2 * w)[:, None] @ dlog / (2j * math.pi)
    hankel = np.add.outer(np.arange(w), np.arange(w))
    return c + r * np.linalg.eigvals(np.linalg.solve(s[hankel], s[hankel + 1]))


def _moment_zeros(rf: Callable, w: int, box: ContourBox, pts, vals) -> Optional[list]:
    """The w zeros inside `box`, the box a count of w was taken on, or None.

    The pencil seeds go to one Newton call on rf, whose iterates may not
    leave the box grown by _NEWTON_PAD of its longer side: an evaluation out
    there raises DomainError, which stops that seed, so a seed already out
    there fails the box before Newton runs. The zeros stand only if every
    seed converges inside the box and no two roots are one root.
    """
    try:
        seeds = _pencil_seeds(w, box, pts, vals)
    except np.linalg.LinAlgError:      # also a non-finite pencil
        return None
    pad = _NEWTON_PAD * max(box.width, box.height)
    if not box.contains(seeds, pad):
        return None

    def bounded(ks):
        if not box.contains(ks, pad):
            raise DomainError("Newton iterate left its box")
        return rf(ks)

    roots, converged = newton_refine_many(bounded, seeds, max_iter=50)
    if not (converged.all() and box.contains(roots)):
        return None
    zs = [complex(z) for z in roots]
    if any(abs(a - b) <= _DEDUP_TOL * max(1.0, abs(a)) for a, b in itertools.combinations(zs, 2)):
        return None
    return zs


def orbit(ks) -> np.ndarray:
    """The symmetry images k, -k, k*, -k* of each k, stacked along a new last axis.

    D is even and real on the real axis, so its zeros are closed under this
    group; a scalar k gives an array of 4, an array of n gives n x 4.
    """
    ks = np.asarray(ks, dtype=complex)
    return np.stack([ks, -ks, ks.conj(), -ks.conj()], axis=-1)


def representative(k: complex) -> complex:
    """The first-quadrant image (|Re k|, |Im k|) of k under the symmetry group."""
    return complex(abs(k.real), abs(k.imag))


def _classify(k: complex) -> str:
    tol = _CLS_TOL * (1.0 + abs(k))
    if abs(k.imag) < tol:
        return "real"
    if abs(k.real) < tol:
        return "imaginary"
    return "quadrant"


def find_zeros(f: Callable, region, max_depth: int = 14, *, refine_f: Optional[Callable] = None,
               symmetry: bool = True) -> ZeroSearchResult:
    """All zeros of f in region = (s0, s1, t0, t1), with multiplicities.

    A box whose winding count w is 1..4 takes w Newton-refined simple zeros
    from the contour moments of its count's boundary samples, when every
    seed converges inside the box and no two coincide. Other boxes are
    bisected (children must reproduce the parent winding) until that holds
    or the longer side drops below 1e-7 (then a multiplicity-w cluster is
    reported, unrefined). A child that keeps its parent's count w >= 2 holds
    the zeros whose moments just failed and is bisected without trying them.
    Boxes still unresolved at max_depth land in the unresolved list. Roots of
    different boxes within 1e-6 relative of each other merge into one
    unrefined entry with the sum of their multiplicities: sibling counts add
    up to their parent's, so no count is lost. refine_f, when given, is a
    higher-accuracy evaluator used for Newton polish and residuals. With
    symmetry=True results are deduplicated under k -> -k, k -> k* into
    first-quadrant representatives (the symmetry group of the characteristic
    function); pass False for functions without it.
    """
    s0, s1, t0, t1 = (float(v) for v in region)
    if not (s1 > s0 and t1 > t0):
        raise DomainError("region must have positive width and height")
    rf = refine_f or f
    root = ContourBox(s0, s1, t0, t1)
    raw = []
    unresolved: List[ContourBox] = []
    stack = [(root, 0, _winding(f, root), 0)]
    while stack:
        box, depth, (w, counted, pts, vals), w_parent = stack.pop()
        if w == 0:
            continue
        # A box that kept its parent's count of several zeros holds the zeros
        # whose moments already failed (a cluster, as a rule): it splits on.
        if w <= _MOMENT_MAX_W and (w == 1 or w != w_parent):
            zs = _moment_zeros(rf, w, counted, pts, vals)
            if zs is not None:
                raw.extend((z, 1, True) for z in zs)
                continue
        if max(box.width, box.height) < _MIN_SIZE:
            raw.append((box.center, w, False))
            continue
        if depth >= max_depth:
            unresolved.append(box)
            continue
        children = _subdivide(f, box, w)
        if children is None:
            unresolved.append(box)
            continue
        stack.extend((child, depth + 1, count, w) for child, count in children if count[0] > 0)

    # Merge coinciding roots of different boxes, keeping every box's count.
    deduped = []
    for z, mult, refined in sorted(raw, key=lambda r: (r[0].real, r[0].imag)):
        for j, (z2, m2, r2) in enumerate(deduped):
            if abs(z - z2) < _DEDUP_TOL * max(1.0, abs(z)):
                deduped[j] = (z if refined and not r2 else z2, m2 + mult, False)
                break
        else:
            deduped.append((z, mult, refined))

    # Group into orbits of the symmetry group k -> -k, k -> k*.
    orbits: List[dict] = []
    for z, mult, refined in deduped:
        rep = representative(z) if symmetry else z
        for orb in orbits:
            if symmetry and abs(rep - orb["rep"]) < 10 * _DEDUP_TOL * max(1.0, abs(rep)):
                orb["refined"] &= refined
                break
        else:
            orbits.append({"rep": rep, "mult": mult, "refined": refined})

    reps = [orb["rep"] for orb in orbits]
    residuals = np.abs(np.asarray(rf(np.array(reps)), dtype=complex)) if reps else []
    zeros = [Eigenvalue(k=rep, index=None, multiplicity=orb["mult"], residual=float(res),
                        cls=_classify(rep), refined=orb["refined"])
             for orb, rep, res in zip(orbits, reps, residuals)]
    zeros.sort(key=lambda e: (abs(e.k), e.k.real))
    return ZeroSearchResult(zeros=zeros, raw_zeros=deduped, unresolved=unresolved)


def gamma_contour_count(d_evaluator: Callable, n: int) -> int:
    """Zeros of k*D(k) inside the square contour with half-side (n+1)*pi.

    The k factor contributes the origin zero the counting theorem includes.
    """
    half = (n + 1) * math.pi
    box = ContourBox(-half, half, -half, half)

    def kd(ks):
        arr = np.asarray(ks, dtype=complex)
        return arr * np.asarray(d_evaluator(arr), dtype=complex)

    return winding_count(kd, box)


def origin_multiplicity(d_evaluator: Callable) -> int:
    """Multiplicity s of the zero eigenvalue: half the winding of D around the origin."""
    box = ContourBox(-_ORIGIN_RADIUS, _ORIGIN_RADIUS, -_ORIGIN_RADIUS, _ORIGIN_RADIUS)
    w = winding_count(d_evaluator, box)
    if w % 2:
        raise PhaseResolutionError(f"odd origin winding {w} for an even function")
    return w // 2


def _match_targets(zeros, targets, spacing, n_min):
    """Nearest-target index assignment with deficit filling for small zeros.

    targets: list of (n, value, branch). Raises IndexingConflictError when two
    zeros contend for one target or leftovers exceed the index deficit.
    """
    radius = 0.45 * spacing
    assigned: dict = {}
    leftovers = []
    for ev in zeros:
        best = None
        for n, val, branch in targets:
            dist = abs(ev.k - val)
            if best is None or dist < best[0]:
                best = (dist, n, branch)
        if best is not None and best[0] < radius:
            key = (best[1], best[2])
            if key in assigned:
                raise IndexingConflictError(
                    f"zeros {assigned[key].k} and {ev.k} both match index {best[1]}")
            assigned[key] = ev
        else:
            leftovers.append(ev)
    matched_ns = sorted({n for (n, _b) in assigned})
    deficit = []
    probe = n_min
    bound = max(matched_ns) if matched_ns else n_min + len(leftovers)
    while probe <= bound and len(deficit) < len(leftovers):
        if probe not in matched_ns:
            deficit.append(probe)
        probe += 1
    if len(leftovers) > len(deficit):
        raise IndexingConflictError(
            f"{len(leftovers)} unmatched zeros but only {len(deficit)} free indices "
            f">= {n_min}; zeros at {[l.k for l in leftovers]}")
    out = []
    for (n, branch), ev in assigned.items():
        out.append(replace(ev, index=n, branch=branch))
    for slot, ev in zip(deficit, sorted(leftovers, key=lambda e: abs(e.k))):
        out.append(replace(ev, index=slot))
    out.sort(key=lambda e: (e.index, abs(e.k)))
    return out


def index_eigenvalues(zeros, scalars, variant: str = "robin"):
    """Assign the theorem numbering to computed zeros by nearest-mu matching.

    The target sequence depends on the sign case of q(1)/omega (with the
    Dirichlet sign flip), the omega = 0 branches, and the q(1) = 0 variants.
    Unmatched small zeros fill the count deficit in ascending |k|.
    """
    from . import asymptotics as asy

    if not zeros:
        return []
    k_max = max(abs(e.k) for e in zeros) + math.pi
    targets, spacing, n_min = asy.index_targets(scalars, variant, k_max)
    return _match_targets(zeros, targets, spacing, n_min)
