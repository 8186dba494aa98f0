"""Zeros of analytic functions in rectangles via argument-principle winding counts.

Boxes are counted by accumulating boundary phase with adaptive bisection of
segments whose phase jump exceeds pi/2. A box holding at most four zeros
takes its zeros from the contour moments of those boundary samples (the
eigenvalues of a Hankel pencil), refined by Newton iteration with
derivatives from forward differences; a box that fails this is
split along lines sampled once and shared by the children, so their counts
add up to the box's. Results are deduplicated under the k -> -k, k -> k*
symmetry group of the characteristic function.
"""

from __future__ import annotations

import contextlib
import itertools
import math
from dataclasses import dataclass
from typing import Callable, List, Optional

import numpy as np

from .errors import (BoundaryTooCloseError, DomainError, IntegrationFailureError,
                     PhaseResolutionError)

_JUMP_TOL = math.pi / 2
_MAX_BOUNDARY_POINTS = 2 ** 14
_MODULUS_FLOOR_REL = 1e-4   # |f| ratio along one segment that marks a zero touching it
_STUCK_SEGMENT = 1e-9       # unresolvable phase jump across a segment this short
_SPLIT_FRACTIONS = (0.47, 0.53, 0.41, 0.59)   # where a split's lines cross, in turn
_CLS_TOL = 1e-8             # relative distance to an axis that counts as on it
_STENCIL = np.array([0, 1])[:, None]    # Newton points z + d * offset: f' d = f(z + d) - f(z)
_STEP_REL = 1e-7            # Newton stencil step, relative to max(1, |z|)
_STALL_REL = 1e-8           # a step this small, relative, may end Newton on the noise floor
_DEDUP_TOL = 1e-6           # relative distance at which two box roots are one root
_ORIGIN_RADIUS = 0.3        # half-side of the square counted around k = 0
_SPACING = 0.2              # first boundary sample spacing of a winding count
_MIN_SIZE = 1e-7            # box side below which find_zeros reports a cluster
_MOMENT_MAX_W = 4           # largest count whose zeros find_zeros takes from contour moments
_NEWTON_PAD = 0.25          # how far, per longer box side, a box's Newton iterates may stray
_COARSE_STEP = 1e-3         # Newton step in k, per unit of seed gap, that ends the counting stage
_COARSE_TOL = 1e-7          # relative Newton step that ends it whatever the gap
_POLISH_SWEEPS = 6          # most Newton sweeps on refine_f


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


_ORIGIN_BOX = ContourBox(-_ORIGIN_RADIUS, _ORIGIN_RADIUS, -_ORIGIN_RADIUS, _ORIGIN_RADIUS)


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


def _samples(a: complex, b: complex, n_min: int) -> np.ndarray:
    """Points from a towards b, at most _SPACING apart and at least n_min of them, b excluded."""
    n = max(n_min, int(math.ceil(abs(b - a) / _SPACING)))
    return a + (b - a) * np.arange(n) / n


def _edges(box: ContourBox) -> list:
    """The sides of a box as (start, end) corners, counterclockwise from (s0, t0)."""
    c = [complex(box.s0, box.t0), complex(box.s1, box.t0),
         complex(box.s1, box.t1), complex(box.s0, box.t1)]
    return list(zip(c, c[1:] + c[:1]))


def _boundary(box: ContourBox) -> np.ndarray:
    """The first samples of a winding count on box: each side from its start corner,
    at most _SPACING apart and at least 8 of them, counterclockwise from (s0, t0).
    PhaseResolutionError, before any is made, when they would be more than the
    2^14 a count may refine to (a side too long for a float needs inf)."""
    sides = (abs(box.width) / _SPACING, abs(box.height) / _SPACING)
    size = 2 * sum(max(8, math.ceil(x)) if math.isfinite(x) else math.inf for x in sides)
    if size > _MAX_BOUNDARY_POINTS:
        raise PhaseResolutionError(
            f"the boundary of [{box.s0},{box.s1}]x[{box.t0},{box.t1}] needs {size:.3g} "
            f"samples at spacing {_SPACING}, more than {_MAX_BOUNDARY_POINTS}")
    return np.concatenate([_samples(a, b, 8) for a, b in _edges(box)])


def _refine(f, poly: np.ndarray, closed: bool) -> Optional[np.ndarray]:
    """poly (row 0 the points, row 1 f there; closed for a box boundary, open for a
    split line) bisected until every segment is resolved, or None when a zero
    touches it. A segment is resolved when its wrapped phase jump is at most pi/2
    and its end moduli sum to more than its length times the largest
    |delta f / delta k| of it and its neighbours, which keeps zeros off it (a
    double zero by it turns the phase by nearly 2 pi, which wraps to nearly 0).
    A zero touches where f is zero or not finite, where |f| changes by over 1e4
    along a segment (a local test: |f| spans e^{2|Im k|} along a big contour), or
    where an unresolved segment is below 1e-9 relative (no bisection resolves a
    zero on it). Raises PhaseResolutionError past 2^14 points.
    """
    while True:
        # Segment i runs from point i to point i + 1; a closed poly repeats its first point.
        pts, vals = np.concatenate([poly, poly[:, :1]], axis=1) if closed else poly
        mods = np.abs(vals)
        a, b = mods[:-1], mods[1:]
        if (not np.all(np.isfinite(mods)) or float(mods.min(initial=math.inf)) == 0.0
                or float((np.minimum(a, b) / np.maximum(a, b)).min(initial=1.0))
                < _MODULUS_FLOOR_REL):
            return None
        h = np.abs(np.diff(pts))
        slope = np.abs(np.diff(vals)) / h
        pad = slope[[-1, 0]] if closed else np.zeros(2)     # an open end has one neighbour
        near = np.concatenate([pad[:1], slope, pad[1:]])
        bad = np.flatnonzero((np.abs(np.angle(vals[1:] / vals[:-1])) > _JUMP_TOL)
                             | (a + b <= np.maximum.reduce([near[:-2], near[1:-1], near[2:]]) * h))
        if bad.size == 0:
            return poly
        if np.any(np.abs(pts[bad + 1] - pts[bad]) < _STUCK_SEGMENT * (1.0 + np.abs(pts[bad]))):
            return None
        if poly.shape[1] + bad.size > _MAX_BOUNDARY_POINTS:
            raise PhaseResolutionError(
                f"boundary refinement exceeded {_MAX_BOUNDARY_POINTS} points near "
                f"[{pts.real.min()},{pts.real.max()}]x[{pts.imag.min()},{pts.imag.max()}]")
        mids = 0.5 * (pts[bad] + pts[bad + 1])
        poly = np.insert(poly, bad + 1, [mids, np.asarray(f(mids), dtype=complex)], axis=1)


def _count(box: ContourBox, ring: np.ndarray) -> int:
    """The winding number of the values of a refined closed polyline on box."""
    total = float(np.angle(np.roll(ring[1], -1) / ring[1]).sum()) / (2.0 * math.pi)
    w = int(round(total))
    if abs(total - w) >= 0.25:
        raise PhaseResolutionError(f"winding {total:.4f} does not round cleanly on box "
                                   f"[{box.s0},{box.s1}]x[{box.t0},{box.t1}]")
    return w


def winding_count(f: Callable, box: ContourBox) -> int:
    """Number of zeros of f inside the box, counted with multiplicity.

    Total boundary argument variation divided by 2*pi, sampled from a
    spacing of 0.2 (at least 8 samples per side) and bisected adaptively
    until every segment passes the phase and Lipschitz tests of _refine; the
    result must round to an integer with gap < 0.25. A boundary running too close to a
    zero triggers up to three outward perturbations of the box. Raises
    BoundaryTooCloseError when the perturbations run out, and
    PhaseResolutionError when the first samples or the refinement would take
    more than 2^14 samples.
    """
    return _winding(f, box)[0]


def _winding(f: Callable, box: ContourBox, first=None):
    """winding_count's count as (w, counted box, ring): the box it was taken on
    (perturbed when the count had to move it) and its refined boundary polyline,
    counterclockwise from (s0, t0), points in row 0 and values of f in row 1.
    first, when given, holds f at _boundary(box) and stands in for the first
    attempt's call of f; a perturbed attempt samples its own boundary."""
    base = box
    for attempt in range(4):
        pts = _boundary(box)
        vals = f(pts) if first is None or attempt else first
        ring = _refine(f, np.stack([pts, np.asarray(vals, dtype=complex)]), closed=True)
        if ring is not None:
            return _count(box, ring), box, ring
        delta = 1e-4 * max(base.width, base.height) * (attempt + 1)
        box = ContourBox(base.s0 - delta, base.s1 + delta, base.t0 - delta, base.t1 + delta)
    raise BoundaryTooCloseError(
        f"zero on the boundary of [{base.s0},{base.s1}]x[{base.t0},{base.t1}] "
        "after 3 perturbations")


def newton_refine_many(f: Callable, seeds, *, tol: float = 1e-12, atol: float = 0.0,
                       max_iter: int = 30, check: bool = False):
    """Vectorized Newton over many seeds; one stacked evaluation per sweep.

    The derivative is the forward difference (f(z + d) - f(z)) / d with step
    d = 1e-7 max(1, |z|): two points per seed and sweep. A seed converges once
    its step is below tol max(1, |z|) or below atol. A seed whose step has
    failed to shrink twice while its smallest step is below 1e-8 max(1, |z|)
    has stalled on the evaluation noise floor and is accepted at the iterate
    of that smallest step. A zero derivative stops a seed unconverged where it is; so does an
    evaluation that raises DomainError or IntegrationFailureError (an iterate
    out of the Jost layer's reach), found by evaluating a failed sweep one
    seed per call. A seed still unconverged after max_iter sweeps returns the
    iterate of its smallest step.

    With check=True the first sweep is followed by one evaluation of f at its
    iterates z1. When every chord step |f(z1) / f'(z0)|, with f' from the
    first sweep's stencil, is below tol max(1, |z1|), the z1 are the roots and
    |f(z1)| their residuals; otherwise the sweeps go on from z1. Returns
    (roots, converged_mask), and with check=True also the residuals, or None
    where the check did not pass.
    """
    roots = np.array(seeds, dtype=complex).ravel()
    converged = np.zeros(roots.size, dtype=bool)
    live = np.arange(roots.size)         # where in roots the seeds still iterating go
    z, best = roots.copy(), roots.copy()
    best_step = np.full(roots.size, math.inf)
    grew = np.zeros(roots.size, dtype=int)
    scale = np.maximum(1.0, np.abs(z))
    for sweep in range(max_iter):
        if live.size == 0:
            break
        d = _STEP_REL * scale
        pts = z + d * _STENCIL
        try:
            vals = np.asarray(f(pts.ravel()), dtype=complex).reshape(len(_STENCIL), -1)
        except (DomainError, IntegrationFailureError):
            vals = np.zeros(pts.shape, dtype=complex)   # a seed that raises keeps f' = 0
            for j in range(live.size):
                with contextlib.suppress(DomainError, IntegrationFailureError):
                    vals[:, j] = f(pts[:, j])
        deriv = (vals[1] - vals[0]) / d
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
        done = ~dead & ((step < tol * scale) | (step < atol))
        stalled = (grew >= 2) & (best_step < _STALL_REL * scale)
        stop = done | stalled | dead
        if stop.any():
            roots[live[stop]] = np.where(done, z, best)[stop]
            converged[live[stop]] = (done | stalled)[stop]
            keep = ~stop
            live, z, best, best_step, grew, scale = (
                live[keep], z[keep], best[keep], best_step[keep], grew[keep], scale[keep])
        if check and sweep == 0:
            # Every seed ran this sweep, so deriv and dead line up with roots.
            z1 = roots.copy()
            z1[live] = z
            with contextlib.suppress(DomainError, IntegrationFailureError):
                res = np.abs(np.asarray(f(z1), dtype=complex))
                if np.all(~dead & (res < tol * np.maximum(1.0, np.abs(z1)) * np.abs(deriv))):
                    return z1, np.ones(z1.size, dtype=bool), res
    roots[live] = best
    return (roots, converged, None) if check else (roots, converged)


def _path(ring: np.ndarray, lines: list, a: complex, b: complex) -> np.ndarray:
    """The samples from a to b along a split line that holds both, else forward
    along ring (a closed polyline with its first point repeated at the end)."""
    for line in lines:
        i, j = np.nonzero(line[0] == a)[0], np.nonzero(line[0] == b)[0]
        if i.size and j.size:
            i, j = i[0], j[0]
            return line[:, i:j + 1] if i <= j else line[:, j:i + 1][:, ::-1]
    return ring[:, np.nonzero(ring[0] == a)[0][0]:np.nonzero(ring[0] == b)[0][-1] + 1]


def _split(f: Callable, box: ContourBox, ring: np.ndarray):
    """The children of a box, with ring its refined boundary, as (child, count,
    ring) triples, or None. The split lines cross at the hub (s0 + frac w, t0 +
    frac h): a vertical line unless the box is over 4 times as tall as wide, a
    horizontal one unless it is over 4 times as wide as tall. Each line is
    sampled once, from the hub out in one call of f, and refined. Its ends join
    the ring, in the segments that hold them. A child's boundary is its arc of the
    ring and the lines between its corners, which its neighbours traverse the
    other way, so the children's counts add up to the box's. A line that a zero
    touches moves to the next fraction of _SPLIT_FRACTIONS; None when none
    clears. Points are matched by equality: the samples of a side or a line
    share its coordinate exactly.
    """
    ring = np.concatenate([ring, ring[:, :1]], axis=1)     # its first point again at the end
    for frac in _SPLIT_FRACTIONS:
        hub = complex(box.s0 + frac * box.width, box.t0 + frac * box.height)
        xs, ys, ends = [box.s0, box.s1], [box.t0, box.t1], []
        if box.width >= 0.25 * box.height:
            xs.insert(1, hub.real)
            ends += [complex(hub.real, box.t0), complex(hub.real, box.t1)]
        if box.height >= 0.25 * box.width:
            ys.insert(1, hub.imag)
            ends += [complex(box.s0, hub.imag), complex(box.s1, hub.imag)]
        # Each end lies strictly inside ring segment (ring[i], ring[i + 1]), on its line.
        off = ring[0][:, None] - np.array(ends)
        cross = off[:-1] * off[1:].conj()
        inside = (cross.imag == 0) & (cross.real < 0)
        if not inside.any(axis=0).all():
            continue
        seats = inside.argmax(axis=0)
        spokes = [np.append(_samples(hub, end, 8), end) for end in ends]     # hub to end
        lines = [np.concatenate([a[::-1], b[1:]]) for a, b in zip(spokes[::2], spokes[1::2])]
        pts, at = np.unique(np.concatenate(lines), return_inverse=True)   # the hub once
        vals = np.split(np.asarray(f(pts), dtype=complex)[at], np.cumsum([p.size for p in lines]))
        lines = [_refine(f, np.stack([p, v]), closed=False) for p, v in zip(lines, vals)]
        if any(line is None for line in lines):
            continue
        joined = np.insert(ring, seats + 1,
                           np.concatenate([line[:, [0, -1]] for line in lines], axis=1), axis=1)
        boxes = [ContourBox(*s, *t) for t in zip(ys, ys[1:]) for s in zip(xs, xs[1:])]
        rings = [_refine(f, np.concatenate([_path(joined, lines, a, b)[:, :-1]
                                            for a, b in _edges(child)], axis=1), closed=True)
                 for child in boxes]
        if all(r is not None for r in rings):
            return [(child, _count(child, r), r) for child, r in zip(boxes, rings)]
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


def _moment_zeros(f: Callable, refine_f: Optional[Callable], w: int, box: ContourBox,
                  pts, vals) -> Optional[tuple]:
    """The w zeros inside `box`, the box a count of w was taken on, as (zeros,
    residuals), or None.

    The pencil seeds go to Newton on f, the counting evaluator: to the end
    with no refine_f, else until a sweep whose steps are all below 1e-3 g
    in k or below 1e-7 relative, and then on refine_f, so only the polish
    pays for its tolerance. g, at most 1, is the seeds' least distance to
    each other and to the box's edge: no other zero lies much nearer a
    seed, so that sweep leaves it about step^2 / g < 1e-6 g from its zero,
    which one polish sweep squares below its check. A bound in k that
    ignored g would stop a pair closer than 1e-3 before Newton told its
    zeros apart. The seed of a window's one-zero box, 1e-7 to 1e-4 from its
    root, takes one sweep on f. The polish is one stencil sweep and a
    check of refine_f at its iterates (newton_refine_many's check): when
    every chord step there is below 1e-12 relative, those iterates are the
    zeros and the check's |refine_f| their residuals; otherwise Newton goes
    on, to 6 sweeps in all, and the residuals are None. No iterate may
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

    def inside(ks):
        if not box.contains(ks, pad):
            raise DomainError("Newton iterate left its box")
        return ks

    residuals = None
    if refine_f is None:
        roots, converged = newton_refine_many(lambda ks: f(inside(ks)), seeds, max_iter=50)
    else:
        gaps = [min(z.real - box.s0, box.s1 - z.real, z.imag - box.t0, box.t1 - z.imag)
                for z in seeds] + [abs(a - b) for a, b in itertools.combinations(seeds, 2)]
        roots, converged = newton_refine_many(lambda ks: f(inside(ks)), seeds, tol=_COARSE_TOL,
                                              atol=_COARSE_STEP * min(1.0, *gaps), max_iter=50)
        if converged.all():
            roots, converged, residuals = newton_refine_many(
                lambda ks: refine_f(inside(ks)), roots, max_iter=_POLISH_SWEEPS, check=True)
    if not (converged.all() and box.contains(roots)):
        return None
    zs = [complex(z) for z in roots]
    if any(abs(a - b) <= _DEDUP_TOL * max(1.0, abs(a)) for a, b in itertools.combinations(zs, 2)):
        return None
    return zs, residuals


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
               symmetry: bool = True, first=None) -> ZeroSearchResult:
    """All zeros of f in region = (s0, s1, t0, t1), with multiplicities.

    A box whose winding count w is 1..4 takes w Newton-refined simple zeros
    from the contour moments of its boundary samples, when every seed
    converges inside the box and no two coincide. Other boxes split along
    lines their children share (_split) until that holds or the longer side
    drops below 1e-7 (a multiplicity-w cluster, reported unrefined). A child
    that keeps its parent's count w >= 2 holds the zeros whose moments just
    failed and splits on without trying them. A box at max_depth, or one no
    split line clears, is unresolved. Roots of different boxes within 1e-6
    relative merge into one unrefined entry with the sum of their
    multiplicities. refine_f, when given, is a higher-accuracy evaluator for
    Newton polish and residuals. A zero whose polish check passed (_moment_zeros)
    keeps the check's |refine_f| there as its residual (|refine_f| is the same
    at its mirror images, up to rounding); the other entries, merged and
    unrefined ones included, take theirs from one stacked call at their
    representatives. With symmetry=True results are deduplicated
    under k -> -k, k -> k* into first-quadrant representatives (the symmetry
    group of the characteristic function); pass False for other functions.
    first, when given, holds f at the region's _boundary (the region's first
    count then skips that call).
    """
    s0, s1, t0, t1 = (float(v) for v in region)
    if not (s1 > s0 and t1 > t0):
        raise DomainError("region must have positive width and height")
    w, box, ring = _winding(f, ContourBox(s0, s1, t0, t1), first)
    raw = []
    checked = {}      # the residual of each zero whose polish check passed
    unresolved: List[ContourBox] = []
    stack = [(box, 0, w, ring, 0)]
    while stack:
        box, depth, w, ring, w_parent = stack.pop()
        if w == 0:
            continue
        # A box that kept its parent's count of several zeros holds the zeros
        # whose moments already failed (a cluster, as a rule): it splits on.
        if w <= _MOMENT_MAX_W and (w == 1 or w != w_parent):
            found = _moment_zeros(f, refine_f, w, box, *ring)
            if found is not None:
                zs, residuals = found
                raw.extend((z, 1, True) for z in zs)
                if residuals is not None:
                    checked.update(zip(zs, residuals))
                continue
        if max(box.width, box.height) < _MIN_SIZE:
            raw.append((box.center, w, False))
            continue
        if depth >= max_depth:
            unresolved.append(box)
            continue
        children = _split(f, box, ring)
        if children is None:
            unresolved.append(box)
            continue
        stack.extend((child, depth + 1, cw, cring, w) for child, cw, cring in children if cw > 0)

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
            orbits.append({"rep": rep, "mult": mult, "refined": refined,
                           "residual": checked.get(z) if refined else None})

    # The rest take their residuals from one stacked call.
    rest = [orb for orb in orbits if orb["residual"] is None]
    if rest:
        values = (refine_f or f)(np.array([orb["rep"] for orb in rest]))
        for orb, value in zip(rest, np.abs(np.asarray(values, dtype=complex))):
            orb["residual"] = value
    zeros = [Eigenvalue(k=orb["rep"], index=None, multiplicity=orb["mult"],
                        residual=float(orb["residual"]), cls=_classify(orb["rep"]),
                        refined=orb["refined"])
             for orb in orbits]
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


def origin_multiplicity(d_evaluator: Callable, first=None) -> int:
    """Multiplicity s of the zero eigenvalue: half the winding of D around the origin,
    on _ORIGIN_BOX; first, when given, holds D at its _boundary."""
    w = _winding(d_evaluator, _ORIGIN_BOX, first)[0]
    if w % 2:
        raise PhaseResolutionError(f"odd origin winding {w} for an even function")
    return w // 2

