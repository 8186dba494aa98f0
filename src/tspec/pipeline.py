"""Orchestration from validated config to structured outputs.

One spectrum path: a region scan (argument-principle subdivision with Newton
polish at a tighter tolerance) whose zeros are numbered against the asymptotic
targets. A targeted index window is the scan of the strip its targets span.
Validation replays the paper-level audits (symmetry closure, contour counts,
residual decay, gamma consistency) against a spectrum file.
"""

from __future__ import annotations

import contextlib
import math
from collections import namedtuple
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from . import asymptotics as asy
from .charfun import DEvaluator
from .errors import (ConfigError, DomainError, HypothesisMismatchError, IndexingConflictError,
                     PhaseResolutionError, ProbeTooCloseError, TspecError, UnstableLimitError)
from .gamma_recovery import (from_representatives, gamma_direct, gamma_from_endpoint,
                             gamma_from_omega)
from .potential import Potential, PotentialScalars, derive_scalars
from .rootfind import (_ORIGIN_BOX, ContourBox, Eigenvalue, _boundary, find_zeros,
                       gamma_contour_count, orbit, origin_multiplicity)
from .spectrumfile import SpectrumHeader, SpectrumRecord

_DEGENERATE_PROBES = (0.6 + 0.4j, 1.7 + 0.0j, 2.9 + 0.8j, 4.3 + 0.0j, 6.1 + 0.3j)
_GAMMA_REL_TOL = 0.25       # largest relative gap between the direct and a limit route
_RTOL_WINDING = 1e-8        # D tolerance of a targeted spectrum's winding counts
_SYMMETRY_TOL = 1e-9        # relative distance at which a record counts as a mirror image
_SLOPE_TOL = -0.3           # steepest log-log residual slope that passes the decay audit


def _vanishes(probes) -> bool:
    """The degeneracy verdict on D at _DEGENERATE_PROBES."""
    return bool(np.max(np.abs(np.asarray(probes, dtype=complex))) < 1e-11)


def _opening(dev: DEvaluator, region):
    """D at _DEGENERATE_PROBES and on the first boundaries of the origin box and of
    region (None for no region), in one call: (probes, origin, region) values.
    A region whose first boundary _boundary refuses to sample is left out
    (None): the degeneracy verdict, which needs none of it, must not wait on
    it. When the call fails, the probes alone, and None for the boundaries,
    whose counts then sample them afresh and meet the failure themselves.
    """
    parts = [np.array(_DEGENERATE_PROBES), _boundary(_ORIGIN_BOX)]
    if region is not None:
        with contextlib.suppress(PhaseResolutionError):
            parts.append(_boundary(ContourBox(*map(float, region))))
    try:
        vals = np.split(dev(np.concatenate(parts)), np.cumsum([p.size for p in parts[:-1]]))
    except TspecError:
        return dev(parts[0]), None, None
    return (*vals, None)[:3]


def _strip(scalars: PotentialScalars, variant: str, n_lo: int, n_hi: int):
    """The strip a targeted window n_lo..n_hi is scanned over (None when no
    target is in the window), and the (targets, spacing, n_min) that number it.

    The strip reaches half a target spacing past the real parts of the
    asymptotic targets of the window (from Re k = 0 when the window reaches
    the first index the theorem assigns) and runs from Im k = 0 to
    max(3, max Im + spacing / 2). DomainError when no numbering theorem applies.
    """
    numbering = asy.index_targets(scalars, variant, (n_hi + 2) * math.pi)
    targets, spacing, n_min = numbering
    sel = np.array([val for (n, val, _b) in targets if n_lo <= n <= n_hi], dtype=complex)
    if not sel.size:
        return None, numbering
    half = 0.5 * spacing
    strip = (0.0 if n_lo <= n_min else sel.real.min() - half, sel.real.max() + half,
             0.0, max(3.0, sel.imag.max() + half))
    return strip, numbering


def expand_orbit(ev: Eigenvalue) -> List[complex]:
    """The full symmetry orbit {k, -k, k*, -k*} of a representative, deduplicated."""
    out = []
    for c in map(complex, orbit(ev.k)):
        if all(abs(c - o) > 1e-12 * (1.0 + abs(c)) for o in out):
            out.append(c)
    return out


def records_from_eigenvalues(zeros: List[Eigenvalue]) -> List[SpectrumRecord]:
    records = []
    for ev in zeros:
        for mirror in expand_orbit(ev):
            records.append(SpectrumRecord(
                index=ev.index, re_k=mirror.real, im_k=mirror.imag,
                multiplicity=ev.multiplicity, residual=ev.residual,
                cls=ev.cls, branch=ev.branch,
            ))
    return records


def _first_of_each(keys, positions) -> List[int]:
    """The position of the first of each key, in the order the keys first appear."""
    return sorted(dict(zip(reversed(keys), reversed(positions))).values())


def _k_array(re_k, im_k) -> np.ndarray:
    """complex(re, im) for each pair of the two columns, as one array."""
    ks = np.empty(len(re_k), dtype=complex)
    ks.real, ks.imag = re_k, im_k
    return ks


# The representatives of eigenvalues_from_columns, one entry per orbit in
# each column: k as one complex array, the other fields as lists.
Representatives = namedtuple("Representatives", "k index multiplicity residual cls branch")


def eigenvalues_from_columns(columns) -> Representatives:
    """First-quadrant representatives with indices, one per orbit, as columns,
    from the record columns of a spectrum file (spectrumfile.read_spectrum).

    The mirrors of a zero share its exact (|Re k|, |Im k|), so they collapse
    first, by the first-occurrence indices of a stable np.unique; the 9-digit
    key then merges images that differ by rounding, formed only when the means of
    two survivors' parts lie within 1e-9 (+ 3 eps). Both keep the first row seen.
    One np.lexsort orders the survivors by (index, None as 10^9; |k|), ties in
    the order of their rows.
    """
    re_k, im_k, index = columns.re_k, columns.im_k, columns.index
    abs_re, abs_im = (np.abs(np.fromiter(part, float, len(part))) for part in (re_k, im_k))
    survivors, firsts = np.unique(_k_array(abs_re, abs_im), return_index=True)
    firsts = np.sort(firsts)
    means = np.sort(survivors.real / 2 + survivors.imag / 2)    # halves: no overflow
    if np.any(np.diff(means) <= 1e-9 + 1e-15 * means[-1:]):
        rounded = [(round(abs(re_k[i]), 9), round(abs(im_k[i]), 9)) for i in firsts.tolist()]
        firsts = np.array(_first_of_each(rounded, firsts.tolist()), dtype=int)
    with np.errstate(over="ignore"):    # a modulus past the float range sorts as inf
        mods = np.hypot(abs_re[firsts], abs_im[firsts])
    keys = asy._int_keys([10 ** 9 if index[i] is None else index[i] for i in firsts.tolist()])
    take = firsts[np.lexsort((mods, keys))]
    rows = take.tolist()
    return Representatives(_k_array(abs_re[take], abs_im[take]), *(
        [column[i] for i in rows] for column in (
            index, columns.multiplicity, columns.residual, columns.cls, columns.branch)))


@dataclass
class SpectrumRun:
    header: SpectrumHeader
    records: List[SpectrumRecord]
    eigenvalues: List[Eigenvalue]
    unresolved: list
    exit_code: int


def run_spectrum(cfg) -> SpectrumRun:
    """Orchestrates charfun + root finder + indexing into a spectrum document.

    An index window scans the strip _strip places (none: no zeros) and
    numbers its zeros by that strip's targets; its header's region is the strip.
    """
    p = Potential.from_dict(cfg.potential)
    scalars = derive_scalars(p)
    targeted = "n" in cfg.spectrum
    # The yes/no checks (degeneracy, origin multiplicity) need only the
    # tolerance the run counts windings with, so they share its first call.
    rtol_winding = _RTOL_WINDING if targeted else max(cfg.rtol, 1e-10)
    dev = DEvaluator(p, cfg.variant, rtol=rtol_winding)
    region = list(cfg.spectrum.get("region", (0.0, 20.0, 0.0, 4.0)))
    strip = numbering = no_theorem = None
    if targeted:
        n_lo, n_hi = (int(n) for n in cfg.spectrum["n"])
        try:
            strip, numbering = _strip(scalars, cfg.variant, n_lo, n_hi)
        except DomainError as exc:      # raised after the verdict: q = 0 has no theorem
            no_theorem = exc
        if strip is not None:
            region = [float(v) for v in strip]
    search = strip is not None or not targeted
    header = SpectrumHeader(potential=cfg.potential, variant=cfg.variant, region=region,
                            tolerances={"rtol": cfg.rtol, "rtol_refine": cfg.rtol_refine})
    probes, origin, first = _opening(dev, region if search else None)
    if _vanishes(probes):
        header.warnings.append("degenerate characteristic function: D == 0 identically "
                               "(unperturbed system); spectrum is empty")
        return SpectrumRun(header=header, records=[], eigenvalues=[], unresolved=[],
                           exit_code=0)
    if no_theorem is not None:
        raise no_theorem
    zeros, unresolved, uncertified, unrefined, conflict = [], [], [], [], False
    if search:
        result = find_zeros(dev, region, max_depth=int(cfg.spectrum.get("depth", 14)),
                            refine_f=dev.with_tolerance(cfg.rtol_refine), first=first)
        unresolved = result.unresolved
        try:
            zeros = (asy._match_targets(result.zeros, *numbering) if targeted
                     else asy.index_eigenvalues(result.zeros, scalars, cfg.variant))
        except (IndexingConflictError, DomainError) as exc:
            header.warnings.append(f"indexing: {exc}")
            conflict = isinstance(exc, IndexingConflictError)
            zeros = [] if targeted else result.zeros
    if targeted:    # a window has a theorem here: without one, no_theorem was raised
        n_min = numbering[2]
        zeros = [ev for ev in zeros if n_lo <= ev.index <= n_hi]
        # No zero takes an index below n_min: those are named by `below` instead.
        uncertified = sorted({ev.index for ev in zeros if not ev.refined}
                             | set(range(max(n_lo, n_min), n_hi + 1))
                             - {ev.index for ev in zeros})
    else:
        unrefined = [f"{ev.k:.10g} (multiplicity {ev.multiplicity})"
                     for ev in result.zeros if not ev.refined]
    below = targeted and n_lo < n_min
    try:
        header.s = origin_multiplicity(dev, origin)
    except TspecError as exc:
        header.warnings.append(f"origin multiplicity undetermined: {exc}")
    if unresolved:
        header.warnings.append(f"{len(unresolved)} unresolved cluster boxes")
    if below:
        header.warnings.append(f"index window {n_lo}..{n_hi} starts below the theorem's "
                               f"first index {n_min}")
    if uncertified:
        header.warnings.append(f"targeted roots at indices {uncertified} not certified")
    if unrefined:
        header.warnings.append(f"region-scan zeros not refined (clusters or merged roots): "
                               f"{', '.join(unrefined)}")
    return SpectrumRun(header=header, records=records_from_eigenvalues(zeros),
                       eigenvalues=zeros, unresolved=unresolved,
                       exit_code=2 if unresolved or uncertified or unrefined or conflict
                       or below else 0)


# ---------------------------------------------------------------------------
# Validation audits
# ---------------------------------------------------------------------------

@dataclass
class AuditEntry:
    name: str
    status: str      # "pass" | "fail" | "skipped"
    detail: str


@dataclass
class ValidationReport:
    entries: List[AuditEntry] = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return any(e.status == "fail" for e in self.entries)

    def add(self, name, status, detail=""):
        self.entries.append(AuditEntry(name=name, status=status, detail=detail))


def audit_symmetry(columns) -> AuditEntry:
    """The records of a spectrum file, as its record columns
    (spectrumfile.read_spectrum), must be closed under k -> -k and k -> k*.

    An image of k counts as present when some record lies within
    1e-9 (1 + |k|) of it.
    """
    ks = _k_array(columns.re_k, columns.im_k)
    images = orbit(ks)[:, 1:].ravel()     # record-major: -k, k*, -k* per record
    tol = _SYMMETRY_TOL * (1.0 + np.abs(np.repeat(ks, 3)))
    # Candidates are the records whose Re k lies within twice tol of the image;
    # the window is widened so that rounding in the bounds drops none.
    by_re = ks[np.argsort(ks.real)]
    lo = np.searchsorted(by_re.real, images.real - 2.0 * tol, side="left")
    hi = np.searchsorted(by_re.real, images.real + 2.0 * tol, side="right")
    found = np.zeros(images.size, dtype=bool)
    for offset in range(int(np.max(hi - lo, initial=0))):
        j = lo + offset
        inside = j < hi
        with np.errstate(over="ignore"):    # a gap past the float range finds nothing
            found[inside] |= np.abs(by_re[j[inside]] - images[inside]) <= tol[inside]
    missing = np.nonzero(~found)[0]
    if missing.size:
        first = missing[0]
        return AuditEntry("symmetry-closure", "fail",
                          f"{missing.size} missing mirrors, e.g. {complex(images[first])} "
                          f"of {complex(ks[first // 3])}")
    return AuditEntry("symmetry-closure", "pass", f"{ks.size} records closed under +-k, conj")


def audit_contours(dev: DEvaluator, scalars: PotentialScalars, ns) -> AuditEntry:
    omega_zero, q1_zero, _ = asy.vanishing(scalars)
    if omega_zero or q1_zero:
        return AuditEntry("contour-counts", "skipped",
                          "counting theorem needs omega != 0 and q(1) != 0")
    offset = asy.CONTOUR_OFFSETS[dev.variant, scalars.q_at_1 / scalars.omega > 0]
    got = {}
    for n in ns:
        try:
            got[n] = gamma_contour_count(dev, n)
        except TspecError as exc:
            return AuditEntry("contour-counts", "fail", f"count failed at n={n}: {exc}")
    bad = {n: (got[n], 4 * n + offset) for n in ns if got[n] != 4 * n + offset}
    if bad:
        return AuditEntry("contour-counts", "fail", f"mismatches {bad}")
    return AuditEntry("contour-counts", "pass", f"counts {got} match 4n+{offset}")


def audit_residual_decay(zeros: Representatives, scalars: PotentialScalars, variant: str,
                         theorem: Optional[str] = None) -> AuditEntry:
    """The residuals of the representatives with n >= 1 against the theorem's
    prediction must decay (asymptotics.residual_report)."""
    tag = theorem or asy.default_theorem_tag(scalars, variant)
    if tag is None:
        return AuditEntry("residual-decay", "skipped", "no asymptotic theorem applies")
    ns = [n for n in zeros.index if n is not None and n >= 1]
    # One prediction checks the theorem's hypotheses: at n = 5 alone when too
    # few rows leave nothing else to predict.
    try:
        pred = asy.predict_eigenvalues(scalars, tag, [5] if len(ns) < 4 else sorted(set(ns)))
    except HypothesisMismatchError as exc:
        return AuditEntry("residual-decay", "fail", f"hypothesis mismatch: {exc}")
    if len(ns) < 4:
        return AuditEntry("residual-decay", "skipped",
                          f"only {len(ns)} indexed eigenvalues with n >= 1")
    try:
        report = asy.residual_report(zeros, pred)
    except DomainError as exc:
        return AuditEntry("residual-decay", "skipped", str(exc))
    if report.nonfinite:
        return AuditEntry("residual-decay", "fail",
                          f"tag {tag}: |eps_n|^2 is not finite at indices {report.nonfinite}")
    slope = report.loglog_slope
    ok = slope is not None and slope <= _SLOPE_TOL and report.tails_decreasing
    shown = "none" if slope is None else f"{slope:.2f}"
    detail = (f"tag {tag}: slope {shown} (tol {_SLOPE_TOL}), "
              f"tail sums {report.tail_first:.3e} -> {report.tail_second:.3e}")
    return AuditEntry("residual-decay", "pass" if ok else "fail", detail)


def audit_gamma(dev: DEvaluator, zeros: Representatives, scalars: PotentialScalars,
                variant: str, s: int = 0) -> AuditEntry:
    if not zeros.index:
        return AuditEntry("gamma-consistency", "skipped", "empty spectrum")
    try:
        hp = from_representatives(zeros.k, zeros.multiplicity, zeros.cls, s=s)
    except DomainError as exc:
        return AuditEntry("gamma-consistency", "fail", f"bad eigenvalue list: {exc}")
    if hp.truncation < 20:
        return AuditEntry("gamma-consistency", "skipped",
                          f"only {hp.truncation} eigenvalues; limit routes need >= 20")
    try:
        direct = gamma_direct(dev, hp)
    except ProbeTooCloseError as exc:
        return AuditEntry("gamma-consistency", "skipped", f"no clear probe point: {exc}")
    except DomainError as exc:
        return AuditEntry("gamma-consistency", "fail", f"direct route: {exc}")
    try:
        if not asy.vanishing(scalars)[0]:
            other = gamma_from_omega(hp, scalars, variant)
        elif scalars.m_order is not None:
            other = gamma_from_endpoint(hp, scalars, variant)
        else:
            return AuditEntry("gamma-consistency", "skipped", "no limit route applies")
    except (UnstableLimitError, DomainError) as exc:
        return AuditEntry("gamma-consistency", "fail", f"{exc}")
    rel = abs(other.gamma - direct.gamma) / max(abs(direct.gamma), 1e-300)
    detail = (f"direct {direct.gamma:.5g} vs {other.route} {other.gamma:.5g} "
              f"({100 * rel:.1f}% apart, tol {100 * _GAMMA_REL_TOL:.0f}%)")
    return AuditEntry("gamma-consistency", "pass" if rel <= _GAMMA_REL_TOL else "fail", detail)


def _file_potential(header: SpectrumHeader):
    """The potential of a spectrum file's header and its scalars: the case every
    reader of the file checks it against. A malformed one raises ConfigError,
    as a malformed config potential does."""
    try:
        p = Potential.from_dict(header.potential)
    except DomainError as exc:
        raise ConfigError(f"spectrum header potential: {exc}") from None
    return p, derive_scalars(p)


def validate_columns(cfg, header: SpectrumHeader, columns, hash_ok: bool = True
                     ) -> ValidationReport:
    """Pass/fail table over symmetry, contour counts, residual decay, gamma routes,
    for the record columns of a spectrum file (spectrumfile.read_spectrum)."""
    report = ValidationReport()
    report.add("file-integrity", "pass" if hash_ok else "fail",
               "content hash matches" if hash_ok else "content hash mismatch")
    if not columns.re_k:
        report.add("symmetry-closure", "skipped", "empty spectrum")
        report.add("residual-decay", "skipped", "empty spectrum")
        report.add("gamma-consistency", "skipped", "empty spectrum")
        if not any("degenerate" in w for w in header.warnings):
            report.add("empty-spectrum", "fail", "no records and no degeneracy warning")
        return report
    report.entries.append(audit_symmetry(columns))
    p, scalars = _file_potential(header)
    dev = DEvaluator(p, header.variant, rtol=cfg.rtol)
    contours = cfg.validate.get("contours", [2, 3])
    report.entries.append(audit_contours(dev, scalars, contours))
    zeros = eigenvalues_from_columns(columns)
    theorem = cfg.validate.get("theorem")
    report.entries.append(audit_residual_decay(zeros, scalars, header.variant, theorem))
    report.entries.append(audit_gamma(dev, zeros, scalars, header.variant, s=header.s))
    return report
