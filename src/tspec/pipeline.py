"""Orchestration from validated config to structured outputs.

One spectrum path: a region scan (argument-principle subdivision with Newton
polish at a tighter tolerance) whose zeros are numbered against the asymptotic
targets. A targeted index window is the scan of the strip its targets span.
Validation replays the paper-level audits (symmetry closure, contour counts,
residual decay, gamma consistency) against a spectrum file.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from . import asymptotics as asy
from .charfun import DEvaluator
from .errors import (ConfigError, DomainError, HypothesisMismatchError, IndexingConflictError,
                     ProbeTooCloseError, TspecError, UnstableLimitError)
from .gamma_recovery import from_eigenvalues, gamma_direct, gamma_from_endpoint, gamma_from_omega
from .potential import Potential, PotentialScalars, derive_scalars
from .rootfind import (Eigenvalue, ZeroSearchResult, _match_targets, find_zeros,
                       gamma_contour_count, index_eigenvalues, orbit, origin_multiplicity)
from .spectrumfile import SpectrumHeader, SpectrumRecord

_DEGENERATE_PROBES = (0.6 + 0.4j, 1.7 + 0.0j, 2.9 + 0.8j, 4.3 + 0.0j, 6.1 + 0.3j)
_GAMMA_REL_TOL = 0.25       # largest relative gap between the direct and a limit route
_RTOL_WINDING = 1e-8        # D tolerance of a targeted spectrum's winding counts
_SYMMETRY_TOL = 1e-9        # relative distance at which a record counts as a mirror image
_SLOPE_TOL = -0.3           # steepest log-log residual slope that passes the decay audit


def is_degenerate(dev: DEvaluator) -> bool:
    """True when D vanishes identically (the unperturbed q = 0 system)."""
    vals = np.asarray(dev(np.array(_DEGENERATE_PROBES)), dtype=complex)
    return bool(np.max(np.abs(vals)) < 1e-11)


def targeted_spectrum(p: Potential, scalars: PotentialScalars, variant: str,
                      n_lo: int, n_hi: int, *, rtol_refine: float = 1e-13) -> List[Eigenvalue]:
    """Indexed eigenvalues n_lo..n_hi: the region scan of the strip their targets span.

    The strip reaches half a target spacing past the real parts of the
    asymptotic targets of the window (from Re k = 0 when the window reaches
    the first index the theorem assigns) and runs from Im k = 0 to
    max(3, max Im + spacing / 2). It is scanned with winding counts at 1e-8
    and Newton polish at rtol_refine, and its zeros are numbered against the
    same targets, as a region scan numbers its zeros. An index with no zero
    in the strip is absent; IndexingConflictError when two zeros contend for
    one index.
    """
    targets, spacing, n_min = asy.index_targets(scalars, variant, (n_hi + 2) * math.pi)
    sel = np.array([val for (n, val, _b) in targets if n_lo <= n <= n_hi], dtype=complex)
    if not sel.size:
        return []
    half = 0.5 * spacing
    strip = (0.0 if n_lo <= n_min else sel.real.min() - half, sel.real.max() + half,
             0.0, max(3.0, sel.imag.max() + half))
    res = scan_spectrum(p, variant, strip, rtol_winding=_RTOL_WINDING, rtol_refine=rtol_refine)
    zeros = _match_targets(res.zeros, targets, spacing, n_min)
    return [ev for ev in zeros if n_lo <= ev.index <= n_hi]


def scan_spectrum(p: Potential, variant: str, region, depth: int = 14, *,
                  rtol_winding: float = 1e-9, rtol_refine: float = 1e-13) -> ZeroSearchResult:
    dev = DEvaluator(p, variant, rtol=rtol_winding)
    dev_fine = dev.with_tolerance(rtol_refine)
    return find_zeros(dev, region, max_depth=depth, refine_f=dev_fine)


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


def eigenvalues_from_records(records: List[SpectrumRecord]) -> List[Eigenvalue]:
    """First-quadrant representatives with indices, one per orbit.

    The mirrors of a zero share its exact (|Re k|, |Im k|), so they collapse
    first; the 9-digit key then merges images that differ by rounding. Both
    keep the first record seen.
    """
    re_k = list(map(abs, [r.re_k for r in records]))
    im_k = list(map(abs, [r.im_k for r in records]))
    firsts = _first_of_each(list(zip(re_k, im_k)), range(len(records)))
    rounded = [(round(re_k[i], 9), round(im_k[i], 9)) for i in firsts]
    zeros = []
    for i in _first_of_each(rounded, firsts):
        r = records[i]
        zeros.append(Eigenvalue(k=complex(re_k[i], im_k[i]), index=r.index,
                                multiplicity=r.multiplicity, residual=r.residual, cls=r.cls,
                                branch=r.branch))
    return sorted(zeros, key=lambda e: (e.index if e.index is not None else 10 ** 9, abs(e.k)))


@dataclass
class SpectrumRun:
    header: SpectrumHeader
    records: List[SpectrumRecord]
    eigenvalues: List[Eigenvalue]
    unresolved: list
    exit_code: int


def run_spectrum(cfg) -> SpectrumRun:
    """Orchestrates charfun + root finder + indexing into a spectrum document."""
    p = Potential.from_dict(cfg.potential)
    scalars = derive_scalars(p)
    warnings_list = []
    targeted = "n" in cfg.spectrum
    # The yes/no checks (degeneracy, origin multiplicity) need only the
    # tolerance the run counts windings with.
    rtol_winding = _RTOL_WINDING if targeted else max(cfg.rtol, 1e-10)
    dev = DEvaluator(p, cfg.variant, rtol=rtol_winding)
    region = list(cfg.spectrum.get("region", (0.0, 20.0, 0.0, 4.0)))
    if is_degenerate(dev):
        warnings_list.append("degenerate characteristic function: D == 0 identically "
                             "(unperturbed system); spectrum is empty")
        header = SpectrumHeader(potential=cfg.potential, variant=cfg.variant, region=region,
                                tolerances={"rtol": cfg.rtol, "rtol_refine": cfg.rtol_refine},
                                s=0, warnings=warnings_list)
        return SpectrumRun(header=header, records=[], eigenvalues=[], unresolved=[],
                           exit_code=0)
    unresolved, uncertified, unrefined, conflict = [], [], [], False
    if targeted:
        n_lo, n_hi = (int(n) for n in cfg.spectrum["n"])
        try:
            zeros = targeted_spectrum(p, scalars, cfg.variant, n_lo, n_hi,
                                      rtol_refine=cfg.rtol_refine)
        except IndexingConflictError as exc:
            warnings_list.append(f"indexing: {exc}")
            zeros, conflict = [], True
        found = {ev.index for ev in zeros}
        uncertified = sorted({ev.index for ev in zeros if not ev.refined}
                             | set(range(n_lo, n_hi + 1)) - found)
    else:
        result = scan_spectrum(p, cfg.variant, region,
                               depth=int(cfg.spectrum.get("depth", 14)),
                               rtol_winding=rtol_winding, rtol_refine=cfg.rtol_refine)
        unresolved = result.unresolved
        unrefined = [f"{ev.k:.10g} (multiplicity {ev.multiplicity})"
                     for ev in result.zeros if not ev.refined]
        try:
            zeros = index_eigenvalues(result.zeros, scalars, cfg.variant)
        except (IndexingConflictError, DomainError) as exc:
            warnings_list.append(f"indexing: {exc}")
            zeros, conflict = result.zeros, isinstance(exc, IndexingConflictError)
    try:
        s = origin_multiplicity(dev)
    except TspecError as exc:
        warnings_list.append(f"origin multiplicity undetermined: {exc}")
        s = 0
    if unresolved:
        warnings_list.append(f"{len(unresolved)} unresolved cluster boxes")
    if uncertified:
        warnings_list.append(f"targeted roots at indices {uncertified} not certified")
    if unrefined:
        warnings_list.append(f"region-scan zeros not refined (clusters or merged roots): "
                             f"{', '.join(unrefined)}")
    header = SpectrumHeader(potential=cfg.potential, variant=cfg.variant, region=region,
                            tolerances={"rtol": cfg.rtol, "rtol_refine": cfg.rtol_refine},
                            s=s, warnings=warnings_list)
    return SpectrumRun(header=header, records=records_from_eigenvalues(zeros),
                       eigenvalues=zeros, unresolved=unresolved,
                       exit_code=2 if unresolved or uncertified or unrefined or conflict else 0)


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


def audit_symmetry(records: List[SpectrumRecord]) -> AuditEntry:
    """The record set must be closed under k -> -k and k -> k*.

    An image of k counts as present when some record lies within
    1e-9 (1 + |k|) of it.
    """
    ks = np.array([complex(r.re_k, r.im_k) for r in records], dtype=complex)
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
    ratio = scalars.q_at_1 / scalars.omega
    expected = (lambda n: 4 * n + 5) if ratio > 0 else (lambda n: 4 * n + 3)
    got = {}
    for n in ns:
        try:
            got[n] = gamma_contour_count(dev, n)
        except TspecError as exc:
            return AuditEntry("contour-counts", "fail", f"count failed at n={n}: {exc}")
    bad = {n: (got[n], expected(n)) for n in ns if got[n] != expected(n)}
    if bad:
        return AuditEntry("contour-counts", "fail", f"mismatches {bad}")
    return AuditEntry("contour-counts", "pass",
                      f"counts {got} match 4n+{5 if ratio > 0 else 3}")


def default_theorem_tag(scalars: PotentialScalars, variant: str) -> Optional[str]:
    omega_zero, q1_zero, dq1_zero = asy.vanishing(scalars)
    if variant == "dirichlet":
        if q1_zero:
            return None
        return "Dirichlet_ii" if omega_zero else "Dirichlet_i"
    if not q1_zero:
        return "T41ii_W22" if omega_zero else "T41i_W22"
    if not dq1_zero:
        return "T42ii" if omega_zero else "T42i"
    return None


def audit_residual_decay(zeros: List[Eigenvalue], scalars: PotentialScalars, variant: str,
                         theorem: Optional[str] = None) -> AuditEntry:
    tag = theorem or default_theorem_tag(scalars, variant)
    if tag is None:
        return AuditEntry("residual-decay", "skipped", "no asymptotic theorem applies")
    try:
        asy.predict_eigenvalues(scalars, tag, [5])  # hypothesis check first
    except HypothesisMismatchError as exc:
        return AuditEntry("residual-decay", "fail", f"hypothesis mismatch: {exc}")
    rows = [ev for ev in zeros if ev.index is not None and ev.index >= 1]
    if len(rows) < 4:
        return AuditEntry("residual-decay", "skipped",
                          f"only {len(rows)} indexed eigenvalues with n >= 1")
    try:
        pred = asy.predict_eigenvalues(scalars, tag, sorted({ev.index for ev in rows}))
        report = asy.residual_report(rows, pred)
    except HypothesisMismatchError as exc:
        return AuditEntry("residual-decay", "fail", f"hypothesis mismatch: {exc}")
    except DomainError as exc:
        return AuditEntry("residual-decay", "skipped", str(exc))
    ok = report.loglog_slope <= _SLOPE_TOL and report.tails_decreasing
    detail = (f"tag {tag}: slope {report.loglog_slope:.2f} (tol {_SLOPE_TOL}), "
              f"tail sums {report.tail_first:.3e} -> {report.tail_second:.3e}")
    return AuditEntry("residual-decay", "pass" if ok else "fail", detail)


def audit_gamma(dev: DEvaluator, zeros: List[Eigenvalue], scalars: PotentialScalars,
                variant: str, s: int = 0) -> AuditEntry:
    if not zeros:
        return AuditEntry("gamma-consistency", "skipped", "empty spectrum")
    try:
        hp = from_eigenvalues(zeros, s=s)
    except DomainError as exc:
        return AuditEntry("gamma-consistency", "fail", f"bad eigenvalue list: {exc}")
    if hp.truncation < 20:
        return AuditEntry("gamma-consistency", "skipped",
                          f"only {hp.truncation} eigenvalues; limit routes need >= 20")
    try:
        direct = gamma_direct(dev, hp)
    except ProbeTooCloseError as exc:
        return AuditEntry("gamma-consistency", "skipped", f"no clear probe point: {exc}")
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


def run_validate(cfg, header: SpectrumHeader, records: List[SpectrumRecord],
                 hash_ok: bool = True) -> ValidationReport:
    """Pass/fail table over symmetry, contour counts, residual decay, gamma routes."""
    report = ValidationReport()
    report.add("file-integrity", "pass" if hash_ok else "fail",
               "content hash matches" if hash_ok else "content hash mismatch")
    if not records:
        has_warning = any("degenerate" in w for w in header.warnings)
        report.add("symmetry-closure", "skipped", "empty spectrum")
        report.add("residual-decay", "skipped", "empty spectrum")
        report.add("gamma-consistency", "skipped", "empty spectrum")
        if not has_warning:
            report.add("empty-spectrum", "fail", "no records and no degeneracy warning")
        return report
    report.entries.append(audit_symmetry(records))
    try:
        p = Potential.from_dict(header.potential)
    except DomainError as exc:  # a malformed input file, as for the config's potential
        raise ConfigError(f"spectrum header potential: {exc}") from None
    scalars = derive_scalars(p)
    dev = DEvaluator(p, header.variant, rtol=cfg.rtol)
    contours = cfg.validate.get("contours", [2, 3])
    report.entries.append(audit_contours(dev, scalars, contours))
    zeros = eigenvalues_from_records(records)
    theorem = cfg.validate.get("theorem")
    report.entries.append(audit_residual_decay(zeros, scalars, header.variant, theorem))
    report.entries.append(audit_gamma(dev, zeros, scalars, header.variant, s=header.s))
    return report
