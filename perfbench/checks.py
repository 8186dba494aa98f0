"""Judging a pass's outputs against the oracles, outside the timed region.

An operation is one requested eigenvalue, one oracle zero in a region, one
audit, one gamma route or one charfun grid export. It fails when its job
exits non-zero, or when its value is missing, mis-indexed, off the oracle by
more than ``REL_TOL`` relative, or marked FAIL. A value that is present but
wrong (off the oracle, mis-indexed, a spurious zero, an audit verdict the
oracle contradicts) also makes the run incorrect.

Indexing oracle: with D's zeros numbered from ``n_min`` in order of Re k,
index n must have exactly n - n_min oracle zeros (first-quadrant
representatives, axes included) left of Re k_n - gap/2, where gap is the
asymptotic spacing; this is the count the paper's contour theorem fixes.
"""

from __future__ import annotations

import csv
import json
import math
import os

import numpy as np

from oracles import OracleD, count_in_box, digits, polish, rel_error, winding

REL_TOL = 1e-9
LIMIT_ROUTE_TOL = 0.10   # omega/endpoint routes against D(0): truncation-limited
AXIS_PAD = 0.02          # counting boxes reach this far past the axes
TOP = 6.0                # ... and up to this Im k, above every zero in the windows used
AUDITS = ("file-integrity", "symmetry-closure", "contour-counts", "residual-decay",
          "gamma-consistency")


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.digits = []
        self.problems = []

    def op(self, ok: bool, why: str = "", wrong: bool = False):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(why)
        if wrong:
            self.wrong += 1


def _reps(path):
    """First-quadrant records of a spectrum file: list of (index, k)."""
    with open(path) as fh:
        records = json.load(fh)["records"]
    out = []
    for r in records:
        k = complex(r["re_k"], r["im_k"])
        if k.real >= 0 and k.imag >= 0 and all(abs(k - o) > 1e-9 * (1 + abs(k)) for _, o in out):
            out.append((r["index"], k))
    return out


def _index_ok(d, k: complex, n, n_min: int, gap: float) -> bool:
    if n is None:
        return False
    right = k.real - 0.5 * gap
    below = count_in_box(d, -AXIS_PAD, right, -AXIS_PAD, TOP) if right > -AXIS_PAD else 0
    return below == n - n_min


def _polished(d, k):
    root, step = polish(d, [k])
    ok = step[0] <= 1e-12 * max(1.0, abs(root[0]))
    return complex(root[0]), ok


def check_targeted(job, code, path, tally, inputs):
    lo, hi = job.expect["n"]
    d = OracleD(job.config["potential"])
    by_index = {}
    if code == 0:
        for n, k in _reps(path):
            by_index.setdefault(n, k)
    for n in range(lo, hi + 1):
        where = f"{job.name} n={n}"
        if code != 0:
            tally.op(False, f"{where}: exit {code}")
            continue
        if n not in by_index:
            tally.op(False, f"{where}: missing")
            continue
        k = by_index[n]
        root, converged = _polished(d, k)
        err = rel_error(k, root)
        if not converged or err > REL_TOL:
            tally.op(False, f"{where}: {k} off the oracle root {root} (rel {err:.2e})", wrong=True)
            continue
        tally.digits.append(digits(err))
        if not _index_ok(d, root, n, 0, math.pi):
            tally.op(False, f"{where}: {k} is mis-indexed", wrong=True)
            continue
        tally.op(True)


def check_scan(job, code, path, tally, inputs):
    s0, s1, t0, t1 = job.expect["region"]
    n_min, gap = job.expect["n_min"], job.expect["gap"]
    d = OracleD(job.config["potential"])
    expected = count_in_box(d, s0, s1, t0, t1)
    if code != 0:
        for _ in range(expected):
            tally.op(False, f"{job.name}: exit {code}")
        return
    matched = 0
    for n, k in _reps(path):
        root, converged = _polished(d, k)
        err = rel_error(k, root)
        orbit = {complex(round(z.real, 9), round(z.imag, 9))
                 for z in (root, -root, root.conjugate(), -root.conjugate())}
        inside = sum(1 for z in orbit if s0 <= z.real <= s1 and t0 <= z.imag <= t1)
        where = f"{job.name} zero {k}"
        if not converged or err > REL_TOL:
            tally.problems.append(f"{where}: off the oracle root {root} (rel {err:.2e})")
            tally.wrong += 1
            continue
        tally.digits.append(digits(err))
        if not _index_ok(d, root, n, n_min, gap):
            for _ in range(inside):
                tally.op(False, f"{where}: index {n} is wrong", wrong=True)
        else:
            for _ in range(inside):
                tally.op(True)
        matched += inside
    for _ in range(expected - matched):
        tally.op(False, f"{job.name}: an oracle zero was not found")
    for _ in range(matched - expected):
        tally.op(False, f"{job.name}: more zeros reported than the oracle counts", wrong=True)


def check_validate(job, code, path, tally, inputs):
    pot = job.config["potential"]
    entries = {}
    if os.path.exists(path) and code in (0, 2):
        with open(path) as fh:
            entries = {e["name"]: e for e in json.load(fh)["entries"]}
    d = OracleD(pot)
    contours_ok = True
    for n in job.config["validate"]["contours"]:
        half = (n + 1) * math.pi

        def kd(ks):
            return ks * d(ks)

        corners = [complex(-half, -half), complex(half, -half), complex(half, half),
                   complex(-half, half)]
        # q = c > 0 has q(1)/omega = 1 > 0, so the theorem's count is 4n + 5.
        contours_ok &= winding(kd, corners, spacing=0.2) == 4 * n + 5
    for name in AUDITS:
        where = f"{job.name} {name}"
        entry = entries.get(name)
        if entry is None:
            tally.op(False, f"{where}: missing (exit {code})")
            continue
        ok = entry["status"] == "pass"
        wrong = name == "contour-counts" and ok != contours_ok
        tally.op(ok and not wrong, f"{where}: {entry['status']} ({entry['detail']})", wrong=wrong)


def _e_product(roots, k: complex) -> complex:
    lams = roots ** 2
    return complex(np.prod((1.0 - k * k / lams) * (1.0 - k * k / np.conj(lams))))


def check_gamma(job, code, path, tally, inputs):
    where = job.name
    doc = {}
    if os.path.exists(path):
        with open(path) as fh:
            doc = json.load(fh)
    if code != 0 or "gamma" not in doc:
        tally.op(False, f"{where}: exit {code} {doc.get('error', '')}".rstrip())
        return
    gamma = float(doc["gamma"])
    d = OracleD(job.config["potential"])
    if job.expect["route"] == "direct":
        probe = float(doc["probes"][0])
        roots = np.array([k for _, k in _reps(os.path.join(inputs, job.expect["spectrum"]))])
        ref = complex(d(np.array([probe], dtype=complex))[0] / _e_product(roots, probe)).real
        err = rel_error(gamma, ref)
        if err > REL_TOL:
            tally.op(False, f"{where}: {gamma} vs oracle {ref} (rel {err:.2e})", wrong=True)
            return
        tally.digits.append(digits(err))
        tally.op(True)
        return
    ref = d.at_zero()
    err = rel_error(gamma, ref)
    tally.op(err <= LIMIT_ROUTE_TOL, f"{where}: {gamma} vs D(0) = {ref} (rel {err:.2e})",
             wrong=err > LIMIT_ROUTE_TOL)


def check_grid(job, code, path, tally, inputs):
    if code != 0 or not os.path.exists(path):
        tally.op(False, f"{job.name}: exit {code}")
        return
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    ks = np.array([complex(float(r["re_k"]), float(r["im_k"])) for r in rows])
    got = np.array([complex(float(r["re_D"]), float(r["im_D"])) for r in rows])
    d = OracleD(job.config["potential"])
    ref = d(ks)
    zero = ks == 0
    # The scale of the terms D is built from; at k = 0 (no 1/k term) |D(0)| itself.
    scale = np.where(zero, np.maximum(np.abs(ref), 1.0), d.scale(np.where(zero, 1.0, ks)))
    errs = np.abs(got - ref) / scale
    worst = float(errs.max())
    if not np.all(np.isfinite(errs)) or worst > REL_TOL:
        tally.op(False, f"{job.name}: D off the oracle by {worst:.2e}", wrong=True)
        return
    tally.digits.append(digits(worst))
    tally.op(True)


CHECKS = {"targeted": check_targeted, "scan": check_scan, "validate": check_validate,
          "gamma": check_gamma, "grid": check_grid}


def check(jobs, codes, out_dir, input_dir) -> Tally:
    tally = Tally()
    for job, code in zip(jobs, codes):
        CHECKS[job.kind](job, code, os.path.join(out_dir, job.out), tally, input_dir)
    return tally
