"""Seeded workload generation: run configs, input spectrum files and job lists.

The program only ever sees the files written here. Every draw comes from
``numpy.random.default_rng(seed)``, so a seed fixes the inputs exactly.
Draws keep q(1) and omega at least 0.36 away from 0, except in the omega = 0
strip job, where omega vanishes by construction. The ranges are narrow on
purpose: the benchmark compares medians over seeds, so the work a draw
implies must not swing much from seed to seed.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from oracles import OracleD, constant_spectrum

WORKLOADS = ("targeted", "scan", "validate")

# Index windows and regions are sized so one pass of a job list takes a few
# seconds on a 2-core machine, while keeping the |k| bands (b = floor(log2(1+|k|)))
# and potential kinds of the full-size runs they stand for.
TARGETED_WINDOWS = {"constant": (1, 1), "polynomial": (3, 3), "grid": (0, 0)}
SCAN_CONSTANT_REGION = (0.0, 6.0, 0.0, 3.0)
SCAN_STRIP_REGION = (7.2, 8.7, -0.6, 0.6)
# Upper ends of c and h for the scan's constant q: the region search costs up
# to 20 % more towards large c and h > 0, so the draw stays below them.
SCAN_CONSTANT_DRAW = (1.15, 0.1)
VALIDATE_SHORT_N = 29
VALIDATE_LONG_N = 400
VALIDATE_CONTOURS = [3]
GRID_REGION = "0,10,0,3"
GRID_SHAPE = (16, 8)


@dataclass
class Job:
    """One CLI invocation: ``--config <config> --out <out> <args...>``."""

    name: str
    kind: str           # targeted | scan | validate | gamma | grid
    config: dict
    args: list
    out: str
    expect: dict = field(default_factory=dict)


@dataclass
class Workload:
    jobs: list
    inputs: dict = field(default_factory=dict)   # spectrum file name -> (potential, n_hi)

    def potentials(self):
        """The distinct potential mappings of the job list, in job order."""
        seen = []
        for job in self.jobs:
            if job.config["potential"] not in seen:
                seen.append(job.config["potential"])
        return seen


def _robin(pot: dict, **sections) -> dict:
    return {"potential": pot, "variant": "robin", **sections}


def _h(rng, lo: float = -0.25, hi: float = 0.25) -> float:
    return float(rng.uniform(lo, hi))


def _constant(rng, c_hi: float = 1.3, h_hi: float = 0.25) -> dict:
    return {"kind": "constant", "value": float(rng.uniform(0.9, c_hi)), "h": _h(rng, hi=h_hi)}


def _signed_pair(rng, case: float):
    """(q(1), omega): q(1) of drawn sign, |q(1)/omega| in [1.8, 2.2], q(1)/omega of sign ``case``."""
    q1 = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.8, 1.0))
    omega = case * q1 / rng.uniform(1.8, 2.2)
    return q1, omega


def _linear(rng, case: float) -> dict:
    q1, omega = _signed_pair(rng, case)
    # q = a + b x has q(1) = a + b and omega = a + b/2.
    return {"kind": "polynomial", "coeffs": [2.0 * omega - q1, 2.0 * (q1 - omega)],
            "h": _h(rng)}


def _spline(rng, case: float, knots: int = 9) -> dict:
    q1, omega = _signed_pair(rng, case)
    samples = omega + 0.15 * rng.uniform(-1.0, 1.0, knots)
    samples[-1] = q1
    # Shift the free samples so the trapezoid mean, close to the spline's, is omega.
    trap = np.full(knots, 1.0 / (knots - 1))
    trap[[0, -1]] *= 0.5
    samples[:-1] += (omega - float(trap @ samples)) / float(trap[:-1].sum())
    return {"kind": "grid", "samples": [float(s) for s in samples], "h": _h(rng)}


def _strip(rng) -> dict:
    a = float(rng.choice([-1.0, 1.0]) * rng.uniform(1.0, 1.3))
    return {"kind": "polynomial", "coeffs": [-0.5 * a, a], "h": 0.0}


def targeted(seed: int) -> Workload:
    rng = np.random.default_rng(seed)
    jobs = []
    for kind, pot in (("constant", _constant(rng)), ("polynomial", _linear(rng, -1.0)),
                      ("grid", _spline(rng, 1.0))):
        lo, hi = TARGETED_WINDOWS[kind]
        jobs.append(Job(name=f"{kind}-n{lo}..{hi}", kind="targeted", config=_robin(pot),
                        args=["spectrum", "--n", f"{lo}..{hi}"], out=f"{kind}.json",
                        expect={"n": [lo, hi]}))
    return Workload(jobs)


def scan(seed: int) -> Workload:
    rng = np.random.default_rng(seed)
    jobs = []
    # Theorem numbering: omega != 0 starts at n = 0 with spacing pi, omega = 0
    # at n = 1 with spacing pi/2.
    for name, pot, region, n_min, gap in (
            ("constant", _constant(rng, *SCAN_CONSTANT_DRAW), SCAN_CONSTANT_REGION, 0, math.pi),
            ("strip", _strip(rng), SCAN_STRIP_REGION, 1, 0.5 * math.pi)):
        jobs.append(Job(name=f"{name}-region", kind="scan", config=_robin(pot),
                        args=["spectrum", "--region", ",".join(repr(v) for v in region)],
                        out=f"{name}.json",
                        expect={"region": list(region), "n_min": n_min, "gap": gap}))
    return Workload(jobs)


def validate(seed: int) -> Workload:
    rng = np.random.default_rng(seed)
    c = float(rng.uniform(0.9, 1.3))
    # h in [0.2, 0.4]: where the omega-limit gamma route is known to break
    # (extrapolant gap 0.08-0.14 > 0.05), so that failure shows on every seed.
    h = float(rng.uniform(0.2, 0.4))
    pot = {"kind": "constant", "value": c, "h": h}
    cfg = _robin(pot, validate={"contours": VALIDATE_CONTOURS})
    wl = Workload([])
    for label, n_hi in (("short", VALIDATE_SHORT_N), ("long", VALIDATE_LONG_N)):
        spec = f"{label}-spectrum.json"
        wl.inputs[spec] = (pot, n_hi)
        src = ["--spectrum", os.path.join("{inputs}", spec)]
        wl.jobs.append(Job(name=f"{label}-validate", kind="validate", config=cfg,
                           args=["validate"] + src, out=f"{label}-validate.json",
                           expect={"spectrum": spec}))
        for route in ("omega", "endpoint", "direct"):
            wl.jobs.append(Job(name=f"{label}-gamma-{route}", kind="gamma", config=cfg,
                               args=["gamma", "--route", route] + src,
                               out=f"{label}-gamma-{route}.json",
                               expect={"spectrum": spec, "route": route}))
        nx, ny = GRID_SHAPE
        wl.jobs.append(Job(name=f"{label}-grid", kind="grid", config=cfg,
                           args=["charfun", "grid", "--region", GRID_REGION,
                                 "--nx", str(nx), "--ny", str(ny)],
                           out=f"{label}-grid.csv", expect={}))
    return wl


def build(name: str, seed: int) -> Workload:
    return {"targeted": targeted, "scan": scan, "validate": validate}[name](seed)


def write_inputs(wl: Workload, config_dir: str, input_dir: str):
    """Write every job's run config and the closed-form spectrum files."""
    from tspec.spectrumfile import SpectrumHeader, SpectrumRecord, write_spectrum

    os.makedirs(config_dir, exist_ok=True)
    os.makedirs(input_dir, exist_ok=True)
    for job in wl.jobs:
        with open(os.path.join(config_dir, job.name + ".json"), "w") as fh:
            json.dump(job.config, fh)
    for fname, (pot, n_hi) in wl.inputs.items():
        roots = constant_spectrum(pot["value"], pot["h"], n_hi)
        residuals = np.abs(OracleD(pot)(roots))
        records = [SpectrumRecord(index=n, re_k=float(k.real), im_k=float(k.imag),
                                  multiplicity=1, residual=float(r), cls="quadrant")
                   for n, (root, r) in enumerate(zip(roots, residuals))
                   for k in (root, -root, root.conjugate(), -root.conjugate())]
        header = SpectrumHeader(potential=pot, variant="robin",
                                region=[0.0, (n_hi + 1) * math.pi, 0.0, 6.0],
                                tolerances={"rtol": 1e-12, "rtol_refine": 1e-13}, s=0,
                                created="closed form")
        write_spectrum(os.path.join(input_dir, fname), header, records)
