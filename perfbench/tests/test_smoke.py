"""Fast checks of the benchmark's own parts; the timed runs are not exercised here.

Run with ``python3 -m pytest perfbench/tests -q`` from the repository root.
"""

import json
import math
import os
import shutil
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

import checks
import oracles
import reference
import tracing
import workloads
from tspec.potential import Potential, derive_scalars

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_seed_fixes_the_inputs(name):
    a, b, c = workloads.build(name, 5), workloads.build(name, 5), workloads.build(name, 6)
    assert [(j.config, j.args) for j in a.jobs] == [(j.config, j.args) for j in b.jobs]
    assert [j.config for j in a.jobs] != [j.config for j in c.jobs]


@pytest.mark.parametrize("seed", range(20))
def test_draws_keep_q1_and_omega_away_from_zero(seed):
    pots = workloads.targeted(seed).potentials() + workloads.scan(seed).potentials()
    cases = []
    for pot in pots:
        s = derive_scalars(Potential.from_dict(pot))
        assert abs(s.q_at_1) >= 0.35
        if pot["kind"] == "polynomial" and pot["h"] == 0.0:   # the omega = 0 strip
            assert abs(s.omega) < 1e-12
        else:
            assert abs(s.omega) >= 0.35
            cases.append(math.copysign(1.0, s.q_at_1 / s.omega))
    assert cases == [1.0, -1.0, 1.0, 1.0]


def test_ode_oracle_matches_closed_form():
    ks = np.array([0.37, 2.4 + 1.0j, 11.7 + 1.9j, 24.3 + 2.3j])
    closed = oracles.OracleD({"kind": "constant", "value": 1.3, "h": 0.4})
    ode = oracles.OracleD({"kind": "polynomial", "coeffs": [1.3], "h": 0.4})
    assert np.max(np.abs(closed(ks) - ode(ks)) / closed.scale(ks)) < 1e-11


def test_constant_spectrum_is_complete():
    roots = oracles.constant_spectrum(1.1, -0.3, 6)
    d = oracles.OracleD({"kind": "constant", "value": 1.1, "h": -0.3})
    assert np.max(np.abs(d(roots)) / d.scale(roots)) < 1e-12
    assert oracles.count_in_box(d, -0.02, 7 * math.pi, -0.02, 6.0) == 7


def _spectrum_file(tmp_path, n_hi, edit=None):
    from tspec.spectrumfile import SpectrumHeader, SpectrumRecord, write_spectrum

    pot = {"kind": "constant", "value": 1.1, "h": -0.3}
    roots = oracles.constant_spectrum(pot["value"], pot["h"], n_hi)
    if edit:
        roots, index = edit(roots)
    else:
        index = list(range(n_hi + 1))
    records = [SpectrumRecord(index=n, re_k=k.real, im_k=k.imag, multiplicity=1,
                              residual=0.0, cls="quadrant") for n, k in zip(index, roots)]
    header = SpectrumHeader(potential=pot, variant="robin", region=[], tolerances={})
    path = str(tmp_path / "spec.json")
    write_spectrum(path, header, records)
    job = workloads.Job(name="t", kind="targeted", config={"potential": pot}, args=[],
                        out="spec.json", expect={"n": [0, n_hi]})
    return job, path


def test_targeted_check_accepts_the_oracle_spectrum(tmp_path):
    job, path = _spectrum_file(tmp_path, 2)
    tally = checks.Tally()
    checks.check_targeted(job, 0, path, tally, None)
    assert (tally.attempted, tally.failed, tally.wrong) == (3, 0, 0)
    assert min(tally.digits) > 12


@pytest.mark.parametrize("edit, why, bad", [
    (lambda r: (r * (1 + 1e-8), [0, 1, 2]), "off the oracle", 3),
    (lambda r: (r, [0, 2, 1]), "mis-indexed", 2),
])
def test_targeted_check_flags_wrong_values(tmp_path, edit, why, bad):
    job, path = _spectrum_file(tmp_path, 2, edit)
    tally = checks.Tally()
    checks.check_targeted(job, 0, path, tally, None)
    assert tally.failed == tally.wrong == bad
    assert all(why in p for p in tally.problems)


def test_failed_job_counts_every_requested_index(tmp_path):
    job, path = _spectrum_file(tmp_path, 2)
    tally = checks.Tally()
    checks.check_targeted(job, 3, path, tally, None)
    assert (tally.attempted, tally.failed, tally.wrong) == (3, 3, 0)


def test_tracer_records_nested_spans_and_restores():
    import tspec.charfun
    import tspec.cli

    originals = (tspec.charfun.jost_at_zero_many, tspec.cli.run_spectrum,
                 tspec.charfun.DEvaluator.__call__)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        dev = tspec.charfun.DEvaluator(Potential.constant(1.0, h=0.2))
        dev(np.array([1.0 + 0.5j, 20.0]))
        dev(np.array([1.0 + 0.5j]))
    finally:
        tracer.uninstall()
    assert (tspec.charfun.jost_at_zero_many, tspec.cli.run_spectrum,
            tspec.charfun.DEvaluator.__call__) == originals
    names = [s.name for s in tracer.spans]
    assert names[:3] == ["charfun.DEvaluator.__call__", "charfun.eval_D_many",
                         "jost.jost_at_zero_many"]
    assert [s.parent for s in tracer.spans[:3]] == [None, 0, 1]
    m = tracing.layer_metrics(tracer.spans, 1.0, 1.0)
    assert m["jost.k"][0] == 4 and m["jost.us_per_k.mixed"][0] > 0
    assert m["charfun.points"][0] == 3
    assert m["charfun.cache_hit_ratio"][0] == pytest.approx(1 / 3)


def test_speed_probe_samples_while_the_block_runs_and_restores():
    before = signal.getsignal(signal.SIGALRM)
    with reference.SpeedProbe() as probe:
        deadline = time.perf_counter() + 0.3
        while time.perf_counter() < deadline:
            pass
    assert probe.count >= 3 and 0.0 < probe.seconds < 0.3
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_metric_names_match_benchmark_json():
    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    traced = tracing.layer_metrics([], 1.0, 1.0)
    assert sorted(traced) == sorted(m["name"] for m in bench["per_layer"])
    assert all(traced[m["name"]][1] == m["unit"] for m in bench["per_layer"])
    assert {m["name"] for m in bench["end_to_end"]} == {
        "wall_norm_s", "setup_s", "peak_rss_mb", "pass_frac", "acc_digits"}
    assert sorted(w["name"] for w in bench["workloads"]) == sorted(workloads.WORKLOADS)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "targeted",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert out.stdout == ""
