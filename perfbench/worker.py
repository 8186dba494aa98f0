"""Runs one workload's job list in this process through ``tspec.cli.main``.

Usage: python3 worker.py SPEC.json RESULT.json

SPEC holds the source directory, the job argv lists (``{out}`` marks the
output directory), the measuring time and the trace flag. One client, a
closed loop: jobs run one after another and a pass is one run of the whole
list. Untraced passes repeat while another one still fits in the measuring
time, each under a speed probe (``reference.py``) that samples the machine's
speed while the jobs run; with tracing on, one untraced and one traced pass
run instead, without the probe. RESULT receives the pass times, the probe's
burst times, exit codes, output digests, peak RSS and, when traced, the
per-layer metrics.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time

import reference


def digest(path: str) -> str:
    """Spectrum files by their content hash (it skips the timestamp), others by bytes."""
    if not os.path.exists(path):
        return "missing"
    if path.endswith(".json"):
        with open(path) as fh:
            doc = json.load(fh)
        if isinstance(doc, dict) and "content_hash" in doc.get("header", {}):
            return doc["header"]["content_hash"]
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def run_pass(cli, jobs, out_dir, probe=None):
    """One pass; output is discarded.

    Returns the wall and CPU seconds spent in the jobs, the wall seconds per
    job and the exit codes. With a ``probe``, each job runs under it and the
    probe's burst time is taken out of the job's wall and CPU time.
    ``cli.main`` is looked up on every call so a traced pass sees the wrapper.
    """
    os.makedirs(out_dir, exist_ok=True)
    argvs = [[a.replace("{out}", out_dir) for a in job["argv"]] for job in jobs]
    codes, job_seconds, cpu = [], [], 0.0
    for argv in argvs:
        burst_start = probe.seconds if probe else 0.0
        cpu_start = time.process_time()
        job_start = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()), \
                probe or contextlib.nullcontext():
            codes.append(cli.main(argv))
        bursts = (probe.seconds if probe else 0.0) - burst_start
        job_seconds.append(time.perf_counter() - job_start - bursts)
        cpu += time.process_time() - cpu_start - bursts
    return sum(job_seconds), cpu, job_seconds, codes


def main(spec_path: str, result_path: str) -> int:
    with open(spec_path) as fh:
        spec = json.load(fh)
    sys.path.insert(0, spec["src"])
    for var in [v for v in os.environ if v.startswith("TSPEC_")]:
        del os.environ[var]
    import tspec.cli as cli

    jobs, out_dir = spec["jobs"], spec["out_dir"]
    # Lazy imports and first-call set-up inside numpy/scipy, paid once per process.
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        cli.main(spec["warmup"])
    reference.burst()

    passes = []
    started = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        probe = None if spec["trace"] else reference.SpeedProbe()
        seconds, cpu, job_seconds, codes = run_pass(cli, jobs, out_dir, probe)
        if probe and not probe.count:   # a pass shorter than the probe's period
            probe.sample()
        passes.append({"seconds": seconds, "cpu_seconds": cpu, "job_seconds": job_seconds,
                       "burst_seconds": probe.seconds if probe else 0.0,
                       "bursts": probe.count if probe else 0, "codes": codes,
                       "digests": [digest(os.path.join(out_dir, j["out"])) for j in jobs]})
        now = time.perf_counter()
        if spec["trace"] or now + (now - pass_start) - started > spec["seconds"]:
            break
    result = {"passes": passes}

    if spec["trace"]:
        from tracing import Tracer, layer_metrics

        tracer = Tracer()
        tracer.install()
        try:
            seconds, _, _, codes = run_pass(cli, jobs, spec["trace_out_dir"])
        finally:
            tracer.uninstall()
        result["traced"] = {
            "seconds": seconds, "codes": codes, "spans": len(tracer.spans),
            "digests": [digest(os.path.join(spec["trace_out_dir"], j["out"])) for j in jobs],
            "metrics": layer_metrics(tracer.spans, seconds, passes[0]["seconds"]),
        }
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
