"""tspec benchmark: one workload, one seed, one run.

Usage, from the repository root:

    python3 perfbench/run.py --workload targeted --seed 1 --seconds 20 --trace 0

The run generates the workload's inputs from the seed, measures set-up time
in fresh interpreters, runs the job list through ``tspec.cli.main`` in a
worker process (one client, closed loop, jobs one after another, default
``threads = 1``), judges the outputs against independent oracles and prints
one JSON object as the last line of standard output. ``--trace 0`` reports
the end-to-end metrics, with pass times scaled to a fixed machine speed by
the speed probe of ``reference.py``; ``--trace 1`` runs one untraced and one
traced pass and reports the per-layer metrics. Everything the run writes lives under
``.perfbench_work/`` in the repository and is removed at the end.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

import checks
import reference
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
SETUP_PROBES = 5
WORKER_TIMEOUT_S = 150
PROBE_TIMEOUT_S = 30


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def setup_seconds(potentials_path: str) -> list:
    """Fresh-interpreter set-up samples (the caller has already filled __pycache__)."""
    samples = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen([sys.executable, os.path.join(HERE, "setup_probe.py"), SRC,
                               potentials_path], stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True) as proc:
            try:
                line = proc.stdout.readline()
                elapsed = time.perf_counter() - start
                proc.wait(timeout=PROBE_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                raise
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
        samples.append(elapsed)
    return samples


def run_worker(spec: dict, run_dir: str) -> dict:
    spec_path = os.path.join(run_dir, "worker-spec.json")
    result_path = os.path.join(run_dir, "worker-result.json")
    with open(spec_path, "w") as fh:
        json.dump(spec, fh)
    with open(os.path.join(run_dir, "worker.log"), "w") as log, \
            subprocess.Popen([sys.executable, os.path.join(HERE, "worker.py"), spec_path,
                              result_path], stdout=log, stderr=subprocess.STDOUT) as proc:
        try:
            code = proc.wait(timeout=WORKER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise RuntimeError(f"worker exceeded {WORKER_TIMEOUT_S} s")
    if code != 0:
        with open(os.path.join(run_dir, "worker.log")) as fh:
            sys.stderr.write(fh.read())
        raise RuntimeError(f"worker exited with code {code}")
    with open(result_path) as fh:
        return json.load(fh)


def _metric(value, unit):
    return {"value": float(value), "unit": unit}


def main(argv=None) -> int:
    args = _parse(argv)
    if not os.path.isfile(os.path.join(SRC, "tspec", "cli.py")):
        print(f"error: no tspec sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import tspec.cli  # noqa: F401 - compiles every module once, before the set-up probes

    wl = workloads.build(args.workload, args.seed)
    run_dir = os.path.join(WORK, f"{args.workload}-{args.seed}-{os.getpid()}")
    config_dir, input_dir = os.path.join(run_dir, "configs"), os.path.join(run_dir, "inputs")
    out_dir, trace_dir = os.path.join(run_dir, "out"), os.path.join(run_dir, "out-traced")
    os.makedirs(run_dir, exist_ok=True)
    try:
        workloads.write_inputs(wl, config_dir, input_dir)
        jobs = [{"out": job.out,
                 "argv": ["--config", os.path.join(config_dir, job.name + ".json"),
                          "--out", os.path.join("{out}", job.out)]
                 + [a.replace("{inputs}", input_dir) for a in job.args]}
                for job in wl.jobs]
        first = wl.jobs[0].name + ".json"
        spec = {"src": SRC, "jobs": jobs, "seconds": args.seconds, "trace": bool(args.trace),
                "out_dir": out_dir, "trace_out_dir": trace_dir,
                "warmup": ["--config", os.path.join(config_dir, first),
                           "charfun", "eval", "--k", "2.5,0.5"]}

        setup = []
        if not args.trace:
            potentials_path = os.path.join(run_dir, "potentials.json")
            with open(potentials_path, "w") as fh:
                json.dump(wl.potentials(), fh)
            setup = setup_seconds(potentials_path)

        result = run_worker(spec, run_dir)
        passes = result["passes"]
        tally = checks.check(wl.jobs, passes[-1]["codes"], out_dir, input_dir)
        consistent = all(p["codes"] == passes[0]["codes"] and p["digests"] == passes[0]["digests"]
                         for p in passes)
        if not consistent:
            tally.problems.append("outputs or exit codes differ between passes")
        traced = result.get("traced")
        if traced and (traced["digests"] != passes[0]["digests"]
                       or traced["codes"] != passes[0]["codes"]):
            consistent = False
            tally.problems.append("traced and untraced outputs differ")
        walls = [p["seconds"] for p in passes]
        # Each pass's time at the machine speed where a probe burst takes its nominal time.
        normed = [p["seconds"] * reference.NOMINAL_BURST_S * p["bursts"] / p["burst_seconds"]
                  for p in passes] if not args.trace else []

        if args.trace:
            metrics = {name: _metric(v, unit) for name, (v, unit) in traced["metrics"].items()}
        else:
            metrics = {
                "wall_norm_s": _metric(statistics.median(normed), "s"),
                "setup_s": _metric(statistics.median(setup), "s"),
                "peak_rss_mb": _metric(result["peak_rss_mb"], "MiB"),
                "pass_frac": _metric(1.0 - tally.failed / max(tally.attempted, 1), "ratio"),
                "acc_digits": _metric(min(tally.digits) if tally.digits else 0.0, "digits"),
            }
        if not all(math.isfinite(m["value"]) for m in metrics.values()):
            raise RuntimeError(f"non-finite metric in {metrics}")

        print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
              f"{len(wl.jobs)} jobs per pass, {len(walls)} untraced passes, "
              f"{len(setup)} set-up samples; with this few samples no upper percentile "
              f"has ten beyond it, so medians are reported")
        print("pass seconds: " + ", ".join(f"{w:.3f}" for w in walls)
              + " (CPU: " + ", ".join(f"{p['cpu_seconds']:.3f}" for p in passes) + ")"
              + f", median {statistics.median(walls):.3f}")
        if normed:
            print("probe bursts per pass: " + ", ".join(
                f"{p['bursts']} of {1e3 * p['burst_seconds'] / p['bursts']:.2f} ms" for p in passes)
                  + f" (nominal {1e3 * reference.NOMINAL_BURST_S:.2f} ms)")
            print("normalised pass seconds: " + ", ".join(f"{w:.3f}" for w in normed))
        job_medians = [statistics.median(t) for t in zip(*(p["job_seconds"] for p in passes))]
        print("job medians: " + ", ".join(f"{job.name} {t:.3f} s"
                                          for job, t in zip(wl.jobs, job_medians)))
        if traced:
            print(f"traced pass: {traced['seconds']:.3f} s, {traced['spans']} spans")
        print(f"operations: {tally.attempted} attempted, {tally.failed} failed, "
              f"{tally.wrong} wrong values")
        for problem in tally.problems:
            print(f"  {problem}")
        for name, m in metrics.items():
            print(f"  {name:<34} {m['value']:.6g} {m['unit']}")
        print(json.dumps({"correct": consistent and tally.wrong == 0,
                          "attempted": tally.attempted, "failed": tally.failed,
                          "metrics": metrics}))
        return 0
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
