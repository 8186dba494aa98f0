"""Batch command-line driver: config in, structured JSON/CSV out.

Exit codes: 0 success, 1 configuration/schema or usage error (an output path
that cannot be written included), 2 unresolved clusters, failed validation
audits or failed grid points (partial results still written), 3 computation
failure.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import sys
from dataclasses import asdict

import numpy as np

from . import __version__
from . import asymptotics as asy
from .charfun import DEvaluator, eval_D_many, sample_D_grid
from .config import RunConfig, check_values, load_config
from .errors import ConfigError, DomainError, TspecError, UnstableLimitError
from .gamma_recovery import (from_representatives, gamma_direct, gamma_from_endpoint,
                             gamma_from_omega)
from .pipeline import _file_potential, eigenvalues_from_columns, run_spectrum, validate_columns
from .potential import Potential, derive_scalars, finite_real
from .spectrumfile import read_spectrum, write_spectrum, write_spectrum_csv


def _finite(text: str) -> float:
    value = float(text)
    if not finite_real(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def _parse_pair(text: str):
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("expected re,im")
    return complex(_finite(parts[0]), _finite(parts[1]))


def _parse_region(text: str):
    parts = [float(v) for v in text.split(",")]
    if len(parts) != 4:
        raise argparse.ArgumentTypeError("expected sigma0,sigma1,tau0,tau1")
    return parts


def _parse_range(text: str):
    lo, _, hi = text.partition("..")
    if not hi:
        raise argparse.ArgumentTypeError("expected lo..hi")
    return [int(lo), int(hi)]


def _predict_range(text: str):
    lo, hi = _parse_range(text)
    if not 1 <= lo <= hi:
        raise argparse.ArgumentTypeError(f"expected 1 <= lo <= hi, got {text!r}")
    return [lo, hi]


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1, the configuration-error code; 2 means unresolved or failed audits."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built on first use and then shared: parse_args does not change it."""
    parser = _Parser(prog="tspec", description=__doc__)
    parser.add_argument("--version", action="version", version=f"tspec {__version__}")
    parser.add_argument("--config", help="run-config JSON path")
    parser.add_argument("--out", help="output path")
    parser.add_argument("--tol", type=float, help="override the integrator tolerance")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("spectrum", help="locate and index transmission eigenvalues")
    sp.add_argument("--region", type=_parse_region, help="sigma0,sigma1,tau0,tau1")
    sp.add_argument("--depth", type=int, help="max subdivision depth")
    sp.add_argument("--n", type=_parse_range, help="targeted index range lo..hi")

    cf = sub.add_parser("charfun", help="evaluate the characteristic function")
    cfsub = cf.add_subparsers(dest="subcommand", required=True)
    cfe = cfsub.add_parser("eval", help="print D(k) at one point")
    cfe.add_argument("--k", type=_parse_pair, required=True, metavar="RE,IM")
    cfg_ = cfsub.add_parser("grid", help="export D over a grid as CSV")
    cfg_.add_argument("--region", type=_parse_region)
    cfg_.add_argument("--nx", type=_positive_int, default=32)
    cfg_.add_argument("--ny", type=_positive_int, default=16)

    ap = sub.add_parser("asymptotics", help="asymptotic predictions and residuals")
    apsub = ap.add_subparsers(dest="subcommand", required=True)
    app = apsub.add_parser("predict", help="emit sqrt-eigenvalue predictions")
    app.add_argument("--theorem", required=True, choices=asy.THEOREM_TAGS)
    app.add_argument("--n", type=_predict_range, required=True, metavar="LO..HI")
    apr = apsub.add_parser("residuals", help="join a spectrum with predictions")
    apr.add_argument("--spectrum", required=True)
    apr.add_argument("--theorem", choices=asy.THEOREM_TAGS)

    gm = sub.add_parser("gamma", help="recover the normalization constant")
    gm.add_argument("--route", required=True, choices=["omega", "endpoint", "direct"])
    gm.add_argument("--spectrum", required=True)
    gm.add_argument("--probe", type=_finite,
                    help="direct-route probe k (default: first clear one)")

    va = sub.add_parser("validate", help="audit a spectrum file")
    va.add_argument("--spectrum")
    return parser


def _load_run_config(args) -> RunConfig:
    if not args.config:
        raise ConfigError("a --config file is required")
    cfg = load_config(args.config)
    if args.tol is not None:
        cfg.tolerances = dict(cfg.tolerances, rtol=args.tol)
    if args.out is not None:
        cfg.out = args.out
    if args.command == "spectrum":
        flags = {"region": args.region, "depth": args.depth, "n": args.n}
        cfg.spectrum = dict(cfg.spectrum, **{k: v for k, v in flags.items() if v is not None})
    elif args.command == "charfun" and args.subcommand == "grid" and args.region is not None:
        cfg.charfun = dict(cfg.charfun, region=args.region)
    check_values(cfg)
    return cfg


def _emit_json(obj, path=None):
    text = json.dumps(obj, indent=2, default=_jsonable) + "\n"
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _jsonable(value):
    if isinstance(value, complex):
        return {"re": value.real, "im": value.imag}
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, np.ndarray):
        return value.tolist()
    raise TypeError(f"not JSON serializable: {type(value)}")


def _cmd_spectrum(cfg: RunConfig, args) -> int:
    run = run_spectrum(cfg)
    out = cfg.out or "spectrum.json"
    write_spectrum(out, run.header, run.records)
    if out.endswith(".json"):
        write_spectrum_csv(out[:-5] + ".csv", run.records)
    for w in run.header.warnings:
        print(f"warning: {w}", file=sys.stderr)
    print(f"wrote {len(run.records)} records to {out}", file=sys.stderr)
    return run.exit_code


def _cmd_charfun(cfg: RunConfig, args) -> int:
    p = Potential.from_dict(cfg.potential)
    if args.subcommand == "eval":
        value = eval_D_many(p, [args.k], variant=cfg.variant, rtol=cfg.rtol)[0]
        _emit_json({"k": args.k, "D": complex(value), "variant": cfg.variant, "h": p.h}, cfg.out)
        return 0
    region = cfg.charfun.get("region", [0.0, 10.0, 0.0, 3.0])
    samples = sample_D_grid(p, cfg.variant, region, args.nx, args.ny, rtol=cfg.rtol)
    out = cfg.out or "charfun_grid.csv"
    with open(out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["re_k", "im_k", "re_D", "im_D"])
        for s in samples:
            writer.writerow([repr(s.k.real), repr(s.k.imag),
                             repr(s.value.real), repr(s.value.imag)])
    print(f"wrote {len(samples)} samples to {out}", file=sys.stderr)
    failures = sum(1 for s in samples if s.error)
    if failures:
        print(f"warning: {failures} grid points failed", file=sys.stderr)
    return 2 if failures else 0


def _load_spectrum(path):
    """The header, representatives (eigenvalues_from_columns), potential and scalars
    of a spectrum file (the potential is the header's, not the config's); a hash
    mismatch warns."""
    header, columns, hash_ok = read_spectrum(path)
    if not hash_ok:
        print("warning: spectrum file content hash mismatch", file=sys.stderr)
    return (header, eigenvalues_from_columns(columns), *_file_potential(header))


def _cmd_asymptotics(cfg: RunConfig, args) -> int:
    if args.subcommand == "predict":
        scalars = derive_scalars(Potential.from_dict(cfg.potential))
        lo, hi = args.n
        pred = asy.predict_eigenvalues(scalars, args.theorem, range(lo, hi + 1))
        _emit_json({
            "theorem": pred.theorem_tag,
            "constants": pred.constants,
            "rows": [{"n": n, "branch": b, "sqrt_lambda": v, "mu": m, "correction": c}
                     for n, b, v, m, c in zip(pred.ns, pred.branches, pred.values,
                                              pred.mus, pred.corrections)],
        }, cfg.out)
        return 0
    header, zeros, _, scalars = _load_spectrum(args.spectrum)
    ns = sorted({n for n in zeros.index if n is not None and n >= 1})
    if not ns:
        print("error: spectrum file has no indexed eigenvalues", file=sys.stderr)
        return 3
    tag = args.theorem or asy.default_theorem_tag(scalars, header.variant)
    if tag is None:
        raise DomainError("no asymptotic theorem applies to the spectrum file's potential "
                          f"and variant {header.variant!r}")
    pred = asy.predict_eigenvalues(scalars, tag, ns)
    report = asy.residual_report(zeros, pred)
    if report.nonfinite:
        raise DomainError(f"|eps_n|^2 is not finite at indices {report.nonfinite}")
    out = cfg.out or "residuals.csv"
    with open(out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["n", "re_eps", "im_eps", "abs_eps", "n_abs_eps"])
        for row in report.to_rows():
            writer.writerow([row[0]] + [repr(v) for v in row[1:]])
    summary = {"theorem": tag, "loglog_slope": report.loglog_slope,
               "tail_first": report.tail_first, "tail_second": report.tail_second,
               "tails_decreasing": report.tails_decreasing,
               "next_order_mean": report.next_order_mean}
    print(json.dumps(summary, indent=2, default=_jsonable), file=sys.stderr)
    print(f"wrote residual table to {out}", file=sys.stderr)
    return 0


def _cmd_gamma(cfg: RunConfig, args) -> int:
    header, zeros, p, scalars = _load_spectrum(args.spectrum)
    warnings = asy._index_warnings(zeros.index, scalars, header.variant)
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)
    hp = from_representatives(zeros.k, zeros.multiplicity, zeros.cls, s=header.s)
    try:
        if args.route == "omega":
            est = gamma_from_omega(hp, scalars, header.variant)
        elif args.route == "endpoint":
            est = gamma_from_endpoint(hp, scalars, header.variant)
        else:
            dev = DEvaluator(p, header.variant, rtol=cfg.rtol)
            est = gamma_direct(dev, hp, args.probe)
    except UnstableLimitError as exc:
        _emit_json({"error": str(exc), "diagnostics": exc.diagnostics, "warnings": warnings},
                   cfg.out)
        return 3
    _emit_json({"gamma": est.gamma, "route": est.route, "truncation": est.truncation,
                "probes": list(est.probes), "diagnostics": est.diagnostics,
                "warnings": warnings}, cfg.out)
    return 0


def _cmd_validate(cfg: RunConfig, args) -> int:
    path = args.spectrum or cfg.validate.get("spectrum")
    if not path:
        raise ConfigError("validate needs --spectrum or validate.spectrum in the config")
    header, columns, hash_ok = read_spectrum(path)
    report = validate_columns(cfg, header, columns, hash_ok)
    width = max(len(e.name) for e in report.entries)
    for e in report.entries:
        print(f"{e.name:<{width}}  {e.status.upper():<7}  {e.detail}")
    if cfg.out:
        _emit_json({"entries": [asdict(e) for e in report.entries],
                    "failed": report.failed}, cfg.out)
    return 2 if report.failed else 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _load_run_config(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    try:
        if args.command == "spectrum":
            return _cmd_spectrum(cfg, args)
        if args.command == "charfun":
            return _cmd_charfun(cfg, args)
        if args.command == "asymptotics":
            return _cmd_asymptotics(cfg, args)
        if args.command == "gamma":
            return _cmd_gamma(cfg, args)
        if args.command == "validate":
            return _cmd_validate(cfg, args)
        parser.error(f"unknown command {args.command}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except TspecError as exc:
        print(f"computation failed: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
