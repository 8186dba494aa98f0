import argparse
import ast
import contextlib
import csv
import importlib.util
import io
import json
import math
import os
import pathlib
import re
import subprocess
import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tspec.charfun
from tspec import pipeline, spectrumfile
from tspec.cli import _build_parser, main
from tspec.errors import ConfigError
from tspec.jost import transfer_many
from tspec.spectrumfile import _RECORD_FIELDS, SpectrumRecord, read_spectrum

_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner,
                                                                max_size=3),
    max_leaves=6)


def _read_records(path):
    """read_spectrum with the record columns turned into one SpectrumRecord per row."""
    header, columns, hash_ok = read_spectrum(path)
    return header, list(map(SpectrumRecord, *columns)), hash_ok


@contextlib.contextmanager
def _inside(path):
    """Run the block with `path` as the working directory, where a relative "out" lands."""
    cwd = os.getcwd()
    os.chdir(path)
    try:
        yield
    finally:
        os.chdir(cwd)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("cli")


@pytest.fixture(scope="module")
def config_path(workdir):
    cfg = {
        "potential": {"kind": "constant", "value": 1.0, "h": 0.0},
        "variant": "robin",
        "spectrum": {"region": [1.5, 4.0, 0.5, 2.0]},
        "validate": {"contours": [2]},
    }
    path = workdir / "cfg.json"
    path.write_text(json.dumps(cfg))
    return str(path)


@pytest.fixture(scope="module")
def spectrum_path(workdir, config_path):
    out = workdir / "spec.json"
    code = main(["--config", config_path, "--out", str(out), "spectrum"])
    assert code == 0
    return str(out)


class TestSpectrumCommand:
    def test_writes_json_and_csv(self, spectrum_path):
        header, records, hash_ok = _read_records(spectrum_path)
        assert hash_ok
        assert len(records) == 4
        assert all(r.index == 0 for r in records)
        with open(spectrum_path[:-5] + ".csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0][0] == "index"
        assert len(rows) == 5

    def test_round_trip_lossless(self, spectrum_path):
        header, records, _ = _read_records(spectrum_path)
        with open(spectrum_path) as fh:
            doc = json.load(fh)
        for rec, raw in zip(records, doc["records"]):
            assert rec.re_k == raw["re_k"] and rec.im_k == raw["im_k"]
            assert rec.residual == raw["residual"]

    def test_determinism_modulo_timestamp(self, workdir, config_path):
        out1, out2 = workdir / "d1.json", workdir / "d2.json"
        assert main(["--config", config_path, "--out", str(out1), "spectrum"]) == 0
        assert main(["--config", config_path, "--out", str(out2), "spectrum"]) == 0
        doc1 = json.loads(out1.read_text())
        doc2 = json.loads(out2.read_text())
        assert doc1["header"].pop("created") != ""
        assert doc2["header"].pop("created") != ""
        assert doc1 == doc2

    def test_malformed_config_exit_1(self, workdir):
        bad = workdir / "bad.json"
        bad.write_text(json.dumps({"potential": {"kind": "constant", "value": 1.0},
                                   "variant": "robin"}))
        out = workdir / "never.json"
        code = main(["--config", str(bad), "--out", str(out), "spectrum"])
        assert code == 1
        assert not out.exists()

    def test_targeted_index_mode(self, workdir, config_path):
        out = workdir / "targeted.json"
        code = main(["--config", config_path, "--out", str(out),
                     "spectrum", "--n", "1..1"])
        assert code == 0
        _, records, _ = _read_records(str(out))
        assert {r.index for r in records} == {1}

    # q = a + b x with q(1)/omega near -2: the n = 0 zero is purely imaginary,
    # 2.03 from its real-axis target, so only the theorem's count places it.
    LOW_INDEX = {"potential": {"kind": "polynomial",
                               "coeffs": [-1.6685632173450171, 2.528261446027842],
                               "h": -0.20404202893245155}, "variant": "robin"}

    def _spectrum(self, workdir, config, argv, name="targeted_spec.json"):
        cfg = workdir / ("cfg_" + name)
        cfg.write_text(json.dumps(config))
        out = workdir / name
        code = main(["--config", str(cfg), "--out", str(out), "spectrum"] + argv)
        return (code, *_read_records(str(out))[:2]) if out.exists() else (code, None, [])

    def test_imaginary_low_index_from_the_strip_scan(self, workdir):
        # The asymptotic target of index 0 is k = 0.98 on the real axis, where
        # |D| = 0.44; the scan of the strip from Re k = 0 finds the zero 1.77446i.
        code, header, records = self._spectrum(workdir, self.LOW_INDEX, ["--n", "0..1"])
        assert code == 0 and header.warnings == []
        zero = [complex(r.re_k, r.im_k) for r in records if r.index == 0]
        assert len(zero) == 2 and all(abs(abs(k) - 1.774456642982) < 1e-9 for k in zero)
        assert all(abs(k.real) < 1e-12 for k in zero)

    def test_index_window_and_region_agree(self, workdir):
        # Both modes number the zeros the same way: --n 0..3 gives the records
        # of indices 0..3 that a region scan over them gives.
        def reps(records):
            return sorted({(r.index, round(abs(r.re_k), 11), round(abs(r.im_k), 11))
                           for r in records})

        window = self._spectrum(workdir, self.LOW_INDEX, ["--n", "0..3"], "window.json")
        region = self._spectrum(workdir, self.LOW_INDEX, ["--region", f"0,{3.5 * math.pi},0,3"],
                                "region.json")
        assert window[0] == region[0] == 0
        assert [n for n, *_ in reps(window[2])] == [0, 1, 2, 3]
        assert reps(window[2]) == reps(region[2])

    def test_index_with_no_zero_in_the_strip_exits_2(self, workdir, capsys):
        # Spline q with q(1)/omega ~ -2.02: its n = 0 zero, at 4.758i, lies above
        # the strip [0, 1.5 pi + Re mu_1] x [0, 3], so index 0 gets no record.
        config = {"potential": {"kind": "grid", "h": -0.0346859897929111, "samples": [
            -0.4159495776639774, -0.5623595958111679, -0.4606601064123456,
            -0.44688279904103756, -0.5426765140921641, -0.3702250430605234,
            -0.5564965825068666, -0.4732297313345891, 0.84736210131922]}, "variant": "robin"}
        code, header, records = self._spectrum(workdir, config, ["--n", "0..1"])
        assert code == 2
        assert header.warnings == ["targeted roots at indices [0] not certified"]
        assert "indices [0] not certified" in capsys.readouterr().err
        assert {r.index for r in records} == {1}

    def test_unrefined_targeted_root_is_written_and_warned(self, workdir, monkeypatch):
        # A zero the strip scan leaves unrefined still takes its index.
        def unrefined(f, region, **kw):
            res = search(f, region, **kw)
            res.zeros = [replace(ev, refined=False) for ev in res.zeros]
            return res

        search = pipeline.find_zeros
        monkeypatch.setattr(pipeline, "find_zeros", unrefined)
        code, header, records = self._spectrum(workdir, self.LOW_INDEX, ["--n", "1..1"])
        assert code == 2
        assert header.warnings == ["targeted roots at indices [1] not certified"]
        assert {r.index for r in records} == {1}

    def test_indexing_conflict_exits_2(self, workdir):
        # Constant q = 9.27019472424975: two simple real zeros 9.4e-4 apart
        # both match index 0. The scan writes them unindexed; both modes warn.
        config = {"potential": {"kind": "constant", "value": 9.27019472424975, "h": 0.0},
                  "variant": "robin"}
        code, header, records = self._spectrum(workdir, config,
                                               ["--region", "2.3,3.3,-0.4,0.4"], "scan.json")
        assert code == 2
        assert [w for w in header.warnings if w.startswith("indexing: ")]
        assert len(records) == 4 and {r.index for r in records} == {None}
        code, header, records = self._spectrum(workdir, config, ["--n", "0..0"], "window.json")
        assert code == 2 and records == []
        assert [w for w in header.warnings if w.startswith("indexing: ")]

    def test_targeted_newton_stays_near_the_indices(self, workdir, monkeypatch):
        # The index-0 seed has no zero nearby; its Newton iterates once walked
        # out to |k| = 23,581. Nothing targeted at n <= 1 needs |k| > 3 pi.
        seen = []
        eval_d = tspec.charfun.eval_D_many

        def spy(p, ks, *args, **kwargs):
            seen.append(np.abs(np.asarray(ks, dtype=complex)).max(initial=0.0))
            return eval_d(p, ks, *args, **kwargs)

        monkeypatch.setattr(tspec.charfun, "eval_D_many", spy)
        code, _, _ = self._spectrum(workdir, self.LOW_INDEX, ["--n", "0..1"])
        assert code == 0
        assert seen and max(seen) <= 3 * math.pi

    @pytest.mark.parametrize("config, argv, code, needle", [
        # q(1)/omega ~ 0.017: the box search for the leading zeros of g1/k
        # runs a few box sides from where exp(2ik) overflows.
        ({"potential": {"kind": "polynomial", "coeffs": [4.52975068683921, -4.4907773853206105],
                        "h": 0.0}, "variant": "dirichlet"}, ["--n", "0..4"], 2,
         "index window 0..4 starts below the theorem's first index 1"),
        ({"potential": {"kind": "polynomial", "coeffs": [1e300, 1e300], "h": 0.0},
          "variant": "robin"}, ["--n", "1..2"], 3, "q^2 integral overflows"),
        ({"potential": {"kind": "constant", "value": 1e200, "h": 0.0}, "variant": "robin"},
         ["--n", "1..2"], 3, "q^2 integral overflows"),
    ], ids=["dirichlet-small-ratio", "q-squared-overflows", "constant-q-squared-overflows"])
    def test_no_runtime_warning(self, workdir, capsys, config, argv, code, needle):
        cfg = workdir / "quiet.json"
        cfg.write_text(json.dumps(config))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = main(["--config", str(cfg), "--out", str(workdir / "quiet_spec.json"),
                        "spectrum"] + argv)
        err = capsys.readouterr().err
        assert got == code and needle in err
        assert "RuntimeWarning" not in err

    def test_degenerate_potential_warns(self, workdir, capsys):
        cfg = workdir / "zero.json"
        cfg.write_text(json.dumps({"potential": {"kind": "constant", "value": 0.0, "h": 0.0},
                                   "variant": "robin"}))
        out = workdir / "zero_spec.json"
        code = main(["--config", str(cfg), "--out", str(out), "spectrum"])
        assert code == 0
        _, records, _ = _read_records(str(out))
        assert records == []
        assert "degenerate" in capsys.readouterr().err

    def test_degenerate_potential_index_window(self, workdir, capsys):
        # q = 0 has no numbering theorem; the strip is placed before the
        # degeneracy verdict, and its failure must not mask that verdict.
        config = {"potential": {"kind": "constant", "value": 0.0, "h": 0.0}, "variant": "robin"}
        code, header, records = self._spectrum(workdir, config, ["--n", "1..3"], "zero_n.json")
        assert code == 0 and records == []
        assert [w for w in header.warnings if "degenerate" in w]
        assert "degenerate" in capsys.readouterr().err

    def test_no_numbering_theorem_exits_3(self, workdir, capsys):
        # q = (1 - x)^2: q(1) = q'(1) = 0 but D is not identically zero.
        config = {"potential": {"kind": "polynomial", "coeffs": [1.0, -2.0, 1.0], "h": 0.0},
                  "variant": "robin"}
        code, _, _ = self._spectrum(workdir, config, ["--n", "1..3"], "no_theorem.json")
        assert code == 3
        assert "no numbering theorem" in capsys.readouterr().err

    # q = 1 - x: q(1) = 0 and q'(1) = -1, where no theorem numbers a Dirichlet spectrum.
    DIRICHLET_Q1_ZERO = {"potential": {"kind": "polynomial", "coeffs": [1.0, -1.0], "h": 0.0},
                         "variant": "dirichlet"}

    def test_dirichlet_with_q1_zero_index_window_exits_3(self, workdir, capsys):
        code, _, records = self._spectrum(workdir, self.DIRICHLET_Q1_ZERO, ["--n", "1..8"],
                                          "dirichlet_q1_zero_n.json")
        err = capsys.readouterr().err
        assert code == 3 and records == []
        assert "computation failed: no numbering theorem applies" in err

    def test_dirichlet_with_q1_zero_region_is_written_unindexed(self, workdir, capsys):
        code, header, records = self._spectrum(workdir, self.DIRICHLET_Q1_ZERO,
                                               ["--region", "0,20,0,4"],
                                               "dirichlet_q1_zero_region.json")
        assert code == 0 and records
        assert {r.index for r in records} == {None}
        assert [w for w in header.warnings if w.startswith("indexing: no numbering theorem")]
        assert "warning: indexing: no numbering theorem" in capsys.readouterr().err

    @pytest.mark.parametrize("region", ["0,1e200,0,1", "-1e308,1e308,0,1"])
    def test_region_too_long_to_sample_exits_3(self, workdir, capsys, region):
        # The first boundary would take far more than the 2^14 samples a count
        # may refine to (1e201 of them, or a side longer than a float): it is
        # sized, not allocated.
        code, _, records = self._spectrum(workdir, self.LOW_INDEX, [f"--region={region}"],
                                          "too_long.json")
        err = capsys.readouterr().err
        assert code == 3 and records == []
        assert "computation failed: " in err and "more than 16384" in err

    def test_overflowing_D_exits_3_and_names_it(self, workdir, capsys):
        # h = 1e200 makes D overflow from the run's first samples on: the run
        # fails on that, not on a zero it takes to sit on the boundary.
        config = {"potential": {"kind": "constant", "value": 1.0, "h": 1e200}, "variant": "robin"}
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, _, records = self._spectrum(workdir, config, ["--region", "30,32,-0.5,0.5"],
                                              "overflowing_D.json")
        err = capsys.readouterr().err
        assert code == 3 and records == []
        assert err.startswith("computation failed: D(k) is not finite")


class TestCharfunCommand:
    def test_eval_prints_json(self, config_path, capsys):
        assert main(["--config", config_path, "charfun", "eval", "--k", "2.0,0.5"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["k"] == {"re": 2.0, "im": 0.5}
        assert "D" in doc

    def test_grid_csv(self, workdir, config_path):
        out = workdir / "grid.csv"
        code = main(["--config", config_path, "--out", str(out),
                     "charfun", "grid", "--region", "0,6,0,2", "--nx", "5", "--ny", "3"])
        assert code == 0
        rows = list(csv.reader(open(out)))
        assert rows[0] == ["re_k", "im_k", "re_D", "im_D"]
        assert len(rows) == 16

    def test_grid_with_failed_points_exits_2(self, workdir, capsys):
        # h = 1e200 makes D overflow at every point: the CSV is still written,
        # with nan for each failed point, and the run exits with the partial
        # results code.
        path, out = workdir / "grid_overflow.json", workdir / "grid_overflow.csv"
        path.write_text(json.dumps({"potential": {"kind": "constant", "value": 1.0, "h": 1e200},
                                    "variant": "robin"}))
        code = main(["--config", str(path), "--out", str(out), "charfun", "grid",
                     "--region", "30,32,50,59", "--nx", "3", "--ny", "3"])
        rows = list(csv.reader(open(out)))
        assert code == 2 and len(rows) == 10
        assert all(row[2:] == ["nan", "nan"] for row in rows[1:])
        assert "warning: 9 grid points failed" in capsys.readouterr().err

    @pytest.mark.parametrize("region", ["10,0,0,3", "nan,1,0,1"])
    def test_bad_grid_region_flag_exit_1(self, tmp_path, config_path, region, capsys):
        # The flag is checked as the charfun.region key is.
        out = tmp_path / "grid.csv"
        code = main(["--config", config_path, "--out", str(out),
                     "charfun", "grid", f"--region={region}"])
        err = capsys.readouterr().err
        assert code == 1 and err.startswith("config error: charfun.region must be")
        assert not out.exists()

    @pytest.mark.parametrize("potential, k", [
        ({"kind": "polynomial", "coeffs": [1e300, 1e300], "h": 0.0}, "1,0"),
        ({"kind": "polynomial", "coeffs": [1.0, 1.0], "h": 0.0}, "1e200,0"),
        # M is finite; h times it is not, so D's closed form overflows.
        ({"kind": "constant", "value": 1.0, "h": 1e200}, "3,59.9"),
    ], ids=["M-overflows", "k2-overflows", "D-overflows"])
    def test_overflow_exits_3_at_once(self, workdir, potential, k, capsys):
        path = workdir / "overflow.json"
        path.write_text(json.dumps({"potential": potential, "variant": "robin"}))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = main(["--config", str(path), "charfun", "eval", "--k", k])
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith("computation failed: ") and "is not finite" in err
        assert "RuntimeWarning" not in err and "short of rtol" not in err


class TestAsymptoticsCommand:
    def test_predict(self, config_path, capsys):
        code = main(["--config", config_path, "asymptotics", "predict",
                     "--theorem", "T41i_W22", "--n", "3..6"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert [r["n"] for r in doc["rows"]] == [3, 4, 5, 6]
        assert doc["constants"]["Q1"] == pytest.approx(-1.0)

    @pytest.mark.parametrize("theorem", ["T42i", "T41i_W22"])
    def test_correction_constant_overflow_exits_3(self, workdir, theorem, capsys):
        # q^2 integrates finitely, but omega ** 3 is beyond float range.
        path = workdir / "omega_cubed.json"
        path.write_text(json.dumps({"potential": {"kind": "polynomial", "coeffs": [1e120, 1e120],
                                                  "h": 0.0}, "variant": "robin"}))
        code = main(["--config", str(path), "asymptotics", "predict", "--theorem", theorem,
                     "--n", "1..2"])
        err = capsys.readouterr().err
        assert code == 3
        assert "computation failed: the correction constants Q1-Q4 overflow" in err
        assert "Traceback" not in err

    def test_residuals_csv(self, workdir, config_path, spectrum_path):
        out = workdir / "resid.csv"
        code = main(["--config", config_path, "--out", str(out),
                     "asymptotics", "residuals", "--spectrum", spectrum_path])
        # The tiny spectrum has only n = 0, so no n >= 1 rows exist.
        assert code == 3


class TestGammaCommand:
    def test_direct_route(self, config_path, spectrum_path, capsys):
        code = main(["--config", config_path, "gamma", "--route", "direct",
                     "--spectrum", spectrum_path, "--probe", "0.37"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["route"] == "direct"
        assert doc["truncation"] == 2

    @pytest.mark.parametrize("indices, expected", [
        ([0, 1, 2, 3], []),
        ([1, 2, 3], ["spectrum indices start at 1, not at the theorem's first index 0"]),
        ([0, 1, 3], ["spectrum indices miss 2"]),
        ([2, 3, 6, 7, 9], ["spectrum indices start at 2, not at the theorem's first index 0",
                           "spectrum indices miss 4..5, 8"])])
    @pytest.mark.parametrize("route", ["direct", "omega"])
    def test_index_warnings(self, workdir, config_path, capsys, indices, expected, route):
        # q = 1 is numbered by T41i_W22 from n = 0. A file that lacks low
        # indices or has holes gives gamma an incomplete product: it warns on
        # stderr and in the JSON, and exits as it would without the warning.
        header = spectrumfile.SpectrumHeader(
            potential={"kind": "constant", "value": 1.0, "h": 0.0}, variant="robin",
            region=[], tolerances={})
        records = [spectrumfile.SpectrumRecord(index=n, re_k=(n + 0.5) * math.pi, im_k=0.3,
                                               multiplicity=1, residual=0.0, cls="quadrant")
                   for n in indices]
        path, out = workdir / "index_gaps.json", workdir / "index_gaps_gamma.json"
        spectrumfile.write_spectrum(path, header, records)
        calls = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(tspec.charfun, "transfer_many",
                       lambda *a, **kw: calls.append(a) or transfer_many(*a, **kw))
            code = main(["--config", config_path, "--out", str(out), "gamma", "--route", route,
                         "--spectrum", str(path)])
        doc = json.loads(out.read_text())
        err = capsys.readouterr().err
        assert doc["warnings"] == expected
        assert [line for line in err.splitlines() if line.startswith("warning: spectrum")] == [
            f"warning: {w}" for w in expected]
        assert code == (0 if "gamma" in doc else 3)
        assert len(calls) == (1 if route == "direct" else 0)   # no D call of its own

    @pytest.mark.parametrize("command, code, needle", [
        (["gamma", "--route", "direct"], 3, "computation failed: eigenvalues must be finite"),
        (["validate"], 2, "bad eigenvalue list: eigenvalues must be finite")])
    def test_eigenvalue_whose_square_overflows(self, workdir, config_path, spectrum_path,
                                               capsys, command, code, needle):
        # A finite k near 1.5e154 has an infinite k^2: no OverflowError
        # traceback, but the product's own rejection of a non-finite lambda.
        doc = json.loads(open(spectrum_path).read())
        doc["records"] += [dict(doc["records"][0], index=1, re_k=re, im_k=im)
                           for re in (1.5e154, -1.5e154) for im in (1e140, -1e140)]
        header = spectrumfile.SpectrumHeader(**doc["header"])
        path = workdir / "huge_k.json"
        spectrumfile.write_spectrum(path, header, [spectrumfile.SpectrumRecord(**r)
                                                   for r in doc["records"]])
        assert main(["--config", config_path] + command + ["--spectrum", str(path)]) == code
        captured = capsys.readouterr()
        assert needle in captured.out + captured.err
        assert "Traceback" not in captured.err


class TestValidateCommand:
    def test_fresh_run_passes(self, config_path, spectrum_path, capsys):
        code = main(["--config", config_path, "validate", "--spectrum", spectrum_path])
        out = capsys.readouterr().out
        assert code == 0
        assert "symmetry-closure" in out and "PASS" in out

    def test_corrupted_file_fails_symmetry(self, workdir, config_path, spectrum_path, capsys):
        doc = json.loads(open(spectrum_path).read())
        doc["records"] = [r for r in doc["records"]
                          if not (r["re_k"] > 0 and r["im_k"] < 0)]
        broken = workdir / "broken.json"
        broken.write_text(json.dumps(doc))
        code = main(["--config", config_path, "validate", "--spectrum", str(broken)])
        out = capsys.readouterr().out
        assert code == 2
        assert "FAIL" in out

    def test_missing_spectrum_input(self, config_path):
        code = main(["--config", config_path, "validate"])
        assert code == 1

    @pytest.fixture(scope="class")
    def huge_record(self, workdir):
        """A q = 1.1, h = 0.3 spectrum of indices 0..6 and a copy of it for
        each (re_k, im_k) given to one record of index 1."""
        cfg = workdir / "huge_cfg.json"
        cfg.write_text(json.dumps({"potential": {"kind": "constant", "value": 1.1, "h": 0.3},
                                   "variant": "robin"}))
        spec = workdir / "huge_base.json"
        assert main(["--config", str(cfg), "--out", str(spec), "spectrum", "--n", "0..6"]) == 0

        def copy(name, **parts):
            doc = json.loads(spec.read_text())
            doc["records"][next(i for i, r in enumerate(doc["records"])
                                if r["index"] == 1)].update(parts)
            path = workdir / name
            path.write_text(json.dumps(doc))
            return str(cfg), str(path)
        return copy

    @pytest.mark.parametrize("parts, symmetry", [
        ({"re_k": 1e308}, "5 missing mirrors"),
        ({"re_k": 1e308, "im_k": 1e308}, "6 missing mirrors")], ids=["re", "re-and-im"])
    def test_record_past_the_float_range_fails_its_audits(self, huge_record, capsys, parts,
                                                           symmetry):
        # |eps_1|^2 is past the float range: residual-decay fails and names the
        # index instead of passing on an infinite tail sum, and neither audit
        # raises an overflow warning (an error under the test settings).
        cfg, path = huge_record("huge_validate.json", **parts)
        code = main(["--config", cfg, "validate", "--spectrum", path])
        lines = {line.split()[0]: line for line in capsys.readouterr().out.splitlines()}
        assert code == 2
        assert "FAIL" in lines["symmetry-closure"] and symmetry in lines["symmetry-closure"]
        assert lines["residual-decay"].split(None, 2)[1:] == [
            "FAIL", "tag T41i_W22: |eps_n|^2 is not finite at indices [1]"]

    def test_residuals_of_a_record_past_the_float_range_exit_3(self, huge_record, workdir,
                                                               capsys):
        cfg, path = huge_record("huge_residuals.json", re_k=1e308)
        out = workdir / "huge_residuals.csv"
        code = main(["--config", cfg, "--out", str(out), "asymptotics", "residuals",
                     "--spectrum", path])
        err = capsys.readouterr().err
        assert code == 3 and not out.exists()
        assert "computation failed: |eps_n|^2 is not finite at indices [1]" in err


class TestReadSideExitCodes:
    """Every read-side command on a spectrum file with one field mangled exits
    0, 1, 2 or 3 with no exception (under the test settings, a numpy warning
    is one), and an exit-0 output holds no NaN or infinity. The mangled file
    keeps its stale content hash, or is written afresh with a matching one so
    that every audit runs on it as on a file tspec wrote. The example count
    is the active hypothesis profile's: the default in the tier-1 run, and
    the larger "exit-codes" profile (tests/conftest.py) in a longer CI run."""

    FLOATS = (1e308, -1e308, 1.7e308, -1.7e308, 5e-324, -5e-324, 0.0, -0.0, 1e200)
    COMMANDS = (["validate"], ["gamma", "--route", "omega"], ["gamma", "--route", "endpoint"],
                ["gamma", "--route", "direct"], ["asymptotics", "residuals"])
    # A record's "k" sets re_k and im_k to the same value.
    MUTATIONS = st.one_of(
        st.tuples(st.just("record"), st.sampled_from(("re_k", "im_k", "k", "residual")),
                  st.sampled_from(FLOATS)),
        st.tuples(st.just("record"), st.just("index"),
                  st.sampled_from((None, -1, 0, 10 ** 4, 2 ** 40, 2 ** 62, 10 ** 400))),
        st.tuples(st.just("header"), st.just("s"), st.sampled_from((0, 1, 400, 10 ** 6))),
        st.tuples(st.just("potential"), st.sampled_from(("h", "value")),
                  st.sampled_from(FLOATS + (-1.1, 3.0))))
    NON_FINITE = re.compile(r"\b(nan|inf|infinity)\b", re.IGNORECASE)

    @pytest.fixture(scope="class")
    def base(self, workdir):
        """A config that runs no contour count, and the q = 1.1, h = 0.3
        spectrum of indices 0..20, which passes every audit."""
        cfg = workdir / "exit_codes_cfg.json"
        cfg.write_text(json.dumps({"potential": {"kind": "constant", "value": 1.1, "h": 0.3},
                                   "variant": "robin", "validate": {"contours": []}}))
        spec = workdir / "exit_codes_base.json"
        assert main(["--config", str(cfg), "--out", str(spec), "spectrum", "--n", "0..20"]) == 0
        return str(cfg), json.loads(spec.read_text())

    @staticmethod
    def _run(workdir, cfg, doc, command, rehash=True):
        """Write doc (afresh with a matching hash, or as it is) and run command
        on it: (exit code, stdout, stderr, output text or None)."""
        path, out = workdir / "exit_codes.json", workdir / "exit_codes.out"
        if rehash:
            spectrumfile.write_spectrum(path, spectrumfile.SpectrumHeader(**doc["header"]),
                                        [SpectrumRecord(**r) for r in doc["records"]])
        else:
            path.write_text(json.dumps(doc))
        out.unlink(missing_ok=True)
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(["--config", cfg, "--out", str(out)] + command + ["--spectrum", str(path)])
        return (code, stdout.getvalue(), stderr.getvalue(),
                out.read_text() if out.exists() else None)

    @settings(deadline=None, derandomize=True, database=None)
    @given(mutation=MUTATIONS, position=st.integers(0, 10 ** 6), rehash=st.booleans(),
           command=st.sampled_from(COMMANDS))
    def test_mangled_file_maps_to_an_exit_code(self, base, workdir, mutation, position, rehash,
                                               command):
        cfg, doc = base
        doc = json.loads(json.dumps(doc))
        section, key, value = mutation
        if section == "record":
            record = doc["records"][position % len(doc["records"])]
            record.update({"re_k": value, "im_k": value} if key == "k" else {key: value})
        else:
            (doc["header"] if section == "header" else doc["header"]["potential"])[key] = value
        code, stdout, stderr, output = self._run(workdir, cfg, doc, command, rehash)
        assert code in (0, 1, 2, 3), stderr
        if code == 0:
            text = stdout + stderr + (output or "")
            assert not self.NON_FINITE.search(text), text

    def test_residual_slope_of_two_rows_is_null(self, workdir, capsys):
        # Indices 1..2 leave fewer than 3 rows for the log-log fit: the exit-0
        # summary holds "loglog_slope": null, which strict JSON reads (NaN was
        # written once).
        cfg = workdir / "two_rows_cfg.json"
        cfg.write_text(json.dumps({"potential": {"kind": "constant", "value": 1.1, "h": 0.3},
                                   "variant": "robin"}))
        spec = workdir / "two_rows.json"
        assert main(["--config", str(cfg), "--out", str(spec), "spectrum", "--n", "1..2"]) == 0
        capsys.readouterr()
        code = main(["--config", str(cfg), "--out", str(workdir / "two_rows.csv"),
                     "asymptotics", "residuals", "--spectrum", str(spec)])
        err = capsys.readouterr().err

        def refuse(name):
            raise ValueError(f"{name} is not JSON")

        summary = json.loads(err[:err.index("wrote residual table")], parse_constant=refuse)
        assert code == 0 and summary["loglog_slope"] is None

    def test_record_whose_modulus_overflows(self, base, workdir):
        # |k| of 1.7e308 + 1.7e308i is past the float range, where complex abs
        # raises OverflowError: every command ends by its exit code instead.
        cfg, doc = base
        doc = json.loads(json.dumps(doc))
        next(r for r in doc["records"] if r["index"] == 3).update(re_k=1.7e308, im_k=1.7e308)
        code, stdout, _, _ = self._run(workdir, cfg, doc, ["validate"])
        lines = {line.split()[0]: line.split(None, 2)[1:] for line in stdout.splitlines()}
        assert code == 2
        assert lines["residual-decay"] == [
            "FAIL", "tag T41i_W22: |eps_n|^2 is not finite at indices [3]"]
        assert lines["gamma-consistency"] == [
            "FAIL", "bad eigenvalue list: eigenvalues must be finite and nonzero "
            "(zero goes into s)"]
        for command in self.COMMANDS[1:]:
            code, _, stderr, output = self._run(workdir, cfg, doc, command)
            assert code == 3 and stderr.startswith("computation failed: ") and output is None

    def test_header_s_whose_power_leaves_the_float_range(self, base, workdir):
        # 0.37^800 underflows to 0: the direct route names it instead of
        # dividing by zero, and the limits of e^{+-2000} are refused too.
        cfg, doc = base
        doc = json.loads(json.dumps(doc))
        doc["header"]["s"] = 400
        code, stdout, _, _ = self._run(workdir, cfg, doc, ["validate"])
        direct = ("E(0.37) = 0.37^800 prod(1 - k0^2/lambda) leaves the float range (s = 400), "
                  "so D/E is not finite")
        assert code == 2
        assert f"gamma-consistency  FAIL     direct route: {direct}" in stdout.splitlines()
        code, _, stderr, _ = self._run(workdir, cfg, doc, ["gamma", "--route", "direct"])
        assert code == 3 and stderr == f"computation failed: {direct}\n"
        for route in ("omega", "endpoint"):
            code, _, _, output = self._run(workdir, cfg, doc, ["gamma", "--route", route])
            assert code == 3 and "is past the float range" in json.loads(output)["error"]

    @pytest.mark.parametrize("index", [2 ** 40, 2 ** 62])
    def test_huge_index_is_predicted_alone(self, base, workdir, index):
        # Only the file's indices are predicted: an index of 2^40 once built
        # all 2^40 of them (8 TiB), one of 2^62 an array too big to make.
        cfg, doc = base
        doc = json.loads(json.dumps(doc))
        for r in doc["records"]:
            if r["index"] == 20:
                r["index"] = index
        code, stdout, _, _ = self._run(workdir, cfg, doc, ["validate"])
        assert code == 2 and "residual-decay     FAIL     tag T41i_W22: slope" in stdout
        code, _, _, output = self._run(workdir, cfg, doc, ["asymptotics", "residuals"])
        rows = list(csv.reader(io.StringIO(output)))
        assert code == 0 and rows[-1][0] == str(index)
        assert all(math.isfinite(float(v)) for v in rows[-1][1:])


class TestFileCase:
    """gamma, asymptotics residuals and validate check a spectrum file against
    the potential and variant of its header, whatever case the config holds."""

    LINEAR = {"potential": {"kind": "polynomial",
                            "coeffs": [-1.6685632173450171, 2.528261446027842],
                            "h": -0.20404202893245155}, "variant": "robin"}
    OTHER = {"potential": {"kind": "constant", "value": 3.0, "h": 0.5}, "variant": "dirichlet"}

    @pytest.fixture(scope="class")
    def linear_files(self, workdir):
        paths = {}
        for name, cfg in (("linear", self.LINEAR), ("other", self.OTHER)):
            paths[name] = workdir / f"case_{name}.json"
            paths[name].write_text(json.dumps(cfg))
        paths["spectrum"] = workdir / "case_spectrum.json"
        assert main(["--config", str(paths["linear"]), "--out", str(paths["spectrum"]),
                     "spectrum", "--n", "1..25"]) == 0
        return paths

    @pytest.mark.parametrize("command, code", [
        (["asymptotics", "residuals"], 0), (["gamma", "--route", "omega"], 3),
        (["gamma", "--route", "direct"], 0), (["validate"], 2)])
    def test_config_case_is_not_read(self, workdir, linear_files, command, code, capsys):
        # The other config once gave a T41i_W22 slope of -0.04 instead of
        # -0.98, and ran the Dirichlet omega ladder on Robin data. The omega
        # route's extrapolant gap fails on this file (exit 3), and with it the
        # gamma-consistency audit (exit 2).
        out = workdir / "case_out"
        runs = []
        for name in ("linear", "other"):
            got = main(["--config", str(linear_files[name]), "--out", str(out)] + command
                       + ["--spectrum", str(linear_files["spectrum"])])
            captured = capsys.readouterr()
            runs.append((got, captured.out, captured.err, out.read_text()))
            out.unlink()
        assert runs[0] == runs[1] and runs[0][0] == code
        if command[0] == "gamma":
            assert "dirichlet" not in runs[1][3]

    def test_no_theorem_applies_exits_3(self, workdir, config_path, capsys):
        # q = (1 - x)^2 has q(1) = q'(1) = 0: no theorem describes its Robin
        # spectrum, whatever potential the config holds.
        header = spectrumfile.SpectrumHeader(
            potential={"kind": "polynomial", "coeffs": [1.0, -2.0, 1.0], "h": 0.0},
            variant="robin", region=[], tolerances={})
        records = [spectrumfile.SpectrumRecord(index=n, re_k=n * math.pi, im_k=0.5,
                                               multiplicity=1, residual=0.0, cls="quadrant")
                   for n in range(1, 6)]
        path = workdir / "no_theorem_spec.json"
        spectrumfile.write_spectrum(path, header, records)
        code = main(["--config", config_path, "--out", str(workdir / "no_theorem.csv"),
                     "asymptotics", "residuals", "--spectrum", str(path)])
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith("computation failed: no asymptotic theorem applies")
        assert "Traceback" not in err


class TestMalformedSpectrumFile:
    # (case, section, key, value): the value replaces the header key or the
    # key of the record with that number.
    VALUES = [
        ("re_k_string", 0, "re_k", "abc"),
        ("re_k_null", 0, "re_k", None),
        ("im_k_infinite", 0, "im_k", float("inf")),
        ("residual_string", 0, "residual", "0"),
        ("multiplicity_string", 0, "multiplicity", "x"),
        ("multiplicity_zero", 0, "multiplicity", 0),
        ("multiplicity_too_large", 0, "multiplicity", 4097),
        ("index_fraction", 0, "index", 1.5),
        ("branch_string", 0, "branch", "b"),
        ("cls_unknown", 0, "cls", "complex"),
        ("s_string", "header", "s", "two"),
        ("s_negative", "header", "s", -1),
        ("variant_unknown", "header", "variant", "neumann"),
        ("last_record_re_k_string", 3, "re_k", "abc"),
        ("re_k_beyond_float_range", 0, "re_k", 10 ** 400),
        ("residual_true", 0, "residual", True),
        ("cls_unhashable", 0, "cls", ["real"]),
        ("multiplicity_float", 0, "multiplicity", 1.0),
    ]

    @pytest.mark.parametrize("case", ["missing", "not_json", "unknown_header_key",
                                      "record_unknown_key", "record_missing_branch"])
    def test_exit_1_without_traceback(self, workdir, config_path, spectrum_path, case, capsys):
        path = workdir / f"malformed_{case}.json"
        doc = json.loads(open(spectrum_path).read())
        if case == "not_json":
            path.write_text("this is not JSON\n")
        elif case == "unknown_header_key":
            doc["header"]["colour"] = "blue"
        elif case == "record_unknown_key":
            doc["records"][0]["colour"] = "blue"
        elif case == "record_missing_branch":
            del doc["records"][-1]["branch"]
        if case not in ("missing", "not_json"):
            path.write_text(json.dumps(doc))
        for command in (["validate"], ["gamma", "--route", "omega"]):
            code = main(["--config", config_path] + command + ["--spectrum", str(path)])
            err = capsys.readouterr().err
            assert code == 1
            assert "config error" in err
            assert "Traceback" not in err

    def test_header_potential_not_a_potential_exit_1(self, workdir, config_path, spectrum_path,
                                                     capsys):
        doc = json.loads(open(spectrum_path).read())
        doc["header"]["potential"] = {"kind": "cosine"}
        path = workdir / "malformed_header_potential.json"
        path.write_text(json.dumps(doc))
        for command in (["validate"], ["gamma", "--route", "direct"],
                        ["asymptotics", "residuals"]):
            code = main(["--config", config_path] + command + ["--spectrum", str(path)])
            err = capsys.readouterr().err
            assert code == 1
            assert "config error: spectrum header potential" in err and "Traceback" not in err

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_fuzzed_file_loads_or_exits_cleanly(self, workdir, config_path, spectrum_path, data):
        # One header or record value becomes arbitrary JSON, or a record gains
        # or loses a key.
        doc = json.loads(open(spectrum_path).read())
        edit = data.draw(st.sampled_from(["header", "record", "add_key", "drop_key"]))
        record = doc["records"][data.draw(st.integers(0, len(doc["records"]) - 1))]
        if edit == "header":
            doc["header"][data.draw(st.sampled_from(sorted(doc["header"])))] = data.draw(_JSON)
        elif edit == "record":
            record[data.draw(st.sampled_from(_RECORD_FIELDS))] = data.draw(_JSON)
        elif edit == "add_key":
            record[data.draw(st.text(max_size=6).filter(lambda k: k not in record))] = \
                data.draw(_JSON)
        else:
            del record[data.draw(st.sampled_from(_RECORD_FIELDS))]
        path = workdir / "fuzzed.json"
        path.write_text(json.dumps(doc))
        try:
            read_spectrum(path)
        except ConfigError:
            pass
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(["--config", config_path, "validate", "--spectrum", str(path)])
        assert code in (0, 1, 2), err.getvalue()
        assert "Traceback" not in err.getvalue()

    @pytest.mark.parametrize("case, section, key, value", VALUES, ids=[v[0] for v in VALUES])
    @pytest.mark.parametrize("command", [["validate"], ["gamma", "--route", "omega"]])
    def test_malformed_value_exit_1(self, workdir, config_path, spectrum_path, case, section,
                                    key, value, command, capsys):
        doc = json.loads(open(spectrum_path).read())
        (doc["header"] if section == "header" else doc["records"][section])[key] = value
        path = workdir / f"malformed_value_{case}.json"
        path.write_text(json.dumps(doc))
        code = main(["--config", config_path] + command + ["--spectrum", str(path)])
        err = capsys.readouterr().err
        assert code == 1
        assert f"config error: {path}" in err and "Traceback" not in err
        if section != "header":
            assert f"record {section} has a malformed value" in err

    @pytest.mark.parametrize("section, key, depth", [(3, "cls", 600), ("header", "warnings", 995)])
    def test_deeply_nested_value_exit_1(self, workdir, config_path, spectrum_path, section, key,
                                        depth, capsys):
        # Too deep to copy into a message (600 lists) or to parse (995).
        doc = json.loads(open(spectrum_path).read())
        (doc["header"] if section == "header" else doc["records"][section])[key] = "@nested@"
        path = workdir / f"nested_{key}.json"
        path.write_text(json.dumps(doc).replace('"@nested@"', "[" * depth + "0" + "]" * depth))
        for command in (["validate"], ["gamma", "--route", "omega"]):
            code = main(["--config", config_path] + command + ["--spectrum", str(path)])
            err = capsys.readouterr().err
            assert code == 1
            assert f"config error: {path}" in err and "Traceback" not in err
            if section != "header":
                assert f"record {section} has a malformed value: {key}" in err

    def test_first_malformed_record_is_named(self, workdir, config_path, spectrum_path, capsys):
        doc = json.loads(open(spectrum_path).read())
        doc["records"] = doc["records"] * 2
        doc["records"][5] = dict(doc["records"][5], cls="complex")
        doc["records"][3] = dict(doc["records"][3], re_k="abc")
        path = workdir / "malformed_two_records.json"
        path.write_text(json.dumps(doc))
        code = main(["--config", config_path, "validate", "--spectrum", str(path)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(f"config error: {path}: record 3 has a malformed value: ")
        assert "Traceback" not in err


class TestEnvironment:
    # A run reads only its argv and its config file.
    def test_tspec_variables_are_ignored(self, config_path, monkeypatch, capsys):
        monkeypatch.setenv("TSPEC_TOL", "abc")
        monkeypatch.setenv("TSPEC_OUT", "/nonexistent/out.json")
        assert main(["--config", config_path, "charfun", "eval", "--k", "1.0,0.0"]) == 0
        assert "D" in json.loads(capsys.readouterr().out)

    def test_config_flag_is_required(self, config_path, monkeypatch, capsys):
        monkeypatch.setenv("TSPEC_CONFIG", config_path)
        assert main(["charfun", "eval", "--k", "1.0,0.0"]) == 1
        captured = capsys.readouterr()
        assert captured.err == "config error: a --config file is required\n"
        assert captured.out == ""


class TestMalformedConfig:
    BASE = {"potential": {"kind": "polynomial", "coeffs": [0.0, 1.0], "h": 0.0},
            "variant": "robin"}

    @pytest.mark.parametrize("case, patch", [
        ("coeffs_not_numbers", {"potential": {"kind": "polynomial", "coeffs": ["a"], "h": 0.0}}),
        ("coeffs_not_a_list", {"potential": {"kind": "polynomial", "coeffs": 5, "h": 0.0}}),
        ("h_not_a_number", {"potential": {"kind": "polynomial", "coeffs": [1.0], "h": "x"}}),
        ("kind_unhashable", {"potential": {"kind": ["grid"], "samples": [1.0] * 5, "h": 0.0}}),
        ("grid_too_short", {"potential": {"kind": "grid", "samples": [1.0, 2.0, 3.0], "h": 0.0}}),
        ("rtol_not_a_number", {"tolerances": {"rtol": "x"}}),
        ("rtol_negative", {"tolerances": {"rtol_refine": -1e-13}}),
        ("n_one_value", {"spectrum": {"n": [0]}}),
        ("n_reversed", {"spectrum": {"n": [3, 1]}}),
        ("region_empty", {"spectrum": {"region": [1.0, 1.0, 0.0, 2.0]}}),
        ("region_not_finite", {"spectrum": {"region": [0.0, float("inf"), 0.0, 2.0]}}),
        ("depth_zero", {"spectrum": {"depth": 0}}),
        # The gamma section and validate.gamma_tol are gone: these now exit 1
        # as unknown keys (test_unread_keys_are_unknown holds well-formed values).
        ("taus_not_a_list", {"gamma": {"taus": "abc"}}),
        ("taus_one_rung", {"gamma": {"taus": [-4.0]}}),
        ("taus_positive", {"gamma": {"taus": [-4.0, 6.0]}}),
        ("k0_not_a_number", {"gamma": {"k0": "x"}}),
        ("k0_negative", {"gamma": {"k0": -1.0}}),
        ("contours_not_a_list", {"validate": {"contours": "x"}}),
        ("contours_negative", {"validate": {"contours": [2, -1]}}),
        ("gamma_tol_not_a_number", {"validate": {"gamma_tol": "x"}}),
        ("charfun_region_not_numbers", {"charfun": {"region": [0, "a"]}}),
        ("theorem_unknown", {"validate": {"theorem": "T99"}}),
        ("validate_spectrum_not_a_string", {"validate": {"spectrum": 5}}),
        ("out_not_a_string", {"out": 5}),
        ("n_negative", {"spectrum": {"n": [-2, 1]}}),
    ])
    def test_exit_1_without_traceback(self, workdir, case, patch, capsys):
        path = workdir / f"malformed_cfg_{case}.json"
        path.write_text(json.dumps(dict(self.BASE, **patch)))
        out = workdir / f"malformed_cfg_{case}_out.json"
        code = main(["--config", str(path), "--out", str(out), "spectrum"])
        err = capsys.readouterr().err
        assert code == 1
        assert "config error" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("patch", [
        {"tolerances": {"rtol_winding": 1e-3}},
        {"asymptotics": {"theorem": "T42i"}},
        {"charfun": {"k": [1.0, 0.0]}},
        {"charfun": {"nx": 8}},
        {"charfun": {"ny": 8}},
        {"gamma": {"route": "omega"}},
        {"gamma": {"spectrum": "spec.json"}},
        {"gamma": {"probe": 0.37}},
        {"gamma": {"k0": 1.5707963267948966}},
        {"gamma": {"taus": [-4.0, -6.0, -8.0]}},
        {"validate": {"gamma_tol": 0.25}},
    ])
    def test_unread_keys_are_unknown(self, workdir, patch, capsys):
        # No command reads these keys (the flags or the gamma routes' own
        # constants are their only source).
        path = workdir / "unread_key_cfg.json"
        path.write_text(json.dumps(dict(self.BASE, **patch)))
        assert main(["--config", str(path), "charfun", "eval", "--k", "1.0,0.0"]) == 1
        err = capsys.readouterr().err
        assert "config error: unknown" in err and "Traceback" not in err

    @pytest.mark.parametrize("flags", [["--n", "3..1"], ["--depth", "-2"], ["--region", "0,0,0,1"],
                                       ["--n=-3..-1"], ["--n=-2..1"]])
    def test_bad_spectrum_flags(self, config_path, flags, capsys):
        assert main(["--config", config_path, "spectrum"] + flags) == 1
        assert "config error" in capsys.readouterr().err

    def test_config_path_is_a_directory_exit_1(self, workdir, capsys):
        assert main(["--config", str(workdir), "charfun", "eval", "--k", "1,0"]) == 1
        err = capsys.readouterr().err
        assert "config error: cannot read config" in err and "Traceback" not in err

    @pytest.mark.parametrize("out", [".", "no_such_dir/eval.json", "\0"])
    def test_unwritable_out_exit_1(self, workdir, out, capsys):
        path = workdir / "unwritable_out_cfg.json"
        path.write_text(json.dumps(dict(self.BASE, out=out)))
        with _inside(workdir):
            code = main(["--config", str(path), "charfun", "eval", "--k", "1,0"])
        err = capsys.readouterr().err
        assert code == 1
        assert "error" in err and "Traceback" not in err

    VALID = [
        {"potential": {"kind": kind, payload: value, "h": 0.2}, "variant": variant,
         "spectrum": {"n": [0, 2], "region": [0.0, 6.0, 0.0, 3.0], "depth": 8},
         "charfun": {"region": [0.0, 10.0, 0.0, 3.0]},
         "validate": {"spectrum": "spec.json", "contours": [2], "theorem": "T42i"},
         "tolerances": {"rtol": 1e-10, "rtol_refine": 1e-13}, "out": "eval.json"}
        for kind, payload, value in (("constant", "value", 1.0),
                                     ("polynomial", "coeffs", [0.3, 1.0]),
                                     ("grid", "samples", [0.4, -1.1, 0.7, 1.9, -0.3]))
        for variant in ("robin", "dirichlet")]

    @staticmethod
    def _places(node, path=()):
        """(path, container) for every dict key and list item at any depth."""
        items = node.items() if isinstance(node, dict) else enumerate(node)
        for key, value in items:
            yield path + (key,), node
            if isinstance(value, (dict, list)):
                yield from TestMalformedConfig._places(value, path + (key,))

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_fuzzed_config_exits_cleanly(self, workdir, data):
        # One key, at any depth, becomes arbitrary JSON, or a mapping gains or
        # loses a key.
        cfg = json.loads(json.dumps(data.draw(st.sampled_from(self.VALID))))
        edit = data.draw(st.sampled_from(["set", "add_key", "drop_key"]))
        if edit == "set":
            where, node = data.draw(st.sampled_from(list(self._places(cfg))))
            node[where[-1]] = data.draw(_JSON)
        else:
            mappings = [cfg] + [node[where[-1]] for where, node in self._places(cfg)
                                if isinstance(node[where[-1]], dict)]
            node = data.draw(st.sampled_from(mappings))
            if edit == "add_key":
                node[data.draw(st.text(max_size=6).filter(lambda k: k not in node))] = \
                    data.draw(_JSON)
            else:
                del node[data.draw(st.sampled_from(sorted(node)))]
        run_dir = workdir / "fuzzed_cfg"
        run_dir.mkdir(exist_ok=True)
        path = run_dir / "fuzzed_cfg.json"
        path.write_text(json.dumps(cfg))
        err = io.StringIO()
        with _inside(run_dir), contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()):
            code = main(["--config", str(path), "charfun", "eval", "--k", "1,0"])
        assert code in (0, 1, 3), err.getvalue()
        assert "Traceback" not in err.getvalue()


class TestUsageErrors:
    @pytest.mark.parametrize("argv", [
        ["spectrum", "--n", "5"],
        ["spectrum", "--n", "1..x"],
        ["--no-such-flag", "spectrum"],
        ["charfun", "eval"],
        [],
        ["charfun", "grid", "--nx=-1"],
        ["charfun", "grid", "--ny=-2"],
        ["charfun", "grid", "--nx", "0"],
        ["charfun", "eval", "--k", "nan,0"],
        ["charfun", "eval", "--k", "0,inf"],
        ["gamma", "--route", "direct", "--spectrum", "spec.json", "--probe", "nan"],
        ["gamma", "--route", "direct", "--spectrum", "spec.json", "--probe", "inf"],
        ["asymptotics", "predict", "--theorem", "T41i_W22", "--n", "3..1"],
        ["asymptotics", "predict", "--theorem", "T41i_W22", "--n", "0..2"],
        ["asymptotics", "predict", "--theorem", "T41i_W22", "--n=-3..-1"],
    ])
    def test_exit_1(self, config_path, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--config", config_path] + argv)
        assert excinfo.value.code == 1
        err = capsys.readouterr().err
        assert "usage:" in err and "Traceback" not in err

    @pytest.mark.parametrize("flag", ["--help", "--version"])
    def test_help_and_version_exit_0(self, flag, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([flag])
        assert excinfo.value.code == 0
        assert "tspec" in capsys.readouterr().out


# Runs tspec.cli.main on each argv of a JSON list, with every scipy import
# refused when the first argument is "block", and prints the exit codes and the
# scipy modules loaded at the end.
_JOB_RUNNER = """
import json, sys

class RefuseScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"scipy import refused: {name}")
        return None

if sys.argv[1] == "block":
    sys.meta_path.insert(0, RefuseScipy())
import tspec.charfun
from tspec.cli import _build_parser, main

codes = []
for argv in json.loads(sys.argv[2]):
    try:
        codes.append(main(argv))
    except SystemExit as exc:
        codes.append(exc.code)
print(json.dumps([codes, sorted(m for m in sys.modules if m.split(".")[0] == "scipy")]))
"""


class TestImportPath:
    def test_package_has_no_crosscheck_and_imports_no_scipy(self):
        # scipy is a test dependency only: the Jost cross-checks live in the
        # tests, no module of the package imports scipy, and importing tspec or
        # its CLI loads no scipy module (set-up time and peak memory rest on it).
        assert importlib.util.find_spec("tspec.crosscheck") is None
        for module in ("tspec", "tspec.cli"):
            probe = (f"import sys, {module}; print(sorted(m for m in sys.modules "
                     "if m.split('.')[0] == 'scipy'))")
            proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
            assert proc.returncode == 0, proc.stderr
            assert proc.stdout.strip() == "[]", module
        for path in sorted(pathlib.Path(tspec.__file__).parent.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and not node.level:
                    names = [node.module]
                else:
                    continue
                assert all(name.split(".")[0] != "scipy" for name in names), (path.name, names)

    def test_commands_run_without_scipy(self, workdir):
        # Every command: no CLI path imports scipy.
        cfgs = {
            "grid": {"kind": "grid", "h": 0.1,
                     "samples": [0.45, 0.52, 0.61, 0.48, 0.39, 0.55, 0.62, 0.71, 0.9]},
            "poly": {"kind": "polynomial", "coeffs": [0.2, 1.0], "h": 0.0},
            "const": {"kind": "constant", "value": 1.0, "h": 0.0},
        }
        paths = {}
        for name, pot in cfgs.items():
            paths[name] = str(workdir / f"noscipy-{name}.json")
            with open(paths[name], "w") as fh:
                json.dump({"potential": pot, "variant": "robin",
                           "validate": {"contours": [2]}}, fh)

        def out(mode, name):
            return str(workdir / f"noscipy-{mode}-{name}")

        def jobs(mode):
            spec = out(mode, "const-spectrum.json")
            return [
                ["--config", paths["grid"], "--out", out(mode, "grid.json"), "spectrum", "--n", "1..2"],
                ["--config", paths["poly"], "--out", out(mode, "poly.json"),
                 "spectrum", "--region", "1.5,4.0,0.5,2.0"],
                ["--config", paths["const"], "--out", spec, "spectrum", "--region", "1.5,4.0,0.5,2.0"],
                ["--config", paths["const"], "--out", out(mode, "validate.json"), "validate",
                 "--spectrum", spec],
                ["--config", paths["const"], "--out", out(mode, "gamma.json"), "gamma",
                 "--route", "direct", "--spectrum", spec],
                ["--config", paths["const"], "charfun", "eval", "--k", "2.0,0.5"],
                ["--config", paths["const"], "--out", out(mode, "grid.csv"), "charfun", "grid",
                 "--region", "0.5,3.0,0.0,1.0", "--nx", "4", "--ny", "3"],
            ]

        results = {}
        for mode in ("block", "open"):
            proc = subprocess.run([sys.executable, "-c", _JOB_RUNNER, mode, json.dumps(jobs(mode))],
                                  capture_output=True, text=True)
            assert proc.returncode == 0, proc.stderr
            results[mode] = json.loads(proc.stdout.strip().splitlines()[-1])
        assert results["block"] == results["open"] == [[0] * 7, []]


class TestConsoleEntry:
    def test_subprocess_help(self):
        proc = subprocess.run([sys.executable, "-m", "tspec.cli", "--version"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert "tspec" in proc.stdout


def _parser_options(parser):
    """Every option string of an argparse parser and of its subparsers, recursively."""
    opts = set()
    for action in parser._actions:
        opts.update(action.option_strings)
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                opts |= _parser_options(sub)
    return opts


class TestDocumentedOptions:
    def test_readme_cli_section_matches_parser(self):
        readme = open(os.path.join(os.path.dirname(__file__), "..", "README.md")).read()
        section = readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
        options = _parser_options(_build_parser())
        named = set(re.findall(r"(?<![\w-])--?[a-z][a-z-]*", section))
        assert sorted(options - named) == []
        assert sorted(o for o in named - options if o.startswith("--")) == []
