import hashlib
import io
import json
import math
from collections import Counter
from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tspec import spectrumfile
from tspec.cli import main
from tspec.errors import ConfigError
from tspec.potential import finite_real
from tspec.spectrumfile import (_CLASSES, SpectrumHeader, SpectrumRecord, _content_hash,
                                read_spectrum, write_spectrum)

_PROPERTY = settings(max_examples=60, deadline=None, derandomize=True)


def _read_records(path):
    """read_spectrum with the record columns turned into one SpectrumRecord per row."""
    header, columns, hash_ok = read_spectrum(path)
    return header, list(map(SpectrumRecord, *columns)), hash_ok


def _accepted(field, value):
    """Whether read_spectrum documents value as well-formed for field."""
    if field in ("index", "branch"):
        return value is None or type(value) is int
    if field == "multiplicity":
        return type(value) is int and 1 <= value <= 4096
    if field == "cls":
        return value in _CLASSES
    return finite_real(value)


def _golden_header():
    header = SpectrumHeader(potential={"kind": "grid", "samples": [0.0, -1.5, 2.25], "h": 0.0},
                            variant="robin", region=[0.0, 20.0, -4.0, 4.0],
                            tolerances={"rtol": 1e-12, "rtol_refine": 1e-13}, s=2,
                            warnings=["targeted roots at indices [0] not certified"],
                            tool_version="0.0.0", created="2020-01-01T00:00:00+00:00",
                            potential_hash="0123456789abcdef")
    return asdict(header)


# Every record kind and every value shape the encoder must write as json does:
# -0.0 parts, null index and branch, an int and an integer-valued float
# residual, and floats either side of where repr switches to exponent form
# (1e-05 against 0.0001, 1e+16 against 999...8.0) or goes subnormal.
GOLDEN_RECORDS = [
    SpectrumRecord(index=0, re_k=1.5, im_k=0.0, multiplicity=1, residual=0, cls="real",
                   branch=0),
    SpectrumRecord(index=0, re_k=-1.5, im_k=-0.0, multiplicity=1, residual=2.0, cls="real",
                   branch=-1),
    SpectrumRecord(index=None, re_k=-0.0, im_k=2.25, multiplicity=2, residual=1e-300,
                   cls="imaginary", branch=None),
    SpectrumRecord(index=7, re_k=1e16, im_k=9999999999999998.0, multiplicity=1,
                   residual=1e-05, cls="quadrant", branch=None),
    SpectrumRecord(index=12345678901, re_k=0.0001, im_k=-5e-324, multiplicity=3,
                   residual=2.2871419549188834e-15, cls="quadrant", branch=3),
    SpectrumRecord(index=None, re_k=-0.30000000000000004, im_k=1.7976931348623157e308,
                   multiplicity=1, residual=123456789.125, cls="quadrant", branch=None),
]
# _content_hash(_golden_header(), GOLDEN_RECORDS) as computed by json.dumps on
# asdict records, before the record encoder existed.
GOLDEN_DIGEST = "11a459fa01e895cb2c47596ad82f4aeab5c0b5267c692dbf1f52a71a83ee60f2"


class TestContentHash:
    def test_record_encoder_matches_json(self):
        hdict = _golden_header()
        body = {k: v for k, v in hdict.items() if k not in ("created", "content_hash")}
        text = json.dumps({"header": body, "records": [asdict(r) for r in GOLDEN_RECORDS]},
                          sort_keys=True, separators=(",", ":"))
        assert _content_hash(hdict, GOLDEN_RECORDS) == hashlib.sha256(text.encode()).hexdigest()

    def test_golden_digest(self):
        assert _content_hash(_golden_header(), GOLDEN_RECORDS) == GOLDEN_DIGEST

    def test_written_bytes_are_the_json_dump_text(self, tmp_path):
        header = SpectrumHeader(**_golden_header())
        header.warnings = ['index "0" has a \\ and a "quoted" warning']
        path = tmp_path / "spec.json"
        doc = write_spectrum(path, header, GOLDEN_RECORDS)
        # The text json.dump streams for the document with asdict records.
        text = io.StringIO()
        json.dump({"header": doc["header"],
                   "records": [asdict(SpectrumRecord(**d)) for d in doc["records"]]},
                  text, indent=2)
        assert path.read_bytes() == (text.getvalue() + "\n").encode()

    def test_numpy_floats_hash_as_written(self, tmp_path):
        records = [SpectrumRecord(index=0, re_k=np.float64(2.5), im_k=np.float64(-0.0),
                                  multiplicity=1, residual=np.float64(1e-16), cls="real")]
        header = SpectrumHeader(potential={"kind": "constant", "value": 1.0, "h": 0.0},
                                variant="robin", region=[], tolerances={})
        path = tmp_path / "np.json"
        write_spectrum(path, header, records)
        _, columns, hash_ok = read_spectrum(path)
        assert hash_ok and type(columns.re_k[0]) is float and repr(columns.im_k[0]) == "-0.0"


_FLOATS = st.floats(min_value=-1e300, max_value=1e300, allow_nan=False)
_INDEX = st.none() | st.integers(-10 ** 12, 10 ** 12)
_RECORDS = st.lists(st.builds(SpectrumRecord, index=_INDEX, re_k=_FLOATS, im_k=_FLOATS,
                              multiplicity=st.integers(1, 4096), residual=_FLOATS,
                              cls=st.sampled_from(_CLASSES), branch=_INDEX),
                    max_size=8)


def _changed_last_digit(value: float) -> float:
    """value with the last significant digit of its repr replaced, nearest change
    first, by the first digit that gives another float."""
    text = repr(value)
    mantissa = text.split("e")[0].removesuffix(".0")
    pos = max(i for i, c in enumerate(mantissa) if c.isdigit())
    d = int(text[pos])
    for step in (1, -1, 2, -2, 3, -3, 4, -4, 5, -5, 6, -6, 7, -7, 8, -8, 9, -9):
        if 0 <= d + step <= 9:
            other = float(text[:pos] + str(d + step) + text[pos + 1:])
            if other != value:
                return other
    raise AssertionError(f"no digit change moves {text}")


class TestRoundTrip:
    @_PROPERTY
    @given(records=_RECORDS, data=st.data())
    def test_write_read_round_trip(self, tmp_path_factory, records, data):
        path = tmp_path_factory.mktemp("rt") / "spec.json"
        header = SpectrumHeader(potential={"kind": "constant", "value": 1.0, "h": 0.0},
                                variant="robin", region=[0.0, 1.0, 0.0, 1.0], tolerances={})
        doc = write_spectrum(path, header, records)
        _, back, hash_ok = _read_records(path)
        assert hash_ok
        # repr tells -0.0 from 0.0, which == does not.
        assert Counter(map(repr, back)) == Counter(map(repr, records))
        assert [repr(r) for r in back] == [repr(SpectrumRecord(**d)) for d in doc["records"]]
        if not records:
            return
        i = data.draw(st.integers(0, len(records) - 1), label="record")
        key = data.draw(st.sampled_from(["re_k", "im_k", "residual"]), label="field")
        doc["records"][i][key] = _changed_last_digit(doc["records"][i][key])
        path.write_text(json.dumps(doc, indent=2))
        assert read_spectrum(path)[2] is False

    @_PROPERTY
    @given(records=_RECORDS, data=st.data())
    def test_joined_digest_text_matches_the_per_record_format(self, tmp_path_factory, records,
                                                              data):
        # Reference: one _RECORD_TEXT % row per record of the file's own text,
        # null for None, and the hash verdict of that text or of the values.
        # Float fields may hold ints, and numbers may be respelled (1.0E0).
        path = tmp_path_factory.mktemp("digest") / "spec.json"
        header = SpectrumHeader(potential={"kind": "constant", "value": 1.0, "h": 0.0},
                                variant="robin", region=[0.0, 1.0, 0.0, 1.0], tolerances={})
        doc = write_spectrum(path, header, records)
        spellings = {}
        for i, rdict in enumerate(doc["records"]):
            for key in ("re_k", "im_k", "residual"):
                how = data.draw(st.sampled_from(["as written", "int", "respelled"]),
                                label=f"{key} of record {i}")
                if how == "int":
                    rdict[key] = int(rdict[key])
                elif how == "respelled":
                    spellings[f"@{i}{key}@"] = "%.17E" % rdict[key]
                    rdict[key] = f"@{i}{key}@"
        text = json.dumps(doc, indent=2)
        for token, spelled in spellings.items():
            text = text.replace(f'"{token}"', spelled)
        path.write_text(text)
        rdicts = json.loads(text, parse_float=str.encode)["records"]
        rows = ",".join(spectrumfile._RECORD_TEXT
                        % tuple("null" if r[f] is None else
                                r[f].decode() if type(r[f]) is bytes else r[f]
                                for f in sorted(r))
                        for r in rdicts).encode()
        digested = []
        digest = spectrumfile._digest
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(spectrumfile, "_digest", lambda h, rows: digested.append(rows) or
                       digest(h, rows))
            hash_ok = read_spectrum(path)[2]
        assert digested[0] == rows
        hdict = doc["header"]
        back = [SpectrumRecord(**{k: spectrumfile._floats(v) for k, v in r.items()})
                for r in rdicts]
        verdict = (spectrumfile._digest(hdict, rows) == hdict["content_hash"]
                   or _content_hash(hdict, back) == hdict["content_hash"])
        assert hash_ok is verdict

    def test_changed_last_digit_moves_the_value(self):
        for v in (0.30000000000000004, 1e-05, 9.999999999999999e22, 2.0 ** 53, 5e-324):
            assert math.isfinite(_changed_last_digit(v)) and _changed_last_digit(v) != v

    @pytest.mark.parametrize("value", [None, True, 0, 3, 4097, -1, 1.0, 2.5, float("inf"),
                                       10 ** 400, "real", "1.5", ["real"], {}, "unchanged",
                                       "1e400 unquoted"])
    @pytest.mark.parametrize("field", spectrumfile._RECORD_FIELDS)
    def test_column_checks_match_the_per_record_reader(self, tmp_path, field, value):
        # Record 2 of a float-only file takes a value of another type, or one
        # out of range. The file reads back with the values written, or is
        # refused with an error that names record 2 and the field; a field's
        # check refuses the whole column exactly when it refuses that record's
        # value alone, which is how the reader finds the record to name.
        path = tmp_path / "spec.json"
        header = SpectrumHeader(potential={"kind": "constant", "value": 1.0, "h": 0.0},
                                variant="robin", region=[0.0, 1.0, 0.0, 1.0], tolerances={})
        doc = write_spectrum(path, header, GOLDEN_RECORDS[1:])
        written = doc["records"][2][field]
        if value != "unchanged":
            doc["records"][2][field] = value
            # A number json.dumps never writes: its text reads as inf.
            path.write_text(json.dumps(doc, indent=2).replace('"1e400 unquoted"', "1e400"))
        check = spectrumfile._CHECKS[spectrumfile._RECORD_FIELDS.index(field)]
        column = [r[field] for r in json.loads(path.read_text(),
                                               parse_float=str.encode)["records"]]
        assert (check(column) is None) is (check(column[2:3]) is None)
        try:
            _, back, hash_ok = _read_records(path)
        except ConfigError as exc:
            assert str(exc) == f"{path}: record 2 has a malformed value: {field}"
            assert value != "unchanged" and not _accepted(field, value)
            return
        assert value == "unchanged" or _accepted(field, value)
        assert [repr(r) for r in back] == [repr(SpectrumRecord(**d)) for d in doc["records"]]
        assert hash_ok is (value == "unchanged" or repr(value) == repr(written))

    def test_respelled_numbers_keep_the_hash(self, tmp_path):
        # The text check fails on another spelling of the same value; the
        # values still match, so the file verifies.
        path = tmp_path / "spec.json"
        header = SpectrumHeader(potential={"kind": "constant", "value": 1.0, "h": 0.0},
                                variant="robin", region=[0.0, 1.0, 0.0, 1.0], tolerances={})
        records = [SpectrumRecord(index=0, re_k=1.5, im_k=1e16, multiplicity=1,
                                  residual=0.0001, cls="quadrant")]
        write_spectrum(path, header, records)
        text = path.read_text()
        respelled = (text.replace('"re_k": 1.5,', '"re_k": 1.50,')
                     .replace('"im_k": 1e+16,', '"im_k": 1E+16,')
                     .replace('"residual": 0.0001,', '"residual": 1e-4,'))
        assert respelled.count("1.50,") == respelled.count("1E+16,") == 1
        assert respelled.count("1e-4,") == 1
        path.write_text(respelled)
        _, back, hash_ok = _read_records(path)
        assert hash_ok is True
        assert [repr(r) for r in back] == [repr(r) for r in records]

    def test_matching_text_skips_the_value_encoder(self, tmp_path, monkeypatch):
        path = tmp_path / "spec.json"
        header = SpectrumHeader(potential={"kind": "constant", "value": 1.0, "h": 0.0},
                                variant="robin", region=[0.0, 1.0, 0.0, 1.0], tolerances={})
        write_spectrum(path, header, GOLDEN_RECORDS)

        def refuse(*args):
            raise AssertionError("_content_hash called on a file whose text matches")

        monkeypatch.setattr(spectrumfile, "_content_hash", refuse)
        _, columns, hash_ok = read_spectrum(path)
        assert hash_ok is True and len(columns.re_k) == len(GOLDEN_RECORDS)

    def test_largest_multiplicity_loads(self, tmp_path):
        # 4096 is the most a winding count can report; one more is refused.
        path = tmp_path / "spec.json"
        header = SpectrumHeader(potential={"kind": "constant", "value": 1.0, "h": 0.0},
                                variant="robin", region=[0.0, 1.0, 0.0, 1.0], tolerances={})
        record = SpectrumRecord(index=None, re_k=0.0, im_k=0.0, multiplicity=4096,
                                residual=0.0, cls="real")
        write_spectrum(path, header, [record])
        _, back, hash_ok = _read_records(path)
        assert hash_ok and back == [record]
        doc = json.loads(path.read_text())
        doc["records"][0]["multiplicity"] = 4097
        path.write_text(json.dumps(doc))
        with pytest.raises(ConfigError, match="record 0 has a malformed value: multiplicity"):
            read_spectrum(path)


def _layout(doc, case):
    """doc with one layout fault, or the text of a file that is not JSON."""
    header, records = doc["header"], doc["records"]
    if case == "not-json":
        return "this is not JSON\n"
    if case == "not-an-object":
        return [header, records]
    if case == "no-header":
        return {"records": records}
    if case == "records-not-a-list":
        return {"header": header, "records": {"0": records[0]}}
    if case == "record-not-an-object":
        return {"header": header, "records": records[:1] + [list(records[1].values())]}
    if case == "record-lacks-branch":
        del records[1]["branch"]
    elif case == "record-unknown-key":
        records[1]["colour"] = "blue"
    elif case == "unknown-header-key":
        header["colour"] = "blue"
    elif case == "header-s-negative":
        header["s"] = -1
    elif case == "variant-unknown":
        header["variant"] = "neumann"
    elif case == "cls-unknown":
        records[2]["cls"] = "complex"
    elif case == "re_k-infinite-text":
        return json.dumps(doc).replace(json.dumps(records[3]["re_k"]), "1e400", 1)
    elif case == "deeply-nested":
        records[0]["cls"] = "nested"
        return json.dumps(doc).replace('"nested"', "[" * 5000 + "]" * 5000)
    return doc


class TestColumnReader:
    """read_spectrum checks the records by column and names the first fault."""

    HEADER = dict(potential={"kind": "constant", "value": 1.0, "h": 0.0}, variant="robin",
                  region=[0.0, 1.0, 0.0, 1.0], tolerances={})
    # Each layout fault, and the record it names when it lies in one record.
    LAYOUTS = {"not-json": None, "not-an-object": None, "no-header": None,
               "records-not-a-list": None, "record-not-an-object": 1,
               "record-lacks-branch": 1, "record-unknown-key": 1, "unknown-header-key": None,
               "header-s-negative": None, "variant-unknown": None, "cls-unknown": 2,
               "re_k-infinite-text": 3, "deeply-nested": None, "missing-file": None}

    def _write(self, path, records):
        return write_spectrum(path, SpectrumHeader(**self.HEADER), records)

    @pytest.mark.parametrize("case", ["golden", "floats-only", "empty", "int-in-float-column",
                                      "spelled-1.0E0", "changed-value", "grid-samples",
                                      "polynomial-coeffs"])
    def test_reads_back_the_values_written(self, tmp_path, case):
        path = tmp_path / "spec.json"
        records = [] if case == "empty" else GOLDEN_RECORDS if case == "golden" \
            else GOLDEN_RECORDS[1:]
        doc = self._write(path, records)
        text = path.read_text()
        if case == "int-in-float-column":
            doc = self._write(path, [replace(GOLDEN_RECORDS[2], im_k=3)] + GOLDEN_RECORDS[3:])
            text = path.read_text()
            assert '"im_k": 3,' in text
        elif case == "spelled-1.0E0":
            doc["records"][1]["re_k"] = 1.0
            doc = self._write(path, [SpectrumRecord(**d) for d in doc["records"]])
            text = path.read_text().replace('"re_k": 1.0,', '"re_k": 1.0E0,')
            assert "1.0E0" in text
        elif case == "changed-value":
            text = text.replace(repr(doc["records"][2]["residual"]), "2.5", 1)
            doc["records"][2]["residual"] = 2.5
        elif case in ("grid-samples", "polynomial-coeffs"):
            # Numbers in a list of the header read back as floats, not as their text.
            potential = ({"kind": "grid", "samples": [0.0, -1.5, 2.25], "h": 0.1}
                         if case == "grid-samples"
                         else {"kind": "polynomial", "coeffs": [-1.66856321734501, 2.5], "h": 0.0})
            doc = write_spectrum(path, SpectrumHeader(**dict(self.HEADER, potential=potential)),
                                 records)
            text = path.read_text()
        path.write_text(text)
        header, back, hash_ok = _read_records(path)
        assert repr(header) == repr(SpectrumHeader(**doc["header"]))
        # An int in a float field stays an int, as json.load reads it.
        assert [repr(r) for r in back] == [repr(SpectrumRecord(**d)) for d in doc["records"]]
        assert hash_ok is (case != "changed-value")

    @pytest.mark.parametrize("command", [["validate"], ["gamma", "--route", "direct"],
                                         ["asymptotics", "residuals"]])
    def test_finite_values_whose_sum_overflows_are_read(self, tmp_path, command, capsys):
        # Two re_k of 1.5e308 sum past the float range: the column's one-pass
        # sum test fails, and the scan value by value still accepts it, so no
        # reader refuses the file. A re_k written 1e999 reads as inf and is
        # refused by record and field.
        path = tmp_path / "spec.json"
        records = [replace(r, re_k=1.5e308) if i in (1, 3) else r
                   for i, r in enumerate(GOLDEN_RECORDS[1:])]
        doc = self._write(path, records)
        _, back, hash_ok = _read_records(path)
        assert hash_ok and [repr(r) for r in back] == [repr(SpectrumRecord(**d))
                                                       for d in doc["records"]]
        assert [r.re_k for r in back].count(1.5e308) == 2
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"potential": self.HEADER["potential"], "variant": "robin"}))
        argv = ["--config", str(config), "--out", str(tmp_path / "out")] + command
        assert main(argv + ["--spectrum", str(path)]) in (0, 2, 3)
        assert "config error" not in capsys.readouterr().err
        first = next(i for i, d in enumerate(doc["records"]) if d["re_k"] == 1.5e308)
        path.write_text(path.read_text().replace('"re_k": 1.5e+308', '"re_k": 1e999', 1))
        message = f"{path}: record {first} has a malformed value: re_k"
        with pytest.raises(ConfigError) as excinfo:
            read_spectrum(path)
        assert str(excinfo.value) == message
        assert main(argv + ["--spectrum", str(path)]) == 1
        assert capsys.readouterr().err == f"config error: {message}\n"

    @pytest.mark.parametrize("case", LAYOUTS)
    def test_malformed_layouts_raise_the_same_text(self, tmp_path, case, capsys):
        # read_spectrum's error names the file, and the record where the fault
        # lies in one; validate exits 1 and prints that text.
        path = tmp_path / "spec.json"
        doc = self._write(path, GOLDEN_RECORDS[1:])
        if case == "missing-file":
            path.unlink()
        else:
            bad = _layout(doc, case)
            path.write_text(bad if isinstance(bad, str) else json.dumps(bad))
        with pytest.raises(ConfigError) as excinfo:
            read_spectrum(path)
        message = str(excinfo.value)
        assert message.startswith(f"{path}: ")
        record = self.LAYOUTS[case]
        assert (": record " in message) is (record is not None)
        assert record is None or message.startswith(f"{path}: record {record} ")
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"potential": self.HEADER["potential"],
                                      "variant": "robin"}))
        assert main(["--config", str(config), "validate", "--spectrum", str(path)]) == 1
        assert capsys.readouterr().err == f"config error: {message}\n"

    @pytest.mark.parametrize("warnings", [5, None, [1], "degenerate potential",
                                          ["degenerate", ["nested"]]])
    def test_malformed_warnings_exit_1(self, tmp_path, warnings, capsys):
        # validate reads the warnings of a file with no records for its
        # degeneracy note; anything but a list of strings is refused up front.
        path = tmp_path / "spec.json"
        doc = self._write(path, [])
        doc["header"]["warnings"] = warnings
        path.write_text(json.dumps(doc))
        with pytest.raises(ConfigError) as excinfo:
            read_spectrum(path)
        assert str(excinfo.value) == f"{path}: malformed header warnings {warnings!r}"
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"potential": self.HEADER["potential"], "variant": "robin"}))
        assert main(["--config", str(config), "validate", "--spectrum", str(path)]) == 1
        assert capsys.readouterr().err == f"config error: {excinfo.value}\n"

    def test_matching_text_builds_no_record(self, tmp_path, monkeypatch):
        path = tmp_path / "spec.json"
        self._write(path, GOLDEN_RECORDS)
        monkeypatch.setattr(spectrumfile, "SpectrumRecord", None)
        _, columns, hash_ok = read_spectrum(path)
        assert hash_ok and len(columns.re_k) == len(GOLDEN_RECORDS)
        # GOLDEN_RECORDS[0]'s int residual stays an int.
        assert sorted(type(v).__name__ for v in columns.residual) == ["float"] * 5 + ["int"]
