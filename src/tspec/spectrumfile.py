"""Spectrum files: the JSON format the CLI writes, plus its CSV mirror.

Records hold one row per zero of D (the full symmetry orbit, so the set is
closed under k -> -k and k -> k*), sorted by index then |k|. The header embeds
a content hash over everything except the timestamp, so identical runs are
verifiable byte-for-byte up to `created`. Reading verifies that hash against
the file's own number text and re-encodes the values only when the text does
not match.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from collections import namedtuple
from dataclasses import asdict, dataclass, field, replace
from datetime import datetime, timezone
from operator import attrgetter, itemgetter
from typing import List, Optional

from . import __version__
from .errors import ConfigError
from .potential import VARIANTS, finite_real
from .rootfind import _MAX_BOUNDARY_POINTS

_RECORD_FIELDS = ("index", "re_k", "im_k", "multiplicity", "residual", "cls", "branch")
# One record as _canonical writes asdict(record): keys sorted, no spaces. Exact
# for the values read_spectrum accepts (Python ints and floats, cls from
# _CLASSES); index and branch go through %s so that None can become null.
_RECORD_JSON = ('{"branch":%s,"cls":"%s","im_k":%r,"index":%s,'
                '"multiplicity":%r,"re_k":%r,"residual":%r}')
# The same row from the number text of a file (read_spectrum).
_RECORD_TEXT = _RECORD_JSON.replace("%r", "%s")
_ROW = itemgetter(*_RECORD_FIELDS)
_FIELDS = attrgetter(*_RECORD_FIELDS)
# The records of a spectrum as one sequence per field, in _RECORD_FIELDS order:
# SpectrumRecord(*row) for each row of zip(*columns).
_Columns = namedtuple("_Columns", _RECORD_FIELDS)
_CLASSES = ("real", "imaginary", "quadrant")
# A winding count accepts only wrapped phase jumps <= pi/2 between boundary
# samples, so no count tspec makes, and no multiplicity it writes, exceeds this.
_MAX_MULTIPLICITY = _MAX_BOUNDARY_POINTS // 4


def _columns_of(records) -> _Columns:
    """The columns of a list of SpectrumRecord."""
    if not records:
        return _Columns(*[()] * len(_RECORD_FIELDS))
    return _Columns(*zip(*map(_FIELDS, records)))


class _Number(str):
    """A JSON float kept as the text the file spells it with."""

    __slots__ = ()


@dataclass
class SpectrumRecord:
    index: Optional[int]
    re_k: float
    im_k: float
    multiplicity: int
    residual: float
    cls: str
    branch: Optional[int] = None

    @property
    def k(self) -> complex:
        return complex(self.re_k, self.im_k)


@dataclass
class SpectrumHeader:
    potential: dict
    variant: str
    region: list
    tolerances: dict
    s: int = 0
    warnings: List[str] = field(default_factory=list)
    tool_version: str = __version__
    created: str = ""
    potential_hash: str = ""
    content_hash: str = ""


def _canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def potential_hash(potential: dict) -> str:
    return hashlib.sha256(_canonical(potential).encode()).hexdigest()[:16]


def _digest(header_dict: dict, rows) -> str:
    """sha256 of the header without created and content_hash, and the encoded rows."""
    body = {k: v for k, v in header_dict.items() if k not in ("created", "content_hash")}
    text = '{"header":' + _canonical(body) + ',"records":[' + ",".join(rows) + "]}"
    return hashlib.sha256(text.encode()).hexdigest()


def _content_hash(header_dict: dict, records: List[SpectrumRecord]) -> str:
    """sha256 of _canonical({"header": header without created and content_hash,
    "records": [asdict(r) for r in records]}), with each record encoded by
    _RECORD_JSON instead of a dict and json.dumps."""
    return _digest(header_dict, [_RECORD_JSON % ("null" if r.branch is None else r.branch, r.cls,
                                                 r.im_k, "null" if r.index is None else r.index,
                                                 r.multiplicity, r.re_k, r.residual)
                                 for r in records])


def _plain_float(value):
    """A numpy float as the Python float json writes for it; anything else unchanged."""
    return float(value) if isinstance(value, float) else value


def write_spectrum(path, header: SpectrumHeader, records: List[SpectrumRecord]) -> dict:
    """Serialize to JSON; returns the document written (for tests)."""
    records = sorted((replace(r, re_k=_plain_float(r.re_k), im_k=_plain_float(r.im_k),
                              residual=_plain_float(r.residual)) for r in records),
                     key=lambda r: (r.index if r.index is not None else 10 ** 9,
                                    abs(r.k), r.re_k, r.im_k))
    header.potential_hash = potential_hash(header.potential)
    header.created = header.created or datetime.now(timezone.utc).isoformat()
    hdict = asdict(header)
    hdict["content_hash"] = _content_hash(hdict, records)
    # A record's fields are flat values, so its __dict__ copied is asdict(record).
    doc = {"header": hdict, "records": [dict(vars(r)) for r in records]}
    with open(path, "w") as fh:
        fh.write(json.dumps(doc, indent=2) + "\n")
    return doc


def _floats(obj):
    """obj with every _Number in it turned into the float json.load gives for it."""
    if type(obj) is _Number:
        return float(obj)
    if type(obj) is dict:
        return dict(zip(obj, map(_floats, obj.values())))
    if type(obj) is list:
        return list(map(_floats, obj))
    return obj


def _float_column(column):
    """The floats of a column of _Number text, or None unless all are finite."""
    if set(map(type, column)) - {_Number}:
        return None
    values = list(map(float, column))
    return values if all(map(math.isfinite, values)) else None


def _columns(doc):
    """The seven record columns of doc (floats as _Number text) and the values
    of re_k, im_k and residual; None unless doc is a header dict and a list of
    records that pass every value check."""
    if not (type(doc) is dict and type(doc.get("header")) is dict
            and type(doc.get("records")) is list):
        return None
    rdicts = doc["records"]
    if set(map(type, rdicts)) - {dict} or set(map(len, rdicts)) - {len(_RECORD_FIELDS)}:
        return None
    try:
        columns = list(zip(*map(_ROW, rdicts))) or [()] * len(_RECORD_FIELDS)
    except KeyError:
        return None
    index, re_k, im_k, multiplicity, residual, cls, branch = columns
    if (set(map(type, index)) - {int, type(None)} or set(map(type, branch)) - {int, type(None)}
            or set(map(type, multiplicity)) - {int}
            or rdicts and not 0 < min(multiplicity) <= max(multiplicity) <= _MAX_MULTIPLICITY
            or set(map(type, cls)) - {str} or set(cls) - set(_CLASSES)):
        return None
    floats = [_float_column(re_k), _float_column(im_k), _float_column(residual)]
    return None if None in floats else (columns, floats)


def _nulls(column):
    return ["null" if v is None else v for v in column]


def _check_header(path, header):
    if not (type(header.s) is int and header.s >= 0 and header.variant in VARIANTS):
        raise ConfigError(f"{path}: malformed header s {header.s!r} or variant {header.variant!r}")


def _read_by_record(path, doc):
    """read_spectrum on a document of plain floats, one record at a time: it
    names the first fault, in the order the checks run."""
    try:
        hdict = dict(doc["header"])
        rdicts = doc["records"]
        header = SpectrumHeader(**hdict)
        records = [SpectrumRecord(**r) for r in rdicts]
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise ConfigError(f"{path}: not a spectrum file ({exc})") from None
    _check_header(path, header)
    for i, r in enumerate(records):
        # An unknown key already failed above; branch is the one field with a default.
        if len(rdicts[i]) != len(_RECORD_FIELDS):
            raise ConfigError(f"{path}: record {i} lacks a field; records hold exactly "
                              f"{', '.join(_RECORD_FIELDS)}")
        ok = {"index": r.index is None or type(r.index) is int,
              "re_k": finite_real(r.re_k), "im_k": finite_real(r.im_k),
              "multiplicity": (type(r.multiplicity) is int
                               and 0 < r.multiplicity <= _MAX_MULTIPLICITY),
              "residual": finite_real(r.residual), "cls": r.cls in _CLASSES,
              "branch": r.branch is None or type(r.branch) is int}
        if not all(ok.values()):
            # Named, not copied: a value may nest too deeply to copy or print.
            raise ConfigError(f"{path}: record {i} has a malformed value: "
                              + ", ".join(name for name in ok if not ok[name]))
    return header, records, hdict.get("content_hash", "") == _content_hash(hdict, records)


def read_spectrum(path):
    """Read a spectrum file back losslessly; verifies the content hash.

    A file that cannot be read, is not JSON or lacks the spectrum layout raises
    ConfigError, as does a header key outside SpectrumHeader, a record whose
    keys are not exactly _RECORD_FIELDS, or a malformed value: s must be an
    int >= 0, variant robin or dirichlet, index and branch an int or null,
    re_k, im_k and residual finite, multiplicity an int from 1 to
    _MAX_MULTIPLICITY and cls one of _CLASSES.

    The records are checked by column (_read_columns) and built from the
    columns. The hash is first taken over the file's own number text:
    json.dump writes float.__repr__, which round-trips, so a match there is a
    match on the values, and only a file whose text does not match (a number
    spelled another way, a changed value) has its values re-encoded by
    _content_hash. A file that fails a column check, or holds an integer
    where a float belongs, takes the per-record path, which gives the same
    answer and names the first fault. A file nested too deeply to parse or
    check raises ConfigError as well.
    """
    header, columns, hash_ok = _read_columns(path)
    return header, list(map(SpectrumRecord, *columns)), hash_ok


def _read_columns(path):
    """read_spectrum with the records as _Columns: (header, columns, hash_ok),
    the same checks, errors and hash verdict, and no record built unless the
    file's number text misses the hash or the file takes the per-record path."""
    try:
        return _read(path)
    except RecursionError:
        raise ConfigError(f"{path}: not a spectrum file (values nested too deeply)") from None


def _read(path):
    try:
        with open(path) as fh:
            doc = json.load(fh, parse_float=_Number)
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read spectrum file ({exc.strerror or exc})") from None
    except ValueError as exc:
        raise ConfigError(f"{path}: not a JSON file ({exc})") from None
    checked = _columns(doc)
    if checked is None:
        header, records, hash_ok = _read_by_record(path, _floats(doc))
        return header, _columns_of(records), hash_ok
    columns, (re_v, im_v, residual_v) = checked
    hdict = _floats(doc["header"])
    try:
        header = SpectrumHeader(**hdict)
    except TypeError as exc:
        raise ConfigError(f"{path}: not a spectrum file ({exc})") from None
    _check_header(path, header)
    index, re_k, im_k, multiplicity, residual, cls, branch = columns
    values = _Columns(index, re_v, im_v, multiplicity, residual_v, cls, branch)
    stored = hdict.get("content_hash", "")
    rows = map(_RECORD_TEXT.__mod__, zip(_nulls(branch), cls, im_k, _nulls(index),
                                         multiplicity, re_k, residual))
    return header, values, (_digest(hdict, rows) == stored
                            or _content_hash(hdict, list(map(SpectrumRecord, *values))) == stored)


def write_spectrum_csv(path, records: List[SpectrumRecord]):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_RECORD_FIELDS)
        for r in records:
            writer.writerow([r.index, repr(r.re_k), repr(r.im_k), r.multiplicity,
                             repr(r.residual), r.cls, r.branch])
