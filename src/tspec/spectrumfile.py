"""Spectrum files: the JSON format the CLI writes, plus its CSV mirror.

Records hold one row per zero of D (the full symmetry orbit, so the set is
closed under k -> -k and k -> k*), sorted by index then |k|. The header embeds
a content hash over everything except the timestamp, so identical runs are
verifiable byte-for-byte up to `created`. Reading holds every float as the
file's own bytes for it until the column checks convert it, verifies the hash
against that number text and re-encodes the values only when the text does
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
from operator import itemgetter
from typing import List, Optional

import numpy as np

from . import __version__
from .errors import ConfigError
from .potential import VARIANTS
from .rootfind import _MAX_BOUNDARY_POINTS

_RECORD_FIELDS = ("index", "re_k", "im_k", "multiplicity", "residual", "cls", "branch")
# One record as _canonical writes asdict(record): keys sorted, no spaces. Exact
# for the values read_spectrum accepts (Python ints and floats, cls from
# _CLASSES); index and branch go through %s so that None can become null.
_RECORD_JSON = ('{"branch":%s,"cls":"%s","im_k":%r,"index":%s,'
                '"multiplicity":%r,"re_k":%r,"residual":%r}')
# The same row from the number text of a file (read_spectrum), as its bytes
# pieces: each field's text goes between two of them.
_RECORD_TEXT = _RECORD_JSON.replace("%r", "%s")
_RECORD_PIECES = tuple(piece.encode() for piece in _RECORD_TEXT.split("%s"))
# The records of a spectrum as one sequence per field (read_spectrum):
# SpectrumRecord(*row) for each row of zip(*columns).
_Columns = namedtuple("_Columns", _RECORD_FIELDS)
_CLASSES = ("real", "imaginary", "quadrant")
# A winding count accepts only wrapped phase jumps <= pi/2 between boundary
# samples, so no count tspec makes, and no multiplicity it writes, exceeds this.
_MAX_MULTIPLICITY = _MAX_BOUNDARY_POINTS // 4


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


def _digest(header_dict: dict, records: bytes) -> str:
    """sha256 of the header without created and content_hash, and the records' text
    (the encoded rows joined by commas)."""
    body = {k: v for k, v in header_dict.items() if k not in ("created", "content_hash")}
    digest = hashlib.sha256(('{"header":' + _canonical(body) + ',"records":[').encode())
    digest.update(records)
    digest.update(b"]}")
    return digest.hexdigest()


def _content_hash(header_dict: dict, records: List[SpectrumRecord]) -> str:
    """sha256 of _canonical({"header": header without created and content_hash,
    "records": [asdict(r) for r in records]}), with each record encoded by
    _RECORD_JSON instead of a dict and json.dumps."""
    return _digest(header_dict, ",".join(
        _RECORD_JSON % ("null" if r.branch is None else r.branch, r.cls, r.im_k,
                        "null" if r.index is None else r.index, r.multiplicity, r.re_k,
                        r.residual)
        for r in records).encode())


def _plain_float(value):
    """A numpy float as the Python float json writes for it; anything else unchanged."""
    return float(value) if isinstance(value, float) else value


def write_spectrum(path, header: SpectrumHeader, records: List[SpectrumRecord]) -> dict:
    """Serialize to JSON; returns the document written (for tests)."""
    records = [replace(r, re_k=_plain_float(r.re_k), im_k=_plain_float(r.im_k),
                       residual=_plain_float(r.residual)) for r in records]
    with np.errstate(over="ignore"):    # a modulus past the float range sorts as inf
        mods = np.hypot([r.re_k for r in records], [r.im_k for r in records]).tolist()
    keys = [(10 ** 9 if r.index is None else r.index, m, r.re_k, r.im_k)
            for r, m in zip(records, mods)]
    records = [r for _, r in sorted(zip(keys, records), key=itemgetter(0))]
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
    """obj with every float's bytes in it turned into the float json.load gives for it."""
    if type(obj) is bytes:
        return float(obj)
    if type(obj) is dict:
        return dict(zip(obj, map(_floats, obj.values())))
    if type(obj) is list:
        return list(map(_floats, obj))
    return obj


def _reals(column):
    """A column's values (float bytes as floats, ints as ints); None unless all are finite.

    A finite sum shows every float finite at once; only a sum past the float
    range, or a column holding ints (which past that range can cancel in the
    sum), takes the scan value by value."""
    types = set(map(type, column))
    if types - {bytes, int}:
        return None
    values = ([float(v) if type(v) is bytes else v for v in column] if int in types
              else list(map(float, column)))
    if int not in types and math.isfinite(sum(values)):
        return values
    try:
        return values if all(map(math.isfinite, values)) else None
    except OverflowError:       # an int beyond float range
        return None


def _optional_ints(column):
    return None if set(map(type, column)) - {int, type(None)} else column


def _multiplicities(column):
    if (set(map(type, column)) - {int}
            or column and not 0 < min(column) <= max(column) <= _MAX_MULTIPLICITY):
        return None
    return column


def _classes(column):
    return None if set(map(type, column)) - {str} or set(column) - set(_CLASSES) else column


# Each field's check, in _RECORD_FIELDS order: the column's values, or None
# when one is malformed. The reader runs each on whole columns, and on single
# values only to name the first fault.
_CHECKS = (_optional_ints, _reals, _reals, _multiplicities, _reals, _classes, _optional_ints)


def _columns(rdicts):
    """Each field's values in _RECORD_FIELDS order; None unless each holds exactly those keys."""
    if set(map(type, rdicts)) - {dict} or set(map(len, rdicts)) - {len(_RECORD_FIELDS)}:
        return None
    try:
        return [tuple(map(itemgetter(name), rdicts)) for name in _RECORD_FIELDS]
    except KeyError:
        return None


def read_spectrum(path):
    """Read a spectrum file back losslessly: (header, record columns as _Columns, hash_ok).

    ConfigError names the file when it cannot be read, is not JSON, lacks the
    spectrum layout or nests too deeply, for a header key outside SpectrumHeader,
    an s that is not an int >= 0, a variant outside VARIANTS or warnings that are
    not a list of str. It names the first record that is not an object holding
    exactly _RECORD_FIELDS, or the first with a malformed value and its faulty
    fields (see _CHECKS and the README). The hash is first taken over the file's
    own number text, which json.load hands over as bytes (parse_float=str.encode)
    while strings stay str: json.dump writes float.__repr__, which round-trips,
    so only a file whose text misses has its values re-encoded by _content_hash.
    """
    try:
        return _read(path)
    except RecursionError:
        raise ConfigError(f"{path}: not a spectrum file (values nested too deeply)") from None


def _read(path):
    try:
        with open(path) as fh:
            doc = json.load(fh, parse_float=str.encode)
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read spectrum file ({exc.strerror or exc})") from None
    except ValueError as exc:
        raise ConfigError(f"{path}: not a JSON file ({exc})") from None
    if not (type(doc) is dict and type(doc.get("header")) is dict
            and type(doc.get("records")) is list):
        raise ConfigError(f"{path}: not a spectrum file (expected an object with a header "
                          "object and a records list)")
    hdict = _floats(doc["header"])
    try:
        header = SpectrumHeader(**hdict)
    except TypeError as exc:
        raise ConfigError(f"{path}: not a spectrum file ({exc})") from None
    if not (type(header.s) is int and header.s >= 0 and header.variant in VARIANTS):
        raise ConfigError(f"{path}: malformed header s {header.s!r} or variant {header.variant!r}")
    if type(header.warnings) is not list or set(map(type, header.warnings)) - {str}:
        raise ConfigError(f"{path}: malformed header warnings {header.warnings!r}")
    columns = _columns(doc["records"])
    if columns is None:
        i = next(i for i, r in enumerate(doc["records"]) if _columns([r]) is None)
        raise ConfigError(f"{path}: record {i} is not an object holding exactly "
                          + ", ".join(_RECORD_FIELDS))
    values = _Columns(*(check(column) for check, column in zip(_CHECKS, columns)))
    if None in values:
        for i, row in enumerate(zip(*columns)):
            bad = [name for name, check, v in zip(_RECORD_FIELDS, _CHECKS, row)
                   if check([v]) is None]
            if bad:     # named, not copied: a value may nest too deeply to copy or print
                raise ConfigError(f"{path}: record {i} has a malformed value: " + ", ".join(bad))
    # The file's number text in one join of _RECORD_PIECES and the column texts.
    *pieces, last = _RECORD_PIECES
    text = ([p for piece in pieces for p in (piece, None)] + [last + b","]) * len(columns[0])
    for j, (_, column) in enumerate(sorted(zip(_RECORD_FIELDS, columns))):  # template order
        if set(map(type, column)) - {bytes}:    # ints, None as null and cls: by value
            spelled = {v: v if type(v) is bytes else b"null" if v is None else str(v).encode()
                       for v in set(column)}
            column = list(map(spelled.__getitem__, column))
        text[2 * j + 1::2 * len(pieces) + 1] = column
    stored = hdict.get("content_hash", "")
    return header, values, (_digest(hdict, b"".join(text)[:-1]) == stored  # no last comma
                            or _content_hash(hdict, list(map(SpectrumRecord, *values))) == stored)


def write_spectrum_csv(path, records: List[SpectrumRecord]):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_RECORD_FIELDS)
        for r in records:
            writer.writerow([r.index, repr(r.re_k), repr(r.im_k), r.multiplicity,
                             repr(r.residual), r.cls, r.branch])
