"""On-disk artifacts: the one module that opens files, for reading or writing.

`atomic_open` writes to a temporary file beside the target and renames it over
the target only once the write has finished, so an interrupted process leaves
the previous file (or none) and no temporary. Files are not fsynced: this guards
against a crash of the process, not of the machine.

JSON has one written form: sorted keys, indent 2, a trailing newline, and
no NaN or infinity (the writers raise ValueError), and one read,
`read_json`, which turns a document that is not JSON (NaN, Infinity and
-Infinity included), lacks a key its reader looks up or holds a value the
reader cannot use (TypeError, ValueError or ConfigError) into
HeaderMismatchError (exit 2) naming the file. Arrays are blobs:
little-endian f64 in `<stem>.bin` plus a JSON sidecar `<stem>.json`, the
stem being the path without a trailing ".bin" ("ckpt" and "ckpt.bin" name
one pair; "s.dat" names s.dat.bin and s.dat.json). The blob is written
before its sidecar, and the reader checks that the payload holds exactly 8
bytes per value of the sidecar's shape. Tables (edge lists, coordinates,
CSV series, demo 05's cost table) are comma-separated text, one row per
line: `write_csv` writes floats with `repr` and everything else with `str`,
and `read_csv` converts each field by its column's kind, turning a wrong
field count or an unconvertible field into DataLoadError (exit 2) naming
`<path>:<line>:`.
"""
from __future__ import annotations

import json
import math
import os
from contextlib import contextmanager, suppress

import numpy as np

from .errors import ConfigError, DataLoadError, HeaderMismatchError


@contextmanager
def atomic_open(path, mode: str = "w"):
    """Yield a file opened with `mode` that replaces `path` when the block exits cleanly."""
    head, tail = os.path.split(os.fspath(path))
    tmp = os.path.join(head, f".{tail}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def write_json(path, doc):
    with atomic_open(path) as fh:
        json.dump(doc, fh, sort_keys=True, indent=2, allow_nan=False)
        fh.write("\n")


def write_jsonl(path, records):
    """One compact, key-sorted JSON object per line."""
    with atomic_open(path) as fh:
        for record in records:
            fh.write(json.dumps(record, sort_keys=True, allow_nan=False) + "\n")


def _not_a_number(token):
    raise ValueError(f"{token} is not a JSON number")


def read_json(path, parse):
    """Returns `parse(doc)` for the JSON document at `path`.

    Text that does not parse as JSON (NaN, Infinity and -Infinity included),
    a document without a key that `parse` looks up, or a value it cannot use
    (TypeError, ValueError, or a ConfigError from a config object it builds)
    raises HeaderMismatchError naming the path, so `parse` should read every
    field.
    """
    with open(path) as fh:
        try:
            return parse(json.load(fh, parse_constant=_not_a_number))
        except json.JSONDecodeError as exc:
            raise HeaderMismatchError(f"{path}: not valid JSON ({exc})") from None
        except KeyError as exc:
            raise HeaderMismatchError(f"{path}: missing key {exc}") from None
        except (TypeError, ValueError, ConfigError) as exc:
            raise HeaderMismatchError(f"{path}: malformed value ({exc})") from None


def write_csv(path, rows, header=()):
    """One comma-separated line per row, after a `header` line when one is given."""
    with atomic_open(path) as fh:
        if header:
            fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(repr(float(v)) if isinstance(v, float) else str(v)
                              for v in row) + "\n")


def read_csv(path, kinds):
    """[(line number, values)] of the non-blank lines at `path`, each field
    converted by its column's kind (int, float, ...). A function `kinds` reads
    the first line as a header and returns the kinds, or raises ValueError.
    A wrong field count or an unconvertible field raises DataLoadError."""
    rows, lineno = [], 1
    # undecodable bytes reach the converters, which reject them on their own line
    with open(path, errors="surrogateescape") as fh:
        try:
            if callable(kinds):
                kinds = kinds(fh.readline().strip().split(","))
                lineno = 2
            for lineno, line in enumerate(fh, lineno):
                fields = line.strip().split(",")
                if fields == [""]:
                    continue
                if len(fields) != len(kinds):
                    raise ValueError(f"expected {len(kinds)} fields, got {len(fields)}")
                rows.append((lineno, [kind(v) for kind, v in zip(kinds, fields)]))
        except ValueError as exc:
            raise DataLoadError(f"{path}:{lineno}: {exc}") from None
    return rows


def _stem(path) -> str:
    return os.fspath(path).removesuffix(".bin")


def write_blob(path, arrays, sidecar: dict):
    """Concatenate `arrays` as little-endian f64 into the blob, then write the sidecar."""
    stem = _stem(path)
    with atomic_open(stem + ".bin", "wb") as fh:
        for arr in arrays:
            fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())
    write_json(stem + ".json", sidecar)


def read_blob(path, parse):
    """Returns (payload, fields) where `parse(sidecar)` gives (payload shape, fields)."""
    stem = _stem(path)

    def shape_and_fields(doc):
        shape, fields = parse(doc)
        return tuple(int(v) for v in shape), fields

    shape, fields = read_json(stem + ".json", shape_and_fields)
    values = math.prod(shape)
    with open(stem + ".bin", "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if size != 8 * values:
            held = f"{size // 8} values" + (f" and {size % 8} bytes" if size % 8 else "")
            raise HeaderMismatchError(f"{stem}.bin: payload holds {held}, "
                                      f"sidecar implies {values}")
        flat = np.fromfile(fh, dtype="<f8").astype(np.float64, copy=False)
    return flat.reshape(shape), fields
