"""Atomic file writers, the text of CSV and JSON outputs, and the readers
every input file enters through.

All machine outputs (CSV, JSON, checkpoints and their sidecars) are written
through ``open_atomic``: the content is written to a temporary file in the
target directory and renamed into place, so a crashed run never leaves a
truncated report behind. ``csv_text`` and ``json_text`` build the text of
CSV and JSON outputs. Every text input is opened as UTF-8 by ``open_text``; CSV
inputs are read by ``read_csv``, and JSON inputs by ``read_json`` and then
``read_object`` with the strict converters below.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import tempfile
from contextlib import contextmanager
from pathlib import Path
from typing import Any, BinaryIO, Callable, Iterable, Iterator, Sequence, TextIO

from .allocation import collector_paused


@contextmanager
def open_atomic(path: str | Path) -> Iterator[BinaryIO]:
    """A binary file whose content replaces ``path`` only when the block exits
    without an exception; until then it is a temporary file beside it. An
    OSError names ``path``, not the temporary file."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
        with os.fdopen(fd, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException as exc:
        if tmp and os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, OSError) and exc.errno is not None:
            raise OSError(exc.errno, exc.strerror, str(path)) from None
        raise


def write_text_atomic(path: str | Path, content: str) -> None:
    with open_atomic(path) as fh:
        fh.write(content.encode("utf-8"))


class _LineFeedRows(io.StringIO):
    """Rows a csv writer ends with CRLF (so it quotes a bare CR too), stored ending in LF."""

    def write(self, row: str) -> int:
        return super().write(row[:-2] + "\n")


def csv_text(header: Sequence[str], rows: Iterable[Sequence]) -> str:
    """CSV text with LF line endings: the header row, then ``rows``. A field
    holding CR or LF is quoted, so ``read_csv`` reads every field back."""
    buf = _LineFeedRows()
    writer = csv.writer(buf, lineterminator="\r\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def json_text(payload: Any) -> str:
    """JSON text with sorted keys, so identical payloads give identical bytes."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


@contextmanager
def open_text(path: str | Path, newline: str | None = None) -> Iterator[TextIO]:
    """``path`` opened for reading as UTF-8 text, less a leading byte-order
    mark. Bytes that are not UTF-8, met anywhere in the block, raise
    ValueError naming the file."""
    with open(path, encoding="utf-8-sig", newline=newline) as fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: not UTF-8 text ({exc.reason})") from None


@collector_paused
def read_csv(path: str | Path, headers: Sequence[Sequence[str]],
             parse: Callable[[int, list[str]], None]) -> list[str]:
    """Call ``parse(line, row)`` on each non-blank row of the CSV file ``path``,
    whose header, returned, must be one of ``headers``. ``line`` is the physical
    line the row starts on. A row whose field count is not the header's, or a
    ValueError from ``parse``, raises ValueError as ``<path>: line <line>: ...``."""
    with open_text(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header not in headers:
            raise ValueError(f"{path}: expected header {' or '.join(map(','.join, headers))}")
        width = len(header)
        line = reader.line_num + 1
        for row in reader:
            if row:
                try:
                    if len(row) != width:
                        raise ValueError(f"expected {width} fields, got {len(row)}")
                    parse(line, row)
                except ValueError as exc:
                    raise ValueError(f"{path}: line {line}: {exc}") from exc
            line = reader.line_num + 1
    return header


def read_json(path: str | Path) -> Any:
    with open_text(path) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: invalid JSON ({exc})") from None


def read_object(value, converters: dict[str, Callable | dict], name: str = "",
                required: bool = False) -> dict:
    """The JSON object ``value`` (named ``name``; "" is the top level) with each
    value converted by its key's converter, or read the same way by a nested
    dict of converters (which, wrapped in ``optional``, also takes null as
    None). A key with no converter, a value its converter rejects and, if
    ``required``, an absent key raise ValueError naming ``<name>.<key>``."""
    if not isinstance(value, dict):
        raise ValueError(f"{name or 'top level'}: expected a JSON object, got {type(value).__name__}")
    prefix = f"{name}." if name else ""
    for key in converters if required else ():
        if key not in value:
            raise ValueError(f"{prefix}{key}: missing")
    out = {}
    for key, item in value.items():
        convert = converters.get(key)
        if convert is None:
            raise ValueError(f"{prefix}{key}: unknown key")
        if isinstance(convert, dict):
            out[key] = (None if item is None and isinstance(convert, _OptionalObject)
                        else read_object(item, convert, prefix + key, required))
        else:
            try:
                out[key] = convert(item)
            except (TypeError, ValueError) as exc:
                raise ValueError(f"{prefix}{key}: {exc}") from None
    return out


# Converters from parsed JSON to typed values. Each accepts only the JSON
# type its value documents and raises ValueError otherwise: Python's own
# conversions would turn "SYN0" into a tuple of letters, "false" into True,
# 2.5 into 2 and "0.1" into 0.1.


def strict_bool(value) -> bool:
    """JSON true/false only."""
    if not isinstance(value, bool):
        raise ValueError(f"expected true or false, got {value!r}")
    return value


def strict_int(value) -> int:
    """A JSON integer, or a number with an integral value; never a bool."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or isinstance(value, float) and not value.is_integer()):
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


def strict_number(value) -> float:
    """A finite JSON integer or float; never a bool, a string, NaN or Infinity."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        raise ValueError(f"expected a number, got {value!r}")
    return float(value)


def strict_str(value) -> str:
    if not isinstance(value, str):
        raise ValueError(f"expected a string, got {value!r}")
    return value


def strict_object(value) -> dict:
    """A JSON object, its keys unchecked."""
    if not isinstance(value, dict):
        raise ValueError(f"expected a JSON object, got {type(value).__name__}")
    return value


def list_of(convert: Callable, length: int | None = None) -> Callable:
    """A JSON list (of ``length`` elements, if given), converted element-wise."""
    def parse(value) -> tuple:
        if not isinstance(value, list):
            raise ValueError(f"expected a JSON list, got {value!r}")
        if length is not None and len(value) != length:
            raise ValueError(f"expected a list of {length} elements, got {value!r}")
        return tuple(convert(v) for v in value)
    return parse


class _OptionalObject(dict):
    """A nested dict of converters whose object may also be JSON null."""


def optional(convert: Callable | dict) -> Callable | dict:
    """JSON null is None; any other value must convert (or, for a nested dict
    of converters, be an object ``read_object`` reads with it)."""
    if isinstance(convert, dict):
        return _OptionalObject(convert)
    return lambda value: None if value is None else convert(value)


# Converter per dataclass field annotation (a string, under postponed
# evaluation), shared by every dataclass read from JSON.
CONVERTERS: dict[str, Callable] = {
    "int": strict_int, "float": strict_number, "str": strict_str, "bool": strict_bool,
    "tuple[int, ...]": list_of(strict_int), "tuple[int, int]": list_of(strict_int, 2),
    "tuple[str, ...]": list_of(strict_str),
    "int | None": optional(strict_int), "str | None": optional(strict_str),
}
