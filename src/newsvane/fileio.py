"""Atomic file writers and the strict JSON reader.

All machine outputs (CSV, JSON, checkpoints and their sidecars) go through
these helpers: the content is written to a temporary file in the target
directory and renamed into place, so a crashed run never leaves a truncated
report behind. Run configs and checkpoints are read back with ``read_json``
and the strict converters below.
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
from typing import Any, BinaryIO, Callable, Iterable, Iterator, Sequence


@contextmanager
def open_atomic(path: str | Path) -> Iterator[BinaryIO]:
    """A binary file whose content replaces ``path`` only when the block
    exits without an exception; until then it is a temporary file beside it."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_text_atomic(path: str | Path, content: str) -> None:
    with open_atomic(path) as fh:
        fh.write(content.encode("utf-8"))


def csv_text(header: Sequence[str], rows: Iterable[Sequence]) -> str:
    """CSV text with LF line endings: the header row, then ``rows``."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def write_json_atomic(path: str | Path, payload: Any) -> None:
    """Write JSON with sorted keys so identical payloads are byte-identical."""
    write_text_atomic(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def read_json(path: str | Path) -> Any:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


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


def list_of(convert: Callable, length: int | None = None) -> Callable:
    """A JSON list (of ``length`` elements, if given), converted element-wise."""
    def parse(value) -> tuple:
        if not isinstance(value, list):
            raise ValueError(f"expected a JSON list, got {value!r}")
        if length is not None and len(value) != length:
            raise ValueError(f"expected a list of {length} elements, got {value!r}")
        return tuple(convert(v) for v in value)
    return parse


def optional(convert: Callable) -> Callable:
    """JSON null is None; any other value must convert."""
    return lambda value: None if value is None else convert(value)


# Converter per dataclass field annotation (a string, under postponed
# evaluation), shared by every dataclass read from JSON.
CONVERTERS: dict[str, Callable] = {
    "int": strict_int, "float": strict_number, "str": strict_str, "bool": strict_bool,
    "tuple[int, ...]": list_of(strict_int), "tuple[int, int]": list_of(strict_int, 2),
    "tuple[str, ...]": list_of(strict_str),
    "int | None": optional(strict_int), "str | None": optional(strict_str),
}
