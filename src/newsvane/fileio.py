"""Atomic file writers.

All machine outputs (CSV, JSON, checkpoints) go through these helpers: the
content is written to a temporary file in the target directory and renamed
into place, so a crashed run never leaves a truncated report behind.
"""

from __future__ import annotations

import csv
import io
import json
import os
import tempfile
from pathlib import Path
from typing import Any, Iterable, Sequence


def write_text_atomic(path: str | Path, content: str) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(content)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


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
