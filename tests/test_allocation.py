"""The pinned mmap threshold: a freed table-sized array leaves nothing resident."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import newsvane
from newsvane.allocation import pin_mmap_threshold

SRC = str(Path(newsvane.__file__).resolve().parents[1])
ON_GLIBC = hasattr(os, "confstr") and (os.confstr("CS_GNU_LIBC_VERSION") or "").startswith("glibc")
needs_glibc = pytest.mark.skipif(not (ON_GLIBC and Path("/proc/self/statm").exists()),
                                 reason="needs glibc and /proc/self/statm")

# Allocates, fills and frees a 16 MB array (a V=20k, p=100 table) twice, then
# prints how many MB the resident set ended above where it started.
_PROBE = """
import numpy as np
{setup}
def rss_mb():
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * 4096 / 2**20
before = rss_mb()
for _ in range(2):
    table = np.ones((20_000, 100))
    del table
print(rss_mb() - before)
"""


def _retained_mb(setup: str) -> float:
    env = {k: v for k, v in os.environ.items() if not k.startswith(("MALLOC_", "GLIBC_"))}
    env["PYTHONPATH"] = SRC
    proc = subprocess.run([sys.executable, "-c", _PROBE.format(setup=setup)], capture_output=True,
                          text=True, env=env, timeout=60, check=True)
    return float(proc.stdout)


@needs_glibc
def test_importing_the_package_returns_freed_tables_to_the_system():
    assert _retained_mb("import newsvane") < 2.0


@needs_glibc
def test_without_the_pin_a_freed_table_stays_resident():
    # the first freed block raises glibc's threshold past the table size, so
    # the second table comes from the heap and stays there once freed
    assert _retained_mb("") > 10.0


def test_pin_is_skipped_when_the_environment_sets_the_threshold(monkeypatch):
    monkeypatch.setenv("MALLOC_MMAP_THRESHOLD_", str(1 << 20))
    assert pin_mmap_threshold() is False
    monkeypatch.delenv("MALLOC_MMAP_THRESHOLD_")
    monkeypatch.setenv("GLIBC_TUNABLES", "glibc.malloc.mmap_threshold=1048576")
    assert pin_mmap_threshold() is False


@needs_glibc
def test_pin_reports_success_on_glibc(monkeypatch):
    monkeypatch.delenv("MALLOC_MMAP_THRESHOLD_", raising=False)
    monkeypatch.delenv("GLIBC_TUNABLES", raising=False)
    assert pin_mmap_threshold() is True
