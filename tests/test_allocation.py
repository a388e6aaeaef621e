"""The allocator policy: the pinned mmap threshold leaves no freed table-sized
array resident, and the bulk row builders run with the cyclic collector paused."""

import gc
import os
import subprocess
import sys
from pathlib import Path

import pytest

import newsvane
from newsvane import backtest, fileio, pipeline
from newsvane.allocation import collector_paused, pin_mmap_threshold
from newsvane.corpus import PriceIndex, generate_synthetic

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


@pytest.fixture
def collector_state():
    """Restores the collector's state after the test, whatever the test did to it."""
    enabled = gc.isenabled()
    yield
    (gc.enable if enabled else gc.disable)()


@collector_paused
def _report_collector(fail: bool = False, inner=None) -> list[bool]:
    """Whether the collector was on, here and then after ``inner()`` returned."""
    seen = [gc.isenabled()]
    if inner is not None:
        inner()
        seen.append(gc.isenabled())
    if fail:
        raise RuntimeError("fail")
    return seen


@pytest.mark.usefixtures("collector_state")
class TestCollectorPaused:
    def test_collector_is_off_inside_and_on_again_after_a_return(self):
        gc.enable()
        assert _report_collector() == [False]
        assert gc.isenabled()

    def test_collector_is_on_again_after_an_exception(self):
        gc.enable()
        with pytest.raises(RuntimeError, match="fail"):
            _report_collector(fail=True)
        assert gc.isenabled()

    def test_a_collector_off_before_the_call_stays_off(self):
        gc.disable()
        assert _report_collector() == [False]
        assert not gc.isenabled()
        with pytest.raises(RuntimeError):
            _report_collector(fail=True)
        assert not gc.isenabled()

    def test_a_nested_call_does_not_turn_the_collector_on_early(self):
        gc.enable()
        assert _report_collector(inner=_report_collector) == [False, False]
        assert gc.isenabled()

    def test_each_row_builder_runs_with_the_collector_off(self, monkeypatch):
        seen = {}

        def spy(module, name):
            real = getattr(module, name)

            def call(*args, **kwargs):
                seen.setdefault(name, set()).add(gc.isenabled())
                return real(*args, **kwargs)
            monkeypatch.setattr(module, name, call)

        for module, name in ((pipeline, "tokenize"), (backtest, "_is_scalar_output"),
                             (backtest, "simulate")):
            spy(module, name)
        gc.enable()
        headlines, bars = generate_synthetic(seed=1, n_assets=1, n_days=20, headlines_per_day=2,
                                             signal_strength=1.0)
        prices = PriceIndex(bars)
        data = pipeline.prepare_dataset(headlines, prices, {"SYN0"}, max_len=None)
        days = backtest.aggregate_daily([(s.headline_id, s.asset, s.date, 0.7) for s in data.test])
        backtest.threshold_sweep(days, prices, [0.5])
        # a sweep reads the day predictions' columns and builds no per-day rows, so it runs as found
        assert seen == {"tokenize": {False}, "_is_scalar_output": {False}, "simulate": {True}}
        assert gc.isenabled()

    @pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
    def test_read_csv_runs_paused_and_restores_the_collector_when_a_line_is_malformed(
            self, tmp_path, enabled):
        path = tmp_path / "prices.csv"
        path.write_text("asset,date,open,close\nA,2016-06-01,1.0,2.0\nA,2016-06-02,1.0\n")
        seen = []
        (gc.enable if enabled else gc.disable)()
        with pytest.raises(ValueError, match="line 3: expected 4 fields, got 3"):
            fileio.read_csv(path, [["asset", "date", "open", "close"]],
                            lambda line, row: seen.append(gc.isenabled()))
        assert seen == [False] and gc.isenabled() is enabled

    @pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
    @pytest.mark.parametrize("call, message", [
        (lambda: backtest.aggregate_daily([]), "no predictions to aggregate"),
        (lambda: pipeline.prepare_dataset([], PriceIndex([]), set(), max_len=None),
         "portfolio must be non-empty"),
    ], ids=["aggregate_daily", "prepare_dataset"])
    def test_a_failing_builder_leaves_the_collector_as_it_found_it(self, call, message, enabled):
        (gc.enable if enabled else gc.disable)()
        with pytest.raises(ValueError, match=message):
            call()
        assert gc.isenabled() is enabled
