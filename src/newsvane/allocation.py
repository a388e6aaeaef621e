"""Where the C allocator puts large arrays, and when the cyclic collector runs.

``load_pretrained`` and ``load_checkpoint`` allocate and free arrays the
size of the embedding table, and those are what the pin below is for.
``train`` allocates none: its embedding gradient and Adam moments follow
the rows its batches touch, though over a large share of a big table they
too pass 1 MiB. glibc gives a block of 128 KiB or more its own mapping
only until the first such block is freed: from then on its threshold
rises to that block's size, so every later table-sized array is carved
from the heap. A freed one stays resident there, and whether the next one
fits into a hole depends on the order of every smaller allocation made
before it. Two identical V=20k, p=100 runs then ended with
peak RSS one whole table (15 MB) apart, and an unrelated change to small
per-sample allocations moved which of the two a run got.

``pin_mmap_threshold`` fixes the threshold, which also turns off its
raising: every block of 1 MiB or more gets its own mapping and goes back to
the system when it is freed, so the peak RSS follows the arrays that are
alive. The package calls it once on import.

``collector_paused`` keeps Python's cyclic collector off while the bulk row
builders run: their rows are named tuples, which it never stops tracking, so
its passes walked them all (about 60 ms of a 0.5 s round on a 19,200-headline
desk: 29 ms in ``prepare_dataset``, freeing nothing, and 26 ms in
``aggregate_daily``, freeing about 50 objects). ``aggregate_daily`` builds
only columns now but stays paused: it took 0.019-0.022 s paused and
0.033-0.039 s unpaused in traced desk_history runs. Reference counting still
frees acyclic garbage at once; the first pass after a call walks what it kept
and finds any cycle it made. ``gc.disable`` is process-wide, so the pause is
meant for single-threaded use. ``threshold_sweep`` reads the columns of its
day predictions and builds no per-day rows, so it runs unpaused.
"""

from __future__ import annotations

import ctypes
import functools
import gc
import os
from typing import Callable

MMAP_THRESHOLD_BYTES = 1 << 20
_M_MMAP_THRESHOLD = -3  # the mallopt parameter number in glibc's <malloc.h>


def pin_mmap_threshold() -> bool:
    """Fix glibc's mmap threshold at ``MMAP_THRESHOLD_BYTES``; True if it was set.

    Does nothing and returns False outside glibc, or when the environment
    already sets the threshold (``MALLOC_MMAP_THRESHOLD_`` or the
    ``glibc.malloc.mmap_threshold`` tunable), which is left to win.
    """
    try:
        libc_version = os.confstr("CS_GNU_LIBC_VERSION") or ""
    except (AttributeError, ValueError, OSError):  # no confstr, or not this name
        libc_version = ""
    if not libc_version.startswith("glibc"):
        return False
    if ("MALLOC_MMAP_THRESHOLD_" in os.environ
            or "glibc.malloc.mmap_threshold" in os.environ.get("GLIBC_TUNABLES", "")):
        return False
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    return mallopt(_M_MMAP_THRESHOLD, MMAP_THRESHOLD_BYTES) == 1


def collector_paused(fn: Callable) -> Callable:
    """``fn``, run with the cyclic collector off; a call that found it on turns it back on."""
    @functools.wraps(fn)
    def paused(*args, **kwargs):
        enabled = gc.isenabled()
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            if enabled:
                gc.enable()
    return paused
