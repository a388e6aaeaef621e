"""Where the C allocator puts large arrays.

Every ``train`` call allocates and frees a few arrays the size of the
embedding table (the Adam moments, the batch gradient sum, the step's
scratch), and loading a table or a checkpoint parses through more of them.
glibc gives a block of 128 KiB or more its own mapping only until the first
such block is freed: from then on its threshold rises to that block's size,
so every later table-sized array is carved from the heap. A freed one stays
resident there, and whether the next one fits into a hole depends on the
order of every smaller allocation made before it. Two identical V=20k,
p=100 runs then ended with peak RSS one whole table (15 MB) apart, and an
unrelated change to small per-sample allocations moved which of the two
a run got.

``pin_mmap_threshold`` fixes the threshold, which also turns off its
raising: every block of 1 MiB or more gets its own mapping and goes back to
the system when it is freed, so the peak RSS follows the arrays that are
alive. The package calls it once on import.
"""

from __future__ import annotations

import ctypes
import os

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
