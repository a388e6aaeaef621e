"""Named, reproducible seed streams.

Every random choice in the package draws from a generator seeded through
``derive_seed(root, label)``. Labels keep the streams independent: reordering
code that consumes one stream never perturbs another (e.g. toggling dropout
does not change the data shuffle).
"""

from __future__ import annotations

import hashlib


def derive_seed(root: int, label: str) -> int:
    """Derive a child seed from a root seed and a stream label."""
    digest = hashlib.sha256(f"{root}:{label}".encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1  # keep it a positive int64

