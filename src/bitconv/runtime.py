"""Process-wide runtime knobs."""

from __future__ import annotations

import os


def max_threads() -> int:
    """Parallelism cap from BDNET_THREADS (default: all cores).

    Benchmarks ignore this and always run single-threaded.
    """
    raw = os.environ.get("BDNET_THREADS", "").strip()
    if raw:
        try:
            n = int(raw)
        except ValueError:
            raise ValueError(f"BDNET_THREADS must be an integer, got {raw!r}")
        if n < 1:
            raise ValueError("BDNET_THREADS must be >= 1")
        return n
    return os.cpu_count() or 1
