"""Process-wide runtime knobs: the parallelism cap, and the heap policy.

Importing bitconv pins glibc's heap policy (pin_heap_policy): freed heap
below 64 MiB stays with the process, and arrays under 32 MiB come from the
heap rather than from fresh mappings, so the next forward reuses the
pages the last one freed instead of faulting them back in. The cost is
up to 64 MiB of freed heap kept resident, and worker processes forked
from this one inherit the policy.
"""

from __future__ import annotations

import ctypes
import os

# mallopt parameters (glibc malloc.h)
M_TRIM_THRESHOLD = -1
M_MMAP_THRESHOLD = -3
# glibc's largest mmap threshold on 64-bit, and the trim threshold it pairs
# with it (twice that) when its dynamic threshold reaches the ceiling
MMAP_THRESHOLD = 32 << 20
TRIM_THRESHOLD = 64 << 20
MALLOC_ENV = ("MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_", "MALLOC_TOP_PAD_", "GLIBC_TUNABLES")


def pin_heap_policy() -> None:
    """Pin glibc's mmap and trim thresholds at their dynamic ceiling.

    Does nothing without glibc's mallopt, or when the environment already
    sets a malloc policy. M_TOP_PAD is not set: the two thresholds do
    without it, and on its own it turns off glibc's dynamic mmap threshold.
    """
    if any(k in os.environ for k in MALLOC_ENV):
        return
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is None:
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD)
    mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD)


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
