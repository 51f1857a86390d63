"""The heap policy importing bitconv sets, seen from a child process."""

import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

from bitconv.runtime import MALLOC_ENV

ROOT = Path(__file__).resolve().parent.parent

# median minor page faults per iteration of allocating and freeing two
# 3 MiB arrays, after `import bitconv`
CHILD = """
import resource
import numpy as np
import bitconv

counts = []
for i in range(25):
    f0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    a = np.ones((3 << 20) // 8)
    b = np.ones((3 << 20) // 8)
    del a, b
    counts.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - f0)
print(sorted(counts[5:])[10])
"""


def child_faults(**malloc_env):
    env = {k: v for k, v in os.environ.items() if k not in MALLOC_ENV and not k.startswith("MALLOC_")}
    env.update(malloc_env, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", CHILD], env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    return int(proc.stdout)


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the heap policy is glibc's mallopt")
class TestHeapPolicy:
    def test_freed_arrays_are_reused_without_faults(self):
        # glibc's own policy maps each array afresh: about 1500 faults here
        assert child_faults() < 100

    def test_a_policy_from_the_environment_is_left_alone(self):
        assert child_faults(MALLOC_MMAP_THRESHOLD_="131072") >= 700
