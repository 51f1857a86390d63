"""Smoke test: the fast demos run to completion against the current API.

Demos 06-08 (training, Hessian landscape, benchmark) take tens of seconds
each and are left out.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ["01_bit_packing.py", "02_quantizers.py", "03_binary_convolution.py",
         "04_conditioning.py", "05_cost_model.py", "09_image_ternarization.py"]


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_exits_zero(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
