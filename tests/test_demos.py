"""The demos that exercise the public API still run, with warnings as errors as under pytest.

Demo 05 trains for long and is left out.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("demo", ["01_triple_store_basics.py", "02_synthetic_benchmarks.py",
                                  "03_pretraining.py", "04_unseen_entity_estimation.py"])
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-W", "error", str(ROOT / "demos" / demo)], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
