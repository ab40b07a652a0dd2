"""The benchmark harness still drives the engine: `perfbench/run.py --smoke`.

perfbench/tracer.py wraps engine entry points by name, so renaming or
removing one of them breaks the harness; this catches it in the test suite.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_smoke_passes():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--smoke"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert proc.stdout.rstrip().endswith("smoke check passed")
