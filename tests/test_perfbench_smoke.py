"""The benchmark harness still drives the engine: `perfbench/run.py --smoke`.

perfbench/tracer.py wraps engine entry points by name, so renaming or
removing one of them breaks the harness; this catches it in the test suite.

The harness writes its CSVs under the root of the checkout it runs from, so
the check runs from a copy of perfbench/ and BENCHMARK.json with a link to
this checkout's src/; another harness run in the checkout keeps its files.
"""

import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_smoke_passes(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    (tmp_path / "src").symlink_to(ROOT / "src", target_is_directory=True)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--smoke"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert proc.stdout.rstrip().endswith("smoke check passed")
    assert (tmp_path / ".perfbench_out").is_dir()
