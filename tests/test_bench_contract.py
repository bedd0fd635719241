"""The benchmark's tracer still finds every package function it wraps.

``bench/tracing.py`` rebinds a fixed list of names; a deleted or renamed
one makes ``install`` raise. Running it here catches that in the test
suite instead of in a benchmark run. Nothing under ``bench/`` is written.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_tracer_installs():
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "bench")]),
        PYTHONDONTWRITEBYTECODE="1",
    )
    done = subprocess.run(
        [sys.executable, "-c", "import tracing; tracing.install(tracing.Tracer())"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
