"""The benchmark's tracer still finds every package function it wraps,
and every traced layer it pins is still called.

``bench/tracing.py`` rebinds a fixed list of names; a deleted or renamed
one makes ``install`` raise. ``bench/selftest.py``'s ``Tracing`` case also
requires the pinned counts, e.g. ``cross.cross3.unit.calls > 0`` after the
lemma suite, so a change that leaves a traced layer uncalled fails here
instead of in a benchmark run. Nothing under ``bench/`` is written except
the bytecode caches that ``.gitignore`` lists.
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


def test_selftest_tracing_counts():
    done = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "selftest.py"), "Tracing"],
        cwd=ROOT, env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"),
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
