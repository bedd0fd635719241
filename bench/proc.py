"""Child processes: spawn, wait, time, and read back what they printed."""

from __future__ import annotations

import hashlib
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

# Fresh interpreter -> import spin7 plus the first build of every derived object.
SETUP_CODE = (
    "import spin7\n"
    "spin7.cayley_form(); spin7.default_cross(); spin7.default_table()\n"
    "spin7.acs_basis(); spin7.spin7(); spin7.g2_stabilizer()\n"
)
CHILD_TIMEOUT_S = 150.0


def child_env() -> dict:
    """The caller's environment without its PYTHON* settings, so that, e.g.,
    an inherited PYTHONDONTWRITEBYTECODE cannot make every child recompile
    the package; the bytecode cache is written once, by the warm-up child."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = str(SRC)
    return env


def _kill(pid: int) -> None:
    try:
        os.kill(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


class Child:
    """One finished child: wall and CPU time, exit code, peak RSS and its output."""

    def __init__(self, args: list[str], workdir: Path, tag: str = "child"):
        out, err = workdir / f"{tag}.out", workdir / f"{tag}.err"
        actions = [
            (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
            (os.POSIX_SPAWN_OPEN, 1, str(out), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
            (os.POSIX_SPAWN_OPEN, 2, str(err), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        ]
        t0 = perf_counter()
        pid = os.posix_spawn(sys.executable, [sys.executable] + args, child_env(), file_actions=actions)
        timer = threading.Timer(CHILD_TIMEOUT_S, _kill, (pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(pid, 0)
        finally:
            timer.cancel()
        self.wall_s = perf_counter() - t0
        self.returncode = os.waitstatus_to_exitcode(status)
        self.cpu_s = usage.ru_utime + usage.ru_stime
        self.peak_rss_mb = usage.ru_maxrss / 1024
        self.stdout = out.read_bytes()
        self.stderr = err.read_text(encoding="utf-8", errors="replace")


def median_spawn(args: list[str], workdir: Path, reps: int) -> tuple[float, int]:
    """Median wall time of ``reps`` fresh processes after one untimed warm-up."""
    walls = []
    for i in range(reps + 1):
        child = Child(args, workdir, "probe")
        if child.returncode != 0:
            raise RuntimeError(f"probe {args} exited {child.returncode}: {child.stderr[-400:]}")
        if i:
            walls.append(child.wall_s)
    return statistics.median(walls), reps


def measure_setup(workdir: Path, reps: int = 11) -> tuple[float, int]:
    return median_spawn(["-c", SETUP_CODE], workdir, reps)


def interp_and_import(workdir: Path, reps: int = 5) -> tuple[float, float]:
    """(bare interpreter start, `import spin7` on top of it), both medians."""
    interp, _ = median_spawn(["-c", "pass"], workdir, reps)
    imported, _ = median_spawn(["-c", "import spin7"], workdir, reps)
    return interp, imported - interp


def _commit() -> str:
    if (ROOT / ".git").exists():
        try:
            return subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                                  text=True, timeout=30, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return "unknown"


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "spin7").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment() -> dict:
    """What a reader needs to tell a quiet-box run from a busy one."""
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": _commit(),
        "src_sha256": _src_digest(),
        "loadavg_1m_start": os.getloadavg()[0],
    }
