"""spin7 benchmark: run one workload for one seed and report its metrics.

    python3 bench/run.py --workload verify_all --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 0

Run from anywhere; the program is taken from ``src/`` next to this
directory. ``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer ones from a separate traced run. Each metric is printed by name
with its unit and sample count; the last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``. A result file
with the run environment goes to ``bench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from dataclasses import asdict

import proc
from workloads import WORKLOADS, Run


def _parse(argv: list[str]) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=list(WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _run_all(args: argparse.Namespace) -> int:
    """Each workload in its own process, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(cmd, capture_output=True, text=True, check=False)
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            print(f"{name}: exited {done.returncode}", file=sys.stderr)
            return done.returncode
        lines = done.stdout.splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv: list[str]) -> int:
    args = _parse(argv)
    if not (proc.SRC / "spin7" / "__init__.py").is_file():
        print(f"spin7 sources not found under {proc.SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return _run_all(args)

    workdir = proc.BENCH / ".work" / f"{args.workload}-{args.seed}-{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    env = proc.environment()
    run = Run(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    out = WORKLOADS[args.workload](run)
    env["loadavg_1m_end"] = os.getloadavg()[0]
    shutil.rmtree(workdir, ignore_errors=True)

    print(f"== {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace} "
          f"python={env['python']} nproc={env['nproc']} "
          f"load={env['loadavg_1m_start']:.2f}->{env['loadavg_1m_end']:.2f}")
    for name, (value, unit, samples) in out.metrics.items():
        shown = f"{value:>14}" if isinstance(value, int) else f"{value:>14.6g}"
        print(f"{name:<44} {shown} {unit:<6} n={samples}")
    print(f"{'fail_frac':<44} {out.failed / max(out.attempted, 1):>14.6g} ratio  "
          f"({out.failed} failed / {out.attempted} attempted)")
    for key, value in out.info.items():
        print(f"  {key}: {value}")
    for failure in out.failures[:5]:
        print(f"  FAIL {failure['op']}: {failure['failures']}")

    results = proc.BENCH / "results"
    results.mkdir(exist_ok=True)
    stem = results / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"run": {k: str(v) for k, v in asdict(run).items()}, "environment": env,
              **{k: v for k, v in asdict(out).items() if k != "spans"}}
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1, default=str))
    if out.spans:
        stem.with_name(stem.name + "-spans.json").write_text(json.dumps(out.spans))

    print(json.dumps({
        "correct": out.failed == 0,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in out.metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
