"""The three workloads. Each is a closed loop with one client.

An op's latency covers only the program's work: input generation, the
conversion of inputs into program objects and the correctness gates run
between ops, outside the timed interval. A loop stops once the summed op
time reaches ``seconds`` (or the wall clock reaches ``WALL_FACTOR`` times
that), so ``ops_per_s`` is ops per second of op time.
"""

from __future__ import annotations

import json
import resource
import statistics
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, process_time

import gates
import metrics
import proc
import tracing
from inputs import CLI_KINDS, CliInputs, DenseInputs

WALL_FACTOR = 2.5
MAX_FAILURE_RECORDS = 20


@dataclass
class Run:
    workload: str
    seed: int
    seconds: float
    trace: bool
    workdir: Path


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)
    latencies: list = field(default_factory=list)
    cpu_s: float = 0.0  # CPU time of the timed ops; wall/cpu above 1 means the box was busy
    kinds: list = field(default_factory=list)  # op kind per latency, where ops differ
    metrics: dict = field(default_factory=dict)  # name -> (value, unit, samples)
    info: dict = field(default_factory=dict)
    spans: list = field(default_factory=list)

    def record(self, what: str, fails: list[str]) -> None:
        self.attempted += 1
        if fails:
            self.failed += 1
            if len(self.failures) < MAX_FAILURE_RECORDS:
                self.failures.append({"op": what, "failures": fails})


def _percentile(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _end_to_end(out: Outcome, setup: tuple[float, int], peak_rss_mb: float) -> None:
    lat = out.latencies
    n = len(lat)
    out.info["wall_over_cpu"] = sum(lat) / out.cpu_s
    out.metrics.update({
        "setup_s": (setup[0], "s", setup[1]),
        "op_p50_s": (statistics.median(lat), "s", n),
        "op_p90_s": (_percentile(lat, 90), "s", n),
        "ops_per_s": (n / sum(lat), "1/s", n),
        "peak_rss_mb": (peak_rss_mb, "MB", n),
    })


def _layers(out: Outcome, agg: dict, overhead: float, interp: tuple[float, float],
            kind_p50: dict | None = None) -> None:
    values = metrics.layer_values(agg)
    values["cli.interp_s"], values["cli.import_s"] = interp
    for kind in CLI_KINDS:
        values[f"cli.cmd.{kind}.p50_s"] = (kind_p50 or {}).get(kind, 0.0)
    values["trace.overhead_frac"] = overhead
    for name, unit, _, _ in metrics.LAYER_METRICS:
        out.metrics[name] = (values[name], unit, 1)


def _p50_by_kind(kinds: list[str], latencies: list[float]) -> dict[str, float]:
    return {k: statistics.median(t for kk, t in zip(kinds, latencies) if kk == k)
            for k in dict.fromkeys(kinds)}


def _loop(seconds: float, step) -> None:
    """Call ``step()`` (which returns its timed seconds) until the budget is spent."""
    busy, start = 0.0, perf_counter()
    while busy < seconds and perf_counter() - start < WALL_FACTOR * seconds:
        busy += step()


# -- verify_all ------------------------------------------------------------

VERIFY_ARGS = ["verify", "--suite", "all"]


def _verify_op(run: Run, out: Outcome, args: list[str]) -> proc.Child:
    child = proc.Child(args, run.workdir)
    fails = gates.verify_gate(child.returncode, child.stdout, child.stderr,
                              gates.VERIFY_SUITES, gates.VERIFY_ALL_SHA256)
    out.record("verify --suite all", fails)
    try:
        out.info["cases_per_op"] = sum(r["cases"] for r in json.loads(child.stdout)["reports"])
    except (ValueError, KeyError, TypeError):
        pass
    return child


def verify_all(run: Run) -> Outcome:
    out = Outcome()
    if run.trace:
        interp = proc.interp_and_import(run.workdir)
        plain = _verify_op(run, out, ["-m", "spin7"] + VERIFY_ARGS)
        trace_path = run.workdir / "trace.json"
        traced = _verify_op(run, out, [str(proc.BENCH / "child.py"), str(trace_path)] + VERIFY_ARGS)
        agg = json.loads(trace_path.read_text())
        out.spans = agg.pop("spans")
        for name, expected in metrics.PINNED_VERIFY_ALL.items():
            got = metrics.layer_values(agg)[name]
            if got != expected:
                raise tracing.BindingMissed(f"{name} = {got} per verify_all op, expected {expected}")
        claim3 = agg["stats"]["verify.suite.claim3"]["total_s"]
        out.info["claim3_share_of_traced_op"] = claim3 / traced.wall_s
        _layers(out, agg, (traced.wall_s - plain.wall_s) / plain.wall_s, interp)
        return out

    setup = proc.measure_setup(run.workdir)
    rss = []

    def step() -> float:
        child = _verify_op(run, out, ["-m", "spin7"] + VERIFY_ARGS)
        out.latencies.append(child.wall_s)
        out.cpu_s += child.cpu_s
        rss.append(child.peak_rss_mb)
        return child.wall_s

    _loop(run.seconds, step)
    _end_to_end(out, setup, max(rss))
    if "cases_per_op" in out.info:
        out.info["cases_per_s"] = out.info["cases_per_op"] * len(out.latencies) / sum(out.latencies)
    return out


# -- dense_frames ----------------------------------------------------------

def _import_program():
    if str(proc.SRC) not in sys.path:
        sys.path.insert(0, str(proc.SRC))
    import spin7

    if Path(spin7.__file__).resolve().parent != proc.SRC / "spin7":
        raise RuntimeError(f"imported spin7 from {spin7.__file__}, not from {proc.SRC}")
    return spin7


class DenseOps:
    """Runs one dense op through the library; looks functions up at call
    time so that an installed tracer sees every call."""

    def __init__(self, spin7):
        self.lib = spin7
        self.cp = spin7.default_cross()

    def prepare(self, kind: str, payload):
        lib = self.lib
        if kind == "octonion":
            return tuple(lib.Octonion(v) for v in payload)
        if kind in ("cross3", "composition"):
            return tuple(lib.Vector(v) for v in payload)
        if kind == "frame":
            return (lib.Matrix(payload[0]),) + tuple(lib.Vector(v) for v in payload[1:])
        return (lib.Matrix(payload[0]),)

    def call(self, kind: str, args):
        lib, cp = self.lib, self.cp
        if kind == "octonion":
            x, y = args
            octo = lib.octonion
            return octo.oct_mul(x, y), octo.associator(x, x, y), octo.associator(x, y, y)
        if kind == "cross3":
            return cp.cross3(*args)
        if kind == "composition":
            return cp.composition_sides(*args)
        if kind == "frame":
            r, a, b, c = args
            lib.acs.check_frame(r)
            stable = lib.acs.span_stability(r)
            return stable, cp.cross3(a, b, c), cp.cross3(r @ a, r @ b, r @ c)
        if kind == "reject":
            try:
                lib.acs.check_frame(args[0])
            except lib.FrameNotAdmissible:
                return True
            return False
        return lib.stabilizers.extract_omega(args[0])

    @staticmethod
    def gate(kind: str, payload, result) -> list[str]:
        if kind == "octonion":
            xy, a1, a2 = result
            return gates.octonion_gate(*payload, xy.comps, a1.comps, a2.comps)
        if kind == "cross3":
            return gates.cross_gate(*payload, result.comps)
        if kind == "composition":
            return gates.composition_gate(payload, result[0].comps, result[1].comps)
        if kind == "frame":
            stable, p, q = result
            return gates.frame_gate(*payload, stable, p.comps, q.comps)
        if kind == "reject":
            return gates.reject_gate(result)
        return gates.omega_gate(result.omega.rows, [m.rows for m in result.residuals],
                                result.residual_zero)

    def run(self, out: Outcome, kind: str, payload) -> float:
        args = self.prepare(kind, payload)
        fails = None
        c0, t0 = process_time(), perf_counter()
        try:
            result = self.call(kind, args)
        except Exception as exc:  # an op that raises counts as failed, the loop goes on
            fails = [f"raised {exc!r}"]
        dt = perf_counter() - t0
        out.cpu_s += process_time() - c0
        out.record(kind, fails if fails is not None else self.gate(kind, payload, result))
        return dt


def dense_frames(run: Run) -> Outcome:
    out = Outcome()
    spin7 = _import_program()
    setup = None if run.trace else proc.measure_setup(run.workdir)
    gen = DenseInputs(run.seed, [b.rows for b in spin7.spin7().basis])
    ops = DenseOps(spin7)
    done = []

    def step() -> float:
        kind, payload = gen.next_op()
        done.append((kind, payload if run.trace else None))  # payloads kept for the traced rerun
        dt = ops.run(out, kind, payload)
        out.latencies.append(dt)
        return dt

    _loop(run.seconds / 2 if run.trace else run.seconds, step)
    out.info["frames"] = len(gen.sizes)
    if gen.sizes:
        out.info["frame_nonzero_entries_median"] = statistics.median(n for n, _ in gen.sizes)
        out.info["frame_denominator_bits_max"] = max(b for _, b in gen.sizes)
    out.kinds = kinds = [kind for kind, _ in done]
    out.info["ops_by_kind"] = {k: kinds.count(k) for k in dict.fromkeys(kinds)}
    out.info["p50_s_by_kind"] = _p50_by_kind(kinds, out.latencies)
    if not run.trace:
        _end_to_end(out, setup, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
        return out

    interp = proc.interp_and_import(run.workdir)
    plain = sum(out.latencies)
    tracer = tracing.Tracer()
    tracing.install(tracer)
    traced = sum(ops.run(out, kind, payload) for kind, payload in done)
    agg = tracer.aggregates()
    out.spans = [s for s in tracer.spans if s is not None]
    _layers(out, agg, (traced - plain) / plain, interp)
    return out


# -- cli_cold --------------------------------------------------------------

def _text(stdout: bytes) -> str:
    return stdout.decode("utf-8", errors="replace")


def cli_cold(run: Run) -> Outcome:
    """Traced, each command runs untraced and then traced, back to back, so
    the overhead is measured in pairs."""
    out = Outcome()
    spin7 = _import_program()
    gen = CliInputs(run.seed, [b.rows for b in spin7.spin7().basis], str(run.workdir))
    setup = None if run.trace else proc.measure_setup(run.workdir)
    rss, aggs, traced = [], [], []

    def step() -> float:
        kind, argv, expect = gen.next_op()
        child = proc.Child(["-m", "spin7"] + argv, run.workdir)
        out.record(" ".join(argv), gates.cli_gate(kind, expect, child.returncode,
                                                  _text(child.stdout), child.stderr))
        out.kinds.append(kind)
        out.latencies.append(child.wall_s)
        out.cpu_s += child.cpu_s
        rss.append(child.peak_rss_mb)
        if run.trace:
            trace_path = run.workdir / f"trace-{len(aggs)}.json"
            twin = proc.Child([str(proc.BENCH / "child.py"), str(trace_path)] + argv, run.workdir)
            out.record(" ".join(argv), gates.cli_gate(kind, expect, twin.returncode,
                                                      _text(twin.stdout), twin.stderr))
            traced.append(twin.wall_s)
            agg = json.loads(trace_path.read_text())
            out.spans.append(agg.pop("spans"))
            aggs.append(agg)
        return child.wall_s

    _loop(run.seconds / 2 if run.trace else run.seconds, step)
    kinds = out.kinds
    out.info["ops_by_kind"] = {k: kinds.count(k) for k in dict.fromkeys(kinds)}
    out.info["p50_s_by_kind"] = _p50_by_kind(kinds, out.latencies)
    if not run.trace:
        _end_to_end(out, setup, max(rss))
        return out
    interp = proc.interp_and_import(run.workdir)
    plain = sum(out.latencies)
    _layers(out, metrics.merge(aggs), (sum(traced) - plain) / plain, interp, out.info["p50_s_by_kind"])
    return out


WORKLOADS = {"verify_all": verify_all, "dense_frames": dense_frames, "cli_cold": cli_cold}
