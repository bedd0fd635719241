"""The benchmark's own tests: every gate is fed a wrong answer and must
count a failure; inputs are seeded, certified and never repeat; the
tracer's bindings and BENCHMARK.json agree with the code.

    python3 bench/selftest.py
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
import unittest
from fractions import Fraction

import exact
import gates
import metrics
import proc
from inputs import CliInputs, DenseInputs
from workloads import WORKLOADS, _import_program

spin7 = _import_program()
BASIS = [b.rows for b in spin7.spin7().basis]


def _vec(rng):
    return tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 5)) for _ in range(8))


def _flip(v, i=0):
    return tuple(-x if k == i else x for k, x in enumerate(v))


class DenseGates(unittest.TestCase):
    def setUp(self):
        self.rng = random.Random(7)
        self.a, self.b, self.c = (_vec(self.rng) for _ in range(3))
        self.p = exact.cross(self.a, self.b, self.c)

    def test_cross(self):
        self.assertEqual(gates.cross_gate(self.a, self.b, self.c, self.p), [])
        i = next(k for k, x in enumerate(self.p) if x)
        self.assertTrue(gates.cross_gate(self.a, self.b, self.c, _flip(self.p, i)))
        self.assertTrue(gates.cross_gate(self.a, self.b, self.c, tuple(-x for x in self.p)))

    def test_composition(self):
        vs = [self.a, self.b] + [_vec(self.rng) for _ in range(3)]
        lhs = exact.cross(vs[0], vs[1], exact.cross(*vs[2:]))
        self.assertEqual(gates.composition_gate(vs, lhs, lhs), [])
        i = next(k for k, x in enumerate(lhs) if x)
        self.assertTrue(gates.composition_gate(vs, lhs, _flip(lhs, i)))

    def test_frame_with_negated_column(self):
        r = DenseInputs(1, BASIS).frame()
        q = exact.matvec(r, self.p)
        args = (self.a, self.b, self.c)
        self.assertEqual(gates.frame_gate(r, *args, True, self.p, q), [])
        bad = tuple(tuple(-x if j == 3 else x for j, x in enumerate(row)) for row in r)
        self.assertTrue(exact.frame_defects(bad))
        self.assertTrue(gates.frame_gate(bad, *args, True, self.p, q))
        self.assertTrue(gates.frame_gate(r, *args, False, self.p, q))

    def test_reject(self):
        self.assertEqual(gates.reject_gate(True), [])
        self.assertTrue(gates.reject_gate(False))

    def test_omega(self):
        zero = [[Fraction(0)] * 8 for _ in range(8)]
        omega = [[Fraction(i - j) for j in range(7)] for i in range(7)]
        self.assertEqual(gates.omega_gate(omega, [zero] * 7, True), [])
        residual = [row[:] for row in zero]
        residual[2][5] = Fraction(1, 3)
        self.assertTrue(gates.omega_gate(omega, [zero] * 6 + [residual], True))
        self.assertTrue(gates.omega_gate(omega, [zero] * 7, False))
        omega[1][0] += 1
        self.assertTrue(gates.omega_gate(omega, [zero] * 7, True))

    def test_octonion(self):
        x, y = self.a, self.b
        xy = exact.oct_mul(x, y)
        zero = (0,) * 8
        self.assertEqual(gates.octonion_gate(x, y, xy, zero, zero), [])
        i = next(k for k, v in enumerate(xy) if v)
        self.assertTrue(gates.octonion_gate(x, y, _flip(xy, i), zero, zero))
        self.assertTrue(gates.octonion_gate(x, y, xy, (0, 1) + zero[2:], zero))


def _report(**overrides) -> bytes:
    reports = [{"suite": s, "cases": n, "failures": [], "verdict": "pass", "metadata": {}}
               for s, n in gates.VERIFY_MIN_CASES.items()]
    for suite, change in overrides.items():
        next(r for r in reports if r["suite"] == suite).update(change)
    verdict = "pass" if all(r["verdict"] == "pass" for r in reports) else "fail"
    return json.dumps({"reports": reports, "verdict": verdict}).encode()


class VerifyGate(unittest.TestCase):
    def test_passing_report(self):
        self.assertEqual(gates.verify_gate(0, _report(), "", gates.VERIFY_SUITES), [])

    def test_report_with_a_failure(self):
        bad = _report(claim3={"verdict": "fail", "failures": [{"inputs": "symmetry 5"}]})
        self.assertTrue(gates.verify_gate(1, bad, "", gates.VERIFY_SUITES))
        self.assertTrue(gates.verify_gate(0, bad, "", gates.VERIFY_SUITES))

    def test_fewer_cases(self):
        self.assertTrue(gates.verify_gate(0, _report(lemma={"cases": 32767}), "", gates.VERIFY_SUITES))

    def test_sha_lock(self):
        self.assertTrue(gates.verify_gate(0, _report(), "", gates.VERIFY_SUITES, gates.VERIFY_ALL_SHA256))

    def test_missing_suite_or_garbage(self):
        self.assertTrue(gates.verify_gate(0, _report(), "", gates.VERIFY_SUITES + ("extra",)))
        self.assertTrue(gates.verify_gate(0, b"not json", "", gates.VERIFY_SUITES))


class CliGates(unittest.TestCase):
    def test_usage_error_with_traceback(self):
        self.assertEqual(gates.cli_gate("malformed", {}, 2, "", "Error: bad vector"), [])
        tb = "Traceback (most recent call last):\n  ...\nValueError: x\nError: bad"
        self.assertTrue(gates.cli_gate("malformed", {}, 2, "", tb))
        self.assertTrue(gates.cli_gate("malformed", {}, 1, "", "Error: bad"))
        self.assertTrue(gates.cli_gate("malformed", {}, 0, "ok", ""))

    def test_stab(self):
        expect = {"group": "spin7", "print_dim": True}
        self.assertEqual(gates.cli_gate("stab", expect, 0, "21\n", ""), [])
        self.assertTrue(gates.cli_gate("stab", expect, 0, "20\n", ""))
        self.assertTrue(gates.cli_gate("stab", {"group": "g2", "print_dim": True}, 0, "21\n", ""))

    def test_cross(self):
        rng = random.Random(3)
        args = tuple(_vec(rng) for _ in range(3))
        p = exact.cross(*args)
        text = ",".join(map(str, p)) + "\n"
        self.assertEqual(gates.cli_gate("cross", {"args": args}, 0, text, ""), [])
        self.assertTrue(gates.cli_gate("cross", {"args": args}, 0, "1" + text, ""))
        self.assertTrue(gates.cli_gate("cross", {"args": args}, 0, "garbage", ""))

    def test_phi_and_table(self):
        text = "+".join(f"e^{{{''.join(map(str, k))}}}" for k, c in exact.PHI.items() if c > 0)
        text += "".join(f"-e^{{{''.join(map(str, k))}}}" for k, c in exact.PHI.items() if c < 0)
        self.assertEqual(gates.cli_gate("phi", {"format": "text"}, 0, text + "\n", ""), [])
        self.assertTrue(gates.cli_gate("phi", {"format": "text"}, 0, text.replace("-", "+") + "\n", ""))
        table = {f"{i},{j}": "{}{}".format("+" if exact.unit_product(i, j)[1] > 0 else "-",
                                           exact.unit_product(i, j)[0])
                 for i in range(1, 8) for j in range(1, 8)}
        self.assertEqual(gates.cli_gate("table", {}, 0, json.dumps(table), ""), [])
        table["1,2"] = table["1,2"].translate(str.maketrans("+-", "-+"))
        self.assertTrue(gates.cli_gate("table", {}, 0, json.dumps(table), ""))

    def test_symmetries(self):
        ident = " ".join(f"{i}->+{i}" for i in range(8))
        self.assertEqual(gates.cli_gate("symmetries", {"limit": 1}, 0, f"count: 1\n{ident}\n", ""), [])
        swap = "0->+1 1->+0 " + " ".join(f"{i}->+{i}" for i in range(2, 8))
        self.assertTrue(gates.cli_gate("symmetries", {"limit": 1}, 0, f"count: 1\n{swap}\n", ""))
        self.assertTrue(gates.cli_gate("symmetries", {"limit": 2}, 0, f"count: 1\n{ident}\n", ""))

    def test_parse_and_verify(self):
        expect = {"degree": 2, "terms": {"12": "-1"}}
        self.assertEqual(gates.cli_gate("parse", expect, 0, '{"degree":2,"terms":{"12":"-1"}}', ""), [])
        self.assertTrue(gates.cli_gate("parse", expect, 0, '{"degree":2,"terms":{"12":"1"}}', ""))
        one = json.dumps({"reports": [{"suite": "claim4", "cases": 349, "failures": [],
                                       "verdict": "pass"}], "verdict": "pass"})
        self.assertTrue(gates.cli_gate("verify", {"suite": "claim4"}, 0, one, ""))


class Inputs(unittest.TestCase):
    def test_dense_stream_is_seeded_certified_and_fresh(self):
        first = DenseInputs(11, BASIS)
        ops = [first.next_op() for _ in range(40)]
        again = DenseInputs(11, BASIS)
        self.assertEqual(ops, [again.next_op() for _ in range(40)])
        self.assertNotEqual(ops, [DenseInputs(12, BASIS).next_op() for _ in range(40)])
        for kind, payload in ops:
            if kind == "frame":
                self.assertEqual(exact.frame_defects(payload[0]), [])
            elif kind == "reject":
                self.assertTrue(exact.frame_defects(payload[0]))
        self.assertEqual(len(first.seen), 40)

    def test_cli_stream_is_seeded(self):
        work = proc.BENCH / ".work" / "selftest"
        work.mkdir(parents=True, exist_ok=True)
        gen_a, gen_b = CliInputs(5, BASIS, str(work)), CliInputs(5, BASIS, str(work))
        a = [gen_a.next_op()[:2] for _ in range(64)]
        self.assertEqual(a, [gen_b.next_op()[:2] for _ in range(64)])
        self.assertEqual({k for k, _ in a}, set(metrics.CLI_KINDS))


class Tracing(unittest.TestCase):
    def test_bindings_and_pinned_counts(self):
        """Every target is rebound somewhere, including names imported by
        other modules, and the derived counts come out exact."""
        code = (
            "import json, tracing, metrics\n"
            "t = tracing.Tracer(); b = tracing.install(t)\n"
            "import spin7.verify as v, spin7.acs as acs, spin7.stabilizers as st\n"
            "assert v.span_stability.__wrapped__ and acs.rank.__wrapped__\n"
            "assert v._SUITES['lemma'] is v.suite_lemma\n"
            "v.run_suite('lemma'); st.signed_perm_symmetries(5)\n"
            "print(json.dumps([b, metrics.layer_values(t.aggregates())]))\n"
        )
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              cwd=proc.BENCH, env=dict(proc.child_env(), PYTHONPATH=f"{proc.SRC}:{proc.BENCH}"),
                              timeout=120, check=False)
        self.assertEqual(done.returncode, 0, done.stderr)
        bindings, values = json.loads(done.stdout)
        self.assertEqual([n for n, hits in bindings.items() if hits < 1], [])
        self.assertEqual(values["verify.suite.lemma.cases"], 32768)
        self.assertEqual(values["stabilizers.signed_perm_symmetries.results"], 5)
        self.assertGreater(values["cross.cross3.unit.calls"], 0)


class BenchmarkFile(unittest.TestCase):
    def test_matches_code(self):
        spec = json.loads((proc.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in spec["workloads"]], list(WORKLOADS))
        self.assertEqual([(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]],
                         metrics.END_TO_END)
        self.assertEqual([(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]],
                         [m[:3] for m in metrics.LAYER_METRICS])


if __name__ == "__main__":
    unittest.main()
