"""Acceptance criteria, one test per criterion, each printing a verdict line.

Every check is exact (rational arithmetic end to end); the frozen constants
come from an independent pre-build computation and the runtime bounds are
part of the criteria.
"""

import hashlib
import json
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from spin7.acs import (
    acs_basis,
    acs_span_dim,
    composition_disagreement,
    matrix_for_label,
    times_product,
)
from spin7.cross import verify_compatibility, verify_composition_lemma
from spin7.forms import cayley_form, parse_form, print_form
from spin7.linalg import Matrix, Vector
from spin7.octonion import Octonion, associator, default_table, oct_mul
from spin7.stabilizers import (
    constraint_system_g2,
    decompose_so8,
    extract_omega,
    g2_stabilizer,
    signed_perm_symmetries,
    spin7,
)
from spin7.verify import run_suite

EXPECTED_CAYLEY = {
    (0, 1, 4, 5): 1, (0, 1, 6, 7): 1, (2, 3, 4, 5): 1, (2, 3, 6, 7): 1,
    (0, 2, 4, 6): 1, (0, 2, 5, 7): -1, (1, 3, 4, 6): -1, (1, 3, 5, 7): 1,
    (0, 3, 4, 7): -1, (0, 3, 5, 6): -1, (1, 2, 4, 7): -1, (1, 2, 5, 6): -1,
    (0, 1, 2, 3): 1, (4, 5, 6, 7): 1,
}
EXPECTED_IN_G2 = [False] * 21
EXPECTED_CONSTRAINT = {"dimension": 0, "equals_g2": False}
EXPECTED_SYMMETRY_COUNT = 21504

E = [Vector.basis(8, i) for i in range(8)]


def _verdict(n, name, ok):
    print(f"acceptance {n:>2} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {n} ({name}) failed"


def test_criterion_01_cayley_form_fidelity():
    t0 = time.monotonic()
    phi = cayley_form()
    ok = (
        len(phi.terms) == 14
        and all(phi.terms[k] == v for k, v in EXPECTED_CAYLEY.items())
        and all(c * c == 1 for c in phi.terms.values())
        and phi.star() == phi
    )
    elapsed = time.monotonic() - t0
    _verdict(1, "cayley form fidelity", ok and elapsed < 1.0)


def test_criterion_02_cross_product_axioms():
    t0 = time.monotonic()
    report = verify_compatibility()
    elapsed = time.monotonic() - t0
    ok = report.cases == 8 ** 3 + 100 and not report.failures
    _verdict(2, "cross-product axioms", ok and elapsed < 5.0)


def test_criterion_03_composition_lemma():
    t0 = time.monotonic()
    report = verify_composition_lemma()
    elapsed = time.monotonic() - t0
    ok = report.cases == 32768 and not report.failures
    _verdict(3, "composition rule, all 8^5 tuples", ok and elapsed < 30.0)


def test_criterion_04_octonion_algebra():
    table = default_table()
    ok = True
    for lam in range(1, 8):
        for mu in range(1, 8):
            entry = table.imaginary(lam, mu)
            if lam == mu:
                ok &= entry == (0, -1)
            else:
                ok &= table.imaginary(mu, lam) == -entry
                ok &= entry.index not in (0, lam, mu)
    units = [Octonion.unit(i) for i in range(8)]
    for i in range(8):
        for j in range(8):
            ok &= oct_mul(units[i], units[j]).norm_sq() == 1
    for lam in range(1, 8):
        for mu in range(1, 8):
            ok &= associator(units[lam], units[lam], units[mu]).is_zero()
            ok &= associator(units[lam], units[mu], units[mu]).is_zero()
    witness = associator(units[1], units[2], units[4])
    ok &= not witness.is_zero()
    _verdict(4, "octonion algebra", bool(ok))


def test_criterion_05_claim1_times_product():
    table = default_table()
    ok = all(
        times_product(lam, mu) == table.imaginary(lam, mu)
        for lam in range(1, 8)
        for mu in range(1, 8)
    )
    w = composition_disagreement()
    ok &= (w.lam, w.mu, w.basis_index) == (1, 2, 4)
    ok &= w.composition != w.table
    composed = acs_basis()[w.lam - 1].matrix @ acs_basis()[w.mu - 1].matrix
    ok &= (composed @ E[w.basis_index]) == w.composition
    ok &= (matrix_for_label(times_product(w.lam, w.mu)) @ E[w.basis_index]) == w.table
    _verdict(5, "ACS product table and disagreement witness", bool(ok))


def test_criterion_06_claim4_hermitian():
    table = default_table()
    ok = True
    for lam in range(1, 8):
        for mu in range(1, 8):
            for nu in range(1, 8):
                a = table.product(lam, mu)
                b = table.product(lam, nu)
                lhs = a.sign * b.sign if a.index == b.index else 0
                ok &= lhs == (1 if mu == nu else 0)
    identity = Matrix.identity(8)
    for j in acs_basis():
        ok &= j.matrix @ j.matrix == -identity
        ok &= j.matrix.is_antisymmetric()
        ok &= j.matrix.transpose() @ j.matrix == identity
    _verdict(6, "division identity and Hermitian ACS", bool(ok))


def test_criterion_07_stabilizer_dimensions():
    sympy = pytest.importorskip("sympy")
    sp = spin7()
    g2 = g2_stabilizer()
    ok = sp.dim == 21 and g2.dim == 14
    # independent elimination oracle on the same annihilation conditions
    spin_rows = sympy.Matrix([list(b.flatten()) for b in sp.basis])
    g2_rows = sympy.Matrix([list(b.flatten()) for b in g2.basis])
    ok &= spin_rows.rank() == 21 and g2_rows.rank() == 14
    dec = decompose_so8()
    ok &= dec.spin7_dim + dec.span_dim == 28
    ok &= dec.sum_dim == 28 and dec.intersection_dim == 0 and dec.bracket_closed
    _verdict(7, "stabilizer dimensions and decomposition", bool(ok))


def test_criterion_08_claim2_machinery():
    ok = True
    verdicts = []
    for rho in spin7().basis:
        ext = extract_omega(rho)
        ok &= ext.residual_zero
        ok &= ext.omega_antisymmetric
        verdicts.append(ext.in_g2)
    ok &= verdicts == EXPECTED_IN_G2
    negative = extract_omega(acs_basis()[0].matrix)
    ok &= not negative.residual_zero
    cs = constraint_system_g2()
    ok &= cs.dimension == EXPECTED_CONSTRAINT["dimension"]
    ok &= cs.equals_g2 == EXPECTED_CONSTRAINT["equals_g2"]
    # determinism of the emitted verdicts
    cs2 = constraint_system_g2()
    ok &= (cs2.dimension, cs2.equals_g2) == (cs.dimension, cs.equals_g2)
    verdicts2 = [extract_omega(rho).in_g2 for rho in spin7().basis]
    ok &= verdicts2 == verdicts
    _verdict(8, "connection-coefficient machinery", bool(ok))


def test_criterion_09_claim3_span_stability():
    report = run_suite("claim3")
    ok = report.verdict == "pass"
    ok &= acs_span_dim() == 7
    ok &= report.metadata.get("symmetry_count") == EXPECTED_SYMMETRY_COUNT
    ok &= len(signed_perm_symmetries()) == EXPECTED_SYMMETRY_COUNT
    _verdict(9, "span stability (finite and infinitesimal)", bool(ok))


def test_criterion_10_parser_roundtrip_and_errors():
    phi = cayley_form()
    ok = parse_form(print_form(phi)) == phi
    from click.testing import CliRunner

    from spin7.cli import main

    runner = CliRunner()
    for expr, fragment in [
        ("e^{0045}", "repeated index"),
        ("e^{01}+e^{012}", "mixed degrees"),
        ("1/0*e^{01}", "zero denominator"),
    ]:
        result = runner.invoke(main, ["parse", expr])
        ok &= result.exit_code == 2
        ok &= fragment in result.output and "position" in result.output
    _verdict(10, "parser round trip and diagnostics", bool(ok))


def test_criterion_11_cli_determinism():
    cmd = [sys.executable, "-m", "spin7", "verify", "--suite", "all"]
    t0 = time.monotonic()
    first = subprocess.run(cmd, capture_output=True, timeout=300)
    t1 = time.monotonic() - t0
    second = subprocess.run(cmd, capture_output=True, timeout=300)
    ok = first.returncode == 0 and second.returncode == 0
    ok &= first.stdout == second.stdout
    # the benchmark's correctness gate pins the same bytes; read its value
    gates = (Path(__file__).resolve().parents[1] / "bench" / "gates.py").read_text()
    pinned = re.search(r'^VERIFY_ALL_SHA256 = "([0-9a-f]{64})"$', gates, re.M).group(1)
    ok &= hashlib.sha256(first.stdout).hexdigest() == pinned
    ok &= t1 < 120.0
    obj = json.loads(first.stdout)
    ok &= obj["verdict"] == "pass"
    ok &= len(obj["reports"]) == 7
    _verdict(11, "CLI determinism and full-suite pass", bool(ok))
