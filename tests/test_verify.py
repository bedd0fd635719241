"""Verification suites on a conjugate of the Cayley form."""

import json
import os
import subprocess
import sys
from pathlib import Path

from spin7.forms import cayley_form, pullback
from spin7.linalg import SignedPermutation, det

STANDARD_CASES = {"selfdual": 17, "axioms": 775, "lemma": 32768, "claim1": 50,
                  "claim2": 48, "claim3": 21526, "claim4": 350}

SCRIPT = """
import hashlib, json, sys
import spin7.forms as forms
forms._CAYLEY_TERMS.clear()
forms._CAYLEY_TERMS.update({tuple(k): c for k, c in json.loads(sys.argv[1])})
from spin7.octonion import Octonion, associator
from spin7.verify import reports_to_json, run_all
units = [Octonion.unit(i) for i in range(8)]
reports = run_all()
print(json.dumps({
    "reports": {r.suite: [r.cases, r.failures] for r in reports},
    "sha256": hashlib.sha256(reports_to_json(reports).encode()).hexdigest(),
    "assoc_124_zero": associator(units[1], units[2], units[4]).is_zero(),
}))
"""


def run_on_form(terms: dict) -> dict:
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1")
    arg = json.dumps([[list(k), int(c)] for k, c in terms.items()])
    done = subprocess.run([sys.executable, "-c", SCRIPT, arg], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_flipped_term_fails_the_bracket_cases():
    # the sign of e^{0123} flipped: the J's change, and the span{J} they
    # give is no longer stable under the stabilizer of the mutated form
    terms = dict(cayley_form().terms)
    terms[(0, 1, 2, 3)] = -terms[(0, 1, 2, 3)]
    out = run_on_form(terms)
    # every failure record, byte for byte
    assert out["sha256"] == "6e696cf4b58f0bebc77b44dcacd4bef77119b7949c071ada8074b42439515a51"
    reports = out["reports"]
    claim2 = [f["inputs"] for f in reports["claim2"][1]]
    assert "[spin(7), span{J}] in span{J}" in claim2
    claim3 = [f["inputs"] for f in reports["claim3"][1]
              if f["inputs"].startswith("[spin(7) element ")]
    assert len(claim3) == 9
    assert all(name.endswith(", span{J}] in span{J}") for name in claim3)


def test_conjugate_form_passes_every_suite():
    # phi written in the oriented orthonormal frame f_i = eps_i e_sigma(i)
    # with sigma = (3 4) and eps_0 = -1: the Cayley form in another basis
    r = SignedPermutation((0, 1, 2, 4, 3, 5, 6, 7), (-1, 1, 1, 1, 1, 1, 1, 1))
    assert det(r) == 1
    terms = pullback(cayley_form(), r).terms
    assert len(terms) == 14 and terms != cayley_form().terms
    # the two traps: a term with an odd index sum, where star(phi) on the
    # complement is -phi[K], and a quaternion triple (e1, e2, e4)
    assert any(sum(key) % 2 for key in terms)
    out = run_on_form(terms)
    assert out["assoc_124_zero"] is True
    assert {name: cases for name, (cases, _) in out["reports"].items()} == STANDARD_CASES
    assert {name: failures for name, (_, failures) in out["reports"].items()} == {
        name: [] for name in STANDARD_CASES}
