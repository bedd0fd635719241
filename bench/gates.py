"""Correctness gates. Each returns the list of its failures; empty means pass.

Every gate judges the program's output with facts recomputed in
:mod:`exact`, without importing ``spin7``. An op counts as failed, and
feeds ``fail_frac``, when its gate returns anything.
"""

from __future__ import annotations

import hashlib
import json
import re
from fractions import Fraction

import exact

# Case counts each suite reports on the baseline commit; fewer is a failure.
VERIFY_MIN_CASES = {
    "selfdual": 17, "axioms": 775, "lemma": 32768, "claim1": 50,
    "claim2": 48, "claim3": 21526, "claim4": 350,
}
VERIFY_SUITES = tuple(VERIFY_MIN_CASES)
# sha256 of `verify --suite all` stdout (7206 bytes): the behaviour lock.
VERIFY_ALL_SHA256 = "4e9ac46e66637c8dfc512d6de5dc57900900f48a4bf448f0de4398f0b0a75542"

E0 = tuple(Fraction(int(i == 0)) for i in range(8))


def cross_gate(a, b, c, p) -> list[str]:
    fails = []
    if any(exact.dot(p, v) for v in (a, b, c)):
        fails.append("P(a,b,c) is not orthogonal to its arguments")
    if exact.dot(p, p) != exact.gram_det([a, b, c]):
        fails.append("|P(a,b,c)|^2 differs from the Gram determinant")
    if tuple(p) != exact.cross(a, b, c):
        fails.append("P(a,b,c) differs from phi(a,b,c,.)")
    return fails


def composition_gate(vectors, lhs, rhs) -> list[str]:
    a, b, u, v, w = vectors
    fails = []
    if tuple(lhs) != tuple(rhs):
        fails.append("composition rule: lhs != rhs")
    if tuple(lhs) != exact.cross(a, b, exact.cross(u, v, w)):
        fails.append("composition lhs differs from P(a,b,P(u,v,w))")
    return fails


def frame_gate(r, a, b, c, stable, p, q) -> list[str]:
    """Span stability, and equivariance P(Ra,Rb,Rc) = R P(a,b,c)."""
    fails = [] if stable is True else [f"span_stability returned {stable!r}"]
    fails += cross_gate(a, b, c, p)
    if tuple(q) != exact.matvec(r, exact.cross(a, b, c)):
        fails.append("P(Ra,Rb,Rc) != R P(a,b,c)")
    return fails


def reject_gate(rejected: bool) -> list[str]:
    return [] if rejected else ["inadmissible frame was accepted"]


def omega_gate(omega, residuals, residual_zero) -> list[str]:
    fails = []
    if residual_zero is not True or any(x for m in residuals for row in m for x in row):
        fails.append("nonzero residual for a spin(7) element")
    if not exact.is_antisymmetric(omega):
        fails.append("omega is not antisymmetric")
    return fails


def octonion_gate(x, y, xy, assoc_xxy, assoc_xyy) -> list[str]:
    fails = []
    if tuple(xy) != exact.oct_mul(x, y):
        fails.append("xy differs from the table product")
    if exact.dot(xy, xy) != exact.dot(x, x) * exact.dot(y, y):
        fails.append("|xy|^2 != |x|^2 |y|^2")
    if any(assoc_xxy) or any(assoc_xyy):
        fails.append("alternativity: nonzero associator")
    return fails


def _no_traceback(stderr: str) -> list[str]:
    return ["traceback on stderr"] if "Traceback" in stderr else []


def verify_gate(returncode: int, stdout: bytes, stderr: str, suites, sha256: str | None = None) -> list[str]:
    """A `verify` report: exit 0, every suite passes with its full case count."""
    fails = _no_traceback(stderr)
    if returncode != 0:
        fails.append(f"exit code {returncode}")
    try:
        obj = json.loads(stdout)
        reports = obj["reports"]
        overall = obj["verdict"]
    except (ValueError, KeyError, TypeError) as exc:
        return fails + [f"unreadable report: {exc}"]
    if overall != "pass":
        fails.append(f"overall verdict {overall}")
    if [r.get("suite") for r in reports] != list(suites):
        fails.append(f"suites {[r.get('suite') for r in reports]}")
    for r in reports:
        name = r.get("suite")
        if r.get("verdict") != "pass" or r.get("failures"):
            fails.append(f"{name}: verdict {r.get('verdict')}")
        if r.get("cases", 0) < VERIFY_MIN_CASES.get(name, 0):
            fails.append(f"{name}: {r.get('cases')} cases < {VERIFY_MIN_CASES[name]}")
    if sha256 is not None and hashlib.sha256(stdout).hexdigest() != sha256:
        fails.append("stdout sha256 differs from the baseline")
    return fails


def usage_error_gate(returncode: int, stderr: str) -> list[str]:
    fails = _no_traceback(stderr)
    if returncode != 2:
        fails.append(f"malformed input exited {returncode}, not 2")
    if "Error:" not in stderr:
        fails.append("no error message")
    return fails


def _vector(text: str) -> tuple:
    return tuple(Fraction(c) for c in text.strip().split(","))


_TERM = re.compile(r"([+-]?)(?:(\d+(?:/\d+)?)\*)?e\^\{(\d+)\}")


def phi_gate(stdout: str, fmt: str) -> list[str]:
    if fmt == "json":
        obj = json.loads(stdout)
        terms = {tuple(map(int, k)): Fraction(v) for k, v in obj["terms"].items()}
        ok = obj["degree"] == 4 and terms == exact.PHI
    else:
        text = stdout.strip()
        matches = list(_TERM.finditer(text))
        terms = {tuple(map(int, m.group(3))): (-1 if m.group(1) == "-" else 1) * Fraction(m.group(2) or 1)
                 for m in matches}
        ok = "".join(m.group(0) for m in matches) == text and terms == exact.PHI
    return [] if ok else ["printed form is not the Cayley form"]


def table_gate(stdout: str) -> list[str]:
    obj = json.loads(stdout)
    expected = {}
    for lam in range(1, 8):
        for mu in range(1, 8):
            k, s = exact.unit_product(lam, mu)
            expected[f"{lam},{mu}"] = f"{'+' if s > 0 else '-'}{k}"
    return [] if obj == expected else ["unit table differs from the form's products"]


def parse_gate(stdout: str, degree: int, terms: dict) -> list[str]:
    obj = json.loads(stdout)
    return [] if obj == {"degree": degree, "terms": terms} else [f"parsed form {obj} != {terms}"]


def stab_gate(stdout: str, group: str, print_dim: bool) -> list[str]:
    dim = {"spin7": 21, "g2": 14}[group]
    if print_dim:
        expected = f"{dim}\n"
    else:
        expected = f"group: {group}\ndim: {dim}\n"
        if group == "spin7":
            expected += "decomposition: 21+7=28, intersection 0, bracket closed True\n"
    return [] if stdout == expected else [f"stab output {stdout!r}"]


def omega_cli_gate(stdout: str) -> list[str]:
    obj = json.loads(stdout)
    omega = [[Fraction(x) for x in row] for row in obj["omega"]]
    residuals = [[[Fraction(x) for x in row] for row in m] for m in obj["residuals"]]
    fails = omega_gate(omega, residuals, obj["residual_zero"])
    if obj["omega_antisymmetric"] is not True:
        fails.append("omega_antisymmetric is not true")
    return fails


def symmetries_gate(stdout: str, limit: int) -> list[str]:
    """Each printed signed permutation must fix phi and have det +1."""
    lines = stdout.splitlines()
    if not lines or lines[0] != f"count: {limit}" or len(lines) != limit + 1:
        return [f"expected {limit} symmetries"]
    if len(set(lines[1:])) != limit:
        return ["repeated symmetry"]
    for line in lines[1:]:
        images = [re.fullmatch(r"(\d)->([+-])(\d)", w) for w in line.split()]
        if len(images) != 8 or not all(images):
            return [f"unreadable symmetry {line!r}"]
        sigma = [int(m.group(3)) for m in images]
        eps = [1 if m.group(2) == "+" else -1 for m in images]
        if sorted(sigma) != list(range(8)):
            return [f"not a permutation: {line!r}"]
        det = exact.sort_sign(sigma)[1]
        for e in eps:
            det *= e
        if det != 1:
            return [f"det -1: {line!r}"]
        for quad in exact.QUADS:
            value = exact.phi_signed([sigma[i] for i in quad])
            for i in quad:
                value *= eps[i]
            if value != exact.PHI.get(quad, 0):
                return [f"does not fix phi: {line!r}"]
    return []


def cli_gate(kind: str, expect: dict, returncode: int, stdout: str, stderr: str) -> list[str]:
    """Judge one `python -m spin7` process by the invariant of its kind."""
    if kind == "malformed":
        return usage_error_gate(returncode, stderr)
    if kind == "verify":
        return verify_gate(returncode, stdout.encode(), stderr, [expect["suite"]])
    fails = _no_traceback(stderr)
    if returncode != 0:
        return fails + [f"exit code {returncode}"]
    try:
        if kind == "phi":
            fails += phi_gate(stdout, expect["format"])
        elif kind == "table":
            fails += table_gate(stdout)
        elif kind == "parse":
            fails += parse_gate(stdout, expect["degree"], expect["terms"])
        elif kind == "cross":
            fails += cross_gate(*expect["args"], _vector(stdout))
        elif kind == "cross2":
            fails += cross_gate(E0, *expect["args"], _vector(stdout))
        elif kind == "stab":
            fails += stab_gate(stdout, expect["group"], expect["print_dim"])
        elif kind == "omega":
            fails += omega_cli_gate(stdout)
        elif kind == "symmetries":
            fails += symmetries_gate(stdout, expect["limit"])
        else:
            fails.append(f"unknown command kind {kind}")
    except (ValueError, KeyError, TypeError, ZeroDivisionError) as exc:
        fails.append(f"unreadable {kind} output: {exc!r}")
    return fails
