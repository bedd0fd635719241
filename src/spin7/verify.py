"""Verification suites: exhaustive exact checks over the whole algebra.

Each suite returns a :class:`VerdictReport`; a report passes exactly when
its failure list is empty; the axioms and lemma reports come from the basis
sweeps in :mod:`spin7.cross`. Convention notes ride along as metadata, and the
connection-coefficient suite additionally carries its per-element data
(coefficient matrix, residual status, g2 membership) since those verdicts
are outputs in their own right, not pass/fail conditions.

Reports serialize to JSON deterministically (sorted keys, no timings), so
two runs over the same build produce byte-identical output.
"""

from __future__ import annotations

import json

from .acs import (
    acs_basis,
    acs_span_dim,
    composition_disagreement,
    span_stability,
    times_product,
)
from .cross import VerdictReport, verify_compatibility, verify_composition_lemma
from .forms import cayley_form, parse_form, print_form
from .linalg import Matrix
from .octonion import Octonion, associator, default_table, oct_mul
from .stabilizers import (
    constraint_system_g2,
    decompose_so8,
    extract_omega,
    g2_stabilizer,
    signed_perm_symmetries,
    spin7,
    spin7_omegas,
)


def suite_selfdual() -> VerdictReport:
    """The 4-form has exactly the expected 14 unit terms and is self-dual."""
    report = VerdictReport("selfdual")
    phi = cayley_form()
    report.check(
        len(phi.terms) == 14 and all(c * c == 1 for c in phi.terms.values()),
        "term count and unit coefficients",
        "14 terms, all +/-1",
        f"{len(phi.terms)} terms",
    )
    star = phi.star()
    for key in sorted(phi.terms):
        opposite = tuple(i for i in range(8) if i not in key)
        star_coeff, coeff = star.coefficient(opposite), phi.coefficient(opposite)
        report.check(
            star_coeff == coeff,
            f"star coefficient opposite e^{{{''.join(map(str, key))}}}",
            str(coeff),
            str(star_coeff),
        )
    report.check(star == phi, "star(phi) == phi", "equal", "unequal" if star != phi else "equal")
    roundtrip = parse_form(print_form(phi))
    report.check(
        roundtrip == phi, "parse(print(phi)) == phi", "equal",
        "unequal" if roundtrip != phi else "equal",
    )
    return report


def suite_axioms() -> VerdictReport:
    """Metric compatibility of the triple product, and the octonion axioms."""
    report = verify_compatibility()
    table = default_table()
    for lam in range(1, 8):
        for mu in range(1, 8):
            entry = table.imaginary(lam, mu)
            if lam == mu:
                ok = entry == (0, -1)
                expected = "-e0 diagonal"
            else:
                ok = (
                    entry.index not in (0, lam, mu)
                    and table.imaginary(mu, lam) == -entry
                )
                expected = "antisymmetric signed unit off {0,lam,mu}"
            report.check(ok, f"table({lam},{mu})", expected, entry.as_text())

    units = [Octonion.unit(i) for i in range(8)]
    for i in range(8):
        for j in range(8):
            prod = oct_mul(units[i], units[j])
            report.check(
                prod.norm_sq() == units[i].norm_sq() * units[j].norm_sq(),
                f"|e{i} * e{j}|^2",
                "1",
                str(prod.norm_sq()),
            )
    for lam in range(1, 8):
        for mu in range(1, 8):
            left = associator(units[lam], units[lam], units[mu])
            right = associator(units[lam], units[mu], units[mu])
            report.check(
                left.is_zero() and right.is_zero(),
                f"alternativity (e{lam}, e{mu})",
                "0",
                f"{left!r}, {right!r}",
            )
    # the lexically first unit triple with a nonzero associator
    witness = next(((a, b, c) for a in range(8) for b in range(8) for c in range(8)
                    if not associator(units[a], units[b], units[c]).is_zero()), None)
    report.check(
        witness is not None,
        f"nonzero associator witness ({','.join(f'e{i}' for i in witness or ()) or 'none'})",
        "nonzero",
        repr(associator(*(units[i] for i in witness))) if witness else "zero",
    )
    return report


def suite_lemma() -> VerdictReport:
    """The composition rule over all 32768 ordered basis 5-tuples."""
    report = verify_composition_lemma()
    report.metadata["note"] = (
        "multilinearity of both sides makes the basis sweep cover all inputs"
    )
    return report


def suite_claim1() -> VerdictReport:
    """The product of the J family follows the unit table, yet differs from
    operator composition somewhere."""
    report = VerdictReport("claim1")
    table = default_table()
    for lam in range(1, 8):
        for mu in range(1, 8):
            label = times_product(lam, mu)
            expected = table.imaginary(lam, mu)
            report.check(
                label == expected,
                f"J{lam} x J{mu}",
                expected.as_text(),
                label.as_text(),
            )
    witness = composition_disagreement()
    composed_differs = witness.composition != witness.table
    report.check(
        composed_differs,
        f"composition disagreement at (J{witness.lam}, J{witness.mu}, e{witness.basis_index})",
        "different vectors",
        f"{witness.composition} vs {witness.table}",
    )
    report.details = {
        "witness": {
            "lam": witness.lam,
            "mu": witness.mu,
            "basis_index": witness.basis_index,
            "composition": str(witness.composition),
            "table": str(witness.table),
        }
    }
    return report


def suite_claim2() -> VerdictReport:
    """Stabilizer dimensions, the exact splitting of so(8), and the
    connection-coefficient extraction over the whole spin(7) basis."""
    report = VerdictReport("claim2")
    sp = spin7()
    g2 = g2_stabilizer()
    report.check(sp.dim == 21, "dim spin(7)", "21", str(sp.dim))
    report.check(g2.dim == 14, "dim g2", "14", str(g2.dim))
    dec = decompose_so8()
    report.check(
        dec.spin7_dim + dec.span_dim == 28 and dec.sum_dim == 28,
        "dim spin(7) + dim span{J}",
        "28 with full sum",
        f"{dec.spin7_dim}+{dec.span_dim}, sum {dec.sum_dim}",
    )
    report.check(
        dec.intersection_dim == 0, "spin(7) intersect span{J}", "0", str(dec.intersection_dim)
    )
    report.check(
        dec.bracket_closed, "[spin(7), span{J}] in span{J}", "contained", str(dec.bracket_closed)
    )

    elements = []
    for k, ext in enumerate(spin7_omegas()):
        report.check(
            ext.residual_zero,
            f"residual of spin(7) basis element {k}",
            "0",
            "nonzero",
        )
        report.check(
            ext.omega_antisymmetric,
            f"omega antisymmetry for element {k}",
            "antisymmetric",
            "not antisymmetric",
        )
        elements.append(
            {
                "index": k,
                "omega": ext.omega.to_json_obj(),
                "residual": "0" if ext.residual_zero
                else [r.to_json_obj() for r in ext.residuals],
                "residual_zero": ext.residual_zero,
                "in_g2": ext.in_g2,
            }
        )
    negative = extract_omega(acs_basis()[0].matrix)
    report.check(
        not negative.residual_zero,
        "negative control rho = J1",
        "nonzero residual",
        "zero residual" if negative.residual_zero else "nonzero residual",
    )
    cs = constraint_system_g2()
    report.details = {
        "elements": elements,
        "in_g2_verdicts": [e["in_g2"] for e in elements],
        "constraint_system": {
            "equations": cs.equation_count,
            "dimension": cs.dimension,
            "equals_g2": cs.equals_g2,
        },
    }
    report.metadata["note"] = (
        "g2 membership of each coefficient matrix is reported as data; "
        "only nonzero residuals or broken antisymmetry fail this suite"
    )
    report.metadata["sign_convention"] = (
        "a negative product label in any index slot flips the term sign"
    )
    return report


def suite_claim3() -> VerdictReport:
    """Frame independence of span{J}: infinitesimally under spin(7) and
    exactly under every signed-permutation symmetry of the form."""
    report = VerdictReport("claim3")
    report.check(acs_span_dim() == 7, "dim span{J}", "7", str(acs_span_dim()))
    for k, ext in enumerate(spin7_omegas()):
        inside = ext.residual_zero
        report.check(
            inside,
            f"[spin(7) element {k}, span{{J}}] in span{{J}}",
            "contained",
            str(inside),
        )
    symmetries = signed_perm_symmetries()
    for idx, r in enumerate(symmetries):
        stable = span_stability(r)
        report.check(stable, f"symmetry {idx}", "span preserved", str(stable))
    report.metadata["symmetry_count"] = len(symmetries)
    return report


def suite_claim4() -> VerdictReport:
    """The division identity on unit products, and Hermitian certification
    of every J."""
    report = VerdictReport("claim4")
    table = default_table()
    for lam in range(1, 8):
        for mu in range(1, 8):
            for nu in range(1, 8):
                a = table.product(lam, mu)
                b = table.product(lam, nu)
                lhs = a.sign * b.sign * (1 if a.index == b.index else 0)
                rhs = 1 if mu == nu else 0
                report.check(
                    lhs == rhs,
                    f"g(e_{lam}x{mu}, e_{lam}x{nu}) = g(e_{mu}, e_{nu})",
                    str(rhs),
                    str(lhs),
                )
    identity = Matrix.identity(8)
    for j in acs_basis():
        ok = (
            j.matrix @ j.matrix == -identity
            and j.matrix.is_antisymmetric()
            and j.matrix.transpose() @ j.matrix == identity
        )
        report.check(
            ok,
            f"J{j.label}: square, antisymmetry, orthogonality",
            "J^2=-I, J+J^T=0, J^T J=I",
            str(ok),
        )
    return report


_SUITES = {
    "selfdual": suite_selfdual,
    "axioms": suite_axioms,
    "lemma": suite_lemma,
    "claim1": suite_claim1,
    "claim2": suite_claim2,
    "claim3": suite_claim3,
    "claim4": suite_claim4,
}
SUITE_NAMES = tuple(_SUITES)


def run_suite(name: str) -> VerdictReport:
    if name not in _SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {', '.join(SUITE_NAMES)}")
    return _SUITES[name]()


def run_all() -> list[VerdictReport]:
    return [run_suite(name) for name in SUITE_NAMES]


def reports_to_json(reports: list[VerdictReport]) -> str:
    overall = "pass" if all(r.verdict == "pass" for r in reports) else "fail"
    obj = {"reports": [r.to_json_obj() for r in reports], "verdict": overall}
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))
