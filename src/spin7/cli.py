"""Command-line front end.

Exit codes: 0 when all requested checks pass, 1 when a verification suite
fails, 2 on usage or parse errors. JSON output uses sorted keys and fixed
separators, so identical inputs produce byte-identical output.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter

import click

from .cross import InputNotInE0Perp, default_cross
from .forms import FormParseError, cayley_form, parse_form, print_form
from .linalg import Matrix, Vector, parse_vector
from .octonion import default_table
from .stabilizers import (
    decompose_so8,
    extract_omega,
    g2_stabilizer,
    signed_perm_symmetries,
    spin7,
)
from .verify import SUITE_NAMES, reports_to_json, run_suite


def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _echo_json(obj) -> None:
    click.echo(_dump(obj))


@click.group()
def main() -> None:
    """Exact verification toolkit for the Cayley 4-form algebra on 8-space."""


@main.command("phi")
@click.option("--format", "fmt", type=click.Choice(["text", "json"]), default="text")
def cmd_phi(fmt: str) -> None:
    """Print the 14-term 4-form."""
    phi = cayley_form()
    if fmt == "text":
        click.echo(print_form(phi))
    else:
        _echo_json(phi.to_json_obj())


@main.command("table")
@click.option("--format", "fmt", type=click.Choice(["text", "json", "csv"]), default="text")
def cmd_table(fmt: str) -> None:
    """Print the 7x7 signed product table of the imaginary units."""
    table = default_table()
    if fmt == "text":
        click.echo(table.as_text())
    elif fmt == "csv":
        click.echo(table.as_csv())
    else:
        _echo_json(table.as_json_obj())


def _vector_option(text: str, name: str) -> Vector:
    try:
        return parse_vector(text, dim=8)
    except ValueError as exc:
        raise click.UsageError(f"bad vector for {name}: {exc}") from exc


@main.command("cross")
@click.option("-u", "u_text", required=True, help="first vector, 8 comma-separated rationals")
@click.option("-v", "v_text", required=True, help="second vector")
@click.option("-w", "w_text", required=True, help="third vector")
@click.option("--format", "fmt", type=click.Choice(["text", "json"]), default="text")
def cmd_cross(u_text: str, v_text: str, w_text: str, fmt: str) -> None:
    """Triple cross product of three vectors."""
    cp = default_cross()
    result = cp.cross3(
        _vector_option(u_text, "-u"),
        _vector_option(v_text, "-v"),
        _vector_option(w_text, "-w"),
    )
    if fmt == "text":
        click.echo(str(result))
    else:
        _echo_json({"result": str(result)})


@main.command("cross2")
@click.option("-u", "u_text", required=True)
@click.option("-v", "v_text", required=True)
@click.option("--format", "fmt", type=click.Choice(["text", "json"]), default="text")
def cmd_cross2(u_text: str, v_text: str, fmt: str) -> None:
    """Induced product on the complement of e0."""
    cp = default_cross()
    try:
        result = cp.cross2(_vector_option(u_text, "-u"), _vector_option(v_text, "-v"))
    except InputNotInE0Perp as exc:
        raise click.UsageError(str(exc)) from exc
    if fmt == "text":
        click.echo(str(result))
    else:
        _echo_json({"result": str(result)})


@main.command("parse")
@click.argument("expr")
@click.option("--format", "fmt", type=click.Choice(["text", "json"]), default="text")
def cmd_parse(expr: str, fmt: str) -> None:
    """Parse a form expression and print its canonical rendering."""
    try:
        form = parse_form(expr)
    except FormParseError as exc:
        raise click.UsageError(str(exc)) from exc
    if fmt == "text":
        click.echo(print_form(form))
    else:
        _echo_json(form.to_json_obj())


@main.command("verify")
@click.option(
    "--suite",
    type=click.Choice(list(SUITE_NAMES) + ["all"]),
    default="all",
    show_default=True,
)
@click.option("--format", "fmt", type=click.Choice(["text", "json"]), default="json")
@click.option("--timings", is_flag=True,
              help="print each suite's wall time and case count, then the total, on stderr")
def cmd_verify(suite: str, fmt: str, timings: bool) -> None:
    """Run a verification suite; exit 0 only if every check passes."""
    reports = []
    first = perf_counter()
    for name in SUITE_NAMES if suite == "all" else (suite,):
        start = perf_counter()
        reports.append(run_suite(name))
        if timings:
            click.echo(f"{name}: {perf_counter() - start:.3f} s, "
                       f"{reports[-1].cases} cases", err=True)
    if timings:
        click.echo(f"total: {perf_counter() - first:.3f} s, "
                   f"{sum(r.cases for r in reports)} cases", err=True)
    if fmt == "json":
        click.echo(reports_to_json(reports))
    else:
        for report in reports:
            click.echo(f"{report.suite}: {report.verdict} ({report.cases} cases)")
            for failure in report.failures:
                click.echo(f"  FAIL {failure['inputs']}: "
                           f"expected {failure['expected']}, got {failure['actual']}")
    if any(report.verdict != "pass" for report in reports):
        sys.exit(1)


@main.command("stab")
@click.option("--group", type=click.Choice(["spin7", "g2"]), required=True)
@click.option("--print-dim", "print_dim", is_flag=True)
@click.option("--print-basis", "print_basis", is_flag=True)
@click.option("--format", "fmt", type=click.Choice(["text", "json"]), default="text")
def cmd_stab(group: str, print_dim: bool, print_basis: bool, fmt: str) -> None:
    """Stabilizer subalgebra queries."""
    algebra = spin7() if group == "spin7" else g2_stabilizer()
    if print_dim:
        click.echo(str(algebra.dim))
        return
    if print_basis:
        _echo_json([b.to_json_obj() for b in algebra.basis])
        return
    if fmt == "text":
        click.echo(f"group: {group}")
        click.echo(f"dim: {algebra.dim}")
        if group == "spin7":
            dec = decompose_so8()
            click.echo(f"decomposition: {dec.spin7_dim}+{dec.span_dim}={dec.sum_dim}, "
                       f"intersection {dec.intersection_dim}, "
                       f"bracket closed {dec.bracket_closed}")
    else:
        _echo_json({"group": group, "dim": algebra.dim})


@main.command("omega")
@click.option("--rho", "rho_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--format", "fmt", type=click.Choice(["text", "json"]), default="text")
def cmd_omega(rho_path: str, fmt: str) -> None:
    """Extract connection coefficients from an 8x8 antisymmetric matrix file.

    The file holds a JSON array of 8 arrays of 8 rational strings.
    """
    try:
        with open(rho_path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
        rho = Matrix.from_json_obj(obj, shape=(8, 8))
    except (OSError, ValueError, RecursionError) as exc:
        raise click.UsageError(f"cannot read rho matrix: {exc}") from exc
    try:
        ext = extract_omega(rho)
    except ValueError as exc:
        raise click.UsageError(str(exc)) from exc
    if fmt == "json":
        _echo_json(
            {
                "omega": ext.omega.to_json_obj(),
                "omega_antisymmetric": ext.omega_antisymmetric,
                "residuals": [r.to_json_obj() for r in ext.residuals],
                "residual_zero": ext.residual_zero,
                "in_g2": ext.in_g2,
            }
        )
        return
    click.echo("omega:")
    for row in ext.omega.to_json_obj():
        click.echo("  " + " ".join(f"{c:>6}" for c in row))
    if ext.residual_zero:
        click.echo("residual: 0")
    else:
        click.echo("residual: nonzero in directions "
                   + ",".join(str(k + 1) for k, r in enumerate(ext.residuals) if not r.is_zero()))
    click.echo(f"omega antisymmetric: {ext.omega_antisymmetric}")
    click.echo(f"in_g2: {ext.in_g2}")


@main.command("symmetries")
@click.option("--limit", type=click.IntRange(min=0), default=None, help="stop after this many")
@click.option("--format", "fmt", type=click.Choice(["text", "json"]), default="text")
@click.option("--count-only", is_flag=True, help="print only the count")
def cmd_symmetries(limit: int | None, fmt: str, count_only: bool) -> None:
    """Enumerate signed-permutation symmetries of the form (det = +1)."""
    mats = signed_perm_symmetries(limit)
    if count_only:
        click.echo(str(len(mats)))
        return
    if fmt == "json":
        _echo_json({"count": len(mats), "matrices": [m.to_json_obj() for m in mats]})
        return
    click.echo(f"count: {len(mats)}")
    for m in mats:
        click.echo(" ".join(
            f"{i}->{'+' if sign > 0 else '-'}{row}" for i, (row, sign) in enumerate(m.cols)
        ))


if __name__ == "__main__":
    main()
