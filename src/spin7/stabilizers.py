"""Stabilizer algebras of the Cayley form and the induced connection data.

The antisymmetric annihilator of the 4-form inside so(8) is 21-dimensional
(the Lie algebra of Spin(7)); the annihilator of the induced 3-form inside
so(7) is 14-dimensional (g2). Together with the 7-dimensional span of the
almost complex structures this gives the exact splitting
so(8) = spin(7) + span{J}.

Sign convention used throughout: a product label -nu stands for -e_nu, and
a negative label in any superscript or subscript slot flips the sign of
that term. This is applied uniformly when generating the linear constraint
system on the connection coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from itertools import combinations
from typing import Iterator

from .acs import (
    _permuted_terms,
    acs_basis,
    acs_span_dim,
    span_projection,
)
from .cross import default_cross
from .forms import AltForm, cayley_form, signed_coefficients
from .linalg import (
    Matrix,
    RowSpan,
    SignedPermutation,
    Vector,
    kernel_basis,
    rank,
    subspace_equal,
)
from .octonion import default_table

SO8_PAIRS: tuple[tuple[int, int], ...] = tuple(
    (i, j) for i in range(8) for j in range(i + 1, 8)
)
SO7_PAIRS: tuple[tuple[int, int], ...] = tuple(
    (i, j) for i in range(1, 8) for j in range(i + 1, 8)
)


def antisym_unit(n: int, i: int, j: int) -> Matrix:
    """The elementary antisymmetric matrix E_ij - E_ji in n dimensions."""
    rows = [[0] * n for _ in range(n)]
    rows[i][j] = 1
    rows[j][i] = -1
    return Matrix(rows)


def form_action(a: Matrix, f: AltForm) -> AltForm:
    """Infinitesimal action (a . f)(x_1..x_k) = -sum_i f(x_1, .., a x_i, .., x_k).

    A matrix annihilates the form under this action exactly when the
    one-parameter group it generates preserves the form.
    """
    k = f.degree
    tab = signed_coefficients(f)
    columns = [tuple(a.column(j).nonzero()) for j in range(a.ncols)]
    acc: dict[tuple[int, ...], Fraction] = {}
    for key in combinations(range(8), k):
        total = 0
        for p in range(k):
            for s, c in columns[key[p]]:
                value = tab.get(key[:p] + (s,) + key[p + 1:])
                if value:
                    total += c * value
        if total:
            acc[key] = -total
    return AltForm(k, acc)


def _coords_to_matrix(coords: Vector, pairs, n: int) -> Matrix:
    rows = [[0] * n for _ in range(n)]
    for c, (i, j) in zip(coords, pairs):
        if c:
            rows[i][j] += c
            rows[j][i] -= c
    return Matrix(rows)


@dataclass(frozen=True)
class LieSubalgebra:
    """A basis of independent antisymmetric matrices with certified dimension."""

    name: str
    ambient_dim: int
    basis: tuple[Matrix, ...]

    def __post_init__(self):
        for b in self.basis:
            if b.nrows != self.ambient_dim or not b.is_antisymmetric():
                raise ValueError(f"{self.name}: basis element not antisymmetric "
                                 f"{self.ambient_dim}x{self.ambient_dim}")
        if self._span.dim != len(self.basis):
            raise ValueError(f"{self.name}: basis is linearly dependent")

    @property
    def dim(self) -> int:
        return len(self.basis)

    @cached_property
    def _span(self) -> RowSpan:
        # built once per instance; private because RowSpan.add mutates it
        return RowSpan(b.flatten() for b in self.basis)

    def contains(self, m: Matrix) -> bool:
        return self._span.contains(m.flatten())


def _annihilator(f: AltForm, pairs: tuple[tuple[int, int], ...]) -> tuple[Matrix, ...]:
    """Basis of the antisymmetric matrices on indices lo..7 that annihilate f.

    ``pairs`` lists every (i, j) with lo <= i < j <= 7 in order, so lo is
    ``pairs[0][0]``; the basis matrices are (8 - lo) x (8 - lo).
    """
    lo = pairs[0][0]
    acted = [form_action(antisym_unit(8, i, j), f) for i, j in pairs]
    rows = [[a.coefficient(t) for a in acted] for t in combinations(range(lo, 8), f.degree)]
    shifted = [(i - lo, j - lo) for i, j in pairs]
    return tuple(
        _coords_to_matrix(v, shifted, 8 - lo) for v in kernel_basis(rows, len(pairs))
    )


@cache
def spin7() -> LieSubalgebra:
    """Exact kernel of the antisymmetric action on the Cayley form (dim 21)."""
    return LieSubalgebra("spin7", 8, _annihilator(cayley_form(), SO8_PAIRS))


@cache
def g2_stabilizer() -> LieSubalgebra:
    """Exact kernel of the so(7) action on the induced 3-form (dim 14)."""
    psi = default_cross().associative_form()
    return LieSubalgebra("g2", 7, _annihilator(psi, SO7_PAIRS))


def embed_so7(m: Matrix) -> Matrix:
    """Embed a 7x7 matrix into so(8) as the block fixing e_0."""
    rows = [[0] * 8 for _ in range(8)]
    for i in range(7):
        for j in range(7):
            rows[i + 1][j + 1] = m[i][j]
    return Matrix(rows)


@dataclass(frozen=True)
class OmegaExtraction:
    """Connection coefficients of one antisymmetric direction matrix.

    ``omega`` holds the coefficient of J_mu (row mu-1) in the commutator
    [rho, J_lam] (column lam-1); ``residuals[lam-1]`` is the exact part of
    that commutator outside span{J}. A zero residual for every lam says the
    J-span is invariant under rho. ``in_g2`` is computed on first read, so
    a caller that never reads it never builds g2.
    """

    omega: Matrix
    residuals: tuple[Matrix, ...]

    @property
    def residual_zero(self) -> bool:
        return all(r.is_zero() for r in self.residuals)

    @cached_property
    def in_g2(self) -> bool:
        return g2_stabilizer().contains(self.omega)

    @property
    def omega_antisymmetric(self) -> bool:
        return self.omega.is_antisymmetric()


def extract_omega(rho: Matrix) -> OmegaExtraction:
    """Project each commutator [rho, J_lam] onto span{J} via the trace pairing.

    The frame variation of each J under the one-parameter group of rho is
    the commutator; its trace-orthogonal projection yields the coefficient
    matrix, and whatever is left over is reported exactly as a residual
    matrix per direction (a nonzero residual is an outcome, not an error).
    The pairings tr(J_mu^T delta) are read from the disjoint signed supports
    of the J's (:func:`acs.span_projection`), not from matrix products. The
    147 brackets of the spin(7) basis are extracted once, in :func:`spin7_omegas`.
    """
    if rho.nrows != 8 or rho.ncols != 8:
        raise ValueError("rho must be an 8x8 matrix")
    # a violation at (i, j) is one at (j, i), so the first one has i <= j
    bad = next(((i, j) for i in range(8) for j in range(i, 8)
                if rho.rows[i][j] != -rho.rows[j][i]), None)
    if bad is not None:
        raise ValueError(f"rho is not antisymmetric at {bad}")
    omega_cols = []
    residuals = []
    for j in acs_basis():
        coeffs, residual = span_projection(rho.commutator(j.matrix))
        omega_cols.append(coeffs)
        residuals.append(residual)
    return OmegaExtraction(omega=Matrix.from_columns(omega_cols), residuals=tuple(residuals))


@cache
def spin7_omegas() -> tuple[OmegaExtraction, ...]:
    """:func:`extract_omega` of each spin(7) basis element, in basis order."""
    return tuple(extract_omega(rho) for rho in spin7().basis)


def constraint_equation(lam: int, mu: int) -> Vector:
    """One generated constraint row over the 49 coefficients w^a_b.

    Coordinates are indexed 7*(a-1) + (b-1). The row encodes
    w^{lam x mu}_lam + w^{mu x lam}_mu - w^mu_{lam x mu} = 0 with the
    negative-label sign convention applied to every slot.
    """
    if lam == mu or not (1 <= lam <= 7 and 1 <= mu <= 7):
        raise ValueError("need distinct imaginary indices")
    table = default_table()
    row = [0] * 49
    n1, s1 = table.imaginary(lam, mu)
    n2, s2 = table.imaginary(mu, lam)
    row[7 * (n1 - 1) + (lam - 1)] += s1
    row[7 * (n2 - 1) + (mu - 1)] += s2
    row[7 * (mu - 1) + (n1 - 1)] -= s1
    return Vector(row)


@dataclass(frozen=True)
class ConstraintSystemReport:
    """Exact solution of the generated coefficient system, versus g2."""

    equation_count: int
    dimension: int
    equals_g2: bool


def constraint_system_g2() -> ConstraintSystemReport:
    """Solve the coefficient system over all 42 ordered distinct index pairs
    plus antisymmetry, and compare the solution span with the g2 stabilizer.

    The comparison verdict is reported as computed, whatever it is.
    """
    rows = [
        constraint_equation(lam, mu)
        for lam in range(1, 8)
        for mu in range(1, 8)
        if lam != mu
    ]
    for a in range(1, 8):
        for b in range(a, 8):
            row = [0] * 49
            row[7 * (a - 1) + (b - 1)] += 1
            row[7 * (b - 1) + (a - 1)] += 1
            rows.append(Vector(row))
    solutions = kernel_basis(rows, 49)
    g2_rows = [b.flatten() for b in g2_stabilizer().basis]
    equals = bool(solutions) and subspace_equal(solutions, g2_rows)
    return ConstraintSystemReport(
        equation_count=len(rows),
        dimension=len(solutions),
        equals_g2=equals,
    )


@dataclass(frozen=True)
class DecompositionVerdict:
    """Exactness report for so(8) = spin(7) + span{J}."""

    spin7_dim: int
    span_dim: int
    sum_dim: int
    intersection_dim: int
    bracket_closed: bool


def decompose_so8() -> DecompositionVerdict:
    """Verify dimensions, trivial intersection, and [spin7, span{J}] in span{J}."""
    sp = spin7()
    span_dim = acs_span_dim()
    sum_dim = rank([b.flatten() for b in sp.basis] + [j.matrix.flatten() for j in acs_basis()])
    return DecompositionVerdict(
        spin7_dim=sp.dim,
        span_dim=span_dim,
        sum_dim=sum_dim,
        intersection_dim=sp.dim + span_dim - sum_dim,
        bracket_closed=all(e.residual_zero for e in spin7_omegas()),
    )


def _term_permutations() -> Iterator[tuple[int, ...]]:
    """The permutations sigma of 0..7 that map each of the 14 term index
    sets of the Cayley form onto a term index set, in lexical order.

    The term sets form a Steiner system S(3,4,8), and these are its 1344
    automorphisms. A depth-first search assigns sigma(0), sigma(1), ... in
    increasing order and tests each term as soon as its largest index is
    assigned, so it yields what filtering ``permutations(range(8))`` would,
    in the same order, while pruning every other branch early. It is a
    generator, so a caller that stops early stops the search.
    """
    terms = cayley_form().terms
    term_masks = {sum(1 << t for t in key) for key in terms}
    closing = [[key[:3] for key in terms if key[3] == p] for p in range(8)]
    sigma = [0] * 8

    def extend(p: int, used: int) -> Iterator[tuple[int, ...]]:
        for s in range(8):
            if used >> s & 1:
                continue
            if all((1 << s | 1 << sigma[a] | 1 << sigma[b] | 1 << sigma[c]) in term_masks
                   for a, b, c in closing[p]):
                sigma[p] = s
                if p == 7:
                    yield tuple(sigma)
                else:
                    yield from extend(p + 1, used | 1 << s)

    return extend(0, 0)


@cache
def _sign_classes() -> dict[int, list[int]]:
    """The 256 sign bitmasks x (eps_i = (-1)^x_i), grouped by the terms they flip.

    Bit r of a flip mask is set when the product of eps over the r-th term
    key of phi (in ``phi.terms`` order) is -1. The map from x to its flip
    mask is GF(2)-linear of rank 4 for the Cayley form, so the masks fall
    into 16 classes of 16; each class lists its x in ascending order.
    """
    keys = [sum(1 << t for t in key) for key in cayley_form().terms]
    classes: dict[int, list[int]] = {}
    for x in range(256):
        flips = sum(1 << r for r, key in enumerate(keys) if (x & key).bit_count() & 1)
        classes.setdefault(flips, []).append(x)
    return classes


def _sign_vectors(sigma: tuple[int, ...]) -> list[int]:
    """The sign bitmasks x (eps_i = (-1)^x_i) for which f_i = eps_i e_sigma(i)
    preserves the form, in ascending order: none unless sigma maps each term
    set onto a term set, and otherwise the product of eps over each term key
    must have the sign of c * phi(e_sigma(key)), so the flip mask is read
    from the cached :func:`acs._permuted_terms` and looked up in
    :func:`_sign_classes`."""
    flips = _permuted_terms(sigma)[1]
    return [] if flips is None else _sign_classes().get(flips, [])


def signed_perm_symmetries(limit: int | None = None) -> list[SignedPermutation]:
    """Signed permutation matrices preserving the Cayley form with det = +1.

    The permutation part must map the 14 term index sets onto themselves,
    so the depth-first search :func:`_term_permutations` yields the 1344
    candidates sigma in lexical order. For each, the sign vectors are one
    class of the 16-class sign table (:func:`_sign_vectors`), and sign(sigma)
    comes from the same per-sigma cache that ``check_frame`` reads
    (:func:`acs._permuted_terms`). Output order is deterministic
    (permutations in lexical order, then sign bitmasks in ascending order);
    ``limit`` stops the search once that many symmetries are found, and a
    negative ``limit`` raises ``ValueError``. Each symmetry is a
    :class:`SignedPermutation` on its labels: the 16 symmetries of one sigma
    share its tuple, and eps comes from a shared table of the 256 sign
    vectors, so no rows are built.
    """
    if limit is not None and limit < 0:
        raise ValueError("limit must be nonnegative")
    results: list[SignedPermutation] = []
    if limit == 0:
        return results
    signs = [tuple(-1 if bits >> i & 1 else 1 for i in range(8)) for bits in range(256)]
    for sigma in _term_permutations():
        sgn_sigma = _permuted_terms(sigma)[0]
        for bits in _sign_vectors(sigma):
            if sgn_sigma * (-1) ** bits.bit_count() != 1:
                continue
            results.append(SignedPermutation(sigma, signs[bits]))
            if limit is not None and len(results) >= limit:
                return results
    return results
