"""The seven almost complex structures carried by the Cayley cross product.

J_lam acts as the triple product with (e_0, e_lam) on the complement of
those two directions; on the pair itself it swaps e_0 -> e_lam and
e_lam -> -e_0 (the latter value is forced by J^2 = -I and adopted
explicitly). The family multiplies according to the octonion unit table,
which differs from operator composition, and spans a 7-dimensional
subspace of the 8x8 endomorphisms that is stable under every frame
rotation preserving the form.

The J's of every frame, the standard ones at the identity frame, come from
:func:`rotated_acs_family`; membership in span{J} is the zero residual of
the trace-orthogonal projection :func:`span_projection`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import lcm, prod

from .cross import default_cross
from .forms import pullback, sort_with_sign
from .linalg import Matrix, RowSpan, SignedPermutation, Vector, det, rank
from .octonion import SignedUnit, default_table


class ACSCertificationError(ValueError):
    """A matrix claimed as an almost complex structure failed its invariants."""


class NotUnitImaginary(ValueError):
    """The direction is not an exactly-unit vector orthogonal to e_0."""


class FrameNotAdmissible(ValueError):
    """The frame rotation does not preserve the form, metric, or orientation."""


class NoWitnessFound(RuntimeError):
    """No composition/table disagreement exists; this would mean the unit
    product coincides with operator composition and must not occur."""


@dataclass(frozen=True)
class ACS:
    """A certified almost complex structure: J^2 = -I and J antisymmetric.

    Antisymmetry together with J^2 = -I makes the identity metric Hermitian:
    g(Jx, Jy) = g(x, y) for all x, y.
    """

    matrix: Matrix
    label: int | Vector | None = None

    def __post_init__(self):
        n = self.matrix.nrows
        if self.matrix @ self.matrix != -Matrix.identity(n):
            raise ACSCertificationError("matrix does not square to -I")
        if not self.matrix.is_antisymmetric():
            raise ACSCertificationError("matrix is not antisymmetric")

    def __call__(self, v: Vector) -> Vector:
        return self.matrix @ v


def build_acs(lam: int) -> ACS:
    """The structure J_lam with J_lam v = P(e0, e_lam, v) off span{e0, e_lam}."""
    if not 1 <= lam <= 7:
        raise ValueError("lam must lie in 1..7")
    return acs_basis()[lam - 1]


@cache
def acs_basis() -> tuple[ACS, ...]:
    """J_1..J_7 for the Cayley form with the identity metric: the rotated
    family of the identity frame, each certified as an :class:`ACS`."""
    return tuple(ACS(m, label=lam)
                 for lam, m in enumerate(rotated_acs_family(Matrix.identity(8)), start=1))


@cache
def _acs_span() -> RowSpan:
    return RowSpan(j.matrix.flatten() for j in acs_basis())


def acs_span_dim() -> int:
    """Dimension of span{J_1..J_7} inside the 64-dimensional endomorphisms."""
    return _acs_span().dim


@cache
def _span_support() -> dict[tuple[int, int], tuple[int, int]]:
    """Map (i, j) -> (lam, sign) over the supports of the J family.

    The seven J matrices are signed permutation matrices with pairwise
    disjoint supports that together cover every off-diagonal position;
    both facts are asserted here and make each trace pairing with a J a
    signed sum over its support.
    """
    support: dict[tuple[int, int], tuple[int, int]] = {}
    for lam, j in enumerate(acs_basis(), start=1):
        for a in range(8):
            row = j.matrix.rows[a]
            for b in range(8):
                if row[b]:
                    assert (a, b) not in support
                    support[(a, b)] = (lam, 1 if row[b] > 0 else -1)
    assert len(support) == 56
    return support


def span_contains_matrix(m: Matrix) -> bool:
    """Exact membership of an 8x8 matrix in span{J_1..J_7}: the residual of
    :func:`span_projection` is zero."""
    return span_projection(m)[1].is_zero()


def span_projection(m: Matrix) -> tuple[tuple[Fraction, ...], Matrix]:
    """The trace-orthogonal projection of an 8x8 matrix onto span{J_1..J_7}.

    Returns the coefficients c_mu = tr(J_mu^T m) / 8 (the trace Gram matrix
    of the family is 8 I) and the exact residual m - sum(c_mu J_mu). The
    entries are scaled to integers by the lcm d of their denominators. Each
    pairing tr(J_mu^T m) is then an integer sum over the 8 signed entries of
    J_mu's support, c_mu J_mu is subtracted on that support only, and each
    result is divided by 8 d once.
    """
    rows = m.rows
    d = lcm(*(c.denominator for row in rows for c in row))
    ints = [[c.numerator * (d // c.denominator) for c in row] for row in rows]
    support = _span_support()
    pairings = [0] * 8  # d tr(J_lam^T m) at index lam
    for (a, b), (lam, sign) in support.items():
        pairings[lam] += ints[a][b] if sign > 0 else -ints[a][b]
    residual = [[8 * x for x in row] for row in ints]
    for (a, b), (lam, sign) in support.items():
        residual[a][b] -= pairings[lam] if sign > 0 else -pairings[lam]
    den = 8 * d
    return (
        tuple(Fraction(p, den) for p in pairings[1:]),
        Matrix([Fraction(x, den) if x else 0 for x in row] for row in residual),
    )


def times_product(lam: int, mu: int) -> SignedUnit:
    """The product label of J_lam and J_mu under the unit table.

    Index 0 stands for the identity endomorphism, so the diagonal maps to
    -I just as the unit diagonal maps to -e_0.
    """
    return default_table().imaginary(lam, mu)


def matrix_for_label(unit: SignedUnit) -> Matrix:
    """The endomorphism named by a signed label: +/-I for 0, +/-J_nu otherwise."""
    base = Matrix.identity(8) if unit.index == 0 else acs_basis()[unit.index - 1].matrix
    return base if unit.sign > 0 else -base


@dataclass(frozen=True)
class CompositionWitness:
    """A basis vector on which composition and the table product disagree."""

    lam: int
    mu: int
    basis_index: int
    composition: Vector
    table: Vector


def composition_disagreement() -> CompositionWitness:
    """First (lam, mu, basis vector) where J_lam J_mu differs from the table.

    The scan is exhaustive and deterministic: lowest lam, then mu, then
    basis index. Finding nothing raises :class:`NoWitnessFound`, which would
    mean the table product is associative and must not occur.
    """
    js = acs_basis()
    basis = [Vector.basis(8, i) for i in range(8)]
    for lam in range(1, 8):
        for mu in range(1, 8):
            composed = js[lam - 1].matrix @ js[mu - 1].matrix
            table = matrix_for_label(times_product(lam, mu))
            if composed == table:
                continue
            for i, v in enumerate(basis):
                cv = composed @ v
                tv = table @ v
                if cv != tv:
                    return CompositionWitness(lam, mu, i, cv, tv)
    raise NoWitnessFound("table product coincides with composition everywhere")


def acs_from_unit(u: Vector) -> ACS:
    """The structure sum(u_lam J_lam) for an exactly-unit imaginary direction.

    Raises :class:`NotUnitImaginary` unless u is orthogonal to e_0 with
    |u|^2 = 1 exactly; for non-unit u the square would be -|u|^2 I, not -I.
    """
    if len(u) != 8 or u[0]:
        raise NotUnitImaginary("direction must be orthogonal to e0")
    norm_sq = u.dot(u)
    if norm_sq != 1:
        raise NotUnitImaginary(f"direction must have unit length, |u|^2 = {norm_sq}")
    js = acs_basis()
    m = Matrix.zero(8, 8)
    for lam in range(1, 8):
        c = u[lam]
        if c:
            m = m + js[lam - 1].matrix * c
    return ACS(m, label=u)


def rotated_acs_family(r: Matrix) -> list[Matrix]:
    """J_1..J_7 of the rotated frame f_i = R e_i, in standard coordinates:
    J_lam f_0 = f_lam, J_lam f_lam = -f_0, and P(f_0, f_lam, f_i) otherwise."""
    cross3 = default_cross().cross3
    frame = [r.column(i) for i in range(8)]
    out = []
    for lam in range(1, 8):
        sparse = [(frame[lam] if i == 0 else -frame[0] if i == lam
                   else cross3(frame[0], frame[lam], frame[i])).nonzero() for i in range(8)]
        # express on the standard basis: e_j = sum_i R[j][i] e'_i for orthogonal R
        cols = []
        for j in range(8):
            acc = [0] * 8
            for i, c in enumerate(r.rows[j]):
                if c:
                    for m, x in sparse[i]:
                        acc[m] += c * x
            cols.append(acc)
        out.append(Matrix.from_columns(cols))
    return out


@cache
def _permuted_terms(sigma: tuple[int, ...]) -> tuple[int, int | None]:
    """The sign of the permutation sigma, and the flip mask that the signs of
    a frame f_i = eps_i e_sigma(i) must have: bit t is set when term t of the
    Cayley form, c e^key, has phi(e_sigma(key)) = -c. None when some
    phi(e_sigma(key)) is not +/-c, so that no signs preserve the form."""
    cp = default_cross()
    pairs = [(cp.phi_signed.get(tuple(sigma[i] for i in key), 0), c)
             for key, c in cp.phi.terms.items()]
    mask = sum(1 << t for t, (image, c) in enumerate(pairs) if image == -c)
    return sort_with_sign(sigma)[1], (
        mask if all(image in (c, -c) for image, c in pairs) else None)


@cache
def _sign_flips(eps: tuple[int, ...]) -> tuple[int, int]:
    """prod(eps), and the mask whose bit t is set when the product of eps
    over the t-th term key of the Cayley form is -1."""
    keys = default_cross().phi.terms
    return prod(eps), sum(1 << t for t, key in enumerate(keys)
                          if prod(eps[i] for i in key) < 0)


def check_frame(r: Matrix) -> None:
    """Raise :class:`FrameNotAdmissible` unless R is orthogonal, preserves the
    Cayley form exactly, and has determinant +1.

    The route is chosen by type. A :class:`SignedPermutation` R, f_i = eps_i
    e_sigma(i), is checked on its labels and never builds its rows: it is
    orthogonal, has determinant sign(sigma) * prod(eps), and preserves the
    form exactly when the product of eps over each term key is -1 on the
    terms that sigma negates and +1 on the rest. The orientation check and
    the 14 term checks compare cached per-sigma values
    (:func:`_permuted_terms`) with cached per-eps values
    (:func:`_sign_flips`) on every call, independently of the symmetry
    search's sign table. Any other matrix, including a plain ``Matrix``
    with signed permutation entries, is checked densely.
    """
    cp = default_cross()
    labelled = isinstance(r, SignedPermutation)
    if ((len(r.sigma),) * 2 if labelled else (r.nrows, r.ncols)) != (8, 8):
        raise FrameNotAdmissible("frame matrix must be 8x8")
    if labelled:
        sgn_sigma, needed = _permuted_terms(r.sigma)
        sgn_eps, flips = _sign_flips(r.eps)
        if sgn_sigma * sgn_eps != 1:
            raise FrameNotAdmissible("frame matrix must preserve orientation (det = +1)")
        if flips != needed:
            raise FrameNotAdmissible("frame matrix does not preserve the form")
        return
    if r.transpose() @ r != Matrix.identity(8):
        raise FrameNotAdmissible("frame matrix is not orthogonal")
    if det(r) != 1:
        raise FrameNotAdmissible("frame matrix must preserve orientation (det = +1)")
    if pullback(cp.phi, r) != cp.phi:
        raise FrameNotAdmissible("frame matrix does not preserve the form")


@cache
def _span_stable_sigma(sigma: tuple[int, ...]) -> bool:
    """Span stability for every signed permutation frame f_i = eps_i e_sigma(i)
    with the permutation sigma; the signs eps_i cannot change the verdict.
    A basis product that is not one signed unit raises or gives False."""
    support = _span_support()
    products = default_cross().products
    a = sigma[0]
    mus = set()
    for lam in range(1, 8):
        b = sigma[lam]
        # (row, sign) of column sigma(i) of K_lam, the J'_lam of the
        # frame f_i = e_sigma(i)
        image: list[tuple[int, int]] = [(0, 0)] * 8
        image[a] = (b, 1)
        image[b] = (a, -1)
        for i in range(1, 8):
            if i != lam:
                c = sigma[i]
                (image[c],) = products[(a, b, c)]
        # K_lam = t J_mu with (mu, t) read off column 0, since J_mu e_0 = e_mu;
        # column 0 matches only if t * t = 1, and then every sign must be +/-1
        mu, t = image[0]
        for col, (row, sign) in enumerate(image):
            if support.get((row, col)) != (mu, sign * t):
                return False
        mus.add(mu)
    return len(mus) == 7


def _span_stable_dense(r: Matrix) -> bool:
    """Span stability for any admissible frame, from the rotated family."""
    projections = [span_projection(m) for m in rotated_acs_family(r)]
    if not all(residual.is_zero() for _, residual in projections):
        return False
    # containment plus equal dimension gives span equality
    return rank([coeffs for coeffs, _ in projections]) == 7


def span_stability(r: Matrix) -> bool:
    """Whether the J-span from the rotated frame equals the standard J-span.

    R must be an exact orthogonal matrix with determinant +1 that preserves
    the Cayley form (:class:`FrameNotAdmissible` otherwise), e.g. one
    returned by the stabilizer module's symmetry search.

    The route is chosen by type, as in :func:`check_frame`. Any R that is
    not a :class:`SignedPermutation` takes the dense route: build the
    rotated family J'_1..J'_7 as matrices, project each onto span{J}
    (:func:`span_projection`), and require zero residuals and coefficient
    rows of rank 7. A :class:`SignedPermutation` R, f_i = eps_i
    e_sigma(i), takes the label route on its ``sigma`` and never builds its
    rows.
    P is trilinear, so J'_lam e_sigma(i) = eps_i P(f_0, f_lam, f_i) =
    eps_0 eps_lam P(e_sigma(0), e_sigma(lam), e_sigma(i)), and the pair
    f_0 -> f_lam, f_lam -> -f_0 carries the same factor: J'_lam =
    eps_0 eps_lam K_lam(sigma), where K_lam(sigma) is the J'_lam of the
    unsigned frame e_sigma(i). A +/-1 scale on each generator cannot change
    a span, so the verdict depends on sigma alone and is looked up once per
    permutation (1344 times for the 21504 symmetries). Each K_lam is a
    signed permutation matrix built from 8 integer lookups: e_sigma(0) ->
    e_sigma(lam), e_sigma(lam) -> -e_sigma(0), and the rest a signed unit
    read off :attr:`CrossProduct.products`, which the octonion unit table
    reads too. The J's are signed permutation matrices with disjoint
    supports that cover the off-diagonal, so such a matrix lies in
    span{J} exactly when it equals +/-J_mu, with mu read off column 0, and
    the seven coefficient rows +/-e_mu have rank 7 exactly when the seven
    mu are distinct. Both routes decide the same fact exactly, and
    check_frame runs in full on every frame first.
    """
    check_frame(r)
    if isinstance(r, SignedPermutation):
        return _span_stable_sigma(r.sigma)
    return _span_stable_dense(r)
