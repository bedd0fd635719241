"""Exact rational linear algebra on small dense spaces.

Every value is an arbitrary-precision rational (``fractions.Fraction``);
there is no floating point anywhere in this package. Vectors and matrices
are immutable and all operations are pure functions, so everything here is
safe to share across threads.

Rank and kernel computations use Gaussian elimination with first-nonzero
pivoting and lowest-row-index tie-breaking, which makes every output basis
deterministic. Rank-only queries run fraction-free over integers after
clearing denominators.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import cache
from math import gcd, lcm
from typing import Iterable, Iterator, Sequence, Union

Scalarish = Union[int, Fraction]

F0 = Fraction(0)
F1 = Fraction(1)

_RATIONAL_RE = re.compile(r"(-?\d+)(?:/(\d+))?$", re.ASCII)


def parse_rational(text: str) -> Fraction:
    """Parse ``p`` or ``p/q`` with an optional leading minus.

    Anything else (decimals, signs on the denominator, a zero denominator)
    is rejected with ``ValueError``.
    """
    m = _RATIONAL_RE.match(text.strip())
    if m is None:
        raise ValueError(f"malformed rational literal: {text!r}")
    den = m.group(2)
    if den is not None and int(den) == 0:
        raise ValueError(f"zero denominator in rational literal: {text!r}")
    return Fraction(int(m.group(1)), 1 if den is None else int(den))


def _exact(c: Scalarish) -> Scalarish:
    """Keep ints and Fractions as they are; reject floats, coerce the rest.

    Plain ints mix exactly with Fractions under all arithmetic here, and
    keeping them avoids Fraction overhead on the ubiquitous 0/+1/-1 data.
    """
    if type(c) is int or type(c) is Fraction:
        return c
    if isinstance(c, bool):
        return int(c)
    if isinstance(c, float):
        raise TypeError("floating point values are not allowed in exact arithmetic")
    if isinstance(c, int):
        return int(c)
    return Fraction(c)


class Vector:
    """Immutable vector of exact rationals; sums, differences, negation and
    scalar multiples keep the class of ``self`` (an ``Octonion`` stays one)."""

    __slots__ = ("comps",)

    def __init__(self, comps: Iterable[Scalarish]):
        self.comps = tuple(_exact(c) for c in comps)

    @classmethod
    def zero(cls, n: int) -> "Vector":
        return cls([0] * n)

    @classmethod
    def basis(cls, n: int, i: int) -> "Vector":
        return cls([1 if k == i else 0 for k in range(n)])

    def __len__(self) -> int:
        return len(self.comps)

    def __iter__(self) -> Iterator[Fraction]:
        return iter(self.comps)

    def __getitem__(self, i: int) -> Fraction:
        return self.comps[i]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Vector) and self.comps == other.comps

    def __hash__(self) -> int:
        return hash(self.comps)

    def __add__(self, other: "Vector") -> "Vector":
        return type(self)(a + b for a, b in zip(self.comps, other.comps, strict=True))

    def __sub__(self, other: "Vector") -> "Vector":
        return type(self)(a - b for a, b in zip(self.comps, other.comps, strict=True))

    def __neg__(self) -> "Vector":
        return type(self)(-a for a in self.comps)

    def __mul__(self, scalar: Scalarish) -> "Vector":
        if isinstance(scalar, (int, Fraction)):
            return type(self)(a * scalar for a in self.comps)
        return NotImplemented

    __rmul__ = __mul__

    def dot(self, other: "Vector") -> Fraction:
        return sum(a * b for a, b in zip(self.comps, other.comps, strict=True))

    def is_zero(self) -> bool:
        return not any(self.comps)

    def nonzero(self) -> tuple[tuple[int, Fraction], ...]:
        return tuple((i, c) for i, c in enumerate(self.comps) if c)

    def __repr__(self) -> str:
        return f"Vector([{', '.join(str(c) for c in self.comps)}])"

    def __str__(self) -> str:
        return ",".join(str(c) for c in self.comps)


def parse_vector(text: str, dim: int | None = None) -> Vector:
    """Parse a comma-separated list of rational literals."""
    parts = text.split(",")
    if dim is not None and len(parts) != dim:
        raise ValueError(f"expected {dim} components, got {len(parts)}")
    return Vector(parse_rational(p) for p in parts)


class Matrix:
    """Immutable rectangular matrix of exact rationals."""

    __slots__ = ("rows",)

    def __init__(self, rows: Iterable[Iterable[Scalarish]]):
        self.rows = tuple(tuple(_exact(c) for c in row) for row in rows)
        if self.rows:
            width = len(self.rows[0])
            if any(len(r) != width for r in self.rows):
                raise ValueError("ragged rows")

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def zero(cls, nrows: int, ncols: int) -> "Matrix":
        return cls([[0] * ncols for _ in range(nrows)])

    @classmethod
    def from_columns(cls, cols: Sequence[Sequence[Scalarish]]) -> "Matrix":
        return cls(zip(*cols))

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0]) if self.rows else 0

    def __getitem__(self, i: int) -> tuple[Fraction, ...]:
        return self.rows[i]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Matrix) and self.rows == other.rows

    def __hash__(self) -> int:
        return hash(self.rows)

    def __add__(self, other: "Matrix") -> "Matrix":
        return Matrix(
            tuple(a + b for a, b in zip(ra, rb))
            for ra, rb in zip(self.rows, other.rows, strict=True)
        )

    def __sub__(self, other: "Matrix") -> "Matrix":
        return Matrix(
            tuple(a - b for a, b in zip(ra, rb))
            for ra, rb in zip(self.rows, other.rows, strict=True)
        )

    def __neg__(self) -> "Matrix":
        return Matrix(tuple(-a for a in r) for r in self.rows)

    def __mul__(self, scalar: Scalarish) -> "Matrix":
        if isinstance(scalar, (int, Fraction)):
            return Matrix(tuple(a * scalar for a in r) for r in self.rows)
        return NotImplemented

    __rmul__ = __mul__

    def __matmul__(self, other: "Matrix | Vector") -> "Matrix | Vector":
        if isinstance(other, Vector):
            if len(other) != self.ncols:
                raise ValueError("dimension mismatch")
            return Vector(
                sum(a * b for a, b in zip(row, other.comps) if a)
                for row in self.rows
            )
        if isinstance(other, Matrix):
            if self.ncols != other.nrows:
                raise ValueError("dimension mismatch")
            out = [[0] * other.ncols for _ in range(self.nrows)]
            for i, row in enumerate(self.rows):
                acc = out[i]
                for k, a in enumerate(row):
                    if not a:
                        continue
                    brow = other.rows[k]
                    for j, b in enumerate(brow):
                        if b:
                            acc[j] += a * b
            return Matrix(out)
        return NotImplemented

    def transpose(self) -> "Matrix":
        return Matrix(zip(*self.rows))

    def trace(self) -> Fraction:
        return sum(self.rows[i][i] for i in range(min(self.nrows, self.ncols)))

    def column(self, j: int) -> Vector:
        return Vector(r[j] for r in self.rows)

    def is_antisymmetric(self) -> bool:
        return self.nrows == self.ncols and all(
            self.rows[i][j] == -self.rows[j][i]
            for i in range(self.nrows)
            for j in range(i, self.ncols)
        )

    def is_zero(self) -> bool:
        return all(not c for r in self.rows for c in r)

    def flatten(self) -> Vector:
        return Vector(c for r in self.rows for c in r)

    def commutator(self, other: "Matrix") -> "Matrix":
        return (self @ other) - (other @ self)

    def inverse(self) -> "Matrix":
        if self.nrows != self.ncols:
            raise ValueError("inverse of a non-square matrix")
        n = self.nrows
        aug = [[Fraction(c) for c in row] + [F1 if i == j else F0 for j in range(n)]
               for i, row in enumerate(self.rows)]
        for col in range(n):
            piv = next((i for i in range(col, n) if aug[i][col]), None)
            if piv is None:
                raise ValueError("matrix is singular")
            aug[col], aug[piv] = aug[piv], aug[col]
            pv = aug[col][col]
            aug[col] = [x / pv for x in aug[col]]
            for i in range(n):
                if i != col and aug[i][col]:
                    f = aug[i][col]
                    aug[i] = [x - f * y for x, y in zip(aug[i], aug[col])]
        return Matrix(row[n:] for row in aug)

    def __repr__(self) -> str:
        return f"Matrix({[[str(c) for c in r] for r in self.rows]})"

    def to_json_obj(self) -> list[list[str]]:
        return [[str(c) for c in r] for r in self.rows]

    @classmethod
    def from_json_obj(cls, obj: object, shape: tuple[int, int] | None = None) -> "Matrix":
        if not isinstance(obj, list) or not all(isinstance(r, list) for r in obj):
            raise ValueError("matrix JSON must be an array of arrays")
        rows = []
        for i, r in enumerate(obj):
            row = []
            for j, c in enumerate(r):
                if isinstance(c, str):
                    row.append(parse_rational(c))
                elif isinstance(c, int) and not isinstance(c, bool):
                    row.append(Fraction(c))
                else:
                    raise ValueError(f"matrix entry ({i}, {j}) must be a rational string,"
                                     f" got {type(c).__name__}")
            rows.append(row)
        m = cls(rows)
        if shape is not None and (m.nrows, m.ncols) != shape:
            raise ValueError(f"expected a {shape[0]}x{shape[1]} matrix, got {m.nrows}x{m.ncols}")
        return m


@cache
def _unit_rows(n: int) -> dict[tuple[int, int], tuple[int, ...]]:
    """The 2n rows of length n with a single +/-1, keyed by (column, sign)."""
    return {
        (j, s): tuple(s if k == j else 0 for k in range(n))
        for j in range(n)
        for s in (1, -1)
    }


class SignedPermutation(Matrix):
    """The signed permutation matrix with column i equal to eps[i] e_sigma[i].

    The labels ``sigma`` and ``eps`` are tuples that callers may share, and
    ``cols`` pairs them as (sigma(i), eps_i). Every construction checks them.
    The rows are shared unit-row tuples built on first read, so the matrix
    equals, hashes and serializes like the ``Matrix`` with the same entries,
    while callers that read only the labels never build them.
    """

    __slots__ = ("sigma", "eps", "_rows")

    def __init__(self, sigma: Iterable[int], eps: Iterable[int]):
        self.sigma, self.eps = tuple(sigma), tuple(eps)
        if not (len(self.eps) == len(self.sigma) and _is_permutation(self.sigma)
                and _is_signs(self.eps)):
            raise ValueError("columns must be distinct signed units")
        self._rows = None

    @property
    def cols(self) -> tuple[tuple[int, int], ...]:
        return tuple(zip(self.sigma, self.eps))

    @property
    def rows(self) -> tuple[tuple[int, ...], ...]:
        if self._rows is None:
            units = _unit_rows(len(self.sigma))
            rows: list = [None] * len(self.sigma)
            for j, (i, s) in enumerate(zip(self.sigma, self.eps)):
                rows[i] = units[(j, s)]
            self._rows = tuple(rows)
        return self._rows


# the label checks, memoized per sigma and per eps
_is_permutation = cache(lambda sigma: sorted(sigma) == list(range(len(sigma))))
_is_signs = cache(lambda eps: all(e == 1 or e == -1 for e in eps))


RowLike = Union[Vector, Sequence[Scalarish]]


def _row_fractions(row: RowLike) -> list[Fraction]:
    comps = row.comps if isinstance(row, Vector) else row
    return [c if isinstance(c, Fraction) else Fraction(c) for c in comps]


def det(rows: Union[Matrix, Sequence[RowLike]]) -> Fraction:
    """Exact determinant via Gaussian elimination."""
    mat = [_row_fractions(r) for r in (rows.rows if isinstance(rows, Matrix) else rows)]
    n = len(mat)
    if any(len(r) != n for r in mat):
        raise ValueError("determinant of a non-square matrix")
    sign = 1
    for col in range(n):
        piv = next((i for i in range(col, n) if mat[i][col]), None)
        if piv is None:
            return F0
        if piv != col:
            mat[col], mat[piv] = mat[piv], mat[col]
            sign = -sign
        pv = mat[col][col]
        for i in range(col + 1, n):
            if mat[i][col]:
                f = mat[i][col] / pv
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[col])]
    result = Fraction(sign)
    for i in range(n):
        result *= mat[i][i]
    return result


def gram_det(vectors: Sequence[Vector]) -> Fraction:
    """Determinant of the pairwise dot-product matrix of 1..8 vectors."""
    if not 1 <= len(vectors) <= 8:
        raise ValueError("gram_det takes between 1 and 8 vectors")
    return det([[u.dot(v) for v in vectors] for u in vectors])


def rref(rows: Sequence[RowLike], ncols: int) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form; returns (nonzero rows, pivot columns)."""
    mat = [_row_fractions(r) for r in rows]
    for r in mat:
        if len(r) != ncols:
            raise ValueError("rows must all have the stated length")
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        pv = mat[r][c]
        mat[r] = [x / pv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c]:
                f = mat[i][c]
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return mat[:r], pivots


def kernel_basis(rows: Sequence[RowLike], ncols: int | None = None) -> list[Vector]:
    """Exact basis of the right null space of the given rows.

    An empty row list yields the full space, in which case ``ncols`` is
    required. The basis is canonical: it comes from the reduced echelon
    form with one vector per free column, in increasing column order.
    """
    rows = list(rows)
    if ncols is None:
        if not rows:
            raise ValueError("ncols is required when no rows are given")
        ncols = len(rows[0].comps if isinstance(rows[0], Vector) else rows[0])
    reduced, pivots = rref(rows, ncols)
    pivot_set = set(pivots)
    basis = []
    for f in range(ncols):
        if f in pivot_set:
            continue
        comps = [F0] * ncols
        comps[f] = F1
        for k, p in enumerate(pivots):
            comps[p] = -reduced[k][f]
        basis.append(Vector(comps))
    return basis


def _integer_row(row: RowLike) -> list[int]:
    comps = row.comps if isinstance(row, Vector) else row
    scale = 1
    for c in comps:
        d = c.denominator
        if d != 1:
            scale = lcm(scale, d)
    ints = [int(c * scale) for c in comps] if scale != 1 else [int(c) for c in comps]
    g = 0
    for x in ints:
        g = gcd(g, x)
    if g > 1:
        ints = [x // g for x in ints]
    return ints


class RowSpan:
    """Incrementally echelonized row span, fraction-free over the integers.

    Supports fast exact membership tests; used for rank, span equality and
    repeated span-containment queries.
    """

    __slots__ = ("_rows",)

    def __init__(self, rows: Iterable[RowLike] = ()):
        self._rows: list[tuple[int, list[int]]] = []
        for r in rows:
            self.add(r)

    def _reduce(self, row: list[int]) -> list[int]:
        for pivot, er in self._rows:
            if row[pivot]:
                pv = er[pivot]
                rv = row[pivot]
                row = [pv * a - rv * b for a, b in zip(row, er)]
                g = 0
                for x in row:
                    g = gcd(g, x)
                if g > 1:
                    row = [x // g for x in row]
        return row

    def add(self, row: RowLike) -> bool:
        """Insert a row; returns True when it enlarged the span."""
        reduced = self._reduce(_integer_row(row))
        pivot = next((i for i, x in enumerate(reduced) if x), None)
        if pivot is None:
            return False
        if reduced[pivot] < 0:
            reduced = [-x for x in reduced]
        self._rows.append((pivot, reduced))
        self._rows.sort(key=lambda pr: pr[0])
        return True

    def contains(self, row: RowLike) -> bool:
        return not any(self._reduce(_integer_row(row)))

    @property
    def dim(self) -> int:
        return len(self._rows)


def rank(rows: Iterable[RowLike]) -> int:
    return RowSpan(rows).dim


def span_contains(rows: Iterable[RowLike], candidate: RowLike) -> bool:
    return RowSpan(rows).contains(candidate)


def subspace_equal(a: Iterable[RowLike], b: Iterable[RowLike]) -> bool:
    """True iff the two row lists span the same subspace."""
    b = list(b)
    sa = RowSpan(a)
    sb = RowSpan(b)
    return sa.dim == sb.dim and all(sa.contains(r) for r in b)
