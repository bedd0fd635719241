"""Exact rational linear algebra on small dense spaces.

Every value is an arbitrary-precision rational (``fractions.Fraction``);
there is no floating point anywhere in this package. Vectors and matrices
are immutable and all operations are pure functions, so everything here is
safe to share across threads.

Every elimination (rank, span membership, reduced echelon form and kernel
bases, determinants, inverses) runs fraction-free over the integers after
clearing denominators, through one step, ``_eliminate``. Reduced echelon
forms, determinants and inverses are unique, so every output basis is
deterministic.
"""

from __future__ import annotations

import re
from bisect import bisect
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
        raise ValueError(f"malformed rational literal: {_excerpt(text)}")
    den = m.group(2)
    if den is not None and int(den) == 0:
        raise ValueError(f"zero denominator in rational literal: {_excerpt(text)}")
    return Fraction(int(m.group(1)), 1 if den is None else int(den))


def clear_denominators(entries: Sequence[tuple[object, Scalarish]]) -> tuple[int, list[tuple]]:
    """(d, [(k, d * c), ...]) for entries (k, c), d the lcm of the
    denominators, so every scaled value is an int."""
    d = lcm(*[c.denominator for _, c in entries])
    return d, [(k, c.numerator * (d // c.denominator)) for k, c in entries]


def _excerpt(text: str) -> str:
    """``repr`` of the text, cut to 40 characters so errors stay short."""
    return repr(text) if len(text) <= 40 else f"{text[:40]!r}... ({len(text)} chars)"


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
        """The inverse, read off the reduced echelon form of ``[self | I]``."""
        if self.nrows != self.ncols:
            raise ValueError("inverse of a non-square matrix")
        n = self.nrows
        aug = [row + tuple(int(i == j) for j in range(n)) for i, row in enumerate(self.rows)]
        reduced, pivots = rref(aug, 2 * n)
        if pivots != list(range(n)):
            raise ValueError("matrix is singular")
        return Matrix(row[n:] for row in reduced)

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
                    try:
                        row.append(parse_rational(c))
                    except ValueError as exc:
                        raise ValueError(f"matrix entry ({i}, {j}): {exc}") from exc
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


def _integer_row(row: RowLike) -> tuple[list[int], int, int]:
    """The row as coprime integers ``ints``, with ``ints = row * num / den``."""
    comps = row.comps if isinstance(row, Vector) else row
    num = lcm(*(c.denominator for c in comps))
    ints = [c.numerator * (num // c.denominator) for c in comps]
    den = gcd(*ints)
    if den > 1:
        ints = [x // den for x in ints]
    return ints, num, den


def _eliminate(
    row: list[int], echelon: Sequence[tuple[int, list[int]]]
) -> tuple[list[int], int, int]:
    """The module's one elimination step, fraction-free over the integers.

    Clears ``row`` at each echelon row's pivot as ``(pv*row - rv*er) / gcd``
    (Bareiss), and returns it with ``s`` and ``t`` such that it equals
    ``(s/t) * row`` plus a combination of the echelon rows.
    """
    s = t = 1
    for pivot, er in echelon:
        rv = row[pivot]
        if rv:
            pv = er[pivot]
            row = [pv * a - rv * b for a, b in zip(row, er)]
            g = gcd(*row)
            if g > 1:
                row = [x // g for x in row]
            s *= pv
            t *= g
    return row, s, t


class RowSpan:
    """Incrementally echelonized row span, fraction-free over the integers.

    Supports fast exact membership tests; used for rank, span equality,
    repeated span-containment queries, ``det`` and ``rref``.
    """

    __slots__ = ("_rows",)

    def __init__(self, rows: Iterable[RowLike] = ()):
        # (pivot column, coprime row with a positive pivot entry), by pivot
        self._rows: list[tuple[int, list[int]]] = []
        for r in rows:
            self.add(r)

    def _insert(self, row: RowLike) -> tuple[int, int] | None:
        """Echelonize ``row`` into the span; None when the span held it already.

        Otherwise ``(p, q)``: the determinant of n rows of length n is the
        product of the fractions ``p/q`` of their n insertions, in order.
        """
        ints, num, den = _integer_row(row)
        reduced, s, t = _eliminate(ints, self._rows)
        pivot = next((i for i, x in enumerate(reduced) if x), None)
        if pivot is None:
            return None
        lead = reduced[pivot]
        if lead < 0:
            reduced = [-x for x in reduced]
        pos = bisect(self._rows, pivot, key=lambda pr: pr[0])
        self._rows.insert(pos, (pivot, reduced))
        # moving the new row above the rows with later pivots is one swap each
        if (len(self._rows) - 1 - pos) % 2:
            lead = -lead
        return lead * t * den, s * num

    def add(self, row: RowLike) -> bool:
        """Insert a row; returns True when it enlarged the span."""
        return self._insert(row) is not None

    def contains(self, row: RowLike) -> bool:
        return not any(_eliminate(_integer_row(row)[0], self._rows)[0])

    @property
    def dim(self) -> int:
        return len(self._rows)


def det(rows: Union[Matrix, Sequence[RowLike]]) -> Fraction:
    """Exact determinant, from the row insertions into a ``RowSpan``."""
    mat = rows.rows if isinstance(rows, Matrix) else rows
    n = len(mat)
    if any(len(r) != n for r in mat):
        raise ValueError("determinant of a non-square matrix")
    span = RowSpan()
    p = q = 1
    for r in mat:
        pq = span._insert(r)
        if pq is None:
            return F0
        p, q = p * pq[0], q * pq[1]
    return Fraction(p, q)


def gram_det(vectors: Sequence[Vector]) -> Fraction:
    """Determinant of the pairwise dot-product matrix of 1..8 vectors."""
    if not 1 <= len(vectors) <= 8:
        raise ValueError("gram_det takes between 1 and 8 vectors")
    return det([[u.dot(v) for v in vectors] for u in vectors])


def rref(rows: Sequence[RowLike], ncols: int) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form; returns (nonzero rows, pivot columns)."""
    span = RowSpan()
    for r in rows:
        if len(r) != ncols:
            raise ValueError("rows must all have the stated length")
        span._insert(r)
    echelon = span._rows
    # clear each echelon row at the later pivots, from the last row up
    for k in range(len(echelon) - 1, -1, -1):
        pivot, row = echelon[k]
        echelon[k] = (pivot, _eliminate(row, echelon[k + 1:])[0])
    reduced = [[Fraction(x, row[p]) if x else F0 for x in row] for p, row in echelon]
    return reduced, [p for p, _ in echelon]


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
