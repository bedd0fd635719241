"""Exact linear algebra: parsing, elimination, kernels, spans."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spin7.linalg import (
    Matrix,
    RowSpan,
    Vector,
    det,
    gram_det,
    kernel_basis,
    parse_rational,
    parse_vector,
    rank,
    rref,
    span_contains,
    subspace_equal,
)


class TestParseRational:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("3", Fraction(3)),
            ("-3", Fraction(-3)),
            ("3/5", Fraction(3, 5)),
            ("-3/5", Fraction(-3, 5)),
            (" 12/8 ", Fraction(3, 2)),
            ("0", Fraction(0)),
        ],
    )
    def test_valid(self, text, expected):
        assert parse_rational(text) == expected

    @pytest.mark.parametrize("text", ["", "1.5", "1/0", "3/-5", "+3", "a", "1/2/3"])
    def test_invalid(self, text):
        with pytest.raises(ValueError):
            parse_rational(text)

    def test_vector_roundtrip(self):
        v = parse_vector("0,1,-2/3,0,0,0,0,5", dim=8)
        assert v[2] == Fraction(-2, 3)
        assert parse_vector(str(v)) == v

    def test_no_floats_allowed(self):
        with pytest.raises(TypeError):
            Vector([0.5] * 8)
        with pytest.raises(TypeError):
            Matrix([[1.0]])


class TestVectorMatrix:
    def test_vector_arithmetic(self):
        u = Vector([1, 2, 3])
        v = Vector([0, -1, 1])
        assert u + v == Vector([1, 1, 4])
        assert u - v == Vector([1, 3, 2])
        assert -u == Vector([-1, -2, -3])
        assert u * Fraction(1, 2) == Vector([Fraction(1, 2), 1, Fraction(3, 2)])
        assert u.dot(v) == 1
        assert Vector.basis(3, 1).nonzero() == ((1, 1),)

    def test_matrix_product_and_transpose(self):
        a = Matrix([[1, 2], [3, 4]])
        b = Matrix([[0, 1], [1, 0]])
        assert a @ b == Matrix([[2, 1], [4, 3]])
        assert a @ Vector([1, 1]) == Vector([3, 7])
        assert a.transpose() == Matrix([[1, 3], [2, 4]])
        assert a.trace() == 5

    def test_inverse(self):
        m = Matrix([[2, 1], [1, 1]])
        assert m.inverse() @ m == Matrix.identity(2)
        with pytest.raises(ValueError):
            Matrix([[1, 1], [1, 1]]).inverse()

    def test_antisymmetry_flag(self):
        assert Matrix([[0, 1], [-1, 0]]).is_antisymmetric()
        assert not Matrix([[0, 1], [1, 0]]).is_antisymmetric()

    def test_commutator(self):
        a = Matrix([[0, 1], [0, 0]])
        b = Matrix([[0, 0], [1, 0]])
        assert a.commutator(b) == Matrix([[1, 0], [0, -1]])

    def test_json_roundtrip(self):
        m = Matrix([[Fraction(1, 2), -1], [0, 3]])
        assert Matrix.from_json_obj(m.to_json_obj()) == m
        with pytest.raises(ValueError):
            Matrix.from_json_obj([["0.5"]])
        with pytest.raises(ValueError):
            Matrix.from_json_obj([["1"]], shape=(8, 8))


def _rational_rows(rng: random.Random, nrows: int, ncols: int) -> list[list[Fraction]]:
    """Seeded rational rows, about a third of the entries zero."""
    return [
        [
            Fraction(rng.randint(-4, 4), rng.randint(1, 4)) if rng.random() < 0.7 else Fraction(0)
            for _ in range(ncols)
        ]
        for _ in range(nrows)
    ]


def _degenerate(rng: random.Random, nrows: int, ncols: int) -> list[list[list[Fraction]]]:
    """Inputs with a zero row, a duplicated row, a negative leading entry, and all zeros."""
    base = _rational_rows(rng, nrows, ncols)
    zero_row = [list(r) for r in base]
    zero_row[rng.randrange(nrows)] = [Fraction(0)] * ncols
    duplicate = [list(r) for r in base]
    if nrows > 1:
        duplicate[-1] = list(duplicate[0])
    negative = [list(r) for r in base]
    negative[0][0] = -abs(negative[0][0]) or Fraction(-3, 2)
    return [base, zero_row, duplicate, negative, [[Fraction(0)] * ncols for _ in range(nrows)]]


def _to_sympy(sympy, rows):
    return sympy.Matrix([[sympy.Rational(c.numerator, c.denominator) for c in r] for r in rows])


def _from_sympy(x) -> Fraction:
    return Fraction(int(x.p), int(x.q))


class TestDet:
    def test_known_values(self):
        assert det([[1, 2], [3, 4]]) == -2
        assert det(Matrix.identity(5)) == 1
        assert det([[0, 1], [1, 0]]) == -1

    def test_singular(self):
        assert det([[1, 2], [2, 4]]) == 0

    def test_non_square(self):
        with pytest.raises(ValueError, match="non-square"):
            det([[1, 2]])

    def test_matches_sympy(self):
        sympy = pytest.importorskip("sympy")
        rng = random.Random(17)
        for n in range(1, 9):
            for rows in _degenerate(rng, n, n) + [_rational_rows(rng, n, n) for _ in range(3)]:
                ours = det(rows)
                assert type(ours) is Fraction
                assert ours == _from_sympy(_to_sympy(sympy, rows).det())
                assert det(Matrix(rows)) == ours

    def test_inverse_matches_sympy(self):
        sympy = pytest.importorskip("sympy")
        rng = random.Random(19)
        singular = 0
        for n in range(1, 7):
            for rows in _degenerate(rng, n, n) + [_rational_rows(rng, n, n) for _ in range(3)]:
                theirs = _to_sympy(sympy, rows)
                if theirs.det() == 0:
                    singular += 1
                    with pytest.raises(ValueError, match="matrix is singular"):
                        Matrix(rows).inverse()
                    continue
                inv = Matrix(rows).inverse()
                assert inv.rows == tuple(
                    tuple(_from_sympy(x) for x in theirs.inv().row(i)) for i in range(n)
                )
        assert singular >= 12


class TestGramDet:
    E = [Vector.basis(8, i) for i in range(8)]

    def test_orthonormal_triple(self):
        assert gram_det([self.E[1], self.E[2], self.E[3]]) == 1

    def test_repeated_vector(self):
        assert gram_det([self.E[1], self.E[1], self.E[2]]) == 0

    def test_skewed_triple(self):
        # oracle: det [[2,1,0],[1,1,0],[0,0,1]] = 1
        assert gram_det([self.E[1] + self.E[2], self.E[2], self.E[3]]) == 1

    def test_permutation_invariance(self):
        rng = random.Random(3)
        vecs = [
            Vector(Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(8))
            for _ in range(3)
        ]
        base = gram_det(vecs)
        for perm in [(1, 0, 2), (2, 1, 0), (1, 2, 0)]:
            assert gram_det([vecs[i] for i in perm]) == base

    def test_arity_bounds(self):
        with pytest.raises(ValueError):
            gram_det([])


class TestKernel:
    def test_empty_rows_full_space(self):
        basis = kernel_basis([], ncols=3)
        assert len(basis) == 3
        assert basis == [Vector.basis(3, i) for i in range(3)]

    def test_coordinate_planes(self):
        basis = kernel_basis([Vector([1, 0, 0]), Vector([0, 1, 0])])
        assert basis == [Vector([0, 0, 1])]

    def test_rank_nullity(self):
        rng = random.Random(11)
        for _ in range(25):
            nrows, ncols = rng.randint(1, 6), rng.randint(1, 6)
            rows = [
                Vector(rng.randint(-2, 2) for _ in range(ncols)) for _ in range(nrows)
            ]
            basis = kernel_basis(rows, ncols)
            assert rank(rows) + len(basis) == ncols
            for v in basis:
                for row in rows:
                    assert row.dot(v) == 0

    def test_matches_sympy_nullity(self):
        sympy = pytest.importorskip("sympy")
        rng = random.Random(5)
        for _ in range(10):
            rows = [[rng.randint(-2, 2) for _ in range(5)] for _ in range(4)]
            ours = len(kernel_basis([Vector(r) for r in rows], 5))
            theirs = len(sympy.Matrix(rows).nullspace())
            assert ours == theirs
        # exact oracle on rational rows: reduced rows, pivots and kernel vectors
        rng = random.Random(23)
        for _ in range(12):
            nrows, ncols = rng.randint(1, 7), rng.randint(1, 8)
            for rows in _degenerate(rng, nrows, ncols):
                theirs, their_pivots = _to_sympy(sympy, rows).rref()
                reduced, pivots = rref(rows, ncols)
                assert pivots == list(their_pivots)
                assert reduced == [
                    [_from_sympy(x) for x in theirs.row(i)] for i in range(len(pivots))
                ]
                basis = kernel_basis([Vector(r) for r in rows], ncols)
                assert basis == [
                    Vector(_from_sympy(x) for x in v) for v in _to_sympy(sympy, rows).nullspace()
                ]

    def test_permuted_rows_same_span(self):
        rows = [Vector([1, 2, 3, 4]), Vector([0, 1, 0, 1]), Vector([1, 1, 1, 1])]
        k1 = kernel_basis(rows, 4)
        k2 = kernel_basis(rows[::-1], 4)
        assert subspace_equal(k1, k2)


class TestSpans:
    def test_scaling(self):
        assert subspace_equal([Vector([1, 0])], [Vector([2, 0])])

    def test_distinct(self):
        assert not subspace_equal([Vector([1, 0])], [Vector([0, 1])])

    def test_containment(self):
        rows = [Vector([1, 0, 0]), Vector([0, 1, 0])]
        assert span_contains(rows, Vector([2, -3, 0]))
        assert not span_contains(rows, Vector([0, 0, 1]))

    def test_rowspan_with_fractions(self):
        span = RowSpan([Vector([Fraction(1, 2), Fraction(1, 3)])])
        assert span.dim == 1
        assert span.contains(Vector([3, 2]))

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(
            st.lists(st.integers(-3, 3), min_size=4, max_size=4),
            min_size=1,
            max_size=5,
        )
    )
    def test_rank_agrees_with_sympy(self, rows):
        sympy = pytest.importorskip("sympy")
        assert rank([Vector(r) for r in rows]) == sympy.Matrix(rows).rank()
