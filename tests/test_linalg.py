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


class TestDet:
    def test_known_values(self):
        assert det([[1, 2], [3, 4]]) == -2
        assert det(Matrix.identity(5)) == 1
        assert det([[0, 1], [1, 0]]) == -1

    def test_singular(self):
        assert det([[1, 2], [2, 4]]) == 0


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
