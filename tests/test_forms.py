"""Alternating forms: the 4-form, evaluation, Hodge star, wedge, text format."""

import random
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import QQ
from sympy.polys.matrices import DomainMatrix

from spin7.acs import FrameNotAdmissible, check_frame
from spin7.forms import (
    AltForm,
    FormParseError,
    cayley_form,
    parse_form,
    print_form,
    pullback,
    signed_coefficients,
    sort_with_sign,
)
from spin7.linalg import Matrix, Vector
from spin7.stabilizers import spin7

from test_cross import fractional_form

E = [Vector.basis(8, i) for i in range(8)]


def star_sign_oracle(key):
    """Independent complement-and-parity computation for a single monomial."""
    comp = tuple(i for i in range(8) if i not in key)
    inversions = sum(1 for a in key for b in comp if b < a)
    return comp, (-1) ** inversions


class TestCayleyForm:
    def test_expected_coefficients(self):
        phi = cayley_form()
        assert phi.coefficient((0, 1, 4, 5)) == 1
        assert phi.coefficient((0, 2, 5, 7)) == -1
        assert phi.coefficient((0, 1, 2, 4)) == 0

    def test_term_count_and_units(self):
        phi = cayley_form()
        assert len(phi.terms) == 14
        assert all(c in (1, -1) for c in phi.terms.values())

    def test_self_dual_term_by_term(self):
        phi = cayley_form()
        starred = phi.star()
        for key, c in phi.terms.items():
            comp, sign = star_sign_oracle(key)
            assert starred.coefficient(comp) == sign * c
        assert starred == phi


class TestEvaluate:
    def test_basis_tuple(self):
        phi = cayley_form()
        assert phi.evaluate([E[0], E[1], E[4], E[5]]) == 1

    def test_swap_flips_sign(self):
        phi = cayley_form()
        assert phi.evaluate([E[1], E[0], E[4], E[5]]) == -1

    def test_repeated_argument(self):
        phi = cayley_form()
        assert phi.evaluate([E[0], E[0], E[4], E[5]]) == 0

    def test_full_basis_sweep(self):
        phi = cayley_form()
        for idx in product(range(8), repeat=4):
            expected = phi.coefficient_signed(idx)
            assert phi.evaluate([E[i] for i in idx]) == expected

    def test_dense_matches_expansion(self):
        # same value through the minor path and the sparse-expansion path
        phi = cayley_form()
        dense = [
            Vector([1, 2, 0, -1, 1, 0, 3, -2]),
            Vector([0, 1, 1, 1, 0, -1, 0, 2]),
            Vector([2, 0, -1, 0, 1, 1, 0, 0]),
            Vector([1, 1, 1, 0, 0, 0, -1, 1]),
        ]
        by_minors = phi.evaluate(dense)
        total = 0
        for idx in product(range(8), repeat=4):
            w = dense[0][idx[0]] * dense[1][idx[1]] * dense[2][idx[2]] * dense[3][idx[3]]
            if w:
                total += w * phi.coefficient_signed(idx)
        assert by_minors == total

    def test_multilinearity(self):
        phi = cayley_form()
        a = phi.evaluate([E[0] + 2 * E[2], E[1], E[4], E[5]])
        b = phi.evaluate([E[0], E[1], E[4], E[5]]) + 2 * phi.evaluate(
            [E[2], E[1], E[4], E[5]]
        )
        assert a == b


class TestHodge:
    def test_complementary_indices(self):
        f = AltForm(4, {(0, 1, 2, 3): 1})
        assert f.star() == AltForm(4, {(4, 5, 6, 7): 1})

    def test_volume_to_scalar(self):
        vol = AltForm(8, {tuple(range(8)): 1})
        assert vol.star() == AltForm(0, {(): 1})
        assert AltForm(0, {(): 1}).star() == vol

    def test_double_star_law(self):
        # star(star(f)) = (-1)^(k(8-k)) f: the identity on every even degree
        # (all this library uses), the negation on odd degrees
        import random
        from itertools import combinations

        rng = random.Random(4)
        for degree in range(9):
            all_keys = list(combinations(range(8), degree))
            rng.shuffle(all_keys)
            terms = {k: Fraction(rng.randint(-3, 3)) for k in all_keys[:4]}
            f = AltForm(degree, {k: v for k, v in terms.items() if v})
            sign = (-1) ** (degree * (8 - degree))
            assert f.star().star() == sign * f

    def test_involution_on_even_degrees(self):
        phi = cayley_form()
        assert phi.star().star() == phi
        two = AltForm(2, {(1, 5): Fraction(2, 3), (0, 7): -1})
        assert two.star().star() == two


def small_forms(degree):
    from itertools import combinations

    keys = list(combinations(range(8), degree))
    return st.dictionaries(
        st.sampled_from(keys),
        st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(bool),
        max_size=3,
    ).map(lambda terms: AltForm(degree, terms))


class TestWedge:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 3), st.integers(1, 3), st.data())
    def test_supercommutativity(self, k, l, data):
        f = data.draw(small_forms(k))
        g = data.draw(small_forms(l))
        assert f.wedge(g) == (-1) ** (k * l) * g.wedge(f)

    def test_square_of_two_form(self):
        f = AltForm(2, {(0, 1): 1, (2, 3): 1})
        assert f.wedge(f) == AltForm(4, {(0, 1, 2, 3): 2})

    def test_overlap_vanishes(self):
        f = AltForm(2, {(0, 1): 1})
        g = AltForm(2, {(1, 2): 1})
        assert f.wedge(g).is_zero()

    def test_evaluation_consistency(self):
        # wedge of coordinate 1-forms evaluates like the determinant pairing
        f = AltForm(1, {(0,): 1})
        g = AltForm(1, {(1,): 1})
        fg = f.wedge(g)
        assert fg.evaluate([E[0], E[1]]) == 1
        assert fg.evaluate([E[1], E[0]]) == -1


class TestPullback:
    def test_identity(self):
        phi = cayley_form()
        assert pullback(phi, Matrix.identity(8)) == phi

    def test_negated_frame(self):
        phi = cayley_form()
        assert pullback(phi, -Matrix.identity(8)) == phi

    def test_non_preserving_swap(self):
        phi = cayley_form()
        rows = [[0] * 8 for _ in range(8)]
        perm = [1, 0] + list(range(2, 8))
        for i in range(8):
            rows[perm[i]][i] = 1
        assert pullback(phi, Matrix(rows)) != phi


def as_sympy(x):
    """An int or Fraction as an element of sympy's rational field QQ."""
    return QQ(x.numerator, x.denominator)


def sympy_matrix(columns):
    """The 8 x n matrix over QQ with the given columns, as a DomainMatrix."""
    return DomainMatrix([[as_sympy(c[i]) for c in columns] for i in range(8)],
                        (8, len(columns)), QQ)


def sympy_value(f, columns, a=None):
    """sum_T c_T det(A[T, I]) by sympy's determinant, for A =
    sympy_matrix(columns) and I its k columns, or for A = a and I = columns
    (column indices) when a is given."""
    a, cols = (sympy_matrix(columns), list(range(f.degree))) if a is None else (a, list(columns))
    return sum((as_sympy(c) * (a.extract(list(key), cols).det() if key else 1)
                for key, c in f.terms.items()), QQ(0))


def dense_matrices(seed):
    """A non-orthogonal, a singular and a zero-column rational 8 x 8 matrix."""
    rng = random.Random(seed)

    def entry():
        return Fraction(rng.randint(-9, 9), rng.randint(1, 6))

    dense = [[entry() for _ in range(8)] for _ in range(8)]
    singular = [row[:7] + [row[1] - 3 * row[4]] for row in dense]
    zero_column = [row[:2] + [0] + row[3:] for row in dense]
    return [Matrix(dense), Matrix(singular), Matrix(zero_column)]


def degree_forms():
    """phi, a form with fractional coefficients, and forms of degree 0-3 and 8."""
    rng = random.Random(41)
    forms = [cayley_form(), fractional_form(), AltForm(0, {(): Fraction(-7, 3)}),
             AltForm(8, {tuple(range(8)): Fraction(5, 2)})]
    for k in (1, 2, 3):
        keys = rng.sample(list(combinations(range(8), k)), 6)
        forms.append(AltForm(k, {key: Fraction(rng.randint(-5, 5) or 1, rng.randint(1, 4))
                                 for key in keys}))
    return forms


FORM_IDS = ["phi", "fractional", "deg0", "deg8", "deg1", "deg2", "deg3"]


class TestMinorKernel:
    """``evaluate`` and ``pullback`` against sympy determinants."""

    @pytest.mark.parametrize("form", degree_forms(), ids=FORM_IDS)
    def test_evaluate_matches_sympy(self, form):
        for m in dense_matrices(7):
            columns = [m.column(j) for j in range(form.degree)]
            assert as_sympy(form.evaluate(columns)) == sympy_value(form, columns)

    @pytest.mark.parametrize("form", degree_forms(), ids=FORM_IDS)
    def test_pullback_matches_sympy(self, form):
        for m in dense_matrices(8):
            image, a = pullback(form, m), sympy_matrix([m.column(j) for j in range(8)])
            assert image.degree == form.degree
            for key in combinations(range(8), form.degree):
                assert as_sympy(image.coefficient(key)) == sympy_value(form, key, a)
            assert all(c for c in image.terms.values())

    def test_zero_column_kills_the_terms_through_it(self):
        m = dense_matrices(9)[2]
        image = pullback(cayley_form(), m)
        assert image.terms and all(2 not in key for key in image.terms)

    def test_plane_rotation_does_not_preserve_phi(self):
        # a rational rotation by (3/5, 4/5) in the (e0, e1) plane: orthogonal
        # with det 1, but not in Spin(7)
        rows = [[int(i == j) for j in range(8)] for i in range(8)]
        rows[0][0], rows[0][1], rows[1][0], rows[1][1] = (
            Fraction(3, 5), Fraction(-4, 5), Fraction(4, 5), Fraction(3, 5))
        r = Matrix(rows)
        phi = cayley_form()
        image = pullback(phi, r)
        assert image != phi
        a = sympy_matrix([r.column(j) for j in range(8)])
        for key in combinations(range(8), 4):
            assert as_sympy(image.coefficient(key)) == sympy_value(phi, key, a)
        with pytest.raises(FrameNotAdmissible, match="does not preserve the form"):
            check_frame(r)

    @pytest.mark.parametrize("shape", [(7, 7), (8, 7), (7, 8), (9, 9)])
    def test_pullback_rejects_other_shapes(self, shape):
        m = Matrix([[1] * shape[1] for _ in range(shape[0])])
        with pytest.raises(ValueError, match=f"{shape[0]}x{shape[1]}"):
            pullback(cayley_form(), m)

    @pytest.mark.parametrize("length", [3, 7, 9])
    def test_evaluate_rejects_other_lengths(self, length):
        vectors = [Vector([1] * length)] + E[1:4]
        with pytest.raises(ValueError, match=f"length 8, got lengths \\[{length}, 8, 8, 8\\]"):
            cayley_form().evaluate(vectors)

    def test_no_elimination_on_the_route(self, monkeypatch):
        # a dense admissible frame and dense vectors never reach RowSpan; the
        # frame is a product of Cayley transforms of spin(7) basis elements
        eye, r = Matrix.identity(8), Matrix.identity(8)
        for b in (spin7().basis[i] * Fraction(1, 2) for i in (0, 5, 11)):
            r = r @ (eye - b) @ (eye + b).inverse()
        dense = [r.column(j) + E[j] * Fraction(1, 7) for j in range(4)]
        expected = sympy_value(cayley_form(), dense)

        def unexpected(self, row):
            raise AssertionError("RowSpan._insert called")

        monkeypatch.setattr("spin7.linalg.RowSpan._insert", unexpected)
        assert sum(1 for row in r.rows for x in row if x) > 8
        assert pullback(cayley_form(), r) == cayley_form()
        assert as_sympy(cayley_form().evaluate(dense)) == expected


class TestSortWithSign:
    def test_already_sorted(self):
        assert sort_with_sign((0, 1, 2)) == ((0, 1, 2), 1)

    def test_single_swap(self):
        assert sort_with_sign((1, 0, 2)) == ((0, 1, 2), -1)

    def test_repeat(self):
        assert sort_with_sign((1, 1)) == ((1, 1), 0)


class TestSignedCoefficients:
    # "lone" is the one-term non-Cayley form that test_octonion rejects
    @pytest.mark.parametrize(
        "form", [cayley_form(), AltForm(4, {(0, 1, 2, 3): 1})], ids=["phi", "lone"]
    )
    def test_matches_coefficient_signed(self, form):
        # coefficient_signed reads the table, so both are checked against
        # the sorted terms directly
        table = signed_coefficients(form)
        assert len(table) == 24 * len(form.terms)
        assert signed_coefficients(form) is table
        for idx in product(range(8), repeat=4):
            key, sign = sort_with_sign(idx)
            expected = sign * form.terms.get(key, 0)
            assert table.get(idx, 0) == expected
            assert form.coefficient_signed(idx) == expected


class TestParsePrint:
    def test_cayley_roundtrip(self):
        phi = cayley_form()
        assert parse_form(print_form(phi)) == phi

    def test_two_terms(self):
        f = parse_form("e^{0145}+e^{0167}")
        assert f.degree == 4
        assert f.terms == {(0, 1, 4, 5): 1, (0, 1, 6, 7): 1}

    def test_unsorted_indices_sign(self):
        assert parse_form("e^{1045}") == parse_form("-e^{0145}")

    def test_coefficients(self):
        f = parse_form("2*e^{01} - 1/3*e^{23}")
        assert f.degree == 2
        assert f.terms == {(0, 1): 2, (2, 3): Fraction(-1, 3)}

    def test_bare_basis(self):
        assert parse_form("e123") == parse_form("e^{123}")

    def test_degree_zero(self):
        f = parse_form("5/3")
        assert f.degree == 0 and f.coefficient(()) == Fraction(5, 3)
        assert parse_form(print_form(f)) == f

    def test_cancellation(self):
        f = parse_form("e^{01}-e^{01}")
        assert f.is_zero() and f.degree == 2
        assert print_form(f) == "0"

    @settings(max_examples=40, deadline=None)
    @given(small_forms(2))
    def test_roundtrip_random(self, f):
        assert parse_form(print_form(f)) == f or f.is_zero()

    @pytest.mark.parametrize(
        "text,fragment",
        [
            ("e^{0045}", "repeated index"),
            ("e^{01}+e^{012}", "mixed degrees"),
            ("1/0*e^{01}", "zero denominator"),
            ("2/*e^{01}", "missing denominator"),
            ("e^{08}", "out of range"),
            ("e^{}", "at least one index"),
            ("", "empty"),
            ("e^{01}~e^{23}", "expected '+' or '-'"),
            ("2 e^{01}", "expected '*'"),
        ],
    )
    def test_errors_carry_position(self, text, fragment):
        with pytest.raises(FormParseError) as err:
            parse_form(text)
        assert fragment in str(err.value)
        assert isinstance(err.value.position, int)
        assert 0 <= err.value.position <= len(text)

    def test_json_roundtrip(self):
        phi = cayley_form()
        assert AltForm.from_json_obj(phi.to_json_obj()) == phi

    @pytest.mark.parametrize("key", ["\u0663", "0\u00b2", "1a", "1 2"])
    def test_json_rejects_non_ascii_digit_keys(self, key):
        with pytest.raises(ValueError, match="ASCII digits"):
            AltForm.from_json_obj({"degree": len(key), "terms": {key: "1"}})
