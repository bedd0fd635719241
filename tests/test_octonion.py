"""Octonion arithmetic and the derived unit product table."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spin7.forms import AltForm, cayley_form
from spin7.linalg import Vector
from spin7.octonion import (
    NotSingleBasisVector,
    Octonion,
    SignedUnit,
    UnitTable,
    associator,
    default_table,
    oct_mul,
)

# Hand-derived from the 14 printed terms and confirmed by the pre-build
# oracle: the full upper triangle of the imaginary-unit product table.
EXPECTED_TABLE = {
    (1, 2): (3, 1), (1, 3): (2, -1), (1, 4): (5, 1), (1, 5): (4, -1),
    (1, 6): (7, 1), (1, 7): (6, -1),
    (2, 3): (1, 1), (2, 4): (6, 1), (2, 5): (7, -1), (2, 6): (4, -1),
    (2, 7): (5, 1),
    (3, 4): (7, -1), (3, 5): (6, -1), (3, 6): (5, 1), (3, 7): (4, 1),
    (4, 5): (1, 1), (4, 6): (2, 1), (4, 7): (3, -1),
    (5, 6): (3, -1), (5, 7): (2, -1),
    (6, 7): (1, 1),
}

UNITS = [Octonion.unit(i) for i in range(8)]


class TestUnitTable:
    def test_matches_frozen_table(self):
        table = default_table()
        for (lam, mu), (nu, sign) in EXPECTED_TABLE.items():
            assert table.imaginary(lam, mu) == SignedUnit(nu, sign)
            assert table.imaginary(mu, lam) == SignedUnit(nu, -sign)

    def test_known_entries(self):
        table = default_table()
        assert table.imaginary(1, 2) == SignedUnit(3, 1)
        assert table.imaginary(1, 4) == SignedUnit(5, 1)
        assert table.imaginary(2, 5) == SignedUnit(7, -1)

    def test_diagonal(self):
        table = default_table()
        for lam in range(1, 8):
            assert table.imaginary(lam, lam) == SignedUnit(0, -1)

    def test_closure_off_forbidden_indices(self):
        table = default_table()
        for lam in range(1, 8):
            for mu in range(1, 8):
                if lam != mu:
                    nu = table.imaginary(lam, mu).index
                    assert nu not in (0, lam, mu)

    def test_structure_constants(self):
        table = default_table()
        assert table.structure_constant(1, 2, 3) == 1
        assert table.structure_constant(2, 1, 3) == -1
        assert table.structure_constant(1, 2, 4) == 0

    def test_rejects_non_cayley_form(self):
        lone = AltForm(4, {(0, 1, 2, 3): 1})
        with pytest.raises(NotSingleBasisVector, match=r"P\(e0,e1,e4\)"):
            UnitTable.from_form(lone)

    def test_derived_not_stored(self):
        # rebuilding from the form gives an equal, independently derived table
        rebuilt = UnitTable.from_form(cayley_form())
        assert rebuilt.entries == default_table().entries

    def test_exports(self):
        table = default_table()
        obj = table.as_json_obj()
        assert len(obj) == 49
        assert obj["1,2"] == "+3"
        assert obj["2,5"] == "-7"
        assert obj["5,5"] == "-0"
        csv = table.as_csv()
        assert csv.splitlines()[0] == "x," + ",".join(str(i) for i in range(1, 8))
        assert "-e0" in table.as_text()


class TestOctonionProduct:
    def test_imaginary_square(self):
        assert UNITS[1] * UNITS[1] == -UNITS[0]

    def test_unit_element(self):
        assert UNITS[0] * UNITS[3] == UNITS[3]
        assert UNITS[3] * UNITS[0] == UNITS[3]

    def test_known_product(self):
        assert UNITS[4] * UNITS[5] == UNITS[1]

    def test_norm_multiplicativity_basis(self):
        for i in range(8):
            for j in range(8):
                p = oct_mul(UNITS[i], UNITS[j])
                assert p.norm_sq() == UNITS[i].norm_sq() * UNITS[j].norm_sq()

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=3),
                 min_size=8, max_size=8),
        st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=3),
                 min_size=8, max_size=8),
    )
    def test_norm_multiplicativity_fuzz(self, xs, ys):
        x, y = Octonion(xs), Octonion(ys)
        assert (x * y).norm_sq() == x.norm_sq() * y.norm_sq()

    def test_conjugate_product(self):
        x = Octonion([1, 2, 0, -1, Fraction(1, 2), 0, 3, 1])
        assert x * x.conjugate() == Octonion([x.norm_sq()] + [0] * 7)

    def test_vector_arithmetic_stays_octonion(self):
        x = Octonion([1, 2, 0, -1, Fraction(1, 2), 0, 3, 1])
        for value in (x + UNITS[2], x - UNITS[2], -x, x * 3, 3 * x,
                      x * Fraction(1, 2), Fraction(1, 2) * x):
            assert type(value) is Octonion
        assert repr(x) == str(x) == "Octonion([1, 2, 0, -1, 1/2, 0, 3, 1])"
        assert x == Vector(x.comps) and hash(x) == hash(Vector(x.comps))
        with pytest.raises(ValueError):
            Octonion([1, 2, 3])

    def test_two_sided_distributivity(self):
        x, y, z = UNITS[1] + UNITS[2], UNITS[3], UNITS[5] - UNITS[0]
        assert (x + y) * z == x * z + y * z
        assert z * (x + y) == z * x + z * y


def expanded_product(x, y):
    """x y as Fractions, summed term by term over the unit table."""
    out = [Fraction(0)] * 8
    for i in range(8):
        for j in range(8):
            unit = default_table().product(i, j)
            out[unit.index] += Fraction(x[i]) * Fraction(y[j]) * unit.sign
    return out


class TestOctMulKernel:
    """``oct_mul`` against the term-by-term Fraction expansion."""

    @staticmethod
    def dense_pairs(seed, count=20):
        rng = random.Random(seed)

        def comp():
            return Fraction(rng.randint(-50, 50), rng.randint(1, 30))

        return [(Octonion([comp() for _ in range(8)]), Octonion([comp() for _ in range(8)]))
                for _ in range(count)]

    def test_dense_rationals(self):
        for x, y in self.dense_pairs(51):
            xy = oct_mul(x, y)
            assert type(xy) is Octonion
            assert list(xy.comps) == expanded_product(x, y)

    def test_mixed_int_and_fraction_components(self):
        x = Octonion([1, Fraction(1, 2), 0, -3, Fraction(2), 0, Fraction(-5, 6), 7])
        y = Octonion([Fraction(3, 4), 0, 2, Fraction(-1, 3), 0, 1, 0, Fraction(4)])
        assert list(oct_mul(x, y).comps) == expanded_product(x, y)
        assert list(oct_mul(y, x).comps) == expanded_product(y, x)

    def test_zero(self):
        zero = Octonion([0] * 8)
        for x, _ in self.dense_pairs(52, 3):
            for a, b in ((zero, x), (x, zero), (zero, zero)):
                xy = oct_mul(a, b)
                assert type(xy) is Octonion and xy.comps == (0,) * 8
                assert all(type(c) is int for c in xy.comps)

    def test_integral_results_have_int_components(self):
        # integral inputs, Fraction-typed or not, and fractional inputs with
        # an integral product (1/2 e1 times 2 e2 is e3)
        cases = [(Octonion([1, 2, 0, -1, 3, 0, 0, 5]), Octonion([0, 1, -2, 0, 0, 4, 1, 0])),
                 (Octonion([Fraction(2)] + [0] * 7), Octonion([Fraction(-3)] * 8)),
                 (UNITS[1] * Fraction(1, 2), UNITS[2] * 2)]
        for x, y in cases:
            xy = oct_mul(x, y)
            assert list(xy.comps) == expanded_product(x, y)
            assert all(type(c) is int for c in xy.comps)
        assert oct_mul(*cases[2]) == UNITS[3]

    def test_fractional_result_keeps_fractions(self):
        xy = oct_mul(UNITS[1] * Fraction(1, 2), UNITS[2] * Fraction(1, 3))
        assert xy.comps[3] == Fraction(1, 6) and type(xy.comps[3]) is Fraction


class TestAssociator:
    def test_alternativity_repeated_arguments(self):
        assert associator(UNITS[1], UNITS[1], UNITS[2]).is_zero()
        assert associator(UNITS[1], UNITS[2], UNITS[2]).is_zero()

    def test_unit_is_associative(self):
        for i in range(8):
            for j in range(8):
                assert associator(UNITS[0], UNITS[i], UNITS[j]).is_zero()

    def test_unit_associates_with_anything(self):
        import random

        rng = random.Random(17)
        for _ in range(10):
            x = Octonion(Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(8))
            y = Octonion(Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(8))
            assert associator(UNITS[0], x, y).is_zero()
            assert associator(x, UNITS[0], y).is_zero()
            assert associator(x, y, UNITS[0]).is_zero()

    def test_nonzero_witness(self):
        w = associator(UNITS[1], UNITS[2], UNITS[4])
        assert w == Octonion([0, 0, 0, 0, 0, 0, 0, -2])

    def test_exhaustive_scan_count(self):
        # frozen by the pre-build oracle: 168 of the 343 imaginary basis
        # triples have a nonzero associator
        nonzero = 0
        for l in range(1, 8):
            for m in range(1, 8):
                for n in range(1, 8):
                    a = associator(UNITS[l], UNITS[m], UNITS[n])
                    if not a.is_zero():
                        nonzero += 1
                    if len({l, m, n}) < 3:
                        assert a.is_zero()
        assert nonzero == 168

    def test_alternativity_fuzz(self):
        import random

        rng = random.Random(8)
        for _ in range(20):
            x = Octonion(Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(8))
            y = Octonion(Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(8))
            assert associator(x, x, y).is_zero()
            assert associator(x, y, y).is_zero()


class TestDivisionIdentity:
    def test_all_triples(self):
        table = default_table()
        for lam in range(1, 8):
            for mu in range(1, 8):
                for nu in range(1, 8):
                    a = table.product(lam, mu)
                    b = table.product(lam, nu)
                    lhs = a.sign * b.sign if a.index == b.index else 0
                    assert lhs == (1 if mu == nu else 0)
