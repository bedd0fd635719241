"""Triple cross product: axioms, induced rank-2 product, composition rule."""

import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import permutations, product
from pathlib import Path

import pytest

import spin7.cross
from spin7.cross import (
    CrossProduct,
    InputNotInE0Perp,
    default_cross,
    verify_compatibility,
    verify_composition_lemma,
)
from spin7.forms import AltForm, cayley_form, sort_with_sign
from spin7.linalg import Vector, gram_det
from spin7.octonion import default_table

E = [Vector.basis(8, i) for i in range(8)]

# Independent mini-oracle: the 14 monomials of the form, transcribed by
# hand, with direct sign bookkeeping. Used to cross-check the library's
# product on random basis tuples without going through AltForm.
ORACLE_TERMS = {
    (0, 1, 4, 5): 1, (0, 1, 6, 7): 1, (2, 3, 4, 5): 1, (2, 3, 6, 7): 1,
    (0, 2, 4, 6): 1, (0, 2, 5, 7): -1, (1, 3, 4, 6): -1, (1, 3, 5, 7): 1,
    (0, 3, 4, 7): -1, (0, 3, 5, 6): -1, (1, 2, 4, 7): -1, (1, 2, 5, 6): -1,
    (0, 1, 2, 3): 1, (4, 5, 6, 7): 1,
}


def fractional_form():
    """Not the Cayley form: fractional and integer coefficients, 8 terms."""
    rng = random.Random(32)
    keys = rng.sample(sorted(ORACLE_TERMS), 6) + [(0, 1, 2, 4), (3, 5, 6, 7)]
    coeffs = [Fraction(2, 3), Fraction(-5, 7), 3, Fraction(1, 10 ** 6), -1,
              Fraction(9, 4), Fraction(-1, 6), 2]
    return AltForm(4, dict(zip(keys, coeffs)))


def oracle_phi(i, j, k, m):
    key, sign = sort_with_sign((i, j, k, m))
    return sign * ORACLE_TERMS.get(key, 0) if sign else 0


def oracle_p(i, j, k):
    return [oracle_phi(i, j, k, m) for m in range(8)]


def oracle_rhs(a, b, u, v, w):
    """The 12-term right side of the composition rule on basis indices,
    spelled out term by term."""
    d = lambda i, j: 1 if i == j else 0
    rhs = [0] * 8

    def add(scal, vec):
        if scal:
            for i in range(8):
                rhs[i] += scal * vec[i]

    gw = lambda x, y, s, t: d(x, s) * d(y, t) - d(x, t) * d(y, s)
    ew = lambda idx: [d(idx, m) for m in range(8)]
    add(-gw(a, b, u, v) - oracle_phi(a, b, u, v), ew(w))
    add(d(b, w), oracle_p(a, u, v))
    add(-d(a, w), oracle_p(b, u, v))
    add(-gw(a, b, v, w) - oracle_phi(a, b, v, w), ew(u))
    add(d(b, u), oracle_p(a, v, w))
    add(-d(a, u), oracle_p(b, v, w))
    add(-gw(a, b, w, u) - oracle_phi(a, b, w, u), ew(v))
    add(d(b, v), oracle_p(a, w, u))
    add(-d(a, v), oracle_p(b, w, u))
    return rhs


class TestCross3:
    def test_known_basis_products(self):
        cp = default_cross()
        assert cp.cross3(E[0], E[1], E[4]) == E[5]
        assert cp.cross3(E[0], E[1], E[1]) == Vector.zero(8)
        assert cp.cross3(E[4], E[5], E[6]) == E[7]

    def test_alternating_on_basis(self):
        cp = default_cross()
        rng = random.Random(2)
        for _ in range(40):
            i, j, k = rng.randrange(8), rng.randrange(8), rng.randrange(8)
            base = cp.cross3(E[i], E[j], E[k])
            for perm in permutations((i, j, k)):
                _, sign = sort_with_sign(perm)
                back = sort_with_sign((i, j, k))[1]
                expected = base * (sign * back) if sign else Vector.zero(8)
                assert cp.cross3(E[perm[0]], E[perm[1]], E[perm[2]]) == expected

    def test_matches_oracle_on_basis(self):
        cp = default_cross()
        rng = random.Random(7)
        for _ in range(100):
            i, j, k = rng.randrange(8), rng.randrange(8), rng.randrange(8)
            assert list(cp.cross3(E[i], E[j], E[k])) == oracle_p(i, j, k)

    def test_multilinear(self):
        cp = default_cross()
        u = E[1] + 2 * E[2]
        assert cp.cross3(E[0], u, E[4]) == cp.cross3(E[0], E[1], E[4]) + 2 * cp.cross3(
            E[0], E[2], E[4]
        )

    @staticmethod
    def dense_triples(seed):
        # mixed int / Fraction entries with denominators up to 10^6, some
        # zero entries, a zero argument and repeated arguments
        rng = random.Random(seed)

        def entry():
            kind = rng.randrange(3)
            if kind == 0:
                return 0
            if kind == 1:
                return rng.randint(-10 ** 6, 10 ** 6)
            return Fraction(rng.randint(-10 ** 6, 10 ** 6), rng.randint(1, 10 ** 6))

        vecs = [Vector(entry() for _ in range(8)) for _ in range(24)]
        triples = [tuple(vecs[3 * k: 3 * k + 3]) for k in range(8)]
        a, b = vecs[0], vecs[1]
        triples += [(a, a, b), (a, b, a), (a, b, b), (Vector.zero(8), a, b), (a, E[3], b)]
        # single-entry arguments: scaled units with Fraction and negative
        # coefficients, e_0 with each e_lam, and a repeated index
        half = Fraction(1, 2)
        triples += [(E[1] * half, E[2] * -3, E[4]), (E[5] * Fraction(-2, 3), E[6], E[7] * 7)]
        triples += [(E[0], E[lam], E[(lam % 7) + 1]) for lam in range(1, 8)]
        triples += [(E[2] * half, E[3], E[2] * -1), (E[4], E[4], E[0])]
        return triples

    @staticmethod
    def assert_duality(cp, a, b, c):
        p = cp.cross3(a, b, c)
        assert list(p) == [cp.phi.evaluate([a, b, c, E[m]]) for m in range(8)]

    def test_dense_kernel_matches_duality(self):
        cp = default_cross()
        for a, b, c in self.dense_triples(31):
            self.assert_duality(cp, a, b, c)

    def test_dense_kernel_on_fractional_form(self):
        cp = CrossProduct(fractional_form())
        for a, b, c in self.dense_triples(33):
            self.assert_duality(cp, a, b, c)


class TestProducts:
    """``CrossProduct.products``, the one table of basis products."""

    def test_cayley_products_are_signed_units(self):
        products = default_cross().products
        assert len(products) == 8 * 7 * 6
        for (i, j, k), hits in products.items():
            ((m, c),) = hits
            assert c in (1, -1) and m not in (i, j, k)

    @pytest.mark.parametrize("form", [cayley_form(), fractional_form()],
                             ids=["phi", "fractional"])
    def test_products_agree_with_cross3(self, form):
        cp = CrossProduct(form)
        for i, j, k in product(range(8), repeat=3):
            assert cp.products.get((i, j, k), ()) == cp.cross3(E[i], E[j], E[k]).nonzero()

    def test_one_cross_product_per_process(self):
        # the unit table reads the shared cross product instead of building
        # a second one
        script = """
import spin7.cross as cross
built = []
init = cross.CrossProduct.__init__
cross.CrossProduct.__init__ = lambda self, *a: built.append(1) or init(self, *a)
from spin7.octonion import default_table
cross.default_cross(); default_table()
print(len(built))
"""
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1")
        done = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "1"


class TestCompatibility:
    def test_orthonormal_triple(self):
        cp = default_cross()
        rep = cp.check_compatibility(E[1], E[2], E[3])
        assert rep.ok
        assert gram_det([E[1], E[2], E[3]]) == 1

    def test_degenerate_triple(self):
        cp = default_cross()
        assert cp.cross3(E[1], E[1], E[2]).is_zero()
        assert gram_det([E[1], E[1], E[2]]) == 0

    def test_skewed_triple(self):
        cp = default_cross()
        a = E[1] + E[2]
        rep = cp.check_compatibility(a, E[3], E[5])
        assert rep.ok
        p = cp.cross3(a, E[3], E[5])
        assert p.dot(p) == 2

    def test_full_sweep(self):
        report = verify_compatibility()
        assert report.cases == 8 ** 3 + 100
        assert report.failures == []

    def test_integer_residuals_match_fraction_route(self, monkeypatch):
        # the 612 triples of the sweep, on phi and on two forms that are not
        # compatible: one coefficient doubled, and fractional coefficients
        cp = default_cross()
        seen = []
        check = cp.check_compatibility
        monkeypatch.setattr(cp, "check_compatibility",
                            lambda a, b, c: seen.append((a, b, c)) or check(a, b, c))
        verify_compatibility()
        monkeypatch.undo()
        assert len(seen) == 612
        doubled = dict(ORACLE_TERMS)
        doubled[(0, 1, 4, 5)] = 2
        fractional = dict(ORACLE_TERMS)
        fractional[(0, 2, 4, 6)] = Fraction(2, 3)
        fractional[(1, 3, 5, 7)] = Fraction(-5, 7)
        nonzero = []
        for form_cp in (cp, CrossProduct(AltForm(4, doubled)),
                        CrossProduct(AltForm(4, fractional))):
            bad = 0
            for a, b, c in seen:
                p = form_cp.cross3(a, b, c)
                rep = form_cp.check_compatibility(a, b, c)
                assert rep.orthogonality == (p.dot(a), p.dot(b), p.dot(c))
                assert rep.norm_residual == p.dot(p) - gram_det([a, b, c])
                bad += not rep.ok
            nonzero.append(bad)
        assert nonzero[0] == 0 and nonzero[1] > 0 and nonzero[2] > 0


class TestCompositionRule:
    def test_degenerate_tuples_vanish(self):
        cp = default_cross()
        lhs, rhs = cp.composition_sides(E[1], E[1], E[0], E[2], E[3])
        assert lhs.is_zero() and rhs.is_zero()
        lhs, rhs = cp.composition_sides(E[0], E[1], E[0], E[2], E[3])
        assert lhs.is_zero() and rhs.is_zero()

    def test_random_basis_tuples_against_oracle(self):
        # independent direct expansion of the 12-term right side
        cp = default_cross()
        rng = random.Random(6)
        for _ in range(200):
            a, b, u, v, w = (rng.randrange(8) for _ in range(5))
            inner = oracle_p(u, v, w)
            lhs = [0] * 8
            for m, c in enumerate(inner):
                if c:
                    for n, c2 in enumerate(oracle_p(a, b, m)):
                        lhs[n] += c * c2
            rhs = oracle_rhs(a, b, u, v, w)
            assert lhs == rhs  # the rule itself, via the oracle alone
            got_lhs, got_rhs = cp.composition_sides(
                E[a], E[b], E[u], E[v], E[w]
            )
            assert list(got_lhs) == lhs
            assert list(got_rhs) == rhs

    def test_dense_rhs_against_oracle(self):
        # rational 5-tuples with two entries per argument: the expected right
        # side is the oracle expanded multilinearly over the 32 basis tuples
        cp = default_cross()
        rng = random.Random(10)
        for _ in range(20):
            args = []
            for _ in range(5):
                idx = rng.sample(range(8), 2)
                coeffs = [Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 5))
                          for _ in idx]
                args.append(list(zip(idx, coeffs)))
            expected = [0] * 8
            for choice in product(*args):
                weight = 1
                for _, c in choice:
                    weight *= c
                for n, c in enumerate(oracle_rhs(*(i for i, _ in choice))):
                    expected[n] += weight * c
            vecs = [Vector(dict(arg).get(m, 0) for m in range(8)) for arg in args]
            assert list(cp.composition_rhs(*vecs)) == expected

    def test_sample_scope(self):
        # dense rational 5-tuples, where the basis sweep's shortcuts do not apply
        cp = default_cross()
        rng = random.Random(8)
        for _ in range(40):
            a, b, u, v, w = (
                Vector(Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(8))
                for _ in range(5)
            )
            lhs, rhs = cp.composition_sides(a, b, u, v, w)
            assert lhs == rhs


class TestNegativeControls:
    """Both sweeps fail on the Cayley form with the sign of e^{0123} flipped."""

    @pytest.fixture()
    def flipped(self, monkeypatch):
        terms = dict(cayley_form().terms)
        terms[(0, 1, 2, 3)] = -1
        cp = CrossProduct(AltForm(4, terms))
        monkeypatch.setattr(spin7.cross, "default_cross", lambda: cp)

    def test_compatibility_fails_on_dense_triples(self, flipped):
        report = verify_compatibility()
        assert report.cases == 8 ** 3 + 100
        assert len(report.failures) == 100
        basis = {str(e) for e in E}
        for f in report.failures:
            assert not set(f["inputs"][1:-1].split("; ")) <= basis
            assert "Fraction" not in f["actual"]

    def test_composition_lemma_fails(self, flipped):
        report = verify_composition_lemma()
        assert report.cases == 32768
        assert len(report.failures) == 2592
        assert report.failures[0]["inputs"] == "(e0; e1; e0; e4; e6)"
        # the sweep's sides, read from its table of basis products, agree
        # with composition_sides on the dense route (cross3 on vectors): on
        # every failure record, and on a seeded sample of the passing tuples
        cp = spin7.cross.default_cross()
        failed = set()
        for f in report.failures:
            idx = tuple(int(e[1:]) for e in f["inputs"][1:-1].split("; "))
            failed.add(idx)
            lhs, rhs = cp.composition_sides(*(E[i] for i in idx))
            assert (f["actual"], f["expected"]) == (str(lhs), str(rhs))
        assert len(failed) == 2592
        passed = [idx for idx in product(range(8), repeat=5) if idx not in failed]
        for idx in random.Random(5).sample(passed, 1000):
            lhs, rhs = cp.composition_sides(*(E[i] for i in idx))
            assert lhs == rhs


class TestCross2:
    def test_known_products(self):
        cp = default_cross()
        assert cp.cross2(E[1], E[2]) == E[3]
        assert cp.cross2(E[1], E[1]).is_zero()
        assert cp.cross2(E[2], E[5]) == -E[7]

    def test_result_orthogonality(self):
        cp = default_cross()
        u = E[1] + E[4]
        v = E[2] - E[6]
        p = cp.cross2(u, v)
        assert p[0] == 0
        assert p.dot(u) == 0 and p.dot(v) == 0

    def test_rejects_e0_component(self):
        cp = default_cross()
        with pytest.raises(InputNotInE0Perp):
            cp.cross2(E[0] + E[1], E[2])
        with pytest.raises(InputNotInE0Perp):
            cp.cross2(E[1], E[0])

    def test_agrees_with_unit_table(self):
        cp = default_cross()
        table = default_table()
        for lam in range(1, 8):
            for mu in range(1, 8):
                expected = (
                    Vector.zero(8) if lam == mu
                    else table.imaginary(lam, mu).as_vector()
                )
                assert cp.cross2(E[lam], E[mu]) == expected


class TestAssociativeForm:
    def test_coefficients(self):
        psi = default_cross().associative_form()
        assert psi.degree == 3
        assert psi.coefficient((1, 2, 3)) == 1
        assert psi.coefficient((2, 5, 7)) == -1
        assert len(psi.terms) == 7

    def test_reproduces_structure_constants(self):
        psi = default_cross().associative_form()
        table = default_table()
        for lam in range(1, 8):
            for mu in range(1, 8):
                if lam == mu:
                    continue
                nu, sign = table.imaginary(lam, mu)
                assert psi.coefficient_signed((lam, mu, nu)) == sign
