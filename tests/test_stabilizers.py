"""Stabilizer algebras, connection coefficients, constraint system, symmetries."""

import hashlib
import inspect
import json
import random
from fractions import Fraction
from itertools import combinations, permutations

import pytest

from spin7 import stabilizers
from spin7.acs import acs_basis
from spin7.forms import cayley_form, pullback, sort_with_sign
from spin7.linalg import Matrix, Vector
from spin7.stabilizers import (
    SO7_PAIRS,
    SO8_PAIRS,
    antisym_unit,
    constraint_equation,
    constraint_system_g2,
    decompose_so8,
    embed_so7,
    extract_omega,
    form_action,
    g2_stabilizer,
    signed_perm_symmetries,
    spin7,
)


def assert_closed_under_bracket(algebra):
    for a, b in combinations(algebra.basis, 2):
        assert algebra.contains(a.commutator(b)), (a, b)


# Frozen by the pre-build oracle: every canonical spin(7) basis element has a
# zero residual and an antisymmetric coefficient matrix, and none of them
# lands inside g2 (the g2 verdict is reported data, not a pass condition).
EXPECTED_IN_G2 = [False] * 21
EXPECTED_CONSTRAINT_DIM = 0
EXPECTED_CONSTRAINT_EQUALS_G2 = False
EXPECTED_SYMMETRY_COUNT = 21504
# sha256 of json.dumps([r.cols for r in signed_perm_symmetries()])
SYMMETRY_ORDER_SHA256 = "51f0ffba49ed65324813e44d9cfa72a8224a6adb041b212f5a7dfa8ee057e617"
E8 = [Vector.basis(8, i) for i in range(8)]


class TestFormAction:
    def test_zero_matrix(self):
        assert form_action(Matrix.zero(8, 8), cayley_form()).is_zero()

    def test_identity_scales_by_degree(self):
        phi = cayley_form()
        assert form_action(Matrix.identity(8), phi) == -4 * phi

    def test_elementary_rotation_moves_phi(self):
        acted = form_action(antisym_unit(8, 1, 2), cayley_form())
        assert not acted.is_zero()

    def test_linear_in_matrix(self):
        phi = cayley_form()
        a = antisym_unit(8, 1, 2)
        b = antisym_unit(8, 0, 5)
        combo = form_action(a + 3 * b, phi)
        assert combo == form_action(a, phi) + 3 * form_action(b, phi)

    def test_infinitesimal_invariance_meaning(self):
        # a spin(7) element annihilates the form, an arbitrary rotation does not
        rho = spin7().basis[0]
        assert form_action(rho, cayley_form()).is_zero()


class TestSpin7:
    def test_dimension(self):
        assert spin7().dim == 21

    def test_kernel_property(self):
        phi = cayley_form()
        for b in spin7().basis:
            assert form_action(b, phi).is_zero()

    def test_matches_sympy_nullity(self):
        sympy = pytest.importorskip("sympy")
        phi = cayley_form()
        tuples4 = list(combinations(range(8), 4))
        cols = []
        for i, j in SO8_PAIRS:
            acted = form_action(antisym_unit(8, i, j), phi)
            cols.append([acted.coefficient(t) for t in tuples4])
        m = sympy.Matrix([[cols[p][t] for p in range(28)] for t in range(70)])
        assert len(m.nullspace()) == 21

    def test_bracket_closure(self):
        assert_closed_under_bracket(spin7())

    def test_nothing_outside_kernel(self):
        # adding any elementary rotation not in the algebra must break closure
        sp = spin7()
        e12 = antisym_unit(8, 1, 2)
        assert not sp.contains(e12)


class TestG2:
    def test_dimension(self):
        assert g2_stabilizer().dim == 14

    def test_annihilates_associative_form(self):
        from spin7.cross import default_cross

        psi = default_cross().associative_form()
        for b in g2_stabilizer().basis:
            assert form_action(embed_so7(b), psi).is_zero()

    def test_elementary_rotation_not_member(self):
        e12 = antisym_unit(7, 0, 1)  # rotation of e1, e2 in 7-space coordinates
        assert not g2_stabilizer().contains(e12)

    def test_zero_is_member(self):
        assert g2_stabilizer().contains(Matrix.zero(7, 7))

    def test_bracket_closure(self):
        assert_closed_under_bracket(g2_stabilizer())

    def test_matches_sympy_nullity(self):
        sympy = pytest.importorskip("sympy")
        from spin7.cross import default_cross

        psi = default_cross().associative_form()
        tuples3 = list(combinations(range(1, 8), 3))
        cols = []
        for i, j in SO7_PAIRS:
            acted = form_action(antisym_unit(8, i, j), psi)
            cols.append([acted.coefficient(t) for t in tuples3])
        m = sympy.Matrix([[cols[p][t] for p in range(21)] for t in range(35)])
        assert len(m.nullspace()) == 14


class TestExtractOmega:
    def test_trace_gram_is_8_identity(self):
        js = [j.matrix for j in acs_basis()]
        gram = Matrix([(a.transpose() @ b).trace() for b in js] for a in js)
        assert gram == Matrix.identity(7) * 8

    def test_zero_input(self):
        ext = extract_omega(Matrix.zero(8, 8))
        assert ext.omega == Matrix.zero(7, 7)
        assert ext.residual_zero
        assert ext.in_g2

    def test_spin7_sweep_frozen_verdicts(self):
        verdicts = []
        for rho in spin7().basis:
            ext = extract_omega(rho)
            assert ext.residual_zero
            assert ext.omega_antisymmetric
            verdicts.append(ext.in_g2)
        assert verdicts == EXPECTED_IN_G2

    def test_omega_reconstructs_commutator(self):
        js = [j.matrix for j in acs_basis()]
        rho = spin7().basis[3]
        ext = extract_omega(rho)
        for lam in range(1, 8):
            recon = Matrix.zero(8, 8)
            for mu in range(1, 8):
                c = ext.omega[mu - 1][lam - 1]
                if c:
                    recon = recon + js[mu - 1] * c
            assert recon == rho.commutator(js[lam - 1])

    def test_membership_cross_checked_with_sympy(self):
        sympy = pytest.importorskip("sympy")
        g2_rows = [list(b.flatten()) for b in g2_stabilizer().basis]
        base = sympy.Matrix(g2_rows)
        assert base.rank() == 14
        for rho in spin7().basis[:5]:
            ext = extract_omega(rho)
            stacked = base.col_join(sympy.Matrix([list(ext.omega.flatten())]))
            assert (stacked.rank() == 14) == ext.in_g2

    def test_coefficients_and_residuals_match_trace_pairing(self):
        # reference: the trace pairing by matrix products, and the residual
        # as the commutator minus its reconstruction
        js = [j.matrix for j in acs_basis()]
        rng = random.Random(12)
        rhos = list(spin7().basis) + [js[0]]
        for _ in range(4):
            rows = [[0] * 8 for _ in range(8)]
            for i, j in combinations(range(8), 2):
                c = Fraction(rng.randint(-50, 50), rng.randint(1, 40))
                rows[i][j], rows[j][i] = c, -c
            rhos.append(Matrix(rows))
        for rho in rhos:
            ext = extract_omega(rho)
            for lam in range(1, 8):
                delta = rho.commutator(js[lam - 1])
                recon = Matrix.zero(8, 8)
                for mu in range(1, 8):
                    c = Fraction((js[mu - 1].transpose() @ delta).trace(), 8)
                    assert ext.omega[mu - 1][lam - 1] == c
                    recon = recon + js[mu - 1] * c
                assert ext.residuals[lam - 1] == delta - recon

    def test_negative_control(self):
        ext = extract_omega(acs_basis()[0].matrix)
        assert not ext.residual_zero

    def test_linearity(self):
        sp = spin7()
        a, b = sp.basis[0], sp.basis[10]
        ea, eb = extract_omega(a), extract_omega(b)
        combo = extract_omega(2 * a - 3 * b)
        assert combo.omega == 2 * ea.omega - 3 * eb.omega
        for r, ra, rb in zip(combo.residuals, ea.residuals, eb.residuals):
            assert r == 2 * ra - 3 * rb

    def test_rejects_non_antisymmetric(self):
        bad = Matrix.identity(8)
        with pytest.raises(ValueError, match=r"\(0, 0\)"):
            extract_omega(bad)

    def test_witness_of_an_entry_below_the_diagonal(self):
        # the first bad position in lexical order is (1, 3), not (3, 1)
        rows = [[0] * 8 for _ in range(8)]
        rows[3][1] = 1
        with pytest.raises(ValueError, match=r"at \(1, 3\)"):
            extract_omega(Matrix(rows))


class TestConstraintSystem:
    def test_equation_instance(self):
        # for (lam, mu) = (1, 2) with 1x2 = +3 and 2x1 = -3 the row relates
        # w^3_1 (+1), w^3_2 (-1), w^2_3 (-1)
        row = constraint_equation(1, 2)
        used = {(i // 7 + 1, i % 7 + 1): c for i, c in row.nonzero()}
        assert used == {(3, 1): 1, (3, 2): -1, (2, 3): -1}

    def test_zero_solves(self):
        report = constraint_system_g2()
        assert report.equation_count == 70

    def test_frozen_solution(self):
        report = constraint_system_g2()
        assert report.dimension == EXPECTED_CONSTRAINT_DIM
        assert report.equals_g2 == EXPECTED_CONSTRAINT_EQUALS_G2

    def test_matches_sympy(self):
        sympy = pytest.importorskip("sympy")
        rows = [
            list(constraint_equation(lam, mu))
            for lam in range(1, 8)
            for mu in range(1, 8)
            if lam != mu
        ]
        for a in range(1, 8):
            for b in range(a, 8):
                row = [0] * 49
                row[7 * (a - 1) + (b - 1)] += 1
                row[7 * (b - 1) + (a - 1)] += 1
                rows.append(row)
        assert len(sympy.Matrix(rows).nullspace()) == EXPECTED_CONSTRAINT_DIM


class TestDecomposition:
    def test_verdict(self):
        dec = decompose_so8()
        assert dec.spin7_dim == 21
        assert dec.span_dim == 7
        assert dec.sum_dim == 28
        assert dec.intersection_dim == 0
        assert dec.bracket_closed

    def test_embedding(self):
        m = antisym_unit(7, 2, 4)
        emb = embed_so7(m)
        assert emb.nrows == 8
        assert emb[3][5] == 1 and emb[5][3] == -1
        assert all(emb[0][j] == 0 for j in range(8))


class TestSymmetries:
    def test_identity_and_negation_present(self):
        syms = signed_perm_symmetries()
        assert Matrix.identity(8) in syms
        assert -Matrix.identity(8) in syms

    def test_frozen_count(self):
        assert len(signed_perm_symmetries()) == EXPECTED_SYMMETRY_COUNT

    def test_limit_prefix(self, monkeypatch):
        full = signed_perm_symmetries()
        for k in (1, 5, 15, 16, 17, 1000):
            assert signed_perm_symmetries(limit=k) == full[:k]
        # the identity permutation alone gives 16 symmetries, so a limit of
        # 16 must stop the search before it solves a second permutation
        solved = []
        sign_vectors = stabilizers._sign_vectors
        monkeypatch.setattr(stabilizers, "_sign_vectors",
                            lambda sigma: solved.append(sigma) or sign_vectors(sigma))
        assert len(signed_perm_symmetries(limit=16)) == 16
        assert solved == [tuple(range(8))]
        assert inspect.isgenerator(stabilizers._term_permutations())

    def test_depth_first_search_matches_permutation_filter(self):
        term_sets = set(cayley_form().terms)
        brute = [
            sigma for sigma in permutations(range(8))
            if all(tuple(sorted(sigma[t] for t in key)) in term_sets for key in term_sets)
        ]
        assert len(brute) == 1344
        assert list(stabilizers._term_permutations()) == brute

    def test_sign_classes_match_bruteforce(self):
        # per permutation: the class looked up in the sign table is every x
        # in range(256) whose eps preserves all 14 terms, in ascending order
        phi = cayley_form()
        flips = [tuple(sum(x >> t & 1 for t in key) % 2 for key in phi.terms)
                 for x in range(256)]
        for sigma in stabilizers._term_permutations():
            need = tuple(1 if c * phi.evaluate([E8[sigma[t]] for t in key]) < 0 else 0
                         for key, c in phi.terms.items())
            brute = [x for x in range(256) if flips[x] == need]
            assert len(brute) == 16
            assert stabilizers._sign_vectors(sigma) == brute
        # a permutation that moves a term set off the terms has no signs
        for sigma in [(1, 0, 2, 3, 4, 5, 6, 7), (0, 5, 3, 2, 1, 4, 7, 6)]:
            assert stabilizers._sign_vectors(sigma) == []

    def test_negative_limit_raises(self):
        for k in (-1, -3):
            with pytest.raises(ValueError, match="nonnegative"):
                signed_perm_symmetries(limit=k)

    def test_order_pinned(self):
        # the labels of all 21504 symmetries, in search order
        cols = json.dumps([r.cols for r in signed_perm_symmetries()])
        assert hashlib.sha256(cols.encode()).hexdigest() == SYMMETRY_ORDER_SHA256

    def test_all_preserve_form_spotcheck(self):
        phi = cayley_form()
        syms = signed_perm_symmetries()
        rng = random.Random(1)
        for r in rng.sample(syms, 12):
            assert pullback(phi, r) == phi

    def test_sign_solver_against_bruteforce(self):
        # pruning-disabled oracle on a fixed permutation subset: enumerate all
        # 256 sign vectors directly and compare counts per permutation part
        phi = cayley_form()
        term_sets = set(phi.terms)
        syms = signed_perm_symmetries()
        by_perm = {}
        for m in syms:
            sigma = tuple(next(r for r in range(8) if m[r][i]) for i in range(8))
            by_perm.setdefault(sigma, 0)
            by_perm[sigma] += 1
        probe = [tuple(range(8))]
        rng = random.Random(9)
        probe += rng.sample(sorted(by_perm), 3)
        probe.append(tuple(range(7, -1, -1)))  # likely not an automorphism as-is
        for sigma in probe:
            brute = 0
            design_ok = all(
                tuple(sorted(sigma[t] for t in key)) in term_sets for key in term_sets
            )
            for bits in range(256):
                eps = [1 - 2 * (bits >> i & 1) for i in range(8)]
                good = True
                for key, c in phi.terms.items():
                    image, sgn = sort_with_sign([sigma[t] for t in key])
                    e = eps[key[0]] * eps[key[1]] * eps[key[2]] * eps[key[3]]
                    if e * sgn * phi.terms.get(image, 0) != c:
                        good = False
                        break
                if not good:
                    continue
                det = sort_with_sign(sigma)[1]
                for e in eps:
                    det *= e
                if det == 1:
                    brute += 1
            if not design_ok:
                assert brute == 0
            assert by_perm.get(sigma, 0) == brute

    def test_entries_are_signed_permutations(self):
        for m in signed_perm_symmetries(limit=40):
            for j in range(8):
                col = [m[i][j] for i in range(8)]
                nonzero = [c for c in col if c]
                assert len(nonzero) == 1 and nonzero[0] in (1, -1)


class TestLieSubalgebraInvariants:
    def test_rejects_dependent_basis(self):
        from spin7.stabilizers import LieSubalgebra

        a = antisym_unit(8, 0, 1)
        with pytest.raises(ValueError):
            LieSubalgebra("dup", 8, (a, 2 * a))

    def test_rejects_non_antisymmetric(self):
        from spin7.stabilizers import LieSubalgebra

        with pytest.raises(ValueError):
            LieSubalgebra("bad", 8, (Matrix.identity(8),))

    def test_spin7_contains_g2_embedding(self):
        sp = spin7()
        for b in g2_stabilizer().basis[:4]:
            assert sp.contains(embed_so7(b))
