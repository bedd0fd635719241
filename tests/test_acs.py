"""The seven almost complex structures and their span."""

import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from math import prod
from pathlib import Path

import pytest

from spin7 import acs
from spin7.acs import (
    ACS,
    ACSCertificationError,
    FrameNotAdmissible,
    NotUnitImaginary,
    acs_basis,
    acs_from_unit,
    acs_span_dim,
    build_acs,
    check_frame,
    composition_disagreement,
    matrix_for_label,
    rotated_acs_family,
    span_contains_matrix,
    span_stability,
    times_product,
)
from spin7.cross import CrossProduct, default_cross
from spin7.forms import AltForm, cayley_form, pullback, sort_with_sign
from spin7.linalg import Matrix, SignedPermutation, Vector, det, rank
from spin7.octonion import SignedUnit, default_table
from spin7.stabilizers import _term_permutations, signed_perm_symmetries, spin7

E = [Vector.basis(8, i) for i in range(8)]
I8 = Matrix.identity(8)


class TestBuildACS:
    def test_known_images(self):
        j1 = build_acs(1)
        assert j1(E[0]) == E[1]
        assert j1(E[4]) == E[5]
        assert j1.matrix @ j1.matrix == -I8

    def test_forced_slots(self):
        for lam in range(1, 8):
            j = build_acs(lam)
            assert j(E[0]) == E[lam]
            assert j(E[lam]) == -E[0]

    def test_all_certified(self):
        for j in acs_basis():
            assert j.matrix @ j.matrix == -I8
            assert j.matrix.is_antisymmetric()
            assert j.matrix.transpose() @ j.matrix == I8  # Hermitian metric

    def test_matches_cross_product(self):
        cp = default_cross()
        for lam in range(1, 8):
            j = build_acs(lam)
            for i in range(8):
                if i not in (0, lam):
                    assert j(E[i]) == cp.cross3(E[0], E[lam], E[i])

    def test_certification_rejects_bad_matrix(self):
        with pytest.raises(ACSCertificationError):
            ACS(Matrix.identity(8))
        good = acs_basis()[0].matrix
        # symmetric defect: J1 with one flipped sign
        rows = [list(r) for r in good.rows]
        rows[0][1] = -rows[0][1]
        with pytest.raises(ACSCertificationError):
            ACS(Matrix(rows))

    def test_bad_index(self):
        with pytest.raises(ValueError):
            build_acs(0)


class TestSpan:
    def test_dimension_seven(self):
        assert acs_span_dim() == 7
        assert rank([j.matrix.flatten() for j in acs_basis()]) == 7

    def test_membership(self):
        js = [j.matrix for j in acs_basis()]
        assert span_contains_matrix(2 * js[2] - js[4])
        combo = Matrix.zero(8, 8)
        for k, j in enumerate(js):
            combo = combo + j * Fraction(k + 1, 3)
        assert span_contains_matrix(combo)

    def test_non_membership(self):
        js = [j.matrix for j in acs_basis()]
        assert not span_contains_matrix(I8)
        assert not span_contains_matrix(js[0] @ js[1])
        near = js[0] + Matrix([[1 if (i, j) == (0, 0) else 0 for j in range(8)]
                               for i in range(8)])
        assert not span_contains_matrix(near)
        # J_1 plus 1/7 off column 0: column 0 still reads (0, 1, 0, ..., 0)
        off = js[0] + Matrix([[Fraction(1, 7) if (i, j) == (2, 3) else 0 for j in range(8)]
                              for i in range(8)])
        assert not span_contains_matrix(off)
        # column 0 is (0, c_1..c_7) of a member, one other support entry has the wrong sign
        member = sum((j * Fraction(k + 2, 5) for k, j in enumerate(js)), Matrix.zero(8, 8))
        rows = [list(row) for row in member.rows]
        assert rows[2][3]
        rows[2][3] = -rows[2][3]
        flipped = Matrix(rows)
        assert flipped.column(0) == member.column(0)
        assert not span_contains_matrix(flipped)

    def test_membership_matches_rank(self):
        rng = random.Random(1701)
        js = [j.matrix for j in acs_basis()]
        flats = [j.flatten() for j in js]
        for _ in range(20):
            m = Matrix.zero(8, 8)
            for j in js:
                m = m + j * Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            rows = [list(row) for row in m.rows]
            rows[rng.randrange(8)][rng.randrange(8)] += Fraction(1, rng.randint(1, 9))
            perturbed = Matrix(rows)
            assert rank(flats + [m.flatten()]) == 7 and span_contains_matrix(m)
            assert rank(flats + [perturbed.flatten()]) == 8
            assert not span_contains_matrix(perturbed)

    def test_clifford_anticommutation(self):
        js = [j.matrix for j in acs_basis()]
        for a in range(7):
            for b in range(7):
                anti = js[a] @ js[b] + js[b] @ js[a]
                assert anti == (-2 * I8 if a == b else Matrix.zero(8, 8))


class TestTimesProduct:
    def test_known_labels(self):
        assert times_product(1, 2) == SignedUnit(3, 1)
        assert times_product(1, 1) == SignedUnit(0, -1)
        assert times_product(2, 5) == SignedUnit(7, -1)

    def test_matches_table_for_all_pairs(self):
        table = default_table()
        for lam in range(1, 8):
            for mu in range(1, 8):
                assert times_product(lam, mu) == table.imaginary(lam, mu)

    def test_label_matrices(self):
        assert matrix_for_label(SignedUnit(0, -1)) == -I8
        assert matrix_for_label(SignedUnit(3, 1)) == acs_basis()[2].matrix


class TestCompositionDisagreement:
    def test_frozen_witness(self):
        w = composition_disagreement()
        assert (w.lam, w.mu, w.basis_index) == (1, 2, 4)
        assert w.composition == E[7]
        assert w.table == -E[7]

    def test_agreement_at_e0(self):
        js = acs_basis()
        composed = js[0].matrix @ (js[1].matrix @ E[0])
        assert composed == js[2].matrix @ E[0] == E[3]

    def test_square_agrees_with_table(self):
        j1 = acs_basis()[0].matrix
        assert j1 @ j1 == matrix_for_label(times_product(1, 1))


class TestACSFromUnit:
    def test_basis_direction(self):
        assert acs_from_unit(E[1]).matrix == acs_basis()[0].matrix

    def test_pythagorean_direction(self):
        u = Vector([0, Fraction(3, 5), Fraction(4, 5), 0, 0, 0, 0, 0])
        j = acs_from_unit(u)
        assert j.matrix @ j.matrix == -I8
        assert j.matrix @ E[0] == u

    def test_rejects_non_unit(self):
        with pytest.raises(NotUnitImaginary):
            acs_from_unit(E[1] + E[2])

    def test_rejects_real_component(self):
        with pytest.raises(NotUnitImaginary):
            acs_from_unit(E[0])

    def test_square_scales_with_norm(self):
        # (sum u_lam J_lam)^2 = -|u|^2 I for any u orthogonal to e0
        js = [j.matrix for j in acs_basis()]
        rng = random.Random(13)
        for _ in range(20):
            u = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(7)]
            m = Matrix.zero(8, 8)
            for lam, c in enumerate(u):
                if c:
                    m = m + js[lam] * c
            norm_sq = sum(c * c for c in u)
            assert m @ m == -norm_sq * I8


class TestSpanStability:
    def test_identity(self):
        assert span_stability(I8)

    def test_negated_identity(self):
        assert span_stability(-I8)

    def test_nontrivial_symmetry(self):
        for r in signed_perm_symmetries(limit=25):
            assert span_stability(r)

    def test_rotated_span_equals_standard_span(self):
        from spin7.linalg import subspace_equal

        r =signed_perm_symmetries(limit=20)[19]
        rotated = [m.flatten() for m in rotated_acs_family(r)]
        standard = [j.matrix.flatten() for j in acs_basis()]
        assert subspace_equal(rotated, standard)

    def test_rotated_family_certifies(self):
        r = signed_perm_symmetries(limit=10)[7]
        for m in rotated_acs_family(r):
            assert m @ m == -I8
            assert m.is_antisymmetric()

    def test_rejects_non_orthogonal(self):
        with pytest.raises(FrameNotAdmissible):
            span_stability(2 * I8)

    def test_rejects_orientation_reversal(self):
        flip = Matrix([[(-1 if i == j == 0 else (1 if i == j else 0))
                        for j in range(8)] for i in range(8)])
        with pytest.raises(FrameNotAdmissible):
            span_stability(flip)

    def test_rejects_non_preserving_signed_perm(self):
        rows = [[0] * 8 for _ in range(8)]
        perm = [1, 0] + list(range(2, 8))  # swap e0, e1: det -1... make det +1
        for i in range(8):
            rows[perm[i]][i] = 1
        rows[7][7] = -1  # restore det = +1 while breaking the form
        with pytest.raises(FrameNotAdmissible):
            span_stability(Matrix(rows))

    def test_rejects_exact_rotation_off_the_group(self):
        # a rational orthogonal rotation in the (1,2) plane, det +1, which
        # does not preserve the form; exercises the generic validation path
        rows = [[1 if i == j else 0 for j in range(8)] for i in range(8)]
        rows[1][1] = Fraction(3, 5)
        rows[1][2] = Fraction(-4, 5)
        rows[2][1] = Fraction(4, 5)
        rows[2][2] = Fraction(3, 5)
        with pytest.raises(FrameNotAdmissible):
            span_stability(Matrix(rows))


class TestSpanStabilityRoutes:
    """The label route taken by signed permutation frames and the dense
    route taken by every other frame give the same verdicts."""

    def test_lookup_agrees_with_dense_route(self):
        syms = signed_perm_symmetries()[::64]
        assert len(syms) == 336
        for r in syms:
            assert isinstance(r, SignedPermutation) and check_frame(r) is None
            sigma = tuple(row for row, _ in r.cols)
            assert acs._span_stable_sigma(sigma) is acs._span_stable_dense(r) is True

    def test_verdict_does_not_depend_on_signs(self):
        # J'_lam = eps_0 eps_lam K_lam(sigma): the verdict keyed on sigma is
        # the dense verdict for every sign vector, symmetry or not
        by_sigma: dict[tuple[int, ...], list] = {}
        for r in signed_perm_symmetries():
            by_sigma.setdefault(tuple(row for row, _ in r.cols), []).append(r)
        assert len(by_sigma) == 1344
        assert all(len(solutions) == 16 for solutions in by_sigma.values())
        for sigma in list(by_sigma)[::671]:
            solutions = by_sigma[sigma]
            verdict = acs._span_stable_sigma(sigma)
            for r in solutions:
                assert span_stability(r) is verdict
                assert acs._span_stable_dense(r) is verdict
            for bits in range(256):
                r = SignedPermutation(sigma, (-1 if bits >> i & 1 else 1 for i in range(8)))
                assert acs._span_stable_dense(r) is verdict

    def test_cayley_transform_frame_takes_dense_route(self):
        a = spin7().basis[0] * Fraction(1, 2)
        r = (I8 - a) @ (I8 + a).inverse()
        assert r.transpose() @ r == I8
        assert det(r) == 1
        assert pullback(cayley_form(), r) == cayley_form()
        assert sum(1 for row in r.rows for x in row if x) > 8
        assert check_frame(r) is None
        assert span_stability(r) is True

    @pytest.mark.parametrize("scale, unit_at", [
        (lambda key: 2, None), (lambda key: Fraction(1, 2), None),
        (lambda key: 1 if 0 in key else -3, 0),
    ], ids=["double", "half", "off-e0"])
    def test_label_route_passes_only_on_unit_products(self, monkeypatch, scale, unit_at):
        # sigma reads only the products P(e_sigma(0), ., .); with the terms
        # scaled by scale(key) these are all signed units exactly when
        # sigma(0) = unit_at, and no other of the 1344 sigma may pass
        acs._span_support()
        terms = {key: c * scale(key) for key, c in cayley_form().terms.items()}
        cp = CrossProduct(AltForm(4, terms))
        monkeypatch.setattr(acs, "default_cross", lambda: cp)
        sigmas = list(_term_permutations())
        passed = [s for s in sigmas if acs._span_stable_sigma.__wrapped__(s)]
        assert passed == [s for s in sigmas if s[0] == unit_at]

    def test_flipped_form_fails_on_both_routes(self):
        # the sign of e^{0123} flipped before first use, in a fresh process
        script = """
import json
import spin7.forms as forms
forms._CAYLEY_TERMS[(0, 1, 2, 3)] = -1
from spin7 import acs
from spin7.stabilizers import signed_perm_symmetries
from spin7.verify import suite_claim3
report = suite_claim3()
syms = signed_perm_symmetries()
for r in syms:
    acs.check_frame(r)
print(json.dumps({
    "verdict": report.verdict,
    "failed": [f["inputs"] for f in report.failures],
    "lookup": [acs._span_stable_sigma(tuple(s for s, _ in r.cols)) for r in syms],
    "dense": [acs._span_stable_dense(r) for r in syms],
}))
"""
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1")
        done = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        out = json.loads(done.stdout)
        assert out["verdict"] == "fail"
        assert len(out["lookup"]) == 1536
        assert out["lookup"].count(False) == 1152
        assert out["lookup"] == out["dense"]
        rejected = [f"symmetry {k}" for k, ok in enumerate(out["lookup"]) if not ok]
        assert [f for f in out["failed"] if f.startswith("symmetry ")] == rejected


class TestCheckFrameSignedPermutations:
    @staticmethod
    def admitted(r):
        try:
            check_frame(r)
        except FrameNotAdmissible:
            return False
        return True

    def test_agrees_with_pullback(self):
        phi = cayley_form()
        syms = signed_perm_symmetries(limit=50)
        for r in syms:
            assert self.admitted(r) and pullback(phi, r) == phi
        # flipping two columns keeps det = +1, so the form check decides
        for k, r in enumerate(syms[:8]):
            rows = [list(row) for row in r.rows]
            for row in rows:
                row[k] = -row[k]
                row[(k + 1) % 8] = -row[(k + 1) % 8]
            flipped = Matrix(rows)
            assert pullback(phi, flipped) != phi
            assert not self.admitted(flipped)

    def test_accepts_exactly_the_searched_signs(self):
        # check_frame's 14-term check and the search's sign table agree on
        # all 256 sign vectors of 3 symmetric and 2 other permutations
        searched: dict[tuple[int, ...], set] = {}
        for r in signed_perm_symmetries():
            searched.setdefault(tuple(s for s, _ in r.cols), set()).add(
                tuple(e for _, e in r.cols))
        inside = list(searched)[::500]
        outside = [(1, 0, 2, 3, 4, 5, 6, 7), (0, 1, 2, 3, 4, 5, 7, 6)]
        assert len(inside) == 3 and not set(outside) & set(searched)
        for sigma in inside + outside:
            parity = sort_with_sign(sigma)[1]
            accepted = set()
            for bits in range(256):
                eps = tuple(-1 if bits >> i & 1 else 1 for i in range(8))
                try:
                    check_frame(SignedPermutation(sigma, eps))
                except FrameNotAdmissible as exc:
                    # orientation is checked first, from the parity of sigma
                    assert ("orientation" in str(exc)) is (parity * prod(eps) == -1)
                else:
                    accepted.add(eps)
            assert accepted == searched.get(sigma, set())
            assert len(accepted) == (16 if sigma in searched else 0)


class TestCarriedLabels:
    """The symmetries carry their (sigma(i), eps_i) labels; the labels, the
    rows and the frame checks stay consistent."""

    def test_labels_agree_with_rows(self):
        syms = signed_perm_symmetries()
        assert len(syms) == 21504
        for r in syms:
            m = Matrix(r.rows)
            assert m == r and hash(m) == hash(r)
        # a plain copy takes the dense route of both checks
        for r in syms[::64]:
            m = Matrix(r.rows)
            assert check_frame(m) is None
            assert span_stability(m) is True
        first = signed_perm_symmetries(limit=5)
        assert first == syms[:5]
        assert [r.to_json_obj() for r in first] == [Matrix(r.rows).to_json_obj() for r in first]

    def test_label_route_builds_no_rows(self):
        # check_frame and span_stability read sigma and eps only; the rows
        # of a symmetry are built on first read, for ==, hash, JSON and the CLI
        syms = signed_perm_symmetries()
        assert len(syms) == 21504
        assert all(span_stability(r) for r in syms)
        assert [k for k, r in enumerate(syms) if r._rows is not None] == []
        assert syms[0].rows == I8.rows and syms[0]._rows is not None

    def test_check_frame_checks_carried_labels(self):
        cols = list(signed_perm_symmetries(limit=8)[7].cols)
        sigma = [s for s, _ in cols]
        # two flipped signs keep det = +1, so the form check must reject
        two = [-e if i in (2, 5) else e for i, (_, e) in enumerate(cols)]
        with pytest.raises(FrameNotAdmissible, match="does not preserve the form"):
            check_frame(SignedPermutation(sigma, two))
        # one flipped sign gives det = -1
        one = [-e if i == 2 else e for i, (_, e) in enumerate(cols)]
        with pytest.raises(FrameNotAdmissible, match="orientation"):
            check_frame(SignedPermutation(sigma, one))
        r = SignedPermutation(sigma, (e for _, e in cols))
        assert check_frame(r) is None and r.cols == tuple(cols)

    def test_rejects_malformed_labels(self):
        for sigma, eps in (([0] * 8, [1] * 8), (range(8), [2] * 8),
                           (range(-1, 7), [1] * 8), (range(1, 9), [1] * 8),
                           (range(8), [1] * 7)):
            with pytest.raises(ValueError):
                SignedPermutation(sigma, eps)


class TestInducedProductIdentity:
    def test_p_of_two_units_vs_table_acs(self):
        # recorded outcome: P(e_lam, e_mu, v) = J_(lam x mu) v holds exactly
        # when v avoids e_lam and e_mu (where the left side is forced to 0 by
        # alternation); 252 of the 336 ordered cases hold
        cp = default_cross()
        holds = 0
        fail_slots = set()
        for lam in range(1, 8):
            for mu in range(1, 8):
                if lam == mu:
                    continue
                jmat = matrix_for_label(times_product(lam, mu))
                for v in range(8):
                    left = cp.cross3(E[lam], E[mu], E[v])
                    right = jmat @ E[v]
                    if left == right:
                        holds += 1
                    else:
                        fail_slots.add("lam" if v == lam else ("mu" if v == mu else "other"))
                        assert left.is_zero()
        assert holds == 252
        assert fail_slots == {"lam", "mu"}
