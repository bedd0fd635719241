"""Triple cross product induced by a 4-form, and the rank-2 product on e0-perp.

The product is defined through the duality g(P(a,b,c), x) = phi(a,b,c,x).
Everything is read in an orthonormal frame, where g is the dot product and
component m of P(a,b,c) is the plain form evaluation phi(a,b,c,e_m). The
induced product P(e0, ., .) on the orthogonal complement of e_0 determines
a 3-form on indices 1..7 whose coefficients are the structure constants of
the unit product table.

The two basis sweeps return the axioms and lemma suites' :class:`VerdictReport`,
the one verdict record of :mod:`spin7.verify`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache

from .forms import AltForm, cayley_form, signed_coefficients
from .linalg import Vector, clear_denominators


class InputNotInE0Perp(ValueError):
    """An argument of the rank-2 product had a nonzero e_0 component."""


@dataclass(frozen=True)
class CompatibilityReport:
    """Exact residuals of the orthogonality and norm identities."""

    orthogonality: tuple[Fraction, Fraction, Fraction]
    norm_residual: Fraction

    @property
    def ok(self) -> bool:
        return not any(self.orthogonality) and not self.norm_residual


@dataclass
class VerdictReport:
    """A suite's case count and failures, each {inputs, expected, actual}."""

    suite: str
    cases: int = 0
    failures: list[dict] = field(default_factory=list)
    metadata: dict = field(default_factory=dict)
    details: dict | None = None

    @property
    def verdict(self) -> str:
        return "pass" if not self.failures else "fail"

    def check(self, ok: bool, inputs: str, expected: str, actual: str) -> None:
        self.cases += 1
        if not ok:
            self.failures.append(
                {"inputs": inputs, "expected": expected, "actual": actual}
            )

    def to_json_obj(self) -> dict:
        obj = {
            "suite": self.suite,
            "cases": self.cases,
            "failures": self.failures,
            "verdict": self.verdict,
            "metadata": self.metadata,
        }
        if self.details is not None:
            obj["details"] = self.details
        return obj


class CrossProduct:
    """The alternating triple product dual to a 4-form under the dot product.

    ``phi_signed`` is the form's cached :func:`signed_coefficients` table;
    every signed coefficient lookup on phi reads it.

    ``products`` is the one table of basis products: (i, j, k) ->
    ((m, c), ...), ascending in m, with P(e_i, e_j, e_k) the sum of c e_m in
    the form's own coefficients; zero products are absent.
    """

    def __init__(self, phi: AltForm | None = None):
        phi = phi if phi is not None else cayley_form()
        if phi.degree != 4:
            raise ValueError("the inducing form must have degree 4")
        self.phi = phi
        self.phi_signed = signed_coefficients(phi)
        self._basis = tuple(Vector.basis(8, i) for i in range(8))
        self.products: dict[tuple[int, int, int], tuple[tuple[int, int | Fraction], ...]] = {}
        for (i, j, k, m), c in sorted(self.phi_signed.items()):
            self.products[(i, j, k)] = self.products.get((i, j, k), ()) + ((m, c),)

    def cross3(self, a: Vector, b: Vector, c: Vector) -> Vector:
        """The unique vector with g(result, e_i) = phi(a, b, c, e_i) for all i.

        Every input runs one integer kernel (:meth:`_cross3_ints`) and is
        divided once at the end.
        """
        _, acc, den = self._cross3_ints(a, b, c)
        return Vector(acc if den == 1 else [Fraction(t, den) for t in acc])

    def _cross3_ints(self, a: Vector, b: Vector, c: Vector) -> tuple[list, list, int]:
        """(cleared, q, D) with P(a, b, c) = q / D: each argument's
        denominators are cleared once, as (d, [(k, d x_k), ...]) in
        ``cleared``, the products accumulate over :attr:`products` (in Python
        ints when the form's coefficients are ints), and D is the product of
        the three d."""
        cleared = [clear_denominators(t.nonzero()) for t in (a, b, c)]
        (da, na), (db, nb), (dc, nc) = cleared
        tab = self.products
        acc = [0] * 8
        for i, x in na:
            for j, y in nb:
                if j == i:
                    continue
                xy = x * y
                for k, z in nc:
                    hit = tab.get((i, j, k))
                    if hit:
                        w = xy * z
                        for m, co in hit:
                            acc[m] += w * co
        return cleared, acc, da * db * dc

    def check_compatibility(self, a: Vector, b: Vector, c: Vector) -> CompatibilityReport:
        """Residuals of orthogonality to each argument and of the norm identity,
        (g(p, a), g(p, b), g(p, c)) and |p|^2 - det Gram(a, b, c) for p =
        P(a, b, c). All residuals are exactly zero for a compatible product.

        They are computed in integers on an integer form: with a = A / da,
        ... and p = q / D from the cross3 kernel, the pairings q.A and q.q and
        the Gram determinant of A, B and C are integer sums, and each residual
        is one Fraction.
        """
        cleared, q, den = self._cross3_ints(a, b, c)
        vecs = [dict(entries) for _, entries in cleared]
        (g00, g01, g02), (_, g11, g12), (_, _, g22) = (
            [sum(x * v.get(k, 0) for k, x in u.items()) for v in vecs] for u in vecs)
        gram = (g00 * (g11 * g22 - g12 * g12) - g01 * (g01 * g22 - g12 * g02)
                + g02 * (g01 * g12 - g11 * g02))
        return CompatibilityReport(
            orthogonality=tuple(Fraction(sum(q[k] * x for k, x in entries), den * d)
                                for d, entries in cleared),
            norm_residual=Fraction(sum(t * t for t in q) - gram, den * den),
        )

    def cross2(self, u: Vector, v: Vector) -> Vector:
        """Induced rank-2 product P(e0, u, v) on the complement of e_0."""
        if u[0] or v[0]:
            bad = "first" if u[0] else "second"
            raise InputNotInE0Perp(f"{bad} argument has a nonzero e0 component")
        return self.cross3(self._basis[0], u, v)

    def associative_form(self) -> AltForm:
        """The 3-form on indices 1..7 given by (x,y,z) -> phi(e0,x,y,z)."""
        terms = {}
        for key, c in self.phi.terms.items():
            if key[0] == 0:
                terms[key[1:]] = c
        return AltForm(3, terms)

    def composition_sides(
        self, a: Vector, b: Vector, u: Vector, v: Vector, w: Vector
    ) -> tuple[Vector, Vector]:
        """Left side P(a,b,P(u,v,w)) and the 12-term expansion it must equal."""
        lhs = self.cross3(a, b, self.cross3(u, v, w))
        return lhs, self.composition_rhs(a, b, u, v, w)

    def composition_rhs(
        self, a: Vector, b: Vector, u: Vector, v: Vector, w: Vector
    ) -> Vector:
        """The 12-term right side of the composition rule (see
        :func:`_composition_block`)."""
        g, phi = Vector.dot, self.phi.evaluate
        uvw = (u, v, w)
        return Vector(_composition_block(
            a, b, uvw,
            (g(a, u), g(a, v), g(a, w)),
            (g(b, u), g(b, v), g(b, w)),
            [phi([a, b, uvw[x], uvw[y]]) for x, y, _ in _ROTATIONS],
            [t.nonzero() for t in uvw],
            lambda s, x, y: self.cross3(s, x, y).nonzero(),
        ))


# the cyclic rotations (x, y, z) of (u, v, w), as positions in (u, v, w)
_ROTATIONS = ((0, 1, 2), (1, 2, 0), (2, 0, 1))


def _composition_block(a, b, uvw, ga, gb, phis, nz, p) -> list:
    """The right side of the composition rule P(a, b, P(u, v, w)) = ..., as
    8 components: the sum over the cyclic rotations (x, y, z) of (u, v, w)
    of the block

        -(g(a,x)g(b,y) - g(a,y)g(b,x) + phi(a,b,x,y)) z
            + g(b,z) P(a,x,y) - g(a,z) P(b,x,y).

    The first bracket is the pairing g(a^b, x^y) of 2-vectors. The
    rotations are (u, v, w), (v, w, u) and (w, u, v); the last keeps the
    paper's (w, u) index order. ``a``, ``b`` and ``uvw`` are whatever
    ``p`` takes, ``ga`` and ``gb`` are (g(a,u), g(a,v), g(a,w)) and
    (g(b,u), g(b,v), g(b,w)), ``phis`` holds phi(a,b,x,y) in rotation
    order, ``nz`` the nonzero entries of u, v and w, and ``p(s, x, y)``
    the nonzero entries of P(s, x, y). Both the dense route
    (:meth:`CrossProduct.composition_rhs`) and the basis sweep
    (:func:`verify_composition_lemma`) call it.
    """
    acc = [0] * 8
    for r, (x, y, z) in enumerate(_ROTATIONS):
        s = -(ga[x] * gb[y] - ga[y] * gb[x] + phis[r])
        if s:
            for m, c in nz[z]:
                acc[m] += s * c
        s = gb[z]
        if s:
            for m, c in p(a, uvw[x], uvw[y]):
                acc[m] += s * c
        s = ga[z]
        if s:
            for m, c in p(b, uvw[x], uvw[y]):
                acc[m] -= s * c
    return acc


@cache
def default_cross() -> CrossProduct:
    """Cross product of the Cayley form."""
    return CrossProduct()


def verify_compatibility() -> VerdictReport:
    """The axioms suite's report: the orthogonality and norm identities on
    all 8^3 ordered basis triples plus 100 deterministic pseudo-random
    rational triples."""
    cp = default_cross()
    basis = [Vector.basis(8, i) for i in range(8)]
    report = VerdictReport("axioms")
    triples = [(a, b, c) for a in basis for b in basis for c in basis]
    rng = random.Random(8)
    extra = [
        Vector(Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(8))
        for _ in range(300)
    ]
    triples += [tuple(extra[3 * k: 3 * k + 3]) for k in range(100)]
    for a, b, c in triples:
        report.cases += 1
        res = cp.check_compatibility(a, b, c)
        if not res.ok:
            report.failures.append(
                {
                    "inputs": f"({a}; {b}; {c})",
                    "expected": "zero residuals",
                    "actual": f"({', '.join(map(str, res.orthogonality))}), {res.norm_residual}",
                }
            )
    return report


def verify_composition_lemma() -> VerdictReport:
    """The lemma suite's report: the composition rule over all 8^5 = 32768
    ordered basis 5-tuples, which by multilinearity of both sides covers all
    inputs. A failure expects the right side and gets the left."""
    cp = default_cross()
    report = VerdictReport("lemma")
    # Both sides read a table of the 512 basis products P(e_i, e_j, e_k),
    # flattened to 64 i + 8 j + k. On basis vectors g(e_x, e_y) is x == y.
    basis = [Vector.basis(8, i) for i in range(8)]
    ptab = [
        cp.cross3(basis[i], basis[j], basis[k]).nonzero()
        for i in range(8) for j in range(8) for k in range(8)
    ]

    def p(s: int, x: int, y: int) -> tuple:
        return ptab[64 * s + 8 * x + y]

    units = [((i, 1),) for i in range(8)]
    phi = cp.phi_signed.get
    for a in range(8):
        for b in range(8):
            for u in range(8):
                gau = int(a == u)
                gbu = int(b == u)
                for v in range(8):
                    gav = int(a == v)
                    gbv = int(b == v)
                    for w in range(8):
                        report.cases += 1
                        lhs = [0] * 8
                        for m, c in ptab[64 * u + 8 * v + w]:
                            for n, d in ptab[64 * a + 8 * b + m]:
                                lhs[n] += c * d
                        rhs = _composition_block(
                            a, b, (u, v, w),
                            (gau, gav, int(a == w)),
                            (gbu, gbv, int(b == w)),
                            (phi((a, b, u, v), 0), phi((a, b, v, w), 0),
                             phi((a, b, w, u), 0)),
                            (units[u], units[v], units[w]),
                            p,
                        )
                        if lhs != rhs:
                            report.failures.append(
                                {
                                    "inputs": f"(e{a}; e{b}; e{u}; e{v}; e{w})",
                                    "expected": str(Vector(rhs)),
                                    "actual": str(Vector(lhs)),
                                }
                            )
    return report
