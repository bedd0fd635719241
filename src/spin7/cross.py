"""Triple cross product induced by a 4-form, and the rank-2 product on e0-perp.

The product is defined through the duality g(P(a,b,c), x) = phi(a,b,c,x).
Everything is read in an orthonormal frame, where g is the dot product and
component m of P(a,b,c) is the plain form evaluation phi(a,b,c,e_m). The
induced product P(e0, ., .) on the orthogonal complement of e_0 determines
a 3-form on indices 1..7 whose coefficients are the structure constants of
the unit product table.
"""

from __future__ import annotations

import random
from collections.abc import Sequence
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from math import lcm

from .forms import AltForm, cayley_form, signed_coefficients
from .linalg import Vector, gram_det


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
class LemmaReport:
    """Outcome of a composition-rule sweep."""

    cases: int = 0
    failures: list[dict] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def _cleared(entries: Sequence[tuple[object, Fraction]]) -> tuple[int, list[tuple]]:
    """(d, [(k, d * c), ...]) for entries (k, c), d the lcm of the
    denominators, so every scaled value is an int."""
    d = lcm(*(c.denominator for _, c in entries))
    return d, [(k, c.numerator * (d // c.denominator)) for k, c in entries]


class CrossProduct:
    """The alternating triple product dual to a 4-form under the dot product.

    ``phi_signed`` is the form's cached :func:`signed_coefficients` table;
    every signed coefficient lookup on phi reads it.
    """

    def __init__(self, phi: AltForm | None = None):
        phi = phi if phi is not None else cayley_form()
        if phi.degree != 4:
            raise ValueError("the inducing form must have degree 4")
        self.phi = phi
        self.phi_signed = signed_coefficients(phi)
        self._basis = tuple(Vector.basis(8, i) for i in range(8))
        self._unit_products: dict[tuple[int, int, int], Vector] = {}
        # the dense kernel's table (i, j, k) -> ((m, c), ...) holds the signed
        # coefficients times self._scale, the lcm of their denominators
        self._scale, scaled = _cleared(tuple(self.phi_signed.items()))
        self._triples: dict[tuple[int, int, int], tuple[tuple[int, int], ...]] = {}
        for (i, j, k, m), c in scaled:
            self._triples[(i, j, k)] = self._triples.get((i, j, k), ()) + ((m, c),)

    def cross3(self, a: Vector, b: Vector, c: Vector) -> Vector:
        """The unique vector with g(result, e_i) = phi(a, b, c, e_i) for all i.

        Three single-entry arguments read a cached unit product. Any other
        input runs an integer kernel: each argument's denominators are
        cleared once, the products accumulate in Python ints over the
        signed table (i, j, k) -> ((m, c), ...), and the sum is divided
        once at the end.
        """
        na, nb, nc = a.nonzero(), b.nonzero(), c.nonzero()
        if len(na) == 1 and len(nb) == 1 and len(nc) == 1:
            (i, ca), (j, cb), (k, cc) = na[0], nb[0], nc[0]
            base = self._unit_products.get((i, j, k))
            if base is None:
                base = Vector([self.phi_signed.get((i, j, k, m), 0) for m in range(8)])
                self._unit_products[(i, j, k)] = base
            w = ca * cb * cc
            return base if w == 1 else base * w
        (da, na), (db, nb), (dc, nc) = _cleared(na), _cleared(nb), _cleared(nc)
        tab = self._triples
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
        den = da * db * dc * self._scale
        return Vector(acc if den == 1 else [Fraction(t, den) for t in acc])

    def check_compatibility(self, a: Vector, b: Vector, c: Vector) -> CompatibilityReport:
        """Residuals of orthogonality to each argument and of the norm identity.

        All residuals are exactly zero for a compatible product.
        """
        p = self.cross3(a, b, c)
        return CompatibilityReport(
            orthogonality=(p.dot(a), p.dot(b), p.dot(c)),
            norm_residual=p.dot(p) - gram_det([a, b, c]),
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
        """The 12-term right side of the composition rule.

        Uses the pairing g(x^y, s^t) = g(x,s)g(y,t) - g(x,t)g(y,s) verbatim,
        including its index order in the w^u term.
        """
        g = Vector.dot
        phi = self.phi.evaluate

        def wedge_pair(x: Vector, y: Vector, s: Vector, t: Vector) -> Fraction:
            return g(x, s) * g(y, t) - g(x, t) * g(y, s)

        acc = [0] * 8

        def add(scalar: Fraction, vec: Vector) -> None:
            if scalar:
                for i, c in vec.nonzero():
                    acc[i] += scalar * c

        add(-wedge_pair(a, b, u, v) - phi([a, b, u, v]), w)
        s = g(b, w)
        if s:
            add(s, self.cross3(a, u, v))
        s = g(a, w)
        if s:
            add(-s, self.cross3(b, u, v))

        add(-wedge_pair(a, b, v, w) - phi([a, b, v, w]), u)
        s = g(b, u)
        if s:
            add(s, self.cross3(a, v, w))
        s = g(a, u)
        if s:
            add(-s, self.cross3(b, v, w))

        add(-wedge_pair(a, b, w, u) - phi([a, b, w, u]), v)
        s = g(b, v)
        if s:
            add(s, self.cross3(a, w, u))
        s = g(a, v)
        if s:
            add(-s, self.cross3(b, w, u))

        return Vector(acc)


@cache
def default_cross() -> CrossProduct:
    """Cross product of the Cayley form."""
    return CrossProduct()


def verify_compatibility() -> LemmaReport:
    """Check the orthogonality and norm identities on all 8^3 ordered basis
    triples plus 100 deterministic pseudo-random rational triples."""
    cp = default_cross()
    basis = [Vector.basis(8, i) for i in range(8)]
    report = LemmaReport()
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
                    "lhs": f"({', '.join(str(x) for x in res.orthogonality)})",
                    "rhs": str(res.norm_residual),
                }
            )
    return report


def verify_composition_lemma() -> LemmaReport:
    """Sweep the composition rule over all 8^5 = 32768 ordered basis
    5-tuples, which by multilinearity of both sides covers all inputs."""
    cp = default_cross()
    report = LemmaReport()
    # Exhaustive basis sweep with precomputed basis products; identical to
    # calling composition_sides directly, just without re-deriving basis
    # values 32768 times. On basis vectors g(e_x, e_y) is x == y.
    basis = [Vector.basis(8, i) for i in range(8)]
    ptab: dict[tuple[int, int, int], Vector] = {}
    for i in range(8):
        for j in range(8):
            for k in range(8):
                ptab[(i, j, k)] = cp.cross3(basis[i], basis[j], basis[k])
    phi_tab = cp.phi_signed
    zero = Vector.zero(8)
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
                        gaw = int(a == w)
                        gbw = int(b == w)
                        inner = ptab[(u, v, w)]
                        lhs = zero
                        for m, c in inner.nonzero():
                            term = ptab[(a, b, m)]
                            lhs = lhs + (term if c == 1 else term * c)
                        acc = [0] * 8
                        c1 = -(gau * gbv - gav * gbu) - phi_tab.get((a, b, u, v), 0)
                        if c1:
                            acc[w] += c1
                        if gbw:
                            for m, c in ptab[(a, u, v)].nonzero():
                                acc[m] += gbw * c
                        if gaw:
                            for m, c in ptab[(b, u, v)].nonzero():
                                acc[m] -= gaw * c
                        c2 = -(gav * gbw - gaw * gbv) - phi_tab.get((a, b, v, w), 0)
                        if c2:
                            acc[u] += c2
                        if gbu:
                            for m, c in ptab[(a, v, w)].nonzero():
                                acc[m] += gbu * c
                        if gau:
                            for m, c in ptab[(b, v, w)].nonzero():
                                acc[m] -= gau * c
                        c3 = -(gaw * gbu - gau * gbw) - phi_tab.get((a, b, w, u), 0)
                        if c3:
                            acc[v] += c3
                        if gbv:
                            for m, c in ptab[(a, w, u)].nonzero():
                                acc[m] += gbv * c
                        if gav:
                            for m, c in ptab[(b, w, u)].nonzero():
                                acc[m] -= gav * c
                        if lhs.comps != tuple(acc):
                            report.failures.append(
                                {
                                    "inputs": f"(e{a}; e{b}; e{u}; e{v}; e{w})",
                                    "lhs": str(lhs),
                                    "rhs": str(Vector(acc)),
                                }
                            )
    return report
