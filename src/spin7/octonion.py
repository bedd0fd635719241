"""Octonion arithmetic with the unit product table derived from the 4-form.

The table of imaginary-unit products is always computed from the form via
the induced triple cross product, never hard-coded, so printed tables stay
consistent with the form the library actually uses. A negative table label
-nu always means the sign-flipped basis vector -e_nu.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from typing import Iterable, NamedTuple

from .cross import CrossProduct, default_cross
from .forms import AltForm
from .linalg import Vector, clear_denominators


class SignedUnit(NamedTuple):
    """A basis index 0..7 together with a sign, standing for sign * e_index."""

    index: int
    sign: int

    def __neg__(self) -> "SignedUnit":
        return SignedUnit(self.index, -self.sign)

    def as_vector(self, dim: int = 8) -> Vector:
        return Vector(
            (1 if self.sign > 0 else -1) if k == self.index else 0
            for k in range(dim)
        )

    def as_text(self) -> str:
        return f"{'+' if self.sign > 0 else '-'}{self.index}"


class NotSingleBasisVector(ValueError):
    """The triple product of two frame units was not a signed basis vector.

    Signals an input 4-form that does not carry a Cayley structure.
    """


class UnitTable:
    """7x7 signed product table of the imaginary units e_1..e_7.

    Every off-diagonal product is a signed basis unit +/-e_nu with
    nu not in {0, lam, mu}; the diagonal is fixed to -e_0 and swapping lam
    and mu flips the sign of every off-diagonal entry. ``products[i][j]``
    is the full unit product e_i * e_j for i, j in 0..7, with e_0 the unit:
    the one place where the unit and diagonal rules are written.
    """

    __slots__ = ("entries", "products")

    def __init__(self, entries: dict[tuple[int, int], SignedUnit]):
        for lam in range(1, 8):
            for mu in range(1, 8):
                if lam == mu:
                    continue
                unit = entries.get((lam, mu))
                if unit is None:
                    raise ValueError(f"missing table entry ({lam},{mu})")
                if unit.index in (0, lam, mu):
                    raise NotSingleBasisVector(
                        f"product ({lam},{mu}) hit forbidden index {unit.index}"
                    )
                if entries[(mu, lam)] != -unit:
                    raise ValueError(f"entries ({lam},{mu}) and ({mu},{lam}) are not opposite")
        self.entries = dict(entries)
        self.products = tuple(
            tuple(SignedUnit(i + j, 1) if 0 in (i, j) else SignedUnit(0, -1) if i == j
                  else self.entries[(i, j)] for j in range(8))
            for i in range(8))

    @classmethod
    def from_form(cls, phi: AltForm | None = None) -> "UnitTable":
        """Read the table entries e_lam * e_mu = P(e_0, e_lam, e_mu) off the
        basis products of the form's cross product (:attr:`CrossProduct.products`;
        the shared :func:`default_cross` when phi is None).

        Each product of distinct imaginary frame units must be a single
        signed basis vector; anything else raises :class:`NotSingleBasisVector`.
        """
        products = (default_cross() if phi is None else CrossProduct(phi)).products
        entries: dict[tuple[int, int], SignedUnit] = {}
        for lam in range(1, 8):
            for mu in range(1, 8):
                if lam == mu:
                    continue
                support = products.get((0, lam, mu), ())
                if len(support) != 1 or abs(support[0][1]) != 1:
                    raise NotSingleBasisVector(
                        f"P(e0,e{lam},e{mu}) = {support} is not a signed basis vector"
                    )
                nu, c = support[0]
                entries[(lam, mu)] = SignedUnit(nu, 1 if c > 0 else -1)
        return cls(entries)

    def product(self, i: int, j: int) -> SignedUnit:
        """Full unit product e_i * e_j for i, j in 0..7 (e_0 is the unit)."""
        if not (0 <= i < 8 and 0 <= j < 8):
            raise ValueError("unit indices must lie in 0..7")
        return self.products[i][j]

    def imaginary(self, lam: int, mu: int) -> SignedUnit:
        """Table entry for imaginary units lam, mu in 1..7 (diagonal: -e_0)."""
        if not (1 <= lam < 8 and 1 <= mu < 8):
            raise ValueError("imaginary unit indices must lie in 1..7")
        return self.products[lam][mu]

    def structure_constant(self, lam: int, mu: int, nu: int) -> int:
        """Coefficient of e_nu in e_lam * e_mu for distinct lam, mu in 1..7."""
        unit = self.imaginary(lam, mu)
        return unit.sign if (lam != mu and unit.index == nu) else 0

    def as_text(self) -> str:
        header = "x|" + "".join(f"{mu:>5}" for mu in range(1, 8))
        lines = [header, "-" * len(header)]
        for lam in range(1, 8):
            cells = []
            for mu in range(1, 8):
                unit = self.imaginary(lam, mu)
                cells.append(f"{'+' if unit.sign > 0 else '-'}e{unit.index:<2}")
            lines.append(f"{lam}|" + "".join(f"{c:>5}" for c in cells))
        return "\n".join(lines)

    def as_csv(self) -> str:
        lines = ["x," + ",".join(str(mu) for mu in range(1, 8))]
        for lam in range(1, 8):
            cells = [self.imaginary(lam, mu).as_text() for mu in range(1, 8)]
            lines.append(f"{lam}," + ",".join(cells))
        return "\n".join(lines)

    def as_json_obj(self) -> dict[str, str]:
        return {
            f"{lam},{mu}": self.imaginary(lam, mu).as_text()
            for lam in range(1, 8)
            for mu in range(1, 8)
        }


@cache
def default_table() -> UnitTable:
    """The unit table of the Cayley form."""
    return UnitTable.from_form()


class Octonion(Vector):
    """Octonion with exact rational components; component 0 is the real part.

    An octonion is a length-8 :class:`Vector`: it shares the vector sum,
    negation, scalar multiples and equality, and adds the octonion product.
    """

    __slots__ = ()

    def __init__(self, comps: Iterable):
        super().__init__(comps)
        if len(self.comps) != 8:
            raise ValueError("an octonion has 8 components")

    @classmethod
    def unit(cls, i: int) -> "Octonion":
        return cls.basis(8, i)

    def __mul__(self, other):
        if isinstance(other, Octonion):
            return oct_mul(self, other)
        return super().__mul__(other)

    def conjugate(self) -> "Octonion":
        return Octonion((self.comps[0],) + tuple(-a for a in self.comps[1:]))

    def norm_sq(self) -> Fraction:
        return sum(a * a for a in self.comps)

    def __repr__(self) -> str:
        return f"Octonion([{', '.join(str(c) for c in self.comps)}])"

    __str__ = __repr__


def oct_mul(x: Octonion, y: Octonion) -> Octonion:
    """Bilinear product extending the unit table, with e_0 the two-sided unit.

    x and y are cleared of denominators once, the products of their nonzero
    components accumulate in Python ints over the table, and the result is
    divided once at the end; every integral component is an int, as in
    :meth:`CrossProduct.cross3` when the denominator is 1.
    """
    products = default_table().products
    (dx, xs), (dy, ys) = clear_denominators(x.nonzero()), clear_denominators(y.nonzero())
    out = [0] * 8
    for i, a in xs:
        row = products[i]
        for j, b in ys:
            m, sign = row[j]
            out[m] += sign * a * b
    den = dx * dy
    if den == 1:
        return Octonion(out)
    return Octonion(Fraction(t, den) if t % den else t // den for t in out)


def associator(x: Octonion, y: Octonion, z: Octonion) -> Octonion:
    """(xy)z - x(yz); identically zero on any pair of equal arguments."""
    return oct_mul(oct_mul(x, y), z) - oct_mul(x, oct_mul(y, z))
