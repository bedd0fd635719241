"""Exact rational arithmetic the benchmark checks the program against.

Nothing here imports ``spin7``: the Cayley form is restated from its 14
terms, and every identity the gates rely on (the triple product, the unit
table, determinants, form pullback) is recomputed from that alone.
Vectors are tuples of 8 rationals and matrices are tuples of row tuples.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import lcm

# The Cayley 4-form on 8-space: increasing index quadruple -> coefficient.
PHI: dict[tuple[int, ...], int] = {
    (0, 1, 2, 3): 1, (0, 1, 4, 5): 1, (0, 1, 6, 7): 1, (0, 2, 4, 6): 1,
    (0, 2, 5, 7): -1, (0, 3, 4, 7): -1, (0, 3, 5, 6): -1, (1, 2, 4, 7): -1,
    (1, 2, 5, 6): -1, (1, 3, 4, 6): -1, (1, 3, 5, 7): 1, (2, 3, 4, 5): 1,
    (2, 3, 6, 7): 1, (4, 5, 6, 7): 1,
}

QUADS = tuple(combinations(range(8), 4))
PAIRS = tuple(combinations(range(8), 2))
# 4x4 Laplace expansion along the first two rows: their column positions,
# the remaining positions, and the sign
_SPLITS = tuple(
    ((p, q), tuple(i for i in range(4) if i not in (p, q)), -1 if (1 + p + q) % 2 else 1)
    for p, q in combinations(range(4), 2)
)


def sort_sign(seq) -> tuple[tuple[int, ...], int]:
    """Sorted tuple and permutation sign; sign 0 when an index repeats."""
    idx = list(seq)
    sign = 1
    for i in range(len(idx)):
        for j in range(len(idx) - 1 - i):
            if idx[j] > idx[j + 1]:
                idx[j], idx[j + 1] = idx[j + 1], idx[j]
                sign = -sign
    if len(set(idx)) != len(idx):
        return tuple(idx), 0
    return tuple(idx), sign


def phi_signed(seq) -> int:
    key, sign = sort_sign(seq)
    return sign * PHI.get(key, 0)


def det(rows) -> Fraction:
    """Determinant by Gaussian elimination over the rationals."""
    m = [[Fraction(x) for x in r] for r in rows]
    n = len(m)
    result = Fraction(1)
    for c in range(n):
        piv = next((i for i in range(c, n) if m[i][c]), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            result = -result
        pv = m[c][c]
        result *= pv
        for i in range(c + 1, n):
            if m[i][c]:
                f = m[i][c] / pv
                m[i] = [x - f * y for x, y in zip(m[i], m[c])]
    return result


def _det3(a, b, c) -> Fraction:
    return (a[0] * (b[1] * c[2] - b[2] * c[1])
            - a[1] * (b[0] * c[2] - b[2] * c[0])
            + a[2] * (b[0] * c[1] - b[1] * c[0]))


def cross(a, b, c) -> tuple:
    """P(a, b, c) with P_m = phi(a, b, c, e_m), by cofactor expansion."""
    out = []
    for m in range(8):
        total = Fraction(0)
        for key, coeff in PHI.items():
            if m not in key:
                continue
            p = key.index(m)
            rest = [i for i in key if i != m]
            minor = _det3([a[i] for i in rest], [b[i] for i in rest], [c[i] for i in rest])
            total += coeff * (-1 if (3 + p) % 2 else 1) * minor
        out.append(total)
    return tuple(out)


def dot(u, v) -> Fraction:
    return sum((Fraction(x) * y for x, y in zip(u, v)), Fraction(0))


def gram_det(vectors) -> Fraction:
    return det([[dot(u, v) for v in vectors] for u in vectors])


def unit_product(i: int, j: int) -> tuple[int, int]:
    """(index, sign) of e_i e_j in the octonion table the form induces."""
    if i == 0:
        return j, 1
    if j == 0:
        return i, 1
    if i == j:
        return 0, -1
    hits = [(m, phi_signed((0, i, j, m))) for m in range(8) if phi_signed((0, i, j, m))]
    assert len(hits) == 1
    return hits[0]


UNIT_TABLE = {(i, j): unit_product(i, j) for i in range(8) for j in range(8)}


def oct_mul(x, y) -> tuple:
    out = [Fraction(0)] * 8
    for i, a in enumerate(x):
        if a:
            for j, b in enumerate(y):
                if b:
                    k, s = UNIT_TABLE[(i, j)]
                    out[k] += s * a * b
    return tuple(out)


def identity(n: int = 8) -> tuple:
    return tuple(tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n))


def transpose(m) -> tuple:
    return tuple(zip(*m))


def matmul(a, b) -> tuple:
    cols = transpose(b)
    return tuple(tuple(dot(r, c) for c in cols) for r in a)


def matvec(m, v) -> tuple:
    return tuple(dot(r, v) for r in m)


def inverse(m) -> tuple:
    n = len(m)
    aug = [[Fraction(x) for x in r] + [Fraction(int(i == j)) for j in range(n)]
           for i, r in enumerate(m)]
    for c in range(n):
        piv = next(i for i in range(c, n) if aug[i][c])
        aug[c], aug[piv] = aug[piv], aug[c]
        pv = aug[c][c]
        aug[c] = [x / pv for x in aug[c]]
        for i in range(n):
            if i != c and aug[i][c]:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[c])]
    return tuple(tuple(r[n:]) for r in aug)


def pullback_phi(r) -> dict[tuple[int, ...], Fraction]:
    """Nonzero coefficients of phi(R x_1, .., R x_4) on increasing quadruples.

    R is scaled to an integer matrix first; each 4x4 minor is then a
    Laplace expansion over integer 2x2 minors.
    """
    scale = lcm(*(Fraction(x).denominator for row in r for x in row))
    m = [[int(x * scale) for x in row] for row in r]
    m2 = {(rows, cols): m[rows[0]][cols[0]] * m[rows[1]][cols[1]]
          - m[rows[0]][cols[1]] * m[rows[1]][cols[0]]
          for rows in PAIRS for cols in PAIRS}
    out = {}
    for quad in QUADS:
        value = 0
        for key, coeff in PHI.items():
            top, bottom = key[:2], key[2:]
            for (p, q), rest, sign in _SPLITS:
                value += coeff * sign * m2[(top, (quad[p], quad[q]))] * m2[
                    (bottom, (quad[rest[0]], quad[rest[1]]))]
        if value:
            out[quad] = Fraction(value, scale ** 4)
    return out


def frame_defects(r) -> list[str]:
    """Why R is not a form-preserving rotation; empty when it is one."""
    if matmul(transpose(r), r) != identity():
        return ["R^T R != I"]
    if det(r) != 1:
        return [f"det R = {det(r)}"]
    if pullback_phi(r) != PHI:
        return ["R* phi != phi"]
    return []


def is_antisymmetric(m) -> bool:
    return all(m[i][j] == -m[j][i] for i in range(len(m)) for j in range(len(m)))
