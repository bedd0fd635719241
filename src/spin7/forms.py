"""Sparse alternating forms on oriented Euclidean 8-space.

A form of degree k stores its terms on strictly increasing index tuples
with exact rational coefficients; zero coefficients are pruned eagerly so
that equality is structural. The orientation is fixed to +e^{01234567} and
the model metric is the orthonormal frame, which turns the Hodge star into
a signed complementary-index map.

The text grammar (used by the CLI and by test fixtures)::

    form     = [sign] term { sign term }
    term     = [rational "*"] basis | rational
    basis    = "e^{" digit+ "}" | "e" digit+
    rational = ["-"] digits ["/" digits]

Digits are single indices 0..7; a repeated digit inside one term, terms of
mixed degree, and malformed rationals are rejected with a position-carrying
:class:`FormParseError`.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import combinations, permutations
from typing import Iterable, Sequence

from .linalg import F0, F1, Matrix, Vector, clear_denominators, parse_rational

DIM = 8


def sort_with_sign(indices: Sequence[int]) -> tuple[tuple[int, ...], int]:
    """Sort an index sequence, returning (sorted tuple, permutation sign).

    The sign is 0 when an index repeats.
    """
    idx = list(indices)
    sign = 1
    for i in range(1, len(idx)):
        j = i
        while j > 0 and idx[j - 1] > idx[j]:
            idx[j - 1], idx[j] = idx[j], idx[j - 1]
            sign = -sign
            j -= 1
    for i in range(1, len(idx)):
        if idx[i - 1] == idx[i]:
            return tuple(idx), 0
    return tuple(idx), sign


class AltForm:
    """Alternating k-form stored as {increasing index tuple: coefficient}."""

    __slots__ = ("degree", "terms", "_signed")

    def __init__(self, degree: int, terms: dict | None = None):
        if degree < 0:
            raise ValueError("degree must be nonnegative")
        clean: dict[tuple[int, ...], Fraction] = {}
        for key, value in (terms or {}).items():
            key = tuple(key)
            if len(key) != degree:
                raise ValueError(f"term {key} does not have degree {degree}")
            if any(not 0 <= i < DIM for i in key):
                raise ValueError(f"index out of range in term {key}")
            if any(key[i] >= key[i + 1] for i in range(len(key) - 1)):
                raise ValueError(f"term indices must be strictly increasing: {key}")
            if isinstance(value, float):
                raise TypeError("floating point coefficients are not allowed")
            if not isinstance(value, (int, Fraction)):
                value = Fraction(value)
            if value:
                clean[key] = value
        if degree > DIM and clean:
            raise ValueError("nonzero form of degree above the space dimension")
        self.degree = degree
        self.terms = clean
        self._signed = None

    @classmethod
    def _raw(cls, degree: int, terms: dict) -> "AltForm":
        form = object.__new__(cls)
        form.degree = degree
        form.terms = terms
        form._signed = None
        return form

    @classmethod
    def from_signed_terms(
        cls, degree: int, items: Iterable[tuple[Sequence[int], Fraction]]
    ) -> "AltForm":
        """Build a form from possibly unsorted index tuples."""
        acc: dict[tuple[int, ...], Fraction] = {}
        for indices, coeff in items:
            key, sign = sort_with_sign(indices)
            if sign == 0:
                continue
            acc[key] = acc.get(key, F0) + sign * coeff
        return cls(degree, acc)

    def coefficient(self, key: Sequence[int]) -> Fraction:
        return self.terms.get(tuple(key), F0)

    def coefficient_signed(self, indices: Sequence[int]) -> Fraction:
        return signed_coefficients(self).get(tuple(indices), F0)

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, AltForm)
            and self.degree == other.degree
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        return hash((self.degree, tuple(sorted(self.terms.items()))))

    def __add__(self, other: "AltForm") -> "AltForm":
        if self.degree != other.degree:
            raise ValueError("cannot add forms of different degrees")
        acc = dict(self.terms)
        for key, c in other.terms.items():
            s = acc.get(key, F0) + c
            if s:
                acc[key] = s
            else:
                acc.pop(key, None)
        return AltForm._raw(self.degree, acc)

    def __sub__(self, other: "AltForm") -> "AltForm":
        return self + (-other)

    def __neg__(self) -> "AltForm":
        return AltForm._raw(self.degree, {k: -c for k, c in self.terms.items()})

    def __mul__(self, scalar) -> "AltForm":
        if isinstance(scalar, (int, Fraction)):
            scalar = Fraction(scalar)
            if not scalar:
                return AltForm._raw(self.degree, {})
            return AltForm._raw(self.degree, {k: c * scalar for k, c in self.terms.items()})
        return NotImplemented

    __rmul__ = __mul__

    def wedge(self, other: "AltForm") -> "AltForm":
        acc: dict[tuple[int, ...], Fraction] = {}
        for s_key, s_c in self.terms.items():
            for t_key, t_c in other.terms.items():
                key, sign = sort_with_sign(s_key + t_key)
                if sign == 0:
                    continue
                c = acc.get(key, F0) + sign * s_c * t_c
                if c:
                    acc[key] = c
                else:
                    acc.pop(key, None)
        return AltForm(self.degree + other.degree, acc)

    def evaluate(self, vectors: Sequence[Vector]) -> Fraction:
        """Multilinear alternating evaluation on ``degree`` vectors of length 8.

        The sum over the terms T of c_T det(A[T, :]), for A the 8 x k matrix
        with the vectors as its columns, from the integer minor kernel
        :func:`_minor_sums` on that one column set.
        """
        if len(vectors) != self.degree:
            raise ValueError(f"need {self.degree} vectors, got {len(vectors)}")
        if any(len(v) != DIM for v in vectors):
            raise ValueError(f"need vectors of length {DIM}, got lengths "
                             f"{[len(v) for v in vectors]}")
        return _minor_sums(self, vectors).get(tuple(range(self.degree)), F0)

    def star(self) -> "AltForm":
        """Hodge star for the identity metric and orientation +e^{01234567}.

        Applying it twice gives (-1)^(k(8-k)) times the input: the identity
        on every even degree (the only degrees used here), the negation on
        odd degrees.
        """
        if self.degree > DIM:
            raise ValueError("degree above the space dimension")
        acc: dict[tuple[int, ...], Fraction] = {}
        for key, c in self.terms.items():
            comp = tuple(i for i in range(DIM) if i not in key)
            inversions = sum(1 for a in key for b in comp if b < a)
            acc[comp] = c if inversions % 2 == 0 else -c
        return AltForm._raw(DIM - self.degree, acc)

    def to_json_obj(self) -> dict:
        return {
            "degree": self.degree,
            "terms": {
                "".join(str(i) for i in key): str(c)
                for key, c in sorted(self.terms.items())
            },
        }

    @classmethod
    def from_json_obj(cls, obj: dict) -> "AltForm":
        degree = obj["degree"]
        terms = {}
        for key, value in obj["terms"].items():
            if not all(ch in _DIGITS for ch in key):
                raise ValueError(f"term key {key!r} is not a string of ASCII digits")
            terms[tuple(int(ch) for ch in key)] = parse_rational(value)
        return cls(degree, terms)

    def __repr__(self) -> str:
        return f"AltForm({self.degree}, {print_form(self)!r})"


@cache
def _permutation_signs(k: int) -> tuple[int, ...]:
    """Signs of ``permutations(range(k))``, in the order it yields them."""
    return tuple(sort_with_sign(p)[1] for p in permutations(range(k)))


def signed_coefficients(f: AltForm) -> dict[tuple[int, ...], Fraction]:
    """The terms expanded into {ordered index tuple: signed coefficient}.

    Every ordering of every term's indices gets the term coefficient times
    the sign of the reordering; tuples with a repeated index or outside the
    terms are absent. The table is built once per form, kept in its
    ``_signed`` slot (forms are never mutated) and shared by every caller,
    who must not mutate it.
    """
    if f._signed is None:
        signs = _permutation_signs(f.degree)
        table = {}
        for key, c in f.terms.items():
            for image, sign in zip(permutations(key), signs):
                table[image] = c if sign > 0 else -c
        f._signed = table
    return f._signed


def pullback(f: AltForm, m: Matrix) -> AltForm:
    """The form (x_1, ..., x_k) -> f(m x_1, ..., m x_k) of an 8 x 8 matrix.

    Its coefficient on I is f evaluated on the columns I of m, and every one
    of the C(8, k) column sets comes from one call of the integer minor
    kernel :func:`_minor_sums`.
    """
    if (m.nrows, m.ncols) != (DIM, DIM):
        raise ValueError(f"pullback needs an {DIM}x{DIM} matrix, got {m.nrows}x{m.ncols}")
    return AltForm._raw(f.degree, _minor_sums(f, list(zip(*m.rows))))


@cache
def _subsets(n: int, m: int) -> tuple[tuple[tuple[int, ...], ...], dict]:
    """The m-subsets of range(n) in ``combinations`` order, and their positions."""
    subs = tuple(combinations(range(n), m))
    return subs, {s: p for p, s in enumerate(subs)}


@cache
def _first_row_plan(n: int, m: int) -> tuple[tuple[int, list[int], list[int]], ...]:
    """The expansion of an m x m minor along its first row, for every
    m-subset S of n columns: one (sign, cols, rest) per position j, where
    cols[x] is the column at j of the x-th S of ``_subsets(n, m)`` and
    rest[x] the position of S without it in ``_subsets(n, m - 1)``."""
    subs, at = _subsets(n, m)[0], _subsets(n, m - 1)[1]
    return tuple((-1 if j % 2 else 1, [s[j] for s in subs], [at[s[:j] + s[j + 1:]] for s in subs])
                 for j in range(m))


def _minors(rows: list, rs: tuple[int, ...], n: int, memo: dict) -> list[int]:
    """det(rows[rs, S]) for every S in ``_subsets(n, len(rs))``, memoized on rs:
    expanded along the first row into the minors of the remaining rows."""
    got = memo.get(rs)
    if got is None:
        if not rs:
            got = [1]
        else:
            r0, below = rows[rs[0]], _minors(rows, rs[1:], n, memo)
            got = [0] * len(_subsets(n, len(rs))[0])
            for sign, cols, rest in _first_row_plan(n, len(rs)):
                got = [g + sign * r0[c] * below[p] for g, c, p in zip(got, cols, rest)]
        memo[rs] = got
    return got


def _minor_sums(f: AltForm, columns: Sequence[Sequence]) -> dict[tuple[int, ...], Fraction]:
    """{I: f(columns[I])} over the k-subsets I of the columns (k = degree,
    each column of length 8), zero values absent: the one integer kernel of
    :meth:`AltForm.evaluate` and :func:`pullback`.

    Each column is cleared of denominators once, and the form's coefficients
    are scaled to integers once, by the lcm D of their denominators. With
    the columns as the integer matrix A, the value on I is
    sum_T c_T det(A[T, I]) in Python ints, each det expanded along its
    first row (:func:`_minors`); the sub-minors of a row set are built once
    for every column subset and shared by the terms. A term on a
    row that is zero in every column is skipped, so sparse vectors stay
    cheap. Each value is divided once, by D times the clearing factors of
    I's columns.
    """
    k, n = f.degree, len(columns)
    den, terms = clear_denominators(list(f.terms.items()))
    scales, cols = [], []
    for comps in columns:
        d, entries = clear_denominators(list(enumerate(comps)))
        scales.append(d)
        cols.append([x for _, x in entries])
    rows = list(zip(*cols))
    live = {i for i, row in enumerate(rows) if any(row)}
    colsets = _subsets(n, k)[0]
    acc = [0] * len(colsets)
    memo: dict[tuple[int, ...], list[int]] = {}
    for key, c in terms:
        if live.issuperset(key):
            acc = [a + c * x for a, x in zip(acc, _minors(rows, key, n, memo))]
    out = {}
    for cols_i, total in zip(colsets, acc):
        if total:
            q = den
            for j in cols_i:
                q *= scales[j]
            out[cols_i] = Fraction(total, q)
    return out


# The Cayley 4-form: 14 terms, coefficients +/-1, self-dual for the fixed
# orientation. Its stabilizer in GL(8, R) preserving orientation is Spin(7).
_CAYLEY_TERMS: dict[tuple[int, int, int, int], int] = {
    (0, 1, 4, 5): 1,
    (0, 1, 6, 7): 1,
    (2, 3, 4, 5): 1,
    (2, 3, 6, 7): 1,
    (0, 2, 4, 6): 1,
    (0, 2, 5, 7): -1,
    (1, 3, 4, 6): -1,
    (1, 3, 5, 7): 1,
    (0, 3, 4, 7): -1,
    (0, 3, 5, 6): -1,
    (1, 2, 4, 7): -1,
    (1, 2, 5, 6): -1,
    (0, 1, 2, 3): 1,
    (4, 5, 6, 7): 1,
}


@cache
def cayley_form() -> AltForm:
    """The 14-term Cayley 4-form on 8-space."""
    return AltForm(4, dict(_CAYLEY_TERMS))


class FormParseError(ValueError):
    """Parse failure with the offending position in the input string."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.reason = message
        self.position = position


_DIGITS = frozenset("0123456789")  # str.isdigit also accepts '²' and '٣'


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, message: str, position: int | None = None) -> FormParseError:
        return FormParseError(message, self.pos if position is None else position)

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def parse(self) -> AltForm:
        terms: list[tuple[tuple[int, ...], Fraction]] = []
        degree: int | None = None
        self.skip_ws()
        if self.pos >= len(self.text):
            raise self.error("empty form expression")
        first = True
        while True:
            self.skip_ws()
            if self.pos >= len(self.text):
                if first:
                    raise self.error("expected a term")
                break
            sign = 1
            ch = self.peek()
            if ch in "+-":
                sign = -1 if ch == "-" else 1
                self.pos += 1
                self.skip_ws()
            elif not first:
                raise self.error(f"expected '+' or '-', found {ch!r}")
            term_start = self.pos
            indices, coeff = self.parse_term()
            if degree is None:
                degree = len(indices)
            elif len(indices) != degree:
                raise self.error(
                    f"mixed degrees: term of degree {len(indices)} in a degree-{degree} form",
                    term_start,
                )
            terms.append((indices, sign * coeff))
            first = False
        assert degree is not None
        return AltForm.from_signed_terms(degree, terms)

    def parse_term(self) -> tuple[tuple[int, ...], Fraction]:
        ch = self.peek()
        if ch == "e":
            return self.parse_basis(), F1
        if ch not in _DIGITS:
            raise self.error(f"expected a coefficient or basis term, found {ch!r}")
        coeff = self.parse_rational()
        self.skip_ws()
        ch = self.peek()
        if ch == "*":
            self.pos += 1
            self.skip_ws()
            if self.peek() != "e":
                raise self.error("expected a basis term after '*'")
            return self.parse_basis(), coeff
        if ch in ("", "+", "-"):
            return (), coeff  # a bare rational is a degree-0 term
        raise self.error(f"expected '*', '+', '-' or end of input, found {ch!r}")

    def parse_numeral(self, start: int) -> int:
        """The ASCII digits from ``start`` to the current position, as an int."""
        try:
            return int(self.text[start:self.pos])
        except ValueError:  # more digits than int() converts from text
            raise self.error(f"malformed rational: {self.pos - start}-digit numeral "
                             "is too long", start) from None

    def parse_rational(self) -> Fraction:
        start = self.pos
        while self.peek() in _DIGITS:
            self.pos += 1
        num = self.parse_numeral(start)
        if self.peek() != "/":
            return Fraction(num)
        self.pos += 1
        den_start = self.pos
        while self.peek() in _DIGITS:
            self.pos += 1
        if den_start == self.pos:
            raise self.error("malformed rational: missing denominator", den_start)
        den = self.parse_numeral(den_start)
        if den == 0:
            raise self.error("malformed rational: zero denominator", den_start)
        return Fraction(num, den)

    def parse_basis(self) -> tuple[int, ...]:
        assert self.peek() == "e"
        self.pos += 1
        braced = self.peek() == "^"
        if braced:
            self.pos += 1
            if self.peek() != "{":
                raise self.error("expected '{' after 'e^'")
            self.pos += 1
        indices: list[int] = []
        seen: set[int] = set()
        while True:
            ch = self.peek()
            if ch in _DIGITS:
                i = int(ch)
                if i >= DIM:
                    raise self.error(f"index {i} out of range 0..{DIM - 1}")
                if i in seen:
                    raise self.error(f"repeated index {i} in one term")
                seen.add(i)
                indices.append(i)
                self.pos += 1
                continue
            break
        if not indices:
            raise self.error("expected at least one index digit")
        if braced:
            if self.peek() != "}":
                raise self.error("expected '}' to close the index list")
            self.pos += 1
        return tuple(indices)


def parse_form(text: str) -> AltForm:
    """Parse the canonical signed-sum grammar into an alternating form."""
    return _Parser(text).parse()


def print_form(f: AltForm) -> str:
    """Canonical text rendering; ``parse_form`` inverts it exactly.

    The zero form prints as "0" regardless of degree (the one spot where
    the text format drops degree information; the JSON format keeps it).
    """
    if not f.terms:
        return "0"
    parts = []
    for key, c in sorted(f.terms.items()):
        basis = "e^{%s}" % "".join(str(i) for i in key) if key else ""
        if not basis:
            piece = str(c)
        elif c == 1:
            piece = basis
        elif c == -1:
            piece = "-" + basis
        else:
            piece = f"{c}*{basis}"
        parts.append(piece)
    out = parts[0]
    for piece in parts[1:]:
        out += piece if piece.startswith("-") else "+" + piece
    return out
