"""Seeded input generators for the benchmark workloads.

The same seed always yields the same stream of inputs. Every frame is
certified here, before any timing starts: an admissible frame must be
orthogonal with determinant 1 and preserve the Cayley form, and an
inadmissible one must fail one of those. The certificates come from
:mod:`exact`, never from the program under test.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

import exact

# One shuffled deck per 20 dense_frames ops. Sorted by cost the kinds run
# reject (det check) < octonion < cross3 < omega < composition ~ frame, so
# p50 falls inside the cross3 block and p90 inside the composition/frame one.
DENSE_DECK = (
    ["octonion"] * 4 + ["cross3"] * 7 + ["omega"] * 3 + ["composition"] * 3
    + ["frame"] * 2 + ["reject"]
)


class DuplicateInput(AssertionError):
    """A generated input repeated an earlier one in the same stream."""


class DenseInputs:
    """Dense rational inputs for the in-process library workload.

    ``basis`` is the spin(7) basis as 8x8 row tuples; frames are products
    of Cayley transforms (I - a)(I + a)^-1 of basis elements scaled by 1/2
    or 1/3, which lie exactly in Spin(7).
    """

    def __init__(self, seed: int, basis):
        self.rng = random.Random(seed)
        self.basis = [tuple(tuple(Fraction(x) for x in row) for row in b) for b in basis]
        self.seen: set[int] = set()  # hashes, so memory does not grow with the payloads
        self.sizes: list[tuple[int, int]] = []  # (nonzero entries, max denominator bits)
        self.deck: list[str] = []
        self.frames = 0
        self.rejects = 0

    def rational(self) -> Fraction:
        rng = self.rng
        return Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9))

    def vector(self) -> tuple:
        return tuple(self.rational() for _ in range(8))

    def _cayley(self, a) -> tuple:
        eye = exact.identity()
        minus = tuple(tuple(eye[i][j] - a[i][j] for j in range(8)) for i in range(8))
        plus = tuple(tuple(eye[i][j] + a[i][j] for j in range(8)) for i in range(8))
        return exact.matmul(minus, exact.inverse(plus))

    def _raw_frame(self) -> tuple:
        """A product of 2, 3, 4, 2, ... factors, in turn, so every run
        sees the same spread of frame sizes."""
        rng = self.rng
        r = exact.identity()
        for _ in range(2 + self.frames % 3):
            b = rng.choice(self.basis)
            scale = Fraction(rng.choice((1, -1)), rng.choice((2, 3)))
            r = exact.matmul(r, self._cayley(tuple(tuple(scale * x for x in row) for row in b)))
        self.frames += 1
        return r

    def frame(self) -> tuple:
        r = self._raw_frame()
        defects = exact.frame_defects(r)
        if defects:
            raise ValueError(f"generated frame failed certification: {defects}")
        self._record_size(r)
        return r

    def bad_frame(self) -> tuple:
        """A dense frame that is not a form-preserving rotation.

        In turn, an admissible frame with one column negated (det = -1), or
        an admissible frame times a rotation in one coordinate plane, which
        is orthogonal with det 1 but moves the form.
        """
        rng = self.rng
        r = self._raw_frame()
        self.rejects += 1
        if self.rejects % 2:
            j = rng.randrange(8)
            bad = tuple(tuple(-x if c == j else x for c, x in enumerate(row)) for row in r)
        else:
            i, j = rng.sample(range(8), 2)
            a = [[Fraction(0)] * 8 for _ in range(8)]
            s = Fraction(1, rng.choice((2, 3)))
            a[i][j], a[j][i] = s, -s
            bad = exact.matmul(r, self._cayley(a))
        if not exact.frame_defects(bad):
            raise ValueError("generated inadmissible frame passed certification")
        self._record_size(bad)
        return bad

    def spin7_element(self) -> tuple:
        rng = self.rng
        rho = [[Fraction(0)] * 8 for _ in range(8)]
        for b in rng.sample(self.basis, rng.randint(2, 5)):
            c = self.rational()
            for i in range(8):
                for j in range(8):
                    if b[i][j]:
                        rho[i][j] += c * b[i][j]
        return tuple(tuple(row) for row in rho)

    def _record_size(self, m) -> None:
        entries = [x for row in m for x in row if x]
        self.sizes.append((len(entries), max(x.denominator.bit_length() for x in entries)))

    def _fresh(self, key) -> None:
        digest = hash(key)
        if digest in self.seen:
            raise DuplicateInput(f"input repeated: {key[0]}")
        self.seen.add(digest)

    def next_op(self) -> tuple:
        """One (kind, payload) draw from the dense deck; payloads never repeat."""
        if not self.deck:
            self.deck = list(DENSE_DECK)
            self.rng.shuffle(self.deck)
        kind = self.deck.pop()
        if kind == "octonion":
            payload = (self.vector(), self.vector())
        elif kind == "cross3":
            payload = (self.vector(), self.vector(), self.vector())
        elif kind == "composition":
            payload = tuple(self.vector() for _ in range(5))
        elif kind == "frame":
            payload = (self.frame(), self.vector(), self.vector(), self.vector())
        elif kind == "reject":
            payload = (self.bad_frame(),)
        else:
            payload = (self.spin7_element(),)
        self._fresh((kind, payload))
        return kind, payload


def random_form_terms(rng: random.Random) -> list[tuple[tuple[int, ...], Fraction]]:
    """Terms of a random form expression: one degree, shuffled indices."""
    degree = rng.randint(1, 4)
    terms = []
    for _ in range(rng.randint(1, 4)):
        idx = rng.sample(range(8), degree)
        terms.append((tuple(idx), Fraction(rng.choice((-1, 1)) * rng.randint(1, 5), rng.randint(1, 4))))
    return terms


def render_form(terms) -> str:
    """Text form of the terms in the program's input grammar."""
    parts = []
    for idx, c in terms:
        sign = "-" if c < 0 else "+"
        mag = abs(c)
        coeff = "" if mag == 1 else f"{mag}*"
        parts.append(f"{sign}{coeff}e^{{{''.join(map(str, idx))}}}")
    text = "".join(parts)
    return text[1:] if text.startswith("+") else text


def canonical_terms(terms) -> dict[str, str]:
    """The JSON term map the program must print for the given terms."""
    acc: dict[tuple[int, ...], Fraction] = {}
    for idx, c in terms:
        key, sign = exact.sort_sign(idx)
        acc[key] = acc.get(key, Fraction(0)) + sign * c
    return {"".join(map(str, k)): str(v) for k, v in sorted(acc.items()) if v}


# One shuffled deck per 34 commands: (kind, variant). The heavy suites
# lemma and claim2 fill the 3-21 % slice from the top, below axioms, so p90
# sits well inside them.
CLI_DECK = (
    [("phi", None)] * 2 + [("table", None)] * 2 + [("parse", None)] * 3
    + [("cross", None)] * 3 + [("cross2", None)] * 2 + [("stab", None)] * 3
    + [("omega", None)] * 3 + [("symmetries", None)] * 3
    + [("verify", s) for s in ("selfdual", "claim1", "claim4", "axioms")]
    + [("verify", s) for s in ("lemma", "claim2")] * 3
    + [("malformed", None)] * 3
)
CLI_KINDS = tuple(dict.fromkeys(kind for kind, _ in CLI_DECK))


def _vec_text(v) -> str:
    return ",".join(str(x) for x in v)


class CliInputs:
    """Seeded `spin7` command lines with what each output must satisfy.

    ``workdir`` receives the matrix files that `omega --rho` reads.
    """

    def __init__(self, seed: int, basis, workdir: str):
        self.dense = DenseInputs(seed, basis)
        self.rng = self.dense.rng
        self.workdir = workdir
        self.deck: list = []
        self.count = 0

    def _matrix_file(self, m, tag: str) -> str:
        path = f"{self.workdir}/{tag}-{self.count}.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([[str(x) for x in row] for row in m], fh)
        return path

    def _malformed(self) -> list[str]:
        rng, dense = self.rng, self.dense
        good = _vec_text(dense.vector())
        choice = rng.randrange(9)
        if choice == 0:
            return ["cross", "-u", _vec_text(dense.vector()[: rng.randint(1, 7)]), "-v", good, "-w", good]
        if choice == 1:
            return ["cross", "-u", good, "-v", f"{rng.randint(1, 9)}/0" + good[good.index(","):], "-w", good]
        if choice == 2:
            return ["cross", "-u", good, "-v", good, "-w", "0.5" + good[good.index(","):]]
        if choice == 3:
            return ["cross2", "-u", good, "-v", good]  # nonzero e0 component
        if choice == 4:
            i = rng.randrange(8)
            return ["parse", f"e^{{{i}{i}}}"]
        if choice == 5:
            return ["parse", "e^{0145}+e^{" + "".join(map(str, rng.sample(range(8), 2))) + "}"]
        if choice == 6:
            return ["symmetries", "--limit", str(-rng.randint(1, 9))]
        if choice == 7:
            m = [[Fraction(0)] * 8 for _ in range(8)]
            i, j = rng.sample(range(8), 2)
            m[i][j] = Fraction(1)
            return ["omega", "--rho", self._matrix_file(m, "bad")]
        return ["verify", "--suite", f"claim{rng.randint(5, 9)}"]

    def next_op(self) -> tuple[str, list[str], dict]:
        """One (kind, argv, expectation) draw."""
        if not self.deck:
            self.deck = list(CLI_DECK)
            self.rng.shuffle(self.deck)
        kind, variant = self.deck.pop()
        self.count += 1
        rng, dense = self.rng, self.dense
        expect: dict = {}
        if kind == "phi":
            expect["format"] = rng.choice(("text", "json"))
            argv = ["phi", "--format", expect["format"]]
        elif kind == "table":
            argv = ["table", "--format", "json"]
        elif kind == "parse":
            terms = random_form_terms(rng)
            expect = {"degree": len(terms[0][0]), "terms": canonical_terms(terms)}
            argv = ["parse", "--format", "json", "--", render_form(terms)]
        elif kind == "cross":
            expect["args"] = (dense.vector(), dense.vector(), dense.vector())
            argv = ["cross"] + [x for flag, v in zip(("-u", "-v", "-w"), expect["args"])
                                for x in (flag, _vec_text(v))]
        elif kind == "cross2":
            expect["args"] = tuple((Fraction(0),) + dense.vector()[1:] for _ in range(2))
            argv = ["cross2", "-u", _vec_text(expect["args"][0]), "-v", _vec_text(expect["args"][1])]
        elif kind == "stab":
            expect = {"group": rng.choice(("spin7", "g2")), "print_dim": rng.random() < 0.5}
            argv = ["stab", "--group", expect["group"]] + (["--print-dim"] if expect["print_dim"] else [])
        elif kind == "omega":
            argv = ["omega", "--format", "json", "--rho", self._matrix_file(dense.spin7_element(), "rho")]
        elif kind == "symmetries":
            expect["limit"] = rng.randint(1, 60)
            argv = ["symmetries", "--limit", str(expect["limit"])]
        elif kind == "verify":
            expect["suite"] = variant
            argv = ["verify", "--suite", variant]
        else:
            argv = self._malformed()
        return kind, argv, expect
