"""Braid words in B3, their 2x2 Burau matrices, and the q-deformed
modular-group generators, all over exact Laurent polynomials.

Two variable conventions are tracked explicitly: 't' for Burau matrices
and 'q' for the deformed modular group; the bridge is the substitution
q = -t, applied entrywise by to_q_convention().
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby

from .laurent import LaurentPoly, ONE, Q, ZERO, _pack, _unpack, _width


class ConventionMismatch(ValueError):
    """Mixed t-convention and q-convention operands."""


class NotUnitDeterminant(ArithmeticError):
    """Matrix inversion needs a +-monomial determinant."""


class WordParseError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Braid words
# ---------------------------------------------------------------------------

# Letters are signed generator indices: 1 = sigma1, -1 = sigma1^-1,
# 2 = sigma2, -2 = sigma2^-1.

@dataclass(frozen=True)
class BraidWord:
    letters: tuple

    def __post_init__(self):
        for g in self.letters:
            if g not in (1, -1, 2, -2):
                raise WordParseError("bad braid letter %r" % (g,))

    @staticmethod
    def parse(text):
        """Parse 'aBaB' (a=s1, A=s1^-1, b=s2, B=s2^-1) or '1,-2,1,-2'."""
        text = text.strip()
        if text == "":
            return BraidWord(())
        if any(ch in "0123456789-" for ch in text):
            try:
                letters = tuple(int(tok) for tok in text.split(",") if tok.strip())
            except ValueError:
                raise WordParseError("cannot parse braid word %r" % text)
            return BraidWord(letters)
        table = {"a": 1, "A": -1, "b": 2, "B": -2}
        try:
            return BraidWord(tuple(table[ch] for ch in text))
        except KeyError:
            raise WordParseError("cannot parse braid word %r" % text)

    def inverse(self):
        return BraidWord(tuple(-g for g in reversed(self.letters)))

    def __mul__(self, other):
        return BraidWord(self.letters + other.letters)

    def exponent_sum(self):
        return sum(1 if g > 0 else -1 for g in self.letters)

    def __str__(self):
        table = {1: "a", -1: "A", 2: "b", -2: "B"}
        return "".join(table[g] for g in self.letters)

    def __len__(self):
        return len(self.letters)


# ---------------------------------------------------------------------------
# 2x2 matrices over LaurentPoly
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QMatrix2:
    """Row-major 2x2 matrix (a b / c d) of Laurent polynomials.

    variable is 't' (Burau convention) or 'q' (modular deformation).
    """

    a: LaurentPoly
    b: LaurentPoly
    c: LaurentPoly
    d: LaurentPoly
    variable: str = "t"

    def entries(self):
        return (self.a, self.b, self.c, self.d)

    @staticmethod
    def identity(variable="t"):
        return QMatrix2(ONE, ZERO, ZERO, ONE, variable)

    def _check_same(self, other):
        if self.variable != other.variable:
            raise ConventionMismatch(
                "cannot mix %s- and %s-convention matrices"
                % (self.variable, other.variable))

    def __mul__(self, other):
        self._check_same(other)
        return QMatrix2(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
            self.variable)

    def __pow__(self, n):
        if n < 0:
            return self.inverse() ** (-n)
        result = QMatrix2.identity(self.variable)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def det(self):
        return self.a * self.d - self.b * self.c

    def trace(self):
        return self.a + self.d

    def inverse(self):
        det = self.det()
        if not det.is_monomial() or abs(det.coeffs[0]) != 1:
            raise NotUnitDeterminant("determinant %s is not +-q^n" % det)
        sign = det.coeffs[0]
        k = det.low
        def over_det(p):
            return (p if sign == 1 else -p).shift(-k)
        return QMatrix2(over_det(self.d), over_det(-self.b),
                        over_det(-self.c), over_det(self.a), self.variable)

    # -- convention bridge -------------------------------------------

    def to_q_convention(self):
        """Substitute t = -q in every entry (Burau -> modular deformation)."""
        if self.variable != "t":
            raise ConventionMismatch("matrix is already in q-convention")
        return QMatrix2(*(p.negate_variable() for p in self.entries()),
                        variable="q")

    def __str__(self):
        v = self.variable
        return "[[%s, %s], [%s, %s]]" % tuple(p.to_str(v) for p in self.entries())


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------

# Q and its inverse; the t-convention names the same variable t
_QINV = LaurentPoly.monomial(-1)


def burau_generator(letter):
    """Burau image of a single braid letter, in the t-convention."""
    if letter == 1:
        return QMatrix2(-Q, ONE, ZERO, ONE, "t")
    if letter == 2:
        return QMatrix2(ONE, ZERO, Q, -Q, "t")
    if letter == -1:
        return QMatrix2(-_QINV, _QINV, ZERO, ONE, "t")
    if letter == -2:
        return QMatrix2(ONE, ZERO, ONE, -_QINV, "t")
    raise WordParseError("bad braid letter %r" % (letter,))


# Field headroom, in bits, per packed block of the product kernel.  A run
# R_q^e or L_q^e takes bit_length(|e|) bits of it, so a block holds about
# this many single letters.  A wider block carries more empty bits; a
# narrower one packs and unpacks more often.
_BLOCK = 96


def rho3(word):
    """Left-to-right product of generator images; empty word gives Id.

    The product runs in the q-convention, where s1, s2, s1^-1, s2^-1 map
    to R_q, L_q^-1, R_q^-1, L_q.  Each maximal run of letters on one
    generator is one power R_q^e or L_q^e, with e the run's exponent sum,
    folded by fold_runs.
    """
    runs = []
    for g, letters in groupby(word.letters, abs):
        e = sum(letters)    # s2^+-1 letters sum to twice the L_q^-1 power
        runs.append(("R", e) if g == 1 else ("L", -e // 2))
    return QMatrix2(*(p.negate_variable() for p in fold_runs(runs)),
                    variable="t")


def fold_runs(runs):
    """The q-convention entries (a, b, c, d) of the product of R_q^e or
    L_q^e over the runs (generator, e), generator "R" or "L", left to
    right; the identity for no runs.

    Right-multiplication by a power touches only two columns, and powers
    have closed forms: R_q^n has columns (q^n, 0) and ([n]_q, 1), L_q^n
    has columns (1, q^(1-n) [n]_q) and (0, q^-n), and the inverses follow.
    So a run costs a shift, a product by [n]_q and an add or subtract per
    row, on the entries packed into integers one block of runs at a time;
    for a single letter the product is the operand itself.
    """
    entries = (ONE, ZERO, ZERO, ONE)
    block, room = [], 0
    for run in runs:
        if run[1]:
            block.append(run)
            room += abs(run[1]).bit_length()
            if room >= _BLOCK:
                entries = _fold_block(entries, block, room)
                block, room = [], 0
    return _fold_block(entries, block, room) if block else entries


def _fold_block(entries, runs, room):
    """The entries (a, b, c, d) times the powers of the runs, whose
    exponents take `room` bits.

    The entries are packed at a shared lowest exponent `low`, so that
    multiplying by q^n is a left shift by n fields.  Dividing by q^n
    lowers `low` instead and shifts the other operand left, so nothing
    shifts right.  A power with exponent +-n multiplies the largest
    |coefficient| by at most n + 1 <= 2**bit_length(n), so fields with
    room for its bit length plus `room` bits cannot overflow.
    """
    live = [p for p in entries if p.coeffs]
    low = min(p.low for p in live)
    bits = max(max(map(int.bit_length, p.coeffs)) for p in live)
    width = _width(bits + room)
    f = 8 * width
    a, b, c, d = (_pack(p.coeffs, width) << f * (p.low - low) if p.coeffs
                  else 0 for p in entries)
    for g, e in runs:
        n = abs(e)
        s = f * n
        if g == "R":
            if e > 0:    # M * [[q^n, [n]_q], [0, 1]]
                a, b = a << s, _times_qint(a, n, f) + b
                c, d = c << s, _times_qint(c, n, f) + d
            else:        # M * q^-n [[1, -[n]_q], [0, q^n]]
                low -= n
                b = (b << s) - _times_qint(a, n, f)
                d = (d << s) - _times_qint(c, n, f)
        elif e > 0:      # M * q^-n [[q^n, 0], [q [n]_q, 1]]
            low -= n
            a = (a << s) + (_times_qint(b, n, f) << f)
            c = (c << s) + (_times_qint(d, n, f) << f)
        else:            # M * [[1, 0], [-q [n]_q, q^n]]
            a, b = a - (_times_qint(b, n, f) << f), b << s
            c, d = c - (_times_qint(d, n, f) << f), d << s
    return tuple(_unpack(x, low, width) for x in (a, b, c, d))


def _times_qint(x, n, f):
    """x * [n]_q for x packed in fields of f bits, by 2*log2(n) shifts and
    adds at most: [2k]_q = (1 + q^k) [k]_q and [2k+1]_q = q [2k]_q + 1.
    A product with the packed [n]_q would cost CPython's schoolbook
    multiplication one pass over x per 30 bits of [n]_q's n fields."""
    acc, k = x, 1
    for bit in bin(n)[3:]:
        acc += acc << f * k
        k *= 2
        if bit == "1":
            acc = (acc << f) + x
            k += 1
    return acc


_QMOD = {
    "R": QMatrix2(Q, ONE, ZERO, ONE, "q"),
    "Ri": QMatrix2(_QINV, -_QINV, ZERO, ONE, "q"),
    "L": QMatrix2(ONE, ZERO, ONE, _QINV, "q"),
    "Li": QMatrix2(ONE, ZERO, -Q, Q, "q"),
}


def qmod_generator(token):
    """R_q, L_q and their exact inverses ('R', 'Ri', 'L', 'Li')."""
    try:
        return _QMOD[token]
    except KeyError:
        raise WordParseError("bad modular-generator token %r" % (token,))

