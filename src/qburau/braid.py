"""Braid words in B3, their 2x2 Burau matrices, and the q-deformed
modular-group generators, all over exact Laurent polynomials.

Two variable conventions are tracked explicitly: 't' for Burau matrices
and 'q' for the deformed modular group; the bridge is the substitution
q = -t, applied entrywise by to_q_convention().
"""
from __future__ import annotations

from dataclasses import dataclass

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


# Letters per packed block of rho3.  A block's fields are as wide as its
# largest coefficient plus one bit per letter, so a longer block carries
# more empty bits; a shorter one packs and unpacks more often.
_BLOCK = 96


def rho3(word):
    """Left-to-right product of generator images; empty word gives Id.

    Right-multiplication by a generator touches only two columns, so the
    product is accumulated with shifts and adds instead of full 2x2
    multiplications.  It runs in the q-convention, where s1, s2, s1^-1,
    s2^-1 map to R_q, L_q^-1, R_q^-1, L_q and each letter costs two shifts
    and two adds or subtracts, with no negation, on the entries packed
    into integers one block of letters at a time.
    """
    entries = (ONE, ZERO, ZERO, ONE)
    letters = word.letters
    for start in range(0, len(letters), _BLOCK):
        entries = _fold_block(entries, letters[start:start + _BLOCK])
    return QMatrix2(*(p.negate_variable() for p in entries), variable="t")


def _fold_block(entries, letters):
    """The q-convention entries (a, b, c, d) times the images of the
    letters.

    The entries are packed at a shared lowest exponent `low`, so that
    multiplying by q is a left shift by one field.  Dividing by q lowers
    `low` instead and shifts the other operand left, so nothing shifts
    right.  A letter at most doubles the largest |coefficient|, so fields
    with room for its bit length plus one bit per letter cannot overflow.
    """
    live = [p for p in entries if p.coeffs]
    low = min(p.low for p in live)
    bits = max(max(map(int.bit_length, p.coeffs)) for p in live)
    width = _width(bits + len(letters))
    f = 8 * width
    a, b, c, d = (_pack(p.coeffs, width) << f * (p.low - low) if p.coeffs
                  else 0 for p in entries)
    for g in letters:
        if g == 1:       # M * [[q,1],[0,1]]
            a, b = a << f, a + b
            c, d = c << f, c + d
        elif g == 2:     # M * [[1,0],[-q,q]]
            b, d = b << f, d << f
            a, c = a - b, c - d
        elif g == -1:    # M * [[1/q,-1/q],[0,1]]
            low -= 1
            b, d = (b << f) - a, (d << f) - c
        else:            # M * [[1,0],[1,1/q]]
            low -= 1
            a, c = (a + b) << f, (c + d) << f
    return tuple(_unpack(x, low, width) for x in (a, b, c, d))


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

