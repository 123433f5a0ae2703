"""Exact Laurent polynomial arithmetic over arbitrary-precision integers.

A Laurent polynomial is stored as (low, coeffs): coeffs[i] is the integer
coefficient of the exponent low + i.  The zero polynomial is (0, ()).  All
constructors trim, so structural equality coincides with mathematical
equality.

Long operands multiply by Kronecker substitution: each coefficient
sequence is packed into one integer, one field per coefficient, and
CPython's big-integer product does the rest (Harvey, "Faster polynomial
multiplication via multipoint Kronecker substitution", J. Symbolic
Comput. 44, 2009).  ``braid.fold_runs``, the one product of R_q and L_q
powers (``braid.rho3``, ``qrational.rl_product``), runs on the same
packed form.  One bytes codec packs and unpacks both, a field at a
time, so a huge continued-fraction term is slow to deform:
``q_deform(Frac(10**6, 1))`` unpacks two entries of 10**6 fields in
about 0.6 s (CPython 3.11 on a 2-CPU x86_64 machine).
"""
from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction as _QQ
from itertools import cycle, repeat

# Both factors need at least this many terms for the Kronecker product;
# shorter ones multiply by schoolbook.
_KRONECKER_MIN_TERMS = 20


class DivisionByZero(ZeroDivisionError):
    pass


class NotDivisible(ArithmeticError):
    """Exact division requested but the remainder is nonzero."""


class ZeroWithNegativeExponent(ZeroDivisionError):
    """Evaluation at 0 of a polynomial with negative exponents."""


def _tuple(values):
    """tuple(values), sized once.  tuple() of a map grows the tuple by
    repeated reallocation, which fragments the heap: peak memory rose by
    4% on a workload of many short sums."""
    return tuple(list(values))


def _width(bits):
    """Bytes per packed field, for coefficients of absolute value below
    2**bits."""
    return bits // 8 + 1


def _bias(n, width):
    """n fields of `width` bytes, each holding 2**(8*width - 1)."""
    return int.from_bytes((bytes(width - 1) + b"\x80") * n, "little")


def _pack(coeffs, width):
    """sum(c_i * 2**(8*width*i)): the coefficients as one integer, one field
    of `width` bytes each.  Every |c_i| must be below 2**(8*width - 1)."""
    half = 1 << (8 * width - 1)
    raw = b"".join(map(int.to_bytes, map(half.__add__, coeffs),
                       repeat(width), repeat("little")))
    return int.from_bytes(raw, "little") - _bias(len(coeffs), width)


def _unpack(x, low, width):
    """The LaurentPoly whose coefficients, from exponent `low` up, pack to
    x with fields of `width` bytes (the inverse of _pack)."""
    f = 8 * width
    if x:       # skip the empty low fields, as a monomial q^k has k of them
        skip = ((x & -x).bit_length() - 1) // f
        x >>= f * skip
        low += skip
    # x packs m fields with |x| >= 2**(f*(m - 1) - 2), so n >= m
    n = x.bit_length() // f + 2
    size = n * width
    raw = (x + _bias(n, width)).to_bytes(size, "little")
    fields = map(raw.__getitem__, map(slice, range(0, size, width),
                                      range(width, size + width, width)))
    half = 1 << (8 * width - 1)
    return LaurentPoly.make(low, _tuple(map(half.__rsub__,
                                            map(int.from_bytes, fields,
                                                repeat("little")))))


@dataclass(frozen=True)
class LaurentPoly:
    """Integer Laurent polynomial in one formal variable.

    Immutable; every arithmetic result is returned in trimmed form
    (first and last stored coefficients nonzero, or empty for 0).
    """

    low: int
    coeffs: tuple

    # -- construction -------------------------------------------------

    @staticmethod
    def make(low, coeffs):
        """Build a trimmed LaurentPoly from any coefficient sequence."""
        coeffs = tuple(coeffs)
        lo, hi = 0, len(coeffs)
        while lo < hi and coeffs[lo] == 0:
            lo += 1
        if lo == hi:
            return ZERO
        while coeffs[hi - 1] == 0:
            hi -= 1
        if hi - lo < len(coeffs):
            coeffs = coeffs[lo:hi]
        return LaurentPoly(low + lo, coeffs)

    @staticmethod
    def monomial(k, c=1):
        """c * q^k"""
        return LaurentPoly.make(k, (c,))

    # -- basic queries ------------------------------------------------

    def is_zero(self):
        return not self.coeffs

    def coeff(self, k):
        """Coefficient of q^k."""
        i = k - self.low
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return 0

    def is_monomial(self):
        return len(self.coeffs) == 1

    # -- ring operations ----------------------------------------------

    def __add__(self, other):
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        if self.low > other.low:
            self, other = other, self
        a, b = self.coeffs, other.coeffs
        off = other.low - self.low
        if off >= len(a):           # no overlap, so nothing cancels
            return LaurentPoly(self.low, a + (0,) * (off - len(a)) + b)
        end = off + len(b)
        tail = a[end:] if end < len(a) else b[len(a) - off:]
        return LaurentPoly.make(
            self.low, a[:off] + _tuple(map(operator.add, a[off:], b)) + tail)

    def __neg__(self):
        return LaurentPoly(self.low, _tuple(map(operator.neg, self.coeffs)))

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return ZERO
        low = self.low + other.low
        if len(a) < len(b):
            a, b = b, a
        if len(b) == 1:
            c = b[0]
            return LaurentPoly(low, a if c == 1 else _tuple(map(c.__mul__, a)))
        if len(b) >= _KRONECKER_MIN_TERMS:
            # each product coefficient sums len(b) terms below
            # 2**(bits of a + bits of b)
            width = _width(max(map(int.bit_length, a))
                           + max(map(int.bit_length, b))
                           + len(b).bit_length())
            return _unpack(_pack(a, width) * _pack(b, width), low, width)
        out = [0] * (len(a) + len(b) - 1)
        n = len(a)
        for i, c in enumerate(b):
            if c:
                out[i:i + n] = map(operator.add, out[i:i + n],
                                   map(c.__mul__, a))
        return LaurentPoly.make(low, out)

    def shift(self, k):
        """Multiply by q^k."""
        if self.is_zero():
            return self
        return LaurentPoly(self.low + k, self.coeffs)

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative power of a Laurent polynomial")
        result = ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    # -- substitutions ------------------------------------------------

    def invert_variable(self):
        """Substitute q -> q^-1 (coefficient sequence reversed)."""
        if self.is_zero():
            return self
        return LaurentPoly(-(self.low + len(self.coeffs) - 1),
                           tuple(reversed(self.coeffs)))

    def negate_variable(self):
        """Substitute q -> -q: coefficient at exponent k picks up (-1)^k."""
        if self.is_zero():
            return self
        signs = (1, -1) if self.low % 2 == 0 else (-1, 1)
        return LaurentPoly(self.low,
                           _tuple(map(operator.mul, self.coeffs,
                                      cycle(signs))))

    # -- evaluation ---------------------------------------------------

    def eval_at_one(self):
        """Exact integer value at q = 1 (sum of coefficients)."""
        return sum(self.coeffs)

    def eval_complex(self, z):
        """Evaluate at a complex point by Horner on the stripped part."""
        z = complex(z)
        if self.is_zero():
            return 0j
        if z == 0 and self.low < 0:
            raise ZeroWithNegativeExponent(
                "evaluation at 0 with negative exponents present")
        acc = 0j
        for c in reversed(self.coeffs):
            acc = acc * z + c
        return acc * z ** self.low

    def eval_exact(self, x):
        """Evaluate exactly at a rational (fractions.Fraction) point."""
        x = _QQ(x)
        if x == 0 and self.low < 0:
            raise ZeroWithNegativeExponent(
                "evaluation at 0 with negative exponents present")
        acc = _QQ(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc * x ** self.low

    # -- division -----------------------------------------------------

    def exact_divide(self, d):
        """Quotient self / d in the Laurent ring, if it is exact.

        Raises NotDivisible when the division leaves a remainder or a
        non-integer quotient coefficient; DivisionByZero when d = 0.
        """
        if d.is_zero():
            raise DivisionByZero("division by the zero polynomial")
        if self.is_zero():
            return ZERO
        # Long division of the stripped ordinary polynomials over Z: a
        # quotient coefficient that is not an integer is never exact.
        rem = list(self.coeffs)
        den = d.coeffs
        n, lead = len(den), den[-1]
        if len(rem) < n:
            raise NotDivisible("degree of dividend below degree of divisor")
        quot = [0] * (len(rem) - n + 1)
        for i in range(len(quot) - 1, -1, -1):
            q, r = divmod(rem[i + n - 1], lead)
            if r:
                raise NotDivisible("non-integer quotient coefficients")
            if q:
                quot[i] = q
                rem[i:i + n] = map(operator.sub, rem[i:i + n],
                                   map(q.__mul__, den))
        if any(rem):
            raise NotDivisible("nonzero remainder")
        return LaurentPoly.make(self.low - d.low, quot)

    # -- coefficient predicates ---------------------------------------

    def is_palindromic(self):
        """True iff the trimmed coefficient sequence equals its reversal."""
        return self.coeffs == tuple(reversed(self.coeffs))

    def is_unimodal(self):
        """True iff the coefficients weakly rise then weakly fall."""
        cs = self.coeffs
        i = 1
        while i < len(cs) and cs[i - 1] <= cs[i]:
            i += 1
        while i < len(cs) and cs[i - 1] >= cs[i]:
            i += 1
        return i >= len(cs)

    def is_positive(self):
        """True iff nonzero and every stored coefficient is > 0."""
        return bool(self.coeffs) and all(c > 0 for c in self.coeffs)

    # -- rendering ----------------------------------------------------

    def to_str(self, var="q"):
        """Render terms in increasing exponent order, e.g. 'q^-2 + 2*q^-1 + 1'."""
        if self.is_zero():
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            k = self.low + i
            if k == 0:
                term = str(abs(c))
            else:
                v = var if k == 1 else "%s^%d" % (var, k)
                term = v if abs(c) == 1 else "%d*%s" % (abs(c), v)
            if not parts:
                parts.append(term if c > 0 else "-" + term)
            else:
                parts.append(("+ " if c > 0 else "- ") + term)
        return " ".join(parts)

    def __str__(self):
        return self.to_str()

    def to_json(self):
        """JSON form with coefficients as decimal strings (big-int safe)."""
        return {"low": self.low, "coeffs": [str(c) for c in self.coeffs]}


ZERO = LaurentPoly(0, ())
ONE = LaurentPoly(0, (1,))
Q = LaurentPoly(1, (1,))      # the variable itself
