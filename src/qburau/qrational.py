"""q-deformed rationals: the pair (num, den) of Laurent polynomials whose
quotient deforms r/s, built from the q-deformed continued-fraction matrix
word in R_q and L_q.

Canonical normalization clears the common q-power so that den has lowest
exponent 0 and a positive constant term; this reproduces the familiar
displayed forms q/(1+q), (q+q^2)/(1+q+q^2), ...
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from heapq import heappop, heappush

from .laurent import LaurentPoly, ONE, ZERO, Q
from .braid import rho3
from .cfrac import Frac, Infinite, NonPositive, to_even_cf


class ZeroNumerator(ValueError):
    pass


def _normalize_pair(num, den):
    """Shift so den.low = 0; flip sign so den's constant term is positive."""
    if den.is_zero():
        raise ZeroDivisionError("denominator polynomial is zero")
    shift = -den.low
    num, den = num.shift(shift), den.shift(shift)
    if den.coeffs[0] < 0:
        num, den = -num, -den
    return num, den


@dataclass(frozen=True)
class QRational:
    """The q-analog of a positive rational: frac, num and den polynomials."""

    frac: Frac
    num: LaurentPoly
    den: LaurentPoly

    def __str__(self):
        if self.den == ONE:
            return self.num.to_str()
        return "(%s)/(%s)" % (self.num.to_str(), self.den.to_str())

    def to_json(self):
        return {"r": self.frac.r, "s": self.frac.s,
                "num": self.num.to_json(), "den": self.den.to_json()}


def rl_products(terms):
    """The running product R_q^a1 L_q^a2 R_q^a3 ... in q-convention over
    any sequence of terms: yields its entries (a, b, c, d) after each term.

    Generator powers have closed forms (R_q^a has columns (q^a, 0) and
    ([a]_q, 1); L_q^a has columns (1, 1+...+q^(1-a)) and (0, q^-a)), so
    each term costs one scalar-polynomial product per row.
    """
    a_, b_, c_, d_ = ONE, ZERO, ZERO, ONE
    for i, a in enumerate(terms):
        if i % 2 == 0:
            qa = q_integer(a)
            a_, b_ = a_.shift(a), a_ * qa + b_
            c_, d_ = c_.shift(a), c_ * qa + d_
        else:
            x = q_integer(a).shift(1 - a)   # 1 + q^-1 + ... + q^(1-a)
            a_, b_ = a_ + b_ * x, b_.shift(-a)
            c_, d_ = c_ + d_ * x, d_.shift(-a)
        yield a_, b_, c_, d_


def rl_product(terms):
    """The entries of the whole word R_q^a1 L_q^a2 ... (terms nonempty)."""
    return deque(rl_products(terms), maxlen=1).pop()


def q_convergents(terms, fracs):
    """The q-analogs of the convergents of the continued fraction `terms`,
    whose fractions (the values of terms[:1], terms[:2], ...) are `fracs`;
    None where a fraction is not positive.

    Consecutive convergents are the two columns of one prefix product:
    convergent m is the second column of the m-term product when m is
    odd, the first column when m is even.
    """
    steps = zip(rl_products(terms), fracs)
    for m, ((a, b, c, d), frac) in enumerate(steps, 1):
        if not frac.is_positive():
            yield None
            continue
        num, den = _normalize_pair(b, d) if m % 2 else _normalize_pair(a, c)
        yield QRational(frac, num, den)


def q_deform(x):
    """The q-analog of a positive fraction, from the first column of the
    deformed continued-fraction matrix."""
    if x.is_infinite():
        raise Infinite("no q-analog of infinity as a QRational")
    if not x.is_positive():
        raise NonPositive("q_deform defined for positive fractions")
    a, _, c, _ = rl_product(to_even_cf(x).a)
    num, den = _normalize_pair(a, c)
    return QRational(x, num, den)


def singular_dens(max_den):
    """Yield (Frac(r, s), q_deform(Frac(r, s)).den) for every coprime
    1 <= r < s <= max_den, lazily and in (s, r) order.

    These are all the q-analog denominators up to max_den: [x+1]_q =
    q[x]_q + 1 (Morier-Genoud and Ovsienko, Forum Math. Sigma 8, 2020), so
    the denominator of r/s depends only on r mod s.

    They are built by Stern-Brocot descent from the word L, whose fraction
    is 1/2.  The fraction of a word W is the one whose canonical word is
    W.L, so its first column is the sum of W's columns.  A node keeps the
    classical columns (r1, s1), (r2, s2) of W and the bottom row (c, d) of
    W in R_q, L_q; its children are W.L_q, with row (c + d, d/q), and
    W.R_q, with row (q*c, c + d).  A child's s exceeds its parent's, so a
    heap keyed on (s, r) yields the rows in order; a caller that stops
    early builds only the rows it read and their children.
    """
    # the root is the word L: classical columns (1, 1) and (0, 1), q-row
    # (1, q^-1).  Each coprime r/s is exactly one Stern-Brocot node, so the
    # (s, r) keys are unique and the heap never compares the polynomials
    heap = [(2, 1, 1, 1, 0, 1, ONE, LaurentPoly.monomial(-1))] \
        if max_den >= 2 else []
    while heap:
        s, r, r1, s1, r2, s2, c, d = heappop(heap)
        cd = c + d
        yield Frac(r, s), cd.shift(-cd.low)
        if s + s2 <= max_den:
            heappush(heap, (s + s2, r + r2, r, s, r2, s2, cd, d.shift(-1)))
        if s1 + s <= max_den:
            heappush(heap, (s1 + s, r1 + r, r1, s1, r, s, c.shift(1), cd))


def q_integer(n):
    """[n]_q: 1 + q + ... + q^(n-1) for n >= 1; -q^-1 - ... - q^-n for
    n <= -1; 0 for n = 0."""
    if n == 0:
        return ZERO
    if n > 0:
        return LaurentPoly(0, (1,) * n)
    return LaurentPoly(n, (-1,) * (-n))


def reflect(x):
    """The q-analog of s/r from that of r/s: swap and invert the variable."""
    if x.frac.r <= 0:
        raise ZeroNumerator("reflection needs a positive numerator")
    num, den = _normalize_pair(x.den.invert_variable(),
                               x.num.invert_variable())
    return QRational(x.frac.inverse(), num, den)


def mirror_negate(x):
    """Numerator/denominator pair of the q-analog of -r/s:
    (-num(q^-1), q*den(q^-1)), normalized like a QRational pair."""
    return _normalize_pair(-x.num.invert_variable(),
                           x.den.invert_variable().shift(1))


def q_one_over_n(n):
    """Closed form of the q-analog of 1/n: q^(n-1)(1-q)/(1-q^n), with the
    common (1-q) factor cancelled."""
    if n < 1:
        raise ValueError("n must be >= 1")
    one_minus_q = ONE - Q
    num = one_minus_q.shift(n - 1)
    den = ONE - Q ** n
    num = num.exact_divide(one_minus_q)
    den = den.exact_divide(one_minus_q)
    num, den = _normalize_pair(num, den)
    return QRational(Frac(1, n), num, den)


def jones(x):
    """Normalized Jones polynomial of the two-bridge knot of a positive
    fraction: q*num + (1-q)*den."""
    qr = q_deform(x)
    return Q * qr.num + (ONE - Q) * qr.den


def burau_column_check(word, expected, column=0):
    """Check that a column of the Burau matrix of `word`, moved to the
    q-convention and normalized, realizes the q-analog of `expected`.

    column 0 is (a, c), column 1 is (b, d).  Infinity (1/0) matches a
    column whose denominator entry is identically zero and whose
    numerator is a monomial.
    """
    m = rho3(word).to_q_convention()
    num, den = (m.a, m.c) if column == 0 else (m.b, m.d)
    if expected.is_infinite():
        return den.is_zero() and num.is_monomial()
    if den.is_zero():
        return False
    num, den = _normalize_pair(num, den)
    qr = q_deform(expected)
    return num == qr.num and den == qr.den
