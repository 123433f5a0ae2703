"""Taylor expansion of q-rationals at q = 0 and the stabilization of the
expansions along the convergents of a quadratic irrational, which defines
the q-analog of the irrational as an integer power series.

Consecutive convergents are the two columns of one prefix product
R_q^a1 L_q^a2 ... of determinant q^(a1 - a2 + a3 - ...), so their
expansions agree on exactly as many coefficients as an exponent read off
the terms with integer arithmetic (``agreement_orders``).  Stabilization
is decided from these exponents, and only the convergent returned is
deformed and expanded, with every term clipped at order + 1.
"""
from __future__ import annotations

import math
import operator
from itertools import chain, cycle, islice
from dataclasses import dataclass

from .cfrac import cf_value
from .laurent import LaurentPoly
from .qrational import q_deform
from .rootloc import NoConvergence, roots

class NonUnitConstantTerm(ArithmeticError):
    """Series division needs a +-1 constant term in the denominator."""


class StabilizationNotReached(ArithmeticError):
    pass


@dataclass(frozen=True)
class PowerSeries:
    """First `order` integer Taylor coefficients at q = 0."""

    coeffs: tuple

    @property
    def order(self):
        return len(self.coeffs)

    def __str__(self):
        return LaurentPoly.make(0, self.coeffs).to_str()


@dataclass(frozen=True)
class PeriodicCF:
    """Eventually periodic continued fraction: a quadratic irrational."""

    preperiod: tuple
    period: tuple

    def __post_init__(self):
        if not self.period:
            raise ValueError("period must be nonempty")
        if any(x < 1 for x in self.period):
            raise ValueError("period entries must be >= 1")
        if any(x < 1 for x in self.preperiod[1:]) or \
           (self.preperiod and self.preperiod[0] < 0):
            raise ValueError("bad preperiod entries")

    def terms(self, m):
        """First m partial quotients."""
        return list(islice(chain(self.preperiod, cycle(self.period)), m))


GOLDEN = PeriodicCF((), (1,))


def taylor(qr, order):
    """First `order` Taylor coefficients of num/den at q = 0, exactly.

    The denominator of a q-rational has constant term 1, which keeps the
    coefficients integral; anything else aborts.
    """
    den = qr.den
    if den.low != 0 or den.coeffs[0] not in (1, -1):
        raise NonUnitConstantTerm("denominator constant term is not +-1")
    d0, tail = den.coeffs[0], den.coeffs[1:]
    out = []
    for n_k in map(qr.num.coeff, range(order)):
        # tail[j-1] * out[k-j] for j = 1 .. min(k, deg den)
        out.append((n_k - sum(map(operator.mul, tail, reversed(out)))) // d0)
    return PowerSeries(tuple(out))


def convergent(x, m):
    """The m-term truncation of the continued fraction, as a fraction."""
    if m < 1:
        raise ValueError("m must be >= 1")
    return cf_value(x.terms(m))


def stabilized_series(x, order):
    """Taylor coefficients of the q-analog of the irrational x.

    Finds the first m at which convergents m, m+1 and m+2 agree on the
    first `order` coefficients; returns (PowerSeries, m).  m <= 2*order+1,
    as orders[2k] >= k in agreement_orders: with g = lc - ld, an L step
    leaves g <= 1, the next R step (term >= 1) lowers no order and leaves
    g >= 1, and the L step after it (term b >= 1) adds g + b - 1 >= 1.

    m is found on the terms as they are, but convergent m is deformed
    with every term clipped at K + 1, K = order, which leaves its first
    K coefficients as they are, so a huge term costs no more than a
    term K + 1.
    By [a1, a2, ...]_q = [a1]_q + q^a1 / ([a2]_(q^-1) + q^-a2 / ([a3]_q
    + ...)) (Morier-Genoud and Ovsienko, Forum Math. Sigma 8, 2020),
    write T_j for the tail from term j.  At an R position (j odd),
    T_j = [a_j]_q + q^a_j / T_(j+1) = [K+1]_q mod q^(K+1) once
    a_j >= K+1, as 1/T_(j+1) has no negative power.  An L position
    reaches the level above only through 1/T_j = q^a_j / (q [a_j]_q +
    1/T_(j+1)), q^a_j over a unit, which is 0 mod q^(K+1) once
    a_j >= K+1.  For the last term it is q^(a_j - 1) / [a_j]_q, 0 only
    mod q^K, so the clip is at K + 1 and not K.  Each level outward keeps
    its relative precision: a unit is inverted to the precision it is
    known to, and a factor q^a loses none, so x's series agree mod q^K.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    orders = agreement_orders(x, 2 * order + 3)
    for m, (e1, e2) in enumerate(zip(orders, orders[1:]), 1):
        if e1 >= order and e2 >= order:
            clipped = [min(a, order + 1) for a in x.terms(m)]
            return taylor(q_deform(cf_value(clipped)), order), m
    raise StabilizationNotReached("no stable prefix of order %d within "
                                  "the bound m <= %d" % (order, 2 * order + 1))


def agreement_orders(x, m_max):
    """Length of the common coefficient prefix between the expansions of
    convergents m and m+1, for m = 1 .. m_max-1.  Diagnostic for the
    stabilization rate.

    Convergents m and m+1 are the columns of the (m+1)-term product
    P = R_q^a1 L_q^a2 ..., and det P = q^D with D = a1 - a2 + a3 - ....
    Every entry of R_q^a and L_q^a has nonnegative coefficients, so no
    sum in P cancels and a sum's lowest exponent is the least of its
    terms' lowest exponents; this gives the lows lc, ld of P's bottom
    row (c, d), the convergents' dens.  Shifting each column so its den
    starts at q^0 turns the cross product into +-q^(D - lc - ld), and
    both dens have constant term 1, so the two expansions first differ
    at that exponent.  A convergent equal to 0 (first term 0) agrees on
    none.
    """
    terms = x.terms(m_max)
    out = []
    det_exp, lc, ld = 0, math.inf, 0      # P = identity: c = 0, d = 1
    for i, a in enumerate(terms):
        if i % 2 == 0:      # R_q^a: c -> q^a c, d -> [a]_q c + d
            det_exp += a
            lc, ld = lc + a, min(lc, ld)
        else:               # L_q^a: c -> c + q^(1-a) [a]_q d, d -> q^-a d
            det_exp -= a
            lc, ld = min(lc, ld + 1 - a), ld - a
        if i >= 1:
            out.append(0 if i == 1 and terms[0] == 0
                       else det_exp - lc - ld)
    return out


def _min_den_root_modulus(x, k):
    """Least den root modulus of the q-analog of convergent k; inf when
    there is none (k < 1, a convergent that is not positive, a constant
    den)."""
    if k < 1 or not (frac := convergent(x, k)).is_positive():
        return math.inf
    den = q_deform(frac).den
    if len(den.coeffs) <= 1:
        return math.inf
    return min(abs(z) for z in roots(den))


def radius_estimate(x, m):
    """Radius-of-convergence estimate from the m-th convergent.

    The raw proxy at index k is the minimum modulus over the denominator
    roots of the k-th convergent's q-analog.  Its error decays like
    1/k^2 with a parity oscillation, so the estimate Richardson-
    extrapolates the proxies at m and m-2 (same parity).  When the
    shorter convergent is 0 or has a constant denominator the raw proxy at
    m is returned unchanged.  A radius is positive, so an extrapolated
    value <= 0 raises NoConvergence: the step itself gives one at m = 8
    for some x (the golden ratio's proxy at m = 6 is 1.0), and lost float
    roots of high degree give more (the golden ratio at m = 200).
    """
    if m < 2:
        raise ValueError("m must be >= 2")
    prev, cur = _min_den_root_modulus(x, m - 2), _min_den_root_modulus(x, m)
    if math.isinf(prev) or math.isinf(cur):
        return cur
    weight = m * m / (m * m - (m - 2) * (m - 2))
    value = weight * cur - (weight - 1) * prev
    if value <= 0:
        raise NoConvergence("radius_estimate(m=%d): extrapolated %.10g "
                            "from proxies %.10g at m - 2 and %.10g at m"
                            % (m, value, prev, cur))
    return value
