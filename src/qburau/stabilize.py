"""Taylor expansion of q-rationals at q = 0 and the stabilization of the
expansions along the convergents of a quadratic irrational, which defines
the q-analog of the irrational as an integer power series.

Consecutive convergents are the two columns of one prefix product
R_q^a1 L_q^a2 ..., so every convergent's q-analog is read off a single
running product (``qrational.q_convergents(terms)``) instead of being
rebuilt, and its fraction is that column's value at q = 1.
"""
from __future__ import annotations

import math
import operator
from itertools import chain, cycle, islice, takewhile
from dataclasses import dataclass

from .cfrac import cf_value
from .qrational import q_convergents
from .rootloc import roots

M_CAP = 200


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
        parts = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            term = "q^%d" % k if k else "1"
            if abs(c) != 1 or k == 0:
                term = ("%d" % abs(c)) if k == 0 else "%d*%s" % (abs(c), term)
            parts.append((("+ " if parts else "") if c > 0 else "- ") + term)
        return " ".join(parts) if parts else "0"


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


def stabilized_series(x, order, m_cap=M_CAP):
    """Taylor coefficients of the q-analog of the irrational x.

    Increases m until three consecutive convergents agree on the first
    `order` coefficients; returns (PowerSeries, m) where m is the first
    index of the agreeing triple.
    """
    prev, run = None, 0
    for m, qr in enumerate(q_convergents(x.terms(m_cap)), 1):
        series = None if qr is None else taylor(qr, order)
        run = run + 1 if series is not None and series == prev else 1
        if run == 3:
            return series, m - 2
        prev = series
    raise StabilizationNotReached(
        "no stable prefix of order %d within m <= %d" % (order, m_cap))


def agreement_orders(x, m_max, probe_order=120):
    """Length of the common coefficient prefix between consecutive
    convergents' expansions, for m = 1 .. m_max-1.  Diagnostic for the
    stabilization rate."""
    # a nonpositive convergent has no coefficients, so it agrees on none
    coeffs = [() if qr is None else taylor(qr, probe_order).coeffs
              for qr in q_convergents(x.terms(m_max))]
    return [len(list(takewhile(bool, map(operator.eq, prev, cur))))
            for prev, cur in zip(coeffs, coeffs[1:])]


def _min_den_root_modulus(qr):
    if qr is None or len(qr.den.coeffs) <= 1:
        return float("inf")
    return min(abs(z) for z in roots(qr.den))


def radius_estimate(x, m):
    """Radius-of-convergence estimate from the m-th convergent.

    The raw proxy at index k is the minimum modulus over the denominator
    roots of the k-th convergent's q-analog.  Its error decays like
    1/k^2 with a parity oscillation, so the estimate Richardson-
    extrapolates the proxies at m and m-2 (same parity).  When the
    shorter convergent is 0 or has a constant denominator the raw proxy at
    m is returned unchanged.
    """
    if m < 2:
        raise ValueError("m must be >= 2")
    # the q-analogs of convergents m-2 and m (None when m-2 = 0)
    prev, cur = map(_min_den_root_modulus,
                    [None, *q_convergents(x.terms(m))][-3::2])
    if math.isinf(prev) or math.isinf(cur):
        return cur
    weight = m * m / (m * m - (m - 2) * (m - 2))
    return weight * cur - (weight - 1) * prev
