"""Taylor expansion of q-rationals at q = 0 and the stabilization of the
expansions along the convergents of a quadratic irrational, which defines
the q-analog of the irrational as an integer power series.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass

from .cfrac import Frac, NonPositive, cf_value
from .qrational import q_deform
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

    def prefix(self, k):
        return PowerSeries(self.coeffs[:k])

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
        out = list(self.preperiod)
        i = 0
        while len(out) < m:
            out.append(self.period[i % len(self.period)])
            i += 1
        return out[:m]


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


def _convergent_series(x, m, order):
    frac = convergent(x, m)
    if not frac.is_positive():
        raise NonPositive("convergent is not positive")
    return taylor(q_deform(frac), order)


def stabilized_series(x, order, m_cap=M_CAP):
    """Taylor coefficients of the q-analog of the irrational x.

    Increases m until three consecutive convergents agree on the first
    `order` coefficients; returns (PowerSeries, m) where m is the first
    index of the agreeing triple.
    """
    window = []
    for m in range(1, m_cap + 1):
        try:
            series = _convergent_series(x, m, order)
        except NonPositive:
            window = []
            continue
        window.append((m, series))
        if len(window) > 3:
            window.pop(0)
        if len(window) == 3 and \
                window[0][1] == window[1][1] == window[2][1]:
            return window[0][1], window[0][0]
    raise StabilizationNotReached(
        "no stable prefix of order %d within m <= %d" % (order, m_cap))


def agreement_orders(x, m_max, probe_order=120):
    """Length of the common coefficient prefix between consecutive
    convergents' expansions, for m = 1 .. m_max-1.  Diagnostic for the
    stabilization rate."""
    series = []
    for m in range(1, m_max + 1):
        try:
            series.append(_convergent_series(x, m, probe_order))
        except NonPositive:
            series.append(None)
    out = []
    for prev, cur in zip(series, series[1:]):
        if prev is None or cur is None:
            out.append(0)
            continue
        k = 0
        while k < probe_order and prev.coeffs[k] == cur.coeffs[k]:
            k += 1
        out.append(k)
    return out


def _min_den_root_modulus(x, m):
    qr = q_deform(convergent(x, m))
    if len(qr.den.coeffs) <= 1:
        return float("inf")
    return min(abs(z) for z in roots(qr.den))


def radius_estimate(x, m):
    """Radius-of-convergence estimate from the m-th convergent.

    The raw proxy at index k is the minimum modulus over the denominator
    roots of the k-th convergent's q-analog.  Its error decays like
    1/k^2 with a parity oscillation, so the estimate Richardson-
    extrapolates the proxies at m and m-2 (same parity).  When the
    shorter convergent has a constant denominator the raw proxy at m is
    returned unchanged.
    """
    if m < 2:
        raise ValueError("m must be >= 2")
    cur = _min_den_root_modulus(x, m)
    if m - 2 < 1 or math.isinf(cur):
        return cur
    prev = _min_den_root_modulus(x, m - 2)
    if math.isinf(prev):
        return cur
    weight = m * m / (m * m - (m - 2) * (m - 2))
    return weight * cur - (weight - 1) * prev
