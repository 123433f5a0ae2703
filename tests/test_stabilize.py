import math
import random

import pytest

from qburau.cfrac import Frac, NonPositive
from qburau.laurent import LaurentPoly, ONE
from qburau.qrational import QRational, q_convergents, q_deform
from qburau.rootloc import roots
from qburau.stabilize import (GOLDEN, M_CAP, NonUnitConstantTerm, PeriodicCF,
                              PowerSeries, StabilizationNotReached,
                              agreement_orders, convergent, radius_estimate,
                              stabilized_series, taylor)


# The per-convergent rebuild that the running product replaced, kept as
# the reference: one q_deform per convergent.

def reference_convergent_series(x, m, order):
    frac = convergent(x, m)
    if not frac.is_positive():
        raise NonPositive("convergent is not positive")
    return taylor(q_deform(frac), order)


def reference_stabilized_series(x, order, m_cap=M_CAP):
    window = []
    for m in range(1, m_cap + 1):
        try:
            series = reference_convergent_series(x, m, order)
        except NonPositive:
            window = []
            continue
        window.append((m, series))
        if len(window) > 3:
            window.pop(0)
        if len(window) == 3 and \
                window[0][1] == window[1][1] == window[2][1]:
            return window[0][1], window[0][0]
    raise StabilizationNotReached("not reached")


def reference_agreement_orders(x, m_max, probe_order=120):
    series = []
    for m in range(1, m_max + 1):
        try:
            series.append(reference_convergent_series(x, m, probe_order))
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


def reference_radius_estimate(x, m):
    def proxy(k):
        qr = q_deform(convergent(x, k))
        if len(qr.den.coeffs) <= 1:
            return float("inf")
        return min(abs(z) for z in roots(qr.den))

    cur = proxy(m)
    if m - 2 < 1 or math.isinf(cur):
        return cur
    prev = proxy(m - 2)
    if math.isinf(prev):
        return cur
    weight = m * m / (m * m - (m - 2) * (m - 2))
    return weight * cur - (weight - 1) * prev


def random_cfs(seed, count):
    """Seeded quadratic irrationals; every other preperiod starts at 0."""
    rng = random.Random(seed)
    out = []
    for i in range(count):
        head = [0] if i % 2 else [rng.randint(1, 4)]
        pre = tuple(head + [rng.randint(1, 4)
                            for _ in range(rng.randint(0, 3))])
        if i % 4 == 3:
            pre = ()
        per = tuple(rng.randint(1, 4) for _ in range(rng.randint(1, 3)))
        out.append(PeriodicCF(pre, per))
    return out


CFS = random_cfs(11, 24) + [GOLDEN, PeriodicCF((0,), (1,)),
                           PeriodicCF((0, 1), (2,)), PeriodicCF((1,), (2,))]


class TestTaylor:
    def test_three_halves(self):
        # long division of (1+q+q^2) by (1+q)
        assert taylor(q_deform(Frac(3, 2)), 6).coeffs == (1, 0, 1, -1, 1, -1)

    def test_polynomial_case(self):
        assert taylor(q_deform(Frac(2, 1)), 4).coeffs == (1, 1, 0, 0)

    def test_five_thirds(self):
        assert taylor(q_deform(Frac(5, 3)), 5).coeffs == (1, 0, 1, 0, -1)

    @pytest.mark.parametrize("den", [LaurentPoly(0, (2, 1)),
                                     LaurentPoly(1, (1, 1))])
    def test_non_unit_constant_term(self, den):
        with pytest.raises(NonUnitConstantTerm):
            taylor(QRational(Frac(1, 2), ONE, den), 4)

    def test_reconstruction_identity(self):
        # series * den == num modulo q^order, exactly
        for frac in (Frac(8, 5), Frac(13, 8), Frac(7, 3)):
            qr = q_deform(frac)
            order = 25
            series = taylor(qr, order)
            for k in range(order):
                acc = sum(series.coeffs[j] * qr.den.coeff(k - j)
                          for j in range(k + 1))
                assert acc == qr.num.coeff(k)


class TestConvergent:
    def test_golden(self):
        assert convergent(GOLDEN, 2) == Frac(2, 1)
        assert convergent(GOLDEN, 5) == Frac(8, 5)

    def test_sqrt2_like(self):
        x = PeriodicCF((1,), (2,))
        assert convergent(x, 3) == Frac(7, 5)

    def test_rejects(self):
        with pytest.raises(ValueError):
            convergent(GOLDEN, 0)


class TestPeriodicCF:
    def test_terms(self):
        assert PeriodicCF((1,), (2,)).terms(4) == [1, 2, 2, 2]
        assert GOLDEN.terms(3) == [1, 1, 1]

    def test_invalid(self):
        with pytest.raises(ValueError):
            PeriodicCF((), ())
        with pytest.raises(ValueError):
            PeriodicCF((), (0,))


class TestQConvergents:
    M = 40

    @pytest.mark.parametrize("x", CFS, ids=str)
    def test_matches_per_convergent_q_deform(self, x):
        fracs = [convergent(x, m) for m in range(1, self.M + 1)]
        got = list(q_convergents(x.terms(self.M), iter(fracs)))
        assert len(got) == self.M
        for frac, qr in zip(fracs, got):
            if not frac.is_positive():
                assert qr is None
                continue
            ref = q_deform(frac)
            assert (qr.frac, qr.num, qr.den) == (ref.frac, ref.num, ref.den)

    def test_preperiod_zero_gives_none_first(self):
        got = list(q_convergents([0, 1, 1], map(Frac.of, [0, 1, 1], [1, 1, 2])))
        assert got[0] is None
        assert [qr.frac for qr in got[1:]] == [Frac(1, 1), Frac(1, 2)]

    def test_lazy(self):
        # the products stop where the consumer stops
        calls = []

        def fracs():
            for m in range(1, M_CAP + 1):
                calls.append(m)
                yield convergent(GOLDEN, m)

        stream = q_convergents(GOLDEN.terms(M_CAP), fracs())
        next(stream), next(stream)
        assert calls == [1, 2]


class TestMatchesPerConvergentRebuild:
    @pytest.mark.parametrize("x", CFS, ids=str)
    @pytest.mark.parametrize("order", [1, 6, 15])
    def test_stabilized_series(self, x, order):
        assert stabilized_series(x, order) == \
            reference_stabilized_series(x, order)

    @pytest.mark.parametrize("x", CFS, ids=str)
    def test_agreement_orders(self, x):
        assert agreement_orders(x, 20, 40) == \
            reference_agreement_orders(x, 20, 40)

    @pytest.mark.parametrize("m_cap", [1, 3, 4, 5, 8])
    def test_small_m_cap(self, m_cap):
        def outcome(fn, x):
            try:
                return fn(x, 10, m_cap)
            except StabilizationNotReached:
                return "not reached"

        outcomes = [outcome(stabilized_series, x) for x in CFS]
        assert outcomes == [outcome(reference_stabilized_series, x)
                            for x in CFS]
        if m_cap < 3:
            assert set(outcomes) == {"not reached"}

    @pytest.mark.parametrize("x", CFS, ids=str)
    def test_radius_estimate(self, x):
        for m in range(2, 19):
            if m == 3 and x.terms(1) == [0]:
                continue    # the reference fails there on q_deform(0)
            assert radius_estimate(x, m) == reference_radius_estimate(x, m)


class TestStabilizedSeries:
    def test_golden_order3(self):
        series, _ = stabilized_series(GOLDEN, 3)
        assert series.coeffs == (1, 0, 1)

    def test_prefix_consistency(self):
        short, _ = stabilized_series(GOLDEN, 6)
        long, _ = stabilized_series(GOLDEN, 12)
        assert long.coeffs[:6] == short.coeffs

    def test_agreement_orders_monotone(self):
        orders = agreement_orders(GOLDEN, 20)
        assert all(a <= b for a, b in zip(orders, orders[1:]))

    def test_not_reached(self):
        with pytest.raises(StabilizationNotReached):
            stabilized_series(GOLDEN, 10, m_cap=5)

    def test_other_quadratic_irrationals(self):
        for cf in (PeriodicCF((), (2,)), PeriodicCF((), (1, 2)),
                   PeriodicCF((1, 2), (3,))):
            series, m = stabilized_series(cf, 8)
            assert series.order == 8 and m <= 50


class TestRadiusEstimate:
    def test_golden_limit(self):
        target = (3 - math.sqrt(5)) / 2
        assert abs(radius_estimate(GOLDEN, 18) - target) <= 0.01 * target

    def test_early_convergent(self):
        assert abs(radius_estimate(GOLDEN, 3) - 1.0) < 1e-9

    def test_conjectured_lower_bound(self):
        floor = 0.381966 - 0.01
        for cf in (GOLDEN, PeriodicCF((), (2,)), PeriodicCF((), (1, 2)),
                   PeriodicCF((1,), (2,)), PeriodicCF((2, 1), (1,))):
            assert radius_estimate(cf, 18) >= floor

    def test_zero_convergent_two_back(self):
        # x = [0; 1, 1, ...]: convergent 1 is 0, so the raw proxy at m = 3
        # (1/2, den 1 + q, root -1) is returned
        assert radius_estimate(PeriodicCF((0,), (1,)), 3) == 1.0

    def test_rejects(self):
        with pytest.raises(ValueError):
            radius_estimate(GOLDEN, 1)


class TestPowerSeriesRendering:
    def test_str(self):
        assert str(PowerSeries((1, 0, 1, -1))) == "1 + q^2 - q^3"
