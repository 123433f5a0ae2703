import itertools
import math
import random

import pytest

from qburau.cfrac import Frac, NonPositive, cf_value, to_even_cf
from qburau.laurent import LaurentPoly, ONE
from qburau import stabilize
from qburau.qrational import QRational, q_deform, rl_product
from qburau.rootloc import NoConvergence, roots
from qburau.stabilize import (GOLDEN, NonUnitConstantTerm, PeriodicCF,
                              PowerSeries, agreement_orders, convergent,
                              radius_estimate, stabilized_series, taylor)


# The per-convergent expansions that the determinant exponents replaced,
# kept as the reference: one q_deform and one taylor per convergent.

def reference_convergent_series(x, m, order):
    frac = convergent(x, m)
    if not frac.is_positive():
        raise NonPositive("convergent is not positive")
    return taylor(q_deform(frac), order)


def reference_stabilized_series(x, order):
    window = []
    for m in itertools.count(1):
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


def reference_agreement_orders(x, m_max, probe_order):
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
        frac = convergent(x, k)
        if not frac.is_positive():
            return float("inf")
        qr = q_deform(frac)
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


class TestProductColumns:
    """The facts agreement_orders reads its orders from, checked on the
    polynomials of the running product P_m = R_q^a1 L_q^a2 ... ."""
    M = 40

    @pytest.mark.parametrize("x", CFS, ids=str)
    def test_columns_are_q_convergents(self, x):
        # convergent m is P_m's second column when m is odd, its first
        # when m is even; the column is its q-analog up to a q-power and
        # sign, and specializes to the classical fraction at q = 1
        terms = x.terms(self.M)
        for m in range(1, self.M + 1):
            a, b, c, d = rl_product(terms[:m])
            num, den = (b, d) if m % 2 else (a, c)
            frac = convergent(x, m)
            assert Frac.of(num.eval_at_one(), den.eval_at_one()) == frac
            if not frac.is_positive():
                continue
            num, den = num.shift(-den.low), den.shift(-den.low)
            if den.coeffs[0] < 0:
                num, den = -num, -den
            ref = q_deform(frac)
            assert (num, den) == (ref.num, ref.den)

    @pytest.mark.parametrize("x", CFS, ids=str)
    def test_orders_are_determinant_exponent_less_den_lows(self, x):
        terms = x.terms(self.M)
        orders = agreement_orders(x, self.M)
        det_exp = 0
        for m in range(1, self.M + 1):
            a, b, c, d = rl_product(terms[:m])
            det_exp += terms[m - 1] if m % 2 else -terms[m - 1]
            assert a * d - b * c == LaurentPoly.monomial(det_exp)
            if m == 2 and terms[0] == 0:
                assert orders[0] == 0   # convergent 1 is 0
            elif m >= 2:
                assert orders[m - 2] == det_exp - c.low - d.low


class TestMatchesPerConvergentRebuild:
    @pytest.mark.parametrize("x", CFS, ids=str)
    @pytest.mark.parametrize("order", [1, 6, 15])
    def test_stabilized_series(self, x, order):
        assert stabilized_series(x, order) == \
            reference_stabilized_series(x, order)

    @pytest.mark.parametrize("x", CFS, ids=str)
    def test_agreement_orders(self, x):
        reference = reference_agreement_orders(x, 20, 400)
        assert max(reference) < 400     # the probe never capped
        assert agreement_orders(x, 20) == reference

    @pytest.mark.parametrize("x", CFS, ids=str)
    def test_radius_estimate(self, x):
        # a reference value <= 0 fails closed (5 of the 476 cases, all at
        # m = 8, where the Richardson step overshoots)
        for m in range(2, 19):
            reference = reference_radius_estimate(x, m)
            if reference <= 0:
                with pytest.raises(NoConvergence):
                    radius_estimate(x, m)
            else:
                assert radius_estimate(x, m) == reference


class TestStabilizedSeries:
    def test_golden_order3(self):
        series, _ = stabilized_series(GOLDEN, 3)
        assert series.coeffs == (1, 0, 1)

    def test_prefix_consistency(self):
        short, _ = stabilized_series(GOLDEN, 6)
        long, _ = stabilized_series(GOLDEN, 12)
        assert long.coeffs[:6] == short.coeffs

    @pytest.mark.parametrize("m_max", [20, 130])
    def test_golden_agreement_orders(self, m_max):
        # convergents m-1 and m of the golden ratio agree on 2*(m//2) - 1
        # coefficients; 130 is past any fixed expansion order
        assert agreement_orders(GOLDEN, m_max) == \
            [2 * (m // 2) - 1 for m in range(2, m_max + 1)]

    def test_expands_one_convergent(self, monkeypatch):
        calls = {"q_deform": 0, "taylor": 0}

        def counted(name):
            fn = getattr(stabilize, name)

            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        for name in calls:
            monkeypatch.setattr(stabilize, name, counted(name))
        stabilized_series(PeriodicCF((0, 2), (1, 3)), 30)
        assert calls == {"q_deform": 1, "taylor": 1}

    @pytest.mark.parametrize("pre, per, order, expected", [
        ((), (10 ** 6,), 3, ((1, 1, 1), 1)),
        ((), (10 ** 6, 10 ** 6), 3, ((1, 1, 1), 1)),
        ((), (10 ** 6, 10 ** 6), 10, ((1,) * 10, 1)),
        ((0, 10 ** 6), (1,), 3, ((0, 0, 0), 2)),
        ((0, 10 ** 6), (1,), 10, ((0,) * 10, 2))])
    def test_large_term(self, pre, per, order, expected):
        # each term is clipped at order + 1 before the deformation, so no
        # [10^6]_q is built; the values are those of the unclipped terms
        series, m = stabilized_series(PeriodicCF(pre, per), order)
        assert (series.coeffs, m) == expected

    def test_rejects_order_zero(self):
        with pytest.raises(ValueError):
            stabilized_series(GOLDEN, 0)

    def test_golden_order_300(self):
        # the search has no cap on m; 301 convergents are needed here
        series, m = stabilized_series(GOLDEN, 300)
        assert m == 301
        assert series.coeffs[:10] == stabilized_series(GOLDEN, 10)[0].coeffs

    @pytest.mark.parametrize("x", CFS, ids=str)
    def test_stable_within_bound(self, x):
        # orders never fall after index 0 and orders[2k] >= k, so the
        # first stable m is at most 2*order + 1
        orders = agreement_orders(x, 2 * 60 + 3)
        assert all(e1 <= e2 for e1, e2 in zip(orders[1:], orders[2:]))
        assert all(orders[2 * k] >= k for k in range(len(orders) // 2))
        for order in range(1, 61):
            assert stabilized_series(x, order)[1] <= 2 * order + 1

    def test_other_quadratic_irrationals(self):
        for cf in (PeriodicCF((), (2,)), PeriodicCF((), (1, 2)),
                   PeriodicCF((1, 2), (3,))):
            series, m = stabilized_series(cf, 8)
            assert series.order == 8 and m <= 50


class TestClippedTerms:
    """The first K coefficients of a q-rational depend on each term a
    only through min(a, K + 1)."""

    def test_exhaustive(self):
        checked = 0
        for length in range(1, 5):
            for terms in itertools.product(range(4), *[range(1, 6)]
                                           * (length - 1)):
                frac = cf_value(terms)
                if not frac.is_positive():
                    continue
                qr = q_deform(frac)
                for order in range(1, 7):
                    clipped = tuple(min(a, order + 1) for a in terms)
                    if clipped != terms:
                        assert taylor(qr, order) == \
                            taylor(q_deform(cf_value(clipped)), order), \
                            (terms, order)
                        checked += 1
        assert checked == 1327

    def test_clip_at_order_is_not_enough(self):
        # the last term b of an L position reaches the series as
        # q^(b-1)/[b]_q, so b = 5 is seen at order 5 and b = 6 is not
        far = taylor(q_deform(cf_value([0, 100])), 5)
        assert far == taylor(q_deform(cf_value([0, 6])), 5)
        assert far.coeffs == (0, 0, 0, 0, 0)
        assert taylor(q_deform(cf_value([0, 5])), 5).coeffs == \
            (0, 0, 0, 0, 1)

    @pytest.mark.parametrize("pre, per", [((), (10 ** 6,)),
                                          ((), (10 ** 6, 10 ** 6)),
                                          ((0, 10 ** 6), (1,))])
    @pytest.mark.parametrize("order", [1, 3, 10])
    def test_deformed_terms_are_clipped(self, monkeypatch, pre, per, order):
        seen = []

        def recorded(frac):
            seen.append(frac)
            return q_deform(frac)

        monkeypatch.setattr(stabilize, "q_deform", recorded)
        stabilized_series(PeriodicCF(pre, per), order)
        assert len(seen) == 1
        assert max(to_even_cf(seen[0]).a) <= order + 1


class TestRadiusEstimate:
    # np.roots loses the golden dens' roots near -(3-sqrt 5)/2 as the
    # degree grows: the error is 3.6e-5 at m = 50, +8.3% at m = 60 and
    # -91% at m = 120 (estimate 0.0343)
    @pytest.mark.parametrize("m", [18, 50] + [
        pytest.param(m, marks=pytest.mark.xfail(
            strict=True, raises=AssertionError,
            reason="float den roots of high degree have large forward "
                   "error; m = 120 gives 0.0343"))
        for m in (60, 120)])
    def test_golden_limit(self, m):
        target = (3 - math.sqrt(5)) / 2
        assert abs(radius_estimate(GOLDEN, m) - target) <= 0.01 * target

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

    @pytest.mark.parametrize("m, value", [(8, "-0.07197701381"),
                                          (200, "-0.1264700537")])
    def test_non_positive_fails_closed(self, m, value):
        # m = 8: the Richardson step overshoots from the proxy 1.0 at
        # m = 6; m = 200: the float den roots are lost
        with pytest.raises(NoConvergence,
                           match=r"m=%d\): extrapolated %s from proxies"
                           % (m, value)):
            radius_estimate(GOLDEN, m)

    def test_rounding_above_one_is_kept(self):
        # no upper guard: the proxies 1.0 at m = 4 and 6 extrapolate to
        # 1.0000000000000009 by rounding
        assert radius_estimate(GOLDEN, 6) == 1.0000000000000009


class TestPowerSeriesRendering:
    def test_str(self):
        assert str(PowerSeries((1, 0, 1, -1))) == "1 + q^2 - q^3"
        assert str(PowerSeries((1, 1, 1))) == "1 + q + q^2"
