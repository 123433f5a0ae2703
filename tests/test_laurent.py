import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qburau.laurent import (LaurentPoly, NotDivisible, DivisionByZero,
                            ZeroWithNegativeExponent, ONE, ZERO,
                            _KRONECKER_MIN_TERMS, _pack, _unpack, _width)


def P(low, *coeffs):
    return LaurentPoly.make(low, coeffs)


laurent_polys = st.builds(
    lambda low, coeffs: LaurentPoly.make(low, coeffs),
    st.integers(-6, 6),
    st.lists(st.integers(-50, 50), max_size=8))

nonzero_polys = laurent_polys.filter(lambda p: not p.is_zero())

# Long polynomials with big coefficients reach the packed (Kronecker)
# product: values at and next to +-2^k field boundaries, runs of -1 (a
# borrow across every field) and runs of zeros, inside or at either end.
big_coeffs = st.one_of(
    st.integers(-2**300, 2**300),
    st.builds(lambda k, sign, off: sign * 2**k + off,
              st.integers(0, 300), st.sampled_from((1, -1)),
              st.integers(-1, 1)))
coeff_runs = st.lists(
    st.one_of(st.lists(big_coeffs, max_size=60),
              st.lists(st.just(-1), max_size=40),
              st.lists(st.just(0), max_size=8)),
    max_size=6).map(lambda runs: [c for run in runs for c in run][:200])
big_polys = st.builds(LaurentPoly.make, st.integers(-50, 50), coeff_runs)


def terms(p):
    """{exponent: coefficient} of the nonzero terms."""
    return {p.low + i: c for i, c in enumerate(p.coeffs) if c}


def is_trimmed(p):
    if not p.coeffs:
        return p.low == 0
    return p.coeffs[0] != 0 and p.coeffs[-1] != 0


def reference_add(p, r):
    out = terms(p)
    for k, c in terms(r).items():
        out[k] = out.get(k, 0) + c
    return {k: c for k, c in out.items() if c}


def reference_mul(p, r):
    """Schoolbook product, term by term."""
    out = {}
    for i, a in terms(p).items():
        for j, b in terms(r).items():
            out[i + j] = out.get(i + j, 0) + a * b
    return {k: c for k, c in out.items() if c}


class TestArithmetic:
    def test_add_identity(self):
        assert P(0, 1, 1) + ZERO == P(0, 1, 1)

    def test_add_inverse(self):
        assert P(0, 1, 1) + P(0, -1, -1) == ZERO

    def test_add_schoolbook(self):
        assert P(-1, 1, 1) + P(0, 1, 1) == P(-1, 1, 2, 1)

    def test_mul_identity(self):
        assert P(0, 1, 1) * ONE == P(0, 1, 1)

    def test_mul_schoolbook(self):
        assert P(0, 1, 1) * P(0, 1, 1, 1) == P(0, 1, 2, 2, 1)

    def test_mul_monomial_shift(self):
        assert LaurentPoly.monomial(-1) * P(1, 1, 1) == P(0, 1, 1)

    def test_shift(self):
        assert P(0, 1, 1).shift(2) == P(2, 1, 1)
        assert P(-1, 1, 1).shift(1) == P(0, 1, 1)
        assert ZERO.shift(5) == ZERO


class TestEvaluation:
    def test_eval_at_one(self):
        assert P(0, 1, 1, 1).eval_at_one() == 3
        assert ZERO.eval_at_one() == 0
        assert P(-1, 1, 1, 1).eval_at_one() == 3

    def test_eval_complex_sum(self):
        assert P(0, 1, 1).eval_complex(1) == 2

    def test_eval_complex_root_of_unity(self):
        omega = complex(math.cos(2 * math.pi / 3), math.sin(2 * math.pi / 3))
        assert abs(P(0, 1, 1, 1).eval_complex(omega)) < 1e-12

    def test_eval_complex_reciprocal(self):
        assert abs(P(-1, 1).eval_complex(2) - 0.5) < 1e-15

    def test_eval_zero_negative_exponent(self):
        with pytest.raises(ZeroWithNegativeExponent):
            P(-1, 1).eval_complex(0)


class TestSubstitutions:
    def test_invert_variable(self):
        assert P(0, 1, 1).invert_variable() == P(-1, 1, 1)
        assert P(2, 1).invert_variable() == P(-2, 1)
        assert P(0, 1, 2, 0, 1).invert_variable() == P(-3, 1, 0, 2, 1)

    def test_negate_variable(self):
        assert P(0, 1, 1).negate_variable() == P(0, 1, -1)
        assert P(0, 1).negate_variable() == P(0, 1)
        # the displayed Burau entry with t = -q
        assert P(1, -1, 1, -2, 1).negate_variable() == P(1, 1, 1, 2, 1)


class TestExactDivide:
    def test_trefoil_division(self):
        quotient = P(0, 1, 0, 1, 0, 1).exact_divide(P(0, 1, 1, 1))
        assert quotient == P(0, 1, -1, 1)
        assert quotient * P(0, 1, 1, 1) == P(0, 1, 0, 1, 0, 1)

    def test_geometric(self):
        assert P(0, 1, 0, 0, -1).exact_divide(P(0, 1, -1)) == P(0, 1, 1, 1)

    def test_not_divisible(self):
        with pytest.raises(NotDivisible):
            P(0, 1, 1).exact_divide(P(0, 1, 1, 1))

    def test_division_by_zero(self):
        with pytest.raises(DivisionByZero):
            P(0, 1).exact_divide(ZERO)

    def test_non_integral_quotient(self):
        # (3 + 3t) / (2 + 2t) = 3/2 over Q, so not exact over Z; the
        # division stops at the first quotient coefficient
        with pytest.raises(NotDivisible, match="non-integer"):
            P(0, 3, 3).exact_divide(P(0, 2, 2))
        with pytest.raises(NotDivisible):
            P(0, 2, 4, 3).exact_divide(P(0, 2, 1))


class TestPredicates:
    def test_palindromic(self):
        assert P(-2, 1, 2, 1, 2, 1).is_palindromic()
        assert P(0, 1, 1).is_palindromic()
        assert not P(0, 1, 2).is_palindromic()

    def test_unimodal(self):
        assert P(0, 1, 1, 2, 1).is_unimodal()
        assert P(0, 1, 1, 1).is_unimodal()
        assert not P(0, 1, 3, 1, 3).is_unimodal()

    def test_positive(self):
        assert P(0, 1, 1, 1).is_positive()
        assert not P(0, 1, -1).is_positive()
        assert not ZERO.is_positive()


class TestRendering:
    def test_to_str(self):
        assert P(-2, 1, 2, 1).to_str() == "q^-2 + 2*q^-1 + 1"
        assert ZERO.to_str() == "0"
        assert P(0, -1, 1).to_str() == "-1 + q"

    def test_json_round_trip(self):
        p = P(-3, 10**30, 0, -7)
        assert LaurentPoly.from_json(p.to_json()) == p


class TestProperties:
    @given(laurent_polys, laurent_polys, laurent_polys)
    def test_ring_axioms(self, p, r, s):
        assert (p + r) + s == p + (r + s)
        assert p + r == r + p
        assert (p * r) * s == p * (r * s)
        assert p * r == r * p
        assert p * (r + s) == p * r + p * s

    @given(laurent_polys)
    def test_involutions(self, p):
        assert p.invert_variable().invert_variable() == p
        assert p.negate_variable().negate_variable() == p
        assert p.invert_variable().negate_variable() == \
            p.negate_variable().invert_variable()

    @given(laurent_polys, laurent_polys)
    def test_eval_at_one_multiplicative(self, p, r):
        assert (p * r).eval_at_one() == p.eval_at_one() * r.eval_at_one()

    @given(laurent_polys, nonzero_polys)
    def test_exact_divide_round_trip(self, p, d):
        assert (p * d).exact_divide(d) == p

    @given(nonzero_polys, st.fractions(min_value=-3, max_value=3)
           .filter(lambda x: x != 0))
    @settings(max_examples=50)
    def test_eval_complex_matches_exact(self, p, x):
        exact = p.eval_exact(x)
        approx = p.eval_complex(complex(x))
        scale = max(1.0, abs(float(exact)))
        assert abs(approx - float(exact)) <= 1e-10 * scale

    def test_eval_complex_high_degree(self):
        p = LaurentPoly.make(0, [1] * 201)
        x = Fraction(9, 10)
        exact = float(p.eval_exact(x))
        assert abs(p.eval_complex(0.9) - exact) <= 1e-10 * abs(exact)


class TestFastPaths:
    """The packed product, the monomial product and the loop-free add and
    neg against the term-by-term references above."""

    @given(big_polys, big_polys)
    @settings(max_examples=150, deadline=None)
    def test_mul_matches_schoolbook(self, p, r):
        product = p * r
        assert is_trimmed(product)
        assert terms(product) == reference_mul(p, r)

    @given(big_polys, big_polys)
    @settings(max_examples=150, deadline=None)
    def test_add_neg_match_reference(self, p, r):
        total = p + r
        assert is_trimmed(total)
        assert terms(total) == reference_add(p, r)
        assert terms(-p) == {k: -c for k, c in terms(p).items()}
        assert (p - r) + r == p
        assert p - p == ZERO

    @given(big_polys, big_polys.filter(lambda p: not p.is_zero()))
    @settings(max_examples=50, deadline=None)
    def test_exact_divide_round_trip(self, p, d):
        assert (p * d).exact_divide(d) == p

    @pytest.mark.parametrize("n", [_KRONECKER_MIN_TERMS - 1,
                                   _KRONECKER_MIN_TERMS,
                                   _KRONECKER_MIN_TERMS + 1, 200])
    def test_mul_at_threshold(self, n):
        rng = random.Random(n)
        for bits in (1, 63, 64, 300):
            p = P(-3, *(rng.randint(-2**bits, 2**bits) for _ in range(n)))
            r = P(5, *(rng.choice((-1, 1)) << rng.randint(0, bits)
                       for _ in range(n)))
            assert terms(p * r) == reference_mul(p, r)

    def test_all_minus_one(self):
        p = P(0, *([-1] * 150))
        assert terms(p * p) == reference_mul(p, p)

    @pytest.mark.parametrize("c", [1, -1, 7, -(2**200)])
    def test_monomial_factor(self, c):
        p = P(-4, 3, 0, -2**90, 5)
        m = LaurentPoly.monomial(6, c)
        assert terms(p * m) == terms(m * p) == reference_mul(p, m)
        if c == 1:
            assert (p * m).coeffs is p.coeffs

    @given(st.integers(-9, 9), coeff_runs)
    @settings(max_examples=150, deadline=None)
    def test_pack_round_trip(self, low, coeffs):
        bits = max((c.bit_length() for c in coeffs), default=0)
        width = _width(bits)
        packed = _pack(coeffs, width)
        assert packed == sum(c << (8 * width * i) for i, c in enumerate(coeffs))
        assert _unpack(packed, low, width) == LaurentPoly.make(low, coeffs)

    def test_pack_field_boundaries(self):
        for width in (1, 2, 5):
            top = 2 ** (8 * width - 1)
            for coeffs in ([top - 1, -top, top - 1], [-top, -top], [-1] * 9,
                           [0, -top, 0, 0], [top - 1] * 4):
                assert _unpack(_pack(coeffs, width), 3, width) == \
                    LaurentPoly.make(3, coeffs)
