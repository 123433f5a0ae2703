import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qburau.laurent import LaurentPoly, ONE, ZERO
from qburau.braid import BraidWord, QMatrix2, qmod_generator
from qburau.cfrac import Frac, NonPositive, enumerate_fractions
from qburau.qrational import (QRational, ZeroNumerator, burau_column_check,
                              jones, mirror_negate, q_deform, q_integer,
                              q_one_over_n, reflect, rl_product,
                              singular_dens)


def P(low, *coeffs):
    return LaurentPoly.make(low, coeffs)


class TestQDeform:
    def test_two(self):
        qr = q_deform(Frac(2, 1))
        assert (qr.num, qr.den) == (P(0, 1, 1), ONE)

    def test_one_half(self):
        qr = q_deform(Frac(1, 2))
        assert (qr.num, qr.den) == (P(1, 1), P(0, 1, 1))

    def test_two_thirds(self):
        qr = q_deform(Frac(2, 3))
        assert (qr.num, qr.den) == (P(1, 1, 1), P(0, 1, 1, 1))

    def test_five_thirds(self):
        qr = q_deform(Frac(5, 3))
        assert (qr.num, qr.den) == (P(0, 1, 1, 2, 1), P(0, 1, 1, 1))

    def test_rejects_nonpositive(self):
        with pytest.raises(NonPositive):
            q_deform(Frac(-1, 2))

    def test_specializes_at_one(self):
        for r in range(1, 25):
            for s in range(1, 25):
                if math.gcd(r, s) != 1:
                    continue
                qr = q_deform(Frac(r, s))
                assert qr.num.eval_at_one() == r
                assert qr.den.eval_at_one() == s
                assert qr.den.low == 0 and qr.den.coeffs[0] == 1


def generator_power_product(terms):
    """R_q^a1 L_q^a2 ... by matrix powers of the generators: the
    reference for the running product."""
    m = QMatrix2.identity("q")
    for i, a in enumerate(terms):
        m = m * qmod_generator("RL"[i % 2]) ** a
    return m


def running_products(terms):
    """The entries of R_q^a1 L_q^a2 R_q^a3 ... after each term, stepped
    over tuples of Python ints with closed-form generator powers: R_q^a
    has columns (q^a, 0) and ([a]_q, 1), L_q^a has columns
    (1, 1 + ... + q^(1-a)) and (0, q^-a).  The reference for the packed
    kernel."""
    a_, b_, c_, d_ = ONE, ZERO, ZERO, ONE
    for i, a in enumerate(terms):
        if i % 2 == 0:
            qa = q_integer(a)
            a_, b_ = a_.shift(a), a_ * qa + b_
            c_, d_ = c_.shift(a), c_ * qa + d_
        else:
            x = q_integer(a).shift(1 - a)
            a_, b_ = a_ + b_ * x, b_.shift(-a)
            c_, d_ = c_ + d_ * x, d_.shift(-a)
        yield a_, b_, c_, d_


class TestRLProducts:
    def test_prefixes_match_generator_powers(self):
        rng = random.Random(5)
        for _ in range(40):
            terms = [rng.randint(0, 4)] + [rng.randint(1, 6) for _ in
                                           range(rng.randint(0, 9))]
            for k in range(1, len(terms) + 1):
                assert rl_product(terms[:k]) == \
                    generator_power_product(terms[:k]).entries()

    def test_matches_running_products(self):
        # seeded terms: a first term of 0 in every fourth case, mostly
        # small terms, and terms up to 10^4
        rng = random.Random(18)
        for case in range(100):
            terms = [0 if case % 4 == 0 else rng.randint(1, 5)]
            for _ in range(rng.randint(0, 14)):
                terms.append(rng.randint(1, 6) if rng.random() < 0.85
                             else rng.randint(1, 10 ** rng.randint(2, 4)))
            want = list(running_products(terms))
            for k in {1, len(terms) // 2 + 1, len(terms)}:
                got = rl_product(terms[:k])
                assert got == want[k - 1], terms[:k]
                assert all(p.low == r.low and p.coeffs == r.coeffs
                           for p, r in zip(got, want[k - 1]))

    def test_large_terms(self):
        terms = (10 ** 4, 3, 10 ** 4, 1, 7)
        assert rl_product(terms) == list(running_products(terms))[-1]

    def test_empty_is_identity(self):
        assert rl_product(()) == (ONE, ZERO, ZERO, ONE)

    @pytest.mark.parametrize("m", [1, 2, 3, 7, 20, 64, 101, 150])
    def test_rl_power_matches_matrix_power(self, m):
        ref = (qmod_generator("R") * qmod_generator("L")) ** m
        got = rl_product((1,) * (2 * m))
        assert got == ref.entries()
        assert all(p.low == r.low and p.coeffs == r.coeffs
                   for p, r in zip(got, ref.entries()))


class TestSingularDens:
    def test_matches_q_deform(self):
        # reference: one q_deform per enumerated fraction with r < s
        ref = {}
        for max_den in range(2, 61):
            want = []
            for f in enumerate_fractions(max_den):
                if f.r < f.s:
                    if f not in ref:
                        ref[f] = q_deform(f).den
                    want.append((f, ref[f]))
            assert list(singular_dens(max_den)) == want
        # every scanned denominator has a root
        assert all(len(den.coeffs) >= 2 for _, den in singular_dens(60))

    def test_small_bounds(self):
        assert list(singular_dens(0)) == []
        assert list(singular_dens(1)) == []
        assert list(singular_dens(3)) == [(Frac(1, 2), P(0, 1, 1)),
                                          (Frac(1, 3), P(0, 1, 1, 1)),
                                          (Frac(2, 3), P(0, 1, 1, 1))]

    def test_stream_builds_only_what_is_read(self, built_rows):
        # the first rows of a large table cost a handful of rows, not the
        # 12,231 of the whole singular_dens(200)
        rows = list(itertools.islice(singular_dens(200), 3))
        assert [f for f, _ in rows] == [Frac(1, 2), Frac(1, 3), Frac(2, 3)]
        assert len(built_rows) <= 5

    def test_den_depends_on_residue(self):
        # [x+1]_q = q[x]_q + 1: den(r/s) = den((r mod s)/s)
        for f in enumerate_fractions(40):
            if f.s >= 2:
                assert q_deform(f).den == q_deform(Frac(f.r % f.s, f.s)).den

    def test_num_is_reflected_row(self):
        # reflection: num(r/s) is den((s mod r)/r) with its coefficients
        # reversed; the table has no row for r = 1, where num is q^k
        table = dict(singular_dens(90))
        for f in enumerate_fractions(30):
            num = q_deform(f).num
            if f.r == 1:
                assert num.is_monomial() and Frac(0, 1) not in table
            else:
                assert num.coeffs == table[Frac(f.s % f.r, f.r)].coeffs[::-1]

    def test_dens_monic_with_unit_constant_term(self):
        # so -1 is the only rational root any den can have
        for _, den in singular_dens(60):
            assert den.low == 0
            assert den.coeffs[0] == den.coeffs[-1] == 1
            assert all(c > 0 for c in den.coeffs)


class TestQInteger:
    def test_positive(self):
        assert q_integer(3) == P(0, 1, 1, 1)

    def test_negative(self):
        assert q_integer(-2) == P(-2, -1, -1)

    def test_zero(self):
        assert q_integer(0) == ZERO

    def test_matches_q_deform(self):
        for n in range(1, 20):
            qr = q_deform(Frac(n, 1))
            assert qr.num == q_integer(n) and qr.den == ONE


class TestReflect:
    def test_known_pair(self):
        assert reflect(q_deform(Frac(2, 3))).num == P(0, 1, 1, 1)
        assert reflect(q_deform(Frac(2, 3))).den == P(0, 1, 1)
        two = q_deform(Frac(2, 1))
        assert (reflect(two).num, reflect(two).den) == (P(1, 1), P(0, 1, 1))

    @pytest.mark.parametrize("frac", [Frac(0, 1), Frac(-3, 2)])
    def test_nonpositive_numerator(self, frac):
        with pytest.raises(ZeroNumerator):
            reflect(QRational(frac, ONE, ONE))

    def test_involution(self):
        x = q_deform(Frac(7, 5))
        y = reflect(reflect(x))
        assert (y.num, y.den, y.frac) == (x.num, x.den, x.frac)

    @given(st.integers(1, 40), st.integers(1, 40))
    @settings(max_examples=150)
    def test_matches_direct_deformation(self, r, s):
        x = Frac.of(r, s)
        direct = q_deform(x.inverse())
        via = reflect(q_deform(x))
        assert (via.num, via.den) == (direct.num, direct.den)


class TestMirror:
    def test_minus_one(self):
        num, den = mirror_negate(q_deform(Frac(1, 1)))
        assert (num, den) == (P(-1, -1), ONE)

    def test_minus_two(self):
        num, den = mirror_negate(q_deform(Frac(2, 1)))
        assert (num, den) == (P(-2, -1, -1), ONE)

    def test_specialization(self):
        num, den = mirror_negate(q_deform(Frac(5, 3)))
        assert num.eval_at_one() == -5 and den.eval_at_one() == 3


class TestOneOverN:
    def test_small(self):
        assert (q_one_over_n(1).num, q_one_over_n(1).den) == (ONE, ONE)
        assert (q_one_over_n(2).num, q_one_over_n(2).den) == (P(1, 1), P(0, 1, 1))
        assert (q_one_over_n(3).num, q_one_over_n(3).den) == (P(2, 1), P(0, 1, 1, 1))

    def test_matches_q_deform(self):
        for n in range(1, 51):
            closed = q_one_over_n(n)
            direct = q_deform(Frac(1, n))
            assert (closed.num, closed.den) == (direct.num, direct.den)

    def test_rejects(self):
        with pytest.raises(ValueError):
            q_one_over_n(0)


class TestJones:
    def test_trefoil(self):
        assert jones(Frac(3, 1)) == P(0, 1, 0, 1, 1)

    def test_unknot(self):
        assert jones(Frac(1, 1)) == ONE

    def test_five_halves(self):
        assert jones(Frac(5, 2)) == P(0, 1, 1, 1, 1, 1)


class TestBurauColumnCheck:
    def test_alternating_word_column(self):
        w = BraidWord.parse("aBaB")
        assert burau_column_check(w, Frac(5, 3))
        assert burau_column_check(w, Frac(3, 2), column=1)
        assert not burau_column_check(w, Frac(2, 3))

    def test_identity_infinity(self):
        assert burau_column_check(BraidWord(()), Frac(1, 0))


class TestPositivityUnimodality:
    def test_range(self):
        for r in range(1, 31):
            for s in range(1, r + 1):
                if math.gcd(r, s) != 1:
                    continue
                qr = q_deform(Frac(r, s))
                assert qr.num.is_positive() and qr.den.is_positive()
                assert qr.num.is_unimodal() and qr.den.is_unimodal()
