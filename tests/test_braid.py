import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qburau.laurent import LaurentPoly, ONE, ZERO
from qburau.braid import (BraidWord, ConventionMismatch, NotUnitDeterminant,
                          QMatrix2, WordParseError, ZeroMatrix, _BLOCK,
                          burau_generator, qmod_generator, qmod_word, rho3)


def P(low, *coeffs):
    return LaurentPoly.make(low, coeffs)


T = LaurentPoly.var()


def generator_product(w):
    """rho3 as the left-to-right product of the generator matrices."""
    m = QMatrix2.identity("t")
    for g in w.letters:
        m = m * burau_generator(g)
    return m


braid_words = st.builds(
    lambda ls: BraidWord(tuple(ls)),
    st.lists(st.sampled_from([1, -1, 2, -2]), max_size=14))


class TestWordParsing:
    def test_compact(self):
        assert BraidWord.parse("aBaB").letters == (1, -2, 1, -2)

    def test_indices(self):
        assert BraidWord.parse("1,-2,1,-2").letters == (1, -2, 1, -2)

    def test_empty(self):
        assert BraidWord.parse("").letters == ()

    def test_bad(self):
        with pytest.raises(WordParseError):
            BraidWord.parse("axb")


class TestGenerators:
    def test_sigma1(self):
        assert burau_generator(1) == QMatrix2(-T, ONE, ZERO, ONE, "t")

    def test_sigma2(self):
        assert burau_generator(2) == QMatrix2(ONE, ZERO, T, -T, "t")

    def test_inverses_multiply_to_identity(self):
        ident = QMatrix2.identity("t")
        for g in (1, 2):
            assert burau_generator(g) * burau_generator(-g) == ident
            assert burau_generator(-g) * burau_generator(g) == ident

    def test_sigma1_inverse_entries(self):
        assert burau_generator(-1) == QMatrix2(P(-1, -1), P(-1, 1), ZERO, ONE, "t")

    def test_qmod_generators(self):
        q = LaurentPoly.var()
        assert qmod_generator("R") == QMatrix2(q, ONE, ZERO, ONE, "q")
        assert qmod_generator("L") == QMatrix2(ONE, ZERO, ONE, P(-1, 1), "q")
        ident = QMatrix2.identity("q")
        assert qmod_generator("Ri") * qmod_generator("R") == ident
        assert qmod_generator("Li") * qmod_generator("L") == ident


class TestRho3:
    def test_center(self):
        t3 = LaurentPoly.monomial(3)
        assert rho3(BraidWord.parse("ababab")) == QMatrix2(t3, ZERO, ZERO, t3, "t")

    def test_braid_relation(self):
        assert rho3(BraidWord.parse("aba")) == rho3(BraidWord.parse("bab"))

    def test_alternating_word_matrix(self):
        # t^-2 [[-t+t^2-2t^3+t^4, 1-t+t^2], [-t+t^2-t^3, 1-t]]
        m = rho3(BraidWord.parse("aBaB"))
        assert m.a == P(-1, -1, 1, -2, 1)
        assert m.b == P(-2, 1, -1, 1)
        assert m.c == P(-1, -1, 1, -1)
        assert m.d == P(-2, 1, -1)

    def test_matches_generator_products(self):
        rng = random.Random(7)
        for _ in range(50):
            w = BraidWord(tuple(rng.choice((1, -1, 2, -2))
                                for _ in range(rng.randint(0, 12))))
            assert rho3(w) == generator_product(w)

    @pytest.mark.parametrize("n", [0, 1, _BLOCK - 1, _BLOCK, _BLOCK + 1,
                                   2 * _BLOCK, 2 * _BLOCK + 1, 400])
    def test_long_words_match_generator_products(self, n):
        rng = random.Random(n)
        for _ in range(3):
            w = BraidWord(tuple(rng.choice((1, -1, 2, -2)) for _ in range(n)))
            assert rho3(w) == generator_product(w)

    @pytest.mark.parametrize("text", ["aB", "ab", "AB", "Ab", "aaB", "bA"])
    def test_high_growth_powers(self, text):
        # coefficients of (aB)^k grow by about 0.7 bits per letter
        w = BraidWord.parse(text)
        for k in (1, 60, 250):
            power = BraidWord(w.letters * k)
            m = rho3(power)
            assert m == rho3(w) ** k
            e = power.exponent_sum()
            assert m.det() == LaurentPoly.monomial(e, -1 if e % 2 else 1)
        assert rho3(BraidWord(w.letters * 60)) == \
            generator_product(BraidWord(w.letters * 60))


class TestMatrixAlgebra:
    def test_rq_squared(self):
        r = qmod_generator("R")
        assert r * r == QMatrix2(P(2, 1), P(0, 1, 1), ZERO, ONE, "q")

    def test_rq_lq(self):
        m = qmod_word("R L")
        assert m == QMatrix2(P(0, 1, 1), P(-1, 1), ONE, P(-1, 1), "q")

    def test_det_trace(self):
        assert qmod_generator("R").det() == LaurentPoly.var()
        assert burau_generator(1).det() == -T
        tr = rho3(BraidWord.parse("aBaB")).to_q_convention().trace()
        assert tr == P(-2, 1, 2, 1, 2, 1)

    def test_convention_mismatch(self):
        with pytest.raises(ConventionMismatch):
            burau_generator(1) * qmod_generator("R")

    def test_inverse(self):
        r = qmod_generator("R")
        assert r.inverse() == qmod_generator("Ri")
        ident = QMatrix2.identity("q")
        assert ident.inverse() == ident

    def test_inverse_non_unit_det(self):
        with pytest.raises(NotUnitDeterminant):
            QMatrix2(P(0, 1, 1), ZERO, ZERO, ONE, "q").inverse()


class TestConventionBridge:
    def test_sigma1_becomes_rq(self):
        assert burau_generator(1).to_q_convention() == qmod_generator("R")

    def test_sigma2_inverse_becomes_lq(self):
        assert burau_generator(-2).to_q_convention() == qmod_generator("L")

    def test_odd_monomial_sign(self):
        t3 = LaurentPoly.monomial(3)
        m = QMatrix2(t3, ZERO, ZERO, t3, "t").to_q_convention()
        assert m.a == LaurentPoly.monomial(3, -1)

    def test_double_conversion_rejected(self):
        with pytest.raises(ConventionMismatch):
            burau_generator(1).to_q_convention().to_q_convention()


class TestProjective:
    def test_center_class_is_identity(self):
        m = rho3(BraidWord.parse("ababab"))
        assert m.projective_normalize() == QMatrix2.identity("t")

    def test_scalar_class(self):
        r = qmod_generator("R")
        scaled = r.scale(LaurentPoly.monomial(5, -1))
        assert scaled.projective_equal(r)
        assert scaled.projective_normalize() == r.projective_normalize()

    def test_idempotent(self):
        m = rho3(BraidWord.parse("aBaB"))
        once = m.projective_normalize()
        assert once.projective_normalize() == once

    def test_distinct_classes(self):
        assert not qmod_generator("R").projective_equal(qmod_generator("L"))

    def test_zero_matrix(self):
        with pytest.raises(ZeroMatrix):
            QMatrix2(ZERO, ZERO, ZERO, ZERO, "q").projective_normalize()


class TestInvariantProperties:
    @given(braid_words)
    @settings(max_examples=200)
    def test_determinant_exponent(self, w):
        e = w.exponent_sum()
        # det rho3(w) = (-t)^e
        assert rho3(w).det() == LaurentPoly.monomial(e, -1 if e % 2 else 1)

    @given(braid_words)
    @settings(max_examples=200)
    def test_palindromic_trace(self, w):
        assert rho3(w).to_q_convention().trace().is_palindromic()

    @given(braid_words)
    @settings(max_examples=100)
    def test_free_cancellation(self, w):
        assert rho3(w * w.inverse()) == QMatrix2.identity("t")

    @given(braid_words)
    @settings(max_examples=100)
    def test_inverse_involution(self, w):
        m = rho3(w)
        assert m.inverse().inverse() == m
