import cmath
import math
import random
from fractions import Fraction as QQ

import pytest

from qburau.laurent import LaurentPoly
from qburau.braid import BraidWord, rho3
from qburau.cfrac import Frac, enumerate_fractions
from qburau.qrational import q_deform
from qburau.rootloc import roots
from qburau.faithful import (ComplexValue, RealValue, RootOfUnity, ZeroInput,
                             alexander, braids_equal, classify_specialization,
                             is_trivial_braid, parse_point,
                             sigma1_z_word, triangular_decompose)
from qburau.faithful import (FAITHFUL_NEGATIVE_REAL, FAITHFUL_OUTSIDE_ANNULUS,
                             NO_WITNESS_UP_TO, UNFAITHFUL_CENTER,
                             UNFAITHFUL_POLE_WITNESS,
                             UNFAITHFUL_ROOT_OF_UNITY, WITNESS_TOL, Verdict)


def P(low, *coeffs):
    return LaurentPoly.make(low, coeffs)


def reference_scan(q0, max_den, dens):
    """The pole search as a scan of every enumerated fraction in (s, r)
    order, r > s included, one q_deform per fraction; dens holds
    (frac, q_deform(frac).den) for enumerate_fractions(max_den)."""
    for frac, den in dens:
        if len(den.coeffs) <= 1:
            continue
        scale = max(abs(c) for c in den.coeffs) * len(den.coeffs)
        if abs(den.eval_complex(q0)) / scale < WITNESS_TOL:
            root = min(roots(den), key=lambda w: abs(w - q0))
            if abs(root - q0) < 1e-4:
                return Verdict(UNFAITHFUL_POLE_WITNESS, witness_frac=frac,
                               root=root)
    return Verdict(NO_WITNESS_UP_TO, max_den=max_den)


def random_word(rng, max_len):
    n = rng.randint(0, max_len)
    return BraidWord(tuple(rng.choice((1, -1, 2, -2)) for _ in range(n)))


class TestPointParsing:
    def test_parse(self):
        assert parse_point("-1") == RealValue(QQ(-1))
        assert parse_point("1/2") == RealValue(QQ(1, 2))
        assert parse_point("zeta(5,1)") == RootOfUnity(5, 1)
        assert parse_point("0.5+0.2i") == ComplexValue(0.5 + 0.2j)

    def test_zero_rejected(self):
        with pytest.raises(ZeroInput):
            RealValue(QQ(0))
        with pytest.raises(ZeroInput):
            ComplexValue(0j)

    def test_bad_root_of_unity(self):
        with pytest.raises(ValueError):
            RootOfUnity(3, 3)


class TestClassifier:
    def test_center(self):
        assert classify_specialization(RealValue(QQ(-1))).kind == UNFAITHFUL_CENTER

    def test_one_has_pole_witness(self):
        v = classify_specialization(RealValue(QQ(1)), max_den=10)
        assert v.kind == UNFAITHFUL_POLE_WITNESS
        assert v.witness_frac == Frac(1, 2)
        assert abs(v.root + 1) < 1e-10

    def test_negative_real(self):
        assert classify_specialization(RealValue(QQ(-2))).kind == \
            FAITHFUL_NEGATIVE_REAL

    def test_outside_annulus(self):
        assert classify_specialization(RealValue(QQ(10))).kind == \
            FAITHFUL_OUTSIDE_ANNULUS
        assert classify_specialization(ComplexValue(0.05 + 0j)).kind == \
            FAITHFUL_OUTSIDE_ANNULUS

    def test_root_of_unity(self):
        v = classify_specialization(RootOfUnity(5, 1))
        assert v.kind == UNFAITHFUL_ROOT_OF_UNITY
        assert v.witness_frac == Frac(1, 10)
        # minus a primitive 2nd root of unity is the center
        assert classify_specialization(RootOfUnity(2, 1)).kind == \
            UNFAITHFUL_CENTER

    def test_inside_annulus_no_witness(self):
        v = classify_specialization(RealValue(QQ(1, 2)), max_den=12)
        assert v.kind == NO_WITNESS_UP_TO
        assert v.max_den == 12

    def test_float_near_sigma_point_finds_witness(self):
        # t0 = 1.0 as a float lands on the pole of the q-analog of 1/2
        v = classify_specialization(ComplexValue(1.0 + 0j), max_den=6)
        assert v.kind == UNFAITHFUL_POLE_WITNESS
        assert v.witness_frac == Frac(1, 2)

    def test_witness_denominator_vanishes(self):
        for point in (RealValue(QQ(1)), ComplexValue(-0.5 + 0.866025403784j)):
            v = classify_specialization(point, max_den=15)
            if v.kind != UNFAITHFUL_POLE_WITNESS:
                continue
            from qburau.faithful import _as_complex
            den = q_deform(v.witness_frac).den
            scale = max(abs(c) for c in den.coeffs) * len(den.coeffs)
            assert abs(den.eval_complex(-_as_complex(point))) / scale < 1e-8

    def test_scan_matches_per_fraction_reference(self):
        max_den = 20
        dens = [(f, q_deform(f).den) for f in enumerate_fractions(max_den)]
        rng = random.Random(2024)
        planted = []
        for _ in range(12):
            frac, den = rng.choice([fd for fd in dens if fd[0].s >= 2])
            planted.append((frac, -rng.choice(roots(den))))
        points = [ComplexValue(t0) for _, t0 in planted]
        for _ in range(12):
            modulus = math.exp(rng.uniform(math.log(0.2), math.log(5.5)))
            points.append(ComplexValue(
                cmath.rect(modulus, rng.uniform(-math.pi, math.pi))))
        points.append(RealValue(QQ(1)))
        for _ in range(12):
            q = rng.randint(1, 30)
            points.append(RealValue(QQ(rng.randint(q // 5 + 1, 5 * q), q)))
        for point in points:
            t0 = point.z if isinstance(point, ComplexValue) else point.x
            want = reference_scan(-complex(t0), max_den, dens)
            assert classify_specialization(point, max_den) == want
        # every planted pole is found, at its own residue class or earlier
        for (frac, _), point in zip(planted, points):
            v = classify_specialization(point, max_den)
            assert v.kind == UNFAITHFUL_POLE_WITNESS
            assert v.witness_frac.r < v.witness_frac.s
            assert v.witness_frac.sort_key <= (frac.s, frac.r % frac.s)

    def test_real_annulus_is_exact(self):
        # sqrt8 is 2*sqrt2 rounded down at 20 digits: the points below lie
        # within 2e-20 of 3 - 2*sqrt2 and 3 + 2*sqrt2, on either side
        sqrt8 = QQ(math.isqrt(8 * 10 ** 40), 10 ** 20)
        ulp = QQ(1, 10 ** 20)
        for x in (3 + sqrt8 + ulp, 3 - sqrt8 - ulp):
            assert classify_specialization(RealValue(x), 4).kind == \
                FAITHFUL_OUTSIDE_ANNULUS
        for x in (3 + sqrt8, 3 - sqrt8 + ulp):
            assert classify_specialization(RealValue(x), 4).kind == \
                NO_WITNESS_UP_TO

    def test_huge_and_tiny_reals(self):
        # too large or too small for a float
        for x in (QQ(10) ** 400, QQ(1, 10 ** 400)):
            assert classify_specialization(RealValue(x)).kind == \
                FAITHFUL_OUTSIDE_ANNULUS

    def test_faithful_verdicts_survive_denominator_sweep(self):
        # no q-analog denominator with r,s <= 40 comes close to vanishing
        for t0 in (QQ(-2), QQ(10)):
            v = classify_specialization(RealValue(t0))
            assert v.is_faithful()
            q0 = complex(-t0)
            for r in range(1, 41):
                for s in range(1, 41):
                    if math.gcd(r, s) != 1:
                        continue
                    den = q_deform(Frac(r, s)).den
                    scale = max(abs(c) for c in den.coeffs) * len(den.coeffs)
                    assert abs(den.eval_complex(q0)) / scale > 1e-8


class TestWordProblem:
    def test_trivial(self):
        assert is_trivial_braid(BraidWord.parse("aA"))
        assert is_trivial_braid(BraidWord.parse("abaBAB"))
        assert not is_trivial_braid(BraidWord.parse("ab"))

    def test_braids_equal(self):
        assert braids_equal(BraidWord.parse("aba"), BraidWord.parse("bab"))
        assert braids_equal(BraidWord.parse("ababab"),
                            BraidWord((1, 2, 1, 2, 1, 2)))
        assert not braids_equal(BraidWord.parse("a"), BraidWord.parse("b"))

    def test_agrees_with_rational_fingerprint(self):
        # independent check: specialize the Burau matrix exactly at two
        # rational points; identity there must match the formal identity
        points = (QQ(3, 7), QQ(-5, 2))
        rng = random.Random(11)
        for _ in range(1000):
            w = random_word(rng, 12)
            m = rho3(w)
            fingerprint_trivial = all(
                m.a.eval_exact(x) == 1 and m.d.eval_exact(x) == 1
                and m.b.eval_exact(x) == 0 and m.c.eval_exact(x) == 0
                for x in points)
            assert is_trivial_braid(w) == fingerprint_trivial


class TestTriangularDecompose:
    def test_powers_of_sigma1(self):
        assert triangular_decompose(BraidWord.parse("aaa")) == (3, 0)

    def test_center(self):
        assert triangular_decompose(BraidWord.parse("ababab")) == (0, 1)

    def test_not_member(self):
        assert triangular_decompose(BraidWord.parse("ab")) is None

    def test_mixed(self):
        w = BraidWord(sigma1_z_word(-2, 1).letters + sigma1_z_word(3, -2).letters)
        assert triangular_decompose(w) == (1, -1)

    def test_random_members(self):
        rng = random.Random(5)
        for _ in range(100):
            k = rng.randint(-6, 6)
            m = rng.randint(-2, 2)
            assert triangular_decompose(sigma1_z_word(k, m)) == (k, m)


class TestAlexander:
    def test_trefoil(self):
        assert alexander(BraidWord.parse("abab")) == P(0, 1, -1, 1)

    def test_empty_word(self):
        assert alexander(BraidWord(())).is_zero()

    def test_center_word(self):
        # det(I - t^3 Id) = (1-t^3)^2; divided by 1+t+t^2: (1-t)(1-t^3)
        assert alexander(BraidWord.parse("ababab")) == P(0, 1, -1, 0, -1, 1)

    def test_conjugation_invariance(self):
        rng = random.Random(6)
        for _ in range(200):
            w = random_word(rng, 8)
            u = random_word(rng, 8)
            assert alexander(u * w * u.inverse()) == alexander(w)
