import cmath
import math
import random
from fractions import Fraction as QQ

import pytest

from qburau.laurent import LaurentPoly
from qburau.braid import BraidWord, rho3
from qburau.cfrac import Frac, enumerate_fractions
from qburau.qrational import q_deform, q_integer, singular_dens
from qburau.rootloc import INNER_PROVEN, OUTER_PROVEN, roots
from qburau.faithful import (ComplexValue, RealValue, RootOfUnity, ZeroInput,
                             alexander, braids_equal, classify_specialization,
                             is_trivial_braid, parse_point,
                             sigma1_z_word, triangular_decompose)
from qburau.faithful import (FAITHFUL_NEGATIVE_REAL, FAITHFUL_OUTSIDE_ANNULUS,
                             NO_WITNESS_UP_TO, UNFAITHFUL_CENTER,
                             UNFAITHFUL_POLE_WITNESS,
                             UNFAITHFUL_ROOT_OF_UNITY, WITNESS_TOL, Verdict,
                             _may_vanish_near)


def P(low, *coeffs):
    return LaurentPoly.make(low, coeffs)


def reference_scan(t0, max_den, dens):
    """The pole search as a scan of every enumerated fraction in (s, r)
    order, r > s included, one q_deform per fraction and no prefilter;
    dens holds (frac, q_deform(frac).den, roots of it) for
    enumerate_fractions(max_den).  A rational t0 is a witness where den
    vanishes exactly at -t0; a float one where the root nearest -t0 lies
    within WITNESS_TOL * (1 + |t0|)."""
    for frac, den, zs in dens:
        if len(den.coeffs) <= 1:
            continue
        if isinstance(t0, QQ):
            if den.eval_exact(-t0) == 0:
                return Verdict(UNFAITHFUL_POLE_WITNESS, witness_frac=frac,
                               root=complex(-t0))
            continue
        q0 = -t0
        root = min(zs, key=lambda w: abs(w - q0))
        if abs(root - q0) <= WITNESS_TOL * (1 + abs(q0)):
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
        # exact, with no float search: -1 is the only rational den root
        for max_den in (10, 40):
            v = classify_specialization(RealValue(QQ(1)), max_den)
            assert v == Verdict(UNFAITHFUL_POLE_WITNESS,
                                witness_frac=Frac(1, 2), root=complex(-1))

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
        for max_den in (6, 40):
            v = classify_specialization(ComplexValue(1.0 + 0j), max_den)
            assert v.kind == UNFAITHFUL_POLE_WITNESS
            assert v.witness_frac == Frac(1, 2) and v.root == -1

    @pytest.mark.parametrize("t0", [1 + 1e-6, 1 - 1e-6, 1 + 1e-7, 1 - 1e-7,
                                    1 + 1e-6j, 1 - 1e-6j])
    def test_near_minus_one_has_no_witness(self, t0):
        # q0 = -t0 lies 1e-6 or 1e-7 from the root -1 of den(1/2), and of
        # the dens with a multiple root there: outside the window 2e-8
        v = classify_specialization(ComplexValue(t0))
        assert v.kind == NO_WITNESS_UP_TO and v.max_den == 40

    @pytest.mark.parametrize("x", [QQ(15826910, 9018811),
                                   QQ(5639531, 9896687),
                                   QQ(1323084, 902777)])
    def test_rational_near_den_root_has_no_witness(self, x):
        # each is the best rational approximation of minus a real den
        # root; no den has a rational root other than -1
        v = classify_specialization(RealValue(x))
        assert v == Verdict(NO_WITNESS_UP_TO, max_den=40)

    @staticmethod
    def sampled_den_roots(seed, count):
        """count pairs (den, root) with s <= 40 and the root inside the
        proven annulus."""
        rng = random.Random(seed)
        pairs = [(den, z) for _, den in singular_dens(40) for z in roots(den)
                 if INNER_PROVEN < abs(z) < OUTER_PROVEN]
        return rng.sample(pairs, count), rng

    def test_witness_root_within_window(self):
        # a den root moved by 1e-6 or 1e-7 in a random direction: any
        # witness root lies within WITNESS_TOL * (1 + |q0|) of q0
        pairs, rng = self.sampled_den_roots(40, 100)
        for _, z in pairs:
            step = rng.choice((1e-6, 1e-7))
            q0 = z + cmath.rect(step, rng.uniform(-math.pi, math.pi))
            v = classify_specialization(ComplexValue(-q0))
            if v.kind == UNFAITHFUL_POLE_WITNESS:
                assert abs(v.root - q0) <= WITNESS_TOL * (1 + abs(q0))
            else:
                assert v.kind == NO_WITNESS_UP_TO

    def test_prefilter_is_necessary(self):
        # every q0 within the window of a den root passes the prefilter,
        # inside and outside the unit circle
        pairs, rng = self.sampled_den_roots(41, 300)
        for den, z in pairs:
            q0 = z + cmath.rect(0.99 * WITNESS_TOL * (1 + abs(z)),
                                rng.uniform(-math.pi, math.pi))
            assert _may_vanish_near(den, q0, WITNESS_TOL * (1 + abs(q0)))

    def test_prefilter_high_degree_is_finite(self):
        # q^1000 + 3q^999 + 1 has a root within 3^-999 of -3, where
        # |q0|^999 overflows a float; the reversed evaluation does not
        p = P(0, 1, *(0,) * 998, 3, 1)
        assert _may_vanish_near(p, -3 + 0j, 1e-8 * 4)
        assert not _may_vanish_near(p, -3.5 + 0j, 1e-8 * 4.5)
        # a root of [1000]_q, moved just outside the unit circle
        root = cmath.exp(2j * math.pi / 1000) * (1 + 1e-9)
        assert _may_vanish_near(q_integer(1000), root, 1e-8 * 2)

    def test_witness_denominator_vanishes(self):
        for point in (RealValue(QQ(1)), ComplexValue(-0.5 + 0.866025403784j)):
            v = classify_specialization(point, max_den=15)
            if v.kind != UNFAITHFUL_POLE_WITNESS:
                continue
            t0 = point.x if isinstance(point, RealValue) else point.z
            den = q_deform(v.witness_frac).den
            scale = max(abs(c) for c in den.coeffs) * len(den.coeffs)
            assert abs(den.eval_complex(-complex(t0))) / scale < 1e-8

    def test_scan_matches_per_fraction_reference(self):
        max_den = 20
        dens = []
        for f in enumerate_fractions(max_den):
            den = q_deform(f).den
            dens.append((f, den, roots(den)))
        rng = random.Random(2024)
        planted = []
        for _ in range(12):
            frac, _, zs = rng.choice([fd for fd in dens if fd[0].s >= 2])
            planted.append((frac, -rng.choice(zs)))
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
            want = reference_scan(t0, max_den, dens)
            assert classify_specialization(point, max_den) == want
        # every planted pole is found, at its own residue class or earlier
        for (frac, _), point in zip(planted, points):
            v = classify_specialization(point, max_den)
            assert v.kind == UNFAITHFUL_POLE_WITNESS
            assert v.witness_frac.r < v.witness_frac.s
            w = v.witness_frac
            assert (w.s, w.r) <= (frac.s, frac.r % frac.s)

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

    def test_float_annulus_is_exact(self):
        # 5e-10 outside either circle is outside the proven annulus, at
        # every argument, with no search
        inner, outer = INNER_PROVEN - 5e-10, OUTER_PROVEN + 5e-10
        for t0 in (0.17157287475, inner, -inner, inner * 1j, outer, -outer):
            assert classify_specialization(ComplexValue(t0), 10).kind == \
                FAITHFUL_OUTSIDE_ANNULUS
        # 5e-10 inside either circle is searched
        inner, outer = INNER_PROVEN + 5e-10, OUTER_PROVEN - 5e-10
        for t0 in (inner, -inner, inner * 1j, outer, -outer, outer * 1j):
            assert classify_specialization(ComplexValue(t0), 10) == \
                Verdict(NO_WITNESS_UP_TO, max_den=10)

    def test_search_stops_at_first_witness(self, built_rows):
        # the witness 1/2 is the first row of the 27,397 up to 300
        v = classify_specialization(ComplexValue(1 + 0j), 300)
        assert v.kind == UNFAITHFUL_POLE_WITNESS
        assert v.witness_frac == Frac(1, 2) and v.root == -1
        assert len(built_rows) <= 5

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

    def test_long_free_cancellation(self):
        rng = random.Random(1600)
        w = BraidWord(tuple(rng.choice((1, -1, 2, -2)) for _ in range(1600)))
        assert is_trivial_braid(w * w.inverse())
        assert is_trivial_braid(w.inverse() * w)
        assert not is_trivial_braid(w * w)

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
