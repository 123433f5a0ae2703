import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qburau.cfrac import (EvenCF, Frac, Infinite, NonPositive, cf_value,
                          classical_matrix, enumerate_fractions, to_even_cf)


class TestFrac:
    def test_reduce(self):
        assert Frac.of(4, 6) == Frac(2, 3)
        assert Frac.of(-4, -6) == Frac(2, 3)

    def test_infinity(self):
        inf = Frac(1, 0)
        assert inf.is_infinite()
        with pytest.raises(ValueError):
            Frac(2, 0)

    def test_not_reduced_rejected(self):
        with pytest.raises(ValueError):
            Frac(2, 4)

    def test_parse_and_str(self):
        assert Frac.parse("5/3") == Frac(5, 3)
        assert Frac.parse("7") == Frac(7, 1)
        assert str(Frac(5, 3)) == "5/3"

    def test_inverse(self):
        assert Frac(5, 3).inverse() == Frac(3, 5)
        assert Frac(0, 1).inverse().is_infinite()


class TestEvenCF:
    def test_known_expansions(self):
        assert to_even_cf(Frac(2, 3)) == EvenCF((0, 1, 1, 1))
        assert to_even_cf(Frac(1, 2)) == EvenCF((0, 2))

    def test_parity_split(self):
        cf = to_even_cf(Frac(5, 2))
        assert cf == EvenCF((2, 2))
        assert classical_matrix(cf)[0][0] == 5
        assert classical_matrix(cf)[1][0] == 2

    def test_one(self):
        assert to_even_cf(Frac(1, 1)) == EvenCF((0, 1))
        assert cf_value(EvenCF((0, 1)).a) == Frac(1, 1)

    def test_rejects_nonpositive(self):
        with pytest.raises(NonPositive):
            to_even_cf(Frac(-1, 2))
        with pytest.raises(Infinite):
            to_even_cf(Frac(1, 0))

    def test_invariants_rejected(self):
        with pytest.raises(ValueError):
            EvenCF((1,))
        with pytest.raises(ValueError):
            EvenCF((1, 0))


class TestClassicalMatrix:
    def test_known_values(self):
        assert classical_matrix(EvenCF((1, 1))) == ((2, 1), (1, 1))
        assert classical_matrix(EvenCF((0, 2))) == ((1, 0), (2, 1))
        assert classical_matrix(EvenCF((0, 1, 1, 1))) == ((2, 1), (3, 2))

    def test_cf_value(self):
        assert cf_value(EvenCF((1, 1)).a) == Frac(2, 1)
        assert cf_value(EvenCF((0, 1, 1, 1)).a) == Frac(2, 3)


class TestRoundTrip:
    def test_exhaustive_small(self):
        for r in range(1, 61):
            for s in range(1, 61):
                if math.gcd(r, s) != 1:
                    continue
                x = Frac(r, s)
                cf = to_even_cf(x)
                assert cf_value(cf.a) == x
                ((rr, _), (ss, _)) = classical_matrix(cf)
                assert (rr, ss) == (r, s)

    @given(st.integers(1, 200), st.integers(1, 200))
    @settings(max_examples=200)
    def test_cf_invariants(self, r, s):
        x = Frac.of(r, s)
        cf = to_even_cf(x)
        assert len(cf.a) % 2 == 0
        assert cf.a[0] >= 0 and all(a >= 1 for a in cf.a[1:])
        # parity fix preserves the value
        assert cf_value(cf.a) == x
        m = classical_matrix(cf)
        assert m[0][0] * m[1][1] - m[0][1] * m[1][0] == 1


class TestEnumeration:
    def test_order_and_membership(self):
        fracs = enumerate_fractions(2)
        assert fracs[0] == Frac(1, 1)
        assert Frac(1, 2) in fracs and Frac(3, 2) in fracs and Frac(5, 2) in fracs
        keys = [f.sort_key for f in fracs]
        assert keys == sorted(keys)

    def test_matches_brute_force(self):
        got = enumerate_fractions(5)
        expect = [Frac(r, s)
                  for s in range(1, 6)
                  for r in range(1, s + 2 * 5 + 1)
                  if math.gcd(r, s) == 1]
        assert got == expect

    def test_bad_max_den(self):
        with pytest.raises(ValueError):
            enumerate_fractions(0)
