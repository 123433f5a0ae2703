"""The benchmark's output checks reject planted bad outputs.

Run from the repository root:  python3 -m pytest perfbench
The checks never import qburau, so neither do these tests: outputs are
stand-in objects with the attributes the checks read.
"""
import cmath
import math
from fractions import Fraction
from types import SimpleNamespace as NS

import pytest

import checks


class Poly:
    """Stand-in for LaurentPoly: ``low``, trimmed ``coeffs``, is_zero()."""

    def __init__(self, low, coeffs):
        self.low, self.coeffs = low, tuple(coeffs)

    def is_zero(self):
        return not self.coeffs


def qrat(r, s):
    num, den = checks.qanalog(r, s)
    return NS(num=Poly(*checks.laurent(num)), den=Poly(*checks.laurent(den)))


def verdict(kind, witness=None, root=None, max_den=None):
    frac = NS(r=witness[0], s=witness[1]) if witness else None
    return NS(kind=kind, witness_frac=frac, root=root, max_den=max_den)


@pytest.fixture(scope="module")
def table():
    refs = {f: checks.qanalog(*f) for f in checks.sigma_fractions(6)}
    return checks.DenTable(6, refs)


# -- q-analogs ---------------------------------------------------------

def test_reference_q_analogs():
    assert checks.qanalog(5, 2) == ([1, 2, 1, 1], [1, 1])
    assert checks.qanalog(1, 3) == ([0, 0, 1], [1, 1, 1])
    assert checks.qanalog(2, 5) == ([0, 0, 1, 1], [1, 1, 2, 1])


def test_q_analog_check_accepts_the_reference():
    checks.check_qanalog(13, 8, qrat(13, 8))


def test_wrong_den_at_one_rejected():
    good = qrat(5, 2)
    bad = NS(num=good.num, den=Poly(0, (1, 2)))      # den(1) = 3, not 2
    with pytest.raises(checks.WrongOutput, match=r"den\(1\)"):
        checks.check_qanalog(5, 2, bad)


def test_q_analog_differing_from_the_reference_rejected():
    good = qrat(5, 2)
    bad = NS(num=Poly(0, (1, 1, 2, 1)), den=good.den)  # right values at 1
    with pytest.raises(checks.WrongOutput, match="reference"):
        checks.check_qanalog(5, 2, bad)


# -- roots ---------------------------------------------------------------

CUBE_ROOTS = [cmath.exp(2j * math.pi / 3), cmath.exp(-2j * math.pi / 3)]


def test_roots_check_accepts_accurate_roots():
    assert checks.check_roots([1, 1, 1], CUBE_ROOTS) < 1e-15


def test_nan_root_rejected():
    with pytest.raises(checks.NumericalFailure, match="non-finite"):
        checks.check_roots([1, 1, 1], [CUBE_ROOTS[0], complex(math.nan, 0)])


def test_missing_or_inaccurate_root_rejected():
    with pytest.raises(checks.NumericalFailure, match="1 roots for degree 2"):
        checks.check_roots([1, 1, 1], CUBE_ROOTS[:1])
    with pytest.raises(checks.NumericalFailure, match="residual"):
        checks.check_roots([1, 1, 1], [CUBE_ROOTS[0], CUBE_ROOTS[1] + 1e-6])


def test_residual_of_large_root_uses_the_reversed_polynomial():
    # roots of 1 - 100 q^2 + q^4 have moduli near 0.1 and 10
    zs = [complex(x) for x in (math.sqrt(50 + math.sqrt(2499)),
                               -math.sqrt(50 + math.sqrt(2499)),
                               math.sqrt(50 - math.sqrt(2499)),
                               -math.sqrt(50 - math.sqrt(2499)))]
    assert checks.check_roots([1, 0, -100, 0, 1], zs) < 1e-15


# -- verdicts ------------------------------------------------------------

def test_wrong_exact_verdict_rejected(table):
    point = ("real", Fraction(-3, 2))
    checks.check_verdict(point, verdict(checks.NEGATIVE_REAL), table)
    with pytest.raises(checks.WrongOutput, match="expected FaithfulNegativeReal"):
        checks.check_verdict(point, verdict(checks.NO_WITNESS, max_den=6), table)


def test_wrong_root_of_unity_witness_rejected(table):
    point = ("unity", 5, 1)          # -t0 is a primitive 10th root of unity
    root = -cmath.exp(2j * math.pi / 5)
    checks.check_verdict(point, verdict(checks.ROOT_OF_UNITY, (1, 10), root),
                         table)
    with pytest.raises(checks.WrongOutput, match="expected 1/10"):
        checks.check_verdict(point, verdict(checks.ROOT_OF_UNITY, (1, 5), root),
                             table)


def test_missed_pole_at_a_rational_point_rejected(table):
    point = ("real", Fraction(1))     # den of 1/2 is 1 + q, zero at q = -1
    checks.check_verdict(point, verdict(checks.WITNESS, (1, 2), -1 + 0j), table)
    with pytest.raises(checks.WrongOutput, match="expected a pole witness"):
        checks.check_verdict(point, verdict(checks.NO_WITNESS, max_den=6), table)


def test_planted_witness_at_a_non_root_rejected(table):
    point = ("complex", 1 + 0j)
    checks.check_verdict(point, verdict(checks.WITNESS, (1, 2), -1 + 0j), table,
                         planted=(1, 2))
    # den of 1/3 is 1 + q + q^2, which is 1 at q = -1
    with pytest.raises(checks.WrongOutput, match="at the returned root"):
        checks.check_verdict(point, verdict(checks.WITNESS, (1, 3), -1 + 0j),
                             table, planted=(1, 3))


def test_witness_after_the_planted_fraction_rejected(table):
    point = ("complex", 1 + 0j)
    with pytest.raises(checks.WrongOutput, match="after the planted"):
        checks.check_verdict(point, verdict(checks.WITNESS, (3, 2), -1 + 0j),
                             table, planted=(1, 2))


# -- braids --------------------------------------------------------------

SIGMA1 = NS(a=Poly(1, (-1,)), b=Poly(0, (1,)), c=Poly(0, ()), d=Poly(0, (1,)))
SIGMA2 = NS(a=Poly(0, (1,)), b=Poly(0, ()), c=Poly(1, (1,)), d=Poly(1, (-1,)))
TS = [12345, 67890]


def test_word_check_accepts_the_burau_matrix():
    checks.check_word((1,), True, SIGMA1, TS)
    checks.check_word((2,), True, SIGMA2, TS)


def test_non_identity_loop_rejected():
    with pytest.raises(checks.WrongOutput, match="not the identity"):
        checks.check_word((1,), False, SIGMA1, TS)


def test_wrong_burau_matrix_rejected():
    with pytest.raises(checks.WrongOutput, match="product of generators"):
        checks.check_word((1,), True, SIGMA2, TS)


def test_wrong_alexander_polynomial_rejected():
    trefoil = (1, 2, 1, 2)        # closure of (s1 s2)^2
    checks.check_alexander(trefoil, Poly(0, (1, -1, 1)), TS)
    with pytest.raises(checks.WrongOutput):
        checks.check_alexander(trefoil, Poly(0, (1, 1, 1)), TS)


def test_rl_power_determinant():
    powers = checks.rl_powers(5)
    checks.check_rl_det(powers[5])
    (la, a), b, c, d = powers[5]
    with pytest.raises(checks.WrongOutput, match="det"):
        checks.check_rl_det(((la, [x + 1 for x in a]), b, c, d))


# -- series --------------------------------------------------------------

def golden_terms(m):
    return [1] * m


def series(m, order):
    num, den = checks.qanalog(*checks.cf_fraction(golden_terms(m)))
    return NS(coeffs=tuple(checks.taylor(num, den, order))), m


def test_series_prefix_check():
    checks.check_series(golden_terms, series(20, 8), series(24, 12))
    # the 3rd convergent's expansion is exact but not yet stable
    with pytest.raises(checks.WrongOutput, match="prefix"):
        checks.check_series(golden_terms, series(3, 8), series(24, 12))


def test_series_differing_from_the_expansion_rejected():
    short, m = series(20, 8)
    bad = NS(coeffs=short.coeffs[:3] + (short.coeffs[3] + 1,) + short.coeffs[4:])
    with pytest.raises(checks.WrongOutput, match="expansion"):
        checks.check_series(golden_terms, (bad, m), series(24, 12))
