"""Classification of complex specializations of the 2x2 Burau
representation, the word problem in B3 via its faithfulness, the
triangular-subgroup decomposition, and Alexander polynomials.

The classifier decides rational points, roots of unity and the proven
annulus 3 - 2*sqrt2 <= |t0| <= 3 + 2*sqrt2 exactly, through m = |t0|^2.
Every den is monic with constant term 1 and positive coefficients, so its
only rational root is -1, a root of den(1/2) = 1 + q.  A float point q0 =
-t0 has a pole witness r/s iff the root of den(r/s) nearest q0 lies within
WITNESS_TOL * (1 + |q0|); since den(r/s) depends only on r mod s, the
search reads the r < s rows of the lazy qrational.singular_dens in (s, r)
order and builds none past its first witness.
A missing witness is reported as such, never as a faithfulness verdict:
the singular set is an infinite union and the search only semi-decides.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction as _QQ

from .laurent import LaurentPoly, ONE
from .braid import BraidWord, QMatrix2, rho3
from .cfrac import Frac
from .qrational import singular_dens
from .rootloc import roots

WITNESS_TOL = 1e-8       # witness window: |root - q0| <= WITNESS_TOL*(1+|q0|)


class ZeroInput(ValueError):
    pass


class InconsistentDecomposition(ArithmeticError):
    """Verification product mismatch in the triangular decomposition."""


# ---------------------------------------------------------------------------
# Specialization points
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RootOfUnity:
    """t0 = exp(2*pi*i*k/n), given exactly."""

    n: int
    k: int

    def __post_init__(self):
        if self.n < 2 or not (1 <= self.k < self.n):
            raise ValueError("need n >= 2 and 1 <= k < n")

    def value(self):
        return cmath.exp(2j * math.pi * self.k / self.n)


@dataclass(frozen=True)
class RealValue:
    """Exact rational specialization point."""

    x: _QQ

    def __post_init__(self):
        if self.x == 0:
            raise ZeroInput("specialization point must be nonzero")


@dataclass(frozen=True)
class ComplexValue:
    """Floating-point specialization point (no exactness assumed)."""

    z: complex

    def __post_init__(self):
        z = self.z
        if z == 0:
            raise ZeroInput("specialization point must be nonzero")
        if not (math.isfinite(z.real) and math.isfinite(z.imag)):
            raise ValueError("specialization point must be finite")


def parse_point(text):
    """Parse '-1', '1/2', '0.5+0.2i', 'zeta(5,1)' into a specialization
    point.  Only a trailing 'i' is the imaginary unit, so 'inf+1i' parses
    and is then rejected as not finite."""
    text = text.strip()
    if text.startswith("zeta(") and text.endswith(")"):
        try:
            n, k = (int(v) for v in text[5:-1].split(","))
        except ValueError:
            raise ValueError("expected zeta(n,k), got %r" % text)
        return RootOfUnity(n, k)
    try:
        x = _QQ(text)
    except (ValueError, ZeroDivisionError):
        try:
            x = complex(text[:-1] + "j" if text.endswith("i") else text)
        except ValueError:
            raise ValueError("cannot parse specialization point %r" % text)
    return RealValue(x) if isinstance(x, _QQ) else ComplexValue(x)


# ---------------------------------------------------------------------------
# Verdicts
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Verdict:
    kind: str                    # one of the KIND_* constants below
    witness_frac: object = None  # Frac, for pole witnesses
    root: complex = None         # confirmed nearby denominator root
    max_den: int = None          # for NoWitnessUpTo

    def is_faithful(self):
        return self.kind in (FAITHFUL_OUTSIDE_ANNULUS, FAITHFUL_NEGATIVE_REAL)

    def to_json(self):
        out = {"verdict": self.kind}
        if self.witness_frac is not None:
            out["witness"] = {"r": self.witness_frac.r, "s": self.witness_frac.s}
        if self.root is not None:
            out["root"] = [self.root.real, self.root.imag]
        if self.max_den is not None:
            out["max_den"] = self.max_den
        return out


UNFAITHFUL_CENTER = "UnfaithfulCenter"
UNFAITHFUL_ROOT_OF_UNITY = "UnfaithfulRootOfUnityPole"
UNFAITHFUL_POLE_WITNESS = "UnfaithfulPoleWitness"
FAITHFUL_OUTSIDE_ANNULUS = "FaithfulOutsideAnnulus"
FAITHFUL_NEGATIVE_REAL = "FaithfulNegativeReal"
NO_WITNESS_UP_TO = "NoWitnessUpTo"


def _may_vanish_near(den, q0, window):
    """False proves that den has no root within `window` of q0.

    If den(z1) = 0 with |z1 - q0| <= w, the mean value bound on the
    segment from z1 to q0 gives |den(q0)| <= w * max|c| * n(n+1)/2 *
    max(1, |q0| + w)^(n-1) at degree n.  So the scaled value |den(q0)| /
    (max|c| * (n+1) * max(1,|q0|)^n) is at most w * n/2 * (1+w)^(n-1);
    the test allows twice that, which also covers roundoff.  At |q0| > 1
    it evaluates the scaled value as |rev den(1/q0)| / (max|c| * (n+1)),
    so no power of |q0| is formed and nothing overflows.
    """
    coeffs = den.coeffs
    if abs(q0) > 1:
        den, q0 = LaurentPoly(0, coeffs[::-1]), 1 / q0
    n = len(coeffs) - 1
    return (abs(den.eval_complex(q0)) / (max(coeffs) * (n + 1))
            <= window * n * (1 + window) ** (n - 1))


def classify_specialization(t0, max_den=40):
    """Faithfulness verdict for the Burau representation at t0.

    Rational points, roots of unity and the proven annulus are decided
    exactly.  A float point inside the annulus gets a pole search over
    q-analog denominators up to max_den, which stops at its first
    witness: NoWitnessUpTo means only that the search found nothing.
    """
    if max_den < 2:
        raise ValueError("max_den must be >= 2")

    if isinstance(t0, RootOfUnity):
        if t0.n == 2 * t0.k:
            return Verdict(UNFAITHFUL_CENTER)
        # -t0 = exp(2*pi*i*(2k+n)/(2n)) is a primitive d-th root of unity,
        # hence a pole of the q-analog of 1/d
        d = 2 * t0.n // math.gcd(2 * t0.k + t0.n, 2 * t0.n)
        return Verdict(UNFAITHFUL_ROOT_OF_UNITY, witness_frac=Frac(1, d),
                       root=-t0.value())

    if isinstance(t0, RealValue):
        x = t0.x
        if x == -1:                 # the center collapses at t0 = -1
            return Verdict(UNFAITHFUL_CENTER)
        if x < 0:                   # positive dens do not vanish at -x > 0
            return Verdict(FAITHFUL_NEGATIVE_REAL)
        m = x * x
    else:
        q0 = -complex(t0.z)
        if q0 == 1:
            return Verdict(UNFAITHFUL_CENTER)
        m = _QQ(q0.real) ** 2 + _QQ(q0.imag) ** 2
    if (m - 17) ** 2 > 288:         # (3 +- 2*sqrt2)^2 = 17 +- 12*sqrt2
        return Verdict(FAITHFUL_OUTSIDE_ANNULUS)
    if isinstance(t0, RealValue):   # -1 is the only rational den root
        if x == 1:
            return Verdict(UNFAITHFUL_POLE_WITNESS, witness_frac=Frac(1, 2),
                           root=complex(-1))
        return Verdict(NO_WITNESS_UP_TO, max_den=max_den)

    # bounded search of the singular set; the first hit in (s, r) order
    # has r < s, as den(r/s) = den((r mod s)/s)
    window = WITNESS_TOL * (1 + abs(q0))
    for frac, den in singular_dens(max_den):
        if _may_vanish_near(den, q0, window):
            root = min(roots(den), key=lambda w: abs(w - q0))
            if abs(root - q0) <= window:
                return Verdict(UNFAITHFUL_POLE_WITNESS, witness_frac=frac,
                               root=root)
    return Verdict(NO_WITNESS_UP_TO, max_den=max_den)


# ---------------------------------------------------------------------------
# Word problem and subgroup decomposition
# ---------------------------------------------------------------------------

def is_trivial_braid(word):
    """True iff the Burau matrix is exactly the identity; faithfulness of
    the representation makes this the word problem in B3."""
    return rho3(word) == QMatrix2.identity("t")


def braids_equal(w1, w2):
    return rho3(w1) == rho3(w2)


Z_WORD = BraidWord((1, 2, 1, 2, 1, 2))      # the central element (s1 s2)^3


def sigma1_z_word(k, m):
    """The braid word sigma1^k z^m as generator letters."""
    part1 = (1,) * k if k >= 0 else (-1,) * (-k)
    zpart = Z_WORD.letters if m >= 0 else Z_WORD.inverse().letters
    return BraidWord(part1 + zpart * abs(m))


def triangular_decompose(word):
    """If the lower-left Burau entry vanishes identically, express the
    braid as sigma1^k z^m and return (k, m); otherwise return None.

    k is read off the unipotent part of the t = -1 specialization, m from
    the determinant exponent e = k + 6m; the decomposition is verified by
    an exact matrix comparison.
    """
    mat = rho3(word)
    if not mat.c.is_zero():
        return None
    e = word.exponent_sum()
    # at t = -1 the matrix is (-1)^m [[1, k], [0, 1]]
    a_val = int(mat.a.eval_exact(_QQ(-1)))
    b_val = int(mat.b.eval_exact(_QQ(-1)))
    if abs(a_val) != 1:
        raise InconsistentDecomposition("diagonal at t=-1 is not +-1")
    k = b_val * a_val
    if (e - k) % 6 != 0:
        raise InconsistentDecomposition("determinant exponent mismatch")
    m = (e - k) // 6
    if rho3(sigma1_z_word(k, m)) != mat:
        raise InconsistentDecomposition(
            "verification product differs for (k,m)=(%d,%d)" % (k, m))
    return (k, m)


# ---------------------------------------------------------------------------
# Alexander polynomial
# ---------------------------------------------------------------------------

_ALEX_DIVISOR = LaurentPoly(0, (1, 1, 1))   # 1 + t + t^2


def alexander(word):
    """Alexander polynomial of the closure of a 3-braid: det(I - rho3) =
    1 - tr rho3 + (-t)^e, with e the exponent sum, divided by 1 + t + t^2
    and normalized to lowest exponent 0 with positive lowest coefficient."""
    e = word.exponent_sum()
    quot = (ONE - rho3(word).trace() + LaurentPoly.monomial(
        e, -1 if e % 2 else 1)).exact_divide(_ALEX_DIVISOR)
    if quot.is_zero():
        return quot
    quot = quot.shift(-quot.low)
    if quot.coeffs[0] < 0:
        quot = -quot
    return quot
