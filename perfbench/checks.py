"""Output checks for the benchmark, written without importing qburau.

Every check recomputes what it needs from the mathematics, with its own
integer polynomial code, so a defect in the code under test cannot make
its own output pass.  Checks take the library's result objects but only
read plain attributes (``low``, ``coeffs``, ``kind``, ``witness_frac.r``,
...), so tests can feed them stand-in objects.

A check raises ``WrongOutput`` when an exact output (a polynomial, a
verdict, a witness fraction, a braid identity, a series) is wrong, and
``NumericalFailure`` when a float output fails: a non-finite root, a
missing root, or a scaled residual above ``ROOT_TOL``.
"""
from __future__ import annotations

import cmath
import math
from fractions import Fraction

import numpy as np

ROOT_TOL = 1e-10            # scaled residual bound on every returned root
PRIME = (1 << 61) - 1       # modulus for exact identity tests at random points

INNER_PROVEN = 3 - 2 * math.sqrt(2)
OUTER_PROVEN = 3 + 2 * math.sqrt(2)

# verdict kinds, as the classifier names them
CENTER = "UnfaithfulCenter"
ROOT_OF_UNITY = "UnfaithfulRootOfUnityPole"
WITNESS = "UnfaithfulPoleWitness"
OUTSIDE = "FaithfulOutsideAnnulus"
NEGATIVE_REAL = "FaithfulNegativeReal"
NO_WITNESS = "NoWitnessUpTo"


class CheckFailed(Exception):
    """An output did not pass its check."""


class WrongOutput(CheckFailed):
    """An exact output differs from the reference."""


class NumericalFailure(CheckFailed):
    """A float output is non-finite, missing, or inaccurate."""


def _require(cond, exc, msg, *args):
    if not cond:
        raise exc(msg % args if args else msg)


# ---------------------------------------------------------------------------
# Dense integer polynomials: ascending coefficient lists starting at q^0
# ---------------------------------------------------------------------------

def _padd(a, b):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return out


def _pmul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _qint(n):
    return [1] * n


def _euclid(r, s):
    quotients = []
    while s:
        quotients.append(r // s)
        r, s = s, r % s
    return quotients


def qanalog(r, s):
    """(num, den) of the q-analog of r/s > 0 as dense ascending lists.

    Built from the Euclidean quotients with the two rules of
    Morier-Genoud and Ovsienko: [x + a]_q = q^a [x]_q + [a]_q, and
    reflection, [1/y]_q = q^n D(1/q) / (q^n N(1/q)) when [y]_q = N / D
    with n = deg N.  The pair comes out with den(0) = 1, the
    normalization the library documents.
    """
    quotients = _euclid(r, s)
    num, den = _qint(quotients[-1]), [1]
    for a in reversed(quotients[:-1]):
        num, den = [0] * (len(num) - len(den)) + den[::-1], num[::-1]
        if a:
            num = _padd([0] * a + num, _pmul(_qint(a), den))
    return num, den


def laurent(coeffs):
    """(low, trimmed tuple) of a dense ascending list, as LaurentPoly
    stores it; (0, ()) for zero."""
    lo = 0
    while lo < len(coeffs) and coeffs[lo] == 0:
        lo += 1
    return (lo, tuple(strip(coeffs))) if lo < len(coeffs) else (0, ())


def strip(coeffs):
    """Drop leading and trailing zeros (the q^low factor and padding)."""
    lo, hi = 0, len(coeffs)
    while lo < hi and coeffs[lo] == 0:
        lo += 1
    while hi > lo and coeffs[hi - 1] == 0:
        hi -= 1
    return list(coeffs[lo:hi])


def eval_mod(poly, t, p=PRIME):
    """Value mod p of a Laurent polynomial (``low``, ``coeffs``) at t."""
    acc = 0
    for c in reversed(poly.coeffs):
        acc = (acc * t + c) % p
    return acc * pow(t, poly.low, p) % p


# ---------------------------------------------------------------------------
# Roots
# ---------------------------------------------------------------------------

def scaled_residuals(coeffs, zs):
    """|p(z)| / (max|c| * (deg+1) * max(1,|z|)^deg) for each z.

    This is the residual the root finder documents.  A root with |z| > 1
    is evaluated through the reversed polynomial at 1/z, so no power of
    |z| is ever formed and the value cannot overflow.
    """
    scale = max(abs(c) for c in coeffs)
    cs = np.array([c / scale for c in coeffs], dtype=float)
    zs = np.asarray(zs, dtype=complex)
    out = np.empty(len(zs))
    inner = np.abs(zs) <= 1.0
    out[inner] = np.abs(np.polyval(cs[::-1], zs[inner]))
    out[~inner] = np.abs(np.polyval(cs, 1.0 / zs[~inner]))
    return out / len(cs)


def check_roots(coeffs, zs, tol=ROOT_TOL):
    """Roots of the polynomial with ascending integer ``coeffs``: one per
    degree, all finite, each with scaled residual <= tol.  Returns the
    worst residual."""
    coeffs = strip(coeffs)
    deg = len(coeffs) - 1
    _require(len(zs) == deg, NumericalFailure,
             "%d roots for degree %d", len(zs), deg)
    if not deg:
        return 0.0
    zs = np.asarray(zs, dtype=complex)
    _require(bool(np.all(np.isfinite(zs))), NumericalFailure,
             "%d non-finite roots of degree %d",
             int(np.sum(~np.isfinite(zs))), deg)
    res = scaled_residuals(coeffs, zs)
    worst = float(np.max(res))
    _require(worst <= tol, NumericalFailure,
             "scaled residual %.2e above %.0e at degree %d", worst, tol, deg)
    return worst


# ---------------------------------------------------------------------------
# q-analogs and the singular-set sweep
# ---------------------------------------------------------------------------

def check_qanalog(r, s, qr):
    """num(1) = r, den(1) = s, den(0) = 1, positive coefficients, and
    equality with the reference q-analog."""
    num, den = qr.num, qr.den
    _require(sum(num.coeffs) == r, WrongOutput,
             "num(1) = %d, expected %d", sum(num.coeffs), r)
    _require(sum(den.coeffs) == s, WrongOutput,
             "den(1) = %d, expected %d", sum(den.coeffs), s)
    _require(den.low == 0 and den.coeffs[0] == 1, WrongOutput,
             "denominator constant term is not 1")
    _require(all(c > 0 for c in num.coeffs) and
             all(c > 0 for c in den.coeffs), WrongOutput,
             "non-positive coefficient in the q-analog of %d/%d", r, s)
    n_ref, d_ref = qanalog(r, s)
    _require((num.low, tuple(num.coeffs)) == laurent(n_ref) and
             (den.low, tuple(den.coeffs)) == laurent(d_ref), WrongOutput,
             "q-analog of %d/%d differs from the reference", r, s)


def sigma_fractions(max_den):
    """The fractions the sweep enumerates: s <= max_den, r <= s + 2*max_den."""
    return [(r, s) for s in range(1, max_den + 1)
            for r in range(1, s + 2 * max_den + 1) if math.gcd(r, s) == 1]


def check_sigma(max_den, sample, report, refs):
    """Every num/den root of every enumerated fraction is present and
    accurate, and none violates the proven annulus.  ``refs`` maps (r, s)
    to the reference q-analog.  Returns the worst residual."""
    groups = {}
    for rec in sample.records:
        groups.setdefault((rec.frac.r, rec.frac.s, rec.part), []).append(rec.root)
    expected = {}
    for r, s in sigma_fractions(max_den):
        num, den = refs[(r, s)]
        for part, poly in (("num", num), ("den", den)):
            poly = strip(poly)
            if len(poly) > 1:
                expected[(r, s, part)] = poly
    missing = expected.keys() - groups.keys()
    extra = groups.keys() - expected.keys()
    _require(not missing and not extra, WrongOutput,
             "sample covers the wrong polynomials: %d missing, %d extra",
             len(missing), len(extra))
    worst = max(check_roots(poly, groups[key]) for key, poly in expected.items())
    moduli = [abs(rec.root) for rec in sample.records]
    inside = [INNER_PROVEN < m < OUTER_PROVEN for m in moduli]
    _require(all(inside), WrongOutput, "%d roots violate the proven annulus",
             inside.count(False))
    _require(not report.proven_violations, WrongOutput,
             "annulus check reports %d violations",
             len(report.proven_violations))
    _require(report.min_modulus == min(moduli) and
             report.max_modulus == max(moduli), WrongOutput,
             "annulus report moduli disagree with the records")
    return worst


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------

class DenTable:
    """Reference denominators of every fraction the classifier scans at
    one ``max_den``, in its (s, r) order, with a padded coefficient
    matrix for evaluating all of them at a point at once."""

    def __init__(self, max_den, refs):
        self.max_den = max_den
        self.fracs = []
        self.dens = []
        for r, s in sigma_fractions(max_den):
            den = refs[(r, s)][1]
            if len(den) > 1:
                self.fracs.append((r, s))
                self.dens.append(den)
        self.index = {f: i for i, f in enumerate(self.fracs)}
        width = max(len(d) for d in self.dens)
        mat = np.zeros((len(self.dens), width))
        for i, d in enumerate(self.dens):
            mat[i, :len(d)] = np.array(d, dtype=float) / (max(d) * len(d))
        self._desc = mat[:, ::-1].T      # Horner rows, highest power first

    def scaled_values(self, q0):
        """|den(q0)| / (max|c| * (deg+1)) for every denominator.  Large
        at |q0| > 1 away from a root, so it serves only to spot a zero."""
        acc = np.zeros(self._desc.shape[1], dtype=complex)
        for row in self._desc:
            acc = acc * q0 + row
        return np.abs(acc)

    def first_exact_zero(self, x):
        """First fraction whose denominator vanishes exactly at the
        rational x, or None.  A rational root a/b of an integer polynomial
        has a | constant term and b | leading coefficient."""
        x = Fraction(x)
        for frac, den in zip(self.fracs, self.dens):
            if den[0] % x.numerator == 0 and den[-1] % x.denominator == 0:
                acc = Fraction(0)
                for c in reversed(den):
                    acc = acc * x + c
                if acc == 0:
                    return frac
        return None


def _witness_key(verdict):
    w = verdict.witness_frac
    return (w.s, w.r)


def check_witness(verdict, q0, table, latest=None):
    """A pole witness: its fraction is scanned, comes no later than
    ``latest`` in (s, r) order, and its reference denominator vanishes at
    the returned root, which lies at q0."""
    _require(verdict.kind == WITNESS, WrongOutput,
             "verdict %s, expected a pole witness", verdict.kind)
    frac = (verdict.witness_frac.r, verdict.witness_frac.s)
    _require(frac in table.index, WrongOutput,
             "witness %d/%d is not a scanned fraction", *frac)
    if latest is not None:
        _require(_witness_key(verdict) <= (latest[1], latest[0]), WrongOutput,
                 "witness %d/%d comes after the planted %d/%d", *(frac + latest))
    root = complex(verdict.root)
    _require(cmath.isfinite(root), NumericalFailure, "non-finite witness root")
    res = scaled_residuals(table.dens[table.index[frac]], [root])[0]
    _require(res <= ROOT_TOL, WrongOutput,
             "witness denominator is %.2e at the returned root", res)
    _require(abs(root - q0) <= 1e-8 * (1 + abs(q0)), WrongOutput,
             "witness root %r is not at q0 = %r", root, q0)


def expected_exact_verdict(point):
    """The verdict the mathematics forces at an exactly decidable point,
    as (kind, witness (r, s) or None).  ``point`` is ("unity", n, k),
    ("real", Fraction) or ("complex", z); returns None when the point
    needs a search."""
    tag = point[0]
    if tag == "unity":
        n, k = point[1], point[2]
        if 2 * k == n:
            return CENTER, None
        # -t0 = exp(2 pi i (2k + n) / 2n) is a primitive d-th root of unity
        d = Fraction(2 * k + n, 2 * n).denominator
        return ROOT_OF_UNITY, (1, d)
    if tag == "real":
        x = point[1]
        if x == -1:
            return CENTER, None
        if x < 0:
            return NEGATIVE_REAL, None
        if not INNER_PROVEN < x < OUTER_PROVEN:
            return OUTSIDE, None
        return None
    z = point[1]
    if z == -1:
        return CENTER, None
    if not INNER_PROVEN < abs(z) < OUTER_PROVEN:
        return OUTSIDE, None
    return None


def point_value(point):
    tag = point[0]
    if tag == "unity":
        return cmath.exp(2j * math.pi * point[2] / point[1])
    return complex(point[1])


def check_verdict(point, verdict, table, planted=None):
    """Check one classifier verdict at ``point`` (see
    expected_exact_verdict) against the mathematics: exact cases exactly,
    rational points by the rational-root test, planted poles by their
    witness, and other points by a sweep of every reference denominator."""
    q0 = -point_value(point)
    exact = expected_exact_verdict(point)
    if exact is not None:
        kind, witness = exact
        _require(verdict.kind == kind, WrongOutput,
                 "verdict %s at %r, expected %s", verdict.kind, point, kind)
        if witness is not None:
            got = (verdict.witness_frac.r, verdict.witness_frac.s)
            _require(got == witness, WrongOutput,
                     "witness %d/%d, expected %d/%d", *(got + witness))
            _require(abs(complex(verdict.root) - q0) <= 1e-12, WrongOutput,
                     "root-of-unity witness root is not -t0")
        return
    if planted is not None:
        check_witness(verdict, q0, table, latest=planted)
        return
    if point[0] == "real":
        first = table.first_exact_zero(-point[1])
        if first is None:
            _require(verdict.kind == NO_WITNESS, WrongOutput,
                     "verdict %s at %s, but no denominator vanishes there",
                     verdict.kind, point[1])
        else:
            check_witness(verdict, q0, table, latest=first)
            _require(_witness_key(verdict) == (first[1], first[0]), WrongOutput,
                     "witness precedes the first exact pole %d/%d", *first)
    elif verdict.kind == WITNESS:
        check_witness(verdict, q0, table)
    else:
        _require(verdict.kind == NO_WITNESS, WrongOutput,
                 "verdict %s at %r, expected no witness", verdict.kind, point)
        nearest = float(np.min(table.scaled_values(q0)))
        _require(nearest > ROOT_TOL, WrongOutput,
                 "no witness reported, but a denominator is %.1e at q0",
                 nearest)
    if verdict.kind == NO_WITNESS:
        _require(verdict.max_den == table.max_den, WrongOutput,
                 "verdict bound %s, expected %d", verdict.max_den,
                 table.max_den)


# ---------------------------------------------------------------------------
# Braids, Alexander polynomials, powers of R L
# ---------------------------------------------------------------------------

def burau_mod(letters, t, p=PRIME):
    """Reduced Burau matrix (t-convention) of a braid word mod p, as the
    product of the generator images s1 = [[-t,1],[0,1]],
    s2 = [[1,0],[t,-t]] and their inverses."""
    ti = pow(t, -1, p)
    gens = {1: (-t, 1, 0, 1), 2: (1, 0, t, -t),
            -1: (-ti, ti, 0, 1), -2: (1, 0, 1, -ti)}
    a, b, c, d = 1, 0, 0, 1
    for g in letters:
        e, f, h, k = gens[g]
        a, b, c, d = ((a * e + b * h) % p, (a * f + b * k) % p,
                      (c * e + d * h) % p, (c * f + d * k) % p)
    return a, b, c, d


def check_word(letters, trivial, mat, ts):
    """is_trivial_braid(w w^-1) is True; rho3(w) agrees with the product
    of generators at the points ts, and det rho3(w) = (-t)^e(w)."""
    _require(trivial is True, WrongOutput, "w w^-1 is not the identity")
    e = sum(1 if g > 0 else -1 for g in letters)
    for t in ts:
        got = tuple(eval_mod(x, t) for x in (mat.a, mat.b, mat.c, mat.d))
        _require(got == burau_mod(letters, t), WrongOutput,
                 "rho3(w) differs from the product of generators")
        det = (got[0] * got[3] - got[1] * got[2]) % PRIME
        _require(det == pow(-t % PRIME, e, PRIME), WrongOutput,
                 "det rho3(w) is not (-t)^%d", e)


def check_alexander(letters, alex, ts):
    """Delta(t) * (1 + t + t^2) = +-t^k det(I - rho3(w)) for one k and
    one sign at every point of ts; Delta has lowest exponent 0 and a
    positive lowest coefficient."""
    unit = None
    for t in ts:
        a, b, c, d = burau_mod(letters, t)
        lhs = ((1 - a) * (1 - d) - b * c) % PRIME
        if alex.is_zero():
            _require(lhs == 0, WrongOutput, "Alexander polynomial is 0, "
                     "but det(I - rho3) is not")
            continue
        rhs = eval_mod(alex, t) * (1 + t + t * t) % PRIME
        _require(lhs != 0, WrongOutput, "det(I - rho3) is 0 but Delta is not")
        ratio = rhs * pow(lhs, -1, PRIME) % PRIME
        if unit is None:
            unit = _find_unit(ratio, t, len(letters) + 2)
            _require(unit is not None, WrongOutput,
                     "Delta (1+t+t^2) / det(I - rho3) is not +-t^k")
        sign, k = unit
        _require(ratio == sign * pow(t, k, PRIME) % PRIME, WrongOutput,
                 "Delta (1+t+t^2) / det(I - rho3) is not one +-t^k")
    if not alex.is_zero():
        _require(alex.low == 0 and alex.coeffs[0] > 0, WrongOutput,
                 "Alexander polynomial is not normalized")


def _find_unit(ratio, t, bound):
    ti = pow(t, -1, PRIME)
    up = down = 1
    for k in range(bound + 1):
        for sign in (1, -1):
            if ratio == sign * up % PRIME:
                return sign, k
            if ratio == sign * down % PRIME:
                return sign, -k
        up, down = up * t % PRIME, down * ti % PRIME
    return None


def _ladd(x, y):
    lo = min(x[0], y[0])
    return lo, _padd([0] * (x[0] - lo) + x[1], [0] * (y[0] - lo) + y[1])


def rl_powers(m_max):
    """Entries of (R L)^m for m = 0..m_max, with R = [[q,1],[0,1]] and
    L = [[1,0],[1,q^-1]], as (low, ascending list) Laurent pairs:
    M R L = [[a (1+q) + b, (a+b) q^-1], [c (1+q) + d, (c+d) q^-1]]."""
    def step(x, y):
        low, coeffs = _ladd(x, y)
        return _ladd(_ladd(x, (x[0] + 1, x[1])), y), (low - 1, coeffs)

    a, b, c, d = (0, [1]), (0, [0]), (0, [0]), (0, [1])
    out = [(a, b, c, d)]
    for _ in range(m_max):
        (a, b), (c, d) = step(a, b), step(c, d)
        out.append((a, b, c, d))
    return out


def check_rl_det(entries):
    """det (R L)^m = 1, exactly."""
    (la, a), (lb, b), (lc, c), (ld, d) = entries
    det = _ladd((la + ld, _pmul(a, d)), (lb + lc, [-x for x in _pmul(b, c)]))
    low, coeffs = det
    nz = [i for i, x in enumerate(coeffs) if x]
    _require(len(nz) == 1 and coeffs[nz[0]] == 1 and low + nz[0] == 0,
             WrongOutput, "det (R L)^m != 1")


def check_rl_roots(entries, records):
    """Each nonconstant entry of (R L)^m has all its roots among the
    records under its label, accurately.  Returns the worst residual."""
    groups = {}
    for label, z, _ in records:
        groups.setdefault(label, []).append(z)
    worst = 0.0
    for label, (_, coeffs) in zip("abcd", entries):
        coeffs = strip(coeffs)
        if len(coeffs) > 1:
            worst = max(worst, check_roots(coeffs, groups.pop(label, [])))
    _require(not groups, WrongOutput, "roots reported for constant entries")
    return worst


# ---------------------------------------------------------------------------
# Stabilized series
# ---------------------------------------------------------------------------

def cf_fraction(terms):
    r, s = 1, 0
    for a in reversed(terms):
        r, s = a * r + s, r
    g = math.gcd(r, s)
    return r // g, s // g


def taylor(num, den, order):
    """First ``order`` Taylor coefficients of num/den at 0 (den(0) = 1)."""
    out = []
    for k in range(order):
        acc = num[k] if k < len(num) else 0
        for j in range(1, min(k, len(den) - 1) + 1):
            acc -= den[j] * out[k - j]
        out.append(acc)
    return out


def check_series(terms_of, short, long_):
    """Each (series, m) is the Taylor expansion of the q-analog of the
    m-th convergent, and the shorter is a prefix of the longer."""
    for series, m in (short, long_):
        r, s = cf_fraction(terms_of(m))
        num, den = qanalog(r, s)
        _require(list(series.coeffs) == taylor(num, den, len(series.coeffs)),
                 WrongOutput, "series differs from the expansion of "
                 "convergent %d", m)
    k = len(short[0].coeffs)
    _require(tuple(long_[0].coeffs[:k]) == tuple(short[0].coeffs), WrongOutput,
             "order-%d series is not a prefix of the longer one", k)


def check_jones(r, s, jones):
    """Jones = q num + (1 - q) den of the reference q-analog."""
    num, den = qanalog(r, s)
    ref = _padd(_padd([0] + num, den), [0] + [-c for c in den])
    _require((jones.low, tuple(jones.coeffs)) == laurent(ref), WrongOutput,
             "Jones polynomial of %d/%d differs from the reference", r, s)
