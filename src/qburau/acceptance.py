"""The acceptance checklist: one callable per criterion, each returning
(ok, detail).  The pytest suite asserts them one by one and the CLI
`selftest` subcommand runs the full list, printing a pass/fail line per
criterion.
"""
from __future__ import annotations

import math
import random
from fractions import Fraction as _QQ

from .laurent import LaurentPoly
from .braid import BraidWord, QMatrix2, rho3
from .cfrac import EvenCF, Frac, classical_matrix
from .qrational import (burau_column_check, mirror_negate, q_deform,
                        q_one_over_n, reflect)
from .rootloc import annulus_check, rl_power_roots, roots, sigma_sample
from .stabilize import GOLDEN, agreement_orders, radius_estimate, stabilized_series
from .faithful import (FAITHFUL_NEGATIVE_REAL, FAITHFUL_OUTSIDE_ANNULUS,
                       NO_WITNESS_UP_TO, UNFAITHFUL_CENTER,
                       UNFAITHFUL_POLE_WITNESS, UNFAITHFUL_ROOT_OF_UNITY,
                       RealValue, RootOfUnity, alexander,
                       classify_specialization, triangular_decompose)

SEED = 20260825


def _poly(low, coeffs):
    return LaurentPoly.make(low, coeffs)


def _random_word(rng, max_len, min_len=1):
    n = rng.randint(min_len, max_len)
    return BraidWord(tuple(rng.choice((1, -1, 2, -2)) for _ in range(n)))


# --------------------------------------------------------------------------
# criteria
# --------------------------------------------------------------------------

def crit01_exact_values():
    """Worked q-analogs and the Burau-column bridge, exactly."""
    checks = [
        (q_deform(Frac(2, 1)).num == _poly(0, [1, 1])
         and q_deform(Frac(2, 1)).den == _poly(0, [1])),
        (q_deform(Frac(1, 2)).num == _poly(1, [1])
         and q_deform(Frac(1, 2)).den == _poly(0, [1, 1])),
        (q_deform(Frac(2, 3)).num == _poly(1, [1, 1])
         and q_deform(Frac(2, 3)).den == _poly(0, [1, 1, 1])),
        burau_column_check(BraidWord.parse("aBaB"), Frac(5, 3)),
        burau_column_check(BraidWord.parse("aBaB"), Frac(3, 2), column=1),
    ]
    return all(checks), "exact checks %s" % checks


def crit02_structural_identities():
    ok_braid = rho3(BraidWord.parse("aba")) == rho3(BraidWord.parse("bab"))
    center = rho3(BraidWord.parse("ababab"))
    t3 = LaurentPoly.monomial(3)
    ok_center = center == QMatrix2(t3, t3 - t3, t3 - t3, t3, "t")
    cms = [classical_matrix(EvenCF((1, 1))) == ((2, 1), (1, 1)),
           classical_matrix(EvenCF((0, 2))) == ((1, 0), (2, 1)),
           classical_matrix(EvenCF((0, 1, 1, 1))) == ((2, 1), (3, 2))]
    return ok_braid and ok_center and all(cms), \
        "braid=%s center=%s classical=%s" % (ok_braid, ok_center, cms)


def crit03_positivity_unimodality():
    bad = []
    for r in range(1, 61):
        for s in range(1, r + 1):
            if math.gcd(r, s) != 1:
                continue
            qr = q_deform(Frac(r, s))
            if not (qr.num.is_positive() and qr.den.is_positive()
                    and qr.num.is_unimodal() and qr.den.is_unimodal()):
                bad.append((r, s))
    return not bad, "violations: %s" % bad[:5]


def crit04_reflection_mirror():
    bad = []
    for r in range(1, 41):
        for s in range(1, 41):
            if math.gcd(r, s) != 1:
                continue
            x = q_deform(Frac(r, s))
            y = reflect(x)
            direct = q_deform(Frac(s, r))
            if (y.num, y.den) != (direct.num, direct.den):
                bad.append(("reflect", r, s))
                continue
            mn, md = mirror_negate(x)
            # normalization must preserve the rational function
            lhs = mn * x.den.invert_variable().shift(1)
            rhs = (-x.num.invert_variable()) * md
            if lhs != rhs or mn.eval_at_one() != -r or md.eval_at_one() != s:
                bad.append(("mirror", r, s))
    return not bad, "violations: %s" % bad[:5]


def crit05_palindromic_trace(n_words=10_000):
    rng = random.Random(SEED)
    for _ in range(n_words):
        w = _random_word(rng, 20)
        tr = rho3(w).to_q_convention().trace()
        if not tr.is_palindromic():
            return False, "non-palindromic trace for %s" % w
    tr = rho3(BraidWord.parse("aBaB")).to_q_convention().trace()
    ok = tr.coeffs == (1, 2, 1, 2, 1)
    return ok, "example trace coeffs %s" % (tr.coeffs,)


def crit06_annulus(max_den=30):
    sample = sigma_sample(max_den)
    report = annulus_check(sample)
    ok = (not report.proven_violations
          and report.min_modulus >= 0.381966 - 1e-6)
    return ok, ("%d roots, min=%.9f max=%.9f violations=%d"
                % (len(sample.records), report.min_modulus,
                   report.max_modulus, len(report.proven_violations)))


def crit07_roots_of_unity():
    for n in range(2, 13):
        expect = [complex(math.cos(2 * math.pi * k / n),
                          math.sin(2 * math.pi * k / n))
                  for k in range(1, n)]
        got = roots(q_one_over_n(n).den)
        if len(got) != len(expect):
            return False, "n=%d: %d roots" % (n, len(got))
        for w in expect:
            if min(abs(w - z) for z in got) > 1e-8:
                return False, "n=%d: missing root %s" % (n, w)
    return True, "all n <= 12 matched within 1e-8"


def crit08_golden_radius():
    est = radius_estimate(GOLDEN, 18)
    target = (3 - math.sqrt(5)) / 2
    ok = abs(est - target) <= 0.01 * target
    return ok, "estimate %.10f vs %.10f" % (est, target)


def crit09_circle_approach():
    _, d5 = rl_power_roots(5)
    _, d15 = rl_power_roots(15)
    ok = d15 < d5 and d15 < 0.02
    return ok, "min distance m=5: %.5f, m=15: %.5f" % (d5, d15)


def crit10_classifier_table(max_den=40):
    table = [
        (RealValue(_QQ(-1)), UNFAITHFUL_CENTER, None),
        (RealValue(_QQ(1)), UNFAITHFUL_POLE_WITNESS, Frac(1, 2)),
        (RealValue(_QQ(-2)), FAITHFUL_NEGATIVE_REAL, None),
        (RealValue(_QQ(10)), FAITHFUL_OUTSIDE_ANNULUS, None),
        (RealValue(_QQ(1, 20)), FAITHFUL_OUTSIDE_ANNULUS, None),
        (RootOfUnity(5, 1), UNFAITHFUL_ROOT_OF_UNITY, Frac(1, 10)),
        (RealValue(_QQ(1, 2)), NO_WITNESS_UP_TO, None),
    ]
    got = []
    for point, want_kind, want_witness in table:
        v = classify_specialization(point, max_den)
        ok = v.kind == want_kind and (want_witness is None
                                      or v.witness_frac == want_witness)
        got.append((point, v.kind, ok))
        if not ok:
            return False, "mismatch at %s: got %s" % (point, v)
    return True, "; ".join("%s -> %s" % (p, k) for p, k, _ in got)


def crit11_triangular(n_cases=1000):
    rng = random.Random(SEED + 1)
    for _ in range(n_cases):
        k = rng.randint(-5, 5)
        m = rng.randint(-3, 3)
        # random interleaving of sigma1^+-1 and z^+-1 factors
        tokens = [(1,)] * max(k, 0) + [(-1,)] * max(-k, 0)
        zl = (1, 2, 1, 2, 1, 2)
        zinv = tuple(-g for g in reversed(zl))
        tokens += [zl] * max(m, 0) + [zinv] * max(-m, 0)
        rng.shuffle(tokens)
        w = BraidWord(tuple(g for tok in tokens for g in tok))
        if triangular_decompose(w) != (k, m):
            return False, "wrong decomposition for k=%d m=%d" % (k, m)
    count = 0
    while count < n_cases:
        w = _random_word(rng, 12)
        if rho3(w).c.is_zero():
            continue  # not a generic word; resample
        count += 1
        if triangular_decompose(w) is not None:
            return False, "false membership for %s" % w
    return True, "%d members and %d non-members classified" % (n_cases, n_cases)


def crit12_alexander(n_pairs=1000):
    if alexander(BraidWord.parse("abab")) != _poly(0, [1, -1, 1]):
        return False, "trefoil mismatch"
    rng = random.Random(SEED + 2)
    for _ in range(n_pairs):
        w = _random_word(rng, 8)
        u = _random_word(rng, 8)
        conj = u * w * u.inverse()
        if alexander(conj) != alexander(w):
            return False, "conjugation broke invariance: u=%s w=%s" % (u, w)
    return True, "trefoil exact; %d conjugation pairs invariant" % n_pairs


def crit13_stabilization():
    # convergents m-1 and m of the golden ratio agree on 2*(m//2) - 1
    # coefficients
    orders = agreement_orders(GOLDEN, 20)
    exact = orders == [2 * (m // 2) - 1 for m in range(2, 21)]
    series, stable_at = stabilized_series(GOLDEN, 10)
    ok = exact and stable_at <= 25 and series.order == 10
    return ok, "agreement orders %s, stable_at_m=%d" % (orders, stable_at)


CRITERIA = [
    ("1 exact q-analog values", crit01_exact_values),
    ("2 structural identities", crit02_structural_identities),
    ("3 positivity + unimodality (r,s <= 60)", crit03_positivity_unimodality),
    ("4 reflection + mirror (r,s <= 40)", crit04_reflection_mirror),
    ("5 palindromic trace (10^4 words)", crit05_palindromic_trace),
    ("6 annulus at max_den=30", crit06_annulus),
    ("7 roots-of-unity poles (n <= 12)", crit07_roots_of_unity),
    ("8 golden-ratio radius", crit08_golden_radius),
    ("9 circle approach of (RL)^m roots", crit09_circle_approach),
    ("10 classifier table", crit10_classifier_table),
    ("11 triangular decomposition", crit11_triangular),
    ("12 Alexander polynomial", crit12_alexander),
    ("13 stabilization of the golden series", crit13_stabilization),
]


def run_all(out=print):
    """Run every criterion; returns True iff all pass."""
    all_ok = True
    for name, fn in CRITERIA:
        ok, detail = fn()
        all_ok = all_ok and ok
        out("%s  criterion %s: %s" % ("PASS" if ok else "FAIL", name, detail))
    return all_ok
