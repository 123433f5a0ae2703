"""The benchmark's workloads: seeded inputs and the ops that are timed.

A workload hands out its inputs one pass at a time.  A pass is a fixed
mix of op kinds, in shuffled order.  Each kind draws its sizes from a
``Sizes`` sequence, whose first n draws are spread evenly over the size
range for every n, so a run of whole passes has the same mix for every
seed.  Every pass draws fresh inputs, except in ``sigma``, whose only
input is the bound D.

Ops call the library through module attributes looked up at call time,
so the traced run's wrappers see them.  Each op's ``check`` runs outside
the timed region, raises ``checks.CheckFailed`` on a bad output, and
returns an exact summary of the output for the run's digest.
"""
from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from qburau import braid, cfrac, faithful, qrational, rootloc, stabilize

import checks


@dataclass
class Op:
    kind: str
    items: int                           # counted by throughput on success
    call: Callable[[], object]
    check: Callable[[object], str]


class Sizes:
    """Integers in [lo, hi] from the additive golden-ratio sequence
    u_k = u_0 + k (sqrt(5) - 1) / 2 mod 1, with a seeded start u_0.  Any
    n consecutive draws are close to one per 1/n-slice of the range."""

    STEP = (math.sqrt(5) - 1) / 2

    def __init__(self, rng, lo, hi):
        self.lo, self.count, self.u = lo, hi - lo + 1, rng.random()

    def take(self, n):
        out = []
        for _ in range(n):
            self.u = (self.u + self.STEP) % 1.0
            out.append(self.lo + int(self.u * self.count))
        return out


def _points(rng, n):
    """n random nonzero residues, for exact identity tests mod a prime."""
    return [rng.randrange(2, checks.PRIME - 1) for _ in range(n)]


def _poly_summary(p):
    return "%d:%s" % (p.low, ",".join(map(str, p.coeffs)))


# ---------------------------------------------------------------------------

class Sigma:
    """sigma_sample(D) + annulus_check for each D in BOUNDS, per pass.
    An odd count of bounds makes the median op the middle bound's."""

    BOUNDS = (15, 18, 21)
    FIRST_D = 10
    TRACE_PASSES = 3

    def __init__(self, seed):
        self.rng = random.Random("sigma:%d" % seed)
        self.refs = {f: checks.qanalog(*f)
                     for f in checks.sigma_fractions(max(self.BOUNDS))}

    def next_pass(self):
        order = list(self.BOUNDS)
        self.rng.shuffle(order)
        return [self.op(d) for d in order]

    def op(self, max_den):
        def call():
            sample = rootloc.sigma_sample(max_den)
            return sample, rootloc.annulus_check(sample)

        def check(out):
            sample, report = out
            checks.check_sigma(max_den, sample, report, self.refs)
            parts = sorted((r.frac.s, r.frac.r, r.part) for r in sample.records)
            return "sigma %d %s %d %s" % (
                max_den, parts, len(report.proven_violations),
                report.conjecture_consistent)

        return Op("sigma", len(checks.sigma_fractions(max_den)), call, check)

    def first_op(self):
        return self.op(self.FIRST_D)


# ---------------------------------------------------------------------------

class Classify:
    """classify_specialization at MAX_DEN over a mix of four point kinds."""

    MAX_DEN = 40
    PLANTED, ANNULUS, RATIONAL = 8, 12, 12      # plus 8 exact points
    FIRST_POINT = 0.5 + 0.2j
    TRACE_PASSES = 1

    def __init__(self, seed):
        self.rng = random.Random("classify:%d" % seed)
        refs = {f: checks.qanalog(*f)
                for f in checks.sigma_fractions(self.MAX_DEN)}
        self.table = checks.DenTable(self.MAX_DEN, refs)
        self.planted = Sizes(self.rng, 0, len(self.table.fracs) - 1)

    def next_pass(self):
        rng = self.rng
        ops = [self._planted(i) for i in self.planted.take(self.PLANTED)]
        for _ in range(self.ANNULUS):
            modulus = math.exp(rng.uniform(math.log(0.2), math.log(5.5)))
            z = cmath.rect(modulus, rng.uniform(-math.pi, math.pi))
            ops.append(self.op(("complex", z)))
        for _ in range(self.RATIONAL):
            ops.append(self.op(("real", self._rational(rng))))
        ops.extend(self.op(p) for p in self._exact_points(rng))
        rng.shuffle(ops)
        return ops

    def _planted(self, index):
        """A point t0 with -t0 a root of the index-th scanned denominator."""
        den = self.table.dens[index]
        desc = np.array(den[::-1], dtype=float)
        zs = np.roots(desc)
        for _ in range(3):          # Newton polish
            zs = zs - np.polyval(desc, zs) / np.polyval(np.polyder(desc), zs)
        res = checks.scaled_residuals(den, zs)
        good = [complex(z) for z, r in zip(zs, res) if r <= 1e-13]
        root = good[self.rng.randrange(len(good))]
        return self.op(("complex", -root), planted=self.table.fracs[index])

    @staticmethod
    def _rational(rng):
        while True:
            q = rng.randint(1, 30)
            p = rng.randint(math.ceil(0.2 * q), math.floor(5.5 * q))
            if p != q and math.gcd(p, q) == 1:
                return Fraction(p, q)

    @staticmethod
    def _exact_points(rng):
        points = []
        for _ in range(3):
            n = rng.randint(3, 40)
            points.append(("unity", n, rng.randint(1, n - 1)))
        points.append(("real", Fraction(-1)))
        for _ in range(2):
            x = Fraction(-rng.randint(1, 20), rng.randint(1, 20))
            points.append(("real", x if x != -1 else Fraction(-2)))
        points.append(("complex", cmath.rect(rng.uniform(0.01, 0.16),
                                             rng.uniform(-math.pi, math.pi))))
        points.append(("complex", cmath.rect(rng.uniform(6.0, 50.0),
                                             rng.uniform(-math.pi, math.pi))))
        return points

    def op(self, point, planted=None):
        tag = point[0]
        if tag == "unity":
            arg = faithful.RootOfUnity(point[1], point[2])
        elif tag == "real":
            arg = faithful.RealValue(point[1])
        else:
            arg = faithful.ComplexValue(point[1])

        def call():
            return faithful.classify_specialization(arg, self.MAX_DEN)

        def check(verdict):
            checks.check_verdict(point, verdict, self.table, planted)
            w = verdict.witness_frac
            return "classify %s %s" % (verdict.kind,
                                       "%d/%d" % (w.r, w.s) if w else "-")

        return Op("classify", 1, call, check)

    def first_op(self):
        return self.op(("complex", self.FIRST_POINT))


# ---------------------------------------------------------------------------

# m in 20..150 at which rl_power_roots fails at the baseline (2b1b70a):
# NoConvergence, or non-finite roots returned without an error.
RL_FAILING_M = frozenset(
    [44, 46, 47, 55, 56, 57, 71, 72, 73, 75, 80, 82, 83, 86, 87, 88, 89,
     92, 93, 94, 96, 97, 98, 99, 102, 104] + list(range(106, 151)))


class Large:
    """Exact algebra on large objects, and roots of large polynomials.

    The timed ``rl`` ops draw m from the values in 20..150 at which
    rl_power_roots succeeds at the baseline, so that no timed op fails.
    The traced run probes it apart at DEFECT_M, where it fails."""

    WORDS, ALEXANDER, RL, SERIES, JONES = 4, 4, 2, 4, 4
    WORD_LETTERS = (200, 1600)
    ALEXANDER_LETTERS = (200, 1200)
    RL_M = tuple(m for m in range(20, 151) if m not in RL_FAILING_M)
    DEFECT_M = (55, 75, 80, 110, 150)
    SERIES_ORDER = (20, 60)
    SERIES_EXTRA = 10
    FIB_N = (50, 350)
    FIRST_M = 30
    TRACE_PASSES = 3

    def __init__(self, seed):
        self.rng = random.Random("large:%d" % seed)
        self.sizes = {kind: Sizes(self.rng, *bounds) for kind, bounds in (
            ("word", self.WORD_LETTERS), ("alexander", self.ALEXANDER_LETTERS),
            ("rl", (0, len(self.RL_M) - 1)), ("series", self.SERIES_ORDER),
            ("jones", self.FIB_N))}
        self.rl = checks.rl_powers(max(self.RL_M + self.DEFECT_M))
        fib = [0, 1]
        while len(fib) < self.FIB_N[1] + 2:
            fib.append(fib[-1] + fib[-2])
        self.fib = fib

    def next_pass(self):
        take = {kind: sizes.take for kind, sizes in self.sizes.items()}
        ops = [self._word(n) for n in take["word"](self.WORDS)]
        ops += [self._alexander(n) for n in take["alexander"](self.ALEXANDER)]
        ops += [self.rl_op(self.RL_M[i]) for i in take["rl"](self.RL)]
        ops += [self._series(k) for k in take["series"](self.SERIES)]
        ops += [self._jones(n) for n in take["jones"](self.JONES)]
        self.rng.shuffle(ops)
        return ops

    def _letters(self, n):
        return tuple(self.rng.choice((1, -1, 2, -2)) for _ in range(n))

    def _word(self, n):
        letters = self._letters(n)
        word = braid.BraidWord(letters)
        loop = word * word.inverse()
        ts = _points(self.rng, 2)

        def call():
            return faithful.is_trivial_braid(loop), braid.rho3(word)

        def check(out):
            trivial, mat = out
            checks.check_word(letters, trivial, mat, ts)
            return "word %d %s" % (n, ";".join(_poly_summary(p)
                                               for p in mat.entries()))

        return Op("word", 1, call, check)

    def _alexander(self, n):
        letters = self._letters(n)
        word = braid.BraidWord(letters)
        ts = _points(self.rng, 2)

        def call():
            return faithful.alexander(word)

        def check(alex):
            checks.check_alexander(letters, alex, ts)
            return "alexander %s" % _poly_summary(alex)

        return Op("alexander", 1, call, check)

    def rl_op(self, m):
        def call():
            return rootloc.rl_power_roots(m)

        def check(out):
            records, _ = out
            checks.check_rl_det(self.rl[m])
            checks.check_rl_roots(self.rl[m], records)
            return "rl %d %s" % (m, "".join(label for label, _, _ in records))

        return Op("rl", 1, call, check)

    def _series(self, order):
        rng = self.rng
        pre = tuple(rng.randint(1, 3) for _ in range(rng.randint(0, 2)))
        per = tuple(rng.randint(1, 4) for _ in range(rng.randint(1, 3)))
        x = stabilize.PeriodicCF(pre, per)

        def terms(m):
            return [pre[i] if i < len(pre) else per[(i - len(pre)) % len(per)]
                    for i in range(m)]

        def call():
            return (stabilize.stabilized_series(x, order),
                    stabilize.stabilized_series(x, order + self.SERIES_EXTRA))

        def check(out):
            checks.check_series(terms, *out)
            return "series %s %s %d" % (pre, per, out[0][1])

        return Op("series", 1, call, check)

    def _jones(self, n):
        r, s = self.fib[n + 1], self.fib[n]
        x = cfrac.Frac(r, s)

        def call():
            return qrational.q_deform(x), qrational.jones(x)

        def check(out):
            qr, jones = out
            checks.check_qanalog(r, s, qr)
            checks.check_jones(r, s, jones)
            return "jones %d %s" % (n, _poly_summary(jones))

        return Op("jones", 1, call, check)

    def first_op(self):
        return self.rl_op(self.FIRST_M)


WORKLOADS = {"sigma": Sigma, "classify": Classify, "large": Large}
