"""Coprime fractions, canonical even-length continued fractions, and the
Farey-style enumeration used to sample the singular set.

The even expansion r/s = [a1, ..., a2m] is the one matching the matrix
word R^a1 L^a2 ... R^a(2m-1) L^a2m: a1 >= 0 (zero allowed when r/s < 1)
and all later entries >= 1.
"""
from __future__ import annotations

import math
from dataclasses import dataclass


class NonPositive(ValueError):
    pass


class Infinite(ValueError):
    pass


@dataclass(frozen=True)
class Frac:
    """Coprime pair r/s; s = 0 encodes infinity as 1/0."""

    r: int
    s: int

    def __post_init__(self):
        if self.s < 0:
            raise ValueError("denominator must be non-negative")
        if self.s == 0:
            if self.r != 1:
                raise ValueError("infinity must be written 1/0")
            return
        if math.gcd(abs(self.r), self.s) != 1:
            raise ValueError("%d/%d is not in lowest terms" % (self.r, self.s))

    @staticmethod
    def of(r, s=1):
        """Reduce r/s to lowest terms (s > 0)."""
        if s == 0:
            return Frac(1, 0)
        if s < 0:
            r, s = -r, -s
        g = math.gcd(abs(r), s)
        return Frac(r // g, s // g)

    @staticmethod
    def parse(text):
        text = text.strip()
        if "/" in text:
            r, s = text.split("/", 1)
            return Frac.of(int(r), int(s))
        return Frac.of(int(text), 1)

    def is_infinite(self):
        return self.s == 0

    def is_positive(self):
        return self.s > 0 and self.r > 0

    def inverse(self):
        if self.r == 0:
            return Frac(1, 0)
        if self.r < 0:
            raise NonPositive("inverse of a negative fraction")
        return Frac(self.s, self.r)

    def __str__(self):
        return "%d/%d" % (self.r, self.s)


@dataclass(frozen=True)
class EvenCF:
    """Even-length continued fraction (a1, ..., a2m)."""

    a: tuple

    def __post_init__(self):
        if len(self.a) % 2 != 0 or not self.a:
            raise ValueError("expansion must have positive even length")
        if self.a[0] < 0:
            raise ValueError("a1 must be >= 0")
        if any(x < 1 for x in self.a[1:]):
            raise ValueError("entries after a1 must be >= 1")

    def __str__(self):
        return "[" + ",".join(str(x) for x in self.a) + "]"


def to_even_cf(x):
    """Canonical even-length expansion of a positive finite fraction.

    Euclidean quotients, then parity fix: a trailing b >= 2 splits into
    (b-1, 1); a trailing 1 merges into the previous entry.
    """
    if x.is_infinite():
        raise Infinite("no expansion for infinity")
    if not x.is_positive():
        raise NonPositive("expansion defined for positive fractions only")
    a = []
    r, s = x.r, x.s
    while s:
        a.append(r // s)
        r, s = s, r % s
    if len(a) % 2 == 1:
        if a[-1] >= 2:
            a[-1] -= 1
            a.append(1)
        elif len(a) >= 2:
            a.pop()
            a[-1] += 1
        else:
            a = [0, 1]  # the value 1 itself
    return EvenCF(tuple(a))


def cf_value(a):
    """Evaluate a continued fraction [a1, a2, ...] as a Frac."""
    r, s = 1, 0
    for q in reversed(a):
        r, s = q * r + s, r
    return Frac.of(r, s)


def classical_matrix(cf):
    """Product R^a1 L^a2 ... over the integers, as ((r,v),(s,u))."""
    r, v, s, u = 1, 0, 0, 1
    for i, a in enumerate(cf.a):
        if i % 2 == 0:  # R^a = [[1,a],[0,1]]
            r, v, s, u = r, v + a * r, s, u + a * s
        else:           # L^a = [[1,0],[a,1]]
            r, v, s, u = r + a * v, v, s + a * u, u
    return ((r, v), (s, u))


def enumerate_fractions(max_den):
    """All positive r/s in lowest terms with 1 <= s <= max_den and
    r <= s + 2*max_den, sorted by (s, r).

    The numerator cap: poles of s/r are inverses of poles of r/s
    (reflection), so huge numerators add no new moduli.
    """
    if max_den < 1:
        raise ValueError("max_den must be >= 1")
    out = []
    for s in range(1, max_den + 1):
        for r in range(1, s + 2 * max_den + 1):
            if math.gcd(r, s) == 1:
                out.append(Frac(r, s))
    return out
