"""Complex root localization for the numerator/denominator polynomials of
q-rationals, sampling of the singular set, and the annulus consistency
report.

The kernel takes the eigenvalues of the companion matrix of the real
double-precision copy of the exact integer coefficients (``np.roots``, a
LAPACK eigensolve, backward stable by Edelman and Murakami, Math. Comp.
64, 1995).  Real coefficients make complex roots come in exact conjugate
pairs.  There is no iteration and no polish; every root must pass the
scaled-residual gate, which fails closed on NaN and inf.  numpy is
imported inside the two functions that call it, so it loads at the first
float root solve: exact work, such as q-rationals, Burau matrices and the
classifier's exact decisions, never imports it.

The singular-set sample reads every polynomial off one table of dens,
``qrational.singular_dens``, by [x+1]_q = q[x]_q + 1 and reflection
(Morier-Genoud and Ovsienko, Forum Math. Sigma 8, 2020).
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass

from .cfrac import Frac, enumerate_fractions
from .qrational import rl_product, singular_dens

RESIDUAL_TOL = 1e-10
ANNULUS_TOL = 1e-6

INNER_PROVEN = 3 - 2 * math.sqrt(2)       # 0.171572875254...
OUTER_PROVEN = 3 + 2 * math.sqrt(2)       # 5.828427124746...
INNER_CONJ = (3 - math.sqrt(5)) / 2       # 0.381966011250...
OUTER_CONJ = (3 + math.sqrt(5)) / 2       # 2.618033988750...


class NoConvergence(ArithmeticError):
    """A root misses the scaled-residual gate, or is not finite."""


def _residuals(coeffs, z):
    """|p(z)| / (max|coeff| * (deg+1) * max(1,|z|)^deg) for each z.

    coeffs are ascending and scaled to max|coeff| = 1.  The magnitude
    factor keeps the test meaningful for roots outside the unit circle,
    where double-precision evaluation of p carries roundoff proportional
    to |z|^deg.  There the same quantity is |rev p(1/z)| / (deg+1), the
    reversed polynomial at 1/z, so no power of |z| is formed and the value
    cannot overflow.  A NaN root gives a NaN residual.
    """
    import numpy as np

    out = np.empty(len(z))
    inner = np.abs(z) <= 1.0
    with np.errstate(invalid="ignore"):
        out[inner] = np.abs(np.polyval(coeffs[::-1], z[inner]))
        out[~inner] = np.abs(np.polyval(coeffs, 1.0 / z[~inner]))
    return out / len(coeffs)


def _solve(coeffs):
    """Roots of the nonzero polynomial with ascending coefficients
    `coeffs`, sorted by (real, imag), and their scaled residuals; raises
    NoConvergence unless every residual <= RESIDUAL_TOL."""
    import numpy as np

    # scale coefficients into float range
    scale = max(abs(c) for c in coeffs)
    coeffs = np.array([c / scale for c in coeffs], dtype=float)
    z = np.roots(coeffs[::-1]).astype(complex)
    z = z[np.lexsort((z.imag, z.real))]
    res = _residuals(coeffs, z)
    deg = len(coeffs) - 1
    if len(z) != deg or not np.all(np.isfinite(z) & (res <= RESIDUAL_TOL)):
        raise NoConvergence(
            "worst scaled root residual %.1e above %.1e at degree %d"
            % (np.max(res, initial=0.0), RESIDUAL_TOL, deg))
    return [complex(w) for w in z], res


def roots(p):
    """All roots of p with q^low stripped, sorted by (real, imag).

    A root of multiplicity k is reported k times, as k nearby floats: a
    repeated root carries a forward error near the k-th root of the
    backward error.  den(17/48) = (1+q)^3 Phi_3 Phi_4 Phi_6 gives three
    roots, each 9.9e-6 from -1.

    Each root satisfies |p(z)| <= RESIDUAL_TOL * max|coeff| * (deg+1) *
    max(1,|z|)^deg; raises NoConvergence otherwise, also when a root is
    NaN or inf.
    """
    if p.is_zero():
        raise ValueError("zero polynomial has no well-defined root set")
    return _solve(p.coeffs)[0]


@dataclass(frozen=True)
class RootRecord:
    """One root of one polynomial of a fraction.  A root of multiplicity
    k gives k records, one per float that roots() reports for it."""

    frac: object            # Frac
    part: str               # "num" or "den"
    root: complex
    residual: float

    @property
    def modulus(self):
        return abs(self.root)


@dataclass
class SigmaSample:
    max_den: int
    records: list
    min_modulus: float
    max_modulus: float


def sigma_sample(max_den):
    """Roots of den and num (singular set, and its reflection for the
    annulus check) of the q-analog of every enumerated fraction, in
    (s, r) order, den first, each root list sorted by (real, imag).

    den(r/s) is the row (r mod s)/s of one singular_dens(3 * max_den)
    table, num(r/s) the row (s mod r)/r reversed; s = 1 and r = 1 have no
    row and no root.  Each distinct polynomial is solved once per call.
    """
    if max_den < 2:
        raise ValueError("max_den must be >= 2")
    table = dict(singular_dens(3 * max_den))
    records = []
    solved = {}
    for frac in enumerate_fractions(max_den):
        r, s = frac.r, frac.s
        for part, row, step in (("den", table.get(Frac(r % s, s)), 1),
                                ("num", table.get(Frac(s % r, r)), -1)):
            if row is None:
                continue
            coeffs = row.coeffs[::step]
            if coeffs not in solved:
                try:
                    solved[coeffs] = _solve(coeffs)
                except NoConvergence as exc:
                    raise NoConvergence("fraction %s (%s): %s"
                                        % (frac, part, exc))
            zs, res = solved[coeffs]
            records.extend(RootRecord(frac, part, z, float(e))
                           for z, e in zip(zs, res))
    moduli = [rec.modulus for rec in records]
    return SigmaSample(max_den, records, min(moduli), max(moduli))


@dataclass
class AnnulusReport:
    proven_violations: list
    min_modulus: float
    max_modulus: float
    conjecture_consistent: bool


def annulus_check(sample):
    """Check the sample against the proven open annulus (3-2*sqrt2,
    3+2*sqrt2); report consistency with the conjectural sharp annulus
    [(3-sqrt5)/2, (3+sqrt5)/2].  Both allow ANNULUS_TOL of slack."""
    violations = [rec for rec in sample.records
                  if rec.modulus <= INNER_PROVEN - ANNULUS_TOL
                  or rec.modulus >= OUTER_PROVEN + ANNULUS_TOL]
    conj_ok = all(INNER_CONJ - ANNULUS_TOL <= rec.modulus
                  <= OUTER_CONJ + ANNULUS_TOL for rec in sample.records)
    return AnnulusReport(violations, sample.min_modulus,
                         sample.max_modulus, conj_ok)


def rl_power_roots(m):
    """Roots of the four entries of (R_q L_q)^m with their distance to the
    circle |q| = (3-sqrt5)/2.  Returns (records, min_distance); records are
    (entry_label, root, distance).  Each distinct coefficient tuple is
    solved once per call; c = q*b, so the two share one solve."""
    if m < 1:
        raise ValueError("m must be >= 1")
    out = []
    solved = {}
    for label, poly in zip("abcd", rl_product((1,) * (2 * m))):
        if len(poly.coeffs) <= 1:       # zero or a monomial: no roots
            continue
        if poly.coeffs not in solved:
            solved[poly.coeffs] = roots(poly)
        out.extend((label, z, abs(abs(z) - INNER_CONJ))
                   for z in solved[poly.coeffs])
    min_dist = min(d for _, _, d in out) if out else float("inf")
    return out, min_dist


def write_sigma_csv(sample, path):
    """CSV columns: r,s,part,root_re,root_im,modulus,residual."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["r", "s", "part", "root_re", "root_im",
                         "modulus", "residual"])
        for rec in sample.records:
            writer.writerow([rec.frac.r, rec.frac.s, rec.part,
                             "%.12g" % rec.root.real, "%.12g" % rec.root.imag,
                             "%.12g" % rec.modulus, "%.3e" % rec.residual])


def sigma_json(sample):
    return {
        "max_den": sample.max_den,
        "min_modulus": sample.min_modulus,
        "max_modulus": sample.max_modulus,
        "records": [
            {"r": rec.frac.r, "s": rec.frac.s, "part": rec.part,
             "root": [rec.root.real, rec.root.imag],
             "modulus": rec.modulus, "residual": rec.residual}
            for rec in sample.records
        ],
    }
