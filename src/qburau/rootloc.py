"""Complex root localization for the numerator/denominator polynomials of
q-rationals, sampling of the singular set, and the annulus consistency
report.

The kernel takes the eigenvalues of the companion matrix of the real
double-precision copy of the exact integer coefficients (``np.roots``, a
LAPACK eigensolve, backward stable by Edelman and Murakami, Math. Comp.
64, 1995).  Real coefficients make complex roots come in exact conjugate
pairs.  There is no iteration and no polish; every root must pass the
scaled-residual gate, which fails closed on NaN and inf.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .cfrac import enumerate_fractions
from .qrational import q_deform
from .braid import qmod_generator

RESIDUAL_TOL = 1e-10

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
    out = np.empty(len(z))
    inner = np.abs(z) <= 1.0
    with np.errstate(invalid="ignore"):
        out[inner] = np.abs(np.polyval(coeffs[::-1], z[inner]))
        out[~inner] = np.abs(np.polyval(coeffs, 1.0 / z[~inner]))
    return out / len(coeffs)


def _solve(p, tol):
    """Roots of p with q^low stripped, sorted by (real, imag), and their
    scaled residuals; raises NoConvergence unless every residual <= tol."""
    if p.is_zero():
        raise ValueError("zero polynomial has no well-defined root set")
    # strip the monomial factor; scale coefficients into float range
    scale = max(abs(c) for c in p.coeffs)
    coeffs = np.array([c / scale for c in p.coeffs], dtype=float)
    z = np.roots(coeffs[::-1]).astype(complex)
    z = z[np.lexsort((z.imag, z.real))]
    res = _residuals(coeffs, z)
    deg = len(coeffs) - 1
    if len(z) != deg or not (np.all(np.isfinite(z)) and np.all(res <= tol)):
        raise NoConvergence(
            "worst scaled root residual %.1e above %.1e at degree %d for %s"
            % (np.max(res, initial=0.0), tol, deg, p))
    return [complex(w) for w in z], res


def roots(p, tol=RESIDUAL_TOL):
    """All roots of p with q^low stripped, multiplicities by repetition,
    sorted by (real, imag).

    Each root satisfies |p(z)| <= tol * max|coeff| * (deg+1) *
    max(1,|z|)^deg; raises NoConvergence otherwise, also when a root is
    NaN or inf.
    """
    return _solve(p, tol)[0]


@dataclass(frozen=True)
class RootRecord:
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


def sigma_sample(max_den, tol=RESIDUAL_TOL):
    """Roots of num and den of the q-analog of every enumerated fraction.

    Denominator roots are the sampled members of the singular set; the
    numerator roots join them for the annulus check.  Each distinct
    coefficient tuple is solved once per call: den(r/s) depends only on
    r mod s, so most polynomials repeat.
    """
    if max_den < 2:
        raise ValueError("max_den must be >= 2")
    records = []
    solved = {}
    for frac in enumerate_fractions(max_den):
        qr = q_deform(frac)
        for part, poly in (("num", qr.num), ("den", qr.den)):
            if len(poly.coeffs) <= 1:
                continue
            if poly.coeffs not in solved:
                try:
                    solved[poly.coeffs] = _solve(poly, tol)
                except NoConvergence as exc:
                    raise NoConvergence("fraction %s (%s): %s"
                                        % (frac, part, exc))
            zs, res = solved[poly.coeffs]
            records.extend(RootRecord(frac, part, z, float(r))
                           for z, r in zip(zs, res))
    records.sort(key=lambda rec: (rec.frac.s, rec.frac.r, rec.part,
                                  rec.root.real, rec.root.imag))
    moduli = [rec.modulus for rec in records]
    return SigmaSample(max_den, records, min(moduli), max(moduli))


@dataclass
class AnnulusReport:
    proven_violations: list
    min_modulus: float
    max_modulus: float
    conjecture_consistent: bool


def annulus_check(sample, tol=1e-6):
    """Check the sample against the proven open annulus (3-2*sqrt2,
    3+2*sqrt2); report consistency with the conjectural sharp annulus
    [(3-sqrt5)/2, (3+sqrt5)/2]."""
    violations = [rec for rec in sample.records
                  if rec.modulus <= INNER_PROVEN - tol
                  or rec.modulus >= OUTER_PROVEN + tol]
    conj_ok = all(INNER_CONJ - tol <= rec.modulus <= OUTER_CONJ + tol
                  for rec in sample.records)
    return AnnulusReport(violations, sample.min_modulus,
                         sample.max_modulus, conj_ok)


def rl_power_roots(m, tol=RESIDUAL_TOL):
    """Roots of the four entries of (R_q L_q)^m with their distance to the
    circle |q| = (3-sqrt5)/2.  Returns (records, min_distance); records are
    (entry_label, root, distance)."""
    if m < 1:
        raise ValueError("m must be >= 1")
    mat = (qmod_generator("R") * qmod_generator("L")) ** m
    out = []
    for label, poly in zip("abcd", mat.entries()):
        if poly.is_zero() or len(poly.coeffs) <= 1:
            continue
        for z in roots(poly, tol):
            out.append((label, z, abs(abs(z) - INNER_CONJ)))
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
