"""Complex root localization for the numerator/denominator polynomials of
q-rationals, sampling of the singular set, the annulus consistency
report, and the roots of the entries of (R_q L_q)^m.

The general kernel takes the eigenvalues of the companion matrix of the
real double-precision copy of the exact integer coefficients
(``np.roots``, a LAPACK eigensolve, backward stable by Edelman and
Murakami, Math. Comp. 64, 1995), with no iteration and no polish.  Real
coefficients make complex roots come in exact conjugate pairs.

The entries of (R_q L_q)^m do not go through it: their expanded
coefficients make the roots ill-conditioned, and eigenvalues of the
companion matrix land far from them for m >= 30.  Their Chebyshev
structure gives the roots instead, in closed form for b and c, and by an
Aberth iteration that never expands a polynomial for a and d.

Every root, from either source, must pass the scaled-residual gate on the
exact coefficients, which fails closed on NaN and inf.  numpy is imported
inside the functions that call it, so it loads at the first float root
solve: exact work, such as q-rationals, Burau matrices and the
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


def _floats(coeffs):
    """The integer coefficients as floats scaled to max|coeff| = 1."""
    import numpy as np

    scale = max(abs(c) for c in coeffs)
    return np.array([c / scale for c in coeffs], dtype=float)


def _gated(coeffs, z):
    """The candidate roots z sorted by (real, imag), and their scaled
    residuals against the scaled float coefficients `coeffs`; raises
    NoConvergence unless z holds one finite root per degree, each with
    residual <= RESIDUAL_TOL."""
    import numpy as np

    z = z[np.lexsort((z.imag, z.real))]
    res = _residuals(coeffs, z)
    deg = len(coeffs) - 1
    if len(z) != deg or not np.all(np.isfinite(z) & (res <= RESIDUAL_TOL)):
        raise NoConvergence(
            "worst scaled root residual %.1e above %.1e at degree %d"
            % (np.max(res, initial=0.0), RESIDUAL_TOL, deg))
    return [complex(w) for w in z], res


def _solve(coeffs):
    """Roots of the nonzero polynomial with ascending coefficients
    `coeffs`, sorted by (real, imag), and their scaled residuals; raises
    NoConvergence unless every residual <= RESIDUAL_TOL."""
    import numpy as np

    coeffs = _floats(coeffs)
    try:
        with np.errstate(all="ignore"):     # the gate judges the result
            z = np.roots(coeffs[::-1]).astype(complex)
    except np.linalg.LinAlgError as exc:    # a coefficient ratio overflowed
        raise NoConvergence("companion eigensolve failed at degree %d: %s"
                            % (len(coeffs) - 1, exc))
    return _gated(coeffs, z)


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


# The Aberth iteration for the entries a and d of (R_q L_q)^m: at most
# _MAX_ITERATIONS sweeps; a root is settled once its step is at most
# _STEP_TOL * |z|; two roots closer than _SEPARATION * |z| coincide; and at
# most _PAIRS pairwise differences are held at once.
_MAX_ITERATIONS = 100
_STEP_TOL = 1e-12
_SEPARATION = 1e-10
_PAIRS = 1 << 18


def rl_power_roots(m):
    """Roots of the four entries of (R_q L_q)^m with their distance to the
    circle |q| = (3-sqrt5)/2.  Returns (records, min_distance); records are
    (entry_label, root, distance), each entry's roots sorted by (real,
    imag).  A root of multiplicity k gives k records.

    M = R_q L_q has determinant 1 and trace tau = q + 1 + 1/q, so with
    U_k the Chebyshev polynomials of the second kind at tau/2 (Cayley-
    Hamilton), M^m = U_{m-1} M - U_{m-2} I:

        a = U_m - U_{m-1}/q,   b = U_{m-1}/q,   c = U_{m-1},
        d = U_{m-1}/q - U_{m-2}.

    b and c have the roots of U_{m-1} in closed form (_chebyshev_roots).
    d_m is solved by _aberth, and a_m(q) = d_{m+1}(1/q)/q, so a's roots
    are the reciprocals of d_{m+1}'s.  Every root passes the residual
    gate on the exact entry; raises NoConvergence, naming m, the entry,
    the iterations run and the worst residual, when a root misses it,
    the iteration does not settle, or two roots of a or d coincide.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    out = []
    solved = {}
    for label, poly in zip("abcd", rl_product((1,) * (2 * m))):
        if len(poly.coeffs) <= 1:       # zero or a monomial: no roots
            continue
        if poly.coeffs not in solved:   # c = q*b: one solve for both
            solved[poly.coeffs] = _rl_entry_roots(m, label, poly.coeffs)
        out.extend((label, z, abs(abs(z) - INNER_CONJ))
                   for z in solved[poly.coeffs])
    min_dist = min(d for _, _, d in out) if out else float("inf")
    return out, min_dist


def _rl_entry_roots(m, label, coeffs):
    """The gated roots of entry `label` of (R_q L_q)^m, whose exact
    coefficients are `coeffs`, sorted by (real, imag)."""
    import numpy as np

    fault, sweeps = None, 0
    if label in "bc":
        z = _chebyshev_roots(m)
    else:
        z, sweeps, fault = _aberth(m + 1 if label == "a" else m)
        if label == "a":
            z = 1 / z
    coeffs = _floats(coeffs)
    try:
        if fault:
            raise NoConvergence("%s; worst scaled root residual %.1e" % (
                fault, np.max(_residuals(coeffs, z), initial=0.0)))
        return _gated(coeffs, z)[0]
    except NoConvergence as exc:
        raise NoConvergence("rl_power_roots(m=%d), entry %s, after %d "
                            "iterations: %s" % (m, label, sweeps, exc))


def _chebyshev_roots(m):
    """The 2m - 2 roots of U_{m-1}((q + 1 + 1/q)/2): for k = 1 .. m-1 the
    roots of q^2 + (1 - 2 cos(k pi/m)) q + 1, whose product is 1.

    With u = 1 + 2 cos(k pi/m), taken as a product of sines so that it is
    exactly 0 at k = 2m/3, the roots are (u - 2 -+ sqrt(u (u - 4)))/2.  The
    one of larger modulus comes from the formula and the other is its
    reciprocal, so neither cancels.  When 3 | m, k = 2m/3 gives u = 0 and
    the double root -1, exactly.
    """
    import numpy as np

    k = np.arange(1, m)
    u = -4 * np.sin(np.pi * (3 * k + 2 * m) / (6 * m)) \
        * np.sin(np.pi * (3 * k - 2 * m) / (6 * m))
    big = (u - 2 - np.sqrt((u * (u - 4)).astype(complex))) / 2
    return np.concatenate([big, 1 / big])


def _aberth(m):
    """The 2m - 3 roots of d_m = U_{m-1}/q - U_{m-2} (m >= 2) by an
    Aberth-Ehrlich iteration on the roots not yet settled.  Returns
    (roots, iterations, fault), fault None or why the roots are not to be
    trusted.

    It starts at the 2m - 2 q-values of the angles that interlace the
    zeros k pi/m of U_{m-1} and k pi/(m-1) of U_{m-2}, their midpoints for
    k = 1 .. m-1, less the one of largest modulus.  Past 2 pi/3 those
    q-values are negative reals, as the roots there are, so every start
    lies by a root of its own kind.  A non-finite value never settles,
    so it ends at the iteration cap.
    """
    import numpy as np

    theta = np.pi * np.arange(1, m) * (2 * m - 1) / (2 * m * (m - 1))
    b = 1 - 2 * np.cos(theta)
    root = np.sqrt((b * b - 4).astype(complex))
    z = np.concatenate([-b - root, -b + root]) / 2
    z = np.delete(z, np.argmax(abs(z)))
    real = z.imag == 0
    active = np.arange(len(z))
    with np.errstate(all="ignore"):
        for sweep in range(1, _MAX_ITERATIONS + 1):
            za = z[active]
            repulsion = np.empty(len(active), dtype=complex)
            for lo, diff in _differences(z, active):
                repulsion[lo:lo + len(diff)] = (1 / diff).sum(axis=1)
            step = 1 / (_d_log_derivative(za, m) - repulsion)
            z[active] = za - step
            active = active[~(abs(step) <= _STEP_TOL * abs(za))]
            if not len(active):
                break
        else:
            return z, _MAX_ITERATIONS, "Aberth iteration cap reached"
    # the starts are closed under conjugation and d_m is real, so a real
    # start stays real in exact arithmetic: drop its rounding-level
    # imaginary part
    z[real] = z[real].real
    for lo, diff in _differences(z, np.arange(len(z))):
        if np.any(abs(diff) <= _SEPARATION * abs(z[lo:lo + len(diff), None])):
            return z, sweep, "two roots coincide"
    return z, sweep, None


def _differences(z, rows):
    """(offset, z[rows, None] - z) over blocks of the rows, at most _PAIRS
    differences each, with each row's own difference set to inf."""
    import numpy as np

    size = max(1, _PAIRS // len(z))
    for lo in range(0, len(rows), size):
        block = rows[lo:lo + size]
        diff = z[block, None] - z
        diff[np.arange(len(block)), block] = np.inf
        yield lo, diff


def _d_log_derivative(z, m):
    """p'/p at the points z for p(q) = q^m d_m(q), the entry d of
    (R_q L_q)^m with q^-m cleared, in O(1) per point.

    With tau/2 = cos(theta), U_{k-1} = sin(k theta)/sin(theta), so d_m =
    U_{m-1} F with F = 1/q - U_{m-2}/U_{m-1} = 1/q - cos(theta) +
    sin(theta) cot(m theta).  Nothing grows like sin(m theta), which
    overflows off the real axis for large m: cot(m theta) is evaluated
    through exp(+-2i m theta), with the sign that keeps it at most 1:

        p'/p = m/q + theta' (m cot(m theta) - cot(theta)) + F'/F,
        theta' = -(1 - 1/q^2) / (2 sin(theta)).
    """
    import numpy as np

    x = (z + 1 + 1 / z) / 2
    theta = np.arccos(x)
    sin = np.sin(theta)
    side = np.where(theta.imag >= 0, 1, -1)
    w = np.exp(2j * side * m * theta)
    cot = 1j * side * (w + 1) / (w - 1)
    dtheta = -(1 - 1 / (z * z)) / (2 * sin)
    f = 1 / z - x + sin * cot
    df = -1 / (z * z) - dtheta * (-sin - x * cot + m * sin * (1 + cot * cot))
    return m / z + dtheta * (m * cot - x / sin) + df / f


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
