import cmath
import functools
import math

import numpy as np
import pytest

from qburau import rootloc
from qburau.braid import qmod_generator
from qburau.laurent import LaurentPoly, ZERO
from qburau.cfrac import Frac, enumerate_fractions
from qburau.qrational import q_deform, rl_product
from qburau.rootloc import (INNER_CONJ, INNER_PROVEN, OUTER_CONJ,
                            OUTER_PROVEN, NoConvergence, RootRecord,
                            annulus_check, rl_power_roots, roots,
                            sigma_sample)


def P(low, *coeffs):
    return LaurentPoly.make(low, coeffs)


def scaled_residual(coeffs, z):
    """|p(z)| / (max|c| * (deg+1) * max(1,|z|)^deg) for ascending integer
    coeffs, evaluated through the reversed polynomial at 1/z when |z| > 1
    so that no power of |z| is formed."""
    scale = max(abs(c) for c in coeffs)
    cs = [c / scale for c in coeffs]
    if abs(z) > 1:
        cs, z = cs[::-1], 1 / z
    acc = 0j
    for c in reversed(cs):
        acc = acc * z + c
    return abs(acc) / len(cs)


def reference_sigma_records(max_den, q_deforms, solve):
    """The sample's records built from one q_deform per enumerated
    fraction, solving every num and den that is not a constant, sorted by
    (s, r, part, real, imag).  q_deforms and solve memoize q_deform and
    rootloc._solve across calls."""
    records = []
    for frac in enumerate_fractions(max_den):
        if frac not in q_deforms:
            q_deforms[frac] = q_deform(frac)
        qr = q_deforms[frac]
        for part, poly in (("num", qr.num), ("den", qr.den)):
            if len(poly.coeffs) > 1:
                zs, res = solve(poly.coeffs)
                records.extend(RootRecord(frac, part, z, float(r))
                               for z, r in zip(zs, res))
    records.sort(key=lambda rec: (rec.frac.s, rec.frac.r, rec.part,
                                  rec.root.real, rec.root.imag))
    return records


def assert_same_roots(got, want, tol):
    """got and want hold the same roots, each within tol of its match."""
    assert len(got) == len(want)
    left = np.array(want, dtype=complex)
    for z in got:
        i = np.argmin(abs(left - z))
        assert abs(left[i] - z) <= tol, z
        left = np.delete(left, i)


@functools.cache
def rl_records(m):
    """The records of rl_power_roots(m), computed once for the tests that
    only read them."""
    return rl_power_roots(m)[0]


class TestRoots:
    def test_linear(self):
        assert roots(P(0, 1, 1)) == [-1]

    def test_quadratic_roots_of_unity(self):
        got = roots(P(0, 1, 1, 1))
        expect = [complex(math.cos(2 * math.pi / 3), -math.sin(2 * math.pi / 3)),
                  complex(math.cos(2 * math.pi / 3), math.sin(2 * math.pi / 3))]
        for w in expect:
            assert min(abs(w - z) for z in got) < 1e-10

    def test_stripped_monomial_factor(self):
        assert roots(P(1, 1, 1)) == [-1]

    def test_constant_has_no_roots(self):
        assert roots(P(3, 5)) == []

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            roots(ZERO)

    def test_conjugate_symmetry(self):
        got = roots(q_deform(Frac(13, 8)).den)
        for z in got:
            assert min(abs(z.conjugate() - w) for w in got) < 1e-10

    def test_reconstruction(self):
        # monic product of root factors rebuilds the polynomial
        for frac in (Frac(17, 12), Frac(29, 9), Frac(44, 13)):
            poly = q_deform(frac).den
            zs = roots(poly)
            coeffs = [1 + 0j]
            for z in zs:
                coeffs = [0j] + coeffs
                for i in range(len(coeffs) - 1):
                    coeffs[i] -= z * coeffs[i + 1]
            lead = poly.coeffs[-1]
            scale = max(abs(c) for c in poly.coeffs)
            for got, want in zip(coeffs, poly.coeffs):
                assert abs(got * lead - want) <= 1e-8 * scale

    def test_repeated_root_reported_once_per_multiplicity(self):
        # den(17/48) = (1+q)^3 Phi_3 Phi_4 Phi_6: degree 9, triple root -1
        zs = roots(q_deform(Frac(17, 48)).den)
        assert len(zs) == 9
        assert sum(abs(z + 1) < 1e-4 for z in zs) == 3

    def test_determinism(self):
        p = q_deform(Frac(21, 13)).den
        assert roots(p) == roots(p)

    @pytest.mark.parametrize("bad", [complex("nan"), complex("inf")])
    def test_gate_fails_closed(self, monkeypatch, bad):
        real_roots = np.roots

        def spoiled(desc):
            zs = real_roots(desc).astype(complex)
            zs[0] = bad
            return zs

        monkeypatch.setattr(np, "roots", spoiled)
        with pytest.raises(NoConvergence):
            roots(q_deform(Frac(21, 13)).den)

    def test_lost_root_fails_closed(self):
        # the leading coefficient underflows to 0.0 once scaled by the
        # largest, so the float polynomial has lower degree
        with pytest.raises(NoConvergence):
            roots(P(0, 10 ** 400, 1))

    def test_overflowing_companion_fails_closed(self):
        # the leading coefficient scales to a subnormal float, so the
        # companion matrix overflows to inf and the eigensolve refuses it
        with pytest.raises(NoConvergence, match="eigensolve failed"):
            roots(P(0, 10 ** 320, 1))


class TestSigmaSample:
    def test_small_sample_contents(self):
        sample = sigma_sample(2)
        dens = [rec for rec in sample.records
                if rec.frac == Frac(1, 2) and rec.part == "den"]
        assert len(dens) == 1 and abs(dens[0].root + 1) < 1e-10

    def test_cube_roots_present(self):
        sample = sigma_sample(3)
        third = [rec for rec in sample.records
                 if rec.frac == Frac(1, 3) and rec.part == "den"]
        assert len(third) == 2
        assert all(abs(abs(rec.root) - 1) < 1e-10 for rec in third)

    def test_annulus_and_symmetry(self):
        sample = sigma_sample(8)
        report = annulus_check(sample)
        assert not report.proven_violations
        assert report.conjecture_consistent
        assert INNER_CONJ - 1e-6 <= report.min_modulus
        assert report.max_modulus <= OUTER_CONJ + 1e-6
        # 1 is never a sampled root: denominators evaluate to s >= 1 at q=1
        assert all(abs(rec.root - 1) > 1e-6 for rec in sample.records)

    def test_reflection_inverts_roots(self):
        # den roots of the reflected fraction are inverses of num roots
        for r, s in ((5, 3), (7, 4), (9, 2), (11, 7)):
            num_roots = roots(q_deform(Frac(r, s)).num)
            den_roots = roots(q_deform(Frac(s, r)).den)
            nontrivial = [z for z in num_roots if abs(z) > 1e-12]
            assert len(nontrivial) == len(den_roots)
            for z in nontrivial:
                assert min(abs(1 / z - w) for w in den_roots) < 1e-8

    def test_rejects_small_max_den(self):
        with pytest.raises(ValueError):
            sigma_sample(1)

    def test_record_residuals(self):
        sample = sigma_sample(6)
        for rec in sample.records:
            qr = q_deform(rec.frac)
            poly = qr.num if rec.part == "num" else qr.den
            want = scaled_residual(poly.coeffs, rec.root)
            assert rec.residual <= 1e-10
            assert abs(rec.residual - want) <= 1e-15

    def test_solves_each_distinct_polynomial_once(self, monkeypatch):
        max_den = 10
        solve = rootloc._solve
        calls = []

        def counting_solve(coeffs):
            calls.append(coeffs)
            return solve(coeffs)

        monkeypatch.setattr(rootloc, "_solve", counting_solve)
        sample = sigma_sample(max_den)
        polys = []
        for frac in enumerate_fractions(max_den):
            qr = q_deform(frac)
            polys.extend(p.coeffs for p in (qr.num, qr.den)
                         if len(p.coeffs) > 1)
        assert sorted(calls) == sorted(set(polys))
        assert len(calls) < len(polys)
        assert sample.records == reference_sigma_records(max_den, {}, solve)

    def test_matches_per_fraction_q_deform(self):
        # every record (frac, part, root, residual) and their order equal,
        # not close, to the ones from one q_deform per fraction
        q_deforms, solved = {}, {}

        def solve(coeffs):
            if coeffs not in solved:
                solved[coeffs] = rootloc._solve(coeffs)
            return solved[coeffs]

        for max_den in range(2, 26):
            want = reference_sigma_records(max_den, q_deforms, solve)
            sample = sigma_sample(max_den)
            assert sample.records == want
            moduli = [rec.modulus for rec in want]
            assert (sample.min_modulus, sample.max_modulus) == \
                (min(moduli), max(moduli))


class TestRLPowerRoots:
    def test_m1(self):
        records, _ = rl_power_roots(1)
        top_left = [z for label, z, _ in records if label == "a"]
        assert len(top_left) == 1 and abs(top_left[0] + 1) < 1e-10
        assert not any(label == "c" for label, _, _ in records)

    def test_m2_bottom_left(self):
        records, _ = rl_power_roots(2)
        bl = [z for label, z, _ in records if label == "c"]
        assert len(bl) == 2
        assert all(abs(abs(z) - 1) < 1e-10 for z in bl)

    def test_distance_shrinks(self):
        _, d5 = rl_power_roots(5)
        _, d15 = rl_power_roots(15)
        assert d15 < d5

    def test_rejects(self):
        with pytest.raises(ValueError):
            rl_power_roots(0)

    def test_one_solve_per_distinct_entry(self, monkeypatch):
        solved = []
        solve = rootloc._rl_entry_roots

        def counting_solve(m, label, coeffs):
            solved.append(coeffs)
            return solve(m, label, coeffs)

        monkeypatch.setattr(rootloc, "_rl_entry_roots", counting_solve)
        for m in range(1, 41):
            solved.clear()
            entries = rl_product((1,) * (2 * m))
            records, min_dist = rl_power_roots(m)
            # c = q*b reuses b's roots: one solve per distinct entry
            assert sorted(solved) == sorted(
                {p.coeffs for p in entries if len(p.coeffs) > 1})
            assert [z for lab, z, _ in records if lab == "c"] == \
                [z for lab, z, _ in records if lab == "b"]
            assert all(dist == abs(abs(z) - INNER_CONJ)
                       for _, z, dist in records)
            assert min_dist == min(dist for _, _, dist in records)

    def test_c_is_q_times_b(self):
        for m in range(1, 151):
            _, b, c, _ = rl_product((1,) * (2 * m))
            assert c == b.shift(1), m

    def test_a_is_reversed_next_d(self):
        # a_m(q) = d_{m+1}(1/q) / q: a's roots are reciprocals of d_{m+1}'s
        for m in range(1, 151):
            a = rl_product((1,) * (2 * m))[0]
            d_next = rl_product((1,) * (2 * m + 2))[3]
            assert a == d_next.invert_variable().shift(-1), m

    @pytest.mark.parametrize("m", range(2, 151))
    def test_b_c_closed_form(self, m):
        # the roots of q^2 + (1 - 2 cos(k pi/m)) q + 1 for k = 1 .. m-1;
        # near-double roots by the plain quadratic formula carry errors
        # near the square root of the rounding error
        want = []
        for k in range(1, m):
            beta = 1 - 2 * math.cos(k * math.pi / m)
            root = cmath.sqrt(beta * beta - 4)
            want += [(-beta - root) / 2, (-beta + root) / 2]
        records = rl_records(m)
        for label in "bc":
            got = [z for lab, z, _ in records if lab == label]
            assert_same_roots(got, want, 1e-7)

    @pytest.mark.parametrize("m", [3, 6, 30, 150])
    def test_double_root_is_exact(self, m):
        # 3 | m: k = 2m/3 gives (q + 1)^2, reported as -1 exactly, twice
        records = rl_records(m)
        for label in "bc":
            assert sum(z == -1 for lab, z, _ in records if lab == label) == 2

    @pytest.mark.parametrize("m", range(1, 13))
    def test_a_d_match_companion_eigenvalues(self, m):
        records = rl_records(m)
        for label, poly in zip("abcd", rl_product((1,) * (2 * m))):
            if label in "ad" and len(poly.coeffs) > 1:
                want = np.roots(np.array(poly.coeffs[::-1], dtype=float))
                got = [z for lab, z, _ in records if lab == label]
                assert_same_roots(got, list(want), 1e-9)

    def test_counts_separation_and_conjectured_annulus(self):
        for m in range(2, 151):
            records = rl_records(m)
            for label, poly in zip("abcd", rl_product((1,) * (2 * m))):
                zs = [z for lab, z, _ in records if lab == label]
                assert len(zs) == max(len(poly.coeffs) - 1, 0), (m, label)
                if label in "ad":
                    z = np.array(zs)
                    gaps = abs(z[:, None] - z[None, :]) + np.eye(len(z))
                    assert gaps.min() > 1e-6, (m, label)
            assert min(abs(z) for _, z, _ in records) > INNER_CONJ, m

    @pytest.mark.parametrize("m", [1, 3, 10, 40, 150])
    def test_real_roots_are_real(self, m):
        # no real root carries a rounding-level imaginary part
        zs = [z for _, z, _ in rl_records(m)]
        assert sum(z.imag == 0 for z in zs) == \
            sum(abs(z.imag) < 1e-9 for z in zs) > 0

    def test_high_precision_cross_check(self):
        # Newton at 40 digits from every reported root of m = 40 moves it
        # by under 1e-12, and the polished roots stay distinct, so they are
        # all the roots; their least moduli are mpmath's
        mpmath = pytest.importorskip("mpmath")
        records = rl_records(40)
        least = {}
        with mpmath.workdps(40):
            for label, poly in zip("abcd", rl_product((1,) * 80)):
                desc = list(reversed(poly.coeffs))
                polished = []
                for z in (z for lab, z, _ in records if lab == label):
                    w = mpmath.mpc(z)
                    for _ in range(2):
                        value, slope = mpmath.polyval(desc, w, derivative=True)
                        w -= value / slope
                    assert abs(w - z) < 1e-12
                    polished.append(complex(w))
                w = np.array(polished)
                assert len(w) == len(desc) - 1
                assert (abs(w[:, None] - w) + np.eye(len(w))).min() > 1e-6
                least[label] = abs(w).min()
        assert round(least["d"], 5) == 0.38299
        assert round(least["b"], 5) == 0.38302

    def test_no_companion_eigenvalues(self, monkeypatch):
        def refused(desc):
            raise AssertionError("np.roots called")

        monkeypatch.setattr(np, "roots", refused)
        records, _ = rl_power_roots(60)
        assert len(records) == 8 * 60 - 8

    def test_iteration_cap_fails_closed(self, monkeypatch):
        monkeypatch.setattr(rootloc, "_MAX_ITERATIONS", 1)
        with pytest.raises(NoConvergence) as info:
            rl_power_roots(40)
        message = str(info.value)
        assert "m=40" in message and "entry a" in message
        assert "after 1 iterations" in message
        assert "cap" in message and "residual" in message

    def test_coincident_roots_fail_closed(self, monkeypatch):
        # every pair of roots coincides when the separation is 1e3 * |z|
        monkeypatch.setattr(rootloc, "_SEPARATION", 1e3)
        with pytest.raises(NoConvergence, match="two roots coincide"):
            rl_power_roots(10)

    @pytest.mark.parametrize("m", range(30, 151))
    def test_roots_in_proven_annulus(self, m):
        # the entries are nums and dens of q-analogs of Fibonacci ratios,
        # num roots are reciprocals of den roots, and the proven annulus
        # 3-2*sqrt2 <= |q| <= 3+2*sqrt2 is closed under inversion
        records = rl_records(m)
        moduli = [abs(z) for _, z, _ in records]
        assert INNER_PROVEN <= min(moduli) and max(moduli) <= OUTER_PROVEN

    @pytest.mark.parametrize("m", [55, 75, 80, 110, 150])
    def test_high_degree(self, m):
        # degrees up to ~300 with roots up to |z| ~ 9: |z|^deg nears 1e280
        records, min_dist = rl_power_roots(m)
        assert math.isfinite(min_dist)
        mat = (qmod_generator("R") * qmod_generator("L")) ** m
        for label, poly in zip("abcd", mat.entries()):
            zs = [z for lab, z, _ in records if lab == label]
            assert len(zs) == len(poly.coeffs) - 1
            for z in zs:
                assert math.isfinite(z.real) and math.isfinite(z.imag)
                assert scaled_residual(poly.coeffs, z) <= 1e-10
