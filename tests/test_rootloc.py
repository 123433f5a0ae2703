import math

import numpy as np
import pytest

from qburau import rootloc
from qburau.braid import qmod_generator
from qburau.laurent import LaurentPoly
from qburau.cfrac import Frac, enumerate_fractions
from qburau.qrational import q_deform
from qburau.rootloc import (INNER_CONJ, OUTER_CONJ, RESIDUAL_TOL,
                            NoConvergence, RootRecord, annulus_check,
                            rl_power_roots, roots, sigma_sample)


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
            roots(LaurentPoly.zero())

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

        monkeypatch.setattr(rootloc.np, "roots", spoiled)
        with pytest.raises(NoConvergence):
            roots(q_deform(Frac(21, 13)).den)

    def test_lost_root_fails_closed(self):
        # the leading coefficient underflows to 0.0 once scaled by the
        # largest, so the float polynomial has lower degree
        with pytest.raises(NoConvergence):
            roots(P(0, 10 ** 400, 1))


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

        def counting_solve(p, tol):
            calls.append(p.coeffs)
            return solve(p, tol)

        monkeypatch.setattr(rootloc, "_solve", counting_solve)
        sample = sigma_sample(max_den)
        # reference: one solve per fraction and part
        want, polys = [], []
        for frac in enumerate_fractions(max_den):
            qr = q_deform(frac)
            for part, poly in (("num", qr.num), ("den", qr.den)):
                if len(poly.coeffs) > 1:
                    polys.append(poly.coeffs)
                    zs, res = solve(poly, RESIDUAL_TOL)
                    want.extend(RootRecord(frac, part, z, float(r))
                                for z, r in zip(zs, res))
        want.sort(key=lambda rec: (rec.frac.s, rec.frac.r, rec.part,
                                   rec.root.real, rec.root.imag))
        assert sorted(calls) == sorted(set(polys))
        assert len(calls) < len(polys)
        assert sample.records == want


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
