import json
import os
import subprocess
import sys

import pytest

import qburau

CLI = [sys.executable, "-m", "qburau.cli"]
# the subprocess imports the same qburau as this process, also when pytest
# put src/ on sys.path itself and PYTHONPATH is unset
SRC = os.path.dirname(os.path.dirname(qburau.__file__))
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    filter(None, [SRC, os.environ.get("PYTHONPATH")])))


def run(*args):
    return subprocess.run(CLI + list(args), capture_output=True, text=True,
                          env=ENV)


class TestQrat:
    def test_two_thirds(self):
        out = run("qrat", "2/3")
        assert out.returncode == 0
        assert "(q + q^2)/(1 + q + q^2)" in out.stdout

    def test_integer(self):
        out = run("qrat", "2")
        assert out.returncode == 0
        assert "1 + q" in out.stdout

    def test_json(self):
        out = run("qrat", "5/3", "--format", "json")
        data = json.loads(out.stdout)
        assert data["r"] == 5 and data["s"] == 3
        assert data["num"]["coeffs"] == ["1", "1", "2", "1"]

    def test_nonpositive_rejected(self):
        assert run("qrat", "0/1").returncode == 2

    def test_garbage_rejected(self):
        assert run("qrat", "spam").returncode == 2


class TestBurau:
    def test_center(self):
        out = run("burau", "ababab")
        assert out.returncode == 0
        assert "t^3" in out.stdout

    def test_empty(self):
        out = run("burau")
        assert out.returncode == 0
        assert "[[1, 0], [0, 1]]" in out.stdout

    def test_q_convention(self):
        out = run("burau", "aBaB", "--q-convention")
        assert out.returncode == 0
        assert "2*q" in out.stdout

    def test_bad_word(self):
        assert run("burau", "xyz").returncode == 2


class TestSigma:
    def test_summary_and_csv(self, tmp_path):
        path = tmp_path / "sigma.csv"
        out = run("sigma", "--max-den", "3", "--out", str(path))
        assert out.returncode == 0
        assert "proven_annulus_violations: 0" in out.stdout
        lines = path.read_text().splitlines()
        assert lines[0] == "r,s,part,root_re,root_im,modulus,residual"
        assert any(line.startswith("1,2,den,-1") for line in lines)

    def test_deterministic_output(self):
        a = run("sigma", "--max-den", "4")
        b = run("sigma", "--max-den", "4")
        assert a.stdout == b.stdout

    def test_usage_error(self):
        assert run("sigma", "--max-den", "1").returncode == 2


class TestSpecialize:
    def test_center(self):
        out = run("specialize", "--t0", "-1")
        assert out.returncode == 0
        assert "UNFAITHFUL (center in kernel)" in out.stdout

    def test_json_payload(self):
        out = run("specialize", "--t0", "1", "--max-den", "8")
        payload = json.loads(out.stdout.splitlines()[-1])
        assert payload["verdict"] == "UnfaithfulPoleWitness"
        assert payload["witness"] == {"r": 1, "s": 2}

    def test_zeta(self):
        out = run("specialize", "--t0", "zeta(5,1)")
        assert "UnfaithfulRootOfUnityPole" in out.stdout

    def test_usage_error(self):
        out = run("specialize", "--t0", "0.5", "--max-den", "1")
        assert out.returncode == 2
        assert "usage error:" in out.stderr
        assert "Traceback" not in out.stderr


class TestOtherCommands:
    def test_jones(self):
        out = run("jones", "3/1")
        assert out.returncode == 0
        assert out.stdout.strip() == "1 + q^2 + q^3"

    def test_alexander(self):
        out = run("alexander", "abab")
        assert out.returncode == 0
        assert out.stdout.strip() == "1 - t + t^2"

    def test_stabilize(self):
        out = run("stabilize", "--period", "1", "--order", "5",
                  "--format", "json")
        data = json.loads(out.stdout)
        # golden-ratio series prefix, frozen from a sympy series oracle
        assert data["coeffs"] == [1, 0, 1, -1, 2]
        assert data["order"] == 5

    @pytest.mark.parametrize("args", [("--radius-m", "1"),
                                      ("--order", "-3")])
    def test_stabilize_usage_error(self, args):
        out = run("stabilize", *args)
        assert out.returncode == 2
        assert "usage error:" in out.stderr
        assert "Traceback" not in out.stderr

    def test_rlroots(self):
        out = run("rlroots", "--m", "2")
        assert out.returncode == 0
        assert "min_distance_to_circle" in out.stdout

    def test_rlroots_high_degree_finite(self):
        out = run("rlroots", "--m", "150")
        assert out.returncode == 0
        assert "nan" not in out.stdout.lower()
        assert "min_distance_to_circle" in out.stdout
