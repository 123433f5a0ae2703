import json
import os
import subprocess
import sys
from collections import namedtuple

import pytest

import qburau
from qburau import cli
from qburau.cli import main
from qburau.stabilize import StabilizationNotReached

Result = namedtuple("Result", "returncode stdout stderr")


@pytest.fixture
def run(capsys):
    """Run the CLI in this process; main() always ends in SystemExit."""
    def run_main(*args):
        with pytest.raises(SystemExit) as exit_info:
            main(list(args))
        captured = capsys.readouterr()
        return Result(exit_info.value.code, captured.out, captured.err)
    return run_main


class TestQrat:
    def test_two_thirds(self, run):
        out = run("qrat", "2/3")
        assert out.returncode == 0
        assert "(q + q^2)/(1 + q + q^2)" in out.stdout

    def test_integer(self, run):
        out = run("qrat", "2")
        assert out.returncode == 0
        assert "1 + q" in out.stdout

    def test_json(self, run):
        out = run("qrat", "5/3", "--format", "json")
        data = json.loads(out.stdout)
        assert data["r"] == 5 and data["s"] == 3
        assert data["num"]["coeffs"] == ["1", "1", "2", "1"]

    def test_nonpositive_rejected(self, run):
        assert run("qrat", "0/1").returncode == 2

    def test_garbage_rejected(self, run):
        assert run("qrat", "spam").returncode == 2


class TestBurau:
    def test_center(self, run):
        out = run("burau", "ababab")
        assert out.returncode == 0
        assert "t^3" in out.stdout

    def test_empty(self, run):
        out = run("burau")
        assert out.returncode == 0
        assert "[[1, 0], [0, 1]]" in out.stdout

    def test_q_convention(self, run):
        out = run("burau", "aBaB", "--q-convention")
        assert out.returncode == 0
        assert "2*q" in out.stdout

    def test_bad_word(self, run):
        assert run("burau", "xyz").returncode == 2


class TestSigma:
    def test_summary_and_csv(self, run, tmp_path):
        path = tmp_path / "sigma.csv"
        out = run("sigma", "--max-den", "3", "--out", str(path))
        assert out.returncode == 0
        assert "proven_annulus_violations: 0" in out.stdout
        lines = path.read_text().splitlines()
        assert lines[0] == "r,s,part,root_re,root_im,modulus,residual"
        assert any(line.startswith("1,2,den,-1") for line in lines)

    def test_deterministic_output(self, run):
        a = run("sigma", "--max-den", "4")
        b = run("sigma", "--max-den", "4")
        assert a.stdout == b.stdout

    def test_usage_error(self, run):
        assert run("sigma", "--max-den", "1").returncode == 2


class TestSpecialize:
    def test_center(self, run):
        out = run("specialize", "--t0", "-1")
        assert out.returncode == 0
        assert "UNFAITHFUL (center in kernel)" in out.stdout

    def test_json_payload(self, run):
        out = run("specialize", "--t0", "1", "--max-den", "8")
        payload = json.loads(out.stdout.splitlines()[-1])
        assert payload["verdict"] == "UnfaithfulPoleWitness"
        assert payload["witness"] == {"r": 1, "s": 2}

    def test_zeta(self, run):
        out = run("specialize", "--t0", "zeta(5,1)")
        assert "UnfaithfulRootOfUnityPole" in out.stdout

    def test_huge_real(self, run):
        out = run("specialize", "--t0", "1e400")
        assert out.returncode == 0
        assert "FAITHFUL (outside proven annulus)" in out.stdout
        assert json.loads(out.stdout.splitlines()[-1]) == \
            {"verdict": "FaithfulOutsideAnnulus"}

    def test_rational_near_den_root(self, run):
        # minus a best approximation of a real den root: no den vanishes
        # at a rational point other than t0 = 1
        out = run("specialize", "--t0", "15826910/9018811")
        assert out.returncode == 0
        assert out.stdout.startswith("UNDECIDED")
        assert json.loads(out.stdout.splitlines()[-1]) == \
            {"verdict": "NoWitnessUpTo", "max_den": 40}

    def test_usage_error(self, run):
        out = run("specialize", "--t0", "0.5", "--max-den", "1")
        assert out.returncode == 2
        assert "usage error:" in out.stderr
        assert "Traceback" not in out.stderr


class TestOtherCommands:
    def test_jones(self, run):
        out = run("jones", "3/1")
        assert out.returncode == 0
        assert out.stdout.strip() == "1 + q^2 + q^3"

    def test_alexander(self, run):
        out = run("alexander", "abab")
        assert out.returncode == 0
        assert out.stdout.strip() == "1 - t + t^2"

    def test_stabilize(self, run):
        out = run("stabilize", "--period", "1", "--order", "5",
                  "--format", "json")
        data = json.loads(out.stdout)
        # golden-ratio series prefix, frozen from a sympy series oracle
        assert data["coeffs"] == [1, 0, 1, -1, 2]
        assert data["order"] == 5

    @pytest.mark.parametrize("args", [("--radius-m", "1"),
                                      ("--order", "-3")])
    def test_stabilize_usage_error(self, run, args):
        out = run("stabilize", *args)
        assert out.returncode == 2
        assert "usage error:" in out.stderr
        assert "Traceback" not in out.stderr

    def test_stabilize_zero_convergent(self, run):
        # x = [0; 1, 1, ...] has convergent 1 = 0, two before m = 3
        out = run("stabilize", "--preperiod", "0", "--period", "1",
                  "--radius-m", "3")
        assert out.returncode == 0
        assert "radius_estimate(m=3): 1.0000000000" in out.stdout
        assert out.stderr == ""

    def test_stabilize_not_reached(self, run, monkeypatch):
        def not_reached(x, order):
            raise StabilizationNotReached("no stable prefix")

        monkeypatch.setattr(cli, "stabilized_series", not_reached)
        out = run("stabilize", "--period", "1")
        assert out.returncode == 4
        assert "numerical failure: no stable prefix" in out.stderr

    def test_rlroots(self, run):
        out = run("rlroots", "--m", "2")
        assert out.returncode == 0
        assert "min_distance_to_circle" in out.stdout

    def test_rlroots_high_degree_finite(self, run):
        out = run("rlroots", "--m", "150")
        assert out.returncode == 0
        assert "nan" not in out.stdout.lower()
        assert "min_distance_to_circle" in out.stdout


class TestEntryPoint:
    def test_python_m(self):
        # the subprocess imports the same qburau as this process, also when
        # pytest put src/ on sys.path itself and PYTHONPATH is unset
        src = os.path.dirname(os.path.dirname(qburau.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = subprocess.run(
            [sys.executable, "-m", "qburau.cli", "qrat", "2/3"],
            capture_output=True, text=True, env=env)
        assert out.returncode == 0
        assert "(q + q^2)/(1 + q + q^2)" in out.stdout
