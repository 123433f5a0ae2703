import json
from collections import namedtuple

import pytest

from qburau import cli, rootloc
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

    @pytest.mark.parametrize("text", ["abc", "1/2/3", ""])
    def test_unparsable_fraction_named(self, run, text):
        out = run("qrat", text)
        assert out.returncode == 2
        assert "usage error: cannot parse fraction %r" % text in out.stderr
        assert "Traceback" not in out.stderr

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

    def test_just_outside_annulus(self, run):
        # 5e-10 below 3 - 2*sqrt2 as a float point: decided exactly
        out = run("specialize", "--t0", "0.17157287475+0i")
        assert out.returncode == 0
        assert out.stdout.startswith("FAITHFUL (outside proven annulus)")

    @pytest.mark.parametrize("t0, why", [
        ("0", "nonzero"), ("0+0i", "nonzero"), ("0/5", "nonzero"),
        ("nan", "finite"), ("1e400+1i", "finite"), ("inf+1i", "finite"),
        ("infi", "finite")])
    def test_bad_point_named(self, run, t0, why):
        out = run("specialize", "--t0", t0)
        assert out.returncode == 2
        assert "specialization point must be %s" % why in out.stderr
        assert "Traceback" not in out.stderr

    @pytest.mark.parametrize("t0", ["zeta(5,1,2)", "zeta()"])
    def test_bad_zeta_named(self, run, t0):
        out = run("specialize", "--t0", t0)
        assert out.returncode == 2
        assert "expected zeta(n,k)" in out.stderr
        assert "Traceback" not in out.stderr

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

    def test_stabilize_high_order(self, run):
        out = run("stabilize", "--period", "1", "--order", "300")
        assert out.returncode == 0
        assert "stable_at_m: 301" in out.stdout

    def test_stabilize_radius_past_float_range_exits_4(self, run):
        # den coefficients of convergent 1600 span more than the float
        # range, so the companion eigensolve refuses the matrix
        out = run("stabilize", "--period", "1", "--order", "3",
                  "--radius-m", "1600")
        assert out.returncode == 4
        assert "numerical failure: companion eigensolve failed" \
            in out.stderr
        assert "Traceback" not in out.stderr

    def test_stabilize_negative_radius_exits_4(self, run):
        # the golden ratio's proxies 1.0 at m = 6 and 0.531 at m = 8
        # extrapolate to -0.072; radius_estimate's tests also pin m = 200
        out = run("stabilize", "--period", "1", "--order", "3",
                  "--radius-m", "8")
        assert out.returncode == 4
        assert out.stdout == ""
        assert "numerical failure: radius_estimate(m=8): extrapolated " \
            "-0.07197701381" in out.stderr
        assert "Traceback" not in out.stderr

    @pytest.mark.parametrize("preperiod", ["", "0"])
    def test_stabilize_integer_radius_convergent(self, run, preperiod):
        # convergent 2 is an integer, so its den has no root to estimate by
        out = run("stabilize", "--preperiod", preperiod, "--period", "1",
                  "--radius-m", "2")
        assert out.returncode == 2
        assert out.stdout == ""
        assert "usage error:" in out.stderr and "m = 2" in out.stderr
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

    def test_rlroots_iteration_cap_exits_4(self, run, monkeypatch):
        monkeypatch.setattr(rootloc, "_MAX_ITERATIONS", 2)
        out = run("rlroots", "--m", "60")
        assert out.returncode == 4
        assert out.stdout == ""
        assert "numerical failure: rl_power_roots(m=60), entry a" \
            in out.stderr
        assert "Traceback" not in out.stderr

    def test_rlroots_high_degree_finite(self, run):
        out = run("rlroots", "--m", "150")
        assert out.returncode == 0
        assert "nan" not in out.stdout.lower()
        assert "min_distance_to_circle" in out.stdout


# Runs each command through main() in one fresh interpreter and prints,
# per command, its exit code, its stdout and whether numpy was loaded after.
LAZY_NUMPY_SCRIPT = """
import contextlib, io, json, sys
import qburau, qburau.cli
report = [["import", 0, "", "numpy" in sys.modules]]
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            qburau.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    report.append([argv, code, out.getvalue(), "numpy" in sys.modules])
print(json.dumps(report))
"""

EXACT_COMMANDS = [
    ["qrat", "5/2"], ["burau", "ababab"], ["jones", "5/3"],
    ["alexander", "aBaB"], ["stabilize", "--period", "1", "--order", "8"],
    ["specialize", "--t0", "1/2"], ["specialize", "--t0", "zeta(5,1)"],
    ["specialize", "--t0", "10.5+0i"], ["specialize", "--t0", "0.3"],
    ["specialize", "--t0", "0.5+0.2i"],
]

SIGMA_3_OUT = """roots: 61
min_modulus: 0.569840290998
max_modulus: 1.75487766625
proven_annulus_violations: 0
conjectural_annulus_consistent: True
"""


class TestEntryPoint:
    def test_python_m(self, fresh_python):
        out = fresh_python("-m", "qburau.cli", "qrat", "2/3")
        assert out.returncode == 0
        assert "(q + q^2)/(1 + q + q^2)" in out.stdout

    def test_numpy_loads_at_first_root_solve(self, fresh_python):
        sigma = ["sigma", "--max-den", "3"]
        out = fresh_python("-c", LAZY_NUMPY_SCRIPT,
                           json.dumps(EXACT_COMMANDS + [sigma]))
        assert out.returncode == 0, out.stderr
        report = json.loads(out.stdout)
        assert [argv for argv, _, _, _ in report] == \
            ["import"] + EXACT_COMMANDS + [sigma]
        for argv, code, _, numpy_loaded in report[:-1]:
            assert code == 0, argv
            assert not numpy_loaded, argv
        assert report[-1][1:] == [0, SIGMA_3_OUT, True]
