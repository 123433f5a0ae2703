"""qburau benchmark: one workload per run, closed loop, single caller.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {sigma,classify,large} --seed N \\
        --seconds S --trace {0,1}

With ``--trace 0`` the run runs whole passes of the workload's seeded
inputs until about S seconds of op time have passed, checking every
output outside the timed region.  Before and after that it spawns PROBES
fresh interpreters one at a time (set-up time and the first op's time),
half on each side.  It prints a
summary and, as its last line, a JSON object with ``correct``,
``attempted``, ``failed`` and the end-to-end metrics.

With ``--trace 1`` it runs a fixed number of passes twice: untraced in a
fresh child process, then traced here, and prints the per-layer metrics
and the tracing overhead.  Spans are written to .perfbench_out/.

The library is imported from src/ next to this directory; without it
the run exits with status 2 and prints no result.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import warnings
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
PROBES = 11
CHILD_TIMEOUT_S = 150
# A fresh interpreter that imports numpy, as qburau.cli does, and nothing
# of qburau: spawned before each probe, to scale its set-up time.
REF_SPAWN = [sys.executable, "-c", "import json, time, numpy; "
             "print(json.dumps({'ready': time.perf_counter()}))"]
REF_SPAWN_S = 0.2           # the reference spawn's time at the reference speed


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("sigma", "classify", "large"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: run exactly this many passes untraced, print op time only
    parser.add_argument("--passes", type=int, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


class Tally:
    """Outcomes of the ops of one run.  Times are seconds as measured;
    ``scaled`` ones are scaled to the reference speed (see speed.py) by
    finish()."""

    def __init__(self):
        self.spans = []          # (start, end, passed its check) of every op
        self.items = 0           # items of ops that passed
        self.numerical = 0       # float outputs that failed, or NoConvergence
        self.wrong = []          # exact outputs that failed, with the reason
        self.digest = hashlib.sha256()
        self.scaled = []         # scaled op time of every op
        self.ok_scaled = []      # scaled op time of ops that passed

    @property
    def attempted(self):
        return len(self.spans)

    @property
    def failed(self):
        return self.numerical + len(self.wrong)

    @property
    def op_seconds(self):
        return sum(t1 - t0 for t0, t1, _ in self.spans)

    @property
    def scaled_seconds(self):
        return sum(self.scaled)

    def finish(self, speed):
        for t0, t1, ok in self.spans:
            scaled = (t1 - t0) * speed.factor(t0, t1)
            self.scaled.append(scaled)
            if ok:
                self.ok_scaled.append(scaled)


def run_op(op, tally, first_pass, numeric_errors, checks, speed):
    speed.tick()
    t0 = time.perf_counter()
    try:
        out = op.call()
        error = None
    except Exception as exc:     # any failure of the program is a failed op
        out, error = None, exc
    t1 = time.perf_counter()
    speed.tick()
    ok = False
    if error is not None:
        summary = "%s failed: %s" % (op.kind, type(error).__name__)
        if isinstance(error, numeric_errors):
            tally.numerical += 1
        else:
            tally.wrong.append("%s raised %r" % (op.kind, error))
    else:
        try:
            summary = op.check(out)
            ok = True
            tally.items += op.items
        except checks.NumericalFailure as exc:
            summary = "%s failed: %s" % (op.kind, exc)
            tally.numerical += 1
        except Exception as exc:  # a wrong output, or one the checks cannot read
            summary = "%s wrong" % op.kind
            tally.wrong.append("%s: %s" % (op.kind, exc))
    tally.spans.append((t0, t1, ok))
    if first_pass:
        tally.digest.update(summary.encode() + b"\n")


def run_passes(workload, seconds=None, passes=None, wrap=None):
    """Whole passes, either exactly ``passes`` of them or as many as end
    nearest to ``seconds`` of op time (at least one)."""
    import checks
    from speed import Speed
    from qburau.rootloc import NoConvergence
    from qburau.stabilize import StabilizationNotReached
    numeric_errors = (NoConvergence, StabilizationNotReached)
    tally = Tally()
    speed = Speed()
    done = 0
    while True:
        if passes is not None:
            if done == passes:
                break
        elif done and tally.op_seconds * (1 + 0.5 / done) >= seconds:
            break
        for op in workload.next_pass():
            if wrap is not None:
                op.call = wrap(op)
            run_op(op, tally, done == 0, numeric_errors, checks, speed)
        done += 1
    tally.finish(speed)
    return tally, done


class SpawnFailed(Exception):
    pass


def spawn(cmd):
    """Run cmd in a fresh interpreter.  Returns the JSON object its output
    ends with, and the time from the spawn to the object's "ready"
    perf_counter reading (the clock is system-wide)."""
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, env=child_env(),
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise SpawnFailed("%s exited %d: %s" % (cmd[1], proc.returncode,
                                                proc.stderr[-500:]))
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return result, result["ready"] - t0


def probe(name):
    """Set-up time and first-op time of one fresh interpreter.  Set-up
    time is scaled by the time of a reference spawn made just before it,
    because spawns and imports drift in speed apart from pure-Python code;
    the first op is scaled by the speed the probe measured around it."""
    try:
        _, ref_s = spawn(REF_SPAWN)
        result, setup_s = spawn([sys.executable, str(HERE / "probe.py"), name])
    except SpawnFailed as exc:
        return None, None, [str(exc)]
    return (setup_s * REF_SPAWN_S / ref_s,
            result["first_op_s"] * result["speed_factor"], result["errors"])


def machine():
    import numpy
    return "cpus=%d python=%s numpy=%s %s" % (
        os.cpu_count(), platform.python_version(), numpy.__version__,
        platform.machine())


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(args, workload):
    setups, firsts, errors = [], [], []

    def probes(n):
        for _ in range(n):
            setup_s, first_op_s, errs = probe(args.workload)
            errors.extend(errs)
            if setup_s is not None:
                setups.append(setup_s)
                firsts.append(first_op_s)

    # half the probes before the timed phase and half after, so that their
    # median spans the machine's drift in speed over the run
    probes(PROBES // 2)
    tally, passes = run_passes(workload, seconds=args.seconds)
    probes(PROBES - PROBES // 2)
    wrong = tally.wrong + errors
    ok = tally.ok_scaled
    metrics = {
        "setup_s": metric(statistics.median(setups), "s"),
        "throughput": metric(tally.items / tally.scaled_seconds, "1/s"),
        "op_p50_ms": metric(statistics.median(ok) * 1e3, "ms"),
        "first_op_s": metric(statistics.median(firsts), "s"),
        "peak_rss_mb": metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    if len(ok) >= 100:
        p90 = "%.4f ms (%d ops)" % (statistics.quantiles(ok, n=10)[8] * 1e3,
                                    len(ok))
    else:
        p90 = "not reported: %d ops, fewer than 100" % len(ok)
    summary = [
        "workload %s seed %d: %d passes, %d ops, %d failed (%d wrong), "
        "%.2f s of op time as measured, %.2f s at reference speed" % (
            args.workload, args.seed, passes, tally.attempted,
            tally.failed + len(errors), len(wrong), tally.op_seconds,
            tally.scaled_seconds),
        "first-pass output digest: %s" % tally.digest.hexdigest(),
        "machine: %s" % machine(),
    ]
    summary += ["%-12s %.6g %s" % (k, v["value"], v["unit"])
                for k, v in metrics.items()]
    summary += ["%-12s %s" % ("op_p90_ms", p90),
                "%-12s %.4f (%d of %d ops)" % (
                    "fail_share", tally.failed / tally.attempted,
                    tally.failed, tally.attempted)]
    summary += ["wrong: %s" % w for w in wrong[:20]]
    return summary, tally, metrics, not wrong


def defect_probe(seed):
    """rl_power_roots at the m where it fails at the baseline, outside the
    counted ops.  Returns "m=<m> <failure>" for each m that still fails."""
    import workloads
    large = workloads.Large(seed)
    failures = []
    for m in large.DEFECT_M:
        op = large.rl_op(m)
        try:
            op.check(op.call())
        except Exception as exc:  # any failure of the program counts
            failures.append("m=%d %s" % (m, type(exc).__name__))
    return failures


def traced(args, workload):
    import spans
    from workloads import Large
    passes = workload.TRACE_PASSES
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--passes", str(passes)]
    proc = subprocess.run(cmd, capture_output=True, text=True, env=child_env(),
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError("untraced reference run exited %d: %s"
                           % (proc.returncode, proc.stderr[-500:]))
    untraced_s = json.loads(proc.stdout.strip().splitlines()[-1])["scaled_seconds"]

    tracer = spans.Tracer()
    tracer.install()
    try:
        tally, _ = run_passes(workload, passes=passes,
                              wrap=lambda op: tracer.wrap("op." + op.kind, op.call))
    finally:
        tracer.remove()
    layers = tracer.per_layer(tally.scaled_seconds / tally.op_seconds)
    layers["trace.overhead_share"] = (
        (tally.scaled_seconds - untraced_s) / untraced_s, "ratio")
    defects = defect_probe(args.seed)
    layers["rootloc.rl_power_roots.known_failures"] = (len(defects), "count")
    tracer.write(OUT_DIR / ("spans-%s.npz" % args.workload))
    metrics = {k: metric(v, unit) for k, (v, unit) in layers.items()}
    summary = [
        "workload %s seed %d traced: %d passes, %d ops, %d failed, "
        "%d spans, %.2f s traced vs %.2f s untraced at reference speed" % (
            args.workload, args.seed, passes, tally.attempted, tally.failed,
            len(tracer.kind), tally.scaled_seconds, untraced_s),
        "first-pass output digest: %s" % tally.digest.hexdigest(),
        "machine: %s" % machine(),
        "known defect, probed apart from the ops: rl_power_roots fails at "
        "%d of %d m: %s" % (len(defects), len(Large.DEFECT_M),
                            ", ".join(defects) or "none"),
    ]
    summary += ["%-36s %.6g %s" % (k, v["value"], v["unit"])
                for k, v in metrics.items()]
    summary += ["wrong: %s" % w for w in tally.wrong[:20]]
    return summary, tally, metrics, not tally.wrong


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "qburau" / "__init__.py").is_file():
        print("perfbench: no qburau sources under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # overflow warnings from the root finder's NaN failures; counted, not shown
    warnings.simplefilter("ignore", RuntimeWarning)
    import workloads
    workload = workloads.WORKLOADS[args.workload](args.seed)

    if args.passes is not None:
        tally, _ = run_passes(workload, passes=args.passes)
        print(json.dumps({"scaled_seconds": tally.scaled_seconds}))
        return 0
    run = traced if args.trace else end_to_end
    summary, tally, metrics, correct = run(args, workload)
    print("\n".join(summary))
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
