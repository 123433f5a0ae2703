"""One fresh interpreter's set-up and first op, for run.py.

Usage: python3 perfbench/probe.py WORKLOAD   (with qburau importable)

Imports qburau.cli and answers q_deform(5/2), then runs the workload's
fixed first op between runs of the calibration loop (speed.py).  Prints
one JSON line: the perf_counter reading when the answer was ready (the
clock is system-wide, so the parent subtracts its own reading taken
before the spawn), the first op's time, the speed factor, and the
errors of the checks of both outputs.
"""
import json
import sys
import time

import qburau.cli  # noqa: F401  (the import every CLI call pays)
from qburau.cfrac import Frac
from qburau.qrational import q_deform

answer = q_deform(Frac(5, 2))
ready = time.perf_counter()

import checks  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

errors = []
try:
    checks.check_qanalog(5, 2, answer)
except checks.CheckFailed as exc:
    errors.append("q_deform(5/2): %s" % exc)
op = workloads.WORKLOADS[sys.argv[1]](0).first_op()
loops = [speed.loop_time() for _ in range(3)]
t0 = time.perf_counter()
out = op.call()
first_op_s = time.perf_counter() - t0
loops += [speed.loop_time() for _ in range(3)]
try:
    op.check(out)
except checks.CheckFailed as exc:
    errors.append("first op: %s" % exc)
print(json.dumps({"ready": ready, "first_op_s": first_op_s,
                  "speed_factor": speed.factor(loops), "errors": errors}))
