"""Layer timings of the exact kernels and the float root solvers.

Times, on one source tree:

- ``rl_power_roots(m)`` for every m in 20..105;
- ``q_deform`` on the Fibonacci ratios F(n+1)/F(n), n = 50, 100, ..., 350,
  and on the single terms n/1, n = 10^4, 10^5, 10^6;
- ``stabilized_series`` on the periods (10^6) and (10^6, 10^6) at orders
  3 and 10;
- ``rho3`` on seeded random words of 200, 800 and 1600 letters;
- the Kronecker ``LaurentPoly`` product of two seeded operands of 200 or
  2000 terms, whose coefficients are sized for each packed field width
  of 2 to 9 and 13 bytes;
- the packed codec's ``_unpack`` of 10^3 and 10^5 seeded fields of 1 to
  10 bytes;
- the ``LaurentPoly`` sum of two seeded, half-overlapping operands of
  200 or 2000 terms;
- ``roots()`` and the residuals ``rootloc._residuals`` of those roots,
  on the golden-ratio convergent dens of degree 10, 40 and 100;
- ``taylor`` to orders 60 and 300 of the golden-ratio convergent that
  ``stabilized_series`` deforms there.

Each figure is the median over REPEAT calls after one warm-up call, in
milliseconds.  A call that raises is recorded with the exception's name
and its time to fail.  The results go to ``BENCH_<sha>.json`` in the
output directory, where ``<sha>`` is the tree's short commit hash, with
``-dirty`` appended when ``src/`` differs from that commit.

    python bench/layers.py [--src DIR] [--out DIR]

``--src`` is the root of a qburau checkout (default: this one); run the
script once per checkout to compare two commits on one machine.
"""
import argparse
import json
import platform
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPEAT = 7
RL_M = range(20, 106)
FIB_N = range(50, 351, 50)
WORD_LETTERS = (200, 800, 1600)
WORDS = 5
MUL_TERMS = (200, 2000)
MUL_WIDTHS = (2, 3, 4, 5, 6, 7, 8, 9, 13)
HUGE_TERMS = (10 ** 4, 10 ** 5, 10 ** 6)
HUGE_PERIODS = ((10 ** 6,), (10 ** 6, 10 ** 6))
SERIES_ORDERS = (3, 10)
UNPACK_FIELDS = (10 ** 3, 10 ** 5)
UNPACK_WIDTHS = range(1, 11)
ADD_TERMS = (200, 2000)
ROOT_DEGREES = (10, 40, 100)
TAYLOR_ORDERS = (60, 300)


def timed(call):
    """Median milliseconds of REPEAT calls after a warm-up, and the name
    of the exception a call raised, or None."""
    try:
        call()
    except Exception as exc:  # a failing call is a result, not an abort
        start = time.perf_counter()
        try:
            call()
        except Exception:
            pass
        return (time.perf_counter() - start) * 1e3, type(exc).__name__
    samples = []
    for _ in range(REPEAT):
        start = time.perf_counter()
        call()
        samples.append((time.perf_counter() - start) * 1e3)
    return statistics.median(samples), None


def revision(root):
    def git(*args):
        return subprocess.run(["git", "-C", str(root), *args],
                              capture_output=True, text=True,
                              check=True).stdout.strip()
    sha = git("rev-parse", "--short", "HEAD")
    return sha + ("-dirty" if git("status", "--porcelain", "--", "src")
                  else "")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--src", default=str(HERE.parent))
    parser.add_argument("--out", default=str(HERE))
    args = parser.parse_args(argv)
    root = Path(args.src).resolve()
    sys.path.insert(0, str(root / "src"))
    import numpy
    from qburau.braid import BraidWord, rho3
    from qburau.cfrac import Frac
    from qburau.laurent import LaurentPoly, _pack, _unpack, _width
    from qburau.qrational import q_deform
    from qburau.rootloc import _floats, _residuals, rl_power_roots, roots
    from qburau.stabilize import (GOLDEN, PeriodicCF, convergent,
                                  stabilized_series, taylor)

    results = {"rl_power_roots": [], "q_deform_fibonacci": [], "rho3": [],
               "kronecker_mul": [], "q_deform_term": [],
               "stabilized_series_term": [], "unpack": [], "laurent_add": [],
               "roots": [], "residuals": [], "taylor": []}
    for m in RL_M:
        ms, failure = timed(lambda: rl_power_roots(m))
        results["rl_power_roots"].append(
            {"m": m, "median_ms": round(ms, 4), "failure": failure})
    fib = [0, 1]
    while len(fib) < max(FIB_N) + 2:
        fib.append(fib[-1] + fib[-2])
    for n in FIB_N:
        x = Frac(fib[n + 1], fib[n])
        ms, failure = timed(lambda: q_deform(x))
        results["q_deform_fibonacci"].append(
            {"n": n, "median_ms": round(ms, 4), "failure": failure})
    rng = random.Random(1)
    for letters in WORD_LETTERS:
        words = [BraidWord(tuple(rng.choice((1, -1, 2, -2))
                                 for _ in range(letters)))
                 for _ in range(WORDS)]
        ms, failure = timed(lambda: [rho3(w) for w in words])
        results["rho3"].append({"letters": letters, "words": WORDS,
                                "median_ms": round(ms / WORDS, 4),
                                "failure": failure})
    for terms in MUL_TERMS:
        spread = terms.bit_length()
        for width in MUL_WIDTHS:
            # coefficients of k bits: the product's fields take
            # 2k + bit_length(terms) bits, the least that needs `width`
            # bytes; field_bytes is the width the library packs them in
            k = max(1, -(-(8 * (width - 1) - spread) // 2))
            p, r = (LaurentPoly.make(0, [rng.choice((-1, 1))
                                         * rng.randrange(1 << (k - 1), 1 << k)
                                         for _ in range(terms)])
                    for _ in range(2))
            ms, failure = timed(lambda: p * r)
            results["kronecker_mul"].append(
                {"terms": terms, "width": width, "coeff_bits": k,
                 "field_bytes": _width(2 * k + spread),
                 "median_ms": round(ms, 4), "failure": failure})
    for n in HUGE_TERMS:
        x = Frac(n, 1)
        ms, failure = timed(lambda: q_deform(x))
        results["q_deform_term"].append(
            {"n": n, "median_ms": round(ms, 4), "failure": failure})
    for period in HUGE_PERIODS:
        for order in SERIES_ORDERS:
            x = PeriodicCF((), period)
            ms, failure = timed(lambda: stabilized_series(x, order))
            results["stabilized_series_term"].append(
                {"period": period, "order": order,
                 "median_ms": round(ms, 4), "failure": failure})
    for fields in UNPACK_FIELDS:
        for width in UNPACK_WIDTHS:
            top = 1 << (8 * width - 1)
            packed = _pack([rng.randrange(-top, top) for _ in range(fields)],
                           width)
            ms, failure = timed(lambda: _unpack(packed, 0, width))
            results["unpack"].append(
                {"fields": fields, "width": width,
                 "median_ms": round(ms, 4), "failure": failure})
    for terms in ADD_TERMS:
        p, r = (LaurentPoly.make(low, [rng.randint(-99, 99)
                                       for _ in range(terms)])
                for low in (0, terms // 2))
        ms, failure = timed(lambda: p + r)
        results["laurent_add"].append(
            {"terms": terms, "median_ms": round(ms, 4), "failure": failure})
    for degree in ROOT_DEGREES:
        # the golden-ratio convergent m has a den of degree m - 2
        den = q_deform(convergent(GOLDEN, degree + 2)).den
        ms, failure = timed(lambda: roots(den))
        results["roots"].append(
            {"degree": degree, "median_ms": round(ms, 4), "failure": failure})
        if failure is None:
            coeffs, z = _floats(den.coeffs), numpy.array(roots(den))
            ms, failure = timed(lambda: _residuals(coeffs, z))
            results["residuals"].append(
                {"degree": degree, "median_ms": round(ms, 4),
                 "failure": failure})
    for order in TAYLOR_ORDERS:
        qr = q_deform(convergent(GOLDEN, stabilized_series(GOLDEN, order)[1]))
        ms, failure = timed(lambda: taylor(qr, order))
        results["taylor"].append(
            {"order": order, "median_ms": round(ms, 4), "failure": failure})

    sha = revision(root)
    report = {
        "sha": sha,
        "repeat": REPEAT,
        "machine": {"cpu": platform.processor() or platform.machine(),
                    "python": platform.python_version(),
                    "numpy": numpy.__version__},
        "results": results,
        "totals_ms": {name: round(sum(r["median_ms"] for r in rows), 3)
                      for name, rows in results.items()},
    }
    out = Path(args.out) / ("BENCH_%s.json" % sha)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=1) + "\n")
    print("%s: %s" % (out, json.dumps(report["totals_ms"])))


if __name__ == "__main__":
    main()
