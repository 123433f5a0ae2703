"""Command-line surface: one binary, subcommand style.

Exit codes: 0 success, 2 usage/parse error, 3 I/O error, 4 numerical
non-convergence.
"""
from __future__ import annotations

import argparse
import json
import math
import sys

from .braid import BraidWord, WordParseError, rho3
from .cfrac import Frac, NonPositive, Infinite
from .qrational import jones as jones_poly, q_deform
from .rootloc import (NoConvergence, annulus_check, rl_power_roots,
                      sigma_json, sigma_sample, write_sigma_csv)
from .stabilize import (PeriodicCF, StabilizationNotReached,
                        radius_estimate, stabilized_series)
from .faithful import alexander, classify_specialization, parse_point

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_NUMERIC = 4


class UsageError(Exception):
    pass


def _parse_fraction(text):
    try:
        frac = Frac.parse(text)
    except ValueError as exc:
        raise UsageError(str(exc))
    if not frac.is_positive():
        raise UsageError("fraction must be positive, got %s" % text)
    return frac


def _parse_word(text):
    try:
        return BraidWord.parse(text)
    except WordParseError as exc:
        raise UsageError(str(exc))


def cmd_qrat(args):
    qr = q_deform(_parse_fraction(args.fraction))
    if args.format == "json":
        print(json.dumps(qr.to_json()))
    else:
        print("[%s]_q = %s" % (qr.frac, qr))


def cmd_burau(args):
    mat = rho3(_parse_word(args.word))
    if args.q_convention:
        mat = mat.to_q_convention()
    print(mat)


def cmd_sigma(args):
    if args.max_den < 2:
        raise UsageError("--max-den must be >= 2")
    sample = sigma_sample(args.max_den)
    report = annulus_check(sample)
    if args.out:
        try:
            if args.format == "json":
                with open(args.out, "w") as fh:
                    json.dump(sigma_json(sample), fh)
            else:
                write_sigma_csv(sample, args.out)
        except OSError as exc:
            print("cannot write %s: %s" % (args.out, exc), file=sys.stderr)
            sys.exit(EXIT_IO)
    print("roots: %d" % len(sample.records))
    print("min_modulus: %.12g" % report.min_modulus)
    print("max_modulus: %.12g" % report.max_modulus)
    print("proven_annulus_violations: %d" % len(report.proven_violations))
    print("conjectural_annulus_consistent: %s" % report.conjecture_consistent)


def cmd_specialize(args):
    if args.max_den < 2:
        raise UsageError("--max-den must be >= 2")
    try:
        point = parse_point(args.t0)
    except ValueError as exc:
        raise UsageError(str(exc))
    verdict = classify_specialization(point, args.max_den)
    labels = {
        "UnfaithfulCenter": "UNFAITHFUL (center in kernel)",
        "UnfaithfulRootOfUnityPole": "UNFAITHFUL (root-of-unity pole)",
        "UnfaithfulPoleWitness": "UNFAITHFUL (pole witness found)",
        "FaithfulOutsideAnnulus": "FAITHFUL (outside proven annulus)",
        "FaithfulNegativeReal": "FAITHFUL (negative real)",
        "NoWitnessUpTo": "UNDECIDED (no pole witness up to bound)",
    }
    print(labels[verdict.kind])
    print(json.dumps(verdict.to_json()))


def cmd_jones(args):
    print(jones_poly(_parse_fraction(args.fraction)).to_str("q"))


def cmd_alexander(args):
    print(alexander(_parse_word(args.word)).to_str("t"))


def _parse_int_list(text):
    text = text.strip()
    if not text:
        return ()
    try:
        return tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise UsageError("expected comma-separated integers, got %r" % text)


def cmd_stabilize(args):
    if args.order < 1:
        raise UsageError("--order must be >= 1")
    if args.radius_m and args.radius_m < 2:
        raise UsageError("--radius-m must be 0 (off) or >= 2")
    try:
        cf = PeriodicCF(_parse_int_list(args.preperiod),
                        _parse_int_list(args.period))
    except ValueError as exc:
        raise UsageError(str(exc))
    series, stable_at = stabilized_series(cf, args.order)
    radius = args.radius_m and radius_estimate(cf, args.radius_m)
    if not math.isfinite(radius):
        raise UsageError("no radius estimate at m = %d, an integer "
                         "convergent; use --radius-m >= 3" % args.radius_m)
    if args.format == "json":
        print(json.dumps({"order": series.order,
                          "coeffs": list(series.coeffs),
                          "stable_at_m": stable_at}))
    else:
        print(series)
        print("stable_at_m: %d" % stable_at)
    if args.radius_m:
        print("radius_estimate(m=%d): %.10f"
              % (args.radius_m, radius))


def cmd_rlroots(args):
    if args.m < 1:
        raise UsageError("--m must be >= 1")
    records, min_dist = rl_power_roots(args.m)
    for label, z, dist in records:
        print("%s %.12g %.12g %.6g" % (label, z.real, z.imag, dist))
    print("min_distance_to_circle: %.6g" % min_dist)


def cmd_selftest(args):
    from .acceptance import run_all
    sys.exit(EXIT_OK if run_all() else 1)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="qburau",
        description="q-rationals and Burau representation toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("qrat", help="q-analog of a positive fraction")
    p.add_argument("fraction")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_qrat)

    p = sub.add_parser("burau", help="Burau matrix of a braid word")
    p.add_argument("word", nargs="?", default="")
    p.add_argument("--q-convention", action="store_true")
    p.set_defaults(func=cmd_burau)

    p = sub.add_parser("sigma", help="sample the singular set")
    p.add_argument("--max-den", type=int, required=True)
    p.add_argument("--out")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=cmd_sigma)

    p = sub.add_parser("specialize", help="classify a Burau specialization")
    p.add_argument("--t0", required=True)
    p.add_argument("--max-den", type=int, default=40)
    p.set_defaults(func=cmd_specialize)

    p = sub.add_parser("jones", help="Jones polynomial of a two-bridge knot")
    p.add_argument("fraction")
    p.set_defaults(func=cmd_jones)

    p = sub.add_parser("alexander", help="Alexander polynomial of a 3-braid closure")
    p.add_argument("word", nargs="?", default="")
    p.set_defaults(func=cmd_alexander)

    p = sub.add_parser("stabilize", help="stabilized series of a quadratic irrational")
    p.add_argument("--preperiod", default="")
    p.add_argument("--period", default="1")
    p.add_argument("--order", type=int, default=10)
    p.add_argument("--radius-m", type=int, default=0)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_stabilize)

    p = sub.add_parser("rlroots", help="roots of the entries of (R_q L_q)^m")
    p.add_argument("--m", type=int, required=True)
    p.set_defaults(func=cmd_rlroots)

    p = sub.add_parser("selftest", help="run the acceptance checklist")
    p.set_defaults(func=cmd_selftest)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except (UsageError, NonPositive, Infinite) as exc:
        print("usage error: %s" % exc, file=sys.stderr)
        sys.exit(EXIT_USAGE)
    except (NoConvergence, StabilizationNotReached) as exc:
        print("numerical failure: %s" % exc, file=sys.stderr)
        sys.exit(EXIT_NUMERIC)
    except OSError as exc:
        print("i/o error: %s" % exc, file=sys.stderr)
        sys.exit(EXIT_IO)
    sys.exit(EXIT_OK)


if __name__ == "__main__":
    main()
