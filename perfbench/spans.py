"""Span tracer for the benchmark's traced run.

``Tracer.install`` replaces each layer's public functions with wrappers,
under every name the callers look them up by: module attributes that
hold the function in any loaded ``qburau`` module (so ``q_deform`` is
wrapped as imported by ``rootloc``, ``faithful`` and ``stabilize``), and
class attributes for methods (``LaurentPoly.__add__``, ...).  No file of
the library changes.

Each call records a span: name, start, end and parent span, plus one
integer size (terms, degree, letters, ...).  Spans stay in memory in
flat arrays and are written out when the run ends.  A span's self time
is its duration minus the durations of its children.
"""
from __future__ import annotations

import sys
import time
from array import array
from collections import Counter

import numpy as np

import checks

# (module, function, span name); the span name's first part is the layer
FUNCTIONS = [
    ("cfrac", "enumerate_fractions", "cfrac.enumerate_fractions"),
    ("cfrac", "to_even_cf", "cfrac.to_even_cf"),
    ("cfrac", "cf_value", "cfrac.cf_value"),
    ("qrational", "q_deform", "qrational.q_deform"),
    ("qrational", "jones", "qrational.jones"),
    ("braid", "rho3", "braid.rho3"),
    ("rootloc", "roots", "rootloc.roots"),
    ("rootloc", "sigma_sample", "rootloc.sigma_sample"),
    ("rootloc", "annulus_check", "rootloc.annulus_check"),
    ("rootloc", "rl_power_roots", "rootloc.rl_power_roots"),
    ("stabilize", "taylor", "stabilize.taylor"),
    ("stabilize", "convergent", "stabilize.convergent"),
    ("stabilize", "stabilized_series", "stabilize.stabilized_series"),
    ("faithful", "classify_specialization", "faithful.classify"),
    ("faithful", "is_trivial_braid", "faithful.word_problem"),
    ("faithful", "braids_equal", "faithful.word_problem"),
    ("faithful", "alexander", "faithful.alexander"),
]

# (module, class, method, span name)
METHODS = [
    ("laurent", "LaurentPoly", "__add__", "laurent.add"),
    ("laurent", "LaurentPoly", "__sub__", "laurent.sub"),
    ("laurent", "LaurentPoly", "__neg__", "laurent.neg"),
    ("laurent", "LaurentPoly", "__mul__", "laurent.mul"),
    ("laurent", "LaurentPoly", "__pow__", "laurent.pow"),
    ("laurent", "LaurentPoly", "exact_divide", "laurent.exact_divide"),
    ("laurent", "LaurentPoly", "eval_complex", "laurent.eval_complex"),
    ("laurent", "LaurentPoly", "eval_exact", "laurent.eval_exact"),
    ("braid", "QMatrix2", "__pow__", "braid.matpow"),
]

WITNESS_KINDS = {checks.WITNESS: "witness", checks.NO_WITNESS: "no_witness"}


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.kind = array("H")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.size = array("q")
        self._stack = [-1]
        self._patches = []
        self.max_coeff_bits = 0
        self.den_keys = set()
        self.root_keys = set()
        self.root_calls = []        # (coeffs, roots or None if it raised)
        self.verdicts = Counter()

    # -- recording ----------------------------------------------------

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name, fn, measure=None, on_error=None):
        """fn wrapped to record one span per call.  measure(args, result)
        runs after the span closes and returns its size."""
        nid = self._id(name)
        kind, parent, start, end, size = (self.kind, self.parent, self.start,
                                          self.end, self.size)
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            i = len(kind)
            kind.append(nid)
            parent.append(stack[-1])
            start.append(0.0)
            end.append(0.0)
            size.append(0)
            stack.append(i)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end[i] = clock()
                start[i] = t0
                stack.pop()
                if on_error is not None:
                    on_error(args)
                raise
            end[i] = clock()
            start[i] = t0
            stack.pop()
            if measure is not None:
                size[i] = measure(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- what each layer counts ---------------------------------------

    def _measures(self):
        def add(args, result):
            return len(args[0].coeffs) + len(args[1].coeffs)

        def mul(args, result):
            if result.coeffs:
                big = max(max(result.coeffs), -min(result.coeffs))
                self.max_coeff_bits = max(self.max_coeff_bits, big.bit_length())
            return len(args[0].coeffs) * len(args[1].coeffs)

        def q_deform(args, result):
            self.den_keys.add(result.den.coeffs)
            return 1

        def roots(args, result):
            coeffs = args[0].coeffs
            self.root_keys.add(min(coeffs, coeffs[::-1]))
            self.root_calls.append((coeffs, result))
            return len(coeffs) - 1

        def roots_error(args):
            coeffs = args[0].coeffs
            self.root_keys.add(min(coeffs, coeffs[::-1]))
            self.root_calls.append((coeffs, None))

        def classify(args, result):
            self.verdicts[WITNESS_KINDS.get(result.kind, "exact")] += 1
            return 1

        return {
            "laurent.add": (add, None),
            "laurent.mul": (mul, None),
            "qrational.q_deform": (q_deform, None),
            "rootloc.roots": (roots, roots_error),
            "faithful.classify": (classify, None),
            "braid.rho3": (lambda args, result: len(args[0].letters), None),
            "cfrac.enumerate_fractions": (lambda args, result: len(result), None),
            "cfrac.to_even_cf": (lambda args, result: 1, None),
            "cfrac.cf_value": (lambda args, result: 1, None),
        }

    # -- installation -------------------------------------------------

    def install(self):
        """Wrap every traced function and method of the loaded library."""
        modules = [m for n, m in sys.modules.items()
                   if n == "qburau" or n.startswith("qburau.")]
        measures = self._measures()
        for mod_name, fn_name, span in FUNCTIONS:
            original = getattr(sys.modules["qburau." + mod_name], fn_name)
            wrapper = self.wrap(span, original, *measures.get(span, (None, None)))
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, attr, wrapper)
        for mod_name, cls_name, meth, span in METHODS:
            cls = getattr(sys.modules["qburau." + mod_name], cls_name)
            original = cls.__dict__[meth]
            self._patch(cls, meth,
                        self.wrap(span, original, *measures.get(span, (None, None))))

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def remove(self):
        for owner, attr, value in reversed(self._patches):
            setattr(owner, attr, value)
        self._patches.clear()

    # -- results ------------------------------------------------------

    def arrays(self):
        kind = np.frombuffer(self.kind, dtype=np.uint16)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        size = np.frombuffer(self.size, dtype=np.int64)
        return kind, parent, start, end, size

    def write(self, path):
        kind, parent, start, end, size = self.arrays()
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, names=np.array(self.names), kind=kind, parent=parent,
                 start=start, end=end, size=size)

    def per_layer(self, scale=1.0):
        """The per-layer metrics, as {name: (value, unit)}; self times are
        multiplied by ``scale``."""
        kind, parent, start, end, size = self.arrays()
        dur = end - start
        has_parent = parent >= 0
        children = np.bincount(parent[has_parent], weights=dur[has_parent],
                               minlength=len(kind))
        self_time = dur - children
        ids = self._ids

        def mask(*names):
            wanted = [ids[n] for n in names if n in ids]
            return np.isin(kind, wanted)

        def calls(*names):
            return int(np.sum(mask(*names)))

        def self_s(*names, where=None):
            m = mask(*names) if where is None else mask(*names) & where
            return float(np.sum(self_time[m])) * scale

        def size_sum(*names):
            return int(np.sum(size[mask(*names)]))

        laurent = [n for n in self.names if n.startswith("laurent.")]
        cfrac = [n for n in self.names if n.startswith("cfrac.")]
        roots = mask("rootloc.roots")
        degree = size                   # the size of a roots span
        classify_spans = np.flatnonzero(mask("faithful.classify"))
        scanned = int(np.sum(mask("qrational.q_deform") &
                             np.isin(parent, classify_spans)))
        q_calls = calls("qrational.q_deform")
        r_calls = calls("rootloc.roots")
        failed, worst = 0, 0.0
        for coeffs, zs in self.root_calls:
            if zs is None:
                failed += 1
                continue
            try:
                worst = max(worst, checks.check_roots(list(coeffs), zs))
            except checks.NumericalFailure:
                failed += 1

        out = {
            "laurent.mul.calls": (calls("laurent.mul"), "count"),
            "laurent.mul.term_products": (size_sum("laurent.mul"), "count"),
            "laurent.mul.max_coeff_bits": (self.max_coeff_bits, "bits"),
            "laurent.add.calls": (calls("laurent.add"), "count"),
            "laurent.add.terms": (size_sum("laurent.add"), "count"),
            "laurent.eval_complex.calls": (calls("laurent.eval_complex"), "count"),
            "laurent.self_s": (self_s(*laurent), "s"),
            "braid.rho3.calls": (calls("braid.rho3"), "count"),
            "braid.rho3.letters": (size_sum("braid.rho3"), "count"),
            "braid.rho3.self_s": (self_s("braid.rho3"), "s"),
            "braid.matpow.self_s": (self_s("braid.matpow"), "s"),
            "cfrac.fracs": (size_sum(*cfrac), "count"),
            "cfrac.self_s": (self_s(*cfrac), "s"),
            "qrational.q_deform.calls": (q_calls, "count"),
            "qrational.q_deform.self_s": (self_s("qrational.q_deform"), "s"),
            "qrational.den_distinct_ratio": (
                len(self.den_keys) / q_calls if q_calls else 0.0, "ratio"),
            "rootloc.roots.calls": (r_calls, "count"),
            "rootloc.roots.self_s": (self_s("rootloc.roots"), "s"),
            "rootloc.roots.self_s.deg_le_20": (
                self_s("rootloc.roots", where=degree <= 20), "s"),
            "rootloc.roots.self_s.deg_21_100": (
                self_s("rootloc.roots", where=(degree > 20) & (degree <= 100)), "s"),
            "rootloc.roots.self_s.deg_gt_100": (
                self_s("rootloc.roots", where=degree > 100), "s"),
            "rootloc.roots.degree_sum": (size_sum("rootloc.roots"), "count"),
            "rootloc.roots.max_degree": (
                int(np.max(size[roots])) if r_calls else 0, "count"),
            "rootloc.roots.distinct_ratio": (
                len(self.root_keys) / r_calls if r_calls else 0.0, "ratio"),
            "rootloc.roots.failed": (failed, "count"),
            "rootloc.worst_residual": (worst, "ratio"),
            "rootloc.annulus_check.self_s": (self_s("rootloc.annulus_check"), "s"),
            "stabilize.taylor.calls": (calls("stabilize.taylor"), "count"),
            "stabilize.taylor.self_s": (self_s("stabilize.taylor"), "s"),
            "stabilize.convergents": (calls("stabilize.convergent"), "count"),
            "faithful.classify.calls": (calls("faithful.classify"), "count"),
            "faithful.classify.self_s": (self_s("faithful.classify"), "s"),
            "faithful.classify.dens_scanned": (scanned, "count"),
            "faithful.word_problem.self_s": (self_s("faithful.word_problem"), "s"),
            "faithful.alexander.self_s": (self_s("faithful.alexander"), "s"),
        }
        for label in ("witness", "no_witness", "exact"):
            out["faithful.verdicts." + label] = (self.verdicts[label], "count")
        return out
