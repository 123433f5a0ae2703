"""Exact toolkit for q-deformed rationals and the 2x2 Burau
representation of the 3-strand braid group: continued fractions,
singular-set sampling, faithfulness classification, two-bridge knot
polynomials, and stabilization series."""

from .laurent import LaurentPoly
from .braid import BraidWord, QMatrix2, burau_generator, qmod_generator, rho3
from .cfrac import EvenCF, Frac, classical_matrix, enumerate_fractions, to_even_cf
from .qrational import (QRational, burau_column_check, jones, mirror_negate,
                        q_deform, q_integer, q_one_over_n, reflect)
from .rootloc import annulus_check, rl_power_roots, roots, sigma_sample
from .stabilize import (GOLDEN, PeriodicCF, PowerSeries, convergent,
                        radius_estimate, stabilized_series, taylor)
from .faithful import (ComplexValue, RealValue, RootOfUnity, Verdict,
                       alexander, braids_equal, classify_specialization,
                       is_trivial_braid, triangular_decompose)

__version__ = "0.1.0"
