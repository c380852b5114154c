"""Exact q-series and permutation-statistics toolkit.

Computes the multivariable q-analogs of the tangent/secant derivative
polynomial triangles by three independent routes (recurrences, symbolic
q-derivative rewriting, brute-force statistics sums over t-permutations)
and verifies the identity catalog connecting them as exact polynomial
equalities.
"""

from qderiv.ring import (
    QPoly,
    XQPoly,
    gauss_binomial,
    poly_str,
    q_bracket,
    q_multinomial,
    q_pochhammer,
    xpoly_str,
)
from qderiv.series import (
    CLASSICAL_MODE,
    Q_MODE,
    RING_INT,
    RING_Q,
    RING_XQ,
    DividedSeries,
)
from qderiv.tcomb import BruteForceBoundError, TPermutation
from qderiv.tables import PolyTable
from qderiv.verify import Bounds, VerificationReport, run_suite

__version__ = "0.1.0"

__all__ = [
    "QPoly",
    "XQPoly",
    "gauss_binomial",
    "poly_str",
    "q_bracket",
    "q_multinomial",
    "q_pochhammer",
    "xpoly_str",
    "CLASSICAL_MODE",
    "Q_MODE",
    "RING_INT",
    "RING_Q",
    "RING_XQ",
    "DividedSeries",
    "BruteForceBoundError",
    "TPermutation",
    "PolyTable",
    "Bounds",
    "VerificationReport",
    "run_suite",
    "__version__",
]
