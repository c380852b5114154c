"""Exact q-series and permutation-statistics toolkit.

Computes the multivariable q-analogs of the tangent/secant derivative
polynomial triangles by three independent routes (recurrences, symbolic
q-derivative rewriting, brute-force statistics sums over t-permutations)
and verifies the identity catalog connecting them as exact polynomial
equalities.

The public names below are re-exported lazily (PEP 562): ``qderiv.QPoly``
or ``from qderiv import run_suite`` imports the home module on first use,
so importing the package, or one of its modules such as ``qderiv.cli``,
loads no module it does not run.
"""

import importlib

__version__ = "0.1.0"

# public name -> the module that defines it
_HOMES = {
    "QPoly": "ring",
    "XQPoly": "ring",
    "gauss_binomial": "ring",
    "poly_str": "ring",
    "q_bracket": "ring",
    "q_multinomial": "ring",
    "q_pochhammer": "ring",
    "xpoly_str": "ring",
    "CLASSICAL_MODE": "series",
    "Q_MODE": "series",
    "RING_INT": "series",
    "RING_Q": "series",
    "RING_XQ": "series",
    "DividedSeries": "series",
    "BruteForceBoundError": "tcomb",
    "TPermutation": "tcomb",
    "PolyTable": "tables",
    "Bounds": "verify",
    "VerificationReport": "verify",
    "run_suite": "verify",
}

__all__ = list(_HOMES) + ["__version__"]


def __getattr__(name):
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    value = getattr(importlib.import_module("qderiv." + home), name)
    globals()[name] = value
    return value
