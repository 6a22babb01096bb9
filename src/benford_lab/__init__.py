"""Leading-digit statistics of dynamical systems.

Subpackages by theme: exact big-integer mantissa machinery
(:mod:`~benford_lab.core_numeric`), digit histograms and discrepancy
(:mod:`~benford_lab.benford_stats`), equidistribution diagnostics
(:mod:`~benford_lab.equidist`), the 3x+1 / (d,g,h) iteration engine
(:mod:`~benford_lab.collatz`), certified zeta evaluation and line scans
(:mod:`~benford_lab.zeta`), Haar-unitary characteristic polynomials
(:mod:`~benford_lab.rmt`), and the command-line front end
(:mod:`~benford_lab.cli`).

Importing the package loads none of them.  Each is imported when it is first
named, as ``benford_lab.zeta`` or ``from benford_lab import rmt``, so a
command loads only the modules it runs: a 3x+1 census never loads zeta, rmt,
equidist or mpmath.
"""

__version__ = "0.1.0"

_SUBMODULES = ("benford_stats", "collatz", "core_numeric", "equidist", "rmt",
               "zeta")


def __getattr__(name: str):
    if name in _SUBMODULES:
        from importlib import import_module
        return import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
