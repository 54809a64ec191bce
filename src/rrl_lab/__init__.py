"""Generalized analytic continuation toolkit.

Simple pole series on the unit circle, finite-window right-limit searches,
constructive Diophantine shift sequences with polynomial balancedness
certificates, rotation/kneading coefficient streams, and natural-boundary
probes, plus a recipe-driven CLI (``rrl-lab``).  Each name is imported
from the module that defines it (``rrl_lab.psp``, ``rrl_lab.right_limits``,
...); the package root defines only ``__version__``.
"""

__version__ = "0.1.0"
