"""Exact engines for the one-visibility localization and one-proximity games.

Modules: graphs (representation, generators, vertex-mask kernels), iso (profiles,
h-index, bound rules), prox (contamination dynamics and the exact prox
solver), zeta (localization fixpoint solver and policy simulator),
strategies (tree, pathwidth, domination, separator strategies and lifts),
gridsweep (the five-panel grid sweep), cli (command-line surface).  Import
each name from the module that defines it.
"""

__version__ = "0.1.0"
