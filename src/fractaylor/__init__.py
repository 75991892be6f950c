"""Fractional Taylor series toolkit for space-time fractional diffusion.

Forward solution by coefficient marching and inverse identification of a
space-dependent coefficient from initial data and endpoint derivative
traces, all in the gamma-normalized power basis.

`__all__` is the full public surface: the union of the six modules'
``__all__`` lists, which own it.  Names outside it stay importable from
their module, e.g. ``fractaylor.problem.decode_config``.
"""

from . import cases, forward, gammafn, inverse, problem, series
from .cases import *
from .forward import *
from .gammafn import *
from .inverse import *
from .problem import *
from .series import *

__version__ = "0.1.0"

__all__ = ["__version__", *cases.__all__, *forward.__all__, *gammafn.__all__,
           *inverse.__all__, *problem.__all__, *series.__all__]
