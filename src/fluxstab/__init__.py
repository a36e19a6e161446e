"""Solvers and experiments for flux stability of conservation laws.

The package measures how strongly the solution of ``u_t + f(u)_x = 0``
reacts to a change of the flux: exact Riemann and front-tracking solvers,
a variational evaluator for merely bounded data, the induced distance
between fluxes (scalar and for linear systems), and a pair of isothermal
momentum systems whose relativistic corrections vanish in the classical
limit.  Everything is deterministic; experiment output is reproducible
byte for byte.

Each submodule's ``__all__`` is its public list; the package re-exports
them all, in the import order below.
"""

from . import (pwfun, fluxes, riemann, front_tracking, lax_oleinik, linear_hd,
               euler, metrics, report)
from .pwfun import *
from .fluxes import *
from .riemann import *
from .front_tracking import *
from .lax_oleinik import *
from .linear_hd import *
from .euler import *
from .metrics import *
from .report import *

__version__ = "0.1.0"

__all__ = ["__version__"] + [
    name for module in (pwfun, fluxes, riemann, front_tracking, lax_oleinik,
                        linear_hd, euler, metrics, report)
    for name in module.__all__]
