"""Choreographic n-body orbits on the hyperbolic plane.

The shared periodic orbit is a trigonometric polynomial on the Poincare
disk; solutions are minimizers of the hyperbolic action, found by BFGS
with the exact gradient and refined by Newton's method with the exact
Hessian, then verified against the projected equations of motion.  The
flat (planar) problem is the R = inf case throughout.
"""

from . import action, continuation, geometry, optimizer, solutions, trigpath, verify
from .action import *
from .continuation import *
from .geometry import *
from .optimizer import *
from .solutions import *
from .trigpath import *
from .verify import *

__version__ = "0.1.0"

_MODULES = (action, continuation, geometry, optimizer, solutions, trigpath, verify)
__all__ = [name for module in _MODULES for name in module.__all__]
