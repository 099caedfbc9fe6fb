"""Solver for clamped fully fourth-order two-point boundary value problems.

The equation w'''' = F(t, w, w', w'', w''') on [a, b] with w, w' prescribed
at both ends is reduced to a homogeneous canonical problem on [0, 1] and
solved by a geometrically convergent fixed-point iteration on the triplet
(source profile, left end curvature, right end curvature).  The analysis
module certifies existence and uniqueness on a box via boundedness and
contraction conditions, and provides the a-priori error envelope.

The public names are those of each library module's __all__.
"""

from . import analysis, examples, expr, kernels, numerics, problem, solver
from .analysis import *
from .examples import *
from .expr import *
from .kernels import *
from .numerics import *
from .problem import *
from .solver import *

__version__ = "0.1.0"

__all__ = ["__version__"]
__all__ += analysis.__all__
__all__ += examples.__all__
__all__ += expr.__all__
__all__ += kernels.__all__
__all__ += numerics.__all__
__all__ += problem.__all__
__all__ += solver.__all__
