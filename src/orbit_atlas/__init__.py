"""Local-unitary orbit geometry of bipartite quantum states.

Core objects: density matrices and their Bloch forms, the Gram matrix of
local-orbit tangent vectors (direct and closed form), canonical forms under
local rotations, entanglement invariants, global-orbit stratification, and
a verified catalog of 2x2 families with submaximal local orbits.

The package exports exactly the ``__all__`` names of its seven modules.
"""

from . import algebra, canonical, entanglement, gram, states, strata, submaximal
from .algebra import *  # noqa: F401,F403
from .canonical import *  # noqa: F401,F403
from .entanglement import *  # noqa: F401,F403
from .gram import *  # noqa: F401,F403
from .states import *  # noqa: F401,F403
from .strata import *  # noqa: F401,F403
from .submaximal import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = ["__version__"]
for _module in (algebra, states, gram, canonical, entanglement, strata, submaximal):
    __all__ += _module.__all__
del _module
