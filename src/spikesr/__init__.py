"""Super-resolution of clustered spike trains.

Recovery of amplitudes and nodes of a spike train from bandlimited noisy
spectral samples, with the machinery to study how recovery errors amplify when
some nodes nearly collide: exact Prony and Matrix Pencil solvers, worst-case
cluster perturbations, blowup/decimation conditioning analysis, and
reproducible sweep experiments measuring the error-scaling laws.

The package re-exports each module's public names: the names in its
`__all__`, and the exception classes of `errors`, which has no `__all__`.
A name is made public by adding it to its module's `__all__` alone.
"""

__version__ = "0.1.0"

from .decimation import *
from .errors import *
from .experiments import *
from .matrix_pencil import *
from .prony import *
from .signal import *
from .worstcase import *
