"""Local observed-score test equating without an anchor test.

Builds families of score transforms conditioned on ability proxies: the
classical anchor-score conditioning, propensity-score stratification, and
stabilized inverse probability weighting within strata, plus the
equipercentile generalization with kernel continuization. A seeded 2PL
simulation harness compares the methods against the analytic truth.
"""

# each module's __all__ is the one list of its public names
from .core import *
from .equating import *
from .errors import *
from .evaluation import *
from .propensity import *
from .simulation import *

__version__ = "0.1.0"
