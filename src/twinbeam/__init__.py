"""Non-classicality analysis of noisy twin beams.

The package models two-mode Gaussian states in their normal-ordered
parametrization, propagates them through beam splitters and detection loss,
expands their photocount generating function into intensity moments and
photon-number probabilities, evaluates moment- and count-based
non-classicality criteria, quantifies entanglement and single-mode
non-classicality, and scans parameter grids for the boundaries between the
classical and non-classical regimes.

A module's ``__all__`` is the one list of its public names.  The package
re-exports the modules below, and its ``__all__`` is their lists merged
and sorted.
"""
from .criteria import *
from .errors import *
from .moments import *
from .oracle import *
from .quantifiers import *
from .scan import *
from .series import *
from .states import *
from .svg import *

__version__ = "0.1.0"

# importing a submodule binds it here under its own name
__all__ = sorted(name for module in (criteria, errors, moments, oracle,
                                     quantifiers, scan, series, states, svg)
                 for name in module.__all__)
