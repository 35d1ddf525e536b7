"""Periodic within-host viral dynamics with Crowley-Martin incidence.

Simulation of the four-compartment (T, E, I, V) model under sinusoidal
birth, death, and infection rates; the virus-free periodic solution; the
periodic basic reproduction number via monodromy spectral analysis; and
endemic periodic orbits by Newton shooting on the Poincare map.

The package republishes each compute module's `__all__`, the one list of
its public names. The star import from `.integrate` binds the package
attribute `integrate` to the function, not the module, so `import
perivir.integrate as m` and `from perivir import integrate` both give the
function; `importlib.import_module("perivir.integrate")` (or
`sys.modules`) gives the module, and `from perivir.integrate import NAME`
reads its names. The binding stays, since the acceptance tests import the
function from the package.
"""

from .model import *
from .integrate import *
from .periodic import *
from .reproduction import *
from .analysis import *

__version__ = "0.1.0"
