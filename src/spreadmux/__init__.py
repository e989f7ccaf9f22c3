"""Spread-spectrum add-drop multiplexing of single-photon pulses.

Each user imprints a shifted copy of one maximal-length sequence onto the
phase of its photons; a chain of identical gratings on a shared fibre then
adds and drops the users by spreading and despreading in place.

The package re-exports the public names (``__all__``) of each of its
modules; the command line front end lives in ``spreadmux.cli``.
"""

__version__ = "0.1.0"

from . import codes, experiments, metrics, network, optics, signal
from .codes import *  # noqa: F401,F403
from .experiments import *  # noqa: F401,F403
from .metrics import *  # noqa: F401,F403
from .network import *  # noqa: F401,F403
from .optics import *  # noqa: F401,F403
from .signal import *  # noqa: F401,F403

__all__ = [
    "__version__",
    *codes.__all__,
    *experiments.__all__,
    *metrics.__all__,
    *network.__all__,
    *optics.__all__,
    *signal.__all__,
]
