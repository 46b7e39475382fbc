"""Constants of the model that need no numpy: the triple point, the initial-state
names and the self-check names.

The command-line parser reads these, so that parsing a command line, printing
the version or the triple point, and refusing a usage error load no numeric
module.  Each is defined here once; the numeric modules import it from here.
"""

from __future__ import annotations

import math

# The triple coalescence, in units of the detuning.
D_TILDE_EP3 = 2.0 * math.sqrt(2.0)
GAMMA_TILDE_EP3 = 6.0 * math.sqrt(3.0)
Z_EP3 = -4j * math.sqrt(3.0)

INITIAL_STATES = ("excited", "ground", "mixed", "coherent")

# The checks of ``verify``, in the order they run; verify.CHECKS maps each to its function.
CHECK_NAMES = ("ep3", "ep2-curve", "spectra", "gamma0", "equilibrium", "frame",
               "conservation", "splitting", "phase-diagram")
DEFAULT_SEED = 1234


def ep3_point() -> tuple[float, float, complex]:
    """Drive, coupling and eigenvalue of the triple coalescence (units of detuning)."""
    return D_TILDE_EP3, GAMMA_TILDE_EP3, Z_EP3
