"""Driven dissipative two-level system: spectra, exceptional points, dynamics."""

import importlib

from .errors import (
    DegenerateFitError,
    DomainError,
    LindbladEPError,
    NearDegenerateError,
    NonConvergenceError,
    StepSizeError,
)

__version__ = "0.1.0"

# The public names of each numeric module.  numpy and all six modules load as one
# unit on the first access to any of them (PEP 562), so importing the package and
# parsing a command line import no numpy.  A process has either no numeric module
# loaded or all six, verify included, which has no public name here.
_NUMERIC = {
    "model": (
        "HS_COMPONENTS",
        "INITIAL_STATES",
        "HermiticityWarning",
        "LabParams",
        "ModelParams",
        "check_density_matrix",
        "devectorize",
        "frame_unitary",
        "hamiltonian_rotating",
        "hamiltonian_rwa",
        "initial_state",
        "jump_operators",
        "rotate_to_lab",
        "vectorize",
    ),
    "superop": ("build_lindblad", "equilibrium_state", "lindblad_rhs", "null_eigenvectors"),
    "spectrum": (
        "Spectrum",
        "characteristic_residual",
        "eigenvalues_closed_form",
        "eigenvalues_numeric",
        "eigenvectors_closed_form",
        "full_spectrum",
        "match_distance",
    ),
    "exceptional": (
        "PhasePoint",
        "Region",
        "classify",
        "classify_grid",
        "discriminant",
        "ep2_eigenvalue",
        "ep2_gamma",
        "ep3_point",
        "splitting_exponent",
    ),
    "dynamics": (
        "Trajectory",
        "evolve_lab",
        "evolve_rotating",
        "frame_deviation",
        "largest_stable_dt",
        "spectral_evolve",
        "verify_frame_equivalence",
    ),
    "verify": (),
}

__all__ = sorted([
    "DegenerateFitError",
    "DomainError",
    "LindbladEPError",
    "NearDegenerateError",
    "NonConvergenceError",
    "StepSizeError",
    *(name for names in _NUMERIC.values() for name in names),
])


def _load() -> None:
    """Import numpy and the six numeric modules, and bind their public names here.

    Idempotent, and it never rebinds a name already bound, so a name replaced
    after the first load stays replaced.
    """
    namespace = globals()
    for module_name, names in _NUMERIC.items():
        module = importlib.import_module(f"{__name__}.{module_name}")
        for name in names:
            namespace.setdefault(name, getattr(module, name))


def __getattr__(name: str):
    if name in _NUMERIC or name in __all__:
        _load()
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
