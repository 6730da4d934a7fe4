"""tipwave: output-feedback stabilization of a 1-d wave equation with tip mass.

Simulates the plant, its Luenberger observer loop, and the
extended-state-observer loop under internal uncertainty and external
disturbance; computes the three characteristic-equation spectra that
govern exponential decay; and cross-validates time-domain decay rates
against spectral abscissae.

Each loop stores its fields as rows of one stacked array per time level
and advances them with a single NumPy leapfrog stepper.
"""

from .wave_core import FieldHistory, Grid, SystemParams
from .energy import EnergyTrace, fit_decay_rate
from .signals import DisturbanceSpec, eval_d, eval_f
from .spectral import (
    CharFamily,
    Eigenvalue,
    Spectrum,
    compute_spectrum,
    count_zeros_in_box,
    refine_root,
    spectral_abscissa,
)
from .systems import BlowUpError, EsoLoop, ObserverLoop, SingleFieldLoop
from .scenarios import ScenarioConfig, parse_config, run_scenario, serialize_config

__version__ = "0.1.0"


def default_backend_name() -> str:
    """Name of the stepping implementation; there is only the NumPy stepper.
    ``perfbench/worker.py`` records it with each benchmark run."""
    return "python"


__all__ = [
    "default_backend_name",
    "FieldHistory",
    "Grid",
    "SystemParams",
    "EnergyTrace",
    "fit_decay_rate",
    "DisturbanceSpec",
    "eval_d",
    "eval_f",
    "CharFamily",
    "Eigenvalue",
    "Spectrum",
    "compute_spectrum",
    "count_zeros_in_box",
    "refine_root",
    "spectral_abscissa",
    "BlowUpError",
    "EsoLoop",
    "ObserverLoop",
    "SingleFieldLoop",
    "ScenarioConfig",
    "parse_config",
    "run_scenario",
    "serialize_config",
    "__version__",
]
