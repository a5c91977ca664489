"""Semi-analytic design and analysis of graphene THz patch antennas.

The package covers the chain from material model to antenna figures of
merit: gate-tunable sheet conductivity, surface-wave dispersion on the
sheet, transmission-line patch synthesis, a lumped resonator model for
impedance and radiation quantities, a one-dimensional time-domain
cross-check of the sheet response, and batch sweeps with CSV/JSON output.
"""

import types as _types

from .circuit import (ALUMINUM_CONDUCTIVITY, REFERENCE_IMPEDANCE,
                      AntennaReport, QFactors, Spectrum, SpectrumResult,
                      bandwidth_minus10db, directivity_dbi, evaluate,
                      gain_report, mutual_conductance_ratio, q_factors,
                      s11_spectrum)
from .cli import cli_main
from .config import (RunConfig, SweepGrid, parse_config, parse_quantity,
                     parse_quantity_list)
from .constants import CODATA2018
from .errors import (BracketError, ConfigError, ConvergenceError,
                     InfeasibleDesignError, InstabilityError, NoBoundModeError,
                     NumericalError, ThzPatchError, UnitError, ValidationError)
from .fdtd import (Grid1D, SheetScatteringResult, analytic_sheet_coefficients,
                   compare_fdtd_analytic, refinement_study,
                   run_drude_scattering, run_sheet_scattering)
from .materials import (FERMI_LEVEL_RANGE_EV, RELAXATION_RANGE_S,
                        GrapheneSheet, SheetConductivity, SheetImpedance,
                        drude_weight, kubo_sigma, mobility,
                        relaxation_from_mobility, sheet_impedance)
from .patch import (ConductorSpec, PatchGeometry, SubstrateSpec, design_patch,
                    f_res_metal, graphene_resonance, patch_for_target)
from .spp import (ConfinementCell, DielectricHalfspaces, SppSolution,
                  confinement_sweep, spp_wavenumber_asymmetric,
                  spp_wavenumber_symmetric)
from .sweep import (SPECTRA_HEADER, SUMMARY_HEADER, SweepCellResult, emit,
                    run_sweep)

__version__ = "0.1.0"

# So that a star import and pydoc see the imported names, not submodules.
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_")
                 and not isinstance(value, _types.ModuleType))
