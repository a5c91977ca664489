"""Semi-analytic design and analysis of graphene THz patch antennas.

The package covers the chain from material model to antenna figures of
merit: gate-tunable sheet conductivity, surface-wave dispersion on the
sheet, transmission-line patch synthesis, a lumped resonator model for
impedance and radiation quantities, a one-dimensional time-domain
cross-check of the sheet response, and batch sweeps with CSV/JSON output.
"""

from .circuit import (ALUMINUM_CONDUCTIVITY, REFERENCE_IMPEDANCE,
                      AntennaReport, ConductorSpec, QFactors, Spectrum,
                      SpectrumResult, bandwidth_minus10db, directivity_dbi,
                      evaluate, gain_report, graphene_resonance,
                      mutual_conductance_ratio, q_factors, s11_spectrum)
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
from .patch import (PatchGeometry, SubstrateSpec, design_patch, f_res_metal,
                    patch_for_target)
from .spp import (ConfinementCell, DielectricHalfspaces, SppSolution,
                  confinement_sweep, spp_wavenumber_asymmetric,
                  spp_wavenumber_symmetric)
from .sweep import (SPECTRA_HEADER, SUMMARY_HEADER, SweepCellResult, emit,
                    run_sweep)

__version__ = "0.1.0"

__all__ = [
    "ALUMINUM_CONDUCTIVITY",
    "AntennaReport",
    "BracketError",
    "CODATA2018",
    "ConductorSpec",
    "ConfigError",
    "ConfinementCell",
    "ConvergenceError",
    "DielectricHalfspaces",
    "FERMI_LEVEL_RANGE_EV",
    "GrapheneSheet",
    "Grid1D",
    "InfeasibleDesignError",
    "InstabilityError",
    "NoBoundModeError",
    "NumericalError",
    "PatchGeometry",
    "QFactors",
    "REFERENCE_IMPEDANCE",
    "RELAXATION_RANGE_S",
    "RunConfig",
    "SPECTRA_HEADER",
    "SUMMARY_HEADER",
    "SheetConductivity",
    "SheetImpedance",
    "SheetScatteringResult",
    "SppSolution",
    "Spectrum",
    "SpectrumResult",
    "SubstrateSpec",
    "SweepCellResult",
    "SweepGrid",
    "ThzPatchError",
    "UnitError",
    "ValidationError",
    "analytic_sheet_coefficients",
    "bandwidth_minus10db",
    "cli_main",
    "compare_fdtd_analytic",
    "confinement_sweep",
    "design_patch",
    "directivity_dbi",
    "drude_weight",
    "emit",
    "evaluate",
    "f_res_metal",
    "gain_report",
    "graphene_resonance",
    "kubo_sigma",
    "mobility",
    "mutual_conductance_ratio",
    "parse_config",
    "parse_quantity",
    "parse_quantity_list",
    "patch_for_target",
    "q_factors",
    "refinement_study",
    "relaxation_from_mobility",
    "run_drude_scattering",
    "run_sheet_scattering",
    "run_sweep",
    "s11_spectrum",
    "sheet_impedance",
    "spp_wavenumber_asymmetric",
    "spp_wavenumber_symmetric",
]
