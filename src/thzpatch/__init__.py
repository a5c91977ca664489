"""Semi-analytic design and analysis of graphene THz patch antennas.

The package covers the chain from material model to antenna figures of
merit: gate-tunable sheet conductivity, surface-wave dispersion on the
sheet, transmission-line patch synthesis, a lumped resonator model for
impedance and radiation quantities, a one-dimensional time-domain
cross-check of the sheet response, and batch sweeps with CSV/JSON output.
`import thzpatch` loads no layer; the first public name read loads them all.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# Each public name and the module that defines it. Reading a module's name
# as an attribute, as thzpatch.fdtd, also loads the layers.
_HOME = {name: module for module, names in (
    ("circuit", "ALUMINUM_CONDUCTIVITY REFERENCE_IMPEDANCE AntennaReport "
                "QFactors Spectrum SpectrumResult bandwidth_minus10db "
                "directivity_dbi evaluate gain_report "
                "mutual_conductance_ratio q_factors s11_spectrum"),
    ("cli", "cli_main"),
    ("config", "RunConfig parse_config parse_quantity parse_quantity_list"),
    ("constants", "CODATA2018"),
    ("errors", "BracketError ConfigError ConvergenceError "
               "InfeasibleDesignError InstabilityError NoBoundModeError "
               "NumericalError ThzPatchError UnitError ValidationError"),
    ("fdtd", "Grid1D SheetScatteringResult analytic_sheet_coefficients "
             "compare_fdtd_analytic refinement_study run_drude_scattering "
             "run_sheet_scattering"),
    ("materials", "FERMI_LEVEL_RANGE_EV RELAXATION_RANGE_S GrapheneSheet "
                  "SheetConductivity SheetImpedance drude_weight kubo_sigma "
                  "mobility relaxation_from_mobility sheet_impedance"),
    ("patch", "ConductorSpec PatchGeometry SubstrateSpec design_patch "
              "f_res_metal graphene_resonance patch_for_target"),
    ("spp", "ConfinementCell DielectricHalfspaces SppSolution "
            "confinement_sweep spp_wavenumber_asymmetric "
            "spp_wavenumber_symmetric"),
    ("sweep", "SweepCellResult emit run_sweep"),
    ("tables", "SPECTRA_HEADER SUMMARY_HEADER"),
) for name in names.split()}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name not in _HOME and name not in _HOME.values():
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # Every layer loads, not only the one defining `name`: bench/tracing.py
    # reads sys.modules["thzpatch.<layer>"] for each layer. Bound as plain
    # globals, the names bypass this hook from then on and can be patched.
    for attr, module in _HOME.items():
        globals()[attr] = getattr(_import_module(f".{module}", __name__), attr)
    return globals()[name]


def __dir__() -> list[str]:
    return __all__
