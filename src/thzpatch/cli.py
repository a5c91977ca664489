"""Command-line interface.

Subcommands:

    design      patch dimensions for a target frequency and substrate
    analyze     single graphene antenna report (resonance, S11, gain)
    sweep       run a config file and write spectra/summary outputs
    spp         surface-wave dispersion table for a sheet
    fdtd-check  time-domain vs analytic sheet scattering error
    resize      shrink the patch so graphene hits the metal target

Dimensioned flags take unit-suffixed values (--f0 280GHz, --h 50um,
--ef 1.2eV, --tau 1.2ps). Exit codes: 0 success, 1 validation/parse
problems, 2 numerical failures. Diagnostics go to stderr; data to stdout
or the --out path.
"""

from __future__ import annotations

import argparse
import math
import sys

# circuit, fdtd, spp and sweep are imported by the commands that use them,
# so a cold design or resize loads none of them, nor numpy.
from .config import parse_config, parse_quantity, parse_quantity_list
from .errors import ConfigError, NumericalError, ValidationError
from .materials import GrapheneSheet, kubo_sigma
from .patch import (ConductorSpec, SubstrateSpec, design_patch, f_res_metal,
                    graphene_resonance, patch_for_target)
from .tables import SUMMARY_HEADER, summary_row, write_table

FDTD_ERROR_THRESHOLD = 0.01

RESIZE_NOTE = ("published reference design reports a 220 um resized length; "
               "this model family cannot reproduce that from a 6 % resonance "
               "shift and reports its own inverse-design value instead")


def _substrate_from_args(args: argparse.Namespace) -> SubstrateSpec:
    return SubstrateSpec(
        rel_permittivity=args.er,
        loss_tangent=args.tand,
        thickness=parse_quantity(args.h, "length", "--h"),
    )


def _sheet_from_args(args: argparse.Namespace) -> GrapheneSheet:
    return GrapheneSheet(
        fermi_level=parse_quantity(args.ef, "energy", "--ef"),
        relaxation_time=parse_quantity(args.tau, "time", "--tau") * 1e-12,
        temperature=parse_quantity(args.temp, "temperature", "--temp"),
    )


def _cmd_design(args: argparse.Namespace) -> int:
    substrate = _substrate_from_args(args)
    f0 = parse_quantity(args.f0, "frequency", "--f0")
    geom = design_patch(f0, substrate)
    write_table(("W_um", "L_um", "eps_eff", "dL_um", "substrate_W_um",
                 "substrate_L_um", "f_res_GHz"),
                [(geom.width * 1e6, geom.length * 1e6, geom.eps_eff,
                  geom.fringing_extension * 1e6, geom.substrate_width * 1e6,
                  geom.substrate_length * 1e6, f_res_metal(geom) / 1e9)],
                args.format, args.out, record=True)
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    from .circuit import gain_report
    substrate = _substrate_from_args(args)
    sheet = _sheet_from_args(args)
    f0 = parse_quantity(args.f0, "frequency", "--f0")
    band = (parse_quantity(args.band_lo, "frequency", "--band-lo"),
            parse_quantity(args.band_hi, "frequency", "--band-hi"))
    geom = design_patch(f0, substrate)
    report = gain_report(geom, ConductorSpec.graphene(sheet), band,
                         args.points)
    row = summary_row("graphene", sheet.fermi_level,
                      sheet.relaxation_time * 1e12, report)
    write_table(SUMMARY_HEADER.split(","), [row], args.format, args.out,
                record=True)
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from .sweep import emit, run_sweep
    with open(args.config, "rb") as fh:
        data = fh.read()
    try:
        # A leading BOM is dropped after decoding, not by utf-8-sig, so the
        # byte offset reported below still counts from the file's start.
        text = data.decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{args.config}: not UTF-8 at byte {exc.start} "
                          f"({exc.reason})") from None
    config = parse_config(text)
    results = run_sweep(config)
    for cell in results:
        if cell.error is not None:
            print(f"cell ({cell.variant}, {cell.fermi_ev}, {cell.tau_ps}) "
                  f"failed: {cell.error}", file=sys.stderr)
    fmt = args.format or config.output_format
    path = config.output_path if args.out is None else args.out
    written = emit(results, fmt, path)
    if not args.quiet:
        print(f"wrote {', '.join(written)}", file=sys.stderr)
    return 0


def _cmd_spp(args: argparse.Namespace) -> int:
    from .spp import (DielectricHalfspaces, spp_wavenumber_asymmetric,
                      spp_wavenumber_symmetric)
    sheet = _sheet_from_args(args)
    freqs = parse_quantity_list(args.f, "frequency", "--f")
    asymmetric = (args.eps_above is not None) or (args.eps_below is not None)
    if asymmetric and (args.eps_above is None or args.eps_below is None):
        raise ValidationError("--eps-above and --eps-below go together")
    if asymmetric and args.eps is not None:
        raise ValidationError("--eps does not go with --eps-above/--eps-below")
    eps = 1.0 if args.eps is None else args.eps

    columns = ["freq_GHz", "q_re_rad_per_m", "q_im_rad_per_m", "confinement",
               "lambda_spp_um", "L_prop_um"]
    rows = []
    for f in freqs:
        w = 2 * math.pi * f
        sigma = kubo_sigma(sheet, w)
        if asymmetric:
            sol = spp_wavenumber_asymmetric(
                sigma, DielectricHalfspaces(args.eps_above, args.eps_below), w)
        else:
            sol = spp_wavenumber_symmetric(sigma, eps, w)
        rows.append((f / 1e9, sol.wavenumber.real, sol.wavenumber.imag,
                     sol.confinement_ratio, sol.spp_wavelength * 1e6,
                     sol.propagation_length * 1e6))
    write_table(columns, rows, args.format, args.out)
    return 0


def _cmd_fdtd_check(args: argparse.Namespace) -> int:
    if args.format is not None and args.out is None:
        raise ValidationError("fdtd-check prints only max_abs_error; "
                              "--format needs --out")
    from .fdtd import Grid1D, max_abs_error, run_sheet_scattering
    sheet = _sheet_from_args(args)
    grid = Grid1D.for_resolution(args.resolution)
    band = (parse_quantity(args.band_lo, "frequency", "--band-lo"),
            parse_quantity(args.band_hi, "frequency", "--band-hi"))
    result = run_sheet_scattering(sheet, grid, band, args.points)
    err = max_abs_error(sheet, result)
    if args.out is not None:
        columns = ["variant", "fermi_eV", "tau_ps", "freq_GHz", "r_real",
                   "r_imag", "t_real", "t_imag", "absorption"]
        rows = [("graphene", sheet.fermi_level, sheet.relaxation_time * 1e12,
                 float(f) / 1e9, r.real, r.imag, t.real, t.imag, float(a))
                for f, r, t, a in zip(result.frequencies, result.reflection,
                                      result.transmission, result.absorption)]
        write_table(columns, rows, args.format or "csv", args.out)
    write_table(["max_abs_error"], [(err,)], None, None, record=True)
    if err >= FDTD_ERROR_THRESHOLD:
        print(f"error exceeds the {FDTD_ERROR_THRESHOLD} accuracy threshold",
              file=sys.stderr)
        return 2
    if not args.quiet:
        print(f"within the {FDTD_ERROR_THRESHOLD} accuracy threshold",
              file=sys.stderr)
    return 0


def _cmd_resize(args: argparse.Namespace) -> int:
    substrate = _substrate_from_args(args)
    sheet = _sheet_from_args(args)
    f0 = parse_quantity(args.f0, "frequency", "--f0")
    metal = design_patch(f0, substrate)
    resized = patch_for_target(f0, substrate, sheet)
    f_check = graphene_resonance(resized, ConductorSpec.graphene(sheet))
    write_table(("W_um", "L_metal_um", "L_resized_um", "area_reduction_pct",
                 "f_res_GHz", "note"),
                [(resized.width * 1e6, metal.length * 1e6,
                  resized.length * 1e6,
                  100 * (1 - resized.length / metal.length), f_check / 1e9,
                  RESIZE_NOTE)],
                args.format, args.out, record=True)
    return 0


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=("csv", "json"), default=None,
                        help="machine-readable output (default: plain text)")
    parser.add_argument("--out", default=None, metavar="PATH",
                        help="write data to PATH instead of stdout")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress informational messages")


def _add_substrate_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--er", type=float, default=3.5,
                        help="substrate relative permittivity")
    parser.add_argument("--tand", type=float, default=0.0027,
                        help="substrate loss tangent")
    parser.add_argument("--h", default="50um",
                        help="substrate thickness, e.g. 50um")


def _add_sheet_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--ef", required=True,
                        help="graphene Fermi level, e.g. 1.2eV")
    parser.add_argument("--tau", required=True,
                        help="relaxation time, e.g. 1.2ps")
    parser.add_argument("--temp", default="300K",
                        help="sheet temperature, e.g. 300K")


def _add_band_flags(parser: argparse.ArgumentParser, points: int) -> None:
    parser.add_argument("--band-lo", default="220GHz",
                        help="lower band edge")
    parser.add_argument("--band-hi", default="325GHz",
                        help="upper band edge")
    parser.add_argument("--points", type=int, default=points,
                        help="frequency samples across the band")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="thzpatch",
        description="Graphene THz patch antenna design and analysis")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("design", help="patch dimensions for a target")
    p.add_argument("--f0", required=True, help="target frequency, e.g. 280GHz")
    _add_substrate_flags(p)
    _add_common(p)
    p.set_defaults(func=_cmd_design)

    p = sub.add_parser("analyze", help="single graphene antenna report")
    p.add_argument("--f0", required=True, help="design frequency, e.g. 280GHz")
    _add_substrate_flags(p)
    _add_sheet_flags(p)
    _add_band_flags(p, points=211)
    _add_common(p)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("sweep", help="run a config file")
    p.add_argument("config", help="config file path")
    _add_common(p)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("spp", help="surface-wave dispersion table")
    _add_sheet_flags(p)
    p.add_argument("--f", default="220:325:5 GHz",
                   help="frequency list or start:stop:step range")
    p.add_argument("--eps", type=float, default=None,
                   help="symmetric environment permittivity (default 1)")
    p.add_argument("--eps-above", type=float, default=None,
                   help="permittivity above the sheet (with --eps-below)")
    p.add_argument("--eps-below", type=float, default=None,
                   help="permittivity below the sheet (with --eps-above)")
    _add_common(p)
    p.set_defaults(func=_cmd_spp)

    p = sub.add_parser("fdtd-check",
                       help="time-domain vs analytic sheet scattering")
    _add_sheet_flags(p)
    p.add_argument("--resolution", type=int, default=200,
                   help="cells per wavelength at 325 GHz, 100 to 1600")
    _add_band_flags(p, points=106)
    _add_common(p)
    p.set_defaults(func=_cmd_fdtd_check)

    p = sub.add_parser("resize", help="inverse design for a graphene target")
    p.add_argument("--f0", required=True, help="target frequency, e.g. 280GHz")
    _add_substrate_flags(p)
    _add_sheet_flags(p)
    _add_common(p)
    p.set_defaults(func=_cmd_resize)

    return parser


def cli_main(argv: list[str] | None = None) -> int:
    """Run the CLI; returns the process exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse has already printed usage/help; fold its exit code into
        # the documented contract (usage problems are validation problems).
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except (ValidationError, NumericalError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, NumericalError) else 1


def main() -> None:
    sys.exit(cli_main(sys.argv[1:]))


if __name__ == "__main__":
    main()
