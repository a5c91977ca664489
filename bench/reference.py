"""The benchmark's own closed forms, written apart from the package.

Every output check in the benchmark compares the program against these
formulas (or against the mpmath chain in tests/oracles.py), never against a
stored copy of earlier output. Nothing here imports thzpatch.
"""

from __future__ import annotations

import cmath
import math

# CODATA 2018 values.
E_CHARGE = 1.602176634e-19
HBAR = 1.054571817e-34
K_B = 1.380649e-23
EPS0 = 8.8541878128e-12
MU0 = 1.25663706212e-6
C0 = 299792458.0
ETA0 = math.sqrt(MU0 / EPS0)


def rel_diff(a: float, b: float) -> float:
    return abs(a - b) / abs(b)


def drude_weight(ef_ev: float, temp: float = 300.0) -> float:
    """A in sigma = A i / (w + i/tau), S/s."""
    x = ef_ev * E_CHARGE / (2 * K_B * temp)
    ln_2cosh = x + math.log1p(math.exp(-2 * x))
    return 2 * E_CHARGE**2 * K_B * temp / (math.pi * HBAR**2) * ln_2cosh


def sigma(ef_ev: float, tau_s: float, f_hz: float) -> complex:
    w = 2 * math.pi * f_hz
    return drude_weight(ef_ev) * 1j / (w + 1j / tau_s)


def eps_eff(eps_r: float, h: float, w: float) -> float:
    return (eps_r + 1) / 2 + (eps_r - 1) / 2 / math.sqrt(1 + 12 * h / w)


def fringing(e_eff: float, h: float, w: float) -> float:
    return (0.412 * h * (e_eff + 0.3) * (w / h + 0.264)
            / ((e_eff - 0.258) * (w / h + 0.8)))


def design(f0: float, eps_r: float, h: float) -> tuple[float, float]:
    """(W, L) of the transmission-line patch design."""
    w = C0 / (2 * f0) * math.sqrt(2 / (eps_r + 1))
    e = eps_eff(eps_r, h, w)
    return w, C0 / (2 * f0 * math.sqrt(e)) - 2 * fringing(e, h, w)


def f_metal(w: float, length: float, eps_r: float, h: float) -> float:
    e = eps_eff(eps_r, h, w)
    return C0 / (2 * (length + 2 * fringing(e, h, w)) * math.sqrt(e))


def f_graphene(w: float, length: float, eps_r: float, h: float,
               ef_ev: float) -> float:
    """Kinetic inductance 1/A in series with the line's mu0 h."""
    l_k = 1.0 / drude_weight(ef_ev)
    return f_metal(w, length, eps_r, h) / math.sqrt(1 + l_k / (MU0 * h))


def directivity_dbi(w: float, f: float) -> float:
    return 6.6 + 10 * math.log10(3 * w / (C0 / f))


def thin_sheet(sig: complex) -> tuple[complex, complex]:
    """(r, t) of a free-standing sheet at normal incidence."""
    s = ETA0 * sig / 2
    return -s / (1 + s), 1 / (1 + s)


def spp_residual(q: complex, sig: complex, f_hz: float, eps_a: float,
                 eps_b: float) -> float:
    """Relative residual of eps_a/kappa_a + eps_b/kappa_b = -i sigma/(w eps0)."""
    w = 2 * math.pi * f_hz
    k0 = w / C0
    rhs = -1j * sig / (w * EPS0)
    lhs = (eps_a / cmath.sqrt(q * q - eps_a * k0 * k0)
           + eps_b / cmath.sqrt(q * q - eps_b * k0 * k0))
    return abs(lhs - rhs) / abs(rhs)


def fmt9(x: float) -> float:
    """The value as written with 9 significant digits."""
    return float(f"{x:.9g}")
