"""Physical constants used throughout the toolkit.

CODATA 2018 exact/recommended values, plus the Fermi velocity of
graphene, v_F = 1.0e6 m/s: a material parameter rather than a
fundamental constant, fixed at the widely used value. Every module reads
the single instance CODATA2018.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class PhysicalConstants:
    """The fixed set of constants; CODATA2018 is its only instance."""

    electron_charge: float = 1.602176634e-19      # C
    reduced_planck: float = 1.054571817e-34       # J s
    boltzmann: float = 1.380649e-23               # J/K
    vacuum_permittivity: float = 8.8541878128e-12  # F/m
    vacuum_permeability: float = 1.25663706212e-6  # H/m
    light_speed: float = 299792458.0              # m/s
    fermi_velocity: float = 1.0e6                 # m/s

    @property
    def free_space_impedance(self) -> float:
        """Wave impedance of vacuum, sqrt(mu0/eps0), in ohms."""
        return math.sqrt(self.vacuum_permeability / self.vacuum_permittivity)


CODATA2018 = PhysicalConstants()
