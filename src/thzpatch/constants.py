"""Physical constants used throughout the toolkit.

CODATA 2018 exact/recommended values. The Fermi velocity of graphene is
a material parameter rather than a fundamental constant; the widely used
value 1.0e6 m/s is the default and can be overridden per instance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ValidationError


@dataclass(frozen=True)
class PhysicalConstants:
    """Bundle of constants, overridable where a material value enters."""

    electron_charge: float = 1.602176634e-19      # C
    reduced_planck: float = 1.054571817e-34       # J s
    boltzmann: float = 1.380649e-23               # J/K
    vacuum_permittivity: float = 8.8541878128e-12  # F/m
    vacuum_permeability: float = 1.25663706212e-6  # H/m
    light_speed: float = 299792458.0              # m/s
    fermi_velocity: float = 1.0e6                 # m/s

    def __post_init__(self) -> None:
        if self.fermi_velocity <= 0:
            raise ValidationError("fermi_velocity must be > 0")

    @property
    def free_space_impedance(self) -> float:
        """Wave impedance of vacuum, sqrt(mu0/eps0), in ohms."""
        return math.sqrt(self.vacuum_permeability / self.vacuum_permittivity)


CODATA2018 = PhysicalConstants()
