"""Sheet conductivity, impedance, and mobility.

Reference values regenerated by tests/oracles.py (arbitrary-precision,
independent of the package).
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thzpatch import (CODATA2018, FERMI_LEVEL_RANGE_EV, RELAXATION_RANGE_S,
                      GrapheneSheet, SheetConductivity, SheetImpedance,
                      ValidationError, drude_weight, kubo_sigma, mobility,
                      relaxation_from_mobility, sheet_impedance)

W_280 = 2 * math.pi * 280e9

# Drude weight A (S/s) at 300 K, from tests/oracles.py
DRUDE_WEIGHTS = {
    0.05: 6707465528.63,
    0.1: 11897295368.8,
    0.3: 35314326224.1,
    0.6: 70628541377.2,
    0.9: 105942812065.0,
    1.0: 117714235628.0,
    1.2: 141257082753.0,
    2.0: 235428471256.0,
}

# sigma at 280 GHz, keyed by (E_F eV, tau ps)
SIGMA_280 = {
    (1.0, 1.0): 0.0287450873939 + 0.0505709990147j,
    (1.2, 1.2): 0.0310628337282 + 0.0655783096014j,
    (0.1, 1.2): 0.00261624904501 + 0.00552329486j,
    (0.3, 0.3): 0.00828611894003 + 0.00437331054531j,
}

# (R_s ohm/sq, L_k H/sq), keyed by (E_F eV, tau ps)
IMPEDANCES = {
    (1.2, 1.2): (5.89940919839, 7.07929103807e-12),
    (0.9, 0.9): (10.4878385749, 9.43905471743e-12),
    (0.6, 0.6): (23.5976367934, 1.4158582076e-11),
    (0.3, 0.3): (94.3903987344, 2.83171196203e-11),
}

sheets = st.builds(
    GrapheneSheet,
    fermi_level=st.floats(*FERMI_LEVEL_RANGE_EV),
    relaxation_time=st.floats(*RELAXATION_RANGE_S),
)


@pytest.mark.parametrize("ef,expected", sorted(DRUDE_WEIGHTS.items()))
def test_drude_weight_reference_values(ef, expected):
    sheet = GrapheneSheet(ef, 1.0e-12)
    assert drude_weight(sheet) == pytest.approx(expected, rel=1e-11)


def test_drude_weight_guard_matches_direct_formula():
    # E_F = 1.2 eV at 300 K puts the argument above the log1p switchover;
    # the direct log(2 cosh x) is still representable there.
    sheet = GrapheneSheet(1.2, 1.0e-12)
    c = CODATA2018
    x = (1.2 * c.electron_charge
         / (2 * c.boltzmann * 300.0))
    assert x > 20
    direct = (2 * c.electron_charge**2 * c.boltzmann * 300.0
              / (math.pi * c.reduced_planck**2)) * math.log(2 * math.cosh(x))
    assert drude_weight(sheet) == pytest.approx(direct, rel=1e-13)


def test_drude_weight_survives_cold_sheet():
    # Naive log(2 cosh x) overflows around x ~ 710; 2 eV at 1 K is x ~ 1e4.
    cold = GrapheneSheet(2.0, 1.0e-12, temperature=1.0)
    assert math.isfinite(drude_weight(cold))


def test_degenerate_limit():
    # For E_F >> k_B T the weight reduces to e^2 E_F / (pi hbar^2).
    sheet = GrapheneSheet(2.0, 1.0e-12)
    c = CODATA2018
    degenerate = (c.electron_charge**2 * 2.0 * c.electron_charge
                  / (math.pi * c.reduced_planck**2))
    assert drude_weight(sheet) == pytest.approx(degenerate, rel=1e-12)


@pytest.mark.parametrize("key,expected", sorted(SIGMA_280.items()))
def test_kubo_sigma_reference_values(key, expected):
    ef, tau_ps = key
    sigma = kubo_sigma(GrapheneSheet(ef, tau_ps * 1e-12), W_280)
    assert sigma.value == pytest.approx(expected, rel=1e-11)


def test_kubo_sigma_is_inductive():
    sigma = kubo_sigma(GrapheneSheet(0.6, 0.6e-12), W_280)
    assert sigma.real_part > 0
    assert sigma.imag_part > 0


@given(sheet=sheets, freq=st.floats(1e9, 10e12))
def test_loss_angle_identity(sheet, freq):
    # Im/Re of the Drude form is exactly w tau, any parameters.
    w = 2 * math.pi * freq
    sigma = kubo_sigma(sheet, w)
    assert sigma.imag_part / sigma.real_part == pytest.approx(
        w * sheet.relaxation_time, rel=1e-12)


@given(sheet=sheets, freq=st.floats(1e9, 1e12))
def test_magnitude_falls_with_frequency(sheet, freq):
    w = 2 * math.pi * freq
    assert abs(kubo_sigma(sheet, 3 * w).value) < abs(kubo_sigma(sheet, w).value)


@pytest.mark.parametrize("tau_ps,expected", [
    (0.05, 0.0114113704071),
    (1.2, 0.00110651169644),
    (5.0, 0.00100644106001),
])
def test_high_frequency_falloff(tau_ps, expected):
    # |sigma| three decades above 280 GHz, relative to the in-band value.
    sheet = GrapheneSheet(0.6, tau_ps * 1e-12)
    ratio = abs(kubo_sigma(sheet, 1000 * W_280).value) / abs(
        kubo_sigma(sheet, W_280).value)
    assert ratio == pytest.approx(expected, rel=1e-10)


def test_kubo_sigma_rejects_nonpositive_frequency():
    sheet = GrapheneSheet(0.6, 0.6e-12)
    with pytest.raises(ValidationError):
        kubo_sigma(sheet, 0.0)
    with pytest.raises(ValidationError):
        kubo_sigma(sheet, -W_280)


@pytest.mark.parametrize("w", [math.nan, math.inf])
def test_kubo_sigma_rejects_non_finite_frequency(w):
    with pytest.raises(ValidationError,
                       match="angular_frequency must be finite and > 0"):
        kubo_sigma(GrapheneSheet(0.6, 0.6e-12), w)


@pytest.mark.parametrize("field", ["real_part", "imag_part"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_conductivity_rejects_non_finite_parts(field, value):
    parts = {"real_part": 1e-3, "imag_part": 1e-3, field: value}
    with pytest.raises(ValidationError, match=f"^{field} must be finite$"):
        SheetConductivity(**parts)


@pytest.mark.parametrize("key,expected", sorted(IMPEDANCES.items()))
def test_sheet_impedance_reference_values(key, expected):
    ef, tau_ps = key
    z = sheet_impedance(GrapheneSheet(ef, tau_ps * 1e-12))
    assert z.sheet_resistance == pytest.approx(expected[0], rel=1e-11)
    assert z.kinetic_inductance == pytest.approx(expected[1], rel=1e-11)


@given(sheet=sheets)
def test_impedance_is_inverse_drude_weight(sheet):
    a = drude_weight(sheet)
    z = sheet_impedance(sheet)
    assert z.sheet_resistance * a * sheet.relaxation_time == pytest.approx(1.0)
    assert z.kinetic_inductance * a == pytest.approx(1.0)


def test_mobility_reference_point():
    # tau e v_F^2 / E_F collapses to exactly 1 m^2/Vs at (0.9 eV, 0.9 ps).
    assert mobility(GrapheneSheet(0.9, 0.9e-12)) == pytest.approx(
        10000.0, rel=1e-12)


@given(sheet=sheets)
@settings(max_examples=50)
def test_mobility_round_trip(sheet):
    mu = mobility(sheet)
    tau = relaxation_from_mobility(mu, sheet.fermi_level)
    assert tau == pytest.approx(sheet.relaxation_time, rel=1e-12)


def test_relaxation_from_mobility_rejects_nonpositive():
    with pytest.raises(ValidationError):
        relaxation_from_mobility(-10.0, 0.9)
    with pytest.raises(ValidationError):
        relaxation_from_mobility(10000.0, 0.0)


@pytest.mark.parametrize("ef,tau", [
    (0.04, 1.0e-12),
    (2.5, 1.0e-12),
    (0.6, 0.01e-12),
    (0.6, 6.0e-12),
])
def test_sheet_parameter_ranges(ef, tau):
    with pytest.raises(ValidationError):
        GrapheneSheet(ef, tau)


def test_sheet_rejects_nonpositive_temperature():
    with pytest.raises(ValidationError):
        GrapheneSheet(0.6, 0.6e-12, temperature=0.0)


def test_impedance_rejects_nonpositive_members():
    with pytest.raises(ValidationError):
        SheetImpedance(0.0, 1e-12)
    with pytest.raises(ValidationError):
        SheetImpedance(5.0, -1e-12)
