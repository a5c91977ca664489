"""Regenerate the frozen reference values used by the test suite.

Every numeric literal asserted in the tests comes from this script: an
independent arbitrary-precision (mpmath) evaluation of the model formulas,
written without importing the package so the two cannot share bugs.

Run it directly to print the current table:

    python3 tests/oracles.py

Requires mpmath (installed with the `test` extra). Not collected by pytest.
"""

from __future__ import annotations

from mpmath import mp, mpc, mpf

mp.dps = 30

# CODATA 2018 exact values
E = mpf("1.602176634e-19")        # C
HBAR = mpf("1.054571817e-34")     # J s
KB = mpf("1.380649e-23")          # J/K
EPS0 = mpf("8.8541878128e-12")    # F/m
MU0 = mpf("1.25663706212e-6")     # H/m
C0 = mpf(299792458)               # m/s
ETA0 = mp.sqrt(MU0 / EPS0)        # ohm
VFERMI = mpf("1.0e6")             # m/s

ALUMINUM = mpf("3.56e7")          # S/m
Z_REF = mpf(50)                   # ohm

TEMP = mpf(300)                   # K


def drude_weight(ef_ev, temp=TEMP):
    """Weight A in sigma(w) = A i / (w + i/tau), in S/s."""
    ef = mpf(ef_ev) * E
    x = ef / (2 * KB * temp)
    return (2 * E**2 * KB * temp) / (mp.pi * HBAR**2) * mp.log(2 * mp.cosh(x))


def sigma(ef_ev, tau_ps, f_hz, temp=TEMP):
    w = 2 * mp.pi * mpf(f_hz)
    tau = mpf(tau_ps) * mpf("1e-12")
    return drude_weight(ef_ev, temp) * mpc(0, 1) / (w + mpc(0, 1) / tau)


def sheet_rs_lk(ef_ev, tau_ps):
    a = drude_weight(ef_ev)
    tau = mpf(tau_ps) * mpf("1e-12")
    return 1 / (a * tau), 1 / a


def mobility_cm2(ef_ev, tau_ps):
    tau = mpf(tau_ps) * mpf("1e-12")
    return tau * E * VFERMI**2 / (mpf(ef_ev) * E) * mpf(10000)


def spp_symmetric(sig, eps, f_hz):
    """q of the symmetric thin-sheet TM mode, branch Im q >= 0."""
    k0 = 2 * mp.pi * mpf(f_hz) / C0
    root = mp.sqrt(eps)
    q = k0 * root * mp.sqrt(1 - (2 * root / (ETA0 * sig))**2)
    if mp.im(q) < 0:
        q = -q
    return q


def spp_asymmetric(sig, eps_a, eps_b, f_hz):
    """Root of eps_a/kappa_a + eps_b/kappa_b = -i sigma/(w eps0).

    The relation is the same with the half-spaces swapped, so it is solved
    in u = kappa/k0 of the denser one: eps_d/u + eps_l/sqrt(u^2 + d) = r,
    with d = eps_d - eps_l and r = -i sigma/(c eps0). u goes to 0 at the
    denser light line, where q^2 - eps_d k0^2 would cancel. Damped Newton
    with the analytic derivative, from the symmetric root u = (eps_a +
    eps_b)/r. The root must decay on both sides (Re kappa > 0) and run
    forward (Re q > 0).
    """
    k0 = 2 * mp.pi * mpf(f_hz) / C0
    dense, light = max(mpf(eps_a), mpf(eps_b)), min(mpf(eps_a), mpf(eps_b))
    d = dense - light
    r = -mpc(0, 1) * sig / (C0 * EPS0)

    def residual(u):
        return dense / u + light / mp.sqrt(u**2 + d) - r

    def derivative(u):
        return -dense / u**2 - light * u / mp.sqrt(u**2 + d)**3

    u = (dense + light) / r
    for _ in range(200):
        res = residual(u)
        if abs(res) / abs(r) < mpf("1e-25"):
            break
        step = -res / derivative(u)
        scale = mpf(1)
        while abs(residual(u + scale * step)) >= abs(res) and scale > mpf("1e-12"):
            scale /= 2
        u = u + scale * step
    q = k0 * mp.sqrt(u**2 + dense)
    if not (mp.re(u) > 0 and mp.re(mp.sqrt(u**2 + d)) > 0 and mp.re(q) > 0):
        raise ArithmeticError(f"the root for sigma = {sig} grows or runs "
                              "backward")
    return q, abs(residual(u)) / abs(r)


def design(f_hz, eps_r, h):
    """(W, eps_eff, dL, L) of the transmission-line patch design."""
    f = mpf(f_hz)
    eps_r = mpf(eps_r)
    h = mpf(h)
    w = C0 / (2 * f) * mp.sqrt(2 / (eps_r + 1))
    e_eff = (eps_r + 1) / 2 + (eps_r - 1) / 2 / mp.sqrt(1 + 12 * h / w)
    dl = (mpf("0.412") * h * (e_eff + mpf("0.3")) * (w / h + mpf("0.264"))
          / ((e_eff - mpf("0.258")) * (w / h + mpf("0.8"))))
    length = C0 / (2 * f * mp.sqrt(e_eff)) - 2 * dl
    return w, e_eff, dl, length


def f_res(w, length, eps_r, h):
    eps_r, h, w = mpf(eps_r), mpf(h), mpf(w)
    e_eff = (eps_r + 1) / 2 + (eps_r - 1) / 2 / mp.sqrt(1 + 12 * h / w)
    dl = (mpf("0.412") * h * (e_eff + mpf("0.3")) * (w / h + mpf("0.264"))
          / ((e_eff - mpf("0.258")) * (w / h + mpf("0.8"))))
    return C0 / (2 * (mpf(length) + 2 * dl) * mp.sqrt(e_eff))


def f_graphene(w, length, eps_r, h, ef_ev):
    _, lk = sheet_rs_lk(ef_ev, 1)  # L_k is tau-independent
    return f_res(w, length, eps_r, h) / mp.sqrt(1 + lk / (MU0 * mpf(h)))


def mutual_ratio(w, length, dl, f_hz):
    """g12 of the slot pair at separation L + 2 dL."""
    k0 = 2 * mp.pi * mpf(f_hz) / C0
    half = k0 * w / 2
    sep = length + 2 * dl

    def base(theta):
        c = mp.cos(theta)
        amp = half if abs(c) < mpf("1e-12") else mp.sin(half * c) / c
        return amp**2 * mp.sin(theta)**3

    pts = [0, mp.pi / 2, mp.pi]
    num = mp.quad(lambda t: base(t) * mp.besselj(0, k0 * sep * mp.sin(t)), pts)
    den = mp.quad(base, pts)
    return num / den


def q_chain(w, length, dl, e_eff, h, tan_d, f_hz, conductor):
    """(q_rad, q_cond, q_diel, q_total) at f_hz.

    conductor: ("metal", sigma_bulk) or ("graphene", ef_ev, tau_ps).
    """
    omega = 2 * mp.pi * mpf(f_hz)
    lam0 = C0 / mpf(f_hz)
    h = mpf(h)
    q_diel = 1 / mpf(tan_d)
    if conductor[0] == "metal":
        r_skin = mp.sqrt(omega * MU0 / (2 * conductor[1]))
        q_cond = omega * MU0 * h / r_skin
    else:
        rs, lk = sheet_rs_lk(conductor[1], conductor[2])
        q_cond = omega * (MU0 * h + lk) / rs
    g1 = (w / lam0)**2 / 90
    g12 = mutual_ratio(w, length, dl, f_hz)
    cap = EPS0 * e_eff * length * w / (2 * h)
    q_rad = omega * cap / (2 * g1 * (1 + g12))
    q_total = 1 / (1 / q_rad + 1 / q_cond + 1 / q_diel)
    return q_rad, q_cond, q_diel, q_total, cap


def dip_and_bandwidth(f0_hz, q, r_peak, n_sq):
    """Minimum S11 (dB) and the -10 dB width (Hz) of the loaded resonator."""
    f0 = mpf(f0_hz)

    def gamma_sq(f):
        nu = f / f0 - f0 / f
        z = (r_peak / (1 + mpc(0, 1) * q * nu)) / n_sq
        g = (z - Z_REF) / (z + Z_REF)
        return abs(g)**2

    dip_db = 10 * mp.log10(gamma_sq(f0)) if gamma_sq(f0) > 0 else mpf("-inf")
    if gamma_sq(f0) >= mpf("0.1"):
        return dip_db, mpf(0)
    f_lo = mp.findroot(lambda f: gamma_sq(f) - mpf("0.1"), f0 * mpf("0.97"))
    f_hi = mp.findroot(lambda f: gamma_sq(f) - mpf("0.1"), f0 * mpf("1.03"))
    return dip_db, f_hi - f_lo


def thin_sheet(sig):
    s = ETA0 * sig / 2
    r = -s / (1 + s)
    t = 1 / (1 + s)
    return r, t, 2 * mp.re(s) * abs(t)**2


def inverse_length(target_hz, w, eps_r, h, ef_ev, l_metal):
    """L such that the graphene patch resonates at target (W held fixed)."""
    _, lk = sheet_rs_lk(ef_ev, 1)
    shift = mp.sqrt(1 + lk / (MU0 * mpf(h)))
    target = mpf(target_hz)

    lo, hi = mpf(l_metal) / 2, mpf(l_metal)
    for _ in range(120):
        mid = (lo + hi) / 2
        if f_res(w, mid, eps_r, h) / shift > target:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def show(name, value, digits=12):
    if isinstance(value, (tuple, list)):
        body = ", ".join(mp.nstr(v, digits) for v in value)
        print(f"{name} = [{body}]")
    else:
        print(f"{name} = {mp.nstr(value, digits)}")


def main():
    show("eta0", ETA0)

    print("\n# Drude weight A (S/s)")
    for ef in ("0.05", "0.1", "0.3", "0.6", "0.9", "1.0", "1.2", "2.0"):
        show(f"A({ef} eV)", drude_weight(ef))

    print("\n# sigma at 280 GHz (S)")
    for ef, tau in (("1.0", "1.0"), ("1.2", "1.2"), ("0.1", "1.2"),
                    ("0.3", "0.3"), ("0.3", "1.2")):
        show(f"sigma({ef} eV, {tau} ps)", sigma(ef, tau, "280e9"))

    print("\n# Sheet impedance (ohm, H) and mobility (cm^2/Vs)")
    for ef, tau in (("1.2", "1.2"), ("0.9", "0.9"), ("0.6", "0.6"),
                    ("0.3", "0.3")):
        rs, lk = sheet_rs_lk(ef, tau)
        show(f"Rs,Lk({ef}, {tau})", (rs, lk))
    show("mobility(0.9 eV, 0.9 ps)", mobility_cm2("0.9", "0.9"))

    print("\n# High-frequency falloff |sigma(1000 w)| / |sigma(w)| at 280 GHz")
    for tau in ("0.05", "1.2", "5.0"):
        lo = abs(sigma("0.6", tau, "280e9"))
        hi = abs(sigma("0.6", tau, str(1000 * mpf("280e9"))))
        show(f"falloff(tau={tau} ps)", hi / lo)

    print("\n# SPP symmetric q/k0 at 280 GHz, eps = 1")
    k0 = 2 * mp.pi * mpf("280e9") / C0
    for ef, tau in (("1.2", "1.2"), ("0.1", "1.2")):
        q = spp_symmetric(sigma(ef, tau, "280e9"), 1, "280e9")
        show(f"q/k0({ef} eV, {tau} ps)", q / k0)
    q = spp_symmetric(sigma("0.1", "1.2", "280e9"), 1, "280e9")
    show("lambda_spp/lambda0(0.1 eV)", k0 / mp.re(q))

    print("\n# SPP confinement vs Fermi level (280 GHz, tau 1.2 ps, eps 1)")
    for ef in ("0.1", "0.3", "0.6", "0.9", "1.2"):
        q = spp_symmetric(sigma(ef, "1.2", "280e9"), 1, "280e9")
        show(f"conf({ef} eV)", mp.re(q) / k0)

    print("\n# SPP confinement vs frequency (0.3 eV, tau 1.2 ps, eps 1)")
    for f in ("220e9", "272.5e9", "325e9"):
        kf = 2 * mp.pi * mpf(f) / C0
        q = spp_symmetric(sigma("0.3", "1.2", f), 1, f)
        show(f"conf({f} Hz)", mp.re(q) / kf)

    print("\n# SPP asymmetric (eps 1 / 3.5) at 280 GHz")
    for ef in ("0.1", "0.3", "1.2"):
        q, res = spp_asymmetric(sigma(ef, "1.2", "280e9"), 1, mpf("3.5"),
                                "280e9")
        show(f"q/k0({ef} eV)", q / k0)
        show(f"rel residual({ef} eV)", res)

    print("\n# SPP asymmetric, lossless sheets at 280 GHz (sigma = i s)")
    for s, eps_a, eps_b in (("0.01", 1, "3.5"), ("0.01", "3.5", 1),
                            ("1e5", 1, "3.5"), ("1e2", "3.5", 1),
                            (357262.96343110607, 4.09693691651451,
                             6.753590727802719)):
        q, res = spp_asymmetric(mpc(0, s), mpf(eps_a), mpf(eps_b), "280e9")
        show(f"q/k0({s} S, eps {eps_a} / {eps_b})", q / k0)
        show(f"rel residual({s} S, eps {eps_a} / {eps_b})", res)

    print("\n# Patch design at 280 GHz (eps_r 3.5, h 50 um)")
    w, e_eff, dl, length = design("280e9", "3.5", "50e-6")
    show("W (um)", w * mpf("1e6"))
    show("eps_eff", e_eff)
    show("dL (um)", dl * mpf("1e6"))
    show("L (um)", length * mpf("1e6"))
    show("f_res(designed) (GHz)", f_res(w, length, "3.5", "50e-6") / mpf("1e9"))
    show("f_res(355 x 262 um) (GHz)",
         f_res("355e-6", "262e-6", "3.5", "50e-6") / mpf("1e9"))

    print("\n# Patch design at 140 GHz (same substrate)")
    w2, e_eff2, dl2, length2 = design("140e9", "3.5", "50e-6")
    show("W ratio", w2 / w)
    show("L ratio", length2 / length)
    show("dL ratio", dl2 / dl)
    show("L(140 GHz) (um)", length2 * mpf("1e6"))
    show("eps_eff(140 GHz)", e_eff2)

    print("\n# Graphene resonance (GHz): designed geometry, then 355 x 262")
    for ef in ("0.3", "0.6", "0.9", "1.2"):
        show(f"f_g designed({ef} eV)",
             f_graphene(w, length, "3.5", "50e-6", ef) / mpf("1e9"))
    for ef in ("0.3", "0.6", "0.9", "1.2"):
        show(f"f_g tableI({ef} eV)",
             f_graphene("355e-6", "262e-6", "3.5", "50e-6", ef) / mpf("1e9"))
    fm = f_res(w, length, "3.5", "50e-6")
    fg = f_graphene(w, length, "3.5", "50e-6", "1.2")
    show("relative shift(1.2 eV)", (fm - fg) / fm)

    print("\n# Q chain, designed geometry")
    qr, qc, qd, qt, cap = q_chain(w, length, dl, e_eff, "50e-6", "0.0027",
                                  "280e9", ("metal", ALUMINUM))
    show("metal g12(280 GHz)", mutual_ratio(w, length, dl, "280e9"))
    show("metal q_rad,q_cond,q_diel,q_total", (qr, qc, qd, qt))
    show("metal C (F)", cap)
    q_metal = qt
    r_peak_metal = qt / (2 * mp.pi * mpf("280e9") * cap)
    show("metal R_peak (ohm)", r_peak_metal)
    n_sq = r_peak_metal / Z_REF
    show("metal eff", qt / qr)

    print("\n# Graphene cells at their own resonance (designed geometry)")
    for ef, tau in (("1.2", "1.2"), ("1.2", "0.9"), ("1.2", "0.6"),
                    ("1.2", "0.3"), ("0.9", "1.2"), ("0.9", "0.9"),
                    ("0.6", "1.2"), ("0.3", "1.2"), ("0.3", "0.3")):
        fg = f_graphene(w, length, "3.5", "50e-6", ef)
        qr, qc, qd, qt, cap = q_chain(w, length, dl, e_eff, "50e-6", "0.0027",
                                      fg, ("graphene", ef, tau))
        r_peak = qt / (2 * mp.pi * fg * cap)
        dip, bw = dip_and_bandwidth(fg, qt, r_peak, n_sq)
        eff = qt / qr
        d_dbi = mpf("6.6") + 10 * mp.log10(3 * w / (C0 / fg))
        gain = d_dbi + 10 * mp.log10(eff)
        show(f"cell({ef}, {tau}) f_res GHz", fg / mpf("1e9"))
        show(f"cell({ef}, {tau}) q_rad,q_cond,q_total", (qr, qc, qt))
        show(f"cell({ef}, {tau}) dip dB", dip)
        show(f"cell({ef}, {tau}) bw GHz", bw / mpf("1e9"))
        show(f"cell({ef}, {tau}) eff,D,G", (eff, d_dbi, gain))

    print("\n# Matched-resonator -10 dB width identity: bw = 2 f0 / (3 Q)")
    dip, bw = dip_and_bandwidth("280e9", q_metal, r_peak_metal, n_sq)
    show("metal bw (GHz)", bw / mpf("1e9"))
    show("2 f0/(3Q) (GHz)", 2 * mpf("280e9") / (3 * q_metal) / mpf("1e9"))

    print("\n# Thin-sheet scattering at 280 GHz")
    for ef, tau in (("1.2", "1.2"), ("0.1", "0.3")):
        r, t, a = thin_sheet(sigma(ef, tau, "280e9"))
        show(f"|r|^2,( {ef}, {tau})", abs(r)**2)
        show(f"|t|^2 ({ef}, {tau})", abs(t)**2)
        show(f"absorption ({ef}, {tau})", a)

    print("\n# Inverse design (280 GHz target, 1.2 eV)")
    lp = inverse_length("280e9", w, "3.5", "50e-6", "1.2", length)
    show("L' (um)", lp * mpf("1e6"))
    show("area ratio", lp / length)
    show("check f_g(L') (GHz)",
         f_graphene(w, lp, "3.5", "50e-6", "1.2") / mpf("1e9"))


if __name__ == "__main__":
    main()
