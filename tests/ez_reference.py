"""Exact BER by the closed-form pointing integral, averaged over turbulence.

Conditioned on the turbulence gain h_a, the pointing loss h_p / A0 = t has
density g t^(g - 1) on [0, 1] with g = gamma^2, and integrating
0.5 erfc(a t) against it by parts gives

    0.5 erfc(a) + 0.5 a^(-g) gamma_lower((g + 1) / 2, a^2) / sqrt(pi),

with a = c A0 h_l h_a. Averaging that over h_a = exp(2 sigma_X Z - 2 sigma_X^2),
Z standard normal, gives the exact BER without the package's log-gain
variable, windows or quadrature. mpmath integrates over Z in [-40, 40] at
``DPS`` digits, split every ``step`` from ``offset`` and at the Z where a = 1;
a value is kept only where two split sets agree to 1e-20. mpmath's gammainc
does not converge at gamma^2 of about 1e6 (pointing near 1 mm on the presets'
beam), so such links need another reference.

Run ``PYTHONPATH=src python tests/ez_reference.py`` to print the references
that ``tests/test_ber.py`` pins (about a minute).
"""

import mpmath as mp

from fso_ber import PRESETS, LinkParams, dbm_to_watts, derive

DPS = 40
SPLITS = ((0.5, 0.0), (0.37, 0.13))  # (step, offset) of the two split sets

# (label, link fields, dBm)
POINTS = (
    ("case1", PRESETS["case1"], 15.5),
    ("case1", PRESETS["case1"], 16.0),
    ("1 cm, rytov 0.1", dict(PRESETS["case1"], pointing_std_m=0.01, rytov_variance=0.1), 12.0),
)


def ez_reference(fields: dict, p_dbm: float, step: float, offset: float) -> mp.mpf:
    link = LinkParams(**fields)
    d = derive(link)
    with mp.workdps(DPS):
        g = mp.mpf(d.gamma_sq)
        sx = mp.sqrt(mp.mpf(d.sigma_x_sq))
        c = (mp.mpf(link.responsivity_a_per_w) * mp.mpf(dbm_to_watts(p_dbm))
             / (mp.sqrt(2) * mp.mpf(link.noise_std)))
        peak = c * mp.mpf(d.a0) * mp.mpf(d.h_l)

        def f(z):
            a = peak * mp.exp(2 * sx * z - 2 * sx**2)
            pointing = mp.erfc(a) / 2 + mp.gammainc((g + 1) / 2, 0, a * a) / (
                2 * a**g * mp.sqrt(mp.pi))
            return mp.npdf(z) * pointing

        lo, hi = mp.mpf(-40), mp.mpf(40)
        z_a1 = (2 * sx**2 - mp.log(peak)) / (2 * sx)
        pts = {lo, hi}
        z = lo + offset
        while z < hi:
            if z > lo:
                pts.add(z)
            z += step
        if lo < z_a1 < hi:
            pts.add(z_a1)
        return mp.quad(f, sorted(pts))


def main() -> None:
    for label, fields, p_dbm in POINTS:
        first, second = (ez_reference(fields, p_dbm, *split) for split in SPLITS)
        with mp.workdps(DPS):
            agree = abs(first - second) <= mp.mpf(10) ** -20 * abs(first)
        print(f"{label}, {p_dbm} dBm: {mp.nstr(first, 15)} (splits agree: {agree})")


if __name__ == "__main__":
    main()
