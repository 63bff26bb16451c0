"""The zero-energy Faddeev Green function G_k and its smooth remainder.

Shows the g = g0 + N(kz) split, the dependence on the product kz alone,
the decay of the gauged ratio |G_k e^{-i zeta.z}| sqrt(|k||z|), and dumps
N(w) samples to CSV for heat-map plotting.
"""

import numpy as np
from scipy.special import exp1

from faddeev_ep import KPoint, g0, green_remainder

print("== pointwise evaluation ==")
base, rem = g0(1.0, 1.0), green_remainder(1.0)
print(f"G_1(1)      = {base + rem:+.10f}")
print(f"G_1^0(1)    = {base:+.10f}   (-gamma/2pi)")
print(f"N(1)        = {rem:+.10f}")

print("\n== the remainder depends on kz only ==")
for k, z in ((0.7 + 0.2j, 1.1 - 0.4j), (0.35 + 0.1j, 2.2 - 0.8j)):
    w = k * z
    print(f"k = {k}, z = {z}: N(kz) = {green_remainder(np.array([w]))[0]:.12f}")

print("\n== N vanishes at the origin ==")
for r in (1e-2, 1e-4, 1e-6):
    m = np.max(np.abs(green_remainder(r * np.exp(1j * np.linspace(0, 2 * np.pi, 32)))))
    print(f"max |N| on |w| = {r:.0e}: {m:.2e}")

print("\n== decay of the gauged ratio ==")
# the closed form (1/2pi) Re E1(-ikz): out to |kz| = 250 the split g0 + N cancels to no digits
worst = 0.0
for ka in np.geomspace(0.5, 50, 8):
    for za in np.geomspace(0.1, 5, 8):
        for ph in np.linspace(0, 2 * np.pi, 8, endpoint=False):
            w = ka * np.exp(1j * ph) * za * np.exp(0.7j)
            g = exp1(-1j * w).real / (2 * np.pi)
            worst = max(worst, abs(g) * np.exp(w.imag) * np.sqrt(ka * za))
print(f"max |G_k(z) e^(-i zeta.z)| sqrt(|k||z|) over the grid: {worst:.4f} (a single constant)")

print("\n== sample dump ==")
rr, tt = np.meshgrid(np.geomspace(0.05, 6.0, 40), np.linspace(0, 2 * np.pi, 64, endpoint=False))
ws = (rr * np.exp(1j * tt)).ravel()
np.savetxt("green_remainder.csv", np.column_stack([ws.real, ws.imag, green_remainder(ws)]),
           delimiter=",", header="w_re,w_im,N", comments="", fmt="%.17g")
print(f"wrote green_remainder.csv with {ws.size} samples (w_re, w_im, N)")

print("\n== log-polar spectral parameters ==")
kp = KPoint.from_eps(0.01, 0.0, 2 * np.pi)
print(f"eps = 0.01 on the unit circle means ln|k| = {kp.log_abs:.2f} "
      f"(|k| = {kp.abs:.3e}); the Green split stays exact there: "
      f"g0 = {g0(kp, 1.0):.4f}")
