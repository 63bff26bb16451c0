"""The zero-energy Faddeev Green function G_k and its smooth remainder.

G_k is taken in its closed form (1/2pi) Re E1(-ikz) through scipy's exp1.
Shows the split G_k = G_k^0 + N(kz), the dependence of N on the product kz
alone, the decay of the gauged ratio |G_k e^{-i zeta.z}| sqrt(|k||z|), a few
entries of the single layer S_k that ``assemble_S`` forms by its own
Gauss-Legendre rule for N, printed against exp1, and dumps N(w) samples to
CSV for heat-map plotting.
"""

import numpy as np
from scipy.special import exp1

from faddeev_ep import EULER_GAMMA, KPoint, assemble_S, assemble_S0, make_kite, sample


def green(k, z):
    """G_k(z) = (1/2pi) Re E1(-ikz)."""
    return exp1(-1j * KPoint.from_k(k).kz(z)).real / (2 * np.pi)


def log_part(k, z):
    """G_k^0(z) = -(1/2pi) (ln|z| + gamma + ln|k|)."""
    return -(np.log(np.abs(z)) + EULER_GAMMA + KPoint.from_k(k).log_abs) / (2 * np.pi)


def remainder(w):
    """N(w) = (1/2pi) (gamma + ln|s| + Re E1(s)), s = -iw, with N(0) = 0."""
    s = -1j * np.asarray(w, dtype=complex)
    out = np.zeros(s.shape)
    nz = s != 0
    out[nz] = (EULER_GAMMA + np.log(np.abs(s[nz])) + exp1(s[nz]).real) / (2 * np.pi)
    return out


print("== pointwise evaluation ==")
g, base = green(1.0, 1.0), log_part(1.0, 1.0)
print(f"G_1(1)      = {g:+.10f}")
print(f"G_1^0(1)    = {base:+.10f}   (-gamma/2pi)")
print(f"N(1)        = {g - base:+.10f}")

print("\n== the remainder depends on kz only ==")
for k, z in ((0.7 + 0.2j, 1.1 - 0.4j), (0.35 + 0.1j, 2.2 - 0.8j)):
    print(f"k = {k}, z = {z}: G_k(z) - G_k^0(z) = {green(k, z) - log_part(k, z):.12f}")

print("\n== N vanishes at the origin ==")
for r in (1e-2, 1e-4, 1e-6):
    m = np.max(np.abs(remainder(r * np.exp(1j * np.linspace(0, 2 * np.pi, 32)))))
    print(f"max |N| on |w| = {r:.0e}: {m:.2e}")

print("\n== decay of the gauged ratio ==")
# out to |kz| = 250 the split G_k^0 + N cancels to no digits; the closed form does not
worst = 0.0
for ka in np.geomspace(0.5, 50, 8):
    for za in np.geomspace(0.1, 5, 8):
        for ph in np.linspace(0, 2 * np.pi, 8, endpoint=False):
            w = ka * np.exp(1j * ph) * za * np.exp(0.7j)
            g = exp1(-1j * w).real / (2 * np.pi)
            worst = max(worst, abs(g) * np.exp(w.imag) * np.sqrt(ka * za))
print(f"max |G_k(z) e^(-i zeta.z)| sqrt(|k||z|) over the grid: {worst:.4f} (a single constant)")

print("\n== S_k entries: assemble_S's Gauss-Legendre rule against exp1 ==")
# S_k = S_k^0 + (2pi/N) N(k(z_i - z_j)) |z'(t_j)| on the kite at N = 64
nodes = sample(make_kite(), 64)
for kp in (KPoint.from_k(0.05 + 0.02j), KPoint.from_k(2.0 * np.exp(1.9j))):
    s_k, s_k0 = assemble_S(kp, nodes).matrix, assemble_S0(kp, nodes).matrix
    for i, j in ((0, 0), (5, 40), (17, 18), (63, 31)):
        ref = s_k0[i, j] + (2 * np.pi / 64) * nodes.speed[j] * remainder(kp.kz(nodes.z[i] - nodes.z[j]))
        print(f"|k| = {kp.abs:.3g}, S_k[{i:2d}, {j:2d}] = {s_k[i, j]:+.15f}   "
              f"exp1: {ref:+.15f}   diff {abs(s_k[i, j] - ref):.1e}")

print("\n== sample dump ==")
rr, tt = np.meshgrid(np.geomspace(0.05, 6.0, 40), np.linspace(0, 2 * np.pi, 64, endpoint=False))
ws = (rr * np.exp(1j * tt)).ravel()
np.savetxt("remainder_N.csv", np.column_stack([ws.real, ws.imag, remainder(ws)]),
           delimiter=",", header="w_re,w_im,N", comments="", fmt="%.17g")
print(f"wrote remainder_N.csv with {ws.size} samples (w_re, w_im, N)")

print("\n== log-polar spectral parameters ==")
kp = KPoint.from_eps(0.01, 0.0, 2 * np.pi)
print(f"eps = 0.01 on the unit circle means ln|k| = {kp.log_abs:.2f} "
      f"(|k| = {kp.abs:.3e}); the Green split stays exact there: "
      f"G_k^0(1) = {log_part(kp, 1.0):.4f}")
