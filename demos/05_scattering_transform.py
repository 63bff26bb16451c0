"""The scattering transform t(k) and its small-k bound.

Computes the boundary trace of the scattering solution by both linear
formulations, evaluates t(k) along rays toward k = 0, shows the blow-up
on the exceptional circle for a positive perturbation, and the
|t(k)| < C/|ln|k|| bound for a negative one.
"""

import csv

import numpy as np

from faddeev_ep import (
    KPoint,
    PerturbedFamily,
    bound_check,
    make_circle,
    mu_for_family,
    omega_radial_poly,
    sample,
    scatter_t,
    standard_conductive,
    trace_u,
)

nodes = sample(make_circle(1.0), 128)
NU = nodes.length
cond = standard_conductive()
family = PerturbedFamily(cond, omega_radial_poly())

print("== route equivalence of the boundary trace ==")
for r in (1e-3, 0.1, 0.8):
    tr = trace_u(KPoint.from_k(r * np.exp(0.6j)), cond, nodes)
    print(f"|k| = {r:<6} cross-route residual = {tr.residual:.2e}")

print("\n== the conductive transform decays toward k = 0 ==")
rows = []
for r in np.geomspace(1e-4, 1.0, 9):
    kp = KPoint.from_k(r * np.exp(0.6j))
    tv = scatter_t(kp, cond, nodes)
    rows.append((kp, tv))
    print(f"|k| = {r:.1e}  |t(k)| = {abs(tv.t):.3e}")

with open("transform_conductive.csv", "w", newline="") as fh:
    w = csv.writer(fh)
    w.writerow(["k_re", "k_im", "t_re", "t_im", "bound_product"])
    for kp, tv in rows:
        w.writerow([repr(kp.k.real), repr(kp.k.imag), repr(tv.t.real), repr(tv.t.imag),
                    repr(tv.bound_product)])
print("wrote transform_conductive.csv")

print("\n== blow-up on the exceptional circle (lambda = +0.05) ==")
pot_plus = family.at(0.05)
eps_star = mu_for_family(family) * 0.05 / NU
for frac in (0.6, 0.9, 0.99, 1.05, 1.6):
    kp = KPoint.from_eps(frac * eps_star, 0.0, NU)
    try:
        tv = scatter_t(kp, pot_plus, nodes)
        print(f"eps/eps* = {frac:<5} |t| = {abs(tv.t):.3e}")
    except Exception as exc:
        print(f"eps/eps* = {frac:<5} unavailable ({type(exc).__name__}: near the exceptional set)")

print("\n== the logarithmic bound for lambda = -0.05 ==")
pot_minus = family.at(-0.05)
pts = [KPoint.from_polar_log(np.log(r), 0.9) for r in np.geomspace(1e-8, 1e-2, 13)]
rep = bound_check(pot_minus, pts, nodes)
for la, bp in zip(rep.log_abs_k, rep.bound_products):
    print(f"ln|k| = {la:8.2f}   |t| |ln k| = {bp:.4f}")
print(f"sup = {rep.sup:.4f}; increments toward k = 0 non-increasing: {rep.increments_non_increasing}")
