"""Locating exceptional points with all three detectors.

For the radially perturbed conductive fixture n + lambda omega the
exceptional set is a near-circle in the k-plane at eps ~ (mu/nu) lambda.
This script traces it with the kernel criterion, cross-checks with the
negative-eigenvalue parity counter, fits the eigenvalue expansion
xi = a lambda + b eps, and writes the locus to CSV.
"""

import numpy as np

from faddeev_ep import (
    KPoint,
    PerturbedFamily,
    criterion,
    fit_xi,
    make_circle,
    mu_for_family,
    n_minus,
    omega_radial_poly,
    parity_path,
    sample,
    standard_conductive,
    trace_locus,
)
from faddeev_ep.exceptional import scan, scan_to_csv

nodes = sample(make_circle(1.0), 128)
NU = nodes.length
family = PerturbedFamily(standard_conductive(), omega_radial_poly())
LAM = 0.05
N_LAM = family.at(LAM)   # the detectors take this one potential, n + LAM omega

muval = mu_for_family(family)
print(f"mu = int omega q dS = {muval:.6f}; first-order locus eps* = (mu/nu) lambda "
      f"= {muval * LAM / NU:.6f} at lambda = {LAM}")

print("\n== detector (i): kernel criterion along a ray ==")
for eps in (0.005, 0.012, 0.0135, 0.016, 0.04):
    c = criterion(KPoint.from_eps(eps, 0.0, NU), N_LAM, nodes)
    print(f"eps = {eps:<7} sigma_min(A) = {c.sigma_min:.2e}  eig_near_zero = {c.eig_near_zero:+.5f}  "
          f"kernel dim = {c.kernel_dim_estimate}")

print("\n== root-finding the locus over 16 angles ==")
locus = trace_locus(LAM, family, nodes, np.linspace(0, 2 * np.pi, 16, endpoint=False))
print(f"eps*(phi): mean = {locus.mean_eps:.6f}, spread = "
      f"{np.max(locus.eps_star) - np.min(locus.eps_star):.2e}")
print(f"max |eps*/prediction - 1| = {locus.max_ratio_error:.4f}")
print(f"the circle radius: ln|k*| = {locus.log_abs_k()[0]:.2f} (|k*| ~ e^{locus.log_abs_k()[0]:.0f})")

print("\n== detector (iii): parity counter across the circle ==")
k_in = KPoint.from_eps(0.5 * locus.mean_eps, 0.0, NU)
k_out = KPoint.from_eps(2.0 * locus.mean_eps, 0.0, NU)
rec_in, rec_out = n_minus(k_in, N_LAM, nodes), n_minus(k_out, N_LAM, nodes)
print(f"n^-(inside) = {rec_in.n_minus}, n^-(outside) = {rec_out.n_minus} (parity jump)")
verdict = parity_path(k_in, k_out, N_LAM, nodes)
lo, hi = verdict.bracket
print(f"bisection brackets the crossing at eps in [{lo.eps(NU):.6f}, {hi.eps(NU):.6f}]")

print("\n== detector (ii): eigenvalue expansion fit ==")
xi = fit_xi(family, nodes, np.linspace(-0.05, 0.05, 5), np.linspace(0, 0.05, 5))
print(f"xi ~ a lambda + b eps with a = {xi.a:.5f} (-mu/nu = {-muval / NU:.5f}), "
      f"b = {xi.b:.5f}; fit residual {xi.residual:.1e}")

print("\n== serialize a scan around the locus ==")
points = [KPoint.from_eps(e, p, NU)
          for e in np.linspace(0.006, 0.03, 9)
          for p in np.linspace(0, 2 * np.pi, 4, endpoint=False)]
results = scan(points, N_LAM, nodes)
scan_to_csv(results, "locus_scan.csv")
flagged = [r for r in results if r.flags]
print(f"wrote locus_scan.csv ({len(results)} rows, {len(flagged)} flagged near-exceptional)")
