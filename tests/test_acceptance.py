"""Acceptance suite: the ten exit criteria of the build, A1..A10.

Each test prints one [A*] PASS/FAIL line (run with ``pytest -s`` to see
them all).  Tolerances are pinned here, not deferred: desk scale is the
unit disk at N = 128 with N = 256 for stability checks.

A6/A7 carry a normalization subtlety: the eps-slope of xi =
eig_near_zero is +1, which fixes the Rayleigh normalization, and in that
normalization the lambda-slope is -mu/nu (nu = boundary length = 2pi
here), so the first-order locus is eps* = (mu/nu) lambda.  The
unnormalized forms (locus at mu lambda, slope -mu) are asserted as strict
xfails: the measured artifact excludes them, and the exclusion itself is
asserted as a passing check.
"""

import numpy as np
import pytest

from faddeev_ep.boundary_ops import (
    HMINUS,
    HPLUS,
    BoundaryOperator,
    NearSingularError,
    adjoint_arclength,
    assemble_S,
    assemble_S0,
    block_form,
    weighted_matrix,
)
from faddeev_ep.dtn_maps import assemble_F0, assemble_Fout, assemble_Fout_zero
from faddeev_ep.exceptional import (
    assemble_P,
    criterion,
    fit_xi,
    mu_for_family,
    n_minus,
    parity_path,
    trace_locus,
)
from faddeev_ep.green import KPoint, epsilon_from_log
from faddeev_ep.transform import bound_check, trace_u

NU = 2 * np.pi
MU_RADIAL = np.pi * 15 / 28


def report(tag: str, passed: bool, detail: str) -> None:
    print(f"[{tag}] {'PASS' if passed else 'FAIL'}: {detail}")
    assert passed, f"{tag}: {detail}"


# ---------------------------------------------------------------------------
# A1: operator identities

def test_a1_operator_identities(nodes128):
    f0 = assemble_F0(nodes128)
    worst_resid = 0.0
    worst_cc = 0.0
    for i, r in enumerate(np.geomspace(1e-3, 1.0, 10)):
        kp = KPoint.from_polar_log(np.log(r), (i % 4) * 0.9)
        s = assemble_S(kp, nodes128)
        fo = assemble_Fout(kp, nodes128)
        worst_resid = max(worst_resid, np.linalg.norm((f0.matrix - fo.matrix) @ s.matrix - np.eye(128), 2))
        cc = block_form(assemble_S0(kp, nodes128)).cc
        inv_eps = 1.0 / epsilon_from_log(kp.log_abs, NU)   # negative past |k| = e^-gamma
        worst_cc = max(worst_cc, abs(cc - inv_eps) / abs(inv_eps))
    report("A1", worst_resid < 1e-8 and worst_cc < 1e-10,
           f"max ||(F_0 - F^out)S_k - I|| = {worst_resid:.2e} (< 1e-8), "
           f"max |cc(S_k^0) eps - 1| = {worst_cc:.2e} (< 1e-10)")


# ---------------------------------------------------------------------------
# A2: structure of F^out(0)

def _meanfree_gap(nodes):
    from faddeev_ep.boundary_ops import meanfree_form_gap

    return meanfree_form_gap(assemble_Fout_zero(nodes))


def test_a2_fout_zero_structure(nodes128, nodes256):
    fz = assemble_Fout_zero(nodes128)
    sym = np.max(np.abs(fz.matrix - adjoint_arclength(fz.matrix, nodes128)))
    kills = np.max(np.abs(fz.matrix @ np.ones(128)))
    gap1, gap2 = _meanfree_gap(nodes128), _meanfree_gap(nodes256)
    stable = abs(gap2 - gap1) <= 0.05 * gap1
    report("A2", sym < 1e-8 and kills < 1e-8 and gap1 > 0 and stable,
           f"self-adjointness {sym:.2e} (< 1e-8), F^out(0) 1 = {kills:.2e}, "
           f"gap delta = {gap1:.6f} vs {gap2:.6f} at 2N (within 5%)")


# ---------------------------------------------------------------------------
# A3: smoothing bound on the non-self-adjoint part

def test_a3_smoothing_bound(nodes128):
    ks = np.geomspace(1e-3, 1e-1, 9)
    vals = []
    for i, ka in enumerate(ks):
        kp = KPoint.from_polar_log(np.log(ka), (i % 4) * np.pi / 2)
        fo = assemble_Fout(kp, nodes128)
        dag = (fo.matrix - adjoint_arclength(fo.matrix, nodes128)) / 2
        vals.append(np.linalg.norm(weighted_matrix(BoundaryOperator(dag, HMINUS, HPLUS, nodes128)), 2))
    slope = float(np.polyfit(np.log(ks), np.log(vals), 1)[0])
    report("A3", slope >= 0.9, f"log-log slope of ||(F^out)^dag|| vs |k| = {slope:.3f} (>= 0.9)")


# ---------------------------------------------------------------------------
# A4: absorbing potentials have no exceptional points near the origin

def _absorbing_gap(nodes, absorbing):
    gap = np.inf
    for r in np.geomspace(1e-4, 0.1, 16):
        for phi in np.linspace(0, 2 * np.pi, 16, endpoint=False):
            c = criterion(KPoint.from_polar_log(np.log(r), phi), absorbing, nodes)
            gap = min(gap, c.sigma_min)
    return gap


def test_a4_absorbing_gap(nodes128, nodes256, absorbing):
    gap1 = _absorbing_gap(nodes128, absorbing)
    gap2 = _absorbing_gap(nodes256, absorbing)
    stable = abs(gap2 - gap1) <= 0.05 * gap1
    report("A4", gap1 > 1e-3 and stable,
           f"min sigma_min(A(0,k)) over |k| <= 0.1 (16x16) = {gap1:.4f} (> 1e-3), "
           f"N-doubled {gap2:.4f} (within 5%)")


# ---------------------------------------------------------------------------
# A5: conductive potentials have no exceptional points on the desk annulus

def test_a5_conductive_no_exceptional_points(nodes128, nodes256, conductive):
    # (i) criterion + singular-value detectors where S_k is invertible
    min_a = min_p = np.inf
    for r in np.geomspace(1e-5, 2.0, 12):
        for phi in np.linspace(0, 2 * np.pi, 6, endpoint=False):
            kp = KPoint.from_polar_log(np.log(r), phi)
            c = criterion(kp, conductive, nodes128)
            min_a = min(min_a, c.sigma_min)
            p = assemble_P(kp, conductive, nodes128)
            min_p = min(min_p, np.linalg.svd(p.matrix, compute_uv=False)[-1])
    # (ii) eigenvalue detector across the full annulus (no inversion needed)
    min_eig = np.inf
    bad_counts = 0
    for r in np.geomspace(1e-5, 10.0, 16):
        for phi in np.linspace(0, 2 * np.pi, 6, endpoint=False):
            rec = n_minus(KPoint.from_polar_log(np.log(r), phi), conductive, nodes128)
            min_eig = min(min_eig, float(np.min(np.abs(rec.eigs))))
            bad_counts += rec.n_minus
    # N-doubling stability of the criterion gap on a subgrid
    sub = [KPoint.from_polar_log(np.log(r), 0.7) for r in np.geomspace(1e-4, 2.0, 4)]
    g1 = min(criterion(kp, conductive, nodes128).sigma_min for kp in sub)
    g2 = min(criterion(kp, conductive, nodes256).sigma_min for kp in sub)
    stable = abs(g2 - g1) <= 0.05 * g1
    report("A5", min_a > 0.05 and min_p > 0.5 and min_eig > 0.5 and bad_counts == 0 and stable,
           f"sigma_min(A) >= {min_a:.4f} and sigma_min(P) >= {min_p:.4f} on |k| in [1e-5, 2]; "
           f"min|eig P| = {min_eig:.4f} and n^- = 0 on [1e-5, 10]; "
           f"subgrid gap {g1:.4f} vs {g2:.4f} at 2N")


# ---------------------------------------------------------------------------
# A6: the exceptional locus of positive perturbations

@pytest.fixture(scope="module")
def acceptance_loci(nodes128, radial_family):
    angles = np.linspace(0, 2 * np.pi, 16, endpoint=False)
    return {lam: trace_locus(lam, radial_family, nodes128, angles) for lam in (0.025, 0.05, 0.1)}


def test_a6_locus_radial(acceptance_loci):
    loc = acceptance_loci[0.05]
    closed = not loc.failures and np.all(np.isfinite(loc.eps_star))
    errs = {lam: acceptance_loci[lam].max_ratio_error for lam in (0.025, 0.05, 0.1)}
    trend = errs[0.025] < errs[0.05] < errs[0.1]
    report("A6", closed and loc.max_ratio_error <= 0.3 and trend,
           f"closed locus at lambda=0.05 with max |eps*/((mu/nu)lambda) - 1| = "
           f"{loc.max_ratio_error:.4f} (<= 0.3); errors {errs[0.025]:.4f} < {errs[0.05]:.4f} "
           f"< {errs[0.1]:.4f} decrease with lambda")


def test_a6_locus_nonradial(nodes128, cos_family):
    angles = np.linspace(0, 2 * np.pi, 16, endpoint=False)
    loc = trace_locus(0.05, cos_family, nodes128, angles)
    closed = not loc.failures and np.all(np.isfinite(loc.eps_star))
    err = abs(loc.mean_eps / loc.prediction - 1)
    report("A6-nonradial", closed and err <= 0.3,
           f"closed locus for the cos-theta profile; mean eps vs (mu/nu)lambda off by {err:.4f} (<= 0.3)")


def test_a6_measured_normalization_factor(acceptance_loci):
    """The unnormalized prediction mu*lambda is excluded: it overshoots the
    measured locus by the boundary length nu."""
    loc = acceptance_loci[0.05]
    factor = (loc.mu * loc.lam) / loc.mean_eps
    report("A6-normalization", abs(factor / NU - 1) <= 0.3,
           f"measured (mu lambda)/eps* = {factor:.3f} ~ nu = {NU:.3f}")


@pytest.mark.xfail(strict=True, reason="the measured locus sits at (mu/nu) lambda, not mu lambda; "
                   "see the A6-normalization check")
def test_a6_locus_unnormalized_prediction(acceptance_loci):
    assert np.max(acceptance_loci[0.05].ratio_errors_unnormalized) <= 0.3


# ---------------------------------------------------------------------------
# A7: coefficients of the eigenvalue expansion

@pytest.fixture(scope="module")
def acceptance_fit(nodes128, radial_family):
    lams = np.linspace(-0.05, 0.05, 5)
    epss = np.linspace(0.0, 0.05, 5)
    return fit_xi(radial_family, nodes128, lams, epss)


def test_a7_xi_expansion(acceptance_fit, radial_family):
    muval = mu_for_family(radial_family)
    a_err = abs(acceptance_fit.a / (-muval / NU) - 1)
    b_err = abs(acceptance_fit.b - 1)
    report("A7", a_err <= 0.05 and b_err <= 0.05 and abs(acceptance_fit.xi00) < 1e-6,
           f"a = {acceptance_fit.a:.5f} vs -mu/nu = {-muval / NU:.5f} ({a_err:.2%}); "
           f"b = {acceptance_fit.b:.5f} (off by {b_err:.2%}); xi(0,0) = {acceptance_fit.xi00:.1e}")


@pytest.mark.xfail(strict=True, reason="a = -mu cannot hold in the normalization with b = 1; "
                   "the Green-identity oracle and the parity detector both give -mu/nu")
def test_a7_unnormalized_slope(acceptance_fit, radial_family):
    muval = mu_for_family(radial_family)
    assert acceptance_fit.a == pytest.approx(-muval, rel=0.05)


# ---------------------------------------------------------------------------
# A8: negative perturbations have empty exceptional set

def test_a8_negative_lambda(nodes128, radial_family):
    lam = -0.05
    signs = set()
    for eps in np.geomspace(0.003, 0.3, 10):
        for phi in (0.0, 2.1, 4.4):
            c = criterion(KPoint.from_eps(eps, phi, NU), radial_family.at(lam), nodes128)
            signs.add(float(np.sign(c.eig_near_zero)))
    no_crossing = signs == {1.0}

    pot = radial_family.at(lam)
    pts = [KPoint.from_polar_log(np.log(r), 0.9) for r in np.geomspace(1e-6, 1e-2, 9)]
    rep = bound_check(pot, pts, nodes128)
    refined = [KPoint.from_polar_log(np.log(r), 0.9) for r in np.geomspace(1e-8, 1e-2, 13)]
    rep_fine = bound_check(pot, refined, nodes128)
    bounded = rep.valid and rep.sup < 2.0 and rep_fine.valid and rep_fine.sup < 2.0
    report("A8", no_crossing and bounded and rep.increments_non_increasing
           and rep_fine.increments_non_increasing,
           f"no sign change of eig_near_zero for lambda={lam}; sup |t| |ln k| = {rep.sup:.3f} "
           f"(refined {rep_fine.sup:.3f}, both < 2.0) with non-increasing increments")


# ---------------------------------------------------------------------------
# A9: parity detector agrees with the locus

def test_a9_parity(nodes128, radial_family, conductive, zero_pot, acceptance_loci):
    lam = 0.05
    loc = acceptance_loci[lam]
    eps_star = loc.mean_eps
    inside = n_minus(KPoint.from_eps(0.5 * eps_star, 0.0, NU), radial_family.at(lam), nodes128)
    outside = n_minus(KPoint.from_eps(2.0 * eps_star, 0.0, NU), radial_family.at(lam), nodes128)
    odd_jump = (inside.n_minus - outside.n_minus) % 2 == 1

    verdict = parity_path(inside.k, outside.k, radial_family.at(lam), nodes128)
    lo, hi = verdict.bracket
    cell = hi.eps(NU) - lo.eps(NU)
    bracket_ok = verdict.evidence and (lo.eps(NU) - cell <= eps_star <= hi.eps(NU) + cell)

    nulls = []
    for pot in (zero_pot, conductive):
        v = parity_path(KPoint.from_k(0.01), KPoint.from_k(0.3 + 0.2j), pot, nodes128)
        nulls.append(not v.evidence)
    report("A9", odd_jump and bracket_ok and all(nulls),
           f"n^- jump {inside.n_minus} -> {outside.n_minus} (odd); bracket eps = "
           f"[{lo.eps(NU):.6f}, {hi.eps(NU):.6f}] contains eps* = {eps_star:.6f}; "
           f"null verdicts for the zero and conductive fixtures")


# ---------------------------------------------------------------------------
# A10: route equivalence of the boundary traces

def test_a10_route_equivalence(nodes128, conductive, absorbing, radial_family):
    rng = np.random.default_rng(1234)
    fixtures = [conductive, absorbing, radial_family.at(0.05), radial_family.at(-0.05)]
    worst = 0.0
    done = 0
    while done < 50:
        pot = fixtures[done % len(fixtures)]
        r = np.exp(rng.uniform(np.log(1e-3), 0.0))
        kp = KPoint.from_polar_log(np.log(r), rng.uniform(0, 2 * np.pi))
        try:
            tr = trace_u(kp, pot, nodes128)
        except NearSingularError:  # inadmissible draw (singular sets); redraw
            continue
        worst = max(worst, tr.residual)
        done += 1
    report("A10", worst < 1e-6,
           f"max relative route disagreement over 50 admissible pairs = {worst:.2e} (< 1e-6)")
