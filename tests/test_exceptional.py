import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import perfbench_workloads
from faddeev_ep import boundary_ops, dtn_maps, exceptional
from faddeev_ep.boundary_ops import KWorkspace, NearSingularError, assemble_S, invert_S, weighted_matrix
from faddeev_ep.dtn_maps import PerturbedFamily, standard_conductive
from faddeev_ep.exceptional import (
    PARITY_RESOLUTION,
    LocusResult,
    assemble_A,
    assemble_P,
    criterion,
    fit_xi,
    fn_minus_f0,
    mu,
    mu_for_family,
    n_minus,
    parity_path,
    scan,
    scan_to_csv,
    trace_locus,
)
from faddeev_ep.geometry import NodeSet, make_circle, sample
from faddeev_ep.green import EULER_GAMMA, KPoint, gauss_legendre, log_abs_k_from_eps

NU = 2 * np.pi  # unit-disk boundary length

# first-order locus prediction for the radial fixture:
# mu = int (1-r^2)^3 (1 + 2(1-r^2)^3) dS = pi (1/4 + 2/7) = pi 15/28
MU_RADIAL = np.pi * 15 / 28


# ---------------------------------------------------------------------------
# mu

def test_gauss_legendre_rule_matches_numpy_leggauss():
    """The one Gauss-Legendre rule (Newton steps on P_n, w = 2/((1 - x^2) P_n'(x)^2)), for mu's
    MU_RADII and every order of assemble_S's Ein table, against numpy's leggauss: nodes to
    rounding (measured 1.1e-16), weights to 1e-10 relative (2.2e-11 at n = 200, leggauss's own
    error at the end nodes; 1.1e-13 at n = 24), and polynomials up to degree 2n - 1 integrated to
    rounding (8.9e-16).  Against the rule at 40 digits (mpmath: three Newton steps on P_n from each
    node) the weights agree to 5.8e-14 relative, the end weights of n = 200 included."""
    import mpmath
    from numpy.polynomial.legendre import leggauss

    for n in (exceptional.MU_RADII, *(m for _, m in boundary_ops._EIN_ORDERS)):
        x, w = gauss_legendre(n)
        x0, w0 = leggauss(n)
        assert np.max(np.abs(x - x0)) <= 1e-15
        assert np.max(np.abs(w - w0) / w0) <= 1e-10

        def legendre(t):
            """(P_n(t), P_n'(t)) by the three-term recurrence in mpmath."""
            p0, p1 = mpmath.mpf(1), t
            for k in range(1, n):
                p0, p1 = p1, ((2 * k + 1) * t * p1 - k * p0) / (k + 1)
            return p1, n * (t * p1 - p0) / (t * t - 1)

        with mpmath.workdps(40):
            for i in sorted({0, 1, 2, 3, n // 2, n - 4, n - 3, n - 2, n - 1} & set(range(n))):
                t = mpmath.mpf(float(x[i]))
                for _ in range(3):
                    p, dp = legendre(t)
                    t -= p / dp
                assert abs(w[i] / float(2 / ((1 - t * t) * legendre(t)[1] ** 2)) - 1) <= 1e-13
        exact = [2.0 / (k + 1) if k % 2 == 0 else 0.0 for k in range(2 * n)]
        assert max(abs(np.sum(w * x**k) - e) for k, e in enumerate(exact)) <= 1e-14
        assert gauss_legendre(n)[0] is x   # once per process
        assert not x.flags.writeable and not w.flags.writeable


def test_gauss_legendre_calls_no_lapack(monkeypatch):
    """The nodes come from Newton steps alone, so assemble_S, which interior256 calls, maps no
    eigensolver code: in a fresh process one 8 x 8 eigvalsh raised the peak RSS by 0.6-0.8 MB."""
    def refuse(*args, **kwargs):
        raise AssertionError("LAPACK called")

    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    monkeypatch.setattr(np.linalg, "eigh", refuse)
    x, w = gauss_legendre.__wrapped__(37)
    assert np.all(np.diff(x) > 0) and abs(np.sum(w) - 2.0) <= 1e-14


def test_mu_constant_profile():
    val = mu(lambda z: np.ones(np.shape(z)), lambda r: np.ones(np.shape(r)))
    assert val == pytest.approx(np.pi, rel=1e-12)


def test_mu_radial_profile():
    val = mu(lambda z: 1 - np.abs(z) ** 2, lambda r: np.ones(np.shape(r)))
    assert val == pytest.approx(np.pi / 2, rel=1e-12)


def test_mu_zero_mean_flagged():
    def omega(z):
        z = np.asarray(z, dtype=complex)
        r = np.abs(z)
        return (1 - r**2) * np.where(r > 0, z.real / np.maximum(r, 1e-300), 0.0)

    with pytest.warns(UserWarning):
        val = mu(omega, lambda r: np.ones(np.shape(r)))
    assert abs(val) < 1e-12


def test_mu_radial_fixture(radial_family):
    assert mu_for_family(radial_family) == pytest.approx(MU_RADIAL, rel=1e-10)


# ---------------------------------------------------------------------------
# kernel criterion

def test_conductive_gap(nodes128, conductive):
    """No exceptional points for the conductive fixture: sigma_min(A) has a gap."""
    gap = np.inf
    for r in np.geomspace(1e-3, 1.0, 6):
        for phi in np.linspace(0, 2 * np.pi, 8, endpoint=False):
            c = criterion(KPoint.from_polar_log(np.log(r), phi), conductive, nodes128)
            gap = min(gap, c.sigma_min)
            assert c.kernel_dim_estimate == 0
    assert gap > 0.05  # measured 0.158 on this grid


def test_eig_near_zero_is_plus_eps_at_lambda_zero(nodes128, conductive):
    """xi(0, eps) = +eps + O(eps^2): the constants block of F^out is -eps and
    A = F_n - F^out flips its sign."""
    for eps in [0.05, 0.02]:
        kp = KPoint.from_eps(eps, 0.3, NU)
        c = criterion(kp, conductive, nodes128)
        assert c.eig_near_zero == pytest.approx(eps, rel=5e-3)


def test_absorbing_imaginary_form(nodes128, absorbing):
    """Im(F_n u, u) <= -c ||u||^2: the sign-definiteness behind the
    absorbing no-exceptional-point region."""
    from faddeev_ep.dtn_maps import assemble_Fn

    fa = assemble_Fn(nodes128, absorbing).matrix
    rng = np.random.default_rng(3)
    for _ in range(20):
        u = rng.standard_normal(128) + 1j * rng.standard_normal(128)
        qf = np.imag(np.sum(nodes128.weights * (fa @ u) * np.conj(u)))
        norm2 = np.sum(nodes128.weights * np.abs(u) ** 2)
        assert qf <= -0.01 * norm2


def test_A_builder_is_the_papers_A(nodes128, cos_family):
    """assemble_A forms (F_n - F_0) + S_k^{-1} in place; it is A(k) = F_n - F^out(k) with
    F^out(k) = F_0 - S_k^{-1}."""
    pot = cos_family.at(0.05)
    ws = KWorkspace(KPoint.from_k(0.4 - 0.1j), nodes128)
    a = assemble_A(ws, pot, nodes128).matrix
    ref = dtn_maps.assemble_Fn(nodes128, pot).matrix - dtn_maps.assemble_Fout(ws, nodes128).matrix
    assert np.max(np.abs(a - ref)) <= 1e-13 * np.max(np.abs(a))


def test_D_builder_returns_a_fresh_array(nodes128, conductive):
    """F_n - F_0 comes back writable and unshared: writing into it leaves the cached,
    read-only F_n and F_0 as they were."""
    fn, f0 = dtn_maps.assemble_Fn(nodes128, conductive).matrix, dtn_maps.assemble_F0(nodes128).matrix
    before = fn.copy(), f0.copy()
    d = fn_minus_f0(conductive, nodes128)
    assert d.flags.writeable and not np.shares_memory(d, fn) and not np.shares_memory(d, f0)
    d += 1.0
    np.testing.assert_array_equal(fn, before[0])
    np.testing.assert_array_equal(f0, before[1])
    assert not fn.flags.writeable
    np.testing.assert_array_equal(fn_minus_f0(conductive, nodes128), fn - f0)


def test_criterion_propagates_ed_refusal(nodes128, conductive):
    with pytest.raises(NearSingularError):
        criterion(KPoint.from_k(4.437), conductive, nodes128)


# ---------------------------------------------------------------------------
# scans

def test_scan_records_and_serializes(tmp_path, nodes128, conductive):
    pts = [KPoint.from_k(0.1), KPoint.from_k(0.5j), KPoint.from_k(4.437)]
    results = scan(pts, conductive, nodes128)
    assert len(results) == 3
    assert results[0].sigma_min_A is not None and results[0].n_minus == 0
    assert "ed_refused" in results[2].flags
    path = tmp_path / "scan.csv"
    scan_to_csv(results, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0].startswith("k_re,k_im,eps,sigma_min_A")
    assert len(lines) == 4


def test_scan_rows_equal_separate_detector_calls(nodes128, radial_family):
    """One S_k per point gives, bit for bit, what separate detector calls give,
    at a regular k and at a k on the refused |k| = 4 ring."""
    lam = 0.05
    regular, refused = KPoint.from_k(0.3 + 0.2j), KPoint.from_k(4.0)
    row_ok, row_ed = scan([regular, refused], radial_family.at(lam), nodes128)

    crit = criterion(regular, radial_family.at(lam), nodes128)
    assert (row_ok.sigma_min_A, row_ok.eig_near_zero) == (crit.sigma_min, crit.eig_near_zero)
    shared = criterion(KWorkspace.at(regular, nodes128), radial_family.at(lam), nodes128)
    np.testing.assert_array_equal(shared.a_weighted, crit.a_weighted)
    with pytest.raises(NearSingularError):
        criterion(refused, radial_family.at(lam), nodes128)
    assert row_ed.sigma_min_A is None and "ed_refused" in row_ed.flags
    for row, kp in ((row_ok, regular), (row_ed, refused)):
        rec = n_minus(kp, radial_family.at(lam), nodes128)
        p = assemble_P(kp, radial_family.at(lam), nodes128).matrix
        np.testing.assert_array_equal(rec.p.matrix, p)
        assert row.n_minus == rec.n_minus
        assert row.sigma_min_P == float(np.linalg.svd(p, compute_uv=False)[-1])


def test_perturbed_sign_change_encircles_origin(nodes128, radial_family):
    """lambda > 0: eig_near_zero changes sign along every ray toward 0."""
    lam = 0.05
    for phi in np.linspace(0, 2 * np.pi, 4, endpoint=False):
        inner = criterion(KPoint.from_eps(0.004, phi, NU), radial_family.at(lam), nodes128)
        outer = criterion(KPoint.from_eps(0.05, phi, NU), radial_family.at(lam), nodes128)
        assert inner.eig_near_zero < 0 < outer.eig_near_zero


def test_negative_lambda_no_sign_change(nodes128, radial_family):
    lam = -0.05
    signs = set()
    for eps in np.linspace(0.004, 0.3, 8):
        for phi in (0.0, 2.1):
            c = criterion(KPoint.from_eps(eps, phi, NU), radial_family.at(lam), nodes128)
            signs.add(np.sign(c.eig_near_zero))
    assert signs == {1.0}


# ---------------------------------------------------------------------------
# locus tracing

@pytest.fixture(scope="module")
def locus_005(nodes128, radial_family):
    angles = np.linspace(0, 2 * np.pi, 8, endpoint=False)
    return trace_locus(0.05, radial_family, nodes128, angles)


def test_locus_radial_constant_in_angle(locus_005):
    assert not locus_005.failures
    spread = np.max(locus_005.eps_star) - np.min(locus_005.eps_star)
    assert spread < 0.01 * locus_005.mean_eps


def test_locus_matches_first_order_prediction(locus_005):
    assert locus_005.prediction == pytest.approx(MU_RADIAL * 0.05 / NU, rel=1e-9)
    assert locus_005.max_ratio_error <= 0.3


def test_locus_excludes_unnormalized_prediction(locus_005):
    """The measured locus sits at (mu/nu) lambda; the mu-lambda value
    (without the 1/nu of the Rayleigh normalization) is off by ~ nu."""
    assert np.all(locus_005.ratio_errors_unnormalized > 0.5)
    ratio = (MU_RADIAL * 0.05) / locus_005.mean_eps
    assert ratio == pytest.approx(NU, rel=0.05)


def test_locus_error_decreases_with_lambda(nodes128, radial_family, locus_005):
    angles = np.linspace(0, 2 * np.pi, 4, endpoint=False)
    errs = {0.05: locus_005.max_ratio_error}
    for lam in (0.025, 0.1):
        errs[lam] = trace_locus(lam, radial_family, nodes128, angles).max_ratio_error
    assert errs[0.025] < errs[0.05] < errs[0.1]


def test_locus_radius_formula(locus_005):
    """|k*| = exp(-2pi/(nu eps*) - gamma): the exceptional circle radius."""
    expected = -EULER_GAMMA - 2 * np.pi / (NU * locus_005.eps_star)
    np.testing.assert_allclose(locus_005.log_abs_k(), expected, rtol=1e-12)


def test_locus_nonradial(nodes128, cos_family):
    angles = np.linspace(0, 2 * np.pi, 8, endpoint=False)
    loc = trace_locus(0.05, cos_family, nodes128, angles)
    assert loc.rays_traced == 8 and not loc.failures   # declares nothing; bandwidth 1 traces every angle
    assert np.all(np.isfinite(loc.eps_star))
    assert abs(loc.mean_eps / loc.prediction - 1) <= 0.3


def test_locus_evaluates_each_k_once_per_ray(nodes128, radial_family, monkeypatch):
    """The root-find starts from the bracket ends, which are not evaluated again, and
    spends no more evaluations than brentq did on this ray (4, two of them the ends)."""
    ks = []

    def counted(*args, **kwargs):
        ks.append((args[0].log_abs, args[0].phi))
        return criterion(*args, **kwargs)

    monkeypatch.setattr(exceptional, "criterion", counted)
    loc = trace_locus(0.05, radial_family, nodes128, [0.0])
    assert not loc.failures
    assert 3 <= len(ks) == len(set(ks)) <= 4


def _root_find(f, a, b, xtol):
    """exceptional._bracketed_root from the evaluated ends, with every point it evaluates."""
    xs = []

    def g(x):
        xs.append(x)
        return f(x)

    return exceptional._bracketed_root(g, a, f(a), b, f(b), xtol), xs


@pytest.mark.parametrize("f", [lambda x: np.tanh(40 * (x - 0.3)) + 0.1 * (x - 0.3), lambda x: x**3 - 0.2],
                         ids=["tanh", "cubic"])
@pytest.mark.parametrize("xtol", [1e-3, 1e-6, 1e-10])
def test_root_find_lands_within_xtol_of_brentq(f, xtol):
    """Within xtol of brentq's root (at 1e-15), with no point evaluated twice or outside the bracket."""
    from scipy.optimize import brentq

    for a, b in ((0.0, 1.0), (1.0, 0.0)):
        x, xs = _root_find(f, a, b, xtol)
        assert abs(x - brentq(f, 0.0, 1.0, xtol=1e-15)) <= xtol
        assert len(set(xs)) == len(xs) and all(0.0 < p < 1.0 for p in xs)


@pytest.mark.parametrize("xtol", [1e-3, 1e-6, 1e-10])
def test_root_find_bounds_its_evaluations_where_false_position_stalls(xtol):
    """(x - 0.7)^9 keeps one end of a false-position bracket fixed; the bisection
    fallback caps the count at 2 ceil(log2((b - a) / xtol)) + 2 (a rule that bisects
    only after two steps in a row have not halved the bracket takes 51 > 42 at 1e-6)."""
    x, xs = _root_find(lambda x: (x - 0.7) ** 9, 0.0, 1.0, xtol)
    assert abs(x - 0.7) <= xtol
    assert len(xs) <= 2 * int(np.ceil(np.log2(1.0 / xtol))) + 2
    assert len(set(xs)) == len(xs) and all(0.0 < p < 1.0 for p in xs)


def _check_fan_out(family, nodes, monkeypatch):
    """One ray root-found and its eps* fanned out; it equals, to 1e-12, the per-ray
    trace of the same n with the fan-out off."""
    angles = np.array([0.3, 1.7, 2.0 + np.pi / 128, 4.0])
    ks = []

    def counted(*args, **kwargs):
        ks.append(args[0])
        return criterion(*args, **kwargs)

    monkeypatch.setattr(exceptional, "criterion", counted)
    fanned = trace_locus(0.05, family, nodes, angles)
    assert fanned.rays_traced == 1 and not fanned.failures
    assert {k.phi for k in ks} == {0.3}
    assert np.all(fanned.eps_star == fanned.eps_star[0])

    ks.clear()
    monkeypatch.setattr(dtn_maps, "fn_supported", lambda nodes: True)   # F_n reads centred_circle too
    monkeypatch.setattr(NodeSet, "centred_circle", property(lambda self: False))
    per_ray = trace_locus(0.05, family, nodes, angles)
    assert per_ray.rays_traced == 4 and not per_ray.failures
    assert len({round(k.phi, 12) for k in ks}) == 4
    np.testing.assert_allclose(fanned.eps_star, per_ray.eps_star, rtol=1e-12)


def test_radial_locus_fans_one_ray_out_to_every_angle(nodes128, radial_family, monkeypatch):
    """For a radial n on the centred circle one ray is root-found and fanned out."""
    _check_fan_out(radial_family, nodes128, monkeypatch)


def test_fan_out_is_detected_from_the_samples(nodes128, monkeypatch):
    """A family from a hand-built radial omega declares nothing; the angular bandwidth 0
    of its samples alone makes trace_locus fan one ray out."""
    def omega(z):
        return np.maximum(1 - np.abs(np.asarray(z)) ** 2, 0.0) ** 2

    _check_fan_out(PerturbedFamily(standard_conductive(), omega), nodes128, monkeypatch)


@pytest.mark.parametrize("seed", [0, 7])
def test_each_scan_point_assembles_and_refuses_on_its_own(nodes128, cos_family, monkeypatch, seed):
    """Each scan point builds its own Ein factors and S_k once and inverts that S_k, and its row is
    what criterion and n_minus give at that point.  On the scan workload's two outer rings, at its
    angle offsets for seeds 0 and 7, every |k| = 4 point refuses E_D from its own measure 1/cond_1
    (below 1e-6), and no |k| = 2.30 point does (measured 6.7e-6 at every angle)."""
    pot = cos_family.at(0.05)
    offset = perfbench_workloads().rotation(seed)
    radii = np.geomspace(1e-3, 4.0, 16)[-2:]
    pts = [KPoint.from_k(r * np.exp(1j * (offset + 2 * np.pi * j / 8))) for r in (0.3, *radii) for j in range(8)]
    calls, inversions, factors = [], [], []
    ein_factors = boundary_ops._ein_factors
    monkeypatch.setattr(boundary_ops, "_ein_factors", lambda kp, nodes: factors.append(kp) or ein_factors(kp, nodes))
    monkeypatch.setattr(boundary_ops, "assemble_S", lambda k, nodes: calls.append(k) or assemble_S(k, nodes))
    monkeypatch.setattr(boundary_ops, "invert_S", lambda k, s: inversions.append(k) or invert_S(k, s))
    rows = scan(pts, pot, nodes128)
    assert calls == inversions == factors == pts   # one Ein factor build per point, shared by S_k^{-1} and P(k)
    monkeypatch.undo()
    for kp, row in zip(pts, rows):
        assert row.k == kp
        rec = n_minus(kp, pot, nodes128)
        assert row.n_minus == rec.n_minus
        if abs(kp.k) > 3:
            with pytest.raises(NearSingularError) as exc:
                criterion(kp, pot, nodes128)
            assert exc.value.k == kp and exc.value.sigma_min / exc.value.norm < 1e-6
            assert row.sigma_min_A is None and "ed_refused" in row.flags
            continue
        ws = KWorkspace(kp, nodes128)
        s_hat, inv_hat = weighted_matrix(ws.s), weighted_matrix(ws.inverse)
        assert 1.0 / (np.linalg.norm(s_hat, 1) * np.linalg.norm(inv_hat, 1)) >= 5e-6
        crit = criterion(kp, pot, nodes128)
        assert row.sigma_min_A == pytest.approx(crit.sigma_min, rel=1e-12)
        assert row.eig_near_zero == pytest.approx(crit.eig_near_zero, rel=1e-11)
        assert row.flags == ()


def test_locus_rejects_bad_lambda(radial_family, nodes128):
    with pytest.raises(ValueError):
        trace_locus(-0.05, radial_family, nodes128, [0.0])
    with pytest.raises(ValueError):
        trace_locus(0.5, radial_family, nodes128, [0.0])


# ---------------------------------------------------------------------------
# xi expansion fit

@pytest.fixture(scope="module")
def xi_fit_005(nodes128, radial_family):
    lams = np.linspace(-0.05, 0.05, 5)
    epss = np.linspace(0.0, 0.05, 5)
    return fit_xi(radial_family, nodes128, lams, epss)


def test_xi_anchor_and_coefficients(xi_fit_005):
    assert abs(xi_fit_005.xi00) < 1e-6
    assert xi_fit_005.b == pytest.approx(1.0, abs=0.05)
    assert xi_fit_005.a == pytest.approx(-MU_RADIAL / NU, rel=0.05)


@pytest.mark.xfail(strict=True, reason="the lambda-slope of xi = eig_near_zero is -mu/nu "
                   "(Rayleigh normalization fixed by the eps-slope b = 1); -mu itself is "
                   "excluded by the Green-identity oracle and by the parity detector")
def test_xi_lambda_slope_equals_minus_mu_unnormalized(xi_fit_005):
    assert xi_fit_005.a == pytest.approx(-MU_RADIAL, rel=0.05)


def test_xi_residual_quadratic_scaling(nodes128, radial_family, xi_fit_005):
    """Halving the grid extents shrinks the linear-fit residual ~4x."""
    lams = np.linspace(-0.025, 0.025, 5)
    epss = np.linspace(0.0, 0.025, 5)
    half = fit_xi(radial_family, nodes128, lams, epss)
    ratio = xi_fit_005.residual / half.residual
    assert 2.0 < ratio < 8.0


def test_fit_xi_assembles_S_once_per_nonzero_eps(radial_family, monkeypatch):
    """S_k does not depend on lambda: a 3 x 3 grid needs two S_k and two S_k^{-1}, not six; each
    inverse is the update of the one S_k its workspace assembled."""
    calls, inversions = [], []
    assemble_S = boundary_ops.assemble_S
    monkeypatch.setattr(boundary_ops, "assemble_S", lambda k, nodes: calls.append(k) or assemble_S(k, nodes))
    monkeypatch.setattr(boundary_ops, "invert_S", lambda k, s: inversions.append(k) or invert_S(k, s))
    fit_xi(radial_family, sample(make_circle(1.0), 64), [-0.02, 0.0, 0.02], [0.0, 0.01, 0.02])
    assert len(inversions) == 2 and calls == inversions


def test_fit_xi_samples_are_the_criterion_eig_near_zero(radial_family):
    """xi has one evaluation path: each sample at eps > 0 is criterion's eig_near_zero at that
    (lambda, eps) on the ray arg k = 0, bit for bit."""
    nodes = sample(make_circle(1.0), 64)
    curve = fit_xi(radial_family, nodes, [-0.02, 0.0, 0.02], [0.0, 0.01, 0.02])
    positive = [(lam, eps, xi) for lam, eps, xi in curve.samples if eps > 0]
    assert len(positive) == 6
    for lam, eps, xi in positive:
        k = KPoint.from_eps(eps, 0.0, nodes.length)
        assert xi == criterion(k, radial_family.at(lam), nodes).eig_near_zero


def test_fit_xi_makes_no_eigenvector_decomposition(radial_family, monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return eigh(*args, **kwargs)

    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", counted)
    fit_xi(radial_family, sample(make_circle(1.0), 64), [-0.02, 0.0, 0.02], [0.0, 0.01, 0.02])
    assert calls == []


@pytest.mark.parametrize("family_name", ["radial_family", "cos_family"])
def test_eig_near_zero_is_well_separated_at_the_grid_corners(request, family_name):
    """The eigenvalue nearest zero is the branch through the (0,0) zero mode only while the
    other eigenvalues stay far from zero: the zero mode is simple, the rest of the spectrum of
    the Hermitian part of the weighted A sits near 2, and across fit_xi's largest grid
    (|lambda|, eps <= 0.1) xi moves by O(0.1).  At the corners the second-nearest eigenvalue is
    at least 10 |xi| away from zero (15.8 |xi| or more measured at N = 64)."""
    family = request.getfixturevalue(family_name)
    nodes = sample(make_circle(1.0), 64)
    for lam in (-0.1, 0.1):
        for eps in (0.0, 0.1):
            ws = None if eps == 0.0 else KWorkspace(KPoint.from_eps(eps, 0.0, nodes.length), nodes)
            eigs = np.sort(np.abs(np.linalg.eigvalsh(exceptional._weighted_a(ws, family.at(lam), nodes)[1])))
            assert eigs[1] >= 10 * eigs[0], (lam, eps, eigs[:2])


def test_xi_grid_bounds_checked(radial_family, nodes128):
    with pytest.raises(ValueError):
        fit_xi(radial_family, nodes128, [0.0, 0.2], [0.0, 0.01])


# ---------------------------------------------------------------------------
# parity detector

def test_P_identity_for_zero_potential(nodes128, zero_pot):
    p = assemble_P(KPoint.from_k(0.5), zero_pot, nodes128)
    np.testing.assert_allclose(p.matrix, np.eye(128), atol=1e-6)
    rec = n_minus(KPoint.from_k(0.5), zero_pot, nodes128)
    assert rec.n_minus == 0 and not rec.near_exceptional


def test_P_eigenvalues_cluster_at_one(nodes128, nodes256, conductive):
    counts = {}
    for nodes in (nodes128, nodes256):
        p = assemble_P(KPoint.from_k(0.5), conductive, nodes)
        eigs = np.linalg.eigvals(p.matrix)
        counts[nodes.n_nodes] = int(np.sum(np.abs(eigs - 1) > 0.1))
    assert counts[128] == counts[256]
    assert counts[128] < 10


def test_n_minus_warns_for_a_complex_P(nodes128, absorbing, radial_family):
    kp = KPoint.from_eps(0.02, 0.5, NU)
    with pytest.warns(UserWarning, match="real potentials"):
        n_minus(kp, absorbing, nodes128)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        n_minus(kp, radial_family.at(0.05), nodes128)


def test_parity_jump_across_locus(nodes128, radial_family, locus_005):
    lam = 0.05
    eps_star = locus_005.mean_eps
    inside = n_minus(KPoint.from_eps(0.5 * eps_star, 0.0, NU), radial_family.at(lam), nodes128)
    outside = n_minus(KPoint.from_eps(2.0 * eps_star, 0.0, NU), radial_family.at(lam), nodes128)
    assert (inside.n_minus - outside.n_minus) % 2 == 1


_WHERE = st.one_of(st.tuples(st.just("eps"), st.floats(0.005, 0.05)),
                   st.tuples(st.just("log"), st.floats(-7.0, 0.7)))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(where=_WHERE, phi=st.floats(0.0, 2 * np.pi), lam=st.sampled_from([-0.05, 0.0, 0.025, 0.05]),
       profile=st.sampled_from(["radial", "cos"]))
@example(where=("eps", 0.0135 / 2), phi=0.0, lam=0.05, profile="radial")   # both sides of the
@example(where=("eps", 0.0135 * 2), phi=0.0, lam=0.05, profile="radial")   # lambda = 0.05 locus
def test_sign_det_P_is_the_parity_of_n_minus(nodes128, radial_family, cos_family, where, phi, lam, profile):
    """A real P has conjugate pairs of complex eigenvalues with positive products, so
    sign det P = (-1)^{n^-}: an oracle for n_minus through an LU (slogdet), not an eig."""
    kind, x = where
    log_abs = log_abs_k_from_eps(x, NU) if kind == "eps" else x
    family = radial_family if profile == "radial" else cos_family
    rec = n_minus(KPoint.from_polar_log(log_abs, phi), family.at(lam), nodes128)
    assume(not rec.near_exceptional)
    sign, _ = np.linalg.slogdet(rec.p.matrix)
    assert sign == (-1) ** rec.n_minus


NODES64 = sample(make_circle(1.0), 64)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(log_abs=st.floats(-8.0, 1.0), phi=st.floats(0.0, 2 * np.pi), alpha=st.floats(0.0, 2 * np.pi))
def test_radial_spectra_do_not_depend_on_arg_k(radial_family, log_abs, phi, alpha):
    """For a radial n on the centred circle, rotating k rotates S_k, F^out(k) and P(k) by
    a unitary that commutes with F_n, F_0 and the Sobolev weights: the spectrum of P and
    the singular values of the weighted A are the same at phi and phi + alpha.  Measured
    maxima over 600 random points and 240 at fixed radii up to ln|k| = 1: 1.2e-14
    (eigenvalues, relative to max(1, max|eig|)) and 4.1e-12 (singular values, relative
    to ||A||, largest at ln|k| = 1 where ||A|| ~ 6e4); the bounds below add about 10x."""
    pot = radial_family.at(0.05)
    records, svals = [], []
    for arg in (phi, phi + alpha):
        k = KPoint.from_polar_log(log_abs, arg)
        try:
            svals.append(np.linalg.svd(criterion(k, pot, NODES64).a_weighted, compute_uv=False))
        except NearSingularError:
            assume(False)
        records.append(n_minus(k, pot, NODES64))
    assume(not any(rec.near_exceptional for rec in records))
    eigs = [np.sort_complex(rec.eigs) for rec in records]
    assert np.max(np.abs(eigs[0] - eigs[1])) <= 1e-13 * max(1.0, np.max(np.abs(eigs[0])))
    assert np.max(np.abs(svals[0] - svals[1])) <= 5e-11 * svals[0][0]


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(log_abs=st.floats(-8.0, 1.0), phi=st.floats(0.0, 2 * np.pi), profile=st.sampled_from(["radial", "cos"]))
def test_P_is_real_for_a_real_potential(radial_family, cos_family, log_abs, phi, profile):
    family = radial_family if profile == "radial" else cos_family
    p = assemble_P(KPoint.from_polar_log(log_abs, phi), family.at(0.05), NODES64)
    assert p.matrix.dtype == np.float64


def test_near_exceptional_flag_at_the_root(nodes128, radial_family, locus_005):
    kp = KPoint.from_eps(locus_005.eps_star[0], locus_005.angles[0], NU)
    rec = n_minus(kp, radial_family.at(0.05), nodes128)
    assert rec.near_exceptional


def test_kernel_equivalence_of_detectors(nodes128, radial_family, locus_005):
    """At the located point both A and P lose their smallest singular value."""
    kp = KPoint.from_eps(locus_005.eps_star[0], locus_005.angles[0], NU)
    c = criterion(kp, radial_family.at(0.05), nodes128)
    assert c.sigma_min < c.tol_ker
    assert c.kernel_dim_estimate == 1
    p = assemble_P(kp, radial_family.at(0.05), nodes128)
    sv = np.linalg.svd(p.matrix, compute_uv=False)
    assert sv[-1] < 1e-5 * sv[0]


def test_parity_path_brackets_locus(nodes128, radial_family, locus_005):
    lam = 0.05
    eps_star = locus_005.mean_eps
    k_in = KPoint.from_eps(0.5 * eps_star, 0.0, NU)
    k_out = KPoint.from_eps(2.0 * eps_star, 0.0, NU)
    verdict = parity_path(k_in, k_out, radial_family.at(lam), nodes128)
    assert verdict.evidence
    lo, hi = verdict.bracket
    assert lo.eps(NU) - 1e-4 * eps_star <= eps_star <= hi.eps(NU) + 1e-4 * eps_star


def test_sign_det_P_is_the_parity_of_n_minus_on_a_nonradial_grid(cos_family):
    """The bisection's parity, sign det P = (-1)^{n^-}, on a real non-radial n over a log-polar
    grid through its locus (ln|k| about -75 at lambda = 0.05), where both parities occur."""
    pot = cos_family.at(0.05)
    parities = set()
    for log_abs in np.linspace(-150.0, 1.0, 12):
        for phi in 2 * np.pi * np.arange(6) / 6:
            rec = n_minus(KPoint.from_polar_log(log_abs, phi), pot, NODES64)
            if rec.near_exceptional:
                continue
            sign, _ = np.linalg.slogdet(rec.p.matrix)
            assert sign == (-1) ** rec.n_minus, (log_abs, phi, rec.n_minus)
            parities.add(rec.n_minus % 2)
    assert parities == {0, 1}


def _count_bisection(k_a, k_b, n, nodes):
    """The bracket of parity_path's bisection with every midpoint counted by n_minus."""
    def path(s):
        return KPoint.from_polar_log((1 - s) * k_a.log_abs + s * k_b.log_abs, (1 - s) * k_a.phi + s * k_b.phi)

    lo, hi = 0.0, 1.0
    par_lo = n_minus(path(0.0), n, nodes).n_minus % 2
    while hi - lo > PARITY_RESOLUTION:
        mid = 0.5 * (lo + hi)
        rec = n_minus(path(mid), n, nodes)
        assert not rec.near_exceptional
        if rec.n_minus % 2 == par_lo:
            lo = mid
        else:
            hi = mid
    return path(lo), path(hi)


def test_parity_path_counts_only_its_endpoints(nodes128, radial_family, locus_005, monkeypatch):
    """parity_path runs eigvals at its two endpoints only, and its determinant-sign bisection
    finds the bracket that counting n^- at every midpoint finds."""
    eps_star = locus_005.mean_eps
    k_in, k_out = KPoint.from_eps(0.5 * eps_star, 0.0, NU), KPoint.from_eps(2.0 * eps_star, 0.0, NU)
    pot = radial_family.at(0.05)
    expected = _count_bisection(k_in, k_out, pot, nodes128)
    calls = []
    eigvals = np.linalg.eigvals
    monkeypatch.setattr(np.linalg, "eigvals", lambda a: calls.append(a.shape) or eigvals(a))
    verdict = parity_path(k_in, k_out, pot, nodes128)
    assert len(calls) == 2
    assert verdict.evidence and not verdict.flags
    assert verdict.bracket == expected


@pytest.mark.parametrize("slogdet", [(0.0, -np.inf), (1.0, np.nan)], ids=["zero", "not_finite"])
def test_parity_path_flags_a_midpoint_whose_det_P_is_zero_or_not_finite(nodes128, radial_family, locus_005,
                                                                         monkeypatch, slogdet):
    """A midpoint without a determinant sign is flagged and narrowed like a near-exceptional one:
    the first midpoint, s = 1/2, ends the bisection with the bracket [1/4, 3/4]."""
    eps_star = locus_005.mean_eps
    k_in, k_out = KPoint.from_eps(0.5 * eps_star, 0.0, NU), KPoint.from_eps(2.0 * eps_star, 0.0, NU)
    monkeypatch.setattr(np.linalg, "slogdet", lambda a: slogdet)
    verdict = parity_path(k_in, k_out, radial_family.at(0.05), nodes128)
    assert verdict.evidence
    assert verdict.flags == ("midpoint_near_exceptional@s=0.500000",)
    assert verdict.message == "parity jump bracketed in s = [0.250000, 0.750000]"


def test_parity_path_null_verdicts(nodes128, zero_pot, conductive, radial_family, locus_005):
    for pot in (zero_pot, conductive):
        v = parity_path(KPoint.from_k(0.01), KPoint.from_k(0.5 + 0.2j), pot, nodes128)
        assert not v.evidence
        assert v.message == "no parity evidence"
    # both endpoints outside the located circle
    eps_star = locus_005.mean_eps
    v = parity_path(
        KPoint.from_eps(1.5 * eps_star, 0.0, NU),
        KPoint.from_eps(3.0 * eps_star, 0.0, NU),
        radial_family.at(0.05), nodes128,
    )
    assert not v.evidence


def test_parity_path_refuses_near_exceptional_endpoint(nodes128, radial_family, locus_005):
    k_bad = KPoint.from_eps(locus_005.eps_star[0], locus_005.angles[0], NU)
    with pytest.raises(ValueError):
        parity_path(k_bad, KPoint.from_eps(2 * locus_005.mean_eps, 0.0, NU),
                    radial_family.at(0.05), nodes128)
