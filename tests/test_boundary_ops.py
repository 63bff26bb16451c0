import json
import logging
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.special import exp1

from conftest import rotation_matrix, single_layer_fourier_oracle, traced_peak
from faddeev_ep.boundary_ops import (
    HMINUS,
    HPLUS,
    BoundaryOperator,
    KWorkspace,
    NearSingularError,
    adjoint_arclength,
    assemble_B,
    assemble_S,
    assemble_S0,
    assemble_log_layer,
    block_form,
    checked_inverse,
    invert_S,
    layer_reference,
    load_operator,
    log_quadrature_matrix,
    mean_projectors,
    operator_norm,
    save_operator,
    sigma_min,
    weighted_matrix,
)
from faddeev_ep.dtn_maps import assemble_F0
from faddeev_ep.exceptional import scan
from faddeev_ep.geometry import curve_from_fourier, make_circle, make_ellipse, make_kite, sample
from faddeev_ep.green import EULER_GAMMA, KPoint


def remainder_by_exp1(w):
    """N(w) = (gamma + ln|s| + Re E1(s)) / 2pi, s = -iw, from scipy's exp1; N(0) = 0."""
    s = -1j * np.asarray(w, dtype=complex)
    out = np.zeros(s.shape)
    nz = s != 0
    out[nz] = (EULER_GAMMA + np.log(np.abs(s[nz])) + exp1(s[nz]).real) / (2 * np.pi)
    return out


def modes(nodes, m):
    return np.exp(1j * m * nodes.t)


def test_log_quadrature_exact_on_trig_polynomials(nodes128):
    """Oracle: int ln(4 sin^2((t-s)/2)) e^{ims} ds = -(2pi/|m|) e^{imt}."""
    R = log_quadrature_matrix(128)
    for m in [0, 1, 2, 17, 63]:
        e = modes(nodes128, m)
        expected = 0.0 * e if m == 0 else -(2 * np.pi / m) * e
        assert np.max(np.abs(R @ e - expected)) < 1e-12


def test_log_layer_circle_eigenvalues(nodes128):
    """Separation of variables: the log layer sends e^{imt} to e^{imt}/(2|m|)."""
    B = assemble_log_layer(nodes128)
    for m in [1, 2, 5, 17, 63]:
        e = modes(nodes128, m)
        assert np.max(np.abs(B.matrix @ e - e / (2 * m))) < 1e-8
    assert np.max(np.abs(B.matrix @ np.ones(128))) < 1e-13


def test_S0_circle_blocks(nodes128):
    k = KPoint.from_k(0.3)
    s0 = assemble_S0(k, nodes128)
    bf = block_form(s0)
    inv_eps = 1.0 / k.eps(nodes128.length)
    assert abs(bf.cc - inv_eps) / abs(inv_eps) < 1e-10
    # mean-free modes see the pure log layer
    for m in [1, 4, 33]:
        e = modes(nodes128, m)
        assert np.max(np.abs(s0.matrix @ e - e / (2 * m))) < 1e-8


def test_S0_symmetric(nodes128):
    s0 = assemble_S0(KPoint.from_k(0.7), nodes128)
    assert np.max(np.abs(s0.matrix - adjoint_arclength(s0.matrix, nodes128))) < 1e-10
    assert s0.matrix.dtype == np.float64


def test_S_tends_to_S0(nodes128):
    kp = KPoint.from_k(1e-4)
    diff = assemble_S(kp, nodes128).matrix - assemble_S0(kp, nodes128).matrix
    d = BoundaryOperator(diff, HMINUS, HPLUS, nodes128)
    assert operator_norm(d) < 1e-3


def test_S_real_and_self_convergent(nodes128, nodes256):
    kp = KPoint.from_k(0.5)
    s1 = assemble_S(kp, nodes128)
    s2 = assemble_S(kp, nodes256)
    assert not np.iscomplexobj(s1.matrix)  # real kernel by construction
    sv1 = np.linalg.svd(weighted_matrix(s1), compute_uv=False)[:20]
    sv2 = np.linalg.svd(weighted_matrix(s2), compute_uv=False)[:20]
    assert np.max(np.abs(sv1 - sv2)) < 1e-8


#: per-entry bound of the separable S_k against the one-shot formula, relative to max(1, |N(w)|),
#: for |k| up to 2, 4 and 10: the factors e^{+-ikzt} round at the scale e^{|k| |z - mean z| t}
#: while N(w) may be far smaller, so the bound grows with |k|; measured on the three curves at
#: N = 250 and 256 and five angles, N(w) from exp1: 1.2e-14, 3.2e-12 and 4.2e-11 (all the kite)
ENTRY_BOUNDS = ((2.0, 2e-14), (4.0, 5e-12), (10.0, 1e-10))


@pytest.mark.parametrize("n_nodes", [256, 250])
@pytest.mark.parametrize("r", [1e-6, 1e-2, 0.2, 2.0, 4.0, 10.0])
def test_blocked_S_k_equals_the_one_shot_formula(n_nodes, r):
    """assemble_S is the block product L + [1, Re a, Im a] Y^T of a Gauss-Legendre rule for Ein;
    the one-shot formula adds (2pi/N) N(w) |z'(t_j)| to S_k^0 with the whole w = k(z_i - z_j)
    and N(w) from scipy's exp1.  On the circle, the 1.5 x 1 ellipse and the kite, at five angles
    of each |k| = r (every order of the table is met), the two agree to 1e-14 max|S_k| (measured
    7.33e-15, the ellipse at |k| = 10) and entrywise to ENTRY_BOUNDS."""
    for curve in (make_circle(1.0), make_ellipse(1.5, 1.0), make_kite()):
        nodes = sample(curve, n_nodes)
        scale = (2 * np.pi / n_nodes) * nodes.speed[None, :]
        for kp in (KPoint.from_polar_log(np.log(r), phi) for phi in (0.0, 0.7, 1.9, 3.3, 5.1)):
            remainder = remainder_by_exp1(kp.kz(nodes.z[:, None] - nodes.z[None, :]))
            one_shot = assemble_S0(kp, nodes).matrix + scale * remainder
            err = np.abs(assemble_S(kp, nodes).matrix - one_shot)
            assert np.max(err) <= 1e-14 * np.max(np.abs(one_shot)), (curve.name, kp)
            bound = next(b for top, b in ENTRY_BOUNDS if r <= top)
            assert np.max(err / (scale * np.maximum(1.0, np.abs(remainder)))) <= bound, (curve.name, kp)


def test_assemble_S_holds_no_n_by_n_complex_temporary(nodes256):
    """S_k at N = 256 is 0.5 MiB; its rank-(2m + 1) factors are N x (2m + 1) and real, so the
    traced peak of one assembly is 0.59 MiB (0.79 MiB at |k| = 4, m = 14), where the whole
    w = k(z_i - z_j) and the N x N complex temporaries of a pointwise N(w) took 6.6 MiB."""
    kp = KPoint.from_k(1e-2)
    assemble_S(kp, nodes256)   # the k-independent log layer is cached per NodeSet
    assert traced_peak(assemble_S, kp, nodes256) <= 2 * 2**20


def test_assemble_S_refuses_beyond_its_table(conductive):
    """The Ein table ends at |k| 2 max|z - mean z| = 64: the unit circle assembles at |k| = 31.9 and refuses
    above 32.  A scan records that refusal at its point and goes on to the next."""
    nodes = sample(make_circle(1.0), 64)
    assert np.all(np.isfinite(assemble_S(31.9 * np.exp(0.3j), nodes).matrix))
    with pytest.raises(ValueError, match="beyond"):
        assemble_S(32.5, nodes)
    rows = scan([40.0, 0.3 + 0.2j], conductive, nodes)
    assert rows[0].flags == ("criterion_failed:ValueError", "parity_failed:ValueError") and rows[0].n_minus is None
    assert rows[1].flags == () and rows[1].n_minus == 0


def test_B_block_and_conditioning(nodes128):
    b = assemble_B(nodes128)
    for m in [1, 3, 40]:
        e = modes(nodes128, m)
        assert np.max(np.abs(b.matrix @ e - e / (2 * m))) < 1e-8
    assert np.max(np.abs(b.matrix - adjoint_arclength(b.matrix, nodes128))) < 1e-10
    sv = np.linalg.svd(weighted_matrix(b), compute_uv=False)
    sv = sv[sv > 1e-10]  # drop the constants null direction
    assert sv[0] / sv[-1] <= 2.0


def test_block_form_identity(nodes128):
    ident = BoundaryOperator(np.eye(128), HPLUS, HPLUS, nodes128)
    bf = block_form(ident)
    assert bf.cc == pytest.approx(1.0, abs=1e-14)
    assert np.max(np.abs(bf.c_perp)) < 1e-14
    assert np.max(np.abs(bf.perp_c)) < 1e-14
    assert np.max(np.abs(bf.reassemble() - np.eye(128))) < 1e-12


def test_block_form_roundtrip(nodes128):
    rng = np.random.default_rng(0)
    mat = rng.standard_normal((128, 128))
    op = BoundaryOperator(mat, HMINUS, HPLUS, nodes128)
    bf = block_form(op)
    assert np.max(np.abs(bf.reassemble() - mat)) < 1e-12 * np.max(np.abs(mat))


def test_invert_S_contract(nodes128):
    kp = KPoint.from_k(0.5)
    s = assemble_S(kp, nodes128)
    sinv = invert_S(kp, s)
    assert np.max(np.abs(s.matrix @ sinv.matrix - np.eye(128))) < 1e-10
    assert sinv.domain_space == HPLUS and sinv.range_space == HMINUS


@pytest.mark.parametrize("eps", [0.05, 0.025])
def test_invert_S_block_asymptotics(nodes128, eps):
    """(S_k)^{-1} = diag(eps, B^{-1}) + O(eps) blockwise."""
    kp = KPoint.from_eps(eps, 0.4, nodes128.length)
    sinv = invert_S(kp, assemble_S(kp, nodes128))
    bf = block_form(sinv)
    assert abs(bf.cc - eps) <= 0.01 * eps
    # perp block approaches B^{-1} on mean-free densities
    pc, pp = mean_projectors(nodes128)
    b = assemble_B(nodes128)
    binv = pp @ np.linalg.inv(b.matrix @ pp + pc)
    d = BoundaryOperator(bf.perp_perp - binv, HPLUS, HMINUS, nodes128)
    assert operator_norm(d) < 0.1 * (eps / 0.05)  # halves with eps (tiny on the disk)


def test_invert_S_refuses_near_singular(nodes128):
    # the Faddeev layer's conditioning decays like e^{-2|k| diam}; by
    # |k| ~ 4.4 it is below the refusal threshold at any angle
    kp = KPoint.from_k(4.437)
    with pytest.raises(NearSingularError) as exc:
        invert_S(kp, assemble_S(kp, nodes128))
    assert exc.value.suspected == "E_D"
    assert exc.value.sigma_min < 1e-6 * exc.value.norm


@pytest.mark.parametrize("fill", [0.0, np.nan])
def test_invert_S_refuses_a_layer_it_cannot_invert(nodes128, fill, monkeypatch):
    """An S_k whose r x r capacitance inv rejects (exactly singular), or whose refusal measure is
    not finite (nan entries), is an E_D refusal with sigma_min 0 or nan, not a LinAlgError or an
    accepted inverse.  The update is given the reference I, u = e_0 and v^T = -e_0^T with ``fill``
    elsewhere, so its capacitance 1 + v^T u is exactly 0, or nan."""
    from faddeev_ep import boundary_ops

    update = boundary_ops.updated_inverse

    def degenerate(ref_inv, u, vt, *args):
        n = len(ref_inv)
        e, row = np.eye(n)[:, :1], np.full((1, n), fill)
        row[0, 0] = -1.0
        return update(np.eye(n), e, row, *args)

    monkeypatch.setattr(boundary_ops, "updated_inverse", degenerate)
    with pytest.raises(NearSingularError) as exc:
        invert_S(KPoint.from_k(0.5), assemble_S(KPoint.from_k(0.5), nodes128))
    assert exc.value.suspected == "E_D"
    np.testing.assert_equal(exc.value.sigma_min, fill)


def _diag(*values):
    return np.diag(np.array(values, dtype=float))


@pytest.mark.parametrize("mat, sigma", [
    (_diag(0.0, 1.0, 1.0), 0.0),        # exactly singular: inv fails, sigma_min 0
    (np.full((3, 3), np.nan), np.nan),   # not finite: the measure is nan
    (_diag(1.0, 1.0, 1e-7), 1e-7),      # condition 1e7 over the limit 1e6
])
def test_checked_inverse_refuses_what_it_cannot_trust(mat, sigma):
    with pytest.raises(NearSingularError) as exc:
        checked_inverse(mat, 1e6, "M", KPoint.from_k(0.5), "E")
    assert exc.value.suspected == "E" and exc.value.k == KPoint.from_k(0.5)
    np.testing.assert_equal(exc.value.sigma_min, sigma)
    assert str(exc.value).startswith(f"at {KPoint.from_k(0.5)}: M is near-singular")


@pytest.mark.parametrize("curve", [make_circle(1.0), make_ellipse(1.5, 1.0), make_kite()], ids=["circle", "ellipse", "kite"])
@pytest.mark.parametrize("n_nodes", [128, 256])
def test_layer_reference_inverts_S_ref_in_blocks(curve, n_nodes):
    """G = S_ref^{-1}, put together from B^{-1} by the block inverse that the Schur complement 1 allows,
    agrees with np.linalg.inv(S_ref) to 1e-14 of max|G| (measured at most 3.5e-15), and its residual
    |G S_ref - I|_1 is at most twice inv's (measured at most 1.4 times).  alpha equals the one
    that solves (P_perp B P_perp + 1 c^T) x = p for B^{-1} p."""
    nodes = sample(curve, n_nodes)
    ref = layer_reference(nodes)
    lb = block_form(assemble_log_layer(nodes))
    c = nodes.weights / nodes.length
    schur = lb.cc - lb.c_perp @ np.linalg.solve(lb.perp_perp + c, lb.perp_c)
    alpha = (1.0 - schur) * n_nodes / np.sum(nodes.speed)
    assert ref.alpha == pytest.approx(alpha, rel=1e-13)
    s_ref = assemble_log_layer(nodes).matrix + alpha * nodes.speed / n_nodes
    inv, eye = np.linalg.inv(s_ref), np.eye(n_nodes)
    assert np.max(np.abs(ref.inverse - inv)) <= 1e-14 * np.max(np.abs(inv))
    assert np.linalg.norm(ref.inverse @ s_ref - eye, 1) <= 2 * np.linalg.norm(inv @ s_ref - eye, 1)


def test_checked_inverse_returns_inv_below_its_limit(nodes128):
    """Below the limit the result is np.linalg.inv's; the measure is |M|_1 |M^{-1}|_1, and the refusal
    reports 1/|M^{-1}|_1 and |M|_1.  (The weighted measure of S_k is read by invert_S from its update.)"""
    mat = _diag(1.0, 2.0, 1e-5) + 0.1
    np.testing.assert_array_equal(checked_inverse(mat, 1e6, "M", KPoint.from_k(0.5), "E"), np.linalg.inv(mat))
    s = assemble_S(KPoint.from_k(0.5), nodes128).matrix
    norm, inv_norm = np.linalg.norm(s, 1), np.linalg.norm(np.linalg.inv(s), 1)
    np.testing.assert_array_equal(checked_inverse(s, 1.01 * norm * inv_norm, "S_k", None, "E_D"), np.linalg.inv(s))
    with pytest.raises(NearSingularError) as exc:
        checked_inverse(s, 0.99 * norm * inv_norm, "S_k", None, "E_D")
    assert exc.value.suspected == "E_D" and exc.value.k is None
    assert exc.value.norm == norm and exc.value.sigma_min == pytest.approx(1.0 / inv_norm, rel=1e-12)


def test_log_layer_builds_in_real_arithmetic():
    """The log kernel's first build at N = 256 (0.5 MiB) forms |z_i - z_j|^2 in reals and sets
    the diagonals before the log instead of masking them: its traced peak is 1.51 MiB, where
    the complex z_i - z_j and the masked copies took 4.13 MiB.  It equals the masked complex
    formula to rounding."""
    nodes = sample(make_kite(), 256)   # a NodeSet of its own: the log layer is cached per NodeSet
    assert traced_peak(assemble_log_layer, nodes) <= 2.0 * 2**20
    t, z, n = nodes.t, nodes.z, 256
    with np.errstate(divide="ignore", invalid="ignore"):
        smooth = -np.log(np.abs(z[:, None] - z) ** 2 / (4 * np.sin((t[:, None] - t) / 2) ** 2)) / (4 * np.pi)
    np.fill_diagonal(smooth, -np.log(nodes.speed) / (2 * np.pi))
    ref = (-log_quadrature_matrix(n) / (4 * np.pi) + (2 * np.pi / n) * smooth) * nodes.speed
    assert np.max(np.abs(assemble_log_layer(nodes).matrix - ref)) <= 1e-15 * np.max(np.abs(ref))


def test_workspace_assembles_once_and_refuses_on_every_access(nodes128, monkeypatch):
    """A workspace builds its Ein factors and S_k once, in assemble_S, and inverts that S_k once, on
    first use; a refused k raises on every access of the inverse and builds nothing again."""
    from faddeev_ep import boundary_ops
    from faddeev_ep.dtn_maps import assemble_Fout

    calls, inversions, factors = [], [], []
    ein_factors = boundary_ops._ein_factors
    monkeypatch.setattr(boundary_ops, "_ein_factors", lambda kp, nodes: factors.append(kp) or ein_factors(kp, nodes))
    monkeypatch.setattr(boundary_ops, "assemble_S", lambda k, nodes: calls.append(k) or assemble_S(k, nodes))
    monkeypatch.setattr(boundary_ops, "invert_S", lambda k, s: inversions.append(k) or invert_S(k, s))
    ws = KWorkspace.at(4.437, nodes128)
    for access in (lambda: ws.inverse, lambda: ws.inverse, lambda: assemble_Fout(ws, nodes128)):
        with pytest.raises(NearSingularError) as exc:
            access()
        assert exc.value.suspected == "E_D"
    assert calls == inversions == factors == [ws.k]
    assert ws.s is ws.s and calls == [ws.k]
    assert KWorkspace.at(ws, nodes128) is ws
    other = sample(make_circle(1.0), 64)
    assert KWorkspace.at(ws, other).nodes is other


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(log_abs=st.floats(float(np.log(1e-3)), float(np.log(4.5))), phi=st.floats(0.0, 2 * np.pi),
       step=st.integers(0, 127), frac=st.floats(0.05, 0.95))
@example(log_abs=float(np.log(0.3)), phi=0.4, step=2, frac=0.5)
@example(log_abs=float(np.log(4.437)), phi=0.0, step=61, frac=0.3)   # a refused ring
def test_rotated_workspace_matches_direct_assembly(nodes128, log_abs, phi, step, frac):
    """Oracle on the centred circle: S_{k e^{ia}} = R S_k R^T and S_{k e^{ia}}^{-1} = R S_k^{-1} R^T
    for a rotation a off the node grid, and each point of a ring decides its own refusal from its
    own S_k.  A cos(N a / 2) Nyquist phase misses the S bound by orders of magnitude."""
    alpha = (step + frac) * 2 * np.pi / 128
    base = KWorkspace(KPoint.from_polar_log(log_abs, phi), nodes128)
    k = KPoint.from_polar_log(log_abs, phi + alpha)
    r, direct = rotation_matrix(128, alpha), KWorkspace(k, nodes128)
    scale = np.max(np.abs(direct.s.matrix))
    assert np.max(np.abs(r @ base.s.matrix @ r.T - direct.s.matrix)) <= 1e-13 * scale

    sv = np.linalg.svd(weighted_matrix(direct.s), compute_uv=False)
    ratio = sv[-1] / sv[0]
    # the refusal measure 1/(|S^|_1 |S^^{-1}|_1) of the weighted S_k at k itself
    inv_direct = BoundaryOperator(np.linalg.inv(direct.s.matrix), HPLUS, HMINUS, nodes128)
    norm, inv_norm = np.linalg.norm(weighted_matrix(direct.s), 1), np.linalg.norm(weighted_matrix(inv_direct), 1)
    measure = 1.0 / (norm * inv_norm)
    assume(abs(measure / 1e-6 - 1) > 1e-6)   # the refusal decision is not a rounding tie
    if measure < 1e-6:
        for _ in range(2):   # refused on every access, at k
            with pytest.raises(NearSingularError) as exc:
                direct.inverse
            assert exc.value.k == k and exc.value.suspected == "E_D"
            assert exc.value.sigma_min == pytest.approx(1.0 / inv_norm, rel=1e-6)
            assert exc.value.norm == pytest.approx(norm, rel=1e-12)
        return
    inv = np.linalg.inv(base.s.matrix)
    assert np.max(np.abs(r @ inv @ r.T - direct.inverse.matrix)) <= 1e-12 / ratio * np.max(np.abs(inv))


def test_one_norm_refusal_decides_as_the_weighted_svd(nodes128, nodes256):
    """invert_S refuses (E_D) on 1/(|S^|_1 |S^^{-1}|_1) < 1e-6 of the weighted S_k, read from
    the inverse it makes; the weighted SVD it replaces refused on sigma_min < 1e-6 sigma_max.
    The two decide alike on the scan's 16 radii at N = 128 (|k| = 1e-3 .. 4, of which the
    ring |k| = 4 is refused) and on the transform's 9 points at N = 256 (|k| = 1e-6 .. 1e-2).
    The 1-norm measure lies below the SVD ratio, by a factor 1.8 - 3.4 at these points."""
    points = ([(nodes128, r) for r in np.geomspace(1e-3, 4.0, 16)]
              + [(nodes256, r * np.exp(0.9j)) for r in np.geomspace(1e-6, 1e-2, 9)])
    refused = []
    for nodes, k in points:
        kp = KPoint.from_k(k)
        s = assemble_S(kp, nodes)
        weighted = weighted_matrix(s)
        sv = np.linalg.svd(weighted, compute_uv=False)
        measure = 1.0 / (np.linalg.norm(weighted, 1) * np.linalg.norm(np.linalg.inv(weighted), 1))
        assert (measure < 1e-6) == (sv[-1] < 1e-6 * sv[0]), (k, measure, sv[-1] / sv[0])
        assert 0.2 <= measure / (sv[-1] / sv[0]) <= 0.6
        try:
            invert_S(kp, s)
            refused.append(False)
        except NearSingularError as exc:
            assert exc.sigma_min / exc.norm == pytest.approx(measure, rel=1e-3)
            refused.append(True)
    assert refused == [False] * 15 + [True] + [False] * 9


def test_laplace_pieces_form_no_dense_projector():
    """B^{-1} P_perp and F_0 at N = 256 (0.5 MiB each) apply P_perp = I - 1 c^T as rank-one
    updates, B^{-1} is built before K', and K' is formed in real arithmetic a block of rows at a
    time: the traced peak of building them is 1.50 MiB (1.57 MiB with K' built first).  The bound
    leaves 0.25 MiB, less than the 0.5 MiB of one more N x N temporary.  The complex z_i - z_j of K' and its three real N x N temporaries set a peak of
    2.57 MiB, and the dense P_const, P_perp and their N^3 products one of 3.00 MiB."""
    nodes = sample(make_circle(1.0), 256)   # a NodeSet of its own: the pieces are cached per NodeSet
    assemble_log_layer(nodes)   # the k-independent log layer, cached per NodeSet
    assert traced_peak(assemble_F0, nodes) <= 1.75 * 2**20


def test_kprime_builds_in_real_arithmetic_without_an_n_by_n_temporary():
    """K' at N = 256 (0.5 MiB) on the kite has a traced peak of 0.88 MiB, under one more N x N array,
    and equals the complex formula -(1/2pi) Re(nu_i / (z_i - z_j)) w_j, with the curvature diagonal."""
    from faddeev_ep.dtn_maps import adjoint_double_layer

    nodes = sample(make_kite(), 256)
    assert traced_peak(adjoint_double_layer, nodes) <= 1.0 * 2**20
    z, nu = nodes.z, nodes.normals
    with np.errstate(divide="ignore", invalid="ignore"):
        ref = -(nu[:, None] / (z[:, None] - z)).real / (2 * np.pi)
    np.fill_diagonal(ref, -nodes.curvature / (4 * np.pi))
    ref *= nodes.weights
    assert np.max(np.abs(adjoint_double_layer(nodes) - ref)) <= 1e-14 * np.max(np.abs(ref))


def test_rotation_needs_one_ring_on_a_centred_circle(nodes128):
    """The rotation oracle is no identity of the code: R S_k R^T misses S at another |k| of the
    circle and at the same |k| on the kite.  S_k reads z_i - z_j only, so on a circle that is not
    centred it rotates too (F_n does not: the potential lives on the centred disk)."""
    r = rotation_matrix(64, 1.0)
    for nodes, k_to in ((sample(make_circle(1.0), 64), KPoint.from_polar_log(-0.9, 1.3)),
                        (sample(make_kite(), 64), KPoint.from_polar_log(-1.0, 1.3))):
        s_to = assemble_S(k_to, nodes).matrix
        rotated = r @ assemble_S(KPoint.from_polar_log(-1.0, 0.3), nodes).matrix @ r.T
        assert np.max(np.abs(rotated - s_to)) >= 1e-4 * np.max(np.abs(s_to))
    shifted = sample(curve_from_fourier({0: 0.1, 1: 1.0}), 64)
    s_to = assemble_S(KPoint.from_polar_log(-1.0, 1.3), shifted).matrix
    rotated = r @ assemble_S(KPoint.from_polar_log(-1.0, 0.3), shifted).matrix @ r.T
    assert np.max(np.abs(rotated - s_to)) <= 1e-13 * np.max(np.abs(s_to))
    assert not shifted.centred_circle and nodes128.centred_circle


def test_potential_theory_identity(nodes128):
    """(F_0 - F^out(k)) S_k = I for k off the singular set."""
    from faddeev_ep.dtn_maps import assemble_F0, assemble_Fout

    f0 = assemble_F0(nodes128)
    for r, phi in [(1e-3, 0.0), (0.03, 2.0), (1.0, 4.0)]:
        kp = KPoint.from_polar_log(np.log(r), phi)
        fo = assemble_Fout(kp, nodes128)
        s = assemble_S(kp, nodes128)
        resid = (f0.matrix - fo.matrix) @ s.matrix - np.eye(128)
        assert np.linalg.norm(resid, 2) < 1e-8


def test_sobolev_weights(nodes128):
    """The weights, applied by FFT, on the columns of a real or complex matrix."""
    from faddeev_ep.boundary_ops import _sobolev_apply

    const = np.ones((128, 1))
    np.testing.assert_allclose(_sobolev_apply(const, 0.5), const, atol=1e-13)
    e4 = modes(nodes128, 4)[:, None]
    np.testing.assert_allclose(_sobolev_apply(e4, 0.5), 2.0 * e4, atol=1e-12)
    rng = np.random.default_rng(2)
    v = rng.standard_normal((128, 1))
    np.testing.assert_allclose(_sobolev_apply(_sobolev_apply(v, 0.5), -0.5), v, atol=1e-12)


def test_weighted_sigma_min_matches_operator_norms(nodes128):
    """On the circle the weighted S_k^0 has singular values {1/eps-ish} U {1/2}."""
    kp = KPoint.from_eps(0.1, 0.0, nodes128.length)
    s0 = assemble_S0(kp, nodes128)
    sv = np.linalg.svd(weighted_matrix(s0), compute_uv=False)
    assert sv[0] == pytest.approx(10.0, rel=1e-6)   # the 1/eps constants block
    assert sv[-1] == pytest.approx(0.5, rel=1e-6)   # 1/(2|m|) * |m| on mean-free
    assert sigma_min(s0) == pytest.approx(0.5, rel=1e-6)


def test_sigma_min_S_continuous_along_scan(nodes128, nodes256):
    """sigma_min(S_k) varies smoothly in |k| (no spurious isolated dips in
    the invertible regime); the decay toward large |k| is the intrinsic
    exponential conditioning of the kernel.

    The decay rate -d ln sigma_min / d|k| is about 4 = 2 diam from |k| ~ 1.5
    on, so on a geometric grid a fixed bound on the step ratio fails from
    |k| ~ 1 on and says nothing about smoothness; what is checked is that log sigma_min has no interior local
    extremum and that the values are converged in N.
    """
    rs = np.geomspace(1e-3, 2.0, 25)
    vals = np.array([sigma_min(assemble_S(KPoint.from_k(r), nodes128)) for r in rs])
    steps = np.diff(np.log(vals))
    # a dip (local minimum) or a spike (local maximum) flips the sign of the step
    assert np.all(steps[1:] * steps[:-1] > 0)
    fine = np.array([sigma_min(assemble_S(KPoint.from_k(r), nodes256)) for r in rs])
    np.testing.assert_allclose(vals, fine, rtol=1e-10, atol=0)


@pytest.mark.parametrize("r, phi", [(1e-3, 0.0), (0.56, 0.0), (1.46, 0.0), (2.0, 0.0), (2.2, 1.3)])
def test_sigma_min_S_matches_fourier_oracle(nodes128, r, phi):
    """sigma_min of the weighted S_k against the mpmath Fourier-Galerkin oracle.

    The |k| span the small-|k| plateau, the sign change of the constant
    mode at |k| = e^{-gamma} and both sides of the series/E1 switch at
    |w| = 4: |w| = |k||z - z'| reaches 2|k| on the unit circle, so only
    |k| > 2 sends node pairs through the E1 branch.
    """
    pytest.importorskip("mpmath")
    k = r * np.exp(1j * phi)
    expected = np.linalg.svd(single_layer_fourier_oracle(k, 24), compute_uv=False)[-1]
    assert sigma_min(assemble_S(KPoint.from_k(k), nodes128)) == pytest.approx(expected, rel=1e-10)


def test_kite_log_layer_symmetry():
    nodes = sample(make_kite(), 128)
    b = assemble_log_layer(nodes)
    assert np.max(np.abs(b.matrix - adjoint_arclength(b.matrix, nodes))) < 1e-10


def test_an_operator_file_written_at_0_1_7_loads():
    """tests/data/operator_0.1.7.op was written by save_operator at version 0.1.7, whose
    checksum came from hashlib.sha256; the package's built-in SHA-256 gives the same digest."""
    mat, header = load_operator(Path(__file__).parent / "data" / "operator_0.1.7.op")
    assert header["key"] == "written-at-0.1.7"
    np.testing.assert_array_equal(mat, (np.arange(16).reshape(4, 4) / 7.0) * (1 - 0.5j))


def test_operator_container_roundtrip(tmp_path, nodes128):
    mat = assemble_S(KPoint.from_k(0.5), nodes128).matrix
    path = tmp_path / "s.op"
    save_operator(path, mat, {"curve": "circle(radius=1.0)", "n": 128, "k": [0.5, 0.0], "spaces": [HMINUS, HPLUS]})
    back, header = load_operator(path)
    np.testing.assert_array_equal(back, mat)
    assert header["n"] == 128 and header["dtype"] == "float64"
    # corruption must be detected
    blob = bytearray(path.read_bytes())
    blob[-5] ^= 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises(ValueError):
        load_operator(path)


def test_failed_operator_write_leaves_nothing_behind(tmp_path, monkeypatch):
    """A write that fails after the header leaves neither a truncated entry
    under the final name nor a temporary file."""
    from faddeev_ep import boundary_ops

    mat = np.arange(256.0).reshape(16, 16)
    real_open = open

    class PayloadFails:
        def __init__(self, fh):
            self.fh = fh

        def write(self, data):
            if len(data) >= mat.nbytes:   # magic, length and header pass; the payload fails
                raise OSError("no space left on device")
            return self.fh.write(data)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

    monkeypatch.setattr(boundary_ops, "open", lambda *a, **kw: PayloadFails(real_open(*a, **kw)),
                        raising=False)
    path = tmp_path / "entry.op"
    with pytest.raises(OSError, match="no space"):
        save_operator(path, mat, {"n": 16})
    assert list(tmp_path.iterdir()) == []


def test_operator_store_rebuilds_a_truncated_entry(tmp_path):
    from faddeev_ep.boundary_ops import OperatorCache

    store = OperatorCache(tmp_path)
    (tmp_path / "ab12.op").write_bytes(b"FEPO\x00\x00")   # shorter than the length field
    built = store.get_or_build("ab12", lambda: np.eye(3))
    np.testing.assert_array_equal(built, np.eye(3))
    np.testing.assert_array_equal(load_operator(tmp_path / "ab12.op")[0], np.eye(3))
    again = OperatorCache(tmp_path).get_or_build("ab12", lambda: pytest.fail("a valid entry is rebuilt"))
    np.testing.assert_array_equal(again, np.eye(3))


@pytest.mark.parametrize("change", [{"dtype": "nope"}, {"shape": [3, "x"]}, {"shape": None}, {"key": "cd34"}],
                         ids=["dtype", "shape_entry", "shape_null", "other_key"])
def test_operator_store_rebuilds_an_entry_its_header_does_not_describe(tmp_path, caplog, change):
    """An entry whose header has a dtype or shape that cannot be read, or names another key, is
    invalid like a truncated one: a warning and a rebuild, not a TypeError out of the run, a flat
    (9,) vector for a 3 x 3 entry, or another key's matrix."""
    from faddeev_ep.boundary_ops import OperatorCache

    path = tmp_path / "ab12.op"
    save_operator(path, np.eye(3), {"key": "ab12"})
    blob = path.read_bytes()
    (hlen,) = struct.unpack("<Q", blob[4:12])
    head = json.dumps({**json.loads(blob[12 : 12 + hlen]), **change}).encode()
    path.write_bytes(b"FEPO" + struct.pack("<Q", len(head)) + head + blob[12 + hlen :])   # the payload's checksum holds
    with caplog.at_level(logging.WARNING, logger="faddeev_ep"):
        built = OperatorCache(tmp_path).get_or_build("ab12", lambda: 2 * np.eye(3))
    np.testing.assert_array_equal(built, 2 * np.eye(3))
    assert "invalid" in caplog.text
    mat, header = load_operator(path)
    np.testing.assert_array_equal(mat, 2 * np.eye(3))
    assert header["key"] == "ab12"
