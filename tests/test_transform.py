import numpy as np
import pytest

from conftest import traced_peak
from faddeev_ep import transform
from faddeev_ep.boundary_ops import L2, BoundaryOperator, NearSingularError, sobolev_matrix
from faddeev_ep.dtn_maps import assemble_Fn
from faddeev_ep.exceptional import assemble_P
from faddeev_ep.geometry import make_circle, sample
from faddeev_ep.green import KPoint
from faddeev_ep.transform import bound_check, scatter_t, trace_u

NU = 2 * np.pi


def test_zero_potential_trace_is_incident_wave(nodes128, zero_pot):
    kp = KPoint.from_k(0.4 + 0.2j)
    tr = trace_u(kp, zero_pot, nodes128)
    incident = np.exp(1j * kp.kz(nodes128.z))
    assert np.max(np.abs(tr.u_nodes - incident)) < 1e-6
    assert np.max(np.abs(tr.u_alt - incident)) < 1e-6


def test_zero_potential_transform_vanishes(nodes128, zero_pot):
    for k in (0.3, 0.9j, 0.2 - 0.5j):
        tv = scatter_t(KPoint.from_k(k), zero_pot, nodes128)
        assert abs(tv.t) < 1e-6
        assert tv.bound_product < 1e-5


def test_route_equivalence_conductive(nodes128, conductive):
    tr = trace_u(KPoint.from_k(0.5), conductive, nodes128)
    assert tr.residual < 1e-6


def test_trace_small_k_limit_conductive(nodes128, conductive):
    """u -> q^{1/2}|_dO = 1 as k -> 0 for conductive potentials."""
    tr = trace_u(KPoint.from_k(1e-4), conductive, nodes128)
    assert np.max(np.abs(tr.u_nodes - 1.0)) < 0.05


def test_transform_decays_conductive(nodes128, conductive):
    mags = []
    for r in np.geomspace(1e-4, 0.5, 6)[::-1]:
        tv = scatter_t(KPoint.from_k(r), conductive, nodes128)
        mags.append(abs(tv.t))
    assert np.all(np.diff(mags) < 0)  # |t| shrinks monotonically toward k = 0


def test_transform_blows_up_at_locus(nodes128, radial_family):
    """(F_{n_lambda} - F^out)^{-1} loses invertibility on the located circle."""
    lam = 0.05
    pot = radial_family.at(lam)
    eps_star = 0.0135  # located by the kernel criterion for this fixture
    t_near = abs(scatter_t(KPoint.from_eps(0.985 * eps_star, 0.0, NU), pot, nodes128).t)
    t_far = abs(scatter_t(KPoint.from_eps(2.0 * eps_star, 0.0, NU), pot, nodes128).t)
    t_far2 = abs(scatter_t(KPoint.from_eps(0.5 * eps_star, 0.0, NU), pot, nodes128).t)
    assert t_near > 10 * t_far
    assert t_near > 10 * t_far2


def test_bound_check_negative_lambda(nodes128, radial_family):
    pot = radial_family.at(-0.05)
    pts = [KPoint.from_polar_log(np.log(r), 0.9) for r in np.geomspace(1e-6, 1e-2, 9)]
    rep = bound_check(pot, pts, nodes128)
    assert rep.valid
    assert rep.sup < 2.0
    assert rep.increments_non_increasing
    # halving lambda does not grow the bound constant
    rep2 = bound_check(radial_family.at(-0.025), pts, nodes128)
    assert rep2.valid
    assert rep2.sup <= 1.05 * rep.sup


def test_bound_check_zero_potential(nodes128, zero_pot):
    pts = [KPoint.from_k(r) for r in np.geomspace(1e-4, 1e-2, 5)]
    rep = bound_check(zero_pot, pts, nodes128)
    assert rep.valid
    assert rep.sup < 1e-4


def test_trace_refuses_near_singular_layer(nodes128, conductive):
    """The conditioning cliff of S_k is reported as an E_D-suspected refusal."""
    with pytest.raises(NearSingularError) as exc:
        trace_u(KPoint.from_k(4.437), conductive, nodes128)
    assert exc.value.suspected == "E_D"


def test_trace_refuses_on_exceptional_circle(nodes128, radial_family):
    """On the located circle the scattering systems are unavailable, with E blamed."""
    lam = 0.05
    pot = radial_family.at(lam)
    # the criterion root for this fixture, accurate to ~1e-10
    from faddeev_ep.exceptional import trace_locus

    loc = trace_locus(lam, radial_family, nodes128, [0.0])
    kp = KPoint.from_eps(loc.eps_star[0], 0.0, NU)
    with pytest.raises(NearSingularError) as exc:
        trace_u(kp, pot, nodes128)
    assert exc.value.suspected == "E"
    # the refusal reads the 1-norm condition number of P from the inverse that would solve it
    cond = np.linalg.cond(assemble_P(kp, pot, nodes128).matrix, 1)
    assert exc.value.norm / exc.value.sigma_min == pytest.approx(cond, rel=1e-12)
    assert cond > transform.CONDITION_CAP


def test_trace_refuses_an_exactly_singular_system(nodes128, conductive, monkeypatch):
    """An exactly singular P, which np.linalg.inv rejects, is a refusal with E blamed, not a LinAlgError."""
    singular = np.eye(nodes128.n_nodes)
    singular[0, 0] = 0.0
    monkeypatch.setattr(transform, "assemble_P", lambda ws, n, nodes: BoundaryOperator(singular, L2, L2, nodes))
    with pytest.raises(NearSingularError) as exc:
        trace_u(KPoint.from_k(0.5), conductive, nodes128)
    assert exc.value.suspected == "E" and exc.value.sigma_min == 0.0


def test_trace_makes_no_svd_and_no_solve_per_point(nodes128, conductive, monkeypatch):
    """A point makes three explicit inverses and no SVD: that of S_k, which is also its E_D
    refusal, and one per route, which is the route's refusal and its solve."""
    trace_u(KPoint.from_k(0.3), conductive, nodes128)   # F_n and the Laplace pieces are built once
    calls = {"svd": 0, "solve": 0, "inv": 0}
    for name in calls:
        fn = getattr(np.linalg, name)

        def counted(*args, _name=name, _fn=fn, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    for k in (0.2 + 0.1j, 1e-3j):
        trace_u(KPoint.from_k(k), conductive, nodes128)
    assert calls == {"svd": 0, "solve": 0, "inv": 6}


def test_first_trace_allocates_only_what_it_keeps(conductive):
    """The first point of a transform at N = 256, with F_n built: its traced peak is 4.08 MiB,
    set by the temporaries of K' in the Laplace pieces' build (4.13 MiB while the log layer's
    complex, masked build set it), where the weighted SVD of S_k, the dense mean projectors,
    a cached F_b^out and real inverses cast to complex for their matrix-vector products
    raised it to 5.02 MiB."""
    nodes = sample(make_circle(1.0), 256)   # a NodeSet of its own: nothing k-independent is cached yet
    assemble_Fn(nodes, conductive)
    sobolev_matrix(256, 0.5)   # cached per process; built here so the figure does not depend on test order
    assert traced_peak(trace_u, KPoint.from_polar_log(np.log(1e-2), 0.9), conductive, nodes) <= 4.5 * 2**20


def test_transform_self_convergence(nodes128, nodes256, conductive):
    """t(k) agrees between N = 128 and N = 256 to 1e-6 relative.

    t decays toward k = 0 while the discretization floor of the interior
    solve (~2e-10, the residual of F_n annihilating constants) does not,
    so the relative tolerance carries an absolute floor of 1e-9.
    """
    for r in (1e-3, 0.05, 1.0):
        kp = KPoint.from_k(r * np.exp(0.8j))
        t1 = scatter_t(kp, conductive, nodes128).t
        t2 = scatter_t(kp, conductive, nodes256).t
        assert abs(t1 - t2) <= max(1e-6 * abs(t1), 1e-9)


def test_route_equivalence_random_pairs(nodes128, conductive, absorbing, radial_family):
    """Route agreement on random admissible (k, fixture) pairs."""
    rng = np.random.default_rng(8)
    fixtures = [conductive, absorbing, radial_family.at(0.05), radial_family.at(-0.05)]
    for i in range(12):
        pot = fixtures[i % len(fixtures)]
        r = np.exp(rng.uniform(np.log(1e-3), 0.0))
        kp = KPoint.from_polar_log(np.log(r), rng.uniform(0, 2 * np.pi))
        tr = trace_u(kp, pot, nodes128)
        assert tr.residual < 1e-6
