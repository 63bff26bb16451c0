import numpy as np
import pytest

from conftest import traced_peak
from faddeev_ep import transform
from faddeev_ep.boundary_ops import NearSingularError, assemble_S, invert_S
from faddeev_ep.dtn_maps import assemble_Fn, standard_conductive
from faddeev_ep.exceptional import assemble_P
from faddeev_ep.geometry import make_circle, make_ellipse, make_kite, sample
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
    # the refusal reads the 1-norm condition number of P from the updated inverse that would solve it;
    # at kappa ~ 3e12 that update and np.linalg.inv's inverse read it 1.4e-3 apart
    cond = np.linalg.cond(assemble_P(kp, pot, nodes128).matrix, 1)
    measure = exc.value.norm / exc.value.sigma_min
    assert measure > transform.CONDITION_CAP and cond / 2 <= measure <= 2 * cond


def test_trace_refuses_an_exactly_singular_system(nodes128, conductive, monkeypatch):
    """A route whose r x r capacitance is exactly singular, which np.linalg.inv rejects, is a refusal
    with E blamed and sigma_min = 0, not a LinAlgError.  Route P(k)'s update is given the reference I,
    u = e_0 and v^T = -e_0^T, so its capacitance 1 + v^T u is exactly 0."""
    update = transform.updated_inverse

    def singular(ref_inv, u, vt, *args):
        e = np.eye(len(ref_inv))[:, :1]
        return update(np.eye(len(ref_inv)), e, -e.T, *args)

    monkeypatch.setattr(transform, "updated_inverse", singular)
    with pytest.raises(NearSingularError) as exc:
        trace_u(KPoint.from_k(0.5), conductive, nodes128)
    assert exc.value.suspected == "E" and exc.value.sigma_min == 0.0
    assert "the capacitance of P(k)" in str(exc.value)


def test_trace_makes_no_svd_and_no_solve_per_point(nodes128, conductive, monkeypatch):
    """A point inverts and solves no N x N system and takes no SVD: S_k^{-1}, P(k)^{-1} and A(k)^{-1}
    are rank-r updates of references built at the first point, each inverting one r x r capacitance."""
    trace_u(KPoint.from_k(0.3), conductive, nodes128)   # F_n, the Laplace pieces and the references are built once
    calls = {"svd": [], "solve": [], "inv": []}
    for name in calls:
        fn = getattr(np.linalg, name)

        def counted(a, *args, _name=name, _fn=fn, **kwargs):
            calls[_name].append(np.shape(a))
            return _fn(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    for k in (0.2 + 0.1j, 1e-3j):
        trace_u(KPoint.from_k(k), conductive, nodes128)
    assert calls["svd"] == calls["solve"] == []
    assert len(calls["inv"]) == 6 and all(shape[0] < nodes128.n_nodes for shape in calls["inv"])


def _memo_bytes(*memos) -> int:
    """Bytes of the arrays the memos hold, in dicts, tuples and dataclasses."""
    def arrays(obj):
        if isinstance(obj, np.ndarray):
            yield obj
        elif isinstance(obj, (dict, tuple, list)):
            for v in obj.values() if isinstance(obj, dict) else obj:
                yield from arrays(v)
        elif hasattr(obj, "__dataclass_fields__"):
            for name in obj.__dataclass_fields__:
                yield from arrays(getattr(obj, name))
    return sum(a.nbytes for m in memos for a in arrays(m))


def test_first_trace_allocates_only_what_it_keeps():
    """The first point of a transform at N = 256, with F_n built, keeps 4.0 MiB (the log kernel, the
    Laplace pieces, the NodeSet's G = S_ref^{-1} with its two weighted forms, and the potential's
    P_ref^{-1} and A_ref^{-1}) and allocates a traced peak of 2.16 MiB beyond it.  Measured the same way,
    the direct inverses of S_k, P(k) and A(k) took 2.58 MiB beyond the 1.5 MiB they kept; the weighted
    SVD of S_k, the dense mean projectors, a cached F_b^out and real inverses cast to complex once took
    more."""
    nodes = sample(make_circle(1.0), 256)   # a NodeSet and a potential of their own: nothing k-independent
    conductive = standard_conductive()      # is cached yet, whatever ran before
    assemble_Fn(nodes, conductive)
    before = _memo_bytes(nodes.memo, conductive.memo)
    peak = traced_peak(trace_u, KPoint.from_polar_log(np.log(1e-2), 0.9), conductive, nodes)
    assert peak - (_memo_bytes(nodes.memo, conductive.memo) - before) <= 2.58 * 2**20


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


ORACLE_K = [KPoint.from_polar_log(-75.0, 0.3)] + [KPoint.from_polar_log(np.log(r), 1.9)
                                                  for r in (1e-6, 1e-2, 0.36, 1.0, 2.3)]


@pytest.mark.parametrize("curve, n", [(make_circle(1.0), 128), (make_circle(1.0), 256), (make_ellipse(1.5, 1.0), 128),
                                      (make_kite(), 128), (make_kite(), 256)], ids=lambda v: getattr(v, "name", v))
def test_updated_inverses_are_as_accurate_as_inv(curve, n, conductive, absorbing, radial_family, monkeypatch):
    """Oracle: every updated inverse, S_k^{-1} and on the unit circle P(k)^{-1} and A(k)^{-1}, has a residual
    |M^{-1} M - I|_1 within 10x of np.linalg.inv's, from ln|k| = -75 to |k| = 2.3 (the points S_k does not
    refuse).  Measured at most 1.2x over these curves, N and potentials; without the Newton step the update
    read up to 58x (S_k on the kite at ln|k| = -75) and 2.2e5x (A(k) at |k| = 2.3)."""
    from faddeev_ep import boundary_ops
    from faddeev_ep.exceptional import assemble_A, assemble_P

    nodes = sample(curve, n)
    captured = []

    def capture(update):
        def wrapped(ref_inv, u, vt, mat, limit, what, *args):
            out = update(ref_inv, u, vt, mat, limit, what, *args)
            captured.append((what, out))
            return out
        return wrapped

    monkeypatch.setattr(boundary_ops, "updated_inverse", capture(boundary_ops.updated_inverse))
    monkeypatch.setattr(transform, "updated_inverse", capture(transform.updated_inverse))

    def residual(inv, m):
        r = inv @ m
        r.flat[:: len(r) + 1] -= 1.0
        return np.linalg.norm(r, 1)

    pots = [conductive, radial_family.at(0.05), absorbing] if nodes.centred_circle else [None]
    checked = 0
    for kp in ORACLE_K:
        for pot in pots:
            captured.clear()
            try:
                invert_S(kp, assemble_S(kp, nodes)) if pot is None else trace_u(kp, pot, nodes)
            except NearSingularError:
                continue
            forms = {"S_k": lambda: assemble_S(kp, nodes).matrix, "P(k)": lambda: assemble_P(kp, pot, nodes).matrix,
                     "A(k)": lambda: assemble_A(kp, pot, nodes).matrix}
            for what, inv in captured:
                m = forms[what]()
                assert residual(inv, m) <= 10 * residual(np.linalg.inv(m), m), (what, kp, pot)
                checked += 1
    assert checked >= 4 * len(pots)
