import json

import numpy as np
import pytest
from scipy.special import jv, jvp

from conftest import dtn_mode_oracle, solver_builds, traced_peak
from faddeev_ep.boundary_ops import (
    HMINUS,
    HPLUS,
    BoundaryOperator,
    OperatorCache,
    adjoint_arclength,
    block_form,
    mean_projectors,
    operator_norm,
    weighted_matrix,
)
from faddeev_ep.disk_solver import DiskDtnSolver, InteriorResonanceError, read_samples
from faddeev_ep.dtn_maps import (
    absorbing_potential,
    assemble_F0,
    assemble_Fn,
    assemble_Fout,
    assemble_Fout_bounded,
    assemble_Fout_zero,
    Potential,
    PerturbedFamily,
    conductive_radial,
    fn_key,
    omega_poly_cos,
    raster_potential,
    standard_conductive,
    zero_potential,
)
from faddeev_ep.geometry import curve_from_fourier_json, make_circle, make_ellipse, sample
from faddeev_ep.green import KPoint


def modes(nodes, m):
    return np.exp(1j * m * nodes.t)


# ---------------------------------------------------------------------------
# F_0 and the exterior Laplace maps

def test_F0_circle_modes(nodes128):
    """Separation-of-variables oracle r^{|m|} e^{im theta}: F_0 e_m = |m| e_m."""
    f0 = assemble_F0(nodes128)
    for m in [1, 2, 7, 31]:
        e = modes(nodes128, m)
        assert np.max(np.abs(f0.matrix @ e - m * e)) < 1e-8
    assert np.max(np.abs(f0.matrix @ np.ones(128))) < 1e-8


def test_F0_ellipse_energy_nonnegative():
    nodes = sample(make_ellipse(2.0, 1.0), 128)
    f0 = assemble_F0(nodes)
    rng = np.random.default_rng(4)
    for _ in range(20):
        f = rng.standard_normal(128)
        energy = np.sum(nodes.weights * (f0.matrix @ f) * f)
        assert energy >= -1e-9 * np.sum(nodes.weights * f * f)


def test_Fb_circle_modes_and_negativity(nodes128):
    """Exterior oracle r^{-|m|}: F_b^out e_m = -|m| e_m; quadratic form < 0."""
    fb = assemble_Fout_bounded(nodes128)
    for m in [1, 5]:
        e = modes(nodes128, m)
        assert np.max(np.abs(fb.matrix @ e + m * e)) < 1e-8
    assert np.max(np.abs(fb.matrix @ np.ones(128))) < 1e-10
    _, pp = mean_projectors(nodes128)
    rng = np.random.default_rng(9)
    for _ in range(20):
        phi = pp @ rng.standard_normal(128)
        qf = np.sum(nodes128.weights * (fb.matrix @ phi) * phi)
        assert qf < 0


def test_bounded_exterior_identity(nodes128):
    from faddeev_ep.boundary_ops import assemble_B

    f0 = assemble_F0(nodes128)
    fb = assemble_Fout_bounded(nodes128)
    b = assemble_B(nodes128)
    _, pp = mean_projectors(nodes128)
    resid = ((f0.matrix - fb.matrix) @ b.matrix - pp) @ pp
    assert np.linalg.norm(resid, 2) < 1e-8


def test_Fout_zero_structure(nodes128):
    fz = assemble_Fout_zero(nodes128)
    assert np.max(np.abs(fz.matrix @ np.ones(128))) < 1e-10
    for m in [1, 9]:
        e = modes(nodes128, m)
        assert np.max(np.abs(fz.matrix @ e + m * e)) < 1e-6
    assert np.max(np.abs(fz.matrix - adjoint_arclength(fz.matrix, nodes128))) < 1e-8


def test_Fout_zero_continuity(nodes128):
    """F^out(k) -> F^out(0) along |k| = e^{-gamma - 1/eps}, monotonically."""
    fz = assemble_Fout_zero(nodes128).matrix
    dists = []
    for eps in [0.2, 0.1, 0.05]:
        kp = KPoint.from_eps(eps, 0.0, nodes128.length)
        fo = assemble_Fout(kp, nodes128)
        dists.append(operator_norm(BoundaryOperator(fo.matrix - fz, HPLUS, HMINUS, nodes128)))
    assert dists[0] > dists[1] > dists[2]
    assert dists[2] < 0.06


def test_Fout_real_kernel(nodes128):
    fo = assemble_Fout(KPoint.from_k(0.3), nodes128)
    assert not np.iscomplexobj(fo.matrix)


def test_Fout_smoothing_bound(nodes128):
    """Non-self-adjoint part vanishes like C|k| (log-log slope >= 0.9)."""
    ks = np.geomspace(1e-3, 1e-1, 7)
    vals = []
    for ka in ks:
        fo = assemble_Fout(KPoint.from_k(ka), nodes128)
        dag = (fo.matrix - adjoint_arclength(fo.matrix, nodes128)) / 2
        vals.append(np.linalg.norm(weighted_matrix(BoundaryOperator(dag, HMINUS, HPLUS, nodes128)), 2))
    slope = np.polyfit(np.log(ks), np.log(vals), 1)[0]
    assert slope >= 0.9
    # the bound constant is stable under |k|-halving
    c_vals = np.array(vals) / ks
    assert np.max(c_vals) < 10 * np.min(c_vals)


def test_Fout_cc_slope_minus_one(nodes128):
    """Constants block of F^out(k) is -eps + O(eps^2): slope -1 within 2%."""
    eps = np.array([0.002, 0.004])
    cc = []
    for e in eps:
        kp = KPoint.from_eps(e, 1.1, nodes128.length)
        cc.append(block_form(assemble_Fout(kp, nodes128)).cc)
    slope = (cc[1] - cc[0]) / (eps[1] - eps[0])
    assert abs(slope - (-1.0)) < 0.02


# ---------------------------------------------------------------------------
# Potentials

def test_conductive_structure_validated():
    pot = standard_conductive()
    r = np.array([0.0, 0.5, 1.0, 1.5])
    np.testing.assert_allclose(pot.q_fn(r), [3.0, 1 + 2 * 0.75**3, 1.0, 1.0], rtol=1e-15)
    assert list(DiskDtnSolver(64).angular_modes(pot)) == [0]   # detected bandwidth 0
    # n at the origin for q = 1 + 2(1-r^2)^3: 12 s^2/q + ... = 4
    assert pot.eval(np.array([0.0]))[0] == pytest.approx(4.0, rel=1e-12)
    assert pot.eval(np.array([1.0]))[0] == pytest.approx(0.0, abs=1e-12)
    assert np.all(pot.eval(np.array([1.5 + 0.5j, 3.0])) == 0)


def test_conductive_check_rejects_wrong_laplacian():
    def q(r):
        s = 1 - np.minimum(r, 1.0) ** 2
        return 1 + 2 * s**3

    def dq(r):
        r = np.minimum(r, 1.0)
        return -12 * r * (1 - r**2) ** 2

    def wrong_d2q(r):
        return np.zeros(np.shape(r))

    with pytest.raises(ValueError):
        conductive_radial(q, dq, wrong_d2q)


def test_absorbing_potential():
    pot = absorbing_potential(1.0)
    vals = pot.eval(np.array([0.2 + 0.1j]))
    assert vals[0] == 1j
    assert DiskDtnSolver(32).dtn_matrix(pot).dtype == np.complex128   # detected complex
    with pytest.raises(ValueError):
        absorbing_potential(0.0)


def test_raster_potential(tmp_path):
    doc = {"x0": -1.0, "y0": -1.0, "dx": 0.25, "dy": 0.25,
           "re": (np.ones((9, 9)) * 2.0).tolist()}
    path = tmp_path / "n.json"
    path.write_text(json.dumps(doc))
    pot = raster_potential(path)
    assert pot.eval(np.array([0.1 + 0.1j]))[0] == pytest.approx(2.0)
    assert pot.eval(np.array([1.4 + 0.0j]))[0] == 0.0  # outside the disk


# ---------------------------------------------------------------------------
# F_n

def test_Fn_zero_matches_F0(nodes128, zero_pot):
    fn = assemble_Fn(nodes128, zero_pot)
    f0 = assemble_F0(nodes128)
    assert np.max(np.abs(fn.matrix - f0.matrix)) < 1e-6


def test_Fn_conductive_kills_constants(nodes128, conductive):
    """u = q^{1/2} solves the interior problem with unit trace and zero flux."""
    fn = assemble_Fn(nodes128, conductive)
    assert np.max(np.abs(fn.matrix @ np.ones(128))) < 1e-5


def test_Fn_radial_against_ode_oracle(nodes128, conductive):
    fn = assemble_Fn(nodes128, conductive)
    for m in range(0, 17, 4):
        e = modes(nodes128, m)
        got = (fn.matrix @ e)[0] / e[0]
        oracle = dtn_mode_oracle(m, conductive.eval)
        assert abs(got - oracle) < 1e-5


def test_Fn_absorbing_against_bessel_oracle(nodes128, absorbing):
    """Constant n = i: modes solve Bessel's equation with argument sqrt(i) r."""
    fn = assemble_Fn(nodes128, absorbing)
    s = np.sqrt(1j)
    for m in [0, 1, 3]:
        e = modes(nodes128, m)
        got = (fn.matrix @ e)[0] / e[0]
        oracle = s * jvp(m, s) / jv(m, s)
        assert abs(got - oracle) < 1e-8


def test_Fn_symmetric_for_real_potential(nodes128, radial_family):
    fn = assemble_Fn(nodes128, radial_family.at(0.05))
    asym = np.max(np.abs(fn.matrix - adjoint_arclength(fn.matrix, nodes128)))
    assert asym <= 1e-12 * np.max(np.abs(fn.matrix))   # measured 7.1e-15 against max|F_n| = 32


def test_Fn_nonradial_coupling(nodes128, cos_family):
    """The cos-theta perturbation couples neighbouring modes but stays symmetric.  The
    remaining asymmetry, 8.5e-8 against max |F_n| = 32, comes from cos theta = x / r,
    which is not smooth at the origin, so F_n converges only algebraically; the same
    family with (1 + x / 2) in place of (1 + cos(theta) / 2) reads 3e-11.  Hence the
    loose bound."""
    fn = assemble_Fn(nodes128, cos_family.at(0.05))
    e1 = modes(nodes128, 1)
    out = fn.matrix @ np.ones(128)
    # mode-1 content generated from the constant input
    c1 = np.sum(out * np.conj(e1)) / 128
    assert abs(c1) > 1e-5
    assert np.max(np.abs(fn.matrix - adjoint_arclength(fn.matrix, nodes128))) < 1e-6


def _check_exact_x2_solution(eps, n_nodes, cut):
    """u = exp(eps x^2) solves -Lap u - n u = 0 for n = -2 eps - 4 eps^2 x^2 (set to 0
    where |z| >= 1 - cut), whose angular modes 0, +-2 couple two modes per block and
    decouple the parities.  F_n must be real for a real eps and complex for an
    imaginary one, and map u|_bd to its normal derivative 2 eps cos^2(theta) u."""
    def n(z):
        return np.where(np.abs(z) < 1 - cut, -2 * eps - 4 * eps**2 * np.real(z) ** 2, 0.0)

    is_real = not isinstance(eps, complex)
    pot = Potential(n)
    nodes = sample(make_circle(1.0), n_nodes)
    cos2 = np.cos(nodes.t) ** 2
    f = np.exp(eps * cos2)
    g = 2 * eps * cos2 * f
    fn = DiskDtnSolver(n_nodes).dtn_matrix(pot)
    assert fn.dtype == (np.float64 if is_real else np.complex128)
    assert np.max(np.abs(fn @ f - g)) <= 1e-10 * np.max(np.abs(g))


@pytest.mark.parametrize("n_nodes", [64, 128])
@pytest.mark.parametrize("eps", [0.3, 1.0, 0.3j, 1.0j])
def test_Fn_nonradial_against_exact_solution(eps, n_nodes):
    """``Potential.eval`` zeroes n where |z| > 1, which on the r = 1 circle of the
    collocation grid hits some angles and not others, so n_hat has an imaginary
    part there; the coupling reads only the interior radii, and so does the choice
    of real arithmetic.  An imaginary eps gives the complex non-radial
    n = -2i|eps| + 4 eps^2 x^2 with u = exp(i|eps| x^2)."""
    _check_exact_x2_solution(eps, n_nodes, 0.0)


@pytest.mark.parametrize("eps, n_nodes", [(0.3, 64), (1.0, 128)])
def test_Fn_real_for_real_boundary_data_at_the_nyquist_mode(eps, n_nodes):
    """With n = 0 on all of r = 1 the solve is real, and the boundary Nyquist column
    must be solved as cos(N theta / 2): as the one-sided mode -N/2 it gives F_n of
    real data an imaginary part, and the realness check refuses the potential."""
    _check_exact_x2_solution(eps, n_nodes, 1e-14)


def _cubic(rot):
    """A complex n with angular modes -2, 0, 1 and 3 (bandwidth 3), rotated by ``rot``."""
    def n(z):
        z = np.asarray(z, dtype=complex) * np.exp(-1j * rot)
        return (2 + 0.5j) * (1 - np.abs(z) ** 2) ** 3 + (0.4 - 0.3j) * z**3 + 0.3j * np.conj(z) ** 2 - 0.2 * z

    return Potential(n)


def test_Fn_complex_bandwidth_three_is_symmetric_and_rotation_covariant():
    """At N = 64 the 128 modes fall into 42 runs of 3 and a short run of 2.  Green's
    identity makes F_n symmetric in the arclength pairing sum w_j (F f)_j g_j, with no
    conjugation for a complex n.  F_n is read off the boundary modes |m| <= N/2 only, so
    it is checked on all data of degree <= N/2 - 1, at N = 64 and 128; the Nyquist mode
    is left out, since its discrete pairing sum w_l (-1)^{2l} = 2 pi is twice the
    continuous one.  Rotating n by one node step shifts the nodes cyclically."""
    for n_nodes in (64, 128):
        nodes = sample(make_circle(1.0), n_nodes)
        solver = DiskDtnSolver(n_nodes)
        fn = solver.dtn_matrix(_cubic(0.0))
        assert fn.dtype == np.complex128
        low = np.exp(1j * np.outer(nodes.t, np.arange(1 - n_nodes // 2, n_nodes // 2)))

        def on_low_modes(mat):
            return low.conj().T @ mat @ low

        asym = on_low_modes(fn - adjoint_arclength(fn.conj(), nodes))
        # measured 2.2e-14 (N = 64) and 3.6e-14 (N = 128); 6.8e-6 and 9.0e-7 with all 2N modes read
        assert np.max(np.abs(asym)) <= 1e-12 * np.max(np.abs(on_low_modes(fn)))
        rotated = solver.dtn_matrix(_cubic(2 * np.pi / n_nodes))
        shifted = np.roll(fn, (1, 1), axis=(0, 1))
        assert np.max(np.abs(rotated - shifted)) <= 1e-10 * np.max(np.abs(fn))   # measured 2.7e-15


@pytest.mark.parametrize("n_nodes", [32, 64])
def test_a_complex_n_with_real_angular_modes_gets_its_complex_Fn(n_nodes):
    """n = 1 + 0.3i y has the real angular modes n_hat_{+-1} = +-0.15 r, so it is solved in
    real arithmetic, yet its samples are complex and so is its F_n: it must not be refused as
    having lost realness.  Conjugating n conjugates F_n, and 1 - 0.3i x, whose imaginary modes
    take the complex path, gives the same F_n a quarter turn round (measured 2.1e-14 and
    1.3e-14, 1.1e-14 and 5.5e-15 of max|F_n| at N = 32 and 64)."""
    solver = DiskDtnSolver(n_nodes)
    fn = solver.dtn_matrix(Potential(lambda z: 1 + 0.3j * z.imag))
    assert fn.dtype == np.complex128
    scale = np.max(np.abs(fn))
    conj = solver.dtn_matrix(Potential(lambda z: 1 - 0.3j * z.imag))
    assert np.max(np.abs(conj - fn.conj())) <= 1e-12 * scale
    turned = solver.dtn_matrix(Potential(lambda z: 1 - 0.3j * z.real))
    quarter = n_nodes // 4
    assert np.max(np.abs(np.roll(turned, (-quarter, -quarter), axis=(0, 1)) - fn)) <= 1e-12 * scale


def test_Fn_ellipticity_proxy(nodes128, conductive):
    """Eigenvalues of the symmetrized F_n grow like |m| (bounded ratio, |m| <= N/4)."""
    fn = assemble_Fn(nodes128, conductive)
    herm = 0.5 * (fn.matrix + adjoint_arclength(fn.matrix, nodes128))
    eigs = np.sort(np.linalg.eigvalsh(0.5 * (herm + herm.T)))
    target = np.sort(np.concatenate([[0], np.repeat(np.arange(1, 64), 2), [64]]))
    sel = (target >= 1) & (target <= 32)
    ratios = eigs[sel] / target[sel]
    assert 0.5 < np.min(ratios) and np.max(ratios) < 1.5


def test_Fn_requires_unit_disk(conductive):
    nodes = sample(make_ellipse(2.0, 1.0), 64)
    with pytest.raises(NotImplementedError):
        assemble_Fn(nodes, conductive)


def test_Fn_on_a_fourier_unit_circle(tmp_path, conductive):
    """F_n is supported on the table {1: 1} whatever the curve's name."""
    path = tmp_path / "round.json"
    path.write_text(json.dumps({"name": "round", "coeffs": {"1": [1.0, 0.0]}}))
    fn = assemble_Fn(sample(curve_from_fourier_json(path), 64), conductive)
    assert np.array_equal(fn.matrix, assemble_Fn(sample(make_circle(1.0), 64), conductive).matrix)


def _three():
    """The constant n = 3."""
    return Potential(lambda z: 3.0 * np.ones(np.shape(z)))


def test_Fn_store_keys_on_sampled_values(tmp_path, monkeypatch):
    """Two potentials with different values get their own F_n, solved and from disk."""
    nodes = sample(make_circle(1.0), 64)
    zero, three = zero_potential(), _three()
    solved = {"zero": DiskDtnSolver(64).dtn_matrix(zero), "three": DiskDtnSolver(64).dtn_matrix(three)}
    assert np.max(np.abs(solved["zero"] - solved["three"])) > 0.1
    assert fn_key(nodes, zero) != fn_key(nodes, three)

    store = OperatorCache(tmp_path)
    for name, pot in (("zero", zero), ("three", three)):   # solved, disk written
        np.testing.assert_array_equal(assemble_Fn(nodes, pot, store=store).matrix, solved[name])
    assert len(list(tmp_path.iterdir())) == 2
    monkeypatch.setattr(DiskDtnSolver, "dtn_matrix", lambda self, p: pytest.fail("a stored F_n is solved again"))
    for name, pot in (("three", _three()), ("zero", zero_potential())):   # fresh objects: read back from disk
        np.testing.assert_array_equal(assemble_Fn(nodes, pot, store=store).matrix, solved[name])


def test_equal_values_share_one_Fn_entry_and_one_solve(tmp_path, monkeypatch):
    """F_n depends on n alone: two Potential objects built apart with equal values
    get one key, one solve and one disk entry, which the second reads back."""
    solves = []
    dtn_matrix = DiskDtnSolver.dtn_matrix

    def counted(self, potential):
        solves.append(potential)
        return dtn_matrix(self, potential)

    monkeypatch.setattr(DiskDtnSolver, "dtn_matrix", counted)
    nodes = sample(make_circle(1.0), 64)
    first, second = _three(), Potential(lambda z: np.full(np.shape(z), 3.0))
    assert fn_key(nodes, first) == fn_key(nodes, second)
    store = OperatorCache(tmp_path)
    fn = assemble_Fn(nodes, first, store=store)
    assert np.array_equal(assemble_Fn(nodes, second, store=store).matrix, fn.matrix)
    assert solves == [first]
    assert len(list(tmp_path.iterdir())) == 1


def test_Fn_store_misses_on_a_new_version(tmp_path, monkeypatch):
    from faddeev_ep import dtn_maps

    nodes = sample(make_circle(1.0), 64)
    pot = _three()
    store = OperatorCache(tmp_path)
    assemble_Fn(nodes, pot, store=store)
    old_key = fn_key(nodes, pot)
    assert [p.name for p in tmp_path.iterdir()] == [old_key + ".op"]

    monkeypatch.setattr(dtn_maps, "__version__", "0.0.0+other")
    solves = []
    monkeypatch.setattr(DiskDtnSolver, "dtn_matrix", lambda self, p: solves.append(p) or np.eye(64))
    fresh = _three()
    assemble_Fn(nodes, fresh, store=store)
    assert solves == [fresh]
    assert fn_key(nodes, fresh) != old_key and len(list(tmp_path.iterdir())) == 2


def test_each_potential_is_sampled_once_per_N(tmp_path, monkeypatch):
    """fn_key, the F_n build and the bandwidth detector read one sampling of n per
    N, kept on the potential as its digest and angular modes beside its F_n.  The
    sampling is read_samples' one evaluation of n, on nh x 2N points."""
    counts = {}
    evaluate = Potential.eval

    def counted(self, z):
        n_boundary = np.shape(z)[1] // 2
        counts[n_boundary] = counts.get(n_boundary, 0) + 1
        return evaluate(self, z)

    monkeypatch.setattr(Potential, "eval", counted)
    pot = _tilted_bump()
    for n_nodes in (32, 64):
        nodes = sample(make_circle(1.0), n_nodes)
        assemble_Fn(nodes, pot, store=OperatorCache(tmp_path))   # key, then the build
        assert fn_key(nodes, pot) in {p.stem for p in tmp_path.iterdir()}
        assert sorted(DiskDtnSolver(n_nodes).angular_modes(pot)) == [-1, 0, 1]
    assert counts == {32: 1, 64: 1}
    assert set(pot.memo) == {(what, n) for what in ("sampled", "Fn") for n in (32, 64)}


def test_reading_samples_builds_no_solver(tmp_path, monkeypatch):
    """fn_key reads the samples without a solver, so F_n through an empty store
    builds one solver, the one that solves."""
    nodes, pot = sample(make_circle(1.0), 32), _tilted_bump()
    builds = solver_builds(monkeypatch)
    fn_key(nodes, pot)
    assert builds == []
    assemble_Fn(nodes, pot, store=OperatorCache(tmp_path))
    assert builds == [32]


def test_memoized_operators_are_freed_with_their_owner():
    """F_n is kept on its Potential and the log kernel on its NodeSet, and nowhere else:
    neither outlives its owner."""
    import gc
    import weakref

    from faddeev_ep.boundary_ops import assemble_log_layer

    nodes, pot = sample(make_circle(1.0), 32), _three()
    fn = weakref.ref(assemble_Fn(nodes, pot).matrix)
    kernel = weakref.ref(assemble_log_layer(nodes).matrix)
    assert fn() is assemble_Fn(nodes, pot).matrix and kernel() is assemble_log_layer(nodes).matrix
    del nodes, pot
    gc.collect()
    assert fn() is None and kernel() is None


def test_a_memo_hit_touches_neither_the_key_nor_the_disk(tmp_path, monkeypatch):
    """A second assemble_Fn on the same Potential returns its memoized F_n: no key, no
    store lookup and no load_operator, though a store and its entry are there."""
    from faddeev_ep import boundary_ops, dtn_maps

    nodes, pot, store = sample(make_circle(1.0), 32), _three(), OperatorCache(tmp_path)
    fn = assemble_Fn(nodes, pot, store=store)
    touched = []
    for owner, name in ((dtn_maps, "fn_key"), (boundary_ops, "load_operator"), (OperatorCache, "get_or_build")):
        monkeypatch.setattr(owner, name, lambda *a, name=name: touched.append(name))
    assert assemble_Fn(nodes, pot, store=store).matrix is fn.matrix
    assert touched == [] and len(list(tmp_path.iterdir())) == 1


def test_a_potential_with_non_finite_samples_is_refused():
    """A nan sample would make every angular mode look like noise and F_n that of n = 0."""
    holed = Potential(lambda z: np.where(np.abs(z) < 0.3, np.nan, 1.0))
    with pytest.raises(ValueError, match="non-finite"):
        read_samples(holed, 32)
    with pytest.raises(ValueError, match="non-finite"):
        assemble_Fn(sample(make_circle(1.0), 32), holed)


def test_Fn_boundary_nonzero_potential_keeps_its_modes():
    """n = 3 couples no angular modes, although r = 1 samples whose |z| rounds above 1
    are masked to zero, and its modes solve Bessel's equation with argument sqrt(3) r."""
    solver = DiskDtnSolver(64)
    three = _three()
    assert list(solver.angular_modes(three)) == [0]
    fn = solver.dtn_matrix(three)
    nodes, s = sample(make_circle(1.0), 64), np.sqrt(3.0)
    for m in [0, 1, 3, 8]:
        e = modes(nodes, m)
        assert abs((fn @ e)[0] / e[0] - s * jvp(m, s) / jv(m, s)) < 1e-10   # measured 1.4e-12


def test_perturbed_family_returns_one_potential_per_lambda(radial_family):
    assert radial_family.at(0.05) is radial_family.at(0.05)
    assert radial_family.at(0.0) is radial_family.base
    assert radial_family.at(0.05) is not radial_family.at(0.04)


def _resonant(j, delta=0.0):
    """The constant j^2 (1 + delta)."""
    return Potential(lambda z: j**2 * (1 + delta) * np.ones(np.shape(z)))


def _tilted(j, delta=0.0):
    """j^2 (1 + delta)(1 + 1e-6 x): a real non-radial n near the Dirichlet eigenvalue j^2."""
    return Potential(lambda z: j**2 * (1 + delta) * (1 + 1e-6 * np.real(z)))


def test_interior_resonance_detected():
    from scipy.special import jn_zeros

    with pytest.raises(InteriorResonanceError):
        DiskDtnSolver(128).dtn_matrix(_resonant(jn_zeros(0, 1)[0]))


def test_interior_resonance_detected_nonradial():
    """A slightly tilted j01^2, whose modes couple, is refused as resonant."""
    from scipy.special import jn_zeros

    with pytest.raises(InteriorResonanceError):
        DiskDtnSolver(64).dtn_matrix(_tilted(jn_zeros(0, 1)[0]))


@pytest.mark.parametrize("n_nodes", [32, 64])
def test_near_resonance_of_a_double_eigenvalue_is_refused_not_a_realness_failure(n_nodes):
    """Near j11^2, whose eigenfunctions have m = +-1, the F_n of a real tilted n loses realness
    for a solve whose boundary-solve gain is still 7e5..4e6 times its n = 0 value; the
    refusal must come first."""
    from scipy.special import jn_zeros

    with pytest.raises(InteriorResonanceError):
        DiskDtnSolver(n_nodes).dtn_matrix(_tilted(jn_zeros(1, 1)[0], 1e-7))


def test_radial_refusal_window():
    """j01^2 (1 + delta) at N = 128: the boundary-solve gain is about 0.73 / delta times its
    n = 0 value, so delta = 1e-6 is refused and delta = 1e-4 is solved."""
    from scipy.special import jn_zeros

    solver = DiskDtnSolver(128)
    with pytest.raises(InteriorResonanceError):
        solver.dtn_matrix(_resonant(jn_zeros(0, 1)[0], 1e-6))
    assert np.all(np.isfinite(solver.dtn_matrix(_resonant(jn_zeros(0, 1)[0], 1e-4))))


@pytest.mark.parametrize("n_nodes", [16, 32, 64, 128, 256, 512])
def test_the_n0_gain_is_its_closed_form(n_nodes):
    """The resonance refusal's n = 0 gain, (nh - 1) / |b_0|_1, against the per-mode solves it
    replaced: max over m = 0..N/2 of |u_m|_1 / |b_m|_1 for the single-mode Laplacian, which is
    largest at m = 0 (measured within 9.4e-13 relative at N = 16..512)."""
    solver = DiskDtnSolver(n_nodes)
    gains = []
    for m in range(n_nodes // 2 + 1):
        lap = solver._dr2[1 if m % 2 == 0 else -1] - m * m * np.diag(solver._inv_r2)   # d_r^2 + d_r / r - m^2 / r^2
        gains.append(np.abs(np.linalg.solve(-lap[1:, 1:], lap[1:, 0])).sum() / np.abs(lap[1:, 0]).sum())
    assert np.argmax(gains) == 0
    assert solver._baseline_gain == pytest.approx(max(gains), rel=1e-11)


def _tilted_bump():
    """20 (1 - r^2)(1 + x): angular modes -1, 0 and 1, so the solve runs one mode at a time."""
    return Potential(lambda z: 20 * (1 - np.abs(z) ** 2) * (1 + np.real(z)))


def test_condition_estimate_is_deterministic_and_leaves_the_global_rng_alone():
    """The resonance refusal draws no random numbers: np.random's state is the same after
    dtn_matrix, and F_n is bitwise the same under any seed."""
    solver = DiskDtnSolver(32)
    saved = np.random.get_state()
    fns = []
    try:
        for seed in (0, 1):
            np.random.seed(seed)
            before = np.random.get_state()
            fns.append(solver.dtn_matrix(_tilted_bump()))
            after = np.random.get_state()
            assert np.array_equal(before[1], after[1]) and before[2:] == after[2:]
    finally:
        np.random.set_state(saved)
    assert fns[0].dtype == fns[1].dtype and np.array_equal(fns[0], fns[1])


def test_no_run_is_eliminated_past_the_last_live_span(monkeypatch):
    """The forward sweep stops at the first empty span past the last boundary mode: F_n is
    the solve that eliminates all 2N runs of one mode (no entry flushed, _FLOOR = 0), with
    fewer block inverses (280 of 320 here, 234 of 256 at N = 128; at N <= 64 no span of this
    n falls below the floor)."""
    import faddeev_ep.disk_solver as disk_solver

    n_nodes, inv, calls = 160, np.linalg.inv, []

    def counted(a):
        calls.append(a.shape)
        return inv(a)

    monkeypatch.setattr(np.linalg, "inv", counted)
    fn = DiskDtnSolver(n_nodes).dtn_matrix(_tilted_bump())
    kept = len(calls)
    monkeypatch.setattr(disk_solver, "_FLOOR", 0.0)
    full = DiskDtnSolver(n_nodes).dtn_matrix(_tilted_bump())
    assert len(calls) - kept == 2 * n_nodes
    assert kept < 2 * n_nodes
    assert np.max(np.abs(fn - full)) <= 1e-13 * np.max(np.abs(full))


@pytest.mark.parametrize("make", [_tilted_bump, lambda: _cubic(0.0)], ids=["real_bandwidth_1", "complex_bandwidth_3"])
def test_dtn_matrix_matches_a_one_run_solve(make, monkeypatch):
    """F_n from the forward sweep and its adjoint W against the same collocation system
    solved as one dense run.  A zero coupling at d = 2N makes the bandwidth 2N, so one run
    spans all 2N modes (d = 2N - 1 would leave a second run of one mode): one block is
    inverted, no block is eliminated and W is R.  Measured at N = 32: 2.6e-13 (the real
    bandwidth-1 n, whose boundary-solve gain is 34 times that of n = 0, here solved as
    1472 unknowns at once) and 9.6e-15 (the complex bandwidth-3 n)."""
    n_nodes, inv, calls = 32, np.linalg.inv, []
    solver = DiskDtnSolver(n_nodes)
    fn = solver.dtn_matrix(make())
    pot = make()
    one_run = {**solver.angular_modes(pot), 2 * n_nodes: np.zeros(solver.nh)}
    monkeypatch.setattr(solver, "angular_modes", lambda p: one_run)

    def counted(a):
        calls.append(a.shape)
        return inv(a)

    monkeypatch.setattr(np.linalg, "inv", counted)
    dense = solver.dtn_matrix(pot)
    assert calls == [(2 * n_nodes * (solver.nh - 1),) * 2]
    assert fn.dtype == dense.dtype
    assert np.max(np.abs(fn - dense)) <= 1e-12 * np.max(np.abs(dense))


def test_interior_solve_memory_is_bounded_by_its_factors():
    """The forward sweep holds one gain of (b (nh - 1))^2 values at a time (b = 1 here), one
    forward span and one W, and no LU: the solve must fit in half of what the gains of all
    2N / b runs would take (measured 1.3 MB against 2.0 at N = 128; the complex N x N
    output and its two FFTs alone are 0.8 MB).  Keeping a gain per run for a backward sweep (7.9 MB), or a dense
    solution of the N boundary columns, 2N (nh - 1) N values, alone 2.9 times the gains of
    all runs, does not."""
    solver = DiskDtnSolver(128)
    gains = (2 * 128) * (solver.nh - 1) ** 2 * np.dtype(float).itemsize
    assert traced_peak(lambda: solver.dtn_matrix(_tilted_bump())) < gains / 2


def _traced_peak(solver, pot):
    """tracemalloc peak of one dtn_matrix, with the potential sampled beforehand (the samples
    are kept with the potential, not by the solve)."""
    solver.angular_modes(pot)
    return traced_peak(solver.dtn_matrix, pot)


def test_interior_solve_keeps_no_gain_below_the_lowest_boundary_mode():
    """The sweep keeps no gain at all, below the lowest boundary mode m = -N/2 or above it:
    each is dropped once the next run's Schur update and W have read it.  On the scan
    potential (bandwidth 1) at N = 128 the traced peak of the solve is 1.10 MiB; a backward
    sweep that keeps the gains from m = -N/2 up peaks at 5.11 MiB, and one that keeps them
    from m = -N at 6.08 MiB."""
    pot = PerturbedFamily(standard_conductive(), omega_poly_cos()).at(0.05)
    assert _traced_peak(DiskDtnSolver(128), pot) <= 2 * 2**20


def test_interior256_solve_holds_one_gain_at_a_time():
    """The interior256 workload's potential at N = 256: 404 runs are inverted, and with one
    gain of 76 x 76 held at a time the traced peak of the solve is 4.18 MiB, where keeping
    the 289 gains and 418 forward spans a backward sweep reads took 21.38 MiB."""
    pot = PerturbedFamily(standard_conductive(), omega_poly_cos()).at(-0.05)
    assert _traced_peak(DiskDtnSolver(256), pot) <= 8 * 2**20


def test_disk_solver_radial_resolution_default():
    solver = DiskDtnSolver(128)
    assert solver.nh >= 45
    assert solver.r[0] == 1.0
    assert np.all(solver.r > 0)
