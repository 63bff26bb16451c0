import json

import numpy as np
import pytest
from scipy.integrate import quad

from conftest import rotation_matrix
from faddeev_ep.boundary_ops import KWorkspace
from faddeev_ep.geometry import (
    curve_from_fourier,
    curve_from_fourier_json,
    make_circle,
    make_ellipse,
    make_kite,
    sample,
)
from faddeev_ep.green import KPoint

# adaptive-quadrature oracle for the ellipse(2,1) perimeter, frozen:
# quad(|z'(t)|, 0, 2pi) = 8 E(3/4) = 9.688448220547675
ELLIPSE_2_1_PERIMETER = 9.688448220547675


def test_circle_circumference():
    nodes = sample(make_circle(1.0), 64)
    assert abs(nodes.length - 2 * np.pi) < 1e-12
    nodes2 = sample(make_circle(2.0), 64)
    assert abs(nodes2.length - 4 * np.pi) < 1e-12


def test_circle_point_and_normal():
    c = make_circle(1.0)
    assert c.z(0.0)[0] == pytest.approx(1.0 + 0.0j)
    nodes = sample(c, 64)
    assert nodes.normals[0] == pytest.approx(1.0 + 0.0j)


def test_nonpositive_radius_rejected():
    with pytest.raises(ValueError):
        make_circle(0.0)
    with pytest.raises(ValueError):
        make_ellipse(2.0, -1.0)


def test_degenerate_ellipse_matches_circle():
    ne = sample(make_ellipse(1.0, 1.0), 64)
    nc = sample(make_circle(1.0), 64)
    np.testing.assert_allclose(ne.z, nc.z, atol=1e-15)
    np.testing.assert_allclose(ne.weights, nc.weights, atol=1e-15)


def test_ellipse_perimeter_against_quadrature_oracle():
    curve = make_ellipse(2.0, 1.0)
    oracle, err = quad(lambda t: abs(curve.z(t, 1)[0]), 0.0, 2 * np.pi, limit=200)
    assert err < 1e-8
    assert oracle == pytest.approx(ELLIPSE_2_1_PERIMETER, abs=1e-8)
    nodes = sample(curve, 64)
    assert nodes.length == pytest.approx(ELLIPSE_2_1_PERIMETER, abs=1e-10)


def test_kite_regular_and_positive_weights():
    nodes = sample(make_kite(), 256)
    assert np.min(nodes.speed) > 0
    nodes128 = sample(make_kite(), 128)
    assert np.all(nodes128.weights > 0)


@pytest.mark.parametrize("curvemaker", [lambda: make_ellipse(2.0, 1.0), make_kite])
def test_length_spectral_convergence(curvemaker):
    c = curvemaker()
    l1 = sample(c, 128).length
    l2 = sample(c, 256).length
    assert abs(l1 - l2) < 1e-10


def test_bad_node_counts_rejected():
    c = make_circle(1.0)
    with pytest.raises(ValueError):
        sample(c, 63)
    with pytest.raises(ValueError):
        sample(c, 8)


def test_normals_orthogonal_and_outward():
    for c in (make_circle(1.0), make_ellipse(2.0, 1.0), make_kite()):
        nodes = sample(c, 128)
        dot = nodes.normals.real * nodes.dz.real + nodes.normals.imag * nodes.dz.imag
        assert np.max(np.abs(dot)) < 1e-12
        flux = np.sum(nodes.weights * (nodes.normals.real * nodes.z.real + nodes.normals.imag * nodes.z.imag))
        assert flux > 0


def test_fourier_curve_matches_circle(tmp_path):
    c = curve_from_fourier({1: 1.0 + 0.0j}, name="round")
    nodes = sample(c, 64)
    ref = sample(make_circle(1.0), 64)
    np.testing.assert_allclose(nodes.z, ref.z, atol=1e-14)

    doc = {"name": "round", "coeffs": {"1": [1.0, 0.0]}}
    path = tmp_path / "curve.json"
    path.write_text(json.dumps(doc))
    c2 = curve_from_fourier_json(path)
    np.testing.assert_allclose(sample(c2, 64).z, ref.z, atol=1e-14)


def test_curvature_circle():
    nodes = sample(make_circle(2.0), 64)
    np.testing.assert_allclose(nodes.curvature, 0.5, atol=1e-13)


@pytest.mark.parametrize("radius", [1.0, 1.25])
@pytest.mark.parametrize("n", [64, 128, 256])
def test_circle_table_samples_exactly(radius, n):
    """The table {1: r} gives r e^{it}, i r e^{it} and -r e^{it} bit for bit."""
    curve = make_circle(radius)
    nodes = sample(curve, n)
    e = np.exp(1j * nodes.t)
    assert np.array_equal(nodes.z, radius * e)
    assert np.array_equal(nodes.dz, 1j * radius * e)
    assert np.array_equal(curve.z(nodes.t, 2), -radius * e)


def _ellipse_closed_form(a, b):
    return (lambda t: a * np.cos(t) + 1j * b * np.sin(t),
            lambda t: -a * np.sin(t) + 1j * b * np.cos(t),
            lambda t: -a * np.cos(t) - 1j * b * np.sin(t))


KITE_CLOSED_FORM = (lambda t: np.cos(t) + 0.65 * np.cos(2 * t) - 0.65 + 1.5j * np.sin(t),
                    lambda t: -np.sin(t) - 1.3 * np.sin(2 * t) + 1.5j * np.cos(t),
                    lambda t: -np.cos(t) - 2.6 * np.cos(2 * t) - 1.5j * np.sin(t))


@pytest.mark.parametrize("curve, closed_form", [(make_ellipse(1.5, 1.0), _ellipse_closed_form(1.5, 1.0)),
                                                (make_ellipse(2.0, 1.0), _ellipse_closed_form(2.0, 1.0)),
                                                (make_kite(), KITE_CLOSED_FORM)])
@pytest.mark.parametrize("n", [64, 128, 256])
def test_named_tables_match_their_closed_forms(curve, closed_form, n):
    t = 2 * np.pi * np.arange(n) / n
    for order, exact in enumerate(closed_form):
        assert np.max(np.abs(curve.z(t, order) - exact(t))) <= 1e-15


def test_rotated_table_is_a_centred_circle_and_rotates():
    """{1: 1.25 e^{0.3i}} is a centred circle, and S_k on it rotates: S_{k e^{ia}} = R S_k R^T and
    S_{k e^{ia}}^{-1} = R S_k^{-1} R^T with R the band-limited shift by a, off the node grid."""
    nodes = sample(curve_from_fourier({1: 1.25 * np.exp(0.3j)}), 64)
    assert nodes.centred_circle
    base = KWorkspace(KPoint.from_polar_log(-1.0, 0.2), nodes)
    direct = KWorkspace(KPoint.from_polar_log(-1.0, 1.1), nodes)
    r = rotation_matrix(64, 0.9)
    assert np.max(np.abs(r @ base.s.matrix @ r.T - direct.s.matrix)) <= 1e-13 * np.max(np.abs(direct.s.matrix))
    inv = direct.inverse.matrix
    assert np.max(np.abs(r @ base.inverse.matrix @ r.T - inv)) <= 1e-12 * np.max(np.abs(inv))


def test_centred_circle_reads_the_nonzero_coefficients():
    assert sample(curve_from_fourier({0: 0.0, 1: 1.0}), 32).centred_circle
    assert sample(make_ellipse(1.0, 1.0), 32).centred_circle
    assert not sample(make_ellipse(2.0, 1.0), 32).centred_circle
    assert not sample(curve_from_fourier({1: 1.0, 2: 1e-3}), 32).centred_circle
