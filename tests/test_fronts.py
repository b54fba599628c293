"""Initial front families and their analytic slopes."""

import numpy as np
import pytest

from sqgfronts import FAMILIES, front_profile, make_grid
from sqgfronts.grid import stencil_derivative

G = make_grid(-30.0, 60.0, 2400)


@pytest.mark.parametrize(
    "family,params",
    [
        ("gaussian", dict(amplitude=0.5, width=2.0, center=0.0)),
        ("gaussian", dict(amplitude=-0.3, width=1.5, center=3.0)),
        ("poly_bump", dict(amplitude=0.4, width=6.0, center=-2.0)),
        ("windowed_cosine", dict(amplitude=0.2, mode=2.0, plateau=4.0, support=10.0)),
    ],
)
def test_slope_consistent_with_profile(family, params):
    phi, phix = front_profile(G.x, family, **params)
    fd = stencil_derivative(phi, G.dx, periodic=False)
    scale = max(1.0, np.max(np.abs(phix)))
    assert np.max(np.abs(phix - fd)) / scale < 5e-7


def test_gaussian_shape():
    phi, _ = front_profile(G.x, "gaussian", amplitude=0.5, width=2.0, center=1.0)
    i = int(np.argmin(np.abs(G.x - 1.0)))
    assert abs(phi[i] - 0.5) < 1e-6
    assert phi[0] < 1e-60


def test_poly_bump_compact_support():
    phi, phix = front_profile(G.x, "poly_bump", amplitude=0.4, width=6.0, center=-2.0)
    outside = np.abs(G.x + 2.0) >= 6.0
    assert np.all(phi[outside] == 0.0)
    assert np.all(phix[outside] == 0.0)
    # C^1 across the edge: slope stays small near |u| = 1
    edge = np.abs(np.abs(G.x + 2.0) - 6.0) < 2 * G.dx
    assert np.max(np.abs(phix[edge])) < 1e-8


def test_poly_bump_refuses_a_zero_width():
    with pytest.raises(ValueError, match="^width must be positive, got 0.0$"):
        front_profile(G.x, "poly_bump", amplitude=0.4, width=0.0, center=0.0)


def test_windowed_cosine_plateau_is_pure_mode():
    phi, _ = front_profile(G.x, "windowed_cosine", amplitude=0.2, mode=3.0, plateau=4.0, support=10.0)
    inside = np.abs(G.x) <= 4.0
    assert np.max(np.abs(phi[inside] - 0.2 * np.cos(3.0 * G.x[inside]))) < 1e-15
    outside = np.abs(G.x) >= 10.0
    assert np.all(phi[outside] == 0.0)


def test_windowed_cosine_validation():
    with pytest.raises(ValueError):
        front_profile(G.x, "windowed_cosine", amplitude=0.1, mode=1.0, plateau=5.0, support=5.0)
    with pytest.raises(ValueError):
        front_profile(G.x, "windowed_cosine", amplitude=0.1, mode=1.0, plateau=-1.0, support=5.0)


def test_zero_family():
    phi, phix = front_profile(G.x, "zero")
    assert np.all(phi == 0.0) and np.all(phix == 0.0)


def test_unknown_family_lists_options():
    with pytest.raises(ValueError) as ei:
        front_profile(G.x, "sawtooth")
    msg = str(ei.value)
    for fam in FAMILIES:
        assert fam in msg


def test_bad_params_rejected():
    with pytest.raises(TypeError):
        front_profile(G.x, "gaussian", amplitude=0.5)  # width missing
    with pytest.raises(ValueError):
        front_profile(G.x, "gaussian", amplitude=0.5, width=0.0, center=0.0)
