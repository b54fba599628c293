"""Grid containers, transforms, and derivative helpers."""

import numpy as np
import pytest

from sqgfronts import (
    EULER_GAMMA,
    TWO_GAMMA_MINUS_LOG4,
    FrontState,
    apply_linear_multiplier,
    build_workspace,
    far_field_value,
    finite_difference_derivative,
    make_grid,
    make_state,
    spectral_derivative,
    support_defect,
    validate_line_support,
)
from sqgfronts.grid import stencil_derivative


def test_constants():
    assert abs(EULER_GAMMA - 0.5772156649015329) < 1e-16
    assert abs(TWO_GAMMA_MINUS_LOG4 - (-0.2318630313168249)) < 1e-15
    assert abs(TWO_GAMMA_MINUS_LOG4 - 2.0 * (EULER_GAMMA - np.log(2.0))) < 1e-16


def test_make_grid_basics():
    g = make_grid(-30.0, 60.0, 1200)
    assert g.n == 1200
    assert abs(g.dx - 0.05) < 1e-15
    assert not g.periodic
    assert g.x[0] == -30.0
    assert abs(g.x[-1] - (30.0 - g.dx)) < 1e-12
    assert abs(g.length - 60.0) < 1e-12

    gp = make_grid(-np.pi, 2 * np.pi, 256, periodic=True)
    assert gp.periodic
    assert abs(gp.dx - 2 * np.pi / 256) < 1e-16


@pytest.mark.parametrize("n", [7, 6, 0, -8, 129])
def test_make_grid_rejects_bad_n(n):
    with pytest.raises(ValueError):
        make_grid(0.0, 1.0, n)


def test_make_grid_rejects_bad_length():
    with pytest.raises(ValueError):
        make_grid(0.0, 0.0, 64)
    with pytest.raises(ValueError):
        make_grid(0.0, -2.0, 64)


@pytest.mark.parametrize("x_min", [np.nan, np.inf, -np.inf])
def test_make_grid_rejects_non_finite_origin(x_min):
    with pytest.raises(ValueError, match="x_min"):
        make_grid(x_min, 1.0, 64)


def test_state_validation():
    g = make_grid(-1.0, 2.0, 64)
    with pytest.raises(ValueError):
        make_state(g, np.zeros(63))
    bad = np.zeros(64)
    bad[3] = np.nan
    with pytest.raises(ValueError):
        make_state(g, bad)
    st = make_state(g, np.zeros(64), t=0.25)
    assert st.t == 0.25
    st2 = st.with_phi(np.ones(64), t=0.5)
    assert st2.t == 0.5 and st.t == 0.25
    assert np.all(st.phi == 0.0)  # frozen, not aliased


def test_far_field_and_support():
    g = make_grid(-30.0, 60.0, 600)
    phi = np.exp(-(g.x**2))
    st = make_state(g, phi)
    assert far_field_value(st) < 1e-300
    assert support_defect(st) < 1e-90  # exp(-15^2) at the middle-half edge
    validate_line_support(st)

    wide = make_state(g, np.exp(-((g.x / 40.0) ** 2)))
    assert support_defect(wide) > 1e-3
    with pytest.raises(ValueError):
        validate_line_support(wide)


def test_spectral_derivative_exact_on_modes():
    g = make_grid(0.0, 2 * np.pi, 128, periodic=True)
    for xi in (1, 3, 10):
        st = make_state(g, np.sin(xi * g.x))
        d = spectral_derivative(st)
        assert np.max(np.abs(d - xi * np.cos(xi * g.x))) < 1e-11


def test_spectral_derivative_line_grid_rejected():
    g = make_grid(0.0, 2 * np.pi, 128)
    st = make_state(g, np.sin(g.x))
    with pytest.raises(ValueError):
        spectral_derivative(st)


def test_workspace_mismatch_rejected():
    g1 = make_grid(0.0, 2 * np.pi, 128, periodic=True)
    g2 = make_grid(0.0, 2 * np.pi, 64, periodic=True)
    ws = build_workspace(g2)
    st = make_state(g1, np.sin(g1.x))
    with pytest.raises(ValueError):
        apply_linear_multiplier(st, ws)
    with pytest.raises(ValueError):
        build_workspace(make_grid(0.0, 1.0, 64))


def test_linear_multiplier_matches_symbol():
    # multiplier + advection constant act on cos(xi x) as
    # -2 xi (log xi + gamma - log 2) sin(xi x)
    g = make_grid(-np.pi, 2 * np.pi, 256, periodic=True)
    ws = build_workspace(g)
    for xi in (1, 2, 5, 16):
        st = make_state(g, np.cos(xi * g.x))
        lin = apply_linear_multiplier(st, ws) + TWO_GAMMA_MINUS_LOG4 * spectral_derivative(st, ws)
        pred = -2.0 * xi * (np.log(xi) + EULER_GAMMA - np.log(2.0)) * np.sin(xi * g.x)
        assert np.max(np.abs(lin - pred)) < 1e-10


def test_linear_multiplier_kills_mean():
    g = make_grid(0.0, 2 * np.pi, 128, periodic=True)
    ws = build_workspace(g)
    st = make_state(g, np.full(128, 0.3))
    out = apply_linear_multiplier(st, ws)
    assert np.max(np.abs(out)) < 1e-14


def test_stencil_derivative_periodic_order():
    errs = []
    for n in (64, 128):
        g = make_grid(0.0, 2 * np.pi, n, periodic=True)
        vals = np.sin(3 * g.x)
        d = stencil_derivative(vals, g.dx, periodic=True)
        errs.append(np.max(np.abs(d - 3 * np.cos(3 * g.x))))
    assert errs[0] / errs[1] > 12.0  # 4th order: 16x per halving


def test_stencil_derivative_line_matches_analytic():
    errs = []
    for n in (600, 1200):
        g = make_grid(-30.0, 60.0, n)
        phi = np.exp(-(g.x**2) / 4.0)
        d = stencil_derivative(phi, g.dx, periodic=False)
        exact = -0.5 * g.x * phi
        errs.append(np.max(np.abs(d - exact)))
    assert errs[0] / errs[1] > 10.0
    assert errs[1] < 5e-7


def test_finite_difference_derivative_dispatch():
    g = make_grid(-30.0, 60.0, 600)
    st = make_state(g, np.exp(-(g.x**2)))
    d = finite_difference_derivative(st)
    assert np.max(np.abs(d - stencil_derivative(st.phi, g.dx, periodic=False))) == 0.0


def test_grid_inequality():
    a = make_grid(0.0, 1.0, 64)
    b = make_grid(0.0, 1.0, 64, periodic=True)
    assert a != b
    st = make_state(a, np.zeros(64))
    assert isinstance(st, FrontState)


def _stencil_by_pad_and_roll(values, dx, periodic):
    # the stencil as first written: np.roll for periodic data, np.pad edge
    # extension for line data
    if periodic:
        p1, m1 = np.roll(values, -1), np.roll(values, 1)
        p2, m2 = np.roll(values, -2), np.roll(values, 2)
    else:
        padded = np.pad(values, 2, mode="edge")
        p1, m1, p2, m2 = padded[3:-1], padded[1:-3], padded[4:], padded[:-4]
    return (-p2 + 8.0 * p1 - 8.0 * m1 + m2) / (12.0 * dx)


@pytest.mark.parametrize("n", [8, 1024])
@pytest.mark.parametrize("periodic", [False, True])
def test_stencil_derivative_bitwise_equals_pad_formula(n, periodic):
    rng = np.random.default_rng(n)
    values = rng.standard_normal(n) * 10.0 ** rng.uniform(-6.0, 6.0, n)
    got = stencil_derivative(values, 0.037, periodic)
    assert np.array_equal(got, _stencil_by_pad_and_roll(values, 0.037, periodic))
