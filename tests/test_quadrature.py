"""Kernel-contrast quadrature: oracles, identities, convergence.

Reference values were produced with mpmath (mp.dps = 30) by adaptive
quadrature of the defining integrals, with the integration line split at the
evaluation point and at the edges of the front support. They are frozen here
so regressions show up as plain numeric drift.

Front for the oracle block: gaussian, amplitude 0.5, width 2.0, center 0,
reference depth h = 1, evaluated at x0 = 0.7 (a grid node for n = 1200 and
n = 2400 on the [-30, 30) line).
"""

import numpy as np
import pytest

from sqgfronts import (
    EULER_GAMMA,
    KernelParams,
    background_term,
    cosine_integral_constant,
    diagonal_limit_one_sided,
    front_profile,
    kernel_difference,
    linear_term_quadrature,
    make_grid,
    make_state,
    nonlinear_term,
    resolve_depth,
    scale_identity,
)
from sqgfronts import quadrature
from sqgfronts.quadrature import _by_offset, _pair_sum, _separation

X0 = 0.7
ORACLE_NONLINEAR = 0.0019610448345700312  # slope-contrast integral against the front kernel
ORACLE_LINEAR = 0.043209423393224418  # remaining log-kernel part, depth-1 regularization
ORACLE_TENDENCY = 0.045170468227794449  # their sum; the representative-velocity route gives the same number


def _oracle_state(n):
    g = make_grid(-30.0, 60.0, n)
    phi, phix = front_profile(g.x, "gaussian", amplitude=0.5, width=2.0, center=0.0)
    return make_state(g, phi), phix


def _node(g, x):
    i = int(round((x - g.x_min) / g.dx))
    assert abs(g.x[i] - x) < 1e-12, "oracle abscissa must be a grid node"
    return i


def test_kernel_params_validation():
    with pytest.raises(ValueError):
        KernelParams(h=-1.0)
    with pytest.raises(ValueError):
        KernelParams(h=0.0)
    with pytest.raises(ValueError):
        KernelParams(window=-3.0)
    with pytest.raises(ValueError):
        KernelParams(diagonal_mode="midpoint")
    KernelParams(h=2.5, window=20.0, diagonal_mode="skip_point")


def test_resolve_depth():
    st, _ = _oracle_state(600)
    assert resolve_depth(st, KernelParams(h=3.0)) == 3.0
    # adaptive default: 1 + 2 max(0, -min phi); this front is nonnegative
    assert resolve_depth(st, KernelParams()) == 1.0
    # dip overlaps the bump tail, so the minimum sits slightly above -0.6
    dipped = st.with_phi(st.phi - 0.6 * np.exp(-(st.grid.x - 5.0) ** 2))
    assert abs(resolve_depth(dipped, KernelParams()) - (1.0 + 2.0 * 0.6)) < 5e-3
    # a fixed h that does not clear the front minimum is rejected
    with pytest.raises(ValueError):
        resolve_depth(dipped, KernelParams(h=0.5))


def test_kernel_difference_basics():
    # positive whenever the elevation difference is nonzero, zero otherwise
    assert kernel_difference(2.0, 0.0) == 0.0
    assert kernel_difference(2.0, 1.0) > 0.0
    val = kernel_difference(3.0, 0.5)
    expected = 1.0 / 3.0 - 1.0 / np.hypot(3.0, 0.5)
    assert abs(val - expected) < 1e-16
    with pytest.raises(ValueError):
        kernel_difference(0.0, 0.5)


def test_diagonal_limit():
    # coincidence limit of the slope-contrast integrand from either side
    assert diagonal_limit_one_sided(0.0, 2.5) == 0.0
    r = np.hypot(1.0, 0.8)
    expected = 1.3 * (r - 1.0) / r
    assert abs(diagonal_limit_one_sided(0.8, 1.3) - expected) < 1e-15


def test_nonlinear_term_oracle():
    st, phix = _oracle_state(1200)
    i = _node(st.grid, X0)
    val = nonlinear_term(st, phix, KernelParams(h=1.0))[i]
    assert abs(val - ORACLE_NONLINEAR) < 1e-9


def test_linear_term_oracle():
    st, phix = _oracle_state(1200)
    i = _node(st.grid, X0)
    val = linear_term_quadrature(st, phix, KernelParams(h=1.0))[i]
    assert abs(val - ORACLE_LINEAR) < 1e-8


def test_split_sums_to_rhs_oracle():
    st, phix = _oracle_state(1200)
    i = _node(st.grid, X0)
    p = KernelParams(h=1.0)
    total = nonlinear_term(st, phix, p)[i] + linear_term_quadrature(st, phix, p)[i]
    assert abs(total - ORACLE_TENDENCY) < 5e-7


def test_quadrature_convergence_rate():
    # composite trapezoid + endpoint and kink corrections: 4th order,
    # so halving dx should cut the error by about 16; require at least 8
    errs_nl, errs_lin = [], []
    for n in (1200, 2400):
        st, phix = _oracle_state(n)
        i = _node(st.grid, X0)
        p = KernelParams(h=1.0)
        errs_nl.append(abs(nonlinear_term(st, phix, p)[i] - ORACLE_NONLINEAR))
        errs_lin.append(abs(linear_term_quadrature(st, phix, p)[i] - ORACLE_LINEAR))
    assert errs_nl[0] / max(errs_nl[1], 1e-14) > 8.0
    assert errs_lin[0] / max(errs_lin[1], 1e-14) > 8.0


def test_oracle_against_live_mpmath():
    # recompute the frozen slope-contrast value independently
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 25
    amp, wid = mp.mpf("0.5"), mp.mpf("2.0")

    def phi(t):
        return amp * mp.exp(-((t / wid) ** 2))

    def rho(t):
        return phi(t) * (-2 * t / wid**2)

    x0 = mp.mpf("0.7")
    px, rx = phi(x0), rho(x0)

    def integrand(t):
        s = x0 - t
        dphi = px - phi(t)
        return (rx - rho(t)) * (1 / mp.sqrt(s**2 + dphi**2) - 1 / abs(s))

    pts = [-mp.inf, -30, -8, -2, 0, x0, 2, 8, 30, mp.inf]
    val = mp.quad(integrand, pts)
    assert abs(float(val) - ORACLE_NONLINEAR) < 1e-13


def test_background_term_vanishes():
    # the strip-consistency integral is identically zero in the continuum;
    # the quadrature should sit at the discretization floor
    st, phix = _oracle_state(1200)
    for h in (1.0, 2.5):
        worst = np.max(np.abs(background_term(st, phix, KernelParams(h=h))))
        assert worst < 1e-8


def test_even_front_gives_odd_tendency():
    # both integrals flip sign under x -> -x when phi is even (the slope is
    # odd and the kernels are even); check the exact grid reflection
    st, phix = _oracle_state(1200)
    p = KernelParams(h=1.0)
    total = nonlinear_term(st, phix, p) + linear_term_quadrature(st, phix, p)
    n = st.grid.n
    j = np.arange(1, n)
    assert np.max(np.abs(total[j] + total[n - j])) < 1e-12


def test_window_parameter_changes_little_for_compact_front():
    # the window drops the bump's weak influence on distant nodes; for this
    # front that influence is a few 1e-6 at worst
    st, phix = _oracle_state(1200)
    full = nonlinear_term(st, phix, KernelParams(h=1.0))
    windowed = nonlinear_term(st, phix, KernelParams(h=1.0, window=20.0))
    assert 1e-8 < np.max(np.abs(full - windowed)) < 1e-5


def test_skip_point_mode_consistent():
    st, phix = _oracle_state(1200)
    a = nonlinear_term(st, phix, KernelParams(h=1.0))
    b = nonlinear_term(st, phix, KernelParams(h=1.0, diagonal_mode="skip_point"))
    # skipping the diagonal drops the kink correction: low-order but consistent
    assert np.max(np.abs(a - b)) < 1e-3


def test_scale_identity():
    for c in (0.1, 0.5, 1.0, np.e, 10.0):
        assert abs(scale_identity(c) - np.log(c)) < 1e-10
    # the identity only sees |c|
    assert abs(scale_identity(-2.0) - np.log(2.0)) < 1e-10
    with pytest.raises(ValueError):
        scale_identity(0.0)
    with pytest.raises(ValueError):
        scale_identity(np.inf)


def test_scale_identity_cutoff_insensitive():
    a = scale_identity(np.e, cutoff=1e3)
    b = scale_identity(np.e, cutoff=1e4)
    assert abs(a - b) < 1e-12


def test_cosine_integral_constant():
    got = cosine_integral_constant()
    assert abs(got - (EULER_GAMMA - np.log(2.0))) < 1e-9


def test_cosine_integral_truncation_sweep():
    base = cosine_integral_constant(inner=350.0)
    for inner in (200.0, 700.0):
        assert abs(cosine_integral_constant(inner=inner) - base) < 1e-11
    with pytest.raises(ValueError):
        cosine_integral_constant(inner=10.0)


def test_periodic_state_rejects_window():
    g = make_grid(0.0, 2 * np.pi, 128, periodic=True)
    st = make_state(g, 0.05 * np.cos(g.x))
    phix = -0.05 * np.sin(g.x)
    with pytest.raises(ValueError):
        nonlinear_term(st, phix, KernelParams(window=5.0))


def _band_weights(n, band, ends):
    # reference weights, row by row as the dense mask used to build them: a
    # trapezoid over the band [i-k, i+k] clipped to the grid; without `ends`
    # a band clipped at a grid end keeps full weight there
    k = n if band is None else band
    w = np.zeros((n, n))
    for i in range(n):
        lo, hi = max(0, i - k), min(n - 1, i + k)
        w[i, lo:hi + 1] = 1.0
        if ends or lo == i - k:
            w[i, lo] = 0.5
        if ends or hi == i + k:
            w[i, hi] = 0.5
    return w


@pytest.mark.parametrize("ends", [False, True])
@pytest.mark.parametrize("band", [None, 1, 7, 25])
@pytest.mark.parametrize("contrast", [True, False])
def test_pair_sum_matches_direct_double_sum(monkeypatch, ends, band, contrast):
    # several row blocks: 6 rows per block on a 40-node grid
    n = 40
    monkeypatch.setattr(quadrature, "_BLOCK_ELEMENTS", 6 * n)
    rng = np.random.default_rng(7)
    kern = rng.standard_normal((n, n))
    rho = rng.standard_normal(n) if contrast else None
    diag = rng.standard_normal(n)

    def rows(i0, i1):
        block = kern[i0:i1].copy()
        block[np.arange(i1 - i0), np.arange(i0, i1)] = np.nan  # never read
        return block

    got = _pair_sum(rows, n, rho, ends=ends, band=band, diag=diag)
    w = _band_weights(n, band, ends)
    k0 = kern.copy()
    np.fill_diagonal(k0, 0.0)
    pair = (rho[:, None] - rho[None, :]) * k0 if contrast else k0
    want = (w * pair).sum(axis=1) + np.diag(w) * diag
    assert np.max(np.abs(got - want)) < 1e-13


def test_pair_sum_blocking_leaves_periodic_term_unchanged(monkeypatch):
    g = make_grid(-8.0 * np.pi, 16.0 * np.pi, 256, periodic=True)
    phi, phix = front_profile(g.x, "gaussian", amplitude=0.1, width=0.5, center=0.3)
    st = make_state(g, phi)
    whole = nonlinear_term(st, phix)
    monkeypatch.setattr(quadrature, "_BLOCK_ELEMENTS", 7 * g.n)
    blocked = nonlinear_term(st, phix)
    assert np.max(np.abs(whole - blocked)) < 1e-16


@pytest.mark.parametrize("periodic", [True, False])
def test_offset_geometry_matches_pairwise_differences(periodic):
    g = make_grid(-8.0 * np.pi, 16.0 * np.pi, 512, periodic=periodic)
    s = g.x[:, None] - g.x[None, :]
    if periodic:
        s -= g.length * np.round(s / g.length)  # minimum image
    np.fill_diagonal(s, 1.0)  # the placeholder of the singular diagonal
    view = _by_offset(_separation(g), g.n)
    assert np.max(np.abs(view - np.abs(s))) < 1e-13
