"""Kernel-contrast quadrature: oracles, identities, convergence.

Reference values were produced with mpmath (mp.dps = 30) by adaptive
quadrature of the defining integrals, with the integration line split at the
evaluation point and at the edges of the front support. They are frozen here
so regressions show up as plain numeric drift.

Front for the oracle block: gaussian, amplitude 0.5, width 2.0, center 0,
reference depth h = 1, evaluated at x0 = 0.7 (a grid node for n = 1200 and
n = 2400 on the [-30, 30) line).
"""

import dataclasses
import importlib
import inspect
import os
import signal
import subprocess
import sys
import threading
import time
import tracemalloc
import types
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from sqgfronts import (
    KernelParams,
    SimConfig,
    cosine_integral_constant,
    front_profile,
    galilean_shift,
    initial_state,
    kernel_difference,
    linear_term_quadrature,
    make_grid,
    make_state,
    nonlinear_term,
    normal_velocity_background,
    normal_velocity_bmo,
    resolve_depth,
    rhs,
    rhs_galilean_form,
    scale_identity,
)
from sqgfronts import background_term, quadrature
from sqgfronts.cli import measure_background, measure_scale_identity
from sqgfronts.grid import stencil_derivative
from sqgfronts.quadrature import (
    _by_offset,
    _diagonal_jump_correction,
    _end_term,
    _even_row_sum,
    _pair_sum,
    _separation,
    _trapezoid_weights,
)
from test_acceptance import FRONTS

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
        KernelParams(h=np.inf)
    assert [f.name for f in dataclasses.fields(KernelParams)] == ["h"]
    assert KernelParams(h=2.5).h == 2.5


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


# the kernel K(s, dphi) of every caller of the diagonal rule; each passes its
# own K(1, phi_x)
DIAGONAL_KERNELS = {
    "contrast": lambda s, d: 1.0 / np.hypot(s, d) - 1.0 / np.abs(s),  # nonlinear_term
    "front": lambda s, d: 1.0 / np.hypot(s, d),  # the two normal-velocity routes
    "bare": lambda s, d: 1.0 / np.abs(s),  # linear_term_quadrature
    "kernel_difference": kernel_difference,  # rhs_galilean_form
}

# d/dp K(1, p), r = sqrt(1 + p^2), by hand
_UNIT_KERNEL_SLOPES = {
    "contrast": lambda p, r: -p / r**3,
    "front": lambda p, r: -p / r**3,
    "bare": lambda p, r: 0.0 * p,
    "kernel_difference": lambda p, r: p / r**3,
}


def test_diagonal_limit():
    # the integrand (rho(x) - rho(x')) K(x' - x, phi(x) - phi(x')) of a
    # gaussian front, rho = phi_x, evaluated at x' = x +- eps; its one-sided
    # limits are +-F, F = -phi_xx K(1, phi_x) (the module docstring's
    # diagonal rule), and it closes on them at first order in eps. For the
    # contrast kernel F = phi_xx (r - 1)/r, r = sqrt(1 + phi_x^2)
    a, w = 0.5, 2.0
    phi = lambda x: a * np.exp(-((x / w) ** 2))
    rho = lambda x: -2.0 * x / w**2 * phi(x)
    rho_x = lambda x: (4.0 * x**2 / w**4 - 2.0 / w**2) * phi(x)

    for kernel in DIAGONAL_KERNELS.values():
        def integrand(x, xp):
            return (rho(x) - rho(xp)) * kernel(xp - x, phi(x) - phi(xp))

        for x in (0.7, -1.9):
            limit = -rho_x(x) * kernel(1.0, rho(x))
            assert abs(limit) > 1e-3
            for side in (1.0, -1.0):
                errs = [abs(integrand(x, x + side * eps) - side * limit) for eps in (1e-2, 1e-3, 1e-4)]
                assert errs[-1] < 1e-4 * abs(limit)
                assert all(8.0 < e0 / e1 < 12.0 for e0, e1 in zip(errs, errs[1:]))
    # where phi_x = 0 the contrast kernel has no jump, whatever phi_xx
    assert -2.5 * DIAGONAL_KERNELS["contrast"](1.0, 0.0) == 0.0


def _asymmetric_periodic_front(n):
    g = make_grid(-np.pi, 2.0 * np.pi, n, periodic=True)
    return make_state(g, 0.6 * np.cos(g.x) + 0.3 * np.sin(2.0 * g.x + 0.4) + 0.2 * np.cos(3.0 * g.x - 1.0))


def _diagonal_jump_expanded(name, phix, dx):
    """The one-sided derivative jump at x' = x written out term by term,
    dF/dx = -phi_xxx K(1, phi_x) - phi_xx^2 dK/dp(1, phi_x): for the contrast
    kernel phi_xxx (1 - 1/r) + phi_x phi_xx^2 / r^3, r = sqrt(1 + phi_x^2),
    with phi_xx and phi_xxx by the 4th-order stencil on a periodic grid."""
    rho1 = stencil_derivative(phix, dx, True)
    rho2 = stencil_derivative(rho1, dx, True)
    r = np.sqrt(1.0 + phix * phix)
    return -rho2 * DIAGONAL_KERNELS[name](1.0, phix) - rho1 * rho1 * _UNIT_KERNEL_SLOPES[name](phix, r)


@pytest.mark.parametrize("name", list(DIAGONAL_KERNELS))
def test_diagonal_correction_leaves_the_periodic_mean(name):
    # the correction is a stencil difference, which telescopes over a
    # periodic grid; the expanded jumps summed to -2e-8 here
    st = _asymmetric_periodic_front(64)
    coda = _diagonal_jump_correction(DIAGONAL_KERNELS[name](1.0, st.slope), st.slope, st.grid)
    assert abs(coda.sum()) <= 64 * np.finfo(float).eps * np.abs(coda).sum()


@pytest.mark.parametrize("name", list(DIAGONAL_KERNELS))
def test_diagonal_correction_matches_the_expanded_jumps(name):
    # the flux form and the expanded form both take the jump to 4th order in
    # dx, so their relative gap stays under a bound that falls 16x per dx
    # halving (it reads 4.6e-3, 3.2e-4 and 2.0e-5 for the contrast kernel)
    for n in (128, 256, 512):
        st = _asymmetric_periodic_front(n)
        dx = st.grid.dx
        unit_kernel = DIAGONAL_KERNELS[name](1.0, st.slope)
        jump = _diagonal_jump_correction(unit_kernel, st.slope, st.grid) * 12.0 / dx**2
        expanded = _diagonal_jump_expanded(name, st.slope, dx)
        assert np.max(np.abs(jump - expanded)) <= 3e-5 * (512 / n) ** 4 * np.max(np.abs(expanded))


def test_nonlinear_term_oracle():
    st, phix = _oracle_state(1200)
    i = _node(st.grid, X0)
    val = nonlinear_term(st, phix)[i]
    assert abs(val - ORACLE_NONLINEAR) < 1e-9


def test_linear_term_oracle():
    st, phix = _oracle_state(1200)
    i = _node(st.grid, X0)
    val = linear_term_quadrature(st, phix)[i]
    assert abs(val - ORACLE_LINEAR) < 1e-8


def test_split_sums_to_rhs_oracle():
    st, phix = _oracle_state(1200)
    i = _node(st.grid, X0)
    total = nonlinear_term(st, phix)[i] + linear_term_quadrature(st, phix)[i]
    assert abs(total - ORACLE_TENDENCY) < 5e-7


def _oracle_errors(n):
    """Errors of the nonlinear and the linear term at X0 against the oracles."""
    st, phix = _oracle_state(n)
    i = _node(st.grid, X0)
    return abs(nonlinear_term(st, phix)[i] - ORACLE_NONLINEAR), abs(linear_term_quadrature(st, phix)[i] - ORACLE_LINEAR)


def test_quadrature_convergence_rate():
    # composite trapezoid + endpoint and kink corrections: 4th order,
    # so halving dx should cut the error by about 16; require at least 8
    (nl1, lin1), (nl2, lin2) = _oracle_errors(1200), _oracle_errors(2400)
    assert nl1 / max(nl2, 1e-14) > 8.0
    assert lin1 / max(lin2, 1e-14) > 8.0


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
    front = ("gaussian", dict(amplitude=0.5, width=2.0, center=0.0))  # the oracle front
    assert measure_background(1200, [front], (1.0, 2.5)) < 1e-8


def test_even_front_gives_odd_tendency():
    # both integrals flip sign under x -> -x when phi is even (the slope is
    # odd and the kernels are even); check the exact grid reflection
    st, phix = _oracle_state(1200)
    total = nonlinear_term(st, phix) + linear_term_quadrature(st, phix)
    n = st.grid.n
    j = np.arange(1, n)
    assert np.max(np.abs(total[j] + total[n - j])) < 1e-12


def test_scale_identity():
    assert measure_scale_identity((0.1, 0.5, 1.0, np.e, 10.0)) < 1e-10
    # the identity only sees |c|
    assert abs(scale_identity(-2.0) - np.log(2.0)) < 1e-10
    # over 1000 doubling panels, whose ratio m / (c/8) overflows a double
    assert abs(scale_identity(1e-307) / np.log(1e-307) - 1.0) < 1e-15
    with pytest.raises(ValueError):
        scale_identity(0.0)
    with pytest.raises(ValueError):
        scale_identity(np.inf)


def test_scale_identity_cutoff_insensitive():
    a = scale_identity(np.e, cutoff=1e3)
    b = scale_identity(np.e, cutoff=1e4)
    assert abs(a - b) < 1e-12


@pytest.mark.parametrize("c", [1e-3, 1e-2, 1e2, 1e3])
def test_scale_identity_against_live_mpmath(c):
    # factors outside criterion 02's five: the first panel is c/8 wide at
    # small c, and the doubling panels reach out to the cutoff 100 c at large
    # c. The readings are 1.8e-15 at c = 1e-3 and 1e-2, 8.9e-16 at 1e2 and 1e3
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 30
    cm = mp.mpf(c)
    ref = mp.quad(lambda s: 1 / mp.sqrt(s**2 + 1) - 1 / mp.sqrt(s**2 + cm**2), [0, min(cm, 1), max(cm, 1), mp.inf])
    assert abs(ref - mp.log(cm)) < 1e-25
    assert abs(scale_identity(c) - float(ref)) < 1e-14


@pytest.mark.parametrize("c", [1e150, 1e300, 1.7e306])
def test_scale_identity_at_large_factors(c):
    # the tail's powers come from 1/m and c/m, so no m^k overflows; the
    # readings are 2.2e-16 to 4.4e-16 relative
    assert abs(scale_identity(c) / np.log(c) - 1.0) < 2e-15


def test_scale_identity_refuses_a_factor_whose_cutoff_overflows():
    with pytest.raises(ValueError, match="c = 1e\\+307"):
        scale_identity(1e307)


def test_gauss_legendre_weights_against_mpmath():
    # each weight against 2 / ((1 - x^2) P_n'(x)^2) at the node x refined in
    # mpmath at 40 digits; they read 2.3e-14 relative, leggauss's own 7e-13
    mp = pytest.importorskip("mpmath")
    t, w = quadrature._gauss_legendre()
    n = t.size

    def slope(x):  # P_n'(x) = n (x P_n - P_(n-1)) / (x^2 - 1)
        return n * (x * mp.legendre(n, x) - mp.legendre(n - 1, x)) / (x * x - 1)

    worst = 0.0
    with mp.workdps(40):
        for ti, wi in zip(t, w):
            x = mp.mpf(ti)
            for _ in range(3):
                x -= mp.legendre(n, x) / slope(x)
            assert abs(x - ti) <= 2e-16 * max(abs(x), 1e-3)
            exact = 2 / ((1 - x * x) * slope(x) ** 2)
            worst = max(worst, abs(float((wi - exact) / exact)))
    assert worst < 5e-14


def test_cosine_integral_truncation_sweep():
    base = cosine_integral_constant(inner=350.0)
    for inner in (200.0, 700.0):
        assert abs(cosine_integral_constant(inner=inner) - base) < 1e-11
    with pytest.raises(ValueError):
        cosine_integral_constant(inner=10.0)


def _pair_grid(n, periodic=True):
    # `_pair_sum` reads only these three fields of its grid; a stand-in also
    # takes the odd n that LineGrid refuses. The raw-sum tests pass the unit
    # kernel 0.0, whose diagonal correction adds an exact zero, and dx = 1
    # leaves the sum unscaled
    return types.SimpleNamespace(n=n, periodic=periodic, dx=1.0)


def _direct_pair_sum(kern, rho, ends, diag=0.0):
    # broadcast double sum with the trapezoid end weights: the slope-contrast
    # sum, or with rho None the plain row sum; the diagonal is replaced by diag
    n = kern.shape[0]
    w = np.ones(n)
    if ends:
        w[[0, -1]] = 0.5
    k0 = kern.copy()
    np.fill_diagonal(k0, 0.0)
    pair = k0 if rho is None else (rho[:, None] - rho[None, :]) * k0
    return (w * pair).sum(axis=1) + w * diag


@pytest.mark.parametrize("ends", [False, True])
@pytest.mark.parametrize("block_rows", [None, 1, 7, 25])
@pytest.mark.parametrize("contrast", [True])
def test_pair_sum_matches_direct_double_sum(monkeypatch, ends, block_rows, contrast):
    # rows per block on a 40-node grid: one block (None), one row per block,
    # and sizes that leave a short last block; `ends` is a line grid (the
    # trapezoid end weights), against a periodic one. The slope-contrast sum
    # is the one mode _pair_sum has, and its axis keeps the case ids stable
    n = 40
    if block_rows is not None:
        monkeypatch.setattr(quadrature, "_BLOCK_ELEMENTS", block_rows * n)
    rng = np.random.default_rng(7)
    kern = rng.standard_normal((n, n))
    rho = rng.standard_normal(n)

    def rows(i0, i1):
        block = kern[i0:i1].copy()
        block[np.arange(i1 - i0), np.arange(i0, i1)] = np.nan  # never read
        return block

    got = _pair_sum(rows, _pair_grid(n, periodic=not ends), rho, 0.0)
    assert np.max(np.abs(got - _direct_pair_sum(kern, rho, ends))) < 1e-13


@pytest.mark.parametrize("ends", [False, True])
@pytest.mark.parametrize("block_rows", [None, 1, 7, 25])
@pytest.mark.parametrize("contrast", [True])
@pytest.mark.parametrize("n", [40, 41])
def test_pair_sum_symmetric_matches_direct_double_sum(monkeypatch, ends, block_rows, contrast, n):
    # triangular row blocks: one block (None), one row per block (one entry a
    # block), and blocks of up to 7 n or 25 n entries, whose first block takes
    # 7 or 25 rows and whose last is short, on an even and an odd grid, line
    # (`ends`) or periodic; the slope-contrast sum is the one mode, its axis
    # keeps the case ids stable
    if block_rows is not None:
        monkeypatch.setattr(quadrature, "_BLOCK_ELEMENTS", 1 if block_rows == 1 else block_rows * n)
        starts, stops = quadrature._row_blocks(n, True)
        assert stops[0] == block_rows
        last = stops[-1] - starts[-1]  # cut short by the grid's end
        assert block_rows == 1 or len(starts) > 1 and last < quadrature._BLOCK_ELEMENTS // last
    rng = np.random.default_rng(11)
    kern = rng.standard_normal((n, n))
    kern += kern.T
    rho = rng.standard_normal(n)

    def upper_rows(i0, i1):
        block = kern[i0:i1].copy()
        block[:, :i0] = np.nan  # left of the requested columns
        block[np.arange(i1 - i0), np.arange(i0, i1)] = np.nan  # never read
        return block[:, i0:]

    got = _pair_sum(upper_rows, _pair_grid(n, periodic=not ends), rho, 0.0, symmetric=True)
    assert np.max(np.abs(got - _direct_pair_sum(kern, rho, ends))) < 1e-13


@pytest.mark.parametrize("periodic, n", [(True, 512), (False, 2048)])
def test_nonlinear_term_triangular_matches_full_rows(monkeypatch, periodic, n):
    # the symmetric front-kernel sum against the full-row assembly of the
    # same kernel, built from the one block holding every row
    if periodic:
        g = make_grid(-8.0 * np.pi, 16.0 * np.pi, n, periodic=True)
        phi, phix = front_profile(g.x, "gaussian", amplitude=0.1, width=0.5, center=0.3)
    else:
        g = make_grid(-30.0, 60.0, n)
        phi, phix = front_profile(g.x, "gaussian", amplitude=0.5, width=2.0, center=0.0)
    st = make_state(g, phi)
    triangular = nonlinear_term(st, phix)
    pair_sum = quadrature._pair_sum

    def full_rows(kernel_rows, grid, rho, unit_kernel, *, symmetric=False, **kw):
        assert symmetric
        whole = kernel_rows(0, grid.n)
        return pair_sum(lambda i0, i1: whole[i0:i1].copy(), grid, rho, unit_kernel, **kw)

    monkeypatch.setattr(quadrature, "_pair_sum", full_rows)
    assert np.max(np.abs(triangular - nonlinear_term(st, phix))) <= 1e-16


def test_pair_sum_blocking_leaves_periodic_term_unchanged(monkeypatch):
    # one block against triangular blocks of up to 7 n entries: 21 blocks at
    # n = 256, the first of 7 rows
    g = make_grid(-8.0 * np.pi, 16.0 * np.pi, 256, periodic=True)
    phi, phix = front_profile(g.x, "gaussian", amplitude=0.1, width=0.5, center=0.3)
    st = make_state(g, phi)
    whole = nonlinear_term(st, phix)
    monkeypatch.setattr(quadrature, "_BLOCK_ELEMENTS", 7 * g.n)
    assert len(quadrature._row_blocks(g.n, True)[0]) == 21
    blocked = nonlinear_term(st, phix)
    assert np.max(np.abs(whole - blocked)) < 1e-16


@pytest.mark.parametrize("symmetric", [True, False])
@pytest.mark.parametrize("n", [7, 512, 2048])
def test_row_blocks_cover_every_row_once_within_the_block_size(symmetric, n):
    starts, ends = quadrature._row_blocks(n, symmetric)
    assert starts[0] == 0 and ends[-1] == n and starts[1:] == ends[:-1]
    assert all(i1 > i0 for i0, i1 in zip(starts, ends))
    entries = [(i1 - i0) * (n - i0 if symmetric else n) for i0, i1 in zip(starts, ends)]
    assert all(e <= quadrature._BLOCK_ELEMENTS or i1 - i0 == 1
               for e, i0, i1 in zip(entries, starts, ends))
    # the counts the module's docstrings quote: line n = 2048 and periodic
    # n = 512 on triangular blocks, full rows at n = 2048
    want = {(2048, True): (34, 2_185_241), (512, True): (3, 176_612), (2048, False): (64, 2048 * 2048)}
    if (n, symmetric) in want:
        assert (len(starts), sum(entries)) == want[n, symmetric]


def test_row_blocks_hold_one_row_where_a_row_exceeds_the_block_size(monkeypatch):
    monkeypatch.setattr(quadrature, "_BLOCK_ELEMENTS", 1)
    for symmetric in (True, False):
        assert quadrature._row_blocks(5, symmetric) == ([0, 1, 2, 3, 4], [1, 2, 3, 4, 5])


def test_height_factors_match_the_outer_difference_bit_for_bit():
    # heights of either sign from 1e-300 to 1e150, exact zeros of both signs
    # and coinciding heights, on blocks of triangular and full rows: every
    # difference is the outer one's, and each front kernel block its bits
    rng = np.random.default_rng(27)
    n = 300
    phi = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-300.0, 150.0, n)
    phi[:8] = [0.0, -0.0, 0.0, -0.0, 1e-300, -1e-300, 1e150, -1e150]
    phi[8:12] = phi[4:8]
    rows, cols = quadrature._height_factors(phi)
    s2 = _by_offset(np.square(_separation(_pair_grid(n, periodic=False))), n)
    for i0, i1, j0 in [(0, 40, 0), (0, 40, 40), (37, 101, 37), (250, 300, 250), (299, 300, 0)]:
        want = np.subtract.outer(phi[i0:i1], phi[j0:])
        got = rows[i0:i1] @ cols[:, j0:]
        assert np.array_equal(got, want)
        zero = want == 0.0
        assert np.array_equal(np.signbit(got[~zero]), np.signbit(want[~zero]))
        kern = quadrature._front_kernel(rows[i0:i1], cols[:, j0:], s2[i0:i1, j0:])
        old = np.reciprocal(np.sqrt(np.square(want) + s2[i0:i1, j0:]))
        assert np.array_equal(kern.view(np.int64), old.view(np.int64))


@pytest.fixture
def fresh_pool(monkeypatch):
    """A pair-sum pool of the test's own, started on first use as usual and
    shut down after the test; the other tests keep theirs. The cores read
    as free of other processes' load, so a busy test host threads as well."""
    monkeypatch.setattr(quadrature, "_pool", None)
    monkeypatch.setattr(quadrature, "_other_load", lambda cores: False)
    yield
    if quadrature._pool is not None:
        quadrature._pool.shutdown()


def _on_cores(monkeypatch, cores=None):
    # pair sums above the cutoff run on `cores` pool workers (no more than
    # they have blocks), by default one for every usable core and at least
    # two, so the pool runs on any machine
    cores = cores or max(2, quadrature._usable_cores())
    monkeypatch.setattr(quadrature, "_usable_cores", lambda: cores)


def _line_front(n, amplitude=0.5):
    g = make_grid(-30.0, 60.0, n)
    phi, phix = front_profile(g.x, "gaussian", amplitude=amplitude, width=2.0, center=0.0)
    return make_state(g, phi), phix


@pytest.mark.parametrize("cores", [1, 2, 3])
@pytest.mark.parametrize("mode", ["symmetric", "ends", "full"])
@pytest.mark.parametrize("n", [64, 131, 200])
def test_pair_sum_threads_match_one_core_bit_for_bit(monkeypatch, fresh_pool, cores, mode, n):
    # blocks of up to 5 n entries: 5 rows a block on full rows (13 to 40
    # blocks), 5 rows and more on triangular ones (8 to 23 blocks), claimed by
    # the calling thread alone or by 2 or 3 pool threads, out of order: the
    # pool thread that holds block 0 waits until another pool thread has
    # finished a later block
    monkeypatch.setattr(quadrature, "_BLOCK_ELEMENTS", 5 * n)
    symmetric = mode == "symmetric"
    rng = np.random.default_rng(n)
    kern = rng.standard_normal((n, n))
    kern += kern.T
    rho = rng.standard_normal(n)
    threads = []  # the thread of each block, in the order they start
    later_done = threading.Event()
    hold_first = False

    def rows(i0, i1):
        me = threading.current_thread()
        if hold_first and i0 > 0 and me in threads:  # its previous block is done
            later_done.set()
        threads.append(me)
        if hold_first and i0 == 0:
            later_done.wait(10.0)
        block = kern[i0:i1].copy()
        block[np.arange(i1 - i0), np.arange(i0, i1)] = np.nan  # never read
        return block[:, i0:] if symmetric else block

    grid = _pair_grid(n, periodic=mode != "ends")
    kw = {"symmetric": symmetric, "threaded": True}
    _on_cores(monkeypatch, 1)
    one_core = _pair_sum(rows, grid, rho, 0.0, **kw)
    assert set(threads) == {threading.main_thread()}
    threads.clear()
    monkeypatch.setattr(quadrature, "_PARALLEL_PAIRS", 0)
    _on_cores(monkeypatch, cores)
    hold_first = cores > 1
    assert np.array_equal(_pair_sum(rows, grid, rho, 0.0, **kw), one_core)
    assert later_done.is_set() == hold_first
    if hold_first:  # the calling thread only waits
        assert threading.main_thread() not in threads
    else:
        assert set(threads) == {threading.main_thread()}


def test_pair_sum_claims_every_block_once_under_thread_stress(monkeypatch, fresh_pool):
    # six pool threads on any machine, one row a block (one entry a block) and
    # a 1 us switch interval: a lost block breaks the bit-for-bit equality,
    # one claimed twice the count
    n = 200
    monkeypatch.setattr(quadrature, "_BLOCK_ELEMENTS", 1)
    rng = np.random.default_rng(3)
    kern = rng.standard_normal((n, n))
    kern += kern.T
    rho = rng.standard_normal(n)
    claimed = []

    def rows(i0, i1):
        claimed.append(i0)
        return kern[i0:i1, i0:].copy()

    _on_cores(monkeypatch, 1)
    one_core = _pair_sum(rows, _pair_grid(n), rho, 0.0, symmetric=True, threaded=True)
    monkeypatch.setattr(quadrature, "_PARALLEL_PAIRS", 0)
    _on_cores(monkeypatch, 6)
    monkeypatch.setattr(quadrature, "_pool", ThreadPoolExecutor(6))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            claimed.clear()
            assert np.array_equal(_pair_sum(rows, _pair_grid(n), rho, 0.0, symmetric=True, threaded=True), one_core)
            assert sorted(claimed) == list(range(n))
    finally:
        sys.setswitchinterval(interval)


def test_nonlinear_term_threaded_matches_one_core_bit_for_bit(monkeypatch, fresh_pool):
    # line n = 2048 forms 2.1e6 pairs, above the cutoff
    st, phix = _line_front(2048)
    _on_cores(monkeypatch, 1)
    one_core = nonlinear_term(st, phix)
    assert quadrature._pool is None
    _on_cores(monkeypatch)
    threaded = nonlinear_term(st, phix)
    assert quadrature._pool is not None
    assert np.array_equal(threaded, one_core)


def test_pair_sum_below_cutoff_starts_no_pool_thread(fresh_pool):
    # the symmetric n = 512 sum forms 163 840 pairs, the periodic benchmark's
    g = make_grid(-8.0 * np.pi, 16.0 * np.pi, 512, periodic=True)
    phi, phix = front_profile(g.x, "gaussian", amplitude=0.1, width=0.5, center=0.3)
    assert 163_840 <= quadrature._PARALLEL_PAIRS
    before = set(threading.enumerate())
    nonlinear_term(make_state(g, phi), phix)
    assert quadrature._pool is None
    assert set(threading.enumerate()) <= before


def test_pool_threads_call_no_public_function(monkeypatch, fresh_pool):
    # every public function of the package, at every module-level name bound
    # to it (as a tracer wraps them), records the thread it runs on
    threads = set()

    def recording(fn):
        def wrapper(*args, **kwargs):
            threads.add(threading.current_thread())
            return fn(*args, **kwargs)
        return wrapper

    for layer in ("grid", "fronts", "quadrature", "velocity", "dynamics"):
        mod = importlib.import_module(f"sqgfronts.{layer}")
        for name, fn in list(vars(mod).items()):
            if not name.startswith("_") and inspect.isfunction(fn) and fn.__module__.startswith("sqgfronts."):
                monkeypatch.setattr(mod, name, recording(fn))
    # 16 blocks at n = 256 on full rows, 10 on triangular ones
    monkeypatch.setattr(quadrature, "_BLOCK_ELEMENTS", 16 * 256)
    monkeypatch.setattr(quadrature, "_PARALLEL_PAIRS", 0)
    _on_cores(monkeypatch)
    st, _ = _line_front(256)
    normal_velocity_background(st)
    normal_velocity_bmo(st, galilean_shift(st))
    nonlinear_term(st, st.slope)
    g = make_grid(-2.0 * np.pi, 4.0 * np.pi, 256, periodic=True)
    cfg = SimConfig(grid=g, t_end=0.1, initial_family="gaussian",
                    initial_params={"amplitude": 0.1, "width": 0.5, "center": 0.0})
    rhs(initial_state(cfg), cfg)
    rhs_galilean_form(initial_state(cfg), cfg)
    assert quadrature._pool is not None
    assert threads == {threading.main_thread()}


def test_only_nonlinear_term_sums_run_on_the_pool(monkeypatch, fresh_pool):
    # the cutoff is the crossover measured for nonlinear_term's symmetric sum;
    # the velocity routes' sums and rhs_galilean_form's full-row sum stay on
    # the calling thread however many pairs they form
    # 16 blocks at n = 256 on full rows, 10 on triangular ones
    monkeypatch.setattr(quadrature, "_BLOCK_ELEMENTS", 16 * 256)
    monkeypatch.setattr(quadrature, "_PARALLEL_PAIRS", 0)
    _on_cores(monkeypatch)
    st, phix = _line_front(256)
    normal_velocity_background(st)
    normal_velocity_bmo(st, galilean_shift(st))
    g = make_grid(-2.0 * np.pi, 4.0 * np.pi, 256, periodic=True)
    cfg = SimConfig(grid=g, t_end=0.1, initial_family="gaussian",
                    initial_params={"amplitude": 0.1, "width": 0.5, "center": 0.0})
    rhs_galilean_form(initial_state(cfg), cfg)
    assert quadrature._pool is None
    nonlinear_term(st, phix)
    assert quadrature._pool is not None


def test_pair_sum_submits_no_more_threads_than_blocks(monkeypatch, fresh_pool):
    # three blocks of full rows on eight cores: three pool threads
    n = 30
    monkeypatch.setattr(quadrature, "_BLOCK_ELEMENTS", 10 * n)
    monkeypatch.setattr(quadrature, "_PARALLEL_PAIRS", 0)
    _on_cores(monkeypatch, 8)

    class CountingPool(ThreadPoolExecutor):
        submitted = 0

        def submit(self, *args, **kwargs):
            self.submitted += 1
            return super().submit(*args, **kwargs)

    monkeypatch.setattr(quadrature, "_pool", CountingPool(8))
    rng = np.random.default_rng(4)
    kern = rng.standard_normal((n, n))
    _pair_sum(lambda i0, i1: kern[i0:i1].copy(), _pair_grid(n), rng.standard_normal(n), 0.0, threaded=True)
    assert quadrature._pool.submitted == 3


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs core affinity")
def test_pair_sum_leaves_the_calling_threads_cores_alone(monkeypatch, fresh_pool):
    # only the pool workers hold themselves to cores; the calling thread's
    # mask is the same before and after, and it never sets one
    setters = []
    set_affinity = os.sched_setaffinity

    def spy(pid, mask):
        setters.append(threading.current_thread())
        set_affinity(pid, mask)

    monkeypatch.setattr(os, "sched_setaffinity", spy)
    _on_cores(monkeypatch)
    st, phix = _line_front(2048)
    before = os.sched_getaffinity(0)
    nonlinear_term(st, phix)
    assert quadrature._pool is not None
    assert os.sched_getaffinity(0) == before
    assert setters and threading.main_thread() not in setters


def test_pair_sum_raises_a_pool_threads_error_after_every_block_ends(monkeypatch, fresh_pool):
    # block 0 fails on a pool thread once another block is under way: the
    # error reaches the caller, but only when no pool thread is inside
    # kernel_rows any more, and the next threaded call runs as usual
    n = 60
    monkeypatch.setattr(quadrature, "_BLOCK_ELEMENTS", 10 * n)  # 6 blocks of full rows
    rng = np.random.default_rng(5)
    kern = rng.standard_normal((n, n))
    rho = rng.standard_normal(n)
    inside = []
    failed_on = []
    fail = False

    def rows(i0, i1):
        inside.append(i0)
        try:
            if fail and i0 == 0:
                failed_on.append(threading.current_thread())
                deadline = time.monotonic() + 10.0
                while len(inside) < 2 and time.monotonic() < deadline:
                    time.sleep(0.001)
                raise RuntimeError("block 0 failed")
            time.sleep(0.02)
            return kern[i0:i1].copy()
        finally:
            inside.remove(i0)

    _on_cores(monkeypatch, 1)
    one_core = _pair_sum(rows, _pair_grid(n), rho, 0.0, threaded=True)
    fail = True
    monkeypatch.setattr(quadrature, "_PARALLEL_PAIRS", 0)
    _on_cores(monkeypatch, 3)
    with pytest.raises(RuntimeError, match="block 0 failed"):
        _pair_sum(rows, _pair_grid(n), rho, 0.0, threaded=True)
    assert inside == []
    assert failed_on and threading.main_thread() not in failed_on
    fail = False
    assert np.array_equal(_pair_sum(rows, _pair_grid(n), rho, 0.0, threaded=True), one_core)


def test_pair_sum_claims_no_block_after_an_error(monkeypatch, fresh_pool):
    # one row a block (full rows of n entries) on 3 pool threads, every other
    # block 20 ms long; block 0 fails once two other blocks have started. Past
    # that point each of the other 2 threads starts at most the block it had
    # claimed, and one more while the error is on its way out of kernel_rows
    # (with no stop, the other 196 blocks started after it)
    n = 200
    monkeypatch.setattr(quadrature, "_BLOCK_ELEMENTS", n)
    kern = np.random.default_rng(6).standard_normal((n, n))
    started = []
    after_error = []
    failed = threading.Event()

    def rows(i0, i1):
        if failed.is_set():
            after_error.append(i0)
        started.append(i0)
        if i0 == 0:
            deadline = time.monotonic() + 10.0
            while len(started) < 3 and time.monotonic() < deadline:
                time.sleep(0.001)
            failed.set()
            raise RuntimeError("block 0 failed")
        if i0 % 2:
            time.sleep(0.02)
        return kern[i0:i1].copy()

    monkeypatch.setattr(quadrature, "_PARALLEL_PAIRS", 0)
    _on_cores(monkeypatch, 3)
    with pytest.raises(RuntimeError, match="block 0 failed"):
        _pair_sum(rows, _pair_grid(n), np.ones(n), 0.0, threaded=True)
    assert len(after_error) <= 4


def test_pair_sum_drops_kept_products_once_a_block_raises(monkeypatch, fresh_pool):
    # one row a block (one entry a block) on 2 pool threads; block 0 fails
    # once the other thread has finished blocks 1-60, whose transposed
    # products (about 32 KiB each) wait for block 0 in the ordered reduction.
    # Block 61, under way, then watches the memory the sum holds: it must fall
    # by most of them before the call returns, not stay held until the call
    # ends
    n = 2048
    monkeypatch.setattr(quadrature, "_BLOCK_ELEMENTS", 1)
    started = []
    raised = threading.Event()
    held = {}

    def rows(i0, i1):
        started.append(i0)
        if i0 == 0:
            deadline = time.monotonic() + 10.0
            while len(started) < 62 and time.monotonic() < deadline:
                time.sleep(0.001)
            held["before"] = tracemalloc.get_traced_memory()[0]
            raised.set()
            raise RuntimeError("block 0 failed")
        if i0 == 61:
            raised.wait(10.0)
            deadline = time.monotonic() + 2.0
            while tracemalloc.get_traced_memory()[0] > held["before"] - kept / 2 and time.monotonic() < deadline:
                time.sleep(0.001)
            held["after"] = tracemalloc.get_traced_memory()[0]
        return np.ones((i1 - i0, n - i0))

    kept = sum((n - 1 - k) * 2 * 8 for k in range(1, 61))
    monkeypatch.setattr(quadrature, "_PARALLEL_PAIRS", 0)
    _on_cores(monkeypatch, 2)
    tracemalloc.start()
    try:
        with pytest.raises(RuntimeError, match="block 0 failed"):
            _pair_sum(rows, _pair_grid(n), np.ones(n), 0.0, symmetric=True, threaded=True)
    finally:
        tracemalloc.stop()
    assert held["before"] - held["after"] >= kept / 2


def test_pair_sum_stays_on_one_core_while_other_processes_load_its_cores(monkeypatch, fresh_pool):
    st, phix = _line_front(2048)
    _on_cores(monkeypatch)
    monkeypatch.setattr(quadrature, "_other_load", lambda cores: True)
    nonlinear_term(st, phix)
    assert quadrature._pool is None


def test_other_load_counts_busy_time_less_own_time(monkeypatch):
    # busy and own CPU seconds at successive readings; the clock between
    # readings advances by far less than a second in the test
    readings = iter([(10.0, 1.0), (10.5, 1.5), (13.0, 2.0), (15.0, 2.0), (20.0, 7.0)])
    reading = None

    def next_reading():
        nonlocal reading
        reading = next(readings)

    monkeypatch.setattr(quadrature, "_busy_seconds", lambda cores: reading[0])
    monkeypatch.setattr(quadrature, "_own_seconds", lambda: reading[1])
    load = quadrature._OtherLoad()
    load.window = 0.0
    verdicts = []
    for _ in range(5):
        next_reading()
        verdicts.append(load({0}))
    # no window closed yet; own load only; others 2 s; others 2 s; own 5 s
    assert verdicts == [False, False, True, True, False]


def test_other_load_keeps_its_verdict_within_a_window(monkeypatch):
    calls = []
    monkeypatch.setattr(quadrature, "_busy_seconds", lambda cores: calls.append(cores) or 0.0)
    load = quadrature._OtherLoad()
    for _ in range(100):
        assert load({0}) is False
    assert len(calls) == 1


def test_other_load_reads_false_without_proc_stat(monkeypatch):
    monkeypatch.setattr(quadrature, "_busy_seconds", lambda cores: None)
    load = quadrature._OtherLoad()
    load.window = 0.0
    assert not any(load({0}) for _ in range(3))


@pytest.mark.skipif(not (os.path.exists("/proc/stat") and hasattr(os, "sched_getaffinity")),
                    reason="needs /proc/stat and core affinity")
def test_other_load_sees_a_busy_process():
    # a spinning child on the same cores keeps one of them busy
    load = quadrature._OtherLoad()
    child = subprocess.Popen([sys.executable, "-c", "while True: pass"])
    try:
        time.sleep(0.2)
        load(quadrature._core_set())
        time.sleep(load.window + 0.1)
        assert load(quadrature._core_set())
    finally:
        child.kill()
        child.wait()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_pair_sum_runs_in_a_forked_child(monkeypatch, fresh_pool):
    # a child inherits the parent's pool but not its threads; the pair sum
    # must start the child's own pool instead of waiting on the dead one
    st, phix = _line_front(2048)
    _on_cores(monkeypatch)
    want = nonlinear_term(st, phix)
    assert quadrature._pool is not None
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)  # fork of a threaded process
        pid = os.fork()
    if pid == 0:  # the child: report by exit status, run no pytest teardown
        status = 2
        try:
            status = 0 if np.array_equal(nonlinear_term(st, phix), want) else 1
        finally:
            os._exit(status)
    deadline = time.monotonic() + 60.0
    while True:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            break
        if time.monotonic() > deadline:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail("the pair sum hung in a forked child")
        time.sleep(0.02)
    assert os.WIFEXITED(status) and os.WEXITSTATUS(status) == 0


@pytest.mark.parametrize("periodic", [True, False])
def test_offset_geometry_matches_pairwise_differences(periodic):
    g = make_grid(-8.0 * np.pi, 16.0 * np.pi, 512, periodic=periodic)
    s = g.x[:, None] - g.x[None, :]
    if periodic:
        s -= g.length * np.round(s / g.length)  # minimum image
    np.fill_diagonal(s, 1.0)  # the placeholder of the singular diagonal
    view = _by_offset(_separation(g), g.n)
    assert np.max(np.abs(view - np.abs(s))) < 1e-13


def test_offset_view_is_read_only():
    view = _by_offset(np.arange(7.0), 4)
    assert view[0, 0] == 3.0 and view[3, 0] == 0.0 and view[0, 3] == 6.0
    with pytest.raises(ValueError):
        view[1, 2] = 0.0


def test_even_row_sum_matches_dense_row_sum():
    # the linear term's reference row sums, O(n) prefix form against the
    # direct double sum
    g = make_grid(-30.0, 60.0, 1024)
    n = g.n
    sep = _separation(g)
    ref = -1.0 / np.hypot(sep, 1.0)
    want = _direct_pair_sum(_by_offset(ref, n), None, True, -1.0)
    got = _even_row_sum(ref[n - 1:]) - _trapezoid_weights(n)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_log_w_plus_root_against_mpmath():
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 30
    for w in (-50.0, -3.0, -1e-3, 0.0, 2.0, 40.0):
        for c in (0.3, 1.0, 5.0):
            ref = mpmath.log(w + mpmath.sqrt(mpmath.mpf(w) ** 2 + mpmath.mpf(c) ** 2))
            assert abs(float(quadrature._log_w_plus_root(w, c)) - float(ref)) <= 1e-15
    assert quadrature._log_w_plus_root(3.0, 0.0) == pytest.approx(np.log(6.0), abs=1e-15)


@pytest.mark.parametrize("x0", [0.7, 45.0, -80.0])
def test_end_term_closes_the_line_integral(x0):
    # int [1/sqrt(s^2+a^2) - 1/sqrt(s^2+b^2)] ds over the line is 2 log(b/a):
    # trapezoid over the window plus the difference of the two end terms,
    # for an x0 inside the window and beyond either end (negative w)
    x, dx = -30.0 + 0.1 * np.arange(600), 0.1
    w_r, w_l = x[-1] - x0, x0 - x[0]
    for a, b in ((0.4, 1.0), (1.0, 3.0)):
        f = 1.0 / np.hypot(x - x0, a) - 1.0 / np.hypot(x - x0, b)
        total = (f.sum() - 0.5 * (f[0] + f[-1])) * dx
        total += float(quadrature._end_term(w_r, w_l, a, dx) - quadrature._end_term(w_r, w_l, b, dx))
        assert abs(total - 2.0 * np.log(b / a)) <= 1e-10  # 1.2e-11 measured at x0 = 0.7


def _linear_term_dense(state, phix):
    # linear_term_quadrature as a dense pair sum: the bare kernel 1/|s| on
    # full rows against the slope contrast, the recentered reference row sum
    # as a direct double sum
    g = state.grid
    n, dx = g.n, g.dx
    sep = _separation(g)
    inv_s = _by_offset(1.0 / sep, n)
    bare = _pair_sum(lambda i0, i1: inv_s[i0:i1].copy(), g, phix, 1.0)
    own = _direct_pair_sum(_by_offset(-1.0 / np.hypot(sep, 1.0), n), None, True, -1.0)
    t = quadrature._line_tables(g)  # 1/|s| at the clamped end distances, the reference at the exact
    return bare + phix * own * dx + phix * (_end_term(*t.clamped, 0.0, dx) - _end_term(*t.exact, 1.0, dx))


def _background_term_dense(state, phix, params):
    # background_term as a direct double sum: the anchored unit reference
    # less the strip kernel at each target's height, on full rows
    g = state.grid
    x, n, dx = g.x, g.n, g.dx
    c1 = state.phi + resolve_depth(state, params)
    q = 1.0 / np.hypot(x, 1.0)
    strip = 1.0 / np.sqrt(_by_offset(_separation(g) ** 2, n) + np.square(c1)[:, None])
    out = _direct_pair_sum(q - strip, None, True, q - 1.0 / c1) * dx
    ends = _end_term(x[-1], -x[0], 1.0, dx) - _end_term(x[-1] - x, x - x[0], c1, dx)
    return phix * (out + ends - 2.0 * np.log(c1))


def _line_state(n, family, params, x_min=-30.0):
    g = make_grid(x_min, 60.0, n)
    phi, phix = front_profile(g.x, family, **params)
    return make_state(g, phi), phix


# criterion 01's fronts on [-30, 30), and one on the asymmetric window
# [10, 70), where both window ends lie right of the anchor x = 0
LINE_CASES = [(-30.0, f) for f in FRONTS] + [(10.0, ("gaussian", dict(amplitude=-0.3, width=2.0, center=41.0)))]


@pytest.mark.parametrize("n", [512, 1024, 2048])
@pytest.mark.parametrize("x_min, front", LINE_CASES)
def test_linear_term_matches_dense_pair_sum(n, x_min, front):
    # the O(n log n) assembly against the dense one, relative to its size
    st, phix = _line_state(n, *front, x_min=x_min)
    want = _linear_term_dense(st, phix)
    got = linear_term_quadrature(st, phix)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("h", [0.31, 0.35, 0.5, 1.0, 2.0, 5.0, 50.0, None])
@pytest.mark.parametrize("x_min", [-30.0, 10.0])
def test_background_term_matches_dense_pair_sum(h, x_min):
    # the strip row sums interpolated in the height against the dense audit;
    # h = 0.31 puts the lowest strip height at 0.01, a third of dx, which
    # needs the most interpolation heights
    st, phix = _line_state(2048, "gaussian", dict(amplitude=-0.3, width=1.5, center=x_min + 33.0), x_min=x_min)
    p = KernelParams(h=h)
    want = _background_term_dense(st, phix, p)
    assert np.max(np.abs(background_term(st, phix, p) - want)) <= 1e-13


def test_background_term_flat_front_takes_one_height():
    # a flat front puts every target at one height, which is sampled exactly
    g = make_grid(-30.0, 60.0, 512)
    st = make_state(g, np.full(g.n, 0.2))
    rho = np.linspace(-1.0, 1.0, g.n)  # any weights: the audit is linear in them
    p = KernelParams(h=1.0)
    assert quadrature._strip_heights(1.2, 1.2, g.dx).size == 1
    assert np.max(np.abs(background_term(st, rho, p) - _background_term_dense(st, rho, p))) <= 1e-13


def test_strip_heights_follow_the_branch_points():
    # more heights as the strip's lowest height nears the branch points at
    # +-i dx; a strip far above them needs few
    dx = 60.0 / 2048
    counts = [quadrature._strip_heights(lo, 0.31, dx).size for lo in (0.3, 0.1, 0.01)]
    assert counts[0] < counts[1] < counts[2]
    assert quadrature._strip_heights(49.7, 50.0, dx).size < 10
    nodes = quadrature._strip_heights(0.01, 0.31, dx)
    assert nodes.max() == 0.31 and abs(nodes.min() - 0.01) < 1e-16


def test_line_sums_take_no_dense_pair_sum(monkeypatch):
    # the linear term and the background audit have no O(n^2) pass left
    st, phix = _line_state(512, "gaussian", dict(amplitude=0.5, width=2.0, center=0.0))

    def dense(*args, **kwargs):
        raise AssertionError("dense pair sum called")

    monkeypatch.setattr(quadrature, "_pair_sum", dense)
    linear_term_quadrature(st, phix)
    background_term(st, phix, KernelParams(h=1.0))


@pytest.mark.parametrize("op, message", [
    (linear_term_quadrature, "linear_term_quadrature is line-mode only; periodic grids use the spectral multiplier"),
    (background_term, "background_term is line-mode only"),
], ids=["linear", "background"])
def test_line_sums_refuse_a_periodic_grid(op, message):
    g = make_grid(-2.0 * np.pi, 4.0 * np.pi, 128, periodic=True)
    st = make_state(g, 0.1 * np.cos(g.x))
    with pytest.raises(ValueError, match=f"^{message}$"):
        op(st, st.slope)


def test_even_toeplitz_product_matches_dense_product():
    rng = np.random.default_rng(5)
    for n in (8, 9, 64):
        kernel, v = rng.standard_normal(n), rng.standard_normal(n)
        offsets = np.abs(np.subtract.outer(np.arange(n), np.arange(n)))
        want = kernel[offsets] @ v
        spectrum = quadrature._circulant_spectrum(kernel)
        assert np.max(np.abs(quadrature._even_toeplitz_product(spectrum, v) - want)) <= 1e-13


def test_end_term_at_matches_end_term():
    # the scalar form of the end term, also for a w < 0 (a target beyond a
    # window end) and for c = 0 at w > 0
    dx = 0.1
    for w_r, w_l, c in ((29.9, 30.0, 1.0), (-5.0, 65.0, 0.3), (70.0, -10.0, 2.0), (3.0, 4.0, 0.0)):
        want = float(_end_term(w_r, w_l, c, dx))
        assert abs(quadrature._end_term_at(w_r, w_l, c, dx) - want) <= 1e-15 * max(1.0, abs(want))


def test_end_term_at_is_infinite_where_an_end_distance_overflows():
    # beyond a window end, |w| + root overflows and c^2 / (|w| + root) is 0:
    # its log tail is +inf, not math.log(0)'s ValueError
    assert quadrature._end_term_at(-1.7e308, 1.0, 3.0, 0.1) == np.inf


def test_line_tables_are_built_once_per_grid():
    # what the line ops take from the grid alone, read-only and kept per
    # grid; the end distances and end terms equal the ones formed afresh bit
    # for bit: exact for a kernel finite at its node, clamped at dx/2 for
    # 1/|s|, singular at the end nodes
    g = make_grid(-30.0, 60.0, 256)
    x, dx = g.x, g.dx
    t = quadrature._line_tables(g)
    assert quadrature._line_tables(make_grid(-30.0, 60.0, 256)) is t
    assert not any(a.flags.writeable for a in (*t.exact, *t.clamped, t.q, t.flat, t.own, t.kernel, t.ends))
    assert all(np.array_equal(a, b) for a, b in zip(t.exact, (x[-1] - x, x - x[0])))
    assert all(np.array_equal(a, np.maximum(b, 0.5 * dx)) for a, b in zip(t.clamped, t.exact))
    assert t.exact[0][-1] == t.exact[1][0] == 0.0 and t.clamped[0][-1] == t.clamped[1][0] == 0.5 * dx
    assert np.array_equal(t.flat, _end_term(*t.clamped, 0.0, dx))
    assert np.array_equal(t.ends, t.flat - _end_term(*t.exact, 1.0, dx))
    # a second call reads the tables the first one left as they were
    st = make_state(g, 0.3 * np.exp(-g.x ** 2))
    first = linear_term_quadrature(st, st.slope)
    assert np.array_equal(linear_term_quadrature(st, st.slope), first)


def test_unit_reference_is_built_once_per_grid():
    # the anchored unit reference, its end term at the anchor's end
    # distances, in the same per-grid table
    g = make_grid(-30.0, 60.0, 256)
    t = quadrature._line_tables(g)
    assert quadrature._line_tables(make_grid(-30.0, 60.0, 256)).q is t.q
    assert np.array_equal(t.q, 1.0 / np.hypot(g.x, 1.0)) and not t.q.flags.writeable
    assert t.anchor == (g.x[-1], -g.x[0])
    assert t.e1 == pytest.approx(float(_end_term(g.x[-1], -g.x[0], 1.0, g.dx)), abs=1e-15)
