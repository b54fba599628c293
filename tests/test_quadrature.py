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

import numpy as np
import pytest

from sqgfronts import (
    KernelParams,
    cosine_integral_constant,
    front_profile,
    kernel_difference,
    linear_term_quadrature,
    make_grid,
    make_state,
    nonlinear_term,
    resolve_depth,
    scale_identity,
)
from sqgfronts import background_term, quadrature
from sqgfronts.cli import measure_background, measure_scale_identity
from sqgfronts.quadrature import (
    _by_offset,
    _diagonal_jump_correction,
    _end_distances,
    _end_term,
    _even_row_sum,
    _pair_sum,
    _separation,
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


def _diagonal_limit_one_sided(phi_x, phi_xx):
    """Nonlinear-integrand limit as x' -> x from the right (the module
    docstring's diagonal rule); the left limit is the negative."""
    r = np.sqrt(1.0 + phi_x * phi_x)
    return phi_xx * (r - 1.0) / r


def test_diagonal_limit():
    # the integrand (rho(x) - rho(x')) [1/sqrt(s^2 + dphi^2) - 1/|s|] of a
    # gaussian front, rho = phi_x, evaluated at x' = x +- eps; its one-sided
    # limits are +-phi_xx (r - 1)/r, r = sqrt(1 + phi_x^2), and it closes on
    # them at first order in eps
    a, w = 0.5, 2.0
    phi = lambda x: a * np.exp(-((x / w) ** 2))
    rho = lambda x: -2.0 * x / w**2 * phi(x)
    rho_x = lambda x: (4.0 * x**2 / w**4 - 2.0 / w**2) * phi(x)

    def integrand(x, xp):
        s = xp - x
        return (rho(x) - rho(xp)) * (1.0 / np.hypot(s, phi(x) - phi(xp)) - 1.0 / abs(s))

    for x in (0.7, -1.9):
        limit = _diagonal_limit_one_sided(rho(x), rho_x(x))
        assert abs(limit) > 1e-3
        for side in (1.0, -1.0):
            errs = [abs(integrand(x, x + side * eps) - side * limit) for eps in (1e-2, 1e-3, 1e-4)]
            assert errs[-1] < 1e-4 * abs(limit)
            assert all(8.0 < e0 / e1 < 12.0 for e0, e1 in zip(errs, errs[1:]))
    assert _diagonal_limit_one_sided(0.0, 2.5) == 0.0


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
    with pytest.raises(ValueError):
        scale_identity(0.0)
    with pytest.raises(ValueError):
        scale_identity(np.inf)


def test_scale_identity_cutoff_insensitive():
    a = scale_identity(np.e, cutoff=1e3)
    b = scale_identity(np.e, cutoff=1e4)
    assert abs(a - b) < 1e-12


def test_cosine_integral_truncation_sweep():
    base = cosine_integral_constant(inner=350.0)
    for inner in (200.0, 700.0):
        assert abs(cosine_integral_constant(inner=inner) - base) < 1e-11
    with pytest.raises(ValueError):
        cosine_integral_constant(inner=10.0)


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
    # and sizes that leave a short last block; the slope-contrast sum is the
    # one mode _pair_sum has, and its axis keeps the case ids stable
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

    got = _pair_sum(rows, n, rho, ends=ends)
    assert np.max(np.abs(got - _direct_pair_sum(kern, rho, ends))) < 1e-13


@pytest.mark.parametrize("ends", [False, True])
@pytest.mark.parametrize("block_rows", [None, 1, 7, 25])
@pytest.mark.parametrize("contrast", [True])
@pytest.mark.parametrize("n", [40, 41])
def test_pair_sum_symmetric_matches_direct_double_sum(monkeypatch, ends, block_rows, contrast, n):
    # triangular row blocks: one block (None), one row per block, and sizes
    # that leave a short last block on an even and an odd grid; the
    # slope-contrast sum is the one mode, its axis keeps the case ids stable
    if block_rows is not None:
        monkeypatch.setattr(quadrature, "_BLOCK_ELEMENTS", block_rows * n)
    rng = np.random.default_rng(11)
    kern = rng.standard_normal((n, n))
    kern += kern.T
    rho = rng.standard_normal(n)

    def upper_rows(i0, i1):
        block = kern[i0:i1].copy()
        block[:, :i0] = np.nan  # left of the requested columns
        block[np.arange(i1 - i0), np.arange(i0, i1)] = np.nan  # never read
        return block[:, i0:]

    got = _pair_sum(upper_rows, n, rho, ends=ends, symmetric=True)
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

    def full_rows(kernel_rows, n, rho, *, symmetric=False, **kw):
        assert symmetric
        whole = kernel_rows(0, n)
        return pair_sum(lambda i0, i1: whole[i0:i1].copy(), n, rho, **kw)

    monkeypatch.setattr(quadrature, "_pair_sum", full_rows)
    assert np.max(np.abs(triangular - nonlinear_term(st, phix))) <= 1e-16


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
    got = _even_row_sum(ref[n - 1:], diag=-1.0)
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
    bare = _pair_sum(lambda i0, i1: inv_s[i0:i1].copy(), n, phix, ends=True)
    own = _direct_pair_sum(_by_offset(-1.0 / np.hypot(sep, 1.0), n), None, True, -1.0)
    b = _end_distances(g)
    return ((bare + phix * own) * dx + phix * (_end_term(*b, 0.0, dx) - _end_term(*b, 1.0, dx))
            + _diagonal_jump_correction("bare", phix, dx, periodic=False))


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


def test_even_toeplitz_product_matches_dense_product():
    rng = np.random.default_rng(5)
    for n in (8, 9, 64):
        kernel, v = rng.standard_normal(n), rng.standard_normal(n)
        offsets = np.abs(np.subtract.outer(np.arange(n), np.arange(n)))
        want = kernel[offsets] @ v
        assert np.max(np.abs(quadrature._even_toeplitz_product(kernel, v) - want)) <= 1e-13


def test_end_term_at_matches_end_term():
    # the scalar form of the end term, also for a w < 0 (a target beyond a
    # window end) and for c = 0 at w > 0
    dx = 0.1
    for w_r, w_l, c in ((29.9, 30.0, 1.0), (-5.0, 65.0, 0.3), (70.0, -10.0, 2.0), (3.0, 4.0, 0.0)):
        want = float(_end_term(w_r, w_l, c, dx))
        assert abs(quadrature._end_term_at(w_r, w_l, c, dx) - want) <= 1e-15 * max(1.0, abs(want))


def test_unit_reference_is_built_once_per_grid():
    g = make_grid(-30.0, 60.0, 256)
    q, e1 = quadrature._unit_reference(g)
    assert quadrature._unit_reference(make_grid(-30.0, 60.0, 256))[0] is q
    assert np.array_equal(q, 1.0 / np.hypot(g.x, 1.0)) and not q.flags.writeable
    assert e1 == pytest.approx(float(_end_term(g.x[-1], -g.x[0], 1.0, g.dx)), abs=1e-15)
