"""Representative velocity: Galilean constants, point samples, normal
velocity routes, and the 2D transform cross-check.

Frozen reference values: mpmath (mp.dps = 30) adaptive quadrature of the
defining contour integrals for the gaussian front (amplitude 0.5, width 2.0,
center 0) with reference depth h = 1. The integration line was split at the
probe abscissa and the edges of the numerically relevant support.
"""

import tracemalloc

import numpy as np
import pytest
from scipy.special import erf

from sqgfronts import (
    BoxSpec,
    KernelParams,
    box_riesz_crosscheck,
    far_field_value,
    finite_difference_derivative,
    front_profile,
    galilean_shift,
    make_grid,
    make_state,
    normal_velocity_background,
    normal_velocity_bmo,
    resolve_depth,
    velocity,
    velocity_at,
)
from sqgfronts.cli import measure_log_law, measure_velocity_routes
from test_acceptance import FRONTS
from test_quadrature import _direct_pair_sum
from sqgfronts.quadrature import (
    _by_offset,
    _diagonal_jump_correction,
    _end_distances,
    _end_term,
    _log_w_plus_root,
    _separation,
)
from sqgfronts.velocity import _SMOOTHING_CELLS, _riesz_at_probes, _strip_temperature

ORACLE_UBAR = -0.6131062346376577
ORACLE_U_05_3 = 2.0228493696395711  # u at (0.5, 3.0)
ORACLE_V_05_3 = 0.021227123228235058
ORACLE_U_3_M5 = 3.262048301990763  # u at (3.0, -5.0)
ORACLE_V_3_M5 = 0.021393203828967115
ORACLE_UBAR_EXP = -0.73993755276824114  # for phi = exp(-x^2), h = 1
GAUSSIAN = ("gaussian", dict(amplitude=0.5, width=2.0, center=0.0))  # the oracle front


def _state(n=1200, amplitude=0.5, width=2.0, center=0.0):
    g = make_grid(-30.0, 60.0, n)
    phi, _ = front_profile(g.x, "gaussian", amplitude=amplitude, width=width, center=center)
    return make_state(g, phi)


def test_flat_front_shift_is_zero():
    g = make_grid(-30.0, 60.0, 600)
    st = make_state(g, np.zeros(600))
    sh = galilean_shift(st, KernelParams(h=1.0))
    assert sh.ubar == 0.0
    assert sh.vbar == 0.0


def test_galilean_shift_oracle():
    sh = galilean_shift(_state(), KernelParams(h=1.0))
    assert abs(sh.ubar - ORACLE_UBAR) < 1e-12
    assert abs(sh.vbar) < 1e-14  # even front


def test_galilean_shift_exp_front():
    sh = galilean_shift(_state(amplitude=1.0, width=1.0), KernelParams(h=1.0))
    assert abs(sh.ubar - ORACLE_UBAR_EXP) < 1e-12


def test_velocity_at_oracles():
    st = _state()
    sh = galilean_shift(st, KernelParams(h=1.0))
    s1 = velocity_at(st, 0.5, 3.0, sh)
    assert abs(s1.u - ORACLE_U_05_3) < 1e-12
    assert abs(s1.v - ORACLE_V_05_3) < 5e-8
    s2 = velocity_at(st, 3.0, -5.0, sh)
    assert abs(s2.u - ORACLE_U_3_M5) < 1e-12
    assert abs(s2.v - ORACLE_V_3_M5) < 5e-8


def test_velocity_field_h_independent():
    # the anchored reference sits at (0, -h); moving h only reshuffles the
    # constant absorbed in ubar, the sampled field must not move
    st = _state()
    for x, y in ((0.5, 3.0), (3.0, -5.0), (-7.0, 1.2)):
        samples = []
        for h in (1.0, 2.5, 4.0):
            sh = galilean_shift(st, KernelParams(h=h))
            s = velocity_at(st, x, y, sh)
            samples.append((s.u, s.v))
        us = [s[0] for s in samples]
        vs = [s[1] for s in samples]
        assert max(us) - min(us) < 1e-9
        assert max(vs) - min(vs) < 1e-9


def test_far_field_at_fixed_x():
    # off the symmetry axis the log law still holds and v still decays
    (u_errs,), (v_errs,) = measure_log_law(1200, GAUSSIAN, (3.0,), (-1e2, -1e3, -1e4))
    assert np.all(np.diff(u_errs) < 0) and np.all(np.diff(v_errs) < 0)
    assert u_errs[1] < 1e-2


def test_reflection_symmetry_even_front():
    # even front: u even in x, v odd in x, to grid accuracy
    st = _state()
    sh = galilean_shift(st, KernelParams(h=1.0))
    for x, y in ((1.3, 2.0), (4.0, -3.5)):
        a = velocity_at(st, x, y, sh)
        b = velocity_at(st, -x, y, sh)
        assert abs(a.u - b.u) < 1e-12
        assert abs(a.v + b.v) < 1e-12


def test_probe_on_front_rejected():
    st = _state()
    sh = galilean_shift(st, KernelParams(h=1.0))
    with pytest.raises(ValueError):
        velocity_at(st, 0.0, float(st.phi[st.grid.n // 2]), sh)


def test_periodic_state_rejected():
    g = make_grid(0.0, 2 * np.pi, 128, periodic=True)
    st = make_state(g, 0.01 * np.cos(g.x))
    with pytest.raises(ValueError):
        galilean_shift(st, KernelParams(h=1.0))


def test_normal_velocity_routes_agree():
    # strip-referenced route vs representative-velocity route
    assert measure_velocity_routes(1200, [GAUSSIAN], 1.0)[0] < 1e-6


def _normal_velocity_background_dense(state, depths):
    # normal_velocity_background at each depth h in `depths`, with both sums
    # as direct double sums on full rows: the front kernel against the slope
    # contrast (the same at every depth), less rho(x) times the strip
    # kernel's row sum at each target's height, whose node carries 1/c1
    g = state.grid
    n, dx = g.n, g.dx
    phi, rho = state.phi, state.slope
    s2 = _by_offset(_separation(g) ** 2, n)
    front = _direct_pair_sum(1.0 / np.sqrt(s2 + np.square(np.subtract.outer(phi, phi))), rho, True)
    b = _end_distances(g)
    front_end = _end_term(*b, phi - far_field_value(state), dx)
    diag_coda = _diagonal_jump_correction("front", rho, dx, periodic=False)
    out = []
    for h in depths:
        c1 = phi + resolve_depth(state, KernelParams(h=h))
        strip = _direct_pair_sum(1.0 / np.sqrt(s2 + np.square(c1)[:, None]), None, True, 1.0 / c1)
        star = (front - rho * strip) * dx + rho * (front_end - _end_term(*b, c1, dx)) + diag_coda
        out.append(star - 2.0 * np.log(c1) * rho)
    return out


@pytest.mark.parametrize("x_min", [-30.0, 10.0])
@pytest.mark.parametrize("n", [512, 1024, 2048])
@pytest.mark.parametrize("front", FRONTS)
def test_normal_velocity_background_matches_dense_strip(front, n, x_min):
    # the strip row sums interpolated in the height against the dense
    # assembly; on [10, 70) the front moves to the window's middle. h = 0.31
    # puts the lowest strip height as low as 0.01, below dx, where the
    # interpolation needs the most heights
    family, params = front
    params = dict(params, center=params.get("center", 0.0) + x_min + 30.0)
    g = make_grid(x_min, 60.0, n)
    st = make_state(g, front_profile(g.x, family, **params)[0])
    depths = (None, 1.0, 2.5, 5.0, 0.31)
    for h, want in zip(depths, _normal_velocity_background_dense(st, depths)):
        got = normal_velocity_background(st, KernelParams(h=h))
        assert np.max(np.abs(got - want)) <= 1e-13  # 1.5e-14 measured


def test_normal_velocity_background_takes_one_symmetric_pair_sum(monkeypatch):
    # the front sum is the route's only dense pass; its strip row sums are
    # the background audit's
    calls = []
    pair_sum = velocity._pair_sum

    def record(*args, **kwargs):
        calls.append(kwargs.get("symmetric", False))
        return pair_sum(*args, **kwargs)

    monkeypatch.setattr(velocity, "_pair_sum", record)
    normal_velocity_background(_state(n=512), KernelParams(h=1.0))
    assert calls == [True]


def test_normal_velocity_h_independent():
    st = _state()
    base = normal_velocity_background(st, KernelParams(h=1.0))
    for h in (2.0, 5.0):
        alt = normal_velocity_background(st, KernelParams(h=h))
        assert np.max(np.abs(alt - base)) < 1e-8
    base2 = normal_velocity_bmo(st, galilean_shift(st, KernelParams(h=1.0)), KernelParams(h=1.0))
    alt2 = normal_velocity_bmo(st, galilean_shift(st, KernelParams(h=3.0)), KernelParams(h=3.0))
    assert np.max(np.abs(alt2 - base2)) < 1e-8


def test_normal_velocity_flat_is_zero():
    g = make_grid(-30.0, 60.0, 600)
    st = make_state(g, np.zeros(600))
    p = KernelParams(h=1.0)
    assert np.max(np.abs(normal_velocity_background(st, p))) < 1e-12
    assert np.max(np.abs(normal_velocity_bmo(st, galilean_shift(st, p), p))) < 1e-12


def test_velocity_ops_share_the_state_slope(grid_calls):
    calls = grid_calls("finite_difference_derivative")
    st = _state(n=512)
    sh = galilean_shift(st, KernelParams(h=1.0))
    for x in np.linspace(-20.0, 20.0, 100):
        velocity_at(st, x, 3.0, sh)
    normal_velocity_bmo(st, sh)
    assert len(calls) == 1


def test_box_spec_validation():
    with pytest.raises(ValueError):
        BoxSpec(size=-10.0, n=256)
    with pytest.raises(ValueError):
        BoxSpec(size=40.0, n=10)


@pytest.mark.parametrize("probes, name", [
    (dict(probe_x=(100.0,)), "probe_x"),
    (dict(probe_x=(0.0, -40.5)), "probe_x"),
    (dict(probe_y=(5.0, 40.0)), "probe_y"),
    (dict(probe_x=(np.nan,)), "probe_x"),
    (dict(probe_y=(np.inf,)), "probe_y"),
    (dict(probe_y=(-np.inf,)), "probe_y"),
    (dict(probe_x=()), "probe_x"),
    (dict(probe_y=()), "probe_y"),
])
def test_box_spec_refuses_probes_outside_the_box(probes, name):
    # such a probe would snap to an edge node, and an empty tuple would
    # report a pass over no probe at all
    with pytest.raises(ValueError, match=f"^{name} "):
        BoxSpec(size=80.0, n=256, **probes)
    BoxSpec(size=80.0, n=256, probe_x=(-40.0, 39.9), probe_y=(-40.0, 39.9))


def test_box_crosscheck_flat_strip():
    g = make_grid(-30.0, 60.0, 1024)
    st = make_state(g, np.zeros(1024))
    rep = box_riesz_crosscheck(st, BoxSpec(size=80.0, n=1024), KernelParams(h=1.0))
    assert rep["sup"] < 5e-2


def test_box_crosscheck_bump_and_image_decay():
    st = _state(n=1024)
    p = KernelParams(h=1.0)
    rep1 = box_riesz_crosscheck(st, BoxSpec(size=80.0, n=1024), p)
    rep2 = box_riesz_crosscheck(st, BoxSpec(size=160.0, n=2048), p)
    assert rep1["sup"] < 1e-1
    # doubling the box at fixed cell size at least halves the image error
    assert rep2["sup"] < 0.5 * rep1["sup"]


def test_box_too_small_rejected():
    # in-box probes, so the size guard rather than BoxSpec's probe check fires
    st = _state(n=1024)
    box = BoxSpec(size=4.0, n=64, probe_x=(0.0,), probe_y=(1.9,))
    with pytest.raises(ValueError, match="box too small"):
        box_riesz_crosscheck(st, box, KernelParams(h=1.0))


def test_box_probe_inside_strip_rejected():
    # y = 0.2 lies between the reference depth -1 and the crest 0.5
    st = _state(n=1024)
    with pytest.raises(ValueError, match="inside or too close to the strip"):
        box_riesz_crosscheck(st, BoxSpec(size=80.0, n=1024, probe_y=(0.2,)), KernelParams(h=1.0))


def _velocity_at_scalar_tails(st, x, y, sh):
    # velocity_at as first written: one scalar log tail per window end and
    # per kernel, explicit trapezoid weights
    xs, dx, phi = st.grid.x, st.grid.dx, st.phi
    c_inf = far_field_value(st)
    a, b = y - c_inf, sh.h + c_inf
    rho = finite_difference_derivative(st)
    w = np.ones(st.grid.n)
    w[0] = w[-1] = 0.5
    kernel = 1.0 / np.hypot(x - xs, y - phi) - 1.0 / np.hypot(xs, sh.h + phi)
    w_r, w_l = xs[-1] - x, x - xs[0]
    tails = (_log_w_plus_root(np.array(xs[-1]), b) - _log_w_plus_root(np.array(w_r), abs(a))
             + _log_w_plus_root(np.array(-xs[0]), b) - _log_w_plus_root(np.array(w_l), abs(a)))
    fp_b = -w_r / np.hypot(w_r, a) ** 3 + xs[-1] / np.hypot(xs[-1], b) ** 3
    fp_a = w_l / np.hypot(w_l, a) ** 3 + xs[0] / np.hypot(xs[0], b) ** 3
    corr = -dx * dx / 12.0 * (fp_b - fp_a)
    u = -(float(np.sum(w * kernel)) * dx + float(tails) + corr) - sh.ubar
    v = -float(np.sum(w * kernel * rho)) * dx - sh.vbar
    return u, v


def test_velocity_at_tails_outside_window_match_scalar_form():
    # probes beyond both window ends take the w < 0 branch of the log tail
    st = _state(amplitude=0.5, width=2.0, center=1.0)
    sh = galilean_shift(st, KernelParams(h=1.0))
    for x in (-75.0, -31.5, -12.0, 0.4, 30.0, 33.0, 80.0):
        for y in (-6.0, -1.5, 2.5, 9.0):
            s = velocity_at(st, x, y, sh)
            u, v = _velocity_at_scalar_tails(st, x, y, sh)
            assert abs(s.u - u) <= 1e-13
            assert abs(s.v - v) <= 1e-13


@pytest.mark.parametrize("n", [512, 1024, 2048])
@pytest.mark.parametrize("front", FRONTS[:4])
def test_velocity_at_matches_anchored_reference_form(n, front):
    # velocity_at cancels the anchored reference against the shift's own
    # integral; the scalar-tails form keeps both, at every depth, for probes
    # inside the window and beyond both ends
    g = make_grid(-30.0, 60.0, n)
    st = make_state(g, front_profile(g.x, front[0], **front[1])[0])
    for h in (None, 1.0, 2.5):
        sh = galilean_shift(st, KernelParams(h=h))
        for x in (-75.0, -31.5, -12.0, 0.4, 30.0, 33.0, 80.0):
            for y in (-6.0, -1.5, 2.5, 9.0):
                s = velocity_at(st, x, y, sh)
                u, v = _velocity_at_scalar_tails(st, x, y, sh)
                assert abs(s.u - u) <= 2e-14  # 4.4e-15 measured
                assert abs(s.v - v) <= 2e-14


def test_velocity_at_reads_no_shift():
    # the samples are the same, bit for bit, whatever depth the shift has,
    # and without one
    st = _state(n=512, amplitude=-0.3, width=1.5, center=3.0)
    shifts = [galilean_shift(st, KernelParams(h=h)) for h in (None, 1.0, 2.5)]
    assert len({sh.h for sh in shifts}) == 3
    for x, y in ((0.5, 3.0), (3.0, -5.0), (-40.0, 1.2)):
        samples = {velocity_at(st, x, y, sh) for sh in shifts}
        assert samples == {velocity_at(st, x, y)}


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("coordinate", ["x", "y"])
def test_velocity_at_refuses_non_finite_probes(coordinate, value):
    probe = {"x": 0.0, "y": 3.0, coordinate: value}
    with pytest.raises(ValueError, match=f"probe {coordinate} = "):
        velocity_at(_state(n=256), **probe)


def _assemble(flat, band, j0):
    theta = np.repeat(flat[:, None], flat.size, axis=1)
    theta[j0:j0 + len(band)] = band
    return theta


def _box_fields_dense(flat, band, j0, d, rows, cols):
    # the full-field transform: assemble theta, take its real half-spectrum
    # by rfft2 and divide by |k| over the whole spectrum
    theta = _assemble(flat, band, j0)
    n = theta.shape[0]
    half = n // 2
    spec = np.fft.rfft2(theta)
    my = np.fft.ifftshift(np.arange(-half, half))
    mx = np.arange(half + 1)
    dk = 2.0 * np.pi / (n * d)
    ky, kx = dk * my, dk * mx
    kmag = np.hypot(kx[None, :], ky[:, None])
    kmag[0, 0] = 1.0
    spec /= kmag
    spec[0, 0] = 0.0
    spec[half, :] = 0.0
    spec[:, half] = 0.0
    phase = lambda m, j: np.exp(2.0j * np.pi * (np.multiply.outer(m, j) % n / n))
    col = phase(mx, np.asarray(cols))
    col[1:] *= 2.0
    part = spec @ np.hstack((col, 1.0j * kx[:, None] * col))
    p = len(cols)
    part[:, :p] *= -1.0j * ky[:, None]
    fields = (phase(np.asarray(rows), my) @ part).real / (n * n)
    return fields[:, :p], fields[:, p:]


def test_riesz_at_probes_matches_full_inverse_transform():
    n, d = 256, 0.3
    rng = np.random.default_rng(11)
    k = 2.0 * np.pi * np.fft.fftfreq(n, d=d)
    ky, kx = k[:, None], k[None, :]
    kmag = np.hypot(kx, ky)
    kmag[0, 0] = 1.0
    # the whole field as the band, then constant rows around a band at j0 > 0
    flat = rng.standard_normal(n)
    flat[90:130] = 0.0
    for flat, band, j0 in ((np.zeros(n), rng.standard_normal((n, n)), 0),
                           (flat, rng.standard_normal((40, n)), 90)):
        theta_hat = np.fft.fft2(_assemble(flat, band, j0)) / kmag
        theta_hat[0, 0] = 0.0
        theta_hat[n // 2, :] = 0.0
        theta_hat[:, n // 2] = 0.0
        u_full = np.fft.ifft2(-1.0j * ky * theta_hat).real
        v_full = np.fft.ifft2(1.0j * kx * theta_hat).real
        nodes = np.arange(n)
        u, v = _riesz_at_probes(flat, band, j0, d, nodes, nodes)
        assert np.max(np.abs(u - u_full)) <= 1e-12
        assert np.max(np.abs(v - v_full)) <= 1e-12
        # a probe subset, in any order and with repeats, reads the same nodes
        rows, cols = [200, 3, 3, 128], [255, 0, 77]
        u_sub, v_sub = _riesz_at_probes(flat, band, j0, d, rows, cols)
        assert np.max(np.abs(u_sub - u_full[np.ix_(rows, cols)])) <= 1e-12
        assert np.max(np.abs(v_sub - v_full[np.ix_(rows, cols)])) <= 1e-12


@pytest.mark.parametrize("n", [256, 1024])
@pytest.mark.parametrize("amplitude", [0.5, -0.4])
def test_strip_temperature_band_matches_every_node(n, amplitude):
    # the front step is evaluated on a band of rows only; outside it erf
    # saturates, so the rows reassemble the field evaluated at all n^2 nodes
    # bit for bit, and the probe velocities match its dense transform
    box = BoxSpec(size=80.0, n=n)
    d = box.size / n
    coords = -0.5 * box.size + d * np.arange(n)
    phi_cols, _ = front_profile(coords, "gaussian", amplitude=amplitude, width=2.0, center=0.3)
    h, sigma = 1.0, _SMOOTHING_CELLS * d
    scale = np.sqrt(2.0) * sigma
    yy = coords[:, None]
    want = 0.5 * (1.0 + erf((phi_cols[None, :] - yy) / scale))
    want *= -2.0 * np.pi * (0.5 * (1.0 + erf((yy + h) / scale)))
    flat, band, j0 = _strip_temperature(coords, phi_cols, h, sigma)
    assert np.all(flat[j0:j0 + len(band)] == 0.0)
    assert np.array_equal(_assemble(flat, band, j0), want)
    rows = [int(np.argmin(np.abs(coords - y))) for y in box.probe_y]
    cols = [int(np.argmin(np.abs(coords - x))) for x in box.probe_x]
    got = _riesz_at_probes(flat, band, j0, d, rows, cols)
    for got, ref in zip(got, _box_fields_dense(flat, band, j0, d, rows, cols)):
        assert np.max(np.abs(got - ref)) <= 1e-14


_BOX_FRONTS = [
    (("gaussian", dict(amplitude=0.5, width=2.0, center=0.0)), {}),
    # the adaptive depth 1.8 puts y = -5 within the margin of the 256^2 box
    (("gaussian", dict(amplitude=-0.4, width=2.0, center=0.3)), dict(probe_y=(-12.0, -8.0, 5.0, 8.0, 12.0))),
    (("poly_bump", dict(amplitude=0.3, width=6.0, center=-2.0)), {}),
    (("zero", {}), {}),
    (("gaussian", dict(amplitude=12.0, width=2.0, center=1.0)), dict(probe_y=(-8.0, 20.0, 30.0))),
]


@pytest.mark.parametrize("h", [1.0, None])
@pytest.mark.parametrize("size, n", [(80.0, 256), (80.0, 1024), (160.0, 2048)])
@pytest.mark.parametrize("front, probes", _BOX_FRONTS)
def test_box_band_transform_matches_dense_field(monkeypatch, front, probes, size, n, h):
    # the check's band-row transform against the full-field transform of the
    # same strip field, at its probes and in its report
    g = make_grid(-30.0, 60.0, 1024)
    st = make_state(g, front_profile(g.x, front[0], **front[1])[0])
    box, p = BoxSpec(size=size, n=n, **probes), KernelParams(h=h)
    calls = []

    def spy(*args):
        calls.append((args, _riesz_at_probes(*args)))
        return calls[-1][1]

    monkeypatch.setattr(velocity, "_riesz_at_probes", spy)
    report = box_riesz_crosscheck(st, box, p)
    monkeypatch.setattr(velocity, "_riesz_at_probes", _box_fields_dense)
    dense = box_riesz_crosscheck(st, box, p)
    ((args, fields),) = calls
    for got, ref in zip(fields, _box_fields_dense(*args)):
        assert np.max(np.abs(got - ref)) <= 1e-14
    for key in ("sup", "u", "v"):
        assert abs(report[key] - dense[key]) <= 1e-14
    assert report["probes"] == dense["probes"] == len(box.probe_x) * len(box.probe_y)


def test_box_crosscheck_memory_stays_off_the_n2_field():
    # the 2048^2 box held the field and its half-spectrum: 96 MB of peak
    # allocations; the band rows and one kx block take a few MB
    st = _state(n=1024)
    tracemalloc.start()
    try:
        box_riesz_crosscheck(st, BoxSpec(size=160.0, n=2048), KernelParams(h=1.0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 16e6
