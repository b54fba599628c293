"""Grid containers, transforms, and derivative helpers."""

import numpy as np
import pytest

from sqgfronts import (
    EULER_GAMMA,
    TWO_GAMMA_MINUS_LOG4,
    FrontState,
    HalfSpacePoint,
    KernelParams,
    LineGrid,
    SimConfig,
    apply_linear_multiplier,
    boundary_stream,
    build_workspace,
    cosine_integral_constant,
    far_field_value,
    finite_difference_derivative,
    front_profile,
    make_grid,
    make_state,
    scale_identity,
    scaling_galilean_check,
    spectral_derivative,
    step_rk4,
    support_defect,
    validate_line_support,
    velocity_at,
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


@pytest.mark.parametrize("n", [7, 6, 0, -8, 129, 64.9, 64.0, "64", True])
def test_make_grid_rejects_bad_n(n):
    with pytest.raises(ValueError, match=r"\bn\b"):
        make_grid(0.0, 1.0, n)


@pytest.mark.parametrize("n", [256.0, np.float64(256.0), "256", True])
def test_line_grid_refuses_a_non_integer_size(n):
    with pytest.raises(ValueError, match="n must be an integer"):
        LineGrid(x_min=-30.0, n=n, dx=60.0 / 256)


@pytest.mark.parametrize("n", [np.int32(64), np.int64(64), np.uint16(64)])
def test_grid_takes_numpy_integer_sizes(n):
    for g in (make_grid(-1.0, 2.0, n), LineGrid(x_min=-1.0, n=n, dx=2.0 / 64)):
        assert type(g.n) is int and g.n == 64 and g.x.shape == (64,)


def test_make_grid_rejects_bad_length():
    with pytest.raises(ValueError):
        make_grid(0.0, 0.0, 64)
    with pytest.raises(ValueError):
        make_grid(0.0, -2.0, 64)


@pytest.mark.parametrize("x_min", [np.nan, np.inf, -np.inf])
def test_make_grid_rejects_non_finite_origin(x_min):
    with pytest.raises(ValueError, match="x_min"):
        make_grid(x_min, 1.0, 64)


@pytest.mark.parametrize("n", [10**400, -(10**400), 2**63, np.uint64(2**64 - 1)],
                         ids=["1e400", "-1e400", "2**63", "uint64-max"])
def test_grid_refuses_a_size_wider_than_an_index(n):
    # 10**400 used to escape make_grid as an OverflowError from length / n
    with pytest.raises(ValueError, match=r"^n must fit in 63 bits"):
        make_grid(-30.0, 60.0, n)
    with pytest.raises(ValueError, match=r"^n must fit in 63 bits"):
        LineGrid(x_min=-30.0, n=n, dx=1e-300)


@pytest.mark.parametrize("x_min, length, n", [
    (1e308, 60.0, 256),  # x_min + j dx == x_min: 256 equal nodes
    (1e308, 1e308, 256),  # the last node overflows to inf
    (-30.0, 60.0, 2**62),  # dx = 1.3e-17, below the rounding of 30
])
def test_grid_refuses_a_window_it_cannot_resolve(x_min, length, n):
    with pytest.raises(ValueError, match=r"^x_min = .* and dx = .* must give \d+ increasing finite nodes"):
        make_grid(x_min, length, n)


@pytest.mark.parametrize("dx", [0.0, -0.5, np.inf, np.nan, 1e-15])
def test_line_grid_refuses_a_spacing_that_gives_no_window(dx):
    with pytest.raises(ValueError, match="x_min = -30.0 and dx"):
        LineGrid(x_min=-30.0, n=64, dx=dx)


def test_grid_takes_a_tiny_window_near_zero():
    g = make_grid(0.0, 1e-300, 8)
    assert np.all(np.diff(g.x) > 0.0)


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


def test_state_and_grid_are_read_only():
    g = make_grid(-30.0, 60.0, 64)
    given = np.exp(-(g.x**2))
    st = make_state(g, given)
    given[:] = 7.0  # the state keeps its own copy
    assert np.array_equal(st.phi, np.exp(-(g.x**2)))
    for a in (st.phi, st.slope, g.x):
        with pytest.raises(ValueError):
            a[0] = 1.0


@pytest.mark.parametrize("periodic", [False, True])
def test_state_keeps_the_grid_derivative_as_its_slope(periodic):
    g = make_grid(-np.pi, 2 * np.pi, 128, periodic=periodic)
    st = make_state(g, np.exp(-4.0 * g.x**2))
    want = spectral_derivative(st) if periodic else finite_difference_derivative(st)
    assert np.array_equal(st.slope, want)
    assert st.slope is st.slope
    moved = st.with_phi(2.0 * st.phi)  # a new state takes its own slope
    assert np.array_equal(moved.slope, 2.0 * want)


def test_state_compares_and_hashes_by_identity():
    # a state equals only itself, even against a state with the same samples,
    # and it hashes, so it can key a cache or sit in a set
    g = make_grid(-30.0, 60.0, 64)
    st = make_state(g, np.exp(-(g.x**2)))
    twin = st.with_phi(st.phi)
    assert st == st and st != twin
    assert st in [st] and twin not in [st]
    assert hash(st) == hash(st)
    assert len({st, twin}) == 2 and len({st, st}) == 1


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


def test_line_grid_holds_dx_as_a_float():
    # an np.float32 dx held as given would give float32 nodes, tables and
    # samples; and as the grid equals and hashes like its float64 twin,
    # whichever runs first would fill the per-grid tables that both read
    narrow = LineGrid(x_min=-25.6, n=512, dx=np.float32(0.1))
    twin = LineGrid(x_min=-25.6, n=512, dx=float(np.float32(0.1)))
    assert type(narrow.dx) is float and narrow == twin and hash(narrow) == hash(twin)
    u = [velocity_at(make_state(g, 0.5 * np.exp(-(g.x / 2.0) ** 2)), 0.5, 3.0).u for g in (narrow, twin)]
    assert type(u[0]) is float and u[0] == u[1]


def test_spectral_derivative_line_grid_rejected():
    g = make_grid(0.0, 2 * np.pi, 128)
    st = make_state(g, np.sin(g.x))
    with pytest.raises(ValueError):
        spectral_derivative(st)


def test_workspace_mismatch_rejected():
    with pytest.raises(ValueError):
        build_workspace(make_grid(0.0, 1.0, 64))


def test_linear_multiplier_matches_symbol():
    # multiplier + advection constant act on cos(xi x) as
    # -2 xi (log xi + gamma - log 2) sin(xi x)
    g = make_grid(-np.pi, 2 * np.pi, 256, periodic=True)
    for xi in (1, 2, 5, 16):
        st = make_state(g, np.cos(xi * g.x))
        lin = apply_linear_multiplier(st) + TWO_GAMMA_MINUS_LOG4 * spectral_derivative(st)
        pred = -2.0 * xi * (np.log(xi) + EULER_GAMMA - np.log(2.0)) * np.sin(xi * g.x)
        assert np.max(np.abs(lin - pred)) < 1e-10


def test_linear_multiplier_kills_mean():
    g = make_grid(0.0, 2 * np.pi, 128, periodic=True)
    st = make_state(g, np.full(128, 0.3))
    out = apply_linear_multiplier(st)
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


# Every public type and entry point checks each number and flag it takes
# through grid._real and grid._flag: (field, call of the value, a value that
# used to pass as a number or flag, or to end in a TypeError naming no field,
# or in a silently wrong front; a numpy scalar the call still takes)
_LINE = make_grid(-30.0, 60.0, 256)
_PHI = np.exp(-(_LINE.x / 2.0) ** 2) * 0.3
_LINE_STATE = make_state(_LINE, _PHI)
_LINE_CFG = SimConfig(grid=_LINE, t_end=0.004, dt=0.002)
_PERIODIC_CFG = SimConfig(grid=make_grid(-2.0 * np.pi, 4.0 * np.pi, 64, periodic=True), t_end=0.01,
                          initial_family="gaussian", initial_params={"amplitude": 0.1, "width": 0.5, "center": 0.0})
_FRONT = {"amplitude": 0.3, "width": 2.0, "center": 0.0}
_WINDOWED = {"amplitude": 0.1, "mode": 1.0, "plateau": 2.0, "support": 6.0}

INPUT_CASES = [
    # a bool taken as a number
    ("t_end", "true", lambda v: SimConfig(grid=_LINE, t_end=v), True, np.float64(1.0)),
    ("dt", "true", lambda v: SimConfig(grid=_LINE, t_end=1.0, dt=v), True, np.float64(0.5)),
    ("h", "true", lambda v: KernelParams(h=v), True, np.int64(2)),
    ("length", "true", lambda v: make_grid(0.0, v, 64), True, np.int64(60)),
    ("dt", "step-true", lambda v: step_rk4(_LINE_STATE, v, _LINE_CFG), True, np.float64(0.002)),
    ("k", "true", lambda v: scaling_galilean_check(_PERIODIC_CFG, v), True, np.float64(2.0)),
    ("x", "true", lambda v: velocity_at(_LINE_STATE, v, 3.0), True, np.float64(0.5)),
    ("z", "true", lambda v: HalfSpacePoint(0.0, v), True, np.int64(1)),
    ("c", "true", lambda v: scale_identity(v), True, np.int64(3)),
    ("inner", "true", lambda v: cosine_integral_constant(inner=v), True, np.int64(350)),
    # a truthy value taken as a flag
    ("periodic", "yes", lambda v: LineGrid(x_min=0.0, n=64, dx=0.5, periodic=v), "yes", np.bool_(True)),
    ("periodic", "false", lambda v: LineGrid(x_min=0.0, n=64, dx=0.5, periodic=v), "false", np.bool_(False)),
    ("periodic", "1", lambda v: make_grid(0.0, 60.0, 64, periodic=v), 1, np.bool_(True)),
    ("audit_background", "no", lambda v: SimConfig(grid=_LINE, t_end=1.0, audit_background=v), "no",
     np.bool_(True)),
    # a bare TypeError, or a ValueError, that named no field
    ("t_end", "str", lambda v: SimConfig(grid=_LINE, t_end=v), "1", np.int64(1)),
    ("cfl_safety", "none", lambda v: SimConfig(grid=_LINE, t_end=1.0, cfl_safety=v), None, np.float64(0.5)),
    ("h", "str", lambda v: KernelParams(h=v), "1", np.float64(1.0)),
    ("length", "str", lambda v: make_grid(0.0, v, 64), "60", np.float64(60.0)),
    ("x_min", "none", lambda v: make_grid(v, 60.0, 64), None, np.float64(-30.0)),
    ("x_min", "str", lambda v: make_grid(v, 60.0, 64), "a", np.int64(-30)),
    ("y", "str", lambda v: HalfSpacePoint(v, 1.0), "a", np.float64(0.5)),
    ("y", "boundary-str", boundary_stream, "1", np.int64(2)),
    ("x", "str", lambda v: velocity_at(_LINE_STATE, v, 3.0), "1", np.int64(1)),
    ("dt", "step-str", lambda v: step_rk4(_LINE_STATE, v, _LINE_CFG), "0.1", np.float64(0.001)),
    ("k", "str", lambda v: scaling_galilean_check(_PERIODIC_CFG, v), "2", np.int64(2)),
    ("amplitude", "str", lambda v: front_profile(_LINE.x, "gaussian", **{**_FRONT, "amplitude": v}), "a",
     np.float64(0.3)),
    ("cutoff", "str", lambda v: scale_identity(2.0, cutoff=v), "a", np.int64(1000)),
    # a non-finite value taken silently
    ("center", "inf", lambda v: front_profile(_LINE.x, "gaussian", **{**_FRONT, "center": v}), np.inf,
     np.float64(1.0)),
    ("width", "poly_bump-inf", lambda v: front_profile(_LINE.x, "poly_bump", **{**_FRONT, "width": v}),
     np.inf, np.int64(6)),
    ("amplitude", "nan", lambda v: front_profile(_LINE.x, "gaussian", **{**_FRONT, "amplitude": v}), np.nan,
     np.int64(0)),
    ("mode", "nan", lambda v: front_profile(_LINE.x, "windowed_cosine", **{**_WINDOWED, "mode": v}), np.nan,
     np.int64(2)),
    ("t", "nan", lambda v: make_state(_LINE, _PHI, t=v), np.nan, np.float64(0.5)),
    ("cutoff", "cosine-nan", lambda v: cosine_integral_constant(cutoff=v), np.nan, np.float64(1e6)),
    ("t", "str", lambda v: make_state(_LINE, _PHI, t=v), "0", np.int64(0)),
]


@pytest.mark.parametrize("field, call, refused, taken", [case[:1] + case[2:] for case in INPUT_CASES],
                         ids=[f"{field}-{label}" for field, label, *_ in INPUT_CASES])
def test_each_input_is_refused_by_its_name_and_numpy_scalars_are_taken(field, call, refused, taken):
    with pytest.raises(ValueError, match=f"^{field} must be "):
        call(refused)
    call(taken)
