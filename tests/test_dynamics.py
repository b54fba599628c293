"""Time stepping: tendency assembly, RK4, CFL, invariances, scaling check."""

import numpy as np
import pytest

from sqgfronts import (
    SimConfig,
    Trajectory,
    cfl_timestep,
    front_profile,
    initial_state,
    integrate,
    make_grid,
    make_state,
    rhs,
    rhs_galilean_form,
    scaling_galilean_check,
    step_rk4,
    support_defect,
)
from sqgfronts.cli import measure_invariant_drift, measure_scaling_galilean, measure_translation_in_x
from sqgfronts.dynamics import MAX_SLOPE


def _periodic_cfg(n=256, length=4 * np.pi, amplitude=0.1, width=0.5, t_end=0.25, **kw):
    g = make_grid(-length / 2, length, n, periodic=True)
    return SimConfig(
        grid=g,
        t_end=t_end,
        initial_family="gaussian",
        initial_params={"amplitude": amplitude, "width": width, "center": 0.0},
        backend="periodic_spectral",
        **kw,
    )


def test_config_validation():
    g = make_grid(0.0, 2 * np.pi, 128, periodic=True)
    gl = make_grid(-30.0, 60.0, 128)
    with pytest.raises(ValueError):
        SimConfig(grid=g, t_end=0.0, backend="periodic_spectral")
    with pytest.raises(ValueError):
        SimConfig(grid=g, t_end=1.0, backend="midpoint_rule")
    with pytest.raises(ValueError):
        SimConfig(grid=g, t_end=1.0, backend="line_quadrature")  # periodic grid
    with pytest.raises(ValueError):
        SimConfig(grid=gl, t_end=1.0, backend="periodic_spectral")  # line grid
    with pytest.raises(ValueError):
        SimConfig(grid=g, t_end=1.0, backend="periodic_spectral", dt=-0.1)
    with pytest.raises(ValueError):
        SimConfig(grid=g, t_end=1.0, backend="periodic_spectral", output_stride=0)
    with pytest.raises(ValueError):
        SimConfig(grid=g, t_end=1.0, backend="periodic_spectral", cfl_safety=0.0)
    with pytest.raises(ValueError):
        SimConfig(grid=g, t_end=0.5, backend="periodic_spectral", dt=0.6)
    # the advective grouping needs the multiplier form of the linear term
    with pytest.raises(ValueError, match="galilean_form.*backend"):
        SimConfig(grid=gl, t_end=1.0, backend="line_quadrature", dt=1e-3, galilean_form=True)
    # family params are only exercised when the state is built
    cfg = SimConfig(grid=g, t_end=1.0, backend="periodic_spectral",
                    initial_family="gaussian", initial_params={"amplitude": 1.0})
    with pytest.raises(TypeError):
        initial_state(cfg)


def test_trajectory_validation():
    g = make_grid(0.0, 2 * np.pi, 128, periodic=True)
    s0 = make_state(g, np.zeros(128), t=0.0)
    s1 = make_state(g, np.zeros(128), t=0.5)
    with pytest.raises(ValueError):
        Trajectory(snapshots=(), diagnostics=())
    with pytest.raises(ValueError):
        Trajectory(snapshots=(s1, s0), diagnostics=({}, {}))
    tr = Trajectory(snapshots=(s0, s1), diagnostics=({}, {}))
    assert tr.final is s1


def test_rhs_backend_grid_mismatch():
    cfg = _periodic_cfg()
    gl = make_grid(-30.0, 60.0, 256)
    st = make_state(gl, np.zeros(256))
    with pytest.raises(ValueError):
        rhs(st, cfg)


def test_rhs_translation_in_phi():
    # lifting the front by a constant leaves the tendency unchanged
    cfg = _periodic_cfg()
    st = initial_state(cfg)
    base = rhs(st, cfg)
    lifted = rhs(st.with_phi(st.phi + 0.75), cfg)
    assert np.max(np.abs(lifted - base)) < 1e-10


def test_rhs_translation_in_x():
    # the _periodic_cfg front rolled by 5 nodes
    assert measure_translation_in_x(256) < 1e-10


def test_rhs_galilean_form_agrees():
    cfg = _periodic_cfg()
    st = initial_state(cfg)
    a = rhs(st, cfg)
    b = rhs_galilean_form(st, cfg)
    assert np.max(np.abs(a - b)) < 1e-8


def test_rhs_galilean_form_line_rejected():
    g = make_grid(-30.0, 60.0, 256)
    cfg = SimConfig(grid=g, t_end=0.1, backend="line_quadrature", dt=0.01)
    st = make_state(g, np.zeros(256))
    with pytest.raises(ValueError):
        rhs_galilean_form(st, cfg)


def test_cross_backend_agreement():
    # same nodes, same front; the periodic run sees images at distance >= L/2,
    # the line run sees flat tails, so the interior should agree closely
    n, length = 2048, 120.0
    gp = make_grid(-60.0, length, n, periodic=True)
    gl = make_grid(-60.0, length, n)
    phi, _ = front_profile(gp.x, "gaussian", amplitude=0.5, width=2.0, center=0.0)
    cfg_p = SimConfig(grid=gp, t_end=0.1, backend="periodic_spectral")
    cfg_l = SimConfig(grid=gl, t_end=0.1, backend="line_quadrature", dt=0.01)
    rp = rhs(make_state(gp, phi), cfg_p)
    rl = rhs(make_state(gl, phi), cfg_l)
    sel = np.abs(gp.x) < 10.0
    assert np.max(np.abs(rp[sel] - rl[sel])) < 1e-4


def test_cfl_timestep():
    g = make_grid(0.0, 2 * np.pi, 128, periodic=True)
    dt = cfl_timestep(g, safety=0.5)
    xi = np.fft.fftfreq(128, d=g.dx) * 2 * np.pi
    lam = np.abs(2.0 * xi * (np.log(np.abs(xi), out=np.zeros_like(xi), where=xi != 0)
                             + 0.5772156649015329 - np.log(2.0)))
    assert abs(dt - 0.5 / np.max(lam)) < 1e-15
    assert abs(cfl_timestep(g, safety=1.0) / dt - 2.0) < 1e-12
    with pytest.raises(ValueError):
        cfl_timestep(make_grid(0.0, 1.0, 128))
    with pytest.raises(ValueError):
        cfl_timestep(g, safety=0.0)


def test_step_rk4_local_order():
    # against a 16-substep reference one macro step should be 5th order
    cfg = _periodic_cfg(n=128, length=2 * np.pi, amplitude=0.05, width=0.4)
    st = initial_state(cfg)

    def advance(state, dt, k):
        for _ in range(k):
            state = step_rk4(state, dt / k, cfg)
        return state

    errs = []
    for dt in (2e-3, 1e-3):
        coarse = advance(st, dt, 1)
        ref = advance(st, dt, 16)
        errs.append(np.max(np.abs(coarse.phi - ref.phi)))
    assert errs[0] / max(errs[1], 1e-17) > 20.0


def test_step_rk4_rejects_bad_dt():
    cfg = _periodic_cfg()
    st = initial_state(cfg)
    with pytest.raises(ValueError):
        step_rk4(st, 0.0, cfg)
    with pytest.raises(ValueError):
        step_rk4(st, np.inf, cfg)


def test_integrate_periodic_caps_dt():
    cfg = _periodic_cfg(t_end=2.0, dt=1.0)  # far above the linear stability step
    with pytest.raises(ValueError):
        integrate(cfg)


def test_integrate_line_needs_dt():
    g = make_grid(-30.0, 60.0, 600)
    cfg = SimConfig(grid=g, t_end=0.1, backend="line_quadrature",
                    initial_family="gaussian",
                    initial_params={"amplitude": 0.5, "width": 2.0, "center": 0.0})
    with pytest.raises(ValueError):
        integrate(cfg)


def test_integrate_line_smoke():
    g = make_grid(-30.0, 60.0, 600)
    cfg = SimConfig(grid=g, t_end=0.01, backend="line_quadrature", dt=0.005,
                    initial_family="gaussian",
                    initial_params={"amplitude": 0.5, "width": 2.0, "center": 0.0})
    traj = integrate(cfg)
    assert not traj.aborted
    assert abs(traj.final.t - 0.01) < 1e-12
    assert len(traj.snapshots) == 3  # stride 1: t = 0, 0.005, 0.01


def test_line_diagnostics_record_the_flat_tail_assumption():
    g = make_grid(-30.0, 60.0, 256)
    cfg = SimConfig(grid=g, t_end=0.01, backend="line_quadrature", dt=0.005,
                    initial_family="gaussian",
                    initial_params={"amplitude": 0.5, "width": 2.0, "center": 0.0})
    traj = integrate(cfg)
    for d, snap in zip(traj.diagnostics, traj.snapshots):
        assert d["support_defect"] == support_defect(snap)
        assert d["edge_asymmetry"] == abs(float(snap.phi[0]) - float(snap.phi[-1]))
    # the periodic backend has no window ends
    assert "support_defect" not in integrate(_periodic_cfg(t_end=0.05)).diagnostics[0]


def test_integrate_stride_and_landing():
    cfg = _periodic_cfg(t_end=0.05, output_stride=10)
    traj = integrate(cfg)
    assert abs(traj.final.t - 0.05) < 1e-12
    assert len(traj.snapshots) >= 3
    steps = [b.t - a.t for a, b in zip(traj.snapshots[1:-1], traj.snapshots[2:-1])]
    if steps:
        assert max(steps) - min(steps) < 1e-12  # uniform interior stride


def test_integrate_deterministic():
    cfg = _periodic_cfg(t_end=0.05)
    a = integrate(cfg)
    b = integrate(cfg)
    assert np.array_equal(a.final.phi, b.final.phi)


def test_integrate_state_grid_mismatch():
    cfg = _periodic_cfg()
    other = make_grid(0.0, 2 * np.pi, 64, periodic=True)
    with pytest.raises(ValueError):
        integrate(cfg, make_state(other, np.zeros(64)))


def test_integrate_aborts_on_steep_slope():
    g = make_grid(-np.pi, 2 * np.pi, 256, periodic=True)
    cfg = SimConfig(grid=g, t_end=1.0, backend="periodic_spectral")
    st = make_state(g, 2.0 * np.cos(60.0 * g.x))  # slope 120 > threshold
    traj = integrate(cfg, st)
    assert traj.aborted
    assert traj.final.t < 1.0
    assert float(np.max(np.abs(np.gradient(traj.final.phi, g.dx)))) > 0.5 * MAX_SLOPE


def test_diagnostics_track_mean_and_slope():
    cfg = _periodic_cfg(t_end=0.05)
    traj = integrate(cfg)
    d0, d1 = traj.diagnostics[0], traj.diagnostics[-1]
    for key in ("t", "mean", "l2", "max_slope"):
        assert key in d0
    assert abs(d1["mean"] - d0["mean"]) < 1e-10
    assert d0["max_slope"] > 0.0


def test_scaling_check_identity_at_k1():
    cfg = _periodic_cfg(n=128, t_end=0.1)
    assert scaling_galilean_check(cfg, 1.0) < 1e-13


def test_scaling_check_bad_k():
    cfg = _periodic_cfg(n=128)
    for k in (0.0, -2.0, np.inf):
        with pytest.raises(ValueError):
            scaling_galilean_check(cfg, k)


def test_scaling_check_small_defect():
    for k in (2.0, 0.5):  # on the _periodic_cfg(n=128, t_end=0.25) run
        assert measure_scaling_galilean(128, k, 0.25) < 1e-3


def test_mean_is_conserved():
    # the _periodic_cfg run to t = 0.25
    assert measure_invariant_drift(256, t_end=0.25)[0] < 1e-8


def test_l2_drift_refines_with_n():
    # int phi^2 is conserved by the continuous equation; its relative drift
    # on the symmetry run falls about 63x per doubling (1.2e-7 to 2.0e-9)
    coarse = measure_invariant_drift(128)[1]
    fine = measure_invariant_drift(256)[1]
    assert fine * 16.0 <= coarse


def test_galilean_form_integration_matches():
    cfg_a = _periodic_cfg(n=128, t_end=0.05)
    cfg_b = _periodic_cfg(n=128, t_end=0.05, galilean_form=True)
    a = integrate(cfg_a)
    b = integrate(cfg_b)
    assert np.max(np.abs(a.final.phi - b.final.phi)) < 1e-8
