"""Time stepping: tendency assembly, RK4, CFL, invariances, scaling check."""

from dataclasses import replace

import numpy as np
import pytest

from sqgfronts import (
    EULER_GAMMA,
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
import sqgfronts.grid as grid_module
from sqgfronts.cli import measure_invariant_drift, measure_scaling_galilean, measure_translation_in_x
from sqgfronts.dynamics import MAX_SLOPE


GAUSSIAN_LINE = {"amplitude": 0.5, "width": 2.0, "center": 0.0}


def _line_cfg(n, t_end, dt, **kw):
    return SimConfig(grid=make_grid(-30.0, 60.0, n), t_end=t_end, dt=dt,
                     initial_family="gaussian", initial_params=GAUSSIAN_LINE, **kw)


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
    # the grid picks the backend by default
    assert SimConfig(grid=g, t_end=1.0).backend == "periodic_spectral"
    assert SimConfig(grid=gl, t_end=1.0).backend == "line_quadrature"
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
    # safety / (Lambda min(1, f / 0.3)), f = 1 - 1/sqrt(1 + S^2), capped at t_end
    g = make_grid(0.0, 2 * np.pi, 128, periodic=True)
    xi = np.fft.rfftfreq(128, d=g.dx)[:-1] * 2 * np.pi  # the Nyquist mode is not evolved
    peak = np.max(np.abs(2.0 * xi * (np.log(np.abs(xi), out=np.zeros_like(xi), where=xi != 0)
                                     + 0.5772156649015329 - np.log(2.0))))
    cfg = SimConfig(grid=g, t_end=1.0, cfl_safety=0.5)
    for amplitude in (0.02, 0.1, 0.5):  # peak slopes about 0.06, 0.3 and 1.5
        state = make_state(g, amplitude * np.cos(3.0 * g.x))
        slope = np.max(np.abs(3.0 * amplitude * np.sin(3.0 * g.x)))
        f = 1.0 - 1.0 / np.sqrt(1.0 + slope**2)
        dt = cfl_timestep(state, cfg)
        assert dt == pytest.approx(0.5 / (peak * min(1.0, f / 0.3)), rel=1e-12)
        assert cfl_timestep(state, replace(cfg, cfl_safety=1.0)) == pytest.approx(2.0 * dt, rel=1e-12)
    # steeper than S = 1.02 the linear stability step comes back
    assert dt == pytest.approx(0.5 / peak, rel=1e-12)
    # a step past the horizon is cut to it
    assert cfl_timestep(make_state(g, 1e-3 * np.cos(g.x)), cfg) == 1.0
    line = make_grid(0.0, 1.0, 128)
    with pytest.raises(ValueError):
        cfl_timestep(make_state(line, np.zeros(128)), SimConfig(grid=line, t_end=1.0, dt=0.1))


def test_step_rk4_propagates_the_linear_part_exactly():
    # a 1e-6 mode feels a nonlinear term of order 1e-18; one step of
    # lambda(3) dt = 2.9i, past RK4's stability interval, is exact
    g = make_grid(-np.pi, 2 * np.pi, 128, periodic=True)
    eps, dt = 1e-6, 0.5
    step = step_rk4(make_state(g, eps * np.cos(3.0 * g.x)), dt, SimConfig(grid=g, t_end=1.0))
    lam = 2.0j * 3.0 * (np.log(3.0) + EULER_GAMMA - np.log(2.0))
    assert np.max(np.abs(step.phi - (eps * np.exp(lam * dt) * np.exp(3.0j * g.x)).real)) <= 1e-15


def test_flat_front_takes_one_automatic_step():
    g = make_grid(-np.pi, 2 * np.pi, 64, periodic=True)
    traj = integrate(SimConfig(grid=g, t_end=0.7), make_state(g, np.full(64, 0.25)))
    assert (traj.steps, traj.dt, traj.final.t) == (1, 0.7, 0.7)
    assert np.array_equal(traj.final.phi, np.full(64, 0.25))


def test_step_rk4_local_order():
    # against a 16-substep reference one macro step should be 5th order. On
    # the periodic grid the exact linear propagator leaves errors of 4.9e-10
    # and 1.5e-11 at these steps (at 2e-3 and 1e-3 the second one sat at the
    # rounding floor); the line stepper (lambda = 0, classical RK4) reads a
    # ratio of 32.2 on its front
    periodic = _periodic_cfg(n=128, length=2 * np.pi, amplitude=0.05, width=0.4)
    line = _line_cfg(256, 1.0, 1e-2)

    def advance(state, dt, k, cfg):
        for _ in range(k):
            state = step_rk4(state, dt / k, cfg)
        return state

    for cfg in (periodic, line):
        st = initial_state(cfg)
        errs = []
        for dt in (2e-2, 1e-2):
            coarse = advance(st, dt, 1, cfg)
            ref = advance(st, dt, 16, cfg)
            errs.append(np.max(np.abs(coarse.phi - ref.phi)))
        assert errs[0] / max(errs[1], 1e-17) > 20.0, cfg.backend


def test_grid_builds_its_tables_once(monkeypatch):
    # one scaling check integrates two grids (the configured one and the
    # k-rescaled one), and each builds its tables once, on first use
    builds = []
    build = grid_module.build_workspace

    def counted(g):
        builds.append(g)
        return build(g)

    monkeypatch.setattr(grid_module, "build_workspace", counted)
    cfg = _periodic_cfg(n=64, t_end=0.05)
    scaling_galilean_check(cfg, 2.0)
    assert len(builds) == 2 and builds[0] is cfg.grid
    tables = cfg.grid.spectral
    assert tables is cfg.grid.spectral and len(builds) == 2
    assert tables.rate.shape == (cfg.grid.n // 2 + 1,) and tables.rate[-1] == 0.0
    for table in (tables.ixi, tables.symbol, tables.rate):
        with pytest.raises(ValueError):
            table[0] = 1.0


def test_periodic_run_takes_each_states_slope_once(grid_calls):
    # the start state's slope sets the step; each step then makes three stage
    # states and one new state, and each takes its slope once
    calls = grid_calls("spectral_derivative")
    traj = integrate(_periodic_cfg())  # the symmetry run
    assert traj.steps == 13
    assert len(calls) == 1 + 4 * traj.steps


def test_step_rk4_rejects_bad_dt():
    cfg = _periodic_cfg()
    st = initial_state(cfg)
    with pytest.raises(ValueError):
        step_rk4(st, 0.0, cfg)
    with pytest.raises(ValueError):
        step_rk4(st, np.inf, cfg)


def test_integrate_periodic_caps_dt():
    # the start state's stability step 2 sqrt 2 / (Lambda f) is 0.023 for this
    # front; run to t = 1 it stays stable up to dt = 0.03 and blows up at 0.035
    cfg = _periodic_cfg(t_end=0.1, amplitude=0.5, dt=0.04)
    with pytest.raises(ValueError, match="stability step"):
        integrate(cfg)
    assert not integrate(replace(cfg, dt=0.02)).aborted


def test_integrate_line_needs_dt():
    with pytest.raises(ValueError):
        integrate(_line_cfg(600, 0.1, None))


def test_integrate_line_refuses_a_leaking_start_state():
    # the line tails assume a front flat outside the middle half [-15, 15)
    window = {"amplitude": 0.1, "mode": 1.0, "plateau": 10.0, "support": 20.0}
    cfg = SimConfig(grid=make_grid(-30.0, 60.0, 256), t_end=0.01, dt=0.005,
                    initial_family="windowed_cosine", initial_params=window)
    with pytest.raises(ValueError, match="middle half.*defect"):
        integrate(cfg)
    assert not integrate(replace(cfg, initial_params={**window, "support": 14.0})).aborted


def test_integrate_line_smoke():
    traj = integrate(_line_cfg(600, 0.01, 0.005))
    assert not traj.aborted
    assert abs(traj.final.t - 0.01) < 1e-12
    assert len(traj.snapshots) == 3  # stride 1: t = 0, 0.005, 0.01


def test_line_diagnostics_record_the_flat_tail_assumption():
    traj = integrate(_line_cfg(256, 0.01, 0.005))
    for d, snap in zip(traj.diagnostics, traj.snapshots):
        assert d["support_defect"] == support_defect(snap)
        assert d["edge_asymmetry"] == abs(float(snap.phi[0]) - float(snap.phi[-1]))
        assert "max_background" not in d  # the audit is off by default
    # the periodic backend has no window ends
    assert "support_defect" not in integrate(_periodic_cfg(t_end=0.05)).diagnostics[0]


def test_background_audit_stays_at_zero():
    # the background integral vanishes identically; the audit takes the adaptive depth
    traj = integrate(_line_cfg(256, 0.01, 0.005, audit_background=True))
    assert len(traj.diagnostics) == 3
    for d in traj.diagnostics:
        assert d["max_background"] <= 1e-8


@pytest.mark.parametrize("cfg", [
    _line_cfg(64, 0.1, 3e-3),  # 34 steps, the last a third of dt
    _periodic_cfg(n=128, t_end=0.3),  # at the automatic step
], ids=["line", "periodic"])
def test_integrate_ends_on_t_end(cfg):
    # the horizon is hit exactly, not one rounding of k * dt short or past it
    assert integrate(cfg).final.t == cfg.t_end


def test_integrate_starts_at_zero():
    cfg = _periodic_cfg(n=64, t_end=0.05)
    with pytest.raises(ValueError, match="t = 0"):
        integrate(cfg, replace(initial_state(cfg), t=0.01))


def test_integrate_stride_and_landing():
    cfg = _periodic_cfg(t_end=0.05, output_stride=10, dt=1e-3)
    traj = integrate(cfg)
    assert abs(traj.final.t - 0.05) < 1e-12
    assert len(traj.snapshots) == 6
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


def test_scaling_check_is_periodic_only():
    with pytest.raises(ValueError, match="line_quadrature"):
        scaling_galilean_check(_line_cfg(64, 0.01, 0.005), 2.0)
