"""End-to-end acceptance checks.

Each test measures one headline property at its stated tolerance and records
a single PASS/FAIL line (replayed after the pytest summary). Tolerances and
budgets are fixed; if a check fails, fix the code, not the number.

Where `sqgfronts verify` has the same check, the measurement comes from the
same `sqgfronts.cli.measure_*` function, called here with this file's inputs;
the bounds, wall budgets and extra conditions stay here.
"""

import math
import time

import numpy as np

from conftest import record_acceptance
from sqgfronts import (
    EULER_GAMMA,
    BoxSpec,
    KernelParams,
    SimConfig,
    box_riesz_crosscheck,
    build_workspace,
    apply_linear_multiplier,
    front_profile,
    harmonic_extension,
    integrate,
    linear_term_quadrature,
    make_grid,
    make_state,
    scaling_galilean_check,
    spectral_derivative,
    stream_function,
)
from sqgfronts.cli import (
    measure_background,
    measure_boundary_velocity,
    measure_conjugacy,
    measure_cosine_constant,
    measure_laplacian,
    measure_log_law,
    measure_invariant_drift,
    measure_scale_identity,
    measure_velocity_routes,
)

FRONTS = [
    ("gaussian", dict(amplitude=0.5, width=2.0, center=0.0)),
    ("gaussian", dict(amplitude=-0.3, width=1.5, center=3.0)),
    ("poly_bump", dict(amplitude=0.4, width=6.0, center=-2.0)),
    ("poly_bump", dict(amplitude=-0.25, width=5.0, center=4.0)),
    ("windowed_cosine", dict(amplitude=0.2, mode=2.0, plateau=4.0, support=10.0)),
]


def _report(num, name, ok, detail):
    line = f"criterion {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    record_acceptance(line)
    assert ok, line


def test_criterion_01_background_integral_vanishes():
    t0 = time.perf_counter()
    worst = measure_background(1024, FRONTS, (1.0, 2.0, 5.0))
    wall = time.perf_counter() - t0
    ok = worst <= 1e-8 and wall <= 10.0
    _report(1, "background integral vanishes", ok,
            f"max residual = {worst:.3e} <= 1e-08 over 5 fronts x 3 depths; {wall:.1f} s <= 10 s")


def test_criterion_02_scale_identity():
    t0 = time.perf_counter()
    worst = measure_scale_identity((0.1, 0.5, 1.0, math.e, 10.0))
    wall = time.perf_counter() - t0
    ok = worst <= 1e-10 and wall <= 1.0
    _report(2, "scale identity equals log c", ok,
            f"max error = {worst:.3e} <= 1e-10; {wall:.2f} s <= 1 s")


def test_criterion_03_cosine_constant():
    t0 = time.perf_counter()
    err = measure_cosine_constant()
    wall = time.perf_counter() - t0
    ok = err <= 1e-9 and wall <= 1.0
    _report(3, "cosine integral constant", ok,
            f"error = {err:.3e} <= 1e-09; {wall:.2f} s <= 1 s")


def test_criterion_04_linear_symbol():
    # line quadrature on plateau-windowed modes, relative to the symbol value
    # near the plateau center; the window is centered on a sine extremum so
    # the pointwise relative error is well defined
    g = make_grid(-60.0, 120.0, 2048)
    worst_line = 0.0
    for xi in (1.0, 2.0, 4.0):
        xc = math.pi / (2.0 * xi)
        phi, phix = front_profile(g.x, "windowed_cosine", amplitude=0.05, mode=xi,
                                  plateau=16.0, support=28.0, center=xc)
        st = make_state(g, phi)
        lq = linear_term_quadrature(st, phix)
        pred = -2.0 * xi * (math.log(xi) + EULER_GAMMA - math.log(2.0)) * 0.05 * np.sin(xi * g.x)
        sel = np.abs(g.x - xc) <= 0.6 / xi
        worst_line = max(worst_line, float(np.max(np.abs(lq[sel] - pred[sel]) / np.abs(pred[sel]))))

    gp = make_grid(-math.pi, 2.0 * math.pi, 256, periodic=True)
    ws = build_workspace(gp)
    from sqgfronts import TWO_GAMMA_MINUS_LOG4

    worst_per = 0.0
    for xi in (1, 2, 4):
        st = make_state(gp, np.cos(xi * gp.x))
        lin = apply_linear_multiplier(st, ws) + TWO_GAMMA_MINUS_LOG4 * spectral_derivative(st, ws)
        pred = -2.0 * xi * (math.log(xi) + EULER_GAMMA - math.log(2.0)) * np.sin(xi * gp.x)
        worst_per = max(worst_per, float(np.max(np.abs(lin - pred))))

    ok = worst_line <= 1e-3 and worst_per <= 1e-10
    _report(4, "linear term matches dispersive symbol", ok,
            f"line rel = {worst_line:.3e} <= 1e-03; periodic abs = {worst_per:.3e} <= 1e-10")


def test_criterion_05_derivation_equivalence():
    t0 = time.perf_counter()
    worst_routes, worst_rhs = measure_velocity_routes(1024, FRONTS, 1.0)
    wall = time.perf_counter() - t0
    ok = worst_routes <= 1e-6 and worst_rhs <= 1e-6 and wall <= 30.0
    _report(5, "normal velocity derivations agree", ok,
            f"route gap = {worst_routes:.3e}, rhs gap = {worst_rhs:.3e}, both <= 1e-06; "
            f"{wall:.1f} s <= 30 s")


def test_criterion_06_far_field_log_law():
    front = ("gaussian", dict(amplitude=0.5, width=2.0, center=1.3))
    u_errs, v_errs = measure_log_law(1024, front, (0.0,), (1e2, 1e3, 1e4, -1e2, -1e3, -1e4), h=1.0)
    # one row per sign of y, |y| = 1e2, 1e3, 1e4 along it
    errs = np.concatenate([u_errs.reshape(2, 3), v_errs.reshape(2, 3)])
    worst_mid = float(np.max(errs[:, 1]))
    ok = bool(np.all(errs[:, :-1] > errs[:, 1:])) and worst_mid <= 1e-2
    _report(6, "far field approaches 2 log|y|", ok,
            f"monotone decay at |y| = 1e2, 1e3, 1e4, both signs; error at 1e3 = {worst_mid:.3e} <= 1e-02")


def test_criterion_07_hilbert_pair_flat_front():
    u_errs, v_errs = measure_log_law(1024, None, (0.0, 1.7, -4.0), (-50.0, -10.0, -2.0, 0.5, 3.0, 50.0), h=1.0)
    worst = max(u_errs.max(), v_errs.max())
    ok = worst <= 1e-10
    _report(7, "flat front gives the exact log pair", ok,
            f"max |(u, v) - (2 log|y|, 0)| = {worst:.3e} <= 1e-10 over 18 probes")


def test_criterion_08_scaling_galilean_symmetry():
    t0 = time.perf_counter()
    mism = {}
    for n in (512, 1024):
        g = make_grid(-8.0 * math.pi, 16.0 * math.pi, n, periodic=True)
        cfg = SimConfig(grid=g, t_end=0.5, backend="periodic_spectral",
                        initial_family="gaussian",
                        initial_params={"amplitude": 0.1, "width": 0.5, "center": 0.0},
                        cfl_safety=1.0)
        mism[n] = max(scaling_galilean_check(cfg, k) for k in (2.0, 0.5))
    wall = time.perf_counter() - t0
    ok = mism[1024] <= 1e-3 and mism[1024] < mism[512]
    _report(8, "scaling-Galilean symmetry holds", ok,
            f"mismatch = {mism[1024]:.3e} <= 1e-03 at n = 1024 (CFL step, k = 2 and 1/2), "
            f"refines from {mism[512]:.3e} at n = 512; {wall:.0f} s")


def test_criterion_09_conservation_and_orders():
    # (a) exact invariant: the front mean, gaussian on a 4 pi periodic window
    drift, _ = measure_invariant_drift(256, t_end=0.5)

    # (b) RK4 order by dt halving against a fine reference; two modes, so
    # the finest error (about 1e-9) sits far above the rounding floor
    g2 = make_grid(-math.pi, 2.0 * math.pi, 128, periodic=True)
    st0 = make_state(g2, 0.1 * np.cos(3.0 * g2.x) + 0.05 * np.sin(8.0 * g2.x))
    base = SimConfig(grid=g2, t_end=0.2, backend="periodic_spectral", dt=1e-4)
    ref = integrate(base, st0).final.phi
    errs = []
    for dt in (1.6e-3, 8e-4, 4e-4):
        fin = integrate(SimConfig(grid=g2, t_end=0.2, backend="periodic_spectral", dt=dt), st0).final.phi
        errs.append(float(np.max(np.abs(fin - ref))))
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]

    # (c) quadrature error ratio under dx halving, against frozen references
    from test_quadrature import _oracle_errors

    qerrs = [_oracle_errors(n) for n in (1200, 2400)]
    ratio_nl = qerrs[0][0] / max(qerrs[1][0], 1e-14)
    ratio_lin = qerrs[0][1] / max(qerrs[1][1], 1e-14)

    ok = drift <= 1e-8 and min(orders) >= 3.8 and min(ratio_nl, ratio_lin) >= 8.0
    _report(9, "conservation and convergence orders", ok,
            f"mean drift = {drift:.2e} <= 1e-08 per unit time; RK4 orders = "
            f"{orders[0]:.2f}, {orders[1]:.2f} >= 3.8; quadrature ratios = "
            f"{ratio_nl:.1f}, {ratio_lin:.1f} >= 8 per dx halving")


def test_criterion_10_half_space_closed_forms():
    pts = [(0.7, 0.6), (1.0, 1.0), (-1.3, 0.8), (2.0, 3.0), (-2.5, 1.7),
           (0.3, 2.2), (4.0, 0.9), (-0.8, 4.1), (1.9, 1.4), (-3.2, 2.6)]
    worst_lap = max(measure_laplacian(f, pts) for f in (harmonic_extension, stream_function))
    worst_conj = measure_conjugacy(pts)
    worst_log = measure_boundary_velocity((0.5, 1.0, 3.0))
    ok = worst_lap <= 1e-6 and worst_conj <= 1e-8 and worst_log <= 1e-8
    _report(10, "half-space closed forms", ok,
            f"Laplacian residue = {worst_lap:.3e} <= 1e-06 at 10 interior points; "
            f"dz-stream vs extension = {worst_conj:.3e} <= 1e-08 at the same points; "
            f"boundary velocity vs 2 log y = {worst_log:.3e} <= 1e-08")


def test_criterion_11_box_transform_crosscheck():
    t0 = time.perf_counter()
    g = make_grid(-30.0, 60.0, 1024)
    phi, _ = front_profile(g.x, "gaussian", amplitude=0.5, width=2.0, center=0.0)
    st = make_state(g, phi)
    p = KernelParams(h=1.0)
    sup1 = box_riesz_crosscheck(st, BoxSpec(size=80.0, n=1024), p)["sup"]
    sup2 = box_riesz_crosscheck(st, BoxSpec(size=160.0, n=2048), p)["sup"]
    wall = time.perf_counter() - t0
    ok = sup1 <= 1e-1 and sup2 <= 0.5 * sup1 and wall <= 120.0
    _report(11, "2D transform cross-check", ok,
            f"sup mismatch = {sup1:.3e} <= 1e-01 on the 1024^2 box; doubling the box "
            f"gives {sup2:.3e} <= half; {wall:.0f} s <= 120 s")
