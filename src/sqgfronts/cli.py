"""Command-line front end: runs, verification suites, CSV/JSON artifacts.

Subcommands
-----------
simulate      run a config to t_end, write one CSV per snapshot + manifest
verify        run a named check suite (identities, equivalence, farfield,
              qg, symmetry) at documented default resolutions
dispersion    measured vs predicted phase velocity of small modes
velocity-map  sample (u, v) on a probe grid for far-field plots
symmetry      scaling-Galilean mismatch for chosen k values

Exit codes: 0 all checks pass, 1 a numerical check failed, 2 usage or
config error. Config files are JSON; schema errors are reported with field
paths. CSV bodies are deterministic for a fixed config; manifests add wall
time (excluded from the determinism contract).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .dynamics import SimConfig, cfl_timestep, integrate, rhs, rhs_galilean_form, scaling_galilean_check
from .fronts import FAMILIES, front_profile
from .grid import (
    TWO_GAMMA_MINUS_LOG4,
    LineGrid,
    build_workspace,
    finite_difference_derivative,
    make_grid,
    make_state,
    spectral_derivative,
)
from .halfspace import HalfSpacePoint, boundary_stream, harmonic_extension, stream_function
from .quadrature import KernelParams, background_term, cosine_integral_constant, scale_identity
from .velocity import galilean_shift, normal_velocity_background, normal_velocity_bmo, velocity_at


class UsageError(Exception):
    """Config or invocation problem; maps to exit code 2."""


# ---------------------------------------------------------------------------
# config loading

def _expect(cond: bool, path: str, msg: str):
    if not cond:
        raise UsageError(f"{path}: {msg}")


def _get(d: dict, key: str, path: str, required: bool = True, default=None):
    if key not in d:
        _expect(not required, f"{path}.{key}", "missing required field")
        return default
    return d[key]


def _is_number(v) -> bool:
    # JSON true/false load as bool, a subclass of int
    return isinstance(v, (int, float)) and not isinstance(v, bool)


_BACKEND_ALIASES = {"line": "line_quadrature", "periodic": "periodic_spectral",
                    "line_quadrature": "line_quadrature", "periodic_spectral": "periodic_spectral"}


def load_config(path: str, n_override: int | None = None, dt_override: float | None = None,
                backend_override: str | None = None) -> tuple[SimConfig, dict]:
    """Parse and validate a JSON run config; returns (SimConfig, raw echo)."""
    p = Path(path)
    if not p.is_file():
        raise UsageError(f"config file not found: {path}")
    try:
        raw = json.loads(p.read_text())
    except json.JSONDecodeError as e:
        raise UsageError(f"config is not valid JSON: {e}") from None
    _expect(isinstance(raw, dict), "<root>", "config must be a JSON object")

    gspec = _get(raw, "grid", "<root>")
    _expect(isinstance(gspec, dict), "grid", "must be an object")
    n_raw = _get(gspec, "n", "grid")
    _expect(isinstance(n_raw, int) and not isinstance(n_raw, bool), "grid.n", "must be an integer")
    n = n_raw if n_override is None else int(n_override)
    length = _get(gspec, "length", "grid")
    _expect(_is_number(length) and length > 0, "grid.length", "must be a positive number")
    x_min = _get(gspec, "x_min", "grid", required=False, default=-0.5 * float(length))
    _expect(_is_number(x_min), "grid.x_min", "must be a number")
    periodic = _get(gspec, "periodic", "grid", required=False, default=False)
    _expect(isinstance(periodic, bool), "grid.periodic", "must be true or false")
    _expect(n >= 8 and n % 2 == 0, "grid.n", "must be an even integer >= 8")
    try:
        grid = make_grid(float(x_min), float(length), n, periodic=periodic)
    except ValueError as e:
        raise UsageError(f"grid: {e}") from None

    ispec = _get(raw, "initial", "<root>")
    _expect(isinstance(ispec, dict), "initial", "must be an object")
    family = _get(ispec, "family", "initial")
    _expect(family in FAMILIES, "initial.family", f"unknown family {family!r}; options: {sorted(FAMILIES)}")
    params = _get(ispec, "params", "initial", required=False, default={})
    _expect(isinstance(params, dict), "initial.params", "must be an object")
    try:
        front_profile(grid.x, family, **params)
    except (TypeError, ValueError) as e:
        raise UsageError(f"initial.params: {str(e).replace(f'_{family}()', family)}") from None

    backend_raw = backend_override or _get(raw, "backend", "<root>", required=False,
                                           default="periodic" if periodic else "line")
    _expect(backend_raw in _BACKEND_ALIASES, "backend",
            f"must be one of {sorted(set(_BACKEND_ALIASES))}, got {backend_raw!r}")
    backend = _BACKEND_ALIASES[backend_raw]

    kspec = _get(raw, "kernel", "<root>", required=False, default={})
    _expect(isinstance(kspec, dict), "kernel", "must be an object")
    extra = set(kspec) - {"h"}
    _expect(not extra, "kernel", f"unknown fields: {sorted(extra)}")
    h = kspec.get("h")
    _expect(h is None or _is_number(h), "kernel.h", "must be a positive number or null")
    try:
        kernel = KernelParams(h=h)
    except ValueError as e:
        raise UsageError(f"kernel: {e}") from None

    dt = _get(raw, "dt", "<root>", required=False) if dt_override is None else dt_override
    _expect(dt is None or _is_number(dt), "dt", "must be a positive number or null")
    t_end = _get(raw, "t_end", "<root>")
    _expect(_is_number(t_end) and t_end > 0, "t_end", "must be a positive number")
    stride = _get(raw, "output_stride", "<root>", required=False, default=1)
    _expect(isinstance(stride, int) and not isinstance(stride, bool), "output_stride", "must be an integer")
    galilean = _get(raw, "galilean_form", "<root>", required=False, default=False)
    _expect(isinstance(galilean, bool), "galilean_form", "must be true or false")

    try:
        cfg = SimConfig(grid=grid, t_end=float(t_end), initial_family=family, initial_params=dict(params),
                        backend=backend, kernel=kernel, dt=None if dt is None else float(dt),
                        output_stride=stride, galilean_form=galilean)
    except ValueError as e:
        raise UsageError(str(e)) from None
    return cfg, raw


# ---------------------------------------------------------------------------
# artifact helpers

def _fmt(v) -> str:
    if isinstance(v, float):
        return repr(float(v))  # builtin float repr; numpy scalars print their type
    return str(v)


def write_csv(path: Path, header: list[str], rows) -> None:
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    path.write_text("\n".join(lines) + "\n")


def write_manifest(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2) + "\n")


def _check(name: str, measured: float, tolerance: float) -> dict:
    return {"name": name, "measured": float(measured), "tolerance": float(tolerance),
            "passed": bool(measured <= tolerance)}


def _print_checks(checks: list) -> None:
    width = max(len(c["name"]) for c in checks) + 2
    for c in checks:
        tag = "PASS" if c["passed"] else "FAIL"
        print(f"  {c['name']:<{width}} measured {c['measured']:.3e}  tol {c['tolerance']:.1e}  {tag}")


# ---------------------------------------------------------------------------
# verification suites (documented default resolutions)

def _line_grid(n: int) -> LineGrid:
    return make_grid(-30.0, 60.0, n, periodic=False)


_TEST_FRONTS = (
    ("gaussian", {"amplitude": 0.5, "width": 2.0, "center": 0.0}),
    ("poly_bump", {"amplitude": -0.4, "width": 6.0, "center": 1.5}),
)


def _suite_identities(n: int, scale: float) -> list:
    checks = []
    grid = _line_grid(n)
    worst = 0.0
    for family, params in _TEST_FRONTS:
        phi, phix = front_profile(grid.x, family, **params)
        state = make_state(grid, phi)
        for h in (1.0, 2.5):
            res = background_term(state, phix, KernelParams(h=h))
            worst = max(worst, float(np.max(np.abs(res))))
    checks.append(_check("background_integral_zero", worst, 1e-8 * scale))

    worst = max(abs(scale_identity(c) - math.log(c)) for c in (0.1, 0.5, 1.0, math.e, 10.0))
    checks.append(_check("scale_identity_vs_log", worst, 1e-10 * scale))

    checks.append(_check("cosine_integral_constant",
                         abs(cosine_integral_constant() - 0.5 * TWO_GAMMA_MINUS_LOG4), 1e-9 * scale))

    flat = make_state(grid, np.zeros(grid.n))
    shift = galilean_shift(flat, KernelParams(h=1.0))
    worst = 0.0
    for y in (-50.0, -10.0, -2.0, 0.5, 2.0, 10.0, 50.0):
        s = velocity_at(flat, 0.0, y, shift)
        worst = max(worst, abs(s.u - 2.0 * math.log(abs(y))), abs(s.v))
    checks.append(_check("hilbert_pair_flat_front", worst, 1e-10 * scale))
    return checks


def _suite_equivalence(n: int, scale: float) -> list:
    checks = []
    grid = _line_grid(n)
    worst_deriv = 0.0
    worst_rhs = 0.0
    cfg = SimConfig(grid=grid, t_end=1.0, backend="line_quadrature", dt=1e-3)
    for family, params in _TEST_FRONTS:
        phi, _ = front_profile(grid.x, family, **params)
        state = make_state(grid, phi)
        shift = galilean_shift(state)
        nv1 = normal_velocity_background(state)
        nv2 = normal_velocity_bmo(state, shift)
        worst_deriv = max(worst_deriv, float(np.max(np.abs(nv1 - nv2))))
        worst_rhs = max(worst_rhs, float(np.max(np.abs(rhs(state, cfg) - nv2))))
    checks.append(_check("derivation_I_vs_II", worst_deriv, 1e-6 * scale))
    checks.append(_check("rhs_vs_derivation_II", worst_rhs, 1e-6 * scale))

    pgrid = make_grid(-math.pi, 2.0 * math.pi, min(n, 256), periodic=True)
    rng = np.random.default_rng(7)
    coef = rng.standard_normal(8) * 0.02
    phi = sum(c * np.cos((j + 1) * pgrid.x + j) for j, c in enumerate(coef))
    pstate = make_state(pgrid, phi)
    pcfg = SimConfig(grid=pgrid, t_end=1.0, backend="periodic_spectral")
    diff = float(np.max(np.abs(rhs(pstate, pcfg) - rhs_galilean_form(pstate, pcfg))))
    checks.append(_check("rhs_regrouping", diff, 1e-8 * scale))
    return checks


def _suite_farfield(n: int, scale: float) -> list:
    grid = _line_grid(n)
    phi, _ = front_profile(grid.x, "gaussian", amplitude=0.5, width=2.0, center=0.0)
    state = make_state(grid, phi)
    shift = galilean_shift(state)
    checks = []
    for x in (0.0, 3.0):
        u_err, v_err = [], []
        for y in (1e2, 1e3, 1e4):
            s = velocity_at(state, x, y, shift)
            u_err.append(abs(s.u - 2.0 * math.log(y)))
            v_err.append(abs(s.v))
        tag = str(x).replace(".", "p")
        checks.append(_check(f"farfield_u_error_at_1e3_x{tag}", u_err[1], 1e-2 * scale))
        checks.append(_check(f"farfield_v_error_at_1e3_x{tag}", v_err[1], 1e-2 * scale))
        floor = 1e-14  # symmetric probes hit exact zeros; ratios of roundoff are noise
        u_err = [max(e, floor) for e in u_err]
        v_err = [max(e, floor) for e in v_err]
        ratio = max(u_err[1] / u_err[0], u_err[2] / u_err[1], v_err[1] / v_err[0], v_err[2] / v_err[1])
        checks.append(_check(f"farfield_monotone_decay_ratio_x{tag}", ratio, 1.0))
    return checks


def _suite_qg(scale: float) -> list:
    checks = []
    pts = [(0.7, 0.6), (1.0, 1.0), (-1.3, 0.8), (2.0, 3.0), (-2.5, 1.7),
           (0.3, 2.2), (4.0, 0.9), (-0.8, 4.1), (1.9, 1.4), (-3.2, 2.6)]
    step = 1e-3
    worst_f = worst_s = 0.0
    for y, z in pts:
        lap_f = (harmonic_extension(HalfSpacePoint(y + step, z)) + harmonic_extension(HalfSpacePoint(y - step, z))
                 + harmonic_extension(HalfSpacePoint(y, z + step)) + harmonic_extension(HalfSpacePoint(y, z - step))
                 - 4.0 * harmonic_extension(HalfSpacePoint(y, z))) / step**2
        lap_s = (stream_function(HalfSpacePoint(y + step, z)) + stream_function(HalfSpacePoint(y - step, z))
                 + stream_function(HalfSpacePoint(y, z + step)) + stream_function(HalfSpacePoint(y, z - step))
                 - 4.0 * stream_function(HalfSpacePoint(y, z))) / step**2
        worst_f = max(worst_f, abs(lap_f))
        worst_s = max(worst_s, abs(lap_s))
    checks.append(_check("laplacian_harmonic_extension", worst_f, 1e-6 * scale))
    checks.append(_check("laplacian_stream_function", worst_s, 1e-6 * scale))

    dz = 1e-4
    worst = 0.0
    for y, z in ((1.0, 1.0), (-2.0, 0.5), (0.3, 2.0)):
        dpsi = (stream_function(HalfSpacePoint(y, z + dz)) - stream_function(HalfSpacePoint(y, z - dz))) / (2 * dz)
        worst = max(worst, abs(dpsi - harmonic_extension(HalfSpacePoint(y, z))))
    checks.append(_check("dz_stream_vs_extension", worst, 1e-8 * scale))

    # trace gap is 2 pi z to first order, so probe well below the tolerance
    worst = max(abs(stream_function(HalfSpacePoint(y, 1e-8)) - boundary_stream(y)) for y in (0.5, 1.0, 3.0))
    checks.append(_check("boundary_trace", worst, 1e-6 * scale))

    dy = 5e-5
    worst = max(abs((boundary_stream(y + dy) - boundary_stream(y - dy)) / (2 * dy) - 2.0 * math.log(y))
                for y in (0.5, 1.0, 3.0))
    checks.append(_check("boundary_velocity_2logy", worst, 1e-8 * scale))
    return checks


def _suite_symmetry(n: int, scale: float, dt: float | None) -> list:
    checks = []
    grid = make_grid(-2.0 * math.pi, 4.0 * math.pi, n, periodic=True)
    cfg = SimConfig(grid=grid, t_end=0.25, backend="periodic_spectral", dt=dt,
                    initial_family="gaussian",
                    initial_params={"amplitude": 0.1, "width": 0.5, "center": 0.0})
    for k in (2.0, 0.5):
        checks.append(_check(f"scaling_galilean_k_{k}", scaling_galilean_check(cfg, k), 1e-3 * scale))

    lgrid = _line_grid(min(n, 256))
    phi, _ = front_profile(lgrid.x, "gaussian", amplitude=0.5, width=2.0, center=0.0)
    lcfg = SimConfig(grid=lgrid, t_end=1.0, backend="line_quadrature", dt=1e-3)
    base = rhs(make_state(lgrid, phi), lcfg)
    lifted = rhs(make_state(lgrid, phi + 0.75), lcfg)
    checks.append(_check("translation_in_phi", float(np.max(np.abs(lifted - base))), 1e-10 * scale))

    pstate = make_state(grid, front_profile(grid.x, "gaussian", amplitude=0.1, width=0.5, center=0.0)[0])
    pcfg = SimConfig(grid=grid, t_end=1.0, backend="periodic_spectral")
    rolled = make_state(grid, np.roll(pstate.phi, 5))
    diff = float(np.max(np.abs(np.roll(rhs(pstate, pcfg), 5) - rhs(rolled, pcfg))))
    checks.append(_check("translation_in_x", diff, 1e-10 * scale))

    run_cfg = SimConfig(grid=grid, t_end=0.5, backend="periodic_spectral",
                        initial_family="gaussian",
                        initial_params={"amplitude": 0.1, "width": 0.5, "center": 0.0})
    traj = integrate(run_cfg)
    drift = abs(traj.diagnostics[-1]["mean"] - traj.diagnostics[0]["mean"]) / traj.final.t
    checks.append(_check("mean_conservation_per_unit_time", drift, 1e-8 * scale))
    return checks


SUITES = ("identities", "equivalence", "farfield", "qg", "symmetry")


def run_suite(name: str, n: int | None, dt: float | None, scale: float) -> list:
    if name == "identities":
        return _suite_identities(n or 512, scale)
    if name == "equivalence":
        return _suite_equivalence(n or 512, scale)
    if name == "farfield":
        return _suite_farfield(n or 512, scale)
    if name == "qg":
        return _suite_qg(scale)
    if name == "symmetry":
        return _suite_symmetry(n or 256, scale, dt)
    raise UsageError(f"unknown suite {name!r}; options: {', '.join(SUITES)}")


# ---------------------------------------------------------------------------
# subcommands

def cmd_simulate(args) -> int:
    cfg, raw = load_config(args.config, args.n, args.dt, args.backend)
    out = Path(args.out)
    t0 = time.perf_counter()
    traj = integrate(cfg)
    wall = time.perf_counter() - t0

    out.mkdir(parents=True, exist_ok=True)
    ws = build_workspace(cfg.grid) if cfg.backend == "periodic_spectral" else None
    files = []
    for i, snap in enumerate(traj.snapshots):
        phix = spectral_derivative(snap, ws) if ws is not None else finite_difference_derivative(snap)
        name = f"snapshot_{i:04d}.csv"
        write_csv(out / name, ["x", "phi", "phi_x"],
                  zip(snap.grid.x.tolist(), snap.phi.tolist(), phix.tolist()))
        files.append(name)
    write_manifest(out / "manifest.json", {
        "command": "simulate", "version": __version__, "config": raw,
        "wall_time_s": wall, "aborted": traj.aborted, "snapshots": files,
        "diagnostics": list(traj.diagnostics),
    })
    print(f"wrote {len(files)} snapshots to {out} ({wall:.2f} s)"
          + (" [ABORTED on slope threshold]" if traj.aborted else ""))
    return 1 if traj.aborted else 0


def cmd_verify(args) -> int:
    names = SUITES if args.suite == "all" else (args.suite,)
    for name in names:
        if name not in SUITES:
            raise UsageError(f"unknown suite {name!r}; options: {', '.join(SUITES)} or 'all'")
    t0 = time.perf_counter()
    all_checks = []
    for name in names:
        print(f"suite {name}:")
        checks = run_suite(name, args.n, args.dt, args.tolerance_scale)
        _print_checks(checks)
        all_checks.extend({**c, "suite": name} for c in checks)
    wall = time.perf_counter() - t0
    passed = all(c["passed"] for c in all_checks)
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        write_manifest(out / "manifest.json", {
            "command": "verify", "version": __version__,
            "suites": list(names), "tolerance_scale": args.tolerance_scale,
            "n_override": args.n, "dt_override": args.dt,
            "wall_time_s": wall, "checks": all_checks, "passed": passed,
        })
    print(f"{'all checks passed' if passed else 'CHECK FAILURES'} ({wall:.2f} s)")
    return 0 if passed else 1


def measure_dispersion(n: int, xi_list, amplitude: float, t_end: float, dt: float | None):
    """Phase-velocity table for small superposed modes on a 2 pi periodic grid."""
    grid = make_grid(-math.pi, 2.0 * math.pi, n, periodic=True)
    rows = []
    predicted = {}
    for xi in xi_list:
        if xi != int(xi) or int(xi) < 1:
            raise UsageError(f"xi must be a positive integer on the 2 pi grid, got {xi}")
        xi = int(xi)
        if xi > n // 3:
            raise UsageError(f"xi = {xi} unresolved at n = {n} (needs xi <= n/3)")
        # linearized wave frequency: phi_t = 2 i xi (log xi + gamma - log 2) phi_hat
        omega = -TWO_GAMMA_MINUS_LOG4 * xi - 2.0 * xi * math.log(xi)
        if abs(omega) * t_end > 3.0:
            raise UsageError(f"t_end too long to unwrap the phase at xi = {xi}; reduce --t-end")
        predicted[xi] = omega

    phi0 = sum(amplitude * np.cos(xi * grid.x) for xi in predicted)
    cfg = SimConfig(grid=grid, t_end=t_end, backend="periodic_spectral", dt=dt)
    traj = integrate(cfg, make_state(grid, np.asarray(phi0)))
    c0 = np.fft.fft(phi0)
    c1 = np.fft.fft(traj.final.phi)
    for xi, omega in predicted.items():
        phase = float(np.angle(c1[xi] * np.conj(c0[xi])))
        measured = -phase / float(traj.final.t)
        rel = abs(measured - omega) / abs(omega)
        rows.append((xi, float(omega), float(measured), float(omega / xi), float(measured / xi), float(rel)))
    return rows


def cmd_dispersion(args) -> int:
    xi_list = [float(tok) for tok in args.xi.split(",") if tok.strip()]
    if not xi_list:
        raise UsageError("--xi needs at least one mode number")
    if not (0.0 < args.amplitude <= 1e-3):
        raise UsageError("amplitude must be in (0, 1e-3] to stay in the linear regime")
    t0 = time.perf_counter()
    rows = measure_dispersion(args.n or 512, xi_list, args.amplitude, args.t_end, args.dt)
    wall = time.perf_counter() - t0
    worst = max(r[5] for r in rows)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_csv(out / "dispersion.csv",
              ["xi", "omega_predicted", "omega_measured", "speed_predicted", "speed_measured", "rel_error"],
              rows)
    write_manifest(out / "manifest.json", {
        "command": "dispersion", "version": __version__,
        "n": args.n or 512, "amplitude": args.amplitude, "t_end": args.t_end,
        "wall_time_s": wall,
        "checks": [_check("dispersion_rel_error", worst, 1e-4 * args.tolerance_scale)],
        "passed": bool(worst <= 1e-4 * args.tolerance_scale),
    })
    for r in rows:
        print(f"  xi {r[0]:>3}  predicted {r[1]:+.6f}  measured {r[2]:+.6f}  rel {r[5]:.2e}")
    return 0 if worst <= 1e-4 * args.tolerance_scale else 1


def cmd_velocity_map(args) -> int:
    cfg, _ = load_config(args.config, args.n, None, None)
    if cfg.backend != "line_quadrature":
        raise UsageError("velocity-map needs a line backend config (anchored velocity kernel)")
    try:
        xs = [float(t) for t in args.probe_x.split(",") if t.strip()]
        ys = [float(t) for t in args.probe_y.split(",") if t.strip()]
    except ValueError as e:
        raise UsageError(f"bad probe list: {e}") from None
    if not xs or not ys:
        raise UsageError("probe lists must be nonempty")

    phi, _ = front_profile(cfg.grid.x, cfg.initial_family, **cfg.initial_params)
    state = make_state(cfg.grid, phi)
    shift = galilean_shift(state, cfg.kernel)
    rows = []
    for x in xs:
        for y in ys:
            try:
                s = velocity_at(state, x, y, shift)
            except ValueError as e:
                raise UsageError(str(e)) from None
            rows.append((x, y, s.u, s.v, s.u - 2.0 * math.log(abs(y)) if y != 0.0 else float("nan")))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_csv(out / "velocity_map.csv", ["x", "y", "u", "v", "u_minus_2log_abs_y"], rows)
    print(f"wrote {len(rows)} probes to {out / 'velocity_map.csv'}")
    return 0


def cmd_symmetry(args) -> int:
    ks = [float(t) for t in args.k.split(",") if t.strip()]
    if not ks:
        raise UsageError("--k needs at least one value")
    n = args.n or 256
    grid = make_grid(-2.0 * math.pi, 4.0 * math.pi, n, periodic=True)
    cfg = SimConfig(grid=grid, t_end=args.t_end, backend="periodic_spectral", dt=args.dt,
                    initial_family="gaussian",
                    initial_params={"amplitude": 0.1, "width": 0.5, "center": 0.0})
    t0 = time.perf_counter()
    checks = []
    for k in ks:
        if k <= 0:
            raise UsageError(f"k must be positive, got {k}")
        checks.append(_check(f"scaling_galilean_k_{k}", scaling_galilean_check(cfg, k),
                             1e-3 * args.tolerance_scale))
    wall = time.perf_counter() - t0
    _print_checks(checks)
    passed = all(c["passed"] for c in checks)
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        write_manifest(out / "manifest.json", {
            "command": "symmetry", "version": __version__, "n": n, "t_end": args.t_end,
            "wall_time_s": wall, "checks": checks, "passed": passed,
        })
    return 0 if passed else 1


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="sqgfronts",
                                 description="Planar front evolution with logarithmic far-field shear")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("simulate", help="run a config and write snapshots")
    ps.add_argument("--config", required=True, help="JSON run config")
    ps.add_argument("--out", default="out", help="output directory")
    ps.add_argument("--n", type=int, default=None, help="override grid.n")
    ps.add_argument("--dt", type=float, default=None, help="override dt")
    ps.add_argument("--backend", choices=sorted(set(_BACKEND_ALIASES)), default=None)
    ps.set_defaults(fn=cmd_simulate)

    pv = sub.add_parser("verify", help="run a verification suite")
    pv.add_argument("--suite", default="all", help=f"one of {', '.join(SUITES)} or 'all'")
    pv.add_argument("--out", default=None, help="write manifest.json here")
    pv.add_argument("--n", type=int, default=None, help="override default resolution")
    pv.add_argument("--dt", type=float, default=None)
    pv.add_argument("--tolerance-scale", type=float, default=1.0)
    pv.set_defaults(fn=cmd_verify)

    pd = sub.add_parser("dispersion", help="measured vs predicted phase velocity")
    pd.add_argument("--xi", default="1,2,4", help="comma list of mode numbers")
    pd.add_argument("--amplitude", type=float, default=1e-4)
    pd.add_argument("--t-end", type=float, default=0.05)
    pd.add_argument("--n", type=int, default=None)
    pd.add_argument("--dt", type=float, default=None)
    pd.add_argument("--out", default="out")
    pd.add_argument("--tolerance-scale", type=float, default=1.0)
    pd.set_defaults(fn=cmd_dispersion)

    pm = sub.add_parser("velocity-map", help="sample the velocity on a probe grid")
    pm.add_argument("--config", required=True)
    pm.add_argument("--probe-x", default="0.0")
    pm.add_argument("--probe-y", default="-1000.0,-100.0,-10.0,10.0,100.0,1000.0")
    pm.add_argument("--n", type=int, default=None)
    pm.add_argument("--out", default="out")
    pm.set_defaults(fn=cmd_velocity_map)

    py = sub.add_parser("symmetry", help="scaling-Galilean mismatch")
    py.add_argument("--k", default="0.5,2")
    py.add_argument("--t-end", type=float, default=0.25)
    py.add_argument("--n", type=int, default=None)
    py.add_argument("--dt", type=float, default=None)
    py.add_argument("--out", default=None)
    py.add_argument("--tolerance-scale", type=float, default=1.0)
    py.set_defaults(fn=cmd_symmetry)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
