"""Command-line front end: runs, verification suites, CSV/JSON artifacts.

Subcommands
-----------
simulate      run a config to t_end, write one CSV per snapshot + manifest
verify        run named check suites (identities, equivalence, farfield,
              qg, symmetry, dispersion) at documented default resolutions
velocity-map  sample (u, v) on a probe grid for far-field plots

The run config is the only place that sets a run, so the manifest's echo of
it is the run; `verify` is the only command that runs checks.

Each verification check is measured once, by a `measure_*` function that
takes its grid size, fronts, depths and probes as arguments. The `verify`
suites call them at documented defaults; tests/test_acceptance.py calls the
same functions with its own inputs and keeps its own literal bounds. A check
record holds name, measured, tolerance, passed and wall_s.

Exit codes: 0 all checks pass, 1 a numerical check failed, 2 usage or
config error (including a numeric flag out of range). Config files are JSON;
schema errors are reported with field paths. CSV bodies are deterministic
for a fixed config; manifests add wall time (excluded from the determinism
contract).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from . import __version__
from .dynamics import SimConfig, initial_state, integrate, rhs, rhs_galilean_form, scaling_galilean_check
from .fronts import FAMILIES, front_profile
from .grid import (
    EULER_GAMMA,
    TWO_GAMMA_MINUS_LOG4,
    LineGrid,
    make_grid,
    make_state,
)
from .halfspace import HalfSpacePoint, boundary_stream, harmonic_extension, stream_function
from .quadrature import KernelParams, background_term, cosine_integral_constant, scale_identity
from .velocity import galilean_shift, normal_velocity_background, normal_velocity_bmo, velocity_at


class UsageError(Exception):
    """Config or invocation problem; maps to exit code 2."""


@contextmanager
def _usage(prefix: str = ""):
    """Report a ValueError raised while building from user input as a UsageError."""
    try:
        yield
    except ValueError as e:
        raise UsageError(f"{prefix}{e}") from None


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
    # JSON true/false load as bool, a subclass of int; NaN and Infinity load
    # as floats, and an integer literal may be too large for a float (the
    # comparison is exact and false for NaN)
    return isinstance(v, (int, float)) and not isinstance(v, bool) and abs(v) <= sys.float_info.max


def _only(d: dict, fields: tuple, prefix: str = ""):
    """Reject the keys of d that are not in fields, naming each."""
    extra = [prefix + key for key in d if key not in fields]
    _expect(not extra, ", ".join(extra), f"unknown; allowed fields: {', '.join(fields)}")


def load_config(path: str) -> tuple[SimConfig, dict]:
    """Parse and validate a JSON run config; returns (SimConfig, raw echo).

    Every field changes the run; an unknown one is an error. The grid's
    periodicity picks the backend.
    """
    p = Path(path)
    if not p.is_file():
        raise UsageError(f"config file not found: {path}")
    try:
        raw = json.loads(p.read_text())
    except json.JSONDecodeError as e:
        raise UsageError(f"config is not valid JSON: {e}") from None
    _expect(isinstance(raw, dict), "<root>", "config must be a JSON object")
    _only(raw, ("grid", "initial", "t_end", "dt", "output_stride"))

    gspec = _get(raw, "grid", "<root>")
    _expect(isinstance(gspec, dict), "grid", "must be an object")
    _only(gspec, ("n", "length", "x_min", "periodic"), "grid.")
    n = _get(gspec, "n", "grid")
    _expect(isinstance(n, int) and not isinstance(n, bool), "grid.n", "must be an integer")
    length = _get(gspec, "length", "grid")
    _expect(_is_number(length) and length > 0, "grid.length", "must be a positive finite number")
    x_min = _get(gspec, "x_min", "grid", required=False, default=-0.5 * float(length))
    _expect(_is_number(x_min), "grid.x_min", "must be a finite number")
    periodic = _get(gspec, "periodic", "grid", required=False, default=False)
    _expect(isinstance(periodic, bool), "grid.periodic", "must be true or false")
    _expect(n >= 8 and n % 2 == 0, "grid.n", "must be an even integer >= 8")
    with _usage("grid: "):
        grid = make_grid(float(x_min), float(length), n, periodic=periodic)

    ispec = _get(raw, "initial", "<root>")
    _expect(isinstance(ispec, dict), "initial", "must be an object")
    _only(ispec, ("family", "params"), "initial.")
    family = _get(ispec, "family", "initial")
    _expect(family in FAMILIES, "initial.family", f"unknown family {family!r}; options: {sorted(FAMILIES)}")
    params = _get(ispec, "params", "initial", required=False, default={})
    _expect(isinstance(params, dict), "initial.params", "must be an object")
    for key, value in params.items():
        _expect(_is_number(value), f"initial.params.{key}", "must be a finite number")
    try:
        front_profile(grid.x, family, **params)
    except (TypeError, ValueError) as e:
        raise UsageError(f"initial.params: {str(e).replace(f'_{family}()', family)}") from None

    dt = _get(raw, "dt", "<root>", required=False)
    _expect(dt is None or _is_number(dt), "dt", "must be a positive finite number or null")
    t_end = _get(raw, "t_end", "<root>")
    _expect(_is_number(t_end) and t_end > 0, "t_end", "must be a positive finite number")
    stride = _get(raw, "output_stride", "<root>", required=False, default=1)
    _expect(isinstance(stride, int) and not isinstance(stride, bool), "output_stride", "must be an integer")

    with _usage():
        cfg = SimConfig(grid=grid, t_end=float(t_end), initial_family=family, initial_params=dict(params),
                        dt=None if dt is None else float(dt), output_stride=stride)
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
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2) + "\n")


def _record(items) -> list:
    """Check records from (name, measured, tolerance) items. Each books the
    wall time since the one before: a lazily measured item is timed on its
    own, a measurement feeding several checks on the first of them."""
    checks, t = [], time.perf_counter()
    for name, measured, tolerance in items:
        now = time.perf_counter()
        checks.append({"name": name, "measured": float(measured), "tolerance": float(tolerance),
                       "passed": bool(measured <= tolerance), "wall_s": now - t})
        t = now
    return checks


def _print_checks(checks: list) -> None:
    width = max(len(c["name"]) for c in checks) + 2
    for c in checks:
        tag = "PASS" if c["passed"] else "FAIL"
        print(f"  {c['name']:<{width}} measured {c['measured']:.3e}  tol {c['tolerance']:.1e}  {tag}"
              f"  ({c['wall_s']:.3f} s)")


# ---------------------------------------------------------------------------
# verification ledger: one measurement per check (see the module docstring)

def _line_grid(n: int) -> LineGrid:
    return make_grid(-30.0, 60.0, n, periodic=False)


def _periodic_gaussian(n: int, t_end: float, dt: float | None = None) -> SimConfig:
    """The symmetry runs: a small gaussian on a 4 pi periodic window."""
    with _usage(f"dt = {dt}, t_end = {t_end}: "):
        return SimConfig(grid=make_grid(-2.0 * math.pi, 4.0 * math.pi, n, periodic=True), t_end=t_end,
                         dt=dt, initial_family="gaussian",
                         initial_params={"amplitude": 0.1, "width": 0.5, "center": 0.0})


def measure_background(n: int, fronts, depths) -> float:
    """Largest |background integral| over the line fronts and reference depths."""
    grid = _line_grid(n)
    worst = 0.0
    for family, params in fronts:
        phi, phix = front_profile(grid.x, family, **params)
        state = make_state(grid, phi)
        for h in depths:
            worst = max(worst, float(np.max(np.abs(background_term(state, phix, KernelParams(h=h))))))
    return worst


def measure_scale_identity(cs) -> float:
    """Largest |scale_identity(c) - log c|."""
    return max(abs(scale_identity(c) - math.log(c)) for c in cs)


def measure_cosine_constant() -> float:
    """|cosine integral constant - (gamma - log 2)|."""
    return abs(cosine_integral_constant() - (EULER_GAMMA - math.log(2.0)))


def measure_log_law(n: int, front, xs, ys) -> tuple[np.ndarray, np.ndarray]:
    """|u - 2 log|y|| and |v| at the probes (x, y), x in xs, y in ys.

    `front` is a (family, params) pair on the [-30, 30) line, or None for
    the flat front. Returns two arrays of shape (len(xs), len(ys)).
    """
    grid = _line_grid(n)
    state = make_state(grid, np.zeros(n) if front is None else front_profile(grid.x, front[0], **front[1])[0])
    with _usage(f"n = {n}: "):  # a probe closer to the front than one spacing
        samples = [[velocity_at(state, x, y) for y in ys] for x in xs]
    return (np.array([[abs(s.u - 2.0 * math.log(abs(y))) for s, y in zip(row, ys)] for row in samples]),
            np.array([[abs(s.v) for s in row] for row in samples]))


def measure_velocity_routes(n: int, fronts, h: float | None) -> tuple[float, float]:
    """Largest gaps from the representative-velocity normal velocity to the
    strip-referenced one and to the line tendency."""
    grid = _line_grid(n)
    p = KernelParams(h=h)
    cfg = SimConfig(grid=grid, t_end=1.0)
    routes = tendency = 0.0
    for family, params in fronts:
        state = make_state(grid, front_profile(grid.x, family, **params)[0])
        bmo = normal_velocity_bmo(state, galilean_shift(state, p))
        routes = max(routes, float(np.max(np.abs(normal_velocity_background(state, p) - bmo))))
        tendency = max(tendency, float(np.max(np.abs(rhs(state, cfg) - bmo))))
    return routes, tendency


def measure_regrouping(n: int) -> float:
    """Sup gap between `rhs` and its advective grouping, seeded 8-mode 2 pi front."""
    grid = make_grid(-math.pi, 2.0 * math.pi, n, periodic=True)
    coef = np.random.default_rng(7).standard_normal(8) * 0.02
    state = make_state(grid, sum(c * np.cos((j + 1) * grid.x + j) for j, c in enumerate(coef)))
    cfg = SimConfig(grid=grid, t_end=1.0)
    return float(np.max(np.abs(rhs(state, cfg) - rhs_galilean_form(state, cfg))))


def measure_laplacian(f, points) -> float:
    """Largest 5-point Laplacian of the half-space function f at the points (y, z)."""
    worst, step = 0.0, 1e-3
    for y, z in points:
        lap = (f(HalfSpacePoint(y + step, z)) + f(HalfSpacePoint(y - step, z))
               + f(HalfSpacePoint(y, z + step)) + f(HalfSpacePoint(y, z - step))
               - 4.0 * f(HalfSpacePoint(y, z))) / step**2
        worst = max(worst, abs(lap))
    return worst


def measure_conjugacy(points) -> float:
    """Largest |d(stream)/dz - extension| at the points (y, z), central differences."""
    dz = 1e-4
    return max(abs((stream_function(HalfSpacePoint(y, z + dz)) - stream_function(HalfSpacePoint(y, z - dz)))
                   / (2 * dz) - harmonic_extension(HalfSpacePoint(y, z)))
               for y, z in points)


def measure_boundary_trace(ys) -> float:
    """Largest |stream(y, 1e-8) - boundary stream(y)| just above the boundary."""
    return max(abs(stream_function(HalfSpacePoint(y, 1e-8)) - boundary_stream(y)) for y in ys)


def measure_boundary_velocity(ys) -> float:
    """Largest |d(boundary stream)/dy - 2 log y|, central differences."""
    dy = 5e-5
    return max(abs((boundary_stream(y + dy) - boundary_stream(y - dy)) / (2 * dy) - 2.0 * math.log(y))
               for y in ys)


def measure_scaling_galilean(n: int, k: float, t_end: float, dt: float | None = None) -> float:
    """Scaling-Galilean mismatch of the symmetry run at k."""
    cfg = _periodic_gaussian(n, t_end, dt)
    with _usage(f"k = {k}: "):
        return scaling_galilean_check(cfg, k)


def measure_translation_in_phi(n: int) -> float:
    """Sup change of the line tendency when the gaussian front is lifted by 0.75."""
    grid = _line_grid(n)
    phi = front_profile(grid.x, "gaussian", amplitude=0.5, width=2.0, center=0.0)[0]
    cfg = SimConfig(grid=grid, t_end=1.0)
    return float(np.max(np.abs(rhs(make_state(grid, phi + 0.75), cfg) - rhs(make_state(grid, phi), cfg))))


def measure_translation_in_x(n: int) -> float:
    """Sup gap between the rolled tendency and that of the rolled front (5 nodes)."""
    cfg = _periodic_gaussian(n, 1.0)
    state = initial_state(cfg)
    rolled = make_state(cfg.grid, np.roll(state.phi, 5))
    return float(np.max(np.abs(np.roll(rhs(state, cfg), 5) - rhs(rolled, cfg))))


def invariant_drift(traj) -> tuple[float, float | None]:
    """Drifts per unit time of the two invariants over a run: the front mean,
    and int phi^2 relative to its initial value (None from a flat front)."""
    first, last, t = traj.diagnostics[0], traj.diagnostics[-1], traj.final.t
    l2 = abs((last["l2"] / first["l2"]) ** 2 - 1.0) / t if first["l2"] > 0.0 else None
    return abs(last["mean"] - first["mean"]) / t, l2


def measure_invariant_drift(n: int, t_end: float = 0.5) -> tuple[float, float]:
    """Invariant drifts per unit time over one symmetry run."""
    return invariant_drift(integrate(_periodic_gaussian(n, t_end)))


def measure_dispersion(n: int, modes, amplitude: float, t_end: float, dt: float | None = None) -> list:
    """Relative phase-speed errors of small superposed cosine modes (integer
    xi) on a 2 pi periodic grid, one per mode, against the linear frequency."""
    for xi in modes:
        if xi > n // 3:
            raise UsageError(f"xi = {xi} unresolved at n = {n} (needs xi <= n/3)")
    grid = make_grid(-math.pi, 2.0 * math.pi, n, periodic=True)
    phi0 = sum(amplitude * np.cos(xi * grid.x) for xi in modes)
    with _usage(f"dt = {dt}, t_end = {t_end}: "):
        traj = integrate(SimConfig(grid=grid, t_end=t_end, dt=dt), make_state(grid, np.asarray(phi0)))
    c0, c1 = np.fft.fft(phi0), np.fft.fft(traj.final.phi)
    errors = []
    for xi in modes:
        # linearized wave frequency: phi_t = 2 i xi (log xi + gamma - log 2) phi_hat
        omega = -TWO_GAMMA_MINUS_LOG4 * xi - 2.0 * xi * math.log(xi)
        measured = -float(np.angle(c1[xi] * np.conj(c0[xi]))) / float(traj.final.t)
        errors.append(abs(measured - omega) / abs(omega))
    return errors


def _decay_ratio(*errors) -> float:
    """Largest ratio of successive errors over the sequences that rise above
    roundoff; one at roundoff throughout (the exact zeros of a symmetric
    probe) has no decay to measure. With none left the ratio is inf."""
    floor = 1e-14
    ratios = []
    for e in errors:
        if np.max(e) > floor:
            e = np.maximum(e, floor)
            ratios.extend(e[1:] / e[:-1])
    return max(ratios, default=math.inf)


# ---------------------------------------------------------------------------
# verification suites (documented default resolutions)

_TEST_FRONTS = (
    ("gaussian", {"amplitude": 0.5, "width": 2.0, "center": 0.0}),
    ("poly_bump", {"amplitude": -0.4, "width": 6.0, "center": 1.5}),
)

_QG_POINTS = ((0.7, 0.6), (1.0, 1.0), (-1.3, 0.8), (2.0, 3.0), (-2.5, 1.7),
              (0.3, 2.2), (4.0, 0.9), (-0.8, 4.1), (1.9, 1.4), (-3.2, 2.6))


def _suite_identities(n, dt, scale):
    yield "background_integral_zero", measure_background(n, _TEST_FRONTS, (1.0, 2.5)), 1e-8 * scale
    yield "scale_identity_vs_log", measure_scale_identity((0.1, 0.5, 1.0, math.e, 10.0)), 1e-10 * scale
    yield "cosine_integral_constant", measure_cosine_constant(), 1e-9 * scale
    u_err, v_err = measure_log_law(n, None, (0.0,), (-50.0, -10.0, -2.0, 0.5, 2.0, 10.0, 50.0))
    yield "hilbert_pair_flat_front", max(u_err.max(), v_err.max()), 1e-10 * scale


def _suite_equivalence(n, dt, scale):
    routes, tendency = measure_velocity_routes(n, _TEST_FRONTS, None)
    yield "derivation_I_vs_II", routes, 1e-6 * scale
    yield "rhs_vs_derivation_II", tendency, 1e-6 * scale
    yield "rhs_regrouping", measure_regrouping(min(n, 256)), 1e-8 * scale


def _suite_farfield(n, dt, scale):
    xs = (0.0, 3.0)
    u_err, v_err = measure_log_law(n, _TEST_FRONTS[0], xs, (1e2, 1e3, 1e4))
    for x, u, v in zip(xs, u_err, v_err):
        tag = str(x).replace(".", "p")
        yield f"farfield_u_error_at_1e3_x{tag}", u[1], 1e-2 * scale
        yield f"farfield_v_error_at_1e3_x{tag}", v[1], 1e-2 * scale
        yield f"farfield_monotone_decay_ratio_x{tag}", _decay_ratio(u, v), 1.0


def _suite_qg(n, dt, scale):
    ys = (0.5, 1.0, 3.0)
    yield "laplacian_harmonic_extension", measure_laplacian(harmonic_extension, _QG_POINTS), 1e-6 * scale
    yield "laplacian_stream_function", measure_laplacian(stream_function, _QG_POINTS), 1e-6 * scale
    yield "dz_stream_vs_extension", measure_conjugacy(((1.0, 1.0), (-2.0, 0.5), (0.3, 2.0))), 1e-8 * scale
    # trace gap is 2 pi z to first order, so probe well below the tolerance
    yield "boundary_trace", measure_boundary_trace(ys), 1e-6 * scale
    yield "boundary_velocity_2logy", measure_boundary_velocity(ys), 1e-8 * scale


def _suite_symmetry(n, dt, scale):
    for k in (2.0, 0.5):
        yield f"scaling_galilean_k_{k}", measure_scaling_galilean(n, k, 0.25, dt), 1e-3 * scale
    yield "translation_in_phi", measure_translation_in_phi(min(n, 256)), 1e-10 * scale
    yield "translation_in_x", measure_translation_in_x(n), 1e-10 * scale
    mean_drift, l2_drift = measure_invariant_drift(n)
    yield "mean_conservation_per_unit_time", mean_drift, 1e-8 * scale
    # 1.2e-7, 2.0e-9 and 3.1e-11 at n = 128, 256 and 512
    yield "l2_conservation_per_unit_time", l2_drift, 1e-6 * scale


_DISPERSION_MODES = (1, 2, 4)


def _suite_dispersion(n, dt, scale):
    errors = measure_dispersion(n, _DISPERSION_MODES, 1e-4, 0.05, dt)
    for xi, error in zip(_DISPERSION_MODES, errors):
        yield f"dispersion_rel_error_xi{xi}", error, 1e-4 * scale


# name: (suite, default n); qg has no grid, and symmetry and dispersion step
_SUITES = {
    "identities": (_suite_identities, 512),
    "equivalence": (_suite_equivalence, 512),
    "farfield": (_suite_farfield, 512),
    "qg": (_suite_qg, None),
    "symmetry": (_suite_symmetry, 256),
    "dispersion": (_suite_dispersion, 512),
}
SUITES = tuple(_SUITES)


def run_suite(name: str, n: int | None, dt: float | None, scale: float) -> list:
    """Check records of one suite; n and dt override its default resolution and step."""
    if name not in _SUITES:
        raise UsageError(f"unknown suite {name!r}; options: {', '.join(SUITES)}")
    suite, default_n = _SUITES[name]
    return _record(suite(default_n if n is None else n, dt, scale))


# ---------------------------------------------------------------------------
# subcommands

def cmd_simulate(args) -> int:
    cfg, raw = load_config(args.config)
    out = Path(args.out)
    t0 = time.perf_counter()
    with _usage():  # a dt the grid cannot take, a line front that leaks
        traj = integrate(cfg)
    wall = time.perf_counter() - t0
    mean_drift, l2_drift = invariant_drift(traj)

    out.mkdir(parents=True, exist_ok=True)
    files = []
    for i, snap in enumerate(traj.snapshots):
        name = f"snapshot_{i:04d}.csv"
        write_csv(out / name, ["x", "phi", "phi_x"],
                  zip(snap.grid.x.tolist(), snap.phi.tolist(), snap.slope.tolist()))
        files.append(name)
    write_manifest(out / "manifest.json", {
        "command": "simulate", "version": __version__, "config": raw,
        "wall_time_s": wall, "dt": traj.dt, "steps": traj.steps, "aborted": traj.aborted, "snapshots": files,
        "drift_per_unit_time": {"mean": mean_drift, "l2": l2_drift}, "diagnostics": list(traj.diagnostics),
    })
    print(f"wrote {len(files)} snapshots to {out} ({wall:.2f} s)"
          + (" [ABORTED on slope threshold]" if traj.aborted else ""))
    return 1 if traj.aborted else 0


def cmd_verify(args) -> int:
    if args.suite not in SUITES + ("all",):
        raise UsageError(f"unknown suite {args.suite!r}; options: {', '.join(SUITES)} or 'all'")
    names = SUITES if args.suite == "all" else (args.suite,)
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
        write_manifest(Path(args.out) / "manifest.json", {
            "command": "verify", "version": __version__,
            "suites": list(names), "tolerance_scale": args.tolerance_scale,
            "n_override": args.n, "dt_override": args.dt,
            "wall_time_s": wall, "checks": all_checks, "passed": passed,
        })
    print(f"{'all checks passed' if passed else 'CHECK FAILURES'} ({wall:.2f} s)")
    return 0 if passed else 1


def cmd_velocity_map(args) -> int:
    cfg, _ = load_config(args.config)
    if cfg.grid.periodic:
        raise UsageError("velocity-map needs a line backend config (anchored velocity kernel)")
    xs, ys = _numbers(args.probe_x, "--probe-x"), _numbers(args.probe_y, "--probe-y")

    state = initial_state(cfg)
    rows = []
    for x in xs:
        for y in ys:
            with _usage():
                s = velocity_at(state, x, y)
            rows.append((x, y, s.u, s.v, s.u - 2.0 * math.log(abs(y)) if y != 0.0 else float("nan")))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_csv(out / "velocity_map.csv", ["x", "y", "u", "v", "u_minus_2log_abs_y"], rows)
    print(f"wrote {len(rows)} probes to {out / 'velocity_map.csv'}")
    return 0


def _numbers(text: str, flag: str) -> list:
    """A nonempty comma list of finite numbers."""
    with _usage(f"{flag}: "):
        values = [float(t) for t in text.split(",") if t.strip()]
    if not values:
        raise UsageError(f"{flag} needs at least one number")
    bad = [v for v in values if not math.isfinite(v)]
    if bad:
        raise UsageError(f"{flag} takes finite numbers only, got {bad[0]}")
    return values


def _check_flags(args) -> None:
    """--n even and >= 8; --dt, --tolerance-scale finite and > 0."""
    n = getattr(args, "n", None)
    if n is not None and (n < 8 or n % 2):
        raise UsageError(f"--n must be an even integer >= 8, got {n}")
    for dest in ("dt", "tolerance_scale"):
        value = getattr(args, dest, None)
        if value is not None and not (math.isfinite(value) and value > 0.0):
            raise UsageError(f"--{dest.replace('_', '-')} must be a positive finite number, got {value}")


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="sqgfronts",
                                 description="Planar front evolution with logarithmic far-field shear")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("simulate", help="run a config and write snapshots")
    ps.add_argument("--config", required=True, help="JSON run config")
    ps.add_argument("--out", default="out", help="output directory")
    ps.set_defaults(fn=cmd_simulate)

    pv = sub.add_parser("verify", help="run a verification suite")
    pv.add_argument("--suite", default="all", help=f"one of {', '.join(SUITES)} or 'all'")
    pv.add_argument("--out", default=None, help="write manifest.json here")
    pv.add_argument("--n", type=int, default=None, help="override default resolution")
    pv.add_argument("--dt", type=float, default=None)
    pv.add_argument("--tolerance-scale", type=float, default=1.0)
    pv.set_defaults(fn=cmd_verify)

    pm = sub.add_parser("velocity-map", help="sample the velocity on a probe grid")
    pm.add_argument("--config", required=True)
    pm.add_argument("--probe-x", default="0.0")
    pm.add_argument("--probe-y", default="-1000.0,-100.0,-10.0,10.0,100.0,1000.0")
    pm.add_argument("--out", default="out")
    pm.set_defaults(fn=cmd_velocity_map)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check_flags(args)
        return args.fn(args)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
