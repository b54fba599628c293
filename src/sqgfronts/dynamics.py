"""Front evolution: tendency assembly, time stepping, symmetry checks.

The tendency is the sum of the nonlinear self-interaction integral and a
linear nonlocal term. Two backends:

  line_quadrature : both pieces by physical-space quadrature on a flat-tailed
      line grid (see `quadrature`), slopes by 4th-order finite differences.
  periodic_spectral : nonlinear piece by minimum-image quadrature over half a
      period, linear piece by the Fourier multiplier 2 i xi log|xi| plus the
      constant advection 2 (gamma - log 2) phi_x, slopes spectral.

`rhs_galilean_form` reassembles the same tendency in its advective grouping
(multiplier minus advection minus the kernel-contrast integral with its sign
flipped); the two groupings are algebraically identical and their numerical
agreement is a standing verification target.

Time stepping is classical fixed-step RK4. The linear multiplier has an
imaginary spectrum, so the step is chosen against max |2 xi (log|xi| +
gamma - log 2)| with a default safety factor 0.5, comfortably inside the RK4
imaginary-axis stability interval.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.interpolate import CubicSpline

from .fronts import front_profile
from .grid import (
    TWO_GAMMA_MINUS_LOG4,
    FrontState,
    LineGrid,
    SpectralWorkspace,
    apply_linear_multiplier,
    build_workspace,
    far_field_value,
    finite_difference_derivative,
    make_state,
    spectral_derivative,
    support_defect,
)
from .quadrature import (
    KernelParams,
    _by_offset,
    _diagonal_jump_correction,
    _pair_sum,
    _separation,
    background_term,
    kernel_difference,
    linear_term_quadrature,
    nonlinear_term,
)

__all__ = [
    "SimConfig",
    "Trajectory",
    "initial_state",
    "rhs",
    "rhs_galilean_form",
    "cfl_timestep",
    "step_rk4",
    "integrate",
    "scaling_galilean_check",
]

BACKENDS = ("line_quadrature", "periodic_spectral")

# abort threshold; the graph assumption fails well before slopes this steep
MAX_SLOPE = 100.0


@dataclass(frozen=True)
class SimConfig:
    """Simulation setup.

    grid : LineGrid (periodicity must match the backend)
    initial_family / initial_params : analytic initial front, see `fronts`
    backend : 'line_quadrature' or 'periodic_spectral'
    kernel : reference depth of the line-backend background audit (the
        tendency itself does not depend on it)
    dt : time step; None means the CFL step (periodic only; line grids have
        no spectral stability estimate here, so dt is required)
    t_end : horizon; the last step is shortened to land on it exactly
    output_stride : snapshot every this many steps (ends always included)
    galilean_form : assemble the tendency in the advective grouping
        (periodic_spectral only)
    cfl_safety : fraction of the linear stability step taken when dt is None
    audit_background : record max |background integral| per snapshot
        (line backend only; it is an identically-zero consistency integral)
    """

    grid: LineGrid
    t_end: float
    initial_family: str = "zero"
    initial_params: dict = field(default_factory=dict)
    backend: str = "line_quadrature"
    kernel: KernelParams = field(default_factory=KernelParams)
    dt: float | None = None
    output_stride: int = 1
    galilean_form: bool = False
    cfl_safety: float = 0.5
    audit_background: bool = False

    def __post_init__(self):
        if self.backend not in BACKENDS:
            raise ValueError(f"backend must be one of {BACKENDS}, got {self.backend!r}")
        if self.backend == "periodic_spectral" and not self.grid.periodic:
            raise ValueError("periodic_spectral backend needs a periodic grid")
        if self.backend == "line_quadrature" and self.grid.periodic:
            raise ValueError("line_quadrature backend needs a non-periodic grid")
        if self.galilean_form and self.backend != "periodic_spectral":
            raise ValueError("galilean_form=True needs backend='periodic_spectral' "
                             f"(the multiplier form of the linear term), got backend={self.backend!r}")
        if not (np.isfinite(self.t_end) and self.t_end > 0.0):
            raise ValueError(f"t_end must be positive, got {self.t_end}")
        if self.dt is not None:
            if not (np.isfinite(self.dt) and self.dt > 0.0):
                raise ValueError(f"dt must be positive, got {self.dt}")
            if self.t_end < self.dt:
                raise ValueError("t_end must be at least one step")
        if self.output_stride < 1:
            raise ValueError("output_stride must be >= 1")
        if not (np.isfinite(self.cfl_safety) and self.cfl_safety > 0.0):
            raise ValueError(f"cfl_safety must be positive, got {self.cfl_safety}")


@dataclass(frozen=True)
class Trajectory:
    """Snapshots plus per-snapshot diagnostics.

    aborted is True when the slope threshold tripped; the trajectory then
    holds everything up to and including the first offending state.
    """

    snapshots: tuple
    diagnostics: tuple
    aborted: bool = False

    def __post_init__(self):
        if not self.snapshots:
            raise ValueError("trajectory needs at least one snapshot")
        g = self.snapshots[0].grid
        times = [s.t for s in self.snapshots]
        if any(s.grid != g for s in self.snapshots):
            raise ValueError("trajectory snapshots must share one grid")
        if any(t1 <= t0 for t0, t1 in zip(times, times[1:])):
            raise ValueError("snapshot times must increase strictly")

    @property
    def final(self) -> FrontState:
        return self.snapshots[-1]


def initial_state(cfg: SimConfig) -> FrontState:
    phi, _ = front_profile(cfg.grid.x, cfg.initial_family, **cfg.initial_params)
    return make_state(cfg.grid, phi, t=0.0)


def _slope(state: FrontState, cfg: SimConfig, ws: SpectralWorkspace | None) -> np.ndarray:
    if cfg.backend == "periodic_spectral":
        return spectral_derivative(state, ws)
    return finite_difference_derivative(state)


def rhs(state: FrontState, cfg: SimConfig, ws: SpectralWorkspace | None = None) -> np.ndarray:
    """Front tendency phi_t at the grid nodes."""
    if state.grid.periodic != (cfg.backend == "periodic_spectral"):
        raise ValueError("state grid periodicity does not match cfg.backend")
    if cfg.backend == "periodic_spectral":
        ws = ws or build_workspace(state.grid)
        phix = spectral_derivative(state, ws)
        return (nonlinear_term(state, phix)
                + apply_linear_multiplier(state, ws)
                + TWO_GAMMA_MINUS_LOG4 * phix)
    phix = finite_difference_derivative(state)
    return nonlinear_term(state, phix) + linear_term_quadrature(state, phix)


def rhs_galilean_form(state: FrontState, cfg: SimConfig, ws: SpectralWorkspace | None = None) -> np.ndarray:
    """Tendency assembled in the advective grouping (periodic only).

    phi_t = 2 log|d/dx| phi_x - 2 (log 2 - gamma) phi_x - int (phi_x(x) -
    phi_x(x')) [1/|s| - 1/sqrt(s^2 + dphi^2)] dx'. Must agree with `rhs` to
    rounding; kept as a separate assembly so that check stays meaningful.
    """
    if cfg.backend != "periodic_spectral" or state.grid.periodic is False:
        raise ValueError("rhs_galilean_form needs the periodic_spectral backend "
                         "(the multiplier form of the linear term)")
    ws = ws or build_workspace(state.grid)
    g = state.grid
    phi = state.phi
    phix = spectral_derivative(state, ws)

    sep = _by_offset(_separation(g), g.n)

    def opposing_kernel(i0, i1):
        return kernel_difference(sep[i0:i1], np.subtract.outer(phi[i0:i1], phi))

    opposing = _pair_sum(opposing_kernel, g.n, phix) * g.dx

    # same diagonal-kink treatment as the forward grouping, sign folded
    opposing -= _diagonal_jump_correction("contrast", phix, g.dx, periodic=True)

    return (apply_linear_multiplier(state, ws)
            + TWO_GAMMA_MINUS_LOG4 * phix
            - opposing)


def cfl_timestep(grid: LineGrid, safety: float = 0.5) -> float:
    """Stable RK4 step for the linear part on a periodic grid.

    dt = safety / max |2 xi (log|xi| + gamma - log 2)| over the grid modes.
    """
    if not grid.periodic:
        raise ValueError("cfl_timestep applies to the periodic backend only")
    if not (np.isfinite(safety) and safety > 0.0):
        raise ValueError(f"safety must be positive, got {safety}")
    ws = build_workspace(grid)
    lam = 2.0 * ws.xi * np.log(np.abs(ws.xi), out=np.zeros_like(ws.xi), where=ws.xi != 0.0)
    lam = lam + TWO_GAMMA_MINUS_LOG4 * ws.xi
    peak = float(np.max(np.abs(lam)))
    if peak == 0.0:
        raise ValueError("grid has no active modes")
    return safety / peak


def step_rk4(state: FrontState, dt: float, cfg: SimConfig, ws: SpectralWorkspace | None = None) -> FrontState:
    """One classical Runge-Kutta step of the chosen tendency."""
    if dt <= 0.0 or not np.isfinite(dt):
        raise ValueError(f"dt must be positive, got {dt}")
    f = rhs_galilean_form if cfg.galilean_form else rhs
    if cfg.backend == "periodic_spectral" and ws is None:
        ws = build_workspace(state.grid)
    phi, t = state.phi, state.t
    k1 = f(state, cfg, ws)
    k2 = f(state.with_phi(phi + 0.5 * dt * k1, t + 0.5 * dt), cfg, ws)
    k3 = f(state.with_phi(phi + 0.5 * dt * k2, t + 0.5 * dt), cfg, ws)
    k4 = f(state.with_phi(phi + dt * k3, t + dt), cfg, ws)
    new_phi = phi + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    if not np.all(np.isfinite(new_phi)):
        raise RuntimeError(f"non-finite front after step at t = {t}; "
                           f"max |phi| before = {float(np.max(np.abs(phi)))}")
    return state.with_phi(new_phi, t + dt)


def _diagnose(state: FrontState, cfg: SimConfig, ws) -> dict:
    phix = _slope(state, cfg, ws)
    rec = {
        "t": state.t,
        "mean": float(np.mean(state.phi)),
        "l2": float(np.sqrt(np.sum(state.phi**2) * state.grid.dx)),
        "max_slope": float(np.max(np.abs(phix))),
    }
    if cfg.backend == "line_quadrature":
        # the line tails assume a front flat beyond the middle half
        rec["support_defect"] = support_defect(state)
        rec["edge_asymmetry"] = abs(float(state.phi[0]) - float(state.phi[-1]))
        if cfg.audit_background:
            rec["max_background"] = float(np.max(np.abs(background_term(state, phix, cfg.kernel))))
    return rec


def integrate(cfg: SimConfig, state: FrontState | None = None) -> Trajectory:
    """Run the front to t_end; deterministic for a fixed config.

    A slope beyond the graph-assumption threshold stops the run cleanly and
    returns the partial trajectory with aborted=True.
    """
    if state is None:
        state = initial_state(cfg)
    elif state.grid != cfg.grid:
        raise ValueError("state grid does not match cfg.grid")

    ws = build_workspace(cfg.grid) if cfg.backend == "periodic_spectral" else None
    if cfg.dt is not None:
        dt = cfg.dt
        if cfg.backend == "periodic_spectral":
            cap = cfl_timestep(cfg.grid, safety=1.0)
            if dt > cap:
                raise ValueError(f"dt = {dt} exceeds the linear stability step {cap:.3e}")
    else:
        if cfg.backend != "periodic_spectral":
            raise ValueError("line_quadrature has no automatic step size; set cfg.dt")
        dt = cfl_timestep(cfg.grid, safety=cfg.cfl_safety)

    n_steps = max(1, int(math.ceil(cfg.t_end / dt - 1e-9)))
    snapshots = [state]
    diagnostics = [_diagnose(state, cfg, ws)]
    aborted = False
    for k in range(n_steps):
        step = min(dt, cfg.t_end - k * dt)
        if step <= 0.0:
            break
        state = step_rk4(state, step, cfg, ws)
        if float(np.max(np.abs(_slope(state, cfg, ws)))) > MAX_SLOPE:
            aborted = True
            snapshots.append(state)
            diagnostics.append(_diagnose(state, cfg, ws))
            break
        if (k + 1) % cfg.output_stride == 0 or k == n_steps - 1:
            snapshots.append(state)
            diagnostics.append(_diagnose(state, cfg, ws))
    return Trajectory(snapshots=tuple(snapshots), diagnostics=tuple(diagnostics), aborted=aborted)


def scaling_galilean_check(cfg: SimConfig, k: float) -> float:
    """Sup-norm defect of the scaling-Galilean symmetry at the horizon.

    Evolves the configured front to t_end/k, evolves the k-rescaled front
    (amplitude and x both scaled by k, on the rescaled grid) to t_end, and
    compares the second against the first mapped through
    psi(x, t) = k phi((x - 2 t log k) / k, t / k), interpolating in x.
    k = 1 returns 0 exactly.
    """
    if not (np.isfinite(k) and k > 0.0):
        raise ValueError(f"k must be positive, got {k}")
    g = cfg.grid

    grid_b = LineGrid(x_min=g.x_min * k, n=g.n, dx=g.dx * k, periodic=g.periodic)
    base_phi, _ = front_profile(g.x, cfg.initial_family, **cfg.initial_params)
    state_a = make_state(g, base_phi, t=0.0)
    phi_b0 = k * np.interp(grid_b.x / k, g.x, base_phi)  # = k * phi0(x/k) on the scaled nodes
    state_b = make_state(grid_b, phi_b0, t=0.0)

    if cfg.dt is not None:
        dt_a = cfg.dt
    elif cfg.backend == "periodic_spectral":
        # on a coarse grid the CFL step can exceed the horizon; each run still
        # takes at least one step
        dt_a = min(cfl_timestep(g, cfg.cfl_safety), cfl_timestep(grid_b, cfg.cfl_safety) / k, cfg.t_end / k)
    else:
        raise ValueError("line_quadrature has no automatic step size; set cfg.dt")

    cfg_a = replace(cfg, t_end=cfg.t_end / k, dt=dt_a)
    # min: (t_end / k) * k can round one ulp above t_end
    cfg_b = replace(cfg, grid=grid_b, t_end=cfg.t_end, dt=min(dt_a * k, cfg.t_end))
    traj_a = integrate(cfg_a, state_a)
    traj_b = integrate(cfg_b, state_b)
    if traj_a.aborted or traj_b.aborted:
        raise RuntimeError("scaling check aborted on slope threshold; shorten the horizon")

    final_a = traj_a.final
    final_b = traj_b.final
    t_b = final_b.t
    arg = (grid_b.x - 2.0 * t_b * math.log(k)) / k

    if g.periodic:
        xs = np.concatenate([g.x, [g.x_min + g.length]])
        ys = np.concatenate([final_a.phi, [final_a.phi[0]]])
        spline = CubicSpline(xs, ys, bc_type="periodic")
        arg = g.x_min + np.mod(arg - g.x_min, g.length)
        mapped = k * spline(arg)
    else:
        inside = (arg >= g.x[0]) & (arg <= g.x[-1])
        c_a = far_field_value(final_a)
        amp = float(np.max(np.abs(final_b.phi - k * c_a)))
        if np.any(~inside & (np.abs(final_b.phi - k * c_a) > 1e-8 * max(amp, 1.0))):
            raise ValueError("transformed front leaves the resolved domain; widen the grid")
        spline = CubicSpline(g.x, final_a.phi)
        mapped = np.where(inside, k * spline(np.clip(arg, g.x[0], g.x[-1])), k * c_a)

    return float(np.max(np.abs(final_b.phi - mapped)))
