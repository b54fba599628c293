"""Front evolution: tendency assembly, time stepping, symmetry checks.

The tendency is the sum of the nonlinear self-interaction integral and a
linear nonlocal term. Two backends:

  line_quadrature : both pieces by physical-space quadrature on a flat-tailed
      line grid (see `quadrature`).
  periodic_spectral : nonlinear piece by minimum-image quadrature over half a
      period, linear piece by the Fourier multiplier 2 i xi log|xi| plus the
      constant advection 2 (gamma - log 2) phi_x.
The grid's periodicity picks the backend. Every op takes phi_x from the state
(`FrontState.slope`: spectral on a periodic grid, the 4th-order stencil on the
line), which computes it once.

`rhs_galilean_form` reassembles the same tendency in its advective grouping
(multiplier minus advection minus the kernel-contrast integral with its sign
flipped); the two groupings are algebraically identical and their numerical
agreement is a standing verification target; only `rhs` is stepped.

Time stepping is one fourth-order Runge-Kutta in Lawson's integrating-factor
form (Cox & Matthews 2002, Kassam & Trefethen 2005): the stepped variable v
is advanced by the exact propagator exp(lambda dt), and RK4 runs on the
remainder, the transform of the stage tendency `rhs` minus lambda v. On a
periodic grid v = rfft(phi) and lambda is the grid's linear symbol
2 i xi (log|xi| + gamma - log 2), so the stiff dispersion sets no step and
the automatic step is set by the remainder's rate at the start state (see
`cfl_timestep`). On the line v = phi and lambda = 0, where Lawson's stages
are classical RK4's, at a step the caller sets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np
from scipy.interpolate import CubicSpline

from .fronts import front_profile
from .grid import (
    TWO_GAMMA_MINUS_LOG4,
    FrontState,
    LineGrid,
    apply_linear_multiplier,
    make_state,
    support_defect,
    validate_line_support,
)
from .quadrature import (
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
    backend : 'line_quadrature' or 'periodic_spectral'; None (the default)
        takes the one the grid allows, periodic_spectral on a periodic grid
    dt : time step; None means the automatic step of `cfl_timestep`
        (periodic only; line grids have no spectral stability estimate here,
        so dt is required). A periodic dt above the stability step of the
        start state is refused.
    t_end : horizon; the last step is shortened to land on it exactly
    output_stride : snapshot every this many steps (ends always included)
    cfl_safety : scales the automatic step of `cfl_timestep` when dt is None
    audit_background : record max |background integral| per snapshot, at
        the adaptive reference depth (line backend only; it is an
        identically-zero consistency integral)
    """

    grid: LineGrid
    t_end: float
    initial_family: str = "zero"
    initial_params: dict = field(default_factory=dict)
    backend: str | None = None
    dt: float | None = None
    output_stride: int = 1
    cfl_safety: float = 0.5
    audit_background: bool = False

    def __post_init__(self):
        if self.backend is None:
            object.__setattr__(self, "backend", "periodic_spectral" if self.grid.periodic else "line_quadrature")
        if self.backend not in BACKENDS:
            raise ValueError(f"backend must be one of {BACKENDS}, got {self.backend!r}")
        if self.backend == "periodic_spectral" and not self.grid.periodic:
            raise ValueError("periodic_spectral backend needs a periodic grid")
        if self.backend == "line_quadrature" and self.grid.periodic:
            raise ValueError("line_quadrature backend needs a non-periodic grid")
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
    holds everything up to and including the first offending state. dt is
    the step the run took (the last one may be shorter, to land on t_end),
    and steps the number of steps it took.
    """

    snapshots: tuple
    diagnostics: tuple
    aborted: bool = False
    dt: float | None = None
    steps: int = 0

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


def rhs(state: FrontState, cfg: SimConfig) -> np.ndarray:
    """Front tendency phi_t at the grid nodes."""
    if state.grid.periodic != cfg.grid.periodic:
        raise ValueError("state grid periodicity does not match cfg.backend")
    phix = state.slope
    if state.grid.periodic:
        return (nonlinear_term(state, phix)
                + apply_linear_multiplier(state)
                + TWO_GAMMA_MINUS_LOG4 * phix)
    return nonlinear_term(state, phix) + linear_term_quadrature(state, phix)


def rhs_galilean_form(state: FrontState, cfg: SimConfig) -> np.ndarray:
    """Tendency assembled in the advective grouping (periodic only).

    phi_t = 2 log|d/dx| phi_x - 2 (log 2 - gamma) phi_x - int (phi_x(x) -
    phi_x(x')) [1/|s| - 1/sqrt(s^2 + dphi^2)] dx'. Must agree with `rhs` to
    rounding; kept as a separate assembly so that check stays meaningful.
    """
    if not (cfg.grid.periodic and state.grid.periodic):
        raise ValueError("rhs_galilean_form needs the periodic_spectral backend "
                         "(the multiplier form of the linear term)")
    g = state.grid
    phi = state.phi
    phix = state.slope

    sep = _by_offset(_separation(g), g.n)

    def opposing_kernel(i0, i1):
        return kernel_difference(sep[i0:i1], np.subtract.outer(phi[i0:i1], phi))

    opposing = _pair_sum(opposing_kernel, g.n, phix) * g.dx

    # same diagonal-kink treatment as the forward grouping, sign folded
    opposing -= _diagonal_jump_correction("contrast", phix, g.dx, periodic=True)

    return (apply_linear_multiplier(state)
            + TWO_GAMMA_MINUS_LOG4 * phix
            - opposing)


# the share f from which the automatic step is the linear one (see cfl_timestep)
_REMAINDER_SHARE = 0.3


def _remainder_rates(state: FrontState) -> tuple[float, float]:
    """(Lambda, f): the peak |lambda| over the grid modes, and the share
    f = 1 - 1/sqrt(1 + S^2) of it that the nonlinear remainder reaches at the
    state's peak slope S."""
    slope = float(np.max(np.abs(state.slope)))
    root = math.sqrt(1.0 + slope * slope)
    return float(np.max(np.abs(state.grid.spectral.rate))), slope * slope / (root * (root + 1.0))


def cfl_timestep(state: FrontState, cfg: SimConfig) -> float:
    """Automatic integrating-factor RK4 step from the start state (periodic only).

    exp(lambda dt) removes the linear stiffness, so the step is set by the
    nonlinear remainder. Near slope S the front's dispersion is the linear
    one scaled by 1/sqrt(1 + S^2), so the remainder's rate is about Lambda f,
    with Lambda = max |lambda| and f = 1 - 1/sqrt(1 + S^2), S = max |phi_x|:

        dt = cfl_safety / (Lambda * min(1, f / 0.3)),  capped at t_end.

    The 0.3 comes from measurement: on gaussian fronts of amplitude 0.1 to
    0.5 at n = 256 to 1024 this step kept the error against a converged
    integrating-factor run (200 to 800 steps) at or below 1e-7. Criterion
    08's setup at cfl_safety = 1 takes 13 steps to t = 0.5 with an error of
    2.4e-8, where the linear step took 259. From S = 1.02 on, f >= 0.3 and
    this is the linear stability step 1 / Lambda. A flat front takes one
    exact step.
    """
    if not (cfg.grid.periodic and state.grid.periodic):
        raise ValueError("cfl_timestep applies to the periodic backend only")
    peak, share = _remainder_rates(state)
    rate = peak * min(1.0, share / _REMAINDER_SHARE)
    return cfg.t_end if rate * cfg.t_end <= cfg.cfl_safety else cfg.cfl_safety / rate


def _stability_step(state: FrontState) -> float:
    """Largest integrating-factor RK4 step the start state can take: RK4's
    imaginary-axis interval 2 sqrt 2 over the remainder's rate Lambda f."""
    peak, share = _remainder_rates(state)
    return math.inf if share == 0.0 else 2.0 * math.sqrt(2.0) / (peak * share)


def step_rk4(state: FrontState, dt: float, cfg: SimConfig) -> FrontState:
    """One Lawson-form RK4 step of the tendency `rhs`, see the module docstring."""
    if dt <= 0.0 or not np.isfinite(dt):
        raise ValueError(f"dt must be positive, got {dt}")
    g, t = state.grid, state.t
    if g.periodic:
        lam = g.spectral.rate
        forward, back = np.fft.rfft, partial(np.fft.irfft, n=g.n)
    else:
        lam = 0.0
        forward = back = np.asarray
    half = np.exp(0.5 * dt * lam)
    full = half * half

    def remainder(v, time, stage=None):
        if stage is None:
            stage = state.with_phi(back(v), time)
        return forward(rhs(stage, cfg)) - lam * v

    v = forward(state.phi)
    a = remainder(v, t, state)
    b = remainder(half * (v + 0.5 * dt * a), t + 0.5 * dt)
    c = remainder(half * v + 0.5 * dt * b, t + 0.5 * dt)
    d = remainder(full * v + dt * half * c, t + dt)
    new_phi = back(full * v + dt / 6.0 * (full * a + 2.0 * half * (b + c) + d))
    if not np.all(np.isfinite(new_phi)):
        raise RuntimeError(f"non-finite front after step at t = {t}; "
                           f"max |phi| before = {float(np.max(np.abs(state.phi)))}")
    return state.with_phi(new_phi, t + dt)


def _diagnose(state: FrontState, cfg: SimConfig) -> dict:
    phix = state.slope
    rec = {
        "t": state.t,
        "mean": float(np.mean(state.phi)),
        "l2": float(np.sqrt(np.sum(state.phi**2) * state.grid.dx)),
        "max_slope": float(np.max(np.abs(phix))),
    }
    if not state.grid.periodic:
        # the line tails assume a front flat beyond the middle half
        rec["support_defect"] = support_defect(state)
        rec["edge_asymmetry"] = abs(float(state.phi[0]) - float(state.phi[-1]))
        if cfg.audit_background:
            rec["max_background"] = float(np.max(np.abs(background_term(state, phix))))
    return rec


def integrate(cfg: SimConfig, state: FrontState | None = None) -> Trajectory:
    """Run the front to t_end; deterministic for a fixed config.

    Every step is dt but the last, which ends on t_end exactly. A slope
    beyond the graph-assumption threshold stops the run cleanly and returns
    the partial trajectory with aborted=True. A line start state must be flat
    outside the middle half of its grid (`validate_line_support`).
    """
    if state is None:
        state = initial_state(cfg)
    elif state.grid != cfg.grid:
        raise ValueError("state grid does not match cfg.grid")
    elif state.t != 0.0:
        raise ValueError(f"integrate starts at t = 0, got a state at t = {state.t}")
    periodic = cfg.grid.periodic
    if not periodic:
        validate_line_support(state)  # the precondition of the line tails

    if cfg.dt is not None:
        dt = cfg.dt
        if periodic:
            cap = _stability_step(state)
            if dt > cap:
                raise ValueError(f"dt = {dt} exceeds the stability step {cap:.3e} of the start state")
    else:
        if not periodic:
            raise ValueError("line_quadrature has no automatic step size; set cfg.dt")
        dt = cfl_timestep(state, cfg)

    n_steps = max(1, int(math.ceil(cfg.t_end / dt - 1e-9)))
    snapshots = [state]
    diagnostics = [_diagnose(state, cfg)]
    aborted = False
    steps = 0
    for k in range(n_steps):
        # the last step starts at or past (about) t_end / 2, so t_end - state.t
        # is exact (Sterbenz) and the t + step that step_rk4 forms is t_end
        step = cfg.t_end - state.t if k == n_steps - 1 else dt
        state = step_rk4(state, step, cfg)
        steps += 1
        if float(np.max(np.abs(state.slope))) > MAX_SLOPE:
            aborted = True
            snapshots.append(state)
            diagnostics.append(_diagnose(state, cfg))
            break
        if (k + 1) % cfg.output_stride == 0 or k == n_steps - 1:
            snapshots.append(state)
            diagnostics.append(_diagnose(state, cfg))
    return Trajectory(snapshots=tuple(snapshots), diagnostics=tuple(diagnostics), aborted=aborted,
                      dt=dt, steps=steps)


def scaling_galilean_check(cfg: SimConfig, k: float) -> float:
    """Sup-norm defect of the scaling-Galilean symmetry at the horizon.

    Evolves the configured front to t_end/k, evolves the k-rescaled front
    (amplitude and x both scaled by k, on the rescaled grid) to t_end, and
    compares the second against the first mapped through
    psi(x, t) = k phi((x - 2 t log k) / k, t / k), interpolating in x.
    k = 1 returns 0 exactly.

    Periodic backend only: a line front leaks out of the flat-tail window as
    it evolves, so the rescaled run cannot be mapped onto the resolved one.
    """
    if not (np.isfinite(k) and k > 0.0):
        raise ValueError(f"k must be positive, got {k}")
    if not cfg.grid.periodic:
        raise ValueError("scaling_galilean_check needs the periodic_spectral backend, got 'line_quadrature'")
    g = cfg.grid

    grid_b = LineGrid(x_min=g.x_min * k, n=g.n, dx=g.dx * k, periodic=g.periodic)
    base_phi, _ = front_profile(g.x, cfg.initial_family, **cfg.initial_params)
    state_a = make_state(g, base_phi, t=0.0)
    phi_b0 = k * np.interp(grid_b.x / k, g.x, base_phi)  # = k * phi0(x/k) on the scaled nodes
    state_b = make_state(grid_b, phi_b0, t=0.0)

    if cfg.dt is not None:
        dt_a = cfg.dt
    else:
        # each run takes at least one step
        dt_a = min(cfl_timestep(state_a, cfg), cfl_timestep(state_b, replace(cfg, grid=grid_b)) / k,
                   cfg.t_end / k)

    cfg_a = replace(cfg, t_end=cfg.t_end / k, dt=dt_a)
    # min: (t_end / k) * k can round one ulp above t_end
    cfg_b = replace(cfg, grid=grid_b, t_end=cfg.t_end, dt=min(dt_a * k, cfg.t_end))
    traj_a = integrate(cfg_a, state_a)
    traj_b = integrate(cfg_b, state_b)
    if traj_a.aborted or traj_b.aborted:
        raise RuntimeError("scaling check aborted on slope threshold; shorten the horizon")

    final_a = traj_a.final
    final_b = traj_b.final
    arg = (grid_b.x - 2.0 * final_b.t * math.log(k)) / k
    xs = np.concatenate([g.x, [g.x_min + g.length]])
    ys = np.concatenate([final_a.phi, [final_a.phi[0]]])
    spline = CubicSpline(xs, ys, bc_type="periodic")
    mapped = k * spline(g.x_min + np.mod(arg - g.x_min, g.length))
    return float(np.max(np.abs(final_b.phi - mapped)))
