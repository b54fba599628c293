"""Velocity reconstruction around the front.

The representative velocity is a kernel-contrast integral along the front,
referenced to the fixed anchor point (0, -h) below the undisturbed level,
minus a spatially uniform Galilean shift chosen so that u approaches
2 log|y| and v approaches 0 far from the front:

    u(x,y) = -int [ 1/sqrt((x-x')^2+(y-phi')^2)
                  - 1/sqrt(x'^2+(h+phi')^2) ] dx'  - ubar
    v(x,y) = same integrand weighted by phi_x'(x')   - vbar

The reference kernel is centered on the anchor, not the probe; a
probe-centered reference would differ by a function of x and break the
far-field law off the symmetry axis.

    ubar = -int [ 1/sqrt(x'^2+1) - 1/sqrt(x'^2+(h+phi')^2) ] dx'
    vbar =  int phi_x'(x') / sqrt(x'^2+(h+phi')^2) dx'

Two independent routes to the front's normal velocity are kept deliberately
separate (their agreement is an acceptance check, not an assumption):

  * normal_velocity_background: decompose the temperature field into a flat
    background strip plus the front perturbation; the strip contributes the
    local factor -2 log(phi+h) phi_x.
  * normal_velocity_bmo: project the representative velocity on the upward
    normal, coupling the slope-contrast integral to the Galilean shift.

All quadratures share the trapezoid + closed-form tails + Euler-Maclaurin
endpoint treatment of `quadrature`. Line mode only: the anchored reference
kernel has no periodic analogue.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.interpolate import CubicSpline
from scipy.special import erf

from .grid import FrontState, far_field_value, finite_difference_derivative
from .quadrature import (
    KernelParams,
    _band_half_width,
    _band_limits,
    _by_offset,
    _diagonal_jump_correction,
    _front_kernel,
    _half_tail,
    _log_w_plus_root,
    _pair_sum,
    _separation,
    _slope_curvatures,
    _strip_kernel,
    resolve_depth,
)

__all__ = [
    "GalileanShift",
    "VelocitySample",
    "BoxSpec",
    "galilean_shift",
    "velocity_at",
    "normal_velocity_background",
    "normal_velocity_bmo",
    "box_riesz_crosscheck",
]


@dataclass(frozen=True)
class GalileanShift:
    """Uniform velocity removed so the far field is (2 log|y|, 0)."""

    ubar: float
    vbar: float
    h: float


@dataclass(frozen=True)
class VelocitySample:
    x: float
    y: float
    u: float
    v: float


def _require_line(state: FrontState, what: str):
    if state.grid.periodic:
        raise ValueError(f"{what} is line-mode only (anchored reference kernel)")


def _trap_weights(n: int) -> np.ndarray:
    w = np.ones(n)
    w[0] = w[-1] = 0.5
    return w


def galilean_shift(state: FrontState, params: KernelParams | None = None) -> GalileanShift:
    """Galilean constants for the current front shape."""
    _require_line(state, "galilean_shift")
    params = params or KernelParams()
    h = resolve_depth(state, params)
    g = state.grid
    x, dx = g.x, g.dx
    rho = finite_difference_derivative(state)
    c_inf = far_field_value(state)
    d = h + c_inf
    if d <= 0.0:
        raise ValueError(f"reference depth must stay below the far-field level, got h + phi_inf = {d}")
    w = _trap_weights(g.n)

    denom = np.hypot(x, h + state.phi)
    fu = 1.0 / np.hypot(x, 1.0) - 1.0 / denom
    a_end, b_end = x[0], x[-1]
    tails = _half_tail(np.array(b_end), d, 1.0) + _half_tail(np.array(-a_end), d, 1.0)
    gp = lambda t: -t / np.hypot(t, 1.0) ** 3 + t / np.hypot(t, d) ** 3
    corr = -dx * dx / 12.0 * (gp(b_end) - gp(a_end))
    ubar = -(float(np.sum(w * fu)) * dx + float(tails) + corr)

    vbar = float(np.sum(w * rho / denom)) * dx  # integrand vanishes at the ends
    return GalileanShift(ubar=ubar, vbar=vbar, h=h)


def velocity_at(state: FrontState, x: float, y: float, shift: GalileanShift) -> VelocitySample:
    """Velocity sample at a point off the front.

    The probe may sit outside the grid window in x; tails use the flat
    continuation of the front. Raises if the probe is within one grid
    spacing of the front graph.
    """
    _require_line(state, "velocity_at")
    g = state.grid
    xs, dx = g.x, g.dx
    phi = state.phi
    c_inf = far_field_value(state)
    phi_at_x = float(np.interp(x, xs, phi, left=c_inf, right=c_inf))
    if abs(y - phi_at_x) < dx:
        raise ValueError(f"probe ({x}, {y}) is within one spacing of the front; velocity is singular there")

    h = shift.h
    a = y - c_inf
    b = h + c_inf
    rho = finite_difference_derivative(state)
    w = _trap_weights(g.n)

    kernel = 1.0 / np.hypot(x - xs, y - phi) - 1.0 / np.hypot(xs, h + phi)
    w_r = xs[-1] - x
    w_l = x - xs[0]
    # probe-centered front tail paired with anchor-centered reference tail
    tails = (
        _log_w_plus_root(np.array(xs[-1]), b)
        - _log_w_plus_root(np.array(w_r), abs(a))
        + _log_w_plus_root(np.array(-xs[0]), b)
        - _log_w_plus_root(np.array(w_l), abs(a))
    )
    fp_b = -w_r / np.hypot(w_r, a) ** 3 + xs[-1] / np.hypot(xs[-1], b) ** 3
    fp_a = w_l / np.hypot(w_l, a) ** 3 + xs[0] / np.hypot(xs[0], b) ** 3
    corr = -dx * dx / 12.0 * (fp_b - fp_a)
    u = -(float(np.sum(w * kernel)) * dx + float(tails) + corr) - shift.ubar

    v = -float(np.sum(w * kernel * rho)) * dx - shift.vbar
    return VelocitySample(x=float(x), y=float(y), u=u, v=v)


def normal_velocity_background(state: FrontState, params: KernelParams | None = None) -> np.ndarray:
    """Front normal velocity (graph form) via the background-strip route.

    Returns phi_t samples at the grid nodes: the slope-contrast integral
    against the front kernel, referenced to the strip kernel at the target's
    own height, minus the local strip term 2 log(phi+h) phi_x.
    """
    _require_line(state, "normal_velocity_background")
    params = params or KernelParams()
    h = resolve_depth(state, params)
    g = state.grid
    x, phi = g.x, state.phi
    n, dx = g.n, g.dx
    rho = finite_difference_derivative(state)
    c_inf = far_field_value(state)
    c1 = phi + h
    d1 = phi - c_inf
    if params.diagonal_mode == "analytic_limit":
        diag_strip = -1.0 / c1  # the node carries the smooth value -phi_x / c1
        rho1, rho2 = _slope_curvatures(rho, dx, periodic=False)
        diag_coda = _diagonal_jump_correction("front", rho, rho1, rho2, dx)
    else:
        diag_strip = None
        diag_coda = 0.0

    sep = _separation(g)
    s2 = _by_offset(sep * sep, n)
    band = _band_half_width(dx, params.window)

    def strip(i0, i1):
        k = _strip_kernel(c1, s2, i0, i1)
        return np.negative(k, out=k)

    # front kernel against the slope contrast, minus rho(x) times the strip row sum
    front = _pair_sum(lambda i0, i1: _front_kernel(phi, s2, i0, i1), n, rho, ends=True, band=band)
    own = _pair_sum(strip, n, ends=True, band=band, diag=diag_strip)
    out = (front + rho * own) * dx

    jlo, jhi = _band_limits(n, dx, params.window)
    b_r = np.maximum(x[jhi] - x, 0.5 * dx)
    b_l = np.maximum(x - x[jlo], 0.5 * dx)
    tails = _half_tail(b_r, c1, d1) + _half_tail(b_l, c1, d1)
    gp = (b_r / np.hypot(b_r, c1) ** 3 - b_r / np.hypot(b_r, d1) ** 3) + (
        b_l / np.hypot(b_l, c1) ** 3 - b_l / np.hypot(b_l, d1) ** 3
    )
    star = out + rho * (tails - dx * dx / 12.0 * gp) + diag_coda
    return star - 2.0 * np.log(c1) * rho


def normal_velocity_bmo(state: FrontState, shift: GalileanShift, params: KernelParams | None = None) -> np.ndarray:
    """Front normal velocity (graph form) via the representative-velocity route.

    Returns phi_t = (slope-contrast integral against the anchored reference
    kernel) + phi_x * ubar - vbar.
    """
    _require_line(state, "normal_velocity_bmo")
    params = params or KernelParams()
    g = state.grid
    x, phi = g.x, state.phi
    n, dx = g.n, g.dx
    h = shift.h
    if h + float(np.min(phi)) <= 0.0:
        raise ValueError("shift depth does not stay below the front")
    rho = finite_difference_derivative(state)
    c_inf = far_field_value(state)
    d = h + c_inf
    d1 = phi - c_inf
    if params.diagonal_mode == "analytic_limit":
        rho1, rho2 = _slope_curvatures(rho, dx, periodic=False)
        diag_coda = _diagonal_jump_correction("front", rho, rho1, rho2, dx)
    else:
        diag_coda = 0.0

    ref = 1.0 / np.hypot(x, h + phi)  # anchored kernel, per source node
    s2 = _by_offset(_separation(g) ** 2, n)

    def anchored(i0, i1):
        k = _front_kernel(phi, s2, i0, i1)
        k -= ref
        return k

    # the diagonal's odd jump (+- phi_xx / sqrt(1+phi_x^2)) averages to 0
    out = _pair_sum(anchored, n, rho, ends=True, band=_band_half_width(dx, params.window)) * dx

    jlo, jhi = _band_limits(n, dx, params.window)
    b_r = np.maximum(x[jhi] - x, 0.5 * dx)
    b_l = np.maximum(x - x[jlo], 0.5 * dx)
    tail_r = _log_w_plus_root(x[jhi], d) - np.log(b_r + np.hypot(b_r, d1))
    tail_l = _log_w_plus_root(-x[jlo], d) - np.log(b_l + np.hypot(b_l, d1))
    xa, xb = x[jlo], x[jhi]
    # clamped separations; rho vanishes wherever the clamp engages
    gp_b = -b_r / np.hypot(b_r, d1) ** 3 + xb / np.hypot(xb, d) ** 3
    gp_a = b_l / np.hypot(b_l, d1) ** 3 + xa / np.hypot(xa, d) ** 3
    j_term = out + rho * (tail_r + tail_l - dx * dx / 12.0 * (gp_b - gp_a)) + diag_coda
    return j_term + rho * shift.ubar - shift.vbar


@dataclass(frozen=True)
class BoxSpec:
    """Periodic box for the 2D transform cross-check.

    size : side length (the box is [-size/2, size/2)^2)
    n : nodes per side
    smoothing_cells : half-width, in cells, of the erf smoothing of the
        temperature jump (2 per the numerical design; sharp jumps ring)
    probe_x, probe_y : probe coordinates, combined as a product; every probe
        must sit away from the strip
    """

    size: float
    n: int
    smoothing_cells: float = 2.0
    probe_x: tuple = (0.0, 3.0)
    probe_y: tuple = (-12.0, -8.0, -5.0, 5.0, 8.0, 12.0)

    def __post_init__(self):
        if not (np.isfinite(self.size) and self.size > 0.0):
            raise ValueError(f"box size must be positive, got {self.size}")
        if self.n < 16 or self.n % 2:
            raise ValueError(f"box n must be even and >= 16, got {self.n}")
        if not (np.isfinite(self.smoothing_cells) and self.smoothing_cells > 0.0):
            raise ValueError(f"smoothing_cells must be positive, got {self.smoothing_cells}")


def box_riesz_crosscheck(state: FrontState, box: BoxSpec, params: KernelParams | None = None) -> dict:
    """Velocity of the strip temperature field by 2D FFT vs line quadrature.

    Builds theta = -2pi on the strip between depth -h and the front graph on
    a periodic box, applies the perpendicular-Riesz multiplier i k_perp/|k|
    (zero mode dropped), and compares u against the quadrature velocity minus
    the flat-background profile 2 log|y+h|, v against the quadrature v, at
    probes away from the front. Returns a report dict with the sup mismatch.

    Periodic images contribute O(h*y/size^2) systematic error; doubling the
    box at fixed cell size halves it (better, in practice).
    """
    _require_line(state, "box_riesz_crosscheck")
    params = params or KernelParams()
    h = resolve_depth(state, params)
    phi_max = float(np.max(state.phi))
    if max(phi_max, h) > 0.4 * box.size / 2.0:
        raise ValueError("box too small: the strip comes within 10% of the boundary")

    n, size = box.n, box.size
    d = size / n
    coords = -0.5 * size + d * np.arange(n)

    spline = CubicSpline(state.grid.x, state.phi, extrapolate=False)
    phi_cols = spline(coords)
    c_inf = far_field_value(state)
    phi_cols = np.where(np.isnan(phi_cols), c_inf, phi_cols)

    sigma = box.smoothing_cells * d
    yy = coords[:, None]  # rows are y
    step = lambda t: 0.5 * (1.0 + erf(t / (np.sqrt(2.0) * sigma)))
    theta = -2.0 * np.pi * step(yy + h) * step(phi_cols[None, :] - yy)

    k1 = 2.0 * np.pi * np.fft.fftfreq(n, d=d)
    ky = k1[:, None]
    kx = k1[None, :]
    kmag = np.hypot(kx, ky)
    kmag[0, 0] = 1.0
    theta_hat = np.fft.fft2(theta)
    u_box = np.fft.ifft2(-1.0j * ky / kmag * theta_hat).real
    v_box = np.fft.ifft2(1.0j * kx / kmag * theta_hat).real

    shift = galilean_shift(state, params)
    mism_u = 0.0
    mism_v = 0.0
    count = 0
    margin = 5.0 * sigma + 2.0 * d
    for xp in box.probe_x:
        ic = int(np.argmin(np.abs(coords - xp)))
        xg = float(coords[ic])
        for yp in box.probe_y:
            jc = int(np.argmin(np.abs(coords - yp)))
            yg = float(coords[jc])
            phi_here = float(np.interp(xg, state.grid.x, state.phi, left=c_inf, right=c_inf))
            if not (yg > phi_here + margin or yg < -h - margin):
                raise ValueError(f"probe ({xg}, {yg}) is inside or too close to the strip")
            sample = velocity_at(state, xg, yg, shift)
            u_line = sample.u - 2.0 * np.log(abs(yg + h))
            v_line = sample.v
            mism_u = max(mism_u, abs(float(u_box[jc, ic]) - u_line))
            mism_v = max(mism_v, abs(float(v_box[jc, ic]) - v_line))
            count += 1
    return {"sup": max(mism_u, mism_v), "u": mism_u, "v": mism_v, "probes": count}
