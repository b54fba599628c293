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
endpoint treatment of `quadrature`, with the tails and endpoint terms from its
`_end_term`. Line mode only: the anchored reference kernel has no periodic
analogue.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.interpolate import CubicSpline
from scipy.special import erf

from .grid import FrontState, far_field_value, finite_difference_derivative
from .quadrature import (
    KernelParams,
    _by_offset,
    _diagonal_jump_correction,
    _end_distances,
    _end_term,
    _front_kernel,
    _pair_sum,
    _separation,
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


def _trapezoid(values: np.ndarray) -> float:
    """Unit-spacing trapezoid sum: the plain sum less half of each end value."""
    return float(values.sum()) - 0.5 * (float(values[0]) + float(values[-1]))


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

    denom = np.hypot(x, h + state.phi)
    fu = 1.0 / np.hypot(x, 1.0) - 1.0 / denom
    xa, xb = x[0], x[-1]
    ubar = -(_trapezoid(fu) * dx + float(_end_term(xb, -xa, 1.0, dx) - _end_term(xb, -xa, d, dx)))

    vbar = _trapezoid(rho / denom) * dx  # integrand vanishes at the ends
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

    # front kernel less the anchored reference; sqrt of squares, since np.hypot
    # costs about twice as much per node
    kernel = 1.0 / np.sqrt(np.square(x - xs) + np.square(y - phi))
    kernel -= 1.0 / np.sqrt(np.square(xs) + np.square(h + phi))
    xa, xb = float(xs[0]), float(xs[-1])
    # probe-centered front kernel and anchor-centered reference, in one call
    ends = _end_term(np.array([xb - x, xb]), np.array([x - xa, -xa]), np.array([abs(a), b]), dx)
    u = -(_trapezoid(kernel) * dx + float(ends[0] - ends[1])) - shift.ubar

    kernel *= rho
    v = -_trapezoid(kernel) * dx - shift.vbar
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
    phi = state.phi
    n, dx = g.n, g.dx
    rho = finite_difference_derivative(state)
    c_inf = far_field_value(state)
    c1 = phi + h
    d1 = phi - c_inf
    diag_coda = _diagonal_jump_correction("front", rho, dx, periodic=False)

    sep = _separation(g)
    s2 = _by_offset(sep * sep, n)

    def strip(i0, i1):
        k = _strip_kernel(c1, s2, i0, i1)
        return np.negative(k, out=k)

    # front kernel against the slope contrast, minus rho(x) times the strip row
    # sum; the strip's node carries the smooth value -phi_x / c1
    front = _pair_sum(lambda i0, i1: _front_kernel(phi[i0:i1], phi[i0:], s2[i0:i1, i0:]), n, rho,
                      ends=True, symmetric=True)
    own = _pair_sum(strip, n, ends=True, diag=-1.0 / c1)
    out = (front + rho * own) * dx
    b = _end_distances(g)
    star = out + rho * (_end_term(*b, d1, dx) - _end_term(*b, c1, dx)) + diag_coda
    return star - 2.0 * np.log(c1) * rho


def normal_velocity_bmo(state: FrontState, shift: GalileanShift, params: KernelParams | None = None) -> np.ndarray:
    """Front normal velocity (graph form) via the representative-velocity route.

    Returns phi_t = (slope-contrast integral against the anchored reference
    kernel) + phi_x * ubar - vbar. The depth comes from the shift; params is
    taken for the common signature of the kernel ops.
    """
    _require_line(state, "normal_velocity_bmo")
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
    diag_coda = _diagonal_jump_correction("front", rho, dx, periodic=False)

    ref = 1.0 / np.hypot(x, h + phi)  # anchored kernel, per source node
    s2 = _by_offset(_separation(g) ** 2, n)

    def anchored(i0, i1):
        k = _front_kernel(phi[i0:i1], phi, s2[i0:i1])
        k -= ref
        return k

    # the diagonal's odd jump (+- phi_xx / sqrt(1+phi_x^2)) averages to 0
    out = _pair_sum(anchored, n, rho, ends=True) * dx
    # front kernel at the target's clamped end distances, reference at the anchor
    ends = _end_term(*_end_distances(g), d1, dx) - _end_term(x[-1], -x[0], d, dx)
    j_term = out + rho * ends + diag_coda
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


def _riesz_at_probes(theta: np.ndarray, d: float, rows, cols):
    """Perpendicular-Riesz velocity of a periodic field, at probe nodes only.

    theta is a real n x n field of spacing d, rows along y. Returns the
    (len(rows), len(cols)) arrays u = ifft2(-i ky/|k| theta_hat) and
    v = ifft2(i kx/|k| theta_hat) at the nodes (rows[q], cols[p]). The
    transform is the real half-spectrum (kx >= 0); the zero mode and the
    Nyquist row and column are dropped, since an unpaired Nyquist mode would
    break the reality of the fields. The inverse is two small products: the
    half spectrum against a column matrix carrying the Hermitian weights
    (1 at kx = 0, 2 otherwise), then a row matrix against that.
    """
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

    # phases exp(2 pi i m j / n) at node offsets j, reduced exactly mod n
    phase = lambda m, j: np.exp(2.0j * np.pi * (np.multiply.outer(m, j) % n / n))
    col = phase(mx, np.asarray(cols))
    col[1:] *= 2.0
    part = spec @ np.hstack((col, 1.0j * kx[:, None] * col))
    p = len(cols)
    part[:, :p] *= -1.0j * ky[:, None]
    fields = (phase(np.asarray(rows), my) @ part).real / (n * n)
    return fields[:, :p], fields[:, p:]


# erf(t) is exactly +-1.0 in double precision for |t| >= 5.922
_ERF_SATURATES = 6.0


def _strip_temperature(coords: np.ndarray, phi_cols: np.ndarray, h: float, sigma: float) -> np.ndarray:
    """Smoothed strip field theta = -2pi step(y + h) step(phi - y) on the box.

    step(t) = (1 + erf(t / (sqrt2 sigma))) / 2; rows are y = coords, columns
    carry the front heights phi_cols. The front step is evaluated only on the
    rows within _ERF_SATURATES scales of [min phi_cols, max phi_cols]: below
    that band erf is exactly 1 and the step 1, above it exactly 0, so the
    field equals the one evaluated at every node bit for bit.
    """
    scale = np.sqrt(2.0) * sigma
    reach = _ERF_SATURATES * scale
    j0 = int(np.searchsorted(coords, np.min(phi_cols) - reach, side="left"))
    j1 = int(np.searchsorted(coords, np.max(phi_cols) + reach, side="right"))
    theta = np.empty((coords.size, phi_cols.size))
    theta[:j0] = 1.0
    theta[j1:] = 0.0
    band = theta[j0:j1]
    np.subtract(phi_cols[None, :], coords[j0:j1, None], out=band)
    band /= scale
    erf(band, out=band)
    band += 1.0
    band *= 0.5
    theta *= -2.0 * np.pi * (0.5 * (1.0 + erf((coords[:, None] + h) / scale)))
    return theta


def box_riesz_crosscheck(state: FrontState, box: BoxSpec, params: KernelParams | None = None) -> dict:
    """Velocity of the strip temperature field by 2D FFT vs line quadrature.

    Builds theta = -2pi on the strip between depth -h and the front graph on
    a periodic box and applies the perpendicular-Riesz multiplier
    i k_perp/|k| on its real half-spectrum, with the zero mode and the
    Nyquist row and column dropped. The fields are evaluated at the probe
    nodes only (see _riesz_at_probes). u is compared against the quadrature
    velocity minus the flat-background profile 2 log|y+h|, v against the
    quadrature v, at probes away from the front. Returns a report dict with
    the sup mismatch.

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
    sigma = box.smoothing_cells * d
    c_inf = far_field_value(state)

    cols = [int(np.argmin(np.abs(coords - xp))) for xp in box.probe_x]
    rows = [int(np.argmin(np.abs(coords - yp))) for yp in box.probe_y]
    margin = 5.0 * sigma + 2.0 * d
    for ic in cols:
        phi_here = float(np.interp(coords[ic], state.grid.x, state.phi, left=c_inf, right=c_inf))
        for jc in rows:
            yg = float(coords[jc])
            if not (yg > phi_here + margin or yg < -h - margin):
                raise ValueError(f"probe ({float(coords[ic])}, {yg}) is inside or too close to the strip")

    spline = CubicSpline(state.grid.x, state.phi, extrapolate=False)
    phi_cols = spline(coords)
    phi_cols = np.where(np.isnan(phi_cols), c_inf, phi_cols)

    theta = _strip_temperature(coords, phi_cols, h, sigma)
    u_box, v_box = _riesz_at_probes(theta, d, rows, cols)

    shift = galilean_shift(state, params)
    mism_u = 0.0
    mism_v = 0.0
    for p, ic in enumerate(cols):
        xg = float(coords[ic])
        for q, jc in enumerate(rows):
            yg = float(coords[jc])
            sample = velocity_at(state, xg, yg, shift)
            u_line = sample.u - 2.0 * np.log(abs(yg + h))
            mism_u = max(mism_u, abs(float(u_box[q, p]) - u_line))
            mism_v = max(mism_v, abs(float(v_box[q, p]) - sample.v))
    return {"sup": max(mism_u, mism_v), "u": mism_u, "v": mism_v, "probes": len(cols) * len(rows)}
