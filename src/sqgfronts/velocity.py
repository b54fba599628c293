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

The shift holds the anchored reference's own integral, so in a point
sample the reference cancels exactly, and `velocity_at` evaluates

    u(x,y) = -int [ 1/sqrt((x-x')^2+(y-phi')^2) - 1/sqrt(x'^2+1) ] dx'
    v(x,y) = -int phi_x'(x') / sqrt((x-x')^2+(y-phi')^2) dx'

by trapezoid plus tails: u = -(trap(front - q) dx + E_probe(|y - phi_inf|)
- E(1)) and v = -(trap(rho * (front - q)) + q . (w rho)) dx, with
q = 1/sqrt(x'^2 + 1), w the trapezoid weights and E the end terms below.
q and E(1) depend on the grid alone and are built once per grid
(`quadrature._unit_reference`); the complex nodes x' + i phi', the weight
matrix [w, w rho] and q . (w rho) depend on the state alone and are kept
for the last state sampled (`_probe_tables`, cached under the state, which
hashes by identity), so a sample is five array operations over the nodes.
The field does not depend on h, so `velocity_at` takes the shift as an
optional argument it does not read.

Two independent routes to the front's normal velocity are kept deliberately
separate (their agreement is an acceptance check, not an assumption):

  * normal_velocity_background: decompose the temperature field into a flat
    background strip plus the front perturbation; the strip contributes the
    local factor -2 log(phi+h) phi_x. Its front sum is a dense symmetric
    pair sum; its strip row sums are the background audit's O(n m) ones.
  * normal_velocity_bmo: project the representative velocity on the upward
    normal, coupling the slope-contrast integral to the Galilean shift.
    Its anchored front sum runs on full rows.

All quadratures share the trapezoid + closed-form tails + Euler-Maclaurin
endpoint treatment of `quadrature`, with the tails and endpoint terms from its
`_end_term`. Line mode only: the anchored reference kernel has no periodic
analogue.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .fronts import _smoothstep
from .grid import FrontState, _integer, _real, far_field_value
from .quadrature import (
    KernelParams,
    _BLOCK_ELEMENTS,
    _by_offset,
    _end_term,
    _end_term_at,
    _front_kernel,
    _height_factors,
    _line_tables,
    _pair_sum,
    _separation,
    _strip_row_sums,
    _trapezoid_weights,
    _unit_front_kernel,
    _unit_reference,
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
    h = resolve_depth(state, params)
    g = state.grid
    x, dx = g.x, g.dx
    rho = state.slope
    c_inf = far_field_value(state)
    d = h + c_inf  # > 0: phi_inf, the mean of two samples, is >= min(phi)

    q, e1 = _unit_reference(g)
    denom = np.hypot(x, h + state.phi)
    ubar = -(_trapezoid(q - 1.0 / denom) * dx + e1 - _end_term_at(float(x[-1]), -float(x[0]), d, dx))

    vbar = _trapezoid(rho / denom) * dx  # integrand vanishes at the ends
    return GalileanShift(ubar=ubar, vbar=vbar, h=h)


@lru_cache(maxsize=1)
def _probe_tables(state: FrontState) -> tuple:
    """What every `velocity_at` sample of `state` shares: the complex nodes
    z = x' + i phi', the unit reference q, the weight matrix W = [w, w rho]
    (w the trapezoid weights), q . (w rho), E(1), phi_inf, and the nodes x'
    and heights phi' as lists. Kept for the last state sampled; a state
    hashes by identity and never changes, so its tables never go stale."""
    g = state.grid
    x = g.x
    q, e1 = _unit_reference(g)
    w = _trapezoid_weights(g.n)
    w_rho = w * state.slope
    return (x + 1j * state.phi, q, np.column_stack((w, w_rho)), float(q @ w_rho), e1,
            far_field_value(state), x.tolist(), state.phi.tolist())


def _height_at(nodes: list, heights: list, c_inf: float, x: float) -> float:
    """np.interp(x, nodes, heights, c_inf, c_inf) on lists, with numpy's
    arithmetic and so its result bit for bit: the near-front refusal reads
    it on every sample, where np.interp's call overhead alone took about a
    fifth of the sample's time."""
    j = bisect.bisect_right(nodes, x) - 1
    if j < 0 or x > nodes[-1]:
        return c_inf
    if x == nodes[j]:
        return heights[j]
    slope = (heights[j + 1] - heights[j]) / (nodes[j + 1] - nodes[j])
    return slope * (x - nodes[j]) + heights[j]


def velocity_at(state: FrontState, x: float, y: float, shift: GalileanShift | None = None) -> VelocitySample:
    """Velocity sample at a point off the front.

    With the shift's anchored reference cancelled against its own integral
    in (ubar, vbar), the sample is

        u = -(trap(front - q) dx + E_probe(|y - phi_inf|) - E(1))
        v = -(trap(rho * (front - q)) + q . (w rho)) dx

    with front = 1/|x + iy - z'| at the nodes z' = x' + i phi', the unit
    reference q = 1/sqrt(x'^2 + 1), w the trapezoid weights, and E the tails
    plus end correction of the probe-centered front kernel and of q
    (`quadrature._end_term`). Both trapezoid sums come from one product of
    front - q with the weight matrix [w, w rho]; z', that matrix, q . (w rho),
    E(1) and phi_inf depend on the state alone and are kept for the last
    state sampled (`_probe_tables`). So `shift` is optional and not read (the
    field does not depend on the depth h); the argument stays for the
    callers that pass one.

    The probe may sit outside the grid window in x; tails use the flat
    continuation of the front. Raises if a coordinate is not a finite real
    number, the probe is within one grid spacing of the front graph, or it
    is so far out that its end terms overflow: about 9e307 from the window.
    """
    _require_line(state, "velocity_at")
    try:
        x, y = _real(x, "x"), _real(y, "y")
    except ValueError as e:
        raise ValueError(f"{e} (probe x = {x!r}, probe y = {y!r})") from None
    z, q, weights, q_rho, e1, c_inf, nodes, heights = _probe_tables(state)
    dx = state.grid.dx
    if abs(y - _height_at(nodes, heights, c_inf, x)) < dx:
        raise ValueError(f"probe ({x}, {y}) is within one spacing of the front; velocity is singular there")

    # five array operations a sample; the complex abs takes both differences
    # in one subtraction and their hypot in one pass, about half the cost of
    # sqrt((x - x')^2 + (y - phi')^2) in five passes
    kernel = abs(complex(x, y) - z)
    np.reciprocal(kernel, out=kernel)
    kernel -= q  # trap(front - q) stays one sum: split, it moved u by 2e-14
    t_u, t_v = (kernel @ weights).tolist()
    try:
        u = -(t_u * dx + _end_term_at(nodes[-1] - x, x - nodes[0], abs(y - c_inf), dx) - e1)
    except ValueError:  # math.log(0): an end distance overflowed, see _end_term_at
        u = math.nan
    if not math.isfinite(u):
        raise ValueError(f"probe ({x}, {y}) is too far from the front: its end terms overflow")
    v = -(t_v + q_rho) * dx
    return VelocitySample(x=x, y=y, u=u, v=v)


def normal_velocity_background(state: FrontState, params: KernelParams | None = None) -> np.ndarray:
    """Front normal velocity (graph form) via the background-strip route.

    Returns phi_t samples at the grid nodes: the slope-contrast integral
    against the front kernel, referenced to the strip kernel at the target's
    own height, minus the local strip term 2 log(phi+h) phi_x.

    The front sum is a dense symmetric pair sum; the strip row sums come
    from `quadrature._strip_row_sums`, as in the background audit.
    """
    _require_line(state, "normal_velocity_background")
    h = resolve_depth(state, params)
    g = state.grid
    phi = state.phi
    n, dx = g.n, g.dx
    rho = state.slope
    c_inf = far_field_value(state)
    c1 = phi + h
    d1 = phi - c_inf

    s2 = _by_offset(_separation(g) ** 2, n)
    rows, cols = _height_factors(phi)

    # front kernel against the slope contrast, minus rho(x) times the strip row
    # sum, whose node carries the smooth value 1/c1
    front = _pair_sum(lambda i0, i1: _front_kernel(rows[i0:i1], cols[:, i0:], s2[i0:i1, i0:]), g, rho,
                      _unit_front_kernel(rho), symmetric=True)
    strip = _strip_row_sums(g, c1) + _trapezoid_weights(n) / c1
    b = _line_tables(g)[0]
    star = front - rho * strip * dx + rho * (_end_term(*b, d1, dx) - _end_term(*b, c1, dx))
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
    h = resolve_depth(state, KernelParams(h=shift.h))
    rho = state.slope
    c_inf = far_field_value(state)
    d = h + c_inf
    d1 = phi - c_inf

    ref = 1.0 / np.hypot(x, h + phi)  # anchored kernel, per source node
    s2 = _by_offset(_separation(g) ** 2, n)
    rows, cols = _height_factors(phi)

    def anchored(i0, i1):
        k = _front_kernel(rows[i0:i1], cols, s2[i0:i1])
        k -= ref
        return k

    # the reference is smooth at x' = x: the kink is the front kernel's
    out = _pair_sum(anchored, g, rho, _unit_front_kernel(rho))
    # front kernel at the target's clamped end distances, reference at the anchor
    ends = _end_term(*_line_tables(g)[0], d1, dx) - _end_term(x[-1], -x[0], d, dx)
    return out + rho * ends + rho * shift.ubar - shift.vbar


# smoothing scale, in box cells, of the strip's step (sharp jumps ring); the
# step's transition spans _STEP_REACH scales either side of the jump
_SMOOTHING_CELLS = 2.0


@dataclass(frozen=True)
class BoxSpec:
    """Periodic box for the 2D transform cross-check.

    size : side length (the box is [-size/2, size/2)^2), a positive finite
        real number
    n : nodes per side
    probe_x, probe_y : probe coordinates, combined as a product; each is
        non-empty, every value is a finite real number in [-size/2, size/2),
        and every probe must sit away from the strip

    A bool, a string, None or a non-finite value is refused with a
    ValueError that names the field (`grid._real`); numpy scalars are taken.
    size is held as a float.
    """

    size: float
    n: int
    probe_x: tuple = (0.0, 3.0)
    probe_y: tuple = (-12.0, -8.0, -5.0, 5.0, 8.0, 12.0)

    def __post_init__(self):
        object.__setattr__(self, "size", _real(self.size, "box size", positive=True))
        object.__setattr__(self, "n", _integer(self.n, "box n"))
        if self.n < 16 or self.n % 2:
            raise ValueError(f"box n must be even and >= 16, got {self.n}")
        half = 0.5 * self.size
        for name in ("probe_x", "probe_y"):
            values = tuple(_real(value, name) for value in getattr(self, name))
            if not values:
                raise ValueError(f"{name} is empty: the check would compare no probe")
            for value in values:
                # a value outside the box would snap to an edge node unnoticed
                if not -half <= value < half:
                    raise ValueError(f"{name} = {value!r} is not a coordinate in the box [{-half}, {half})")


def _riesz_at_probes(flat: np.ndarray, band: np.ndarray, j0: int, d: float, rows, cols):
    """Perpendicular-Riesz velocity of a periodic field, at probe nodes only.

    The real n x n field theta (spacing d, rows along y) is given by rows:
    row j is the constant flat[j], plus band[j - j0] on the band rows
    j0 <= j < j0 + len(band), where flat is 0. Returns the (len(rows),
    len(cols)) arrays u = ifft2(-i ky/|k| theta_hat) and v = ifft2(i kx/|k|
    theta_hat) at the nodes (rows[q], cols[p]); the field itself is never
    formed. The transform is the real half-spectrum (kx >= 0); the zero mode
    and the Nyquist row and column are dropped, since an unpaired Nyquist
    mode would break the reality of the fields.

    The multipliers depend on the box alone, so along y each kx column is a
    periodic convolution of its row spectra b(kx, j), the x-rfft of row j:
    u takes sum_j b(kx, j) Gu(r - j) and v takes i kx sum_j b(kx, j) Gv(r - j)
    at probe row r, with the kernels

        Gu(D) = sum_ky ky/|k| sin(ky D d),   Gv(D) = sum_ky cos(ky D d)/|k|.

    One real FFT along ky of (1 + ky)/|k|, 0 at the zero mode and on the
    Nyquist row, gives both: its entry D, 0 <= D <= n/2, is Gv(D) - i Gu(D),
    and as Gv is even and Gu odd, an offset past n/2 reads entry n - D with
    Gu's sign flipped. So no y transform of the field is taken. A constant
    row has only the kx = 0 mode, n flat[j]: only the band rows are
    transformed along x and contracted, for every kx, at their offsets from
    the probe rows, and the kx = 0 column is contracted over every row as
    well. The kx columns run in blocks whose multiplier and gathered kernel
    each hold at most _BLOCK_ELEMENTS entries unless the block is one column
    (_BLOCK_ELEMENTS // n columns in the box check), so memory is O(n
    (len(band) + block)), not O(n^2). A column matrix with the Hermitian
    weights (1 at kx = 0, 2 otherwise) finishes the inverse along x.
    """
    n = flat.size
    half = n // 2
    dk = 2.0 * np.pi / (n * d)
    ky = dk * np.fft.ifftshift(np.arange(-half, half))
    kx = dk * np.arange(half)  # the Nyquist column is never carried
    kx2 = (kx * kx)[:, None]
    ky2 = ky * ky
    ky2[half] = np.inf  # 1/|k| = 0 drops the Nyquist row
    lift = 1.0 + ky
    rows = np.asarray(rows)
    p = rows.size

    def taps(sources):
        # where Gu, then Gv, of the offsets rows - sources sit in the real view
        # of a block's FFT (entry D holds Gv(D) at 2D and -Gu(D) at 2D + 1),
        # and the sign Gu takes there
        off = np.subtract.outer(rows, sources) % n
        near = off <= half
        at = 2 * np.where(near, off, n - off)
        return np.concatenate((at + 1, at)), np.where(near, -1.0, 1.0)

    nb = len(band)
    band_at, band_sign = taps(np.arange(j0, j0 + nb))
    # x-rfft of the band rows, by kx column, as (real, imag) pairs
    band_x = np.ascontiguousarray(np.fft.rfft(band).T).view(np.float64).reshape(half + 1, nb, 2)
    out = np.empty((half, 2 * p), dtype=complex)  # [u | v] of each kx column

    def columns(c0, c1):
        # a function, so each block's temporaries are freed before the next
        # block allocates its own, which then reuse that memory rather than
        # fault in fresh pages: the 2048^2 box took 20 ms with this body
        # inline in the loop, 16 ms as a function (2-core KVM guest)
        m = kx2[c0:c1] + ky2
        if c0 == 0:
            m[0, 0] = np.inf  # the zero mode
        np.sqrt(m, out=m)
        np.reciprocal(m, out=m)
        m *= lift
        g = np.fft.rfft(m).view(np.float64)
        kern = g[:, band_at]
        kern[:, :p] *= band_sign
        out[c0:c1] = np.matmul(kern, band_x[c0:c1]).view(complex)[..., 0]
        if c0 == 0:
            flat_at, flat_sign = taps(np.arange(n))
            out[0, :p] += (g[0, flat_at[:p]] * flat_sign) @ (n * flat)

    width = max(1, _BLOCK_ELEMENTS // max(n, 2 * p * nb))
    for c0 in range(0, half, width):
        columns(c0, min(half, c0 + width))
    out[:, p:] *= 1.0j * kx[:, None]

    # phases exp(2 pi i m j / n) at node offsets j, reduced exactly mod n
    col = np.exp(2.0j * np.pi * (np.multiply.outer(np.arange(half), np.asarray(cols)) % n / n))
    col[1:] *= 2.0
    fields = (out.T @ col).real / (n * n)
    return fields[:p], fields[p:]


# half-width, in smoothing scales, of the strip's step: it is exactly 0 or 1
# beyond it
_STEP_REACH = 4.0


def _step(t, sigma: float):
    """C-infinity step (fronts._smoothstep) of smoothing scale sigma: 0 for
    t <= -_STEP_REACH sigma, 1 for t >= _STEP_REACH sigma."""
    return _smoothstep(0.5 + t / (2.0 * _STEP_REACH * sigma))


def _strip_temperature(coords: np.ndarray, phi_cols: np.ndarray, h: float, sigma: float):
    """Smoothed strip field theta = -2pi step(y + h) step(phi - y), by rows.

    step is `_step`; rows are y = coords, columns carry the front heights
    phi_cols. Returns (flat, band, j0). The front step is evaluated only on
    the band rows j0 <= j < j0 + len(band), within _STEP_REACH scales of
    [min phi_cols, max phi_cols]: below the band the step is exactly 1,
    above it exactly 0. So every other row of theta is the constant flat[j]
    (flat is 0 on the band rows), band holds the band rows, and the field
    they make equals the one evaluated at every node bit for bit. The n x n
    field is never formed: memory is O(n len(band)).
    """
    reach = _STEP_REACH * sigma
    j0 = int(np.searchsorted(coords, np.min(phi_cols) - reach, side="left"))
    j1 = int(np.searchsorted(coords, np.max(phi_cols) + reach, side="right"))
    depth = -2.0 * np.pi * _step(coords + h, sigma)
    band = _step(np.subtract(phi_cols[None, :], coords[j0:j1, None]), sigma)
    band *= depth[j0:j1, None]
    depth[j0:] = 0.0
    return depth, band, j0


def _cubic_at(grid, values: np.ndarray, points: np.ndarray, outside: float) -> np.ndarray:
    """4-point cubic Lagrange interpolation of node values on the uniform
    grid at the points, `outside` beyond the first and last node."""
    x = grid.x
    u = (points - x[0]) / grid.dx
    i = np.clip(np.floor(u).astype(np.intp), 1, grid.n - 3)
    t = u - i
    tm, t1, t2 = t + 1.0, t - 1.0, t - 2.0
    inner = (tm * t1 * t2 * values[i] - tm * t * t2 * values[i + 1]) / 2.0
    outer = (tm * t * t1 * values[i + 2] - t * t1 * t2 * values[i - 1]) / 6.0
    return np.where((points >= x[0]) & (points <= x[-1]), inner + outer, outside)


def box_riesz_crosscheck(state: FrontState, box: BoxSpec, params: KernelParams | None = None) -> dict:
    """Velocity of the strip temperature field by 2D FFT vs line quadrature.

    Takes theta = -2pi on the strip between depth -h and the front graph on
    a periodic box, smoothed across both edges by `_step`, the front's
    height at each box column interpolated from the nodes by a 4-point cubic
    (the far-field height phi_inf outside the window). It applies the
    perpendicular-Riesz multiplier i k_perp/|k| on its real half-spectrum,
    with the zero mode and the Nyquist row and column dropped. The n x n
    field and its spectrum are never formed: theta is held as per-row
    constants plus the band rows the front crosses (_strip_temperature),
    and the fields are evaluated at the probe nodes only (_riesz_at_probes),
    which along y transforms the multiplier rather than the field and reads
    its kernels at the band rows' offsets from the probe rows, so memory is
    O(n band rows). u is compared against the quadrature
    velocity minus the flat-background profile 2 log|y+h|, v against the
    quadrature v, at probes away from the front. Returns a report dict with
    the sup mismatch.

    Periodic images contribute O(h*y/size^2) systematic error; doubling the
    box at fixed cell size halves it (better, in practice).
    """
    _require_line(state, "box_riesz_crosscheck")
    h = resolve_depth(state, params)
    phi_max = float(np.max(state.phi))
    if max(phi_max, h) > 0.4 * box.size / 2.0:
        raise ValueError("box too small: the strip comes within 10% of the boundary")

    n, size = box.n, box.size
    d = size / n
    coords = -0.5 * size + d * np.arange(n)
    sigma = _SMOOTHING_CELLS * d
    *_, c_inf, nodes, heights = _probe_tables(state)

    cols = [int(np.argmin(np.abs(coords - xp))) for xp in box.probe_x]
    rows = [int(np.argmin(np.abs(coords - yp))) for yp in box.probe_y]
    margin = 5.0 * sigma + 2.0 * d
    for ic in cols:
        phi_here = _height_at(nodes, heights, c_inf, float(coords[ic]))
        for jc in rows:
            yg = float(coords[jc])
            if not (yg > phi_here + margin or yg < -h - margin):
                raise ValueError(f"probe ({float(coords[ic])}, {yg}) is inside or too close to the strip")

    phi_cols = _cubic_at(state.grid, state.phi, coords, c_inf)
    u_box, v_box = _riesz_at_probes(*_strip_temperature(coords, phi_cols, h, sigma), d, rows, cols)

    mism_u = 0.0
    mism_v = 0.0
    for p, ic in enumerate(cols):
        xg = float(coords[ic])
        for q, jc in enumerate(rows):
            yg = float(coords[jc])
            sample = velocity_at(state, xg, yg)
            u_line = sample.u - 2.0 * np.log(abs(yg + h))
            mism_u = max(mism_u, abs(float(u_box[q, p]) - u_line))
            mism_v = max(mism_v, abs(float(v_box[q, p]) - sample.v))
    return {"sup": max(mism_u, mism_v), "u": mism_u, "v": mism_v, "probes": len(cols) * len(rows)}
