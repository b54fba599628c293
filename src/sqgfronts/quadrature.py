"""Singular quadrature for the front-evolution integrals.

The front tendency splits into a nonlinear self-interaction integral, a
linear nonlocal integral, and a background-consistency integral that
vanishes identically and is kept as a verification target:

    nonlinear_term:        int (rho(x)-rho(x')) * [1/sqrt(s^2+dphi^2) - 1/|s|] dx'
    linear_term_quadrature: int (rho(x)-rho(x'))/|s| - rho(x)/sqrt(s^2+1) dx'
    background_term:       rho(x) * { int 1/sqrt(x'^2+1) - 1/sqrt(s^2+(phi(x)+h)^2) dx'
                                      - 2 log(phi(x)+h) }  == 0

with s = x - x', dphi = phi(x) - phi(x'), rho = phi_x. The two pieces of
each integrand diverge separately and cancel in combination, so they are
always evaluated together inside one window.

Line-mode scheme, shared by every op here and in `velocity`:

  composite trapezoid over the in-window nodes
  + closed-form antiderivative tails beyond the window, using that the front
    is flat (phi = far-field constant, rho = 0) out there
  + the first Euler-Maclaurin endpoint correction dx^2/12 * [f'(A) - f'(B)],
    with f' evaluated on the known flat-front form at the window ends.

The correction lifts the scheme from O(dx^2) to O(dx^4); without it the
endpoint error of the slowly decaying kernels dominates everything else.

Diagonal rule: the nonlinear integrand has an odd jump at x' = x with
one-sided limits +(-) phi_xx (sqrt(1+phi_x^2)-1)/sqrt(1+phi_x^2) from the
right (left); the linear integrand jumps by -(+) phi_xx around the smooth
value -phi_x. The `analytic_limit` mode assigns the two-sided average (0 and
-phi_x respectively), which cancels the value jump exactly, and adds the
dx^2/12 Euler-Maclaurin term for the surviving one-sided derivative jump
(see _diagonal_jump_correction); together the scheme is O(dx^4).
`skip_point` zeroes the node, takes no jump term, and is kept as a coarser
cross-check.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.integrate import IntegrationWarning, quad

from .grid import FrontState, far_field_value, stencil_derivative

__all__ = [
    "KernelParams",
    "kernel_difference",
    "diagonal_limit_one_sided",
    "nonlinear_term",
    "linear_term_quadrature",
    "background_term",
    "scale_identity",
    "cosine_integral_constant",
    "resolve_depth",
]

_DIAGONAL_MODES = ("analytic_limit", "skip_point")


@dataclass(frozen=True)
class KernelParams:
    """Quadrature controls.

    Parameters
    ----------
    h : float or None
        Depth of the reference point below the undisturbed front. None means
        the adaptive default 1 + 2*max(0, -min phi), which keeps the
        reference strictly below the front.
    window : float or None
        Truncation radius for the physical-space window |x - x'| <= window.
        None (default, recommended) uses the whole grid; tails beyond the
        chosen window are added in closed form assuming a flat front there.
    diagonal_mode : str
        'analytic_limit' (two-sided average at the singular node) or
        'skip_point' (omit the node; lower-order cross-check).
    """

    h: float | None = None
    window: float | None = None
    diagonal_mode: str = "analytic_limit"

    def __post_init__(self):
        if self.h is not None and (not np.isfinite(self.h) or self.h <= 0.0):
            raise ValueError(f"h must be positive, got {self.h}")
        if self.window is not None and (not np.isfinite(self.window) or self.window <= 0.0):
            raise ValueError(f"window must be positive, got {self.window}")
        if self.diagonal_mode not in _DIAGONAL_MODES:
            raise ValueError(f"diagonal_mode must be one of {_DIAGONAL_MODES}, got {self.diagonal_mode!r}")


def resolve_depth(state: FrontState, params: KernelParams) -> float:
    """Reference depth h for this state; validates h + min(phi) > 0."""
    phi_min = float(np.min(state.phi))
    h = params.h if params.h is not None else 1.0 + 2.0 * max(0.0, -phi_min)
    if h + phi_min <= 0.0:
        raise ValueError(f"reference depth must satisfy h + min(phi) > 0, got h={h}, min(phi)={phi_min}")
    return float(h)


def kernel_difference(delta_x, delta_phi):
    """1/|dx| - 1/sqrt(dx^2 + dphi^2), the positive kernel contrast.

    Vectorized; delta_x must be nonzero (the x'=x node is handled by the
    diagonal rule of the calling op, not here).
    """
    delta_x = np.asarray(delta_x, dtype=np.float64)
    delta_phi = np.asarray(delta_phi, dtype=np.float64)
    if np.any(delta_x == 0.0):
        raise ValueError("kernel_difference is undefined at delta_x = 0")
    return 1.0 / np.abs(delta_x) - 1.0 / np.hypot(delta_x, delta_phi)


def diagonal_limit_one_sided(phi_x: float, phi_xx: float) -> float:
    """Nonlinear-integrand limit as x' -> x from the right.

    The left limit is the negative; the jump is odd, so the trapezoid node
    carries the average 0. Fixed against an eps-refinement oracle.
    """
    r = math.sqrt(1.0 + phi_x * phi_x)
    return phi_xx * (r - 1.0) / r


# ---------------------------------------------------------------------------
# shared line-mode machinery

def _band_limits(n: int, dx: float, window: float | None):
    """Per-row index band [jlo, jhi] for |x_i - x_j| <= window."""
    i = np.arange(n)
    if window is None:
        return np.zeros(n, dtype=np.intp), np.full(n, n - 1, dtype=np.intp)
    k = _band_half_width(dx, window)
    return np.maximum(0, i - k), np.minimum(n - 1, i + k)


def _band_half_width(dx: float, window: float | None) -> int | None:
    """Band half-width in nodes for the window; None means the whole grid."""
    return None if window is None else max(1, int(round(window / dx)))


def _log_w_plus_root(w, c):
    """log(w + sqrt(w^2 + c^2)), stable for w of either sign; needs c > 0."""
    w = np.asarray(w, dtype=np.float64)
    c = np.asarray(c, dtype=np.float64)
    root = np.hypot(w, c)
    with np.errstate(divide="ignore", invalid="ignore"):
        # both branches evaluate eagerly; each is only trusted on its own side
        plain = np.log(w + root)
        flipped = 2.0 * np.log(c) - np.log(root - w)
    return np.where(w >= 0.0, plain, flipped)


def _half_tail(w, c_num, c_den):
    """int_w^inf [1/sqrt(s^2+c_den^2) - 1/sqrt(s^2+c_num^2)] ds.

    Equals log((w+sqrt(w^2+c_num^2))/(w+sqrt(w^2+c_den^2))); written through
    the stable log helper so probes beyond the window (w < 0) stay accurate.
    Either c may be 0 as long as w > 0 on those rows.
    """
    w = np.asarray(w, dtype=np.float64)
    num = np.hypot(w, c_num)
    den = np.hypot(w, c_den)
    # plain form is fine for w >= 0 even with a zero c
    if np.all(w >= 0.0):
        return np.log((w + num) / (w + den))
    with np.errstate(divide="ignore", invalid="ignore"):
        plain = np.log((w + num) / (w + den))
    stable = _log_w_plus_root(w, c_num) - _log_w_plus_root(w, c_den)
    return np.where(w >= 0.0, plain, stable)


# kernel entries per row block (512 KiB): small enough for the in-place passes
# over a block to stay in a core's cache; 16 MB blocks ran the line-mode sums
# 1.5 to 5 times slower at n = 2048
_BLOCK_ELEMENTS = 65_536


def _by_offset(values: np.ndarray, n: int) -> np.ndarray:
    """Zero-copy (n, n) view with entry (i, j) = values[j - i + n - 1]."""
    return sliding_window_view(values, n)[::-1]


def _separation(grid) -> np.ndarray:
    """|x_i - x_j| by node offset, a length 2n-1 vector for `_by_offset`.

    The grid is uniform, so the separation depends on i - j only (on
    (i - j) mod n for the periodic minimum image). The zero offset holds 1,
    a finite placeholder for the singular diagonal that no sum reads.
    """
    n = grid.n
    offset = np.abs(np.arange(1 - n, n))
    if grid.periodic:
        offset = np.minimum(offset, n - offset)
    sep = offset * grid.dx
    sep[n - 1] = 1.0
    return sep


def _pair_sum(kernel_rows, n: int, rho=None, *, ends: bool = False, band: int | None = None,
              diag=None) -> np.ndarray:
    """Weighted kernel-contrast sums over node pairs, one BLAS product per row block.

    Returns, for every row i,

        sum_{j != i} w_ij (rho_i - rho_j) K_ij + w_ii diag_i

    evaluated as rho_i (K w)_i - (K (w rho))_i, so no rho-difference matrix is
    formed. With rho None it returns the plain row sums
    sum_{j != i} w_ij K_ij + w_ii diag_i.

    kernel_rows(i0, i1) returns rows i0:i1 of K as a fresh float array; the
    helper overwrites it and never reads its diagonal. The weights are
    w_ij = min(t(i - j), e_j): e_j is 1/2 at j = 0 and n-1 when `ends` (the
    trapezoid end weights) and 1 otherwise; t is 1 for |i - j| < band, 1/2 at
    |i - j| = band and 0 beyond (1 everywhere when band is None).
    """
    w = np.ones(n)
    if ends:
        w[0] = w[-1] = 0.5
    rhs = w if rho is None else np.column_stack((w, w * rho))
    taper = None
    if band is not None:
        offset = np.abs(np.arange(1 - n, n))
        taper = _by_offset(np.where(offset < band, 1.0, np.where(offset == band, 0.5, 0.0)), n)
    out = np.empty(n)
    size = max(1, _BLOCK_ELEMENTS // n)
    for i0 in range(0, n, size):
        i1 = min(n, i0 + size)
        kern = kernel_rows(i0, i1)
        rows = np.arange(i1 - i0)
        kern[rows, rows + i0] = 0.0
        if taper is not None:
            if ends:
                # a band edge on a grid end takes the end's half weight once
                kern[:, 1:-1] *= taper[i0:i1, 1:-1]
                kern[:, ::n - 1] *= taper[i0:i1, ::n - 1] > 0.0
            else:
                kern *= taper[i0:i1]
        sums = kern @ rhs
        out[i0:i1] = sums if rho is None else rho[i0:i1] * sums[:, 0] - sums[:, 1]
    if diag is not None:
        out += w * diag
    return out


def _slope_curvatures(phix: np.ndarray, dx: float, periodic: bool):
    """(phi_xx, phi_xxx) from the slope samples, 4th-order stencils."""
    rho1 = stencil_derivative(phix, dx, periodic)
    rho2 = stencil_derivative(rho1, dx, periodic)
    return rho1, rho2


def _diagonal_jump_correction(kind: str, phix, rho1, rho2, dx: float) -> np.ndarray:
    """Euler-Maclaurin term for the integrand's kink at x' = x.

    Trapezoid sums with the two-sided average at the singular node cancel the
    value jump but keep an O(dx^2) error dx^2/12 * (f'(0+) - f'(0-)). The
    one-sided derivative jumps, fixed against an eps-refinement oracle, are

        contrast kernel (1/sqrt(s^2+dphi^2) - 1/|s|) * drho:
            phi_xxx (1 - r^-1) + phi_x phi_xx^2 r^-3
        bare 1/|s| * drho (linear term):   -phi_xxx
        front kernel 1/sqrt(s^2+dphi^2) * drho (velocity routes):
            -phi_xxx r^-1 + phi_x phi_xx^2 r^-3

    with r = sqrt(1 + phi_x^2). The returned array is the + dx^2/12 * jump
    term to add to the assembled quadrature.
    """
    r2 = 1.0 + phix * phix
    r = np.sqrt(r2)
    curv = phix * rho1 * rho1 / (r2 * r)
    if kind == "contrast":
        jump = rho2 * (1.0 - 1.0 / r) + curv
    elif kind == "bare":
        jump = -rho2
    elif kind == "front":
        jump = -rho2 / r + curv
    else:
        raise ValueError(f"unknown kernel kind {kind!r}")
    return dx * dx / 12.0 * jump


def _check_periodic_window(state: FrontState, params: KernelParams):
    if params.window is not None:
        raise ValueError("periodic mode always truncates at half a period; leave window=None")


def _front_kernel(phi: np.ndarray, s2: np.ndarray, i0: int, i1: int) -> np.ndarray:
    """Rows i0:i1 of 1/sqrt(s^2 + dphi^2), built in place from the s^2 view."""
    k = np.subtract.outer(phi[i0:i1], phi)
    np.square(k, out=k)
    k += s2[i0:i1]
    np.sqrt(k, out=k)
    return np.reciprocal(k, out=k)


def _strip_kernel(c1: np.ndarray, s2: np.ndarray, i0: int, i1: int) -> np.ndarray:
    """Rows i0:i1 of 1/sqrt(s^2 + c1(x)^2), the strip kernel at each target's height."""
    k = np.add(s2[i0:i1], np.square(c1[i0:i1])[:, None])
    np.sqrt(k, out=k)
    return np.reciprocal(k, out=k)


# ---------------------------------------------------------------------------
# the three front-tendency integrals

def nonlinear_term(state: FrontState, phix: np.ndarray, params: KernelParams | None = None) -> np.ndarray:
    """Nonlinear self-interaction integral at every grid node.

    Cubic in the front amplitude for small fronts. Periodic grids use the
    minimum-image separation truncated at half a period; line grids add
    flat-front tails and the endpoint correction.

    The periodic truncation drops the far tail
    -(rho(x) - rho(x')) dphi^2 / (2|s|^3) beyond |s| = L/2, an O(1/L^2)
    error at fixed dx. Measured on a gaussian (amplitude 0.1, width 0.5) at
    dx = pi/32 against an L = 256 pi reference, it falls by a factor 4.0 to
    4.2 per doubling of L, from 1.3e-5 at L = 4 pi to 7.8e-7 at L = 16 pi.
    """
    params = params or KernelParams()
    g = state.grid
    x, phi = g.x, state.phi
    rho = np.asarray(phix, dtype=np.float64)
    n, dx = g.n, g.dx
    if g.periodic:
        _check_periodic_window(state, params)

    if params.diagonal_mode == "analytic_limit":
        rho1, rho2 = _slope_curvatures(rho, dx, g.periodic)
        diag_coda = _diagonal_jump_correction("contrast", rho, rho1, rho2, dx)
    else:
        diag_coda = 0.0  # skip_point stays the coarse cross-check

    sep = _separation(g)
    s2 = _by_offset(sep * sep, n)
    inv_s = _by_offset(1.0 / sep, n)

    def contrast(i0, i1):
        k = _front_kernel(phi, s2, i0, i1)
        k -= inv_s[i0:i1]
        return k

    # the diagonal carries the odd-jump average 0, as does skip_point
    if g.periodic:
        return _pair_sum(contrast, n, rho) * dx + diag_coda

    out = _pair_sum(contrast, n, rho, ends=True, band=_band_half_width(dx, params.window)) * dx
    c_inf = far_field_value(state)
    d1 = phi - c_inf
    jlo, jhi = _band_limits(n, dx, params.window)
    b_r = np.maximum(x[jhi] - x, 0.5 * dx)
    b_l = np.maximum(x - x[jlo], 0.5 * dx)
    # tail integrand rho(x) * [1/sqrt(s^2+d1^2) - 1/|s|]
    tails = _half_tail(b_r, 0.0, d1) + _half_tail(b_l, 0.0, d1)
    # d/ds of the flat-front integrand at the band ends
    fp = (1.0 / b_r**2 - b_r / np.hypot(b_r, d1) ** 3) + (1.0 / b_l**2 - b_l / np.hypot(b_l, d1) ** 3)
    return out + rho * (tails - dx * dx / 12.0 * fp) + diag_coda


def linear_term_quadrature(state: FrontState, phix: np.ndarray, params: KernelParams | None = None) -> np.ndarray:
    """Linear nonlocal integral by physical-space quadrature (line mode).

    The reference kernel is recentered at the target (its integral over the
    line is shift invariant), so the integrand is a pure function of
    s = x' - x and the divergent pieces cancel inside one window. On a pure
    Fourier mode this reproduces the dispersive multiplier plus the constant
    advection 2*(gamma - log 2)*phi_x.
    """
    params = params or KernelParams()
    g = state.grid
    if g.periodic:
        raise ValueError("linear_term_quadrature is line-mode only; periodic grids use the spectral multiplier")
    x, n, dx = g.x, g.n, g.dx
    rho = np.asarray(phix, dtype=np.float64)
    if params.diagonal_mode == "analytic_limit":
        diag_ref = -1.0  # the node carries the smooth value -phi_x
        rho1, rho2 = _slope_curvatures(rho, dx, periodic=False)
        diag_coda = _diagonal_jump_correction("bare", rho, rho1, rho2, dx)
    else:
        diag_ref = None
        diag_coda = 0.0

    sep = _separation(g)
    inv_s = _by_offset(1.0 / sep, n)
    ref = _by_offset(-1.0 / np.hypot(sep, 1.0), n)
    band = _band_half_width(dx, params.window)
    # (rho(x) - rho(x'))/|s| plus rho(x) times the recentered reference row sum
    bare = _pair_sum(lambda i0, i1: inv_s[i0:i1].copy(), n, rho, ends=True, band=band)
    own = _pair_sum(lambda i0, i1: ref[i0:i1].copy(), n, ends=True, band=band, diag=diag_ref)
    out = (bare + rho * own) * dx

    jlo, jhi = _band_limits(n, dx, params.window)
    b_r = np.maximum(x[jhi] - x, 0.5 * dx)
    b_l = np.maximum(x - x[jlo], 0.5 * dx)
    tails = _half_tail(b_r, 1.0, 0.0) + _half_tail(b_l, 1.0, 0.0)
    fp = (1.0 / np.hypot(b_r, 1.0) ** 3 * b_r - 1.0 / b_r**2) + (b_l / np.hypot(b_l, 1.0) ** 3 - 1.0 / b_l**2)
    return out + rho * (tails - dx * dx / 12.0 * fp) + diag_coda


def background_term(state: FrontState, phix: np.ndarray, params: KernelParams | None = None) -> np.ndarray:
    """Background-consistency integral; identically zero in exact arithmetic.

    Exposed purely as a verification target: its numerical size measures the
    combined quadrature + tail error of the machinery all the other line-mode
    integrals share. Line mode only (the reference kernel is anchored at
    absolute coordinates).
    """
    params = params or KernelParams()
    g = state.grid
    if g.periodic:
        raise ValueError("background_term is line-mode only")
    h = resolve_depth(state, params)
    x, n, dx = g.x, g.n, g.dx
    rho = np.asarray(phix, dtype=np.float64)
    c1 = state.phi + h  # > 0 by resolve_depth
    q = 1.0 / np.hypot(x, 1.0)
    sep = _separation(g)
    s2 = _by_offset(sep * sep, n)

    def strip(i0, i1):
        k = _strip_kernel(c1, s2, i0, i1)
        return np.subtract(q, k, out=k)

    out = _pair_sum(strip, n, ends=True, band=_band_half_width(dx, params.window), diag=q - 1.0 / c1) * dx

    # tails of int [1/sqrt(x'^2+1) - 1/sqrt((x'-x)^2+c1^2)] dx' beyond the band
    jlo, jhi = _band_limits(n, dx, params.window)
    xa = x[jlo]
    xb = x[jhi]
    tail_r = _log_w_plus_root(xb - x, c1) - _log_w_plus_root(xb, 1.0)
    tail_l = _log_w_plus_root(xa, 1.0) - _log_w_plus_root(xa - x, c1) + 2.0 * np.log(c1)
    fp_b = -xb / np.hypot(xb, 1.0) ** 3 + (xb - x) / np.hypot(xb - x, c1) ** 3
    fp_a = -xa / np.hypot(xa, 1.0) ** 3 + (xa - x) / np.hypot(xa - x, c1) ** 3
    bracket = out + tail_r + tail_l - dx * dx / 12.0 * (fp_b - fp_a)
    return rho * (bracket - 2.0 * np.log(c1))


# ---------------------------------------------------------------------------
# scalar identities

def scale_identity(c: float, cutoff: float = 1.0e3) -> float:
    """int_0^inf [1/sqrt(s^2+1) - 1/sqrt(s^2+c^2)] ds, numerically.

    Adaptive quadrature to the cutoff plus an asymptotic tail; equals log|c|,
    which the verification suite checks rather than assumes.
    """
    c = abs(float(c))
    if c == 0.0 or not np.isfinite(c):
        raise ValueError("scale factor must be nonzero and finite")
    m = max(cutoff, 100.0 * c)
    body, _ = quad(lambda s: 1.0 / math.hypot(s, 1.0) - 1.0 / math.hypot(s, c), 0.0, m,
                   epsabs=1e-14, epsrel=1e-13, limit=400)
    c2 = c * c
    tail = (-(1.0 - c2) / (4.0 * m**2)
            + 3.0 * (1.0 - c2 * c2) / (32.0 * m**4)
            - 5.0 * (1.0 - c2 * c2 * c2) / (96.0 * m**6))
    return body + tail


def _cos_over_s_tail(m: float) -> float:
    # int_m^inf cos(s)/s ds by integration by parts; remainder O(720/m^7)
    sm, cm = math.sin(m), math.cos(m)
    return (-sm / m + cm / m**2 + 2.0 * sm / m**3
            - 6.0 * cm / m**4 - 24.0 * sm / m**5 + 120.0 * cm / m**6)


def cosine_integral_constant(inner: float = 350.0, cutoff: float = 1.0e6) -> float:
    """int_0^inf [(1-cos s)/s - 1/sqrt(s^2+1)] ds, numerically.

    Equals gamma - log 2 (~ -0.1159315157). Cycle-by-cycle adaptive
    quadrature to `inner`, closed-form monotone part and asymptotic
    oscillatory part from there to `cutoff`, analytic remainder beyond. The
    cutoff cancels to rounding, which the truncation-sweep test relies on.
    """
    if inner < 50.0:
        raise ValueError("inner cutoff too small for the asymptotic tail series")

    def integrand(s):
        if s == 0.0:
            return -1.0  # (1-cos)/s -> 0, -1/sqrt(0+1) = -1
        return (1.0 - math.cos(s)) / s - 1.0 / math.hypot(s, 1.0)

    cycles = int(math.ceil(inner / (2.0 * math.pi)))
    a = cycles * 2.0 * math.pi
    edges = 2.0 * math.pi * np.arange(cycles + 1)
    body = 0.0
    with warnings.catch_warnings():
        # the per-cycle tolerance is below what quad will certify; the
        # truncation-sweep test pins the actual accuracy
        warnings.simplefilter("ignore", IntegrationWarning)
        for lo, hi in zip(edges[:-1], edges[1:]):
            part, _ = quad(integrand, lo, hi, epsabs=1e-14, epsrel=1e-13, limit=100)
            body += part

    def monotone_part(s):
        # antiderivative of 1/s - 1/sqrt(s^2+1)
        return math.log(s) - math.log(s + math.hypot(s, 1.0))

    mid = (monotone_part(cutoff) - monotone_part(a)) - (_cos_over_s_tail(a) - _cos_over_s_tail(cutoff))
    far = (-math.log(2.0) - monotone_part(cutoff)) - _cos_over_s_tail(cutoff)
    return body + mid + far
