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
always evaluated together over the whole grid window.

Line-mode scheme, shared by every op here and in `velocity`:

  composite trapezoid over all grid nodes
  + closed-form antiderivative tails beyond the grid window [A, B], using
    that the front is flat (phi = far-field constant, rho = 0) out there
  + the first Euler-Maclaurin endpoint correction dx^2/12 * [f'(A) - f'(B)].

Beyond the window every integrand is then a combination of kernels
1/sqrt((x' - x0)^2 + c^2), and for one such kernel the tails plus the
correction are, up to a divergent constant that does not depend on c,

    T(w_r, w_l, c) = sum over w in (w_r, w_l) of
                     dx^2/12 * w / (w^2 + c^2)^(3/2) - log(w + sqrt(w^2 + c^2))

with w_r = B - x0 and w_l = x0 - A the distances to the window ends
(`_end_term`). Each op adds the signed difference of the T of its two
kernels, in which the constant cancels. The correction lifts the scheme
from O(dx^2) to O(dx^4); without it the endpoint error of the slowly
decaying kernels dominates everything else.

Diagonal rule: the nonlinear integrand has an odd jump at x' = x with
one-sided limits +(-) phi_xx (sqrt(1+phi_x^2)-1)/sqrt(1+phi_x^2) from the
right (left); the linear integrand jumps by -(+) phi_xx around the smooth
value -phi_x. The singular node takes the two-sided average (0 and
-phi_x respectively), which cancels the value jump exactly, and adds the
dx^2/12 Euler-Maclaurin term for the surviving one-sided derivative jump
(see _diagonal_jump_correction); together the scheme is O(dx^4).

Every dense pair sum goes through `_pair_sum`. The front kernels
1/sqrt(s^2 + dphi^2) and its contrast with 1/|s| are symmetric in
(x, x'), so `nonlinear_term` and the front sum of
`velocity.normal_velocity_background` evaluate them on triangular row
blocks, each entry once. The strip kernels depend on the target's own
height and the anchored kernel of `velocity.normal_velocity_bmo` on the
source's, so they are not symmetric and stay on full rows; the advective
grouping `dynamics.rhs_galilean_form` stays on full rows as well, so that
its agreement with `rhs` also checks the triangular accumulation.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
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

@dataclass(frozen=True)
class KernelParams:
    """Quadrature controls: the reference depth.

    Parameters
    ----------
    h : float or None
        Depth of the reference point below the undisturbed front. None means
        the adaptive default 1 + 2*max(0, -min phi), which keeps the
        reference strictly below the front.
    """

    h: float | None = None

    def __post_init__(self):
        if self.h is not None and (not np.isfinite(self.h) or self.h <= 0.0):
            raise ValueError(f"h must be positive, got {self.h}")


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

def _log_w_plus_root(w, c):
    """log(w + sqrt(w^2 + c^2)), stable for w of either sign; needs c > 0
    where w < 0 (c = 0 with w > 0 gives log 2w)."""
    w = np.asarray(w, dtype=np.float64)
    big = np.abs(w) + np.hypot(w, c)
    # for w < 0, w + root = c^2 / (|w| + root), free of the cancellation
    return np.log(np.where(w >= 0.0, big, np.square(c) / big))


def _end_term(w_r, w_l, c, dx: float):
    """T(w_r, w_l, c) of the module docstring: tails plus end correction of
    the kernel 1/sqrt((x' - x0)^2 + c^2), less a constant independent of c.

    Precondition: the front is flat beyond the window. w_r = B - x0 and
    w_l = x0 - A share one shape, and c broadcasts against it; a w may be
    negative (a probe outside the window) only where c > 0.
    """
    w = np.array([w_r, w_l], dtype=np.float64)
    end = dx * dx / 12.0 * w / np.hypot(w, c) ** 3 - _log_w_plus_root(w, c)
    return end[0] + end[1]


def _end_distances(grid):
    """Distances b_r, b_l from every node to the right and left window ends,
    clamped at dx/2 so the end nodes keep a finite flat-front kernel."""
    x, half = grid.x, 0.5 * grid.dx
    return np.maximum(x[-1] - x, half), np.maximum(x - x[0], half)


# kernel entries per row block (512 KiB): small enough for the in-place passes
# over a block to stay in a core's cache; 16 MB blocks ran the line-mode sums
# 1.5 to 5 times slower at n = 2048
_BLOCK_ELEMENTS = 65_536


def _by_offset(values: np.ndarray, n: int) -> np.ndarray:
    """Zero-copy read-only (n, n) view with entry (i, j) = values[j - i + n - 1].

    values is a contiguous vector of length 2n - 1; rows step back one entry.
    """
    step = values.strides[0]
    view = np.ndarray((n, n), dtype=values.dtype, buffer=values,
                      offset=(n - 1) * step, strides=(-step, step))
    view.flags.writeable = False
    return view


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


def _pair_sum(kernel_rows, n: int, rho=None, *, ends: bool = False, diag=None,
              symmetric: bool = False) -> np.ndarray:
    """Weighted kernel-contrast sums over node pairs, BLAS products per row block.

    Returns, for every row i,

        sum_{j != i} w_j (rho_i - rho_j) K_ij + w_i diag_i

    evaluated as rho_i (K w)_i - (K (w rho))_i, so no rho-difference matrix is
    formed. With rho None it returns the plain row sums
    sum_{j != i} w_j K_ij + w_i diag_i.

    kernel_rows(i0, i1) returns rows i0:i1 of K as a fresh float array; the
    helper overwrites it and never reads its diagonal. The weight w_j is 1/2
    at j = 0 and n-1 when `ends` (the trapezoid end weights) and 1 otherwise.

    With `symmetric` (K_ij = K_ji) kernel_rows(i0, i1) returns only the
    columns i0:n of those rows, so each entry above the diagonal blocks is
    computed once: the block adds its product to rows i0:i1 and its
    transpose beyond the block, K[i0:i1, i1:]^T (w, w rho)[i0:i1], to rows
    i1:n. The front-kernel sums (`nonlinear_term`, the front part of
    `velocity.normal_velocity_background`) use it. Kernels that are not
    symmetric stay on full rows: the strip kernels, whose height is the
    target's, and the anchored kernel of `velocity.normal_velocity_bmo`,
    which subtracts a per-source reference. So does the advective grouping
    `dynamics.rhs_galilean_form`: with `normal_velocity_bmo` it is the
    full-row side of the standing checks on the triangular accumulation.
    """
    w = np.ones(n)
    if ends:
        w[0] = w[-1] = 0.5
    rhs = w if rho is None else np.column_stack((w, w * rho))
    acc = np.zeros(rhs.shape)
    size = max(1, _BLOCK_ELEMENTS // n)
    for i0 in range(0, n, size):
        i1 = min(n, i0 + size)
        j0 = i0 if symmetric else 0
        kern = kernel_rows(i0, i1)
        rows = np.arange(i1 - i0)
        kern[rows, rows + i0 - j0] = 0.0
        acc[i0:i1] += kern @ rhs[j0:]
        if symmetric:
            acc[i1:] += kern[:, i1 - i0:].T @ rhs[i0:i1]
    out = acc if rho is None else rho * acc[:, 0] - acc[:, 1]
    if diag is not None:
        out += w * diag
    return out


def _even_row_sum(kernel: np.ndarray, diag=None) -> np.ndarray:
    """O(n) form of `_pair_sum(..., ends=True, diag=diag)` with rho None,
    for an even Toeplitz kernel K_ij = kernel[|i - j|].

    kernel holds the n values by node offset 0..n-1; kernel[0] is not read.
    Row i runs over the i nodes to its left and the n - 1 - i to its right,
    the grid ends at weight 1/2. The sums come from one-sided prefix sums
    over the offsets, so no two large partial sums cancel.
    """
    n = kernel.size
    off = np.array(kernel, dtype=np.float64)
    off[0] = 0.0
    prefix = np.cumsum(off)  # prefix[m] = sum of kernel[1..m]
    half = 0.5 * off
    left = np.arange(n)
    right = n - 1 - left
    out = prefix[left] + prefix[right] - (half[left] + half[right])
    if diag is not None:
        w = np.ones(n)
        w[0] = w[-1] = 0.5
        out += w * diag
    return out


def _diagonal_jump_correction(kind: str, phix: np.ndarray, dx: float, periodic: bool) -> np.ndarray:
    """Euler-Maclaurin term for the integrand's kink at x' = x.

    Trapezoid sums with the two-sided average at the singular node cancel the
    value jump but keep an O(dx^2) error dx^2/12 * (f'(0+) - f'(0-)). The
    one-sided derivative jumps, fixed against an eps-refinement oracle, are

        contrast kernel (1/sqrt(s^2+dphi^2) - 1/|s|) * drho:
            phi_xxx (1 - r^-1) + phi_x phi_xx^2 r^-3
        bare 1/|s| * drho (linear term):   -phi_xxx
        front kernel 1/sqrt(s^2+dphi^2) * drho (velocity routes):
            -phi_xxx r^-1 + phi_x phi_xx^2 r^-3

    with r = sqrt(1 + phi_x^2); phi_xx and phi_xxx come from the slope
    samples by the 4th-order stencil. The returned array is the
    + dx^2/12 * jump term to add to the assembled quadrature.
    """
    rho1 = stencil_derivative(phix, dx, periodic)
    rho2 = stencil_derivative(rho1, dx, periodic)
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


def _front_kernel(phi_rows: np.ndarray, phi_cols: np.ndarray, s2: np.ndarray) -> np.ndarray:
    """Block of 1/sqrt(s^2 + dphi^2) between target heights phi_rows and
    source heights phi_cols, built in place from the matching s^2 block."""
    k = np.subtract.outer(phi_rows, phi_cols)
    np.square(k, out=k)
    k += s2
    np.sqrt(k, out=k)
    return np.reciprocal(k, out=k)


def _strip_kernel(c1: np.ndarray, s2: np.ndarray, i0: int, i1: int) -> np.ndarray:
    """Rows i0:i1 of 1/sqrt(s^2 + c1(x)^2), the strip kernel at each target's height."""
    k = np.add(s2[i0:i1], np.square(c1[i0:i1])[:, None])
    np.sqrt(k, out=k)
    return np.reciprocal(k, out=k)


# ---------------------------------------------------------------------------
# the three front-tendency integrals

def nonlinear_term(state: FrontState, phix: np.ndarray) -> np.ndarray:
    """Nonlinear self-interaction integral at every grid node.

    Cubic in the front amplitude for small fronts. Periodic grids use the
    minimum-image separation truncated at half a period; line grids add
    flat-front tails and the endpoint correction.

    The periodic truncation drops the far tail
    -(rho(x) - rho(x')) dphi^2 / (2|s|^3) beyond |s| = L/2, an O(1/L^2)
    error at fixed dx. Measured on a gaussian (amplitude 0.1, width 0.5) at
    dx = pi/32 against an L = 256 pi reference, it falls by a factor 4.0 to
    4.2 per doubling of L, from 1.3e-5 at L = 4 pi to 7.8e-7 at L = 16 pi.
    The integral does not depend on the reference depth.
    """
    g = state.grid
    phi = state.phi
    rho = np.asarray(phix, dtype=np.float64)
    n, dx = g.n, g.dx
    diag_coda = _diagonal_jump_correction("contrast", rho, dx, g.periodic)

    sep = _separation(g)
    s2 = _by_offset(sep * sep, n)
    inv_s = _by_offset(1.0 / sep, n)

    def contrast(i0, i1):
        k = _front_kernel(phi[i0:i1], phi[i0:], s2[i0:i1, i0:])
        k -= inv_s[i0:i1, i0:]
        return k

    # the kernel is symmetric in (x, x'); the diagonal carries the odd-jump
    # average 0
    if g.periodic:
        return _pair_sum(contrast, n, rho, symmetric=True) * dx + diag_coda

    out = _pair_sum(contrast, n, rho, ends=True, symmetric=True) * dx
    # beyond the window: rho(x) * [1/sqrt(s^2 + (phi(x) - phi_inf)^2) - 1/|s|]
    b = _end_distances(g)
    ends = _end_term(*b, phi - far_field_value(state), dx) - _end_term(*b, 0.0, dx)
    return out + rho * ends + diag_coda


def linear_term_quadrature(state: FrontState, phix: np.ndarray) -> np.ndarray:
    """Linear nonlocal integral by physical-space quadrature (line mode).

    The reference kernel is recentered at the target (its integral over the
    line is shift invariant), so the integrand is a pure function of
    s = x' - x and the divergent pieces cancel inside one window. On a pure
    Fourier mode this reproduces the dispersive multiplier plus the constant
    advection 2*(gamma - log 2)*phi_x. The integral does not depend on the
    reference depth.
    """
    g = state.grid
    if g.periodic:
        raise ValueError("linear_term_quadrature is line-mode only; periodic grids use the spectral multiplier")
    n, dx = g.n, g.dx
    rho = np.asarray(phix, dtype=np.float64)
    diag_coda = _diagonal_jump_correction("bare", rho, dx, periodic=False)

    sep = _separation(g)
    inv_s = _by_offset(1.0 / sep, n)
    # (rho(x) - rho(x'))/|s| plus rho(x) times the recentered reference row sum,
    # which depends on the grid alone; its node carries the smooth value -phi_x
    bare = _pair_sum(lambda i0, i1: inv_s[i0:i1].copy(), n, rho, ends=True)
    own = _even_row_sum(-1.0 / np.hypot(sep[n - 1:], 1.0), diag=-1.0)
    out = (bare + rho * own) * dx
    b = _end_distances(g)
    return out + rho * (_end_term(*b, 0.0, dx) - _end_term(*b, 1.0, dx)) + diag_coda


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

    out = _pair_sum(strip, n, ends=True, diag=q - 1.0 / c1) * dx
    xa, xb = x[0], x[-1]
    ends = _end_term(xb, -xa, 1.0, dx) - _end_term(xb - x, x - xa, c1, dx)
    return rho * (out + ends - 2.0 * np.log(c1))


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
