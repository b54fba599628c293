"""Uniform 1D grids, front states, and the spectral workspace.

The front is the graph y = phi(x) over a uniform grid x_j = x_min + j*dx.
Two backends share this module: a line backend (front compactly supported
inside the middle half of the grid, quadrature in physical space) and a
periodic backend (FFT-based operators on a periodic window, used as a
numerical device for verification).

DFT convention, fixed once for the whole package: forward transform
``c_k = sum_j v_j exp(-i xi_k x_j)`` without normalization, inverse carries
the 1/n factor (numpy's convention), wavenumbers ``xi_k = 2*pi*fftfreq(n, dx)``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

__all__ = [
    "LineGrid",
    "FrontState",
    "SpectralWorkspace",
    "make_grid",
    "make_state",
    "build_workspace",
    "apply_linear_multiplier",
    "spectral_derivative",
    "finite_difference_derivative",
    "stencil_derivative",
    "far_field_value",
    "support_defect",
    "validate_line_support",
]

# slope of the dispersive symbol at xi=1 vanishes, so the constant shows up
# all over the linear theory: 2*(gamma - log 2)
EULER_GAMMA = 0.5772156649015329
TWO_GAMMA_MINUS_LOG4 = 2.0 * (EULER_GAMMA - np.log(2.0))


@dataclass(frozen=True)
class LineGrid:
    """Uniform grid x_j = x_min + j*dx, j = 0..n-1.

    For periodic grids the window is [x_min, x_min + n*dx) and the rightmost
    node is one spacing short of the period end.
    """

    x_min: float
    n: int
    dx: float
    periodic: bool = False

    def __post_init__(self):
        if self.n < 8:
            raise ValueError(f"grid needs at least 8 nodes, got n={self.n}")
        if self.n % 2 != 0:
            raise ValueError(f"grid size must be even for spectral ops, got n={self.n}")
        if not np.isfinite(self.dx) or self.dx <= 0.0:
            raise ValueError(f"grid spacing must be positive and finite, got dx={self.dx}")
        if not np.isfinite(self.x_min):
            raise ValueError(f"grid origin must be finite, got x_min={self.x_min}")

    @property
    def length(self) -> float:
        """Window length n*dx (the period, for periodic grids)."""
        return self.n * self.dx

    @property
    def x(self) -> np.ndarray:
        return self.x_min + self.dx * np.arange(self.n)


def make_grid(x_min: float, length: float, n: int, periodic: bool = False) -> LineGrid:
    """Build a uniform grid covering [x_min, x_min + length).

    Parameters
    ----------
    x_min : float
        Left end of the window.
    length : float
        Window length; dx = length / n.
    n : int
        Number of nodes, even, >= 8. Powers of two keep the FFTs fast.
    periodic : bool
        Periodic backend flag.
    """
    if length <= 0.0 or not np.isfinite(length):
        raise ValueError(f"length must be positive and finite, got {length}")
    if int(n) <= 0:
        raise ValueError(f"n must be a positive even count, got {n}")
    return LineGrid(x_min=float(x_min), n=int(n), dx=float(length) / int(n), periodic=periodic)


@dataclass(frozen=True)
class FrontState:
    """Front elevation samples phi(x_j) at time t."""

    grid: LineGrid
    phi: np.ndarray
    t: float = 0.0

    def __post_init__(self):
        phi = np.asarray(self.phi, dtype=np.float64)
        if phi.shape != (self.grid.n,):
            raise ValueError(f"phi has shape {phi.shape}, expected ({self.grid.n},)")
        if not np.all(np.isfinite(phi)):
            raise ValueError("phi contains non-finite values")
        object.__setattr__(self, "phi", phi)

    def with_phi(self, phi: np.ndarray, t: float | None = None) -> "FrontState":
        return replace(self, phi=phi, t=self.t if t is None else t)


def make_state(grid: LineGrid, phi: np.ndarray, t: float = 0.0) -> FrontState:
    return FrontState(grid=grid, phi=phi, t=t)


def far_field_value(state: FrontState) -> float:
    """Constant the front approaches at the window ends.

    Line-mode fronts are flat outside the middle half of the grid, so the
    average of the two edge samples is an exact read of the constant.
    """
    return 0.5 * (float(state.phi[0]) + float(state.phi[-1]))


def support_defect(state: FrontState) -> float:
    """Max |phi - far-field constant| outside the middle half of the grid."""
    g = state.grid
    x = g.x
    lo = g.x_min + 0.25 * g.length
    hi = g.x_min + 0.75 * g.length
    outside = (x < lo) | (x >= hi)
    if not np.any(outside):
        return 0.0
    return float(np.max(np.abs(state.phi[outside] - far_field_value(state))))


def validate_line_support(state: FrontState, tol: float = 1e-12) -> None:
    """Raise unless the front deviation is confined to the middle half.

    Tolerance is relative to the front amplitude (absolute for amplitudes
    below one). Line-mode tail corrections assume quiescence beyond the grid,
    which this check is a proxy for.
    """
    amp = float(np.max(np.abs(state.phi - far_field_value(state)))) if state.grid.n else 0.0
    defect = support_defect(state)
    if defect > tol * max(1.0, amp):
        raise ValueError(
            f"front support leaks outside the middle half of the grid "
            f"(defect {defect:.3e}, tol {tol * max(1.0, amp):.3e})"
        )


@dataclass(frozen=True)
class SpectralWorkspace:
    """Precomputed wavenumbers and dispersive multiplier.

    The evolution's linear operator acts in Fourier space as multiplication
    by ``m(xi) = 2i xi log|xi|`` with ``m(0) = 0``. The Nyquist entry is
    zeroed as well: the multiplier is odd, and an unpaired Nyquist mode would
    otherwise break the reality of the output.

    Attributes
    ----------
    xi : ndarray
        Physical wavenumbers 2*pi*fftfreq(n, dx), numpy FFT ordering.
    symbol : ndarray (complex)
        Tabulated m(xi).
    """

    xi: np.ndarray
    symbol: np.ndarray

    def __post_init__(self):
        for name in ("xi", "symbol"):
            arr = getattr(self, name)
            object.__setattr__(self, name, np.asarray(arr))


def build_workspace(grid: LineGrid) -> SpectralWorkspace:
    """Tabulate the spectral machinery for a periodic grid."""
    if not grid.periodic:
        raise ValueError("spectral workspace requires a periodic grid")
    xi = 2.0 * np.pi * np.fft.fftfreq(grid.n, d=grid.dx)
    with np.errstate(divide="ignore", invalid="ignore"):
        symbol = 2.0j * xi * np.log(np.abs(xi))
    symbol[0] = 0.0
    symbol[grid.n // 2] = 0.0  # unpaired Nyquist mode, see class docstring
    return SpectralWorkspace(xi=xi, symbol=symbol)


def apply_linear_multiplier(state: FrontState, workspace: SpectralWorkspace) -> np.ndarray:
    """Dispersive linear operator applied to the front, multiplier form.

    Returns the real field with transform ``m(xi) * phi_hat``. The zero mode
    of the output vanishes identically, so the grid mean is preserved.
    """
    if workspace.xi.shape != state.phi.shape:
        raise ValueError("workspace was built for a different grid size")
    return np.fft.ifft(workspace.symbol * np.fft.fft(state.phi)).real


def spectral_derivative(state: FrontState, workspace: SpectralWorkspace | None = None) -> np.ndarray:
    """phi_x by the i*xi multiplier (periodic grids only, Nyquist zeroed)."""
    g = state.grid
    if not g.periodic:
        raise ValueError("spectral derivative requires a periodic grid")
    if workspace is not None:
        if workspace.xi.shape != state.phi.shape:
            raise ValueError("workspace was built for a different grid size")
        xi = workspace.xi
    else:
        xi = 2.0 * np.pi * np.fft.fftfreq(g.n, d=g.dx)
    mult = 1.0j * xi
    mult[g.n // 2] = 0.0
    return np.fft.ifft(mult * np.fft.fft(state.phi)).real


def stencil_derivative(values: np.ndarray, dx: float, periodic: bool) -> np.ndarray:
    """4th-order centered first derivative of uniformly sampled values.

    The values are copied into a buffer two nodes longer at each end, filled
    by wrapping for periodic data and with the edge value for line data. The
    edge fill is exact to the support tolerance because line-mode fronts are
    flat at the window ends (and so are their derivatives).
    """
    values = np.asarray(values, dtype=np.float64)
    padded = np.empty(values.size + 4)
    padded[2:-2] = values
    if periodic:
        padded[:2] = values[-2:]
        padded[-2:] = values[:2]
    else:
        padded[:2] = values[0]
        padded[-2:] = values[-1]
    # (-p2 + 8 p1 - 8 m1 + m2) / (12 dx), term by term in place
    out = np.multiply(padded[3:-1], 8.0)
    out -= padded[4:]
    out -= 8.0 * padded[1:-3]
    out += padded[:-4]
    out /= 12.0 * dx
    return out


def finite_difference_derivative(state: FrontState) -> np.ndarray:
    """phi_x by the 4th-order centered stencil (see stencil_derivative)."""
    return stencil_derivative(state.phi, state.grid.dx, state.grid.periodic)
