"""Uniform 1D grids, front states, and the spectral tables.

The front is the graph y = phi(x) over a uniform grid x_j = x_min + j*dx.
Two backends share this module: a line backend (front compactly supported
inside the middle half of the grid, quadrature in physical space) and a
periodic backend (FFT-based operators on a periodic window, used as a
numerical device for verification).

A periodic grid owns its spectral tables (`SpectralWorkspace`): the
multipliers i xi, 2 i xi log|xi| and the linear symbol on the rfft
half-spectrum, built once on first use of `LineGrid.spectral` and
read-only. The spectral operators take them from the state's grid.

A state owns its slope: `FrontState.slope` alone picks the derivative and
computes it once. States are immutable, so it cannot go stale; the grid's
nodes `LineGrid.x` are kept read-only the same way. A state compares and
hashes by identity, so tables built from one state can be cached under it.

DFT convention, fixed once for the whole package: forward transform
``c_k = sum_j v_j exp(-i xi_k x_j)`` without normalization, inverse carries
the 1/n factor (numpy's convention), wavenumbers ``xi_k = 2*pi*fftfreq(n, dx)``;
real fields go through rfft/irfft, modes k = 0 .. n/2.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace
from functools import cached_property

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


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _integer(value, name: str) -> int:
    """value as an int; a bool, float, str or other non-integer is refused, not
    truncated, and so is one wider than an array index: no array reaches that
    count, and a float may not hold it."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if int(value).bit_length() >= np.iinfo(np.intp).bits:
        raise ValueError(f"{name} must fit in {np.iinfo(np.intp).bits - 1} bits, got {int(value).bit_length()}")
    return int(value)


def _real(value, name: str, positive: bool = False) -> float:
    """value as a float; a bool, str, None, complex, NaN, infinity or an int
    past the float range is refused, and with positive=True so is a value
    <= 0. numpy real scalars are taken. Every library type checks each
    number it takes here, so each refusal is a ValueError that starts with
    the field's name."""
    if type(value) is not float:  # a Python float needs no type test
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise ValueError(f"{name} must be a real number, got {value!r}")
        try:
            value = float(value)
        except OverflowError:  # an int past the float range
            value = math.inf
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite")
    if positive and not value > 0.0:
        raise ValueError(f"{name} must be positive, got {value}")
    return value


def _flag(value, name: str) -> bool:
    """value as a bool; only a bool or a numpy bool is taken, not a truthy
    number or string."""
    if not isinstance(value, (bool, np.bool_)):
        raise ValueError(f"{name} must be a bool, got {value!r}")
    return bool(value)


@dataclass(frozen=True)
class LineGrid:
    """Uniform grid x_j = x_min + j*dx, j = 0..n-1.

    For periodic grids the window is [x_min, x_min + n*dx) and the rightmost
    node is one spacing short of the period end. x_min and dx are held as
    Python floats, n as an int, whatever numpy scalar they are given as.
    """

    x_min: float
    n: int
    dx: float
    periodic: bool = False

    def __post_init__(self):
        # a numpy integer is held as int: n * n must not wrap in a narrow dtype
        object.__setattr__(self, "n", _integer(self.n, "n"))
        if self.n < 8:
            raise ValueError(f"n must be at least 8, got {self.n}")
        if self.n % 2 != 0:
            raise ValueError(f"n must be even for spectral ops, got {self.n}")
        object.__setattr__(self, "x_min", _real(self.x_min, "x_min"))
        object.__setattr__(self, "periodic", _flag(self.periodic, "periodic"))
        # a float dx, NaN and infinities too, is judged by the window test,
        # which names x_min and dx together
        dx = float(self.dx) if isinstance(self.dx, float) else _real(self.dx, "dx")
        # one test for a positive finite dx and a window whose last node is
        # finite and whose spacing outgrows the rounding of its ends (false
        # for a NaN or infinite dx)
        last = self.x_min + (self.n - 1) * dx  # a Python float overflows to inf, with no warning
        if not dx > np.spacing(max(abs(self.x_min), abs(last))):
            raise ValueError(f"x_min = {self.x_min} and dx = {self.dx} must give {self.n} increasing "
                             f"finite nodes, got a last node {last}")
        # a float dx, as x_min: an np.float32 one would make float32 nodes, and
        # the grid, equal and hashed like its float64 twin, shares its tables
        object.__setattr__(self, "dx", dx)

    @property
    def length(self) -> float:
        """Window length n*dx (the period, for periodic grids)."""
        return self.n * self.dx

    @cached_property
    def x(self) -> np.ndarray:
        """The nodes x_min + j dx, built on first use; read-only."""
        return _read_only(self.x_min + self.dx * np.arange(self.n))

    @cached_property
    def spectral(self) -> "SpectralWorkspace":
        """The grid's half-spectrum tables, built on first use (periodic only)."""
        return build_workspace(self)


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
    length = _real(length, "length", positive=True)
    n = _integer(n, "n")
    if n <= 0:
        raise ValueError(f"n must be a positive even count, got {n}")
    return LineGrid(x_min=x_min, n=n, dx=length / n, periodic=periodic)


@dataclass(frozen=True, eq=False)
class FrontState:
    """Front elevation samples phi(x_j) at time t, and their slope.

    Immutable: phi is a read-only copy of the samples given, and `with_phi`
    builds a new state, whose slope is computed afresh. A state equals only
    itself and hashes by identity, so tables built from it can be cached
    under it (`functools.lru_cache`).
    """

    grid: LineGrid
    phi: np.ndarray
    t: float = 0.0

    def __post_init__(self):
        phi = np.array(self.phi, dtype=np.float64)
        if phi.shape != (self.grid.n,):
            raise ValueError(f"phi has shape {phi.shape}, expected ({self.grid.n},)")
        if not np.all(np.isfinite(phi)):
            raise ValueError("phi contains non-finite values")
        object.__setattr__(self, "phi", _read_only(phi))
        object.__setattr__(self, "t", _real(self.t, "t"))

    @cached_property
    def slope(self) -> np.ndarray:
        """phi_x, computed on first use; read-only. Spectral on a periodic
        grid, the 4th-order stencil on the line."""
        derivative = spectral_derivative if self.grid.periodic else finite_difference_derivative
        return _read_only(derivative(self))

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
    outside = (x < lo) | (x >= hi)  # never empty: node 0 lies below lo
    return float(np.max(np.abs(state.phi[outside] - far_field_value(state))))


_SUPPORT_TOL = 1e-12


def validate_line_support(state: FrontState) -> None:
    """Raise unless the front deviation is confined to the middle half.

    Tolerance is relative to the front amplitude (absolute for amplitudes
    below one). Line-mode tail corrections assume quiescence beyond the grid,
    which this check is a proxy for.
    """
    amp = float(np.max(np.abs(state.phi - far_field_value(state))))
    defect = support_defect(state)
    tol = _SUPPORT_TOL * max(1.0, amp)
    if defect > tol:
        raise ValueError(
            f"front support leaks outside the middle half of the grid "
            f"(defect {defect:.3e}, tol {tol:.3e})"
        )


@dataclass(frozen=True)
class SpectralWorkspace:
    """The Fourier multipliers of the evolution on the rfft half-spectrum.

    Each table has n // 2 + 1 entries, one per rfft mode xi_k = 2 pi k /
    (n dx), k = 0 .. n/2, and is read-only. Their Nyquist entries are zeroed:
    the multipliers are odd, and an unpaired Nyquist mode would otherwise
    break the reality of the output. A periodic grid builds its tables once,
    on first use, and holds them as `LineGrid.spectral`.

    Attributes
    ----------
    ixi : ndarray (complex)
        The derivative multiplier i xi.
    symbol : ndarray (complex)
        The dispersive multiplier ``m(xi) = 2i xi log|xi|``, ``m(0) = 0``.
    rate : ndarray (complex)
        The whole linear symbol ``2i xi (log|xi| + gamma - log 2)``, the
        multiplier plus the advection ``2 (gamma - log 2) d/dx``: the growth
        rate of each mode of the linearized evolution.
    """

    ixi: np.ndarray
    symbol: np.ndarray
    rate: np.ndarray

    def __post_init__(self):
        for name in ("ixi", "symbol", "rate"):
            getattr(self, name).flags.writeable = False


def build_workspace(grid: LineGrid) -> SpectralWorkspace:
    """Tabulate the half-spectrum multipliers of a periodic grid."""
    if not grid.periodic:
        raise ValueError("spectral workspace requires a periodic grid")
    xi = 2.0 * np.pi * np.fft.rfftfreq(grid.n, d=grid.dx)
    ixi = 1.0j * xi
    with np.errstate(divide="ignore", invalid="ignore"):
        symbol = 2.0j * xi * np.log(xi)
    symbol[0] = 0.0
    rate = symbol + TWO_GAMMA_MINUS_LOG4 * ixi
    for table in (ixi, symbol, rate):
        table[-1] = 0.0  # unpaired Nyquist mode, see the class docstring
    return SpectralWorkspace(ixi=ixi, symbol=symbol, rate=rate)


def _multiply(state: FrontState, table: np.ndarray) -> np.ndarray:
    return np.fft.irfft(table * np.fft.rfft(state.phi), state.grid.n)


def apply_linear_multiplier(state: FrontState) -> np.ndarray:
    """Dispersive linear operator applied to the front, multiplier form
    (periodic grids only).

    Returns the real field with transform ``m(xi) * phi_hat``. The zero mode
    of the output vanishes identically, so the grid mean is preserved.
    """
    return _multiply(state, state.grid.spectral.symbol)


def spectral_derivative(state: FrontState) -> np.ndarray:
    """phi_x by the i*xi multiplier (periodic grids only, Nyquist zeroed)."""
    return _multiply(state, state.grid.spectral.ixi)


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
