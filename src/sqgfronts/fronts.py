"""Initial front families.

Every family is smooth and decays to zero well inside the middle half of a
reasonably sized grid, satisfying the line-backend support requirement. Each
returns both the elevation and its analytic derivative so tests can separate
quadrature error from differentiation error.
"""

from __future__ import annotations

import numpy as np

from .grid import _real

__all__ = ["front_profile", "FAMILIES"]


def _gaussian(x, amplitude: float, width: float, center: float):
    if not width > 0.0:
        raise ValueError(f"width must be positive, got {width}")
    u = (x - center) / width
    phi = amplitude * np.exp(-(u**2))
    phix = phi * (-2.0 * u) / width
    return phi, phix


def _poly_bump(x, amplitude: float, width: float, center: float):
    # (1-u^2)^6 is C^5 at the support edge, smooth enough for the 4th-order
    # derivative stencil to keep its full accuracy
    if not width > 0.0:
        raise ValueError(f"width must be positive, got {width}")
    u = (x - center) / width
    inside = np.abs(u) < 1.0
    core = np.where(inside, 1.0 - u**2, 0.0)
    phi = amplitude * core**6
    phix = np.where(inside, amplitude * 6.0 * core**5 * (-2.0 * u) / width, 0.0)
    return phi, phix


def _smoothstep(u):
    """C-infinity transition: 0 for u<=0, 1 for u>=1."""
    u = np.clip(u, 0.0, 1.0)
    with np.errstate(divide="ignore", over="ignore"):
        a = np.where(u > 0.0, np.exp(-1.0 / np.maximum(u, 1e-300)), 0.0)
        b = np.where(u < 1.0, np.exp(-1.0 / np.maximum(1.0 - u, 1e-300)), 0.0)
    return a / (a + b)


def _smoothstep_prime(u):
    inside = (u > 0.0) & (u < 1.0)
    uc = np.where(inside, u, 0.5)
    a = np.exp(-1.0 / uc)
    b = np.exp(-1.0 / (1.0 - uc))
    da = a / uc**2
    db = -b / (1.0 - uc) ** 2
    val = (da * b - a * db) / (a + b) ** 2
    return np.where(inside, val, 0.0)


def _windowed_cosine(x, amplitude: float, mode: float, plateau: float, support: float, center: float = 0.0):
    """cos(mode*x) under a plateau window: exactly the mode for |x-center|<=plateau,
    smoothly cut off to zero by |x-center|>=support."""
    if not support > plateau > 0.0:
        raise ValueError(f"need support > plateau > 0, got plateau={plateau} support={support}")
    u = (support - np.abs(x - center)) / (support - plateau)
    w = _smoothstep(u)
    wx = _smoothstep_prime(u) * (-np.sign(x - center)) / (support - plateau)
    c = np.cos(mode * x)
    s = np.sin(mode * x)
    phi = amplitude * w * c
    phix = amplitude * (wx * c - w * mode * s)
    return phi, phix


def _zero(x):
    z = np.zeros_like(x)
    return z, z.copy()


FAMILIES = {
    "gaussian": _gaussian,
    "poly_bump": _poly_bump,
    "windowed_cosine": _windowed_cosine,
    "zero": _zero,
}


def front_profile(x: np.ndarray, family: str, **params):
    """Evaluate a named family.

    Every parameter must be a finite real number: a bool, a string, None,
    NaN or an infinity is refused with a ValueError that starts with the
    parameter's name (`grid._real`), before the family's own range checks.
    numpy scalars are taken.

    Returns
    -------
    (phi, phi_x) : pair of ndarrays
        Elevation and analytic slope at the given abscissae.
    """
    try:
        fn = FAMILIES[family]
    except (KeyError, TypeError):  # TypeError: a name that is not hashable
        raise ValueError(f"unknown front family {family!r}; options: {sorted(FAMILIES)}") from None
    params = {key: _real(value, key) for key, value in params.items()}
    return fn(np.asarray(x, dtype=np.float64), **params)
