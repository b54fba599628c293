"""Closed-form harmonic extension of the planar-front data into a half space.

Verification-only formulas linking the front's far-field profile to a
Neumann-Dirichlet pair on z > 0:

    harmonic_extension  F(y,z) = pi + 2 arctan(y/z)
    stream_function     S(y,z) = -2y + y log(y^2+z^2) + 2z arctan(y/z) + pi z
    boundary_stream     s(y)   = -2y + 2y log|y|,  s(0) = 0 by continuity

Both fields are harmonic on z > 0; dS/dz = F; the boundary trace of F is the
2 pi step of the planar front (0 for y < 0, 2 pi for y > 0) and the boundary
velocity ds/dy = 2 log|y| is the planar shear profile. No general half-space
solver lives here on purpose.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .grid import _real

__all__ = ["HalfSpacePoint", "harmonic_extension", "stream_function", "boundary_stream"]


@dataclass(frozen=True)
class HalfSpacePoint:
    y: float
    z: float

    def __post_init__(self):
        object.__setattr__(self, "y", _real(self.y, "y"))
        object.__setattr__(self, "z", _real(self.z, "z", positive=True))


def harmonic_extension(p: HalfSpacePoint) -> float:
    """pi + 2 arctan(y/z); ranges over (0, 2 pi) on z > 0."""
    return math.pi + 2.0 * math.atan2(p.y, p.z)


def stream_function(p: HalfSpacePoint) -> float:
    """Antiderivative in z of the harmonic extension (stream function)."""
    r2 = p.y * p.y + p.z * p.z
    return -2.0 * p.y + p.y * math.log(r2) + 2.0 * p.z * math.atan2(p.y, p.z) + math.pi * p.z


def boundary_stream(y: float) -> float:
    """Boundary trace -2y + 2y log|y|; 0 at y = 0 by continuity."""
    y = _real(y, "y")
    if y == 0.0:
        return 0.0
    return -2.0 * y + 2.0 * y * math.log(abs(y))
