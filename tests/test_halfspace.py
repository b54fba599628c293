"""Closed-form half-space checks: spot values, boundary step and trace.

Harmonicity, conjugacy and the boundary log law are acceptance criterion 10.
"""

import math

import numpy as np
import pytest

from sqgfronts import HalfSpacePoint, boundary_stream, harmonic_extension, stream_function
from sqgfronts.cli import measure_boundary_trace


def test_point_validation():
    with pytest.raises(ValueError):
        HalfSpacePoint(0.0, 0.0)
    with pytest.raises(ValueError):
        HalfSpacePoint(1.0, -0.5)
    with pytest.raises(ValueError):
        HalfSpacePoint(np.nan, 1.0)
    HalfSpacePoint(0.0, 1e-12)


def test_extension_spot_values():
    # pi + 2*atan2(y, z)
    assert abs(harmonic_extension(HalfSpacePoint(0.0, 1.0)) - math.pi) < 1e-15
    assert abs(harmonic_extension(HalfSpacePoint(1.0, 1.0)) - 1.5 * math.pi) < 1e-15
    assert abs(harmonic_extension(HalfSpacePoint(-1.0, 1.0)) - 0.5 * math.pi) < 1e-15


def test_extension_boundary_step():
    # z -> 0+: the extension lands on the jump data 2 pi * 1_{y>0}
    for y in (0.5, 2.0, 17.0):
        assert abs(harmonic_extension(HalfSpacePoint(y, 1e-12)) - 2.0 * math.pi) < 1e-10
        assert abs(harmonic_extension(HalfSpacePoint(-y, 1e-12))) < 1e-10


def test_boundary_trace():
    # the interior stream approaches the boundary stream linearly in z
    # (gap 2 pi z to first order), so probe well below the tolerance
    assert measure_boundary_trace((0.5, 1.0, 3.0, -2.0)) < 1e-6  # at z = 1e-8
    # and the first-order coefficient itself
    z = 1e-5
    gap = stream_function(HalfSpacePoint(1.0, z)) - boundary_stream(1.0)
    assert abs(gap - 2.0 * math.pi * z) < 1e-8


def test_boundary_stream_values():
    assert abs(boundary_stream(1.0) - (-2.0)) < 1e-15  # -2y + 2y log|y| at y=1
    assert boundary_stream(0.0) == 0.0
    for y in (0.5, 2.5):
        assert abs(boundary_stream(-y) + boundary_stream(y)) < 1e-14  # odd


def test_boundary_stream_refuses_a_non_finite_y():
    with pytest.raises(ValueError, match="^y must be finite$"):
        boundary_stream(math.nan)
