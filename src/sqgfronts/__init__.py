"""Contour dynamics for a planar temperature front with logarithmic far-field shear.

The front is a graph y = phi(x) advected by a surface-active scalar; the
package assembles its evolution from singular kernel-contrast integrals,
steps it in time spectrally or on the line, reconstructs the off-front
velocity, and ships the verification identities (background-consistency
integral, scale identity, Hilbert pair, half-space closed forms) as
first-class operations.
"""

__version__ = "0.1.0"

from .dynamics import (
    SimConfig,
    Trajectory,
    cfl_timestep,
    initial_state,
    integrate,
    rhs,
    rhs_galilean_form,
    scaling_galilean_check,
    step_rk4,
)
from .fronts import FAMILIES, front_profile
from .grid import (
    EULER_GAMMA,
    TWO_GAMMA_MINUS_LOG4,
    FrontState,
    LineGrid,
    SpectralWorkspace,
    apply_linear_multiplier,
    build_workspace,
    far_field_value,
    finite_difference_derivative,
    make_grid,
    make_state,
    spectral_derivative,
    support_defect,
    validate_line_support,
)
from .halfspace import HalfSpacePoint, boundary_stream, harmonic_extension, stream_function
from .quadrature import (
    KernelParams,
    background_term,
    cosine_integral_constant,
    kernel_difference,
    linear_term_quadrature,
    nonlinear_term,
    resolve_depth,
    scale_identity,
)
from .velocity import (
    BoxSpec,
    GalileanShift,
    VelocitySample,
    box_riesz_crosscheck,
    galilean_shift,
    normal_velocity_background,
    normal_velocity_bmo,
    velocity_at,
)
