"""Axisymmetric vesicle shape-equation solver and verification harness.

The package integrates the second-order profile equation for w = z'(r)
from a series start at the rotation axis, switches to inverse-graph
coordinates through the vertical tangent, detects the equator as a
regular event, classifies solutions as biconcave (or otherwise), and
checks every quantitative estimate the analysis provides.
"""

from .cubic import (
    CubicAnalysis,
    DerivedConstants,
    HelfrichParams,
    analyze_cubic,
    derived_constants,
    eval_q,
    eval_r,
)
from .kernels import kernel_backend
from .solver import (
    ABORTED,
    BLOWUP_POSITIVE,
    CHART_SWITCH,
    EQUATOR,
    MAX_OF_W,
    ZERO_OF_W,
    Event,
    SolverConfig,
    Trajectory,
    chart_switch,
    integrate,
    series_coefficient,
    series_start,
)
from .analysis import (
    Classification,
    Landmarks,
    SurfaceTotals,
    classify,
    el_residual,
    equator_identity_residual,
    extract_landmarks,
    profile_points,
    surface_totals,
)
from .bounds import (
    AsymptoticReport,
    BoundsReport,
    CheckRecord,
    PhaseCell,
    asymptotic_sweep,
    check_single,
    phase_sweep,
)

__version__ = "0.1.0"
