"""Linear stability of wind-over-water shear flows.

Computes complex wave speeds of the linearized two-phase interface problem:
Rayleigh-equation impedances (including the singular critical-layer limit),
dispersion-relation residuals, complex root finding, and the small
density-ratio growth asymptotics.
"""

from . import errors
from .errors import *  # noqa: F401,F403
from .profiles import (
    AnalyticProfile,
    ConstantProfile,
    CriticalLayer,
    LinearShearProfile,
    PiecewiseLinearProfile,
    ShearProfile,
    TabulatedProfile,
    TanhProfile,
    find_critical_points,
    load_tabulated,
)
from .rayleigh import (
    ConvergenceReport,
    LayerJump,
    LimitSolution,
    WronskianPath,
    impedance_limit_check,
    integrate_wronskian,
    limiting_solution,
    pwl_impedance_cascade,
    uniform_flow_impedance,
)
from .dispersion import (
    FluidParams,
    KhThreshold,
    PwlClosedForm,
    ck,
    kh_threshold,
    make_miles_residual,
    pwl_dispersion,
    residual_general,
    residual_miles,
)
from .eigensolver import (
    EigenResult,
    GrowthCurve,
    ScanStrategy,
    continue_in_epsilon,
    find_root,
    root_counts,
    scan_k,
)
from .asymptotics import (
    LayerContribution,
    MilesAsymptotics,
    StabilityCertificate,
    f_I0,
    miles_c_sharp,
    necessity_certificate,
)

__version__ = "0.1.0"
