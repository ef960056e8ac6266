"""Asymptotic expansions for dissipative ODE systems, with verification.

The package builds expansion terms for y' = -Ay + G(y) + f(t) when the
forcing decays coherently (exponentials, powers, or iterated logarithms),
and checks the result numerically: it integrates the ODE, measures how
fast the remainder beyond each truncation decays, and fits any free
constants attached to resonant orders.
"""

from .engine import (
    Expansion,
    ExpansionOrder,
    ExponentLadder,
    ProblemSpec,
    ValidationError,
    eval_partial_sum,
    expand,
    symbolic_defect,
)
from .expsum import ExpPolySum
from .ladder import exp_zero, iter_exp, iter_log, ladder_eval
from .logpower import (
    LogPowerSum,
    ShiftedInverseCache,
    descent_op,
    ladder_view,
    shifted_inverse,
    time_derivative,
    weight_op,
)
from .multilinear import MultiLinearMap
from .numerics import (
    DecayFit,
    SmallnessCertificate,
    decay_envelope_constant,
    fit_decay,
    fit_kernel_constants,
    integrate,
    matrix_exp_norm,
    remainder_series,
    smallness_certificate,
)
from .realify import (
    from_trig_ladder,
    imag_residue,
    to_trig_ladder,
    to_trig_poly,
)
from .resolvent import homogeneous_modes, resolvent_defect, resolvent_solve_exp
from .rk45 import StepUnderflow, Trajectory, integrate_rhs

__version__ = "0.1.0"

__all__ = [
    "DecayFit",
    "Expansion",
    "ExpansionOrder",
    "ExpPolySum",
    "ExponentLadder",
    "LogPowerSum",
    "MultiLinearMap",
    "ProblemSpec",
    "ShiftedInverseCache",
    "SmallnessCertificate",
    "StepUnderflow",
    "Trajectory",
    "ValidationError",
    "decay_envelope_constant",
    "descent_op",
    "eval_partial_sum",
    "exp_zero",
    "expand",
    "fit_decay",
    "fit_kernel_constants",
    "from_trig_ladder",
    "homogeneous_modes",
    "imag_residue",
    "integrate",
    "integrate_rhs",
    "iter_exp",
    "iter_log",
    "ladder_eval",
    "ladder_view",
    "matrix_exp_norm",
    "remainder_series",
    "resolvent_defect",
    "resolvent_solve_exp",
    "shifted_inverse",
    "smallness_certificate",
    "symbolic_defect",
    "time_derivative",
    "to_trig_ladder",
    "to_trig_poly",
    "weight_op",
]
