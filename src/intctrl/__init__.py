"""Discrete-time controller synthesis with integer-coefficient denominators.

Two entry points: :func:`run_algorithm1` synthesizes a stabilizing
controller whose denominator is an integer monic polynomial, and
:func:`convert_controller` replaces a pre-designed two-input controller
with an integer-coefficient one while preserving the closed-loop transfer
function from the reference to the plant output.  The kernels they are
built from stay importable from their modules (``intctrl.target``,
``intctrl.numeric``, ...).
"""

from .bezout import NotCoprimeError
from .converter import (ConversionConfig, ConvertedController, PreController,
                        convert_controller)
from .numeric import SchurFactors
from .poly import Polynomial, RationalTF
from .sim import (SimulationResult, StateSpace, realize_controller, realize_tf,
                  simulate_loop)
from .stabilizer import (StabilizationConfig, StabilizationResult,
                         SynthesisError, run_algorithm1)
from .target import TargetSearchError
from .verify import (Certificate, certify_conversion, certify_stabilization,
                     closed_loop_poly, closed_loop_tf, tf_equal)

__version__ = "0.1.0"

__all__ = [
    "Certificate", "ConversionConfig", "ConvertedController",
    "NotCoprimeError", "Polynomial", "PreController", "RationalTF",
    "SchurFactors", "SimulationResult", "StabilizationConfig",
    "StabilizationResult", "StateSpace", "SynthesisError",
    "TargetSearchError", "certify_conversion", "certify_stabilization",
    "closed_loop_poly", "closed_loop_tf", "convert_controller",
    "realize_controller", "realize_tf", "run_algorithm1", "simulate_loop",
    "tf_equal",
]
