"""Discrete-time controller synthesis with integer-coefficient denominators.

Two entry points: :func:`run_algorithm1` synthesizes a stabilizing
controller whose denominator is an integer monic polynomial, and
:func:`convert_controller` replaces a pre-designed two-input controller
with an integer-coefficient one while preserving the closed-loop transfer
function from the reference to the plant output.
"""

from .bezout import (CoprimalityResult, NotCoprimeError, coprime_check,
                     solve_diophantine)
from .converter import (ConversionConfig, ConvertedController, PreController,
                        assemble_converted, convert_controller, run_algorithm2)
from .numeric import (RootSet, SchurResult, classify_roots, jury_stable,
                      poly_roots, schur_check, solve_linear, vec_1norm)
from .poly import (Polynomial, RationalTF, monic_from_vector, toeplitz_stack,
                   vector_from_monic)
from .sim import (SimulationResult, StateSpace, realize_controller, realize_tf,
                  simulate_loop)
from .stabilizer import (StabilizationConfig, StabilizationResult, Tolerances,
                         TraceStep, preprocess_plant, make_gamma_ini,
                         run_algorithm1, stabilize_proper, SynthesisError)
from .target import (DeltaFactors, Hyperplane, HyperplaneSet, IntegerTarget,
                     TargetSearchConfig, TargetSearchError, active_index_set,
                     build_hyperplanes, control_input, delta_matrix,
                     find_integer_target)
from .verify import (Certificate, certify_conversion, certify_stabilization,
                     closed_loop_poly, closed_loop_tf, tf_equal)

__version__ = "0.1.0"

__all__ = [
    "Certificate", "ConversionConfig", "ConvertedController",
    "CoprimalityResult", "DeltaFactors", "Hyperplane", "HyperplaneSet",
    "IntegerTarget", "NotCoprimeError", "Polynomial", "PreController",
    "RationalTF", "RootSet", "SchurResult", "SimulationResult",
    "StabilizationConfig", "StabilizationResult", "StateSpace",
    "SynthesisError", "TargetSearchConfig", "TargetSearchError", "Tolerances",
    "TraceStep", "active_index_set", "assemble_converted", "build_hyperplanes",
    "certify_conversion", "certify_stabilization", "classify_roots",
    "closed_loop_poly", "closed_loop_tf", "control_input",
    "convert_controller", "coprime_check", "delta_matrix",
    "find_integer_target", "jury_stable", "make_gamma_ini",
    "monic_from_vector", "poly_roots", "preprocess_plant",
    "realize_controller", "realize_tf", "run_algorithm1", "run_algorithm2",
    "schur_check", "simulate_loop", "solve_diophantine", "solve_linear",
    "stabilize_proper", "tf_equal", "toeplitz_stack", "vec_1norm",
    "vector_from_monic",
]
